"""Artifact and config parsers: malformed text of any shape ends in
DiagramError (the CLI's usage error), never another exception type."""

import pytest
from hypothesis import example, given, settings, strategies as st

from chordbasis.cli import CONFIG_KEYS, Settings, build_parser
from chordbasis.enumeration import DiagramSet, enumerate_connected
from chordbasis.errors import DiagramError
from chordbasis.relations import generate_relations, relations_from_text, relations_to_text

DS = enumerate_connected(2, 2)

# header-shaped text reaches the body and field parsers more often than
# arbitrary text alone
header_like = st.lists(
    st.one_of(
        st.sampled_from(["m=1", "n=x", "connected=1", "count=1", "rows=0",
                         "relations", "# source=a circle=0 pair=0,1 family=b",
                         "0:1 1:-1", "01|01", "\n", "=", "pair=1"]),
        st.text(max_size=8),
    ),
    max_size=8,
).map(" ".join)
texts = st.one_of(st.text(), header_like)


@pytest.mark.parametrize("text", ["garbage", "", "m=1 n=x connected=1 count=0\n",
                                  "m=1 n=1 connected=1 count=1\n²\n"])
def test_diagram_file_header_errors_are_diagram_errors(text):
    with pytest.raises(DiagramError):
        DiagramSet.from_text(text)


def test_relation_file_header_errors_are_diagram_errors():
    with pytest.raises(DiagramError):
        relations_from_text("garbage", DS)


def test_well_formed_artifacts_round_trip():
    assert DiagramSet.from_text(DS.to_text()) == DS
    rows = generate_relations(DS)
    assert relations_from_text(relations_to_text(DS, rows), DS) == rows


@settings(max_examples=300, deadline=None)
@given(texts)
@example("")
@example("garbage")
def test_diagram_file_parser_raises_only_diagram_errors(text):
    try:
        DiagramSet.from_text(text)
    except DiagramError:
        pass


@settings(max_examples=300, deadline=None)
@given(texts)
@example("")
@example("garbage")
def test_relation_file_parser_raises_only_diagram_errors(text):
    try:
        relations_from_text(text, DS)
    except DiagramError:
        pass


config_like = st.lists(
    st.tuples(st.sampled_from(CONFIG_KEYS + ("wat", "")), st.sampled_from(["=", " = ", ""]),
              st.text(max_size=6)).map("".join),
    max_size=5,
).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(st.one_of(texts, config_like))
@example("max-candidates = lots")
def test_config_file_raises_only_diagram_errors(tmp_path_factory, text):
    """Reading the file and casting its values, as the CLI does."""
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        Settings(build_parser().parse_args(["--config", str(path), "tree-basis", "1"]))
    except DiagramError:
        pass
