"""Artifact and config parsers: malformed text of any shape ends in
DiagramError (the CLI's usage error), never another exception type."""

import pytest
from hypothesis import example, given, settings, strategies as st

from chordbasis.basis import basis_sections, basis_to_text, connected_basis
from chordbasis.cli import CONFIG_KEYS, Settings, build_parser
from chordbasis.enumeration import DiagramSet, enumerate_connected
from chordbasis.errors import DiagramError
from chordbasis.relations import generate_relations, relations_from_text, relations_to_text
from chordbasis.util import content_digest

DS = enumerate_connected(2, 2)

# header-shaped text reaches the body and field parsers more often than
# arbitrary text alone
header_like = st.lists(
    st.one_of(
        st.sampled_from(["m=1", "n=x", "connected=1", "count=1", "rows=0",
                         "relations", "# source=a circle=0 pair=0,1 family=b",
                         "0:1 1:-1", "01|01", "\n", "=", "pair=1", "basis", "dim=0",
                         "pivot-expressions\n"]),
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
    b = connected_basis(2, 2)
    assert basis_sections(basis_to_text(b)) == (
        [str(d) for d in b.basis], basis_to_text(b).split("pivot-expressions\n")[1].splitlines())


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


def _redigested(text):
    header, _, body = text.partition("\n")
    return header.rsplit(" digest=", 1)[0] + f" digest={content_digest(body)}\n" + body


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("basis ", "orbit-report ", 1),
    lambda text: text.replace(" dim=", " stray dim=", 1),
    lambda text: _redigested(text + "0011 = 0"),
], ids=["header-word", "stray-header-word", "unterminated-last-line"])
def test_basis_file_parser_refuses_what_its_writer_never_writes(edit):
    text = basis_to_text(connected_basis(2, 2))
    assert basis_sections(_redigested(text)) == basis_sections(text)
    with pytest.raises(DiagramError):
        basis_sections(edit(text))


@settings(max_examples=300, deadline=None)
@given(texts)
@example("")
@example("basis dim=0 count=0\npivot-expressions\n")
def test_basis_file_parser_raises_only_diagram_errors(text):
    try:
        basis_sections(text)
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
