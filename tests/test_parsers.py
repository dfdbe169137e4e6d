"""Artifact and config parsers: malformed text of any shape ends in
DiagramError (the CLI's usage error), never another exception type."""

import pytest
from hypothesis import example, given, settings, strategies as st

from chordbasis.basis import basis_from_text, basis_sections, basis_to_text, connected_basis
from chordbasis.cache import content_digest
from chordbasis import diagrams
from chordbasis.diagrams import diagram
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


def _swap_body_lines(text, i, j):
    lines = text.split("\n")
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


def _replace_body_line(text, i, line):
    lines = text.split("\n")
    lines[i] = line
    return "\n".join(lines)


def _rotated(line):
    """The diagram ``line`` names, its longest circle read one foot later."""
    circles = line.split("|")
    i = max(range(len(circles)), key=lambda k: len(circles[k]))
    circles[i] = circles[i][1:] + circles[i][0]
    edited = "|".join(circles)
    assert diagram(edited) == diagram(line) and edited != line
    return edited


def _pivot_named(text):
    """The first pivot line with its first term's diagram a pivot diagram."""
    lines = text.split("\n")
    cut = lines.index("pivot-expressions")
    i = next(k for k in range(cut + 1, len(lines) - 1) if "*" in lines[k])
    head, terms = lines[i].split(" = ")
    coef, term = terms.split(" + ")[0].split("*")
    other = next(ln.split(" = ")[0] for ln in lines[cut + 1:-1] if ln.split(" = ")[0] != head)
    lines[i] = lines[i].replace(f"{coef}*{term}", f"{coef}*{other}", 1)
    return "\n".join(lines)


@pytest.mark.parametrize("edit", [
    lambda text: _replace_body_line(text, 1, _rotated(text.split("\n")[1])),
    lambda text: _replace_body_line(text, 1, str(diagram("001122|"))),
    lambda text: _replace_body_line(text, 1, str(diagram("01|01"))),
    lambda text: _swap_body_lines(text, 1, 2),
    _pivot_named,
], ids=["non-canonical", "disconnected", "other-m-n", "swapped-basis-lines",
        "expression-names-a-pivot"])
def test_basis_file_reader_refuses_what_its_writer_never_writes(edit):
    text = basis_to_text(connected_basis(2, 3))
    assert basis_to_text(basis_from_text(_redigested(text))) == text
    edited = _redigested(edit(text))
    assert edited != text
    basis_sections(edited)  # the sections still parse: the reader refuses it
    with pytest.raises(DiagramError):
        basis_from_text(edited)


@settings(max_examples=300, deadline=None)
@given(texts)
@example("")
@example("basis dim=0 count=0\npivot-expressions\n")
def test_basis_file_parser_raises_only_diagram_errors(text):
    for read in (basis_sections, basis_from_text):
        try:
            read(text)
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


def test_each_parsed_diagram_is_validated_once(monkeypatch):
    # parse validates its input; the canonical form of a valid rep is valid
    # by construction and is not validated again
    ds = enumerate_connected(3, 3)
    basis_text = basis_to_text(connected_basis(3, 3))
    calls = []
    validate = diagrams.validate

    def counting(feet, starts):
        calls.append(feet)
        validate(feet, starts)

    monkeypatch.setattr(diagrams, "validate", counting)
    texts = ["0121|20", "0,1,10,1|10,2,3,4,5,6,7,8,9,2,3,4,5,6,7,8,9,0", "", "01|01|"]
    assert [str(diagram(text)) for text in texts]
    assert len(calls) == len(texts)
    for read, text in ((DiagramSet.from_text, ds.to_text()), (basis_from_text, basis_text)):
        calls.clear()
        read(text)
        assert len(calls) == len(ds) == 22
