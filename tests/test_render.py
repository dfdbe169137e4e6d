from chordbasis.diagrams import diagram
from chordbasis.render import render_svg


def test_svg_single_loop():
    svg = render_svg(diagram("00"))
    assert svg.count("<circle") == 1 + 2  # one circle, two foot dots
    assert svg.count("<line") == 1
    assert "stroke-dasharray" in svg


def test_svg_two_circles_three_chords():
    svg = render_svg(diagram("0102|12"))
    assert svg.count('fill="none"') == 2  # two solid circles
    assert svg.count("<line") == 3  # all chords dotted segments, incl. intra-circle


def test_equal_diagrams_render_identically():
    a = render_svg(diagram("0121|20"))
    b = render_svg(diagram("1020|21"))
    assert a == b
    assert render_svg(diagram("0121|20")) == a  # deterministic re-render


def test_empty_diagram_renders():
    svg = render_svg(diagram(""))
    assert svg.count("<circle") == 1
    assert svg.count("<line") == 0
