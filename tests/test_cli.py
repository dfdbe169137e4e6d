import os
import time
from pathlib import Path

import pytest

from chordbasis.basis import clear_memo
from chordbasis.cli import main


def run(tmp_path, *argv, cache=None):
    cache_dir = str(cache if cache is not None else tmp_path / "cache")
    return main(["--cache", cache_dir, *argv])


def test_enumerate_writes_file(tmp_path, capsys):
    out = tmp_path / "d.txt"
    assert run(tmp_path, "enumerate", "1", "3", "--connected", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("m=1 n=3 connected=1 count=5")
    assert len(lines) == 6


def test_enumerate_zero_chords(tmp_path, capsys):
    assert run(tmp_path, "enumerate", "1", "0", "--out", str(tmp_path / "e.txt")) == 0
    lines = (tmp_path / "e.txt").read_text().splitlines()
    assert lines[0].startswith("m=1 n=0 connected=0 count=1")


def test_basis_prints_dimension(tmp_path, capsys):
    assert run(tmp_path, "basis", "3", "3") == 0
    assert capsys.readouterr().out.strip() == "16"


def test_basis_writes_chained_files(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert run(tmp_path, "basis", "2", "2", cache=cache) == 0
    basis_text = (cache / "basis-m2-n2.txt").read_text()
    relations_text = (cache / "relations-m2-n2.txt").read_text()
    diagrams_digest = None
    for field in relations_text.splitlines()[0].split():
        if field.startswith("diagrams-digest="):
            diagrams_digest = field.split("=", 1)[1]
    assert diagrams_digest is not None
    assert diagrams_digest in basis_text.splitlines()[0]


def test_table_connected(tmp_path, capsys):
    assert run(tmp_path, "table", "--family", "C", "--nmax", "3", "--mmax", "4") == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()]
    assert rows[1] == ["1", "1", "1", "2"]
    assert rows[3] == ["3", "3", "9", "16", "16", "44"]


def test_table_full_csv(tmp_path, capsys):
    assert run(tmp_path, "table", "--family", "A", "--nmax", "2", "--mmax", "6",
               "--csv") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "1,1,3,6,10,15,21"
    assert out[2] == "2,2,8,24,59,125,237"


def test_express_pivot_diagram(tmp_path, capsys):
    assert run(tmp_path, "express", "0011") == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("0011 = ")


def test_express_rejects_disconnected(tmp_path, capsys):
    assert run(tmp_path, "express", "00|11") == 2


def test_usage_error_on_bad_diagram(tmp_path):
    assert run(tmp_path, "express", "001") == 2


def test_budget_exit_code(tmp_path):
    assert run(tmp_path, "--max-candidates", "10", "enumerate", "2", "4") == 3


def test_time_budget_exit_code(tmp_path):
    assert run(tmp_path, "--time-budget", "0.000001", "basis", "2", "3") == 3


@pytest.mark.parametrize("flag, value", [
    ("--time-budget", "-1"),
    ("--time-budget", "nan"),
    ("--time-budget", "inf"),
    ("--max-candidates", "-3"),
    ("--max-matrix-cells", "-1"),
])
def test_nonsense_budget_is_a_usage_error(tmp_path, capsys, flag, value):
    assert run(tmp_path, flag, value, "basis", "1", "2") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: " + flag[2:] + " must be")
    config = tmp_path / "cfg.txt"
    config.write_text(f"{flag[2:]} = {value}\n")
    assert run(tmp_path, "--config", str(config), "basis", "1", "2") == 2


def test_zero_budgets_keep_their_meaning(tmp_path, capsys):
    # a zero time budget is unlimited; a zero cap is a cap of zero
    assert run(tmp_path, "--time-budget", "0", "basis", "1", "2") == 0
    assert run(tmp_path, "--max-candidates", "0", "enumerate", "1", "2") == 3


def test_matrix_cell_budget_reaches_dimension_table(tmp_path):
    assert run(tmp_path, "--max-matrix-cells", "1", "table", "--family", "C",
               "--nmax", "3", "--mmax", "3") == 3


def test_time_budget_fires_promptly_with_threads_flag(tmp_path):
    clear_memo()  # a memo hit would finish before the deadline
    start = time.monotonic()
    assert run(tmp_path, "--threads", "2", "--time-budget", "0.2",
               "basis", "3", "5") == 3
    assert time.monotonic() - start < 2.0


def _garbage(text):
    return "garbage"


def _edit_body_line(text):
    lines = text.split("\n")
    lines[1] = lines[2]  # a basis diagram replaced by its neighbour
    return "\n".join(lines)


def _inflate_dim(text):
    # the body, and so the digest, stay intact
    return text.replace(" dim=9 ", " dim=99 ", 1)


def _inflate_count(text):
    return text.replace(" count=", " count=1", 1)


@pytest.mark.parametrize("corrupt", [_garbage, _edit_body_line, _inflate_dim,
                                     _inflate_count])
def test_corrupt_cache_file_is_recomputed(tmp_path, capsys, corrupt):
    cold, cache = tmp_path / "cold", tmp_path / "cache"
    assert run(tmp_path, "basis", "2", "3", cache=cold) == 0
    expected = (cold / "basis-m2-n3.txt").read_bytes()
    path = cache / "basis-m2-n3.txt"
    cache.mkdir()
    path.write_text(corrupt(expected.decode("utf-8")), encoding="utf-8")
    capsys.readouterr()
    assert run(tmp_path, "basis", "2", "3", cache=cache) == 0
    out, err = capsys.readouterr()
    assert out.strip() == "9"
    assert str(path) in err and len(err.splitlines()) == 1
    assert path.read_bytes() == expected


def test_render_text(tmp_path, capsys):
    assert run(tmp_path, "render", "1100") == 0
    assert capsys.readouterr().out.strip() == "0011"


def test_render_svg_deterministic(tmp_path, capsys):
    d1 = tmp_path / "svg1"
    d2 = tmp_path / "svg2"
    assert run(tmp_path, "render", "0102|12", "--svg", str(d1)) == 0
    assert run(tmp_path, "render", "0102|12", "--svg", str(d2)) == 0
    f1 = sorted(d1.iterdir())
    f2 = sorted(d2.iterdir())
    assert [p.name for p in f1] == [p.name for p in f2]
    assert [p.read_bytes() for p in f1] == [p.read_bytes() for p in f2]


def test_render_basis_file(tmp_path, capsys):
    cache = tmp_path / "cache"
    out = tmp_path / "b.txt"
    assert run(tmp_path, "basis", "1", "2", "--out", str(out), cache=cache) == 0
    svg_dir = tmp_path / "svgs"
    assert run(tmp_path, "render", "--basis-file", str(out), "--svg", str(svg_dir)) == 0
    assert len(list(svg_dir.iterdir())) == 2  # dimension of the (1,2) space


def test_tree_basis_command(tmp_path, capsys):
    assert run(tmp_path, "tree-basis", "3", "--out", str(tmp_path / "t.txt")) == 0
    lines = (tmp_path / "t.txt").read_text().splitlines()
    assert lines[0].startswith("m=4 n=3 connected=1 count=16")


@pytest.mark.parametrize("command", [("tree-basis", "7"), ("equivariant", "8", "7")])
def test_time_budget_stops_tree_construction(tmp_path, capsys, command):
    # 8^6 = 262144 labelled trees, far more than half a second of work
    start = time.monotonic()
    assert run(tmp_path, "--time-budget", "0.5", *command) == 3
    assert time.monotonic() - start < 3.0


def test_equivariant_command(tmp_path, capsys):
    assert run(tmp_path, "equivariant", "2", "3", "--out", str(tmp_path / "eq.txt")) == 0
    head = (tmp_path / "eq.txt").read_text().splitlines()[0]
    assert head.startswith("equivariant-basis m=2 n=3 vectors=9")


def test_unfinished_greedy_run_emits_its_partial_basis(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert run(tmp_path, "equivariant", "3", "4", cache=cache) == 0
    cold = capsys.readouterr()
    assert "stopped with 10 incomplete orbits" in cold.err
    head = (cache / "equivariant-m3-n4.txt").read_text().splitlines()[0]
    fields = dict(item.split("=", 1) for item in head.split()[1:])
    assert fields["vectors"] == "67"
    assert fields["rounds"].endswith(",10")
    assert run(tmp_path, "equivariant", "3", "4", cache=cache) == 0
    assert capsys.readouterr().out == cold.out


@pytest.mark.parametrize("check, m, n", [("verify_equivariant", "2", "2"),
                                         ("is_basis", "3", "4")])
def test_failed_equivariance_verification_exits_1(tmp_path, capsys, monkeypatch,
                                                  check, m, n):
    # the full check for a finished repair, the basis check for a partial one
    monkeypatch.setattr(f"chordbasis.cli.{check}", lambda vectors, b, budget=None: False)
    cache = tmp_path / "cache"
    assert run(tmp_path, "equivariant", m, n, cache=cache) == 1
    err = capsys.readouterr().err
    assert err == "error: produced vectors failed the equivariance verification\n"
    assert not cache.exists() or not any(cache.iterdir())


@pytest.mark.parametrize("argv", [("tree-basis", "-1"), ("equivariant", "0", "-1"),
                                  ("full-basis", "0", "2"), ("full-basis", "2", "-1")])
def test_bad_circle_or_chord_count_is_a_usage_error(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_orbits_command(tmp_path, capsys):
    assert run(tmp_path, "orbits", "3", "3", "--out", str(tmp_path / "o.txt")) == 0
    head = (tmp_path / "o.txt").read_text().splitlines()[0]
    assert head.startswith("orbit-report m=3 n=3")


def test_full_basis_command(tmp_path, capsys):
    assert run(tmp_path, "full-basis", "2", "2", "--out", str(tmp_path / "f.txt")) == 0
    lines = (tmp_path / "f.txt").read_text().splitlines()
    assert lines[0].startswith("m=2 n=2 connected=0 count=8")


def test_warm_cache_is_byte_identical(tmp_path, capsys):
    cache = tmp_path / "cache"
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(tmp_path, "enumerate", "2", "3", "--connected",
               "--out", str(out1), cache=cache) == 0
    assert run(tmp_path, "enumerate", "2", "3", "--connected",
               "--out", str(out2), cache=cache) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (cache / "diagrams-m2-n3-conn.txt").read_bytes() == out1.read_bytes()


def test_config_file_precedence(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("max-candidates = 10\n# comment line\n")
    # config applies when the flag is absent
    assert main(["--cache", str(tmp_path / "c1"), "--config", str(config),
                 "enumerate", "2", "4"]) == 3
    # an explicit flag beats the config
    assert main(["--cache", str(tmp_path / "c2"), "--config", str(config),
                 "--max-candidates", "1000000", "enumerate", "2", "4",
                 "--out", str(tmp_path / "ok.txt")]) == 0


def test_config_rejects_unknown_keys(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("wat = 1\n")
    assert main(["--config", str(config), "enumerate", "1", "1"]) == 2


def test_config_value_that_does_not_parse_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "cfg.txt"
    for key in ("max-candidates", "threads"):
        config.write_text(f"{key} = lots\n")
        assert main(["--config", str(config), "enumerate", "1", "2"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert key in err and "lots" in err


def test_env_cache_dir_is_used(tmp_path, monkeypatch, capsys):
    env_cache = tmp_path / "envcache"
    monkeypatch.setenv("CHORDBASIS_CACHE", str(env_cache))
    assert main(["enumerate", "1", "2", "--connected", "--out",
                 str(tmp_path / "x.txt")]) == 0
    assert (env_cache / "diagrams-m1-n2-conn.txt").is_file()


def test_table_without_a_published_row_to_bundle_is_a_usage_error(tmp_path, capsys):
    assert run(tmp_path, "table", "--family", "C", "--nmax", "6", "--mmax", "2",
               "--c-source", "bundled") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_table_computes_rows_beyond_the_published_ones_live(tmp_path):
    # the live n = 6 row starts, and the one-second budget stops it
    assert run(tmp_path, "--time-budget", "1", "table", "--family", "C",
               "--nmax", "6", "--mmax", "1") == 3


def _undecodable(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xff\xfe")
    return str(path)


def _regular_file(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("")
    return str(path)


def _written_file(tmp_path, *argv):
    path = tmp_path / "written.txt"
    assert main(["--cache", str(tmp_path / "cache"), *argv, "--out", str(path)]) == 0
    return path


def _edited_basis_file(tmp_path):
    # the body no longer matches the header's digest=
    path = _written_file(tmp_path, "basis", "2", "2")
    lines = path.read_text().split("\n")
    lines[1] = "0011|"
    path.write_text("\n".join(lines))
    return str(path)


@pytest.mark.parametrize("argv", [
    lambda p: ["--config", str(p), "tree-basis", "1"],
    lambda p: ["render", "--basis-file", str(p)],
    lambda p: ["--cache", _regular_file(p), "basis", "1", "2"],
    lambda p: ["--config", _undecodable(p), "tree-basis", "1"],
    lambda p: ["render", "--basis-file", _undecodable(p)],
    lambda p: ["render", "--basis-file", _edited_basis_file(p)],
    lambda p: ["render", "--basis-file", str(_written_file(p, "enumerate", "2", "2"))],
], ids=["config-dir", "basis-file-dir", "cache-file", "config-bytes", "basis-file-bytes",
        "basis-file-edited", "basis-file-diagram-set"])
def test_unusable_user_named_file_is_a_usage_error(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
