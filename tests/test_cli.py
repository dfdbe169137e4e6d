import json
import os
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from chordbasis.basis import basis_sections, clear_memo, connected_basis, express, quotient
from chordbasis import basis as basis_module, budget as budget_module, cli
from chordbasis.cache import diagrams_name
from chordbasis.cli import main
from chordbasis.diagrams import diagram
from chordbasis.enumeration import enumerate_all, enumerate_connected
from chordbasis.symmetry import vector_of, verify_equivariant


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


def test_express_rejects_disconnected(tmp_path, capsys, monkeypatch):
    # refused at once: nothing is computed and the cache stays empty
    def refuse(*args, **kwargs):
        raise AssertionError("a disconnected express computed the quotient")

    monkeypatch.setattr("chordbasis.cli.quotient", refuse)
    cache = tmp_path / "cache"
    for text in ("00|11", "0011223344|", "|"):
        assert run(tmp_path, "express", text, cache=cache) == 2
        assert capsys.readouterr().err.endswith(" is not in the enumerated set\n")
    assert not cache.exists() or not any(cache.iterdir())


def test_express_miss_writes_only_the_basis_file(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert run(tmp_path, "express", "1020|21", cache=cache) == 0
    assert [p.name for p in cache.iterdir()] == ["basis-m2-n3.txt"]
    # a later basis command hits that file and prints the same dimension
    assert run(tmp_path, "basis", "2", "3", cache=cache) == 0
    assert run(tmp_path, "basis", "2", "3", cache=tmp_path / "fresh") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == out[2]


def test_cache_miss_past_the_deadline_writes_nothing(tmp_path, capsys, monkeypatch):
    # the time budget runs out while the basis file is formatted
    slow = cli.basis_to_text

    def late(b):
        time.sleep(0.5)
        return slow(b)

    monkeypatch.setattr(cli, "basis_to_text", late)
    cache = tmp_path / "cache"
    assert run(tmp_path, "--time-budget", "0.3", "express", "0102|12", cache=cache) == 3
    assert not (cache / "basis-m2-n3.txt").exists()


def test_express_then_basis_leaves_the_cold_file_set(tmp_path, capsys):
    cold, cache = tmp_path / "cold", tmp_path / "cache"
    assert run(tmp_path, "basis", "2", "3", cache=cold) == 0
    assert run(tmp_path, "express", "1020|21", cache=cache) == 0
    assert run(tmp_path, "basis", "2", "3", cache=cache) == 0
    assert capsys.readouterr().err == ""
    assert ({p.name: p.read_bytes() for p in cache.iterdir()}
            == {p.name: p.read_bytes() for p in cold.iterdir()})


def test_warm_basis_mends_an_edited_relations_file(tmp_path, capsys):
    cold, cache = tmp_path / "cold", tmp_path / "cache"
    assert run(tmp_path, "basis", "2", "3", cache=cold) == 0
    assert run(tmp_path, "basis", "2", "3", cache=cache) == 0
    path = cache / "relations-m2-n3.txt"
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[2] = lines[4]  # a row replaced by the next one
    path.write_text("\n".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert run(tmp_path, "basis", "2", "3", cache=cache) == 0
    out, err = capsys.readouterr()
    assert out == "9\n"
    assert len(err.splitlines()) == 1 and str(path) in err
    assert path.read_bytes() == (cold / path.name).read_bytes()


def test_basis_charges_its_quotient_once_for_both_files(tmp_path, capsys):
    # the basis and relations files share one quotient, so a candidate cap
    # that fits the instance once lets a cold basis write both
    cap = str(quotient(3, 4).candidates)
    assert run(tmp_path, "--max-candidates", cap, "basis", "3", "4") == 0
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
        "basis-m3-n4.txt", "relations-m3-n4.txt"]
    # and the cap is tight
    assert run(tmp_path, "--max-candidates", str(int(cap) - 1), "basis", "3", "4",
               cache=tmp_path / "other") == 3


def test_verify_pays_for_each_quotient_once(tmp_path, capsys):
    # a cold verify --profile fast needs 25,763 candidates: 24,322 for its
    # quotients, direct and without isolated chords, which its files and its
    # checks reach through one budget that pays for each once, and 1,441 for
    # the labelled trees of n = 1..5
    clear_memo()
    assert run(tmp_path, "--max-candidates", "25763", "verify", "--profile", "fast") == 1
    out, err = capsys.readouterr()
    # the closed-form polynomial check fails on its own (criterion 04)
    assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")] == [
        "closed-form-polynomials"]
    assert err == ""
    # and the cap is tight, warm memo or not
    assert run(tmp_path, "--max-candidates", "25762", "verify", "--profile", "fast",
               cache=tmp_path / "other") == 3
    assert "25763 > 25762" in capsys.readouterr().err


def test_a_relations_only_miss_runs_no_elimination(tmp_path, capsys, monkeypatch):
    assert run(tmp_path, "basis", "2", "4") == 0
    cold = capsys.readouterr().out
    path = tmp_path / "cache" / "relations-m2-n4.txt"
    written = path.read_bytes()
    path.unlink()
    clear_memo()
    eliminations = []
    monkeypatch.setattr(basis_module, "echelon_form",
                        lambda *args, **kwargs: eliminations.append(args))
    assert run(tmp_path, "basis", "2", "4") == 0
    assert eliminations == []
    assert path.read_bytes() == written
    assert capsys.readouterr().out == cold


def test_usage_error_on_bad_diagram(tmp_path):
    assert run(tmp_path, "express", "001") == 2


def test_budget_exit_code(tmp_path):
    assert run(tmp_path, "--max-candidates", "10", "enumerate", "2", "4") == 3


@pytest.mark.parametrize("argv", [["tree-basis", "4"], ["equivariant", "5", "4"]])
def test_tree_construction_is_charged_against_the_candidate_cap(tmp_path, capsys, argv):
    # 125 trees on five circles, none built under a cap of 10
    out = tmp_path / "out.txt"
    assert run(tmp_path, "--max-candidates", "10", *argv, "--out", str(out)) == 3
    assert "candidate budget exceeded: 125 > 10" in capsys.readouterr().err
    assert not out.exists()
    assert not any((tmp_path / "cache").glob("*"))
    assert run(tmp_path, "--max-candidates", "125", *argv, "--out", str(out)) == 0


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


@pytest.mark.parametrize("corrupt", [_garbage, _edit_body_line, _inflate_dim,
                                     _inflate_count, None],
                         ids=["garbage", "edit-body-line", "inflate-dim", "inflate-count",
                              "relations-file"])
def test_render_refuses_what_is_not_an_intact_basis_file(tmp_path, capsys, corrupt):
    cold = tmp_path / "cold"
    assert run(tmp_path, "basis", "2", "3", cache=cold) == 0
    if corrupt is None:
        text = (cold / "relations-m2-n3.txt").read_text(encoding="utf-8")
    else:
        text = corrupt((cold / "basis-m2-n3.txt").read_text(encoding="utf-8"))
    path, svg_dir = tmp_path / "b.txt", tmp_path / "svgs"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run(tmp_path, "render", "--basis-file", str(path), "--svg", str(svg_dir)) == 2
    assert run(tmp_path, "render", "--basis-file", str(path)) == 2
    out, err = capsys.readouterr()
    assert out == "" and not svg_dir.exists()
    assert err.splitlines() == [f"error: {path} is not an intact basis file"] * 2


@pytest.mark.parametrize("source, target, copied", [
    (["basis", "2", "3"], ["basis", "3", "3"], ("basis-m2-n3.txt", "basis-m3-n3.txt")),
    (["basis", "2", "3"], ["basis", "3", "3"], ("relations-m2-n3.txt", "relations-m3-n3.txt")),
    (["basis", "2", "3"], ["express", "0102|1|2"], ("basis-m2-n3.txt", "basis-m3-n3.txt")),
    (["enumerate", "2", "3", "--connected"], ["enumerate", "3", "3", "--connected"],
     ("diagrams-m2-n3-conn.txt", "diagrams-m3-n3-conn.txt")),
    (["enumerate", "2", "3"], ["enumerate", "2", "3", "--connected"],
     ("diagrams-m2-n3-all.txt", "diagrams-m2-n3-conn.txt")),
    (["orbits", "2", "3"], ["orbits", "3", "3"], ("orbits-m2-n3.txt", "orbits-m3-n3.txt")),
    (["equivariant", "2", "3"], ["equivariant", "3", "3"],
     ("equivariant-m2-n3.txt", "equivariant-m3-n3.txt")),
], ids=["basis", "relations", "express", "enumerate-connected", "enumerate-all-as-connected",
        "orbits", "equivariant"])
def test_cached_file_written_for_another_name_is_recomputed(tmp_path, capsys, source,
                                                            target, copied):
    # an intact file copied to another artifact's name is a miss: its
    # header does not start as that name's writer starts it
    fresh, cache = tmp_path / "fresh", tmp_path / "cache"
    assert run(tmp_path, *target, cache=fresh) == 0
    expected = capsys.readouterr().out
    assert run(tmp_path, *source, cache=cache) == 0
    shutil.copyfile(cache / copied[0], cache / copied[1])
    capsys.readouterr()
    assert run(tmp_path, *target, cache=cache) == 0
    out, err = capsys.readouterr()
    assert out == expected
    assert str(cache / copied[1]) in err and len(err.splitlines()) == 1
    assert (cache / copied[1]).read_bytes() == (fresh / copied[1]).read_bytes()


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


def test_render_basis_file_keeps_the_bare_circle(tmp_path, capsys):
    # the (1,0) basis is the bare circle, whose basis line is empty
    out = tmp_path / "b.txt"
    assert run(tmp_path, "basis", "1", "0", "--out", str(out)) == 0
    assert capsys.readouterr().out == "1\n"
    svg_dir = tmp_path / "svgs"
    assert run(tmp_path, "render", "--basis-file", str(out), "--svg", str(svg_dir)) == 0
    assert [p.name for p in svg_dir.iterdir()] == ["0000_.svg"]
    assert capsys.readouterr().out == f"wrote 1 file(s) to {svg_dir}\n"
    assert run(tmp_path, "render", "--basis-file", str(out)) == 0
    assert capsys.readouterr().out == "\n"


def test_render_bare_circle(tmp_path, capsys):
    # "" is the one-circle diagram without chords
    assert run(tmp_path, "render", "") == 0
    assert capsys.readouterr().out == "\n"
    svg_dir = tmp_path / "svgs"
    assert run(tmp_path, "render", "", "--svg", str(svg_dir)) == 0
    assert [p.name for p in svg_dir.iterdir()] == ["0000_.svg"]
    capsys.readouterr()
    assert run(tmp_path, "render") == 2
    assert capsys.readouterr().err == "error: render needs a diagram string or --basis-file\n"


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


@pytest.mark.parametrize("m, n", [(3, 2), (4, 3)])
def test_equivariant_tree_basis_at_one_more_circle_than_chords(tmp_path, capsys, m, n):
    cache = tmp_path / "cache"
    assert run(tmp_path, "equivariant", str(m), str(n), cache=cache) == 0
    cold = capsys.readouterr().out
    assert cold == (cache / f"equivariant-m{m}-n{n}.txt").read_text()
    head, *body = cold.splitlines()
    fields = dict(item.split("=", 1) for item in head.split()[1:])
    assert fields["vectors"] == str((n + 1) ** (n - 1)) == str(len(body))
    assert fields["rounds"] == "0"
    # each line is one labelled-tree diagram with coefficient 1
    vectors = []
    for line in body:
        coef, text = line.split("*", 1)
        assert coef == "1"
        vectors.append(vector_of(diagram(text)))
    assert verify_equivariant(vectors, connected_basis(m, n))
    assert run(tmp_path, "equivariant", str(m), str(n), cache=cache) == 0
    assert capsys.readouterr().out == cold


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
                                  ("full-basis", "0", "2"), ("full-basis", "2", "-1"),
                                  ("table", "--family", "C", "--nmax", "0"),
                                  ("table", "--family", "A", "--mmax", "-1")])
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


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    conn = tmp_path / "conn.txt"
    assert run(tmp_path, "enumerate", "1", "3", "--connected", "--out", str(conn)) == 0
    assert run(tmp_path, "enumerate", "1", "3") == 0
    # neither --connected nor --out carried over to the second call
    assert capsys.readouterr().out == enumerate_all(1, 3).to_text()
    assert conn.read_text() == enumerate_connected(1, 3).to_text()
    assert run(tmp_path, "--max-candidates", "10", "enumerate", "2", "4") == 3
    assert run(tmp_path, "enumerate", "2", "4") == 0
    assert capsys.readouterr().out == enumerate_all(2, 4).to_text()
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "enumerate", "one", "3")
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(tmp_path, "enumerate", "1", "3", "--connected") == 0
    assert capsys.readouterr().out == enumerate_connected(1, 3).to_text()


PARSER_COUNT_CHILD = """
import argparse, json, sys
built = []
init = argparse.ArgumentParser.__init__

def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting
from chordbasis import cli
counts = [len(built)]
for argv in (["basis", "1", "1"], ["enumerate", "2", "2", "--connected"]):
    assert cli.main(["--cache", sys.argv[1], *argv]) == 0
    counts.append(len(built))
print(json.dumps(counts))
"""


def test_one_parser_per_process(tmp_path):
    # a fresh process, so the import and the first main call are this test's
    proc = subprocess.run([sys.executable, "-c", PARSER_COUNT_CHILD, str(tmp_path / "cache")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    at_import, after_first, after_second = json.loads(proc.stdout.splitlines()[-1])
    assert at_import == 0
    assert after_first > 0
    assert after_second == after_first


def test_consecutive_calls_match_a_fresh_process(tmp_path, capsys):
    cache = tmp_path / "cache"  # CHORDBASIS_CACHE, read by every call below
    conn = tmp_path / "conn.txt"
    assert main(["enumerate", "2", "3", "--connected", "--out", str(conn)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["basis", "x", "2"])
    assert exc.value.code == 2
    config = tmp_path / "c.conf"
    config.write_text("time-budget = 0.000001\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["--config", str(config), "basis", "2", "2"]) == 3
    assert "time budget" in capsys.readouterr().err
    assert main(["enumerate", "2", "3"]) == 0
    out = capsys.readouterr().out

    fresh = tmp_path / "fresh"
    proc = subprocess.run([sys.executable, "-m", "chordbasis", "enumerate", "2", "3"],
                          capture_output=True, timeout=60,
                          env={**os.environ, "CHORDBASIS_CACHE": str(fresh)})
    assert proc.returncode == 0, proc.stderr
    assert out.encode("utf-8") == proc.stdout
    assert out == enumerate_all(2, 3).to_text()
    assert conn.read_text() == enumerate_connected(2, 3).to_text()
    name = diagrams_name(2, 3, False)
    assert {f.name: f.read_bytes() for f in fresh.iterdir()} == {name: proc.stdout}
    assert {f.name for f in cache.iterdir()} == {name, diagrams_name(2, 3, True)}
    assert (cache / name).read_bytes() == proc.stdout


def _rotated(d):
    """``d`` with every circle turned by one foot and the chord labels
    reversed: the same diagram, mostly not in its canonical form."""
    flip = {str(k): str(d.n - 1 - k) for k in range(d.n)}
    return "|".join("".join(flip[c] for c in block[1:] + block[:1])
                    for block in str(d).split("|"))


def _library_line(d, b):
    combo = express(d, b)
    terms = " + ".join(f"{coef}*{diag}"
                       for diag, coef in sorted(combo.items(), key=lambda t: t[0])
                       if coef)
    return f"{d} = {terms if terms else '0'}\n"


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3)])
def test_express_prints_the_library_expression(tmp_path, capsys, monkeypatch, m, n):
    b = connected_basis(m, n)
    texts = {d: _rotated(d) for d in b.diagram_set.diagrams}
    assert all(diagram(t) == d for d, t in texts.items())
    assert sum(t != str(d) for d, t in texts.items()) > len(texts) // 2
    warm = tmp_path / "warm"
    for i, (d, text) in enumerate(texts.items()):
        expected = _library_line(d, b)
        assert run(tmp_path, "express", text, cache=tmp_path / f"cold{i}") == 0
        assert capsys.readouterr().out == expected
        assert run(tmp_path, "express", text, cache=warm) == 0
        assert run(tmp_path, "express", text, cache=warm) == 0
        assert capsys.readouterr().out == expected * 2
    answers = {d: _library_line(d, b) for d in texts}

    def refuse(*args, **kwargs):
        raise AssertionError("a warm express computed the quotient")

    with monkeypatch.context() as patched:
        patched.setattr("chordbasis.cli.quotient", refuse)
        for d, text in texts.items():
            assert run(tmp_path, "express", text, cache=warm) == 0
            assert capsys.readouterr().out == answers[d]
    path = warm / f"basis-m{m}-n{n}.txt"
    intact = path.read_bytes()
    path.write_text(_edit_body_line(intact.decode("utf-8")), encoding="utf-8")
    d = b.diagram_set.diagrams[-1]
    assert run(tmp_path, "express", texts[d], cache=warm) == 0
    out, err = capsys.readouterr()
    assert out == answers[d]
    assert str(path) in err and len(err.splitlines()) == 1
    assert path.read_bytes() == intact


def test_warm_cache_computes_nothing(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    commands = [("enumerate", "3", "3", "--connected"), ("basis", "2", "3"),
                ("orbits", "2", "3"), ("equivariant", "2", "3"),
                ("express", "1020|21")]
    cold = []
    for argv in commands:
        assert run(tmp_path, *argv, cache=cache) == 0
        cold.append(capsys.readouterr().out)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm command computed")

    for name in ("quotient", "connected_basis", "enumerate_connected", "enumerate_all",
                 "generate_relations", "orbit_report", "equivariantize_m2"):
        monkeypatch.setattr(f"chordbasis.cli.{name}", refuse)
    for argv, expected in zip(commands, cold):
        assert run(tmp_path, *argv, cache=cache) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize("source, argv, name", [
    (("basis", "3", "4"), ("orbits", "3", "4"), "orbits-m3-n4.txt"),
    (("basis", "2", "4"), ("equivariant", "2", "4"), "equivariant-m2-n4.txt"),
])
def test_orbits_and_equivariant_read_a_cached_basis(tmp_path, capsys, monkeypatch,
                                                    source, argv, name):
    fresh, cache = tmp_path / "fresh", tmp_path / "cache"
    assert run(tmp_path, *argv, cache=fresh) == 0
    expected = capsys.readouterr()
    assert sorted(p.name for p in fresh.iterdir()) == [name]  # a miss writes no basis
    assert run(tmp_path, *source, cache=cache) == 0
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("a quotient was computed")

    clear_memo()
    for quotient_call in ("quotient", "connected_basis"):
        monkeypatch.setattr(f"chordbasis.cli.{quotient_call}", refuse)
    assert run(tmp_path, *argv, cache=cache) == 0
    assert capsys.readouterr() == expected
    assert (cache / name).read_bytes() == (fresh / name).read_bytes()


def test_corrupt_cached_basis_is_recomputed_for_orbits(tmp_path, capsys):
    fresh, cache = tmp_path / "fresh", tmp_path / "cache"
    assert run(tmp_path, "orbits", "3", "4", cache=fresh) == 0
    expected = capsys.readouterr().out
    assert run(tmp_path, "basis", "3", "4", cache=cache) == 0
    path = cache / "basis-m3-n4.txt"
    corrupt = _edit_body_line(path.read_text(encoding="utf-8"))
    path.write_text(corrupt, encoding="utf-8")
    capsys.readouterr()
    clear_memo()
    assert run(tmp_path, "orbits", "3", "4", cache=cache) == 0
    out, err = capsys.readouterr()
    assert out == expected
    assert str(path) in err and len(err.splitlines()) == 1
    assert path.read_text(encoding="utf-8") == corrupt  # orbits writes no basis file


def test_orbits_over_a_cached_basis_enumerates_nothing(tmp_path, capsys):
    cache = tmp_path / "cache"
    clear_memo()
    assert run(tmp_path, "--max-candidates", "0", "orbits", "3", "4", cache=cache) == 3
    assert run(tmp_path, "basis", "3", "4", cache=cache) == 0
    clear_memo()
    assert run(tmp_path, "--max-candidates", "0", "orbits", "3", "4", cache=cache) == 0


def test_basis_out_of_time_after_relating_writes_neither_file(tmp_path, capsys, monkeypatch):
    # the clock jumps past the budget as soon as the full list is related
    jump = []
    monotonic = time.monotonic
    monkeypatch.setattr(budget_module, "time",
                        types.SimpleNamespace(monotonic=lambda: monotonic() + sum(jump)))
    related = basis_module.generate_relations

    def relate(*args, **kwargs):
        rows = related(*args, **kwargs)
        jump.append(1e6)
        return rows

    monkeypatch.setattr(basis_module, "generate_relations", relate)
    clear_memo()
    cache = tmp_path / "cache"
    assert run(tmp_path, "--time-budget", "100", "basis", "3", "4", cache=cache) == 3
    assert jump and "time budget" in capsys.readouterr().err
    assert not cache.exists() or not any(cache.iterdir())


def test_warm_basis_file_is_parsed_once(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    commands = [("basis", "2", "3"), ("express", "1020|21"), ("express", "0102|12")]
    cold = []
    for argv in commands:
        assert run(tmp_path, *argv, cache=cache) == 0
        cold.append(capsys.readouterr())
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return basis_sections(*args, **kwargs)

    monkeypatch.setattr("chordbasis.cli.basis_sections", counting)
    for argv, expected in zip(commands, cold):
        calls.clear()
        assert run(tmp_path, *argv, cache=cache) == 0
        assert capsys.readouterr() == expected
        assert len(calls) == 1, argv


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
    # the live n = 6 row starts, and the one-second budget stops it; C(1, 6)
    # alone takes about a second, so the row also asks for C(2, 6)
    assert run(tmp_path, "--time-budget", "1", "table", "--family", "C",
               "--nmax", "6", "--mmax", "2") == 3


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


def test_warm_verify_reuses_every_file_and_mends_a_corrupt_one(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    code = run(tmp_path, "verify", "--profile", "fast", cache=cache)
    statuses = [ln.split(" [")[0] for ln in capsys.readouterr().out.splitlines()]
    files = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in cache.iterdir()}
    assert len(files) == 27

    def refuse(*args, **kwargs):
        raise AssertionError("a warm verify built a relation list")

    monkeypatch.setattr("chordbasis.cli.generate_relations", refuse)
    assert run(tmp_path, "verify", "--profile", "fast", cache=cache) == code
    out, err = capsys.readouterr()
    assert [ln.split(" [")[0] for ln in out.splitlines()] == statuses and err == ""
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in cache.iterdir()} == files

    path = cache / "basis-m2-n3.txt"
    path.write_text(_edit_body_line(files[path.name][0].decode("utf-8")), encoding="utf-8")
    assert run(tmp_path, "verify", "--profile", "fast", cache=cache) == code
    err = capsys.readouterr().err
    assert str(path) in err and len(err.splitlines()) == 1
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == {
        name: data for name, (data, _) in files.items()}



def test_warm_verify_restores_a_deleted_relations_file(tmp_path, capsys):
    cache = tmp_path / "cache"
    code = run(tmp_path, "verify", "--profile", "fast", cache=cache)
    files = {p.name: p.read_bytes() for p in cache.iterdir()}
    (cache / "relations-m2-n3.txt").unlink()
    capsys.readouterr()
    assert run(tmp_path, "verify", "--profile", "fast", cache=cache) == code
    assert capsys.readouterr().err == ""
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == files
