"""Tests of the benchmark's own checking.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import Checker, canonical_string, load_reference  # noqa: E402
from workloads import Symmetry  # noqa: E402


def test_corrupted_reference_digest_fails_one_op_and_the_run_goes_on(tmp_path):
    reference = load_reference()
    reference["orbits-m3-n4"] = "0" * 64
    checker = Checker(reference)
    workload = Symmetry(1, checker, tmp_path)
    workload.prepare()
    result = workload.plain_pass()
    # connected_basis x2, orbit_report, equivariantize_m2, verify_equivariant
    assert checker.attempted == 5
    assert checker.failed == 1
    assert checker.failures[0].startswith("orbit_report(3,4): orbits-m3-n4: sha256")
    # every call still ran and was timed
    assert {kind for kind, _ in result.calls} == {
        "basis.connected_basis", "symmetry.orbit_report", "symmetry.equivariantize",
        "symmetry.verify"}


def test_exception_in_an_op_is_a_failure_not_a_crash():
    checker = Checker({})
    with checker.op("first"):
        raise KeyError("boom")
    with checker.op("second"):
        checker.expect("value", 1, 1)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert checker.failures == ["first: KeyError: 'boom'"]


def test_canonical_string_rotates_and_relabels():
    assert canonical_string("10|01") == "01|01"
    assert canonical_string("1202|1|0") == "0102|1|2"


def test_canonical_string_agrees_with_the_program_on_scrambled_inputs():
    import random

    from chordbasis.diagrams import diagram
    from workloads import _scrambled_connected

    rng = random.Random(7)
    for _ in range(50):
        text = _scrambled_connected(rng, 3, 4)
        assert canonical_string(text) == str(diagram(text)) != text
