"""Output checks for the benchmark.

Every timed call is one *op*. An op fails when it raises, when a command
exits nonzero, or when its output differs from the expected value; the
failure is recorded and the run goes on with the next op. Artifact texts are
checked by sha256 against ``reference.json``, which was recorded from the
code the benchmark was written against (see ``reference.py``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from contextlib import contextmanager
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(path: Path = REFERENCE_PATH) -> dict[str, str]:
    return json.loads(path.read_text(encoding="utf-8"))


class Checker:
    """Counts ops attempted and failed. With ``reference=None`` it records
    digests instead of comparing them (used to write ``reference.json``)."""

    def __init__(self, reference: dict[str, str] | None):
        self.reference = reference
        self.recorded: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._label = ""
        self._op_failed = False

    @contextmanager
    def op(self, label: str):
        """Run one op; an exception inside it fails the op and is swallowed."""
        self.attempted += 1
        self._label, self._op_failed = label, False
        try:
            yield
        except Exception as exc:  # any error is a failed op, never a crash
            self.fail(f"{type(exc).__name__}: {exc}")
        finally:
            if self._op_failed:
                self.failed += 1
            self._label = ""

    def fail(self, reason: str) -> None:
        if not self._label:
            # a check made outside any op (the count-repeat check) is an op
            # of its own
            self.attempted += 1
            self.failed += 1
            self.failures.append(reason)
            return
        self._op_failed = True
        self.failures.append(f"{self._label}: {reason}")

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.fail(f"{what}: got {got!r}, expected {want!r}")

    def digest(self, key: str, text: str) -> None:
        self.digest_of(key, sha256(text))

    def digest_of(self, key: str, d: str) -> None:
        """Check an artifact's sha256 ``d`` against the reference."""
        if self.reference is None:
            if self.recorded.setdefault(key, d) != d:
                self.fail(f"{key}: two different texts under one key")
        elif key not in self.reference:
            self.fail(f"{key}: no reference digest")
        elif self.reference[key] != d:
            self.fail(f"{key}: sha256 {d[:16]}... differs from the reference")


def canonical_string(text: str) -> str:
    """Canonical form of a diagram written as digit blocks joined by '|',
    computed independently of the program: the least feet sequence over all
    per-circle rotations, chords renumbered by first occurrence."""
    blocks = [[int(ch) for ch in part] for part in text.split("|")]
    best = None
    for shifts in itertools.product(*(range(max(len(b), 1)) for b in blocks)):
        relabel: dict[int, int] = {}
        feet = tuple(relabel.setdefault(c, len(relabel))
                     for b, s in zip(blocks, shifts) for c in b[s:] + b[:s])
        if best is None or feet < best:
            best = feet
    out, pos = [], 0
    for b in blocks:
        out.append("".join(str(c) for c in best[pos:pos + len(b)]))
        pos += len(b)
    return "|".join(out)


def expected_express_line(basis_text: str, canonical: str) -> str:
    """The line ``express`` must print for ``canonical``, read from a basis
    artifact: its pivot-expression line, or ``d = 1*d`` for a basis member."""
    lines = basis_text.split("\n")[1:]
    cut = lines.index("pivot-expressions")
    if canonical in lines[:cut]:
        return f"{canonical} = 1*{canonical}"
    for line in lines[cut + 1:]:
        if line.startswith(canonical + " = "):
            return line
    raise ValueError(f"{canonical} is not in the basis artifact")
