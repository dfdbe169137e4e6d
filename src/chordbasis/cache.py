"""On-disk cache of generated artifact files.

Every artifact is deterministic plain text whose header carries a content
digest, and headers of derived artifacts embed the digest of what they were
built from, so caches chain and hits are byte-identical with cold runs.
The directory comes from (in order) an explicit path, the
``CHORDBASIS_CACHE`` environment variable, or ``~/.cache/chordbasis``.
"""

from __future__ import annotations

import os
from pathlib import Path

from .util import content_digest

ENV_VAR = "CHORDBASIS_CACHE"


def cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "chordbasis"


class DiskCache:
    def __init__(self, root: str | os.PathLike | None = None):
        self.root = cache_dir(root)

    def _path(self, name: str) -> Path:
        return self.root / name

    def get_text(self, name: str) -> str | None:
        p = self._path(name)
        if p.is_file():
            # undecodable bytes become U+FFFD, which fails artifact_intact
            return p.read_text(encoding="utf-8", errors="replace")
        return None

    def put_text(self, name: str, text: str) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        p = self._path(name)
        tmp = p.with_suffix(p.suffix + ".tmp")
        tmp.write_text(text, encoding="utf-8", newline="\n")
        tmp.replace(p)
        return p


def artifact_intact(text: str) -> bool:
    """True when the header's ``digest=`` field is the digest of the body
    and, in a basis file, ``dim=`` and ``count=`` agree with the body."""
    header, newline, body = text.partition("\n")
    words = header.split()
    digests = [w[len("digest="):] for w in words if w.startswith("digest=")]
    if not newline or digests != [content_digest(body)]:
        return False
    return words[:1] != ["basis"] or _basis_counts_match(words[1:], body)


def _basis_counts_match(fields: list[str], body: str) -> bool:
    """``dim=`` counts the basis lines before ``pivot-expressions`` and
    ``count=`` adds the expression lines after it."""
    lines = body.split("\n")  # the last item is the empty tail after "\n"
    if "pivot-expressions" not in lines or not all("=" in f for f in fields):
        return False
    dim = lines.index("pivot-expressions")
    header = dict(f.split("=", 1) for f in fields)
    return header.get("dim") == str(dim) and header.get("count") == str(len(lines) - 2)


def diagrams_name(m: int, n: int, connected: bool) -> str:
    return f"diagrams-m{m}-n{n}-{'conn' if connected else 'all'}.txt"


def relations_name(m: int, n: int) -> str:
    return f"relations-m{m}-n{n}.txt"


def basis_name(m: int, n: int) -> str:
    return f"basis-m{m}-n{n}.txt"


def orbits_name(m: int, n: int) -> str:
    return f"orbits-m{m}-n{n}.txt"


def equivariant_name(m: int, n: int) -> str:
    return f"equivariant-m{m}-n{n}.txt"
