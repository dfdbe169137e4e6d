"""On-disk cache of generated artifact files.

Every artifact is deterministic plain text whose header carries a content
digest, and headers of derived artifacts embed the digest of what they were
built from, so caches chain and hits are byte-identical with cold runs.
The directory comes from (in order) an explicit path, the
``CHORDBASIS_CACHE`` environment variable, or ``~/.cache/chordbasis``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .util import content_digest

ENV_VAR = "CHORDBASIS_CACHE"


@dataclass(frozen=True)
class CacheEntry:
    """One cached artifact: its key fields (parsed back from the file
    name and header), path, and size as creation metadata."""

    kind: str  # diagrams | relations | basis | orbits | equivariant
    m: int
    n: int
    connected: bool | None
    digest: str
    path: Path
    size: int


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

    def entries(self) -> list[CacheEntry]:
        out = []
        if not self.root.is_dir():
            return out
        for p in sorted(self.root.glob("*.txt")):
            stem = p.stem  # e.g. diagrams-m2-n3-conn
            parts = stem.split("-")
            if len(parts) < 3 or not parts[1].startswith("m") or not parts[2].startswith("n"):
                continue
            kind = parts[0]
            m = int(parts[1][1:])
            n = int(parts[2][1:])
            connected = None
            if len(parts) > 3:
                connected = parts[3] == "conn"
            digest = ""
            header = p.read_text(encoding="utf-8").split("\n", 1)[0]
            for field in header.split():
                if field.startswith("digest="):
                    digest = field.split("=", 1)[1]
            out.append(CacheEntry(kind, m, n, connected, digest,
                                  p, p.stat().st_size))
        return out


def artifact_intact(text: str) -> bool:
    """True when the header's ``digest=`` field is the digest of the body."""
    header, newline, body = text.partition("\n")
    digests = [f[len("digest="):] for f in header.split() if f.startswith("digest=")]
    return bool(newline) and digests == [content_digest(body)]


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
