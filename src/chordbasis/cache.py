"""On-disk cache of generated artifact files.

Every artifact is deterministic plain text whose header carries a content
digest, and headers of derived artifacts embed the digest of what they were
built from, so caches chain and hits are byte-identical with cold runs.
:func:`artifact_text` alone writes a header's identity and digest
(:func:`content_digest`), and :func:`header_fields` reads its fields back.
A cached file is a hit only when its header starts as :func:`artifact_text`
starts the file of that name (:func:`header_prefix`) and its ``digest=`` is
the digest of its body (:func:`artifact_intact`); the layout of a basis file
is checked by ``basis.basis_sections``.
The directory comes from (in order) an explicit path, the
``CHORDBASIS_CACHE`` environment variable, or ``~/.cache/chordbasis``.
"""

from __future__ import annotations

import hashlib
import os
from itertools import count
from pathlib import Path

ENV_VAR = "CHORDBASIS_CACHE"
_WRITES = count()


def content_digest(body: str) -> str:
    """Stable content hash used in file headers, as ``sha256:<hex>``."""
    return "sha256:" + hashlib.sha256(body.encode("utf-8")).hexdigest()


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

    def get_text(self, name: str) -> str | None:
        p = self.root / name
        if p.is_file():
            # undecodable bytes become U+FFFD, which fails artifact_intact
            return p.read_text(encoding="utf-8", errors="replace")
        return None

    def put_text(self, name: str, text: str) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        p = self.root / name
        # a temp file of this write's own (pid and a count over the process):
        # a shared one could be moved away between this write and its replace
        tmp = p.with_name(f"{p.name}.{os.getpid()}-{next(_WRITES)}.tmp")
        try:
            tmp.write_text(text, encoding="utf-8", newline="\n")
            tmp.replace(p)
        except BaseException:
            tmp.unlink(missing_ok=True)  # a failed write leaves no temp file
            raise
        return p


def artifact_intact(text: str) -> bool:
    """True when the header's one ``digest=`` field is the digest of the
    body, the framing every artifact file shares."""
    header, newline, body = text.partition("\n")
    digests = [w[len("digest="):] for w in header.split() if w.startswith("digest=")]
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


def header_prefix(name: str) -> str:
    """How :func:`artifact_text` starts the header of the file named
    ``name`` by the functions above: the kind word (a diagram set has none),
    then the (m, n) the name promises and, for a diagram set, whether it is
    connected.  A cached file that starts otherwise was written for another
    name and is a miss."""
    kind, m, n, *which = name.removesuffix(".txt").split("-")
    where = f"m={m[1:]} n={n[1:]} "
    if kind == "diagrams":
        return f"{where}connected={int(which == ['conn'])} "
    words = {"orbits": "orbit-report", "equivariant": "equivariant-basis"}
    return f"{words.get(kind, kind)} {where}"


def header_fields(text: str) -> dict[str, str]:
    """The ``key=value`` words of the header line of ``text``, after its
    kind word when it has one (a first word without ``=``); raises
    ValueError on any other word without ``=``."""
    words = text.split("\n", 1)[0].split()
    if words and "=" not in words[0]:
        del words[0]
    return dict(w.split("=", 1) for w in words)


def artifact_text(name: str, fields: str, body: str) -> str:
    """The artifact file ``name``: a header of :func:`header_prefix`, the
    writer's own ``fields`` and the ``digest=`` of ``body``, then ``body``."""
    return f"{header_prefix(name)}{fields} digest={content_digest(body)}\n{body}"
