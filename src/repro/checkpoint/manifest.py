"""Checkpoint manifests: atomic multi-file commits with retention.

A checkpoint *generation* is a directory of verified files
(``ckpt-<generation>/`` under one rank's checkpoint root) plus exactly
one manifest (``manifest-<generation>.json`` next to it).  The manifest
is written **last**, atomically — its existence is the commit record.
A crash mid-save leaves data files without a manifest; readers never
see them, and the next save of the same generation simply overwrites.

Each manifest lists every committed file with its byte count and the
CRC32 of its payload (the same checksum the file's own trailer
carries), so :func:`verify_generation` can audit a whole commit without
parsing a single array, and a reader can tell "file missing" apart from
"file torn" apart from "file substituted".

Retention is generation-numbered: :func:`apply_retention` keeps the
newest ``keep`` committed generations per rank directory and deletes
the data *and* manifest of everything older — oldest first, so an
interrupted cleanup still leaves the newest commits intact.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.checkpoint.format import ChecksumError, atomic_write, unseal

_MANIFEST_RE = re.compile(r"^manifest-(\d{8})\.json$")


def generation_dirname(generation: int) -> str:
    """Data directory name of one committed generation."""
    return f"ckpt-{int(generation):08d}"


def manifest_filename(generation: int) -> str:
    """Manifest (commit record) file name of one generation."""
    return f"manifest-{int(generation):08d}.json"


@dataclass
class ManifestFile:
    """One committed file: name (relative to the generation dir), its
    on-disk byte count, and the CRC32 of its *payload* (pre-trailer)."""

    name: str
    nbytes: int
    crc32: int


@dataclass
class Manifest:
    """Commit record for one rank's part of one checkpoint generation.

    ``mode`` is ``"full"`` (a replicated full-model payload, present on
    the writing rank only) or ``"sharded"`` (every rank owns a shard).
    ``meta`` carries whatever the engine needs to restore — iteration,
    world size, span tables — and is opaque to this module.
    """

    generation: int
    rank: int
    world_size: int
    iteration: int
    mode: str = "full"
    files: List[ManifestFile] = field(default_factory=list)
    meta: Dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        raw = json.loads(text)
        raw["files"] = [ManifestFile(**entry) for entry in raw.get("files", [])]
        return cls(**raw)


def write_manifest(rank_dir: str, manifest: Manifest) -> str:
    """Atomically write the commit record; returns its path.

    This is the last step of a save — every data file the manifest
    names must already be durably in place.
    """
    path = os.path.join(rank_dir, manifest_filename(manifest.generation))
    atomic_write(path, manifest.to_json().encode())
    return path


def list_generations(rank_dir: str) -> List[int]:
    """Committed generation numbers in one rank directory, ascending."""
    if not os.path.isdir(rank_dir):
        return []
    found = []
    for name in os.listdir(rank_dir):
        match = _MANIFEST_RE.match(name)
        if match:
            found.append(int(match.group(1)))
    return sorted(found)


def load_generation_manifest(rank_dir: str, generation: int) -> Optional[Manifest]:
    """The manifest of ``generation`` in ``rank_dir``, or None; a
    malformed one raises :class:`ChecksumError`."""
    path = os.path.join(rank_dir, manifest_filename(generation))
    if not os.path.isfile(path):
        return None
    try:
        with open(path) as handle:
            return Manifest.from_json(handle.read())
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ChecksumError(f"unreadable manifest ({exc})", path=path) from exc


def verify_generation(rank_dir: str, manifest: Manifest) -> Dict[str, bytes]:
    """Audit one commit: every listed file present, sized, CRC-valid.

    Raises :class:`ChecksumError` naming the first failing file, else
    returns the verified payload bytes by file name — each file is read
    once and its payload CRC'd once, checked against both the file's own
    trailer and the value the manifest recorded at save time, so a
    restore parses what the audit read.
    """
    gen_dir = os.path.join(rank_dir, generation_dirname(manifest.generation))
    payloads: Dict[str, bytes] = {}
    for entry in manifest.files:
        path = os.path.join(gen_dir, entry.name)
        if not os.path.isfile(path):
            raise ChecksumError(
                f"manifest names missing file {entry.name!r}", path=path
            )
        with open(path, "rb") as handle:
            data = handle.read()
        if len(data) != entry.nbytes:
            raise ChecksumError(
                f"file is {len(data)} bytes, manifest recorded {entry.nbytes}",
                path=path,
            )
        payloads[entry.name], actual = unseal(data, path=path)
        if actual != entry.crc32:
            raise ChecksumError(
                f"payload CRC {actual:#010x} does not match manifest "
                f"record {entry.crc32:#010x}",
                path=path,
            )
    return payloads


def apply_retention(rank_dir: str, keep: int) -> List[int]:
    """Delete all but the newest ``keep`` committed generations.

    Returns the deleted generation numbers.  Deletion order is oldest
    first, data directory before manifest, so an interruption can only
    strand an uncommitted (manifest-less) directory — which readers
    already ignore.
    """
    if keep < 1:
        raise ValueError("retention keep must be >= 1")
    generations = list_generations(rank_dir)
    victims = generations[:-keep]
    for generation in victims:
        gen_dir = os.path.join(rank_dir, generation_dirname(generation))
        shutil.rmtree(gen_dir, ignore_errors=True)
        try:
            os.remove(os.path.join(rank_dir, manifest_filename(generation)))
        except FileNotFoundError:
            pass
    return victims
