"""Verified checkpoint bytes: magic + CRC trailer over any payload.

Atomic renames guarantee a checkpoint *file name* never points at a
half-written file — but they cannot protect against a torn write that
happened before the rename (a crashed writer that already renamed), a
disk that lied about durability, or bit rot on the stored bytes.  Every
checkpoint this package writes therefore carries a fixed-size trailer::

    MAGIC(8) | payload_length u64 LE | crc32 u32 LE | MAGIC(8)

appended *after* the payload bytes.  The payload stays a perfectly
ordinary ``.npz`` — ``zipfile`` locates the end-of-central-directory
record by scanning backwards, so ``np.load`` still opens the file — and
readers here verify the CRC before a single byte is unpickled, raising
:class:`ChecksumError` on any mismatch instead of handing numpy a torn
archive.  A file without the trailer is rejected the same way: nothing
under ``src/`` writes one, and accepting it would mean loading bytes
nobody can vouch for.

:func:`atomic_write` is the package's one way onto the disk (tmp file,
then an atomic rename) and the one place the fault plan's checkpoint
hook is applied; data files, replica files and manifests all go through
it.
"""

from __future__ import annotations

import io
import os
import struct
import zipfile
import zlib
from typing import Dict, Optional, Tuple

import numpy as np

#: Trailer framing: magic on both sides of the length and CRC fields.
MAGIC = b"RPROCKPT"
_TRAILER_STRUCT = struct.Struct("<QI")
#: Total trailer size in bytes: MAGIC + u64 length + u32 crc + MAGIC.
TRAILER_SIZE = len(MAGIC) * 2 + _TRAILER_STRUCT.size


class ChecksumError(RuntimeError):
    """A checkpoint's bytes failed verification (torn write, bit rot).

    Raised *before* any payload byte is interpreted, so a corrupted
    file can never be half-loaded into a model.  Carries ``path`` when
    the bytes came from a file.
    """

    def __init__(self, message: str, path: Optional[str] = None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path


def seal(payload: bytes) -> Tuple[bytes, int]:
    """``(payload + trailer, crc32(payload))`` — one CRC pass, one
    concatenation, for callers that need the on-disk bytes *and* the
    checksum (the engine: file, replica copy and manifest entry)."""
    crc = crc_of(payload)
    return payload + MAGIC + _TRAILER_STRUCT.pack(len(payload), crc) + MAGIC, crc


def unseal(data: bytes, path: Optional[str] = None) -> Tuple[bytes, int]:
    """``(verified payload, its crc32)`` of raw checkpoint bytes; the
    payload is CRC'd once.  Raises :class:`ChecksumError` when the
    trailer is absent, truncated (a torn tail), malformed, declares a
    length that is not the file's, or carries another CRC."""
    if len(data) < TRAILER_SIZE or not data.endswith(MAGIC):
        raise ChecksumError(
            "missing or truncated checkpoint trailer (torn write at the "
            "tail, or not a file this package wrote)",
            path=path,
        )
    trailer = data[-TRAILER_SIZE:]
    if not trailer.startswith(MAGIC):
        raise ChecksumError("malformed checkpoint trailer framing", path=path)
    length, expected = _TRAILER_STRUCT.unpack(
        trailer[len(MAGIC): len(MAGIC) + _TRAILER_STRUCT.size]
    )
    if length != len(data) - TRAILER_SIZE:
        raise ChecksumError(
            f"checkpoint trailer declares {length} payload bytes but the "
            f"file holds {len(data) - TRAILER_SIZE} (torn or doubly-"
            "appended write)",
            path=path,
        )
    payload = data[:-TRAILER_SIZE]
    actual = crc_of(payload)
    if actual != expected:
        raise ChecksumError(
            f"checkpoint CRC mismatch (expected {expected:#010x}, "
            f"computed {actual:#010x}); the file is torn or corrupt",
            path=path,
        )
    return payload, actual


def read_verified(path: str) -> bytes:
    """Read a file and return its CRC-verified payload bytes."""
    with open(path, "rb") as handle:
        return unseal(handle.read(), path=path)[0]


def atomic_write(path: str, data: bytes, fault_hook=None, rank: int = 0) -> int:
    """Write ``data`` to ``path`` through a tmp file and an atomic
    rename; returns the bytes that landed.

    ``fault_hook(rank, path, data) -> data`` is the checkpoint-scoped
    fault-injection point (:meth:`repro.resilience.FaultPlan
    .on_checkpoint_write`): it sees the final on-disk bytes, so a
    ``corrupt_file`` rule produces exactly the torn-write signature the
    CRC check exists to catch.
    """
    if fault_hook is not None:
        data = fault_hook(rank, path, data)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)
    return len(data)


def write_verified(path: str, payload: bytes) -> int:
    """Atomically write ``payload`` + trailer to ``path``; returns bytes."""
    return atomic_write(path, seal(payload)[0])


def npz_bytes(payload: Dict[str, np.ndarray]) -> bytes:
    """Serialize an array mapping to in-memory ``.npz`` bytes."""
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    return buffer.getvalue()


def parse_npz(payload: bytes, path: Optional[str] = None) -> Dict[str, np.ndarray]:
    """Parse verified ``.npz`` payload bytes into an array dict.

    Structural damage (a file whose trailer validated over garbage)
    surfaces as :class:`ChecksumError`, never as a bare ``BadZipFile``.
    """
    try:
        with np.load(io.BytesIO(payload)) as data:
            return {key: data[key] for key in data.files}
    except (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError) as exc:
        raise ChecksumError(
            f"checkpoint payload is not a readable npz archive ({exc}); "
            "the file is truncated or corrupt",
            path=path,
        ) from exc


def load_verified_npz(path: str) -> Dict[str, np.ndarray]:
    """Read + CRC-verify + parse one checkpoint file in a single call."""
    return parse_npz(read_verified(path), path=path)


def crc_of(payload: bytes) -> int:
    """CRC32 of raw payload bytes (manifest bookkeeping)."""
    return zlib.crc32(payload) & 0xFFFFFFFF
