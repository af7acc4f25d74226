"""Async, verified, replicated checkpointing: the engine.

The training thread pays only for a **snapshot** — an in-memory copy of
model/optimizer arrays taken at a safe iteration boundary.  A background
writer thread serializes the snapshot to verified npz bytes
(:mod:`repro.checkpoint.format`), writes the files, commits them with a
manifest (:mod:`repro.checkpoint.manifest`), pushes replicas to buddy
ranks, and applies retention — all overlapped with the next training
iterations.  ``stats()["snapshot_s"]`` is the cumulative training-thread
blocked time; ``benchmarks/bench_checkpoint.py`` gates it against a
synchronous save.

Replication: with ``replication_factor = k``, rank ``r``'s files are
also pushed — over the ordinary
:class:`~repro.comm.transport.TransportHub` wire, so chaos plans and
transport accounting apply — to buddies ``(r+1) % world .. (r+k-1) %
world``.  Each buddy persists them under
``rank{buddy}/replica/rank{r}/`` in the exact owner layout (manifest
included), so losing any single rank's local directory leaves every
shard of the newest generation recoverable from a surviving buddy.

Restore (:meth:`CheckpointEngine.load_latest`) walks committed
generations newest-first and, per source, prefers the owner's local
files but silently falls back to any CRC-valid replica; a generation
with an unrecoverable shard is skipped entirely (atomic multi-file
semantics: a commit restores whole or not at all).

Generation numbers are the save's iteration count, so every rank of a
collective save agrees on the commit id without communication, and
numbers stay monotonic across elastic re-rendezvous generations.
"""

from __future__ import annotations

import glob
import os
import queue
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.checkpoint.format import (
    ChecksumError,
    atomic_write,
    npz_bytes,
    parse_npz,
    seal,
)
from repro.checkpoint.manifest import (
    Manifest,
    ManifestFile,
    apply_retention,
    generation_dirname,
    list_generations,
    load_generation_manifest,
    manifest_filename,
    verify_generation,
    write_manifest,
)
from repro.checkpoint.payload import full_payload, install_full
from repro.checkpoint.reshard import load_shard_payloads, shard_payload
from repro.comm.transport import TransportTimeoutError
from repro.debug.flight_recorder import record_incident
from repro.utils.logging import logger

#: How long a replica receiver blocks on the hub before re-checking
#: whether the engine was closed.
RECV_SLICE_S = 0.05

class _SaveJob(NamedTuple):
    """One snapshot queued for serialization + commit."""

    files: Dict[str, Dict[str, np.ndarray]]
    manifest: Manifest
    snapshot_t: float


class CheckpointEngine:
    """Per-rank async checkpoint engine with manifests and replication.

    Parameters
    ----------
    directory:
        Shared checkpoint root; this rank writes under
        ``directory/rank{rank}/``.
    rank / world:
        This rank's coordinates at save time (recorded in manifests so
        restores can reshard across world sizes).
    hub:
        Optional :class:`~repro.comm.transport.TransportHub` carrying
        replica pushes; required when ``replication_factor > 1``.
    replication_factor:
        Total copies of each rank's files (1 = local only); clamped to
        ``world``.
    keep:
        Committed generations retained per rank directory.
    async_write:
        Serialize + write on a background thread (default); False runs
        the same job inline and raises a write error to the caller.
    fault_plan:
        Checkpoint-I/O chaos hook (defaults to the hub's installed
        plan): consulted per written file via ``on_checkpoint_write``.

    Thread-safety: ``save_*`` must be called from the owning rank's
    thread; stats/wait/close may be called from any thread.
    """

    def __init__(
        self,
        directory: str,
        rank: int,
        world: int,
        hub=None,
        replication_factor: int = 1,
        keep: int = 2,
        async_write: bool = True,
        fault_plan=None,
    ):
        if world < 1:
            raise ValueError("world must be >= 1")
        if not 0 <= rank < world:
            raise ValueError(f"rank {rank} out of range for world {world}")
        self.directory = directory
        self.rank = rank
        self.world = world
        self.hub = hub
        self.replication_factor = max(1, min(int(replication_factor), world))
        if self.replication_factor > 1 and hub is None:
            raise ValueError("replication_factor > 1 requires a transport hub")
        self.keep = int(keep)
        self.async_write = bool(async_write)
        self.fault_plan = fault_plan if fault_plan is not None else (
            getattr(hub, "fault_plan", None)
        )
        self.rank_dir = os.path.join(directory, f"rank{rank}")
        os.makedirs(self.rank_dir, exist_ok=True)

        self._lock = threading.Lock()
        self._stats = {
            "saves": 0,
            "snapshot_s": 0.0,
            "serialize_s": 0.0,
            "write_s": 0.0,
            "bytes_written": 0,
            "replicas_sent": 0,
            "replica_bytes_sent": 0,
            "replicas_received": 0,
            "replication_lag_max_s": 0.0,
            "retention_deleted": 0,
            "verify_failures": 0,
            "write_errors": 0,
            "last_generation": None,
        }
        self._queue: "queue.Queue[Optional[_SaveJob]]" = queue.Queue()
        self._idle = threading.Event()
        self._idle.set()
        self._closed = False
        self._writer: Optional[threading.Thread] = None
        if self.async_write:
            self._writer = threading.Thread(
                target=self._writer_loop,
                name=f"ckpt-writer-rank{rank}",
                daemon=True,
            )
            self._writer.start()
        self._receivers: List[threading.Thread] = []
        for owner in self._replica_owners():
            thread = threading.Thread(
                target=self._receiver_loop,
                args=(owner,),
                name=f"ckpt-replica-rank{rank}-from{owner}",
                daemon=True,
            )
            thread.start()
            self._receivers.append(thread)

    # -- topology --------------------------------------------------------
    def buddies(self) -> List[int]:
        """Ranks that hold replicas of this rank's files."""
        return [
            (self.rank + i) % self.world
            for i in range(1, self.replication_factor)
        ]

    def _replica_owners(self) -> List[int]:
        """Ranks whose replicas this rank is responsible for storing."""
        return [
            (self.rank - i) % self.world
            for i in range(1, self.replication_factor)
        ]

    def replica_dir(self, owner: int) -> str:
        """Where this rank persists replicas of ``owner``'s files."""
        return os.path.join(self.rank_dir, "replica", f"rank{owner}")

    # -- saving ----------------------------------------------------------
    def save_full(self, module, optimizer=None, iteration: int = 0,
                  extra: Optional[Dict] = None) -> int:
        """Snapshot a replicated (DDP/plain) training state and enqueue
        the write; returns the committed generation number.

        Every rank calls this at the same boundary; only rank 0's
        manifest carries payload (state is replicated, one copy on disk
        suffices) but every rank commits a manifest, so restores can
        tell "rank never saved" from "rank's files were lost".
        """
        t0 = time.perf_counter()
        files: Dict[str, Dict[str, np.ndarray]] = {}
        if self.rank == 0:
            files["full.npz"] = full_payload(
                module.state_dict(),
                None if optimizer is None else optimizer.state_dict(),
                iteration, extra, copy=True,
            )
        return self._submit(files, "full", {"writer_rank": 0}, iteration, t0)

    def save_sharded(self, model, iteration: int = 0,
                     extra: Optional[Dict] = None) -> int:
        """Snapshot one rank's shard of a ``repro.sharded`` wrapper.

        Every rank calls this at the same boundary (no collectives —
        each rank persists only its own spans plus, on rank 0, the
        replicated buffers/meta).  The manifest's span table is what
        lets :meth:`load_latest` reshard into a different world size.
        """
        t0 = time.perf_counter()
        arrays, meta = shard_payload(model, include_buffers=self.rank == 0, extra=extra)
        return self._submit({"shard.npz": arrays}, "sharded", meta, iteration, t0)

    def _submit(self, files, mode: str, meta: Dict, iteration: int, t0: float) -> int:
        if self._closed:
            raise RuntimeError("checkpoint engine is closed")
        manifest = Manifest(
            generation=int(iteration),
            rank=self.rank,
            world_size=self.world,
            iteration=int(iteration),
            mode=mode,
            meta=meta,
        )
        job = _SaveJob(files, manifest, t0)
        if self.async_write:
            self._idle.clear()
            self._queue.put(job)
        else:
            self._run_job(job)
        t1 = time.perf_counter()
        with self._lock:
            self._stats["saves"] += 1
            self._stats["snapshot_s"] += t1 - t0
            self._stats["last_generation"] = manifest.generation
        record_incident(
            self.rank, "checkpoint.snapshot", "checkpoint", t0, t1,
            generation=manifest.generation, mode=manifest.mode,
        )
        return manifest.generation

    # -- background writer ----------------------------------------------
    def _writer_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                break
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 - async context, report
                with self._lock:
                    self._stats["write_errors"] += 1
                logger.warning(
                    "checkpoint: rank %d background save of generation %d "
                    "failed: %s", self.rank, job.manifest.generation, exc,
                )
            finally:
                self._queue.task_done()
                if self._queue.empty():
                    self._idle.set()

    def _run_job(self, job: _SaveJob) -> None:
        gen_dir = os.path.join(self.rank_dir, generation_dirname(job.manifest.generation))
        wire_files: Dict[str, bytes] = {}
        hook = getattr(self.fault_plan, "on_checkpoint_write", None)
        t_ser = time.perf_counter()
        blobs = {name: npz_bytes(arrays) for name, arrays in job.files.items()}
        t_wr = time.perf_counter()
        written = 0
        for name, payload in blobs.items():
            # Sealed once: the same bytes go to disk (through the fault
            # hook), to the buddies (untorn), and — as size and CRC —
            # into the manifest, which thus records the *intended* file:
            # a fault-injected torn write is caught at verify time.
            data, crc = seal(payload)
            written += atomic_write(os.path.join(gen_dir, name), data, hook, self.rank)
            job.manifest.files.append(ManifestFile(name, len(data), crc))
            wire_files[name] = data
        write_manifest(self.rank_dir, job.manifest)
        t_done = time.perf_counter()
        with self._lock:
            self._stats["serialize_s"] += t_wr - t_ser
            self._stats["write_s"] += t_done - t_wr
            self._stats["bytes_written"] += written
        record_incident(
            self.rank, "checkpoint.write", "checkpoint", t_ser, t_done,
            generation=job.manifest.generation, bytes=written,
        )
        self._replicate(job, wire_files)
        deleted = apply_retention(self.rank_dir, self.keep)
        for owner in self._replica_owners():
            if os.path.isdir(self.replica_dir(owner)):
                deleted += apply_retention(self.replica_dir(owner), self.keep)
        if deleted:
            with self._lock:
                self._stats["retention_deleted"] += len(deleted)

    def _replicate(self, job: _SaveJob, wire_files: Dict[str, bytes]) -> None:
        if self.replication_factor <= 1 or self.hub is None:
            return
        message = {
            "generation": job.manifest.generation,
            "snapshot_t": job.snapshot_t,
            "manifest": job.manifest.to_json(),
            "files": {
                name: np.frombuffer(data, dtype=np.uint8)
                for name, data in wire_files.items()
            },
        }
        nbytes = sum(len(data) for data in wire_files.values())
        t0 = time.perf_counter()
        for buddy in self.buddies():
            try:
                self.hub.send(self.rank, buddy, ("ckpt", self.rank), message)
            except Exception as exc:  # noqa: BLE001 - hub may be closing
                logger.warning(
                    "checkpoint: rank %d replica push gen %d -> rank %d "
                    "failed: %s", self.rank, job.manifest.generation, buddy, exc,
                )
                continue
            with self._lock:
                self._stats["replicas_sent"] += 1
                self._stats["replica_bytes_sent"] += nbytes
        record_incident(
            self.rank, "checkpoint.replicate", "checkpoint",
            t0, time.perf_counter(),
            generation=job.manifest.generation, buddies=len(self.buddies()),
        )

    def _receiver_loop(self, owner: int) -> None:
        while not self._closed:
            try:
                message = self.hub.recv(
                    self.rank, owner, ("ckpt", owner), timeout=RECV_SLICE_S
                )
            except TransportTimeoutError:
                continue
            except Exception:  # noqa: BLE001 - hub closed under us
                return
            try:
                self._store_replica(owner, message)
            except Exception as exc:  # noqa: BLE001 - keep receiving
                logger.warning(
                    "checkpoint: rank %d failed to store replica from "
                    "rank %d: %s", self.rank, owner, exc,
                )

    def _store_replica(self, owner: int, message: dict) -> None:
        t0 = time.perf_counter()
        generation = int(message["generation"])
        target = self.replica_dir(owner)
        gen_dir = os.path.join(target, generation_dirname(generation))
        for name, data in message["files"].items():
            atomic_write(
                os.path.join(gen_dir, name), np.asarray(data, dtype=np.uint8).tobytes()
            )
        # Commit the replica with the owner's own manifest, so the
        # replica directory is a drop-in substitute for the owner's.
        atomic_write(
            os.path.join(target, manifest_filename(generation)),
            message["manifest"].encode(),
        )
        lag = time.perf_counter() - float(message.get("snapshot_t", t0))
        with self._lock:
            self._stats["replicas_received"] += 1
            self._stats["replication_lag_max_s"] = max(
                self._stats["replication_lag_max_s"], lag
            )
        record_incident(
            self.rank, "checkpoint.replica_recv", "checkpoint",
            t0, time.perf_counter(),
            owner=owner, generation=generation, lag_s=round(lag, 6),
        )

    # -- restoring -------------------------------------------------------
    def _committed_generations(self) -> Dict[int, Dict[int, List[Tuple[str, Manifest]]]]:
        """``generation -> owner rank -> [(dir, manifest), ...]`` over
        every rank's own directory, then every replica mirror."""
        table: Dict[int, Dict[int, List[Tuple[str, Manifest]]]] = {}
        own = os.path.join(self.directory, "rank*")
        for source in sorted(glob.glob(own)) + sorted(
            glob.glob(os.path.join(own, "replica", "*"))
        ):
            for generation in list_generations(source):
                try:
                    manifest = load_generation_manifest(source, generation)
                except ChecksumError:
                    continue
                if manifest is not None:
                    table.setdefault(generation, {}).setdefault(
                        manifest.rank, []
                    ).append((source, manifest))
        return table

    def _load_rank_payload(
        self, sources: List[Tuple[str, Manifest]], name: str
    ) -> Optional[Tuple[Dict[str, np.ndarray], Manifest, str]]:
        """First verified copy of ``name`` across owner + replicas, as
        ``(arrays, manifest, "local" | "replica")``.  The bytes parsed
        are the bytes the audit read: one read, one CRC per file."""
        for directory, manifest in sources:
            try:
                payloads = verify_generation(directory, manifest)
                if name not in payloads:
                    raise ChecksumError(f"commit holds no {name!r}", path=directory)
                own = os.path.join(self.directory, f"rank{manifest.rank}")
                return (
                    parse_npz(payloads[name], path=directory),
                    manifest,
                    "local" if directory == own else "replica",
                )
            except (ChecksumError, FileNotFoundError) as exc:
                with self._lock:
                    self._stats["verify_failures"] += 1
                logger.warning(
                    "checkpoint: rejecting source %s for generation %d: %s",
                    directory, manifest.generation, exc,
                )
        return None

    def load_latest(self, module=None, optimizer=None, model=None) -> Optional[dict]:
        """Restore the newest fully-recoverable generation.

        ``module``/``optimizer`` restore a ``mode="full"`` commit;
        ``model`` (a ``repro.sharded`` wrapper) restores a
        ``mode="sharded"`` commit, resharding into the wrapper's own
        (possibly different) world size.  Returns ``None`` when no
        committed generation survives verification, else a dict with
        ``iteration``, ``generation``, ``extra``, ``saved_world_size``,
        and per-shard ``sources`` (``"local"`` / ``"replica"``).
        """
        table = self._committed_generations()
        for generation in sorted(table, reverse=True):
            restored = self._try_restore(
                generation, table[generation], module, optimizer, model
            )
            if restored is not None:
                return restored
        return None

    def _try_restore(self, generation, by_rank, module, optimizer, model):
        sample = next(iter(by_rank.values()))[0][1]
        if sample.mode == "full":
            owners = [int(sample.meta.get("writer_rank", 0))]
            name, target = "full.npz", module
        else:  # sharded: every saving rank's shard must be recoverable
            owners = list(range(sample.world_size))
            name, target = "shard.npz", model
        if target is None:
            return None
        shards: Dict[int, Tuple[Dict[str, np.ndarray], Manifest]] = {}
        sources: Dict[int, str] = {}
        for owner in owners:
            found = self._load_rank_payload(by_rank.get(owner, []), name)
            if found is None:
                return None
            shards[owner], sources[owner] = found[:2], found[2]
        if sample.mode == "full":
            info = install_full(
                shards[owners[0]][0],
                module.load_state_dict,
                None if optimizer is None else optimizer.load_state_dict,
            )
        else:
            info = load_shard_payloads(model, shards)
        info.update(
            generation=generation,
            saved_world_size=sample.world_size,
            sources=sources,
        )
        return info

    # -- lifecycle -------------------------------------------------------
    def wait(self, timeout: float = 30.0) -> bool:
        """Block until every queued save is committed; True on drain."""
        return self._idle.wait(timeout)

    def close(self, timeout: float = 5.0) -> None:
        """Drain the writer, stop the replica receivers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            self._queue.put(None)
            self._writer.join(timeout=timeout)
        for thread in self._receivers:
            thread.join(timeout=RECV_SLICE_S * 4 + 0.2)

    def stats(self) -> dict:
        """Counter snapshot: saves, blocked and background time, bytes,
        replication traffic and lag, retention and failures."""
        with self._lock:
            snap = dict(self._stats)
        snap["async_write"] = self.async_write
        snap["replication_factor"] = self.replication_factor
        snap["pending_writes"] = self._queue.qsize()
        snap["keep"] = self.keep
        return snap

    def __repr__(self) -> str:
        return (
            f"CheckpointEngine(rank={self.rank}, world={self.world}, "
            f"replication={self.replication_factor}, "
            f"async={self.async_write}, dir={self.directory!r})"
        )
