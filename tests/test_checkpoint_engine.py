"""Verified checkpoint format, manifests, and the async/replicated engine.

The chaos matrix at the bottom is the headline guarantee: with
``replication_factor=2``, delete any single rank's entire local
checkpoint directory and the newest generation still restores — from
the buddies' replicas — bitwise identical to a restore with every local
file present.
"""

import os
import shutil
import time

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.checkpoint import (
    ChecksumError,
    CheckpointEngine,
    Manifest,
    apply_retention,
    generation_dirname,
    list_generations,
    load_generation_manifest,
    load_verified_npz,
    npz_bytes,
    read_verified,
    verify_generation,
    write_manifest,
    write_verified,
)
from repro.comm import run_distributed
from repro.comm.distributed import get_context
from repro.debug import recorder_for
from repro.optim import SGD, Adam, AdamW
from repro.resilience import FaultPlan, corrupt_file, delay_write
from repro.checkpoint.reshard import fill_window
from repro.sharded import FullyShardedDataParallel, ShardedDataParallel
from repro.utils import load_training_checkpoint, save_training_checkpoint

from conftest import small_classifier

_rng = np.random.default_rng(0)
X = _rng.standard_normal((24, 6))
Y = _rng.integers(0, 4, 24)
_loss_fn = nn.CrossEntropyLoss()


class TestVerifiedFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "blob.npz")
        payload = npz_bytes({"a": np.arange(5.0)})
        write_verified(path, payload)
        assert read_verified(path) == payload
        assert np.array_equal(load_verified_npz(path)["a"], np.arange(5.0))

    def test_torn_write_detected(self, tmp_path):
        path = str(tmp_path / "torn.npz")
        write_verified(path, npz_bytes({"a": np.arange(64.0)}))
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) * 2 // 3])  # torn tail
        with pytest.raises(ChecksumError):
            load_verified_npz(path)

    def test_flipped_byte_detected(self, tmp_path):
        path = str(tmp_path / "flip.npz")
        write_verified(path, npz_bytes({"a": np.arange(64.0)}))
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0x5A
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ChecksumError):
            load_verified_npz(path)

    def test_trailerless_file_is_rejected(self, tmp_path):
        """Nothing under src/ writes a file without the trailer, so one
        that lacks it is unverifiable bytes, not a checkpoint."""
        path = str(tmp_path / "bare.npz")
        np.savez(path, a=np.arange(3.0))
        with pytest.raises(ChecksumError, match="trailer"):
            read_verified(path)
        with pytest.raises(ChecksumError, match="trailer"):
            load_verified_npz(path)

    def test_npz_with_trailer_opens_with_plain_numpy(self, tmp_path):
        """Old readers (np.load) skip the trailer via the zip EOCD scan."""
        path = str(tmp_path / "compat.npz")
        write_verified(path, npz_bytes({"a": np.arange(4.0)}))
        with np.load(path) as handle:
            assert np.array_equal(handle["a"], np.arange(4.0))


class TestTrainingCheckpointVerification:
    def _save(self, path):
        model = small_classifier()
        opt = Adam(model.parameters(), lr=0.01)
        _loss_fn(model(Tensor(X[:8])), Y[:8]).backward()
        opt.step()
        save_training_checkpoint(path, model, opt, iteration=3,
                                 extra={"epoch": 1})
        return model, opt

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "train.npz")
        model, opt = self._save(path)
        fresh = small_classifier()
        fresh_opt = Adam(fresh.parameters(), lr=0.01)
        info = load_training_checkpoint(path, fresh, fresh_opt)
        assert info["iteration"] == 3
        assert info["extra"]["epoch"] == 1
        for a, b in zip(model.parameters(), fresh.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_partial_write_rejected_with_checksum_error(self, tmp_path):
        """A half-written file raises ChecksumError instead of feeding
        garbage to the unpickler."""
        path = str(tmp_path / "train.npz")
        self._save(path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        fresh = small_classifier()
        with pytest.raises(ChecksumError):
            load_training_checkpoint(path, fresh)


class TestManifest:
    def _manifest(self, rank_dir, generation, name=b"x" * 100):
        gen_dir = os.path.join(rank_dir, generation_dirname(generation))
        payload = npz_bytes({"a": np.arange(8.0)})
        write_verified(os.path.join(gen_dir, "shard.npz"), payload)
        from repro.checkpoint import ManifestFile, TRAILER_SIZE, crc_of

        manifest = Manifest(
            generation=generation, rank=0, world_size=2,
            iteration=generation, mode="sharded",
            files=[ManifestFile("shard.npz", len(payload) + TRAILER_SIZE,
                                crc_of(payload))],
        )
        write_manifest(rank_dir, manifest)
        return manifest

    def test_commit_verify_and_retention(self, tmp_path):
        rank_dir = str(tmp_path / "rank0")
        for generation in (1, 2, 3):
            self._manifest(rank_dir, generation)
        assert list_generations(rank_dir) == [1, 2, 3]
        manifest = load_generation_manifest(rank_dir, 2)
        verify_generation(rank_dir, manifest)  # no raise
        deleted = apply_retention(rank_dir, keep=2)
        assert deleted == [1]
        assert list_generations(rank_dir) == [2, 3]

    def test_verify_catches_disk_damage(self, tmp_path):
        rank_dir = str(tmp_path / "rank0")
        manifest = self._manifest(rank_dir, 1)
        target = os.path.join(rank_dir, generation_dirname(1), "shard.npz")
        blob = open(target, "rb").read()
        open(target, "wb").write(blob[:-10])
        with pytest.raises(ChecksumError):
            verify_generation(rank_dir, manifest)


class TestPayloadSchema:
    """The on-disk format, pinned: sorted keys, dtypes and shapes of both
    layouts and the manifest ``meta`` keys for one seeded model.  The
    literals were printed by the commit *before* the schema moved into
    ``repro.checkpoint.payload``; a file written then loads now."""

    FULL = {
        "extra/epoch": ("int64", ()),
        "meta/iteration": ("int64", ()),
        "meta/opt_num_params": ("int64", ()),
        **{
            f"opt/{index}/{key}": (dtype, shape if key != "step" else ())
            for index, shape in enumerate([(16, 6), (16,), (4, 16), (4,)])
            for key, dtype in [("exp_avg", "float64"), ("exp_avg_sq", "float64"),
                               ("step", "int64")]
        },
        "state/0.bias": ("float64", (16,)),
        "state/0.weight": ("float64", (16, 6)),
        "state/2.bias": ("float64", (4,)),
        "state/2.weight": ("float64", (4, 16)),
    }
    # ZeRO-2, one bucket per parameter in reverse order, world 2: every
    # rank holds half of each bucket (both halves have the same shape).
    SHARD = {
        "extra/epoch": ("int64", ()),
        **{
            f"opt/b{bucket}/{key}": (dtype, (half,) if key != "step" else ())
            for bucket, half in enumerate([2, 32, 8, 48])
            for key, dtype in [("exp_avg", "float64"), ("exp_avg_sq", "float64"),
                               ("step", "int64")]
        },
        **{f"param/b{bucket}": ("float64", (half,))
           for bucket, half in enumerate([2, 32, 8, 48])},
    }

    @staticmethod
    def _describe(path):
        return {key: (str(value.dtype), value.shape)
                for key, value in load_verified_npz(path).items()}

    def test_both_layouts_and_manifest_meta(self, tmp_path):
        full_root, shard_root = str(tmp_path / "full"), str(tmp_path / "shard")

        def body(rank):
            model = small_classifier()
            opt = Adam(model.parameters(), lr=0.01)
            _loss_fn(model(Tensor(X[:8])), Y[:8]).backward()
            opt.step()
            engine = CheckpointEngine(full_root, rank=rank, world=2, async_write=False)
            engine.save_full(model, opt, iteration=1, extra={"epoch": 3})
            engine.close()
            sdp = ShardedDataParallel(
                small_classifier(), lambda ps: Adam(ps, lr=0.01), bucket_cap_mb=0.0001
            )
            sdp.zero_grad()
            _loss_fn(sdp(Tensor(X[:8])), Y[:8]).backward()
            sdp.step()
            engine = CheckpointEngine(shard_root, rank=rank, world=2, async_write=False)
            engine.save_sharded(sdp, iteration=1, extra={"epoch": 3})
            engine.close()
            return True

        assert run_distributed(2, body, backend="gloo") == [True, True]
        gen = generation_dirname(1)
        assert gen == "ckpt-00000001"
        assert sorted(os.listdir(os.path.join(shard_root, "rank0"))) == [
            gen, "manifest-00000001.json"
        ]
        assert self._describe(os.path.join(full_root, "rank0", gen, "full.npz")) == self.FULL
        for rank, spans in enumerate([[[0, 2], [0, 32], [0, 8], [0, 48]],
                                      [[2, 4], [32, 64], [8, 16], [48, 96]]]):
            rank_dir = os.path.join(shard_root, f"rank{rank}")
            assert self._describe(os.path.join(rank_dir, gen, "shard.npz")) == self.SHARD
            manifest = load_generation_manifest(rank_dir, 1)
            assert (manifest.mode, [f.name for f in manifest.files]) == (
                "sharded", ["shard.npz"]
            )
            assert manifest.meta == {
                "bucket_totals": [4, 64, 16, 96], "num_params": 4,
                "param_order": [3, 2, 1, 0], "span": spans, "stage": "zero2",
            }
            full = load_generation_manifest(os.path.join(full_root, f"rank{rank}"), 1)
            assert (full.mode, full.meta) == ("full", {"writer_rank": 0})
            assert [f.name for f in full.files] == (["full.npz"] if rank == 0 else [])


class TestFillWindow:
    """The re-slice core alone: a family's pieces placed on the model-wide
    concatenation, one window cut out."""

    @staticmethod
    def _pieces(values, sizes=None):
        """Consecutive pieces; the complaint names the piece's position."""
        pieces, start = [], 0
        for i, value in enumerate(values):
            size = sizes[i] if sizes else np.size(value)
            pieces.append((start, size, value, f"piece {i} has {{}} elements, expected {size}"))
            start += size
        return pieces

    def test_pieces_overlapping_both_window_edges(self):
        pieces = self._pieces([np.arange(0, 4.0), np.arange(4, 10.0), np.arange(10, 12.0)])
        assert fill_window(3, 11, pieces).tolist() == list(np.arange(3, 11.0))
        assert fill_window(4, 10, pieces).tolist() == list(np.arange(4, 10.0))  # on the edges
        assert fill_window(5, 5, pieces).shape == (0,)

    def test_multidimensional_pieces_are_flattened(self):
        pieces = self._pieces([np.arange(6.0).reshape(2, 3), np.arange(6, 8.0)])
        assert fill_window(2, 7, pieces).tolist() == [2.0, 3.0, 4.0, 5.0, 6.0]

    def test_scalar_family_passes_through(self):
        pieces = self._pieces([np.asarray(7), np.asarray(7)], sizes=[4, 4])
        assert fill_window(0, 8, pieces) == 7
        assert isinstance(fill_window(0, 8, pieces), int)

    def test_unsaved_pieces_leave_zeros_or_nothing(self):
        pieces = self._pieces([None, np.ones(3, dtype=np.float32)], sizes=[2, 3])
        window = fill_window(0, 5, pieces)
        assert window.tolist() == [0, 0, 1, 1, 1] and window.dtype == np.float32
        assert fill_window(0, 5, pieces, dtype=np.float64).dtype == np.float64
        assert fill_window(0, 5, self._pieces([None, None], sizes=[2, 3])) is None

    def test_missing_piece_of_a_required_family_is_a_checksum_error(self):
        pieces = self._pieces([np.ones(2), None], sizes=[2, 3])
        with pytest.raises(ChecksumError, match="piece 1 has 0 elements, expected 3"):
            fill_window(0, 2, pieces, required=True, error=ChecksumError)

    def test_wrong_size_piece_is_caught_outside_the_window_too(self):
        pieces = self._pieces([np.ones(2), np.ones(4)], sizes=[2, 3])
        with pytest.raises(ValueError, match="piece 1 has 4 elements, expected 3"):
            fill_window(0, 2, pieces)

    def test_both_callers_keep_their_messages(self):
        """reshard_state_dict complains per parameter (ValueError),
        load_shard_payloads per saved rank span (ChecksumError)."""
        from types import SimpleNamespace

        from repro.sharded import load_shard_payloads, reshard_state_dict, shard_payload

        def body(rank):
            sdp = ShardedDataParallel(
                small_classifier(), lambda ps: SGD(ps, lr=0.05, momentum=0.9),
                bucket_cap_mb=0.0001,
            )
            sdp.zero_grad()
            _loss_fn(sdp(Tensor(X[:8])), Y[:8]).backward()
            sdp.step()
            bad = {"state": {0: {"momentum_buffer": np.zeros(5)}}, "num_params": 4}
            with pytest.raises(ValueError, match=(
                "state 'momentum_buffer' for parameter 0 has 5 elements, expected 96"
            )):
                reshard_state_dict(bad, sdp.layout, rank)
            arrays, meta = shard_payload(sdp)
            shards = {0: (arrays, SimpleNamespace(world_size=1, meta=meta, iteration=1))}
            arrays["opt/b1/momentum_buffer"] = np.zeros(7)
            with pytest.raises(ChecksumError, match=(
                "saved rank 0 holds 7 elements of 'opt/b1/momentum_buffer', expected 64"
            )):
                load_shard_payloads(sdp, shards)
            del arrays["opt/b1/momentum_buffer"], arrays["param/b2"]
            with pytest.raises(ChecksumError, match=(
                "saved rank 0 holds 0 elements of 'param/b2', expected 16"
            )):
                load_shard_payloads(sdp, shards)
            return True

        assert run_distributed(1, body, backend="gloo") == [True]


def _train_zero2(rank, world, iters=3, bucket_cap_mb=0.0001):
    model = ShardedDataParallel(
        small_classifier(), lambda ps: SGD(ps, lr=0.05),
        bucket_cap_mb=bucket_cap_mb,
    )
    per = len(X) // world
    shard = slice(rank * per, (rank + 1) * per)
    for _ in range(iters):
        model.zero_grad()
        _loss_fn(model(Tensor(X[shard])), Y[shard]).backward()
        model.step()
    return model


class TestEngineFullMode:
    def test_save_restore_round_trip(self, tmp_path):
        root = str(tmp_path)

        def body(rank):
            model = small_classifier()
            opt = Adam(model.parameters(), lr=0.01)
            _loss_fn(model(Tensor(X[:8])), Y[:8]).backward()
            opt.step()
            engine = CheckpointEngine(root, rank=rank, world=2,
                                      async_write=False)
            engine.save_full(model, opt, iteration=5)
            engine.close()
            # Full-mode restore reads rank 0's payload: barrier so a fast
            # rank cannot look before the slow rank's commit lands.
            get_context().default_group.barrier()
            fresh = small_classifier()
            fresh_opt = Adam(fresh.parameters(), lr=0.01)
            restore = CheckpointEngine(root, rank=rank, world=2,
                                       async_write=False)
            info = restore.load_latest(module=fresh, optimizer=fresh_opt)
            restore.close()
            assert info is not None and info["iteration"] == 5
            assert info["generation"] == 5
            return [p.data.copy() for p in model.parameters()], [
                p.data.copy() for p in fresh.parameters()
            ]

        for saved, restored in run_distributed(2, body, backend="gloo"):
            for a, b in zip(saved, restored):
                assert np.array_equal(a, b)

    def test_save_draws_checkpoint_bars_on_the_trace(self, tmp_path):
        """One save under telemetry: its snapshot and its write are bars
        with a duration on rank 0's ``checkpoint`` row."""
        from repro import telemetry

        telemetry.reset()
        telemetry.enable()
        try:
            engine = CheckpointEngine(str(tmp_path), rank=0, world=1, async_write=False)
            engine.save_full(small_classifier(), iteration=1)
            engine.close()
            events = telemetry.trace_events()
        finally:
            telemetry.disable()
            telemetry.reset()
        rows = {e["tid"]: e["args"]["name"] for e in events
                if e["name"] == "thread_name" and e["pid"] == 0}
        bars = {e["name"]: e for e in events if e.get("cat") == "checkpoint"}
        for name in ("checkpoint.snapshot", "checkpoint.write"):
            assert bars[name]["ph"] == "X" and bars[name]["dur"] > 0
            assert bars[name]["pid"] == 0 and rows[bars[name]["tid"]] == "checkpoint"

    def test_async_save_does_not_block_on_delay(self, tmp_path):
        """delay_write stalls the background writer, not the trainer."""
        root = str(tmp_path)
        plan = FaultPlan([delay_write(0.3, times=1)])

        def body(rank):
            model = small_classifier()
            engine = CheckpointEngine(root, rank=rank, world=1,
                                      async_write=True, fault_plan=plan)
            t0 = time.perf_counter()
            engine.save_full(model, iteration=1)
            stall = time.perf_counter() - t0
            assert engine.wait(timeout=5.0)
            stats = engine.stats()
            engine.close()
            assert stall < 0.25  # snapshot only; the 0.3 s delay is hidden
            assert stats["saves"] == 1
            return True

        assert run_distributed(1, body, backend="gloo") == [True]


class TestEngineReplication:
    def test_restore_from_buddy_after_losing_local_dir(self, tmp_path):
        root = str(tmp_path)

        def save_body(rank):
            model = _train_zero2(rank, 2)
            hub = get_context().default_group.hub
            engine = CheckpointEngine(root, rank=rank, world=2, hub=hub,
                                      replication_factor=2, async_write=False)
            engine.save_sharded(model, iteration=3)
            engine.wait(5.0)
            time.sleep(0.2)  # let buddy receivers persist the pushes
            stats = engine.stats()
            engine.close()
            reference = model.state_dict()
            return stats, reference

        results = run_distributed(2, save_body, backend="gloo")
        assert all(s["replicas_sent"] == 1 for s, _ in results)
        assert all(s["replicas_received"] == 1 for s, _ in results)
        reference = results[0][1]

        # Lose rank 0's entire local directory; only rank 1's replica of
        # it survives.
        shutil.rmtree(os.path.join(root, "rank0"))

        def restore_body(rank):
            model = ShardedDataParallel(
                small_classifier(), lambda ps: SGD(ps, lr=0.05),
                bucket_cap_mb=0.0001,
            )
            engine = CheckpointEngine(root, rank=rank, world=2,
                                      async_write=False)
            info = engine.load_latest(model=model)
            engine.close()
            assert info is not None and info["iteration"] == 3
            assert info["sources"][0] == "replica"
            assert info["sources"][1] == "local"
            return model.state_dict()

        for state in run_distributed(2, restore_body, backend="gloo"):
            for key, value in reference.items():
                assert np.array_equal(value, state[key])

    def test_replica_arrival_is_a_health_event(self, tmp_path):
        """Each stored replica leaves one ``checkpoint.replica_recv``
        incident on the receiving rank's ring, naming its owner and
        replication lag."""
        from repro import telemetry

        root = str(tmp_path)

        def body(rank):
            model = _train_zero2(rank, 2, iters=1)
            hub = get_context().default_group.hub
            engine = CheckpointEngine(root, rank=rank, world=2, hub=hub,
                                      replication_factor=2, async_write=False)
            engine.save_sharded(model, iteration=41)
            time.sleep(0.2)  # let the buddy receiver persist the push
            engine.close()
            return [i.args for i in recorder_for(rank).incidents()
                    if i.name == "checkpoint.replica_recv"
                    and i.args["generation"] == 41]

        telemetry.reset()
        telemetry.enable()
        try:
            results = run_distributed(2, body, backend="gloo")
        finally:
            telemetry.disable()
            telemetry.reset()
        for rank, arrivals in enumerate(results):
            assert [a["owner"] for a in arrivals] == [1 - rank]
            assert arrivals[0]["lag_s"] >= 0

    def test_corrupt_local_write_falls_back_to_replica(self, tmp_path):
        """corrupt_file tears rank 0's local bytes; the manifest CRC
        rejects them and the buddy's (pre-fault) replica restores."""
        root = str(tmp_path)
        plan = FaultPlan([corrupt_file(rank=0, times=None)])

        def save_body(rank):
            model = _train_zero2(rank, 2)
            hub = get_context().default_group.hub
            engine = CheckpointEngine(root, rank=rank, world=2, hub=hub,
                                      replication_factor=2,
                                      async_write=False, fault_plan=plan)
            engine.save_sharded(model, iteration=2)
            engine.wait(5.0)
            time.sleep(0.2)
            engine.close()
            return model.state_dict()

        reference = run_distributed(2, save_body, backend="gloo")[0]

        def restore_body(rank):
            model = ShardedDataParallel(
                small_classifier(), lambda ps: SGD(ps, lr=0.05),
                bucket_cap_mb=0.0001,
            )
            engine = CheckpointEngine(root, rank=rank, world=2,
                                      async_write=False)
            info = engine.load_latest(model=model)
            stats = engine.stats()
            engine.close()
            assert info is not None
            assert info["sources"][0] == "replica"
            assert stats["verify_failures"] > 0
            return model.state_dict()

        for state in run_distributed(2, restore_body, backend="gloo"):
            for key, value in reference.items():
                assert np.array_equal(value, state[key])

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_chaos_matrix_any_single_rank_loss_survivable(
        self, tmp_path, victim
    ):
        """rf=2, world 3: kill each rank in turn (local files gone);
        the buddy restore is bitwise identical to the live restore."""
        root = str(tmp_path / "live")

        def save_body(rank):
            model = _train_zero2(rank, 3)
            hub = get_context().default_group.hub
            engine = CheckpointEngine(root, rank=rank, world=3, hub=hub,
                                      replication_factor=2, async_write=False)
            engine.save_sharded(model, iteration=3)
            engine.wait(5.0)
            time.sleep(0.2)
            engine.close()
            return model.state_dict()

        reference = run_distributed(3, save_body, backend="gloo")[0]

        dead_root = str(tmp_path / f"dead{victim}")
        shutil.copytree(root, dead_root)
        shutil.rmtree(os.path.join(dead_root, f"rank{victim}"))

        def restore_body(rank):
            model = ShardedDataParallel(
                small_classifier(), lambda ps: SGD(ps, lr=0.05),
                bucket_cap_mb=0.0001,
            )
            engine = CheckpointEngine(dead_root, rank=rank, world=3,
                                      async_write=False)
            info = engine.load_latest(model=model)
            engine.close()
            assert info is not None and info["iteration"] == 3
            assert info["sources"][victim] == "replica"
            return model.state_dict()

        for state in run_distributed(3, restore_body, backend="gloo"):
            for key, value in reference.items():
                assert np.array_equal(value, state[key])


class TestRetentionAndStats:
    def test_generations_are_pruned_to_keep(self, tmp_path):
        root = str(tmp_path)

        def body(rank):
            model = small_classifier()
            engine = CheckpointEngine(root, rank=rank, world=1,
                                      async_write=False, keep=2)
            for iteration in (1, 2, 3, 4):
                engine.save_full(model, iteration=iteration)
            stats = engine.stats()
            engine.close()
            assert list_generations(engine.rank_dir) == [3, 4]
            assert stats["retention_deleted"] == 2
            assert stats["last_generation"] == 4
            return True

        assert run_distributed(1, body, backend="gloo") == [True]

    def test_ddp_stats_exposes_engine_section(self, tmp_path):
        root = str(tmp_path)

        def body(rank):
            from repro.core.ddp import DistributedDataParallel

            model = DistributedDataParallel(small_classifier())
            engine = CheckpointEngine(root, rank=rank, world=2,
                                      async_write=False)
            engine.save_full(model.module, iteration=1)
            section = engine.stats()
            engine.close()
            assert section is not None
            assert section["saves"] == 1
            assert section["replication_factor"] == 1
            return True

        assert run_distributed(2, body, backend="gloo") == [True, True]


class TestOptimizerStateContinuation:
    """Save at iteration k, restore into a fresh replica, continue:
    bitwise the uninterrupted run.  The moments of a DDP-wrapped model
    live in one flat per bucket (``repro.optim.optimizer``); a
    ``state_dict()`` that lost them would still restore the parameters
    and pass every round-trip test above."""

    OPTIMIZERS = {
        "adam": lambda ps: Adam(ps, lr=0.01, weight_decay=0.01),
        "adamw": lambda ps: AdamW(ps, lr=0.01, weight_decay=0.01),
        "sgd_momentum": lambda ps: SGD(ps, lr=0.05, momentum=0.9),
    }

    @staticmethod
    def _train(ddp, optimizer, rank, steps):
        shard = slice(rank * 12, (rank + 1) * 12)
        for _ in steps:
            optimizer.zero_grad()
            _loss_fn(ddp(Tensor(X[shard])), Y[shard]).backward()
            optimizer.step()

    # (layout saved from, layout restored into): view mode steps each
    # bucket as one flat, copy mode one parameter at a time.
    @pytest.mark.parametrize("layouts", [(True, True), (True, False), (False, True)])
    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_resume_matches_uninterrupted(self, tmp_path, name, layouts):
        from repro.core.ddp import DistributedDataParallel

        root = str(tmp_path)
        make = self.OPTIMIZERS[name]
        save_view, load_view = layouts

        def body(rank):
            straight = DistributedDataParallel(
                small_classifier(), gradient_as_bucket_view=save_view
            )
            straight_opt = make(straight.parameters())
            self._train(straight, straight_opt, rank, range(3))
            engine = CheckpointEngine(root, rank=rank, world=2, async_write=False)
            engine.save_full(straight.module, straight_opt, iteration=3)
            engine.close()
            get_context().default_group.barrier()
            self._train(straight, straight_opt, rank, range(3, 6))

            fresh = DistributedDataParallel(
                small_classifier(seed=99), gradient_as_bucket_view=load_view
            )
            fresh_opt = make(fresh.parameters())
            restore = CheckpointEngine(root, rank=rank, world=2, async_write=False)
            info = restore.load_latest(module=fresh.module, optimizer=fresh_opt)
            restore.close()
            assert info is not None and info["iteration"] == 3
            self._train(fresh, fresh_opt, rank, range(3, 6))
            return (
                straight.state_dict(), straight_opt.state_dict(),
                fresh.state_dict(), fresh_opt.state_dict(),
            )

        for params, state, resumed, resumed_state in run_distributed(
            2, body, backend="gloo"
        ):
            for key, value in params.items():
                assert resumed[key].tobytes() == value.tobytes()
            assert resumed_state["num_params"] == state["num_params"]
            assert resumed_state["state"].keys() == state["state"].keys()
            assert len(state["state"]) == state["num_params"]  # nothing dropped
            for index, per_param in state["state"].items():
                for key, value in per_param.items():
                    assert np.asarray(resumed_state["state"][index][key]).tobytes() == \
                        np.asarray(value).tobytes()

    # -- one more axis: the wrapper and the world it is restored into ----
    MODES = ("ddp", "zero2", "zero3")

    @staticmethod
    def _build(mode, make, seed=7):
        """``(model, step, snapshot)`` of one replica under ``mode``."""
        from repro.core.ddp import DistributedDataParallel

        module = small_classifier(seed=seed)
        if mode == "ddp":
            model = DistributedDataParallel(module)
            opt = make(model.parameters())
            return model, opt, lambda: (model.module.state_dict(), opt.state_dict())
        if mode == "zero2":
            model = ShardedDataParallel(module, make, bucket_cap_mb=0.0001)
        else:
            model = FullyShardedDataParallel(module, make)
        return model, None, lambda: (
            model.state_dict(), model.optimizer.consolidated_state_dict()
        )

    @staticmethod
    def _steps(model, opt, rank, world, steps):
        per = len(X) // world
        shard = slice(rank * per, (rank + 1) * per)
        for _ in steps:
            (opt or model).zero_grad()
            _loss_fn(model(Tensor(X[shard])), Y[shard]).backward()
            (opt or model).step()

    @pytest.mark.parametrize("worlds", [(2, 2), (4, 2), (2, 4)],
                             ids=["2to2", "4to2", "2to4"])
    @pytest.mark.parametrize("name", ["adam", "sgd_momentum"])
    @pytest.mark.parametrize("mode", MODES)
    def test_resume_across_wrappers_and_worlds(self, tmp_path, mode, name, worlds):
        """Save at 3 through the engine (``save_full`` under DDP, one
        ``save_sharded`` shard per rank under ZeRO-2/3), restore with
        ``load_latest`` into fresh replicas at the target world, train
        on.  Same world: bitwise the uninterrupted run.  Another world:
        float summation order changes with the world, so the reference is
        a replica at the *target* world handed the step-3 state in
        memory (``state_dict`` / consolidated optimizer state) — the
        engine's files and re-slicing must add nothing to that."""
        root = str(tmp_path)
        make = self.OPTIMIZERS[name]
        saved_world, new_world = worlds

        def save_body(rank):
            model, opt, snapshot = self._build(mode, make)
            self._steps(model, opt, rank, saved_world, range(3))
            engine = CheckpointEngine(root, rank=rank, world=saved_world,
                                      async_write=False)
            if mode == "ddp":
                engine.save_full(model.module, opt, iteration=3)
            else:
                engine.save_sharded(model, iteration=3)
            engine.close()
            at_save = snapshot()
            self._steps(model, opt, rank, saved_world, range(3, 6))
            return at_save, snapshot()

        at_save, uninterrupted = run_distributed(saved_world, save_body, backend="gloo")[0]
        assert len(uninterrupted[1]["state"]) == uninterrupted[1]["num_params"] == 4

        def resume_body(rank):
            model, opt, snapshot = self._build(mode, make, seed=99)
            engine = CheckpointEngine(root, rank=rank, world=new_world,
                                      async_write=False)
            if mode == "ddp":
                info = engine.load_latest(module=model.module, optimizer=opt)
            else:
                info = engine.load_latest(model=model)
            engine.close()
            assert info is not None and info["iteration"] == 3
            assert info["saved_world_size"] == saved_world
            self._steps(model, opt, rank, new_world, range(3, 6))
            resumed = snapshot()

            handed, handed_opt, handed_snapshot = self._build(mode, make, seed=5)
            if mode == "ddp":
                handed.module.load_state_dict(at_save[0])
                handed_opt.load_state_dict(at_save[1])
            else:
                handed.load_state_dict(at_save[0])
                handed.optimizer.load_consolidated_state_dict(at_save[1])
            self._steps(handed, handed_opt, rank, new_world, range(3, 6))
            return resumed, handed_snapshot()

        for resumed, handed in run_distributed(new_world, resume_body, backend="gloo"):
            expected = uninterrupted if saved_world == new_world else handed
            for got, want in zip(resumed, expected):
                assert _flatten(got).keys() == _flatten(want).keys()
                for key, value in _flatten(want).items():
                    assert _flatten(got)[key] == value, key


def _flatten(tree, prefix=""):
    """``{dotted path: bytes}`` of a nested state dict, for bitwise
    comparison of arrays and scalars alike."""
    if not isinstance(tree, dict):
        return {prefix: np.asarray(tree).tobytes()}
    flat = {}
    for key, value in tree.items():
        flat.update(_flatten(value, f"{prefix}/{key}"))
    return flat
