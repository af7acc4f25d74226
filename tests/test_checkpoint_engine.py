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
    append_trailer,
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
from repro.optim import SGD, Adam, AdamW
from repro.resilience import FaultPlan, corrupt_file, delay_write
from repro.sharded import ShardedDataParallel
from repro.utils.checkpoint import (
    load_training_checkpoint,
    save_training_checkpoint,
)

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

    def test_legacy_trailerless_file_still_loads(self, tmp_path):
        path = str(tmp_path / "legacy.npz")
        np.savez(path[: -len(".npz")] + ".npz", a=np.arange(3.0))
        from repro.checkpoint import split_trailer

        _, crc = split_trailer(open(path, "rb").read())
        assert crc is None  # legacy: accepted, unverifiable
        assert np.array_equal(load_verified_npz(path)["a"], np.arange(3.0))

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
            section = model.ddp_stats()["checkpoint"]
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
