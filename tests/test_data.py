"""Datasets, samplers, and the data loader."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.data import (
    DataLoader,
    DistributedSampler,
    RandomSampler,
    SequentialSampler,
    TensorDataset,
    make_classification,
    make_regression,
    synthetic_mnist,
)


class TestTensorDataset:
    def test_pairs(self):
        ds = TensorDataset(np.arange(10).reshape(5, 2), np.arange(5))
        assert len(ds) == 5
        x, y = ds[2]
        assert np.array_equal(x, [4, 5]) and y == 2

    def test_single_array(self):
        ds = TensorDataset(np.arange(4))
        assert ds[1] == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TensorDataset(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TensorDataset()


class TestSamplers:
    def test_sequential(self):
        ds = TensorDataset(np.arange(5))
        assert list(SequentialSampler(ds)) == [0, 1, 2, 3, 4]

    def test_random_is_permutation(self):
        ds = TensorDataset(np.arange(10))
        sampler = RandomSampler(ds, seed=1)
        indices = list(sampler)
        assert sorted(indices) == list(range(10))

    def test_random_epoch_changes_order(self):
        ds = TensorDataset(np.arange(20))
        sampler = RandomSampler(ds, seed=1)
        first = list(sampler)
        sampler.set_epoch(1)
        second = list(sampler)
        assert first != second

    def test_distributed_shards_are_disjoint_and_cover(self):
        ds = TensorDataset(np.arange(16))
        shards = [list(DistributedSampler(ds, 4, r, shuffle=False)) for r in range(4)]
        combined = sorted(i for shard in shards for i in shard)
        assert combined == list(range(16))
        assert all(len(s) == 4 for s in shards)

    def test_distributed_pads_uneven(self):
        ds = TensorDataset(np.arange(10))
        shards = [list(DistributedSampler(ds, 4, r, shuffle=False)) for r in range(4)]
        assert all(len(s) == 3 for s in shards)  # ceil(10/4)
        flat = [i for s in shards for i in s]
        assert set(flat) == set(range(10))  # wrap-around reuses indices

    def test_distributed_shuffle_same_permutation_across_ranks(self):
        ds = TensorDataset(np.arange(12))
        a = DistributedSampler(ds, 2, 0, shuffle=True, seed=3)
        b = DistributedSampler(ds, 2, 1, shuffle=True, seed=3)
        combined = sorted(list(a) + list(b))
        assert combined == list(range(12))

    def test_distributed_set_epoch_reshuffles(self):
        ds = TensorDataset(np.arange(32))
        sampler = DistributedSampler(ds, 2, 0, shuffle=True, seed=0)
        first = list(sampler)
        sampler.set_epoch(1)
        assert list(sampler) != first

    def test_rank_validation(self):
        ds = TensorDataset(np.arange(4))
        with pytest.raises(ValueError):
            DistributedSampler(ds, 2, 2)


class TestDataLoader:
    def test_batching(self):
        ds = TensorDataset(np.arange(20).reshape(10, 2).astype(float), np.arange(10))
        loader = DataLoader(ds, batch_size=4)
        batches = list(loader)
        assert len(batches) == 3
        x, y = batches[0]
        assert isinstance(x, Tensor) and x.shape == (4, 2)
        assert isinstance(y, np.ndarray)  # integer labels stay numpy
        assert len(batches[-1][1]) == 2  # remainder kept

    def test_drop_last(self):
        ds = TensorDataset(np.arange(10).astype(float))
        loader = DataLoader(ds, batch_size=4, drop_last=True)
        assert len(list(loader)) == 2
        assert len(loader) == 2

    def test_len_without_drop(self):
        ds = TensorDataset(np.arange(10).astype(float))
        assert len(DataLoader(ds, batch_size=4)) == 3

    def test_with_distributed_sampler(self):
        ds = TensorDataset(np.arange(16).astype(float), np.arange(16))
        loader = DataLoader(
            ds, batch_size=2, sampler=DistributedSampler(ds, 2, 0, shuffle=False)
        )
        seen = [int(v) for x, y in loader for v in y]
        assert len(seen) == 8

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(TensorDataset(np.arange(2)), batch_size=0)

    @pytest.mark.parametrize("arrays", [
        (np.arange(40.0).reshape(10, 2, 2), np.arange(10)),
        (np.arange(10, dtype=np.float32),),
        (np.arange(20).reshape(10, 2), np.linspace(0, 1, 10), np.arange(10) % 3 == 0),
    ])
    def test_batched_fetch_is_the_per_sample_batch_bitwise(self, arrays):
        """``TensorDataset.get_batch`` (one fancy-indexed copy per column)
        against the same samples fetched one by one and stacked."""

        class PerSample:  # a map-style dataset that offers no batched fetch
            def __len__(self):
                return len(arrays[0])

            def __getitem__(self, index):
                return TensorDataset(*arrays)[index]

        def batches(dataset):
            sampler = DistributedSampler(dataset, 2, 1, seed=5)
            return list(DataLoader(dataset, batch_size=3, sampler=sampler))

        fast, slow = batches(TensorDataset(*arrays)), batches(PerSample())
        assert len(fast) == len(slow) == 2
        for fast_batch, slow_batch in zip(fast, slow):
            if not isinstance(fast_batch, tuple):
                fast_batch, slow_batch = (fast_batch,), (slow_batch,)
            assert len(fast_batch) == len(slow_batch) == len(arrays)
            for a, b in zip(fast_batch, slow_batch):
                assert type(a) is type(b)
                a, b = (a.data, b.data) if isinstance(a, Tensor) else (a, b)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def test_batch_does_not_alias_the_dataset(self):
        data = np.arange(8.0)
        (batch,) = list(DataLoader(TensorDataset(data), batch_size=8))
        batch.data[0] = -1.0
        assert data[0] == 0.0


class TestSyntheticData:
    def test_regression_shapes(self):
        ds = make_regression(50, 8, num_outputs=2, seed=0)
        x, y = ds[0]
        assert x.shape == (8,) and y.shape == (2,)
        assert len(ds) == 50

    def test_regression_learnable(self):
        """Low noise regression is nearly linear: check correlation."""
        ds = make_regression(200, 4, noise=0.01, seed=1)
        xs = np.stack([ds[i][0] for i in range(200)])
        ys = np.stack([ds[i][1] for i in range(200)]).reshape(-1)
        w, *_ = np.linalg.lstsq(xs, ys, rcond=None)
        residual = ys - xs @ w
        assert np.abs(residual).std() < 0.05

    def test_classification_separable(self):
        ds = make_classification(100, 5, 3, separation=5.0, seed=2)
        xs = np.stack([ds[i][0] for i in range(100)])
        ys = np.array([ds[i][1] for i in range(100)])
        centroids = np.stack([xs[ys == c].mean(axis=0) for c in range(3)])
        predictions = np.argmin(
            ((xs[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1
        )
        assert (predictions == ys).mean() > 0.9

    def test_mnist_shapes_and_normalization(self):
        ds = synthetic_mnist(64, seed=0)
        x, y = ds[0]
        assert x.shape == (1, 28, 28)
        assert 0 <= y < 10
        all_x = np.stack([ds[i][0] for i in range(64)])
        assert abs(all_x.mean()) < 1e-6
        assert abs(all_x.std() - 1.0) < 1e-3

    def test_mnist_classes_distinguishable(self):
        """Nearest-prototype classification beats chance by a lot."""
        ds = synthetic_mnist(200, noise=0.1, seed=3)
        xs = np.stack([ds[i][0].reshape(-1) for i in range(200)])
        ys = np.array([ds[i][1] for i in range(200)])
        accuracy_numerator = 0
        centroids = {}
        for c in np.unique(ys):
            centroids[c] = xs[ys == c].mean(axis=0)
        for x, y in zip(xs, ys):
            best = min(centroids, key=lambda c: np.sum((x - centroids[c]) ** 2))
            accuracy_numerator += best == y
        assert accuracy_numerator / len(ys) > 0.6

    def test_mnist_deterministic(self):
        a = synthetic_mnist(16, seed=5)
        b = synthetic_mnist(16, seed=5)
        assert np.array_equal(a[0][0], b[0][0])
