"""Minimal batching data loader."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.autograd.tensor import Tensor
from repro.data.dataset import Dataset
from repro.data.sampler import SequentialSampler


class DataLoader:
    """Batches dataset samples into stacked Tensors.

    Float arrays become ``Tensor``s; integer arrays stay numpy (label
    convention, matching how the losses accept targets).
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 1,
        sampler=None,
        drop_last: bool = False,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = batch_size
        self.sampler = sampler if sampler is not None else SequentialSampler(dataset)
        self.drop_last = drop_last

    def __iter__(self) -> Iterator:
        batch_indices = []
        for index in self.sampler:
            batch_indices.append(index)
            if len(batch_indices) == self.batch_size:
                yield self._collate(batch_indices)
                batch_indices = []
        if batch_indices and not self.drop_last:
            yield self._collate(batch_indices)

    def __len__(self) -> int:
        n = len(self.sampler)
        if self.drop_last:
            return n // self.batch_size
        return -(-n // self.batch_size)

    def _collate(self, indices):
        get_batch = getattr(self.dataset, "get_batch", None)
        if get_batch is not None:
            # One fancy-indexed copy per column instead of a Python
            # loop over samples; the batch is bitwise the same.
            batch = get_batch(indices)
            if not isinstance(batch, tuple):
                return _wrap(batch)
            return tuple(_wrap(column) for column in batch)
        samples = [self.dataset[i] for i in indices]
        first = samples[0]
        if not isinstance(first, tuple):
            return _stack([s for s in samples])
        columns = list(zip(*samples))
        return tuple(_stack(list(column)) for column in columns)


def _stack(items):
    return _wrap(np.stack([np.asarray(item) for item in items]))


def _wrap(stacked: np.ndarray):
    if stacked.dtype.kind == "f":
        return Tensor(stacked)
    return stacked
