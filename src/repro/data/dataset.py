"""Dataset abstractions."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


class Dataset:
    """Map-style dataset: ``__len__`` plus integer ``__getitem__``."""

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def __getitem__(self, index: int):  # pragma: no cover - abstract
        raise NotImplementedError


class TensorDataset(Dataset):
    """Zips equally sized arrays into (x, y, ...) samples."""

    def __init__(self, *arrays: np.ndarray):
        if not arrays:
            raise ValueError("TensorDataset needs at least one array")
        length = len(arrays[0])
        for array in arrays:
            if len(array) != length:
                raise ValueError("all arrays must have the same first dimension")
        self.arrays: Tuple[np.ndarray, ...] = tuple(np.asarray(a) for a in arrays)

    def __len__(self) -> int:
        return len(self.arrays[0])

    def __getitem__(self, index: int):
        items = tuple(array[index] for array in self.arrays)
        return items if len(items) > 1 else items[0]

    def get_batch(self, indices: Sequence[int]):
        """The samples at ``indices`` stacked column by column — what
        stacking ``self[i]`` for each index gives, in one fancy-indexed
        copy per array.  :class:`~repro.data.DataLoader` uses it when a
        dataset offers it."""
        items = tuple(array[indices] for array in self.arrays)
        return items if len(items) > 1 else items[0]
