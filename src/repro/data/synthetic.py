"""Synthetic datasets.

The paper's latency experiments use "randomly generated synthetic inputs
and labels" (§5) — provided here by :func:`make_regression` and
:func:`make_classification`.  The convergence experiment (Fig. 11) uses
MNIST; :func:`synthetic_mnist` substitutes a procedurally generated
28×28 ten-class digit-like dataset that exercises the identical training
loop (documented in DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import TensorDataset


def make_regression(
    num_samples: int, num_features: int, num_outputs: int = 1, noise: float = 0.1, seed: int = 0
) -> TensorDataset:
    """Linear-plus-noise regression data."""
    rng = np.random.default_rng(seed)
    true_w = rng.standard_normal((num_features, num_outputs))
    x = rng.standard_normal((num_samples, num_features))
    y = x @ true_w + noise * rng.standard_normal((num_samples, num_outputs))
    return TensorDataset(x, y)


def make_classification(
    num_samples: int, num_features: int, num_classes: int, separation: float = 2.0, seed: int = 0
) -> TensorDataset:
    """Gaussian blobs, one per class."""
    rng = np.random.default_rng(seed)
    centers = separation * rng.standard_normal((num_classes, num_features))
    labels = rng.integers(0, num_classes, num_samples)
    x = centers[labels] + rng.standard_normal((num_samples, num_features))
    return TensorDataset(x, labels.astype(np.int64))


def _digit_prototypes(size: int, seed: int) -> np.ndarray:
    """Ten smooth, distinct 2-D intensity patterns standing in for digits."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / (size - 1)
    prototypes = np.zeros((10, size, size))
    for digit in range(10):
        canvas = np.zeros((size, size))
        # Each class is a unique constellation of soft strokes/blobs.
        for _ in range(3 + digit % 3):
            cx, cy = rng.uniform(0.15, 0.85, 2)
            sx, sy = rng.uniform(0.05, 0.22, 2)
            angle = rng.uniform(0, np.pi)
            dx = (xx - cx) * np.cos(angle) + (yy - cy) * np.sin(angle)
            dy = -(xx - cx) * np.sin(angle) + (yy - cy) * np.cos(angle)
            canvas += np.exp(-(dx**2 / (2 * sx**2) + dy**2 / (2 * sy**2)))
        canvas /= canvas.max()
        prototypes[digit] = canvas
    return prototypes


def synthetic_mnist(
    num_samples: int = 2048, size: int = 28, noise: float = 0.25, seed: int = 0
) -> TensorDataset:
    """A ten-class 28×28 image dataset with MNIST-like difficulty.

    Samples are class prototypes plus pixel noise and ±2-pixel random
    translation, normalized to zero mean / unit variance like standard
    MNIST preprocessing.  Returns (images [N,1,28,28] float, labels int).
    """
    rng = np.random.default_rng(seed)
    prototypes = _digit_prototypes(size, seed=seed + 1)
    labels = rng.integers(0, 10, num_samples)
    images = np.empty((num_samples, 1, size, size))
    for i, label in enumerate(labels):
        img = prototypes[label]
        shift_y, shift_x = rng.integers(-2, 3, 2)
        img = np.roll(np.roll(img, shift_y, axis=0), shift_x, axis=1)
        img = img + noise * rng.standard_normal((size, size))
        images[i, 0] = img
    images = (images - images.mean()) / (images.std() + 1e-8)
    return TensorDataset(images, labels.astype(np.int64))
