"""Utility helpers: seeding, units, checkpoint internals."""

import numpy as np

from repro.utils import MB, KB, format_bytes, format_seconds, fork_rng, get_rng, manual_seed
from repro.utils.units import bytes_to_params, params_to_bytes


class TestSeeding:
    def test_manual_seed_reproducible(self):
        manual_seed(5)
        a = get_rng().standard_normal(4)
        manual_seed(5)
        b = get_rng().standard_normal(4)
        assert np.array_equal(a, b)

    def test_default_generator_exists(self):
        assert get_rng() is not None

    def test_fork_rng_restores(self):
        manual_seed(1)
        outer = get_rng()
        with fork_rng(99) as inner:
            assert get_rng() is inner
            assert inner is not outer
        assert get_rng() is outer

    def test_fork_rng_deterministic(self):
        with fork_rng(7):
            a = get_rng().random(3)
        with fork_rng(7):
            b = get_rng().random(3)
        assert np.array_equal(a, b)

    def test_per_thread_generators(self):
        import threading

        seen = {}

        def worker(name, seed):
            manual_seed(seed)
            seen[name] = get_rng().standard_normal(3)

        threads = [
            threading.Thread(target=worker, args=("a", 1)),
            threading.Thread(target=worker, args=("b", 2)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not np.array_equal(seen["a"], seen["b"])


class TestUnits:
    def test_constants(self):
        assert KB == 1024
        assert MB == 1024 * 1024

    def test_param_byte_conversions(self):
        assert params_to_bytes(10) == 40
        assert params_to_bytes(10, dtype_bytes=8) == 80
        assert bytes_to_params(40) == 10

    def test_format_bytes(self):
        assert format_bytes(512) == "512.0B"
        assert format_bytes(25 * MB) == "25.0MB"
        assert format_bytes(2048) == "2.0KB"
        assert "GB" in format_bytes(3 * 1024**3)

    def test_format_seconds(self):
        assert format_seconds(5e-5) == "50.0us"
        assert format_seconds(0.25) == "250.0ms"
        assert format_seconds(2.5) == "2.50s"
