"""Tests for the statistics and experiment helpers."""

import pytest

from repro.analysis import Cdf, map_parallel, mean, render_table


class TestBasicStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])


class TestCdf:
    def test_from_samples(self):
        cdf = Cdf.from_samples([3.0, 1.0, 2.0])
        assert cdf.xs == [1.0, 2.0, 3.0]
        assert cdf.ps == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_quantile(self):
        cdf = Cdf.from_samples(range(1, 101))
        assert cdf.quantile(0.5) == 50
        assert cdf.quantile(0.95) == 95
        assert cdf.quantile(1.0) == 100

    def test_at(self):
        cdf = Cdf.from_samples([1.0, 2.0, 3.0, 4.0])
        assert cdf.at(2.5) == 0.5
        assert cdf.at(0.0) == 0.0
        assert cdf.at(10.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Cdf.from_samples([])
        cdf = Cdf.from_samples([1.0])
        with pytest.raises(ValueError):
            cdf.quantile(0.0)


def _seed_scenario(seed: int) -> float:
    """Module-level scenario so the process pool can pickle it."""
    rng_state = (seed * 2654435761) % 97
    return float(seed * 2 + rng_state * 0)


class TestHarness:
    def test_parallel_sweep_matches_serial(self):
        serial = map_parallel(_seed_scenario, range(8), workers=1)
        parallel = map_parallel(_seed_scenario, range(8), workers=4)
        assert serial == [float(seed * 2) for seed in range(8)]
        assert parallel == serial

    def test_parallel_single_worker_falls_back_to_serial(self):
        # workers=1 must not require a picklable scenario (no pool spawned).
        samples = map_parallel(lambda seed: float(seed + 1), range(4),
                               workers=1)
        assert samples == [1.0, 2.0, 3.0, 4.0]

    def test_render_table_alignment(self):
        table = render_table(["name", "value"],
                             [["alpha", 1.5], ["b", 22222.0]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
