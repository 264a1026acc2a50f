"""Block draws of the exact samplers equal per-sample draws bit for bit."""

import numpy as np
import pytest

from oracles import draw_increments_loop
from roughball.gaussian import (
    SamplerPlan,
    brownian_model,
    custom_model,
    fbm_model,
    sample_path_block,
    sample_rng,
    simulate_paths,
)

GRID = np.linspace(0.0, 1.0, 129)
# Ragged ranges: single samples, ranges straddling and spanning several
# transform chunks, and starts that are not chunk multiples.
RANGES = ((0, 1), (7, 8), (3, 40), (31, 33), (5, 102))

CASES = {
    "iid_d1": (lambda: brownian_model(1), GRID, "auto", "iid"),
    "iid_d3": (lambda: brownian_model(3), GRID, "auto", "iid"),
    "circulant_fbm_d2": (lambda: fbm_model(0.4, 2), GRID, "auto", "circulant"),
    "cholesky_fbm_d2": (lambda: fbm_model(0.4, 2), GRID[:65], "cholesky", "cholesky"),
    "cholesky_custom_nonuniform": (
        lambda: custom_model([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.3, 0.55, 0.8, 1.0], 1.2, 2),
        np.concatenate([np.linspace(0.0, 0.5, 33), np.linspace(0.5, 1.0, 17)[1:]]),
        "auto", "cholesky"),
}


def _per_sample_values(plan, seed, idx):
    values = np.zeros((plan.n_steps + 1, plan.model.dim))
    np.cumsum(plan.draw_increments(sample_rng(seed, idx)), axis=0, out=values[1:])
    return values


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_equals_per_sample_draws(case):
    make, times, method, expected_method = CASES[case]
    plan = SamplerPlan(make(), times, method=method)
    assert plan.method == expected_method
    for start, stop in RANGES:
        block = sample_path_block(plan, 2024, start, stop)
        assert block.shape == (stop - start, times.size, plan.model.dim)
        for k, idx in enumerate(range(start, stop)):
            assert np.array_equal(block[k], _per_sample_values(plan, 2024, idx))


@pytest.mark.parametrize("case", sorted(CASES))
def test_draw_increments_matches_component_loop(case):
    make, times, method, _ = CASES[case]
    plan = SamplerPlan(make(), times, method=method)
    for idx in (0, 1, 17):
        got = plan.draw_increments(sample_rng(5, idx))
        assert np.array_equal(got, draw_increments_loop(plan, sample_rng(5, idx)))


@pytest.mark.parametrize("case", ["iid_d3", "circulant_fbm_d2", "cholesky_fbm_d2"])
def test_simulate_paths_unchanged(case):
    make, times, method, _ = CASES[case]
    model = make()
    plan = SamplerPlan(model, times, method=method)
    samples = list(simulate_paths(model, times, 70, 11, method=method))
    assert [s.index for s in samples] == list(range(70))
    for s in samples:
        assert s.master_seed == 11
        assert np.array_equal(s.times, plan.times)
        assert np.array_equal(s.values, _per_sample_values(plan, 11, s.index))

