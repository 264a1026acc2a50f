"""Block draws of the exact samplers equal per-sample draws bit for bit, and
parallel_map returns results in input order."""

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import draw_increments_loop
from roughball.gaussian import (
    SamplerPlan,
    brownian_model,
    custom_model,
    fbm_model,
    parallel_map,
    sample_path_block,
    sample_rng,
    simulate_paths,
)

GRID = np.linspace(0.0, 1.0, 129)
# Ragged ranges: single samples, ranges straddling and spanning several
# transform chunks, and starts that are not chunk multiples.
RANGES = ((0, 1), (7, 8), (3, 40), (31, 33), (5, 102))

# (model, grid, the method the plan picks for them)
CASES = {
    "iid_d1": (lambda: brownian_model(1), GRID, "iid"),
    "iid_d3": (lambda: brownian_model(3), GRID, "iid"),
    "circulant_fbm_d2": (lambda: fbm_model(0.4, 2), GRID, "circulant"),
    "cholesky_fbm_d2": (lambda: fbm_model(0.4, 2),
                        np.concatenate([np.linspace(0.0, 0.25, 33),
                                        np.linspace(0.25, 0.5, 17)[1:]]), "cholesky"),
    "cholesky_custom_nonuniform": (
        lambda: custom_model([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.3, 0.55, 0.8, 1.0], 1.2, 2),
        np.concatenate([np.linspace(0.0, 0.5, 33), np.linspace(0.5, 1.0, 17)[1:]]),
        "cholesky"),
}


def _per_sample_values(plan, seed, idx):
    values = np.zeros((plan.n_steps + 1, plan.model.dim))
    np.cumsum(plan.draw_increments(sample_rng(seed, idx)), axis=0, out=values[1:])
    return values


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_equals_per_sample_draws(case):
    make, times, expected_method = CASES[case]
    plan = SamplerPlan(make(), times)
    assert plan.method == expected_method
    for start, stop in RANGES:
        block = sample_path_block(plan, 2024, start, stop)
        assert block.shape == (stop - start, times.size, plan.model.dim)
        for k, idx in enumerate(range(start, stop)):
            assert np.array_equal(block[k], _per_sample_values(plan, 2024, idx))


@pytest.mark.parametrize("case", sorted(CASES))
def test_draw_increments_matches_component_loop(case):
    make, times, _ = CASES[case]
    plan = SamplerPlan(make(), times)
    for idx in (0, 1, 17):
        got = plan.draw_increments(sample_rng(5, idx))
        assert np.array_equal(got, draw_increments_loop(plan, sample_rng(5, idx)))


@pytest.mark.parametrize("case", ["iid_d3", "circulant_fbm_d2", "cholesky_fbm_d2"])
def test_simulate_paths_unchanged(case):
    make, times, _ = CASES[case]
    model = make()
    plan = SamplerPlan(model, times)
    samples = list(simulate_paths(model, times, 70, 11))
    assert [s.index for s in samples] == list(range(70))
    for s in samples:
        assert s.master_seed == 11
        assert np.array_equal(s.times, plan.times)
        assert np.array_equal(s.values, _per_sample_values(plan, 11, s.index))



# Seeds of one, two and three 32-bit words (with the edges of each), and of
# more, whose entropy outgrows SeedSequence's pool of four words; the iid and
# circulant draw layouts on a small grid, so blocks past 256 are cheap.
SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1, 2**96]),
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**96 - 1),
    st.integers(2**96, 2**200),
)
SMALL_GRID = np.linspace(0.0, 1.0, 9)
LAYOUTS = {"iid": SamplerPlan(brownian_model(2), SMALL_GRID),
           "circulant": SamplerPlan(fbm_model(0.4, 2), SMALL_GRID)}


@st.composite
def _index_range(draw):
    length = draw(st.sampled_from([0, 1, 257, 300]) | st.integers(2, 64))
    start = draw(st.sampled_from([0, 2**32 - length]) | st.integers(0, 2**32 - length))
    return start, start + length


@settings(max_examples=60)
@example(seed=0, index_range=(0, 300), layout="circulant")
@example(seed=2**32 - 1, index_range=(2**32 - 257, 2**32), layout="iid")
@given(seed=SEEDS, index_range=_index_range(), layout=st.sampled_from(sorted(LAYOUTS)))
def test_block_seeding_reproduces_every_index_stream(seed, index_range, layout):
    plan = LAYOUTS[layout]
    assert plan.method == layout
    start, stop = index_range
    block = sample_path_block(plan, seed, start, stop)
    assert block.shape == (stop - start, SMALL_GRID.size, 2)
    for k, idx in enumerate(range(start, stop)):
        assert np.array_equal(block[k], _per_sample_values(plan, seed, idx))


def test_block_rejects_indices_past_one_entropy_word_and_negative_seeds():
    plan = LAYOUTS["iid"]
    assert sample_path_block(plan, 3, 2**32 - 1, 2**32).shape == (1, SMALL_GRID.size, 2)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        sample_path_block(plan, 3, 2**32 - 1, 2**32 + 1)
    with pytest.raises(ValueError, match="sample indices"):
        sample_path_block(plan, 3, -1, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        sample_path_block(plan, -1, 0, 2)
    with pytest.raises(ValueError):
        sample_rng(-1, 0)


def test_parallel_map_keeps_input_order_and_passes_errors_on():
    finished = []
    first_may_finish = threading.Event()

    def square(x):
        if x == 0:  # finishes only after item 1 has, when both run at once
            assert first_may_finish.wait(timeout=30)
        finished.append(x)
        if x == 1:
            first_may_finish.set()
        return x * x

    assert parallel_map(square, range(4), 2) == [0, 1, 4, 9]
    assert finished.index(1) < finished.index(0)

    def fail_on_two(x):
        if x == 2:
            raise KeyError(x)
        return x

    for threads in (1, 2, 3):
        with pytest.raises(KeyError):
            parallel_map(fail_on_two, range(5), threads)
        assert parallel_map(fail_on_two, [], threads) == []
    assert parallel_map(lambda x: -x, [1, 3], 8) == [-1, -3]
    assert parallel_map(lambda x: -x, iter([5]), 8) == [-5]
