"""Lifts, Chen/geometric identities, grid norms, translation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dyadic_holder_bound_loop,
    dyadic_level_maxima_loop,
    geometric_defect_sample_major,
    holder_distance_sample_major,
    level2_integrals_dense,
    prefix_sample_major,
)
from roughball import (
    CMPath,
    brownian_model,
    chen_defect,
    dyadic_holder_bound,
    g2_inverse,
    g2_log,
    g2_multiply,
    geometric_defect,
    holder_distance,
    holder_norm,
    lift_piecewise_linear,
    translate,
    trivial_rough_path,
)
from roughball import inequalities, quantize, smallball
from roughball.paths import (
    _power_of_two,
    all_pair_indices,
    batch_prefix,
    dyadic_level_maxima,
    dyadic_pair_indices,
    increment,
    pair_increments,
)


def _random_lift(rng, n_points=65, dim=2):
    times = np.linspace(0.0, 1.0, n_points)
    values = rng.standard_normal((n_points, dim)).cumsum(axis=0) * np.sqrt(times[1])
    values -= values[0]
    return lift_piecewise_linear(CMPath(times, values))


def test_lift_level2_matches_oracle(rng):
    for dim in (1, 2, 3):
        times = np.linspace(0.0, 1.0, 17)
        values = rng.standard_normal((17, dim)).cumsum(axis=0)
        values -= values[0]
        lift = lift_piecewise_linear(CMPath(times, values))
        expected = level2_integrals_dense(times, values)
        assert np.abs(lift.prefix_level2[-1] - expected).max() <= 1e-12
        # interior prefix too, via the truncated path
        k = 9
        partial = level2_integrals_dense(times[: k + 1], values[: k + 1])
        assert np.abs(lift.prefix_level2[k] - partial).max() <= 1e-12


def test_chen_and_geometric_identities(rng):
    x = _random_lift(rng, n_points=129, dim=3)
    assert chen_defect(x, n_triples=300, seed=3) <= 1e-13
    assert geometric_defect(x) <= 1e-13


def test_increment_composition_exact(rng):
    x = _random_lift(rng, n_points=33, dim=2)
    a = increment(x, 2, 10)
    b = increment(x, 10, 25)
    ab = g2_multiply(a, b)
    whole = increment(x, 2, 25)
    assert np.abs(ab.level1 - whole.level1).max() <= 1e-14
    assert np.abs(ab.level2 - whole.level2).max() <= 1e-14


def test_trivial_path_has_zero_norm():
    x = trivial_rough_path(np.linspace(0.0, 1.0, 9), 2)
    assert holder_norm(x, 0.4) == 0.0


def test_dyadic_pairs_subset_of_all_pairs():
    di, dj = dyadic_pair_indices(17)
    ai, aj = all_pair_indices(17)
    all_set = set(zip(ai.tolist(), aj.tolist()))
    assert set(zip(di.tolist(), dj.tolist())) <= all_set
    assert len(all_set) == 17 * 16 // 2
    assert np.all(di < dj)


def test_dyadic_norm_below_all_pairs(rng):
    x = _random_lift(rng, n_points=65)
    for alpha in (0.35, 0.45):
        assert holder_norm(x, alpha, pair_set="dyadic") <= holder_norm(x, alpha, pair_set="all")


def test_discretisation_bound_dominates_all_pairs(rng):
    for _ in range(5):
        x = _random_lift(rng, n_points=129)
        alpha = 0.4
        bound = dyadic_holder_bound(x, alpha, eps=0.5)
        assert bound.value >= holder_norm(x, alpha, pair_set="all") - 1e-12
        assert bound.coarse_term >= 0 and bound.fine_term >= 0


@pytest.mark.parametrize("variant", ["sum", "sup"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_object_metrics_match_sample_major_route(rng, variant, dim):
    # at N=512 the all-pairs family spans many kernel chunks
    for n_points in (65, 513):
        x = _random_lift(rng, n_points, dim)
        y = _random_lift(rng, n_points, dim)
        zero = trivial_rough_path(x.times, dim)
        for pair_set in ("all", "dyadic"):
            assert holder_distance(x, y, 0.4, pair_set, variant) == \
                holder_distance_sample_major(x, y, 0.4, pair_set, variant)
            assert holder_norm(x, 0.4, pair_set, variant) == \
                holder_distance_sample_major(x, zero, 0.4, pair_set, variant)
        assert geometric_defect(x) == geometric_defect_sample_major(x)
        for eps in (0.5, 0.125, 2.0 / (n_points - 1)):
            bound = dyadic_holder_bound(x, 0.4, eps, variant)
            assert (bound.value, bound.coarse_term, bound.fine_term) == dyadic_holder_bound_loop(
                x.prefix_level1, x.prefix_level2, x.times, 0.4, eps, variant)


def test_discretisation_bound_rejects_bad_input(rng):
    x = _random_lift(rng, n_points=65)
    with pytest.raises(ValueError, match="eps must equal"):
        dyadic_holder_bound(x, 0.4, eps=0.3)
    with pytest.raises(ValueError, match="alpha"):
        dyadic_holder_bound(x, 1.5, eps=0.5)
    with pytest.raises(ValueError, match="^n_steps: must be a power of two"):
        dyadic_holder_bound(_random_lift(rng, n_points=49), 0.4, eps=0.5)
    bent = np.linspace(0.0, 1.0, 65) ** 2
    with pytest.raises(ValueError, match="uniform grid"):
        dyadic_holder_bound(lift_piecewise_linear(CMPath(bent, np.zeros((65, 2)))), 0.4, 0.5)


def _random_values(rng, n_paths, n_steps, dim):
    values = np.zeros((n_paths, n_steps + 1, dim))
    np.cumsum(rng.standard_normal((n_paths, n_steps, dim)), axis=1, out=values[:, 1:])
    return values / np.sqrt(n_steps)


def test_batch_prefix_matches_sample_major_reference(rng):
    for dim in (1, 2, 3):
        values = _random_values(rng, 5, 32, dim)
        B, C = batch_prefix(values)
        B_ref, C_ref = prefix_sample_major(values)
        assert np.array_equal(B, B_ref) and np.array_equal(C, C_ref)
        assert B.flags.c_contiguous and C.flags.c_contiguous


@pytest.mark.parametrize("variant", ["sum", "sup"])
@pytest.mark.parametrize("dim", [1, 2, 3, 12])
def test_dyadic_level_kernel_matches_level_loop(rng, variant, dim):
    for n_steps in (2, 128):
        values = _random_values(rng, 37, n_steps, dim)
        centre = _random_values(rng, 1, n_steps, dim)[0] * 0.5
        got = dyadic_level_maxima(values, variant)
        ref = dyadic_level_maxima_loop(values, variant)
        assert got[2] is None and ref[2] is None
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        got = dyadic_level_maxima(values, variant, centre=centre)
        ref = dyadic_level_maxima_loop(values, variant, centre=centre)
        for a, b in zip(got, ref):
            assert a.shape == (37, n_steps.bit_length())
            assert np.array_equal(a, b)


def test_dyadic_level_kernel_one_path_outgrows_a_chunk(rng):
    # (2N-1)(d + d^2) > _KERNEL_CHUNK_FLOATS: every chunk still holds a path
    values = _random_values(rng, 3, 512, 12)
    centre = _random_values(rng, 1, 512, 12)[0]
    for a, b in zip(dyadic_level_maxima(values, "sum", centre=centre),
                    dyadic_level_maxima_loop(values, "sum", centre=centre)):
        assert a.shape == (3, 10) and np.array_equal(a, b)
    rough, path, centred = dyadic_level_maxima(np.zeros((0, 9, 2)))
    assert rough.shape == path.shape == (0, 4) and centred is None


def test_dyadic_level_kernel_rejects_bad_shapes():
    with pytest.raises(ValueError, match="^n_steps: must be a power of two"):
        dyadic_level_maxima(np.zeros((2, 7, 1)))
    with pytest.raises(ValueError, match="centre must have shape"):
        dyadic_level_maxima(np.zeros((2, 9, 2)), centre=np.zeros((9, 1)))


def test_pair_increments_stride_slices_equal_index_arrays(rng):
    values = _random_values(rng, 4, 64, 2)
    B, C = batch_prefix(values)
    for stride in (64, 8, 1):
        i_idx = np.arange(0, 64, stride, dtype=np.intp)
        by_index = pair_increments(B, C, i_idx, i_idx + stride)
        by_slice = pair_increments(B, C, slice(0, 64, stride), slice(stride, None, stride))
        for a, b in zip(by_index, by_slice):
            assert np.array_equal(a, b)


def test_distance_basic_properties(rng):
    x = _random_lift(rng)
    y = _random_lift(rng)
    d_xy = holder_distance(x, y, 0.4)
    assert d_xy == pytest.approx(holder_distance(y, x, 0.4), rel=1e-7)
    assert holder_distance(x, x, 0.4) == 0.0
    assert d_xy > 0


def test_translate_by_zero_is_identity(rng):
    x = _random_lift(rng)
    h = CMPath(x.times, np.zeros((len(x.times), 2)))
    tx = translate(x, h)
    assert np.abs(tx.prefix_level1 - x.prefix_level1).max() == 0.0
    assert np.abs(tx.prefix_level2 - x.prefix_level2).max() <= 1e-15


def test_translate_level1_adds_drift(rng):
    x = _random_lift(rng)
    h_vals = np.stack([x.times**2, np.sin(x.times)], axis=1)
    tx = translate(x, CMPath(x.times, h_vals))
    assert np.abs(tx.prefix_level1 - (x.prefix_level1 + h_vals)).max() <= 1e-14


def test_translation_invariance_dim1(rng):
    # one-dimensional group is abelian: translation drops out of differences.
    # The level-2 log coordinate of the difference vanishes identically here,
    # so the sqrt in the norm amplifies ulp-level residue to ~1e-8; the
    # tolerance budgets for that, not for any genuine drift.
    times = np.linspace(0.0, 1.0, 65)
    mk = lambda: lift_piecewise_linear(
        CMPath(times, rng.standard_normal((65, 1)).cumsum(axis=0))
    )
    x, y = mk(), mk()
    h = CMPath(times, (times**2).reshape(-1, 1))
    base = holder_distance(x, y, 0.4)
    shifted = holder_distance(translate(x, h), translate(y, h), 0.4)
    assert abs(base - shifted) <= 1e-6


def _levy_coordinate_of_difference(x, y):
    """Antisymmetric log coordinate (0,1) of the full-interval group difference."""
    n = len(x.times) - 1
    diff = g2_multiply(g2_inverse(x.increment(0, n)), y.increment(0, n))
    a = g2_log(diff).level2
    return 0.5 * (a[0, 1] - a[1, 0])


def test_translation_changes_difference_area_dim2():
    """Regression pin for the known non-invariance in dimension >= 2.

    For x_t = t e1, y_t = t e2, h_t = t^2 e2 the area coordinate of the
    group difference is -1/2 before translation and -7/6 after: the cross
    integrals between h and the level-1 difference survive in the
    antisymmetric part.  The grid discretisation of t^2 costs O(N^-2).
    """
    n_points = 1025
    t = np.linspace(0.0, 1.0, n_points)
    e = np.zeros((n_points, 2))
    x_vals = e.copy()
    x_vals[:, 0] = t
    y_vals = e.copy()
    y_vals[:, 1] = t
    x = lift_piecewise_linear(CMPath(t, x_vals))
    y = lift_piecewise_linear(CMPath(t, y_vals))
    h_vals = e.copy()
    h_vals[:, 1] = t**2
    h = CMPath(t, h_vals)
    before = _levy_coordinate_of_difference(x, y)
    after = _levy_coordinate_of_difference(translate(x, h), translate(y, h))
    assert before == pytest.approx(-0.5, abs=1e-4)
    assert after == pytest.approx(-7.0 / 6.0, abs=1e-4)


@pytest.mark.xfail(
    strict=True,
    reason="homogeneous-distance translation invariance fails in dimension >= 2; "
    "the difference element itself changes (see the area regression above)",
)
def test_translation_invariance_dim2(rng):
    times = np.linspace(0.0, 1.0, 257)
    mk = lambda: lift_piecewise_linear(
        CMPath(times, rng.standard_normal((257, 2)).cumsum(axis=0) * 0.06)
    )
    worst = 0.0
    for _ in range(10):
        x, y = mk(), mk()
        h_vals = np.stack([np.sin(times), times**2], axis=1)
        h = CMPath(times, h_vals)
        base = holder_distance(x, y, 0.4)
        shifted = holder_distance(translate(x, h), translate(y, h), 0.4)
        worst = max(worst, abs(base - shifted))
    assert worst <= 1e-11


def test_q_variation_of_smooth_path():
    from roughball.paths import q_variation

    t = np.linspace(0.0, 1.0, 513)
    vals = t.reshape(-1, 1)  # straight line: 1-variation is exactly the length
    assert q_variation(vals, 1.0) == pytest.approx(1.0, abs=1e-12)
    # higher q can only shrink the variation of a monotone line
    assert q_variation(vals, 2.0) <= 1.0 + 1e-12


class _Sampled(Exception):
    """Raised by the stubbed samplers: the call got past its argument rules."""


def _sampled(*args, **kwargs):
    raise _Sampled


_MODEL = brownian_model()
_DRIFT = CMPath(np.linspace(0.0, 1.0, 17), np.zeros((17, 1)))

# Every entry point that takes a step count: (argument, lower bound, call on n).
STEP_COUNT_ENTRY_POINTS = {
    "dyadic_pair_indices": ("n_points - 1", 1, lambda n: dyadic_pair_indices(n + 1)),
    "dyadic_level_maxima": ("n_steps", 1,
                            lambda n: dyadic_level_maxima(np.zeros((1, n + 1, 1)))),
    "LiftedSet": ("n_steps", 1, lambda n: quantize.LiftedSet(
        np.linspace(0.0, 1.0, n + 1), np.zeros((1, n + 1, 1)), np.zeros((1, n + 1, 1, 1)))),
    "LiftedSet.from_model": ("n_steps", 1,
                             lambda n: quantize.LiftedSet.from_model(_MODEL, 2, 0, n)),
    "empirical_rate_experiment": ("n_steps", 1, lambda n: quantize.empirical_rate_experiment(
        _MODEL, 0.4, 1.0, [2], 1, 4, 4, n_steps=n)),
    "cm_ball_mesh": ("n_steps", 8, lambda n: quantize.cm_ball_mesh(_MODEL, 1.0, n, 4)),
    "sample_dyadic_level_maxima": ("n_steps", 2, lambda n: smallball.sample_dyadic_level_maxima(
        _MODEL, 4, 0, n)),
    "sample_lemma_bound_norms": ("n_steps", 2, lambda n: smallball.sample_lemma_bound_norms(
        _MODEL, 0.4, 4, 0, n)),
    "estimate_sbp_curve": ("n_steps", 2, lambda n: smallball.estimate_sbp_curve(
        _MODEL, 0.4, "rough_holder_dyadic", [1.0], 4, 0, n)),
    "check_anderson": ("n_steps", 2, lambda n: inequalities.check_anderson(
        _MODEL, 0.4, None, 1.5, n=4, n_steps=n)),
    "check_cameron_martin": ("n_steps", 2, lambda n: inequalities.check_cameron_martin(
        _MODEL, 0.4, _DRIFT, 1.5, n=4, n_steps=n)),
    "check_borell_shift_rough": ("n_steps", 2, lambda n: inequalities.check_borell_shift_rough(
        _MODEL, 0.4, 1.5, 0.5, n=4, n_steps=n)),
}


def _outcome(call):
    """The message of the ValueError call() raises; None once it gets past its rules."""
    try:
        call()
    except _Sampled:
        return None
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=60)
@given(n=st.one_of(st.integers(-1, 600), st.sampled_from([2**k for k in range(10)])))
def test_step_count_entry_points_keep_the_shared_rule(n):
    # accepted and rejected exactly as _power_of_two says, with its message,
    # before any sampling: a sampler reached on a rejected count raises _Sampled
    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((smallball, "map_sample_blocks"),
                             (inequalities, "sample_dyadic_level_maxima"),
                             (inequalities, "map_sample_blocks"),
                             (quantize, "sample_path_block"), (quantize, "_cm_gram_factor")):
            mp.setattr(module, name, _sampled)
        for entry, (argument, low, call) in STEP_COUNT_ENTRY_POINTS.items():
            rule = _outcome(lambda: _power_of_two(low, **{argument: n}))
            got = _outcome(lambda: call(n))
            if rule is None:  # other rules may still reject, never this one
                assert got is None or not got.startswith(f"{argument}: "), (entry, got)
            else:
                assert got == rule, (entry, got)
