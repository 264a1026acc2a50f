"""Small-ball machinery: reference probabilities, samplers, curves, index fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from oracles import (
    allpairs_norms_sample_major,
    dyadic_tree_loop,
    gaussian_ball_probability,
    lemma_bound_norms_per_path,
    synthetic_curve,
)
from roughball import (
    brownian_model,
    check_borell_shift_rough,
    fbm_model,
    erf_bound_scan,
    erf_lower_bounds,
    estimate_sbp_curve,
    fit_variation_index,
    predicted_sbp_index,
    rd_gaussian_small_ball,
    run,
    sample_dyadic_level_maxima,
    wilson_interval,
)
from roughball import gaussian, paths
from roughball.gaussian import SamplerPlan, sample_path_block
from roughball.paths import dyadic_level_maxima
from roughball.quantize import LiftedSet, pairwise_distance
from roughball.smallball import (
    _Z95,
    curve_from_norms,
    sample_allpairs_norms,
    sample_lemma_bound_norms,
)


@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_rd_ball_matches_quadrature_oracle(norm):
    for d in (1, 2, 5):
        for eps in (0.1, 1.0, 3.0):
            assert rd_gaussian_small_ball(d, eps, norm=norm) == pytest.approx(
                gaussian_ball_probability(d, eps, norm=norm), abs=1e-10
            )


def test_rd_ball_slope_recovers_dimension():
    eps = np.geomspace(1e-4, 1e-2, 25)
    for d in (1, 2, 5):
        p = rd_gaussian_small_ball(d, eps)
        slope = np.polyfit(np.log(1.0 / eps), -np.log(p), 1)[0]
        assert abs(slope - d) / d <= 0.02


def test_rd_ball_rejects_bad_input():
    with pytest.raises(ValueError):
        rd_gaussian_small_ball(0, 1.0)
    with pytest.raises(ValueError):
        rd_gaussian_small_ball(2, -1.0)
    with pytest.raises(ValueError):
        rd_gaussian_small_ball(2, 1.0, norm="l7")


def test_erf_bounds_hold_everywhere():
    assert erf_lower_bounds(0.5, 0.8)["violations"] == []
    scan = erf_bound_scan(n_s=40, n_t=40)
    assert scan["violations"] == 0
    assert scan["min_margin"] >= 0.0


def test_z95_is_scipy_ndtri_bit_for_bit():
    assert type(_Z95) is float
    assert _Z95 == ndtri(0.975)


def test_wilson_interval_properties():
    lo, hi = wilson_interval(50, 100)
    assert 0.0 < lo < 0.5 < hi < 1.0
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0
    lo1, hi1 = wilson_interval(100, 100)
    assert hi1 == 1.0 and lo1 < 1.0


def test_synthetic_cubic_curve_recovers_index():
    eps = np.geomspace(0.05, 0.6, 40)
    curve = synthetic_curve(eps, np.exp(-(eps**-3.0)))
    fit = fit_variation_index(curve)
    assert fit.index == pytest.approx(3.0, abs=1e-6)
    assert fit.r2 > 0.999999


def test_fit_requires_usable_points():
    eps = np.array([0.1, 0.2, 0.3, 0.4])
    curve = synthetic_curve(eps, np.zeros(4))  # every probability saturates at 0
    with pytest.raises(ValueError):
        fit_variation_index(curve)


def test_predicted_index_value():
    # at rho = 1, alpha = 0.4 the predicted variation index is 1/(1/2 + 1/2 - 2/5) = 10
    assert predicted_sbp_index(1.0, 0.4) == pytest.approx(10.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_predicted_index_needs_alpha_in_the_rough_window(alpha):
    with pytest.raises(ValueError, match=r"^alpha: must lie in \(1/3, 0.5\)"):
        predicted_sbp_index(1.0, alpha)


def test_curve_from_norms_is_empirical_cdf():
    norms = np.array([0.5, 1.0, 1.5, 2.5, 3.0])
    eps = [1.2, 2.0, 2.8]
    curve = curve_from_norms(norms, eps, 0.4, "path_holder", "unit", 0)
    assert np.allclose(curve.p_hat, [2 / 5, 3 / 5, 4 / 5])
    assert curve.n_samples == 5
    assert curve.resolution_floor == pytest.approx(0.5)
    assert curve.raw_monotonicity_violations == 0
    for lo, p, hi in zip(curve.ci_low, curve.p_hat, curve.ci_high):
        assert lo <= p <= hi


def test_dyadic_sampler_threads_and_blocks_are_invisible():
    # 600 samples span three sampling blocks of 256; one block draw is the reference
    m = brownian_model(dim=2)
    base = sample_dyadic_level_maxima(m, 600, 9, n_steps=16)
    threaded = sample_dyadic_level_maxima(m, 600, 9, n_steps=16, threads=3)
    times = np.linspace(0.0, m.horizon, 17)
    rough, path, _ = dyadic_level_maxima(sample_path_block(SamplerPlan(m, times), 9, 0, 600))
    for ens in (base, threaded):
        assert np.array_equal(ens.rough_level_max, rough)
        assert np.array_equal(ens.path_level_max, path)


@pytest.mark.parametrize("kwargs, name", [
    ({"eps_list": []}, "eps_list"),
    ({"eps_list": [1.0, np.nan]}, "eps_list"),
    ({"eps_list": [-1.0, 1.0]}, "eps_list"),
    ({"n_samples": 0}, "n_samples"),
    ({"n_samples": -1}, "n_samples"),
])
@pytest.mark.parametrize("norm_kind", ["rough_holder_dyadic", "rough_holder_allpairs"])
def test_estimate_sbp_curve_rejects_bad_arguments(kwargs, name, norm_kind):
    call = dict(eps_list=[1.0, 2.0], n_samples=8, master_seed=0, n_steps=16)
    call.update(kwargs)
    with pytest.raises(ValueError, match=name):
        estimate_sbp_curve(brownian_model(), 0.4, norm_kind, **call)


def test_dyadic_sampler_rejects_bad_sample_counts():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_samples"):
            sample_dyadic_level_maxima(brownian_model(), n, 0, n_steps=16)


@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), dim=st.integers(1, 3),
       fbm=st.booleans(), variant=st.sampled_from(["sum", "sup"]),
       chunk_floats=st.integers(1, 4096), block=st.integers(1, 300))
def test_kernel_chunks_and_sample_blocks_change_no_result(seed, n, dim, fbm, variant,
                                                          chunk_floats, block):
    model = fbm_model(0.4, dim) if fbm else brownian_model(dim)
    times = np.linspace(0.0, 1.0, 17)
    centre = np.outer(np.sin(3.0 * times), np.ones(dim))
    values = sample_path_block(SamplerPlan(model, times), seed, 0, n)

    def shift():
        return check_borell_shift_rough(model, 0.35, 1.5, 0.5, n=n, seed=seed, n_steps=16,
                                        n_directions=4, variant=variant)

    def results():
        ens = sample_dyadic_level_maxima(model, n, seed, 16, variant, centre=centre)
        xs = LiftedSet.from_values(times, values)
        ys = LiftedSet.from_values(times, values[: n // 2 + 1])
        out = (ens.rough_level_max, ens.path_level_max, ens.centred_level_max,
               *dyadic_level_maxima(values, variant)[:2],
               *dyadic_level_maxima(values, variant, centre=centre),
               pairwise_distance(xs, ys, 0.4, variant),
               sample_allpairs_norms(model, 0.35, n, seed, 16, variant),
               sample_lemma_bound_norms(model, 0.35, n, seed, 16, variant=variant))
        if n == 1:  # a single sample has no standard error
            with pytest.raises(ValueError, match="^n: must be >= 2, got 1"):
                shift()
            return out
        rep = shift()
        return out + (np.array([rep.lhs, rep.rhs, rep.margin, rep.margin_se,
                                rep.extras["p_a"]]),)

    default = results()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paths, "_KERNEL_CHUNK_FLOATS", chunk_floats)
        mp.setattr(gaussian, "_SAMPLE_BLOCK", block)
        small = results()
    for want, got in zip(default, small, strict=True):
        assert np.array_equal(want, got)


@settings(max_examples=15)
@given(n=st.integers(1, 700), seed=st.integers(0, 2**64), dim=st.integers(1, 3),
       fbm=st.booleans(), variant=st.sampled_from(["sum", "sup"]), centred=st.booleans())
def test_dyadic_sampler_is_the_same_at_one_and_two_threads(n, seed, dim, fbm, variant,
                                                           centred):
    model = fbm_model(0.4, dim) if fbm else brownian_model(dim)
    centre = np.outer(np.linspace(0.0, 1.0, 17), np.ones(dim)) if centred else None
    one, two = (sample_dyadic_level_maxima(model, n, seed, 16, variant, threads=threads,
                                           centre=centre) for threads in (1, 2))
    assert np.array_equal(one.rough_level_max, two.rough_level_max)
    assert np.array_equal(one.path_level_max, two.path_level_max)
    if centred:
        assert np.array_equal(one.centred_level_max, two.centred_level_max)
    else:
        assert one.centred_level_max is None and two.centred_level_max is None


@pytest.mark.parametrize("variant", ["sum", "sup"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_allpairs_norms_match_sample_major_route(variant, dim):
    m = fbm_model(0.4, dim=dim)
    for n_steps, n in ((32, 70), (256, 5)):
        times = np.linspace(0.0, m.horizon, n_steps + 1)
        values = sample_path_block(SamplerPlan(m, times), 8, 0, n)
        got = sample_allpairs_norms(m, 0.4, n, 8, n_steps=n_steps, variant=variant)
        assert np.array_equal(got, allpairs_norms_sample_major(values, times, 0.4, variant))


@pytest.mark.parametrize("variant", ["sum", "sup"])
def test_centred_ensemble_matches_level_loop(variant):
    m = brownian_model(dim=2)
    times = np.linspace(0.0, 1.0, 65)
    centre = np.stack([times, np.sin(3.0 * times)], axis=1)
    ens = sample_dyadic_level_maxima(m, 40, 5, n_steps=64, variant=variant, centre=centre)
    ref = dyadic_tree_loop(sample_path_block(SamplerPlan(m, times), 5, 0, 40), variant,
                           centre=centre)
    for got, want in zip((ens.rough_level_max, ens.path_level_max, ens.centred_level_max),
                         ref):
        assert np.array_equal(got, want)
    span = 0.5 ** np.arange(7)
    assert np.array_equal(ens.centred_norms(0.4), np.max(ref[2] / span**0.4, axis=1))
    plain = sample_dyadic_level_maxima(m, 40, 5, n_steps=64, variant=variant)
    assert plain.centred_level_max is None
    assert np.array_equal(plain.rough_level_max, ens.rough_level_max)
    with pytest.raises(ValueError, match="without a centre"):
        plain.centred_norms(0.4)


@pytest.mark.parametrize("variant", ["sum", "sup"])
@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_lemma_bound_sampler_matches_per_path_route(variant, dim):
    # at d=8, N=512 one path's (2N-1)(d + d^2) floats outgrow a kernel chunk
    m = fbm_model(0.4, dim=dim)
    for n_steps, n in ((64, 300), (512, 12)):
        got = sample_lemma_bound_norms(m, 0.4, n, 6, n_steps=n_steps, variant=variant)
        assert np.array_equal(got, lemma_bound_norms_per_path(m, 0.4, n, 6, n_steps, variant))


def test_lemma_bound_sampler_checks_scale_once():
    m = brownian_model()
    with pytest.raises(ValueError, match="eps must equal"):
        sample_lemma_bound_norms(m, 0.4, 0, 1, n_steps=64, bound_scale=0.3)
    with pytest.raises(ValueError, match="^n_steps: must be a power of two"):
        sample_lemma_bound_norms(m, 0.4, 4, 1, n_steps=48)
    assert sample_lemma_bound_norms(m, 0.4, 0, 1, n_steps=64).shape == (0,)
    assert sample_allpairs_norms(m, 0.4, 0, 1, n_steps=64).shape == (0,)
    with pytest.raises(ValueError, match="n_samples"):
        sample_allpairs_norms(m, 0.4, -1, 1, n_steps=64)


def test_norm_route_orderings_per_sample():
    m = brownian_model()
    alpha = 0.4
    ens = sample_dyadic_level_maxima(m, 16, 3, n_steps=64)
    allp = sample_allpairs_norms(m, alpha, 16, 3, n_steps=64)
    lemma = sample_lemma_bound_norms(m, alpha, 16, 3, n_steps=64)
    assert np.all(ens.path_norms(alpha) <= ens.rough_norms(alpha) + 1e-15)
    assert np.all(ens.rough_norms(alpha) <= allp + 1e-12)
    assert np.all(lemma >= allp - 1e-12)


def test_estimate_curve_is_monotone_and_deterministic():
    m = brownian_model()
    eps = [0.8, 1.2, 1.8, 2.7]
    a = estimate_sbp_curve(m, 0.4, "rough_holder_dyadic", eps, 400, 21, n_steps=128)
    b = estimate_sbp_curve(m, 0.4, "rough_holder_dyadic", eps, 400, 21, n_steps=128)
    assert np.array_equal(a.p_hat, b.p_hat)
    assert np.all(np.diff(a.p_hat) >= 0)  # shared sample: exact monotonicity
    assert a.raw_monotonicity_violations == 0


def test_rough_probabilities_dominated_by_path_probabilities():
    m = brownian_model()
    eps = [0.8, 1.2, 1.8]
    kw = dict(n_samples=400, n_steps=128)
    rough = estimate_sbp_curve(m, 0.4, "rough_holder_dyadic", eps, master_seed=4, **kw)
    path = estimate_sbp_curve(m, 0.4, "path_holder", eps, master_seed=4, **kw)
    assert np.all(rough.p_hat <= path.p_hat + 1e-15)


def test_curve_roundtrips_through_dict_and_csv(tmp_path):
    m = brownian_model()
    curve = estimate_sbp_curve(m, 0.4, "path_holder", [1.0, 2.0], 200, 5, n_steps=64)
    again = curve.__class__.from_dict(curve.to_dict())
    assert np.array_equal(again.p_hat, curve.p_hat)
    manifest = run({"experiment": "sbp", "model": {"kind": "brownian", "d": 1}, "alpha": 0.4,
                    "norm_kind": "path_holder", "eps": [1.0, 2.0], "n_samples": 200,
                    "seed": 5, "grid": {"N": 64}}, out_dir=str(tmp_path))
    lines = (tmp_path / "curve.csv").read_text().strip().split("\n")
    assert lines[0] == f"# config_hash={manifest['config_hash']}"
    assert lines[1].startswith("eps,")
    assert len(lines) == 2 + len(curve.eps)
    assert [float(line.split(",")[1]) for line in lines[2:]] == curve.p_hat.tolist()
