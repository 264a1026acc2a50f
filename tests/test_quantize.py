"""Lifted sample sets, covers, entropy bounds, codebooks, transport, rates."""

import csv
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from oracles import (brute_force_transport, highs_transport, lloyd_mean_one_iteration,
                     pairwise_distance_loop)
from roughball import (
    CMPath,
    DiscreteMeasure,
    LiftedSet,
    SBPTransform,
    brownian_model,
    cm_ball_mesh,
    cover_growth_curve,
    embed_constant_increment,
    empirical_measures,
    empirical_rate_experiment,
    entropy_bounds_from_sbp,
    fbm_model,
    greedy_cover,
    holder_distance,
    lift_piecewise_linear,
    lloyd_codebook,
    pairwise_distance,
    quantization_error,
    wasserstein,
)
from roughball import paths
from roughball.algebra import G2Element
from roughball.runner import run
from roughball.smallball import synthetic_curve


def _brownian_set(n, seed, n_steps=64, dim=1):
    return LiftedSet.from_model(brownian_model(dim=dim), n, seed, n_steps=n_steps)


def _random_set(seed, size, dim, n_steps, scale=1.0):
    """Lifts of random piecewise-linear paths (cumulated normal steps) from 0."""
    steps = scale * np.random.default_rng(seed).standard_normal((size, n_steps, dim))
    values = np.zeros((size, n_steps + 1, dim))
    np.cumsum(steps, axis=1, out=values[:, 1:])
    return LiftedSet.from_values(np.linspace(0.0, 1.0, n_steps + 1), values)


# ---------------------------------------------------------------- lifted sets


def test_constant_increment_distance_is_euclidean(rng):
    pts = rng.standard_normal((30, 1))
    ls = embed_constant_increment(pts)
    D = pairwise_distance(ls, ls, alpha=0.4)
    expected = np.abs(pts - pts.T)
    # the vanishing level-2 coordinate leaves sqrt(ulp) residue, hence 1e-7
    assert np.abs(D - expected).max() <= 1e-7


def test_pairwise_matches_pathwise_distance(rng):
    xs = _brownian_set(6, 11)
    ys = _brownian_set(5, 12)
    D = pairwise_distance(xs, ys, alpha=0.4)
    for i in range(6):
        for j in range(5):
            direct = holder_distance(xs.path(i), ys.path(j), 0.4, pair_set="dyadic")
            assert D[i, j] == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_pairwise_chunking_is_invisible(rng):
    # 300 rows put every column in its own chunk; 5 rows put ~50 in one
    xs = _brownian_set(300, 21)
    full = pairwise_distance(xs, xs, alpha=0.4)
    rows = pairwise_distance(xs.subset(range(5)), xs, alpha=0.4)
    column = pairwise_distance(xs, xs.subset([7]), alpha=0.4)
    assert np.array_equal(full[:5], rows)
    assert np.array_equal(full[:, 7:8], column)
    assert np.abs(np.diag(full)).max() == 0.0
    assert np.abs(full - full.T).max() <= 1e-7


@pytest.mark.parametrize("variant", ["sum", "sup"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pairwise_matches_level_loop(variant, dim):
    for model in (brownian_model(dim=dim), fbm_model(0.4, dim=dim)):
        xs = LiftedSet.from_model(model, 300, 41, n_steps=64)
        ys = LiftedSet.from_model(model, 23, 42, n_steps=64)
        got = pairwise_distance(xs, ys, alpha=0.4, variant=variant)
        assert got.shape == (300, 23)
        assert np.array_equal(got, pairwise_distance_loop(xs, ys, 0.4, variant))
        empty = pairwise_distance(xs.subset([]), ys, alpha=0.4, variant=variant)
        assert empty.shape == (0, 23)
        assert np.array_equal(empty, pairwise_distance_loop(xs.subset([]), ys, 0.4, variant))


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 40), cols=st.integers(0, 40),
       dim=st.sampled_from([1, 2, 3, 8]), log2_steps=st.integers(0, 4),
       variant=st.sampled_from(["sum", "sup"]), chunk_floats=st.integers(1, 4096))
def test_pairwise_matches_level_loop_in_any_blocking(seed, rows, cols, dim, log2_steps,
                                                     variant, chunk_floats):
    # chunk budgets below one row of cells split the rows as well as the columns;
    # at d = 8 both component sums take numpy's pairwise order
    xs = _random_set(seed, rows, dim, 2**log2_steps)
    ys = _random_set(seed + 1, cols, dim, 2**log2_steps)
    want = pairwise_distance_loop(xs, ys, 0.4, variant)
    assert np.array_equal(pairwise_distance(xs, ys, 0.4, variant), want)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paths, "_KERNEL_CHUNK_FLOATS", chunk_floats)
        assert np.array_equal(pairwise_distance(xs, ys, 0.4, variant), want)


def test_pairwise_memory_stays_within_the_chunk_budget():
    xs = _brownian_set(1000, 51)
    ys = _brownian_set(32, 52)
    xs.dyadic_increments(), ys.dyadic_increments()
    tracemalloc.start()
    try:
        dist = pairwise_distance(xs, ys, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - dist.nbytes < 4 * paths._KERNEL_CHUNK_FLOATS * 8


def test_lifted_set_from_paths_roundtrip(rng):
    xs = _brownian_set(4, 31, dim=2)
    rebuilt = LiftedSet.from_paths([xs.path(i) for i in range(4)])
    assert np.array_equal(rebuilt.B, xs.B)
    assert np.array_equal(rebuilt.C, xs.C)
    sub = xs.subset([2, 0])
    assert np.array_equal(sub.B[0], xs.B[2])
    assert sub.size == 2


def test_lifted_set_requires_power_of_two_steps():
    times = np.linspace(0.0, 1.0, 6)  # 5 steps
    vals = np.zeros((3, 6, 1))
    with pytest.raises(ValueError):
        LiftedSet.from_values(times, vals)


def test_lifted_set_checks_prefix_shapes_against_grid():
    good = _brownian_set(3, 4, n_steps=8, dim=2)
    with pytest.raises(ValueError, match="grid of 5 points"):
        LiftedSet(np.linspace(0.0, 1.0, 5), good.B, good.C)  # 9-point prefixes
    with pytest.raises(ValueError, match="prefix arrays"):
        LiftedSet(good.times, good.B, good.C[..., :1])  # level 2 not (m, N+1, d, d)
    with pytest.raises(ValueError, match="prefix arrays"):
        LiftedSet(good.times, good.B, good.C[:2])  # one level-2 prefix short
    with pytest.raises(ValueError, match="prefix arrays"):
        LiftedSet(good.times, good.B[0], good.C[0])


def test_pairwise_rejects_dimension_mismatch():
    xs = _brownian_set(3, 1, n_steps=16, dim=1)
    ys = _brownian_set(4, 2, n_steps=16, dim=2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        pairwise_distance(xs, ys, alpha=0.4)


@pytest.mark.parametrize("alpha", [np.nan, 0.0, -0.4, 1.5])
def test_pairwise_rejects_alpha_outside_unit_interval(alpha):
    # the rule of holder_distance: alpha in (0, 1]
    xs = _brownian_set(3, 1, n_steps=16)
    with pytest.raises(ValueError, match="alpha must lie in \\(0, 1\\]"):
        pairwise_distance(xs, xs, alpha)
    with pytest.raises(ValueError, match="alpha must lie in \\(0, 1\\]"):
        holder_distance(xs.path(0), xs.path(1), alpha)


# ------------------------------------------------------------------- covering


def test_mesh_respects_radius_and_origin():
    mesh = cm_ball_mesh(brownian_model(), eta=1.5, n_steps=32, mesh_size=40, seed=2)
    assert mesh.lifted.size == 40
    assert np.all(mesh.cm_norms <= 1.5 + 1e-9)
    assert mesh.cm_norms[0] == 0.0  # zero path rides along
    assert mesh.radius == 1.5


def test_mesh_degenerates_at_zero_radius():
    mesh = cm_ball_mesh(brownian_model(), eta=0.0, n_steps=32, mesh_size=40, seed=2)
    assert mesh.lifted.size == 1
    assert np.abs(mesh.lifted.B).max() == 0.0


def test_greedy_cover_monotone_and_certified():
    mesh = cm_ball_mesh(brownian_model(), eta=1.0, n_steps=32, mesh_size=60, seed=4)
    eps_grid = [0.4, 0.7, 1.1, 1.8]
    counts = []
    for eps in eps_grid:
        res = greedy_cover(mesh, alpha=0.4, eps=eps)
        counts.append(res.n_centers)
        assert res.certified
        assert res.certificate_radius <= eps + 1e-12
        # every mesh point is within certificate radius of some chosen center
        centers = mesh.lifted.subset(list(res.center_indices))
        D = pairwise_distance(mesh.lifted, centers, alpha=0.4)
        assert D.min(axis=1).max() <= res.certificate_radius + 1e-12
    assert counts == sorted(counts, reverse=True)


def test_cover_curve_counts_align_with_direct_calls():
    mesh = cm_ball_mesh(brownian_model(), eta=1.0, n_steps=32, mesh_size=50, seed=6)
    eps_grid = [0.5, 0.9, 1.5]
    curve = cover_growth_curve(mesh, alpha=0.4, eps_grid=eps_grid)
    assert curve["probe_size"] == 50
    for eps, count in zip(curve["eps"], curve["n_centers"]):
        direct = greedy_cover(mesh, alpha=0.4, eps=float(eps))
        assert count == direct.n_centers
    assert curve["eps"] == sorted(curve["eps"], reverse=True)


# ------------------------------------------------------------- entropy bounds


def _reciprocal_transform():
    eps = np.geomspace(0.05, 4.0, 60)
    return SBPTransform(synthetic_curve(eps, np.exp(-1.0 / eps)))


def test_transform_inverts_reciprocal_curve():
    tr = _reciprocal_transform()
    for target in (np.log(8.0), np.log(30.0), 5.0):
        assert tr.inverse(target) == pytest.approx(1.0 / target, rel=1e-9)
    for eps in (0.1, 0.5, 2.0):
        assert tr.value(eps) == pytest.approx(1.0 / eps, rel=1e-9)


def test_transform_flags_resolution_edges():
    tr = _reciprocal_transform()
    with pytest.raises(ValueError, match="resolution"):
        tr.value(1e-4)
    with pytest.raises(ValueError, match="resolution"):
        tr.inverse(1e9)


def test_entropy_upper_matches_dilation_identity():
    tr = _reciprocal_transform()
    eps = 0.5
    b = tr.value(eps)
    res = entropy_bounds_from_sbp(tr, eta=np.sqrt(2.0 * b), eps=eps)
    assert res["upper"] == pytest.approx(2.0 * b, rel=1e-9)
    assert res["dilation_identity"]["eps_over_eta"] == pytest.approx(
        eps / np.sqrt(2.0 * b), rel=1e-12
    )


def test_entropy_lower_at_zero_radius():
    tr = _reciprocal_transform()
    eps = 0.5
    res = entropy_bounds_from_sbp(tr, eta=0.0, eps=eps)
    expected = tr.value(2 * eps) - tr.value(eps)
    assert res["lower"] == pytest.approx(expected, rel=1e-9)
    assert res["lower"] <= 0.0  # ball of radius 0: the bound degenerates


# ------------------------------------------------------------------ codebooks


def test_lloyd_medoid_history_is_monotone():
    samples = _brownian_set(80, 17)
    cb = lloyd_codebook(samples, 4, seed=3, mode="medoid", max_iter=15)
    hist = np.array(cb.history)
    assert np.all(np.diff(hist) <= 1e-12)
    assert cb.mode == "medoid"
    assert cb.distortion == pytest.approx(hist[-1])


def test_lloyd_mean_mode_polish_snaps_to_members():
    samples = _brownian_set(120, 19)
    cb = lloyd_codebook(samples, 3, seed=5, mode="mean", max_iter=15)
    hist = np.array(cb.history)
    # the accelerated update is heuristic and may wobble; the contract is the
    # final snap to sample medoids plus a net improvement over the start
    assert cb.distortion <= hist[0] + 1e-12
    assert cb.distortion == pytest.approx(hist[-1])
    D = pairwise_distance(cb.centers, samples, alpha=cb.alpha)
    assert D.min(axis=1).max() <= 1e-7  # every center is an actual sample


def test_lloyd_exact_fit_when_codebook_covers_samples():
    samples = _brownian_set(5, 23)
    cb = lloyd_codebook(samples, 5, seed=1)
    assert cb.distortion == pytest.approx(0.0, abs=1e-12)


def test_lloyd_static_gaussian_small_run():
    pts = np.random.default_rng(8).standard_normal((200000, 1))
    cb = lloyd_codebook(embed_constant_increment(pts), 2, seed=2, tol=1e-8)
    codepoints = np.sort(cb.centers.B[:, -1, 0])
    assert codepoints[1] == pytest.approx(np.sqrt(2 / np.pi), abs=2e-2)
    assert codepoints[0] == pytest.approx(-np.sqrt(2 / np.pi), abs=2e-2)
    assert cb.distortion**2 == pytest.approx(1 - 2 / np.pi, abs=2e-2)


def test_lloyd_mean_mode_recomputes_distances_when_max_iter_stops_it():
    samples = _brownian_set(60, 27)
    for n, seed in ((3, 4), (5, 9)):
        cb = lloyd_codebook(samples, n, seed=seed, mode="mean", max_iter=1)
        centres, history = lloyd_mean_one_iteration(samples, n, 0.4, seed)
        assert np.array_equal(cb.centers.B, centres)
        assert cb.history == history


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_codebook_dict_matches_per_step_flat_form(dim):
    cb = lloyd_codebook(_brownian_set(12, 33, n_steps=8, dim=dim), 3, seed=2,
                        mode="medoid", max_iter=2)
    for i, payload in enumerate(cb.to_dict()["centers"]):
        path = cb.centers.path(i)
        b, c = path.step_arrays()
        want = {"times": [float(t) for t in path.times],
                "steps": [G2Element(b[k], c[k]).to_flat() for k in range(len(b))]}
        assert json.dumps(payload) == json.dumps(want)


def test_codebook_dict_roundtrip():
    samples = _brownian_set(30, 29, dim=2)
    cb = lloyd_codebook(samples, 3, seed=7, mode="medoid", max_iter=8)
    again = type(cb).from_dict(cb.to_dict())
    assert np.array_equal(again.centers.B, cb.centers.B)
    # level-2 prefixes are rebuilt from per-step increments: last-bit rounding
    assert np.abs(again.centers.C - cb.centers.C).max() <= 1e-15
    assert again.distortion == cb.distortion
    assert again.history == cb.history


def test_quantization_error_reports_bound():
    eps = np.geomspace(0.2, 6.0, 40)
    tr_curve = synthetic_curve(eps, np.exp(-1.0 / eps))
    samples = _brownian_set(100, 31)
    cb = lloyd_codebook(samples, 8, seed=3, mode="medoid")
    out = quantization_error(cb, _brownian_set(150, 37), sbp_curve=tr_curve)
    assert out["n_centers"] == 8 and out["n_fresh"] == 150
    assert out["lower_bound"] == pytest.approx(1.0 / np.log(16.0), rel=1e-6)
    assert out["E_hat"] > 0 and out["E_hat_se"] > 0
    no_bound = quantization_error(cb, _brownian_set(150, 37))
    assert no_bound.get("lower_bound") is None


def test_quantization_error_needs_two_fresh_samples():
    cb = lloyd_codebook(_brownian_set(20, 31), 2, seed=3, mode="medoid")
    with pytest.raises(ValueError, match="fresh must hold at least 2 samples, got 1"):
        quantization_error(cb, _brownian_set(1, 37))
    assert quantization_error(cb, _brownian_set(2, 37))["E_hat_se"] >= 0.0


def test_quantization_bound_past_the_resolution_floor():
    # log(2 * 8) lies above the resolved -log p range (2.30 at eps 2): the
    # bound falls back to the largest eps with a Wilson upper limit <= 1/16
    eps = [1.0, 1.5, 2.0, 3.0, 4.0]
    cb = lloyd_codebook(_brownian_set(40, 31), 8, seed=3, mode="medoid")
    fresh = _brownian_set(50, 37)
    floor = synthetic_curve(eps, [0.0, 0.0, 0.1, 0.5, 0.9])
    assert quantization_error(cb, fresh, sbp_curve=floor)["lower_bound"] == 1.5
    unresolved = synthetic_curve(eps, [0.07, 0.08, 0.1, 0.5, 0.9])
    with pytest.raises(ValueError, match="resolution floor"):
        quantization_error(cb, fresh, sbp_curve=unresolved)


def test_quantize_stage_completes_past_the_resolution_floor(tmp_path):
    # this seed's curve has no hits up to eps 1.188 and p_hat 0.01625 at
    # 1.356, so -log p resolves only up to 4.12 < log(2 * 32)
    path = os.path.join(golden.ROOT, "perfbench", "configs", "quantize_transport.quantize.json")
    with open(path, encoding="utf-8") as fh:
        config = dict(json.load(fh), seed=602217019)
    run(config, out_dir=str(tmp_path), threads=1)
    with open(tmp_path / "quantize.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [row["holds_within_slack"] for row in rows] == ["True"] * 3
    bounds = {int(row["n"]): float(row["lower_bound"]) for row in rows}
    assert bounds == {4: 1.584333217248184, 16: 1.413292462341551, 32: 1.1882960774982871}


# ------------------------------------------------------------------ transport


@pytest.mark.parametrize("r", [0.0, -1.0, np.nan, np.inf])
def test_wasserstein_rejects_bad_order(r):
    mu = DiscreteMeasure(embed_constant_increment(np.array([[0.0], [1.0]])), np.full(2, 0.5))
    with pytest.raises(ValueError, match="r must be positive"):
        wasserstein(mu, mu, r, 0.4)


def test_weights_must_sum_to_one():
    atoms = embed_constant_increment(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match="weights must sum to 1"):
        DiscreteMeasure(atoms, np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms, np.array([-0.1, 1.1]))


def test_scalar_transport_toy():
    atoms = embed_constant_increment(np.array([[0.0], [1.0]]))
    mu = DiscreteMeasure(atoms, np.array([0.5, 0.5]))
    nu = DiscreteMeasure(atoms, np.array([0.25, 0.75]))
    assert wasserstein(mu, nu, r=1.0, alpha=0.4) == pytest.approx(0.25, abs=1e-9)
    assert wasserstein(mu, mu, r=1.0, alpha=0.4) == pytest.approx(0.0, abs=1e-12)


def test_transport_matches_enumeration_oracle(rng):
    # total support <= 6 keeps the spanning-tree enumeration tiny
    for _ in range(25):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        pts_mu = rng.standard_normal((m, 1))
        pts_nu = rng.standard_normal((n, 1))
        w1 = rng.random(m)
        w2 = rng.random(n)
        mu = DiscreteMeasure(embed_constant_increment(pts_mu), w1 / w1.sum())
        nu = DiscreteMeasure(embed_constant_increment(pts_nu), w2 / w2.sum())
        got = wasserstein(mu, nu, r=1.0, alpha=0.4)
        want = brute_force_transport(np.abs(pts_mu - pts_nu.T), mu.weights, nu.weights)
        assert got == pytest.approx(want, abs=1e-7)


def test_transport_cost_matrix_override(rng):
    a = embed_constant_increment(np.array([[0.0], [1.0]]))
    b = embed_constant_increment(np.array([[5.0], [9.0]]))
    mu = DiscreteMeasure(a, np.array([0.5, 0.5]))
    nu = DiscreteMeasure(b, np.array([0.5, 0.5]))
    flat = wasserstein(mu, nu, r=1.0, alpha=0.4, cost_matrix=np.ones((2, 2)))
    assert flat == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wasserstein_rejects_non_finite_cost(bad):
    mu = DiscreteMeasure(embed_constant_increment(np.array([[0.0], [1.0]])), np.full(2, 0.5))
    cost = np.ones((2, 2))
    cost[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        wasserstein(mu, mu, 1.0, 0.4, cost_matrix=cost)


def _benchmark_sized_measures(seed, n):
    """96 uniform reference atoms against n atoms with multinomial weights."""
    rng = np.random.default_rng(seed)
    ref = DiscreteMeasure(_brownian_set(96, seed, n_steps=16), np.full(96, 1 / 96))
    counts = rng.multinomial(500, rng.dirichlet(np.ones(n))).astype(float)
    return ref, DiscreteMeasure(_brownian_set(n, seed + 1, n_steps=16), counts / counts.sum())


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_transport_at_benchmark_size_matches_highs(seed):
    ref, atoms = _benchmark_sized_measures(seed, 32)
    cost = pairwise_distance(ref.atoms, atoms.atoms, 0.4)
    got = wasserstein(ref, atoms, 1.0, 0.4, cost_matrix=cost)
    want = highs_transport(cost, ref.weights, atoms.weights)
    # HiGHS stops within its tolerance above the optimum, never below it
    assert got <= want + 1e-12 * cost.max()
    assert got == pytest.approx(want, abs=1e-8)


def test_transport_gives_the_same_float_on_every_call():
    ref, atoms = _benchmark_sized_measures(6, 32)
    first = wasserstein(ref, atoms, 2.0, 0.4)
    assert all(wasserstein(ref, atoms, 2.0, 0.4) == first for _ in range(3))


def test_transport_triangle_inequality(rng):
    pts = rng.standard_normal((4, 1))
    atoms = embed_constant_increment(pts)
    ws = [rng.random(4) for _ in range(3)]
    mus = [DiscreteMeasure(atoms, w / w.sum()) for w in ws]
    d01 = wasserstein(mus[0], mus[1], 1.0, 0.4)
    d12 = wasserstein(mus[1], mus[2], 1.0, 0.4)
    d02 = wasserstein(mus[0], mus[2], 1.0, 0.4)
    assert d02 <= d01 + d12 + 1e-9


# ------------------------------------------------------------ empirical rates


def test_empirical_measures_weighting():
    model = brownian_model()
    atoms = LiftedSet.from_model(model, 3, 41, n_steps=32)
    out = empirical_measures(model, atoms, 400, 0.4, seed=9)
    for key in ("weighted", "uniform"):
        assert out[key].weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out["uniform"].weights, 1 / 3)
    assert not np.allclose(out["weighted"].weights, 1 / 3)


def test_empirical_measures_tie_goes_to_lowest_index():
    pts = np.array([[0.0], [0.0], [5.0]])  # first two atoms identical
    atoms = embed_constant_increment(pts)
    out = empirical_measures(brownian_model(), atoms, 300, 0.4, seed=2)
    w = out["weighted"].weights
    assert w[1] == 0.0  # duplicates lose every tie to the earlier atom
    assert w[0] > 0.0


def test_rate_experiment_schema_and_domination():
    res = empirical_rate_experiment(
        brownian_model(), 0.4, 1.0, [4, 8], reps=2, m_weights=300,
        test_size=64, seed=3, n_steps=32, bootstrap=4,
    )
    rows = res["rows"]
    assert len(rows) == 4
    for row in rows:
        assert set(row) >= {"n", "rep", "W_weighted", "W_uniform", "prediction", "seed",
                            "weight_se", "dominates_within_noise"}
        assert row["dominates_within_noise"]
    assert res["beta"] == pytest.approx(1.0 / 2.0 - 0.4)
    assert set(res["summary"]) == {4, 8}
    for cell in res["summary"].values():
        assert cell["W_weighted_se"] > 0
    preds = [row["prediction"] for row in sorted(rows, key=lambda r: r["n"])]
    assert preds[0] >= preds[-1]


def test_rate_experiment_rejects_flat_exponent():
    with pytest.raises(ValueError, match="alpha must lie below"):
        empirical_rate_experiment(
            brownian_model(), 0.5, 1.0, [4], reps=1, m_weights=50, test_size=16, n_steps=32
        )


# ----------------------------------------------------- generative properties


@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6), dim=st.integers(1, 3),
       log2_steps=st.integers(1, 4), scale=st.floats(1e-3, 10.0),
       alpha=st.floats(0.34, 0.49), variant=st.sampled_from(["sum", "sup"]))
def test_pairwise_distance_to_itself_is_symmetric_with_zero_diagonal(
        seed, size, dim, log2_steps, scale, alpha, variant):
    x = _random_set(seed, size, dim, 2**log2_steps, scale)
    dist = pairwise_distance(x, x, alpha, variant)
    assert np.all(np.diag(dist) == 0.0)
    # d(x, y) and d(y, x) round differently inside the square root of the
    # level-2 coordinates, and a residue eps |b|^2 there moves the norm by
    # about sqrt(eps) |b|: symmetric to 1e-6 relative, not bit for bit
    np.testing.assert_allclose(dist, dist.T, rtol=0.0, atol=1e-6 * dist.max())


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.integers(1, 7).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, 8 - m))),
    dim=st.integers(1, 2), r=st.sampled_from([1.0, 2.0]))
def test_transport_matches_enumeration_oracle_on_lifted_atoms(seed, sizes, dim, r):
    m, n = sizes
    rng = np.random.default_rng(seed)
    mu = DiscreteMeasure(_random_set(seed, m, dim, 4), rng.dirichlet(np.ones(m)))
    nu = DiscreteMeasure(_random_set(seed + 1, n, dim, 4), rng.dirichlet(np.ones(n)))
    cost = pairwise_distance(mu.atoms, nu.atoms, 0.4) ** r
    want = brute_force_transport(cost, mu.weights, nu.weights)
    assert abs(wasserstein(mu, nu, r, 0.4) ** r - want) <= 1e-12 * cost.max()


def _weights(draw, size):
    """Weights with zeros, ties and uniform cases: integer counts, normalised."""
    counts = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    if sum(counts) == 0:
        counts[draw(st.integers(0, size - 1))] = 1
    return np.array(counts, dtype=float) / sum(counts)


@settings(max_examples=200)
@given(data=st.data(), sizes=st.integers(1, 6).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, 7 - m))),
    ties=st.sampled_from(["integer", "equal", "real"]))
def test_transport_matches_enumeration_oracle_on_degenerate_inputs(data, sizes, ties):
    m, n = sizes
    if ties == "equal":
        cost = np.full((m, n), data.draw(st.floats(0.0, 3.0)))
    else:
        values = st.integers(0, 3) if ties == "integer" else st.floats(-2.0, 2.0)
        cost = np.array(data.draw(st.lists(values, min_size=m * n, max_size=m * n)),
                        dtype=float).reshape(m, n)
    mu_w = np.full(m, 1.0 / m) if data.draw(st.booleans()) else _weights(data.draw, m)
    nu_w = np.full(n, 1.0 / n) if data.draw(st.booleans()) else _weights(data.draw, n)
    mu = DiscreteMeasure(embed_constant_increment(np.arange(m, dtype=float)), mu_w)
    nu = DiscreteMeasure(embed_constant_increment(np.arange(n, dtype=float)), nu_w)
    want = brute_force_transport(cost, mu_w, nu_w)
    got = wasserstein(mu, nu, 1.0, 0.4, cost_matrix=cost)
    assert abs(max(want, 0.0) - got) <= 1e-12 * max(1.0, np.abs(cost).max())
