"""End-to-end acceptance battery.

One test per shipped guarantee, each printing a single verdict line that
stays visible under pytest's capture.  Scales here are deliberately larger
than the unit suite: full sample counts, full grids, wall-clock budgets.

The translation-invariance clause of the rough-metric criterion is asserted
exactly as stated and is expected to fail: the homogeneous distance is not
translation invariant in dimension two and higher because translating both
arguments changes the area coordinate of their group difference by a
path-dependent O(1) amount.  The test is a strict xfail so the measured gap
stays on record without masking a real regression elsewhere.
"""

import json
import math
import time

import numpy as np
import pytest

import golden
from oracles import (brute_force_transport, gaussian_ball_probability, lloyd_fixed_point_1d,
                     synthetic_curve)
from roughball import (
    CMPath,
    chen_defect,
    dyadic_holder_bound,
    g2_dilate,
    g2_exp,
    g2_inverse,
    g2_log,
    g2_multiply,
    geometric_defect,
    holder_distance,
    holder_norm,
    lift_piecewise_linear,
    random_g2,
    translate,
)
from roughball.gaussian import brownian_model, fbm_model, schauder_coefficient, simulate_paths
from roughball.quantize import (
    DiscreteMeasure,
    LiftedSet,
    embed_constant_increment,
    empirical_rate_experiment,
    lloyd_codebook,
    pairwise_distance,
    quantization_error,
    wasserstein,
)
from roughball.runner import run
from roughball.smallball import (
    curve_from_norms,
    fit_variation_index,
    predicted_sbp_index,
    rd_gaussian_small_ball,
    sample_dyadic_level_maxima,
)

pytestmark = pytest.mark.acceptance

CONFIG_DIR = "configs"
ALL_CONFIGS = (
    "sbp_brownian.json",
    "sbp_fbm.json",
    "entropy.json",
    "quantize.json",
    "empirical.json",
    "inequalities.json",
    "audit.json",
)


def _report(capsys, num: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_finite_dimensional_ball_oracle(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for d in (1, 2, 5):
        for eps in (0.1, 1.0, 3.0):
            for kind in ("l2", "linf"):
                got = rd_gaussian_small_ball(d, eps, norm=kind)
                ref = gaussian_ball_probability(d, eps, norm=kind)
                worst = max(worst, abs(got - ref))
    slope_err = 0.0
    eps = np.geomspace(1e-4, 1e-2, 9)
    for d in (1, 2, 5):
        p = np.array([rd_gaussian_small_ball(d, e) for e in eps])
        slope = float(np.polyfit(np.log(1.0 / eps), -np.log(p), 1)[0])
        slope_err = max(slope_err, abs(slope - d) / d)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and slope_err <= 0.02 and elapsed < 1.0
    _report(capsys, "1", ok,
            f"ball probability vs quadrature {worst:.1e} (tol 1e-10), "
            f"slope error {slope_err:.2%} (tol 2%), {elapsed:.2f}s")
    assert worst <= 1e-10
    assert slope_err <= 0.02
    assert elapsed < 1.0


def test_criterion_02_algebra_exactness(capsys):
    rng = np.random.default_rng(20260822)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(10_000):
        d = 1 + k % 5
        x, y, z = (random_g2(rng, d) for _ in range(3))
        lhs = g2_multiply(g2_multiply(x, y), z)
        rhs = g2_multiply(x, g2_multiply(y, z))
        worst = max(worst, np.abs(lhs.level1 - rhs.level1).max(),
                    np.abs(lhs.level2 - rhs.level2).max())
        e = g2_multiply(x, g2_inverse(x))
        worst = max(worst, np.abs(e.level1).max(), np.abs(e.level2).max())
        back = g2_exp(g2_log(x))
        worst = max(worst, np.abs(back.level1 - x.level1).max(),
                    np.abs(back.level2 - x.level2).max())
        t = 0.25 + (k % 7) / 4.0
        dl = g2_dilate(g2_multiply(x, y), t)
        dr = g2_multiply(g2_dilate(x, t), g2_dilate(y, t))
        worst = max(worst, np.abs(dl.level1 - dr.level1).max(),
                    np.abs(dl.level2 - dr.level2).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-13 and elapsed < 5.0
    _report(capsys, "2", ok,
            f"10^4 cases d<=5, worst identity residue {worst:.1e} (tol 1e-13), "
            f"{elapsed:.1f}s")
    assert worst <= 1e-13
    assert elapsed < 5.0


def test_criterion_03_multiplicativity_and_geometry(capsys):
    model = brownian_model(dim=2)
    times = np.linspace(0.0, 1.0, 2**10 + 1)
    t0 = time.perf_counter()
    worst_chen = worst_geo = 0.0
    for sample in simulate_paths(model, times, 100, 20260301):
        x = lift_piecewise_linear(sample)
        worst_chen = max(worst_chen, chen_defect(x))
        worst_geo = max(worst_geo, geometric_defect(x))
    elapsed = time.perf_counter() - t0
    ok = worst_chen <= 1e-12 and worst_geo <= 1e-12 and elapsed < 30.0
    _report(capsys, "3a", ok,
            f"100 lifts d=2 N=1024: multiplicativity defect {worst_chen:.1e}, "
            f"geometric defect {worst_geo:.1e} (tol 1e-12), {elapsed:.1f}s")
    assert worst_chen <= 1e-12
    assert worst_geo <= 1e-12
    assert elapsed < 30.0


@pytest.mark.xfail(
    strict=True,
    reason="the homogeneous distance is not translation invariant for d >= 2; "
    "the group difference's area coordinate shifts by an O(1) path-dependent "
    "amount, so the 1e-11 clause cannot hold as stated",
)
def test_criterion_03_translation_invariance_as_stated(capsys):
    model = brownian_model(dim=2)
    times = np.linspace(0.0, 1.0, 257)
    gen = simulate_paths(model, times, 100, 20260302)
    rng = np.random.default_rng(20260303)
    gap = 0.0
    for _ in range(50):
        x = lift_piecewise_linear(next(gen))
        y = lift_piecewise_linear(next(gen))
        coef = rng.standard_normal((2, 2)) * 0.5
        vals = np.stack([coef[0, c] * times + coef[1, c] * times**2
                         for c in range(2)], axis=1)
        h = CMPath(times, vals)
        d0 = holder_distance(x, y, 0.4)
        d1 = holder_distance(translate(x, h), translate(y, h), 0.4)
        gap = max(gap, abs(d1 - d0))
    _report(capsys, "3b", gap <= 1e-11,
            f"translation invariance over 50 triples: max gap {gap:.3f} "
            f"(claimed tol 1e-11); O(1) by construction, see unit-suite xfail")
    assert gap <= 1e-11


def test_criterion_04_dyadic_bound_dominates(capsys):
    model = brownian_model(dim=1)
    times = np.linspace(0.0, 1.0, 2**9 + 1)
    t0 = time.perf_counter()
    violations = 0
    margin = math.inf
    for sample in simulate_paths(model, times, 100, 20260404):
        x = lift_piecewise_linear(sample)
        bound = dyadic_holder_bound(x, 0.4, eps=0.5).value
        full = holder_norm(x, 0.4, pair_set="all")
        margin = min(margin, bound - full)
        if bound < full:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    _report(capsys, "4", ok,
            f"100 lifts N=512: dyadic majorant >= all-pairs norm, "
            f"{violations} violations, min slack {margin:.3f}, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_05_wavelet_coefficient_variances(capsys):
    times = np.linspace(0.0, 1.0, 257)
    n = 100_000
    hurst = 0.4
    cases = (
        ("brownian", brownian_model(dim=1), [1.0] * 7),
        ("fbm", fbm_model(hurst, dim=1),
         [2 ** (p * (1 - 2 * hurst)) * (2 ** (2 - 2 * hurst) - 1) for p in range(7)]),
    )
    t0 = time.perf_counter()
    lines = []
    ok = True
    for label, model, targets in cases:
        s1 = np.zeros(7)
        s2 = np.zeros(7)
        for sample in simulate_paths(model, times, n, 20260505):
            for p in range(7):
                w = schauder_coefficient(sample, p, 1)[0]
                s1[p] += w * w
                s2[p] += w**4
        worst_z = 0.0
        for p in range(7):
            v_hat = s1[p] / n
            se = math.sqrt(max(s2[p] / n - v_hat**2, 0.0) / n)
            z = abs(v_hat - targets[p]) / se
            worst_z = max(worst_z, z)
            ok = ok and z <= 4.0
        lines.append(f"{label} worst |z| {worst_z:.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(capsys, "5", ok,
            f"per-level variances at n=1e5, p=0..6: {'; '.join(lines)} "
            f"(tol 4 SE), {elapsed:.1f}s")
    assert ok


def test_criterion_06_inequality_matrix_clean(capsys, tmp_path):
    t0 = time.perf_counter()
    run(f"{CONFIG_DIR}/inequalities.json", out_dir=str(tmp_path / "ineq"))
    reports = json.loads((tmp_path / "ineq" / "reports.json").read_text())["reports"]
    violated = sorted(r["name"] for r in reports if r["verdict"] == "violated")
    elapsed = time.perf_counter() - t0
    ok = not violated and len(reports) >= 7 and elapsed < 300.0
    _report(capsys, "6", ok,
            f"{len(reports)} checks from the shipped config, "
            f"violated={violated or 'none'}, {elapsed:.1f}s")
    assert violated == []
    assert len(reports) >= 7
    assert elapsed < 300.0


def test_criterion_07_sbp_index_machinery(capsys):
    t0 = time.perf_counter()

    eps = np.geomspace(0.5, 2.0, 12)
    cubic = synthetic_curve(eps, np.exp(-eps**-3.0))
    cubic_idx = fit_variation_index(cubic).index
    ok = abs(cubic_idx - 3.0) <= 1e-6

    model = brownian_model(dim=1)
    ens = sample_dyadic_level_maxima(model, 200_000, 20260707, 2**10, threads=4)
    quantiles = np.linspace(0.002, 0.6, 12)
    fitted = {}
    side_by_side = []
    for alpha in (0.34, 0.38, 0.42):
        norms = np.sort(ens.norms(alpha, "rough_holder_dyadic"))
        curve = curve_from_norms(norms, np.quantile(norms, quantiles), alpha,
                                 "rough_holder_dyadic", "brownian", 20260707)
        fitted[alpha] = fit_variation_index(curve).index
        side_by_side.append(
            f"a={alpha}: fitted {fitted[alpha]:.2f} / predicted "
            f"{predicted_sbp_index(1.0, alpha):.2f}")
    increasing = fitted[0.34] < fitted[0.38] < fitted[0.42]
    ok = ok and increasing

    norms_rough = np.sort(ens.norms(0.40, "rough_holder_dyadic"))
    norms_path = np.sort(ens.norms(0.40, "path_holder"))
    grid = np.quantile(norms_rough, np.linspace(0.01, 0.99, 33))
    p_rough = np.searchsorted(norms_rough, grid) / norms_rough.size
    p_path = np.searchsorted(norms_path, grid) / norms_path.size
    dominated = bool(np.all(p_rough <= p_path))
    ok = ok and dominated

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report(capsys, "7", ok,
            f"synthetic index {cubic_idx:.6f} (target 3 +- 1e-6); "
            f"monotone across alpha: {increasing} [{'; '.join(side_by_side)}]; "
            f"rough ball prob <= path ball prob at every eps: {dominated}; "
            f"{elapsed:.0f}s")
    assert abs(cubic_idx - 3.0) <= 1e-6
    assert increasing, fitted
    assert dominated
    assert elapsed < 300.0


def test_criterion_08_quantization(capsys):
    t0 = time.perf_counter()

    # independent oracle first: quadrature fixed point for the scalar Gaussian
    ref_codes, ref_distortion = lloyd_fixed_point_1d(2)
    assert abs(ref_codes[1] - 0.79788) <= 1e-5
    assert abs(ref_distortion - 0.36338) <= 1e-5

    rng = np.random.default_rng(20260808)
    samples = embed_constant_increment(rng.standard_normal(1_000_000))
    book = lloyd_codebook(samples, 2, r=2.0, alpha=0.4, seed=0, mode="mean", tol=1e-8)
    codes = np.sort(book.centers.endpoints()[:, 0])
    code_err = float(np.abs(codes - ref_codes).max())
    dist_err = abs(book.distortion**2 - ref_distortion)
    ok = code_err <= 1e-2 and dist_err <= 1e-2

    # pathspace bound: fresh-sample distortion vs inverse small-ball at log(2n)
    model = brownian_model(dim=1)
    level_norms = np.sort(
        sample_dyadic_level_maxima(model, 20_000, 20260809, 64).norms(
            0.4, "rough_holder_dyadic"))
    curve = curve_from_norms(
        level_norms, np.quantile(level_norms, np.linspace(1e-3, 0.6, 14)),
        0.4, "rough_holder_dyadic", "brownian", 20260809)
    train = LiftedSet.from_model(model, 512, 20260810, 64)
    fresh = LiftedSet.from_model(model, 2000, 20260811, 64)
    bound_checks = []
    for n in (4, 16, 64):
        cb = lloyd_codebook(train, n, r=2.0, alpha=0.4, seed=1, mode="auto")
        err = quantization_error(cb, fresh, sbp_curve=curve)
        bound_checks.append((n, err["E_hat"], err["lower_bound"],
                             bool(err["holds_within_slack"])))
    bounds_ok = all(flag for *_, flag in bound_checks)
    elapsed = time.perf_counter() - t0
    ok = ok and bounds_ok and elapsed < 300.0
    summary = ", ".join(f"n={n}: {e:.3f}>={b:.3f}" for n, e, b, _ in bound_checks)
    _report(capsys, "8", ok,
            f"scalar codepoints off by {code_err:.1e}, distortion off by "
            f"{dist_err:.1e} (tol 1e-2); path bound within 4 SE [{summary}]; "
            f"{elapsed:.0f}s")
    assert code_err <= 1e-2
    assert dist_err <= 1e-2
    assert bounds_ok, bound_checks
    assert elapsed < 300.0


def test_criterion_09_transport_exactness(capsys):
    rng = np.random.default_rng(20260909)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 7 - m))
        mu_w = rng.dirichlet(np.ones(m))
        nu_w = rng.dirichlet(np.ones(n))
        cost = rng.uniform(0.0, 2.0, (m, n))
        mu = DiscreteMeasure(embed_constant_increment(rng.standard_normal(m)), mu_w)
        nu = DiscreteMeasure(embed_constant_increment(rng.standard_normal(n)), nu_w)
        got = wasserstein(mu, nu, 1.0, 0.4, cost_matrix=cost)
        worst = max(worst, abs(got - brute_force_transport(cost, mu_w, nu_w)))

    # larger one-dimensional supports against the sorted-coupling formula
    quantile_worst = 0.0
    for _ in range(20):
        pts = np.sort(rng.standard_normal(24))
        atoms = embed_constant_increment(pts)
        w1 = rng.dirichlet(np.ones(24))
        w2 = rng.dirichlet(np.ones(24))
        cost = np.abs(pts[:, None] - pts[None, :])
        got = wasserstein(DiscreteMeasure(atoms, w1), DiscreteMeasure(atoms, w2),
                          1.0, 0.4, cost_matrix=cost)
        cdf_gap = np.cumsum(w1 - w2)[:-1]
        ref = float(np.sum(np.abs(cdf_gap) * np.diff(pts)))
        quantile_worst = max(quantile_worst, abs(got - ref))

    # metric axioms against a fixed ground cost, so that only the transport
    # layer is tested
    axiom_worst = 0.0
    atoms = LiftedSet.from_model(brownian_model(dim=2), 8, 20260910, 32)
    ground = pairwise_distance(atoms, atoms, 0.4)
    for _ in range(30):
        wa, wb, wc = (rng.dirichlet(np.ones(8)) for _ in range(3))
        mus = [DiscreteMeasure(atoms, w) for w in (wa, wb, wc)]
        d_ab = wasserstein(mus[0], mus[1], 1.0, 0.4, cost_matrix=ground)
        d_ba = wasserstein(mus[1], mus[0], 1.0, 0.4, cost_matrix=ground.T)
        d_bc = wasserstein(mus[1], mus[2], 1.0, 0.4, cost_matrix=ground)
        d_ac = wasserstein(mus[0], mus[2], 1.0, 0.4, cost_matrix=ground)
        d_aa = wasserstein(mus[0], mus[0], 1.0, 0.4, cost_matrix=ground)
        axiom_worst = max(axiom_worst, abs(d_ab - d_ba), d_aa,
                          d_ac - (d_ab + d_bc))
    elapsed = time.perf_counter() - t0
    ok = (worst <= 1e-12 and quantile_worst <= 1e-12 and axiom_worst <= 1e-12
          and elapsed < 30.0)
    _report(capsys, "9", ok,
            f"1000 instances vs enumeration {worst:.1e}; sorted-coupling "
            f"cross-check {quantile_worst:.1e}; metric axioms {axiom_worst:.1e} "
            f"(tol 1e-12); {elapsed:.1f}s")
    assert worst <= 1e-12
    assert quantile_worst <= 1e-12
    assert axiom_worst <= 1e-12
    assert elapsed < 30.0


def test_criterion_10_empirical_rates(capsys):
    t0 = time.perf_counter()
    res = empirical_rate_experiment(
        brownian_model(dim=1), alpha=0.4, r=1.0,
        n_list=(8, 16, 32, 64, 128), reps=10,
        m_weights=2000, test_size=256, n_steps=64, seed=20261010, bootstrap=8,
    )
    failing = [(r["n"], r["rep"]) for r in res["rows"]
               if not r["dominates_within_noise"]]
    slope = res["loglog_slope"]
    predicted = {n: float(np.log(n) ** -res["beta"]) for n in (8, 16, 32, 64, 128)}
    elapsed = time.perf_counter() - t0
    ok = not failing and slope < 0.0 and elapsed < 600.0
    pred_txt = ", ".join(f"n={n}: {v:.3f}" for n, v in predicted.items())
    _report(capsys, "10", ok,
            f"50 cells all weighted<=uniform within 4 SE: {not failing}; "
            f"log W vs log log n slope {slope:.3f} (<0); constant-free rate "
            f"(log n)^-beta reported, not asserted [{pred_txt}]; {elapsed:.0f}s")
    assert failing == []
    assert slope < 0.0
    assert elapsed < 600.0


def test_criterion_11_thread_count_determinism(capsys, tmp_path):
    recorded = golden.load()
    skip_golden = golden.version_mismatch(recorded)
    t0 = time.perf_counter()
    mismatched = []
    off_golden = []
    for name in ALL_CONFIGS:
        stem = name.rsplit(".", 1)[0]
        t1_dir = str(tmp_path / "t1" / stem)
        m1 = run(f"{CONFIG_DIR}/{name}", out_dir=t1_dir, threads=1)
        m8 = run(f"{CONFIG_DIR}/{name}", out_dir=str(tmp_path / "t8" / stem), threads=8)
        if m1["files"] != m8["files"] or m1["config_hash"] != m8["config_hash"]:
            mismatched.append(name)
        if not skip_golden and golden.digests(t1_dir) != recorded["runs"][f"configs/{name}"]:
            off_golden.append(name)
    elapsed = time.perf_counter() - t0
    ok = not mismatched and not off_golden
    detail = (f"identical artifact hashes; {skip_golden or 'golden digests match'}" if ok
              else f"hash mismatch in {mismatched}, golden mismatch in {off_golden}")
    _report(capsys, "11", ok,
            f"{len(ALL_CONFIGS)} configs, threads 1 vs 8: {detail}; {elapsed:.0f}s")
    assert mismatched == []
    assert off_golden == []
