"""Correlation and shift inequality checks and their report plumbing."""

import re

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr, ndtri

from roughball import (
    CMPath,
    brownian_model,
    canary_violation,
    check_anderson,
    check_borell_shift,
    check_borell_shift_rough,
    check_cameron_martin,
    check_sidak,
    run,
)
from roughball import inequalities
from roughball.inequalities import _normal_pdf

OK = ("holds", "holds_within_noise")


def _drift(n_steps=128):
    t = np.linspace(0.0, 1.0, n_steps + 1)
    return CMPath(t, t.reshape(-1, 1))


def test_anderson_zero_center_is_equality():
    rep = check_anderson(brownian_model(), 0.4, None, 1.5, n=2000, n_steps=128)
    assert rep.margin == 0.0
    assert rep.verdict == "holds"


def test_anderson_shifted_center_holds():
    rep = check_anderson(brownian_model(), 0.4, _drift(), 1.5, n=6000, n_steps=128)
    assert rep.verdict in OK
    assert rep.margin >= -4 * (rep.margin_se or 0.0)
    assert rep.lhs_ci[0] <= rep.lhs <= rep.lhs_ci[1]


def test_cameron_martin_shift_bound_holds():
    rep = check_cameron_martin(brownian_model(), 0.4, _drift(), 1.5, n=6000, n_steps=128)
    assert rep.verdict in OK
    # the bound divides out exp(-|h|^2/2), which the report should expose
    assert rep.rhs > 0


def test_sidak_quadrature_margin_nonnegative():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    rep = check_sidak(cov, [1.0, 1.0], chaos_level=1)
    assert rep.config["method"] == "quadrature"
    assert rep.margin >= -1e-10
    assert rep.verdict == "holds"


def test_sidak_independent_case_is_tight():
    rep = check_sidak(np.eye(2), [1.0, 1.0], chaos_level=1)
    assert rep.margin == pytest.approx(0.0, abs=1e-10)


def test_sidak_mc_agrees_with_quadrature():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    quad = check_sidak(cov, [1.0, 1.0], chaos_level=1)
    mc = check_sidak(cov, [1.0, 1.0], chaos_level=1, method="mc", n=40000)
    assert mc.verdict in OK
    assert mc.lhs == pytest.approx(quad.lhs, abs=4 * mc.margin_se + 1e-3)


def test_sidak_chaos_level_two_holds():
    rep = check_sidak(np.eye(2), [1.0, 1.0], chaos_level=2, n=30000)
    assert rep.verdict in OK
    assert rep.margin >= -4 * rep.margin_se


def test_sidak_level_two_rejects_correlated_blocks():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError):
        check_sidak(cov, [1.0, 1.0], chaos_level=2)


def test_sidak_level_two_needs_a_bilinear_form():
    with pytest.raises(ValueError, match="bilinear"):
        check_sidak(np.eye(2), [1.0, 1.0], chaos_level=2, forms=[("linear_x", np.ones(1), 1.0)])


@pytest.mark.parametrize("forms, message", [
    ([("bilinear", np.ones((1, 1)), 0.5), ("linear_x", np.ones(2), 1.0)],
     r"linear_x form needs coefficients of shape \(1,\)"),
    ([("bilinear", np.ones((1, 2)), 0.5)], "stacked covariance size"),
    ([("bilinear", np.ones((1, 1)), 0.5), ("bilinear", np.eye(2), 0.5)],
     r"bilinear form needs coefficients of shape \(1, 1\)"),
])
def test_sidak_level_two_checks_form_shapes(forms, message):
    with pytest.raises(ValueError, match=message):
        check_sidak(np.eye(2), [0.5, 1.0], chaos_level=2, n=100, forms=forms)


def test_sidak_rejects_unknown_method():
    with pytest.raises(ValueError, match="method: must be 'auto', 'quadrature' or 'mc'"):
        check_sidak(np.eye(2), [1.0, 1.0], method="quadratur")


@pytest.mark.parametrize("check, name", [
    (lambda: check_sidak(np.eye(4), [1.0] * 4, method="mc", n=0), "n"),
    (lambda: check_sidak(np.eye(2), [1.0, 1.0], n=0), "n"),
    (lambda: check_borell_shift(2, ("box", 1.0), 0.5, n=0), "n"),
    (lambda: check_borell_shift(0, ("box", 1.0), 0.5), "dimension"),
    (lambda: check_borell_shift(-1, ("half_space", 0.0), 0.5), "dimension"),
    (lambda: canary_violation(n=0), "n"),
    (lambda: check_borell_shift_rough(brownian_model(), 0.4, 1.5, 0.5, n=0, n_steps=16), "n"),
    (lambda: check_borell_shift_rough(brownian_model(), 0.4, 1.5, 0.5, n=1, n_steps=16), "n"),
    (lambda: check_cameron_martin(brownian_model(), 0.4, _drift(), 1.5, n=1, n_steps=16), "n"),
    (lambda: check_borell_shift_rough(brownian_model(), 0.4, 0.0, 0.5, n_steps=16), "eps"),
    (lambda: check_borell_shift_rough(brownian_model(), 0.4, -1.0, 0.5, n_steps=16), "eps"),
    (lambda: check_borell_shift_rough(brownian_model(), 0.4, 1.5, -0.5, n_steps=16), "lam"),
    (lambda: check_borell_shift_rough(brownian_model(), 0.4, 1.5, 0.5, n_steps=16,
                                      n_directions=0), "n_directions"),
    (lambda: check_borell_shift_rough(brownian_model(), 0.6, 1.5, 0.5, n_steps=16), "alpha"),
    (lambda: check_borell_shift_rough(brownian_model(), 0.4, 1.5, 0.5, n_steps=100),
     "n_steps"),
    (lambda: check_anderson(brownian_model(), 0.3, None, 1.5, n_steps=16), "alpha"),
    (lambda: check_anderson(brownian_model(), 0.4, None, 0.0, n_steps=16), "eps"),
    (lambda: check_anderson(brownian_model(), 0.4, None, 1.5, n_steps=100), "n_steps"),
    (lambda: check_anderson(brownian_model(), 0.4, None, 1.5, seed=-1, n_steps=16), "seed"),
    (lambda: check_cameron_martin(brownian_model(), 0.4, _drift(16), -1.0, n_steps=16), "eps"),
    (lambda: check_cameron_martin(brownian_model(), 0.4, _drift(), 1.5, n_steps=16), "center"),
    (lambda: check_borell_shift(2, ("box", 0.0), 0.5), "set[1]"),
    (lambda: check_borell_shift(2, ("box", -1.0), 0.5), "set[1]"),
    (lambda: check_borell_shift(2, ("ball", 1.0), 0.5), "set[0]"),
    (lambda: check_borell_shift(2, ("half_space", 0.0), -0.5), "lam"),
    (lambda: check_sidak(np.eye(2), [1.0, 1.0], chaos_level=3), "chaos_level"),
    (lambda: check_sidak(np.eye(2), [1.0, 1.0], seed=-1), "seed"),
    (lambda: canary_violation(seed=-1), "seed"),
])
def test_checks_reject_bad_arguments_before_sampling(check, name, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the arguments were checked")

    monkeypatch.setattr(inequalities, "_normal_blocks", no_sampling)
    monkeypatch.setattr(inequalities, "map_sample_blocks", no_sampling)
    monkeypatch.setattr(inequalities, "sample_dyadic_level_maxima", no_sampling)
    with pytest.raises(ValueError, match=f"^{re.escape(name)}: must"):
        check()


def test_borell_half_space_is_exact():
    rep = check_borell_shift(1, ("half_space", 0.0), 1.0, n=10000)
    assert rep.margin == 0.0
    assert rep.verdict == "holds"


def test_borell_box_holds_within_noise():
    rep = check_borell_shift(2, ("box", 1.0), 0.8, n=40000)
    assert rep.verdict in OK
    assert rep.margin >= -4 * (rep.margin_se or 0.0)


def test_borell_rough_ball_holds():
    rep = check_borell_shift_rough(
        brownian_model(), 0.4, 1.5, 0.5, n=800, n_steps=64, n_directions=4
    )
    assert rep.verdict in OK


def test_canary_reports_violation():
    rep = canary_violation(n=20000)
    assert rep.verdict == "violated"
    assert rep.margin < 0
    assert rep.margin < -4 * rep.margin_se  # a real violation, not noise


@pytest.mark.parametrize("seed, lhs, verdict", [(0, 1.0, "holds"), (3, 0.0, "violated")])
def test_single_sample_proportions_keep_their_standard_errors(seed, lhs, verdict):
    # the binomial se is floored at sqrt(1e-300) for the sidak and box checks;
    # the canary keeps its unfloored se of 0 and so the deterministic verdict
    sidak = check_sidak(np.eye(4), [1.0] * 4, method="mc", n=1, seed=seed)
    box = check_borell_shift(2, ("box", 1.0), 0.5, n=1, seed=seed)
    canary = canary_violation(n=1, seed=seed)
    for rep, se in ((sidak, np.sqrt(1e-300)), (box, np.sqrt(1e-300)), (canary, 0.0)):
        assert (rep.lhs, rep.margin_se, rep.verdict) == (lhs, se, verdict)
        assert rep.margin == lhs - rep.rhs


def test_normal_functions_match_scipy_stats_bit_for_bit():
    x = np.array([-np.inf, -40.0, -38.5, -8.0, -1.5, -1e-300, -0.0, 0.0, 1e-300, 0.3,
                  1.96, 8.0, 38.5, 40.0, np.inf])
    q = np.array([0.0, 1e-300, 1e-20, 0.025, 0.5, 0.975, 1.0 - 2.0**-53, 1.0])
    for ours, theirs in ((ndtr(x), stats.norm.cdf(x)), (ndtri(q), stats.norm.ppf(q)),
                         (_normal_pdf(x), stats.norm.pdf(x))):
        assert ours.view(np.int64).tolist() == theirs.view(np.int64).tolist()


def test_reports_csv_layout(tmp_path):
    cfg = {
        "experiment": "inequalities",
        "model": {"kind": "brownian", "d": 1},
        "grid": {"N": 64},
        "checks": [
            {"name": "anderson", "alpha": 0.4, "eps": 1.0, "n": 500},
            {"name": "canary_violation", "n": 5000},
        ],
    }
    manifest = run(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "reports.csv").read_text().strip().split("\n")
    assert lines[0] == f"# config_hash={manifest['config_hash']}"
    assert lines[1].split(",")[0:2] == ["name", "verdict"]
    assert len(lines) == 4
    assert lines[3].startswith("canary_violation,violated,")


def test_reports_are_deterministic():
    a = check_anderson(brownian_model(), 0.4, _drift(64), 1.2, n=1500, n_steps=64, seed=5)
    b = check_anderson(brownian_model(), 0.4, _drift(64), 1.2, n=1500, n_steps=64, seed=5)
    assert a.lhs == b.lhs and a.rhs == b.rhs and a.margin == b.margin
