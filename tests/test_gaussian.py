"""Covariance models, samplers, reproducing-kernel norms, wavelet identities."""

import numpy as np
import pytest

from oracles import (
    cameron_martin_norm_unfactored,
    cm_ball_mesh_per_index,
    cm_mesh_directions_per_radius,
)
from roughball import (
    CMPath,
    brownian_model,
    cameron_martin_norm,
    covariance,
    custom_model,
    fbm_model,
    rho_variation_audit,
    sample_rng,
    schauder_coefficient,
    sigma_conditions_audit,
    simulate_paths,
    wavelet_correlation,
    wavelet_covariance,
    wavelet_variance,
)
from roughball.inequalities import _cm_mesh_directions
from roughball.quantize import LiftedSet, cm_ball_mesh


def test_brownian_covariance_is_min():
    m = brownian_model()
    for s, t in ((0.2, 0.9), (0.5, 0.5), (1.0, 0.3)):
        assert covariance(m, s, t) == pytest.approx(min(s, t), abs=1e-12)


def test_fbm_covariance_formula():
    H = 0.4
    m = fbm_model(H)
    for s, t in ((0.3, 0.7), (0.25, 0.25), (0.9, 0.1)):
        expected = 0.5 * (s ** (2 * H) + t ** (2 * H) - abs(t - s) ** (2 * H))
        assert covariance(m, s, t) == pytest.approx(expected, abs=1e-12)


def test_fbm_half_reduces_to_brownian_covariance():
    mb, mf = brownian_model(), fbm_model(0.5)
    grid = np.linspace(0.05, 1.0, 11)
    for s in grid:
        for t in grid:
            assert covariance(mf, s, t) == pytest.approx(covariance(mb, s, t), abs=1e-12)


def test_simulate_paths_deterministic_per_index():
    m = brownian_model(dim=2)
    t = np.linspace(0.0, 1.0, 65)
    first = [s.values.copy() for s in simulate_paths(m, t, 3, 99)]
    second = [s.values.copy() for s in simulate_paths(m, t, 3, 99)]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    other = [s.values.copy() for s in simulate_paths(m, t, 3, 100)]
    assert not np.array_equal(first[0], other[0])


def test_sample_rng_streams_are_stable():
    a = sample_rng(5, 17).standard_normal(8)
    b = sample_rng(5, 17).standard_normal(8)
    c = sample_rng(5, 18).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("make", [lambda: brownian_model(), lambda: fbm_model(0.4)])
def test_endpoint_variance_matches_covariance(make):
    model = make()
    t = np.linspace(0.0, 1.0, 33)
    n = 4000
    ends = np.array([s.values[-1, 0] for s in simulate_paths(model, t, n, 11)])
    target = covariance(model, 1.0, 1.0)
    se = target * np.sqrt(2.0 / n)  # variance of a chi-square estimate
    assert abs(ends.var() - target) <= 4 * se


def test_cm_norm_of_linear_drift_is_one():
    g = np.linspace(0.0, 1.0, 257)
    res = cameron_martin_norm(brownian_model(), CMPath(g, g.reshape(-1, 1)))
    assert res.norm == pytest.approx(1.0, abs=1e-9)


def test_cm_norm_of_kernel_slice():
    # h = min(s0, .) is the reproducing kernel at s0; its norm is sqrt(s0)
    s0 = 0.36
    vals = []
    for n in (64, 128, 256, 512):
        g = np.linspace(0.0, 1.0, n + 1)
        vals.append(
            cameron_martin_norm(brownian_model(), CMPath(g, np.minimum(g, s0).reshape(-1, 1))).norm
        )
    assert vals == sorted(vals)  # refinement can only reveal more energy
    assert vals[-1] == pytest.approx(np.sqrt(s0), abs=2e-3)


@pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf, np.nan])
def test_models_reject_bad_horizons(horizon):
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        brownian_model(horizon=horizon)
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        fbm_model(0.4, horizon=horizon)


def test_cm_norm_rejects_path_not_at_origin():
    g = np.linspace(0.0, 1.0, 17)
    with pytest.raises(ValueError):
        cameron_martin_norm(brownian_model(), CMPath(g, np.ones((17, 1))))


# One Gram factor serves every drift on a grid; each norm must equal the
# one-factor-per-drift reference bit for bit.
CM_MODELS = {
    "brownian_d1": lambda: brownian_model(1),
    "fbm_d2": lambda: fbm_model(0.4, 2),
    "custom_d2": lambda: custom_model([0.0, 0.25, 0.5, 0.75, 1.0],
                                      [0.0, 0.3, 0.55, 0.8, 1.0], 1.2, 2),
}


@pytest.mark.parametrize("name", sorted(CM_MODELS))
def test_cm_norm_equals_unfactored_reference(name, rng):
    model = CM_MODELS[name]()
    g = np.linspace(0.0, model.horizon, 33)
    for _ in range(5):
        vals = np.zeros((g.size, model.dim))
        vals[1:] = np.cumsum(rng.standard_normal((g.size - 1, model.dim)), axis=0)
        h = CMPath(g, vals)
        assert cameron_martin_norm(model, h) == cameron_martin_norm_unfactored(model, h)


@pytest.mark.parametrize("name", sorted(CM_MODELS))
def test_borell_mesh_directions_equal_unfactored_reference(name):
    model = CM_MODELS[name]()
    times = np.linspace(0.0, model.horizon, 65)
    lams = [0.7 * scale for scale in (1.0, 0.5)]
    got = _cm_mesh_directions(model, times, lams, 8)
    assert len(got) == len(lams)
    for directions, lam in zip(got, lams):
        want = cm_mesh_directions_per_radius(model, times, lam, 8)
        assert len(directions) == len(want) == 8
        assert all(np.array_equal(a, b) for a, b in zip(directions, want))


@pytest.mark.parametrize("name", sorted(CM_MODELS))
def test_cm_ball_mesh_equals_per_index_reference(name):
    model = CM_MODELS[name]()
    mesh = cm_ball_mesh(model, eta=1.3, n_steps=32, mesh_size=40, seed=6)
    values, norms = cm_ball_mesh_per_index(model, 1.3, 32, 40, 6)
    want = LiftedSet.from_values(mesh.lifted.times, values)
    assert np.array_equal(mesh.lifted.B, want.B)
    assert np.array_equal(mesh.lifted.C, want.C)
    assert np.array_equal(mesh.cm_norms, norms)


def test_wavelet_variance_brownian_is_unit():
    m = brownian_model()
    for p in range(7):
        assert wavelet_variance(m, p) == pytest.approx(1.0, abs=1e-10)


def test_wavelet_variance_fbm_closed_form():
    H = 0.4
    m = fbm_model(H)
    for p in range(7):
        expected = 2 ** (p * (1 - 2 * H)) * (2 ** (2 - 2 * H) - 1)
        assert wavelet_variance(m, p) == pytest.approx(expected, rel=1e-12)


def test_wavelet_orthogonality_brownian():
    m = brownian_model()
    assert wavelet_covariance(m, 2, 1, 3) == pytest.approx(0.0, abs=1e-12)
    assert wavelet_covariance(m, 1, 1, 2) == pytest.approx(0.0, abs=1e-12)


def test_wavelet_correlation_decays_for_fbm():
    m = fbm_model(0.4)
    near = wavelet_correlation(m, 3, 4, 5)
    far = wavelet_correlation(m, 3, 1, 8)
    assert abs(far["correlation"]) < abs(near["correlation"])
    assert abs(near["correlation"]) < 1.0


def test_schauder_coefficient_kills_linear_paths():
    t = np.linspace(0.0, 1.0, 129)

    class Flat:
        times = t
        values = np.stack([2.0 * t, -t], axis=1)

    for p in range(4):
        for m in range(1, 2**p + 1):
            assert np.abs(schauder_coefficient(Flat(), p, m)).max() <= 1e-12


def test_rho_audit_brownian_and_fbm():
    ra = rho_variation_audit(brownian_model())
    assert ra["rho"] == pytest.approx(1.0)
    assert ra["estimate"] == pytest.approx(1.0, abs=1e-8)
    assert np.isfinite(ra["fitted_M"])
    rf = rho_variation_audit(fbm_model(0.4))
    assert rf["rho"] == pytest.approx(1.0 / (2 * 0.4), abs=1e-12)


@pytest.mark.parametrize("levels", [0, 1])
def test_rho_audit_needs_two_mesh_levels(levels):
    with pytest.raises(ValueError, match=f"^mesh_levels: must be >= 2, got {levels}"):
        rho_variation_audit(brownian_model(), (0.0, 1.0), levels)


def test_sigma_audit_brownian_passes():
    sa = sigma_conditions_audit(brownian_model(), h_window=0.5)
    assert sa["doubling_pass"] and sa["envelope_pass"]
    assert sa["rho"] == pytest.approx(1.0)


def test_custom_model_interpolates_table():
    taus = np.array([0.0, 0.25, 0.5, 1.0])
    vals = taus.copy()  # variance of increments grows linearly, like brownian
    m = custom_model(taus, vals, rho=1.0)
    assert covariance(m, 0.3, 0.8) == pytest.approx(0.3, abs=1e-9)
