"""Gaussian path models: covariance specs, exact simulation, regularity audits.

Every model is a centred d-dimensional process with iid components and
stationary increments, specified through the increment variance function
sigma2(tau) = E[|W_{t+tau} - W_t|^2] per component, so the two-point covariance
is E[W_s W_t] = (sigma2(s) + sigma2(t) - sigma2(|t-s|)) / 2.

Simulation is exact in distribution: iid Gaussian increments for Brownian
motion (whose increment covariance is diagonal), circulant embedding of the
stationary increment sequence on uniform grids (Davies-Harte construction),
and dense Cholesky of the increment covariance otherwise.  Each sample index
owns its seed stream, so results do not depend on batching or worker count.

sample_path_block is the block entry point: it draws each index's normals
from that index's own stream, then applies the plan's transform to a chunk of
samples at once (one FFT call per chunk in the circulant route).  Every step
of the transform is elementwise, a per-row FFT or a per-sample product, so a
block draw is bit-identical to per-sample draw_increments calls whatever the
block or chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import cho_factor, cho_solve, cholesky


class ConditioningError(RuntimeError):
    """Raised when a covariance Gram matrix is numerically singular."""


@dataclass(frozen=True)
class CovarianceModel:
    """Increment-variance specification of a stationary-increment Gaussian model.

    kind is one of 'brownian', 'fbm' (needs hurst in (1/3, 1/2]) or
    'custom_sigma2' (needs a tau -> sigma2 table, cubic-interpolated, and an
    explicit variation order rho in [1, 1.5)).
    """

    kind: str
    dim: int = 1
    horizon: float = 1.0
    hurst: float | None = None
    sigma2_taus: np.ndarray | None = None
    sigma2_values: np.ndarray | None = None
    custom_rho: float | None = None
    _spline: CubicSpline | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.kind == "brownian":
            pass
        elif self.kind == "fbm":
            h = self.hurst
            if h is None or not (1.0 / 3.0 < h <= 0.5):
                raise ValueError(f"fbm needs hurst in (1/3, 1/2], got {h}")
        elif self.kind == "custom_sigma2":
            taus = np.asarray(self.sigma2_taus, dtype=float)
            vals = np.asarray(self.sigma2_values, dtype=float)
            if taus.ndim != 1 or taus.shape != vals.shape or taus.size < 4:
                raise ValueError("custom_sigma2 needs matching tau/value tables, >= 4 points")
            if taus[0] != 0.0 or vals[0] != 0.0:
                raise ValueError("sigma2 table must start at sigma2(0) = 0")
            if not np.all(np.diff(taus) > 0):
                raise ValueError("sigma2 taus must be strictly increasing")
            if np.any(vals[1:] <= 0):
                raise ValueError("sigma2 must be positive for tau > 0")
            if taus[-1] < self.horizon:
                raise ValueError("sigma2 table must cover the horizon")
            rho = self.custom_rho
            if rho is None or not (1.0 <= rho < 1.5):
                raise ValueError(f"custom_sigma2 needs rho in [1, 1.5), got {rho}")
            object.__setattr__(self, "sigma2_taus", taus)
            object.__setattr__(self, "sigma2_values", vals)
            object.__setattr__(self, "_spline", CubicSpline(taus, vals))
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def rho(self) -> float:
        """Variation order of the covariance: 1 for Brownian, 1/(2H) for fbm."""
        if self.kind == "brownian":
            return 1.0
        if self.kind == "fbm":
            return 1.0 / (2.0 * self.hurst)
        return float(self.custom_rho)

    def sigma2(self, tau):
        """Increment variance sigma2(tau), vectorized over tau >= 0."""
        tau = np.abs(np.asarray(tau, dtype=float))
        if self.kind == "brownian":
            return tau
        if self.kind == "fbm":
            return tau ** (2.0 * self.hurst)
        out = self._spline(tau)
        return np.where(tau == 0.0, 0.0, out)

    def describe(self) -> str:
        if self.kind == "fbm":
            return f"fbm(H={self.hurst:g}, d={self.dim})"
        if self.kind == "custom_sigma2":
            return f"custom_sigma2(rho={self.custom_rho:g}, d={self.dim})"
        return f"brownian(d={self.dim})"


def brownian_model(dim: int = 1, horizon: float = 1.0) -> CovarianceModel:
    return CovarianceModel("brownian", dim=dim, horizon=horizon)


def fbm_model(hurst: float, dim: int = 1, horizon: float = 1.0) -> CovarianceModel:
    return CovarianceModel("fbm", dim=dim, horizon=horizon, hurst=hurst)


def custom_model(taus, values, rho: float, dim: int = 1, horizon: float = 1.0) -> CovarianceModel:
    return CovarianceModel(
        "custom_sigma2",
        dim=dim,
        horizon=horizon,
        sigma2_taus=np.asarray(taus, dtype=float),
        sigma2_values=np.asarray(values, dtype=float),
        custom_rho=rho,
    )


def covariance(model: CovarianceModel, s: float, t: float) -> float:
    """Per-component covariance E[W_s W_t] from the increment variance."""
    for u in (s, t):
        if not (0.0 <= u <= model.horizon + 1e-12):
            raise ValueError(f"time {u} outside [0, {model.horizon}]")
    return float(0.5 * (model.sigma2(s) + model.sigma2(t) - model.sigma2(abs(t - s))))


def rectangle_covariance(model: CovarianceModel, u1, u2, v1, v2):
    """E[(W_{u2}-W_{u1})(W_{v2}-W_{v1})] per component, vectorized."""
    s2 = model.sigma2
    return 0.5 * (s2(np.abs(u1 - v2)) + s2(np.abs(u2 - v1))
                  - s2(np.abs(u2 - v2)) - s2(np.abs(u1 - v1)))


# ---------------------------------------------------------------------------
# Exact samplers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathSample:
    """One simulated path with its seed provenance."""

    times: np.ndarray
    values: np.ndarray
    master_seed: int
    index: int


class SamplerPlan:
    """Precomputed sampling transform for one (model, grid) pair.

    The plan is chosen deterministically from the model and grid alone, so a
    fixed (master_seed, index) yields a bit-identical path regardless of how
    samples are batched over workers.
    """

    def __init__(self, model: CovarianceModel, times, method: str = "auto"):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2 or not np.all(np.diff(times) > 0):
            raise ValueError("grid must be a strictly increasing time vector")
        if times[0] != 0.0:
            raise ValueError("grid must start at 0")
        if times[-1] > model.horizon + 1e-12:
            raise ValueError("grid exceeds the model horizon")
        self.model = model
        self.times = times
        self.n_steps = times.size - 1
        dt = np.diff(times)
        uniform = bool(np.allclose(dt, dt[0], rtol=0.0, atol=1e-12 * times[-1]))
        self.note = ""

        if method == "auto":
            if model.kind == "brownian":
                method = "iid"
            elif uniform:
                method = "circulant"
            else:
                method = "cholesky"
        if method == "iid" and model.kind != "brownian":
            raise ValueError("iid increments are exact for the Brownian model only")
        if method == "circulant" and not uniform:
            raise ValueError("circulant embedding needs a uniform grid")

        if method == "circulant":
            lam = self._embedding_eigenvalues(dt[0])
            if lam.min() < -1e-8 * max(lam.max(), 1.0):
                # Indefinite embedding: report and fall back to the dense route.
                self.note = (
                    f"circulant embedding indefinite (min eigenvalue {lam.min():.3e}); "
                    "fell back to Cholesky"
                )
                method = "cholesky"
            else:
                self._sqrt_lam = np.sqrt(np.maximum(lam, 0.0))

        if method == "iid":
            self._sqrt_dt = np.sqrt(dt)
        elif method == "cholesky":
            gram = rectangle_covariance(
                self.model,
                times[:-1][:, None], times[1:][:, None],
                times[:-1][None, :], times[1:][None, :],
            )
            try:
                self._chol = cholesky(gram, lower=True)
            except np.linalg.LinAlgError as exc:
                raise ConditioningError(
                    "increment covariance is not positive definite at this grid; "
                    "coarsen the grid or adjust the sigma2 table"
                ) from exc
        self.method = method
        # Fixed per-sample draw layout: two normals per circulant frequency
        # and component, otherwise one per step and component.
        if method == "circulant":
            self._normal_shape = (model.dim, 2 * self.n_steps)
        else:
            self._normal_shape = (self.n_steps, model.dim)

    def _embedding_eigenvalues(self, dt: float) -> np.ndarray:
        n = self.n_steps
        k = np.arange(n + 1)
        s2 = self.model.sigma2(k * dt)
        gamma = np.empty(n + 1)
        gamma[0] = s2[1]
        # increment autocovariance: gamma(k) = (s2(k+1) - 2 s2(k) + s2(k-1)) / 2
        kk = np.arange(1, n + 1)
        gamma[1:] = 0.5 * (
            self.model.sigma2((kk + 1) * dt) - 2.0 * s2[1:] + self.model.sigma2((kk - 1) * dt)
        )
        emb = np.concatenate([gamma, gamma[-2:0:-1]])
        return np.fft.fft(emb).real

    def draw_increments(self, rng: np.random.Generator) -> np.ndarray:
        """One sample's increments, shape (N, d).  Consumes a fixed draw layout."""
        out = np.empty((1, self.n_steps, self.model.dim))
        self._transform(rng.standard_normal(self._normal_shape)[None], out)
        return out[0]

    def _transform(self, z: np.ndarray, out: np.ndarray) -> None:
        """Map stacked normals z, shape (k,) + draw layout, to increments in out (k, N, d).

        Each sample's result depends on its own normals only and is the same
        for any k.
        """
        n = self.n_steps
        if self.method == "iid":
            np.multiply(z, self._sqrt_dt[:, None], out=out)
            return
        if self.method == "cholesky":
            for k in range(z.shape[0]):
                out[k] = self._chol @ z[k]
            return
        m = 2 * n
        sq = self._sqrt_lam
        half = np.sqrt(0.5)
        # Hermitian spectrum per (sample, component) row, so the FFT is real.
        w = np.empty(z.shape[:-1] + (m,), dtype=complex)
        w[..., 0] = sq[0] * z[..., 0]
        w[..., n] = sq[n] * z[..., 1]
        w[..., 1:n] = sq[1:n] * half * (z[..., 2:m:2] + 1j * z[..., 3:m:2])
        w[..., n + 1 :] = np.conj(w[..., n - 1 : 0 : -1])
        w = np.fft.fft(w, axis=-1)
        np.divide(np.swapaxes(w.real[..., :n], -1, -2), np.sqrt(m), out=out)


# Samples per transform call in sample_path_block (one FFT call in the
# circulant route).  Larger chunks amortise numpy's per-call cost; 32 keeps
# each complex work buffer near 2 MB at N=1024, d=2, so peak memory stays flat
# in the block size.
_DRAW_CHUNK = 32


def sample_rng(master_seed: int, index: int) -> np.random.Generator:
    """Per-sample generator; the (master_seed, index) pair is the whole seed."""
    return np.random.default_rng((int(master_seed), int(index)))


def sample_path_block(plan: SamplerPlan, master_seed: int, start: int, stop: int) -> np.ndarray:
    """Paths for sample indices [start, stop): values (stop-start, N+1, d) from 0.

    Row k is bit-identical to the cumulative sum of
    plan.draw_increments(sample_rng(master_seed, start + k)).
    """
    nb = stop - start
    values = np.zeros((nb, plan.n_steps + 1, plan.model.dim))
    inc = values[:, 1:]
    for lo in range(0, nb, _DRAW_CHUNK):
        hi = min(lo + _DRAW_CHUNK, nb)
        z = np.empty((hi - lo,) + plan._normal_shape)
        for k in range(lo, hi):
            sample_rng(master_seed, start + k).standard_normal(out=z[k - lo])
        plan._transform(z, inc[lo:hi])
    np.cumsum(inc, axis=1, out=inc)
    return values


def simulate_paths(model: CovarianceModel, times, n: int, master_seed: int,
                   method: str = "auto"):
    """Yield n exact PathSamples on the grid, one per sample index."""
    plan = SamplerPlan(model, times, method=method)
    for start in range(0, n, _DRAW_CHUNK):
        values = sample_path_block(plan, master_seed, start, min(start + _DRAW_CHUNK, n))
        for k, row in enumerate(values):
            yield PathSample(plan.times, row, int(master_seed), start + k)


# ---------------------------------------------------------------------------
# Covariance regularity audits
# ---------------------------------------------------------------------------


def rho_variation_audit(model: CovarianceModel, interval=(0.0, 1.0), mesh_levels: int = 6) -> dict:
    """Two-parameter rho-variation of the covariance over [s,t]^2 on dyadic meshes.

    Refines the partition dyadically and reports the (monotone) estimate
    sequence; the fitted constant is the largest estimate / |t-s|^{1/rho}
    ratio over the tested dyadic subintervals.
    """
    s, t = float(interval[0]), float(interval[1])
    if not (0.0 <= s < t <= model.horizon + 1e-12):
        raise ValueError(f"interval {interval} outside [0, {model.horizon}]")
    rho = model.rho

    def estimate(a, b, levels):
        seq = []
        for level in range(1, levels + 1):
            edges = np.linspace(a, b, 2**level + 1)
            r = rectangle_covariance(
                model,
                edges[:-1][:, None], edges[1:][:, None],
                edges[:-1][None, :], edges[1:][None, :],
            )
            seq.append(float((np.abs(r) ** rho).sum() ** (1.0 / rho)))
        return seq

    refinement = estimate(s, t, mesh_levels)
    est = refinement[-1]

    fitted_m = 0.0
    sub_depth = min(3, mesh_levels - 1)
    for level in range(0, sub_depth + 1):
        edges = np.linspace(s, t, 2**level + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            sub = estimate(a, b, mesh_levels - level)[-1]
            fitted_m = max(fitted_m, sub / (b - a) ** (1.0 / rho))

    return {
        "interval": (s, t),
        "rho": rho,
        "refinement": refinement,
        "estimate": est,
        "fitted_M": fitted_m,
    }


def _third_derivative_bound(model: CovarianceModel, taus: np.ndarray) -> float:
    """sup |sigma2'''(tau)| tau^{3 - 1/rho} on the grid; closed forms when known."""
    inv_rho = 1.0 / model.rho
    if model.kind == "brownian":
        return 0.0
    if model.kind == "fbm":
        h2 = 2.0 * model.hurst
        # monomial tau^{2H}: third derivative 2H(2H-1)(2H-2) tau^{2H-3},
        # and tau^{3-1/rho} = tau^{3-2H} cancels the power exactly
        return abs(h2 * (h2 - 1.0) * (h2 - 2.0))
    d3 = model._spline.derivative(3)(taus)
    return float(np.max(np.abs(d3) * taus ** (3.0 - inv_rho)))


def sigma_conditions_audit(model: CovarianceModel, h_window: float = 1.0,
                           n_grid: int = 512) -> dict:
    """Report the small-scale conditions the small-ball machinery leans on.

    Checks, on tau in (0, h]: power envelope c1 tau^{1/rho} <= sigma2 <=
    c2 tau^{1/rho}; doubling sigma2(2 tau) <= C2 sigma2(tau) with C2 < 4;
    the combined envelope ratio c2 2^{1/rho} / c1 < 4; the scaled third
    derivative bound; and convexity of sigma2 on the window.  Report only;
    a model can fail a condition and still be simulated.
    """
    h = float(h_window)
    if not (0.0 < h <= model.horizon + 1e-12):
        raise ValueError(f"h_window {h} outside (0, {model.horizon}]")
    inv_rho = 1.0 / model.rho
    taus = h * np.arange(1, n_grid + 1) / n_grid
    s2 = model.sigma2(taus)
    ratios = s2 / taus**inv_rho
    c1, c2 = float(ratios.min()), float(ratios.max())

    half = taus[taus <= h / 2.0 + 1e-15]
    doubling = float(np.max(model.sigma2(2.0 * half) / model.sigma2(half)))
    envelope_ratio = c2 * 2.0**inv_rho / c1

    if model.kind == "brownian":
        second = np.zeros_like(taus)
    elif model.kind == "fbm":
        h2 = 2.0 * model.hurst
        second = h2 * (h2 - 1.0) * taus ** (h2 - 2.0)
    else:
        second = model._spline.derivative(2)(taus)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(second))))
    if np.all(np.abs(second) <= tol):
        convexity = "affine"
    elif np.all(second >= -tol):
        convexity = "convex"
    elif np.all(second <= tol):
        convexity = "concave"
    else:
        convexity = "mixed"

    notes = []
    if convexity == "concave":
        notes.append(
            "sigma2 is concave on the window; the two-sided envelope theorem "
            "assumes a convex envelope, so only the one-sided conclusions apply"
        )
    if model.kind == "fbm" and model.hurst < 0.5:
        notes.append("power model tau^(2H) with H < 1/2")

    return {
        "window": h,
        "rho": model.rho,
        "c1": c1,
        "c2": c2,
        "doubling_C2": doubling,
        "doubling_pass": doubling < 4.0,
        "envelope_ratio": envelope_ratio,
        "envelope_pass": envelope_ratio < 4.0,
        "C3": _third_derivative_bound(model, taus),
        "convexity": convexity,
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# Schauder coefficients and wavelet variances
# ---------------------------------------------------------------------------


def _grid_value(times: np.ndarray, values: np.ndarray, t: float) -> np.ndarray:
    idx = np.searchsorted(times, t)
    for j in (idx - 1, idx, idx + 1):
        if 0 <= j < times.size and abs(times[j] - t) <= 1e-9 * max(1.0, abs(t)):
            return values[j]
    raise ValueError(f"grid does not resolve dyadic time {t}")


def schauder_coefficient(sample, p: int, m: int) -> np.ndarray:
    """Schauder (Ciesielski) coefficient of one path: the normalized difference
    of the two half-increments of dyadic interval (p, m).  Returns one value
    per component."""
    times = np.asarray(sample.times, dtype=float)
    values = np.asarray(sample.values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if not (p >= 0 and 1 <= m <= 2**p):
        raise ValueError(f"need p >= 0 and 1 <= m <= 2^p, got (p, m) = ({p}, {m})")
    horizon = times[-1]
    left = horizon * (m - 1) / 2**p
    mid = horizon * (2 * m - 1) / 2 ** (p + 1)
    right = horizon * m / 2**p
    w_l = _grid_value(times, values, left)
    w_m = _grid_value(times, values, mid)
    w_r = _grid_value(times, values, right)
    return 2.0 ** (p / 2.0) * ((w_m - w_l) - (w_r - w_m))


def wavelet_variance(model: CovarianceModel, p: int) -> float:
    """Exact variance of the level-p Schauder coefficients (horizon-1 scale):
    2^p (4 sigma2(2^{-p-1}) - sigma2(2^{-p}))."""
    if 2.0 ** (-p - 1) > model.horizon:
        raise ValueError(f"level {p} is coarser than the model horizon")
    return float(2.0**p * (4.0 * model.sigma2(2.0 ** (-p - 1)) - model.sigma2(2.0**-p)))


def wavelet_covariance(model: CovarianceModel, p: int, m1: int, m2: int) -> float:
    """Exact covariance of two same-level Schauder coefficients.

    For distinct indices this is a five-point second difference of sigma2 at
    half-integer offsets; it vanishes identically for Brownian motion.
    """
    if m1 == m2:
        return wavelet_variance(model, p)
    dm = abs(m1 - m2)
    s2 = model.sigma2
    scale = 2.0**-p
    val = (
        s2((dm - 1.0) * scale)
        - 4.0 * s2((dm - 0.5) * scale)
        + 6.0 * s2(dm * scale)
        - 4.0 * s2((dm + 0.5) * scale)
        + s2((dm + 1.0) * scale)
    )
    return float(-(2.0**p) * val / 2.0)


def wavelet_correlation(model: CovarianceModel, p: int, m1: int, m2: int) -> dict:
    """Normalized cross-correlation of two Schauder coefficients, with the
    polynomial decay target (|m1-m2| - 1)^{1/rho - 3} it should sit under."""
    corr = wavelet_covariance(model, p, m1, m2) / wavelet_variance(model, p)
    dm = abs(m1 - m2)
    target = float("inf") if dm <= 1 else float(dm - 1.0) ** (1.0 / model.rho - 3.0)
    return {"correlation": float(corr), "decay_target": target, "separation": dm}


# ---------------------------------------------------------------------------
# Cameron-Martin norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CameronMartinNorm:
    norm: float
    rate: float  # large-deviation rate: half the squared norm


def cameron_martin_norm(model: CovarianceModel, h) -> CameronMartinNorm:
    """Grid projection of the reproducing-kernel norm of a drift path.

    Solves the Gram system of the covariance at the interior grid points, one
    component at a time, and sums squares across components.  For Brownian
    motion this reproduces the piecewise-linear energy integral |h'|^2 exactly.
    Grid refinement can only grow the value (projections onto nested spans).
    """
    times = np.asarray(h.times, dtype=float)
    values = np.asarray(h.values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if np.any(np.abs(values[0]) > 0.0):
        raise ValueError("drift path must start at the origin")
    interior = times[1:]
    gram = np.empty((interior.size, interior.size))
    s2 = model.sigma2
    gram[:] = 0.5 * (
        s2(interior)[:, None] + s2(interior)[None, :]
        - s2(np.abs(interior[:, None] - interior[None, :]))
    )
    try:
        factor = cho_factor(gram)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            "covariance Gram matrix is numerically singular at this grid; "
            "coarsen the grid (fewer interior points) and retry"
        ) from exc
    sq = 0.0
    for c in range(values.shape[1]):
        hv = values[1:, c]
        sq += float(hv @ cho_solve(factor, hv))
    if sq < 0.0:
        sq = 0.0
    norm = float(np.sqrt(sq))
    return CameronMartinNorm(norm=norm, rate=0.5 * sq)
