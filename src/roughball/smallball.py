"""Small-ball probability curves for path-level and lifted Hölder norms.

The estimator simulates Gaussian paths, lifts each to its step-2 signature,
evaluates one homogeneous Hölder norm per sample, and converts the sorted norm
sample into a probability curve: p_hat(eps) is the rank of eps among the
norms divided by the sample count, so an entire eps grid costs a single pass.

The dyadic norm family admits a further trick: on a dyadic grid the pair
family groups into levels of constant time span, so storing one maximum per
level per sample lets the same simulation serve every Hölder exponent.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf, gammainc
from scipy.stats import norm as _normal

from .algebra import DEFAULT_NORM_VARIANT, _resolve_variant
from .gaussian import CovarianceModel, SamplerPlan, sample_path_block
from .paths import (
    _chunk_bounds,
    _component_norms,
    _component_prefix,
    _dyadic_pairs,
    _gathered_increments,
    _lemma_depths,
    _lemma_terms,
    all_pair_indices,
    dyadic_level_maxima,
)

NORM_KINDS = (
    "path_holder",
    "rough_holder_allpairs",
    "rough_holder_dyadic",
    "rough_holder_lemma_bound",
)

_Z95 = _normal.ppf(0.975)


# ---------------------------------------------------------------------------
# Finite-dimensional closed forms and erf bounds
# ---------------------------------------------------------------------------


def rd_gaussian_small_ball(d: int, eps, norm: str = "l2"):
    """P[|Z| < eps] for a standard Gaussian vector in dimension d.

    l2 uses the chi-square CDF, linf the product of coordinate CDFs.
    Vectorized over eps.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise ValueError("eps must be positive")
    if norm == "l2":
        out = gammainc(d / 2.0, eps**2 / 2.0)
    elif norm == "linf":
        out = erf(eps / np.sqrt(2.0)) ** d
    else:
        raise ValueError(f"norm must be 'l2' or 'linf', got {norm!r}")
    return float(out) if out.ndim == 0 else out


def erf_lower_bounds(s: float, t: float) -> dict:
    """Evaluate the two elementary erf lower bounds used in small-ball proofs.

    The linear bound erf(t/sqrt 2) >= t/2 is valid on t in [0, 1].  The double
    exponential bound controls the scaled value erf(s t/sqrt 2) for s > 0 and
    t >= 1.  Each applicable bound is checked and a violation (there should
    never be one) is flagged.
    """
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    value = float(erf(t / np.sqrt(2.0)))
    value_scaled = float(erf(s * t / np.sqrt(2.0)))
    bound_small = 0.5 * t if t <= 1.0 else None
    bound_large = None
    if t >= 1.0:
        bound_large = float(np.exp(-np.exp(-((s * t) ** 2) / 2.0) / (1.0 - np.exp(-(s**2) / 2.0))))
    violations = []
    if bound_small is not None and value < bound_small - 1e-15:
        violations.append("small")
    if bound_large is not None and value_scaled < bound_large - 1e-15:
        violations.append("large")
    return {
        "erf_value": value,
        "erf_value_scaled": value_scaled,
        "bound_small": bound_small,
        "bound_large": bound_large,
        "violations": violations,
    }


def erf_bound_scan(n_s: int = 100, n_t: int = 100, s_max: float = 5.0, t_max: float = 6.0) -> dict:
    """Sweep the erf lower bounds over an (s, t) grid and count violations."""
    total = 0
    bad = 0
    worst = np.inf
    for s in np.linspace(0.05, s_max, n_s):
        for t in np.linspace(0.0, t_max, n_t):
            rep = erf_lower_bounds(s, t)
            total += 1
            bad += len(rep["violations"])
            if rep["bound_small"] is not None:
                worst = min(worst, rep["erf_value"] - rep["bound_small"])
            if rep["bound_large"] is not None:
                worst = min(worst, rep["erf_value_scaled"] - rep["bound_large"])
    return {"points": total, "violations": bad, "min_margin": worst}


def predicted_sbp_index(rho: float, alpha: float) -> float:
    """Theoretical small-ball index 1 / (1/(2 rho) - alpha) for rough norms."""
    limit = 1.0 / (2.0 * rho)
    if alpha >= limit:
        raise ValueError(f"alpha must lie below 1/(2 rho) = {limit:g}, got {alpha}")
    return 1.0 / (limit - alpha)


# ---------------------------------------------------------------------------
# Curve container
# ---------------------------------------------------------------------------


def wilson_interval(k: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need n > 0")
    p = k / n
    denom = 1.0 + z**2 / n
    center = (p + z**2 / (2.0 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z**2 / (4.0 * n**2)) / denom
    lo = 0.0 if k == 0 else float(max(0.0, center - half))
    hi = 1.0 if k == n else float(min(1.0, center + half))
    return lo, hi


@dataclass(frozen=True)
class SBPCurve:
    """Monte-Carlo small-ball curve: p_hat(eps) with Wilson intervals."""

    alpha: float
    norm_kind: str
    eps: np.ndarray
    p_hat: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n_samples: int
    model: str
    seed: int
    resolution_floor: float | None = None
    raw_monotonicity_violations: int = 0
    flags: tuple = ()

    def __post_init__(self):
        for name in ("eps", "p_hat", "ci_low", "ci_high"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (np.all(self.p_hat >= 0.0) and np.all(self.p_hat <= 1.0)):
            raise ValueError("p_hat must lie in [0, 1]")
        if np.any(np.diff(self.eps) <= 0):
            raise ValueError("eps grid must be strictly increasing")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "norm_kind": self.norm_kind,
            "eps": self.eps.tolist(),
            "p_hat": self.p_hat.tolist(),
            "ci_low": self.ci_low.tolist(),
            "ci_high": self.ci_high.tolist(),
            "n_samples": self.n_samples,
            "model": self.model,
            "seed": self.seed,
            "resolution_floor": self.resolution_floor,
            "raw_monotonicity_violations": self.raw_monotonicity_violations,
            "flags": list(self.flags),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SBPCurve":
        data = dict(data)
        data["flags"] = tuple(data.get("flags", ()))
        return cls(**data)

    def to_csv_text(self, config_hash: str | None = None) -> str:
        buf = io.StringIO()
        if config_hash is not None:
            buf.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["eps", "p_hat", "ci_low", "ci_high", "n",
                         "norm_kind", "alpha", "model", "seed"])
        for k in range(self.eps.size):
            writer.writerow([
                repr(float(self.eps[k])), repr(float(self.p_hat[k])),
                repr(float(self.ci_low[k])), repr(float(self.ci_high[k])),
                self.n_samples, self.norm_kind, repr(float(self.alpha)),
                self.model, self.seed,
            ])
        return buf.getvalue()


def curve_from_norms(norms, eps_list, alpha: float, norm_kind: str, model: str,
                     seed: int) -> SBPCurve:
    """Build a curve from one norm sample via the sorted-rank estimator."""
    norms = np.sort(np.asarray(norms, dtype=float))
    eps = np.asarray(eps_list, dtype=float)
    if np.any(eps <= 0):
        raise ValueError("eps must be positive")
    n = norms.size
    counts = np.searchsorted(norms, eps, side="left")
    p_hat = counts / n
    ci = np.array([wilson_interval(int(k), n) for k in counts])
    flags = []
    if np.any(counts == 0):
        flags.append("resolution floor")
    violations = int(np.sum(np.diff(p_hat) < 0))
    return SBPCurve(
        alpha=alpha,
        norm_kind=norm_kind,
        eps=eps,
        p_hat=p_hat,
        ci_low=ci[:, 0],
        ci_high=ci[:, 1],
        n_samples=n,
        model=model,
        seed=seed,
        resolution_floor=float(norms[0]),
        raw_monotonicity_violations=violations,
        flags=tuple(flags),
    )


def synthetic_curve(eps_list, p_values, alpha: float = 0.0, norm_kind: str = "path_holder",
                    model: str = "synthetic", seed: int = 0, n_samples: int = 0) -> SBPCurve:
    """Wrap an exact probability function as a curve (for fits and oracles)."""
    eps = np.asarray(eps_list, dtype=float)
    p = np.asarray(p_values, dtype=float)
    ci = np.stack([p, p], axis=1)
    return SBPCurve(alpha, norm_kind, eps, p, ci[:, 0], ci[:, 1], n_samples, model, seed)


# ---------------------------------------------------------------------------
# Norm sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicNormEnsemble:
    """Per-sample, per-dyadic-level norm maxima from one simulation pass.

    Level l covers pairs spanning horizon * 2^-l, so the Hölder norm at any
    exponent is max over levels of level_max * (2^l / horizon)^alpha.  The
    path (level-1 only) maxima never exceed the rough maxima, which makes
    path-vs-rough probability domination exact per sample.
    """

    horizon: float
    n_steps: int
    rough_level_max: np.ndarray  # (n_samples, L+1)
    path_level_max: np.ndarray   # (n_samples, L+1)
    model: str
    seed: int
    variant: str = DEFAULT_NORM_VARIANT
    centred_level_max: np.ndarray | None = None  # (n_samples, L+1), distances to a centre

    @property
    def n_samples(self) -> int:
        return self.rough_level_max.shape[0]

    def _norms(self, level_max: np.ndarray, alpha: float) -> np.ndarray:
        levels = np.arange(level_max.shape[1])
        span = self.horizon * 0.5**levels
        return np.max(level_max / span**alpha, axis=1)

    def rough_norms(self, alpha: float) -> np.ndarray:
        return self._norms(self.rough_level_max, alpha)

    def path_norms(self, alpha: float) -> np.ndarray:
        return self._norms(self.path_level_max, alpha)

    def centred_norms(self, alpha: float) -> np.ndarray:
        """Hölder distances from each sample's lift to the centre's lift."""
        if self.centred_level_max is None:
            raise ValueError("ensemble was sampled without a centre")
        return self._norms(self.centred_level_max, alpha)

    def norms(self, alpha: float, norm_kind: str) -> np.ndarray:
        if norm_kind == "rough_holder_dyadic":
            return self.rough_norms(alpha)
        if norm_kind == "path_holder":
            return self.path_norms(alpha)
        raise ValueError(f"ensemble stores dyadic norms only, not {norm_kind!r}")


# Samples per work unit of sample_dyadic_level_maxima: one sampled block that
# one thread lifts and reduces (dyadic_level_maxima chunks it further).
_SAMPLE_BLOCK = 256


def sample_dyadic_level_maxima(model: CovarianceModel, n_samples: int, master_seed: int,
                               n_steps: int = 1024, variant: str = DEFAULT_NORM_VARIANT,
                               threads: int = 1,
                               centre: np.ndarray | None = None) -> DyadicNormEnsemble:
    """Simulate lifted paths and record per-level dyadic norm maxima.

    One pass serves every Hölder exponent and both the rough and the
    level-1-only norm families, and with a centre path (N+1, d) the distances
    to its lift.  Work is blocked over samples; per-sample seeding keeps the
    result independent of the blocking, so threaded and serial runs produce
    bit-identical ensembles (blocks write disjoint rows).
    """
    if n_steps < 2 or (n_steps & (n_steps - 1)) != 0:
        raise ValueError(f"n_steps must be a power of two >= 2, got {n_steps}")
    levels = n_steps.bit_length() - 1
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    plan = SamplerPlan(model, times)
    rough = np.empty((n_samples, levels + 1))
    pathm = np.empty((n_samples, levels + 1))
    centred = None if centre is None else np.empty((n_samples, levels + 1))

    def one_block(start: int) -> None:
        stop = min(start + _SAMPLE_BLOCK, n_samples)
        values = sample_path_block(plan, master_seed, start, stop)
        rough[start:stop], pathm[start:stop], cmax = dyadic_level_maxima(
            values, variant, centre=centre)
        if centred is not None:
            centred[start:stop] = cmax

    starts = range(0, n_samples, _SAMPLE_BLOCK)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one_block, starts))
    else:
        for start in starts:
            one_block(start)
    return DyadicNormEnsemble(
        horizon=model.horizon,
        n_steps=n_steps,
        rough_level_max=rough,
        path_level_max=pathm,
        model=model.describe(),
        seed=int(master_seed),
        variant=variant,
        centred_level_max=centred,
    )


def _sample_pair_norms(model: CovarianceModel, n_samples: int, master_seed: int,
                       times: np.ndarray, i_idx: np.ndarray, j_idx: np.ndarray,
                       variant: str, reduce) -> np.ndarray:
    """Simulate paths one kernel chunk at a time and reduce each path's
    homogeneous norms over the pair family (i_idx, j_idx), a (chunk, K)
    array, to one value per path."""
    v = _resolve_variant(variant)
    plan = SamplerPlan(model, times)
    d = model.dim
    out = np.empty(n_samples)
    for lo, hi in _chunk_bounds(n_samples, len(i_idx) * (d + d * d)):
        values = sample_path_block(plan, master_seed, lo, hi)
        b, c = _gathered_increments(*_component_prefix(values), i_idx, j_idx)
        out[lo:hi] = reduce(_component_norms(b, c, v)[0])
    return out


def sample_allpairs_norms(model: CovarianceModel, alpha: float, n_samples: int,
                          master_seed: int, n_steps: int = 256,
                          variant: str = DEFAULT_NORM_VARIANT) -> np.ndarray:
    """All-pairs rough Hölder norms (grid-bias bracket for the dyadic family)."""
    if n_steps > 512:
        raise ValueError("all-pairs norms are supported at n_steps <= 512")
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    i_idx, j_idx = all_pair_indices(n_steps + 1)
    span = (times[j_idx] - times[i_idx]) ** alpha
    return _sample_pair_norms(model, n_samples, master_seed, times, i_idx, j_idx, variant,
                              lambda norms: (norms / span).max(axis=-1))


def sample_lemma_bound_norms(model: CovarianceModel, alpha: float, n_samples: int,
                             master_seed: int, n_steps: int = 1024,
                             bound_scale: float | None = None,
                             variant: str = DEFAULT_NORM_VARIANT) -> np.ndarray:
    """Per-sample values of the dyadic-decomposition Hölder bound.

    The bound dominates the dyadic norm pathwise, so its curve sits below the
    dyadic curve.  bound_scale is the truncation scale (default 4 grid steps).
    Each value equals paths.dyadic_holder_bound(...).value of the sample's lift.
    """
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    if bound_scale is None:
        bound_scale = 4.0 * model.horizon / n_steps
    e = _lemma_depths(times, alpha, bound_scale)[1]
    return _sample_pair_norms(model, n_samples, master_seed, times,
                              *_dyadic_pairs(n_steps)[:2], variant,
                              lambda norms: np.maximum(*_lemma_terms(norms, alpha,
                                                                     bound_scale, e)))


def _check_alpha(model: CovarianceModel, alpha: float, norm_kind: str) -> None:
    if norm_kind == "path_holder":
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1] for path norms, got {alpha}")
        return
    upper = 1.0 / (2.0 * model.rho)
    if not (1.0 / 3.0 < alpha < upper):
        raise ValueError(f"alpha must lie in (1/3, {upper:g}), got {alpha}")


def estimate_sbp_curve(model: CovarianceModel, alpha: float, norm_kind: str, eps_list,
                       n_samples: int, master_seed: int, n_steps: int = 1024,
                       variant: str = DEFAULT_NORM_VARIANT, threads: int = 1) -> SBPCurve:
    """Simulate, lift, take norms, and return the small-ball curve."""
    if norm_kind not in NORM_KINDS:
        raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {norm_kind!r}")
    _check_alpha(model, alpha, norm_kind)
    if norm_kind in ("rough_holder_dyadic", "path_holder"):
        ens = sample_dyadic_level_maxima(model, n_samples, master_seed, n_steps, variant,
                                         threads=threads)
        norms = ens.norms(alpha, norm_kind)
    elif norm_kind == "rough_holder_allpairs":
        norms = sample_allpairs_norms(model, alpha, n_samples, master_seed,
                                      min(n_steps, 256), variant)
    else:
        norms = sample_lemma_bound_norms(model, alpha, n_samples, master_seed, n_steps,
                                         variant=variant)
    return curve_from_norms(norms, eps_list, alpha, norm_kind, model.describe(),
                            master_seed)


# ---------------------------------------------------------------------------
# Index fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexFit:
    """Power-law index of -log p: slope of log(-log p) against log(1/eps)."""

    index: float
    window: tuple[float, float]
    r2: float
    n_points: int
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "window": list(self.window),
            "r2": self.r2,
            "n_points": self.n_points,
            "diagnostics": self.diagnostics,
        }


def fit_variation_index(curve: SBPCurve, window: tuple[float, float] | None = None) -> IndexFit:
    """Fit -log p ~ eps^-a on the usable part of the curve.

    Points with p_hat at 0 or 1 carry no slope information and are dropped;
    the fit needs at least 4 surviving points.  Diagnostics include the slope
    of -log p itself (the relevant number in logarithmic small-ball regimes),
    split-window slopes, and a curvature-based slowly-varying flag.
    """
    eps = curve.eps
    p = curve.p_hat
    mask = (p > 0.0) & (p < 1.0)
    if window is not None:
        lo, hi = window
        mask &= (eps >= lo) & (eps <= hi)
    if int(mask.sum()) < 4:
        raise ValueError("need at least 4 curve points with 0 < p_hat < 1 in the window")
    x = np.log(1.0 / eps[mask])
    neg_log_p = -np.log(p[mask])
    y = np.log(neg_log_p)
    order = np.argsort(x)
    x, y, neg_log_p = x[order], y[order], neg_log_p[order]

    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0

    half = x.size // 2
    slope_large_eps = float(np.polyfit(x[:half], y[:half], 1)[0]) if half >= 2 else slope
    slope_small_eps = float(np.polyfit(x[half:], y[half:], 1)[0]) if x.size - half >= 2 else slope
    curvature = float(np.polyfit(x, y, 2)[0]) if x.size >= 5 else 0.0
    log_slope = float(np.polyfit(x, neg_log_p, 1)[0])

    diagnostics = {
        "raw_slope": float(slope),
        "log_slope": log_slope,
        "slope_large_eps_half": slope_large_eps,
        "slope_small_eps_half": slope_small_eps,
        "slope_drift": slope_large_eps - slope_small_eps,
        "residual_curvature": curvature,
        "slowly_varying": bool(abs(curvature) > 5e-3),
        "resolution_floor": curve.resolution_floor,
    }
    return IndexFit(
        index=max(float(slope), 0.0),
        window=(float(eps[mask].min()), float(eps[mask].max())),
        r2=r2,
        n_points=int(mask.sum()),
        diagnostics=diagnostics,
    )
