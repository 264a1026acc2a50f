"""Monte-Carlo and quadrature checks of Gaussian correlation inequalities.

Every check states a claim of the form lhs >= rhs, estimates both sides on
common random numbers where possible, and reports the margin in pooled
standard errors.  Verdicts: 'holds' (nonnegative margin), 'holds_within_noise'
(negative but within 4 pooled SEs), 'violated' (beyond 4 SEs), and
'inconclusive' (the data cannot resolve the claim, e.g. both probabilities at
the Monte-Carlo resolution floor, or a one-sided estimator with known slack).

Two builders make every report but the paired ones (anderson,
cameron_martin): ``_exact_report`` for a claim whose sides are both exact
(sidak quadrature, the Borell half-space) and ``_proportion_report`` for a
Monte-Carlo proportion hits / n against an exact right side, with a Wilson
interval and a binomial standard error unless the check supplies its own.
Normal probabilities come from ``scipy.special`` (``ndtr``, ``ndtri``),
imported by the functions that call them so that importing this module
loads no scipy.

Reports are data objects with a ``to_dict`` form; the runner formats and
writes the report artifacts.  Each check's argument rules live in one
function, ``_<check>_args``, which the check calls before it samples and
``config.resolve_checks`` calls on a config's check entries; it raises
ValueError('<argument>: <rule>'), naming each argument by its config key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .algebra import DEFAULT_NORM_VARIANT
from .gaussian import (
    CovarianceModel,
    SamplerPlan,
    _cm_gram_factor,
    _cm_norm_from_factor,
    cameron_martin_norm,
    map_sample_blocks,
    sample_rng,
)
from .paths import CMPath, _at_least, _positive, _power_of_two, dyadic_level_maxima
from .smallball import _check_alpha, sample_dyadic_level_maxima, wilson_interval

VERDICTS = ("holds", "holds_within_noise", "violated", "inconclusive")

@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality check (claim: lhs >= rhs)."""

    name: str
    lhs: float
    lhs_ci: tuple[float, float]
    rhs: float
    rhs_ci: tuple[float, float]
    margin: float
    margin_se: float | None  # pooled SE of the margin; None when deterministic
    verdict: str
    config: dict = field(default_factory=dict)
    notes: tuple = ()
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}, got {self.verdict!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "lhs_ci": list(self.lhs_ci),
            "rhs": self.rhs,
            "rhs_ci": list(self.rhs_ci),
            "margin": self.margin,
            "margin_se": self.margin_se,
            "verdict": self.verdict,
            "config": self.config,
            "notes": list(self.notes),
            "extras": self.extras,
        }


def _verdict(margin: float, pooled_se: float | None, det_tol: float = 1e-10) -> str:
    if pooled_se is None or pooled_se == 0.0:
        return "holds" if margin >= -det_tol else "violated"
    if margin >= 0.0:
        return "holds"
    if margin >= -4.0 * pooled_se:
        return "holds_within_noise"
    return "violated"


def _exact_report(name, lhs, rhs, config, notes=(), extras=None) -> InequalityReport:
    """Report for a claim lhs >= rhs whose two sides are computed exactly."""
    margin = lhs - rhs
    return InequalityReport(
        name=name, lhs=lhs, lhs_ci=(lhs, lhs), rhs=rhs, rhs_ci=(rhs, rhs),
        margin=margin, margin_se=None, verdict=_verdict(margin, None),
        config=config, notes=tuple(notes), extras=extras or {},
    )


def _proportion_report(name, hits, n, rhs, config, se=None, notes=(),
                       extras=None) -> InequalityReport:
    """Report for a claim P[event] >= rhs with P estimated by hits / n.

    The right side is exact.  se defaults to the binomial standard error,
    floored away from zero so that a proportion of 0 or 1 is not read as exact.
    """
    lhs = hits / n
    if se is None:
        se = float(np.sqrt(max(lhs * (1.0 - lhs), 1e-300) / n))
    margin = lhs - rhs
    return InequalityReport(
        name=name, lhs=lhs, lhs_ci=wilson_interval(hits, n), rhs=rhs, rhs_ci=(rhs, rhs),
        margin=margin, margin_se=se, verdict=_verdict(margin, se),
        config=config, notes=tuple(notes), extras=extras or {},
    )


# ---------------------------------------------------------------------------
# Argument rules: one function per check, called before anything is sampled
# ---------------------------------------------------------------------------


def _anderson_args(model, alpha, eps, n, seed, n_steps, n_low=1) -> None:
    """The rules of the checks on dyadic lifted-ball norms; the others need
    n >= n_low = 2 for a sample standard error."""
    _check_alpha(model.rho, alpha, "rough_holder_dyadic")
    _positive("eps", eps)
    _at_least(n_low, n=n)
    _at_least(0, seed=seed)
    _power_of_two(2, n_steps=n_steps)


_cameron_martin_args = partial(_anderson_args, n_low=2)


def _borell_shift_rough_args(model, alpha, eps, lam, n, seed, n_steps, n_directions) -> None:
    _anderson_args(model, alpha, eps, n, seed, n_steps, n_low=2)
    _at_least(0, lam=lam)
    _at_least(1, n_directions=n_directions)


def _borell_shift_args(dimension, set_spec, lam, n, seed) -> None:
    kind, param = set_spec
    if kind not in ("half_space", "box"):
        raise ValueError(f"set[0]: must be 'half_space' or 'box', got {kind!r}")
    if kind == "box":
        _positive("set[1]", param)
    _at_least(1, dimension=dimension, n=n)
    _at_least(0, lam=lam, seed=seed)


def _canary_violation_args(n, seed) -> None:
    _at_least(1, n=n)
    _at_least(0, seed=seed)


def _sidak_args(cov, thresholds, chaos_level, method, n, seed, forms):
    """check_sidak's arguments as (cov, thresholds, forms, p): float arrays,
    the level-2 forms (the default pair at level 2 without forms) and p, the
    size of the x block."""
    if method not in ("auto", "quadrature", "mc"):
        raise ValueError(f"method: must be 'auto', 'quadrature' or 'mc', got {method!r}")
    if chaos_level not in (1, 2):
        raise ValueError(f"chaos_level: must be 1 or 2, got {chaos_level}")
    _at_least(1, n=n)
    _at_least(0, seed=seed)
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("cov: covariance must be a square matrix")
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ValueError("cov: covariance must be symmetric")
    w = np.linalg.eigvalsh(cov)
    if w.min() < -1e-10 * max(1.0, w.max()):
        raise ValueError("cov: covariance must be positive semidefinite")
    size = cov.shape[0]
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.shape != (size,) or np.any(thresholds <= 0):
        raise ValueError(f"thresholds: expected one positive threshold per cov row ({size}), "
                         f"got {thresholds.tolist()}")
    if chaos_level == 1 and method == "quadrature" and size > 3:
        raise ValueError(f"method: quadrature supports a cov of at most 3 x 3, "
                         f"got {size} x {size}")
    if forms is None and chaos_level == 2:
        if size != 2:
            raise ValueError(f"cov: chaos level 2 without forms needs a 2 x 2 cov "
                             f"(two 1-dim blocks), got {size} x {size}")
        forms = [("bilinear", np.ones((1, 1)), float(thresholds[0])),
                 ("linear_x", np.ones(1), float(thresholds[1]))]
    p = 1
    if forms is not None:
        forms, p = _sidak_forms(forms, size)
    if chaos_level == 2 and not np.allclose(cov[:p, p:], 0.0, atol=1e-12):
        raise ValueError(f"cov: chaos level 2 needs independent blocks of sizes {p} and "
                         f"{size - p} (zero cross-covariance)")
    return cov, thresholds, forms, p


def _sidak_forms(forms, size: int) -> tuple[list, int]:
    """Forms as (kind, float coefficients, eps) triples, and p.

    The first bilinear form's p x q matrix fixes the block sizes: every
    bilinear form must be p x q, every linear_x vector of length p and every
    linear_y vector of length q, and p + q must equal the size of cov.
    """
    out = [(kind, np.asarray(c, dtype=float), eps) for kind, c, eps in forms]
    for k, (kind, coefficients, eps) in enumerate(out):
        if kind not in ("bilinear", "linear_x", "linear_y"):
            raise ValueError(f"forms[{k}][0]: must be 'bilinear', 'linear_x' or 'linear_y', "
                             f"got {kind!r}")
        if kind == "bilinear" and coefficients.ndim != 2:
            raise ValueError(f"forms[{k}][1]: a bilinear form needs a matrix, "
                             f"got shape {coefficients.shape}")
        _positive(f"forms[{k}][2]", eps)
    first = next((c for kind, c, _ in out if kind == "bilinear"), None)
    if first is None:
        raise ValueError("forms: needs at least one bilinear form")
    p, q = first.shape
    if p + q != size:
        raise ValueError(f"cov: stacked covariance size {size} must equal {p} + {q}, the "
                         "block sizes of the first bilinear form")
    shapes = {"bilinear": (p, q), "linear_x": (p,), "linear_y": (q,)}
    for k, (kind, coefficients, _) in enumerate(out):
        if coefficients.shape != shapes[kind]:
            raise ValueError(f"forms[{k}][1]: a {kind} form needs coefficients of shape "
                             f"{shapes[kind]} for blocks of sizes {p} and {q}, "
                             f"got {coefficients.shape}")
    return out, p


# ---------------------------------------------------------------------------
# Shared samplers
# ---------------------------------------------------------------------------


def _drift_values(model: CovarianceModel, h: CMPath, n_steps: int) -> np.ndarray:
    """Values (N+1, d) of a drift on the simulation grid."""
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    if h.values.shape != (n_steps + 1, model.dim) or not np.allclose(h.times, times):
        raise ValueError("center: must be a drift path on the simulation grid")
    return h.values


def _normal_blocks(n: int, dim: int, seed: int):
    """Yield n standard normal rows in (k, dim) blocks of up to 2^16, block b
    drawn from sample_rng(seed, b)."""
    for b, start in enumerate(range(0, n, 1 << 16)):
        yield sample_rng(seed, b).standard_normal((min(1 << 16, n - start), dim))


def _paired_probability_report(name, ind_lhs, ind_rhs, rhs_factor, config, notes=(),
                               extras=None) -> InequalityReport:
    """Report for a claim P[lhs event] >= factor * P[rhs event] on common samples."""
    n = ind_lhs.size
    k_l = int(ind_lhs.sum())
    k_r = int(ind_rhs.sum())
    p_l = k_l / n
    p_r = k_r / n
    diff = ind_lhs.astype(float) - rhs_factor * ind_rhs
    margin = float(diff.mean())
    se = float(diff.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    if k_l == 0 and k_r == 0:
        verdict = "inconclusive"
        notes = tuple(notes) + ("resolution floor: no hits on either side",)
    else:
        verdict = _verdict(margin, se)
    lo_r, hi_r = wilson_interval(k_r, n)
    return InequalityReport(
        name=name,
        lhs=p_l,
        lhs_ci=wilson_interval(k_l, n),
        rhs=rhs_factor * p_r,
        rhs_ci=(rhs_factor * lo_r, rhs_factor * hi_r),
        margin=margin,
        margin_se=se,
        verdict=verdict,
        config=config,
        notes=tuple(notes),
        extras=extras or {},
    )


def check_anderson(model: CovarianceModel, alpha: float, center: CMPath | None, eps: float,
                   n: int = 50000, seed: int = 0, n_steps: int = 256,
                   variant: str = DEFAULT_NORM_VARIANT) -> InequalityReport:
    """Centering can only help: P[norm < eps] >= P[distance-to-center < eps].

    Both probabilities are estimated from the same simulated lifts; with no
    center (None) the two events coincide and the margin is exactly zero.
    """
    _anderson_args(model, alpha, eps, n, seed, n_steps)
    centre = None if center is None else _drift_values(model, center, n_steps)
    ens = sample_dyadic_level_maxima(model, n, seed, n_steps, variant, centre=centre)
    origin = ens.rough_norms(alpha)
    centered = origin if centre is None else ens.centred_norms(alpha)
    config = {
        "model": model.describe(), "alpha": alpha, "eps": eps, "n": n,
        "seed": seed, "n_steps": n_steps, "variant": variant,
    }
    return _paired_probability_report(
        "anderson", origin < eps, centered < eps, 1.0, config,
        extras={"median_origin_norm": float(np.median(origin))},
    )


def check_cameron_martin(model: CovarianceModel, alpha: float, h: CMPath, eps: float,
                         n: int = 50000, seed: int = 0, n_steps: int = 256,
                         variant: str = DEFAULT_NORM_VARIANT) -> InequalityReport:
    """Shifted ball bound: P[dist-to-h < eps] >= exp(-|h|_H^2/2) P[norm < eps].

    Also evaluates the split variants P[dist-to-h < eps] >=
    exp(-|h|_H^2/2) P[norm < (1-a) eps] for a in {0, 1/4, 1/2}; the center's
    energy stands in for the inner-ball infimum, which only weakens the right
    side, so each split is a valid consequence.  Verdict comes from the
    tightest split (a=0); the others ride along in extras.  Needs n >= 2
    for the splits' standard errors.
    """
    _cameron_martin_args(model, alpha, eps, n, seed, n_steps)
    ens = sample_dyadic_level_maxima(model, n, seed, n_steps, variant,
                                     centre=_drift_values(model, h, n_steps))
    origin, centered = ens.rough_norms(alpha), ens.centred_norms(alpha)
    cm = cameron_martin_norm(model, h)
    factor = float(np.exp(-cm.rate))
    config = {
        "model": model.describe(), "alpha": alpha, "eps": eps, "n": n,
        "seed": seed, "n_steps": n_steps, "variant": variant,
        "cm_norm": cm.norm,
    }
    splits = {}
    for a in (0.0, 0.25, 0.5):
        diff = (centered < eps).astype(float) - factor * (origin < (1.0 - a) * eps)
        m = float(diff.mean())
        se = float(diff.std(ddof=1) / np.sqrt(n))
        splits[f"a={a:g}"] = {"margin": m, "margin_se": se, "verdict": _verdict(m, se)}
    report = _paired_probability_report(
        "cameron_martin", centered < eps, origin < eps, factor, config,
        extras={"splits": splits, "rate": cm.rate},
    )
    return report


# ---------------------------------------------------------------------------
# Sidak and chaos correlation checks
# ---------------------------------------------------------------------------


def _gaussian_box_probability(cov: np.ndarray, thresholds: np.ndarray,
                              nodes: int = 96) -> float:
    """P[|X_i| < eps_i for all i], X ~ N(0, cov), by tensor Gauss-Legendre."""
    d = cov.shape[0]
    x_1d, w_1d = np.polynomial.legendre.leggauss(nodes)
    axes = []
    weights = []
    for eps in thresholds:
        axes.append(x_1d * eps)       # affine map of [-1, 1] to [-eps, eps]
        weights.append(w_1d * eps)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrid = np.ones(pts.shape[0])
    shape = [nodes] * d
    for k, w in enumerate(weights):
        wk = w.reshape([-1 if i == k else 1 for i in range(d)])
        wgrid *= np.broadcast_to(wk, shape).ravel()
    prec = np.linalg.inv(cov)
    det = np.linalg.det(cov)
    quad = np.einsum("ij,jk,ik->i", pts, prec, pts)
    dens = np.exp(-0.5 * quad) / np.sqrt((2.0 * np.pi) ** d * det)
    return float(np.sum(dens * wgrid))


def _interval_probability(eps: float, sigma: float) -> float:
    from scipy.special import ndtr

    return float(2.0 * ndtr(eps / sigma) - 1.0)


def _normal_pdf(x):
    """Standard normal density, evaluated as scipy's ``norm.pdf`` evaluates it."""
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _sample_gaussian(cov: np.ndarray, n: int, seed: int):
    """Yield blocks of N(0, cov) samples with per-block seeding."""
    w, v = np.linalg.eigh(cov)
    root = v * np.sqrt(np.maximum(w, 0.0))
    for z in _normal_blocks(n, cov.shape[0], seed):
        yield z @ root.T


def check_sidak(cov_matrix, thresholds, chaos_level: int = 1, method: str = "auto",
                n: int = 200000, seed: int = 0, forms=None) -> InequalityReport:
    """Joint-vs-product correlation bound for symmetric events.

    Level 1: P[all |X_i| < eps_i] >= prod_i P[|X_i| < eps_i] for X ~ N(0, cov);
    deterministic quadrature for d <= 3, Monte Carlo otherwise.  The two-block
    split P[all] >= P[first block] P[second block] is evaluated alongside.

    Level 2: events are symmetric sets of bilinear or linear forms in two
    independent Gaussian blocks x, y (cov_matrix is the block-diagonal
    covariance of the stacked vector).  forms is a list of ("bilinear", A,
    eps), ("linear_x", a, eps), ("linear_y", b, eps); the default, for
    one-dimensional blocks, is the pair {|xy| < eps_0}, {|x| < eps_1}.
    Estimated by Monte Carlo on common samples with an influence-function
    standard error for the joint-minus-product margin.
    """
    cov, thresholds, forms, p = _sidak_args(cov_matrix, thresholds, chaos_level, method, n,
                                            seed, forms)
    if chaos_level == 1:
        return _check_sidak_level1(cov, thresholds, method, n, seed)
    return _check_sidak_level2(cov, thresholds, n, seed, forms, p)


def _check_sidak_level1(cov, thresholds, method, n, seed) -> InequalityReport:
    d = cov.shape[0]
    sigmas = np.sqrt(np.diag(cov))
    product = float(np.prod([_interval_probability(e, s) for e, s in zip(thresholds, sigmas)]))
    config = {"d": d, "thresholds": thresholds.tolist(), "chaos_level": 1, "seed": seed}

    if method == "auto":
        method = "quadrature" if d <= 3 else "mc"
    if method == "quadrature":
        joint = _gaussian_box_probability(cov, thresholds)
        split = int(np.ceil(d / 2))
        gci_rhs = 1.0
        if 0 < split < d:
            gci_rhs = (_gaussian_box_probability(cov[:split, :split], thresholds[:split])
                       * _gaussian_box_probability(cov[split:, split:], thresholds[split:]))
        return _exact_report(
            "sidak_level1", joint, product, {**config, "method": "quadrature"},
            extras={"two_block_split": {"rhs": gci_rhs, "margin": joint - gci_rhs,
                                        "verdict": _verdict(joint - gci_rhs, None)}},
        )

    hits = 0
    split = int(np.ceil(d / 2))
    hits_b1 = 0
    hits_b2 = 0
    for x in _sample_gaussian(cov, n, seed):
        inside = np.abs(x) < thresholds
        hits += int(np.all(inside, axis=1).sum())
        hits_b1 += int(np.all(inside[:, :split], axis=1).sum())
        hits_b2 += int(np.all(inside[:, split:], axis=1).sum())
    gci_rhs = (hits_b1 / n) * (hits_b2 / n)
    return _proportion_report(
        "sidak_level1", hits, n, product, {**config, "method": "mc", "n": n},
        extras={"two_block_split": {"rhs": gci_rhs, "margin": hits / n - gci_rhs}},
    )


def _check_sidak_level2(cov, thresholds, n, seed, forms, p) -> InequalityReport:
    n_events = len(forms)
    hit_each = np.zeros(n_events, dtype=np.int64)
    hit_joint = 0
    # accumulate cross moments for the influence-function SE
    sums_pair = np.zeros((n_events + 1, n_events + 1))
    for x in _sample_gaussian(cov, n, seed):
        xs, ys = x[:, :p], x[:, p:]
        ind = np.empty((x.shape[0], n_events), dtype=bool)
        for k, spec in enumerate(forms):
            kind, mat, eps = spec
            if kind == "bilinear":
                val = np.einsum("si,ij,sj->s", xs, mat, ys)
            elif kind == "linear_x":
                val = xs @ mat
            else:
                val = ys @ mat
            ind[:, k] = np.abs(val) < eps
        joint = np.all(ind, axis=1)
        hit_each += ind.sum(axis=0)
        hit_joint += int(joint.sum())
        aug = np.concatenate([ind, joint[:, None]], axis=1).astype(float)
        sums_pair += aug.T @ aug

    p_each = hit_each / n
    p_joint = hit_joint / n
    product = float(np.prod(p_each))

    # influence function of joint - prod_k p_k at one sample
    # phi = (1_joint - p_joint) - sum_k (prod_{j != k} p_j)(1_k - p_k)
    coef = np.array([product / pk if pk > 0 else 0.0 for pk in p_each])
    means = np.concatenate([p_each, [p_joint]])
    cov_ind = sums_pair / n - np.outer(means, means)
    w = np.concatenate([-coef, [1.0]])
    var_phi = float(w @ cov_ind @ w)
    se = float(np.sqrt(max(var_phi, 0.0) / n))
    config = {"chaos_level": 2, "n": n, "seed": seed, "thresholds": thresholds.tolist(),
              "forms": [f[0] for f in forms]}
    return _proportion_report("sidak_level2", hit_joint, n, product, config, se=se,
                              extras={"p_each": p_each.tolist()})


# ---------------------------------------------------------------------------
# Shifted-set (isoperimetric) checks
# ---------------------------------------------------------------------------


def check_borell_shift(dimension: int, set_spec, lam: float, n: int = 200000,
                       seed: int = 0) -> InequalityReport:
    """Gaussian isoperimetric enlargement in finite dimensions.

    set_spec is ("half_space", a) for {x_1 <= a} or ("box", r) for
    {|x|_inf <= r}; the enlargement by lam times the unit ball satisfies
    P[A + lam K] >= Phi(lam + Phi^{-1}(P[A])).  The half-space case is the
    exact equality case and is evaluated analytically; the box case compares
    a Monte-Carlo left side with the exact right side.
    """
    from scipy.special import ndtr, ndtri

    _borell_shift_args(dimension, set_spec, lam, n, seed)
    kind, param = set_spec
    config = {"dimension": dimension, "set": kind, "param": param, "lam": lam,
              "n": n, "seed": seed}
    if kind == "half_space":
        p_a = float(ndtr(param))
        return _exact_report(
            "borell_shift", float(ndtr(param + lam)), float(ndtr(lam + ndtri(p_a))), config,
            notes=("half-space is the equality case; both sides analytic",),
        )
    r = float(param)
    p_a = _interval_probability(r, 1.0) ** dimension
    hits = 0
    for x in _normal_blocks(n, dimension, seed):
        outside = np.maximum(np.abs(x) - r, 0.0)
        dist = np.sqrt(np.sum(outside**2, axis=1))
        hits += int(np.sum(dist <= lam))
    return _proportion_report("borell_shift", hits, n, float(ndtr(lam + ndtri(p_a))), config)


def _cm_mesh_directions(model: CovarianceModel, times: np.ndarray, lams,
                        n_directions: int) -> list[list[np.ndarray]]:
    """For each radius in lams, smooth drift paths on the grid with
    reproducing-kernel norm == that radius (one Gram factor, one norm each)."""
    t = times / times[-1]
    d = model.dim
    factor = _cm_gram_factor(model, times)
    normed = []
    for k in range(n_directions):
        mode = k // (2 * d)
        comp = (k // 2) % d
        use_sin = k % 2 == 0
        base = np.sin((mode + 1) * np.pi * t) * t if use_sin else t ** (mode + 1)
        vals = np.zeros((times.size, d))
        vals[:, comp] = base
        norm = _cm_norm_from_factor(factor, vals).norm
        if norm > 0:
            normed.append((vals, norm))
    return [[vals * (lam_scaled / norm) for vals, norm in normed] for lam_scaled in lams]


def check_borell_shift_rough(model: CovarianceModel, alpha: float, eps: float,
                             lam: float, n: int = 4000, seed: int = 0,
                             n_steps: int = 256, n_directions: int = 8,
                             variant: str = DEFAULT_NORM_VARIANT) -> InequalityReport:
    """One-sided enlargement check for the lifted-ball event.

    A = {norm < eps}; the enlargement of A by translations from the dilated
    lifted unit ball is sampled from below on a finite mesh of drift
    directions (each of reproducing-kernel norm <= lam), so the estimated hit
    rate under-counts.  The claim lhs >= Phi(lam + Phi^{-1}(P[A])) is
    therefore never reported violated: a negative margin beyond noise is
    'inconclusive' with a mesh-slack note.  Needs n >= 2 for the standard
    error.
    """
    from scipy.special import ndtr, ndtri

    _borell_shift_rough_args(model, alpha, eps, lam, n, seed, n_steps, n_directions)
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    plan = SamplerPlan(model, times)
    meshes = [np.zeros((n_steps + 1, model.dim))]
    lams = [lam * scale for scale in (1.0, 0.5)]
    for directions in _cm_mesh_directions(model, times, lams, n_directions):
        for vals in directions:
            meshes.append(vals)
            meshes.append(-vals)
    span_pow = (model.horizon * 0.5 ** np.arange(n_steps.bit_length())) ** alpha

    def block_inside(values):
        # translating a piecewise-linear lift by a grid drift is the lift of
        # the shifted path, so shift the values and re-lift; one row per mesh
        return np.stack([
            np.max(dyadic_level_maxima(values - h_vals[None], variant)[0] / span_pow,
                   axis=1) < eps
            for h_vals in meshes])

    inside = np.concatenate(map_sample_blocks(plan, seed, n, block_inside), axis=1)
    in_a, enlarged = inside[0], inside.any(axis=0)

    p_a = float(in_a.mean())
    if p_a in (0.0, 1.0):
        rhs = p_a if lam == 0 else (1.0 if p_a == 1.0 else 0.0)
        deriv = 0.0
    else:
        q = ndtri(p_a)
        rhs = float(ndtr(lam + q))
        deriv = float(_normal_pdf(lam + q) / _normal_pdf(q))
    # pooled SE of lhs - rhs(p_a) via per-sample influence on common samples
    phi = enlarged.astype(float) - deriv * in_a.astype(float)
    config = {"model": model.describe(), "alpha": alpha, "eps": eps, "lam": lam,
              "n": n, "seed": seed, "n_steps": n_steps,
              "mesh_size": len(meshes), "variant": variant}
    report = _proportion_report(
        "borell_shift_rough", int(enlarged.sum()), n, rhs, config,
        se=float(phi.std(ddof=1) / np.sqrt(n)),
        notes=("one-sided with mesh slack: finite drift mesh under-counts the enlargement",),
        extras={"p_a": p_a},
    )
    if report.verdict != "violated":
        return report
    return replace(report, verdict="inconclusive", notes=report.notes + (
        "negative margin is attributable to mesh slack, not a violation",))


def canary_violation(n: int = 100000, seed: int = 0) -> InequalityReport:
    """Deliberately false claim P[|X| < 1] >= P[|X| < 2], for pipeline tests.

    Exercises the 'violated' verdict path end to end; any consumer treating
    violations as fatal should trip on this check.
    """
    _canary_violation_args(n, seed)
    hits = sum(int(np.sum(np.abs(x[:, 0]) < 1.0)) for x in _normal_blocks(n, 1, seed))
    p = hits / n
    return _proportion_report(
        "canary_violation", hits, n, _interval_probability(2.0, 1.0), {"n": n, "seed": seed},
        se=float(np.sqrt(p * (1.0 - p) / n)),
        notes=("intentionally false claim; expected verdict: violated",),
    )
