"""Monte-Carlo and quadrature checks of Gaussian correlation inequalities.

Every check states a claim of the form lhs >= rhs, estimates both sides on
common random numbers where possible, and reports the margin in pooled
standard errors.  Verdicts: 'holds' (nonnegative margin), 'holds_within_noise'
(negative but within 4 pooled SEs), 'violated' (beyond 4 SEs), and
'inconclusive' (the data cannot resolve the claim, e.g. both probabilities at
the Monte-Carlo resolution floor, or a one-sided estimator with known slack).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm as _normal

from .algebra import DEFAULT_NORM_VARIANT
from .gaussian import (
    CovarianceModel,
    SamplerPlan,
    cameron_martin_norm,
    sample_path_block,
    sample_rng,
)
from .paths import CMPath, dyadic_level_maxima
from .smallball import sample_dyadic_level_maxima, wilson_interval

VERDICTS = ("holds", "holds_within_noise", "violated", "inconclusive")

REPORT_COLUMNS = (
    "name", "verdict", "lhs", "lhs_ci_low", "lhs_ci_high",
    "rhs", "rhs_ci_low", "rhs_ci_high", "margin", "margin_se", "seed",
)


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

    def to_csv_row(self) -> list:
        return [
            self.name, self.verdict, repr(float(self.lhs)), repr(float(self.lhs_ci[0])),
            repr(float(self.lhs_ci[1])), repr(float(self.rhs)), repr(float(self.rhs_ci[0])),
            repr(float(self.rhs_ci[1])), repr(float(self.margin)),
            "" if self.margin_se is None else repr(float(self.margin_se)),
            self.config.get("seed", ""),
        ]


def reports_csv_text(reports, config_hash: str | None = None) -> str:
    buf = io.StringIO()
    if config_hash is not None:
        buf.write(f"# config_hash={config_hash}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for rep in reports:
        writer.writerow(rep.to_csv_row())
    return buf.getvalue()


def _verdict(margin: float, pooled_se: float | None, det_tol: float = 1e-10) -> str:
    if pooled_se is None or pooled_se == 0.0:
        return "holds" if margin >= -det_tol else "violated"
    if margin >= 0.0:
        return "holds"
    if margin >= -4.0 * pooled_se:
        return "holds_within_noise"
    return "violated"


# ---------------------------------------------------------------------------
# Shared samplers
# ---------------------------------------------------------------------------


def _drift_values(model: CovarianceModel, h: CMPath | None, n_steps: int) -> np.ndarray:
    """Values (N+1, d) of a drift on the simulation grid; the zero path for None."""
    if h is None:
        return np.zeros((n_steps + 1, model.dim))
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    if h.values.shape != (n_steps + 1, model.dim) or not np.allclose(h.times, times):
        raise ValueError("drift path must live on the simulation grid")
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


def check_anderson(model: CovarianceModel, alpha: float, center: CMPath, eps: float,
                   n: int = 50000, seed: int = 0, n_steps: int = 256,
                   variant: str = DEFAULT_NORM_VARIANT) -> InequalityReport:
    """Centering can only help: P[norm < eps] >= P[distance-to-center < eps].

    Both probabilities are estimated from the same simulated lifts; with a
    zero center the two events coincide and the margin is exactly zero.
    """
    ens = sample_dyadic_level_maxima(model, n, seed, n_steps, variant,
                                     centre=_drift_values(model, center, n_steps))
    origin, centered = ens.rough_norms(alpha), ens.centred_norms(alpha)
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
    tightest split (a=0); the others ride along in extras.
    """
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


def _validate_cov(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    w = np.linalg.eigvalsh(cov)
    if w.min() < -1e-10 * max(1.0, w.max()):
        raise ValueError("covariance must be positive semidefinite")
    return cov


def _gaussian_box_probability(cov: np.ndarray, thresholds: np.ndarray,
                              nodes: int = 96) -> float:
    """P[|X_i| < eps_i for all i], X ~ N(0, cov), by tensor Gauss-Legendre."""
    d = cov.shape[0]
    if d > 3:
        raise ValueError("quadrature joint probability supported for d <= 3")
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
    return float(2.0 * _normal.cdf(eps / sigma) - 1.0)


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
    cov = _validate_cov(cov_matrix)
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(thresholds <= 0):
        raise ValueError("thresholds must be positive")
    if chaos_level == 1:
        return _check_sidak_level1(cov, thresholds, method, n, seed)
    if chaos_level == 2:
        return _check_sidak_level2(cov, thresholds, n, seed, forms)
    raise ValueError(f"chaos_level must be 1 or 2, got {chaos_level}")


def _check_sidak_level1(cov, thresholds, method, n, seed) -> InequalityReport:
    d = cov.shape[0]
    if thresholds.size != d:
        raise ValueError("one threshold per coordinate")
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
        margin = joint - product
        return InequalityReport(
            name="sidak_level1",
            lhs=joint, lhs_ci=(joint, joint),
            rhs=product, rhs_ci=(product, product),
            margin=margin, margin_se=None,
            verdict=_verdict(margin, None),
            config={**config, "method": "quadrature"},
            extras={"two_block_split": {"rhs": gci_rhs, "margin": joint - gci_rhs,
                                        "verdict": _verdict(joint - gci_rhs, None)}},
        )

    hits = 0
    split = int(np.ceil(d / 2))
    hits_b1 = 0
    hits_b2 = 0
    total = 0
    for x in _sample_gaussian(cov, n, seed):
        inside = np.abs(x) < thresholds
        hits += int(np.all(inside, axis=1).sum())
        hits_b1 += int(np.all(inside[:, :split], axis=1).sum())
        hits_b2 += int(np.all(inside[:, split:], axis=1).sum())
        total += x.shape[0]
    joint = hits / total
    se = float(np.sqrt(max(joint * (1.0 - joint), 1e-300) / total))
    margin = joint - product
    gci_rhs = (hits_b1 / total) * (hits_b2 / total)
    return InequalityReport(
        name="sidak_level1",
        lhs=joint, lhs_ci=wilson_interval(hits, total),
        rhs=product, rhs_ci=(product, product),
        margin=margin, margin_se=se,
        verdict=_verdict(margin, se),
        config={**config, "method": "mc", "n": total},
        extras={"two_block_split": {"rhs": gci_rhs, "margin": joint - gci_rhs}},
    )


def _default_level2_forms(p: int, q: int, thresholds) -> list:
    if p == 1 and q == 1 and thresholds.size == 2:
        return [("bilinear", np.ones((1, 1)), float(thresholds[0])),
                ("linear_x", np.ones(1), float(thresholds[1]))]
    raise ValueError("chaos level 2 needs explicit forms unless blocks are 1-dim")


def _check_sidak_level2(cov, thresholds, n, seed, forms) -> InequalityReport:
    d = cov.shape[0]
    if forms is None:
        if d != 2:
            raise ValueError("default level-2 forms need a 2-dim stacked covariance")
        p = q = 1
        forms = _default_level2_forms(p, q, thresholds)
    else:
        first = next(f for f in forms if f[0] == "bilinear")
        p, q = np.asarray(first[1]).shape
        if p + q != d:
            raise ValueError("stacked covariance size must equal x-dim + y-dim")
    if not np.allclose(cov[:p, p:], 0.0, atol=1e-12):
        raise ValueError("x and y blocks must be independent (zero cross-covariance)")

    n_events = len(forms)
    hit_each = np.zeros(n_events, dtype=np.int64)
    hit_joint = 0
    total = 0
    # accumulate cross moments for the influence-function SE
    sums_pair = np.zeros((n_events + 1, n_events + 1))
    for x in _sample_gaussian(cov, n, seed):
        xs, ys = x[:, :p], x[:, p:]
        ind = np.empty((x.shape[0], n_events), dtype=bool)
        for k, spec in enumerate(forms):
            kind, mat, eps = spec
            if kind == "bilinear":
                val = np.einsum("si,ij,sj->s", xs, np.asarray(mat, dtype=float), ys)
            elif kind == "linear_x":
                val = xs @ np.asarray(mat, dtype=float)
            elif kind == "linear_y":
                val = ys @ np.asarray(mat, dtype=float)
            else:
                raise ValueError(f"unknown form kind {kind!r}")
            ind[:, k] = np.abs(val) < eps
        joint = np.all(ind, axis=1)
        hit_each += ind.sum(axis=0)
        hit_joint += int(joint.sum())
        total += x.shape[0]
        aug = np.concatenate([ind, joint[:, None]], axis=1).astype(float)
        sums_pair += aug.T @ aug

    p_each = hit_each / total
    p_joint = hit_joint / total
    product = float(np.prod(p_each))
    margin = p_joint - product

    # influence function of joint - prod_k p_k at one sample
    # phi = (1_joint - p_joint) - sum_k (prod_{j != k} p_j)(1_k - p_k)
    coef = np.array([product / pk if pk > 0 else 0.0 for pk in p_each])
    means = np.concatenate([p_each, [p_joint]])
    cov_ind = sums_pair / total - np.outer(means, means)
    w = np.concatenate([-coef, [1.0]])
    var_phi = float(w @ cov_ind @ w)
    se = float(np.sqrt(max(var_phi, 0.0) / total))

    return InequalityReport(
        name="sidak_level2",
        lhs=p_joint, lhs_ci=wilson_interval(hit_joint, total),
        rhs=product, rhs_ci=(product, product),
        margin=margin, margin_se=se,
        verdict=_verdict(margin, se),
        config={"chaos_level": 2, "n": total, "seed": seed,
                "thresholds": np.asarray(thresholds, float).tolist(),
                "forms": [f[0] for f in forms]},
        extras={"p_each": p_each.tolist()},
    )


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
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    kind, param = set_spec
    config = {"dimension": dimension, "set": kind, "param": param, "lam": lam,
              "n": n, "seed": seed}
    if kind == "half_space":
        p_a = float(_normal.cdf(param))
        lhs = float(_normal.cdf(param + lam))
        rhs = float(_normal.cdf(lam + _normal.ppf(p_a)))
        margin = lhs - rhs
        return InequalityReport(
            name="borell_shift",
            lhs=lhs, lhs_ci=(lhs, lhs), rhs=rhs, rhs_ci=(rhs, rhs),
            margin=margin, margin_se=None,
            verdict=_verdict(margin, None),
            config=config,
            notes=("half-space is the equality case; both sides analytic",),
        )
    if kind != "box":
        raise ValueError("set_spec must be ('half_space', a) or ('box', r)")
    r = float(param)
    if r <= 0:
        raise ValueError("box radius must be positive")
    p_a = _interval_probability(r, 1.0) ** dimension
    rhs = float(_normal.cdf(lam + _normal.ppf(p_a)))
    hits = 0
    total = 0
    for x in _normal_blocks(n, dimension, seed):
        outside = np.maximum(np.abs(x) - r, 0.0)
        dist = np.sqrt(np.sum(outside**2, axis=1))
        hits += int(np.sum(dist <= lam))
        total += len(x)
    lhs = hits / total
    se = float(np.sqrt(max(lhs * (1.0 - lhs), 1e-300) / total))
    margin = lhs - rhs
    return InequalityReport(
        name="borell_shift",
        lhs=lhs, lhs_ci=wilson_interval(hits, total),
        rhs=rhs, rhs_ci=(rhs, rhs),
        margin=margin, margin_se=se,
        verdict=_verdict(margin, se),
        config=config,
    )


def _cm_mesh_directions(model: CovarianceModel, times: np.ndarray, lam: float,
                        n_directions: int) -> list[np.ndarray]:
    """Smooth drift paths on the grid with reproducing-kernel norm == lam."""
    t = times / times[-1]
    d = model.dim
    shapes = []
    k = 0
    while len(shapes) < n_directions:
        mode = k // (2 * d)
        comp = (k // 2) % d
        use_sin = k % 2 == 0
        base = np.sin((mode + 1) * np.pi * t) * t if use_sin else t ** (mode + 1)
        vals = np.zeros((times.size, d))
        vals[:, comp] = base
        shapes.append(vals)
        k += 1
    out = []
    for vals in shapes:
        cm = cameron_martin_norm(model, CMPath(times, vals))
        if cm.norm > 0:
            out.append(vals * (lam / cm.norm))
    return out


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
    'inconclusive' with a mesh-slack note.
    """
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if n_steps < 2 or (n_steps & (n_steps - 1)) != 0:
        raise ValueError(f"n_steps must be a power of two, got {n_steps}")
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    plan = SamplerPlan(model, times)
    meshes = [np.zeros((n_steps + 1, model.dim))]
    for scale in (1.0, 0.5):
        for vals in _cm_mesh_directions(model, times, lam * scale, n_directions):
            meshes.append(vals)
            meshes.append(-vals)
    span_pow = (model.horizon * 0.5 ** np.arange(n_steps.bit_length())) ** alpha

    in_a = np.empty(n, dtype=bool)
    enlarged = np.zeros(n, dtype=bool)
    block = 256
    for start in range(0, n, block):
        stop = min(start + block, n)
        values = sample_path_block(plan, seed, start, stop)
        hit = np.zeros(stop - start, dtype=bool)
        for m, h_vals in enumerate(meshes):
            # translating a piecewise-linear lift by a grid drift is the lift
            # of the shifted path, so shift the values and re-lift
            lmax, _, _ = dyadic_level_maxima(values - h_vals[None], variant)
            norms = np.max(lmax / span_pow, axis=1)
            inside = norms < eps
            if m == 0:
                in_a[start:stop] = inside
            hit |= inside
        enlarged[start:stop] = hit

    p_a = float(in_a.mean())
    lhs = float(enlarged.mean())
    k_hits = int(enlarged.sum())
    if p_a in (0.0, 1.0):
        rhs = p_a if lam == 0 else (1.0 if p_a == 1.0 else 0.0)
        deriv = 0.0
    else:
        q = _normal.ppf(p_a)
        rhs = float(_normal.cdf(lam + q))
        deriv = float(_normal.pdf(lam + q) / _normal.pdf(q))
    # pooled SE of lhs - rhs(p_a) via per-sample influence on common samples
    phi = enlarged.astype(float) - deriv * in_a.astype(float)
    se = float(phi.std(ddof=1) / np.sqrt(n))
    margin = lhs - rhs
    verdict = _verdict(margin, se)
    notes = ["one-sided with mesh slack: finite drift mesh under-counts the enlargement"]
    if verdict == "violated":
        verdict = "inconclusive"
        notes.append("negative margin is attributable to mesh slack, not a violation")
    return InequalityReport(
        name="borell_shift_rough",
        lhs=lhs, lhs_ci=wilson_interval(k_hits, n),
        rhs=rhs, rhs_ci=(rhs, rhs),
        margin=margin, margin_se=se,
        verdict=verdict,
        config={"model": model.describe(), "alpha": alpha, "eps": eps, "lam": lam,
                "n": n, "seed": seed, "n_steps": n_steps,
                "mesh_size": len(meshes), "variant": variant},
        notes=tuple(notes),
        extras={"p_a": p_a},
    )


def canary_violation(n: int = 100000, seed: int = 0) -> InequalityReport:
    """Deliberately false claim P[|X| < 1] >= P[|X| < 2], for pipeline tests.

    Exercises the 'violated' verdict path end to end; any consumer treating
    violations as fatal should trip on this check.
    """
    hits = 0
    total = 0
    for x in _normal_blocks(n, 1, seed):
        hits += int(np.sum(np.abs(x[:, 0]) < 1.0))
        total += len(x)
    lhs = hits / total
    rhs = _interval_probability(2.0, 1.0)
    se = float(np.sqrt(lhs * (1.0 - lhs) / total))
    margin = lhs - rhs
    return InequalityReport(
        name="canary_violation",
        lhs=lhs, lhs_ci=wilson_interval(hits, total),
        rhs=rhs, rhs_ci=(rhs, rhs),
        margin=margin, margin_se=se,
        verdict=_verdict(margin, se),
        config={"n": total, "seed": seed},
        notes=("intentionally false claim; expected verdict: violated",),
    )
