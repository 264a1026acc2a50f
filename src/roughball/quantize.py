"""Covers, entropy bounds, codebooks, and transport for lifted Gaussian laws.

Everything here works on finite sets of lifted paths sharing one dyadic grid.
The LiftedSet container stores stacked prefix signatures and caches their
increments over every dyadic pair, component-major, so pairwise_distance
reduces two sets to a Hölder distance matrix with the batched norm kernel of
paths, a memory-bounded chunk of columns at a time.

Probability enters through small-ball curves: the monotone -log p transform
and its inverse (isotonic regression, then linear interpolation in log-log
space) convert a Monte-Carlo curve into entropy and quantization bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.stats import norm as _normal

from .algebra import DEFAULT_NORM_VARIANT, _resolve_variant
from .gaussian import (
    CovarianceModel,
    SamplerPlan,
    cameron_martin_norm,
    sample_path_block,
    sample_rng,
)
from .paths import (CMPath, GridRoughPath, _chunk_bounds, _component_difference,
                    _component_major, _component_norms, _dyadic_pairs, _gathered_increments,
                    batch_prefix)
from .smallball import SBPCurve


# ---------------------------------------------------------------------------
# Stacked lifted paths and pairwise distances
# ---------------------------------------------------------------------------


class LiftedSet:
    """A batch of step-2 lifts on a shared uniform dyadic grid."""

    def __init__(self, times: np.ndarray, B: np.ndarray, C: np.ndarray):
        times = np.asarray(times, dtype=float)
        n_steps = times.size - 1
        if n_steps < 1 or (n_steps & (n_steps - 1)) != 0:
            raise ValueError(f"lifted sets need 2^L steps, got {n_steps}")
        n_pts = n_steps + 1
        if B.ndim != 3 or B.shape[1] != n_pts or C.shape != B.shape + B.shape[-1:]:
            raise ValueError(f"prefix arrays must have shapes (m, {n_pts}, d) and "
                             f"(m, {n_pts}, d, d) on a grid of {n_pts} points")
        self.times = times
        self.B = B
        self.C = C
        self.n_steps = n_steps
        self._dyadic: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_values(cls, times, values: np.ndarray) -> "LiftedSet":
        """Lift piecewise-linear paths given as value arrays (m, N+1, d)."""
        B, C = batch_prefix(values)
        return cls(np.asarray(times, dtype=float), B, C)

    @classmethod
    def from_paths(cls, paths) -> "LiftedSet":
        paths = list(paths)
        if not paths:
            raise ValueError("need at least one path")
        times = paths[0].times
        for p in paths[1:]:
            if p.times.shape != times.shape or not np.array_equal(p.times, times):
                raise ValueError("all paths must share one grid")
        B = np.stack([p.prefix_level1 for p in paths])
        C = np.stack([p.prefix_level2 for p in paths])
        return cls(times, B, C)

    @classmethod
    def from_model(cls, model: CovarianceModel, n: int, master_seed: int,
                   n_steps: int = 256) -> "LiftedSet":
        times = np.linspace(0.0, model.horizon, n_steps + 1)
        values = sample_path_block(SamplerPlan(model, times), master_seed, 0, n)
        return cls.from_values(times, values)

    # -- access -----------------------------------------------------------

    @property
    def size(self) -> int:
        return self.B.shape[0]

    @property
    def dim(self) -> int:
        return self.B.shape[2]

    def path(self, i: int) -> GridRoughPath:
        return GridRoughPath(self.times, self.B[i], self.C[i])

    def subset(self, indices) -> "LiftedSet":
        indices = np.asarray(indices, dtype=np.intp)
        return LiftedSet(self.times, self.B[indices], self.C[indices])

    def endpoints(self) -> np.ndarray:
        """Level-1 endpoints (m, d); for constant-increment embeddings these
        are the embedded points."""
        return self.B[:, -1, :]

    def dyadic_increments(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached group increments over every dyadic pair, component-major:
        level 1 (d, m, 2N-1) and level 2 (d, d, m, 2N-1), pairs in the order
        of paths._dyadic_pairs."""
        if self._dyadic is None:
            self._dyadic = _gathered_increments(*_component_major(self.B, self.C),
                                                *_dyadic_pairs(self.n_steps)[:2])
        return self._dyadic


def embed_constant_increment(points: np.ndarray, horizon: float = 1.0) -> LiftedSet:
    """Embed points x in R^d as single-step linear paths t -> t x / horizon.

    The Hölder distance between two embeddings is proportional to |x - y|, so
    static quantization problems ride on the pathspace machinery unchanged.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    m, d = points.shape
    values = np.zeros((m, 2, d))
    values[:, 1, :] = points
    return LiftedSet.from_values(np.array([0.0, horizon]), values)


def pairwise_distance(x: LiftedSet, y: LiftedSet, alpha: float,
                      variant: str = DEFAULT_NORM_VARIANT) -> np.ndarray:
    """Dyadic-family Hölder distance matrix, shape (x.size, y.size).

    For each chunk of y's columns: the group differences to every member of
    x over all dyadic pairs, their homogeneous norms, the largest norm per
    level divided by that level's (T 2^-l)^alpha, and the largest over levels.
    """
    if not np.array_equal(x.times, y.times):
        raise ValueError("both sets must share one grid")
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    v = _resolve_variant(variant)
    bx, cx = x.dyadic_increments()
    by, cy = y.dyadic_increments()
    starts = _dyadic_pairs(x.n_steps)[2]
    horizon = x.times[-1]
    scale = np.array([(horizon * 0.5**level) ** alpha for level in range(len(starts))])
    d, m1, k = bx.shape
    bx, cx = bx[:, :, None], cx[:, :, :, None]
    out = np.empty((m1, y.size))
    for lo, hi in _chunk_bounds(y.size, m1 * k * (d + d * d)):
        b, c = _component_difference(bx, cx, by[:, None, lo:hi], cy[:, :, None, lo:hi])
        level_max = np.maximum.reduceat(_component_norms(b, c, v)[0], starts, axis=-1)
        out[:, lo:hi] = (level_max / scale).max(axis=-1)
    return out


# ---------------------------------------------------------------------------
# Cameron-Martin ball meshes and greedy covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallMesh:
    """Finite mesh of a reproducing-kernel ball, lifted."""

    lifted: LiftedSet
    cm_norms: np.ndarray
    radius: float


def cm_ball_mesh(model: CovarianceModel, eta: float, n_steps: int = 64,
                 mesh_size: int = 256, seed: int = 0) -> BallMesh:
    """Mesh the radius-eta reproducing-kernel ball with normalized directions.

    Directions are smoothed Gaussian grid paths, normalized to kernel norm
    eta and cycled through boundary scalings {1, 3/4, 1/2, 1/4}; the zero
    path is always included.  eta = 0 degenerates to the single trivial path.
    """
    if eta < 0:
        raise ValueError(f"radius must be nonnegative, got {eta}")
    times = np.linspace(0.0, model.horizon, n_steps + 1)
    d = model.dim
    if eta == 0:
        mesh_size = 1  # the ball degenerates to the zero path
    values = np.zeros((max(1, mesh_size), n_steps + 1, d))
    norms = np.zeros(max(1, mesh_size))
    if eta > 0:
        scales = (1.0, 0.75, 0.5, 0.25)
        kernel = np.ones(5) / 5.0
        for k in range(1, mesh_size):
            inc = sample_rng(seed, k).standard_normal((n_steps, d))
            for c in range(d):
                inc[:, c] = np.convolve(inc[:, c], kernel, mode="same")
            vals = np.zeros((n_steps + 1, d))
            np.cumsum(inc, axis=0, out=vals[1:])
            cm = cameron_martin_norm(model, CMPath(times, vals))
            target = eta * scales[k % len(scales)]
            values[k] = vals * (target / cm.norm)
            norms[k] = target
    return BallMesh(LiftedSet.from_values(times, values), norms, float(eta))


@dataclass(frozen=True)
class CoverResult:
    """Greedy cover of a probe set: centers and the achieved radius."""

    eps: float
    n_centers: int
    center_indices: np.ndarray
    certificate_radius: float
    certified: bool
    probe_size: int

    def centers(self, mesh: BallMesh) -> LiftedSet:
        return mesh.lifted.subset(self.center_indices)


def _greedy_order(mesh: LiftedSet, alpha: float, variant: str,
                  max_centers: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Farthest-point ordering.  radii[k] is the cover radius using the first
    k+1 centers, so the ordering serves every target radius at once."""
    m = mesh.size
    if max_centers is None:
        max_centers = m
    order = np.empty(max_centers, dtype=np.intp)
    radii = np.empty(max_centers)
    order[0] = 0
    dist = pairwise_distance(mesh.subset([0]), mesh, alpha, variant)[0]
    radii[0] = float(dist.max())
    for k in range(1, max_centers):
        nxt = int(np.argmax(dist))
        order[k] = nxt
        new = pairwise_distance(mesh.subset([nxt]), mesh, alpha, variant)[0]
        np.minimum(dist, new, out=dist)
        radii[k] = float(dist.max())
        if radii[k] == 0.0:
            order = order[: k + 1]
            radii = radii[: k + 1]
            break
    return order, radii


def greedy_cover(ball_spec, alpha: float, eps: float,
                 variant: str = DEFAULT_NORM_VARIANT) -> CoverResult:
    """Cover a lifted kernel-ball mesh by greedy farthest-point centers.

    ball_spec is a BallMesh or a dict {model, eta, n_steps, mesh_size, seed}.
    The center count is exact for the mesh (an upper-bound certificate for
    the mesh only; for the underlying ball it is a lower-bound observation).
    """
    mesh = ball_spec if isinstance(ball_spec, BallMesh) else cm_ball_mesh(
        ball_spec["model"], ball_spec["eta"], ball_spec.get("n_steps", 64),
        ball_spec.get("mesh_size", 256), ball_spec.get("seed", 0))
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    order, radii = _greedy_order(mesh.lifted, alpha, variant)
    covered = np.nonzero(radii <= eps)[0]
    if covered.size:
        k = int(covered[0]) + 1
        achieved = float(radii[k - 1])
    else:
        k = order.size
        achieved = float(radii[-1])
    return CoverResult(
        eps=float(eps),
        n_centers=k,
        center_indices=order[:k].copy(),
        certificate_radius=achieved,
        certified=bool(achieved <= eps),
        probe_size=mesh.lifted.size,
    )


def cover_growth_curve(mesh: BallMesh, alpha: float, eps_grid,
                       variant: str = DEFAULT_NORM_VARIANT) -> dict:
    """N(eps) over a grid from one greedy ordering, with the log N slope."""
    order, radii = _greedy_order(mesh.lifted, alpha, variant)
    eps_grid = np.sort(np.asarray(eps_grid, dtype=float))[::-1]
    counts = np.empty(eps_grid.size, dtype=int)
    for i, e in enumerate(eps_grid):
        hit = np.nonzero(radii <= e)[0]
        counts[i] = int(hit[0]) + 1 if hit.size else order.size
    usable = counts < mesh.lifted.size  # mesh exhausted => count saturates
    slope = None
    if int(usable.sum()) >= 3:
        slope = float(np.polyfit(np.log(1.0 / eps_grid[usable]),
                                 np.log(counts[usable]), 1)[0])
    return {
        "eps": eps_grid.tolist(),
        "n_centers": counts.tolist(),
        "log_n_slope": slope,
        "saturated": (~usable).sum().item(),
        "probe_size": mesh.lifted.size,
    }


# ---------------------------------------------------------------------------
# Small-ball transforms and entropy bounds
# ---------------------------------------------------------------------------


def _isotonic_nondecreasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators projection onto non-decreasing sequences."""
    y = np.asarray(y, dtype=float)
    level = y.copy()
    weight = np.ones_like(y)
    # stack of (value, weight) blocks
    vals = []
    wts = []
    for v, w in zip(level, weight):
        vals.append(v)
        wts.append(w)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            v2, w2 = vals.pop(), wts.pop()
            v1, w1 = vals.pop(), wts.pop()
            vals.append((v1 * w1 + v2 * w2) / (w1 + w2))
            wts.append(w1 + w2)
    out = np.empty_like(y)
    pos = 0
    for v, w in zip(vals, wts):
        out[pos : pos + int(w)] = v
        pos += int(w)
    return out


class SBPTransform:
    """Monotone -log p transform of a small-ball curve, with inverse.

    Curve probabilities are isotonized in eps, then -log p is interpolated
    linearly in log-log coordinates.  Evaluation is restricted to the range
    where the curve resolves: below the smallest usable eps the transform
    raises (resolution floor), as does inversion above the largest resolved
    value.
    """

    def __init__(self, curve: SBPCurve):
        order = np.argsort(curve.eps)
        p = _isotonic_nondecreasing(curve.p_hat[order])
        usable = (p > 0.0) & (p < 1.0)
        if int(usable.sum()) < 2:
            raise ValueError("curve needs >= 2 points with 0 < p_hat < 1")
        eps = curve.eps[order][usable]
        b = -np.log(p[usable])
        # strictly decreasing b for invertibility: drop flat duplicates
        keep = np.concatenate([[True], np.diff(b) < 0])
        self.log_eps = np.log(eps[keep])
        self.log_b = np.log(b[keep])
        self.eps_range = (float(eps[keep][0]), float(eps[keep][-1]))
        self.b_range = (float(b[keep][-1]), float(b[keep][0]))

    def value(self, eps: float) -> float:
        """-log p at eps (log-log interpolation)."""
        x = np.log(eps)
        if not (self.log_eps[0] - 1e-12 <= x <= self.log_eps[-1] + 1e-12):
            lo, hi = self.eps_range
            raise ValueError(
                f"eps {eps:g} outside the resolved range [{lo:g}, {hi:g}] "
                "(resolution floor)"
            )
        return float(np.exp(np.interp(x, self.log_eps, self.log_b)))

    def inverse(self, target: float) -> float:
        """Smallest resolved eps with -log p <= target."""
        if target <= 0:
            raise ValueError(f"target must be positive, got {target}")
        y = np.log(target)
        # log_b decreases along log_eps; interpolate on the reversed axis
        if y > self.log_b[0] + 1e-12:
            raise ValueError(
                f"target {target:g} exceeds the resolved curve maximum "
                f"{self.b_range[1]:g} (resolution floor)"
            )
        if y < self.log_b[-1]:
            raise ValueError(
                f"target {target:g} below the resolved curve minimum {self.b_range[0]:g}"
            )
        x = np.interp(-y, -self.log_b, self.log_eps)
        return float(np.exp(x))


def entropy_bounds_from_sbp(b_hat: SBPCurve | SBPTransform, eta: float, eps: float) -> dict:
    """Two-sided entropy bounds for the dilated kernel ball from a curve.

    upper bounds the entropy at radius 2 eps of the eta-dilated ball by
    eta^2/2 + B(eps); lower is log Phi(eta + Phi^{-1}(exp(-B(eps)))) + B(2 eps).
    The dilation identity h(eps, dilated-by-eta ball) = h(eps/eta, unit ball)
    is echoed in the result for re-expression at eta = 1.
    """
    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    tr = b_hat if isinstance(b_hat, SBPTransform) else SBPTransform(b_hat)
    b_eps = tr.value(eps)
    b_2eps = tr.value(2.0 * eps)
    upper = 0.5 * eta**2 + b_eps
    lower = float(np.log(_normal.cdf(eta + _normal.ppf(np.exp(-b_eps)))) + b_2eps)
    out = {
        "upper": float(upper),
        "lower": lower,
        "eta": float(eta),
        "eps": float(eps),
        "b_eps": float(b_eps),
        "b_2eps": float(b_2eps),
    }
    if eta > 0:
        out["dilation_identity"] = {
            "eps_over_eta": eps / eta,
            "note": "entropy of the eta-dilated ball at eps equals the unit ball at eps/eta",
        }
    return out


# ---------------------------------------------------------------------------
# Codebooks (Lloyd iteration in pathspace)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Codebook:
    """Cluster centers in pathspace with the achieved training distortion."""

    centers: LiftedSet
    order: float
    distortion: float
    n_training: int
    alpha: float
    variant: str = DEFAULT_NORM_VARIANT
    history: tuple = ()
    mode: str = "medoid"

    @property
    def n_centers(self) -> int:
        return self.centers.size

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "distortion": self.distortion,
            "n_training": self.n_training,
            "alpha": self.alpha,
            "variant": self.variant,
            "mode": self.mode,
            "history": list(self.history),
            "centers": [self.centers.path(i).to_dict() for i in range(self.n_centers)],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Codebook":
        centers = LiftedSet.from_paths(GridRoughPath.from_dict(c) for c in data["centers"])
        return cls(
            centers=centers,
            order=data["order"],
            distortion=data["distortion"],
            n_training=data["n_training"],
            alpha=data["alpha"],
            variant=data.get("variant", DEFAULT_NORM_VARIANT),
            history=tuple(data.get("history", ())),
            mode=data.get("mode", "medoid"),
        )


def _kmeanspp_init(samples: LiftedSet, n: int, r: float, alpha: float, variant: str,
                   seed: int) -> np.ndarray:
    rng = np.random.default_rng((seed, 0xC0DE))
    first = int(rng.integers(samples.size))
    chosen = [first]
    dist = pairwise_distance(samples.subset([first]), samples, alpha, variant)[0]
    for _ in range(1, n):
        weights = dist**r
        total = weights.sum()
        if total <= 0:
            # all remaining points coincide with selected centers
            rest = np.setdiff1d(np.arange(samples.size), chosen)
            chosen.append(int(rest[0]) if rest.size else chosen[-1])
            continue
        nxt = int(rng.choice(samples.size, p=weights / total))
        chosen.append(nxt)
        new = pairwise_distance(samples.subset([nxt]), samples, alpha, variant)[0]
        np.minimum(dist, new, out=dist)
    return np.asarray(chosen, dtype=np.intp)


def _geometric_mean_centers(samples: LiftedSet, assign: np.ndarray, n: int) -> LiftedSet:
    """Coordinatewise prefix means per cluster, re-projected to geometric lifts.

    The mean of prefix arrays is generally not weakly geometric; per step the
    symmetric level-2 part is restored to half the outer square of the step's
    level-1 increment while the antisymmetric (area) part of the mean is kept.
    """
    times = samples.times
    n_pts, d = samples.B.shape[1], samples.dim
    B_new = np.zeros((n, n_pts, d))
    C_new = np.zeros((n, n_pts, d, d))
    for k in range(n):
        members = assign == k
        Bm = samples.B[members].mean(axis=0)
        Cm = samples.C[members].mean(axis=0)
        b_steps = np.diff(Bm, axis=0)
        c_steps = Cm[1:] - Cm[:-1] - Bm[:-1, :, None] * b_steps[:, None, :]
        anti = 0.5 * (c_steps - np.swapaxes(c_steps, -1, -2))
        c_steps = 0.5 * b_steps[:, :, None] * b_steps[:, None, :] + anti
        B_new[k, 1:] = np.cumsum(b_steps, axis=0)
        contrib = c_steps + B_new[k, :-1, :, None] * b_steps[:, None, :]
        C_new[k, 1:] = np.cumsum(contrib, axis=0)
    return LiftedSet(times, B_new, C_new)


def lloyd_codebook(samples, n: int, r: float = 2.0, alpha: float = 0.4,
                   init: str = "kmeanspp", seed: int = 0, max_iter: int = 60,
                   tol: float = 1e-6, mode: str = "auto",
                   variant: str = DEFAULT_NORM_VARIANT) -> Codebook:
    """Lloyd iteration under the Hölder metric.

    Center updates: 'medoid' picks the cluster member minimizing the summed
    r-th-power distance (metric-only, distortion non-increasing, quadratic in
    cluster size); 'mean' (r = 2 only) takes coordinatewise prefix means with
    geometric re-projection and finishes with a medoid polish pass snapping
    each center to its nearest cluster member, so the final codebook again
    consists of sample paths.  'auto' selects 'mean' for r = 2, else 'medoid'.
    Empty clusters are re-seeded at the currently farthest sample.
    """
    if not isinstance(samples, LiftedSet):
        samples = LiftedSet.from_paths(samples)
    m = samples.size
    if not (1 <= n <= m):
        raise ValueError(f"need 1 <= n <= {m} centers, got {n}")
    if mode == "auto":
        mode = "mean" if r == 2.0 else "medoid"
    if mode == "mean" and r != 2.0:
        raise ValueError("mean updates are justified for r = 2 only")
    if mode == "medoid" and m > 4096:
        raise ValueError("medoid updates are quadratic per cluster; use <= 4096 samples")

    if init == "kmeanspp":
        center_idx = _kmeanspp_init(samples, n, r, alpha, variant, seed)
        centers = samples.subset(center_idx)
    elif init == "random":
        rng = np.random.default_rng((seed, 0xC0DE))
        centers = samples.subset(rng.choice(m, size=n, replace=False))
    else:
        raise ValueError(f"init must be 'kmeanspp' or 'random', got {init!r}")

    history = []
    prev = np.inf
    assign = None
    for _ in range(max_iter):
        dist = pairwise_distance(samples, centers, alpha, variant)
        assign = np.argmin(dist, axis=1)
        min_dist = dist[np.arange(m), assign]
        # re-seed empty clusters at the farthest sample, lowest index on ties
        for k in range(n):
            if not np.any(assign == k):
                far = int(np.argmax(min_dist))
                assign[far] = k
                min_dist[far] = 0.0
        distortion = float(np.mean(min_dist**r) ** (1.0 / r))
        history.append(distortion)
        if prev - distortion < tol * max(prev, 1e-30) and len(history) > 1:
            break
        prev = distortion

        if mode == "medoid":
            new_idx = np.empty(n, dtype=np.intp)
            for k in range(n):
                members = np.nonzero(assign == k)[0]
                sub = samples.subset(members)
                within = pairwise_distance(sub, sub, alpha, variant)
                cost = (within**r).sum(axis=0)
                new_idx[k] = members[int(np.argmin(cost))]
            centers = samples.subset(new_idx)
        else:
            centers = _geometric_mean_centers(samples, assign, n)

    if mode == "mean":
        # polish: snap each center to its nearest assigned member
        dist = pairwise_distance(samples, centers, alpha, variant)
        assign = np.argmin(dist, axis=1)
        snap = np.empty(n, dtype=np.intp)
        for k in range(n):
            members = np.nonzero(assign == k)[0]
            if members.size == 0:
                members = np.arange(m)
            snap[k] = members[int(np.argmin(dist[members, k]))]
        centers = samples.subset(snap)
        dist = pairwise_distance(samples, centers, alpha, variant)
        min_dist = dist.min(axis=1)
        distortion = float(np.mean(min_dist**r) ** (1.0 / r))
        history.append(distortion)

    return Codebook(
        centers=centers,
        order=float(r),
        distortion=history[-1],
        n_training=m,
        alpha=float(alpha),
        variant=variant,
        history=tuple(history),
        mode=mode,
    )


def quantization_error(codebook: Codebook, fresh: LiftedSet, r: float | None = None,
                       sbp_curve: SBPCurve | SBPTransform | None = None) -> dict:
    """Out-of-sample distortion and the curve-derived lower bound.

    E_hat is the r-th-power mean min-distance over fresh samples.  When a
    small-ball curve is supplied, the lower bound inverts -log p at log(2n);
    the bound claim E_hat >= bound is evaluated with 4-SE Monte-Carlo slack.
    """
    if r is None:
        r = codebook.order
    dist = pairwise_distance(fresh, codebook.centers, codebook.alpha, codebook.variant)
    min_dist = dist.min(axis=1)
    powers = min_dist**r
    mean_p = float(powers.mean())
    e_hat = mean_p ** (1.0 / r)
    se_mean = float(powers.std(ddof=1) / np.sqrt(fresh.size))
    se_e = se_mean / r * mean_p ** (1.0 / r - 1.0) if mean_p > 0 else 0.0
    out = {
        "E_hat": float(e_hat),
        "E_hat_se": float(se_e),
        "r": float(r),
        "n_centers": codebook.n_centers,
        "n_fresh": fresh.size,
    }
    if sbp_curve is not None:
        tr = sbp_curve if isinstance(sbp_curve, SBPTransform) else SBPTransform(sbp_curve)
        bound = tr.inverse(float(np.log(2.0 * codebook.n_centers)))
        out["lower_bound"] = bound
        out["holds_within_slack"] = bool(e_hat >= bound - 4.0 * se_e)
    return out


# ---------------------------------------------------------------------------
# Discrete measures and optimal transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported measure on lifted paths."""

    atoms: LiftedSet
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size != self.atoms.size:
            raise ValueError("one weight per atom")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {float(w.sum())!r}")


def empirical_measures(model: CovarianceModel, atoms: LiftedSet, m_weights: int,
                       alpha: float, seed: int,
                       variant: str = DEFAULT_NORM_VARIANT) -> dict:
    """Uniform and Voronoi-weighted empirical measures on given atoms.

    Voronoi weights are cell probabilities estimated by assigning m_weights
    fresh model samples to their nearest atom (ties resolve to the lowest
    atom index through argmin).  Counts are divided by the total, so the
    weights sum to 1 exactly.
    """
    n = atoms.size
    uniform = DiscreteMeasure(atoms, np.full(n, 1.0 / n))
    fresh = LiftedSet.from_model(model, m_weights, seed, atoms.n_steps)
    dist = pairwise_distance(fresh, atoms, alpha, variant)
    assign = np.argmin(dist, axis=1)
    counts = np.bincount(assign, minlength=n).astype(float)
    weighted = DiscreteMeasure(atoms, counts / counts.sum())
    return {"weighted": weighted, "uniform": uniform}


def wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, r: float, alpha: float,
                variant: str = DEFAULT_NORM_VARIANT,
                cost_matrix: np.ndarray | None = None) -> float:
    """Exact W_r between finitely supported measures (cost = distance^r).

    Solved as the transport linear program with sparse marginal constraints;
    supports up to 4096 combined atoms.  cost_matrix overrides the distance
    computation when the caller has it already.
    """
    m, n = mu.atoms.size, nu.atoms.size
    if m + n > 4096:
        raise ValueError(f"combined support {m + n} exceeds the 4096-atom limit")
    if cost_matrix is None:
        cost_matrix = pairwise_distance(mu.atoms, nu.atoms, alpha, variant) ** r
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.shape != (m, n):
        raise ValueError("cost matrix shape mismatch")

    # marginal constraints: row sums = mu.weights, column sums = nu.weights
    flat = np.arange(m * n)
    rows = np.concatenate([np.repeat(np.arange(m), n), np.repeat(np.arange(m, m + n), m)])
    cols = np.concatenate([flat, flat.reshape(m, n).T.ravel()])
    a_eq = sparse.csr_matrix(
        (np.ones(2 * m * n), (rows, cols)), shape=(m + n, m * n)
    )
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport solve failed: {res.message}")
    total = float(res.fun)
    return max(total, 0.0) ** (1.0 / r)


def empirical_rate_experiment(model: CovarianceModel, alpha: float, r: float,
                              n_list, reps: int, m_weights: int, test_size: int,
                              seed: int = 0, n_steps: int = 64, bootstrap: int = 8,
                              variant: str = DEFAULT_NORM_VARIANT) -> dict:
    """Convergence of weighted vs uniform empirical measures to the law.

    The law is approximated by one fixed reference cloud of test_size
    samples (a documented surrogate; its error is common to both measures).
    For each cell (n, rep): draw n atoms, estimate Voronoi weights from
    m_weights fresh samples, and measure W_r to the reference cloud for both
    weightings.  The weighted-measure noise from weight estimation is sized
    by a small multinomial bootstrap so the domination statistic

        W_r(reference, weighted) <= W_r(reference, uniform) + 4 SE

    can be evaluated per cell.  The constant-free prediction (log n)^-beta,
    beta = 1/(2 rho) - alpha, is reported alongside, never asserted.
    """
    n_list = sorted(int(v) for v in n_list)
    if n_list[0] < 1:
        raise ValueError("atom counts must be positive")
    if test_size + n_list[-1] > 4096:
        raise ValueError("reference cloud plus atoms exceeds the transport size limit")
    beta = 1.0 / (2.0 * model.rho) - alpha
    if beta <= 0:
        raise ValueError(f"alpha must lie below 1/(2 rho) = {1.0 / (2.0 * model.rho):g}")

    ref_seed = int(np.random.SeedSequence((seed, 0x5EF)).generate_state(1)[0])
    reference = LiftedSet.from_model(model, test_size, ref_seed, n_steps)
    ref_measure_w = np.full(test_size, 1.0 / test_size)

    rows = []
    for n in n_list:
        for rep in range(reps):
            cell_seed = int(np.random.SeedSequence((seed, n, rep)).generate_state(1)[0])
            atoms = LiftedSet.from_model(model, n, cell_seed, n_steps)
            cost = pairwise_distance(reference, atoms, alpha, variant) ** r
            measures = empirical_measures(model, atoms, m_weights, alpha, cell_seed + 1,
                                          variant)
            weights = measures["weighted"].weights

            ref_dm = DiscreteMeasure(reference, ref_measure_w)
            w_weighted = wasserstein(ref_dm, measures["weighted"], r, alpha, cost_matrix=cost)
            w_uniform = wasserstein(ref_dm, measures["uniform"], r, alpha, cost_matrix=cost)
            boot_vals = []
            boot_rng = np.random.default_rng((seed, n, rep, 0xB007))
            for _ in range(bootstrap):
                bw = boot_rng.multinomial(m_weights, weights).astype(float)
                if bw.sum() == 0:
                    continue
                boot_vals.append(
                    wasserstein(ref_dm, DiscreteMeasure(atoms, bw / bw.sum()),
                                r, alpha, cost_matrix=cost))
            se = float(np.std(boot_vals, ddof=1)) if len(boot_vals) > 1 else 0.0
            rows.append({
                "n": n,
                "rep": rep,
                "W_weighted": float(w_weighted),
                "W_uniform": float(w_uniform),
                "weight_se": se,
                "dominates_within_noise": bool(w_weighted <= w_uniform + 4.0 * se),
                "prediction": float(np.log(n) ** (-beta)) if n > 1 else float("nan"),
                "seed": cell_seed,
            })

    by_n = {}
    for n in n_list:
        vals_w = [row["W_weighted"] for row in rows if row["n"] == n]
        vals_u = [row["W_uniform"] for row in rows if row["n"] == n]
        by_n[n] = {
            "W_weighted_mean": float(np.mean(vals_w)),
            "W_weighted_se": float(np.std(vals_w, ddof=1) / np.sqrt(len(vals_w)))
            if len(vals_w) > 1 else 0.0,
            "W_uniform_mean": float(np.mean(vals_u)),
            "W_uniform_se": float(np.std(vals_u, ddof=1) / np.sqrt(len(vals_u)))
            if len(vals_u) > 1 else 0.0,
        }
    ns = np.array([n for n in n_list if n > 1], dtype=float)
    means = np.array([by_n[int(n)]["W_weighted_mean"] for n in ns])
    slope = float(np.polyfit(np.log(np.log(ns)), np.log(means), 1)[0]) if ns.size >= 3 else None
    return {
        "rows": rows,
        "summary": by_n,
        "loglog_slope": slope,
        "beta": beta,
        "test_size": test_size,
        "reference_seed": ref_seed,
    }
