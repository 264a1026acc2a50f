"""Covers, entropy bounds, codebooks, and transport for lifted Gaussian laws.

Everything here works on finite sets of lifted paths sharing one dyadic grid.
The LiftedSet container stores stacked prefix signatures and caches their
increments over every dyadic pair, component-major, so pairwise_distance
reduces two sets to a Hölder distance matrix with the batched norm kernel of
paths, one memory-bounded block of rows and columns at a time, all blocks
sharing one workspace.

Probability enters through small-ball curves: the monotone -log p transform
and its inverse (isotonic regression, then linear interpolation in log-log
space) convert a Monte-Carlo curve into entropy and quantization bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_NORM_VARIANT, _resolve_variant
from .gaussian import (
    CovarianceModel,
    SamplerPlan,
    _cm_gram_factor,
    _cm_norm_from_factor,
    _index_streams,
    sample_path_block,
)
from .paths import (GridRoughPath, _check_holder_alpha, _chunk_bounds,
                    _component_difference, _component_major, _component_norms,
                    _dyadic_pairs, _gathered_increments, batch_prefix)
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

    For each block of rows and columns: the group differences over all
    dyadic pairs, their homogeneous norms, each divided by its level's
    (T 2^-l)^alpha, and the largest.  Blocks fit the kernel's chunk budget
    and share one workspace, so a call allocates its buffers once.
    """
    if not np.array_equal(x.times, y.times):
        raise ValueError("both sets must share one grid")
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    _check_holder_alpha(alpha)
    v = _resolve_variant(variant)
    bx, cx = x.dyadic_increments()
    by, cy = y.dyadic_increments()
    starts = _dyadic_pairs(x.n_steps)[2]
    horizon = x.times[-1]
    scale = np.array([(horizon * 0.5**level) ** alpha for level in range(len(starts))])
    d, m1, k = bx.shape
    pair_scale = np.repeat(scale, np.diff(starts, append=k))
    cell = k * (d + d * d)
    out = np.empty((m1, y.size))
    cols = _chunk_bounds(y.size, m1 * cell)
    # every block is at most as large as the first, so the workspace never grows
    rows = _chunk_bounds(m1, (cols[0][1] - cols[0][0]) * cell) if cols else []
    work = {}
    for clo, chi in cols:
        for rlo, rhi in rows:
            b, c = _component_difference(bx[:, rlo:rhi, None], cx[:, :, rlo:rhi, None],
                                         by[:, None, clo:chi], cy[:, :, None, clo:chi], work)
            norms = _component_norms(b, c, v, work)[0]
            # max(x) / s == max(x / s): correctly rounded division by s > 0 is monotone
            np.max(np.divide(norms, pair_scale, out=norms), axis=-1, out=out[rlo:rhi, clo:chi])
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
    if mesh_size > 1:
        scales = (1.0, 0.75, 0.5, 0.25)
        kernel = np.ones(5) / 5.0
        factor = _cm_gram_factor(model, times)
        for k, gen in enumerate(_index_streams(seed, 1, mesh_size), start=1):
            inc = gen.standard_normal((n_steps, d))
            for c in range(d):
                inc[:, c] = np.convolve(inc[:, c], kernel, mode="same")
            vals = np.zeros((n_steps + 1, d))
            np.cumsum(inc, axis=0, out=vals[1:])
            cm = _cm_norm_from_factor(factor, vals)
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


def _greedy_order(mesh: LiftedSet, alpha: float, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Farthest-point ordering.  radii[k] is the cover radius using the first
    k+1 centers, so the ordering serves every target radius at once."""
    m = mesh.size
    order = np.empty(m, dtype=np.intp)
    radii = np.empty(m)
    order[0] = 0
    dist = pairwise_distance(mesh.subset([0]), mesh, alpha, variant)[0]
    radii[0] = float(dist.max())
    for k in range(1, m):
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


def greedy_cover(mesh: BallMesh, alpha: float, eps: float,
                 variant: str = DEFAULT_NORM_VARIANT) -> CoverResult:
    """Cover a lifted kernel-ball mesh by greedy farthest-point centers.

    The center count is exact for the mesh (an upper-bound certificate for
    the mesh only; for the underlying ball it is a lower-bound observation).
    """
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
    value.  The curve's eps grid and Wilson upper limits are kept for bounds
    past that floor.
    """

    def __init__(self, curve: SBPCurve):
        order = np.argsort(curve.eps)
        self.curve_eps = curve.eps[order]
        self.curve_ci_high = curve.ci_high[order]
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
    from scipy.special import ndtr, ndtri

    if eta < 0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    tr = b_hat if isinstance(b_hat, SBPTransform) else SBPTransform(b_hat)
    b_eps = tr.value(eps)
    b_2eps = tr.value(2.0 * eps)
    upper = 0.5 * eta**2 + b_eps
    lower = float(np.log(ndtr(eta + ndtri(np.exp(-b_eps)))) + b_2eps)
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
    centers = []
    for k in range(n):
        members = assign == k
        b, c = GridRoughPath(samples.times, samples.B[members].mean(axis=0),
                             samples.C[members].mean(axis=0)).step_arrays()
        anti = 0.5 * (c - np.swapaxes(c, -1, -2))
        c = 0.5 * b[:, :, None] * b[:, None, :] + anti
        centers.append(GridRoughPath.from_steps(samples.times, (b, c)))
    return LiftedSet.from_paths(centers)


def lloyd_codebook(samples, n: int, r: float = 2.0, alpha: float = 0.4, seed: int = 0,
                   max_iter: int = 60, tol: float = 1e-6, mode: str = "auto",
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

    centers = samples.subset(_kmeanspp_init(samples, n, r, alpha, variant, seed))

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
    else:
        dist = None  # max_iter ran out: the centres moved after the last distances

    if mode == "mean":
        # polish: snap each center to its nearest assigned member
        if dist is None:
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
    small-ball curve is supplied, the lower bound inverts -log p at log(2n).
    Where log(2n) lies above the resolved curve, the bound is the largest
    curve eps whose Wilson upper limit is at most 1/(2n): p <= 1/(2n) there
    at 95%, so the bound stays conservative.  The bound claim
    E_hat >= bound is evaluated with 4-SE Monte-Carlo slack.  Needs at least
    two fresh samples for the standard error.
    """
    if fresh.size < 2:
        raise ValueError(f"fresh must hold at least 2 samples, got {fresh.size}")
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
        target = float(np.log(2.0 * codebook.n_centers))
        if np.log(target) <= tr.log_b[0] + 1e-12:
            bound = tr.inverse(target)
        else:
            below = tr.curve_eps[tr.curve_ci_high <= 0.5 / codebook.n_centers]
            if below.size == 0:
                raise ValueError(
                    f"target {target:g} exceeds the resolved curve maximum "
                    f"{tr.b_range[1]:g} and no curve point has p <= 1/(2n) at 95% "
                    "(resolution floor)")
            bound = float(below[-1])
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


def _transport_cost(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> float:
    """Minimal sum of flow x cost over plans with the given marginals.

    A transportation simplex on the bipartite tree of rows (nodes 0..m-1) and
    columns (nodes m..m+n-1), rooted at the last column; cell (i, j) carries
    flow from row i to column j.  The tree stays strongly feasible: every
    zero-flow cell hangs its row below its column, so flow runs towards the
    root.  That makes Cunningham's leaving rule (the last blocking cell met
    from the apex along the cycle) anti-cycling whatever cell enters.

    - Lines of zero weight carry no flow and are dropped first: a zero-weight
      column that is not the root hangs from a row by a zero-flow cell that
      points away from the root, so no tree keeping it is strongly feasible.
    - The start is the matrix-minimum tree of a perturbed problem: each row
      supplies epsilon more, each other column takes epsilon less and the
      root column takes the rest.  Remaining weights are compared as (weight,
      epsilon count) pairs, so each allocation closes one line and the tree
      comes out strongly feasible.
    - Each pivot enters the first most negative reduced cost and shifts the
      potentials of the subtree it re-hangs, and only those.
    """
    rows = np.flatnonzero(supply > 0)
    cols = np.flatnonzero(demand > 0)
    cost = cost[np.ix_(rows, cols)]
    m, n = cost.shape
    nodes = m + n
    root = nodes - 1

    left = [(w, 1) for w in supply[rows].tolist()] + [(w, -1) for w in demand[cols].tolist()]
    left[root] = (left[root][0], nodes - 1)
    is_open = [True] * nodes
    rows_left, cols_left = m, n
    adj = [[] for _ in range(nodes)]
    flow = {}
    order = np.argsort(cost, axis=None, kind="stable")
    for i, col in zip((order // n).tolist(), (order % n + m).tolist()):
        if not (is_open[i] and is_open[col]):
            continue
        s, d = left[i], left[col]
        x = s if s < d else d
        left[i] = (s[0] - x[0], s[1] - x[1])
        left[col] = (d[0] - x[0], d[1] - x[1])
        flow[i, col] = x[0]
        adj[i].append(col)
        adj[col].append(i)
        if rows_left == 1 and cols_left == 1:
            break
        # the last open row (column) closes columns (rows) whatever the
        # rounding of the weights left, so the tree gets m + n - 1 cells
        if rows_left > 1 and (cols_left == 1 or s < d):
            is_open[i] = False
            rows_left -= 1
        else:
            is_open[col] = False
            cols_left -= 1

    # hang the tree from the root; up[a] is the flow of the cell joining a to
    # its parent; pot holds u_i for rows and -v_j for columns, with
    # u_i + v_j = c_ij on tree cells and v = 0 at the root
    parent = [-1] * nodes
    depth = [0] * nodes
    up = [0.0] * nodes
    pot = [0.0] * nodes
    stack = [root]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b != parent[a]:
                parent[b], depth[b] = a, depth[a] + 1
                if b < m:
                    up[b] = flow[b, a]
                    pot[b] = cost.item(b, a - m) + pot[a]
                else:
                    up[b] = flow[a, b]
                    pot[b] = pot[a] - cost.item(a, b - m)
                stack.append(b)
    pot = np.array(pot)
    u, minus_v = pot[:m], pot[m:]

    tol = -1e-12 * max(1.0, float(np.abs(cost).max()))
    reduced = np.empty_like(cost)
    # a strongly feasible tree cannot cycle, so the cap only stops a stall
    # that rounding could cause; the benchmark's problems (96 x 8 to 96 x 32)
    # take about 70 pivots on average
    max_pivots = 20 * m * n + 100
    for _ in range(max_pivots):
        np.subtract(cost, u[:, None], out=reduced)
        reduced += minus_v
        k = int(reduced.argmin())
        delta = float(reduced.flat[k])
        if delta >= tol:
            break
        p, q = divmod(k, n)
        q += m
        # the tree paths from p and from q up to their apex
        p_path, q_path = [], []
        a, b = p, q
        while depth[a] > depth[b]:
            p_path.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            q_path.append(b)
            b = parent[b]
        while a != b:
            p_path.append(a)
            q_path.append(b)
            a, b = parent[a], parent[b]
        # the cycle runs apex -> p -> q -> apex and theta more flows p -> q;
        # the cells it runs against (rows' cells on p's side, columns' on q's)
        # shrink, and the last of them to reach zero leaves
        theta, leave, on_p = np.inf, -1, True
        for a in reversed(p_path):
            if a < m and up[a] <= theta:
                theta, leave = up[a], a
        for b in q_path:
            if b >= m and up[b] <= theta:
                theta, leave, on_p = up[b], b, False
        if theta > 0.0:
            for a in p_path:
                up[a] += -theta if a < m else theta
            for b in q_path:
                up[b] += theta if b < m else -theta
        # re-hang the subtree below the leaving cell from the entering cell:
        # the path up to the leaving cell reverses, its flows move down a node
        old = parent[leave]
        adj[leave].remove(old)
        adj[old].remove(leave)
        adj[p].append(q)
        adj[q].append(p)
        start, attach, path = (p, q, p_path) if on_p else (q, p, q_path)
        carried = theta
        for a in path:
            carried, up[a] = up[a], carried
            if a == leave:
                break
        parent[start], depth[start] = attach, depth[attach] + 1
        moved = [start]
        for a in moved:
            for b in adj[a]:
                if b != parent[a]:
                    parent[b], depth[b] = a, depth[a] + 1
                    moved.append(b)
        # u + v stays on the moved subtree's cells and the entering cell's
        # reduced cost becomes zero
        pot[moved] += delta if start < m else -delta
    else:
        raise RuntimeError(f"transport simplex did not converge in {max_pivots} pivots")

    # one rounding of the exact sum, whatever the order of the tree's cells
    return math.fsum(up[a] * (cost.item(a, parent[a] - m) if a < m
                              else cost.item(parent[a], a - m)) for a in range(root))


def wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, r: float, alpha: float,
                variant: str = DEFAULT_NORM_VARIANT,
                cost_matrix: np.ndarray | None = None) -> float:
    """W_r between finitely supported measures (cost = distance^r).

    Solved exactly by a transportation simplex: the optimal plan is a
    spanning tree of at most m + n - 1 cells, and its cost is summed with
    one rounding (math.fsum), so the same input always gives the same
    float.  Supports up to 4096 combined atoms.  cost_matrix overrides the
    distance computation when the caller has it already.
    """
    if not 0.0 < r < np.inf:
        raise ValueError(f"r must be positive and finite, got {r}")
    m, n = mu.atoms.size, nu.atoms.size
    if m + n > 4096:
        raise ValueError(f"combined support {m + n} exceeds the 4096-atom limit")
    if cost_matrix is None:
        cost_matrix = pairwise_distance(mu.atoms, nu.atoms, alpha, variant) ** r
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.shape != (m, n):
        raise ValueError("cost matrix shape mismatch")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    total = _transport_cost(cost, mu.weights, nu.weights)
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
