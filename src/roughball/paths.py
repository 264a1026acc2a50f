"""Grid rough paths: signature lifts, Hoelder metrics, dyadic bounds, translation.

A grid rough path stores the running signature (prefix products) of its steps,
so the group increment between any two grid indices i, j is the closed form

    level1 = B[j] - B[i]
    level2 = C[j] - C[i] - B[i] (x) (B[j] - B[i])

which is Chen-consistent by construction.

Every Hoelder norm is taken on log coordinates (b, A): the level-1
increment b and the Levy area A, the antisymmetric log level 2 of a
geometric element, kept as its d(d-1)/2 entries above the diagonal in
np.triu_indices order.  algebra.batch_homogeneous_norm takes the norms and
difference_increments forms the log coordinates of group differences,

    x^{-1} y  ->  (by - bx, Ay - Ax - 1/2 bx ^ by),  (u ^ v)_ij = u_i v_j - u_j v_i,

which negates exactly when x and y swap, so every distance is exactly
symmetric.  Both work component-major, level 1 (d, ...) and area (P, ...),
so every ufunc runs over long contiguous rows.

The dyadic norms (dyadic_level_maxima: the small-ball sampler, the
anderson, cameron_martin and rough Borell checks) build no prefix and
gather nothing.  Their leaves are the grid steps (delta, 0), and each
dyadic level follows from the one below it by Chen's identity,

    b = b1 + b2,   A = A1 + A2 + 1/2 b1 ^ b2,

one pass over the adjacent pairs of each level, finest first, into one
array of all 2N-1 pairs; one norm call and one maximum.reduceat per chunk
of paths give every level's maxima.  The gathered
routes (the all-pairs and lemma-bound samplers of smallball,
quantize.pairwise_distance and the object API: holder_distance,
holder_norm, dyadic_holder_bound) lift a block with batch_prefix, gather a
pair family's increments with pair_increments, and take A = 1/2 (c - c^T)
above the diagonal of each gathered level 2 c.  Paths and pairs are walked in
chunks from _chunk_bounds.  A distance matrix divides each pair's norm by
its level's scale and takes one max instead: correctly rounded division by
s > 0 is monotone, so max(x) / s == max(x / s) exactly.

This module does no file I/O.  GridRoughPath.to_dict/from_dict give the JSON
form that the runner writes into codebook artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import G2Element, _resolve_variant, _scratch, batch_homogeneous_norm


# Argument rules shared by the library's entry points and by config; like
# every argument rule, they raise ValueError('<argument>: <rule>').


def _at_least(low, **values) -> None:
    for name, value in values.items():
        if value < low:
            raise ValueError(f"{name}: must be >= {low}, got {value}")


def _positive(name: str, value) -> None:
    if not value > 0:
        raise ValueError(f"{name}: must be > 0, got {value}")


def _power_of_two(low: int, **values) -> None:
    """The step counts of dyadic grids: 2^L steps, at least low of them."""
    for name, value in values.items():
        if value < low or value & (value - 1):
            raise ValueError(f"{name}: must be a power of two >= {low}, got {value}")


def _check_holder_alpha(alpha: float) -> None:
    """The Hölder exponents of grid distances and bounds: alpha in (0, 1]."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha: must lie in (0, 1], got {alpha}")


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a vector with at least two entries")
    if not np.all(np.isfinite(times)):
        raise ValueError("times contain non-finite entries")
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    return times


def _check_uniform(times: np.ndarray) -> float:
    """The length T > 0 of a grid of equal steps, to 1e-12 T: the grids of
    dyadic pair families."""
    T = times[-1] - times[0]
    dt = np.diff(times)
    if not (0.0 < T < np.inf and np.abs(dt - dt[0]).max() <= 1e-12 * T):
        raise ValueError("times: must be a uniform grid")
    return T


@dataclass(frozen=True)
class CMPath:
    """Absolutely continuous drift path sampled on a grid: times (N+1,), values (N+1, d)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = _check_times(self.times)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != times.shape[0]:
            raise ValueError(
                f"values rows ({values.shape[0]}) must match times ({times.shape[0]})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values contain non-finite entries")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1


class GridRoughPath:
    """Step-2 rough path on a time grid, stored as prefix signatures."""

    def __init__(self, times, prefix_level1, prefix_level2):
        self.times = _check_times(times)
        B = np.asarray(prefix_level1, dtype=float)
        C = np.asarray(prefix_level2, dtype=float)
        n = self.times.shape[0]
        if B.ndim != 2 or B.shape[0] != n:
            raise ValueError(f"prefix_level1 must have shape ({n}, d)")
        d = B.shape[1]
        if C.shape != (n, d, d):
            raise ValueError(f"prefix_level2 must have shape ({n}, {d}, {d})")
        if not (np.all(np.isfinite(B)) and np.all(np.isfinite(C))):
            raise ValueError("prefix arrays contain non-finite entries")
        if np.any(B[0] != 0.0) or np.any(C[0] != 0.0):
            raise ValueError("prefix arrays must start at the unit element")
        self.prefix_level1 = B
        self.prefix_level2 = C

    @property
    def dim(self) -> int:
        return self.prefix_level1.shape[1]

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @classmethod
    def from_steps(cls, times, steps) -> "GridRoughPath":
        """Build from per-step group elements (list of G2Element, or (b, c) arrays)."""
        times = _check_times(times)
        n = times.shape[0] - 1
        if isinstance(steps, tuple):
            b_steps, c_steps = steps
            b_steps = np.asarray(b_steps, dtype=float)
            c_steps = np.asarray(c_steps, dtype=float)
        else:
            if len(steps) != n:
                raise ValueError(f"expected {n} steps, got {len(steps)}")
            b_steps = np.stack([s.level1 for s in steps])
            c_steps = np.stack([s.level2 for s in steps])
        if b_steps.shape[0] != n or c_steps.shape[0] != n:
            raise ValueError(f"expected {n} steps, got {b_steps.shape[0]}")
        d = b_steps.shape[1]
        B = np.zeros((n + 1, d))
        C = np.zeros((n + 1, d, d))
        np.cumsum(b_steps, axis=0, out=B[1:])
        # Chen chaining: each step contributes its own level 2 plus the cross
        # term of the running level 1 with the step's level 1.
        cross = B[:-1, :, None] * b_steps[:, None, :]
        np.cumsum(c_steps + cross, axis=0, out=C[1:])
        return cls(times, B, C)

    def step_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-step group elements as arrays: (N, d) level 1 and (N, d, d) level 2."""
        b = np.diff(self.prefix_level1, axis=0)
        c = (
            np.diff(self.prefix_level2, axis=0)
            - self.prefix_level1[:-1, :, None] * b[:, None, :]
        )
        return b, c

    def increment(self, i: int, j: int) -> G2Element:
        """Group increment between grid indices i and j."""
        n = self.times.shape[0]
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"indices ({i}, {j}) outside grid of {n} points")
        b = self.prefix_level1[j] - self.prefix_level1[i]
        c = (
            self.prefix_level2[j]
            - self.prefix_level2[i]
            - np.outer(self.prefix_level1[i], b)
        )
        return G2Element(b, c)

    def to_dict(self) -> dict:
        """JSON form: times and one G2Element.to_flat row per step."""
        b, c = self.step_arrays()
        n, d = b.shape
        steps = np.concatenate([np.full((n, 1), float(d)), b, c.reshape(n, d * d)], axis=1)
        return {"times": self.times.tolist(), "steps": steps.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "GridRoughPath":
        times = np.asarray(payload["times"], dtype=float)
        steps = [G2Element.from_flat(row) for row in payload["steps"]]
        return cls.from_steps(times, steps)


# ---------------------------------------------------------------------------
# Lifts
# ---------------------------------------------------------------------------


def batch_prefix(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix signatures of piecewise-linear paths, component-major.

    values has shape (S, N+1, d); returns level-1 prefixes (d, S, N+1) and
    level-2 prefixes (d, d, S, N+1).  Each linear step contributes
    (delta, 0.5 * delta (x) delta) and steps chain by the group product.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise ValueError("values must have shape (S, N+1, d)")
    vt = np.ascontiguousarray(values.transpose(2, 0, 1))
    delta = vt[..., 1:] - vt[..., :-1]
    d, S, N = delta.shape
    B = np.zeros((d, S, N + 1))
    np.cumsum(delta, axis=-1, out=B[..., 1:])
    term = (B[..., :-1] + 0.5 * delta)[:, None] * delta[None, :]
    C = np.zeros((d, d, S, N + 1))
    np.cumsum(term, axis=-1, out=C[..., 1:])
    return B, C


def lift_piecewise_linear(path: CMPath) -> GridRoughPath:
    """Canonical step-2 signature lift of a piecewise-linear grid path.

    The level-2 part of each step is half the squared increment, so the lift is
    weakly geometric and invariant under grid refinement of the same polygon.
    """
    B, C = batch_prefix(path.values[None])
    return GridRoughPath(path.times, B[:, 0].T, C[:, :, 0].transpose(2, 0, 1))


def trivial_rough_path(times, dim: int) -> GridRoughPath:
    """Lift of the constant path: every increment is the group unit."""
    times = _check_times(times)
    n = times.shape[0]
    return GridRoughPath(times, np.zeros((n, dim)), np.zeros((n, dim, dim)))


def increment(x: GridRoughPath, i: int, j: int) -> G2Element:
    """Module-level alias for GridRoughPath.increment."""
    return x.increment(i, j)


# ---------------------------------------------------------------------------
# Pair families and batched increment extraction
# ---------------------------------------------------------------------------


def all_pair_indices(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """All grid pairs i < j."""
    i_idx, j_idx = np.triu_indices(n_points, k=1)
    return i_idx.astype(np.intp), j_idx.astype(np.intp)


def dyadic_pair_indices(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Adjacent dyadic pairs (m 2^{-l} T, (m+1) 2^{-l} T) for every level l >= 0.

    Requires a dyadic grid (n_points = 2^L + 1).
    """
    _power_of_two(1, **{"n_points - 1": n_points - 1})
    return _dyadic_pairs(n_points - 1)[:2]


def pair_increments(B, C, i_idx, j_idx) -> tuple[np.ndarray, np.ndarray]:
    """Group increments for index pairs, from component-major prefix arrays.

    B has shape (d, ..., N+1) and C (d, d, ..., N+1); i_idx and j_idx are
    index arrays of shape (K,).  Returns level 1 (d, ..., K) and level 2
    (d, d, ..., K).
    """
    Bi = np.take(B, i_idx, axis=-1)
    b = np.take(B, j_idx, axis=-1) - Bi
    c = np.take(C, j_idx, axis=-1) - np.take(C, i_idx, axis=-1) - Bi[:, None] * b[None, :]
    return b, c


def _area(c):
    """Log areas (P, ...) of geometric elements from their level 2 c (d, d, ...):
    1/2 (c_ij - c_ji) for i < j, in np.triu_indices(d, 1) order."""
    i, j = np.triu_indices(len(c), 1)
    return 0.5 * (c[i, j] - c[j, i])


def _half_wedge(u, v, work=None):
    """1/2 (u ^ v) (P, ...) of level-1 stacks u and v (d, ...), broadcast;
    (u ^ v)_ij = u_i v_j - u_j v_i for i < j."""
    pairs = list(zip(*np.triu_indices(len(u), 1)))
    w = _scratch(work, "wedge", (len(pairs),) + np.broadcast(u[0], v[0]).shape)
    for k, (i, j) in enumerate(pairs):
        np.subtract(np.multiply(u[i], v[j], out=w[k]), u[j] * v[i], out=w[k])
    w *= 0.5
    return w


def difference_increments(bx, ax, by, ay, work=None) -> tuple[np.ndarray, np.ndarray]:
    """Log coordinates of the group differences x^{-1} * y from those of x
    and y, component-major: level 1 (d, ...) and area (P, ...), broadcast.
    Returns (by - bx, ay - ax - 1/2 bx ^ by), which swapping x and y negates
    exactly.  With a workspace dict (see algebra._scratch) the results live
    in its buffers."""
    b = np.subtract(by, bx, out=_scratch(work, "b", np.broadcast(by, bx).shape))
    a = np.subtract(ay, ax, out=_scratch(work, "a", np.broadcast(ay, ax).shape))
    if len(a):
        a -= _half_wedge(bx, by, work)
    return b, a


def _dyadic_pairs(n_steps: int):
    """Pairs of every dyadic level of a 2^L-step grid, coarsest level first.

    Level l holds the 2^l pairs (m s, (m+1) s) with s = n_steps >> l and
    starts at position 2^l - 1 of the returned index arrays.
    """
    strides = [n_steps >> level for level in range(n_steps.bit_length())]
    i_idx = np.concatenate([np.arange(0, n_steps, s, dtype=np.intp) for s in strides])
    j_idx = i_idx + np.repeat(strides, [n_steps // s for s in strides])
    starts = np.array([n_steps // s - 1 for s in strides], dtype=np.intp)
    return i_idx, j_idx, starts


def _component_major(B, C):
    """Component-major views (d, ..., N+1) and (d, d, ..., N+1) of sample-major
    prefix arrays (..., N+1, d) and (..., N+1, d, d), without a copy."""
    return np.moveaxis(B, -1, 0), np.moveaxis(C, (-2, -1), (0, 1))


# The kernel walks its items (paths, one path's grid pairs, or the columns, then
# the rows of a distance matrix) in equal chunks whose increments hold about
# _KERNEL_CHUNK_FLOATS floats, 512 KB: the dyadic trees of about 21 paths at
# N=512, d=2 or 128 at N=256, d=1, and 516 rows of one column for a d=1, N=64
# distance matrix (its workspace is 2x larger).  Chunks four times larger ran
# 1.2x (d=2) to 2x (d=1) slower on one thread, as their temporaries fall out of
# a 2 MB L2 cache and are handed back to the OS and re-faulted on every call;
# chunks four times smaller paid about 1.3x in per-call overhead.
_KERNEL_CHUNK_FLOATS = 2**16


def _chunk_bounds(n_items: int, floats_per_item: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of equal kernel chunks of n_items, at least one item each, largest first."""
    n_chunks = min(n_items, max(1, -(-n_items * floats_per_item // _KERNEL_CHUNK_FLOATS)))
    bounds = [-(-k * n_items // n_chunks) for k in range(n_chunks + 1)] if n_items else []
    return list(zip(bounds[:-1], bounds[1:]))


def _dyadic_tree(values, work=None):
    """Log coordinates of every dyadic increment of paths (S, N+1, d),
    component-major, level 1 (d, S, 2N-1) and area (P, S, 2N-1), pairs in
    _dyadic_pairs' order.  The finest level holds the steps, with zero area;
    each coarser level combines adjacent pairs (b1, A1), (b2, A2) of the one
    below by Chen's identity: b1 + b2 and (A1 + A2) + 1/2 b1 ^ b2."""
    vt = values.transpose(2, 0, 1)
    d, S, n_points = vt.shape
    n_steps = n_points - 1
    b = _scratch(work, "tree_b", (d, S, 2 * n_steps - 1))
    a = _scratch(work, "tree_a", (d * (d - 1) // 2, S, 2 * n_steps - 1))
    np.subtract(vt[..., 1:], vt[..., :-1], out=b[..., n_steps - 1:])
    a[..., n_steps - 1:] = 0.0
    k = n_steps  # the level below has k pairs, from position k - 1
    while k > 1:
        b1, b2 = b[..., k - 1:2 * k - 1:2], b[..., k:2 * k - 1:2]
        coarse = slice(k // 2 - 1, k - 1)
        np.add(b1, b2, out=b[..., coarse])
        np.add(a[..., k - 1:2 * k - 1:2], a[..., k:2 * k - 1:2], out=a[..., coarse])
        if len(a):
            a[..., coarse] += _half_wedge(b1, b2, work)
        k //= 2
    return b, a


def dyadic_level_maxima(values: np.ndarray, variant: str | None = None,
                        centre: np.ndarray | None = None):
    """Per-level maxima of dyadic increment norms for a block of lifted paths.

    values has shape (S, N+1, d) with N = 2^L; level l covers the pairs
    (m N 2^-l, (m+1) N 2^-l).  Returns (rough, path, centred), each (S, L+1)
    except centred: the largest homogeneous norm of a level-l increment of
    each path's lift, the largest norm of its level-1 part (the terms |b_i|
    added, or the largest for sup, in index order as in the homogeneous
    norm; at d = 1 the same array as rough), and, when a centre path
    (N+1, d) is given, the largest norm of the level-l increments of the
    group difference from the path's lift to the centre's lift (None
    without a centre).

    The increments come from a dyadic tree on log coordinates
    (_dyadic_tree), built from the steps up by Chen's identity; the centre's
    tree is built once.
    """
    v = _resolve_variant(variant)
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise ValueError("values must have shape (S, N+1, d)")
    S, n_points, d = values.shape
    n_steps = n_points - 1
    _power_of_two(1, n_steps=n_steps)
    starts = _dyadic_pairs(n_steps)[2]
    rough = np.empty((S, len(starts)))
    path = rough if d == 1 else np.empty_like(rough)
    centred = None
    if centre is not None:
        centre = np.asarray(centre, dtype=float)
        if centre.shape != values.shape[1:]:
            raise ValueError(f"centre must have shape {values.shape[1:]}, got {centre.shape}")
        centre_tree = _dyadic_tree(centre[None])
        centred = np.empty_like(rough)
    work = {}
    for lo, hi in _chunk_bounds(S, (2 * n_steps - 1) * (d + d * (d - 1) // 2)):
        tree = _dyadic_tree(values[lo:hi], work)
        norms = batch_homogeneous_norm(*tree, v, work)
        np.maximum.reduceat(norms, starts, axis=-1, out=rough[lo:hi])
        if d > 1:  # the level-1 part of the norms just taken
            np.maximum.reduceat(_scratch(work, "level1", norms.shape), starts, axis=-1,
                                out=path[lo:hi])
        if centre is not None:
            diff = difference_increments(*tree, *centre_tree, work)
            np.maximum.reduceat(batch_homogeneous_norm(*diff, v, work), starts, axis=-1,
                                out=centred[lo:hi])
    return rough, path, centred


# ---------------------------------------------------------------------------
# Geometric defect and Chen audit
# ---------------------------------------------------------------------------


def geometric_defect(x: GridRoughPath) -> float:
    """Max over grid pairs of the sup-norm gap between Sym(level2) and half the
    squared level-1 increment.  Zero (to rounding) exactly for weakly geometric
    paths; a corrupted step shows up in every pair that spans it."""
    B, C = _component_major(x.prefix_level1, x.prefix_level2)
    i_all, j_all = all_pair_indices(x.times.shape[0])
    worst = 0.0
    for lo, hi in _chunk_bounds(len(i_all), x.dim + x.dim**2):
        b, c = pair_increments(B, C, i_all[lo:hi], j_all[lo:hi])
        gap = 0.5 * (c + np.swapaxes(c, 0, 1)) - 0.5 * b[:, None] * b[None, :]
        worst = max(worst, float(np.abs(gap).max()))
    return worst


def chen_defect(x: GridRoughPath, n_triples: int = 200, seed: int = 0) -> float:
    """Max violation of increment(i,j) = increment(i,k) * increment(k,j) over
    random index triples i < k < j.  Diagnostic; zero to rounding by construction."""
    rng = np.random.default_rng(seed)
    n = x.times.shape[0]
    if n < 3:
        return 0.0
    worst = 0.0
    for _ in range(n_triples):
        i, k, j = np.sort(rng.choice(n, size=3, replace=False))
        if i == k or k == j:
            continue
        left = x.increment(i, j)
        a = x.increment(i, k)
        b = x.increment(k, j)
        lvl1 = a.level1 + b.level1
        lvl2 = a.level2 + b.level2 + np.outer(a.level1, b.level1)
        worst = max(
            worst,
            float(np.abs(left.level1 - lvl1).max()),
            float(np.abs(left.level2 - lvl2).max()),
        )
    return worst


# ---------------------------------------------------------------------------
# Hoelder metrics
# ---------------------------------------------------------------------------


def _resolve_pairs(x: GridRoughPath, pair_set) -> tuple[np.ndarray, np.ndarray]:
    n = x.times.shape[0]
    if pair_set == "all":
        return all_pair_indices(n)
    if pair_set == "dyadic":
        return dyadic_pair_indices(n)
    raise ValueError(f"unknown pair_set {pair_set!r}, expected 'all' or 'dyadic'")


def _check_same_grid(x, y):  # paths, drift paths or lifted sets
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if x.times.shape != y.times.shape or not np.array_equal(x.times, y.times):
        raise ValueError("paths must share the same time grid")


def holder_distance(
    x: GridRoughPath,
    y: GridRoughPath,
    alpha: float,
    pair_set: str = "all",
    variant: str | None = None,
) -> float:
    """Hoelder distance: sup over grid pairs of the homogeneous norm of the
    increment difference x_{s,t}^{-1} * y_{s,t}, weighted by |t-s|^{-alpha}.

    pair_set 'all' uses every grid pair (exact on the grid); 'dyadic' restricts
    to adjacent dyadic pairs at every level, a cheap lower bound.
    """
    _check_same_grid(x, y)
    _check_holder_alpha(alpha)
    v = _resolve_variant(variant)
    i_all, j_all = _resolve_pairs(x, pair_set)
    weights = (x.times[j_all] - x.times[i_all]) ** alpha
    Bx, Cx = _component_major(x.prefix_level1, x.prefix_level2)
    By, Cy = _component_major(y.prefix_level1, y.prefix_level2)
    worst = 0.0
    for lo, hi in _chunk_bounds(len(i_all), x.dim + x.dim**2):
        i_idx, j_idx = i_all[lo:hi], j_all[lo:hi]
        bx, cx = pair_increments(Bx, Cx, i_idx, j_idx)
        by, cy = pair_increments(By, Cy, i_idx, j_idx)
        norms = batch_homogeneous_norm(*difference_increments(bx, _area(cx), by, _area(cy)), v)
        worst = max(worst, float((norms / weights[lo:hi]).max()))
    return worst


def holder_norm(
    x: GridRoughPath,
    alpha: float,
    pair_set: str = "all",
    variant: str | None = None,
) -> float:
    """Hoelder norm of x: distance to the lift of the constant path."""
    return holder_distance(
        x, trivial_rough_path(x.times, x.dim), alpha, pair_set=pair_set, variant=variant
    )


# ---------------------------------------------------------------------------
# Dyadic discretisation bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicBoundResult:
    """Right-hand side of the dyadic Hoelder majorant, with audit metadata."""

    value: float
    coarse_term: float
    fine_term: float
    alpha: float
    eps: float
    grid_depth: int
    truncation: str = "grid-resolution"


def _lemma_depths(times: np.ndarray, alpha: float, eps: float) -> tuple[int, int]:
    """Grid depth L and window depth e of the dyadic majorant, after checking
    a uniform grid of 2^L steps, alpha in (0, 1] and eps = T 2^-e, 1 <= e < L."""
    n_steps = times.shape[0] - 1
    _power_of_two(2, n_steps=n_steps)
    T = _check_uniform(times)
    L = n_steps.bit_length() - 1
    _check_holder_alpha(alpha)
    ratio = T / eps
    e = int(round(np.log2(ratio)))
    if e < 1 or e >= L or abs(ratio - 2.0**e) > 1e-9 * ratio:
        raise ValueError(
            f"eps must equal T * 2^-e with 1 <= e < grid depth {L}; got eps={eps}"
        )
    return L, e


def _lemma_terms(norms: np.ndarray, alpha: float, eps: float,
                 e: int) -> tuple[np.ndarray, np.ndarray]:
    """Coarse and fine terms (S,) of the dyadic majorant from the norms
    (S, 2N-1) of every dyadic pair of S paths, in _dyadic_pairs' order."""
    S, K = norms.shape
    starts = _dyadic_pairs((K + 1) // 2)[2]
    L = len(starts) - 1
    level_sups = np.maximum.reduceat(norms, starts, axis=-1)

    # Coarse term: dyadic expansion of increments from the origin.
    coarse = 2.0 * level_sups[:, 1:].sum(axis=-1) / eps**alpha

    # Fine term: windows of width eps 2^{-j} starting at multiples of the width,
    # each decomposed over levels j+1 .. L-e of width eps 2^{-l}.
    fine = np.zeros(S)
    for j in range(0, L - e):
        i_max = (2**j) * (2**e - 1)
        window_sums = np.zeros((S, i_max + 1))
        for level in range(j + 1, L - e + 1):
            w = 2 ** (level - j)
            lo = starts[e + level]
            window_sums += norms[:, lo:lo + (i_max + 1) * w].reshape(S, -1, w).max(axis=-1)
        denom = eps**alpha * 2.0 ** (-alpha * (j + 1))
        np.maximum(fine, 3.0 * window_sums.max(axis=-1) / denom, out=fine)
    return coarse, fine


def dyadic_holder_bound(
    x: GridRoughPath,
    alpha: float,
    eps: float,
    variant: str | None = None,
) -> DyadicBoundResult:
    """Hoelder-norm majorant from dyadic increments only.

    The majorant is the max of a coarse term (2 x the sum over levels of the
    worst uniform dyadic increment norm, scaled by eps^-alpha) and a fine term
    (3 x the worst windowed level sum over short offsets, scaled by
    (eps 2^{-j-1})^-alpha).  Level sums run to the grid depth; increments below
    grid resolution are unrepresentable, which the result flags as the
    truncation mode.

    Requires a uniform grid of 2^L steps starting at 0, and eps = T 2^{-e}
    with 1 <= e < L so every window endpoint is a grid point.
    """
    L, e = _lemma_depths(x.times, alpha, eps)
    b, c = pair_increments(*_component_major(x.prefix_level1, x.prefix_level2),
                           *_dyadic_pairs(x.n_steps)[:2])
    norms = batch_homogeneous_norm(b, _area(c), variant)
    coarse, fine = (float(term[0]) for term in _lemma_terms(norms[None], alpha, eps, e))
    return DyadicBoundResult(
        value=max(coarse, fine),
        coarse_term=coarse,
        fine_term=fine,
        alpha=float(alpha),
        eps=float(eps),
        grid_depth=L,
    )


# ---------------------------------------------------------------------------
# Translation by an absolutely continuous path
# ---------------------------------------------------------------------------


def translate(x: GridRoughPath, h: CMPath) -> GridRoughPath:
    """Translate a rough path by a drift path sampled on the same grid.

    Per step, level 1 gains the drift increment and level 2 gains the three
    cross/self integrals of the linear interpolants, each of which reduces to
    half an outer product of the step increments.  The construction chains by
    the group product, commutes for successive drifts (T^g T^h = T^{g+h}) and
    preserves the weakly geometric relation exactly.
    """
    _check_same_grid(x, h)
    b, c = x.step_arrays()
    dh = np.diff(h.values, axis=0)
    cross = b[:, :, None] * dh[:, None, :]
    new_b = b + dh
    new_c = (
        c
        + 0.5 * (cross + np.swapaxes(cross, -1, -2))
        + 0.5 * dh[:, :, None] * dh[:, None, :]
    )
    return GridRoughPath.from_steps(x.times, (new_b, new_c))


# ---------------------------------------------------------------------------
# Mixed variation functional for drift paths
# ---------------------------------------------------------------------------


def q_variation(values: np.ndarray, q: float) -> float:
    """q-variation of a discrete path over its own grid, by dynamic programming.

    Maximizes sum |increment|_2^q over all sub-partitions; the inner maximum is
    a standard O(n^2) recursion.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    _at_least(1.0, q=q)
    n = values.shape[0]
    if n < 2:
        return 0.0
    dist = np.linalg.norm(values[None, :, :] - values[:, None, :], axis=-1) ** q
    best = np.zeros(n)
    for j in range(1, n):
        best[j] = np.max(best[:j] + dist[:j, j])
    return float(best[-1] ** (1.0 / q))
