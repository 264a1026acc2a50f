"""Grid rough paths: signature lifts, Hoelder metrics, dyadic bounds, translation.

A grid rough path stores the running signature (prefix products) of its steps,
so the group increment between any two grid indices i, j is the closed form

    level1 = B[j] - B[i]
    level2 = C[j] - C[i] - B[i] (x) (B[j] - B[i])

which is Chen-consistent by construction.  Batch variants of the hot operations
(lifting, increment extraction, homogeneous norms over dyadic pair families)
work on stacked arrays and carry the Monte-Carlo layers; the object API stays
convenient for single paths.

Every Hoelder norm runs through one kernel: dyadic_level_maxima (the
small-ball sampler, the anderson, cameron_martin and rough Borell checks),
the all-pairs and lemma-bound samplers of smallball, quantize.pairwise_distance
and the object API (holder_distance, holder_norm, geometric_defect,
dyadic_holder_bound).  It stores lifts component-major, B as (d, S, N+1) and
C as (d, d, S, N+1), so every ufunc runs over long contiguous rows;
sample-major arrays (S, N+1, d) would make numpy run millions of inner loops
of length d.  A single path's prefix arrays enter as component-major views.
A pair family, such as all 2N-1 dyadic pairs, is taken along the grid axis in
one gather, and one maximum.reduceat gives every dyadic level's maximum: about
twenty numpy calls per chunk of paths, where a pass per level costs ten times
as many short calls, which make two worker threads wait on each other.  Paths
and pairs are walked in chunks from _chunk_bounds.  A distance matrix divides
each pair's norm by its level's scale and takes one max instead: correctly
rounded division by s > 0 is monotone, so max(x) / s == max(x / s) exactly.

The sample-major functions batch_prefix, pair_increments,
difference_increments and algebra.batch_homogeneous_norm stay public entry
points.  Nothing in the package calls the last three: the test oracles use
them as bit-identity references and the benchmark tracer rebinds them by name.
The kernel repeats their arithmetic operation for operation, including
numpy's summation order over the d and d x d terms, so both routes give
bit-identical norms.

This module does no file I/O.  GridRoughPath.to_dict/from_dict give the JSON
form that the runner writes into codebook artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import G2Element, _resolve_variant


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


def _component_prefix(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix signatures of piecewise-linear paths, component-major.

    values has shape (S, N+1, d); returns level-1 prefixes (d, S, N+1) and
    level-2 prefixes (d, d, S, N+1).  Each linear step contributes
    (delta, 0.5 * delta (x) delta) and steps chain by the group product.
    """
    vt = np.ascontiguousarray(values.transpose(2, 0, 1))
    delta = vt[..., 1:] - vt[..., :-1]
    d, S, N = delta.shape
    B = np.zeros((d, S, N + 1))
    np.cumsum(delta, axis=-1, out=B[..., 1:])
    term = (B[..., :-1] + 0.5 * delta)[:, None] * delta[None, :]
    C = np.zeros((d, d, S, N + 1))
    np.cumsum(term, axis=-1, out=C[..., 1:])
    return B, C


def batch_prefix(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix signatures of piecewise-linear paths, batched.

    values has shape (S, N+1, d); returns level-1 prefixes (S, N+1, d) and
    level-2 prefixes (S, N+1, d, d).  Each linear step contributes
    (delta, 0.5 * delta (x) delta) and steps chain by the group product.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise ValueError("values must have shape (S, N+1, d)")
    B, C = _component_prefix(values)
    return (np.ascontiguousarray(np.moveaxis(B, 0, -1)),
            np.ascontiguousarray(np.moveaxis(C, (0, 1), (-2, -1))))


def lift_piecewise_linear(path: CMPath) -> GridRoughPath:
    """Canonical step-2 signature lift of a piecewise-linear grid path.

    The level-2 part of each step is half the squared increment, so the lift is
    weakly geometric and invariant under grid refinement of the same polygon.
    """
    B, C = batch_prefix(path.values[None])
    return GridRoughPath(path.times, B[0], C[0])


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


def pair_increments(
    B: np.ndarray, C: np.ndarray, i_idx: np.ndarray, j_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group increments for index pairs, from prefix arrays.

    B has shape (..., N+1, d) and C (..., N+1, d, d).  i_idx and j_idx are
    index arrays of shape (K,), or slices selecting K grid points each (a
    stride slice such as slice(0, N, s), slice(s, None, s) takes a view
    instead of a gather).  Returns level 1 (..., K, d) and level 2
    (..., K, d, d).
    """
    Bi = B[..., i_idx, :]
    b = B[..., j_idx, :] - Bi
    c = C[..., j_idx, :, :] - C[..., i_idx, :, :] - Bi[..., :, None] * b[..., None, :]
    return b, c


def difference_increments(bx, cx, by, cy) -> tuple[np.ndarray, np.ndarray]:
    """Increments of the group difference x^{-1} * y from per-pair increments."""
    b = by - bx
    c = cy - cx - bx[..., :, None] * b[..., None, :]
    return b, c


def _scratch(work, name, shape):
    """An uninitialised float array from the caller's workspace dict: a view,
    cached per (name, shape), of one flat buffer per name that grows on
    demand.  None without a workspace, so that out=None allocates."""
    if work is None:
        return None
    view = work.get((name, shape))
    if view is None:
        size = math.prod(shape)
        if name not in work or work[name].size < size:
            work[name] = np.empty(size)
        view = work[name, shape] = work[name][:size].reshape(shape)
    return view


def _component_sum(x, work, name):
    """x[0] + x[1] + ... over the leading axis, in numpy's order for a sum over
    a contiguous trailing axis of that length: batch_homogeneous_norm's order.
    With a workspace dict the result goes into its buffer `name`."""
    out = _scratch(work, name, x.shape[1:]) if len(x) > 1 else None
    if len(x) < 8:
        # numpy's pairwise summation is a sequential fold below 8 terms
        total = x[0]
        for row in x[1:]:
            total = np.add(total, row, out=out)
        return total
    moved = np.moveaxis(x, 0, -1)  # summed as a C-order copy, whose last axis is contiguous
    copy = np.positive(moved, out=_scratch(work, "moved", moved.shape), order="C")
    return copy.sum(axis=-1, out=out)


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


def _gathered_increments(B, C, i_idx, j_idx):
    """Component-major group increments (d, ..., K) and (d, d, ..., K) for index pairs."""
    Bi = np.take(B, i_idx, axis=-1)
    b = np.take(B, j_idx, axis=-1) - Bi
    c = np.take(C, j_idx, axis=-1) - np.take(C, i_idx, axis=-1) - Bi[:, None] * b[None, :]
    return b, c


def _component_difference(bx, cx, by, cy, work=None):
    """Component-major increments (d, ...) and (d, d, ...) of the group
    difference x^{-1} * y; difference_increments' arithmetic.  With a
    workspace dict the results live in its buffers."""
    b = np.subtract(by, bx, out=_scratch(work, "b", np.broadcast(by, bx).shape))
    c = np.subtract(cy, cx, out=_scratch(work, "c", np.broadcast(cy, cx).shape))
    np.subtract(c, np.multiply(bx[:, None], b[None, :], out=_scratch(work, "dd", c.shape)), out=c)
    return b, c


def _component_norms(b, c, variant, work=None):
    """Homogeneous norms of component-major increments b (d, ...) and
    c (d, d, ...), with their level-1 parts; batch_homogeneous_norm's
    arithmetic.  With a workspace dict the results live in its buffers."""
    half = np.multiply(0.5, b[:, None], out=_scratch(work, "d", b[:, None].shape))
    l2 = np.multiply(half, b[None, :], out=_scratch(work, "dd", c.shape))
    np.subtract(c, l2, out=l2)
    np.abs(l2, out=l2)
    np.sqrt(l2, out=l2)
    l1 = np.abs(b, out=_scratch(work, "d", b.shape))  # half is spent: share its buffer
    l2 = l2.reshape((l2.shape[0] * l2.shape[1],) + l2.shape[2:])
    norm = _scratch(work, "norm", b.shape[1:])
    if variant == "sum":
        part1 = _component_sum(l1, work, "part1")
        return np.add(part1, _component_sum(l2, work, "part2"), out=norm), part1
    part1 = np.max(l1, axis=0, out=_scratch(work, "part1", b.shape[1:]))
    return np.maximum(part1, np.max(l2, axis=0, out=_scratch(work, "part2", b.shape[1:])),
                      out=norm), part1


# The kernel walks its items (paths, one path's grid pairs, or the columns, then
# the rows of a distance matrix) in equal chunks whose increments b and c hold
# about _KERNEL_CHUNK_FLOATS floats, 512 KB: about 11 paths at N=512, d=2, 64
# at N=256, d=1 for dyadic_level_maxima, 258 rows of one column for a d=1, N=64
# distance matrix (its workspace is 2.5x larger).  Chunks four times larger ran
# 1.2x (d=2) to 2x (d=1) slower on one thread, as their temporaries fall out
# of a 2 MB L2 cache and are handed back to the OS and re-faulted on every
# call; chunks four times smaller paid about 1.3x in per-call overhead.
_KERNEL_CHUNK_FLOATS = 2**16


def _chunk_bounds(n_items: int, floats_per_item: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of equal kernel chunks of n_items, at least one item each, largest first."""
    n_chunks = min(n_items, max(1, -(-n_items * floats_per_item // _KERNEL_CHUNK_FLOATS)))
    bounds = [-(-k * n_items // n_chunks) for k in range(n_chunks + 1)] if n_items else []
    return list(zip(bounds[:-1], bounds[1:]))


def dyadic_level_maxima(values: np.ndarray, variant: str | None = None,
                        centre: np.ndarray | None = None):
    """Per-level maxima of dyadic increment norms for a block of lifted paths.

    values has shape (S, N+1, d) with N = 2^L; level l covers the pairs
    (m N 2^-l, (m+1) N 2^-l).  Returns (rough, path, centred), each (S, L+1)
    except centred: the largest homogeneous norm of a level-l increment of
    each path's lift, the largest norm of its level-1 part, and, when a
    centre path (N+1, d) is given, the largest norm of the level-l increments
    of the group difference from the path's lift to the centre's lift
    (None without a centre).  Bit-identical to batch_prefix, pair_increments,
    difference_increments and batch_homogeneous_norm applied level by level.
    """
    v = _resolve_variant(variant)
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise ValueError("values must have shape (S, N+1, d)")
    n_steps = values.shape[1] - 1
    _power_of_two(1, n_steps=n_steps)
    S, _, d = values.shape
    i_idx, j_idx, starts = _dyadic_pairs(n_steps)
    rough = np.empty((S, len(starts)))
    path = np.empty_like(rough)
    centred = None
    if centre is not None:
        centre = np.asarray(centre, dtype=float)
        if centre.shape != values.shape[1:]:
            raise ValueError(f"centre must have shape {values.shape[1:]}, got {centre.shape}")
        bh, ch = _gathered_increments(*_component_prefix(centre[None]), i_idx, j_idx)
        centred = np.empty_like(rough)
    for lo, hi in _chunk_bounds(S, len(i_idx) * (d + d * d)):
        b, c = _gathered_increments(*_component_prefix(values[lo:hi]), i_idx, j_idx)
        norms, lvl1 = _component_norms(b, c, v)
        np.maximum.reduceat(norms, starts, axis=-1, out=rough[lo:hi])
        np.maximum.reduceat(lvl1, starts, axis=-1, out=path[lo:hi])
        if centre is not None:
            bd, cd = _component_difference(b, c, bh, ch)
            np.maximum.reduceat(_component_norms(bd, cd, v)[0], starts, axis=-1,
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
        b, c = _gathered_increments(B, C, i_all[lo:hi], j_all[lo:hi])
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
        b, c = _component_difference(*_gathered_increments(Bx, Cx, i_idx, j_idx),
                                     *_gathered_increments(By, Cy, i_idx, j_idx))
        worst = max(worst, float((_component_norms(b, c, v)[0] / weights[lo:hi]).max()))
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
    T = times[-1] - times[0]
    dt = np.diff(times)
    if not np.allclose(dt, dt[0], rtol=0.0, atol=1e-12 * T):
        raise ValueError("needs a uniform grid")
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
    b, c = _gathered_increments(*_component_major(x.prefix_level1, x.prefix_level2),
                                *_dyadic_pairs(x.n_steps)[:2])
    norms = _component_norms(b, c, _resolve_variant(variant))[0]
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
