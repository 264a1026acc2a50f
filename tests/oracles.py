"""Independent reference computations used to pin test expectations.

Everything in this module deliberately avoids the code paths it is meant to
check.  The transport oracle enumerates basic solutions instead of calling an
LP solver, the quantizer oracle runs a one-dimensional fixed point with
adaptive quadrature instead of sampling, and the Gaussian ball oracle
integrates densities directly rather than going through incomplete-gamma
shortcuts.  Slow is fine here; these only run on tiny instances.

Four references pin the vectorised routes bit for bit: the per-sample,
per-component loop of the exact samplers, and the sample-major routes (gathered
pair increments, then batched homogeneous norms) to dyadic norm maxima, to
all-pairs norms, and, level by level, to dyadic distance matrices between
lifted sets.  They keep the arithmetic of the loops they replaced, so
np.array_equal against them is the right test.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import integrate


def brute_force_transport(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """Minimal transport cost by enumerating spanning-tree basic solutions.

    Every vertex of the transportation polytope is the flow induced by some
    spanning tree of the complete bipartite support graph, and a linear
    program attains its optimum at a vertex.  With m + n <= ~8 nodes the
    number of candidate edge subsets is tiny, so exhaustive enumeration is
    practical and shares no code with any real solver.
    """
    cost = np.asarray(cost, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    m, n = cost.shape
    if mu.shape != (m,) or nu.shape != (n,):
        raise ValueError("marginal shapes do not match the cost matrix")
    if abs(mu.sum() - nu.sum()) > 1e-9:
        raise ValueError("marginals must carry equal mass")

    edges = [(i, j) for i in range(m) for j in range(n)]
    n_nodes = m + n
    best = np.inf
    for subset in combinations(edges, n_nodes - 1):
        # acyclicity + connectivity via union-find
        parent = list(range(n_nodes))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for i, j in subset:
            ra, rb = find(i), find(m + j)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if not ok:
            continue

        # solve the tree flow by repeatedly stripping leaves
        adj = {k: [] for k in range(n_nodes)}
        for idx, (i, j) in enumerate(subset):
            adj[i].append((m + j, idx))
            adj[m + j].append((i, idx))
        supply = np.concatenate([mu, -nu])
        flow = np.zeros(len(subset))
        degree = {k: len(v) for k, v in adj.items()}
        removed = [False] * len(subset)
        leaves = [k for k, dg in degree.items() if dg == 1]
        active_supply = supply.copy()
        while leaves:
            leaf = leaves.pop()
            edge_idx = None
            other = None
            for nb, idx in adj[leaf]:
                if not removed[idx]:
                    edge_idx, other = idx, nb
                    break
            if edge_idx is None:
                continue
            i, j = subset[edge_idx]
            # flow is oriented source -> sink; sign depends on which side the leaf is
            if leaf == i:
                flow[edge_idx] = active_supply[leaf]
            else:
                flow[edge_idx] = -active_supply[leaf]
            active_supply[other] += active_supply[leaf]
            active_supply[leaf] = 0.0
            removed[edge_idx] = True
            degree[leaf] -= 1
            degree[other] -= 1
            if degree[other] == 1:
                leaves.append(other)

        if np.any(flow < -1e-10):
            continue
        total = sum(f * cost[i, j] for f, (i, j) in zip(flow, subset) if f > 0)
        best = min(best, total)
    if not np.isfinite(best):
        raise RuntimeError("no feasible spanning-tree solution found")
    return float(best)


def _gauss_pdf(x):
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def lloyd_fixed_point_1d(n: int, tol: float = 1e-12, max_iter: int = 500) -> tuple[np.ndarray, float]:
    """Optimal n-point quadratic quantizer of N(0,1) by deterministic iteration.

    Alternates Voronoi boundaries (midpoints) with conditional means computed
    by adaptive quadrature.  Returns the sorted codepoints and the distortion
    E min_i (X - c_i)^2.  No sampling, no shared code with the package.
    """
    c = np.linspace(-1.0, 1.0, n)
    lo, hi = -12.0, 12.0
    for _ in range(max_iter):
        bounds = np.concatenate([[lo], 0.5 * (c[1:] + c[:-1]), [hi]])
        new = np.empty_like(c)
        for k in range(n):
            a, b = bounds[k], bounds[k + 1]
            mass, _ = integrate.quad(_gauss_pdf, a, b)
            mom, _ = integrate.quad(lambda x: x * _gauss_pdf(x), a, b)
            new[k] = mom / mass
        if np.max(np.abs(new - c)) < tol:
            c = new
            break
        c = new
    bounds = np.concatenate([[lo], 0.5 * (c[1:] + c[:-1]), [hi]])
    distortion = 0.0
    for k in range(n):
        val, _ = integrate.quad(
            lambda x, ck=c[k]: (x - ck) ** 2 * _gauss_pdf(x), bounds[k], bounds[k + 1]
        )
        distortion += val
    return c, float(distortion)


def gaussian_ball_probability(d: int, eps: float, norm: str = "l2") -> float:
    """P[|Z| < eps] for d-dimensional standard Gaussian, by direct quadrature.

    l2 integrates the radial density r^{d-1} exp(-r^2/2) and normalizes by the
    same integral over [0, inf); linf integrates the coordinate density per
    axis and takes the d-th power.
    """
    if norm == "l2":
        dens = lambda r: r ** (d - 1) * np.exp(-0.5 * r * r)
        # the density is below 1e-300 past r = 40, so a finite cutoff loses nothing
        num, _ = integrate.quad(dens, 0.0, eps, epsabs=1e-15, epsrel=1e-12)
        den, _ = integrate.quad(dens, 0.0, 40.0, epsabs=1e-15, epsrel=1e-12)
        return num / den
    if norm == "linf":
        one, _ = integrate.quad(_gauss_pdf, -eps, eps, epsabs=1e-15, epsrel=1e-12)
        return one**d
    raise ValueError(norm)


def level2_integrals_dense(times: np.ndarray, values: np.ndarray, refine: int = 64) -> np.ndarray:
    """Iterated integrals int (X_t - X_0) dX of a piecewise-linear path.

    Refines every segment and accumulates left-point Riemann sums plus the
    exact correction for linear pieces (trapezoid in the moving coordinate).
    Converges to the exact signature of the interpolated path as refine grows,
    and for piecewise-linear integrands the per-segment formula used here is
    already exact, so the result is an independent closed-form route.
    """
    d = values.shape[1]
    total = np.zeros((d, d))
    x0 = values[0]
    for k in range(len(times) - 1):
        a = values[k] - x0
        step = values[k + 1] - values[k]
        # int over the segment of (X - X_0) otimes dX with X linear:
        # (a + s*step) otimes step ds for s in [0,1] = (a + step/2) otimes step
        total += np.outer(a + 0.5 * step, step)
    if refine > 1:
        # cross-check path: dense Riemann evaluation on a refined grid
        fine_t = []
        for k in range(len(times) - 1):
            fine_t.append(np.linspace(times[k], times[k + 1], refine, endpoint=False))
        fine_t = np.concatenate(fine_t + [times[-1:]])
        fine_x = np.empty((fine_t.size, d))
        for j in range(d):
            fine_x[:, j] = np.interp(fine_t, times, values[:, j])
        diffs = np.diff(fine_x, axis=0)
        rel = fine_x[:-1] - fine_x[0]
        riemann = rel.T @ diffs + 0.5 * sum(np.outer(s, s) for s in diffs)
        if not np.allclose(riemann, total, atol=1e-9):
            raise RuntimeError("dense Riemann sum disagrees with the segment formula")
    return total


def draw_increments_loop(plan, rng) -> np.ndarray:
    """One sample's increments from the plan's transform, one component at a time.

    Same draw layout as SamplerPlan.draw_increments: (N, d) normals for the
    iid and Cholesky routes, (d, 2N) for circulant embedding, where each
    component builds its Hermitian spectrum and runs its own FFT.
    """
    n, d = plan.n_steps, plan.model.dim
    if plan.method == "iid":
        return rng.standard_normal((n, d)) * plan._sqrt_dt[:, None]
    if plan.method == "cholesky":
        return plan._chol @ rng.standard_normal((n, d))
    z = rng.standard_normal((d, 2 * n))
    out = np.empty((n, d))
    m = 2 * n
    sq = plan._sqrt_lam
    half = np.sqrt(0.5)
    for c in range(d):
        v = z[c]
        w = np.empty(m, dtype=complex)
        w[0] = sq[0] * v[0]
        w[n] = sq[n] * v[1]
        re = v[2:m:2]
        im = v[3:m:2]
        w[1:n] = sq[1:n] * half * (re + 1j * im)
        w[n + 1 :] = np.conj(w[n - 1 : 0 : -1])
        out[:, c] = np.fft.fft(w).real[:n] / np.sqrt(m)
    return out


def prefix_sample_major(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix signatures (S, N+1, d) and (S, N+1, d, d) of piecewise-linear paths."""
    delta = np.diff(values, axis=1)
    S, N, d = delta.shape
    B = np.zeros((S, N + 1, d))
    np.cumsum(delta, axis=1, out=B[:, 1:])
    term = (B[:, :-1, :, None] + 0.5 * delta[:, :, :, None]) * delta[:, :, None, :]
    C = np.zeros((S, N + 1, d, d))
    np.cumsum(term, axis=1, out=C[:, 1:])
    return B, C


def dyadic_level_maxima_loop(values, variant, centre=None):
    """(rough, path, centred) per-level maxima, one dyadic level at a time.

    Gathers each level's pair increments with index arrays and evaluates
    batch_homogeneous_norm on the sample-major (S, K, d) and (S, K, d, d)
    stacks, as the Monte-Carlo samplers did before the component-major kernel.
    """
    from roughball.algebra import batch_homogeneous_norm
    from roughball.paths import difference_increments, pair_increments

    S, n_points, _ = values.shape
    n_steps = n_points - 1
    levels = n_steps.bit_length()
    B, C = prefix_sample_major(values)
    if centre is not None:
        Bh, Ch = prefix_sample_major(centre[None])
    rough = np.empty((S, levels))
    path = np.empty((S, levels))
    centred = None if centre is None else np.empty((S, levels))
    for level in range(levels):
        stride = n_steps >> level
        i_idx = np.arange(0, n_steps, stride, dtype=np.intp)
        j_idx = i_idx + stride
        b, c = pair_increments(B, C, i_idx, j_idx)
        rough[:, level] = batch_homogeneous_norm(b, c, variant).max(axis=1)
        lvl1 = np.abs(b).sum(axis=-1) if variant == "sum" else np.abs(b).max(axis=-1)
        path[:, level] = lvl1.max(axis=1)
        if centre is not None:
            bh, ch = pair_increments(Bh, Ch, i_idx, j_idx)
            bd, cd = difference_increments(b, c, bh, ch)
            centred[:, level] = batch_homogeneous_norm(bd, cd, variant).max(axis=1)
    return rough, path, centred


def allpairs_norms_sample_major(values, times, alpha, variant):
    """All-pairs Hoelder norms of a block of paths from sample-major (S, K, d)
    and (S, K, d, d) stacks of every grid pair's increments."""
    from roughball.algebra import batch_homogeneous_norm
    from roughball.paths import pair_increments

    B, C = prefix_sample_major(values)
    i_idx, j_idx = np.triu_indices(len(times), k=1)
    b, c = pair_increments(B, C, i_idx, j_idx)
    span = (times[j_idx] - times[i_idx]) ** alpha
    return (batch_homogeneous_norm(b, c, variant) / span).max(axis=1)


def pairwise_distance_loop(x, y, alpha, variant="sum", chunk_floats=2**20):
    """Dyadic Hoelder distance matrix between two lifted sets, level by level.

    Per level, broadcasts the pair increments of x against a chunk of y's
    columns into sample-major (m1, q, K, d, d) stacks and takes
    batch_homogeneous_norm, as quantize.pairwise_distance did before the
    component-major kernel.
    """
    from roughball.algebra import batch_homogeneous_norm
    from roughball.paths import pair_increments

    m1, m2, d = x.size, y.size, x.dim
    n_steps = x.n_steps
    out = np.zeros((m1, m2))
    horizon = x.times[-1]
    for level in range(n_steps.bit_length()):
        stride = n_steps >> level
        i_idx = np.arange(0, n_steps, stride, dtype=np.intp)
        bx, cx = pair_increments(x.B, x.C, i_idx, i_idx + stride)
        by, cy = pair_increments(y.B, y.C, i_idx, i_idx + stride)
        k = bx.shape[1]
        scale = (horizon * 0.5**level) ** alpha
        q = max(1, int(chunk_floats / max(1, m1 * k * d * d)))
        for start in range(0, m2, q):
            stop = min(start + q, m2)
            b = by[None, start:stop] - bx[:, None]
            c = (cy[None, start:stop] - cx[:, None]
                 - bx[:, None, :, :, None] * b[..., None, :])
            lvl = batch_homogeneous_norm(b, c, variant).max(axis=-1) / scale
            np.maximum(out[:, start:stop], lvl, out=out[:, start:stop])
    return out
