"""Independent reference computations used to pin test expectations.

Everything in this module deliberately avoids the code paths it is meant to
check.  The transport oracle enumerates basic solutions instead of running a
simplex, and a second one solves the same linear program with HiGHS for
sizes enumeration cannot reach.  The quantizer oracle runs a one-dimensional
fixed point with adaptive quadrature instead of sampling, and the Gaussian
ball oracle integrates densities directly rather than going through
incomplete-gamma shortcuts.  Slow is fine here; the enumeration and the
quadratures only run on tiny instances.

The other references pin the vectorised routes bit for bit: the
per-sample, per-component loop of the exact samplers, and the sample-major
routes (gathered pair increments, then batched homogeneous norms) to dyadic
norm maxima, to all-pairs norms, level by level to dyadic distance matrices
between lifted sets, to the single-path Hoelder distance and geometric
defect, and level by level, path by path to the dyadic discretisation bound.
The reproducing-kernel norm references factor one Gram matrix per drift path
and seed one generator per mesh path, as the routes before them did.  The
Lloyd references spell out one mean-mode iteration, and the mean mode with
the medoid polish that quantize codebooks used to end with.
They keep the arithmetic of the loops they replaced, so np.array_equal
against them is the right test.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import integrate, sparse
from scipy.optimize import linprog


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


def highs_transport(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """Transport cost by HiGHS on the linear program with sparse row- and
    column-sum constraints.

    HiGHS stops within its default optimality tolerance, so the value may sit
    above the optimum by about 1e-8 absolute.
    """
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    flat = np.arange(m * n)
    rows = np.concatenate([np.repeat(np.arange(m), n), np.repeat(np.arange(m, m + n), m)])
    cols = np.concatenate([flat, flat.reshape(m, n).T.ravel()])
    a_eq = sparse.csr_matrix((np.ones(2 * m * n), (rows, cols)), shape=(m + n, m * n))
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu, nu]), bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"transport solve failed: {res.message}")
    return float(res.fun)


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


def lloyd_mean_one_iteration(samples, n, alpha, seed, variant="sum"):
    """(centres' level-1 prefixes, history) of lloyd_codebook in mean mode with
    max_iter=1, written out: k-means++ centres, one assignment, the geometric
    mean centres, and the distances to those new centres."""
    from roughball.quantize import _geometric_mean_centers, _kmeanspp_init, pairwise_distance

    m = samples.size
    centers = samples.subset(_kmeanspp_init(samples, n, 2.0, alpha, variant, seed))
    dist = pairwise_distance(samples, centers, alpha, variant)
    assign = np.argmin(dist, axis=1)
    min_dist = dist[np.arange(m), assign]
    history = [float(np.mean(min_dist**2.0) ** 0.5)]
    for k in range(n):
        if not np.any(assign == k):
            far = int(np.argmax(min_dist))
            assign[far] = k
            min_dist[far] = 0.0
    centers = _geometric_mean_centers(samples, assign, n)
    min_dist = pairwise_distance(samples, centers, alpha, variant).min(axis=1)
    history.append(float(np.mean(min_dist**2.0) ** 0.5))
    return centers.B, tuple(history)


def _prefix_mean_centres(samples, assign, n):
    """Geometric prefix-mean centres as the polished route computed them: a
    one-member cluster's centre goes through the re-projection too."""
    from roughball.paths import GridRoughPath
    from roughball.quantize import LiftedSet

    centers = []
    for k in range(n):
        members = assign == k
        b, c = GridRoughPath(samples.times, samples.B[members].mean(axis=0),
                             samples.C[members].mean(axis=0)).step_arrays()
        anti = 0.5 * (c - np.swapaxes(c, -1, -2))
        c = 0.5 * b[:, :, None] * b[:, None, :] + anti
        centers.append(GridRoughPath.from_steps(samples.times, (b, c)))
    return LiftedSet.from_paths(centers)


def lloyd_mean_polished(samples, n, alpha, seed, max_iter=60, tol=1e-6, variant="sum"):
    """lloyd_codebook's mean mode with the medoid polish it used to end with.

    At most max_iter assignments of prefix-mean Lloyd steps from k-means++
    centres; then each centre snaps to its nearest cluster member, so the
    codebook consists of training paths.  The distortion of the snapped
    centres closes the history.  Quantize artifacts came from this route
    before the polish was deleted.
    """
    from roughball.quantize import Codebook, _kmeanspp_init, pairwise_distance

    m = samples.size
    centers = samples.subset(_kmeanspp_init(samples, n, 2.0, alpha, variant, seed))
    history = []
    prev = np.inf
    for _ in range(max_iter):
        dist = pairwise_distance(samples, centers, alpha, variant)
        assign = np.argmin(dist, axis=1)
        min_dist = dist[np.arange(m), assign]
        for k in range(n):
            if not np.any(assign == k):
                far = int(np.argmax(min_dist))
                assign[far] = k
                min_dist[far] = 0.0
        distortion = float(np.mean(min_dist**2.0) ** 0.5)
        history.append(distortion)
        if prev - distortion < tol * max(prev, 1e-30) and len(history) > 1:
            break
        prev = distortion
        centers = _prefix_mean_centres(samples, assign, n)
    else:
        dist = pairwise_distance(samples, centers, alpha, variant)
    assign = np.argmin(dist, axis=1)
    snap = np.empty(n, dtype=np.intp)
    for k in range(n):
        members = np.nonzero(assign == k)[0]
        if members.size == 0:
            members = np.arange(m)
        snap[k] = members[int(np.argmin(dist[members, k]))]
    centers = samples.subset(snap)
    min_dist = pairwise_distance(samples, centers, alpha, variant).min(axis=1)
    history.append(float(np.mean(min_dist**2.0) ** 0.5))
    return Codebook(centers, 2.0, history[-1], m, float(alpha), variant, tuple(history), "mean")


def dyadic_pair_indices_loop(n_steps):
    """Adjacent dyadic pairs of a 2^L-step grid, level by level, coarsest first."""
    pairs = [(m * s, (m + 1) * s) for s in (n_steps >> l for l in range(n_steps.bit_length()))
             for m in range(n_steps // s)]
    return tuple(np.array(col, dtype=np.intp) for col in zip(*pairs))


def holder_distance_sample_major(x, y, alpha, pair_set="all", variant="sum"):
    """Hoelder distance between two grid rough paths from sample-major (K, d)
    and (K, d, d) stacks of every pair's increments and their group difference."""
    from roughball.algebra import batch_homogeneous_norm
    from roughball.paths import difference_increments, pair_increments

    n_points = len(x.times)
    if pair_set == "all":
        i_idx, j_idx = np.triu_indices(n_points, k=1)
    else:
        i_idx, j_idx = dyadic_pair_indices_loop(n_points - 1)
    bx, cx = pair_increments(x.prefix_level1, x.prefix_level2, i_idx, j_idx)
    by, cy = pair_increments(y.prefix_level1, y.prefix_level2, i_idx, j_idx)
    norms = batch_homogeneous_norm(*difference_increments(bx, cx, by, cy), variant)
    return float((norms / (x.times[j_idx] - x.times[i_idx]) ** alpha).max())


def geometric_defect_sample_major(x):
    """Largest sup-norm gap between Sym(level 2) and half the squared level 1
    over every grid pair, from sample-major increments."""
    from roughball.paths import pair_increments

    i_idx, j_idx = np.triu_indices(len(x.times), k=1)
    b, c = pair_increments(x.prefix_level1, x.prefix_level2, i_idx, j_idx)
    gap = 0.5 * (c + np.swapaxes(c, -1, -2)) - 0.5 * b[..., :, None] * b[..., None, :]
    return float(np.abs(gap).max())


def dyadic_holder_bound_loop(B, C, times, alpha, eps, variant="sum"):
    """(value, coarse, fine) of the dyadic Hoelder majorant of one path with
    prefix arrays (N+1, d) and (N+1, d, d): level norms from stride slices and
    batch_homogeneous_norm, then the coarse and windowed fine terms level by
    level, as paths.dyadic_holder_bound did before the component-major kernel."""
    from roughball.algebra import batch_homogeneous_norm
    from roughball.paths import pair_increments

    n_steps = len(times) - 1
    L = n_steps.bit_length() - 1
    e = int(round(np.log2((times[-1] - times[0]) / eps)))
    level_norms = []
    for level in range(L + 1):
        stride = n_steps >> level
        b, c = pair_increments(B, C, slice(0, n_steps, stride), slice(stride, None, stride))
        level_norms.append(batch_homogeneous_norm(b, c, variant))
    level_sups = np.array([ln.max() for ln in level_norms])
    coarse = 2.0 * level_sups[1:].sum() / eps**alpha
    fine = 0.0
    for j in range(0, L - e):
        i_max = (2**j) * (2**e - 1)
        window_sums = np.zeros(i_max + 1)
        for level in range(j + 1, L - e + 1):
            w = 2 ** (level - j)
            window_sums += level_norms[e + level][:(i_max + 1) * w].reshape(-1, w).max(axis=1)
        denom = eps**alpha * 2.0 ** (-alpha * (j + 1))
        fine = max(fine, 3.0 * float(window_sums.max()) / denom)
    return float(max(coarse, fine)), float(coarse), float(fine)


def lemma_bound_norms_per_path(model, alpha, n, seed, n_steps, variant="sum"):
    """Lemma-bound values of n sampled paths, one path at a time, at the
    default truncation scale of four grid steps."""
    from roughball.gaussian import SamplerPlan, sample_path_block

    times = np.linspace(0.0, model.horizon, n_steps + 1)
    B, C = prefix_sample_major(sample_path_block(SamplerPlan(model, times), seed, 0, n))
    eps = 4.0 * model.horizon / n_steps
    return np.array([dyadic_holder_bound_loop(B[k], C[k], times, alpha, eps, variant)[0]
                     for k in range(n)])


def cameron_martin_norm_unfactored(model, h):
    """Reproducing-kernel norm of one drift path, factoring its own Gram matrix:
    the route before one factor served every drift on a grid."""
    from scipy.linalg import cho_factor, cho_solve

    from roughball.gaussian import CameronMartinNorm

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
    factor = cho_factor(gram)
    sq = 0.0
    for c in range(values.shape[1]):
        hv = values[1:, c]
        sq += float(hv @ cho_solve(factor, hv))
    if sq < 0.0:
        sq = 0.0
    norm = float(np.sqrt(sq))
    return CameronMartinNorm(norm=norm, rate=0.5 * sq)


def cm_mesh_directions_per_radius(model, times, lam, n_directions):
    """Borell mesh drifts of kernel norm lam, one Gram factor per direction."""
    from roughball.paths import CMPath

    t = times / times[-1]
    d = model.dim
    out = []
    for k in range(n_directions):
        mode, comp = k // (2 * d), (k // 2) % d
        base = np.sin((mode + 1) * np.pi * t) * t if k % 2 == 0 else t ** (mode + 1)
        vals = np.zeros((times.size, d))
        vals[:, comp] = base
        cm = cameron_martin_norm_unfactored(model, CMPath(times, vals))
        if cm.norm > 0:
            out.append(vals * (lam / cm.norm))
    return out


def cm_ball_mesh_per_index(model, eta, n_steps, mesh_size, seed):
    """Values (mesh_size, N+1, d) and kernel norms of cm_ball_mesh's paths,
    one generator and one Gram factor per mesh path (eta > 0)."""
    from roughball.gaussian import sample_rng
    from roughball.paths import CMPath

    times = np.linspace(0.0, model.horizon, n_steps + 1)
    d = model.dim
    values = np.zeros((mesh_size, n_steps + 1, d))
    norms = np.zeros(mesh_size)
    scales = (1.0, 0.75, 0.5, 0.25)
    kernel = np.ones(5) / 5.0
    for k in range(1, mesh_size):
        inc = sample_rng(seed, k).standard_normal((n_steps, d))
        for c in range(d):
            inc[:, c] = np.convolve(inc[:, c], kernel, mode="same")
        vals = np.zeros((n_steps + 1, d))
        np.cumsum(inc, axis=0, out=vals[1:])
        cm = cameron_martin_norm_unfactored(model, CMPath(times, vals))
        target = eta * scales[k % len(scales)]
        values[k] = vals * (target / cm.norm)
        norms[k] = target
    return values, norms
