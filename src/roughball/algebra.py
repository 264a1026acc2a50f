"""Exact arithmetic in the step-2 truncated tensor algebra over R^d.

Group elements carry a scalar part fixed to 1, a level-1 vector in R^d and a
level-2 matrix in R^{d x d}; algebra (logarithm) elements carry the same shape
with scalar part 0.  All operations are closed-form polynomial identities, so
the only numerical error is float rounding.

The homogeneous norm comes in two equivalent variants built from logarithmic
coordinates: ``sum`` adds |level-1 coord| and sqrt|level-2 coord| over the
tensor basis, ``sup`` takes the maximum of the same terms.  ``sum`` is the
package-wide default (see DEFAULT_NORM_VARIANT); keep one variant per study so
constants are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Package-wide default variant of the homogeneous norm.  Every routine that
# takes ``variant=None`` resolves it against this constant.
DEFAULT_NORM_VARIANT = "sum"

_VARIANTS = ("sum", "sup")


def _as_level1(b, dim=None) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"level1 must be a vector, got shape {b.shape}")
    if dim is not None and b.shape[0] != dim:
        raise ValueError(f"level1 has dimension {b.shape[0]}, expected {dim}")
    if not np.isfinite(b).all():
        raise ValueError("level1 contains non-finite entries")
    return b


def _as_level2(c, dim) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim == 0:
        c = np.full((dim, dim), float(c))
    if c.shape != (dim, dim):
        raise ValueError(f"level2 has shape {c.shape}, expected {(dim, dim)}")
    if not np.isfinite(c).all():
        raise ValueError("level2 contains non-finite entries")
    return c


@dataclass(frozen=True)
class G2Element:
    """Group element (1, level1, level2) of the step-2 nilpotent group over R^d."""

    level1: np.ndarray
    level2: np.ndarray

    def __post_init__(self):
        b = _as_level1(self.level1)
        c = _as_level2(self.level2, b.shape[0])
        object.__setattr__(self, "level1", b)
        object.__setattr__(self, "level2", c)

    @property
    def dim(self) -> int:
        return self.level1.shape[0]

    def to_flat(self) -> list[float]:
        """Flat JSON form [d, level1 row-major, level2 row-major]."""
        return [float(self.dim)] + [float(v) for v in self.level1] + [
            float(v) for v in self.level2.ravel()
        ]

    @classmethod
    def from_flat(cls, flat) -> "G2Element":
        flat = np.asarray(flat, dtype=float)
        if flat.ndim != 1 or flat.size < 1:
            raise ValueError("flat form must be a non-empty vector")
        d = int(round(flat[0]))
        if d < 1 or flat.size != 1 + d + d * d:
            raise ValueError(
                f"flat form of length {flat.size} inconsistent with dimension {flat[0]}"
            )
        return cls(flat[1 : 1 + d], flat[1 + d :].reshape(d, d))


@dataclass(frozen=True)
class L2Element:
    """Algebra element (0, level1, level2); the logarithm of a G2Element."""

    level1: np.ndarray
    level2: np.ndarray

    def __post_init__(self):
        b = _as_level1(self.level1)
        c = _as_level2(self.level2, b.shape[0])
        object.__setattr__(self, "level1", b)
        object.__setattr__(self, "level2", c)

    @property
    def dim(self) -> int:
        return self.level1.shape[0]


def g2_unit(dim: int) -> G2Element:
    """Group unit (1, 0, 0)."""
    return G2Element(np.zeros(dim), np.zeros((dim, dim)))


def _check_same_dim(x, y):
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")


def g2_multiply(x: G2Element, y: G2Element) -> G2Element:
    """Truncated tensor product: level2 picks up the cross term level1_x (x) level1_y."""
    _check_same_dim(x, y)
    return G2Element(
        x.level1 + y.level1,
        x.level2 + y.level2 + x.level1[:, None] * y.level1[None, :],
    )


def g2_inverse(x: G2Element) -> G2Element:
    """Group inverse: (1, b, c)^{-1} = (1, -b, -c + b (x) b)."""
    return G2Element(-x.level1, -x.level2 + x.level1[:, None] * x.level1[None, :])


def g2_exp(a: L2Element) -> G2Element:
    """Tensor exponential, exact at step 2: adds half the squared level-1 part."""
    return G2Element(a.level1, a.level2 + 0.5 * (a.level1[:, None] * a.level1[None, :]))


def g2_log(x: G2Element) -> L2Element:
    """Tensor logarithm, exact at step 2: removes half the squared level-1 part."""
    return L2Element(x.level1, x.level2 - 0.5 * (x.level1[:, None] * x.level1[None, :]))


def g2_dilate(x: G2Element, t: float) -> G2Element:
    """Dilation: scales log coordinates by t at level 1 and t^2 at level 2."""
    t = float(t)
    a = g2_log(x)
    return g2_exp(L2Element(t * a.level1, t * t * a.level2))


def _resolve_variant(variant) -> str:
    v = DEFAULT_NORM_VARIANT if variant is None else variant
    if v not in _VARIANTS:
        raise ValueError(f"unknown norm variant {v!r}, expected one of {_VARIANTS}")
    return v


def homogeneous_norm(x: G2Element, variant: str | None = None) -> float:
    """Homogeneous norm of a group element from its log coordinates.

    ``sum`` variant: sum_i |a1_i| + sum_ij sqrt|a2_ij|;  ``sup`` variant takes
    the max over the same family.  Both scale linearly under dilation and are
    symmetric under inversion (log of the inverse is the negated log).
    """
    v = _resolve_variant(variant)
    a = g2_log(x)
    l1 = np.abs(a.level1)
    l2 = np.sqrt(np.abs(a.level2))
    if v == "sum":
        return float(l1.sum() + l2.sum())
    return float(max(l1.max(initial=0.0), l2.max(initial=0.0)))


def batch_homogeneous_norm(level1, level2, variant: str | None = None) -> np.ndarray:
    """Vectorized homogeneous norm for stacked group elements.

    ``level1`` has shape (..., d) and ``level2`` shape (..., d, d); returns an
    array of norms with the leading shape.  Used by the metric and Monte-Carlo
    layers where per-element Python objects would dominate the runtime.
    """
    v = _resolve_variant(variant)
    level1 = np.asarray(level1, dtype=float)
    level2 = np.asarray(level2, dtype=float)
    a2 = level2 - 0.5 * level1[..., :, None] * level1[..., None, :]
    l1 = np.abs(level1)
    l2 = np.sqrt(np.abs(a2))
    if v == "sum":
        return l1.sum(axis=-1) + l2.sum(axis=(-2, -1))
    return np.maximum(l1.max(axis=-1), l2.max(axis=(-2, -1)))


def random_g2(rng: np.random.Generator, dim: int, scale: float = 1.0) -> G2Element:
    """Random group element: Gaussian log coordinates pushed through g2_exp."""
    a = L2Element(
        scale * rng.standard_normal(dim),
        scale * scale * rng.standard_normal((dim, dim)),
    )
    return g2_exp(a)


def subadditivity_ratio(
    dim: int, n_trials: int = 2000, seed: int = 0, variant: str | None = None
) -> float:
    """Worst observed norm(x*y) / (norm(x) + norm(y)) over random pairs.

    The homogeneous norms here are equivalent to a subadditive norm but are not
    themselves subadditive with constant 1; this randomized search records the
    empirical constant per dimension so downstream triangle-inequality checks
    can assert against it instead of silently passing.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        x = random_g2(rng, dim, scale=float(rng.uniform(0.1, 2.0)))
        y = random_g2(rng, dim, scale=float(rng.uniform(0.1, 2.0)))
        denom = homogeneous_norm(x, variant) + homogeneous_norm(y, variant)
        if denom <= 0:
            continue
        worst = max(worst, homogeneous_norm(g2_multiply(x, y), variant) / denom)
    return worst
