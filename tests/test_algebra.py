"""Group algebra: product, inverse, exp/log, dilations, homogeneous norms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roughball import (
    CMPath,
    G2Element,
    L2Element,
    batch_homogeneous_norm,
    g2_dilate,
    g2_exp,
    g2_inverse,
    g2_log,
    g2_multiply,
    g2_unit,
    homogeneous_norm,
    lift_piecewise_linear,
    random_g2,
    subadditivity_ratio,
)

EPS = np.finfo(float).eps
COORDS = st.floats(-100.0, 100.0, allow_nan=False, allow_subnormal=False)


@st.composite
def g2_elements(draw):
    d = draw(st.integers(1, 4))
    return G2Element(draw(hnp.arrays(float, d, elements=COORDS)),
                     draw(hnp.arrays(float, (d, d), elements=COORDS)))


def test_unit_is_neutral(rng):
    for d in (1, 2, 4):
        e = g2_unit(d)
        x = random_g2(rng, d)
        left = g2_multiply(e, x)
        right = g2_multiply(x, e)
        assert np.allclose(left.level1, x.level1, atol=0) and np.allclose(left.level2, x.level2, atol=0)
        assert np.allclose(right.level1, x.level1, atol=0) and np.allclose(right.level2, x.level2, atol=0)


def test_associativity_randomized(rng):
    worst = 0.0
    for _ in range(300):
        d = int(rng.integers(1, 6))
        x, y, z = (random_g2(rng, d) for _ in range(3))
        a = g2_multiply(g2_multiply(x, y), z)
        b = g2_multiply(x, g2_multiply(y, z))
        worst = max(worst, np.abs(a.level1 - b.level1).max(), np.abs(a.level2 - b.level2).max())
    assert worst <= 1e-13


def test_inverse_randomized(rng):
    for _ in range(200):
        d = int(rng.integers(1, 6))
        x = random_g2(rng, d)
        e = g2_multiply(x, g2_inverse(x))
        assert np.abs(e.level1).max() <= 1e-13
        assert np.abs(e.level2).max() <= 1e-13


def test_exp_log_roundtrip(rng):
    for _ in range(200):
        d = int(rng.integers(1, 6))
        x = random_g2(rng, d)
        y = g2_exp(g2_log(x))
        assert np.abs(y.level1 - x.level1).max() <= 1e-13
        assert np.abs(y.level2 - x.level2).max() <= 1e-13


def test_dilation_is_morphism(rng):
    for _ in range(100):
        d = int(rng.integers(1, 6))
        t = float(rng.uniform(-2.0, 2.0))
        x, y = random_g2(rng, d), random_g2(rng, d)
        a = g2_dilate(g2_multiply(x, y), t)
        b = g2_multiply(g2_dilate(x, t), g2_dilate(y, t))
        assert np.abs(a.level1 - b.level1).max() <= 1e-13
        assert np.abs(a.level2 - b.level2).max() <= 1e-13


def test_dilation_composes(rng):
    x = random_g2(rng, 3)
    a = g2_dilate(g2_dilate(x, 0.7), -1.3)
    b = g2_dilate(x, 0.7 * -1.3)
    assert np.abs(a.level1 - b.level1).max() <= 1e-15
    assert np.abs(a.level2 - b.level2).max() <= 1e-15


@pytest.mark.parametrize("variant", ["sum", "sup"])
def test_norm_homogeneity_and_symmetry(rng, variant):
    for _ in range(100):
        d = int(rng.integers(1, 6))
        x = random_g2(rng, d)
        t = float(rng.uniform(0.1, 3.0))
        n = homogeneous_norm(x, variant=variant)
        assert homogeneous_norm(g2_dilate(x, t), variant=variant) == pytest.approx(t * n, rel=1e-12)
        # negative t scales by |t|
        assert homogeneous_norm(g2_dilate(x, -t), variant=variant) == pytest.approx(t * n, rel=1e-12)
        assert homogeneous_norm(g2_inverse(x), variant=variant) == pytest.approx(n, rel=1e-12)


def test_norm_zero_iff_unit():
    e = g2_unit(3)
    assert homogeneous_norm(e) == 0.0
    x = G2Element(level1=np.array([0.0, 0.0, 1e-8]), level2=np.zeros((3, 3)))
    assert homogeneous_norm(x) > 0


@pytest.mark.parametrize("variant", ["sum", "sup"])
def test_batch_norm_matches_scalar(rng, variant):
    # geometric elements: antisymmetric log level 2, passed as its entries i < j
    d = 3
    m = 40
    i, j = np.triu_indices(d, 1)
    elems = []
    for _ in range(m):
        a = rng.standard_normal((d, d))
        elems.append(g2_exp(L2Element(rng.standard_normal(d), a - a.T)))
    level1 = np.stack([x.level1 for x in elems], axis=-1)  # component-major (d, m)
    area = np.stack([g2_log(x).level2[i, j] for x in elems], axis=-1)  # (3, m)
    batch = batch_homogeneous_norm(level1, area, variant=variant)
    assert batch.shape == (m,)
    single = np.array([homogeneous_norm(x, variant=variant) for x in elems])
    assert np.abs(batch - single).max() <= 1e-14


def test_subadditivity_ratio_bounded():
    # the explicit norms are only quasi-subadditive; the empirical constant
    # stays modest and is >= 1 whenever any triple activates the bound
    ratio = subadditivity_ratio(2, n_trials=500, seed=1)
    assert 0.0 < ratio < 4.0


def test_dimension_mismatch_rejected(rng):
    x = random_g2(rng, 2)
    y = random_g2(rng, 3)
    with pytest.raises(ValueError):
        g2_multiply(x, y)


# ------------------------------------------------------------ generative checks


@given(g2_elements())
def test_multiply_by_inverse_gives_unit(x):
    scale = 1.0 + np.abs(x.level2).max() + np.abs(x.level1).max() ** 2
    for e in (g2_multiply(x, g2_inverse(x)), g2_multiply(g2_inverse(x), x)):
        assert np.all(e.level1 == 0.0)
        assert np.abs(e.level2).max() <= 4 * EPS * scale


@pytest.mark.parametrize("variant", ["sum", "sup"])
@given(x=g2_elements(), t=st.floats(-3.0, 3.0, allow_nan=False))
def test_norm_dilation_homogeneity_and_inversion_symmetry(variant, x, t):
    # the norm takes square roots of level-2 log coordinates, so a rounding
    # residue of size eps * |level 1|^2 moves it by about sqrt(eps) relative
    n = homogeneous_norm(x, variant=variant)
    dilated = homogeneous_norm(g2_dilate(x, t), variant=variant)
    assert dilated == pytest.approx(abs(t) * n, rel=1e-6, abs=1e-12)
    assert homogeneous_norm(g2_inverse(x), variant=variant) == pytest.approx(n, rel=1e-6)


@given(st.integers(1, 3).flatmap(lambda d: hnp.arrays(
    float, st.tuples(st.integers(1, 12), st.just(d)), elements=COORDS)), st.data())
def test_chen_identity_on_grid_lifts(steps, data):
    n = steps.shape[0]
    values = np.concatenate([np.zeros((1, steps.shape[1])), np.cumsum(steps, axis=0)])
    x = lift_piecewise_linear(CMPath(np.linspace(0.0, 1.0, n + 1), values))
    i, j, k = sorted(data.draw(st.lists(st.integers(0, n), min_size=3, max_size=3)))
    chained = g2_multiply(x.increment(i, j), x.increment(j, k))
    direct = x.increment(i, k)
    scale = 1.0 + np.abs(x.prefix_level1).max() ** 2 + np.abs(x.prefix_level2).max()
    assert np.abs(chained.level1 - direct.level1).max() <= 4 * EPS * np.sqrt(scale)
    assert np.abs(chained.level2 - direct.level2).max() <= 16 * EPS * scale
