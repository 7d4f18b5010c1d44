"""Convex machinery: norms, dual balls, masks, and certified programs."""

import dataclasses
import inspect
import time

import numpy as np
import pytest

from kclose import circle, kfunctional, schatten, solver
from kclose.circle import CircleFunction
from kclose.kfunctional import CoupleId, _clip_split, kt_bruteforce
from kclose.solver import (
    MAX_GRID,
    AnalyticMask,
    MixedNorm,
    SchattenNorm,
    SplitProgram,
    TriangularMask,
    SolverCertificate,
    VectorNorm,
    _project_l1_ball,
    _project_lp_ball,
    solve_distance,
    solve_minmax_distance,
    solve_split,
)


def real_inner(a, b):
    return float(np.real(np.vdot(b, a)))


PS = [1.0, 1.5, 2.0, 4.0, np.inf]


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("weight", [1.0, 1.0 / 16])
def test_vector_norm_value(p, weight):
    rng = np.random.default_rng(int(p if p != np.inf else 99) * 7 + 1)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    nrm = VectorNorm(p, weight)
    a = np.abs(v)
    want = a.max() if p == np.inf else (weight * (a**p).sum()) ** (1 / p)
    assert abs(nrm.value(v) - want) < 1e-12


@pytest.mark.parametrize("entry", [
    lambda p: VectorNorm(p),
    lambda p: circle.lp_norm(CircleFunction.constant(1.0, 8), p),
    lambda p: schatten.schatten_norm(np.eye(2), p),
], ids=["VectorNorm", "lp_norm", "schatten_norm"])
def test_nan_exponent_rejected(entry):
    # a NaN exponent passed the test p < 1, and the norms returned nan
    with pytest.raises(ValueError, match="got nan"):
        entry(np.nan)


def test_p2_norm_and_dual_ball_outside_the_squares_range():
    # the plain sum of squares overflows at 1e200 (the ball gave [0, 0], the
    # norms inf) and underflows at 1e-200 (the ball returned y unscaled)
    nrm = VectorNorm(2)
    for c, radius in [(1e200, 1.0), (1e-200, 1e-210)]:
        y = np.array([3.0 * c, 4.0 * c], dtype=complex)
        assert np.allclose(nrm.project_dual_ball(y, radius), [0.6 * radius, 0.8 * radius], rtol=1e-15, atol=0.0)
        assert nrm.value(y) == pytest.approx(5.0 * c, rel=1e-15)
        assert nrm.dual_value(y) == pytest.approx(5.0 * c, rel=1e-15)
    assert VectorNorm(2).value(np.full(4, 1e-170)) == pytest.approx(2e-170, rel=1e-15)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("weight", [1.0, 1.0 / 16])
def test_norm_values_in_the_powers_range_match_the_plain_sums_bitwise(p, weight):
    # where the sum of p-th powers lies in [tiny, inf) the norms keep the
    # plain formula to the last bit; the pinned iteration counts rest on it
    rng = np.random.default_rng(29)
    nrm = VectorNorm(p, weight)
    for scale in [1.0, 1e90, 1e-90]:
        for size in [1, 7, 32]:
            a = np.abs(scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size)))
            assert nrm.value(a) == float((weight * np.sum(a**p)) ** (1.0 / p))
            if p > 1:
                q = p / (p - 1.0)
                assert nrm.dual_value(a) == float((np.sum(a**q)) ** (1.0 / q) / weight ** (1.0 / p))


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("weight", [1.0, 1.0 / 16])
def test_vector_norm_holder_pairing(p, weight):
    # dual_value is defined so that re<v, y> <= value(v) * dual_value(y)
    rng = np.random.default_rng(5)
    nrm = VectorNorm(p, weight)
    for _ in range(25):
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert real_inner(v, y) <= nrm.value(v) * nrm.dual_value(y) * (1 + 1e-12) + 1e-15


@pytest.mark.parametrize("p", PS)
def test_vector_norm_holder_attained(p):
    # the subgradient direction attains equality in the pairing
    rng = np.random.default_rng(9)
    nrm = VectorNorm(p, 1.0 / 8)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    a, ph = np.abs(v), v / np.abs(v)
    if p == 1:
        y = ph / 8
    elif p == np.inf:
        y = np.where(a == a.max(), ph, 0)
    else:
        y = ph * a ** (p - 1) / (8 * nrm.value(v) ** (p - 1))
    assert abs(real_inner(v, y) - nrm.value(v) * nrm.dual_value(y)) < 1e-10


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("radius", [0.2, 1.0, 7.0])
def test_dual_ball_projection_feasible_and_closest(p, radius):
    rng = np.random.default_rng(3)
    nrm = VectorNorm(p, 1.0 / 16)
    for trial in range(5):
        y = 3 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        z = nrm.project_dual_ball(y, radius)
        assert nrm.dual_value(z) <= radius * (1 + 1e-9)
        # projection onto a convex set is the nearest feasible point
        for _ in range(20):
            w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            dv = nrm.dual_value(w)
            if dv > radius:
                w = w * (radius / dv) * 0.999
            assert np.linalg.norm(y - z) <= np.linalg.norm(y - w) + 1e-8
        # feasible points are fixed
        assert np.abs(nrm.project_dual_ball(z, radius * (1 + 1e-7)) - z).max() < 1e-9


def bisection_lp_ball(m, p, radius):
    """Nested bisection projection onto {||.||_p <= radius}: the reference.

    An 80-step bisection on the KKT multiplier mu of z + mu*p*z^(p-1) = m,
    each step a 70-step bisection in z; None where the doubling search for
    the upper end of mu runs past 1e18.
    """
    def z_of(mu):
        lo, hi = np.zeros_like(m), m.copy()
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            val = mid + mu * p * np.power(mid, p - 1.0, where=mid > 0, out=np.zeros_like(mid)) - m
            hi, lo = np.where(val > 0, mid, hi), np.where(val > 0, lo, mid)
        return 0.5 * (lo + hi)

    mu_lo, mu_hi = 0.0, 1.0
    while (z_of(mu_hi) ** p).sum() > radius**p:
        mu_hi *= 2.0
        if mu_hi > 1e18:
            return None
    for _ in range(80):
        mu = 0.5 * (mu_lo + mu_hi)
        if (z_of(mu) ** p).sum() > radius**p:
            mu_lo = mu
        else:
            mu_hi = mu
    return z_of(mu_hi)


LP_BALL_PS = [1.1, 4 / 3, 1.5, 2.5, 3.0, 6.0]


@pytest.mark.parametrize("p", LP_BALL_PS)
def test_lp_ball_projection_matches_bisection(p):
    rng = np.random.default_rng(int(100 * p))
    compared = 0
    for frac in (1e-3, 0.3, 0.9, 0.999999):
        m = np.abs(rng.standard_normal(16)) * np.exp(rng.uniform(-3, 3))
        m[rng.random(16) < 0.25] = 0.0  # zero moduli keep a zero projection
        radius = frac * (m**p).sum() ** (1 / p)
        z = _project_lp_ball(m, p, radius)
        assert (z**p).sum() ** (1 / p) <= radius * (1 + 1e-12)
        assert np.all(z[m == 0] == 0.0)
        ref = bisection_lp_ball(m, p, radius)
        if ref is not None:
            assert np.abs(z - ref).max() <= 1e-12 * np.abs(ref).max()
            compared += 1
    assert compared >= 3


@pytest.mark.parametrize("p", [4 / 3, 3.0, 6.0])
@pytest.mark.parametrize("frac", [1e-30, 1e-120])
def test_lp_ball_projection_tiny_radius(p, frac):
    # far below the bisection's reach: its multiplier search gave up at 1e18;
    # at 1e-120, ||m / radius||_q overflows unless it is formed scaled
    m = np.abs(np.random.default_rng(5).standard_normal(16))
    radius = frac * (m**p).sum() ** (1 / p)
    z = _project_lp_ball(m, p, radius)
    assert np.all(np.isfinite(z)) and np.all(z >= 0)
    assert ((z / radius) ** p).sum() ** (1 / p) <= 1 + 1e-12


def test_lp_ball_projection_keeps_inner_points():
    m = np.array([0.3, 0.0, 0.4])
    assert np.array_equal(_project_lp_ball(m, 1.5, 1.0), m)
    assert np.array_equal(_project_lp_ball(m, 1.5, 0.0), np.zeros(3))


def test_l1_ball_projection_radius_below_rounding():
    # no k passes the threshold test in floating point once radius is below
    # the rounding of the largest entry
    z = _project_l1_ball(np.arange(1.0, 9.0), 1e-20)
    assert np.all(np.isfinite(z)) and np.all(z >= 0)
    assert z.sum() <= 1e-20


def test_soft_threshold_frozen():
    # v minus its projection onto the lam-ball of the dual (Moreau) is the
    # prox of lam*||.||_1, which at weight 1 is soft thresholding by lam
    nrm = VectorNorm(1, 1.0)
    v = np.array([3.0, -0.5, 0.2, -2.0], dtype=np.complex128)
    got = v - nrm.project_dual_ball(v, 1.0)
    assert np.abs(got - np.array([2.0, 0.0, 0.0, -1.0])).max() < 1e-14


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_schatten_norm_matches_singular_values(p):
    rng = np.random.default_rng(7)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    s = np.linalg.svd(m, compute_uv=False)
    nrm = SchattenNorm(p, 4)
    want = s.max() if p == np.inf else (s**p).sum() ** (1 / p)
    assert abs(nrm.value(m.ravel()) - want) < 1e-12


def test_schatten_dual_ball_feasible():
    rng = np.random.default_rng(15)
    for p in (1.0, 2.0, np.inf):
        nrm = SchattenNorm(p, 3)
        y = 2 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))).ravel()
        z = nrm.project_dual_ball(y, 0.8)
        assert nrm.dual_value(z) <= 0.8 * (1 + 1e-9)
        assert real_inner(y, z) >= 0.0  # projection never overshoots the origin


def _cone_dist(w, h, v, s):
    return np.sqrt(np.linalg.norm(w - v) ** 2 + (h - s) ** 2)


@pytest.mark.parametrize("p", [1.0, np.inf])
@pytest.mark.parametrize("kind", ["vector-w1", "vector-w16", "schatten"])
def test_cone_projection_feasible_fixed_and_closest(p, kind):
    # the epigraph cone {(v, s): value(v) <= s} of the min-max programs
    nrm = {"vector-w1": VectorNorm(p, 1.0), "vector-w16": VectorNorm(p, 1.0 / 16),
           "schatten": SchattenNorm(p, 4)}[kind]
    rng = np.random.default_rng(71)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for h_scale in (-3.0, -0.1, 0.0, 0.1, 0.5, 3.0):
        for _ in range(4):
            w = cplx(16)
            h = h_scale * nrm.value(w)
            v, s = nrm.cone_project(w, h)
            assert nrm.value(v) <= s * (1 + 1e-12) + 1e-12
            # points of the cone stay fixed: inner ones, and the projection itself
            inner = 0.5 * cplx(16)
            got = nrm.cone_project(inner, 2.0 * nrm.value(inner))
            assert np.abs(got[0] - inner).max() < 1e-12 and got[1] == 2.0 * nrm.value(inner)
            v2, s2 = nrm.cone_project(v, s)
            assert np.abs(v2 - v).max() < 1e-9 and abs(s2 - s) < 1e-9 * max(1.0, s)
            # no sampled cone point is nearer: random ones, and ones near (v, s)
            samples = [(c, nrm.value(c) * (1.0 + abs(rng.standard_normal())))
                       for c in (cplx(16) for _ in range(10))]
            for scale in (1e-2, 1e-4):
                for c in (v + scale * cplx(16) for _ in range(10)):
                    samples.append((c, max(s + scale * rng.standard_normal(), nrm.value(c))))
            d = _cone_dist(w, h, v, s)
            assert all(d <= _cone_dist(w, h, c, c_s) + 1e-9 for c, c_s in samples)


# dividing the first entry by its modulus overflows; below the smallest normal
# float an entry takes phase 1, and the normal entries keep their bits
SUBNORMAL_ENTRY = np.array([1e-320 + 1e-320j, 0.3 - 0.2j, 1.0])


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_subnormal_entry_projects_to_finite_output(p):
    nrm = VectorNorm(p, 1.0 / 3)
    zeroed = SUBNORMAL_ENTRY * [0, 1, 1]
    runs = [(nrm.project_dual_ball(SUBNORMAL_ENTRY, 0.5), nrm.project_dual_ball(zeroed, 0.5))]
    if p in (1.0, np.inf):
        runs.append((nrm.cone_project(SUBNORMAL_ENTRY, 0.1)[0], nrm.cone_project(zeroed, 0.1)[0]))
    for got, ref in runs:
        assert np.isfinite(got).all() and abs(got[0]) <= abs(SUBNORMAL_ENTRY[0])
        assert got[1:].tobytes() == ref[1:].tobytes()


def _reference_vector_cone(p, wgt, w, h):
    """The numpy-loop epigraph-cone projection the scalar scans replaced,
    kept as their bitwise reference; also names the branch taken."""
    nrm = VectorNorm(p, wgt)
    if nrm.value(w) <= h:
        return w.copy(), float(h), "inside"
    if nrm.dual_value(w) <= -h:
        return np.zeros_like(w), 0.0, "polar"
    m = np.abs(w)
    ph = np.divide(w, m, out=np.ones_like(w), where=m > 0)
    best = None
    if p == np.inf:
        u = np.sort(m)[::-1]
        cum = np.cumsum(u)
        for k in range(m.size + 1):
            s = (h + (cum[k - 1] if k else 0.0)) / (1.0 + k)
            lo = u[k] if k < m.size else 0.0
            hi = u[k - 1] if k else np.inf
            if lo - 1e-15 <= s <= hi + 1e-15:
                best = max(s, lo, 0.0)
                break
        if best is None:
            best = max((h + cum[-1]) / (1.0 + m.size), 0.0)
        return ph * np.minimum(m, best), float(best), "scan"
    order = np.argsort(-m / wgt)
    bp = m[order] / wgt
    cum = np.cumsum(m[order])
    for k in range(1, m.size + 1):
        lam = (wgt * cum[k - 1] - h) / (1.0 + k * wgt * wgt)
        hi = bp[k - 1]
        lo = bp[k] if k < m.size else 0.0
        if lo - 1e-15 <= lam <= hi + 1e-15 and lam >= 0:
            best = lam
            break
    if best is None:
        best = max((wgt * cum[-1] - h) / (1.0 + m.size * wgt * wgt), 0.0)
    return ph * np.maximum(m - best * wgt, 0.0), float(h + best), "scan"


def _reference_schatten_cone(p, n, w, h):
    u, s, vh = np.linalg.svd(w.reshape(n, n))
    s2, level, branch = _reference_vector_cone(p, 1.0, s, h)
    return ((u * s2) @ vh).ravel(), level, branch


@pytest.mark.parametrize("p", [1.0, np.inf])
@pytest.mark.parametrize("weight", [1.0, 1.0 / 16, 1.0 / 3, "schatten"])
def test_cone_scans_match_the_numpy_reference_bitwise(p, weight):
    # the pinned min-max iteration counts rest on these projections to the last bit
    rng = np.random.default_rng(73)
    seen = set()
    for i in range(300):
        if weight == "schatten":
            n = int(rng.integers(2, 6))
            w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if i % 5 == 1:  # a zero singular value
                w[:, 0] = w[:, 1:] @ rng.standard_normal(n - 1)
            elif i % 5 == 2:  # tied singular values
                w = np.diag(rng.choice([1.0, 2.0], n) * np.exp(2j * np.pi * rng.random(n)))
            w = w.ravel()
            nrm = SchattenNorm(p, n)
            ref = lambda w, h: _reference_schatten_cone(p, n, w, h)  # noqa: E731
        else:
            size = int(rng.integers(3, 33))
            w = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            if i % 5 == 1:  # zero entries
                w[: size // 2] = 0.0
            elif i % 5 == 2:  # tied moduli
                w = np.round(2.0 * w.real) / 2.0 + 0j
            nrm = VectorNorm(p, weight)
            ref = lambda w, h: _reference_vector_cone(p, weight, w, h)  # noqa: E731
        c = rng.choice([-2.0, -0.5, 0.0, 0.3, 0.7, 1.5])  # -2 and 1.5 take the exits
        h = c * (nrm.value(w) if c >= 0 else nrm.dual_value(w))
        want, got = ref(w, h), nrm.cone_project(w, h)
        seen.add(want[2])
        assert got[0].tobytes() == want[0].tobytes() and type(got[1]) is float and got[1] == want[1]
    assert seen == {"inside", "polar", "scan"}


def _reference_l1_ball(m, radius):
    """The sort-and-scan l^1-ball projection the leaner one replaced, kept as
    its bitwise reference; also names the branch taken."""
    if radius <= 0:
        return np.zeros_like(m), "zero"
    if m.sum() <= radius:
        return m.copy(), "inside"
    u = np.sort(m)[::-1]
    cum = np.cumsum(u)
    k = np.arange(1, m.size + 1)
    fits = np.flatnonzero(u - (cum - radius) / k > 0)
    kk = fits[-1] if fits.size else 0
    theta = (cum[kk] - radius) / (kk + 1)
    return np.maximum(m - theta, 0.0), "scan" if fits.size else "no fit"


def _reference_dual_ball(p, wgt, y, radius):
    """VectorNorm.project_dual_ball as it was before the moduli-level routine:
    phases for every exponent, formed with a masked division.  At p = 2 the
    norm is rescaled by the largest modulus where the plain sum of squares
    would overflow or fall below the smallest normal float."""
    m = np.abs(y)
    ph = np.divide(y, m, out=np.ones_like(y), where=m >= np.finfo(float).tiny)
    if p == 1:
        return ph * np.minimum(m, radius * wgt)
    if p == 2:
        cap = radius * np.sqrt(wgt)
        with np.errstate(over="ignore", under="ignore"):
            squares = (m**2).sum()
            if np.finfo(float).tiny <= squares < np.inf:
                nrm = np.sqrt(squares)
            else:
                top = m.max()
                nrm = top * np.sqrt(((m / top) ** 2).sum()) if top > 0 else 0.0
        return y.copy() if nrm <= cap else y * (cap / nrm)
    if p == np.inf:
        return ph * _reference_l1_ball(m, radius)[0]
    q = p / (p - 1.0)
    return ph * _project_lp_ball(m, q, radius * wgt ** (1.0 / p))


def _reference_spectral_ball(p, wgt, shape, y, radius):
    """Schatten and mixed dual-ball projections as they were: the reference
    vector projection of the singular values, phases included."""
    u, s, vh = np.linalg.svd(y.reshape(shape))
    s2 = _reference_dual_ball(p, wgt, s.ravel(), radius).reshape(s.shape)
    if len(shape) == 2:
        return ((u * s2) @ vh).ravel()
    return np.einsum("tij,tj,tjk->tik", u, s2, vh).ravel()


def _dual_ball_case(rng, i):
    """Input i of the bitwise check: (norm, reference, y, moduli or singular values)."""
    kind = ("vector", "schatten", "mixed")[i % 3]
    if kind == "vector":
        p, wgt = rng.choice([1.0, 2.0, 3.0, np.inf]), rng.choice([1.0, 1.0 / 16])
        nrm, ref = VectorNorm(p, wgt), lambda y, r: _reference_dual_ball(p, wgt, y, r)  # noqa: E731
        shape = (int(rng.integers(1, 65)),)
    elif kind == "schatten":
        n = int(rng.integers(2, 6))
        p, shape = rng.choice([1.0, 2.0, 3.0, np.inf]), (n, n)
        nrm, ref = SchattenNorm(p, n), lambda y, r: _reference_spectral_ball(p, 1.0, shape, y, r)  # noqa: E731
    else:
        npts, n, p = int(rng.choice([2, 4, 8])), int(rng.integers(1, 3)), rng.choice([1.0, 2.0, np.inf])
        shape = (npts, n, n)
        nrm = MixedNorm(p, p, npts, n)
        if p == 2:
            ref = lambda y, r: _reference_dual_ball(2.0, 1.0 / npts, y, r)  # noqa: E731
        else:
            ref = lambda y, r: _reference_spectral_ball(p, 1.0 / npts, shape, y, r)  # noqa: E731
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if i % 7 == 1:  # zero entries, or a rank-deficient matrix
        y[..., 0] = 0.0
    elif i % 7 == 2:  # tied moduli and singular values
        y = np.round(2.0 * y.real) / 2.0 + 0j
    elif i % 7 == 3 and kind == "vector":  # a subnormal entry
        y[0] = 1e-320 + 1e-320j
    elif i % 7 == 3:  # a subnormal singular value
        y = np.zeros(shape, complex) + np.eye(shape[-1])
        y[..., 0, 0] = 1e-320
    y = (y * rng.choice([1.0, 1e300, 1e-300])).ravel()
    if kind == "vector":
        spec = np.abs(y)
    elif kind == "schatten":
        spec = np.linalg.svd(y.reshape(shape), compute_uv=False)
    else:
        spec = np.abs(nrm._spectrum(y))
    return nrm, ref, y, spec


def test_dual_ball_projections_match_the_reference_bitwise(monkeypatch):
    # the pinned split and distance iteration counts rest on these
    # projections to the last bit
    phase_paths, l1_branches = set(), set()
    phases, l1_ball = solver._moduli_phases, solver._project_l1_ball

    def spy_phases(v):
        m, ph = phases(v)
        phase_paths.add(bool(m.min(initial=np.inf) >= np.finfo(float).tiny))
        return m, ph

    def spy_l1_ball(m, radius):
        out = l1_ball(m, radius)
        assert out is not m
        l1_branches.add(_reference_l1_ball(m, radius)[1])
        return out

    monkeypatch.setattr(solver, "_moduli_phases", spy_phases)
    monkeypatch.setattr(solver, "_project_l1_ball", spy_l1_ball)
    rng = np.random.default_rng(28)
    for i in range(360):
        nrm, ref, y, spec = _dual_ball_case(rng, i)
        top, total = float(spec.max()), float(spec.sum())
        # 0, below the rounding of the top, inside the ball, and >= the sum
        radius = rng.choice([0.0, top * 2.0**-60, 0.3 * top, 0.5 * total, 0.9 * total, total, 2.0 * total])
        want, got = ref(y, radius), nrm.project_dual_ball(y, radius)
        assert got.tobytes() == want.tobytes()
    assert phase_paths == {True, False}
    assert l1_branches == {"zero", "inside", "scan", "no fit"}


# The whole (p, q) table. MixedNorm builds only the p = q pairs; each
# test below checks that it refuses the others.
MIXED_PAIRS = [(1, 1), (1, 2), (1, np.inf), (2, 2), (np.inf, 2), (np.inf, np.inf)]


def mixed_norm_or_refused(p, q, npts, n):
    """MixedNorm(p, q, npts, n) for p = q; None once a p != q pair is seen to raise."""
    if p == q:
        return MixedNorm(p, q, npts, n)
    with pytest.raises(NotImplementedError, match="supported pairs"):
        MixedNorm(p, q, npts, n)
    return None


def mixed_oracle(sam, p, q, weight):
    per = np.linalg.svd(sam, compute_uv=False)
    inner = per.max(axis=1) if q == np.inf else (per**q).sum(axis=1) ** (1 / q)
    if p == np.inf:
        return inner.max()
    return (weight * (inner**p).sum()) ** (1 / p)


@pytest.mark.parametrize("pq", MIXED_PAIRS)
def test_mixed_norm_value(pq):
    p, q = pq
    rng = np.random.default_rng(int(17 + 10 * (0 if p == np.inf else p) + (0 if q == np.inf else q)))
    npts, n = 8, 3
    sam = rng.standard_normal((npts, n, n)) + 1j * rng.standard_normal((npts, n, n))
    nrm = mixed_norm_or_refused(p, q, npts, n)
    if nrm is None:
        return
    assert abs(nrm.value(sam.ravel()) - mixed_oracle(sam, p, q, 1.0 / npts)) < 1e-12


@pytest.mark.parametrize("pq", MIXED_PAIRS)
def test_mixed_norm_holder_and_dual_ball(pq):
    p, q = pq
    rng = np.random.default_rng(29)
    npts, n = 8, 2
    nrm = mixed_norm_or_refused(p, q, npts, n)
    if nrm is None:
        return
    for _ in range(10):
        v = (rng.standard_normal((npts, n, n)) + 1j * rng.standard_normal((npts, n, n))).ravel()
        y = (rng.standard_normal((npts, n, n)) + 1j * rng.standard_normal((npts, n, n))).ravel()
        assert real_inner(v, y) <= nrm.value(v) * nrm.dual_value(y) * (1 + 1e-10) + 1e-14
        z = nrm.project_dual_ball(y, 0.6)
        assert nrm.dual_value(z) <= 0.6 * (1 + 1e-8)
        # the nearest point of the ball, and a fixed point of the projection
        for _ in range(20):
            w = (rng.standard_normal((npts, n, n)) + 1j * rng.standard_normal((npts, n, n))).ravel()
            dv = nrm.dual_value(w)
            if dv > 0.6:
                w = w * (0.6 / dv) * 0.999
            assert np.linalg.norm(y - z) <= np.linalg.norm(y - w) + 1e-8
        assert np.abs(nrm.project_dual_ball(z, 0.6 * (1 + 1e-7)) - z).max() < 1e-9


def test_analytic_mask_is_orthogonal_projection():
    rng = np.random.default_rng(33)
    mask = AnalyticMask(16)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    pv, av = mask.project(v), mask.antiproject(v)
    assert np.abs(pv + av - v).max() < 1e-13
    assert np.abs(mask.project(pv) - pv).max() < 1e-13
    assert abs(np.vdot(pv, av)) < 1e-11
    # matches the circle-module Riesz projection
    want = circle.riesz_project(CircleFunction(v)).samples
    assert np.abs(pv - want).max() < 1e-13


def test_analytic_mask_matrix_variant():
    rng = np.random.default_rng(35)
    npts, n = 8, 2
    mask = AnalyticMask(npts, n)
    sam = rng.standard_normal((npts, n, n)) + 1j * rng.standard_normal((npts, n, n))
    pv = mask.project(sam.ravel()).reshape(npts, n, n)
    freq = circle.frequencies(npts)
    co = np.fft.fft(pv, axis=0) / npts
    assert np.abs(co[freq < 0]).max() < 1e-13


@pytest.mark.parametrize("matdim", [None, 2])
@pytest.mark.parametrize("npts", [8, 16, 32, 64])
def test_analytic_mask_matrix_matches_fft(npts, matdim):
    rng = np.random.default_rng(npts + (matdim or 0))
    shape = (npts,) if matdim is None else (npts, matdim, matdim)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mask = AnalyticMask(npts, matdim)
    keep = (circle.frequencies(npts) >= 0).reshape((npts,) + (1,) * (len(shape) - 1))
    want = np.fft.ifft(np.fft.fft(v, axis=0) * keep, axis=0).ravel()
    pv = mask.project(v.ravel())
    scale = np.abs(v).max()
    assert np.abs(pv - want).max() <= 1e-14 * scale
    assert np.abs(mask.project(pv) - pv).max() <= 1e-14 * scale
    assert np.abs(mask._matrix - mask._matrix.conj().T).max() <= 1e-15


def test_analytic_mask_rejects_grid_above_max_grid():
    assert kfunctional.MAX_GRID is MAX_GRID
    assert AnalyticMask(MAX_GRID).npoints == MAX_GRID
    with pytest.raises(ValueError, match="above the supported bound"):
        AnalyticMask(2 * MAX_GRID)


def test_triangular_mask_projection():
    rng = np.random.default_rng(37)
    mask = TriangularMask(4)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    pv = mask.project(m.ravel()).reshape(4, 4)
    assert np.abs(pv - np.triu(m)).max() == 0.0
    assert np.abs(mask.antiproject(m.ravel()).reshape(4, 4) - np.tril(m, -1)).max() == 0.0


# ---------------------------------------------------------------------------
# programs


def seq_k_oracle(x, t):
    """K_t for the counting-measure (l1, linf) couple by direct search."""
    a = np.sort(np.abs(x))[::-1]
    full = int(np.floor(t))
    partial = a[: min(full, a.size)].sum()
    if full < a.size:
        partial += (t - full) * a[full]
    return min(partial, a.sum())


def test_split_same_norm_closed_form():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    for t in (0.3, 1.0, 2.5):
        for p in (1.0, 2.0):
            nrm = VectorNorm(p, 1.0 / 16)
            cert = solve_split(SplitProgram(x, nrm, VectorNorm(p, 1.0 / 16), t), tol=1e-9)
            want = min(1.0, t) * nrm.value(x)
            assert abs(cert.primal - want) < 1e-7 * max(1.0, want)
            assert cert.dual <= cert.primal + 1e-12
            assert np.abs(cert.x0 + cert.x1 - x).max() < 1e-12


def test_split_l1_linf_matches_rearrangement():
    rng = np.random.default_rng(43)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    for t in (0.5, 2.0, 5.0, 20.0):
        cert = solve_split(
            SplitProgram(x, VectorNorm(1, 1.0), VectorNorm(np.inf, 1.0), t), tol=1e-9
        )
        want = seq_k_oracle(x, t)
        assert abs(cert.primal - want) < 1e-7 * max(1.0, want)
        assert cert.gap <= 1e-9 * max(1.0, cert.primal) + 1e-15


def test_split_flat_function_partial_integral():
    f = np.ones(16, dtype=np.complex128)
    for t in (0.25, 0.5, 1.0, 3.0):
        cert = solve_split(
            SplitProgram(f, VectorNorm(1, 1.0 / 16), VectorNorm(np.inf, 1.0 / 16), t),
            tol=1e-10,
        )
        assert abs(cert.primal - min(t, 1.0)) < 1e-8


def test_split_inside_triangular_subspace():
    rng = np.random.default_rng(47)
    n = 3
    x = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    prog = SplitProgram(
        x.ravel(), SchattenNorm(1, n), SchattenNorm(np.inf, n), 1.0, subspace=TriangularMask(n)
    )
    cert = solve_split(prog, tol=1e-8)
    x0 = cert.x0.reshape(n, n)
    assert np.abs(np.tril(x0, -1)).max() < 1e-14  # branch stays in the subspace
    assert np.abs(cert.x0 + cert.x1 - x.ravel()).max() < 1e-12
    assert cert.dual <= cert.primal + 1e-12


@pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
def test_split_program_rejects_t_outside_the_positive_reals(t):
    # a NaN or infinite t used to pass the sign test and iterate to max_iter on NaNs
    start = time.perf_counter()
    with pytest.raises(ValueError, match="positive and finite"):
        SplitProgram(np.ones(8), VectorNorm(1, 1.0), VectorNorm(2, 1.0), t)
    assert time.perf_counter() - start < 1.0


def test_split_zero_target_short_circuits():
    cert = solve_split(SplitProgram(np.zeros(8), VectorNorm(1, 1.0), VectorNorm(2, 1.0), 1.0))
    assert cert.primal == 0.0 and cert.iterations == 0


def test_distance_l2_analytic_is_parseval():
    rng = np.random.default_rng(51)
    n = 16
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cert = solve_distance(v, VectorNorm(2, 1.0 / n), AnalyticMask(n), tol=1e-10)
    co = circle.fourier_coeffs(CircleFunction(v))
    want = np.sqrt((np.abs(co[circle.frequencies(n) < 0]) ** 2).sum())
    assert abs(cert.primal - want) < 1e-8
    assert cert.dual <= cert.primal + 1e-12
    assert cert.dual >= want - 1e-7


def test_distance_one_negative_frequency_frozen():
    # e^{-i theta} is orthogonal to the analytic subspace: L2 distance 1
    f = CircleFunction.harmonic(-1, 16)
    cert = solve_distance(f.samples, VectorNorm(2, 1.0 / 16), AnalyticMask(16), tol=1e-10)
    assert abs(cert.primal - 1.0) < 1e-8


def test_distance_dual_witness_is_honest():
    rng = np.random.default_rng(53)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    nrm = VectorNorm(1, 1.0 / 16)
    cert = solve_distance(v, nrm, AnalyticMask(16), tol=1e-7)
    z = cert.dual_witness["z"]
    assert nrm.dual_value(z) <= 1.0 + 1e-9
    # witness annihilates the subspace, so re<v, z> certifies the bound
    mask = AnalyticMask(16)
    assert np.abs(mask.project(z)).max() < 1e-9
    assert cert.dual <= real_inner(z, v) + 1e-9
    assert cert.dual <= cert.primal + 1e-12


def test_minmax_distance_never_beats_one():
    rng = np.random.default_rng(57)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    n1 = VectorNorm(1, 1.0 / 16)
    ninf = VectorNorm(np.inf, 1.0 / 16)
    mask = AnalyticMask(16)
    d1 = solve_distance(v, n1, mask, tol=1e-9).primal
    dinf = solve_distance(v, ninf, mask, tol=1e-9).primal
    cert = solve_minmax_distance(v, n1, ninf, d1, dinf, mask, tol=1e-6, max_iter=400_000)
    assert cert.primal >= 1.0 - 1e-6  # neither distance can be undercut
    assert cert.dual <= cert.primal + 1e-12
    assert cert.subspace_residual < 1e-6  # raw iterate; the minimizer is re-projected


def test_minmax_distance_single_negative_frequency():
    # for e^{-i theta} one element attains both distances at once
    f = CircleFunction.harmonic(-1, 32)
    n1 = VectorNorm(1, 1.0 / 32)
    ninf = VectorNorm(np.inf, 1.0 / 32)
    mask = AnalyticMask(32)
    d1 = solve_distance(f.samples, n1, mask, tol=1e-9).primal
    dinf = solve_distance(f.samples, ninf, mask, tol=1e-9).primal
    cert = solve_minmax_distance(f.samples, n1, ninf, d1, dinf, mask, tol=1e-6, max_iter=400_000)
    assert cert.primal <= 1.0 + 1e-3


def _seeded(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _analytic(seed, n, degree=5):
    rng = np.random.default_rng(seed)
    c = np.zeros(n, dtype=np.complex128)
    c[:degree] = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    return circle.from_coeffs(c)


def _analytic_mv(seed, npts, n, degree=4):
    rng = np.random.default_rng(seed)
    c = np.zeros((npts, n, n), dtype=np.complex128)
    c[:degree] = rng.standard_normal((degree, n, n)) + 1j * rng.standard_normal((degree, n, n))
    return np.fft.ifft(c * npts, axis=0).ravel()


def _kt(x, couple, t, tol):
    res = kt_bruteforce(x, CoupleId.parse(couple), t, tol=tol)
    return res.iterations, res.value, res.lower


def _cert(cert):
    return cert.iterations, cert.primal, cert.dual


W16, W32 = 1.0 / 16, 1.0 / 32

# masked programs whose lower bounds are re-derived from the dual witness alone
WITNESS_SPLITS = {
    "analytic": lambda: SplitProgram(_analytic(62, 16).samples, VectorNorm(1, W16), VectorNorm(np.inf, W16),
                                     0.2, subspace=AnalyticMask(16)),
    "triangular": lambda: SplitProgram(np.triu(_seeded(72, (4, 4))).ravel(), SchattenNorm(1, 4),
                                       SchattenNorm(np.inf, 4), 1.5, subspace=TriangularMask(4)),
    "mixed": lambda: SplitProgram(_analytic_mv(71, 16, 2), MixedNorm(2, 2, 16, 2),
                                  MixedNorm(np.inf, np.inf, 16, 2), 1.0, subspace=AnalyticMask(16, 2)),
}
WITNESS_MINMAX = {
    "circle": lambda: (_seeded(67, 16), VectorNorm(1, W16), VectorNorm(np.inf, W16), 1.1, 1.3, AnalyticMask(16)),
    "triangular": lambda: (_seeded(68, (4, 4)).ravel(), SchattenNorm(1, 4), SchattenNorm(np.inf, 4), 4.0, 1.5,
                           TriangularMask(4)),
}


@pytest.mark.parametrize("case", sorted(WITNESS_SPLITS))
def test_masked_split_witness_reproves_lower_bound(case):
    prog = WITNESS_SPLITS[case]()
    cert = solve_split(prog, tol=1e-7)
    z0, z1 = cert.dual_witness["z0"], cert.dual_witness["z1"]
    assert prog.norm0.dual_value(z0) <= 1.0 + 1e-9
    assert prog.norm1.dual_value(z1) <= prog.t * (1.0 + 1e-9)
    # z0 + z1 annihilates the subspace, which holds the target and both branches
    scale = max(np.abs(z0).max(), np.abs(z1).max())
    assert np.abs(prog.subspace.project(z0 + z1)).max() <= 1e-9 * scale
    bound = -real_inner(z1, prog.target)
    assert bound == pytest.approx(cert.dual, rel=1e-9, abs=0.0)
    assert 0.0 < cert.dual <= cert.primal


def _h1_hinf_split(t, seed=63, n=32):
    x = _analytic(seed, n).samples
    norm0 = VectorNorm(1, 1.0 / n)
    return SplitProgram(x, norm0, VectorNorm(np.inf, 1.0 / n), t, subspace=AnalyticMask(n)), norm0


@pytest.mark.parametrize("t", [3.0, 0.01])
def test_warm_dual_certifies_analytic_split_outside_the_band(t):
    # at t >= 1 and t < 1/N the ambient optimum is analytic, so its witness certifies it at once
    prog, norm0 = _h1_hinf_split(t)
    warm_primal, warm_dual = _clip_split(prog.target, norm0, prog.norm1, t)
    cert = solve_split(prog, tol=1e-7, warm_primal=warm_primal, warm_dual=warm_dual)
    assert cert.iterations == 0 and cert.converged
    z0, z1 = cert.dual_witness["z0"], cert.dual_witness["z1"]
    assert prog.norm0.dual_value(z0) <= 1.0 + 1e-9
    assert prog.norm1.dual_value(z1) <= t * (1.0 + 1e-9)
    scale = max(np.abs(z0).max(), np.abs(z1).max())
    assert np.abs(prog.subspace.project(z0 + z1)).max() <= 1e-9 * scale
    assert -real_inner(z1, prog.target) == pytest.approx(cert.dual, rel=1e-9, abs=0.0)


def test_warm_dual_never_seeds_the_iteration():
    # inside the band the warm certificate fails and the run is the one without a warm dual
    t = 0.1233
    prog, norm0 = _h1_hinf_split(t)
    warm_primal, warm_dual = _clip_split(prog.target, norm0, prog.norm1, t)
    warm = solve_split(prog, tol=1e-5, warm_primal=warm_primal, warm_dual=warm_dual)
    cold = solve_split(prog, tol=1e-5, warm_primal=warm_primal)
    assert warm.iterations == cold.iterations > 0
    assert (warm.primal, warm.dual) == (cold.primal, cold.dual)
    assert np.array_equal(warm.x0, cold.x0)


def _assert_minmax_witness_reproves(cert, x, norm_a, norm_b, sa, sb, mask):
    za, zb = cert.dual_witness["za"], cert.dual_witness["zb"]
    assert sa * norm_a.dual_value(za) + sb * norm_b.dual_value(zb) <= 1.0 + 1e-9
    scale = max(np.abs(za).max(), np.abs(zb).max())
    assert np.abs(mask.project(za + zb)).max() <= 1e-9 * scale
    bound = real_inner(za + zb, x)
    assert bound == pytest.approx(cert.dual, rel=1e-9, abs=0.0)
    assert 0.0 < cert.dual <= cert.primal


@pytest.mark.parametrize("case", sorted(WITNESS_MINMAX))
def test_masked_minmax_witness_reproves_lower_bound(case):
    x, norm_a, norm_b, sa, sb, mask = WITNESS_MINMAX[case]()
    cert = solve_minmax_distance(x, norm_a, norm_b, sa, sb, mask, tol=1e-5)
    _assert_minmax_witness_reproves(cert, x, norm_a, norm_b, sa, sb, mask)


@pytest.mark.parametrize("c", [1e-3, 1e-2, 1e2, 1e3])
def test_minmax_common_rescaling_converges_in_original_units(c):
    # the epigraph variable is iterated as sqrt(sa*sb)*s, so a common factor on
    # both scales leaves the steps alone; unscaled, c = 1e3 did not converge in
    # 50,000 iterations.  Lopsided scales such as (1e-3, 1e3) still need
    # per-block dual steps.
    x, norm_a, norm_b, sa, sb, mask = WITNESS_MINMAX["triangular"]()
    sa, sb = c * sa, c * sb
    cert = solve_minmax_distance(x, norm_a, norm_b, sa, sb, mask, tol=1e-5, max_iter=1000)
    assert cert.converged
    _assert_minmax_witness_reproves(cert, x, norm_a, norm_b, sa, sb, mask)


# (run, iterations, primal, dual): any change to the engine's arithmetic or
# stopping rule moves an iteration count or a value here
PINNED = {
    "split_plain": (lambda: _cert(solve_split(
        SplitProgram(_seeded(61, 16), VectorNorm(1, W16), VectorNorm(np.inf, W16), 0.3), tol=1e-8)),
        2450, 0.6611825451805476, 0.6611825352303305),
    "split_analytic_mask": (lambda: _cert(solve_split(
        SplitProgram(_analytic(62, 16).samples, VectorNorm(1, W16), VectorNorm(np.inf, W16), 0.2,
                     subspace=AnalyticMask(16)), tol=1e-7)),
        250, 1.1760803214577054, 1.176080314988106),
    # warm-started primal, t * N just below 4: the hard band of the endpoint sweep
    "kt_h1_hinf_hard_band": (lambda: _kt(_analytic(63, 32), "h1,hinf", 0.1233, 1e-6),
                             3700, 0.8468861045986086, 0.8468851185066746),
    # the warm dual certifies the exact ambient start at 0 iterations
    "kt_seq1_seqinf_warm": (lambda: _kt(_seeded(64, 12), "seq1,seqinf", 2.5, 1e-8),
                            0, 3.9332882034321863, 3.9332882034321854),
    # singular-value warm start: certified at once, then iterated from a zero dual under the mask
    "kt_S1_Sinf_warm": (lambda: _kt(_seeded(69, (4, 4)), "S1,Sinf", 1.5, 1e-8),
                        0, 5.024820003176316, 5.024820003176313),
    "kt_T1_Tinf_warm": (lambda: _kt(np.triu(_seeded(70, (4, 4))), "T1,Tinf", 1.5, 1e-6),
                        150, 3.9523045995379364, 3.952303365942123),
    # the doubled mixed-norm couple of the matrix-valued squaring split
    "split_mixed": (lambda: _cert(solve_split(
        SplitProgram(_analytic_mv(71, 16, 2), MixedNorm(2, 2, 16, 2), MixedNorm(np.inf, np.inf, 16, 2),
                     1.0, subspace=AnalyticMask(16, 2)), tol=1e-6)),
        450, 3.818445111099396, 3.8184416810761403),
    "distance_vector": (lambda: _cert(solve_distance(
        _seeded(65, 16), VectorNorm(1, W16), AnalyticMask(16), tol=1e-7)),
        150, 0.8749420130914125, 0.8749419841428788),
    "distance_schatten_triangular": (lambda: _cert(solve_distance(
        _seeded(66, (4, 4)).ravel(), SchattenNorm(np.inf, 4), TriangularMask(4), tol=1e-7)),
        100, 3.024955345377583, 3.0249553341553215),
    "minmax_circle": (lambda: _cert(solve_minmax_distance(
        _seeded(67, 16), VectorNorm(1, W16), VectorNorm(np.inf, W16), 1.1, 1.3, AnalyticMask(16),
        tol=1e-5)),
        1450, 0.9924341054521808, 0.9924254153591983),
    "minmax_triangular": (lambda: _cert(solve_minmax_distance(
        _seeded(68, (4, 4)).ravel(), SchattenNorm(1, 4), SchattenNorm(np.inf, 4), 4.0, 1.5,
        TriangularMask(4), tol=1e-5)),
        100, 1.667874356763596, 1.6678727598600604),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_programs_pinned(case):
    run, iterations, primal, dual = PINNED[case]
    got_it, got_primal, got_dual = run()
    assert got_it == iterations
    assert got_primal == pytest.approx(primal, rel=1e-9, abs=0.0)
    assert got_dual == pytest.approx(dual, rel=1e-9, abs=0.0)


# the three programs at a tol no run reaches, each with the lower bound its
# dual witness re-derives (None when the witness is empty)
def _split_stop(max_iter):
    prog = WITNESS_SPLITS["analytic"]()
    cert = solve_split(prog, tol=1e-30, max_iter=max_iter)
    return cert, max(0.0, -real_inner(cert.dual_witness["z1"], prog.target))


def _distance_stop(max_iter):
    x = _seeded(65, 16)
    cert = solve_distance(x, VectorNorm(1, W16), AnalyticMask(16), tol=1e-30, max_iter=max_iter)
    return cert, real_inner(cert.dual_witness["z"], x)


def _minmax_stop(max_iter):
    x, norm_a, norm_b, sa, sb, mask = WITNESS_MINMAX["circle"]()
    cert = solve_minmax_distance(x, norm_a, norm_b, sa, sb, mask, tol=1e-30, max_iter=max_iter)
    w = cert.dual_witness
    return cert, max(0.0, real_inner(w["za"] + w["zb"], x)) if w else None


STOP_RUNS = {"split": _split_stop, "distance": _distance_stop, "minmax": _minmax_stop}


@pytest.mark.parametrize("max_iter", [1, 7, 50])
@pytest.mark.parametrize("program", sorted(STOP_RUNS))
def test_engine_stops_unconverged_at_max_iter(program, max_iter):
    cert, lower = STOP_RUNS[program](max_iter)
    assert cert.iterations == max_iter and cert.converged is False
    assert cert.gap == cert.primal - cert.dual
    assert cert.dual <= cert.primal
    if lower is None:
        assert cert.dual == 0.0
    else:
        assert lower == pytest.approx(cert.dual, rel=1e-9, abs=1e-15)


def _finite_fields(cert):
    arrays = [cert.x0, cert.x1, cert.minimizer, *cert.dual_witness.values()]
    scalars = [cert.primal, cert.dual, cert.gap, cert.subspace_residual]
    return all(np.all(np.isfinite(a)) for a in arrays if a is not None) and np.all(np.isfinite(scalars))


def test_engine_restarts_on_degenerate_inputs():
    # p = 1, t = 1: every split is optimal, the primal never moves and the
    # restart at iteration 100 sees a zero primal change; the distance and
    # min-max runs at an unreachable tol pass several restarts
    rng = np.random.default_rng(41)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    with np.errstate(all="raise"):
        runs = [
            solve_split(SplitProgram(x, VectorNorm(1, W16), VectorNorm(1, W16), 1.0), tol=1e-9),
            _distance_stop(500)[0],
            _minmax_stop(500)[0],
        ]
    assert runs[0].converged and runs[1].iterations == runs[2].iterations == 500
    assert all(_finite_fields(cert) for cert in runs)


def test_benchmark_contract_names():
    # perfbench binds these by name; it runs outside the tier-1 suite
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(solve_split) == ["prog", "tol", "max_iter", "warm_primal", "warm_dual"]
    assert params(solve_distance) == ["target", "norm", "subspace", "tol", "max_iter"]
    assert params(solve_minmax_distance) == ["target", "norm_a", "norm_b", "scale_a", "scale_b", "subspace",
                                             "tol", "max_iter"]
    assert [f.name for f in dataclasses.fields(SplitProgram)] == ["target", "norm0", "norm1", "t", "subspace"]
    assert {"primal", "dual", "gap", "iterations", "converged", "dual_witness"} <= {
        f.name for f in dataclasses.fields(SolverCertificate)}
    keys = {name: set(run(50)[0].dual_witness) for name, run in STOP_RUNS.items()}
    assert keys == {"split": {"z0", "z1"}, "distance": {"z"}, "minmax": {"za", "zb"}}
