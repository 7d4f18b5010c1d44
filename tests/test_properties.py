"""Property tests of the masked (H^1, H^inf) split on small grids, of the
exact ambient (1, q) split that certifies itself before any iteration, of
the exact level of the ambient truncation split, and of the weak-type
embedding value read off its sorted pool."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kclose import circle, schatten
from kclose.embed import kq_embed
from kclose.kfunctional import (
    CoupleId,
    _clip_split,
    best_truncation_level,
    couple_norms,
    kt_bruteforce,
    kt_closed_form,
)
from kclose.solver import MixedNorm, SplitProgram, solve_split

TOL = 1e-7
H1_HINF = CoupleId("hardy", 1, np.inf)

# the analytic frequencies 0..3 exist on both grids
COEFFS = st.lists(
    st.complex_numbers(min_magnitude=0.01, max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=4,
)


def _analytic(n, coeffs):
    c = np.zeros(n, dtype=np.complex128)
    c[: len(coeffs)] = coeffs
    return circle.from_coeffs(c)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.sampled_from([8, 16]), coeffs=COEFFS, log_t=st.floats(-2.0, 2.0))
def test_masked_split_lies_between_ambient_and_trivial_splits(n, coeffs, log_t):
    c = np.zeros(n, dtype=np.complex128)
    c[: len(coeffs)] = coeffs
    f = circle.from_coeffs(c)
    t = 10.0**log_t
    res = kt_bruteforce(f, H1_HINF, t, tol=TOL)
    slack = TOL * max(1.0, res.value)
    moduli = np.abs(f.samples)
    # where a trivial split is optimal, the two bounds meet up to rounding
    assert res.lower <= res.value + 1e-14 * max(1.0, res.value)
    # the ambient couple has more splits, so its K_t is no larger
    assert res.value >= kt_closed_form(f, t) - slack
    # x0 = f and x0 = 0 are splits inside the subspace
    assert res.value <= min(moduli.mean(), t * moduli.max()) + slack


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.sampled_from([8, 16]), coeffs=COEFFS, band=st.sampled_from(["below", "inside", "above"]),
       frac=st.floats(0.01, 0.99))
def test_masked_split_bounds_the_ambient_value_in_every_band(n, coeffs, band, frac):
    c = np.zeros(n, dtype=np.complex128)
    c[: len(coeffs)] = coeffs
    f = circle.from_coeffs(c)
    # t below 1/N, inside (1/N, 1), or at least 1
    t = {"below": frac / n, "inside": n ** (frac - 1.0), "above": 100.0**frac}[band]
    res = kt_bruteforce(f, H1_HINF, t, tol=TOL)
    scale = max(1.0, res.value)
    # subspace K >= ambient K, down to the certified lower bound
    assert res.lower >= kt_closed_form(f, t) - 1e-12 * scale
    assert res.value - res.lower <= TOL * scale
    if t >= 1.0:
        assert res.iterations == 0


# K_t = inf over splits of ||x0|| + t*||x1|| is an infimum of affine
# functions of t with nonnegative slopes, so it is nondecreasing and concave;
# each certified bracket may sit up to its gap away from K_t.  The t's lie in
# (1/N, 1), where the solver iterates rather than certifying a warm start.
@settings(max_examples=15, deadline=None, derandomize=True)
@given(n=st.sampled_from([8, 16]), coeffs=COEFFS, fracs=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2))
def test_masked_split_bracket_is_nondecreasing_in_t(n, coeffs, fracs):
    f = _analytic(n, coeffs)
    lo, hi = (kt_bruteforce(f, H1_HINF, n ** (frac - 1.0), tol=TOL) for frac in sorted(fracs))
    slack = TOL * max(1.0, hi.value)
    assert lo.value <= hi.value + slack
    assert lo.lower <= hi.lower + slack


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n=st.sampled_from([8, 16]), coeffs=COEFFS, fracs=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2),
       lam=st.floats(0.05, 0.95))
def test_masked_split_bracket_is_concave_in_t(n, coeffs, fracs, lam):
    f = _analytic(n, coeffs)
    ta, tb = (n ** (frac - 1.0) for frac in fracs)
    a, b, mid = (kt_bruteforce(f, H1_HINF, t, tol=TOL) for t in (ta, tb, (1.0 - lam) * ta + lam * tb))
    chord = (1.0 - lam) * a.value + lam * b.value
    assert mid.lower >= chord - 2.0 * TOL * max(1.0, mid.value, a.value, b.value)


# ---------------------------------------------------------------------------
# the ambient (1, q) clip split: kt_bruteforce and ambient_mixed_kt certify it
# at 0 iterations, inside a cold solve's bracket, from its witness alone

CLIP_KINDS = ("sequence", "lebesgue", "schatten", "mixed")
CLIP_SHAPES = {"sequence": (8,), "lebesgue": (16,), "schatten": (3, 3), "mixed": (8, 2, 2)}


def _check_clip_route(kind, q, x, t):
    if kind == "mixed":
        npts, n = x.shape[:2]
        prog = SplitProgram(x, MixedNorm(1, 1, npts, n), MixedNorm(q, q, npts, n), t)
        cert = schatten.ambient_mixed_kt(schatten.MatrixValuedFunction(x), 1, 1, q, q, t)
    else:
        couple = CoupleId(kind, 1, q)
        n0, n1, _ = couple_norms(couple, x)
        prog = SplitProgram(x, n0, n1, t)
        warm_primal, warm_dual = _clip_split(prog.target, n0, n1, t)
        cert = solve_split(prog, warm_primal=warm_primal, warm_dual=warm_dual)
        res = kt_bruteforce(x, couple, t)
        assert (res.iterations, res.converged, res.value, res.lower) == (0, True, cert.primal, cert.dual)
    assert cert.iterations == 0 and cert.converged
    # a cold bracket stays certified when it stops short of its tol
    cold = solve_split(prog, tol=1e-10, max_iter=5000)
    slack = 1e-12 * max(1.0, cold.primal)
    assert cold.dual - slack <= cert.dual <= cert.primal + slack
    assert cert.primal <= cold.primal + slack
    z0, z1 = cert.dual_witness["z0"], cert.dual_witness["z1"]
    assert np.array_equal(z0, -z1)
    assert prog.norm0.dual_value(z0) <= 1.0 + 1e-12
    assert prog.norm1.dual_value(z1) <= t * (1.0 + 1e-12)
    assert -np.real(np.vdot(prog.target, z1)) == pytest.approx(cert.dual, rel=1e-12, abs=0.0)


def _partial_clip_t(kind, q, x):
    """The geometric mean of the t where the clip starts to cap the largest
    modulus or singular value and the t where it caps them all."""
    if kind == "mixed":
        values, weight = np.linalg.svd(x, compute_uv=False).ravel(), 1.0 / x.shape[0]
    elif kind == "schatten":
        values, weight = np.linalg.svd(x, compute_uv=False), 1.0
    else:
        values, weight = np.abs(x), 1.0 / x.size if kind == "lebesgue" else 1.0
    u = values / values.max()
    first = np.sum(u == 1.0) if q == np.inf else np.sum(u**q)
    qc = 1.0 if q == np.inf else q / (q - 1.0)
    return float((weight**2 * first * values.size) ** (0.5 / qc))


# MixedNorm takes p in {1, 2, inf}
@pytest.mark.parametrize("kind, q", [(kind, q) for kind in CLIP_KINDS for q in (1.5, 2.0, 4.0, np.inf)
                                     if kind != "mixed" or q in (2.0, np.inf)])
def test_ambient_l1_couple_is_certified_by_the_clip(kind, q):
    rng = np.random.default_rng(47)
    x = rng.standard_normal(CLIP_SHAPES[kind]) + 1j * rng.standard_normal(CLIP_SHAPES[kind])
    _check_clip_route(kind, q, x, _partial_clip_t(kind, q, x))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(kind=st.sampled_from(CLIP_KINDS), q=st.sampled_from([1.5, 2.0, 4.0, np.inf]),
       seed=st.integers(0, 2**16), log_t=st.floats(-2.0, 2.0))
def test_clip_route_lies_in_the_cold_bracket(kind, q, seed, log_t):
    assume(kind != "mixed" or q in (2.0, np.inf))
    rng = np.random.default_rng(seed)
    shape = CLIP_SHAPES[kind]
    if kind in ("sequence", "schatten"):
        n = int(rng.integers(2, 9 if kind == "sequence" else 5))
        shape = (n,) if kind == "sequence" else (n, n)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    _check_clip_route(kind, q, x, 10.0**log_t)


# zeros and ties come from the sampled values, subnormal and tiny ones from the floats
TRUNCATION_VALUES = st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 10.0)),
                             min_size=1, max_size=16)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=TRUNCATION_VALUES, uniform=st.booleans(), p0=st.floats(1.01, 7.5), gap=st.floats(0.01, 1.0),
       log_t=st.floats(-2.0, 2.0), log_c=st.floats(-60.0, 60.0))
def test_truncation_level_is_the_global_minimum(values, uniform, p0, gap, log_t, log_c):
    v = np.array(values)
    assume(v.max() > 0)
    weight = 1.0 / v.size if uniform else 1.0
    p1, t, top = p0 + gap * (8.0 - p0), 10.0**log_t, v.max()

    def cost(lam):  # on v / top, so that no power of a tiny value underflows
        u, flat = v / top, np.minimum(v, lam) / top
        c0 = (weight * np.sum((u - flat) ** p0)) ** (1.0 / p0)
        return top * (c0 + t * (weight * np.sum(flat**p1)) ** (1.0 / p1))

    lam, c = best_truncation_level(v, weight, p0, p1, t)
    assert 0.0 <= lam <= top
    assert abs(c - cost(lam)) <= 1e-14 * c
    assert all(c <= cost(level) * (1 + 1e-13) for level in [0.0, top, *v])
    # the cost is homogeneous; at c = 1e60 and p1 = 8 a raw power would overflow
    scale = 10.0**log_c
    _, scaled = best_truncation_level(v * scale, weight, p0, p1, t)
    assert abs(scaled - scale * c) <= 1e-12 * scale * c


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
                                 st.floats(1e-3, 10.0)), min_size=1, max_size=8),
       q=st.one_of(st.sampled_from([1.5, 2.0, 3.0]), st.floats(1.01, 6.0)),
       n_max=st.integers(1, 50))
def test_embed_value_is_the_brute_force_pool_maximum(values, q, n_max):
    # every threshold t of the pool counted against the whole pool, O(P^2)
    v = np.asarray(values)
    w = 1.0 / v.size
    pool = np.outer(v[v > 0.0], np.arange(1, n_max + 1, dtype=float) ** (-1.0 / q)).ravel()
    r = kq_embed(v, q, n_max)
    if pool.size == 0:
        assert r.value == 0.0 and r.argmax_t == 0.0
        return
    s = pool**q * w * (pool[None, :] >= pool[:, None]).sum(axis=1)
    assert r.value == s.max()
    # among equal values the smallest threshold is reported
    assert r.argmax_t == pool[s == s.max()].min()
