"""Weak-type embedding values against their strong-norm targets."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kclose import circle
from kclose.circle import CircleFunction
from kclose.embed import kq_embed, kq_embed_matrix
from kclose.schatten import MatrixOperator, schatten_norm


def test_flat_function_is_exact():
    f = CircleFunction.constant(1.0, 32)
    r = kq_embed(f, 2.0, n_max=10_000)
    assert abs(r.target - 1.0) < 1e-14
    assert r.residual < 1e-12
    assert r.residual >= -1e-12
    assert r.value <= r.target + 1e-12


def test_two_level_function_close():
    sam = np.where(np.arange(32) < 16, 1.0, 0.5).astype(np.complex128)
    f = CircleFunction(sam)
    r = kq_embed(f, 2.0, n_max=10_000)
    # targets are reported in mass units: the q-th power of the strong norm
    assert abs(r.target - circle.lp_norm(f, 2.0) ** 2) < 1e-14
    assert -1e-12 <= r.residual < 1e-3


def test_value_scales_homogeneously():
    rng = np.random.default_rng(3)
    f = CircleFunction(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    r1 = kq_embed(f, 2.0, n_max=2000)
    r7 = kq_embed(CircleFunction(7.0 * f.samples), 2.0, n_max=2000)
    # mass units scale with the q-th power of the multiplier
    assert abs(r7.value - 49.0 * r1.value) < 1e-10 * r7.value


def test_residual_decreases_as_nmax_doubles():
    rng = np.random.default_rng(5)
    f = CircleFunction(rng.standard_normal(32) + 1j * rng.standard_normal(32))
    prev = np.inf
    for n_max in (1000, 2000, 4000, 8000):
        r = kq_embed(f, 2.0, n_max=n_max)
        assert r.residual <= prev + 1e-12
        assert r.residual >= -1e-12
        prev = r.residual


def test_random_sweep_small_relative_residual():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        f = CircleFunction(rng.standard_normal(32) + 1j * rng.standard_normal(32))
        r = kq_embed(f, 2.0, n_max=10_000)
        assert -1e-12 <= r.residual < 1e-3 * r.target
        assert r.tail_bound >= 0.0
        assert r.argmax_t > 0.0


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_other_exponents_stay_below_target(q):
    rng = np.random.default_rng(11)
    f = CircleFunction(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    r = kq_embed(f, q, n_max=5000)
    assert r.value <= r.target + 1e-12
    assert abs(r.target - circle.lp_norm(f, q) ** q) < 1e-12


def test_accepts_plain_arrays_with_counting_normalisation():
    x = np.array([2.0, 1.0, 1.0, 0.0])
    r = kq_embed(x, 2.0, n_max=4000)
    want = np.mean(np.abs(x) ** 2)
    assert abs(r.target - want) < 1e-14
    assert -1e-12 <= r.residual < 1e-3


def test_rejects_bad_exponent():
    f = CircleFunction.constant(1.0, 16)
    for q in (1.0, 0.5, np.inf):
        with pytest.raises(ValueError):
            kq_embed(f, q)


def _exact_weak_q2(a, n_max):
    """For q = 2 and squared moduli a: the exact candidates u = t^2 = a_k/n,
    the sum u * w * sum_k min(n_max, floor(a_k/u)) at each, and its maximum."""
    a = [Fraction(ak) for ak in a]
    w = Fraction(1, len(a))
    sums = {u: u * w * sum(min(n_max, math.floor(ak / u)) for ak in a)
            for u in {ak / n for ak in a for n in range(1, n_max + 1)}}
    return sums, max(sums.values())


@pytest.mark.parametrize("n_max", [10, 50, 200])
@pytest.mark.parametrize("v, a", [
    ([1.0, 0.5], [1, Fraction(1, 4)]),
    ([3.0, 1.5, 1.0, 1.0], [9, Fraction(9, 4), 1, 1]),
    ([2.0, 2.0 / math.sqrt(2.0), 2.0 / math.sqrt(3.0)], [4, 2, Fraction(4, 3)]),
])
def test_tied_breakpoints_match_exact_reference(v, a, n_max):
    # v_k n^{-1/2} and v_j m^{-1/2} meet at a breakpoint (and the maximum is
    # attained on whole plateaus of thresholds): the value is the exact one up
    # to rounding, and the reported threshold is one where it is attained
    sums, best = _exact_weak_q2(a, n_max)
    r = kq_embed(v, 2.0, n_max)
    assert abs(r.value - float(best)) <= 4 * math.ulp(float(best))
    u = Fraction(r.argmax_t) ** 2
    near = [c for c in sums if abs(c - u) <= Fraction(1, 10**12) * c]
    assert len(near) == 1 and sums[near[0]] == best


@pytest.mark.parametrize("payload", [[np.nan, 1.0], [np.inf, 1.0], [1.0, complex(1.0, np.nan)]])
def test_rejects_non_finite_samples(payload):
    with pytest.raises(ValueError, match="finite"):
        kq_embed(payload, 2.0, 100)


@pytest.mark.parametrize("n_max", [2.5, 3.0, True, 0, -1, "10"])
def test_rejects_non_integer_n_max(n_max):
    with pytest.raises(ValueError, match="n_max"):
        kq_embed([1.0, 2.0], 2.0, n_max)
    with pytest.raises(ValueError, match="n_max"):
        kq_embed_matrix(np.eye(2), 2.0, n_max)


def test_accepts_numpy_integer_n_max():
    assert kq_embed([1.0, 2.0], 2.0, np.int64(100)) == kq_embed([1.0, 2.0], 2.0, 100)


# ---------------------------------------------------------------------------
# matrix variant


def test_matrix_diag_exact_at_modest_nmax():
    x = np.diag([3.0, 1.0])
    want = np.sqrt(10.0)
    prev = np.inf
    for n_max in (1000, 10_000, 100_000):
        r = kq_embed_matrix(x, 2.0, n_max=n_max)
        assert abs(r.target - want) < 1e-12
        assert abs(r.value - want) < 1e-9
        assert r.residual <= prev + 1e-12
        prev = r.residual


def test_matrix_value_below_schatten_target():
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r = kq_embed_matrix(MatrixOperator(m), 2.0, n_max=20_000)
        assert abs(r.target - schatten_norm(MatrixOperator(m), 2.0)) < 1e-12
        assert r.value <= r.target + 1e-12
        assert r.residual < 1e-2 * r.target


def test_matrix_scaling():
    m = np.diag([2.0, 0.5])
    r1 = kq_embed_matrix(m, 2.0, n_max=5000)
    r3 = kq_embed_matrix(3.0 * m, 2.0, n_max=5000)
    assert abs(r3.value - 3.0 * r1.value) < 1e-10 * r3.value


def test_matrix_rejects_non_square_payload():
    with pytest.raises(ValueError, match="square"):
        kq_embed_matrix(CircleFunction.constant(1.0, 8), 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_matrix_rejects_non_finite_entries(bad):
    m = np.eye(3)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        kq_embed_matrix(m, 2.0, 100)


def test_matrix_tail_bound_is_a_python_float():
    r = kq_embed_matrix(np.diag([3.0, 1.0]), 2.0, n_max=1000)
    assert type(r.tail_bound) is float and r.tail_bound >= 0.0
