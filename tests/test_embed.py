"""Weak-type embedding values against their strong-norm targets."""

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
