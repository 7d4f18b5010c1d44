"""Blaschke products, outer functions, and multiplicative splittings."""

import warnings

import numpy as np
import pytest

from kclose import circle
from kclose.circle import CircleFunction, from_coeffs
from kclose.factorize import (
    BlaschkeProduct,
    BoundaryZeroWarning,
    holder_factor,
    inner_outer,
    outer_function,
    sqrt_factor,
)


def poly(coeff_list, n):
    c = np.zeros(n, dtype=np.complex128)
    c[: len(coeff_list)] = coeff_list
    return from_coeffs(c)


def rand_weight(n, seed, spread=0.5):
    rng = np.random.default_rng(seed)
    u = np.zeros(n)
    theta = 2 * np.pi * np.arange(n) / n
    for j in range(1, 5):
        u += spread / j * (rng.standard_normal() * np.cos(j * theta) + rng.standard_normal() * np.sin(j * theta))
    return np.exp(u)


# ---------------------------------------------------------------------------
# Blaschke products


def test_blaschke_boundary_is_unimodular():
    b = BlaschkeProduct(np.array([0.0, 0.3 + 0.2j, -0.5j]))
    vals = b.boundary(32).samples
    assert np.abs(np.abs(vals) - 1.0).max() < 1e-12


def test_blaschke_vanishes_at_its_zeros():
    zeros = np.array([0.25, -0.1 + 0.4j])
    b = BlaschkeProduct(zeros)
    assert np.abs(b(zeros)).max() < 1e-14


def test_blaschke_each_factor_positive_at_origin():
    b = BlaschkeProduct(np.array([0.3 + 0.2j]))
    assert b(np.array([0.0]))[0].real > 0
    assert abs(b(np.array([0.0]))[0].imag) < 1e-14


def test_blaschke_zeros_are_a_read_only_copy():
    # a factorization kept on its function must not change under the caller
    z = np.array([0.25, -0.1 + 0.4j])
    b = BlaschkeProduct(z)
    assert not np.shares_memory(b.zeros, z)
    with pytest.raises(ValueError):
        b.zeros[0] = 0.5
    z[0] = 0.9
    assert b.zeros[0] == 0.25
    assert BlaschkeProduct(0.5).zeros.shape == (1,)


def test_blaschke_rejects_boundary_zeros_and_bad_rotation():
    with pytest.raises(ValueError):
        BlaschkeProduct(np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        BlaschkeProduct(np.array([0.999999999]))
    with pytest.raises(ValueError):
        BlaschkeProduct(np.array([0.1]), rotation=2.0)


# ---------------------------------------------------------------------------
# outer functions


def test_outer_constant_weight():
    o = outer_function(np.full(16, 4.0))
    assert np.abs(o.boundary.samples - 4.0).max() < 1e-13
    assert abs(o.value_at_zero - 4.0) < 1e-13


def test_outer_modulus_matches_weight():
    for seed in range(5):
        w = rand_weight(64, seed)
        o = outer_function(w)
        assert np.abs(np.abs(o.boundary.samples) - w).max() < 1e-10 * w.max()
        # the exponential leaks a little past Nyquist; the leak is reported
        assert o.analyticity_residual < 1e-7 * w.max()
        assert o.value_at_zero > 0


def test_outer_value_at_zero_is_geometric_mean():
    w = rand_weight(64, 11)
    o = outer_function(w)
    assert abs(o.value_at_zero - np.exp(np.mean(np.log(w)))) < 1e-10


def test_outer_multiplicative():
    w1 = rand_weight(64, 3)
    w2 = rand_weight(64, 4)
    o1 = outer_function(w1)
    o2 = outer_function(w2)
    o12 = outer_function(w1 * w2)
    prod = o1.boundary.samples * o2.boundary.samples
    assert np.abs(o12.boundary.samples - prod).max() < 1e-9 * np.abs(prod).max()


def test_outer_rejects_bad_weights():
    with pytest.raises(ValueError):
        outer_function(np.zeros(16))
    with pytest.raises(ValueError):
        outer_function(np.linspace(-1, 1, 16))
    with pytest.raises(ValueError):
        outer_function(np.full(16, 1.0 + 0.1j))


def test_outer_rejects_scalar_weight():
    with pytest.raises(ValueError, match="grid size"):
        outer_function(4.0)


def test_outer_rejects_weight_that_is_not_one_dimensional():
    with pytest.raises(ValueError, match="one-dimensional"):
        outer_function(np.ones((2, 4)))


# ---------------------------------------------------------------------------
# square-free factorization


def test_sqrt_factor_pure_monomial():
    f = poly([0, 0, 1], 16)  # z^2
    fac = sqrt_factor(f)
    assert np.abs(fac.blaschke.zeros - 0.0).max() == 0.0
    assert fac.blaschke.degree == 2
    assert abs(fac.blaschke.rotation - 1.0) < 1e-12
    assert np.abs(fac.outer.boundary.samples - 1.0).max() < 1e-12
    assert fac.residual < 1e-12


def test_sqrt_factor_origin_zero_with_outer_part():
    # z*(1 - z/2)^2 has one zero inside and a double zero outside; the
    # Nyquist truncation of log(1 - z/2) needs a 64-grid for full accuracy
    f = poly([0, 1, -1.0, 0.25], 64)
    fac = sqrt_factor(f)
    assert fac.blaschke.degree == 1
    assert np.abs(fac.blaschke.zeros[0]) < 1e-10
    assert fac.residual < 1e-9
    assert np.abs(fac.reconstruct().samples - f.samples).max() < 1e-9 * np.abs(f.samples).max()


def test_sqrt_factor_planted_interior_zero():
    base = np.zeros(64, dtype=np.complex128)
    base[:5] = [1.0, 0.5, 0.25, 0.125, 0.0625]
    g = from_coeffs(base)
    f = CircleFunction((np.exp(2j * np.pi * np.arange(64) / 64) - 0.3) * g.samples)
    fac = sqrt_factor(f)
    assert fac.blaschke.degree == 1
    assert abs(fac.blaschke.zeros[0] - 0.3) < 1e-8
    assert fac.residual < 1e-9


def test_sqrt_factor_warns_near_boundary_zero():
    z = np.exp(2j * np.pi * np.arange(32) / 32)
    f = CircleFunction((z - (1.0 + 1e-10)) * (z - 0.2))
    with pytest.warns(BoundaryZeroWarning):
        fac = sqrt_factor(f)
    # the near-circle zero is absorbed into the outer part, not the Blaschke
    assert fac.blaschke.degree == 1


def test_sqrt_factor_is_kept_on_the_function():
    z = np.exp(2j * np.pi * np.arange(32) / 32)
    f = CircleFunction((z - (1.0 + 1e-10)) * (z - 0.2))
    with pytest.warns(BoundaryZeroWarning):
        fac = sqrt_factor(f)
    # the second call returns the same factorization, without a second warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sqrt_factor(f) is fac
    with pytest.warns(BoundaryZeroWarning):
        assert sqrt_factor(CircleFunction(f.samples)) is not fac


def test_sqrt_factor_rejects_non_analytic():
    with pytest.raises(ValueError):
        sqrt_factor(CircleFunction.harmonic(-1, 16))
    with pytest.raises(ValueError):
        sqrt_factor(CircleFunction(np.zeros(16, dtype=np.complex128)))


def test_sqrt_factor_random_decaying_sweep():
    for seed in range(8):
        rng = np.random.default_rng(200 + seed)
        deg = 6
        c = np.zeros(64, dtype=np.complex128)
        c[0] = 3.0  # dominant constant keeps the zeros well outside the disc
        c[1 : deg + 1] = (rng.standard_normal(deg) + 1j * rng.standard_normal(deg)) / np.arange(
            2, deg + 2
        ) ** 2
        f = from_coeffs(c)
        fac = sqrt_factor(f)
        assert fac.residual < 1e-8
        rec = fac.reconstruct()
        assert np.abs(rec.samples - f.samples).max() < 1e-8 * np.abs(f.samples).max()


def test_sqrt_factor_recovers_rotation():
    phi = np.exp(1.1j)
    f = CircleFunction(phi * np.exp(2j * np.pi * np.arange(16) / 16) ** 2)
    fac = sqrt_factor(f)
    assert abs(fac.blaschke.rotation - phi) < 1e-10


# ---------------------------------------------------------------------------
# exponent splitting


def test_holder_factor_norm_identity():
    for seed in range(6):
        rng = np.random.default_rng(300 + seed)
        c = np.zeros(64, dtype=np.complex128)
        c[0] = 3.0
        c[1:5] = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.arange(2, 6)
        f = from_coeffs(c)
        for p, r, s in ((1.0, 2.0, 2.0), (1.0, 3.0, 1.5), (2.0, 6.0, 3.0)):
            fac = holder_factor(f, p, r, s)
            # fractional powers of |f| roughen the log spectrum, so the
            # reconstruction keeps a modest Nyquist tail; the norm identity
            # below is arithmetic and stays at full precision
            assert fac.residual < 1e-5
            prod = fac.norms["g_r"] * fac.norms["h_s"]
            assert abs(prod - fac.norms["f_p"]) < 1e-10 * fac.norms["f_p"]
            assert abs(circle.lp_norm(fac.g, r) - fac.norms["g_r"]) < 1e-12
            assert circle.analyticity_residual(fac.h) < 1e-6 * np.abs(fac.h.samples).max()


def test_holder_factor_validates_exponents():
    f = poly([1.0, 0.1], 16)
    with pytest.raises(ValueError):
        holder_factor(f, 1.0, 2.0, 3.0)  # 1/2 + 1/3 != 1
    with pytest.raises(ValueError):
        holder_factor(f, 1.0, np.inf, 1.0)
    with pytest.raises(ValueError):
        holder_factor(f, 0.5, 1.0, 1.0)


# ---------------------------------------------------------------------------
# inner/outer split


def test_inner_outer_split():
    f = poly([0, 0.3, 1.0], 32)  # z*(z + 0.3): one zero inside, one at -0.3
    b, o, residual = inner_outer(f)
    assert residual < 1e-8
    assert np.abs(np.abs(b.boundary(32).samples) - 1.0).max() < 1e-12
    rec = b.boundary(32).samples * o.boundary.samples
    assert np.abs(rec - f.samples).max() < 1e-8 * np.abs(f.samples).max()
    assert sorted(np.abs(b.zeros).tolist()) == pytest.approx([0.0, 0.3], abs=1e-8)
