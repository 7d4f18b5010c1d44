"""Grid model: Fourier analysis, projections, rearrangements, truncation."""

import numpy as np
import pytest

from kclose import circle
from kclose.circle import CircleFunction, from_coeffs
from kclose.kfunctional import kt_closed_form


def dft_oracle(samples):
    """O(N^2) Fourier coefficients with the 1/N normalization."""
    n = samples.size
    k = circle.frequencies(n)
    out = np.empty(n, dtype=np.complex128)
    theta = 2 * np.pi * np.arange(n) / n
    for j, freq in enumerate(k):
        out[j] = np.mean(samples * np.exp(-1j * freq * theta))
    return out


@pytest.mark.parametrize("bad", [1, 4, 12, 33, 100])
def test_grid_sizes_rejected(bad):
    with pytest.raises(ValueError):
        CircleFunction(np.zeros(bad, dtype=np.complex128))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_samples_rejected(bad):
    samples = np.ones(8, dtype=np.complex128)
    samples[3] = bad
    with pytest.raises(ValueError, match="finite"):
        CircleFunction(samples)


def test_fourier_matches_quadratic_dft():
    rng = np.random.default_rng(31)
    for n in (8, 16, 32):
        f = CircleFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        got = circle.fourier_coeffs(f)
        want = dft_oracle(f.samples)
        assert np.abs(got - want).max() < 1e-12


def test_from_coeffs_roundtrip():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    f = from_coeffs(c)
    assert np.abs(circle.fourier_coeffs(f) - c).max() < 1e-12


def test_harmonic_is_single_frequency():
    f = CircleFunction.harmonic(3, 16)
    c = circle.fourier_coeffs(f).copy()
    k = circle.frequencies(16)
    assert abs(c[np.where(k == 3)[0][0]] - 1.0) < 1e-14
    c[np.where(k == 3)[0][0]] = 0.0
    assert np.abs(c).max() < 1e-14


def test_riesz_keeps_nonnegative_frequencies_only():
    rng = np.random.default_rng(5)
    f = CircleFunction(rng.standard_normal(32) + 1j * rng.standard_normal(32))
    p = circle.riesz_project(f)
    c = circle.fourier_coeffs(p)
    k = circle.frequencies(32)
    assert np.abs(c[k < 0]).max() < 1e-14
    assert circle.analyticity_residual(p) < 1e-14
    # idempotent, and the complement is exactly the co-analytic part
    assert np.abs(circle.riesz_project(p).samples - p.samples).max() < 1e-14
    q = circle.fourier_coeffs(f).copy()
    q[k >= 0] = 0.0
    assert np.abs(from_coeffs(q).samples - (f.samples - p.samples)).max() < 1e-12


def test_nyquist_counts_as_negative():
    g = CircleFunction.harmonic(-8, 16)  # the Nyquist slot on a 16-grid
    assert circle.analyticity_residual(g) > 0.9
    assert np.abs(circle.riesz_project(g).samples).max() < 1e-14


def test_hilbert_transform_of_cosine_is_sine():
    n = 32
    theta = 2 * np.pi * np.arange(n) / n
    f = CircleFunction(np.cos(theta).astype(np.complex128))
    h = circle.hilbert_transform(f)
    assert np.abs(h.samples - np.sin(theta)).max() < 1e-12


def test_lp_norms_against_direct_sums():
    rng = np.random.default_rng(11)
    f = CircleFunction(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    a = np.abs(f.samples)
    for p in (1.0, 1.5, 2.0, 4.0):
        assert abs(circle.lp_norm(f, p) - (np.mean(a**p)) ** (1 / p)) < 1e-12
    assert abs(circle.lp_norm(f, np.inf) - a.max()) < 1e-14


def test_inner_product_normalization():
    f = CircleFunction.harmonic(2, 16)
    assert abs(circle.inner(f, f) - 1.0) < 1e-14
    g = CircleFunction.harmonic(3, 16)
    assert abs(circle.inner(f, g)) < 1e-14
    # Parseval
    rng = np.random.default_rng(3)
    h = CircleFunction(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    assert abs(circle.inner(h, h).real - circle.lp_norm(h, 2) ** 2) < 1e-12


def test_rearrangement_is_sorted_and_mass_preserving():
    rng = np.random.default_rng(13)
    f = CircleFunction(rng.standard_normal(32) + 1j * rng.standard_normal(32))
    r = circle.rearrange(f)
    assert np.all(np.diff(r.values) <= 1e-15)
    assert abs(r.total_mass - 1.0) < 1e-15
    assert abs(r.weight * r.values.sum() - circle.lp_norm(f, 1)) < 1e-12


def test_partial_integral_flat_function():
    f = CircleFunction.constant(1.0, 16)
    for t in (0.0, 0.25, 0.5, 1.0, 2.0, 10.0):
        assert abs(kt_closed_form(f, t) - min(t, 1.0)) < 1e-14


def test_partial_integral_two_level():
    # |f| takes the value 2 on half the circle and 1 on the other half
    sam = np.where(np.arange(16) < 8, 2.0, 1.0).astype(np.complex128)
    f = CircleFunction(sam)
    # K_t = 2t for t <= 1/2, then 1 + (t - 1/2) up to t = 1, then 3/2
    assert abs(kt_closed_form(f, 0.25) - 0.5) < 1e-14
    assert abs(kt_closed_form(f, 0.5) - 1.0) < 1e-14
    assert abs(kt_closed_form(f, 0.75) - 1.25) < 1e-14
    assert abs(kt_closed_form(f, 2.0) - 1.5) < 1e-14


def test_partial_integral_interpolates_within_steps():
    rng = np.random.default_rng(17)
    f = CircleFunction(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    r = circle.rearrange(f)
    # at t = 1.5 grid cells the value is one full cell plus half the next
    t = 1.5 * r.weight
    want = r.weight * r.values[0] + 0.5 * r.weight * r.values[1]
    assert abs(kt_closed_form(f, t) - want) < 1e-13


def test_truncation_split_properties():
    rng = np.random.default_rng(19)
    f = CircleFunction(rng.standard_normal(32) + 1j * rng.standard_normal(32))
    for level in (0.0, 0.3, 1.0, 5.0):
        tall, flat = circle.truncate_at_level(f, level)
        assert np.abs(tall.samples + flat.samples - f.samples).max() < 1e-14
        assert np.abs(flat.samples).max() <= level + 1e-14
        # tall keeps the phase of f and only the excess modulus
        excess = np.maximum(np.abs(f.samples) - level, 0.0)
        assert np.abs(np.abs(tall.samples) - excess).max() < 1e-13


def test_json_roundtrip():
    rng = np.random.default_rng(23)
    f = CircleFunction(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    g = CircleFunction.from_json(f.to_json())
    assert np.abs(f.samples - g.samples).max() == 0.0
