"""Analytic-subspace decompositions and simultaneous approximation."""

import time

import numpy as np
import pytest

from kclose import circle, hardy
from kclose.circle import CircleFunction, from_coeffs
from kclose.harness import ExperimentConfig, generate_instance
from kclose.kfunctional import CoupleId, kt_bruteforce, kt_closed_form


def rand_analytic(n, seed, deg=None):
    rng = np.random.default_rng(seed)
    deg = n // 4 if deg is None else deg
    c = np.zeros(n, dtype=np.complex128)
    c[: deg + 1] = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) / np.maximum(
        1, np.arange(deg + 1)
    )
    return from_coeffs(c)


def rand_trig(n, seed, deg=None):
    rng = np.random.default_rng(seed)
    deg = n // 4 if deg is None else deg
    c = np.zeros(n, dtype=np.complex128)
    for j, k in enumerate(circle.frequencies(n)):
        if abs(int(k)) <= deg:
            c[j] = (rng.standard_normal() + 1j * rng.standard_normal()) / max(1, abs(int(k)))
    return from_coeffs(c)


# ---------------------------------------------------------------------------
# base case (finite exponents)


def test_base_case_valid_certificates():
    for seed in range(4):
        f = rand_analytic(32, 400 + seed)
        for t in (0.3, 1.0, 3.0):
            dec = hardy.decompose_base(f, 1.5, 4.0, t)
            dec.validate(f)
            assert circle.analyticity_residual(dec.x0) < 1e-10 * np.abs(f.samples).max()
            assert dec.meta["ambient_cost"] <= dec.cost + 1e-12


@pytest.mark.parametrize("p0, p1, t", [(1.5, 4.0, 0.3), (2.0, 4.0, 1.0), (1.25, 3.0, 5.0)])
def test_base_case_ambient_cost_is_the_split_made(p0, p1, t):
    for seed in range(3):
        f = rand_analytic(32, 410 + seed)
        dec = hardy.decompose_base(f, p0, p1, t)
        tall, flat = circle.truncate_at_level(f, dec.meta["level"])
        want = circle.lp_norm(tall, p0) + t * circle.lp_norm(flat, p1)
        assert abs(dec.meta["ambient_cost"] - want) <= 1e-14 * want


def test_base_case_near_ambient_single_point():
    # certified comparison points against the general-exponent ambient
    # program; exponents (2, 4) keep one of the two projections in closed form
    couple = CoupleId.parse("h2,h4")
    f = rand_analytic(16, 400)
    for t in (0.3, 1.0, 3.0):
        dec = hardy.decompose_base(f, 2.0, 4.0, t)
        amb = kt_bruteforce(f, couple.ambient, t, tol=1e-7)
        assert dec.cost >= amb.lower - 1e-9
        assert dec.cost <= 4.0 * amb.value + 1e-9  # generous regression cap


def test_base_case_rejects_bad_inputs():
    f = rand_analytic(16, 1)
    with pytest.raises(ValueError):
        hardy.decompose_base(f, 1.0, 4.0, 1.0)  # endpoint exponent
    with pytest.raises(ValueError):
        hardy.decompose_base(f, 2.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        hardy.decompose_base(f, 1.5, 4.0, 0.0)
    with pytest.raises(ValueError):
        hardy.decompose_base(CircleFunction.harmonic(-3, 16), 1.5, 4.0, 1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", [
    lambda f, t: hardy.decompose_base(f, 1.5, 4.0, t),
    lambda f, t: hardy.decompose_h1_hq(f, 2.0, t),
    lambda f, t: hardy.decompose_h1_hinf(f, t),
], ids=["decompose_base", "decompose_h1_hq", "decompose_h1_hinf"])
def test_decompositions_reject_non_finite_t(entry, t):
    # a NaN t passes a sign test: decompose_base and decompose_h1_hq returned
    # a split of cost nan, decompose_h1_hinf failed only inside the solver
    with pytest.raises(ValueError, match="finite"):
        entry(rand_analytic(16, 3), t)


def test_base_case_zero_function():
    z = CircleFunction(np.zeros(16, dtype=np.complex128))
    dec = hardy.decompose_base(z, 1.5, 4.0, 1.0)
    assert dec.cost == 0.0
    dec.validate(z)


# ---------------------------------------------------------------------------
# squaring route, finite q


@pytest.mark.parametrize("q", [1.5, 2.0, 4.0])
def test_squaring_route_certificates(q):
    f = rand_analytic(32, 7)
    scale = np.abs(f.samples).max()
    for t in (0.2, 1.0, 5.0):
        dec = hardy.decompose_h1_hq(f, q, t)
        dec.validate(f)
        assert circle.analyticity_residual(dec.x0) < 1e-10 * scale
        assert circle.analyticity_residual(dec.x1) < 1e-10 * scale
        # cross term obeys its product bound
        assert dec.meta["cross_norm_p"] <= dec.meta["holder_bound"] + 1e-9
        p = dec.meta["cross_exponent"]
        assert abs(1.0 / p - (0.5 + 0.5 / (2 * q) * 2)) < 1e-12
        lo, hi = dec.meta["cross_split_exponents"]
        assert lo == (1.0 + p) / 2.0 and hi == q


def test_squaring_route_ratio_stays_modest():
    couple = CoupleId.parse("L1,L2")
    worst = 0.0
    for seed in range(5):
        f = rand_analytic(32, 500 + seed)
        for t in (0.3, 1.0, 3.0):
            dec = hardy.decompose_h1_hq(f, 2.0, t)
            amb = kt_bruteforce(f, couple, t, tol=1e-7)
            ratio = dec.cost / amb.lower
            worst = max(worst, ratio)
            assert ratio >= 1.0 - 1e-9
    assert worst < 4.0  # regression bound; observed around 1.01


def test_squaring_route_scales_linearly():
    f = rand_analytic(32, 9)
    d1 = hardy.decompose_h1_hq(f, 2.0, 0.7)
    d5 = hardy.decompose_h1_hq(CircleFunction(5.0 * f.samples), 2.0, 0.7)
    assert abs(d5.cost - 5.0 * d1.cost) < 1e-6 * d5.cost


def test_squaring_route_reuses_the_square_root_bit_for_bit():
    # f keeps its square-root factorization; a fresh copy factors again (both
    # are built from samples: from_coeffs keeps its coefficients, not the FFT's)
    f = CircleFunction(generate_instance("analytic_poly", ExperimentConfig(seed=3), 4, grid_n=32).samples)
    for q in (1.5, 2.0, 4.0):
        for t in (0.3, 1.0, 3.0):
            d, e = hardy.decompose_h1_hq(f, q, t), hardy.decompose_h1_hq(CircleFunction(f.samples), q, t)
            assert d.x0.samples.tobytes() == e.x0.samples.tobytes()
            assert d.x1.samples.tobytes() == e.x1.samples.tobytes()
            assert np.float64(d.cost).tobytes() == np.float64(e.cost).tobytes()
            assert d.meta == e.meta


def test_squaring_route_rejects_bad_q():
    f = rand_analytic(16, 3)
    for bad in (1.0, np.inf, 0.5):
        with pytest.raises(ValueError):
            hardy.decompose_h1_hq(f, bad, 1.0)


# ---------------------------------------------------------------------------
# endpoint couple


def test_endpoint_oracle_certificate():
    f = rand_analytic(32, 11)
    for t in (0.5, 2.0):
        dec = hardy.decompose_h1_hinf(f, t, backend="oracle", tol=1e-8)
        dec.validate(f)
        assert dec.meta["backend"] == "oracle"
        assert dec.meta["lower_bound"] <= dec.cost + 1e-12
        amb = kt_closed_form(f, t)
        assert 1.0 - 1e-9 <= dec.cost / amb < 20.0


def test_endpoint_constructive_backend():
    f = rand_analytic(32, 13)
    t = 1.0
    oracle = hardy.decompose_h1_hinf(f, t, backend="oracle", tol=1e-8)
    cons = hardy.decompose_h1_hinf(f, t, backend="constructive", tol=1e-7)
    cons.validate(f)
    assert cons.meta["backend"] == "constructive"
    # the explicit construction can only cost more than the optimum
    assert cons.cost >= oracle.cost - 1e-6 * max(1.0, oracle.cost)
    assert cons.cost <= 20.0 * kt_closed_form(f, t)


def test_endpoint_rejects_unknown_backend():
    with pytest.raises(ValueError):
        hardy.decompose_h1_hinf(rand_analytic(16, 5), 1.0, backend="fancy")


# ---------------------------------------------------------------------------
# quotient norms


def test_quotient_norm_of_analytic_function_vanishes():
    f = rand_analytic(16, 17)
    val, cert = hardy.quotient_norm(f, 2.0)
    assert val < 1e-7 * np.abs(f.samples).max()
    assert cert.dual <= cert.primal + 1e-12


def test_quotient_norm_single_negative_frequency():
    f = CircleFunction.harmonic(-1, 16)
    val, cert = hardy.quotient_norm(f, 2.0)
    assert abs(val - 1.0) < 1e-7
    assert cert.dual >= 1.0 - 1e-6


def test_quotient_norm_below_full_norm():
    f = rand_trig(16, 19)
    for p in (1.0, 2.0):
        val, _ = hardy.quotient_norm(f, p)
        assert val <= circle.lp_norm(f, p) + 1e-9


# ---------------------------------------------------------------------------
# simultaneous approximation


def test_simultaneous_single_negative_frequency_is_tight():
    f = CircleFunction.harmonic(-1, 32)
    res = hardy.simultaneous_approx(f, tol=1e-6)
    assert res.k_achieved <= 1.0 + 1e-3
    assert res.k_achieved >= 1.0 - 1e-6
    assert circle.analyticity_residual(res.h) < 1e-12
    assert abs(res.d1 - 1.0) < 1e-5 and abs(res.dinf - 1.0) < 1e-5


def test_simultaneous_analytic_input_degenerates():
    f = rand_analytic(16, 23)
    res = hardy.simultaneous_approx(f)
    assert res.meta.get("degenerate") is True
    assert res.k_achieved == 1.0
    assert np.abs(res.h.samples - f.samples).max() < 1e-10 * np.abs(f.samples).max()


def test_simultaneous_random_sweep():
    for seed in range(3):
        f = rand_trig(16, 700 + seed)
        res = hardy.simultaneous_approx(f, tol=1e-5)
        assert res.k_achieved < 20.0
        assert res.k_achieved >= 1.0 - 1e-5
        assert circle.analyticity_residual(res.h) < 1e-10 * max(1.0, np.abs(f.samples).max())
        # reported ratios match the distances recomputed from h
        got1 = circle.lp_norm(CircleFunction(f.samples - res.h.samples), 1.0) / res.d1
        assert abs(got1 - res.ratio_1) < 1e-9
        assert max(res.ratio_1, res.ratio_inf) <= res.k_achieved + 1e-9


def test_simultaneous_upper_ratio_bounds_the_achieved_one():
    f = rand_trig(16, 700)
    res = hardy.simultaneous_approx(f, tol=1e-5)
    diff = CircleFunction(f.samples - res.h.samples)
    lower1, lowerinf = res.d1 - res.meta["d1_gap"], res.dinf - res.meta["dinf_gap"]
    want = max(circle.lp_norm(diff, 1.0) / lower1, circle.lp_norm(diff, np.inf) / lowerinf)
    assert res.meta["k_upper"] == pytest.approx(want, rel=1e-12)
    assert res.k_achieved <= res.meta["k_upper"] < np.inf


# (seed, grid, input): the analytic L1 distance of these trig inputs stalled
# unconverged at 400,000 iterations under a fixed primal weight
@pytest.mark.parametrize("seed,n,index", [(4, 16, 4), (10, 32, 17)])
def test_simultaneous_former_stall_converges(seed, n, index):
    f = generate_instance("trig_poly", ExperimentConfig(seed=seed, grid_n=n), index)
    t0 = time.perf_counter()
    res = hardy.simultaneous_approx(f, tol=1e-5)
    assert time.perf_counter() - t0 < 2.0
    assert res.meta["converged"] is True
