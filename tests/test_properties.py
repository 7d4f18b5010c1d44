"""Property tests of the masked (H^1, H^inf) split on small grids."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kclose import circle
from kclose.kfunctional import CoupleId, kt_bruteforce, kt_closed_form

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
