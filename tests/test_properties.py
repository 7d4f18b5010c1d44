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
