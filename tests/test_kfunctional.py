"""Couple identifiers, K/J functionals, interpolation norms."""

import numpy as np
import pytest

from kclose import circle
from kclose.circle import CircleFunction, from_coeffs
from kclose.kfunctional import (
    CoupleId,
    best_truncation_level,
    default_t_grid,
    jt,
    kt_bracket,
    kt_bruteforce,
    kt_closed_form,
    make_decomposition,
    real_interp_norm,
    require_member,
)
from kclose.schatten import MatrixOperator, kt_schatten


def rand_circle(n, seed):
    rng = np.random.default_rng(seed)
    return CircleFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def rand_analytic(n, seed):
    rng = np.random.default_rng(seed)
    deg = n // 4
    c = np.zeros(n, dtype=np.complex128)
    c[: deg + 1] = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) / np.maximum(
        1, np.arange(deg + 1)
    )
    return from_coeffs(c)


# ---------------------------------------------------------------------------
# identifiers


@pytest.mark.parametrize(
    "text,kind,p0,p1",
    [
        ("L1,Linf", "lebesgue", 1.0, np.inf),
        ("l2,l4", "lebesgue", 2.0, 4.0),
        ("h1,hinf", "hardy", 1.0, np.inf),
        ("h1,h2", "hardy", 1.0, 2.0),
        ("S1,Sinf", "schatten", 1.0, np.inf),
        ("T1,T2", "triangular", 1.0, 2.0),
        ("seq1,seq2", "sequence", 1.0, 2.0),
    ],
)
def test_couple_parse(text, kind, p0, p1):
    c = CoupleId.parse(text)
    assert (c.kind, c.p0, c.p1) == (kind, p0, p1)


@pytest.mark.parametrize("bad", ["L2,L1", "L1", "X1,X2", "h1,hinf,extra", "L0,Linf"])
def test_couple_parse_rejects(bad):
    with pytest.raises(ValueError):
        CoupleId.parse(bad)


def test_couple_rejects_nan_exponent():
    # a NaN exponent passed the test p < 1 and was reported as out of order
    with pytest.raises(ValueError, match=r"exponents must lie in \[1, inf\], got nan"):
        CoupleId("sequence", np.nan, 2)


def test_couple_ambient_and_subspace():
    h = CoupleId.parse("h1,hinf")
    assert h.has_subspace and h.ambient.kind == "lebesgue"
    t = CoupleId.parse("T1,Tinf")
    assert t.has_subspace and t.ambient.kind == "schatten"
    l = CoupleId.parse("L1,L2")
    assert not l.has_subspace and l.ambient == l


# ---------------------------------------------------------------------------
# closed form vs brute force


def test_closed_form_flat_function():
    f = CircleFunction.constant(1.0, 16)
    for t in (0.1, 0.5, 1.0, 4.0):
        assert abs(kt_closed_form(f, t) - min(t, 1.0)) < 1e-14


@pytest.mark.parametrize("n", [16, 32])
def test_closed_form_matches_bruteforce_lebesgue(n):
    couple = CoupleId.parse("L1,Linf")
    for seed in range(6):
        f = rand_circle(n, 100 + seed)
        for t in (0.05, 0.3, 1.0, 2.7):
            want = kt_closed_form(f, t)
            got = kt_bruteforce(f, couple, t, tol=1e-9)
            assert abs(got.value - want) < 1e-7 * max(1.0, want)
            assert got.lower <= want + 1e-9


def test_closed_form_matches_bruteforce_sequence():
    couple = CoupleId.parse("seq1,seqinf")
    rng = np.random.default_rng(17)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    for t in (0.5, 2.0, 6.0):
        want = kt_closed_form(x, t)
        got = kt_bruteforce(x, couple, t, tol=1e-9)
        assert abs(got.value - want) < 1e-7 * max(1.0, want)


def test_schatten_closed_form_three_way():
    rng = np.random.default_rng(23)
    x = MatrixOperator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    sv = np.linalg.svd(x.entries, compute_uv=False)
    for t in (0.5, 1.0, 2.5):
        a = kt_schatten(x, 1, np.inf, t)
        b = kt_closed_form(sv.astype(np.complex128), t, weight=1.0)
        c = kt_bruteforce(x, CoupleId.parse("S1,Sinf"), t, tol=1e-9)
        assert abs(a - b) < 1e-10
        assert abs(a - c.value) < 1e-6 * max(1.0, a)


# ---------------------------------------------------------------------------
# structural properties of t -> K_t


def test_k_monotone_concave_and_bounded():
    f = rand_circle(16, 7)
    n0 = circle.lp_norm(f, 1)
    n1 = circle.lp_norm(f, np.inf)
    ts = np.linspace(0.05, 3.0, 40)
    ks = np.array([kt_closed_form(f, t) for t in ts])
    assert np.all(np.diff(ks) >= -1e-12)
    mids = 0.5 * (ks[:-2] + ks[2:])
    assert np.all(ks[1:-1] >= mids - 1e-12)  # concavity on a uniform grid
    assert np.all(ks <= np.minimum(n0, ts * n1) + 1e-12)


def test_k_below_min_below_j():
    # general exponents exercise the l^p dual-ball projections
    couple = CoupleId.parse("seq2,seq4")
    rng = np.random.default_rng(31)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    n0 = np.sum(np.abs(x) ** 2) ** 0.5
    n1 = np.sum(np.abs(x) ** 4) ** 0.25
    for t in (0.2, 0.8, 3.0):
        res = kt_bruteforce(x, couple, t, tol=1e-7)
        j = jt(x, couple, t)
        cap = min(n0, t * n1)
        assert res.lower <= cap + 1e-12  # the certified bound respects K <= min
        assert res.value <= cap + 1e-6 * max(1.0, cap)  # primal within solver slack
        assert cap <= j + 1e-12
    # the cheap pair keeps several t values honest
    cheap = CoupleId.parse("seq1,seq2")
    for tt in (0.3, 1.0, 4.0):
        kk = kt_bruteforce(x, cheap, tt, tol=1e-8).value
        slack = 1e-7 * max(1.0, kk)
        assert kk <= min(np.abs(x).sum(), tt * n0) + slack
        assert kk <= jt(x, cheap, tt) + slack


def test_subspace_k_dominates_ambient():
    f = rand_analytic(16, 11)
    for t in (0.2, 1.0, 5.0):
        sub = kt_bruteforce(f, CoupleId.parse("h1,hinf"), t, tol=1e-8).value
        amb = kt_closed_form(f, t)
        assert sub >= amb - 1e-8


def test_jt_rejects_nonmembers():
    f = CircleFunction.harmonic(-2, 16)
    with pytest.raises(ValueError):
        jt(f, CoupleId.parse("h1,h2"), 1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", [
    lambda f, t: jt(f, CoupleId.parse("L1,L2"), t),
    kt_closed_form,
], ids=["jt", "kt_closed_form"])
def test_entries_reject_non_finite_t(entry, t):
    # a NaN t passes a sign test: jt returned ||f||_1 and kt_closed_form
    # failed converting NaN to an integer
    with pytest.raises(ValueError, match="finite"):
        entry(CircleFunction(np.arange(1.0, 9.0)), t)


NON_MEMBERS = {
    "h1,h2": lambda: CircleFunction.harmonic(-1, 16),
    "T1,Tinf": lambda: MatrixOperator(np.array([[1.0, 2.0], [3.0, 4.0]])),
}


@pytest.mark.parametrize("couple", sorted(NON_MEMBERS))
@pytest.mark.parametrize("route", [kt_bruteforce, kt_bracket], ids=["bruteforce", "bracket"])
def test_k_routes_reject_nonmembers(couple, route):
    # K_t of the subspace couple is +inf off the subspace, so no number may come back
    with pytest.raises(ValueError, match="must lie in the"):
        route(NON_MEMBERS[couple](), CoupleId.parse(couple), 1.0)


@pytest.mark.parametrize("kind, arr, member", [
    # the scale is max(1, max|x|): a residual of 1e-9 passes even when it is all of x
    ("hardy", CircleFunction.harmonic(-1, 16).samples * 1e-9, True),
    ("hardy", CircleFunction.harmonic(-1, 16).samples * 1e-7, False),
    ("hardy", np.ones((8, 2, 2)) + 1e-7 * CircleFunction.harmonic(-1, 8).samples[:, None, None], False),
    ("triangular", np.triu(np.ones((3, 3))) + np.diag([1e-11, 0.0], -1), True),
    ("triangular", np.triu(np.ones((3, 3))) + np.diag([1e-9, 0.0], -1), False),
])
def test_require_member_is_one_rule_for_every_kind(kind, arr, member):
    if member:
        require_member(kind, arr, "x")
    else:
        with pytest.raises(ValueError, match="x must lie in the"):
            require_member(kind, arr, "x")


# ---------------------------------------------------------------------------
# decompositions and validation


def test_make_decomposition_and_validate():
    couple = CoupleId.parse("L1,Linf")
    f = rand_circle(16, 13)
    tall, flat = circle.truncate_at_level(f, 1.0)
    dec = make_decomposition(couple, 2.0, f, tall.samples, flat.samples)
    dec.validate(f)
    assert abs(dec.cost - (dec.norm0 + 2.0 * dec.norm1)) < 1e-12
    bad = make_decomposition(couple, 2.0, f, tall.samples * 0.5, flat.samples)
    with pytest.raises(AssertionError):
        bad.validate(f)


def test_bruteforce_decomposition_is_feasible():
    couple = CoupleId.parse("h1,h2")
    f = rand_analytic(16, 19)
    res = kt_bruteforce(f, couple, 0.7, tol=1e-8)
    res.decomposition.validate(f)
    assert circle.analyticity_residual(res.decomposition.x0) < 1e-8


@pytest.mark.parametrize("couple", ["h1,hinf", "T1,T2"])
def test_subspace_couple_is_resolved_once_per_call(monkeypatch, couple):
    # one membership check and one mask per kt_bracket or real_interp_norm
    # call, and no mask for jt
    from kclose import kfunctional, solver

    counts = {"member": 0, "mask": 0}
    check = kfunctional.require_member

    def counted_check(*args):
        counts["member"] += 1
        return check(*args)

    monkeypatch.setattr(kfunctional, "require_member", counted_check)
    for cls in (solver.AnalyticMask, solver.TriangularMask):
        def counted_init(self, *args, _init=cls.__init__):
            counts["mask"] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted_init)
    c = CoupleId.parse(couple)
    if c.kind == "hardy":
        x = rand_analytic(16, 5)
    else:
        x = MatrixOperator(np.triu(rand_circle(16, 6).samples.reshape(4, 4)))
    kt_bracket(x, c, 3.0)
    assert counts == {"member": 1, "mask": 1}
    real_interp_norm(x, c, 0.5, 2.0, t_grid=[2.0, 3.0, 4.0])
    assert counts == {"member": 2, "mask": 2}
    jt(x, c, 1.0)
    assert counts == {"member": 3, "mask": 2}


# ---------------------------------------------------------------------------
# interpolation norm


def test_interp_norm_flat_function_closed_values():
    # for the flat function K_t = min(t, 1); the (1/2, 2) and (1/2, inf)
    # functionals evaluate to sqrt(2) and 1 by direct integration
    f = CircleFunction.constant(1.0, 16)
    couple = CoupleId.parse("L1,Linf")
    grid = default_t_grid(1e-6, 1e6, 40)
    r2 = real_interp_norm(f, couple, 0.5, 2.0, t_grid=grid)
    assert abs(r2.value - np.sqrt(2.0)) < 1e-3
    assert r2.tail_bound < 1e-3
    rinf = real_interp_norm(f, couple, 0.5, np.inf, t_grid=grid)
    assert abs(rinf.value - 1.0) < 1e-6


def test_interp_norm_scales_linearly():
    f = rand_circle(16, 29)
    couple = CoupleId.parse("L1,Linf")
    r1 = real_interp_norm(f, couple, 0.3, 3.0)
    r5 = real_interp_norm(CircleFunction(5.0 * f.samples), couple, 0.3, 3.0)
    assert abs(r5.value - 5.0 * r1.value) < 1e-9 * r5.value + 1e-12


def test_default_t_grid_endpoints():
    g = default_t_grid(1e-2, 1e2, 5)
    assert abs(g[0] - 1e-2) < 1e-15 and abs(g[-1] - 1e2) < 1e-13
    assert np.all(np.diff(np.log(g)) > 0)
    short = default_t_grid(1.0, 1.2, 1)  # under half a decade still keeps both ends
    assert short.size == 2 and short[0] == 1.0 and abs(short[1] - 1.2) < 1e-15


@pytest.mark.parametrize("t_min, t_max, per_decade", [
    (1e2, 1e-2, 5),  # numpy raised "Number of samples, -19"
    (-1.0, 1.0, 3),  # NaN through log10
    (0.0, 1.0, 3),
    (1.0, np.inf, 3),
    (np.nan, 1.0, 3),
    (1e-2, 1e2, 0),  # a one-point grid
])
def test_default_t_grid_rejects_bad_range(t_min, t_max, per_decade):
    with pytest.raises(ValueError):
        default_t_grid(t_min, t_max, per_decade)


@pytest.mark.parametrize("t_grid, q", [
    ([4.0, 2.0, 1.0], 2.0),  # a decreasing grid gave the complex 2.4e-16+3.97j
    ([2.0], 2.0),  # one point gave 0.0
    ([0.0, 1.0], 2.0),  # log(0): a division by zero
    ([1.0, np.inf], 2.0),
    ([[1.0, 2.0], [3.0, 4.0]], 2.0),
    ([1.0, 2.0], np.nan),  # gave nan
    ([1.0, 2.0], 0.5),
], ids=["decreasing", "one-point", "zero", "inf", "2-d", "q-nan", "q-below-1"])
def test_interp_norm_rejects_bad_grid_or_q(t_grid, q):
    with pytest.raises(ValueError):
        real_interp_norm(_ramp8(), CoupleId.parse("L1,Linf"), 0.5, q, t_grid=t_grid)


def test_payload_size_limits():
    with pytest.raises(ValueError):
        kt_bruteforce(
            np.ones(5000, dtype=np.complex128), CoupleId.parse("seq1,seq2"), 1.0
        )


# ---------------------------------------------------------------------------
# the K_t route: closed form or solver, measure from the couple


def _ramp8():
    return CircleFunction(np.arange(1, 9).astype(np.complex128))


@pytest.mark.parametrize(
    "couple, payload",
    [
        ("L1,Linf", lambda: rand_circle(16, 71)),
        ("L1,Linf", lambda: rand_circle(16, 71).samples),
        ("seq1,seqinf", lambda: rand_circle(16, 72)),
        ("seq1,seqinf", lambda: rand_circle(16, 72).samples),
        ("S1,Sinf", lambda: MatrixOperator(rand_circle(16, 73).samples.reshape(4, 4))),
    ],
)
def test_bracket_closed_form_inside_solver_bracket(couple, payload):
    x, c = payload(), CoupleId.parse(couple)
    for t in (0.05, 0.4, 1.5, 3.0):
        lower, value = kt_bracket(x, c, t)
        assert lower == value
        bf = kt_bruteforce(x, c, t, tol=1e-9)
        assert bf.lower <= value + 1e-12 * max(1.0, value)
        assert value <= bf.value + 1e-12 * max(1.0, value)


def test_bracket_measure_comes_from_the_couple():
    f = _ramp8()
    # counting measure: 8 + 7; grid measure 1/8: (8 + 7 + ... + 1) / 8
    assert kt_bracket(f, CoupleId.parse("seq1,seqinf"), 2.0) == (15.0, 15.0)
    assert kt_bracket(f.samples, CoupleId.parse("L1,Linf"), 2.0) == (4.5, 4.5)
    assert kt_bracket(f, CoupleId.parse("seq1,seqinf"), 2.0) == kt_bracket(
        f.samples, CoupleId.parse("seq1,seqinf"), 2.0
    )


def test_bracket_other_couples_take_the_solver_sandwich():
    f = rand_analytic(16, 74)
    lower, value = kt_bracket(f, CoupleId.parse("h1,hinf"), 0.3, tol=1e-8)
    assert lower <= value <= lower + 1e-8 * max(1.0, value)
    assert value >= kt_closed_form(f, 0.3) - 1e-9  # subspace K >= ambient K


def test_interp_norm_same_for_circle_and_array_payloads():
    f = rand_circle(16, 75)
    grid = default_t_grid(1e-2, 1e2, 4)
    for couple in ("L1,Linf", "seq1,seqinf"):
        c = CoupleId.parse(couple)
        a = real_interp_norm(f, c, 0.5, 2.0, t_grid=grid)
        b = real_interp_norm(f.samples, c, 0.5, 2.0, t_grid=grid)
        assert np.array_equal(a.k_values, b.k_values)


# a cost with two dips: the golden-section search that preceded the exact scan
# returned the top, cost 4.802426, against the minimum 4.778982 near 8.628
TWO_DIPS = [10.589582, 4.48722, 4.167656, 1.6464, 1.276683, 0.390999]


@pytest.mark.parametrize(
    "p0, p1, t, values",
    [
        pytest.param(1.5, 4.0, 0.3, None, id="1.5-4.0-0.3"),
        pytest.param(2.0, 4.0, 1.0, None, id="2.0-4.0-1.0"),
        pytest.param(1.25, 3.0, 5.0, None, id="1.25-3.0-5.0"),
        pytest.param(2.0, 6.0, 0.05, None, id="2.0-6.0-0.05"),
        pytest.param(2.0, 4.0, 0.7, TWO_DIPS, id="two-dips"),
    ],
)
def test_best_truncation_level_beats_a_level_grid(p0, p1, t, values):
    def cost(s, w, lam):
        flat = np.minimum(s[:, None], lam)
        c0 = (w * np.sum((s[:, None] - flat) ** p0, axis=0)) ** (1.0 / p0)
        return c0 + t * (w * np.sum(flat**p1, axis=0)) ** (1.0 / p1)

    if values is None:
        draws = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            draws.append((np.linalg.svd(m, compute_uv=False), 1.0))
    else:
        draws = [(np.array(values), 1.0 / len(values))]
    for s, w in draws:
        lam, c = best_truncation_level(s, w, p0, p1, t)
        assert 0.0 <= lam <= s.max()
        assert abs(c - cost(s, w, lam)[0]) <= 1e-14 * c
        # a log grid, every value, and 200 levels inside each piece between values
        ends = np.unique(np.append(s, 0.0))
        inner = [np.linspace(lo, hi, 202)[1:-1] for lo, hi in zip(ends[:-1], ends[1:])]
        grid = np.concatenate([np.logspace(np.log10(s.max()) - 12, np.log10(s.max()), 200), ends, *inner])
        assert c <= cost(s, w, grid).min() * (1 + 1e-12)


def test_best_truncation_level_of_zero_values():
    assert best_truncation_level(np.zeros(4), 0.25, 1.5, 4.0, 1.0) == (0.0, 0.0)
