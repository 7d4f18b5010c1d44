"""Matrix couples: norms, triangular factorization, splittings, distances."""

import numpy as np
import pytest

from kclose import circle, harness, schatten
from kclose.kfunctional import CoupleId, kt_bruteforce, kt_closed_form
from kclose.schatten import (
    MatrixOperator,
    MatrixValuedFunction,
    ambient_mixed_kt,
    decompose_t1_tq,
    dist_triangular_inf,
    dist_triangular_inf_oracle,
    kt_schatten,
    matrix_outer_factor,
    matrix_valued_split,
    schatten_norm,
    simultaneous_triangular_approx,
    singular_values,
    triangular_factor,
    triangular_part,
)
from kclose.solver import SchattenNorm, TriangularMask, solve_distance


def rand_mat(n, seed):
    rng = np.random.default_rng(seed)
    return MatrixOperator(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def rand_tri(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    g = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return MatrixOperator(g + (1.0 + np.sqrt(n) if shift is None else shift) * np.eye(n))


# ---------------------------------------------------------------------------
# containers and norms


def test_matrix_operator_validation():
    with pytest.raises(ValueError):
        MatrixOperator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        MatrixOperator(np.array([[np.nan, 0], [0, 1.0]]))
    x = rand_mat(3, 1)
    with pytest.raises(ValueError):
        x.entries[0, 0] = 5.0  # read-only view


def test_matrix_functions_reject_non_square_payloads():
    with pytest.raises(ValueError, match="square"):
        triangular_part(np.ones(4))
    with pytest.raises(ValueError, match="square"):
        dist_triangular_inf(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        triangular_factor(np.ones(4), 1.0, 2.0, 2.0)
    with pytest.raises(ValueError, match="square"):
        singular_values(circle.CircleFunction.constant(1.0, 8))


def test_matrix_json_roundtrip():
    x = rand_mat(3, 2)
    y = MatrixOperator.from_json(x.to_json())
    assert np.abs(x.entries - y.entries).max() == 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, np.inf])
def test_schatten_norm_matches_svd(p):
    x = rand_mat(4, 3)
    s = np.linalg.svd(x.entries, compute_uv=False)
    want = s.max() if p == np.inf else (s**p).sum() ** (1 / p)
    assert abs(schatten_norm(x, p) - want) < 1e-12
    with pytest.raises(ValueError):
        schatten_norm(x, 0.5)


def test_schatten_norm_adjoint_and_unitary_invariance():
    x = rand_mat(4, 5)
    rng = np.random.default_rng(6)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    for p in (1.0, 2.0, 3.0, np.inf):
        a = schatten_norm(x, p)
        assert abs(schatten_norm(MatrixOperator(x.entries.conj().T), p) - a) < 1e-10
        assert abs(schatten_norm(MatrixOperator(u @ x.entries @ v), p) - a) < 1e-10


def test_triangular_part_orthogonal_in_frobenius():
    x = rand_mat(4, 9)
    up = triangular_part(x)
    low = x.entries - up.entries
    assert np.abs(up.entries - np.triu(x.entries)).max() == 0.0
    assert abs(np.vdot(up.entries, low)) < 1e-12
    assert abs(
        schatten_norm(x, 2) ** 2 - schatten_norm(up, 2) ** 2 - np.linalg.norm(low) ** 2
    ) < 1e-10


# ---------------------------------------------------------------------------
# triangular factorization


def test_triangular_factor_flat_diagonal_frozen():
    x = MatrixOperator(np.diag([4.0, 1.0]))
    fac = triangular_factor(x, 1.0, 2.0, 2.0)
    assert np.abs(fac.a.entries - np.diag([2.0, 1.0])).max() < 1e-12
    assert np.abs(fac.b.entries - np.diag([2.0, 1.0])).max() < 1e-12
    assert abs(fac.norm_a * fac.norm_b - schatten_norm(x, 1.0)) < 1e-12


TRIPLES = [(1.0, 2.0, 2.0), (2.0, 3.0, 6.0), (2.0, 6.0, 3.0), (1.0, 3.0, 1.5), (2.0, 4.0, 4.0)]


@pytest.mark.parametrize("triple", TRIPLES)
def test_triangular_factor_sweep(triple):
    p, r, q = triple
    for seed in range(8):
        x = rand_tri(5, 100 + seed)
        fac = triangular_factor(x, p, r, q)
        a, b = fac.a.entries, fac.b.entries
        # substitution against triangular systems keeps the zeros exact
        assert np.abs(np.tril(a, -1)).max() == 0.0
        assert np.abs(np.tril(b, -1)).max() == 0.0
        scale = np.abs(x.entries).max()
        assert np.abs(a @ b - x.entries).max() < 1e-10 * scale
        target = schatten_norm(x, p)
        assert abs(fac.norm_a * fac.norm_b - target) < 1e-10 * target
        # moduli follow the prescribed powers of |x| up to ordering
        assert np.abs(
            np.sort(singular_values(fac.a)) - np.sort(singular_values(x) ** (p / r))
        ).max() < 1e-8
        assert np.abs(
            np.sort(singular_values(fac.b)) - np.sort(singular_values(x) ** (p / q))
        ).max() < 1e-8


def test_triangular_factor_exponent_relation_enforced():
    x = rand_tri(3, 3)
    with pytest.raises(ValueError):
        triangular_factor(x, 1.0, 2.0, 3.0)  # 1/2 + 1/3 != 1
    # when 1/p = 1/r + 1/q does hold, one of p/r, p/q is always <= 1/2,
    # so some branch applies; (1, 1.5, 3) exercises the mirrored one
    fac = triangular_factor(x, 1.0, 1.5, 3.0)
    assert np.abs(fac.a.entries @ fac.b.entries - x.entries).max() < 1e-10 * np.abs(x.entries).max()


def test_triangular_factor_needs_invertible_triangular():
    sing = MatrixOperator(np.triu(np.array([[1.0, 2.0], [0.0, 0.0]])))
    with pytest.raises(ValueError):
        triangular_factor(sing, 1.0, 2.0, 2.0)
    full = rand_mat(3, 4)
    with pytest.raises(ValueError):
        triangular_factor(full, 1.0, 2.0, 2.0)


def test_triangular_factor_branches_agree_when_both_apply():
    # at (1, 2, 2) both p/q = 1/2 and p/r = 1/2 hold; either construction
    # must reproduce x and the norm identity, whichever branch is taken
    x = rand_tri(4, 17)
    fac = triangular_factor(x, 1.0, 2.0, 2.0)
    assert np.abs(fac.a.entries @ fac.b.entries - x.entries).max() < 1e-10 * np.abs(x.entries).max()
    assert abs(fac.norm_a - fac.norm_b) < 1e-8 * fac.norm_a  # both carry |x|^{1/2}


# ---------------------------------------------------------------------------
# K-functional identities


def test_kt_schatten_reduces_to_singular_values():
    for seed in range(6):
        x = rand_mat(4, 50 + seed)
        sv = singular_values(x).astype(np.complex128)
        for t in (0.5, 1.0, 2.0):
            a = kt_schatten(x, 1, np.inf, t)
            b = kt_closed_form(sv, t, weight=1.0)
            assert abs(a - b) < 1e-10
            c = kt_bruteforce(x, CoupleId.parse("S1,Sinf"), t, tol=1e-8)
            assert abs(a - c.value) < 1e-5 * max(1.0, a)


def test_kt_schatten_general_exponents_match_sequence():
    x = rand_mat(3, 77)
    sv = singular_values(x).astype(np.complex128)
    t = 0.9
    a = kt_schatten(x, 1, 2, t, tol=1e-8)
    b = kt_bruteforce(sv, CoupleId.parse("seq1,seq2"), t, tol=1e-8).value
    assert abs(a - b) < 1e-6 * max(1.0, a)


# ---------------------------------------------------------------------------
# triangular splitting


def test_decompose_triangular_certificates():
    x = rand_tri(5, 7)
    sv = singular_values(x).astype(np.complex128)
    for t in (0.3, 1.0, 4.0):
        dec = decompose_t1_tq(x, 2.0, t)
        dec.validate(x)
        assert np.abs(np.tril(dec.x0.entries, -1)).max() < 1e-8 * np.abs(x.entries).max()
        amb = kt_bruteforce(sv, CoupleId.parse("seq1,seq2"), t, tol=1e-9)
        ratio = dec.cost / amb.lower
        assert 1.0 - 1e-9 <= ratio < 20.0
        assert dec.meta["expansion_residual"] < 1e-6
        assert dec.meta["cost_extrapolated"] <= dec.cost + 1e-12


def test_decompose_triangular_eps_insensitive_reconstruction():
    x = rand_tri(4, 13)
    scale = schatten_norm(x, np.inf)
    d1 = decompose_t1_tq(x, 2.0, 1.0, eps_reg=1e-6 * scale)
    d2 = decompose_t1_tq(x, 2.0, 1.0, eps_reg=1e-10 * scale)
    d1.validate(x)
    d2.validate(x)
    # ab = x holds for any regularisation, so both costs should be close
    assert abs(d1.cost - d2.cost) < 1e-3 * max(1.0, d1.cost)


def test_decompose_triangular_rejects_bad_inputs():
    x = rand_tri(3, 19)
    with pytest.raises(ValueError):
        decompose_t1_tq(x, np.inf, 1.0)
    with pytest.raises(ValueError):
        decompose_t1_tq(rand_mat(3, 19), 2.0, 1.0)  # not triangular


@pytest.mark.parametrize("t", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", [
    lambda t: decompose_t1_tq(rand_tri(3, 19), 2.0, t),
    lambda t: kt_schatten(rand_mat(3, 19), 1, np.inf, t),
    lambda t: matrix_valued_split(MatrixValuedFunction(np.ones((8, 2, 2), dtype=np.complex128)),
                                  1, 1, np.inf, np.inf, t),
], ids=["decompose_t1_tq", "kt_schatten", "matrix_valued_split"])
def test_matrix_entries_reject_non_finite_t(entry, t):
    # a NaN t passes a sign test: decompose_t1_tq returned a split of cost nan,
    # matrix_valued_split failed only inside the solver
    with pytest.raises(ValueError, match="finite"):
        entry(t)


# ---------------------------------------------------------------------------
# distances to the triangular algebra


def test_corner_distance_frozen_unit():
    e21 = np.zeros((2, 2)); e21[1, 0] = 1.0
    assert dist_triangular_inf(MatrixOperator(e21)) == 1.0
    cert1 = solve_distance(
        e21.ravel(), SchattenNorm(1.0, 2), TriangularMask(2), tol=1e-8, max_iter=400_000
    )
    assert abs(cert1.primal - 1.0) < 1e-7
    assert cert1.dual >= 1.0 - 1e-6


def test_corner_formula_equals_convex_oracle():
    for seed in range(10):
        x = rand_mat(4, 200 + seed)
        corner = dist_triangular_inf(x)
        oracle, cert = dist_triangular_inf_oracle(x, tol=1e-8)
        assert abs(corner - oracle) < 1e-6 * max(1.0, corner)
        assert cert.dual <= corner + 1e-6


def test_trace_distance_bounded_by_feasible_point():
    for seed in range(5):
        x = rand_mat(4, 300 + seed)
        cert = solve_distance(
            x.entries.ravel(), SchattenNorm(1.0, 4), TriangularMask(4), tol=1e-7, max_iter=400_000
        )
        val = cert.primal
        low = np.tril(x.entries, -1)
        cap = np.linalg.svd(low, compute_uv=False).sum()  # y = triu(x) is feasible
        assert val <= cap + 1e-6
        assert cert.dual <= val + 1e-12


def test_simultaneous_triangular_corner_unit():
    e21 = np.zeros((2, 2)); e21[1, 0] = 1.0
    res = simultaneous_triangular_approx(MatrixOperator(e21), tol=1e-6)
    assert res.k_achieved <= 1.0 + 1e-3
    assert abs(res.d1 - 1.0) < 1e-5 and abs(res.dinf - 1.0) < 1e-5
    assert np.abs(np.tril(res.xhat.entries, -1)).max() == 0.0


def test_simultaneous_triangular_random():
    x = rand_mat(3, 23)
    res = simultaneous_triangular_approx(x, tol=1e-5)
    assert 1.0 - 1e-5 <= res.k_achieved < 20.0
    assert max(res.ratio_1, res.ratio_inf) <= res.k_achieved + 1e-9
    got1 = schatten_norm(MatrixOperator(x.entries - res.xhat.entries), 1.0) / res.d1
    assert abs(got1 - res.ratio_1) < 1e-9


def test_simultaneous_triangular_degenerate():
    x = rand_tri(3, 29)
    res = simultaneous_triangular_approx(x)
    assert res.k_achieved == 1.0
    assert res.meta.get("degenerate") is True


# ---------------------------------------------------------------------------
# matrix-valued boundary functions


def test_matrix_valued_function_basics():
    rng = np.random.default_rng(31)
    sam = rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2))
    f = MatrixValuedFunction(sam)
    g = f.riesz_project()
    assert g.analyticity_residual() < 1e-13
    again = MatrixValuedFunction.from_json(f.to_json())
    assert np.abs(again.samples - f.samples).max() == 0.0
    # mixed norm at (2, 2) is the flat Frobenius average
    want = np.sqrt(np.mean([np.linalg.norm(sam[i]) ** 2 for i in range(8)]))
    assert abs(f.norm(2, 2) - want) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_matrix_valued_function_rejects_non_finite(bad):
    sam = np.ones((8, 2, 2), dtype=np.complex128)
    sam[5, 0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        MatrixValuedFunction(sam)


def test_matrix_outer_scalar_case_frozen():
    # |1 - z/2|^2 sampled as a 1x1 hermitian weight factors back to 1 - z/2
    n = 16
    z = np.exp(2j * np.pi * np.arange(n) / n)
    w = np.abs(1 - 0.5 * z) ** 2
    v = MatrixValuedFunction(w.reshape(n, 1, 1).astype(np.complex128))
    fac, residual = matrix_outer_factor(v)
    got = fac.samples[:, 0, 0]
    # outer normalisation fixes the constant coefficient positive
    ref = 1 - 0.5 * z
    assert residual < 1e-12
    assert np.abs(np.abs(got) - np.abs(ref)).max() < 1e-12


def test_matrix_outer_constant_diagonal():
    n = 8
    v = MatrixValuedFunction(np.tile(np.diag([2.0, 1.0]).astype(np.complex128), (n, 1, 1)))
    fac, residual = matrix_outer_factor(v)
    assert residual < 1e-10
    want = np.diag([np.sqrt(2.0), 1.0])
    for i in range(n):
        assert np.abs(np.abs(fac.samples[i]) - want).max() < 1e-8


def test_matrix_outer_reports_honest_residual():
    rng = np.random.default_rng(37)
    n, d = 16, 2
    co = np.zeros((n, d, d), dtype=np.complex128)
    for j in range(3):
        co[j] = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / (1 + j)
    g = MatrixValuedFunction(np.fft.ifft(co * n, axis=0))
    v_sam = np.einsum("kij,kil->kjl", g.samples.conj(), g.samples)
    fac, residual = matrix_outer_factor(MatrixValuedFunction(v_sam))
    check = max(
        np.linalg.norm(fac.samples[i].conj().T @ fac.samples[i] - v_sam[i], 2) for i in range(n)
    )
    assert abs(check - residual) < 1e-9 + 0.01 * residual


def suite_input(seed, idx):
    return harness.generate_instance("matrix_valued_poly", harness.ExperimentConfig(seed=seed, grid_n=16), idx)


def split_weight(seed, idx):
    """V = |f| + 1e-6 I, the weight matrix_valued_split factors unless |f|'s
    interpolant dips below zero, for one suite input."""
    f = suite_input(seed, idx)
    absf = np.stack([schatten._herm_power(m.conj().T @ m, 0.5) for m in f.samples])
    return MatrixValuedFunction(absf + 1e-6 * np.eye(f.matdim))


@pytest.mark.parametrize("seed, idx", [(36, 30), (124, 24)])
def test_matrix_outer_counts_nyquist_once(seed, idx):
    # these block-Toeplitz matrices are positive definite only when the
    # Nyquist coefficient vhat_-8 is split between lags -8 and +8
    v = split_weight(seed, idx)
    fac, residual = matrix_outer_factor(v)
    assert np.all(np.isfinite(fac.samples))
    assert residual < 0.05 * np.abs(v.samples).max()


def test_matrix_outer_rejects_symbol_below_zero():
    with pytest.raises(ValueError, match="dips below zero between grid points"):
        matrix_outer_factor(split_weight(11, 2))


@pytest.mark.parametrize("seed, idx", [(11, 2), (150, 19)])
def test_matrix_valued_split_lifts_eps_over_the_dip(seed, idx):
    # |f|'s interpolant dips below zero between grid points, so 1e-6 I is too
    # small a shift for the outer factor; the split lifts eps over the dip
    f = suite_input(seed, idx)
    dec = matrix_valued_split(f, 1, 1, np.inf, np.inf, 1.0, tol=1e-6)
    dec.validate(f)
    assert dec.meta["eps"] > 1e-6
    assert dec.meta["factor_residual"] < 0.01 * np.abs(f.samples).max()


def test_matrix_valued_split_certificates():
    rng = np.random.default_rng(41)
    n, d = 16, 2
    co = np.zeros((n, d, d), dtype=np.complex128)
    for j in range(4):
        co[j] = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / (1 + j)
    f = MatrixValuedFunction(np.fft.ifft(co * n, axis=0))
    t = 1.0
    dec = matrix_valued_split(f, 1, 1, np.inf, np.inf, t, tol=1e-6)
    dec.validate(f)
    amb = ambient_mixed_kt(f, 1, 1, np.inf, np.inf, t, tol=1e-7)
    ratio = dec.cost / amb.dual
    assert 1.0 - 1e-9 <= ratio < 20.0


def test_matrix_valued_split_constant_diagonal_tight():
    n = 16
    f = MatrixValuedFunction(np.tile(np.diag([2.0, 1.0]).astype(np.complex128), (n, 1, 1)))
    dec = matrix_valued_split(f, 1, 1, np.inf, np.inf, 0.7, tol=1e-6)
    amb = ambient_mixed_kt(f, 1, 1, np.inf, np.inf, 0.7, tol=1e-7)
    assert abs(dec.cost / amb.dual - 1.0) < 1e-3


def test_matrix_valued_split_guards():
    f = MatrixValuedFunction(np.zeros((8, 2, 2), dtype=np.complex128))
    with pytest.raises(ValueError):
        matrix_valued_split(f, 1, 2, np.inf, np.inf, 1.0)
    big = MatrixValuedFunction(np.zeros((64, 2, 2), dtype=np.complex128))
    with pytest.raises(ValueError):
        matrix_valued_split(big, 1, 1, np.inf, np.inf, 1.0)
