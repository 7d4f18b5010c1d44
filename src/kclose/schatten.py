"""Matrix side: Schatten ideals, the triangular subalgebra, and the
matrix-valued circle model.

"Triangular" always means upper triangular in the fixed standard basis.
The module provides

* norms and the orthogonal triangular projection;
* the exact two-sided factorization x = ab of a triangular matrix along an
  exponent split 1/p = 1/r + 1/q, built from a Cholesky factor so that the
  norm product identity holds by spectral arithmetic;
* the reduction of matrix K-functionals to the singular-value sequence,
  with a convex matrix-level oracle available for cross-checking;
* the squaring decomposition of a triangular matrix for the (1, q) couple,
  through one epsilon-regularised pair of triangular square roots;
* distances to the triangular algebra (corner block formula and convex
  oracles) and the simultaneous two-norm approximation;
* matrix-valued grid functions, their Toeplitz-Cholesky outer factor, and
  the squaring split for mixed-norm couples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import circle
from .kfunctional import (
    CoupleDecomposition,
    CoupleId,
    _clip_split,
    _membership_residual,
    _square_array,
    best_truncation_level,
    check_split,
    kt_bruteforce,
    kt_closed_form,
    make_decomposition,
    require_member,
)
from .solver import (
    AnalyticMask,
    MixedNorm,
    SchattenNorm,
    SplitProgram,
    TriangularMask,
    solve_distance,
    solve_minmax_distance,
    solve_split,
)

__all__ = [
    "MatrixOperator",
    "TriangularFactorization",
    "MatrixValuedFunction",
    "singular_values",
    "schatten_norm",
    "triangular_part",
    "triangular_factor",
    "kt_schatten",
    "decompose_t1_tq",
    "dist_triangular_inf",
    "dist_triangular_inf_oracle",
    "simultaneous_triangular_approx",
    "SimultaneousMatrixResult",
    "matrix_outer_factor",
    "matrix_valued_split",
    "MatrixValuedDecomposition",
]


@dataclass(frozen=True)
class MatrixOperator:
    """A square complex matrix with JSON plumbing.

    ``entries`` is a read-only copy, so the operator keeps the t-independent
    part of :func:`decompose_t1_tq` in ``_roots``: the default eps_reg, |x|
    and the triangular square-root pair of one eps_reg.
    """

    entries: np.ndarray
    _roots: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"entries must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("entries must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "MatrixOperator":
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
        if re.shape != (data["n"], data["n"]) or im.shape != re.shape:
            raise ValueError("re/im shape does not match n")
        return cls(re + 1j * im)


def singular_values(x) -> np.ndarray:
    """Singular values, non-increasing."""
    return np.linalg.svd(_square_array(x), compute_uv=False)


def schatten_norm(x, p: float) -> float:
    """l_p norm of the singular values (operator norm for p = inf)."""
    m = _square_array(x)
    return SchattenNorm(p, m.shape[0]).value(m)


def triangular_part(x):
    """Orthogonal (trace-inner-product) projection onto upper triangular."""
    out = np.triu(_square_array(x))
    return MatrixOperator(out) if isinstance(x, MatrixOperator) else out


def _herm_power(m: np.ndarray, power: float) -> np.ndarray:
    """(hermitian psd matrix)^power via eigendecomposition, re-hermitized."""
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w = np.maximum(w, 0.0) ** power
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2.0


def _flip(m: np.ndarray) -> np.ndarray:
    """Conjugation by the antidiagonal permutation (reverses both orders)."""
    return m[::-1, ::-1]


@dataclass(frozen=True)
class TriangularFactorization:
    """x = a b with both factors upper triangular and multiplying norms."""

    a: MatrixOperator
    b: MatrixOperator
    p: float
    r: float
    q: float

    @property
    def norm_a(self) -> float:
        return schatten_norm(self.a, self.r)

    @property
    def norm_b(self) -> float:
        return schatten_norm(self.b, self.q)


def triangular_factor(x, p: float, r: float, q: float) -> TriangularFactorization:
    """Factor an invertible triangular x = ab along 1/p = 1/r + 1/q.

    One of p/q, p/r is <= 1/2.  If p/q: take the upper Cholesky factor b of
    |x|^{2p/q} and set a = x b^{-1}.  Otherwise mirror the construction on
    xx* -- conjugating by the antidiagonal flip turns the needed aa* = M
    factorization into an ordinary Cholesky while keeping a triangular.
    Both give ||a||_r ||b||_q = ||x||_p exactly: the factor moduli are
    |x|^{p/r} and |x|^{p/q} up to unitary similarity.
    """
    m = _square_array(x)
    require_member("triangular", m, "triangular_factor input")
    s = np.linalg.svd(m, compute_uv=False)
    if s.size and s[-1] <= 1e-10 * s[0]:
        raise ValueError("matrix is numerically singular; factorization needs invertibility")
    if abs(1.0 / p - (1.0 / r + 1.0 / q)) > 1e-12:
        raise ValueError(f"need 1/p = 1/r + 1/q, got p={p}, r={r}, q={q}")
    if p / q <= 0.5:
        grams = _herm_power(m.conj().T @ m, p / q)  # |x|^{2p/q}
        b = scipy.linalg.cholesky(grams, lower=False)
        a = scipy.linalg.solve_triangular(b.T, m.T, lower=True).T
    else:
        # p/r <= 1/2 here (at least one of the two always is)
        grams = _herm_power(m @ m.conj().T, p / r)  # |x*|^{2p/r}
        low = scipy.linalg.cholesky(_flip(grams), lower=True)
        a = _flip(low)
        b = scipy.linalg.solve_triangular(a, m, lower=False)
    return TriangularFactorization(
        a=MatrixOperator(a), b=MatrixOperator(b), p=float(p), r=float(r), q=float(q)
    )


def kt_schatten(x, p0: float, p1: float, t: float, tol: float = 1e-9) -> float:
    """K_t for the Schatten couple via the singular-value sequence."""
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    s = singular_values(x)
    if not np.any(s):
        return 0.0
    p0, p1 = float(p0), float(p1)
    if p0 == 1.0 and p1 == np.inf:
        return kt_closed_form(s, t)
    res = kt_bruteforce(s.astype(np.complex128), CoupleId("sequence", p0, p1), t, tol=tol)
    return res.value


# ---------------------------------------------------------------------------
# triangular base-case splits and the squaring decomposition


def _triangular_base_split(m: np.ndarray, p0: float, p1: float, t: float, svd=None):
    """Project the best ambient truncation split onto the triangular algebra:
    clip the singular values of m at the best level, keep the part above.
    ``svd`` is m's ``np.linalg.svd`` where the caller has it already."""
    u, s, vh = np.linalg.svd(m) if svd is None else svd
    lam, ambient = best_truncation_level(s, 1.0, p0, p1, t)
    a0 = np.triu(m - (u * np.minimum(s, lam)) @ vh)
    return a0, m - a0, {"level": lam, "ambient_cost": ambient}


def _square_roots(m: np.ndarray, eps_reg: float | None, cache: dict):
    """The t-independent part of :func:`decompose_t1_tq`: eps_reg (1e-8 *
    ||m||_inf where None) and, for eps = eps_reg/2, the roots
    ((a, svd(a)), (b, svd(b))) of m = ab, b the upper Cholesky factor of
    |m| + eps*I.  ``cache`` keeps the default eps_reg, |m| and the roots of the
    last eps_reg asked for; m must not change while it is kept."""
    if eps_reg is None:
        if "eps_default" not in cache:
            cache["eps_default"] = 1e-8 * schatten_norm(m, np.inf)
        eps_reg = cache["eps_default"]
    held = cache.get("roots")  # (eps_reg, roots), replaced as one value
    if held is None or held[0] != eps_reg:
        if "absx" not in cache:
            cache["absx"] = _herm_power(m.conj().T @ m, 0.5)
        b = scipy.linalg.cholesky(cache["absx"] + eps_reg / 2.0 * np.eye(m.shape[0]), lower=False)
        a = scipy.linalg.solve_triangular(b.T, m.T, lower=True).T
        held = cache["roots"] = (eps_reg, ((a, np.linalg.svd(a)), (b, np.linalg.svd(b))))
    return eps_reg, held[1]


def decompose_t1_tq(x, q: float, t: float, eps_reg: float | None = None) -> CoupleDecomposition:
    """Squaring decomposition of triangular x for the (1, q) couple.

    b is the upper Cholesky factor of |x| + eps*I, eps = eps_reg/2, and
    a = x b^{-1}, so both are triangular square roots of x; each splits at
    sqrt(t) in exponents (2, 2q) by level truncation plus triangular
    projection, and the cross products are placed by a further split at t.
    Reconstruction is exact for any eps because a b = x by construction.
    ``meta`` describes the split (``eps_reg``, ``eps``, ``a_norms``,
    ``b_norms``, ``cross_levels`` and ``expansion_residual``, the largest
    entry of a0 b0 + a1 b1 + cross - x).  eps_reg defaults to
    1e-8 * ||x||_inf.  The roots and their SVDs do not depend on t: a
    :class:`MatrixOperator` x keeps them for its last eps_reg, so a sweep
    over t factors x once.
    """
    q = float(q)
    if not (1.0 < q < np.inf):
        raise ValueError(f"q must lie strictly inside (1, inf), got {q}")
    if not 0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    m = _square_array(x)
    couple = CoupleId("triangular", 1, q)
    if not np.any(m):
        z = np.zeros_like(m)
        return make_decomposition(couple, t, x, z, z.copy())
    require_member("triangular", m, "decompose_t1_tq input")
    cache = x._roots if isinstance(x, MatrixOperator) else {}
    eps_reg, ((a, asvd), (b, bsvd)) = _square_roots(m, eps_reg, cache)
    p = 1.0 / (0.5 + 0.5 / q)
    a0, a1, ameta = _triangular_base_split(a, 2.0, 2.0 * q, np.sqrt(t), asvd)
    b0, b1, bmeta = _triangular_base_split(b, 2.0, 2.0 * q, np.sqrt(t), bsvd)
    main0, main1 = a0 @ b0, a1 @ b1
    cross = a0 @ b1 + a1 @ b0
    c0, _, cmeta = _triangular_base_split(cross, (1.0 + p) / 2.0, q, t)
    x0 = main0 + c0
    dec = make_decomposition(couple, t, x, x0, m - x0)
    dec.meta.update(
        eps_reg=eps_reg,
        eps=eps_reg / 2.0,
        a_norms=(schatten_norm(a0, 2.0), schatten_norm(a1, 2.0 * q)),
        b_norms=(schatten_norm(b0, 2.0), schatten_norm(b1, 2.0 * q)),
        cross_levels=(ameta["level"], bmeta["level"], cmeta["level"]),
        expansion_residual=float(np.abs(main0 + main1 + cross - m).max()),
    )
    return dec


# ---------------------------------------------------------------------------
# distances to the triangular algebra


def dist_triangular_inf(x) -> float:
    """Operator-norm distance to upper triangular: the largest corner block."""
    m = _square_array(x)
    n = m.shape[0]
    best = 0.0
    for k in range(1, n):
        block = m[k:, :k]
        best = max(best, float(np.linalg.norm(block, 2)))
    return best


def dist_triangular_inf_oracle(x, tol: float = 1e-8, max_iter: int = 400_000):
    """Convex-program distance in the operator norm, with certificate."""
    m = _square_array(x)
    n = m.shape[0]
    cert = solve_distance(
        m.ravel(), SchattenNorm(np.inf, n), TriangularMask(n), tol=tol, max_iter=max_iter
    )
    return cert.primal, cert


@dataclass
class SimultaneousMatrixResult:
    """One triangular matrix nearly attaining both distances at once."""

    xhat: MatrixOperator
    k_achieved: float
    d1: float
    dinf: float
    ratio_1: float
    ratio_inf: float
    gap: float
    meta: dict = field(default_factory=dict)


def simultaneous_triangular_approx(
    x,
    tol: float = 1e-6,
    max_iter: int = 400_000,
) -> SimultaneousMatrixResult:
    """Minimize max(||x - y||_1/d1, ||x - y||_inf/dinf) over triangular y.

    ``meta["k_upper"]`` divides by the distances' certified lower bounds in
    place of the primal values d1 and dinf, so it bounds the true ratio from
    above (inf where a bound is 0).  If either distance is below 1e-10 *
    max(1, max|x|), x is treated as triangular and y is its triangular part
    (``meta["degenerate"]``).  ``meta["converged"]`` says whether both
    distances and the min-max stopped at their gap targets.
    """
    m = _square_array(x)
    n = m.shape[0]
    mask = TriangularMask(n)
    n1, ninf = SchattenNorm(1.0, n), SchattenNorm(np.inf, n)
    c1 = solve_distance(m.ravel(), n1, mask, tol=tol * 1e-2, max_iter=max_iter)
    cinf = solve_distance(m.ravel(), ninf, mask, tol=tol * 1e-2, max_iter=max_iter)
    d1, dinf = c1.primal, cinf.primal
    scale = max(1.0, float(np.abs(m).max()))
    if d1 < 1e-10 * scale or dinf < 1e-10 * scale:
        xhat = triangular_part(m)
        return SimultaneousMatrixResult(
            xhat=MatrixOperator(xhat), k_achieved=1.0, d1=d1, dinf=dinf,
            ratio_1=1.0, ratio_inf=1.0, gap=0.0,
            meta={"degenerate": True, "converged": c1.converged and cinf.converged},
        )
    cert = solve_minmax_distance(m.ravel(), n1, ninf, d1, dinf, mask, tol=tol, max_iter=max_iter)
    xhat = np.triu(cert.minimizer.reshape(n, n))
    diff = m - xhat
    e1, einf = schatten_norm(diff, 1.0), schatten_norm(diff, np.inf)
    r1, rinf = e1 / d1, einf / dinf
    return SimultaneousMatrixResult(
        xhat=MatrixOperator(xhat),
        k_achieved=max(r1, rinf),
        d1=d1,
        dinf=dinf,
        ratio_1=r1,
        ratio_inf=rinf,
        gap=cert.gap,
        meta={
            # the ratios over the certified lower bounds of d1 and dinf
            "k_upper": max(e / c.dual if c.dual > 0 else np.inf for e, c in ((e1, c1), (einf, cinf))),
            "minmax_primal": cert.primal,
            "minmax_dual": cert.dual,
            "d1_gap": c1.gap,
            "dinf_gap": cinf.gap,
            "iterations": cert.iterations,
            "converged": c1.converged and cinf.converged and cert.converged,
        },
    )


# ---------------------------------------------------------------------------
# matrix-valued grid functions and the section-3 squaring step


class MatrixValuedFunction:
    """An (npoints, n, n) sampled matrix function on the circle grid."""

    __slots__ = ("samples",)

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"samples must be (npoints, n, n), got {arr.shape}")
        circle._check_grid_size(arr.shape[0])
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        self.samples = arr

    @property
    def npoints(self) -> int:
        return self.samples.shape[0]

    @property
    def matdim(self) -> int:
        return self.samples.shape[1]

    def coeffs(self) -> np.ndarray:
        """Matrix Fourier coefficients in FFT order along axis 0."""
        return np.fft.fft(self.samples, axis=0) / self.npoints

    def analyticity_residual(self) -> float:
        return circle._negative_frequency_mass(self.coeffs())

    def riesz_project(self) -> "MatrixValuedFunction":
        c = np.fft.fft(self.samples, axis=0)
        c[circle.frequencies(self.npoints) < 0] = 0.0
        return MatrixValuedFunction(np.fft.ifft(c, axis=0))

    def norm(self, p: float, qq: float) -> float:
        return MixedNorm(p, qq, self.npoints, self.matdim).value(self.samples.ravel())

    def to_json(self) -> dict:
        return {
            "npoints": self.npoints,
            "n": self.matdim,
            "re": self.samples.real.tolist(),
            "im": self.samples.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "MatrixValuedFunction":
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
        return cls(re + 1j * im)


def matrix_outer_factor(v: MatrixValuedFunction):
    """Analytic F with F(theta)* F(theta) = v(theta), v hermitian positive.

    Toeplitz-Cholesky (Bauer) construction: Cholesky the block-Toeplitz
    matrix [vhat_{j-i}] of 4 * npoints blocks and read the stabilized last
    block row as the moving-average coefficients; their adjoints are the
    Fourier coefficients of F.  The Nyquist coefficient vhat_{-npoints/2}
    is split evenly between lags -npoints/2 and +npoints/2, so the symbol
    equals v on the grid.
    Returns (F, residual) where residual is the sup over the grid of the
    operator-norm error of F*F against v.  Raises ValueError when the
    block-Toeplitz matrix is not positive definite.
    """
    npts, n = v.npoints, v.matdim
    blocks = 4 * npts
    half = npts // 2
    # symbol[k + blocks - 1] = vhat_k for every lag k = j - i of the matrix
    symbol = np.zeros((2 * blocks - 1, n, n), dtype=np.complex128)
    symbol[circle.frequencies(npts) + blocks - 1] = v.coeffs()
    nyquist = 0.5 * symbol[blocks - 1 - half]
    symbol[blocks - 1 - half] = nyquist
    symbol[blocks - 1 + half] = nyquist.conj().T
    lags = np.arange(blocks)[None, :] - np.arange(blocks)[:, None]
    big = symbol[lags + blocks - 1].transpose(0, 2, 1, 3).reshape(blocks * n, blocks * n)
    try:
        low = scipy.linalg.cholesky(big, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "matrix_outer_factor: the block-Toeplitz symbol is not positive definite; "
            "the trigonometric interpolant of v dips below zero between grid points"
        ) from exc
    last = low[(blocks - 1) * n :, :]
    fhat = np.zeros((npts, n, n), dtype=np.complex128)
    for k in range(half):
        a_k = last[:, (blocks - 1 - k) * n : (blocks - k) * n]
        fhat[k] = a_k.conj().T
    fsam = np.fft.ifft(fhat * npts, axis=0)
    f = MatrixValuedFunction(fsam)
    prod = np.einsum("tij,tjk->tik", fsam.conj().transpose(0, 2, 1), fsam)
    residual = float(np.linalg.norm(prod - v.samples, 2, axis=(1, 2)).max())
    return f, residual


def _interpolant_dip(v: np.ndarray) -> float:
    """-min(0, smallest eigenvalue) of the trigonometric interpolant of v.

    v is an (npoints, n, n) hermitian grid function; the interpolant is
    sampled on a grid 64 times finer, with the Nyquist coefficient split
    evenly between -npoints/2 and +npoints/2 as in :func:`matrix_outer_factor`.
    """
    npts = v.shape[0]
    half, fine = npts // 2, 64 * npts
    co = np.fft.fft(v, axis=0) / npts
    c = np.zeros((fine,) + v.shape[1:], dtype=np.complex128)
    c[circle.frequencies(npts)] = co
    c[-half] = 0.5 * co[half]
    c[half] = c[-half].conj().T
    lam = np.linalg.eigvalsh(np.fft.ifft(c * fine, axis=0))
    return max(0.0, -float(lam.min()))


@dataclass
class MatrixValuedDecomposition:
    """Two-part split of a matrix-valued grid function with mixed norms."""

    exponents: tuple
    t: float
    x0: MatrixValuedFunction
    x1: MatrixValuedFunction
    cost: float
    norm0: float
    norm1: float
    membership_residual: float
    meta: dict = field(default_factory=dict)

    validate = check_split


def _mv_subspace_split(
    sam: np.ndarray, p0, q0, p1, q1, t: float, tol: float, max_iter: int
):
    npts, n = sam.shape[0], sam.shape[1]
    prog = SplitProgram(
        sam.ravel(),
        MixedNorm(p0, q0, npts, n),
        MixedNorm(p1, q1, npts, n),
        t,
        subspace=AnalyticMask(npts, n),
    )
    cert = solve_split(prog, tol=tol, max_iter=max_iter)
    return cert.x0.reshape(npts, n, n), cert.x1.reshape(npts, n, n), cert


def matrix_valued_split(
    f: MatrixValuedFunction,
    p0: float,
    q0: float,
    p1: float,
    q1: float,
    t: float,
    tol: float = 1e-6,
    max_iter: int = 200_000,
) -> MatrixValuedDecomposition:
    """Squaring split of an analytic matrix-valued f for a mixed-norm couple.

    V = |f| + eps*I factors as F*F with F analytic; G = f F^{-1}
    is the other square-root-sized half.  F and G split at sqrt(t) in the
    doubled couple (2p0', 2q0') = (2, 2)-type mixed norms via the convex
    solver, the four products recombine, and the result is re-projected so
    membership and reconstruction are exact.  eps is 1e-6, or 1.01 times the
    dip of |f|'s trigonometric interpolant below zero where that is larger:
    the Toeplitz-Cholesky outer factor needs the interpolant positive
    between the grid points too.
    """
    if f.matdim > 8 or f.npoints > 32:
        raise ValueError("matrix-valued splits support matdim <= 8 and npoints <= 32")
    if not 0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    exps = (float(p0), float(q0), float(p1), float(q1))
    if exps != (1.0, 1.0, np.inf, np.inf):
        raise ValueError(f"supported exponent quadruple is (1,1,inf,inf); got {exps}")
    sam = f.samples
    npts, n = f.npoints, f.matdim
    n0 = MixedNorm(p0, q0, npts, n)
    n1 = MixedNorm(p1, q1, npts, n)
    if not np.any(sam):
        z = MatrixValuedFunction(np.zeros_like(sam))
        return MatrixValuedDecomposition(exps, t, z, MatrixValuedFunction(np.zeros_like(sam)),
                                         0.0, 0.0, 0.0, 0.0,
                                         meta={"split_gaps": (0.0, 0.0, 0.0), "solver_converged": True})
    require_member("hardy", sam, "matrix_valued_split input")
    absf = np.stack([_herm_power(sam[i].conj().T @ sam[i], 0.5) for i in range(npts)])
    eps = max(1e-6, 1.01 * _interpolant_dip(absf))
    v = MatrixValuedFunction(absf + eps * np.eye(n))
    bigf, fac_residual = matrix_outer_factor(v)
    # G = f F^{-1} pointwise, so G F = f; solve F^T G^T = f^T per grid point
    g = np.stack([scipy.linalg.solve(bigf.samples[i].T, sam[i].T).T for i in range(npts)])
    st = np.sqrt(t)
    f0, f1, fcert = _mv_subspace_split(bigf.samples, 2, 2, np.inf, np.inf, st, tol, max_iter)
    g0, g1, gcert = _mv_subspace_split(g, 2, 2, np.inf, np.inf, st, tol, max_iter)
    main0 = np.einsum("tij,tjk->tik", g0, f0)
    main1 = np.einsum("tij,tjk->tik", g1, f1)
    cross = np.einsum("tij,tjk->tik", g0, f1) + np.einsum("tij,tjk->tik", g1, f0)
    c0, _, ccert = _mv_subspace_split(cross, 2, 2, np.inf, np.inf, t, tol, max_iter)
    x0_raw = main0 + c0
    leak = MatrixValuedFunction(x0_raw)
    x0 = leak.riesz_project().samples
    x1 = sam - x0
    v0, v1 = n0.value(x0.ravel()), n1.value(x1.ravel())
    mem = max(_membership_residual("hardy", x0), _membership_residual("hardy", x1))
    return MatrixValuedDecomposition(
        exponents=exps,
        t=t,
        x0=MatrixValuedFunction(x0),
        x1=MatrixValuedFunction(x1),
        cost=v0 + t * v1,
        norm0=v0,
        norm1=v1,
        membership_residual=mem,
        meta={
            "eps": eps,
            "factor_residual": fac_residual,
            "leakage": leak.analyticity_residual(),
            "raw_reconstruction": float(np.abs(main0 + main1 + cross - sam).max()),
            "split_gaps": (fcert.gap, gcert.gap, ccert.gap),
            "solver_converged": fcert.converged and gcert.converged and ccert.converged,
        },
    )


def ambient_mixed_kt(
    f: MatrixValuedFunction,
    p0: float,
    q0: float,
    p1: float,
    q1: float,
    t: float,
    tol: float = 1e-7,
    max_iter: int = 200_000,
):
    """Ambient (unrestricted) mixed-norm K_t as a solver certificate: for
    p0 = 1 the warm pair is the exact clip of all the grid's singular values
    (:func:`_clip_split`), certified at 0 iterations; else a cold solve."""
    npts, n = f.npoints, f.matdim
    prog = SplitProgram(
        f.samples.ravel(),
        MixedNorm(p0, q0, npts, n),
        MixedNorm(p1, q1, npts, n),
        t,
    )
    warm_primal, warm_dual = _clip_split(prog.target, prog.norm0, prog.norm1, t) if p0 == 1 else (None, None)
    return solve_split(prog, tol=tol, max_iter=max_iter, warm_primal=warm_primal, warm_dual=warm_dual)
