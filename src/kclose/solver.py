"""Small primal-dual solver for norm-splitting and distance programs.

Three program families, all over flat complex variable arrays:

* ``solve_split``:     min  N0(x0) + t*N1(x - x0)   (optionally x0 and
  x - x0 confined to a masked subspace) -- the K-functional as a program;
* ``solve_distance``:  min  N(x - y)  over y in a masked subspace;
* ``solve_minmax_distance``:  min  max(Na(x-y)/sa, Nb(x-y)/sb)  over y in a
  masked subspace, via the epigraph reformulation.

All three run on one engine, ``_primal_dual``: the over-relaxed
primal-dual hybrid-gradient (Chambolle-Pock) iteration.  A program hands it

* its primal and dual blocks -- arrays or scalars, e.g. (y, s) and the
  polar-cone pairs (za, ra), (zb, rb) for the min-max program;
* ``norm_sq``, a bound on ||K||^2, and ``balance``, the starting primal
  weight omega (``_balance``);
* ``adjoint(dual)``: K^T applied to the dual blocks, one entry per primal
  block;
* ``dual_step(dual, extrapolated_primal, sigma)``: the dual ascent step of
  size sigma followed by each block's closed-form projection (dual-norm
  balls for norms, polar cones for the epigraph constraints);
* ``certificate(primal, dual)``: ``(value, lower, fields)``, the primal
  value and the certified lower bound of the feasible pair assembled from
  the blocks, plus the program's own certificate fields (split or
  minimizer, dual witness, subspace residual).  It calls no dual-ball or
  cone projection, so those calls count the iterations.

The engine alone owns the step sizes sigma = eta*omega and tau = eta/omega
(eta = 0.95/sqrt(norm_sq)), the primal step, the extrapolation, the
over-relaxation (``RELAX``), the certificate check every ``CHECK_EVERY``
iterations, the gap test and the ``SolverCertificate`` record (gap,
iterations, converged).  The primal weight omega adapts per solve, as in
PDLP: a check that does not stop the run restarts when the gap has fallen
to a fifth of the gap at the last restart, or to four fifths and then
risen, or when at least 36% of the run lies since the last restart.  A
restart moves omega to the geometric mean of itself and ||dy||/||dx||, the
dual over the primal movement since the last restart.  An optional
``warm`` dual is checked against the starting primal with that same gap
test before iteration 1; it never seeds the iteration.  A masked subspace
enters through the mask's orthogonal projection, the prox of its
indicator: each program applies it to the adjoint, so a primal iterate
that starts in the subspace stays there (P is linear) and no dual block
carries the subspace constraint.  Complex entries are treated as real
pairs; all moduli-based projections preserve phases.

Certificates are honest: the reported dual value is always evaluated at an
exactly feasible dual point (iterates are projected onto the dual constraint
set and scaled into the balls), so ``primal - dual`` is a true optimality
gap whatever the iteration count.  A run that stops at ``max_iter`` returns
its last certificate with ``converged=False``.

The norms are the weighted l^p norm ``VectorNorm`` and two that delegate to
it: ``SchattenNorm`` on one matrix's singular values, ``MixedNorm`` (L^p(C_p),
p in {1, 2, inf}) on a grid of matrices.  Each gives its value, dual value and
dual-ball projection; the min-max program also needs the epigraph-cone
projection, which ``VectorNorm`` and ``SchattenNorm`` give for p in {1, inf}.
These projections run on moduli: the dual balls through the one routine
``VectorNorm._project_moduli`` (at p = 2 ``VectorNorm`` scales y instead),
the cones through the scans ``_cone_level_inf`` and ``_cone_multiplier_l1``
on a descending list of Python floats.  Only complex entries get phases
back (``_moduli_phases``); the Schatten and mixed norms hand over their
singular values as the SVD returns them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "VectorNorm",
    "SchattenNorm",
    "MixedNorm",
    "AnalyticMask",
    "TriangularMask",
    "SplitProgram",
    "SolverCertificate",
    "solve_split",
    "solve_distance",
    "solve_minmax_distance",
]


def _real_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product of complex arrays viewed as real pairs."""
    return float(np.real(np.vdot(b, a)))


_TINY = np.finfo(float).tiny  # v / |v| can overflow below it; such entries take phase 1


def _moduli_phases(v: np.ndarray):
    m = np.abs(v)
    if m.min(initial=np.inf) >= _TINY:
        return m, v / m
    return m, np.divide(v, m, out=np.ones_like(v), where=m >= _TINY)


def _project_l1_ball(m: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of a nonnegative vector onto {sum <= radius}."""
    if radius <= 0:
        return np.zeros_like(m)
    if m.sum() <= radius:
        return m.copy()
    u = np.sort(m)[::-1]
    d = u.cumsum()
    d -= radius
    d /= np.arange(1.0, m.size + 1)
    # the last k with u_k > d_k; k = 1 always qualifies in exact arithmetic,
    # but not when radius is below the rounding of the largest entry
    fits = (u > d)[::-1]
    last = int(fits.argmax())
    out = m - d[m.size - 1 - last if fits[last] else 0]
    return np.maximum(out, 0.0, out=out)


def _lp_norm(v: np.ndarray, p: float) -> float:
    """||v||_p of a nonnegative vector, scaled by its maximum against overflow."""
    top = float(v.max(initial=0.0))
    return top * float(((v / top) ** p).sum()) ** (1.0 / p) if top > 0 else 0.0


# step caps of the multiplier and root loops below: the step counts of the
# nested bisection they replaced, so that no input costs more than it did
_MULTIPLIER_STEPS, _ROOT_STEPS = 80, 70


def _lp_kkt_root(m: np.ndarray, p: float, a: float) -> np.ndarray:
    """Root z in (0, m] of z + a*z^(p-1) = m, elementwise, for m > 0, a > 0.

    Newton's method from the right on a convex increasing residual moves
    monotonically down to the root and never overshoots.  The residual is
    convex in z for p >= 2 and in w = z^(p-1) for p < 2, where it reads
    w^(1/(p-1)) + a*w = m.  The start min(m, (m/a)^(1/(p-1))), the root of
    either term alone, lies right of the root (it is formed in logarithms,
    which cannot overflow).
    """
    lm = np.log(m)
    z = np.exp(np.minimum(lm, (lm - np.log(a)) / (p - 1.0)))
    if p < 2:
        k = 1.0 / (p - 1.0)
        w = z ** (p - 1.0)
        for _ in range(_ROOT_STEPS):
            wk = w ** (k - 1.0)
            step = (wk * w + a * w - m) / (k * wk + a)
            w = w - step
            if np.all(np.abs(step) <= 1e-12 * w):
                break
        return w**k
    for _ in range(_ROOT_STEPS):
        zk = z ** (p - 2.0)
        step = (z + a * zk * z - m) / (1.0 + a * (p - 1.0) * zk)
        z = z - step
        if np.all(np.abs(step) <= 1e-12 * z):
            break
    return z


def _project_lp_ball(m: np.ndarray, p: float, radius: float) -> np.ndarray:
    """Projection of a nonnegative vector onto {||.||_p <= radius}, 1<p<inf.

    The projection is positively homogeneous, so it is solved for u = m /
    radius and the unit ball.  Outside the ball the KKT system is
    z + mu*p*z^(p-1) = u with ||z||_p = 1.  Since mu*p*z^(p-1) = u - z
    with 0 <= z <= u and ||z^(p-1)||_q = 1 (q = p/(p-1)), the multiplier
    lies in the closed bracket [0, ||u||_q / p].  A Newton iteration on
    g(mu) = ||z(mu)||_p^(1-p) - 1, which is nearly linear in mu, starts at
    the bracket's upper end and bisects whenever a step would leave the
    shrinking bracket.  Its derivative comes from the implicit
    dz/dmu = -p*z / (z^(2-p) + mu*p*(p-1)), which stays finite as z -> 0.
    Each z(mu) is a monotone Newton solve, on coordinates with u_i > 0 only.
    The result is scaled onto the unit sphere, so it is feasible up to
    rounding whatever the accuracy of the multiplier.
    """
    if radius <= 0:
        return np.zeros_like(m)
    u = m / radius
    if _lp_norm(u, p) <= 1.0:
        return m.copy()
    pos = u > 0
    u = u[pos]
    lo, hi = 0.0, _lp_norm(u, p / (p - 1.0)) / p
    mu = hi
    for _ in range(_MULTIPLIER_STEPS):
        a = mu * p
        z = _lp_kkt_root(u, p, a)
        zp = z**p
        s = zp.sum()
        scale = s ** ((1.0 - p) / p)
        g = scale - 1.0
        if g == 0:
            break
        if g > 0:
            hi = mu
        else:
            lo = mu
        slope = (p - 1.0) * p * scale * (zp / (z ** (2.0 - p) + a * (p - 1.0))).sum() / s
        new = mu - g / slope if slope > 0 else lo
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - mu) <= 1e-14 * mu:
            break
        mu = new
    out = np.zeros_like(m)
    out[pos] = radius * z * s ** (-1.0 / p)
    return out


# The epigraph-cone scans run on Python floats: a scan stops at the first
# feasible piece k, before a vectorised test would pay off on these few
# entries.  The min-max iteration counts depend on their results to the last
# bit: keep the sequential running sum and the operand order.  The 1e-15
# slack and the fallthrough absorb rounding at the piece boundaries.


def _cone_level_inf(u: list, h: float) -> float:
    """Level s of the l^inf cone projection of (u, h), u descending: the
    minimiser of sum (u_i - s)_+^2 + (s - h)^2, solved piecewise over s."""
    n, cum = len(u), 0.0
    for k in range(n + 1):
        s = (h + cum) / (1.0 + k)
        lo = u[k] if k < n else 0.0
        hi = u[k - 1] if k else np.inf
        if lo - 1e-15 <= s <= hi + 1e-15:
            return max(s, lo, 0.0)
        if k < n:
            cum += u[k]
    return max((h + cum) / (1.0 + n), 0.0)


def _cone_multiplier_l1(u: list, h: float, wgt: float) -> float:
    """KKT multiplier lam of the weighted l^1 cone projection of (u, h), u
    descending: z = (u - lam*wgt)_+ and s = h + lam with wgt*sum(z) = s."""
    n, cum = len(u), 0.0
    for k in range(1, n + 1):
        cum += u[k - 1]
        lam = (wgt * cum - h) / (1.0 + k * wgt * wgt)
        hi = u[k - 1] / wgt
        lo = u[k] / wgt if k < n else 0.0
        if lo - 1e-15 <= lam <= hi + 1e-15 and lam >= 0:
            return lam
    return max((wgt * cum - h) / (1.0 + n * wgt * wgt), 0.0)


class VectorNorm:
    """(weight * sum |v_i|^p)^(1/p) on flat complex arrays; p = inf is max.

    ``weight`` is the measure of one grid point (1/N for the circle grid,
    1 for counting measure).  The weight is ignored at p = inf.
    """

    def __init__(self, p: float, weight: float = 1.0):
        if not p >= 1:
            raise ValueError(f"exponent must be >= 1, got {p}")
        self.p = float(p)
        self.weight = float(weight)

    def value(self, v: np.ndarray) -> float:
        a = np.abs(v)
        if self.p == np.inf:
            return float(a.max()) if a.size else 0.0
        return float((self.weight * np.sum(a**self.p)) ** (1.0 / self.p))

    def dual_value(self, y: np.ndarray) -> float:
        a = np.abs(y)
        if not a.size:
            return 0.0
        if self.p == np.inf:
            return float(a.sum())
        if self.p == 1:
            return float(a.max() / self.weight)
        q = self.p / (self.p - 1.0)
        return float((np.sum(a**q)) ** (1.0 / q) / self.weight ** (1.0 / self.p))

    def project_dual_ball(self, y: np.ndarray, radius: float) -> np.ndarray:
        """Projection onto {dual_value <= radius}: at p = 2 a scaling of y,
        otherwise the phases of y times the projection of its moduli."""
        if self.p == 2:
            cap = radius * np.sqrt(self.weight)
            nrm = np.sqrt((np.abs(y) ** 2).sum())
            return y.copy() if nrm <= cap else y * (cap / nrm)
        m, ph = _moduli_phases(y)
        return ph * self._project_moduli(m, radius)

    def _project_moduli(self, m: np.ndarray, radius: float) -> np.ndarray:
        """Projection of nonnegative real moduli m onto {dual_value <= radius}."""
        if self.p == 1:
            return np.minimum(m, radius * self.weight)
        if self.p == 2:
            return self.project_dual_ball(m, radius)
        if self.p == np.inf:
            return _project_l1_ball(m, radius)
        q = self.p / (self.p - 1.0)
        cap = radius * self.weight ** (1.0 / self.p)
        return _project_lp_ball(m, q, cap)

    def cone_project(self, w: np.ndarray, h: float):
        """Projection onto the cone {(v, s): value(v) <= s}."""
        if self.value(w) <= h:
            return w.copy(), float(h)
        if self.dual_value(w) <= -h:
            return np.zeros_like(w), 0.0
        m, ph = _moduli_phases(w)
        if self.p == np.inf:
            level = _cone_level_inf(np.sort(m)[::-1].tolist(), h)
            return ph * np.minimum(m, level), float(level)
        if self.p == 1:
            wgt = self.weight
            lam = _cone_multiplier_l1(m[np.argsort(-m / wgt)].tolist(), h, wgt)
            return ph * np.maximum(m - lam * wgt, 0.0), float(h + lam)
        raise NotImplementedError(f"cone projection not provided for p={self.p}")


class SchattenNorm:
    """Schatten p-norm of an n x n matrix stored as a flat complex array."""

    def __init__(self, p: float, n: int):
        self.p = float(p)
        self.n = int(n)
        self._vec = VectorNorm(p, 1.0)

    def _svd(self, y):
        return np.linalg.svd(y.reshape(self.n, self.n))

    def value(self, v: np.ndarray) -> float:
        s = np.linalg.svd(v.reshape(self.n, self.n), compute_uv=False)
        return self._vec.value(s)

    def dual_value(self, y: np.ndarray) -> float:
        s = np.linalg.svd(y.reshape(self.n, self.n), compute_uv=False)
        return self._vec.dual_value(s)

    def project_dual_ball(self, y: np.ndarray, radius: float) -> np.ndarray:
        u, s, vh = self._svd(y)
        return ((u * self._vec._project_moduli(s, radius)) @ vh).ravel()

    def cone_project(self, w: np.ndarray, h: float):
        """The singular values are already real, nonnegative and descending:
        the exits read s[0] and s.sum() and the scans take s as it is.  Every
        branch rebuilds the matrix from the SVD, as w itself differs from it
        in the last bits."""
        if self.p not in (1.0, np.inf):
            raise NotImplementedError(f"cone projection not provided for p={self.p}")
        u, s, vh = self._svd(w)
        top, total = float(s[0]), float(s.sum())
        value, dual = (top, total) if self.p == np.inf else (total, top)
        if value <= h:
            s2, level = s, float(h)
        elif dual <= -h:
            s2, level = np.zeros_like(s), 0.0
        elif self.p == np.inf:
            level = float(_cone_level_inf(s.tolist(), h))
            s2 = np.minimum(s, level)
        else:
            lam = _cone_multiplier_l1(s.tolist(), h, 1.0)
            s2, level = np.maximum(s - lam, 0.0), float(h + lam)
        return ((u * s2) @ vh).ravel(), level


class MixedNorm:
    """L^p(C_p) norm, p in {1, 2, inf}, of a matrix-valued grid function.

    The variable is an (npoints, n, n) complex array stored flat.  The norm
    is ``VectorNorm(p, 1/npoints)`` of all the singular values on the grid,
    or at p = 2 of the flat entries: there it is the Frobenius norm and needs
    no SVD.  ``q`` must equal ``p``.  Use a plain :class:`VectorNorm` when n == 1.
    """

    def __init__(self, p: float, q: float, npoints: int, n: int):
        if float(p) != float(q) or float(p) not in (1.0, 2.0, np.inf):
            raise NotImplementedError(
                f"mixed norm L^{p}(C_{q}) has no projection rule here; "
                "supported pairs: (1,1),(2,2),(inf,inf)"
            )
        self.p = float(p)
        self.npoints, self.n = int(npoints), int(n)
        self._vec = VectorNorm(p, 1.0 / self.npoints)

    def _spectrum(self, v: np.ndarray) -> np.ndarray:
        """The flat entries at p = 2, else the stacked singular values."""
        if self.p == 2:
            return v
        return np.linalg.svd(v.reshape(self.npoints, self.n, self.n), compute_uv=False).ravel()

    def value(self, v: np.ndarray) -> float:
        return self._vec.value(self._spectrum(v))

    def dual_value(self, y: np.ndarray) -> float:
        return self._vec.dual_value(self._spectrum(y))

    def project_dual_ball(self, y: np.ndarray, radius: float) -> np.ndarray:
        if self.p == 2:
            return self._vec.project_dual_ball(y, radius)
        u, s, vh = np.linalg.svd(y.reshape(self.npoints, self.n, self.n))
        s2 = self._vec._project_moduli(s.ravel(), radius).reshape(s.shape)
        return np.einsum("tij,tj,tjk->tik", u, s2, vh).ravel()


MAX_GRID = 64  # largest circle grid; bounds AnalyticMask's dense circulant


class AnalyticMask:
    """Orthogonal projection killing negative-frequency Fourier content.

    Works on flat arrays holding either plain grid samples (matdim absent)
    or an (npoints, n, n) matrix-valued grid function, along the grid axis.
    The projection ifft(keep * fft(v)) is a circular convolution, so it is
    held as its npoints x npoints Hermitian circulant matrix, whose first
    column is ifft(keep): one matrix product per call in place of an FFT
    round trip.  The matrix takes 16 * npoints**2 bytes, 64 KB at
    ``MAX_GRID`` = 64, the largest grid it accepts.
    """

    def __init__(self, npoints: int, matdim: int | None = None):
        if npoints > MAX_GRID:
            raise ValueError(f"grid size {npoints} above the supported bound {MAX_GRID}")
        self.npoints = int(npoints)
        self.matdim = matdim
        freq = np.fft.fftfreq(npoints, d=1.0 / npoints)
        column = np.fft.ifft((freq >= 0).astype(np.complex128))
        lag = np.arange(npoints)
        self._matrix = column[(lag[:, None] - lag[None, :]) % npoints]

    def project(self, v: np.ndarray) -> np.ndarray:
        if self.matdim is None:
            return self._matrix @ v
        return (self._matrix @ v.reshape(self.npoints, -1)).ravel()

    def antiproject(self, v: np.ndarray) -> np.ndarray:
        return v - self.project(v)


class TriangularMask:
    """Orthogonal projection onto upper-triangular n x n matrices."""

    def __init__(self, n: int):
        self.n = int(n)
        self._mask = np.triu(np.ones((n, n), dtype=bool)).ravel()

    def project(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        out[self._mask] = v[self._mask]
        return out

    def antiproject(self, v: np.ndarray) -> np.ndarray:
        return v - self.project(v)


@dataclass
class SplitProgram:
    """min N0(x0) + t*N1(x - x0), optionally inside a masked subspace."""

    target: np.ndarray
    norm0: object
    norm1: object
    t: float
    subspace: object | None = None

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=np.complex128).ravel()
        if not 0 < self.t < np.inf:
            raise ValueError(f"parameter t must be positive and finite, got {self.t}")


@dataclass
class SolverCertificate:
    """Outcome of a solver run with a feasible primal/dual pair."""

    primal: float
    dual: float
    gap: float
    iterations: int
    converged: bool
    x0: np.ndarray | None = None
    x1: np.ndarray | None = None
    minimizer: np.ndarray | None = None
    dual_witness: dict = field(default_factory=dict)
    subspace_residual: float = 0.0


RELAX = 1.85  # over-relaxation factor of every program
CHECK_EVERY = 50  # iterations between certificate checks
# restart tests on the gap and the iteration count (PDLP's defaults)
RESTART_SUFFICIENT, RESTART_NECESSARY, RESTART_ARTIFICIAL = 0.2, 0.8, 0.36


def _distance(blocks, ref) -> float:
    """Euclidean distance between two lists of blocks, scalars included."""
    return float(np.sqrt(sum(np.sum(np.abs(np.subtract(a, b)) ** 2) for a, b in zip(blocks, ref))))


def _balance(objective: float, x: np.ndarray) -> float:
    """Starting primal weight omega ~ (dual scale / primal scale).

    The dual iterates live at the scale of the dual-ball radii, which for
    measure-weighted norms is far below the primal scale; starting from the
    objective-to-Euclidean ratio of the target keeps both updates moving.
    It only seeds omega: the engine's restarts adapt it from there.
    """
    e = np.sqrt(_real_inner(x, x))
    return max(objective / e, 1e-8) if e else 1.0


def _primal_dual(primal, dual, norm_sq, balance, adjoint, dual_step, certificate, tol, max_iter, warm=None):
    """Over-relaxed primal-dual iteration shared by the three programs.

    ``primal`` and ``dual`` are lists of blocks (arrays or scalars), updated
    in place.  The step sizes are sigma = eta * omega and tau = eta / omega
    with eta = 0.95 / sqrt(norm_sq), so sigma * tau * norm_sq = 0.95**2
    whatever the primal weight omega; ``norm_sq`` bounds ||K||^2 and
    ``balance`` only seeds omega.  Each iteration takes the primal step
    against ``adjoint(dual)``, extrapolates to ``2*new - old``, takes
    ``dual_step(dual, extrapolated, sigma)`` and over-relaxes both sides.
    ``certificate(primal, dual)`` gives ``(value, lower, fields)``: the
    primal value and certified lower bound of the feasible pair assembled
    from the blocks, and the program's own SolverCertificate fields.  It is
    checked every CHECK_EVERY iterations and at ``max_iter``, and a run
    stops once ``gap <= tol * max(1, value)``; at ``max_iter`` the last
    certificate is returned unconverged.

    A check that does not stop the run may restart (PDLP's rule: Applegate
    et al., NeurIPS 2021, sections 3.3-3.4).  The first check only records
    its gap; later ones restart when the gap is

    * at most RESTART_SUFFICIENT times the gap at the last restart, or
    * at most RESTART_NECESSARY times that gap and above the previous
      check's, or when
    * the iterations since the last restart are at least RESTART_ARTIFICIAL
      times all iterations so far.

    A restart sets omega <- sqrt(omega * ||dy|| / ||dx||), where dx and dy
    are the Euclidean changes of the primal and dual blocks since the last
    restart (omega is kept when either is 0 or not finite), and moves the
    reference point and gap to the current iterates.  The iterates
    themselves are not reset.  A ``warm`` dual is checked against the
    starting primal with the same gap test before iteration 1 and returned
    at 0 iterations if it passes; it never seeds the iteration, which
    starts from ``dual``.
    """
    eta = 0.95 / np.sqrt(norm_sq)
    omega = balance

    def check(y, it):
        value, lower, fields = certificate(primal, y)
        gap = value - lower
        return SolverCertificate(value, lower, gap, it, bool(gap <= tol * max(1.0, value)), **fields)

    if warm is not None:
        cert = check(warm, 0)
        if cert.converged:
            return cert
    ref_primal, ref_dual = list(primal), list(dual)
    ref_gap = last_gap = None
    ref_it = 0
    for it in range(1, max_iter + 1):
        sigma, tau = eta * omega, eta / omega
        bar = []
        for i, g in enumerate(adjoint(dual)):
            v = primal[i]
            v_new = v - tau * g
            bar.append(2.0 * v_new - v)
            primal[i] = v + RELAX * (v_new - v)
        for i, v_new in enumerate(dual_step(dual, bar, sigma)):
            v = dual[i]
            dual[i] = v + RELAX * (v_new - v)
        if it % CHECK_EVERY == 0 or it == max_iter:
            cert = check(dual, it)
            if cert.converged or it == max_iter:
                return cert
            gap = cert.gap
            if ref_gap is None:
                ref_gap = gap
            elif (gap <= RESTART_SUFFICIENT * ref_gap
                  or (gap <= RESTART_NECESSARY * ref_gap and gap > last_gap)
                  or it - ref_it >= RESTART_ARTIFICIAL * it):
                dx, dy = _distance(primal, ref_primal), _distance(dual, ref_dual)
                if 0 < dx < np.inf and 0 < dy < np.inf:
                    omega = np.sqrt(omega * dy / dx)
                ref_primal, ref_dual, ref_gap, ref_it = list(primal), list(dual), gap, it
            last_gap = gap
    return check(dual, 0)  # max_iter < 1: the start, unchecked by any iteration


def solve_split(
    prog: SplitProgram,
    tol: float = 1e-7,
    max_iter: int = 200_000,
    warm_primal: np.ndarray | None = None,
    warm_dual: tuple | None = None,
) -> SolverCertificate:
    """Run the primal-dual iteration on a split program.

    Stops when the certified gap falls below tol * max(1, primal).  The
    starting point (``warm_primal`` or target / 2) is projected into the
    masked subspace, where the iterates then stay.  A ``warm_dual`` pair
    (y0, y1) certifies the start and never seeds the iteration: the
    certificate of the start against it is returned at 0 iterations if it
    passes the gap test, and otherwise the iteration runs from a zero dual.
    The returned split is exactly feasible: x0 is the masked projection of
    the primal iterate and x1 = target - x0.
    """
    x = prog.target
    t = prog.t
    mask = prog.subspace

    if not np.any(x):
        z = np.zeros_like(x)
        return SolverCertificate(0.0, 0.0, 0.0, 0, True, x0=z, x1=z.copy())

    objective = prog.norm0.value(x) + t * prog.norm1.value(x)
    u = 0.5 * x if warm_primal is None else np.asarray(warm_primal, dtype=np.complex128).ravel()
    if mask is not None:
        u = mask.project(u)

    def adjoint(y):
        return [y[0] + y[1] if mask is None else mask.project(y[0] + y[1])]

    def dual_step(y, bar, sigma):
        (ub,) = bar
        return [
            prog.norm0.project_dual_ball(y[0] + sigma * ub, 1.0),
            prog.norm1.project_dual_ball(y[1] + sigma * (ub - x), t),
        ]

    def certificate(primal, y):
        (u,) = primal
        x0 = mask.project(u) if mask is not None else u
        x1 = x - x0
        value = prog.norm0.value(x0) + t * prog.norm1.value(x1)
        y2 = y[1]
        # the witness pair (z0, y2) must sum into the annihilator of the subspace
        z0 = y[0] - mask.project(y[0] + y2) if mask is not None else -y2
        a = prog.norm0.dual_value(z0)
        b = prog.norm1.dual_value(y2)
        # the largest scale that keeps s*z0 and s*y2 inside their dual balls
        s = min((c / d for c, d in ((1.0, a), (t, b)) if d > 0), default=0.0)
        sub_res = float(np.abs(mask.antiproject(u)).max()) if mask is not None else 0.0
        return value, max(0.0, s * (-_real_inner(y2, x))), dict(
            x0=x0, x1=x1, dual_witness={"z0": s * z0, "z1": s * y2}, subspace_residual=sub_res)

    warm = None if warm_dual is None else [np.asarray(w, dtype=np.complex128).ravel() for w in warm_dual]
    dual = [np.zeros_like(x), np.zeros_like(x)]
    return _primal_dual([u], dual, 2.0, _balance(0.5 * objective, x), adjoint, dual_step, certificate,
                        tol, max_iter, warm)


def solve_distance(
    target: np.ndarray,
    norm,
    subspace,
    tol: float = 1e-7,
    max_iter: int = 200_000,
) -> SolverCertificate:
    """min N(x - y) over y in the masked subspace, with a dual witness.

    The dual witness z lies in the annihilator of the subspace with dual
    norm at most one, so Re<x, z> is a true lower bound on the distance.
    """
    x = np.asarray(target, dtype=np.complex128).ravel()

    def adjoint(y):
        return [-subspace.project(y[0])]

    def dual_step(y, bar, sigma):
        (ub,) = bar
        return [norm.project_dual_ball(y[0] + sigma * (x - ub), 1.0)]

    def certificate(primal, y):
        (u,) = primal
        y_feas = subspace.project(u)
        z = subspace.antiproject(y[0])
        nz = norm.dual_value(z)
        s = 1.0 / nz if nz > 0 else 0.0
        val = s * _real_inner(z, x)
        # a sign flip of a feasible witness stays feasible
        return norm.value(x - y_feas), abs(val), dict(
            minimizer=y_feas, dual_witness={"z": z * (s if val >= 0 else -s)},
            subspace_residual=float(np.abs(subspace.antiproject(u)).max()))

    zero = [np.zeros_like(x)]
    return _primal_dual([subspace.project(x)], zero, 1.0, _balance(norm.value(x), x), adjoint, dual_step,
                        certificate, tol, max_iter)


def solve_minmax_distance(
    target: np.ndarray,
    norm_a,
    norm_b,
    scale_a: float,
    scale_b: float,
    subspace,
    tol: float = 1e-6,
    max_iter: int = 200_000,
) -> SolverCertificate:
    """min over subspace elements y of max(Na(x-y)/sa, Nb(x-y)/sb).

    Epigraph form: minimise the scalar s subject to (x - y, sa*s) and
    (x - y, sb*s) lying in the two norm cones; the cone projections are
    exact, so the dual point assembled from the polar blocks is feasible
    and the reported gap is a certificate.  Primal blocks are (y, s); dual
    blocks are the two polar-cone pairs (za, ra), (zb, rb).  The subspace
    enters through the mask's projection of the adjoint, which keeps y in
    the subspace.
    """
    if scale_a <= 0 or scale_b <= 0:
        raise ValueError("distance scales must be positive")
    x = np.asarray(target, dtype=np.complex128).ravel()
    u = subspace.project(x)
    s_var = max(norm_a.value(x - u) / scale_a, norm_b.value(x - u) / scale_b)

    def polar_project(norm, w, h):
        pw, ph = norm.cone_project(w, h)
        return w - pw, h - ph

    def adjoint(z):
        za, ra, zb, rb = z
        return [-subspace.project(za + zb), scale_a * ra + scale_b * rb + 1.0]

    def dual_step(z, bar, sigma):
        za, ra, zb, rb = z
        ub, sb_ = bar
        za_new, ra_new = polar_project(norm_a, za + sigma * (x - ub), ra + sigma * scale_a * sb_)
        zb_new, rb_new = polar_project(norm_b, zb + sigma * (x - ub), rb + sigma * scale_b * sb_)
        return [za_new, ra_new, zb_new, rb_new]

    def certificate(primal, z):
        u = primal[0]
        za, zb = z[0], z[2]
        y_feas = subspace.project(u)
        value = max(norm_a.value(x - y_feas) / scale_a, norm_b.value(x - y_feas) / scale_b)
        corr = subspace.project(za + zb) * 0.5  # dual relation needs P(za+zb) = 0
        za_f, zb_f = za - corr, zb - corr
        denom = scale_a * norm_a.dual_value(za_f) + scale_b * norm_b.dual_value(zb_f)
        f = 1.0 / denom if denom > 0 else 0.0
        return value, max(0.0, f * _real_inner(za_f + zb_f, x)), dict(
            minimizer=y_feas, dual_witness={"za": f * za_f, "zb": f * zb_f} if denom > 0 else {},
            subspace_residual=float(np.abs(subspace.antiproject(u)).max()))

    dual = [np.zeros_like(x), 0.0, np.zeros_like(x), 0.0]
    return _primal_dual([u, s_var], dual, 2.0 + scale_a**2 + scale_b**2, 1.0, adjoint, dual_step, certificate,
                        tol, max_iter)
