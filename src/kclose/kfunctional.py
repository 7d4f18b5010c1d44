"""K- and J-functionals over the supported couples, with certified values.

A couple is identified by a kind -- ``lebesgue`` (circle grid), ``sequence``
(counting measure), ``schatten`` (matrices), ``hardy`` (analytic subspace of
the grid) or ``triangular`` (upper-triangular subspace of matrices) -- plus
an exponent pair.  K_t values come from :func:`kt_bracket`, the one place
that chooses between the rearrangement formula (ambient (1, inf) couples)
and the convex solver, whose primal/dual sandwich is the reported number's
error bar; for p0 = 1 it first tries the exact ambient clip split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import circle
from .circle import CircleFunction, Rearrangement
from .solver import (
    MAX_GRID,
    AnalyticMask,
    SchattenNorm,
    SplitProgram,
    TriangularMask,
    VectorNorm,
    solve_split,
)

__all__ = [
    "CoupleId",
    "CoupleDecomposition",
    "BruteForceResult",
    "InterpNormResult",
    "kt_closed_form",
    "kt_bruteforce",
    "kt_bracket",
    "jt",
    "real_interp_norm",
]

_KINDS = ("lebesgue", "sequence", "schatten", "hardy", "triangular")
_SUBSPACE_OF = {"hardy": "lebesgue", "triangular": "schatten"}
_SUBSPACE_NAME = {"hardy": "analytic", "triangular": "upper-triangular"}
MEMBER_TOL = {"hardy": 1e-8, "triangular": 1e-10}  # see require_member
# check_split's tolerances on reconstruction, membership and recorded cost
REC_TOL, SPLIT_MEMBER_TOL, COST_TOL = 1e-8, 1e-6, 1e-10

MAX_MATRIX = 16
MAX_SEQUENCE = 4096


def _parse_exponent(p) -> float:
    if isinstance(p, str):
        s = p.strip().lower()
        if s in ("inf", "infty", "oo"):
            return float(np.inf)
        return float(s)
    return float(p)


@dataclass(frozen=True)
class CoupleId:
    """A compatible couple: kind plus ordered exponents p0 < p1."""

    kind: str
    p0: float
    p1: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown couple kind {self.kind!r}; choose from {_KINDS}")
        object.__setattr__(self, "p0", _parse_exponent(self.p0))
        object.__setattr__(self, "p1", _parse_exponent(self.p1))
        for p in (self.p0, self.p1):
            if not p >= 1:
                raise ValueError(f"exponents must lie in [1, inf], got {p}")
        if not self.p0 < self.p1:
            raise ValueError(f"exponents must be ordered p0 < p1, got {self.p0}, {self.p1}")

    @property
    def ambient(self) -> "CoupleId":
        """The couple without the subspace constraint (self if already plain)."""
        amb = _SUBSPACE_OF.get(self.kind)
        return CoupleId(amb, self.p0, self.p1) if amb else self

    @property
    def has_subspace(self) -> bool:
        return self.kind in _SUBSPACE_OF

    @classmethod
    def parse(cls, text: str) -> "CoupleId":
        """Parse CLI-style tokens like 'L1,Linf', 'h1,hinf', 'S1,S2', 'T1,T2'."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2:
            raise ValueError(f"couple must be two comma-separated tokens, got {text!r}")
        prefixes = {"l": "lebesgue", "h": "hardy", "s": "schatten", "t": "triangular", "seq": "sequence"}
        kinds = set()
        exps = []
        for tok in parts:
            t = tok.lower()
            for pre, kind in sorted(prefixes.items(), key=lambda kv: -len(kv[0])):
                if t.startswith(pre):
                    kinds.add(kind)
                    exps.append(_parse_exponent(t[len(pre):]))
                    break
            else:
                raise ValueError(f"cannot parse couple token {tok!r}")
        if len(kinds) != 1:
            raise ValueError(f"couple tokens disagree on the space kind: {text!r}")
        return cls(kinds.pop(), exps[0], exps[1])


def _payload_array(x) -> np.ndarray:
    samples = getattr(x, "samples", None)  # CircleFunction, MatrixValuedFunction
    if samples is not None:
        return samples
    entries = getattr(x, "entries", None)
    if entries is not None:
        return np.asarray(entries, dtype=np.complex128)
    return np.asarray(x, dtype=np.complex128)


def _square_array(x) -> np.ndarray:
    """The payload of x, which must be a square matrix."""
    arr = _payload_array(x)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _wrap_like(x, arr: np.ndarray):
    if isinstance(x, CircleFunction):
        return CircleFunction(arr)
    if hasattr(x, "entries"):
        return type(x)(arr.reshape(np.asarray(x.entries).shape))
    return arr.reshape(np.shape(x))


def _membership_residual(kind: str, arr: np.ndarray) -> float:
    """Negative-frequency coefficient mass along axis 0 (circle and
    matrix-valued samples alike) for ``hardy``, the largest strictly lower
    entry for ``triangular``, and 0 for the ambient kinds."""
    if kind == "hardy":
        return circle._negative_frequency_mass(np.fft.fft(arr, axis=0) / arr.shape[0])
    if kind == "triangular":
        n = int(round(np.sqrt(arr.size)))
        return float(np.abs(np.tril(arr.reshape(n, n), -1)).max())
    return 0.0


def require_member(kind: str, arr, what: str) -> None:
    """The one subspace-membership rule: raise ValueError unless ``arr``
    lies in the analytic (``hardy``) or upper-triangular (``triangular``)
    subspace, up to ``MEMBER_TOL[kind]`` relative to max(1, max|arr|)."""
    arr = np.asarray(arr)
    res = _membership_residual(kind, arr)
    if not res <= MEMBER_TOL[kind] * max(1.0, float(np.abs(arr).max())):
        raise ValueError(f"{what} must lie in the {_SUBSPACE_NAME[kind]} subspace (residual {res:.2e})")


def _norm_pair(couple: CoupleId, arr: np.ndarray):
    """(norm0, norm1) realising the couple on arr after the shape and size
    checks of :func:`couple_norms`, without its membership check or mask."""
    if couple.kind == "sequence":
        if arr.ndim != 1:
            raise ValueError("sequence couples need one-dimensional arrays")
        if arr.size > MAX_SEQUENCE:
            raise ValueError(f"sequence length {arr.size} above {MAX_SEQUENCE}")
        return VectorNorm(couple.p0, 1.0), VectorNorm(couple.p1, 1.0)
    if couple.kind in ("lebesgue", "hardy"):
        if arr.ndim != 1:
            raise ValueError("circle couples need one-dimensional sample arrays")
        n = arr.size
        circle._check_grid_size(n)
        if n > MAX_GRID:
            raise ValueError(f"grid size {n} above the supported bound {MAX_GRID}")
        norm0, norm1 = VectorNorm(couple.p0, 1.0 / n), VectorNorm(couple.p1, 1.0 / n)
    else:  # matrix couples
        n = _square_array(arr).shape[0]
        if n > MAX_MATRIX:
            raise ValueError(f"matrix size {n} above the supported bound {MAX_MATRIX}")
        norm0, norm1 = SchattenNorm(couple.p0, n), SchattenNorm(couple.p1, n)
    return norm0, norm1


def _admit(couple: CoupleId, arr: np.ndarray):
    """:func:`_norm_pair` after the membership check of a subspace couple."""
    norms = _norm_pair(couple, arr)
    if couple.has_subspace:
        require_member(couple.kind, arr, f"the payload of a {couple.kind} couple")
    return norms


def couple_norms(couple: CoupleId, x):
    """(norm0, norm1, mask) triple realising the couple on the payload of x;
    a payload of a subspace couple must pass :func:`require_member`."""
    arr = _payload_array(x)
    norm0, norm1 = _admit(couple, arr)
    if not couple.has_subspace:
        return norm0, norm1, None
    return norm0, norm1, AnalyticMask(arr.size) if couple.kind == "hardy" else TriangularMask(norm0.n)


def check_split(dec, x) -> bool:
    """Re-verify a split certificate ``dec`` against the original element x:
    x0 + x1 rebuilds x and the recorded membership residual is small, both
    relative to max(1, max|x|), and the cost is norm0 + t*norm1.  Raises
    AssertionError naming the first figure out of tolerance."""
    arr = _payload_array(x)
    scale = max(1.0, float(np.abs(arr).max()))
    rec = float(np.abs(arr - (_payload_array(dec.x0) + _payload_array(dec.x1))).max())
    if rec > REC_TOL * scale:
        raise AssertionError(f"reconstruction residual {rec:.3e} above {REC_TOL:.1e}")
    if dec.membership_residual > SPLIT_MEMBER_TOL * scale:
        raise AssertionError(
            f"membership residual {dec.membership_residual:.3e} above {SPLIT_MEMBER_TOL:.1e}"
        )
    if abs(dec.cost - (dec.norm0 + dec.t * dec.norm1)) > COST_TOL * max(1.0, dec.cost):
        raise AssertionError("recorded cost is inconsistent with the recorded norms")
    return True


@dataclass
class CoupleDecomposition:
    """A certified two-part split x = x0 + x1 for a couple at parameter t."""

    couple: CoupleId
    t: float
    x0: object
    x1: object
    cost: float
    norm0: float
    norm1: float
    membership_residual: float = 0.0
    meta: dict = field(default_factory=dict)

    validate = check_split


def make_decomposition(couple: CoupleId, t: float, x, a0: np.ndarray, a1: np.ndarray, meta=None):
    """Package a raw split into a decomposition, recomputing all figures.
    The caller has already admitted x to the couple, so its membership is
    not checked again."""
    n0, n1 = _norm_pair(couple, _payload_array(x))
    v0, v1 = n0.value(a0.ravel()), n1.value(a1.ravel())
    mem = max(_membership_residual(couple.kind, a0), _membership_residual(couple.kind, a1))
    return CoupleDecomposition(
        couple=couple,
        t=t,
        x0=_wrap_like(x, a0),
        x1=_wrap_like(x, a1),
        cost=v0 + t * v1,
        norm0=v0,
        norm1=v1,
        membership_residual=mem,
        meta=dict(meta or {}),
    )


# ---------------------------------------------------------------------------
# closed form and brute force


def kt_closed_form(x, t: float, weight: float | None = None) -> float:
    """Exact K_t for the (1, inf) couple from the decreasing rearrangement.

    ``x`` may be a Rearrangement, a CircleFunction, or a plain sequence of
    values (taken with counting measure unless ``weight`` is given).  Other
    exponent pairs have no closed form here; use :func:`kt_bruteforce`.
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    if isinstance(x, CircleFunction):
        r = circle.rearrange(x)
    elif isinstance(x, Rearrangement):
        r = x
    else:
        vals = np.sort(np.abs(np.asarray(x, dtype=np.complex128)))[::-1]
        r = Rearrangement(values=vals, weight=1.0 if weight is None else weight)
    return circle._partial_integral(r.values, r.weight, t)


# step cap of the level search on one piece, where Newton takes 3-6 steps; it runs above
# 1e-100 (of the top), below which the cost is within 1e-98 of its value at the candidate 0
_LEVEL_STEPS, _LEVEL_FLOOR = 60, 1e-100


def best_truncation_level(values: np.ndarray, weight: float, p0: float, p1: float, t: float):
    """Best level of the ambient truncation split, as ``(level, cost)``.

    ``values`` are the moduli (``weight`` 1/N) or the singular values (``weight`` 1)
    of the target, and 1 < p0 < p1 < inf.  Clipping them at level lam costs
    ``||v - min(v, lam)||_p0 + t*||min(v, lam)||_p1`` under the measure ``weight``;
    the result is its exact global minimum.  Between consecutive values both terms
    are convex in lam and at each value the slope drops, so every local minimum is
    0, the top value, or the zero of the slope on a piece where it turns from
    negative to positive.  The one-sided slopes at every value come from one pass
    over the table of (v_i - v_j)_+ powers; on each such piece Newton's method on
    the slope, with its closed-form derivative, keeps the sign-change bracket and
    bisects when a step would leave it.  Equal costs go to the smallest level.
    """
    top = float(values.max())
    if top == 0.0:
        return 0.0, 0.0
    v = np.sort(values)[::-1] / top  # scaled, so that no power overflows
    # the pieces' ends, 0 = b[0] < ... < b[-1] = 1: the first of each run of
    # equal values in ascending order, after 0; k[j] values are >= b[j]
    ascending = v[::-1]
    first = np.flatnonzero(np.concatenate(([ascending[0] > 0.0], ascending[1:] != ascending[:-1])))
    b = np.concatenate(([0.0], ascending[first]))
    k = v.size - np.concatenate(([0], first))
    # slope of the p0 term at b[j]: -w*sum(u^(p0-1)) * (w*sum(u^p0))^(1/p0-1)
    # for u = (v - b[j])_+ over its largest entry, and -(w*k)^(1/p0) at the top
    u = np.maximum(v[:, None] - b[:-1], 0.0) / (1.0 - b[:-1])
    up = u ** (p0 - 1.0)
    slope0 = -weight * up.sum(0) * (weight * (up * u).sum(0)) ** (1.0 / p0 - 1.0)
    slope0 = np.append(slope0, -((weight * k[-1]) ** (1.0 / p0)))
    # slope of the p1 term on a piece with k values above the level:
    # t*w*k * (w*R)^(1/p1-1) for R = sum(min(v/lam, 1)^p1), whose limit at 0 is k
    r = np.append(k[1], ((np.minimum(v[:, None], b[1:]) / b[1:]) ** p1).sum(0))
    e = (weight * r) ** (1.0 / p1 - 1.0)
    twk = t * weight * k[1:]
    left, right = slope0[:-1] + twk * e[:-1], slope0[1:] + twk * e[1:]
    levels = [0.0, 1.0]
    for j in np.flatnonzero((left < 0) & (right > 0) & (b[1:] > _LEVEL_FLOOR)):
        above, below, kj = v[: k[j + 1]], v[k[j + 1]:], k[j + 1]
        lo, hi = max(float(b[j]), _LEVEL_FLOOR), float(b[j + 1])
        lam = lo + (hi - lo) * float(left[j] / (left[j] - right[j]))  # the secant zero
        for _ in range(_LEVEL_STEPS):
            if not lo < lam < hi:  # no float is left inside the bracket
                break
            # x = d/d[0]: the p0 slope is homogeneous of degree 0 in d, its derivative of -1
            d = above - lam
            x = d / d[0]
            xp = x ** (p0 - 2.0)
            q2, q1, q0 = xp.sum(), xp @ x, (xp * x) @ x
            n0 = (weight * q0) ** (1.0 / p0 - 1.0)
            rho = ((below / lam) ** p1).sum()
            e1 = (weight * (kj + rho)) ** (1.0 / p1 - 1.0)
            slope = t * weight * kj * e1 - weight * q1 * n0
            curve = (p0 - 1.0) * weight * n0 * (q2 - q1 * q1 / q0) / d[0]
            curve += t * (p1 - 1.0) * weight * kj * e1 * rho / ((kj + rho) * lam)
            if slope > 0:
                hi = lam
            else:
                lo = lam
            if abs(slope) <= 1e-13 * lam * curve:
                break
            lam = lam - slope / curve if abs(slope) < curve * (hi - lo) else lo
            if not lo < lam < hi:
                lam = 0.5 * (lo + hi)
        levels.append(float(lam))
    # every candidate's sums in one pass: each row is C-contiguous, so np.sum adds
    # it in the same pairwise order as a 1-D sum; the roots are taken on scalars,
    # since np.power on an array may round differently from the scalar pow
    flat = np.minimum(v, np.array(levels)[:, None])
    s0, s1 = weight * np.sum((v - flat) ** p0, axis=1), weight * np.sum(flat**p1, axis=1)
    costs = [float(a ** (1.0 / p0) + t * c ** (1.0 / p1)) for a, c in zip(s0, s1)]
    best_cost, best_level = min(zip(costs, levels))
    return top * best_level, top * best_cost


def _clip_level_and_weights(values: np.ndarray, weight: float, q: float, t: float):
    """Clip level and dual weights mu of the optimal ambient (1, q) split at t:
    mu maximises sum(mu * values) over 0 <= mu <= weight, ||mu||_q' <= t*weight^(1/q).
    At q = inf, ``weight`` on each largest value up to mass t, the rest on the
    next.  Below, weight * min(1, (values/level)^(q-1)): the level has a closed
    form once the values it caps are known, and the first count of largest
    values whose level caps no further one is right; inf if none is capped."""
    if q == np.inf:
        order = np.argsort(-values, kind="stable")
        full = int(np.floor(t / weight))
        level = values[order[full]] if full < values.size else 0.0
        mu = np.zeros(values.size)
        mu[order[: min(full, values.size)]] = weight
        if full < values.size:
            mu[order[full]] = t - full * weight
        return level, mu
    qc = q / (q - 1.0)
    rho = t * weight ** (-1.0 / qc)  # ||mu / weight||_q' <= rho; values in units of the top
    nz = int(np.count_nonzero(values))
    if nz ** (1.0 / qc) <= rho:  # every nonzero value capped: x0 = x
        return 0.0, np.where(values > 0, weight, 0.0)
    top = float(values.max())
    u = np.sort(values)[::-1][:nz] / top
    tail = np.cumsum((u**q)[::-1])[::-1]  # sum of u_i^q over i >= k
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (np.maximum(rho**qc - np.arange(nz), 0.0) / tail) ** (1.0 / qc)
        c[0] = rho / tail[0] ** (1.0 / qc)
        fits = np.flatnonzero(c * u ** (q - 1.0) <= 1.0)
    k = fits[0] if fits.size else nz - 1
    level = top * c[k] ** (-1.0 / (q - 1.0)) if k else np.inf
    return level, weight * np.minimum(1.0, c[k] * (values / top) ** (q - 1.0))


def _clip_split(arr: np.ndarray, norm0, norm1, t: float):
    """Exact optimal split and witness ``(x0, (z, -z))`` of an ambient (1, q)
    couple, 1 < q <= inf: clip the moduli under ``norm0.weight``, or the
    singular values of one matrix (``SchattenNorm``, weight 1) or of all
    ``MixedNorm`` grid points at once (weight 1/npoints)."""
    q = norm1.p
    if isinstance(norm0, VectorNorm):
        moduli = np.abs(arr)
        level, mu = _clip_level_and_weights(moduli, norm0.weight, q, t)
        safe = np.where(moduli > 0, moduli, 1.0)
        x1 = arr * np.where(moduli > 0, np.minimum(moduli, level) / safe, 0.0)
        z = np.where(moduli > 0, arr / safe, 1.0) * mu
        return arr - x1, (z, -z)
    npts = getattr(norm0, "npoints", 1)  # MixedNorm, else one matrix
    m = arr.reshape(npts, norm0.n, norm0.n)
    u, s, vh = np.linalg.svd(m)
    level, mu = _clip_level_and_weights(s.ravel(), 1.0 / npts, q, t)
    x1 = (u * np.minimum(s, level)[:, None, :]) @ vh
    z = ((u * mu.reshape(s.shape)[:, None, :]) @ vh).ravel()
    return (m - x1).ravel(), (z, -z)


@dataclass
class BruteForceResult:
    """Solver-certified K_t value: true K lies in [lower, value]."""

    value: float
    lower: float
    gap: float
    decomposition: CoupleDecomposition
    iterations: int
    converged: bool


def kt_bruteforce(
    x,
    couple: CoupleId,
    t: float,
    tol: float = 1e-7,
    max_iter: int = 200_000,
    norms=None,
) -> BruteForceResult:
    """K_t as a convex program over splits, certified by a feasible dual point.

    Every couple with p0 = 1, masked or not, hands ``solve_split`` the
    ambient optimum and its witness (z, -z) from :func:`_clip_split`.  Where
    it lies in the couple's subspace (always without a mask; for the
    analytic (1, inf) mask at t >= 1 and t < 1/N) the witness certifies it
    at 0 iterations; elsewhere the solver iterates from its projection.
    ``norms`` is ``couple_norms(couple, x)`` where the caller has it already.
    """
    arr = _payload_array(x).ravel()
    n0, n1, mask = norms or couple_norms(couple, x)
    prog = SplitProgram(arr, n0, n1, t, subspace=mask)
    warm_primal = warm_dual = None
    if couple.p0 == 1:
        warm_primal, warm_dual = _clip_split(arr, n0, n1, t)
    cert = solve_split(prog, tol=tol, max_iter=max_iter, warm_primal=warm_primal, warm_dual=warm_dual)
    dec = make_decomposition(couple, t, x, cert.x0, cert.x1, meta={
        "gap": cert.gap,
        "iterations": cert.iterations,
        "solver_converged": cert.converged,
    })
    return BruteForceResult(
        value=cert.primal,
        lower=cert.dual,
        gap=cert.gap,
        decomposition=dec,
        iterations=cert.iterations,
        converged=cert.converged,
    )


def kt_bracket(x, couple: CoupleId, t: float, tol: float = 1e-7, norms=None):
    """Certified bracket ``(lower, value)`` with lower <= K_t <= value.

    The one place that picks the closed form or the solver.  Ambient
    (1, inf) couples are exact, ``(k, k)``: the rearrangement integral of
    the payload under the couple's measure, or of the singular values for
    ``schatten``.  Every other couple takes :func:`kt_bruteforce`'s sandwich
    (exact for the other ambient p0 = 1 couples), with ``norms`` as there.
    """
    norms = norms or couple_norms(couple, x)
    if couple.p0 == 1 and couple.p1 == np.inf and not couple.has_subspace:
        arr = _payload_array(x)
        if couple.kind == "schatten":
            k = kt_closed_form(np.linalg.svd(arr, compute_uv=False), t, weight=1.0)
        else:
            k = kt_closed_form(arr, t, weight=norms[0].weight)
        return k, k
    res = kt_bruteforce(x, couple, t, tol=tol, norms=norms)
    return res.lower, res.value


def jt(x, couple: CoupleId, t: float) -> float:
    """J-functional max(||x||_0, t*||x||_1) for elements of the intersection,
    where K_t(x) <= J_t(x): the upper reference the K <= J test holds K_t to."""
    if not 0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    arr = _payload_array(x)
    n0, n1 = _admit(couple, arr)
    return max(n0.value(arr.ravel()), t * n1.value(arr.ravel()))


# ---------------------------------------------------------------------------
# interpolation norm


def default_t_grid(t_min: float = 1e-3, t_max: float = 1e3, points_per_decade: int = 20) -> np.ndarray:
    """Log-spaced t-grid from t_min to t_max for :func:`real_interp_norm`,
    with at least two points; 0 < t_min < t_max < inf."""
    if not (0 < t_min < t_max < np.inf and points_per_decade >= 1):
        raise ValueError(f"need 0 < t_min < t_max < inf and points_per_decade >= 1, "
                         f"got {t_min}, {t_max}, {points_per_decade}")
    decades = np.log10(t_max / t_min)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(t_min), np.log10(t_max), count)


@dataclass
class InterpNormResult:
    value: float
    theta: float
    q: float
    t_grid: np.ndarray
    k_values: np.ndarray
    tail_bound: float


def real_interp_norm(
    x,
    couple: CoupleId,
    theta: float,
    q: float,
    t_grid: np.ndarray | None = None,
    tol: float = 1e-7,
) -> InterpNormResult:
    """Quadrature value of the (theta, q) interpolation norm over a log grid.

    On (H^1, H^inf) with q = p, 1/p = 1 - theta, it is the norm of
    H^p = (H^1, H^inf)_{theta,p}, equivalent by K-closedness to the L^p norm.
    ``t_grid`` holds two or more strictly increasing, positive, finite points.
    The truncation error outside [t_min, t_max] is bounded through
    K_t <= min(||x||_0, t*||x||_1) and reported, not silently dropped.
    """
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    if not 1 <= q <= np.inf:
        raise ValueError(f"q must lie in [1, inf], got {q}")
    if t_grid is None:
        t_grid = default_t_grid()
    t_grid = np.asarray(t_grid, dtype=float)
    if not (t_grid.ndim == 1 and t_grid.size >= 2 and np.isfinite(t_grid).all()
            and t_grid[0] > 0 and (np.diff(t_grid) > 0).all()):
        raise ValueError("t_grid must hold two or more strictly increasing, positive, finite points")
    norms = couple_norms(couple, x)
    ks = np.array([kt_bracket(x, couple, t, tol=tol, norms=norms)[1] for t in t_grid])
    arr = _payload_array(x).ravel()
    n0, n1, _ = norms
    a0, a1 = n0.value(arr), n1.value(arr)
    t_min, t_max = float(t_grid[0]), float(t_grid[-1])
    if q == np.inf:
        value = float(np.max(t_grid ** (-theta) * ks))
        tail = max(t_min ** (1.0 - theta) * a1, t_max ** (-theta) * a0)
        tail_bound = max(0.0, tail - value)
    else:
        s = np.log(t_grid)
        integrand = (t_grid ** (-theta) * ks) ** q
        integral = float(np.trapezoid(integrand, s))
        tail_low = a1**q * t_min ** ((1.0 - theta) * q) / ((1.0 - theta) * q)
        tail_high = a0**q * t_max ** (-theta * q) / (theta * q)
        value = integral ** (1.0 / q)
        tail_bound = (integral + tail_low + tail_high) ** (1.0 / q) - value
    return InterpNormResult(value, theta, q, t_grid, ks, tail_bound)
