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

import csv
import io
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
    "KReport",
    "InterpNormResult",
    "kt_closed_form",
    "kt_bruteforce",
    "kt_bracket",
    "jt",
    "real_interp_norm",
    "k_closedness_report",
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
            if p != np.inf and p < 1:
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
    if res > MEMBER_TOL[kind] * max(1.0, float(np.abs(arr).max())):
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


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def best_truncation_level(values: np.ndarray, weight: float, p0: float, p1: float, t: float):
    """Best level of the ambient truncation split, as ``(level, cost)``.

    ``values`` are the moduli (``weight`` 1/N) or the singular values
    (``weight`` 1) of the target, and 1 < p0 < p1 < inf.  Clipping them at
    level lam costs ``||v - min(v, lam)||_p0 + t*||min(v, lam)||_p1`` under
    the measure ``weight``.  Golden-section search on log(level) over
    [1e-12*top, top], top the largest value; the ends 0 and ``top`` are
    candidates too, and among equal costs the smallest level wins.
    """

    def cost(lam: float) -> float:
        flat = np.minimum(values, lam)
        c0 = (weight * np.sum((values - flat) ** p0)) ** (1.0 / p0)
        c1 = (weight * np.sum(flat**p1)) ** (1.0 / p1)
        return float(c0 + t * c1)

    top = float(values.max())
    if top == 0.0:
        return 0.0, cost(0.0)
    a, b = np.log(1e-12 * top), np.log(top)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = cost(np.exp(c)), cost(np.exp(d))
    for _ in range(90):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = cost(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = cost(np.exp(d))
    mid = float(np.exp((a + b) / 2.0))
    best_cost, best_level = min((cost(v), v) for v in (mid, 0.0, top))
    return best_level, best_cost


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
    """J-functional max(||x||_0, t*||x||_1) for elements of the intersection."""
    if not 0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    arr = _payload_array(x)
    n0, n1 = _admit(couple, arr)
    return max(n0.value(arr.ravel()), t * n1.value(arr.ravel()))


# ---------------------------------------------------------------------------
# interpolation norm and K-closedness reports


def default_t_grid(t_min: float = 1e-3, t_max: float = 1e3, points_per_decade: int = 20) -> np.ndarray:
    decades = np.log10(t_max / t_min)
    count = int(round(decades * points_per_decade)) + 1
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

    The truncation error outside [t_min, t_max] is bounded through
    K_t <= min(||x||_0, t*||x||_1) and reported, not silently dropped.
    """
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    if q != np.inf and q < 1:
        raise ValueError("q must lie in [1, inf]")
    if t_grid is None:
        t_grid = default_t_grid()
    t_grid = np.asarray(t_grid, dtype=float)
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


@dataclass
class KReportRow:
    t: float
    ambient_k: float
    achieved_cost: float
    ratio: float


@dataclass
class KReport:
    """Per-t comparison of a subspace decomposition against the ambient K."""

    couple: CoupleId
    rows: list
    c_estimate: float
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t", "ambient_K", "achieved_cost", "ratio"])
        for r in self.rows:
            w.writerow([repr(r.t), repr(r.ambient_k), repr(r.achieved_cost), repr(r.ratio)])
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "couple": {"kind": self.couple.kind, "p0": _exp_str(self.couple.p0), "p1": _exp_str(self.couple.p1)},
            "c_estimate": self.c_estimate,
            "rows": [
                {"t": r.t, "ambient_K": r.ambient_k, "achieved_cost": r.achieved_cost, "ratio": r.ratio}
                for r in self.rows
            ],
            "meta": self.meta,
        }


def _exp_str(p: float) -> str:
    return "inf" if p == np.inf else (str(int(p)) if float(p).is_integer() else str(p))


def ambient_k_lower(x, couple: CoupleId, t: float, tol: float = 1e-7) -> float:
    """A certified value of the ambient K_t (exact where a closed form exists,
    otherwise the solver's feasible dual lower bound)."""
    return kt_bracket(x, couple.ambient, t, tol=tol)[0]


def k_closedness_report(
    f,
    couple: CoupleId,
    decomposer,
    t_grid: np.ndarray | None = None,
    tol: float = 1e-7,
) -> KReport:
    """Run a decomposer across a t-grid and compare with the ambient K_t.

    ``decomposer(f, t)`` must return a :class:`CoupleDecomposition`.  The
    ratio uses a certified ambient value (exact or dual lower bound), so
    ratio >= 1 - 1e-9 holds whenever the certificate is genuine.
    """
    if not couple.has_subspace:
        raise ValueError("K-closedness reports need a subspace couple")
    if t_grid is None:
        t_grid = default_t_grid(1e-2, 1e2, 5)
    arr = _payload_array(f)
    zero = not np.any(arr)
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        if zero:
            rows.append(KReportRow(float(t), 0.0, 0.0, 1.0))
            continue
        dec = decomposer(f, float(t))
        amb = ambient_k_lower(f, couple, float(t), tol=tol)
        ratio = dec.cost / amb if amb > 0 else 1.0
        rows.append(KReportRow(float(t), float(amb), float(dec.cost), float(ratio)))
    c_est = max((r.ratio for r in rows), default=1.0)
    return KReport(couple=couple, rows=rows, c_estimate=c_est)
