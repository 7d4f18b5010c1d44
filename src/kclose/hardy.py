"""Constructive splittings inside the analytic subspace of the circle grid.

Three levels of machinery, in increasing order of work per call:

* ``decompose_base`` -- for exponent pairs strictly inside (1, infinity) the
  analytic projection is bounded, so projecting the best ambient truncation
  split already does the job;
* ``decompose_h1_hq`` -- the squaring route: write f = B*F^2, split F at
  sqrt(t) with the base case, expand the square, and place the cross term by
  a second base-case split;
* ``decompose_h1_hinf`` -- endpoint couple: either the convex solver over
  analytic splits (default, certificate included) or the squaring route with
  the solver supplying the (2, infinity) step.

Pointwise products of grid functions leak mass past the top frequency, so
the squaring routes re-project their answer: x0 <- riesz_project(x0),
x1 <- f - x0.  Membership and reconstruction then hold exactly and the
pre-projection leakage is reported in the metadata instead of being an
invisible error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import circle
from .circle import CircleFunction
from .factorize import sqrt_factor
from .kfunctional import (
    CoupleDecomposition,
    CoupleId,
    best_truncation_level,
    kt_bruteforce,
    make_decomposition,
    require_member,
)
from .solver import AnalyticMask, VectorNorm, solve_distance, solve_minmax_distance

__all__ = [
    "decompose_base",
    "decompose_h1_hq",
    "decompose_h1_hinf",
    "simultaneous_approx",
    "quotient_norm",
    "SimultaneousResult",
]


def _zero_split(couple: CoupleId, t: float, f: CircleFunction) -> CoupleDecomposition:
    z = np.zeros(f.n, dtype=np.complex128)
    return make_decomposition(couple, t, f, z, z.copy())


def decompose_base(f: CircleFunction, p0: float, p1: float, t: float) -> CoupleDecomposition:
    """Project the best ambient truncation split; valid for 1 < p0 < p1 < inf."""
    p0, p1 = float(p0), float(p1)
    if not (1.0 < p0 < p1 < np.inf):
        raise ValueError(
            f"base-case exponents must satisfy 1 < p0 < p1 < inf, got ({p0}, {p1})"
        )
    if not 0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    couple = CoupleId("hardy", p0, p1)
    if not np.any(f.samples):
        return _zero_split(couple, t, f)
    require_member("hardy", f.samples, "decompose_base input")
    lam, ambient_cost = best_truncation_level(np.abs(f.samples), 1.0 / f.n, p0, p1, t)
    tall, _ = circle.truncate_at_level(f, lam)
    x0 = circle.riesz_project(tall).samples
    x1 = f.samples - x0
    dec = make_decomposition(couple, t, f, x0, x1)
    dec.meta.update(
        level=lam,
        ambient_cost=ambient_cost,
        projection_factor=dec.cost / ambient_cost if ambient_cost > 0 else 1.0,
    )
    return dec


def _exactify(f: CircleFunction, x0_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Force exact analyticity and reconstruction; return the leakage fixed up."""
    leak = CircleFunction(x0_raw)
    leakage = circle.analyticity_residual(leak)
    x0 = circle.riesz_project(leak).samples
    return x0, f.samples - x0, leakage


def decompose_h1_hq(f: CircleFunction, q: float, t: float) -> CoupleDecomposition:
    """Squaring route for the (1, q) analytic couple, 1 < q < inf.

    f = B*F^2; F splits at sqrt(t) in exponents (2, 2q); expanding the
    square leaves the cross term 2*B*g0*g1, which lands in exponent p with
    1/p = 1/2 + 1/(2q) and is placed by a base-case split at t in
    ((1+p)/2, q).  Metadata records every intermediate norm, including both
    sides of the Hoelder bound on the cross term.
    """
    q = float(q)
    if not (1.0 < q < np.inf):
        raise ValueError(f"q must lie strictly inside (1, inf), got {q}")
    if not 0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    couple = CoupleId("hardy", 1, q)
    if not np.any(f.samples):
        return _zero_split(couple, t, f)
    fac = sqrt_factor(f)
    b = fac.blaschke.boundary(f.n).samples
    # the sampled exponential is only approximately analytic; split its
    # analytic part so the base case sees an exactly admissible input
    big_f = circle.riesz_project(fac.outer.boundary)
    fsplit = decompose_base(big_f, 2.0, 2.0 * q, np.sqrt(t))
    g0, g1 = fsplit.x0.samples, fsplit.x1.samples
    main0, main1 = b * g0 * g0, b * g1 * g1
    # products alias past Nyquist; keep the analytic part for the base case
    cross = circle.riesz_project(CircleFunction(2.0 * b * g0 * g1))
    p = 1.0 / (0.5 + 0.5 / q)
    csplit = decompose_base(cross, (1.0 + p) / 2.0, q, t)
    x0_raw = main0 + csplit.x0.samples
    x1_raw = main1 + csplit.x1.samples
    x0, x1, leakage = _exactify(f, x0_raw)
    dec = make_decomposition(couple, t, f, x0, x1)
    cross_p = circle.lp_norm(cross, p)
    g0_2 = circle.lp_norm(fsplit.x0, 2.0)
    g1_2q = circle.lp_norm(fsplit.x1, 2.0 * q)
    dec.meta.update(
        factor_residual=fac.residual,
        leakage=leakage,
        raw_reconstruction=float(np.abs(x0_raw + x1_raw - f.samples).max()),
        g0_norm2=g0_2,
        g1_norm2q=g1_2q,
        cross_norm_p=cross_p,
        cross_exponent=p,
        holder_bound=2.0 * g0_2 * g1_2q,
        cross_split_exponents=((1.0 + p) / 2.0, q),
    )
    return dec


def decompose_h1_hinf(
    f: CircleFunction,
    t: float,
    backend: str = "oracle",
    tol: float = 1e-7,
    max_iter: int = 200_000,
) -> CoupleDecomposition:
    """Endpoint couple (1, inf) on the analytic subspace.

    backend "oracle": convex program over analytic splits (certificate with
    duality gap).  backend "constructive": squaring route, with the
    (2, inf) step of F supplied by the solver since the base case needs
    finite exponents; slower and looser, kept for studying the mechanism.
    """
    if not 0 < t < np.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    couple = CoupleId("hardy", 1, np.inf)
    if not np.any(f.samples):
        return _zero_split(couple, t, f)
    if backend == "oracle":
        res = kt_bruteforce(f, couple, t, tol=tol, max_iter=max_iter)
        dec = res.decomposition
        dec.meta.update(backend="oracle", lower_bound=res.lower)
        return dec
    if backend != "constructive":
        raise ValueError(f"unknown backend {backend!r}; use 'oracle' or 'constructive'")
    fac = sqrt_factor(f)
    b = fac.blaschke.boundary(f.n).samples
    big_f = circle.riesz_project(fac.outer.boundary)
    fres = kt_bruteforce(big_f, CoupleId("hardy", 2, np.inf), np.sqrt(t), tol=tol, max_iter=max_iter)
    g0, g1 = fres.decomposition.x0.samples, fres.decomposition.x1.samples
    main0 = b * g0 * g0
    # the cross term sits in exponent 2; straddle it with (3/2, 4)
    cross = circle.riesz_project(CircleFunction(2.0 * b * g0 * g1))
    csplit = decompose_base(cross, 1.5, 4.0, t)
    x0, x1, leakage = _exactify(f, main0 + csplit.x0.samples)
    dec = make_decomposition(couple, t, f, x0, x1)
    dec.meta.update(
        backend="constructive",
        factor_residual=fac.residual,
        leakage=leakage,
        g0_norm2=circle.lp_norm(fres.decomposition.x0, 2.0),
        g1_norminf=circle.lp_norm(fres.decomposition.x1, np.inf),
        cross_norm_2=circle.lp_norm(cross, 2.0),
        f_step_gap=fres.gap,
    )
    return dec


def quotient_norm(
    f: CircleFunction,
    p: float,
    tol: float = 1e-8,
    max_iter: int = 200_000,
):
    """Distance from f to the analytic subspace in the p-norm.

    Returns (value, certificate); certificate.dual is a lower bound coming
    from a witness in the annihilator, so value is bracketed on both sides.
    """
    mask = AnalyticMask(f.n)
    norm = VectorNorm(p, 1.0 / f.n)
    cert = solve_distance(f.samples, norm, mask, tol=tol, max_iter=max_iter)
    return cert.primal, cert


@dataclass
class SimultaneousResult:
    """One analytic h nearly attaining both endpoint distances at once."""

    h: CircleFunction
    k_achieved: float
    d1: float
    dinf: float
    ratio_1: float
    ratio_inf: float
    gap: float
    meta: dict = field(default_factory=dict)


def simultaneous_approx(
    f: CircleFunction,
    tol: float = 1e-6,
    max_iter: int = 400_000,
) -> SimultaneousResult:
    """Find one analytic h close to f in L1 and Linf simultaneously.

    With d1, dinf the separate distances, minimizes
    max(||f-h||_1/d1, ||f-h||_inf/dinf) over analytic h; the achieved max
    is reported together with both individual ratios.  d1 and dinf are the
    solvers' primal values, which may exceed the true distances, so
    ``meta["k_upper"]`` also gives the max over their certified lower
    bounds: an upper bound on the true ratio (inf where a bound is 0).  If
    either distance is below 1e-10 * max(1, max|f|), f is treated as
    analytic and h is its Riesz projection (``meta["degenerate"]``).
    ``meta["converged"]`` says whether both distances and the min-max
    stopped at their gap targets.
    """
    mask = AnalyticMask(f.n)
    w = 1.0 / f.n
    n1, ninf = VectorNorm(1.0, w), VectorNorm(np.inf, w)
    c1 = solve_distance(f.samples, n1, mask, tol=tol * 1e-2, max_iter=max_iter)
    cinf = solve_distance(f.samples, ninf, mask, tol=tol * 1e-2, max_iter=max_iter)
    d1, dinf = c1.primal, cinf.primal
    scale = max(1.0, float(np.abs(f.samples).max()))
    if d1 < 1e-10 * scale or dinf < 1e-10 * scale:
        h = circle.riesz_project(f)
        return SimultaneousResult(
            h=h, k_achieved=1.0, d1=d1, dinf=dinf, ratio_1=1.0, ratio_inf=1.0,
            gap=0.0, meta={"degenerate": True, "converged": c1.converged and cinf.converged},
        )
    cert = solve_minmax_distance(
        f.samples, n1, ninf, d1, dinf, mask, tol=tol, max_iter=max_iter
    )
    h = CircleFunction(circle.riesz_project(CircleFunction(cert.minimizer)).samples)
    diff = CircleFunction(f.samples - h.samples)
    e1, einf = circle.lp_norm(diff, 1.0), circle.lp_norm(diff, np.inf)
    r1, rinf = e1 / d1, einf / dinf
    return SimultaneousResult(
        h=h,
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
