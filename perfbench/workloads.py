"""The four workloads: request kinds, their seeded inputs and their checks.

A workload is a list of request *kinds* and a fixed input mix: ``mix``
requests of each kind, sized so that every kind takes a similar share of
the mix's time.  The runner sends one request at a time (one closed-loop
client) and always serves the kind furthest behind the mix.  Request ``j``
of a kind is a pure function of (seed, j), so the first request of every
kind -- the run's prefix -- is identical in every run with that seed.

Every request returns harness-style result rows (the seven CSV columns of
``harness.rows_to_csv``).  Its checks run after it, outside the timed
region, and see the solver certificates and decompositions the request
produced (collected by ``instrument.Tap``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from kclose import circle, embed, factorize, hardy, harness, kfunctional, schatten
from kclose.circle import CircleFunction
from kclose.harness import _row as row
from kclose.kfunctional import CoupleId
from kclose.schatten import MatrixOperator

# the test_05 grid: 12 points over [1e-2, 1e2]; t = 0.1233 puts t*N just
# below 4 at N = 32 and just below 8 at N = 64 (the hard band).  The
# tolerance is ten times test_05's: at 1e-7 one sweep in about twenty
# took 35,000-140,000 iterations, up to half of a 25-s run, and the draw of
# inputs decided the run's figures (perfbench/README.md)
ENDPOINT_GRID = dict(t_min=1e-2, t_max=1e2, points_per_decade=2.75)
ENDPOINT_TOL = 1e-6
# request j runs at N = ENDPOINT_SIZES[j % 2]: one kind, so the tail cap and
# the median see every request of the run, not a handful per size
ENDPOINT_SIZES = (32, 64)
MATRIX_TOL = 1e-5
MIXED_TOL = 1e-5
# one general-exponent solve per request: at t = 0.5 the Lp-ball projection
# binds on every iteration, which is where its nested bisection costs
PGEN_COUPLE = CoupleId("sequence", 2, 4)
PGEN_T = 0.5
PGEN_TOL = 5e-2  # every probed input stops at the first gap check, iteration 50
HQ_EXPONENTS = (1.5, 2.0, 4.0)
HQ_T = (0.3, 1.0, 3.0)
T1TQ_GRID = tuple(np.logspace(-1.5, 1.5, 8))
FACTOR_TRIPLES = ((1.0, 2.0, 2.0), (2.0, 3.0, 6.0), (2.0, 6.0, 3.0))
POOL = 256  # inputs generated per kind; request j uses input j mod POOL
N_MAX = 10_000


@dataclass
class Kind:
    """One request kind.

    ``setup(seed)`` generates the inputs, ``request(state, j)`` is the timed
    call into kclose, and ``check(state, j, result, solves)`` returns the
    rows and a list of ``(row index or None, reason)`` failures; None fails
    every row of the request.  A traced run serves a fixed number of
    requests, ``traced`` per 25 s of ``--seconds``, so its counts repeat.
    ``mix`` is the kind's number of requests in the workload's input mix.
    """

    name: str
    expected_rows: int
    traced: int
    setup: Callable
    request: Callable
    check: Callable
    mix: int = 1


@dataclass
class Workload:
    """Request kinds plus one cheap warm-up call, run before the timed loop."""

    name: str
    kinds: list
    warmup: Callable


def _scale(arr) -> float:
    return max(1.0, float(np.abs(arr).max()))


def _bad_rows(rows, bad):
    ids = {id(r): i for i, r in enumerate(rows)}
    return [(ids.get(id(r)), why) for _payload, r, why in bad]


# ---------------------------------------------------------------------------
# endpoint_sweep: (H1, Hinf) oracle splits over a t-grid through the hard band


def _endpoint_setup(seed):
    return {n: harness.ExperimentConfig(seed=seed, grid_n=n, tol=ENDPOINT_TOL, instances=1, **ENDPOINT_GRID)
            for n in set(ENDPOINT_SIZES)}


def _endpoint_request(cfgs, j):
    return harness.SUITES["jones_h1_hinf"](cfgs[ENDPOINT_SIZES[j % len(ENDPOINT_SIZES)]], j % POOL)


def _endpoint_check(cfgs, j, result, solves):
    rows, bad = result
    fails = _bad_rows(rows, bad)
    for i, r in enumerate(rows):
        r["instance_id"] = f"n{ENDPOINT_SIZES[j % len(ENDPOINT_SIZES)]}/{r['instance_id']}"
        if r["gap"] < -1e-9 * max(1.0, r["achieved_cost"]):
            fails.append((i, f"lower bound above value by {-r['gap']:.3e}"))
    return rows, fails


def _endpoint_warmup(seed):
    cfg = harness.ExperimentConfig(seed=seed, grid_n=32)
    hardy.decompose_h1_hinf(harness.generate_instance("analytic_poly", cfg, POOL), 10.0)


# ---------------------------------------------------------------------------
# minmax_approx: simultaneous approximation and distance programs
#
# hardy.simultaneous_approx (the trig-polynomial half of the min-max
# programs) is held out: at test_06's tol of 1e-5 its analytic L1 distance
# stalls on some seeded inputs (perfbench/README.md), so no tol both keeps
# the defect visible and lets every run pass.


def _matrix_kind(n: int, traced: int, mix: int) -> Kind:
    def setup(seed):
        cfg = harness.ExperimentConfig(seed=seed)
        return [harness.generate_instance("matrix", cfg, j, matrix_n=n).entries for j in range(POOL)]

    def request(pool, j):
        x = MatrixOperator(pool[j % POOL])
        return (schatten.simultaneous_triangular_approx(x, tol=MATRIX_TOL),
                schatten.dist_triangular_inf_oracle(x, tol=1e-8),
                schatten.dist_triangular_inf(x))

    def check(pool, j, result, solves):
        m = pool[j % POOL]
        sim, (oracle, cert), closed = result
        iid = f"mat{n}/{j:03d}"
        low = float(np.abs(np.tril(sim.xhat.entries, -1)).max(initial=0.0))
        rows = [
            row(iid + "/sim", 0.0, 1.0, sim.k_achieved, sim.gap, low),
            row(iid + "/dist_inf", 0.0, closed, oracle, cert.gap, cert.subspace_residual),
        ]
        fails = []
        if low != 0.0:
            fails.append((0, f"approximant not triangular: {low:.3e}"))
        if not sim.meta.get("degenerate") and sim.gap > MATRIX_TOL * max(1.0, sim.meta["minmax_primal"]):
            fails.append((0, f"min-max gap {sim.gap:.3e}"))
        if rows[1]["ratio"] < 1.0 - 1e-9:
            fails.append((1, f"oracle distance below the corner formula: ratio {rows[1]['ratio']:.12g}"))
        if cert.dual > closed + 1e-9 * _scale(m):
            fails.append((1, f"certified lower bound {cert.dual:.12g} above the corner formula {closed:.12g}"))
        return rows, fails

    return Kind(f"mat{n}", 2, traced, setup, request, check, mix)


def _minmax_warmup(seed):
    cfg = harness.ExperimentConfig(seed=seed)
    schatten.dist_triangular_inf_oracle(harness.generate_instance("matrix", cfg, POOL, matrix_n=3))


# ---------------------------------------------------------------------------
# exact_routes: factorizations, squaring routes and embeddings, no solver


def _circle_setup(seed):
    cfg = harness.ExperimentConfig(seed=seed)
    return [(harness.generate_instance("analytic_poly", cfg, j, grid_n=32).samples,
             harness.generate_instance("weight", cfg, j, grid_n=32))
            for j in range(POOL)]


def _circle_request(pool, j):
    samples, weight = pool[j % POOL]
    f = CircleFunction(samples)
    hq = [hardy.decompose_h1_hq(f, q, t) for q in HQ_EXPONENTS for t in HQ_T]
    return (f, hq, factorize.sqrt_factor(f), factorize.holder_factor(f, 1.0, 2.0, 2.0),
            factorize.outer_function(weight), embed.kq_embed(f, 2.0, N_MAX))


def _circle_check(pool, j, result, solves):
    f, hq, sq, hol, out, emb = result
    weight = pool[j % POOL][1]
    iid = f"circ/{j:03d}"
    rows, fails = [], []
    for k, dec in enumerate(hq):
        excess = dec.meta["cross_norm_p"] - dec.meta["holder_bound"]
        rows.append(row(f"{iid}/hq{dec.couple.p1:g}", dec.t, dec.cost, dec.cost, 0.0,
                        max(dec.membership_residual, max(excess, 0.0))))
        if excess > 1e-9 * max(1.0, dec.meta["holder_bound"]):
            fails.append((k, f"cross term exceeds its Hoelder bound by {excess:.3e}"))
        try:
            dec.validate(f)
        except AssertionError as exc:
            fails.append((k, f"decomposition invalid: {exc}"))
    # sqrt: B is unimodular on the grid with its zeros inside the disc, and
    # the reported residual is the true sup-norm error of B F^2 against f
    rec = sq.reconstruct().samples
    unimodular = float(np.abs(np.abs(sq.blaschke.boundary(f.n).samples) - 1.0).max())
    own = float(np.abs(f.samples - rec).max() / np.abs(f.samples).max())
    rows.append(row(f"{iid}/sqrt", 0.0, 1.0, 1.0 + own, 0.0, unimodular))
    if (unimodular > 1e-12 or abs(own - sq.residual) > 1e-12 or not sq.outer.value_at_zero > 0
            or np.any(np.abs(sq.blaschke.zeros) >= 1)):
        fails.append((len(rows) - 1, f"square-root factor: |B| - 1 up to {unimodular:.3e}, "
                                     f"residual {sq.residual:.3e} vs recomputed {own:.3e}"))
    # Hoelder: the reported norms are those of g, h and f, and ||gh||_1 <= ||g||_2 ||h||_2
    gr, hs = circle.lp_norm(hol.g, 2.0), circle.lp_norm(hol.h, 2.0)
    prod = circle.lp_norm(CircleFunction(hol.g.samples * hol.h.samples), 1.0)
    rows.append(row(f"{iid}/holder", 0.0, hol.norms["f_p"], gr * hs, 0.0, hol.residual))
    if (abs(gr - hol.norms["g_r"]) > 1e-12 * gr or abs(hs - hol.norms["h_s"]) > 1e-12 * hs
            or prod > gr * hs * (1 + 1e-12)):
        fails.append((len(rows) - 1, "Hoelder factor norms inconsistent"))
    rows.append(row(f"{iid}/outer", 0.0, 1.0, out.value_at_zero, 0.0, out.modulus_residual))
    if out.modulus_residual > 1e-8 * weight.max() or not out.value_at_zero > 0:
        fails.append((len(rows) - 1, f"outer modulus residual {out.modulus_residual:.3e}"))
    rows.append(row(f"{iid}/kq_embed", emb.argmax_t, emb.target, emb.value, 0.0, emb.residual))
    if emb.residual < -1e-9 * max(1.0, emb.target):
        fails.append((len(rows) - 1, f"weak-type value above the strong norm by {-emb.residual:.3e}"))
    return rows, fails


def _tri_setup(seed):
    cfg = harness.ExperimentConfig(seed=seed)
    return [harness.generate_instance("triangular_matrix", cfg, j).entries for j in range(POOL)]


def _tri_request(pool, j):
    x = MatrixOperator(pool[j % POOL])
    decs = [schatten.decompose_t1_tq(x, 2.0, float(t)) for t in T1TQ_GRID]
    facs = [schatten.triangular_factor(x, *pqr) for pqr in FACTOR_TRIPLES]
    return x, decs, facs, embed.kq_embed_matrix(x, 2.0, N_MAX)


def _tri_check(pool, j, result, solves):
    x, decs, facs, emb = result
    m = x.entries
    iid = f"tri/{j:03d}"
    scale = _scale(m)
    rows, fails = [], []
    for dec in decs:
        rows.append(row(f"{iid}/t1tq", dec.t, dec.cost, dec.cost, 0.0,
                        max(dec.membership_residual, dec.meta["expansion_residual"])))
        if dec.meta["expansion_residual"] > 1e-6 * scale:
            fails.append((len(rows) - 1, f"expansion residual {dec.meta['expansion_residual']:.3e}"))
        try:
            dec.validate(x)
        except AssertionError as exc:
            fails.append((len(rows) - 1, f"decomposition invalid: {exc}"))
    for fac in facs:
        a, b = fac.a.entries, fac.b.entries
        rec = float(np.abs(a @ b - m).max()) / float(np.abs(m).max())
        target = schatten.schatten_norm(m, fac.p)
        ident = abs(fac.norm_a * fac.norm_b - target) / target
        low = max(float(np.abs(np.tril(a, -1)).max()), float(np.abs(np.tril(b, -1)).max()))
        rows.append(row(f"{iid}/factor{fac.p:g},{fac.r:g},{fac.q:g}", 0.0, target,
                        fac.norm_a * fac.norm_b, 0.0, max(rec, ident)))
        if rec > 1e-8 or ident > 1e-8 or low > 1e-10 * scale:
            fails.append((len(rows) - 1, f"a b = x off by {rec:.2e}, norm identity {ident:.2e}, "
                                         f"lower mass {low:.2e}"))
    rows.append(row(f"{iid}/kq_embed", emb.argmax_t, emb.target, emb.value, 0.0, emb.residual))
    if emb.residual < -1e-9 * max(1.0, emb.target):
        fails.append((len(rows) - 1, f"weak-type value above the strong norm by {-emb.residual:.3e}"))
    return rows, fails


def _exact_warmup(seed):
    cfg = harness.ExperimentConfig(seed=seed)
    hardy.decompose_h1_hq(harness.generate_instance("analytic_poly", cfg, POOL), 2.0, 1.0)
    schatten.triangular_factor(harness.generate_instance("triangular_matrix", cfg, POOL), 1.0, 2.0, 2.0)


# ---------------------------------------------------------------------------
# projection_bound: split programs whose iterations cost a projection


def _mixed_setup(seed):
    return harness.ExperimentConfig(seed=seed, grid_n=16, tol=MIXED_TOL, instances=1)


def _mixed_request(cfg, j):
    return harness.SUITES["matrix_valued_33"](cfg, j % POOL)


def _mixed_check(cfg, j, result, solves):
    rows, bad = result
    for r in rows:
        r["instance_id"] = f"mixed/{r['instance_id']}"
    return rows, _bad_rows(rows, bad)


def _pgen_setup(seed):
    cfg = harness.ExperimentConfig(seed=seed)
    return [harness.generate_instance("trig_poly", cfg, j, grid_n=8).samples for j in range(POOL)]


def _pgen_request(pool, j):
    return kfunctional.kt_bruteforce(pool[j % POOL], PGEN_COUPLE, PGEN_T, tol=PGEN_TOL)


def _pgen_check(pool, j, res, solves):
    x = pool[j % POOL]
    cap = min(float(np.sum(np.abs(x) ** 2) ** 0.5), PGEN_T * float(np.sum(np.abs(x) ** 4) ** 0.25))
    rows = [row(f"seq24/{j:03d}", PGEN_T, res.lower, res.value, res.gap, 0.0)]
    # K_t <= min(||x||_2, t ||x||_4): certified from below, primal within solver slack
    if res.lower > cap + 1e-12 or res.value > cap + PGEN_TOL * max(1.0, cap):
        return rows, [(0, f"K_t bracket [{res.lower:.9g}, {res.value:.9g}] exceeds min-norm cap {cap:.9g}")]
    return rows, []


def _projection_warmup(seed):
    cfg = harness.ExperimentConfig(seed=seed, grid_n=16)
    f = harness.generate_instance("matrix_valued_poly", cfg, POOL)
    schatten.ambient_mixed_kt(f, 1, 1, np.inf, np.inf, 1.0, tol=1e-4)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "endpoint_sweep",
            [Kind("sweep", 12, 12, _endpoint_setup, _endpoint_request, _endpoint_check)],
            _endpoint_warmup,
        ),
        Workload(
            "minmax_approx",
            # the mixes below give each kind a similar share of the mix's time
            [_matrix_kind(3, 20, 10), _matrix_kind(4, 10, 5), _matrix_kind(5, 6, 3)],
            _minmax_warmup,
        ),
        Workload(
            "exact_routes",
            [Kind("circle", 13, 40, _circle_setup, _circle_request, _circle_check),
             Kind("triangular", 12, 80, _tri_setup, _tri_request, _tri_check, 2)],
            _exact_warmup,
        ),
        Workload(
            "projection_bound",
            # one pgen request (50 iterations of 60-70 ms) takes about as
            # long as three or four mixed requests, so pgen has about 0.4 of
            # the mix's time and a run serves about three of them
            [Kind("mixed", 3, 5, _mixed_setup, _mixed_request, _mixed_check, 5),
             Kind("pgen", 1, 2, _pgen_setup, _pgen_request, _pgen_check)],
            _projection_warmup,
        ),
    )
}
