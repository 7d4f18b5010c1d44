"""Wrappers installed on kclose's public functions from outside the package.

Two instruments share one patching mechanism (:class:`Patcher`), which wraps
a function at *every* module attribute that binds it, not only in its home
module: ``solve_split`` is also bound in ``kfunctional`` and ``schatten``,
``kt_bruteforce`` in ``hardy``, ``schatten`` and ``harness``, and so on.
Methods are wrapped on their class, which every binding shares.  Every
wrapper is removed again when the patcher closes.

* :class:`Tap` is always on.  It wraps only the three solver programs and
  ``make_decomposition`` (one extra Python call per solve, against
  milliseconds of solver work) and hands each returned certificate or
  decomposition to the benchmark's checks.
* :class:`Tracer` is on only in a traced run.  It wraps every layer listed in
  :data:`FUNCTION_TARGETS` and :data:`METHOD_TARGETS`, records spans, and aggregates per (name, parent).

:func:`witness_failures` re-derives a solver certificate's lower bound from
its dual witness alone, through the norms' public ``dual_value`` and the
masks' public ``project``.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

from kclose import circle, embed, factorize, hardy, harness, kfunctional, schatten, solver

_WRAPPED = "__perfbench_original__"
SOLVER_PROGRAMS = ("solve_split", "solve_distance", "solve_minmax_distance")


def _kclose_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kclose" or name.startswith("kclose."))]


class Patcher:
    """Replace functions at all their bindings; undo everything on close."""

    def __init__(self):
        self._undo = []

    def wrap_function(self, fn, make_wrapper):
        wrapper = make_wrapper(fn)
        setattr(wrapper, _WRAPPED, fn)
        hits = 0
        for mod in _kclose_modules():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"{fn.__qualname__} is bound nowhere in kclose")
        return wrapper

    def wrap_method(self, cls, attr, make_wrapper):
        fn = cls.__dict__[attr]
        wrapper = make_wrapper(fn)
        setattr(wrapper, _WRAPPED, fn)
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, wrapper)
        return wrapper

    def close(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


def installed_wrappers():
    """(owner, attribute) pairs in kclose that still hold a wrapper."""
    found = []
    for mod in _kclose_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, _WRAPPED):
                found.append((mod.__name__, attr))
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                for name, member in vars(val).items():
                    if hasattr(member, _WRAPPED):
                        found.append((f"{mod.__name__}.{val.__name__}", name))
    return found


# ---------------------------------------------------------------------------
# the always-on tap


@dataclass
class SolveRecord:
    """One solver call: program name, bound arguments and its certificate."""

    program: str
    args: inspect.BoundArguments
    cert: object


class Tap:
    """Collects solver certificates and decompositions for the checks."""

    def __init__(self):
        self.solves: list[SolveRecord] = []
        self.decompositions: list[tuple] = []
        self._patcher = Patcher()

    def install(self, tracer=None):
        for name in SOLVER_PROGRAMS:
            fn = getattr(solver, name)
            self._patcher.wrap_function(fn, lambda f, n=name: self._solve_wrapper(f, n, tracer))
        self._patcher.wrap_function(kfunctional.make_decomposition,
                                    lambda f: self._decomposition_wrapper(f, tracer))
        return self

    def close(self):
        self._patcher.close()

    def take(self):
        """Hand over and forget what was collected since the last call."""
        solves, decs = self.solves, self.decompositions
        self.solves, self.decompositions = [], []
        return solves, decs

    def _solve_wrapper(self, fn, name, tracer):
        sig = inspect.signature(fn)
        span = tracer.span_function(fn, f"solver.{name}", hot=False) if tracer else fn

        def wrapper(*args, **kwargs):
            cert = span(*args, **kwargs)
            rec = SolveRecord(name, sig.bind(*args, **kwargs), cert)
            self.solves.append(rec)
            if tracer is not None:
                tracer.note_solve(rec)
            return cert

        return wrapper

    def _decomposition_wrapper(self, fn, tracer):
        span = tracer.span_function(fn, "kfunctional.make_decomposition", hot=False) if tracer else fn

        def wrapper(couple, t, x, *args, **kwargs):
            dec = span(couple, t, x, *args, **kwargs)
            self.decompositions.append((x, dec))
            return dec

        return wrapper


# ---------------------------------------------------------------------------
# the tracer


def _p_label(p: float) -> str:
    if p == 1:
        return "p1"
    if p == 2:
        return "p2"
    if p == np.inf:
        return "pinf"
    return "pgen"


# (module, attribute) of every traced public function; the solver programs
# and make_decomposition are traced through the tap's wrappers.
FUNCTION_TARGETS = (
    (hardy, "decompose_h1_hinf"),
    (hardy, "decompose_h1_hq"),
    (hardy, "decompose_base"),
    (schatten, "decompose_t1_tq"),
    (schatten, "triangular_factor"),
    (schatten, "simultaneous_triangular_approx"),
    (schatten, "dist_triangular_inf_oracle"),
    (schatten, "matrix_valued_split"),
    (schatten, "ambient_mixed_kt"),
    (schatten, "matrix_outer_factor"),
    (factorize, "sqrt_factor"),
    (factorize, "holder_factor"),
    (factorize, "outer_function"),
    (embed, "kq_embed"),
    (embed, "kq_embed_matrix"),
    (kfunctional, "kt_bruteforce"),
    (kfunctional, "kt_closed_form"),
    (circle, "riesz_project"),
    (circle, "fourier_coeffs"),
    (harness, "generate_instance"),
)
# functions called per t or per iteration keep aggregates only, no span list
HOT_FUNCTIONS = {"kfunctional.kt_closed_form", "circle.riesz_project", "circle.fourier_coeffs"}
# (class, method); VectorNorm.project_dual_ball is further split by exponent
METHOD_TARGETS = (
    (solver.VectorNorm, "project_dual_ball"),
    (solver.SchattenNorm, "project_dual_ball"),
    (solver.SchattenNorm, "cone_project"),
    (solver.MixedNorm, "project_dual_ball"),
    (solver.AnalyticMask, "project"),
    (solver.TriangularMask, "project"),
)
# per solver iteration, each program makes this many direct calls to its
# norms' projections -- the independent count the iteration totals are
# cross-checked against
ITERATION_CHILDREN = {
    "solve_split": (".project_dual_ball", 2),
    "solve_distance": (".project_dual_ball", 1),
    "solve_minmax_distance": (".cone_project", 2),
}


def _short(mod) -> str:
    return mod.__name__.rsplit(".", 1)[-1]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in output order."""
    names = []
    for prog in SOLVER_PROGRAMS:
        names += [f"solver.{prog}.{q}" for q in
                  ("calls", "s", "self_s", "iters", "iters_max", "us_per_iter", "converged_ratio")]
    for cls, attr in METHOD_TARGETS:
        base = f"solver.{cls.__name__}.{attr}"
        if (cls, attr) == (solver.VectorNorm, "project_dual_ball"):
            for lab in ("p1", "p2", "pinf", "pgen"):
                names += [f"{base}.{lab}.calls", f"{base}.{lab}.self_s"]
        else:
            names += [f"{base}.calls", f"{base}.self_s"]
    for mod, attr in FUNCTION_TARGETS + ((kfunctional, "make_decomposition"),):
        names += [f"{_short(mod)}.{attr}.calls", f"{_short(mod)}.{attr}.self_s"]
    names += ["solver.witness_fail", "trace.overhead_s", "trace.overhead_ratio"]
    return names


class Tracer:
    """Spans at every traced layer boundary, aggregated per (name, parent).

    A span records name, start, end, parent and the request (instance) id.
    Functions in :data:`HOT_FUNCTIONS` and the per-iteration methods only
    update the aggregates: a traced endpoint sweep calls the projections
    about a million times.  Self time is a span's duration minus the time
    covered by its traced children.
    """

    def __init__(self):
        self.instance = "setup"
        self.spans: list[tuple] = []
        self.stats: dict[tuple, list] = {}
        self.solves: dict[str, list] = {p: [] for p in SOLVER_PROGRAMS}
        self.split_max = (0, None)  # the solve_split call with the most iterations
        self._stack: list[list] = []
        self._patcher = Patcher()
        self.tap = Tap()

    def install(self):
        try:
            self.tap.install(tracer=self)
            for mod, attr in FUNCTION_TARGETS:
                name = f"{_short(mod)}.{attr}"
                hot = name in HOT_FUNCTIONS
                self._patcher.wrap_function(getattr(mod, attr),
                                            lambda f, n=name, h=hot: self.span_function(f, n, h))
            for cls, attr in METHOD_TARGETS:
                name = f"solver.{cls.__name__}.{attr}"
                if (cls, attr) == (solver.VectorNorm, "project_dual_ball"):
                    self._patcher.wrap_method(cls, attr, lambda f, n=name: self._by_exponent(f, n))
                else:
                    self._patcher.wrap_method(cls, attr, lambda f, n=name: self.span_function(f, n, True))
        except BaseException:
            self.close()
            raise
        return self

    def close(self):
        self._patcher.close()
        self.tap.close()

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, hot):
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        key = (name, parent[0] if parent else None)
        agg = self.stats.get(key)
        if agg is None:
            agg = self.stats[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if not hot:
            self.spans.append((name, start, end, key[1], self.instance))

    def span_function(self, fn, name, hot):
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(hot)

        return wrapper

    def _by_exponent(self, fn, base):
        enter, leave = self._enter, self._exit

        def wrapper(norm, *args, **kwargs):
            enter(f"{base}.{_p_label(norm.p)}")
            try:
                return fn(norm, *args, **kwargs)
            finally:
                leave(True)

        return wrapper

    def note_solve(self, rec):
        cert = rec.cert
        self.solves[rec.program].append((cert.iterations, bool(cert.converged)))
        if rec.program == "solve_split" and cert.iterations > self.split_max[0]:
            prog = rec.args.arguments["prog"]
            self.split_max = (cert.iterations, {"t": prog.t, "size": prog.target.size,
                                                "instance": self.instance})

    # -- results ----------------------------------------------------------

    def totals(self):
        """name -> [calls, inclusive s, self s], summed over parents."""
        out = {}
        for (name, _parent), (calls, incl, self_s) in self.stats.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        return out

    def iteration_mismatches(self):
        """Programs whose certificate iteration total disagrees with the
        number of projection calls the program made directly."""
        bad = []
        for prog, (suffix, per_iter) in ITERATION_CHILDREN.items():
            reported = sum(it for it, _ in self.solves[prog])
            direct = sum(agg[0] for (name, parent), agg in self.stats.items()
                         if parent == f"solver.{prog}" and suffix in name)
            if direct != per_iter * reported:
                bad.append(f"{prog}: certificates report {reported} iterations, "
                           f"{direct} direct projection calls")
        return bad

    def metrics(self, witness_fail: int, overhead_s: float, untraced_s: float) -> dict:
        tot = self.totals()
        out = {}
        for name in metric_names():
            layer, _, quantity = name.rpartition(".")
            if layer.startswith("solver.solve_"):
                prog = layer.split(".")[1]
                calls, incl, self_s = tot.get(layer, [0, 0.0, 0.0])
                its = [it for it, _ in self.solves[prog]]
                conv = [c for _, c in self.solves[prog]]
                value = {
                    "calls": calls,
                    "s": incl,
                    "self_s": self_s,
                    "iters": sum(its),
                    "iters_max": max(its, default=0),
                    "us_per_iter": 1e6 * incl / sum(its) if sum(its) else 0.0,
                    "converged_ratio": sum(conv) / len(conv) if conv else 0.0,
                }[quantity]
            elif name == "solver.witness_fail":
                value = witness_fail
            elif name == "trace.overhead_s":
                value = overhead_s
            elif name == "trace.overhead_ratio":
                value = overhead_s / untraced_s if untraced_s > 0 else 0.0
            else:
                calls, _incl, self_s = tot.get(layer, [0, 0.0, 0.0])
                value = calls if quantity == "calls" else self_s
            unit = "count" if quantity in ("calls", "iters", "iters_max", "witness_fail") else (
                "us" if quantity == "us_per_iter" else "ratio" if "ratio" in quantity else "s")
            out[name] = {"value": value, "unit": unit}
        return out


# ---------------------------------------------------------------------------
# certificate re-check from the dual witness alone


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _annihilator_residual(mask, z) -> float:
    if mask is None:
        return float(np.abs(z).max(initial=0.0))
    return float(np.abs(mask.project(z)).max(initial=0.0))


def witness_failures(rec: SolveRecord, tol: float = 1e-9) -> list[str]:
    """Re-derive ``rec.cert``'s lower bound from its dual witness alone.

    Checks dual-norm feasibility, membership of the witness combination in
    the subspace's annihilator, and that the pairing with the target gives
    the reported lower bound, itself no larger than the primal value.
    """
    a = rec.args.arguments
    cert = rec.cert
    w = cert.dual_witness
    why = []
    if rec.program == "solve_split":
        prog = a["prog"]
        x, t, mask = prog.target, prog.t, prog.subspace
        if not np.any(x):
            return []
        z0, z1 = w["z0"], w["z1"]
        scale = max(1.0, float(np.abs(z0).max()), float(np.abs(z1).max()))
        if prog.norm0.dual_value(z0) > 1.0 + tol:
            why.append(f"dual norm of z0 {prog.norm0.dual_value(z0):.12g} above 1")
        if prog.norm1.dual_value(z1) > t * (1.0 + tol):
            why.append(f"dual norm of z1 {prog.norm1.dual_value(z1):.12g} above t={t:g}")
        if _annihilator_residual(mask, z0 + z1) > tol * scale:
            why.append("z0 + z1 leaves the annihilator")
        lower = max(0.0, -float(np.real(np.vdot(x, z1))))
    elif rec.program == "solve_distance":
        x = np.asarray(a["target"], dtype=np.complex128).ravel()
        z = w["z"]
        if a["norm"].dual_value(z) > 1.0 + tol:
            why.append(f"dual norm of z {a['norm'].dual_value(z):.12g} above 1")
        if _annihilator_residual(a["subspace"], z) > tol * max(1.0, float(np.abs(z).max())):
            why.append("z leaves the annihilator")
        lower = float(np.real(np.vdot(x, z)))
    else:
        x = np.asarray(a["target"], dtype=np.complex128).ravel()
        if not w:
            lower = 0.0
        else:
            za, zb = w["za"], w["zb"]
            budget = a["scale_a"] * a["norm_a"].dual_value(za) + a["scale_b"] * a["norm_b"].dual_value(zb)
            if budget > 1.0 + tol:
                why.append(f"weighted dual norm {budget:.12g} above 1")
            if _annihilator_residual(a["subspace"], za + zb) > tol * max(
                    1.0, float(np.abs(za).max()), float(np.abs(zb).max())):
                why.append("za + zb leaves the annihilator")
            lower = max(0.0, float(np.real(np.vdot(x, za + zb))))
    if _rel(lower, cert.dual) > tol:
        why.append(f"witness pairing {lower:.12g} differs from the reported lower bound {cert.dual:.12g}")
    if lower > cert.primal + tol * max(1.0, abs(cert.primal)):
        why.append(f"lower bound {lower:.12g} above the primal value {cert.primal:.12g}")
    return why
