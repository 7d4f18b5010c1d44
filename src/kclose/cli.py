"""Command-line front end: decompose, kfunc, factor, suite, report.

Exit codes: 0 success, 1 guard/threshold failure, 2 usage or input error.
Payload files are the JSON emitted by the library's to_json methods; a
"type" tag is honoured when present, otherwise the shape of "re" decides
between a circle function (flat list) and a matrix (nested list).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import hardy, schatten
from .circle import CircleFunction
from .factorize import holder_factor, outer_function, sqrt_factor
from .harness import SUITES, ExperimentConfig, _serialize_payload, run_suite
from .kfunctional import CoupleId, couple_norms, kt_bracket, kt_bruteforce
from .schatten import MatrixOperator, MatrixValuedFunction

__all__ = ["main"]


class _UsageError(Exception):
    pass


def _load_payload(path: str):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("payload must be a JSON object")
    for key in ("re", "im"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"payload field {key!r} must be a list")
    tag = data.get("type")
    if tag == "matrix" or (tag is None and "npoints" not in data
                           and data["re"] and isinstance(data["re"][0], list)):
        return MatrixOperator.from_json(data)
    if tag == "matrix_valued" or "npoints" in data:
        return MatrixValuedFunction.from_json(data)
    if tag == "array":
        arr = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError("array entries must be finite")
        return arr
    return CircleFunction.from_json(data)


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------


def _check_t_tol(args) -> None:
    if not np.isfinite(args.t):
        raise _UsageError(f"--t must be finite, got {args.t}")
    if not 0 < args.tol < np.inf:
        raise _UsageError(f"--tol must be positive and finite, got {args.tol}")


def _cmd_kfunc(args) -> int:
    _check_t_tol(args)
    couple = CoupleId.parse(args.couple)
    if args.infile:
        x = _load_payload(args.infile)
    elif couple.kind in ("lebesgue", "hardy"):
        x = CircleFunction.constant(1.0, args.grid_n)
    elif couple.kind == "sequence":
        x = np.ones(args.grid_n, dtype=np.complex128)
    else:
        raise _UsageError(f"--in is required for {couple.kind} couples")
    lower, value = kt_bracket(x, couple, args.t, tol=args.tol)
    print(repr(float(value)))
    if value - lower > args.tol * value:
        print("warning: certified bracket [lower, value] is wider than --tol relative to the "
              f"value: [{lower:.6g}, {value:.6g}]", file=sys.stderr)
    return 0


def _cmd_factor(args) -> int:
    f = _load_payload(args.infile)
    if not isinstance(f, CircleFunction):
        raise _UsageError("factor expects a circle-function payload")
    if args.what == "sqrt":
        fac = sqrt_factor(f)
        _emit({
            "kind": "sqrt",
            "blaschke": {
                "zeros_re": fac.blaschke.zeros.real.tolist(),
                "zeros_im": fac.blaschke.zeros.imag.tolist(),
                "rotation_re": float(fac.blaschke.rotation.real),
                "rotation_im": float(fac.blaschke.rotation.imag),
            },
            "outer": _serialize_payload(fac.outer.boundary),
            "residual": float(fac.residual),
        }, args.out)
    elif args.what == "outer":
        w = np.abs(f.samples)
        o = outer_function(w)
        _emit({
            "kind": "outer",
            "outer": _serialize_payload(o.boundary),
            "modulus_residual": float(o.modulus_residual),
            "analyticity_residual": float(o.analyticity_residual),
        }, args.out)
    else:
        fac = holder_factor(f, args.p, args.r, args.s)
        _emit({
            "kind": "holder",
            "g": _serialize_payload(fac.g),
            "h": _serialize_payload(fac.h),
            "residual": float(fac.residual),
            "norms": {k: float(v) for k, v in fac.norms.items()},
        }, args.out)
    return 0


def _decomposition_json(dec) -> dict:
    return {
        "t": float(dec.t),
        "cost": float(dec.cost),
        "norm0": float(dec.norm0),
        "norm1": float(dec.norm1),
        "membership_residual": float(dec.membership_residual),
        "x0": _serialize_payload(dec.x0),
        "x1": _serialize_payload(dec.x1),
    }


def _cmd_decompose(args) -> int:
    _check_t_tol(args)
    couple = CoupleId.parse(args.couple)
    x = _load_payload(args.infile)
    couple_norms(couple, x)  # rejects a payload of the wrong shape or size
    if couple.kind == "hardy" and not isinstance(x, CircleFunction):
        raise _UsageError("hardy couples need a circle-function payload")
    if couple.kind == "hardy" and couple.p0 == 1 and couple.p1 == np.inf:
        dec = hardy.decompose_h1_hinf(x, args.t, backend=args.backend, tol=args.tol)
    elif couple.kind == "hardy" and couple.p0 == 1:
        dec = hardy.decompose_h1_hq(x, couple.p1, args.t)
    elif couple.kind == "hardy":
        dec = hardy.decompose_base(x, couple.p0, couple.p1, args.t)
    elif couple.kind == "triangular" and couple.p0 == 1 and couple.p1 != np.inf:
        dec = schatten.decompose_t1_tq(x, couple.p1, args.t)
    else:
        dec = kt_bruteforce(x, couple, args.t, tol=args.tol).decomposition
    body = _decomposition_json(dec)
    body["couple"] = args.couple
    _emit(body, args.out)
    return 0


def _cmd_suite(args) -> int:
    config = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    # replace() re-runs the config's validation on the command-line overrides
    over = {key: value for key, value in (("seed", args.seed), ("instances", args.instances)) if value is not None}
    config = dataclasses.replace(config, **over)
    names = sorted(SUITES) if args.name == "all" else [args.name]
    worst = 0
    for name in names:
        if name not in SUITES:
            raise _UsageError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
        res = run_suite(name, config, out_dir=args.out)
        status = "ok" if res.passed else "FAIL"
        print(f"{name}: {status} rows={len(res.rows)} c_estimate={res.summary['c_estimate']:.6f} "
              f"max_residual={res.summary['max_residual']:.3e} violations={len(res.violations)}")
        worst = max(worst, res.exit_code)
    return worst


def _cmd_report(args) -> int:
    import glob
    import os

    paths = []
    for p in args.inputs:
        if os.path.isdir(p):
            paths.extend(sorted(q for q in glob.glob(os.path.join(p, "*.json"))
                                if not q.endswith("_violations.json")))
        else:
            paths.append(p)
    if not paths:
        raise _UsageError("report: no summary files found")
    bad = 0
    header = f"{'suite':<18} {'rows':>5} {'c_estimate':>12} {'max_residual':>13} {'viol':>5}"
    print(header)
    print("-" * len(header))
    for path in paths:
        with open(path) as fh:
            s = json.load(fh)
        if s.get("schema") != 1:
            raise _UsageError(f"{path}: unsupported summary schema")
        print(f"{s['suite']:<18} {s['rows']:>5} {s['c_estimate']:>12.6f} "
              f"{s['max_residual']:>13.3e} {s['violations']:>5}")
        bad += s["violations"]
    return 0 if bad == 0 else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kclose",
        description="K-functional splittings, analytic factorizations, and experiment suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kfunc", help="evaluate a K-functional at one t")
    p.add_argument("--couple", required=True, help="e.g. L1,Linf / h1,h2 / S1,Sinf / seq1,seq2")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--in", dest="infile", help="payload JSON; defaults to the constant function 1")
    p.add_argument("--grid-n", type=int, default=32)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_kfunc)

    p = sub.add_parser("factor", help="factor a circle function")
    p.add_argument("what", choices=["sqrt", "outer", "holder"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--s", type=float, default=2.0)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("decompose", help="split one element at one t with a certificate")
    p.add_argument("--couple", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--backend", choices=["oracle", "constructive"], default="oracle")
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("suite", help="run one experiment suite (or 'all')")
    p.add_argument("name")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="artifact directory (CSV + JSON summaries)")
    p.add_argument("--seed", type=int)
    p.add_argument("--instances", type=int)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("report", help="summarize suite JSON outputs")
    p.add_argument("inputs", nargs="+", metavar="PATH",
                   help="summary JSON files or directories containing them")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
