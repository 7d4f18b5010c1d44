"""Experiment orchestration: seeded instances, suites, and flat-file reports.

Each suite exercises one pipeline over ``instances`` random inputs and
emits one CSV (fixed columns: instance_id, t, ambient_K, achieved_cost,
ratio, gap, residual) plus a JSON summary with "schema": 1.  Runs are
deterministic byte-for-byte for a fixed config: instances derive from
(seed, kind, index) streams and report assembly is ordered by index.

Guards are regression thresholds around observed behaviour -- ratio caps
for the K-closedness suites, identity tolerances for the exact ones -- and
a violated guard serializes the offending instance for replay and makes
the run exit nonzero.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import circle, embed, hardy, schatten
from .circle import CircleFunction, from_coeffs
from .kfunctional import CoupleId, kt_bruteforce, kt_closed_form
from .schatten import MatrixOperator, MatrixValuedFunction
from .solver import MAX_GRID

__all__ = [
    "ExperimentConfig",
    "SuiteResult",
    "SUITES",
    "generate_instance",
    "run_suite",
]

CSV_COLUMNS = ["instance_id", "t", "ambient_K", "achieved_cost", "ratio", "gap", "residual"]

DEFAULT_THRESHOLDS = {
    "jones_h1_hinf": 20.0,
    "prop12_h1_hq": 20.0,
    "thm21_triangular": 20.0,
    "prop25_identity": 1e-5,
    "lemma23_factor": 1e-8,
    "simultaneous_03": 20.0,
    "simultaneous_21i": 20.0,
    "embeddings_42": 1e-3,
    "matrix_valued_33": 20.0,
}

_KIND_CODE = {
    "analytic_poly": 1,
    "trig_poly": 2,
    "matrix": 3,
    "triangular_matrix": 4,
    "matrix_valued_poly": 5,
    "weight": 6,
}


@dataclass
class ExperimentConfig:
    """Knobs shared by every suite; see from_json for the file format."""

    seed: int = 7
    grid_n: int = 32
    matrix_n: int = 6
    t_min: float = 1e-2
    t_max: float = 1e2
    points_per_decade: int = 3
    tol: float = 1e-7
    max_iter: int = 200_000
    thresholds: dict = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))
    eps_reg: float = 1e-8
    instances: int = 10
    n_max: int = 10_000

    def __post_init__(self):
        for name, low in (("seed", 0), ("grid_n", 8), ("matrix_n", 1), ("instances", 1),
                          ("max_iter", 1), ("n_max", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        circle._check_grid_size(self.grid_n)
        if self.grid_n > MAX_GRID:
            raise ValueError(f"grid_n must be at most {MAX_GRID}, got {self.grid_n}")
        if self.matrix_n > 16:
            raise ValueError("matrix_n must lie in [1, 16]")
        for name in ("tol", "t_min", "t_max", "points_per_decade", "eps_reg"):
            value = getattr(self, name)
            if not _finite_number(value) or value <= 0:
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        if self.t_max < self.t_min:
            raise ValueError("t_max must be >= t_min")
        if not isinstance(self.thresholds, dict) or not all(map(_finite_number, self.thresholds.values())):
            raise ValueError("thresholds must be an object of finite numbers")

    def t_grid(self) -> np.ndarray:
        decades = np.log10(self.t_max / self.t_min)
        count = max(2, int(round(decades * self.points_per_decade)) + 1)
        return np.logspace(np.log10(self.t_min), np.log10(self.t_max), count)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "grid_n": self.grid_n,
            "matrix_n": self.matrix_n,
            "t_grid": {
                "t_min": self.t_min,
                "t_max": self.t_max,
                "points_per_decade": self.points_per_decade,
            },
            "solver": {"tol": self.tol, "max_iter": self.max_iter},
            "epsilon": {"eps_reg": self.eps_reg},
            "thresholds": self.thresholds,
            "instances": self.instances,
            "n_max": self.n_max,
        }

    @classmethod
    def from_json(cls, data) -> "ExperimentConfig":
        """Config from a to_json-shaped object; a malformed one raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        kw = {key: data[key] for key in ("seed", "grid_n", "matrix_n", "instances", "n_max") if key in data}
        for section, keys in (("t_grid", ("t_min", "t_max", "points_per_decade")),
                              ("solver", ("tol", "max_iter")), ("epsilon", ("eps_reg",)),
                              ("thresholds", ())):
            body = data.get(section, {})
            if not isinstance(body, dict):
                raise ValueError(f"config field {section!r} must be an object")
            kw.update((key, body[key]) for key in keys if key in body)
        kw["thresholds"] = {**DEFAULT_THRESHOLDS, **data.get("thresholds", {})}
        return cls(**kw)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _finite_number(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool) \
        and bool(np.isfinite(value))


def _rng(config: ExperimentConfig, kind: str, index: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, _KIND_CODE[kind], index])


def generate_instance(kind: str, config: ExperimentConfig, index: int = 0, **over):
    """Seeded random instance of the requested kind; identical per (config, index)."""
    if kind not in _KIND_CODE:
        raise ValueError(f"unknown instance kind {kind!r}")
    rng = _rng(config, kind, index)
    if kind == "analytic_poly":
        n = over.get("grid_n", config.grid_n)
        deg = max(1, n // 4)
        coeffs = np.zeros(n, dtype=np.complex128)
        decay = 1.0 / np.maximum(1, np.arange(deg + 1))
        coeffs[: deg + 1] = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) * decay
        return from_coeffs(coeffs)
    if kind == "trig_poly":
        n = over.get("grid_n", config.grid_n)
        deg = max(1, n // 4)
        coeffs = np.zeros(n, dtype=np.complex128)
        freqs = circle.frequencies(n)
        for j, k in enumerate(freqs):
            if abs(int(k)) <= deg:
                coeffs[j] = (rng.standard_normal() + 1j * rng.standard_normal()) / max(1, abs(int(k)))
        return from_coeffs(coeffs)
    if kind == "matrix":
        n = over.get("matrix_n", config.matrix_n)
        return MatrixOperator(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    if kind == "triangular_matrix":
        n = over.get("matrix_n", config.matrix_n)
        g = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        shift = 1.0 + np.sqrt(n)
        while True:
            cand = g + shift * np.eye(n)
            s = np.linalg.svd(cand, compute_uv=False)
            if s[-1] > 1e-3 * s[0]:
                return MatrixOperator(cand)
            shift *= 2.0
    if kind == "matrix_valued_poly":
        n = over.get("grid_n", min(config.grid_n, 16))
        d = over.get("matdim", 2)
        deg = max(1, n // 4)
        co = np.zeros((n, d, d), dtype=np.complex128)
        for j in range(deg + 1):
            co[j] = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / max(1, j)
        return MatrixValuedFunction(np.fft.ifft(co * n, axis=0))
    # strictly positive random weight for outer-function checks
    n = over.get("grid_n", config.grid_n)
    deg = max(1, min(n // 4, 12))
    u = np.zeros(n, dtype=np.complex128)
    amp = 0.6 / np.maximum(1, np.arange(1, deg + 1))
    for j in range(1, deg + 1):
        u += amp[j - 1] * (
            rng.standard_normal() * np.cos(j * 2 * np.pi * np.arange(n) / n)
            + rng.standard_normal() * np.sin(j * 2 * np.pi * np.arange(n) / n)
        )
    return np.exp(u.real + 0.3 * rng.standard_normal())


@dataclass
class SuiteResult:
    suite: str
    rows: list
    summary: dict
    violations: list
    exit_code: int
    csv_path: str | None = None
    json_path: str | None = None

    @property
    def passed(self) -> bool:
        return self.exit_code == 0


def _row(instance_id, t, ambient, achieved, gap, residual):
    ratio = achieved / ambient if ambient > 0 else 1.0
    return {
        "instance_id": instance_id,
        "t": float(t),
        "ambient_K": float(ambient),
        "achieved_cost": float(achieved),
        "ratio": float(ratio),
        "gap": float(gap),
        "residual": float(residual),
    }


def _serialize_payload(x):
    if isinstance(x, CircleFunction):
        return {"type": "circle", **x.to_json()}
    if isinstance(x, MatrixOperator):
        return {"type": "matrix", **x.to_json()}
    if isinstance(x, MatrixValuedFunction):
        return {"type": "matrix_valued", **x.to_json()}
    arr = np.asarray(x)
    return {"type": "array", "re": arr.real.tolist(), "im": arr.imag.tolist()}


# ---------------------------------------------------------------------------
# suite bodies: each returns (rows, violations) for one instance index


def _unconverged(gap: float) -> str:
    return f"solver stopped unconverged at gap {gap:.3e}"


def _suite_jones(config: ExperimentConfig, idx: int):
    f = generate_instance("analytic_poly", config, idx)
    thr = config.thresholds["jones_h1_hinf"]
    rows, bad = [], []
    for t in config.t_grid():
        dec = hardy.decompose_h1_hinf(f, float(t), backend="oracle",
                                      tol=config.tol, max_iter=config.max_iter)
        amb = kt_closed_form(f, float(t))
        gap = dec.cost - dec.meta.get("lower_bound", dec.cost)
        row = _row(f"poly{idx:03d}", t, amb, dec.cost, gap, dec.membership_residual)
        rows.append(row)
        if not (1.0 - 1e-9 <= row["ratio"] <= thr):
            bad.append((f, row, f"ratio {row['ratio']:.6g} outside [1-1e-9, {thr}]"))
        if not dec.meta["solver_converged"]:
            bad.append((f, row, _unconverged(gap)))
    return rows, bad


def _suite_prop12(config: ExperimentConfig, idx: int):
    f = generate_instance("analytic_poly", config, idx)
    thr = config.thresholds["prop12_h1_hq"]
    rows, bad = [], []
    for t in config.t_grid():
        dec = hardy.decompose_h1_hq(f, 2.0, float(t))
        amb = kt_bruteforce(f, CoupleId("lebesgue", 1, 2), float(t),
                            tol=config.tol, max_iter=config.max_iter)
        holder_excess = max(0.0, dec.meta["cross_norm_p"] - dec.meta["holder_bound"])
        row = _row(f"poly{idx:03d}", t, amb.lower, dec.cost, amb.gap,
                   max(dec.membership_residual, holder_excess))
        rows.append(row)
        if not (1.0 - 1e-9 <= row["ratio"] <= thr):
            bad.append((f, row, f"ratio {row['ratio']:.6g} outside [1-1e-9, {thr}]"))
        if not amb.converged:
            bad.append((f, row, _unconverged(amb.gap)))
        if holder_excess > 1e-9:
            bad.append((f, row, f"cross-term norm exceeds its bound by {holder_excess:.3e}"))
        if dec.membership_residual > 1e-6:
            bad.append((f, row, f"membership residual {dec.membership_residual:.3e}"))
    return rows, bad


def _suite_thm21(config: ExperimentConfig, idx: int):
    x = generate_instance("triangular_matrix", config, idx)
    thr = config.thresholds["thm21_triangular"]
    rows, bad = [], []
    sv = schatten.singular_values(x).astype(np.complex128)
    for t in config.t_grid():
        dec = schatten.decompose_t1_tq(x, 2.0, float(t), eps_reg=config.eps_reg * schatten.schatten_norm(x, np.inf))
        amb = kt_bruteforce(sv, CoupleId("sequence", 1, 2), float(t), tol=1e-9)
        row = _row(f"tri{idx:03d}", t, amb.lower, dec.cost, amb.gap,
                   max(dec.membership_residual, dec.meta["expansion_residual"]))
        rows.append(row)
        if not (1.0 - 1e-9 <= row["ratio"] <= thr):
            bad.append((x, row, f"ratio {row['ratio']:.6g} outside [1-1e-9, {thr}]"))
        if not amb.converged:
            bad.append((x, row, _unconverged(amb.gap)))
        if dec.membership_residual > 1e-8 * max(1.0, float(np.abs(x.entries).max())):
            bad.append((x, row, f"membership residual {dec.membership_residual:.3e}"))
    return rows, bad


_PROP25_SIZES = (2, 4, 6)
_PROP25_T = (0.5, 1.0, 1.5, 3.0)


def _suite_prop25(config: ExperimentConfig, idx: int):
    n = _PROP25_SIZES[idx % len(_PROP25_SIZES)]
    x = generate_instance("matrix", config, idx, matrix_n=n)
    thr = config.thresholds["prop25_identity"]
    rows, bad = [], []
    for t in _PROP25_T:
        closed = schatten.kt_schatten(x, 1, np.inf, t)
        bf = kt_bruteforce(x, CoupleId("schatten", 1, np.inf), t, tol=1e-9)
        diff = abs(closed - bf.value)
        row = _row(f"mat{idx:03d}n{n}", t, closed, bf.value, bf.gap, diff)
        rows.append(row)
        if diff > thr:
            bad.append((x, row, f"matrix oracle differs from closed form by {diff:.3e}"))
        if not bf.converged:
            bad.append((x, row, _unconverged(bf.gap)))
    return rows, bad


_LEMMA23_TRIPLES = ((1.0, 2.0, 2.0), (2.0, 3.0, 6.0), (2.0, 6.0, 3.0))


def _suite_lemma23(config: ExperimentConfig, idx: int):
    x = generate_instance("triangular_matrix", config, idx)
    thr = config.thresholds["lemma23_factor"]
    m = x.entries
    scale = float(np.abs(m).max())
    rows, bad = [], []
    for p, r, q in _LEMMA23_TRIPLES:
        fac = schatten.triangular_factor(x, p, r, q)
        a, b = fac.a.entries, fac.b.entries
        low = max(
            float(np.abs(np.tril(a, -1)).max(initial=0.0)),
            float(np.abs(np.tril(b, -1)).max(initial=0.0)),
        )
        rec = float(np.abs(a @ b - m).max()) / scale
        target = schatten.schatten_norm(x, p)
        prod = fac.norm_a * fac.norm_b
        ident = abs(prod - target) / target
        row = _row(f"tri{idx:03d}p{p:g}r{r:g}q{q:g}", 0.0, target, prod, 0.0,
                   max(low / max(scale, 1.0), rec, ident))
        rows.append(row)
        if low > 1e-10 * max(scale, 1.0):
            bad.append((x, row, f"factor lost triangularity by {low:.3e}"))
        if rec > thr or ident > thr:
            bad.append((x, row, f"reconstruction {rec:.2e} / norm identity {ident:.2e} above {thr}"))
    return rows, bad


def _suite_simultaneous_03(config: ExperimentConfig, idx: int):
    f = generate_instance("trig_poly", config, idx)
    thr = config.thresholds["simultaneous_03"]
    res = hardy.simultaneous_approx(f, tol=max(config.tol, 1e-6), max_iter=2 * config.max_iter)
    row = _row(f"trig{idx:03d}", 0.0, 1.0, res.k_achieved, res.gap,
               circle.analyticity_residual(res.h))
    bad = []
    if res.k_achieved > thr:
        bad.append((f, row, f"K_achieved {res.k_achieved:.4f} above {thr}"))
    if not res.meta["converged"]:
        bad.append((f, row, _unconverged(res.gap)))
    return [row], bad


def _suite_simultaneous_21i(config: ExperimentConfig, idx: int):
    x = generate_instance("matrix", config, idx, matrix_n=min(config.matrix_n, 5))
    thr = config.thresholds["simultaneous_21i"]
    res = schatten.simultaneous_triangular_approx(x, tol=max(config.tol, 1e-6),
                                                  max_iter=2 * config.max_iter)
    mem = float(np.abs(np.tril(res.xhat.entries, -1)).max(initial=0.0))
    row = _row(f"mat{idx:03d}", 0.0, 1.0, res.k_achieved, res.gap, mem)
    bad = []
    if res.k_achieved > thr:
        bad.append((x, row, f"K_achieved {res.k_achieved:.4f} above {thr}"))
    if not res.meta["converged"]:
        bad.append((x, row, _unconverged(res.gap)))
    return [row], bad


def _suite_embeddings(config: ExperimentConfig, idx: int):
    thr = config.thresholds["embeddings_42"]
    rows, bad = [], []
    if idx == 0:
        r = embed.kq_embed(CircleFunction.constant(1.0, config.grid_n), 2.0, config.n_max)
        rows.append(_row("const1", r.argmax_t, r.target, r.value, 0.0, r.residual))
        if r.residual > 1e-4:
            bad.append((CircleFunction.constant(1.0, config.grid_n), rows[-1],
                        f"flat-function residual {r.residual:.3e} above 1e-4"))
        sam = np.where(np.arange(config.grid_n) < config.grid_n // 2, 1.0, 0.5)
        two = CircleFunction(sam.astype(np.complex128))
        r2 = embed.kq_embed(two, 2.0, config.n_max)
        rows.append(_row("twolevel", r2.argmax_t, r2.target, r2.value, 0.0, r2.residual))
        if r2.residual > thr:
            bad.append((two, rows[-1], f"two-level residual {r2.residual:.3e} above {thr}"))
        prev = np.inf
        for n_max in (1000, 10_000, 100_000):
            rm = embed.kq_embed_matrix(np.diag([3.0, 1.0]), 2.0, n_max)
            rows.append(_row(f"diag31_n{n_max}", rm.argmax_t, rm.target, rm.value, 0.0, rm.residual))
            if rm.residual > prev + 1e-12:
                bad.append((MatrixOperator(np.diag([3.0, 1.0])), rows[-1],
                            "matrix residual failed to decrease with n_max"))
            prev = rm.residual
    else:
        f = generate_instance("trig_poly", config, idx)
        r = embed.kq_embed(f, 2.0, config.n_max)
        rows.append(_row(f"trig{idx:03d}", r.argmax_t, r.target, r.value, 0.0, r.residual))
        if r.residual < -1e-9:
            bad.append((f, rows[-1], f"weak-type value exceeded the strong norm by {-r.residual:.3e}"))
    return rows, bad


def _suite_matrix_valued(config: ExperimentConfig, idx: int):
    f = generate_instance("matrix_valued_poly", config, idx)
    thr = config.thresholds["matrix_valued_33"]
    rows, bad = [], []
    for t in (0.3, 1.0, 3.0):
        dec = schatten.matrix_valued_split(f, 1, 1, np.inf, np.inf, float(t),
                                           tol=max(config.tol, 1e-6),
                                           max_iter=config.max_iter)
        amb = schatten.ambient_mixed_kt(f, 1, 1, np.inf, np.inf, float(t),
                                        tol=config.tol, max_iter=config.max_iter)
        row = _row(f"mv{idx:03d}", t, amb.dual, dec.cost, amb.gap, dec.membership_residual)
        rows.append(row)
        try:
            dec.validate(f)
        except AssertionError as exc:
            bad.append((f, row, f"certificate invalid: {exc}"))
        if not (1.0 - 1e-9 <= row["ratio"] <= thr):
            bad.append((f, row, f"ratio {row['ratio']:.6g} outside [1-1e-9, {thr}]"))
        if not amb.converged:
            bad.append((f, row, _unconverged(amb.gap)))
        if not dec.meta["solver_converged"]:
            bad.append((f, row, _unconverged(max(dec.meta["split_gaps"]))))
    return rows, bad


SUITES = {
    "jones_h1_hinf": _suite_jones,
    "prop12_h1_hq": _suite_prop12,
    "thm21_triangular": _suite_thm21,
    "prop25_identity": _suite_prop25,
    "lemma23_factor": _suite_lemma23,
    "simultaneous_03": _suite_simultaneous_03,
    "simultaneous_21i": _suite_simultaneous_21i,
    "embeddings_42": _suite_embeddings,
    "matrix_valued_33": _suite_matrix_valued,
}


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in rows:
        w.writerow([r["instance_id"]] + [repr(r[c]) for c in CSV_COLUMNS[1:]])
    return buf.getvalue()


def run_suite(suite: str, config: ExperimentConfig, out_dir: str | None = None) -> SuiteResult:
    """Run one suite over config.instances inputs and emit CSV + JSON."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    body = SUITES[suite]
    rows, violations = [], []
    for i in range(config.instances):
        rs, bad = body(config, i)
        rows.extend(rs)
        for payload, row, why in bad:
            violations.append({
                "suite": suite,
                "index": i,
                "row": row,
                "reason": why,
                "payload": _serialize_payload(payload),
            })
    ratios = [r["ratio"] for r in rows]
    residuals = [r["residual"] for r in rows]
    summary = {
        "schema": 1,
        "suite": suite,
        "config": config.to_json(),
        "rows": len(rows),
        "c_estimate": max(ratios) if ratios else 1.0,
        "max_residual": max(residuals) if residuals else 0.0,
        "max_gap": max((r["gap"] for r in rows), default=0.0),
        "violations": len(violations),
    }
    exit_code = 0 if not violations else 1
    result = SuiteResult(suite=suite, rows=rows, summary=summary,
                         violations=violations, exit_code=exit_code)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        result.csv_path = os.path.join(out_dir, f"{suite}.csv")
        with open(result.csv_path, "w") as fh:
            fh.write(rows_to_csv(rows))
        result.json_path = os.path.join(out_dir, f"{suite}.json")
        with open(result.json_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if violations:
            with open(os.path.join(out_dir, f"{suite}_violations.json"), "w") as fh:
                json.dump(violations, fh, indent=2, sort_keys=True)
                fh.write("\n")
    return result
