"""Command-line interface: contracts on output, files, and exit codes."""

import json
import time

import numpy as np
import pytest

from kclose.circle import CircleFunction, from_coeffs
from kclose.cli import main


def write_z2(tmp_path):
    c = np.zeros(16, dtype=np.complex128)
    c[2] = 1.0
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(from_coeffs(c).to_json()))
    return str(path)


def write_matrix(tmp_path):
    data = {"type": "matrix", "n": 2, "re": [[3.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    return str(path)


def write_neg_harmonic(tmp_path):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(CircleFunction.harmonic(-1, 16).to_json()))
    return str(path)


def write_full_matrix(tmp_path):
    data = {"type": "matrix", "n": 2, "re": [[1.0, 2.0], [3.0, 4.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    path = tmp_path / "full.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_kfunc_flat_default_prints_half(capsys):
    assert main(["kfunc", "--couple", "L1,Linf", "--t", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "0.5"


def test_kfunc_flat_saturates(capsys):
    assert main(["kfunc", "--couple", "L1,Linf", "--t", "3.0"]) == 0
    assert capsys.readouterr().out.strip() == "1.0"


def test_kfunc_matrix_payload(capsys):
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as d:
        path = write_matrix(pathlib.Path(d))
        assert main(["kfunc", "--couple", "S1,Sinf", "--t", "1.0", "--in", path]) == 0
        val = float(capsys.readouterr().out.strip())
    # K_1 of diag(3, 1) in the endpoint matrix couple: truncate at level 1
    assert abs(val - 3.0) < 1e-10


def test_kfunc_missing_argument_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["kfunc", "--couple", "L1,Linf"])
    assert exc.value.code == 2


def test_kfunc_bad_couple_exits_2(capsys):
    assert main(["kfunc", "--couple", "Z1,Z2", "--t", "1.0"]) == 2
    assert "error" in capsys.readouterr().err


def test_kfunc_nan_exponent_exits_2(capsys):
    assert main(["kfunc", "--couple", "seqnan,seq2", "--t", "1.0"]) == 2
    assert "exponents must lie in [1, inf], got nan" in capsys.readouterr().err


def test_kfunc_schatten_needs_payload(capsys):
    assert main(["kfunc", "--couple", "S1,Sinf", "--t", "1.0"]) == 2


@pytest.mark.parametrize("couple", ["L1,Linf", "h1,hinf"])
def test_kfunc_non_finite_payload_exits_2(tmp_path, capsys, couple):
    re = [1.0, 2.0, float("nan"), 0.5, 1.0, 1.0, 1.0, 1.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"n": 8, "re": re, "im": [0.0] * 8}))
    assert main(["kfunc", "--couple", couple, "--t", "0.5", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_kfunc_non_finite_array_payload_exits_2(tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"type": "array", "re": [1.0, float("inf")], "im": [0.0, 0.0]}))
    assert main(["kfunc", "--couple", "seq1,seq2", "--t", "0.5", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def write_ramp8(tmp_path):
    path = tmp_path / "ramp8.json"
    path.write_text(json.dumps({"n": 8, "re": list(range(1, 9)), "im": [0.0] * 8}))
    return str(path)


@pytest.mark.parametrize("couple, want", [("seq1,seqinf", "15.0"), ("L1,Linf", "4.5")])
def test_kfunc_measure_follows_the_couple(tmp_path, capsys, couple, want):
    assert main(["kfunc", "--couple", couple, "--t", "2", "--in", write_ramp8(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == want


@pytest.mark.parametrize("couple, payload", [
    ("seq1,seqinf", write_matrix), ("L1,Linf", write_matrix), ("S1,Sinf", write_ramp8),
])
def test_kfunc_mismatched_payload_exits_2(tmp_path, capsys, couple, payload):
    assert main(["kfunc", "--couple", couple, "--t", "1.0", "--in", payload(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_kfunc_non_object_payload_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    assert main(["kfunc", "--couple", "seq1,seq2", "--t", "0.5", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: payload must be a JSON object")


def test_kfunc_malformed_field_is_named(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 8, "re": {"a": 1}, "im": [0.0] * 8}))
    assert main(["kfunc", "--couple", "seq1,seq2", "--t", "0.5", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'re'" in err


@pytest.mark.parametrize("t", [1e-10, 1e-30])
def test_kfunc_wide_bracket_warns(tmp_path, capsys, t):
    # at tiny t the gap test gap <= tol * max(1, primal) is absolute, so the
    # solve stops with a bracket far wider than tol relative to K_t
    start = time.perf_counter()
    assert main(["kfunc", "--couple", "seq2,seq4", "--t", str(t), "--in", write_array8(tmp_path)]) == 0
    assert time.perf_counter() - start < 10.0
    captured = capsys.readouterr()
    assert float(captured.out) > 0.0
    assert captured.err.startswith("warning: certified bracket")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("couple", ["seq1,seq1.5", "seq1,seq2"])
@pytest.mark.parametrize("t", [1e-30, 1e30])
def test_kfunc_l1_couple_is_exact_at_extreme_t(tmp_path, capsys, couple, t):
    # the certified clip split: t*||x||_q at tiny t, ||x||_1 = 36 at huge t
    start = time.perf_counter()
    assert main(["kfunc", "--couple", couple, "--t", str(t), "--in", write_array8(tmp_path)]) == 0
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    q = float(couple.split("seq")[-1])
    exact = t * float(np.sum(np.arange(1.0, 9.0) ** q) ** (1.0 / q)) if t < 1 else 36.0
    assert float(captured.out) == pytest.approx(exact, rel=1e-7, abs=0.0)
    assert captured.err == ""


@pytest.mark.parametrize("couple, t, payload", [
    ("seq2,seqinf", "1e-16", "array"),
    ("L2,Linf", "1e-30", "array"),
    ("L2,Linf", "1e-30", "circle"),
])
def test_kfunc_radius_below_rounding_exits_0(tmp_path, capsys, couple, t, payload):
    # the l1-ball projection at a radius below the rounding of the largest modulus
    path = write_array8(tmp_path)
    if payload == "circle":
        path = tmp_path / "c8.json"
        path.write_text(json.dumps({"n": 8, "re": list(range(1, 9)), "im": [0.0] * 8}))
    assert main(["kfunc", "--couple", couple, "--t", t, "--in", str(path)]) == 0
    captured = capsys.readouterr()
    assert np.isfinite(float(captured.out))
    assert "Traceback" not in captured.err


def test_kfunc_converged_solve_does_not_warn(tmp_path, capsys):
    assert main(["kfunc", "--couple", "seq1,seq1.5", "--t", "3", "--in", write_array8(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert float(captured.out) > 1.0
    assert captured.err == ""


def test_factor_sqrt_monomial(tmp_path, capsys):
    path = write_z2(tmp_path)
    assert main(["factor", "sqrt", "--in", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["blaschke"]["zeros_re"] == [0.0, 0.0]
    assert data["blaschke"]["zeros_im"] == [0.0, 0.0]
    assert abs(data["blaschke"]["rotation_re"] - 1.0) < 1e-10
    assert abs(data["blaschke"]["rotation_im"]) < 1e-10
    outer = np.asarray(data["outer"]["re"]) + 1j * np.asarray(data["outer"]["im"])
    assert np.abs(outer - 1.0).max() < 1e-10
    assert data["residual"] < 1e-12


def test_factor_writes_output_file(tmp_path):
    path = write_z2(tmp_path)
    out = tmp_path / "fac.json"
    assert main(["factor", "sqrt", "--in", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["kind"] == "sqrt"


def test_factor_missing_file_exits_2(capsys):
    assert main(["factor", "sqrt", "--in", "/nonexistent/f.json"]) == 2


def test_decompose_hardy_endpoint(tmp_path, capsys):
    path = write_z2(tmp_path)
    assert main(["decompose", "--couple", "h1,hinf", "--t", "1.0", "--in", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["cost"] - 1.0) < 1e-6  # unimodular analytic monomial
    assert data["membership_residual"] < 1e-8
    x0 = np.asarray(data["x0"]["re"]) + 1j * np.asarray(data["x0"]["im"])
    x1 = np.asarray(data["x1"]["re"]) + 1j * np.asarray(data["x1"]["im"])
    f = np.asarray(json.loads(open(path).read())["re"]) + 1j * np.asarray(
        json.loads(open(path).read())["im"]
    )
    assert np.abs(x0 + x1 - f).max() < 1e-10


def test_decompose_triangular_couple(tmp_path, capsys):
    data = {"type": "matrix", "n": 2, "re": [[2.0, 1.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(data))
    assert main(["decompose", "--couple", "T1,T2", "--t", "1.0", "--in", str(path)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["cost"] > 0 and body["membership_residual"] < 1e-8


def write_array8(tmp_path):
    path = tmp_path / "arr8.json"
    path.write_text(json.dumps({"type": "array", "re": list(range(1, 9)), "im": [0.0] * 8}))
    return str(path)


def write_matrix_valued(tmp_path):
    path = tmp_path / "mv.json"
    eye = [[1.0, 0.0], [0.0, 1.0]]
    zero = [[0.0, 0.0], [0.0, 0.0]]
    path.write_text(json.dumps({"npoints": 8, "n": 2, "re": [eye] * 8, "im": [zero] * 8}))
    return str(path)


@pytest.mark.parametrize("couple, payload", [
    ("h1,hinf", write_matrix), ("h1,h2", write_matrix), ("h2,h4", write_matrix),
    ("T1,T2", write_ramp8), ("h1,hinf", write_array8), ("L1,L2", write_matrix_valued),
    ("h1,hinf", write_neg_harmonic), ("h2,h4", write_neg_harmonic),
])
def test_decompose_mismatched_payload_exits_2(tmp_path, capsys, couple, payload):
    assert main(["decompose", "--couple", couple, "--t", "0.5", "--in", payload(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("command, couple, payload", [
    ("kfunc", "h1,h2", write_neg_harmonic), ("decompose", "T1,Tinf", write_full_matrix),
])
def test_payload_outside_the_subspace_exits_2(tmp_path, capsys, command, couple, payload):
    # K_t of a subspace couple is +inf off the subspace; no number may be printed
    assert main([command, "--couple", couple, "--t", "1", "--in", payload(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "must lie in the" in captured.err and "Traceback" not in captured.err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself warns
@pytest.mark.parametrize("scale", [1e308, 3e307])
@pytest.mark.parametrize("args", [
    ["factor", "sqrt"], ["factor", "holder"],
    ["decompose", "--couple", "h1,h2", "--t", "0.5"],
    ["decompose", "--couple", "h1,h2", "--t", "0.5", "--backend", "constructive"],
    ["decompose", "--couple", "h1,hinf", "--t", "0.5", "--backend", "constructive"],
], ids=["sqrt", "holder", "h1h2-oracle", "h1h2-constructive", "h1hinf-constructive"])
def test_overflowing_coefficients_exit_2(tmp_path, capsys, scale, args):
    # finite samples whose Fourier sum overflows: 1e308 gives a NaN membership
    # residual, 3e307 passes membership with an infinite mean coefficient
    path = tmp_path / "big.json"
    path.write_text(json.dumps(CircleFunction(np.full(8, scale)).to_json()))
    assert main([*args, "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["kfunc", "decompose"])
@pytest.mark.parametrize("flag, value", [
    ("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"), ("--tol", "inf"), ("--t", "nan"), ("--t", "inf"),
])
def test_non_finite_t_or_bad_tol_exits_2_at_once(tmp_path, capsys, command, flag, value):
    # a NaN tol used to run the solver for seconds and print a value with no bracket warning
    args = [command, "--couple", "L1,L2", "--t", "1", "--in", write_z2(tmp_path), flag, value]
    start = time.perf_counter()
    assert main(args) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be") and captured.err.count("\n") == 1


def test_kfunc_sequence_default_payload(capsys):
    # without --in a sequence couple takes grid-n ones: K_2 of (1, inf) sums the two largest
    assert main(["kfunc", "--couple", "seq1,seqinf", "--t", "2", "--grid-n", "8"]) == 0
    assert capsys.readouterr().out.strip() == "2.0"


def test_factor_outer_of_unimodular_is_one(tmp_path, capsys):
    assert main(["factor", "outer", "--in", write_z2(tmp_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "outer"
    outer = np.asarray(data["outer"]["re"]) + 1j * np.asarray(data["outer"]["im"])
    assert np.abs(outer - 1.0).max() < 1e-12


def test_factor_holder_norms_multiply(tmp_path, capsys):
    assert main(["factor", "holder", "--in", write_z2(tmp_path), "--p", "1", "--r", "2", "--s", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "holder"
    assert abs(data["norms"]["g_r"] * data["norms"]["h_s"] - data["norms"]["f_p"]) < 1e-12


def test_factor_non_circle_payload_exits_2(tmp_path, capsys):
    assert main(["factor", "sqrt", "--in", write_matrix(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: factor expects a circle-function payload\n"


@pytest.mark.parametrize("couple, cost", [
    ("h1,h2", None),  # the squaring route
    ("h2,h4", None),  # the base split
    ("L1,L2", 0.5),  # the solver: K_t of a unimodular function is min(1, t)
])
def test_decompose_routes(tmp_path, capsys, couple, cost):
    path = write_z2(tmp_path)
    assert main(["decompose", "--couple", couple, "--t", "0.5", "--in", path]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["couple"] == couple and body["membership_residual"] < 1e-8
    x0 = np.asarray(body["x0"]["re"]) + 1j * np.asarray(body["x0"]["im"])
    x1 = np.asarray(body["x1"]["re"]) + 1j * np.asarray(body["x1"]["im"])
    f = CircleFunction.from_json(json.loads(open(path).read()))
    assert np.abs(x0 + x1 - f.samples).max() < 1e-10
    if cost is not None:
        assert abs(body["cost"] - cost) < 1e-6


def _write_summary(tmp_path, schema):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"schema": schema, "suite": "demo", "rows": 3, "c_estimate": 1.25,
                                "max_residual": 1e-12, "violations": 0}))
    return str(path)


def test_report_reads_a_summary_file(tmp_path, capsys):
    assert main(["report", _write_summary(tmp_path, 1)]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1].split()
    assert last[:3] == ["demo", "3", "1.250000"]


def test_report_unknown_schema_exits_2(tmp_path, capsys):
    assert main(["report", _write_summary(tmp_path, 2)]) == 2
    assert "unsupported summary schema" in capsys.readouterr().err


def test_suite_runs_and_reports(tmp_path, capsys):
    cfg = {
        "seed": 7,
        "grid_n": 16,
        "matrix_n": 3,
        "t_grid": {"t_min": 0.5, "t_max": 2.0, "points_per_decade": 1},
        "instances": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "art"
    code = main(["suite", "prop25_identity", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    assert "prop25_identity: ok" in capsys.readouterr().out
    assert (out_dir / "prop25_identity.csv").exists()

    code = main(["report", str(out_dir)])
    assert code == 0
    assert "prop25_identity" in capsys.readouterr().out


def test_suite_seed_override_changes_rows(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["suite", "lemma23_factor", "--instances", "1"]
    assert main(args + ["--seed", "7", "--out", str(out_a)]) == 0
    assert main(args + ["--seed", "8", "--out", str(out_b)]) == 0
    ca = (out_a / "lemma23_factor.csv").read_text()
    cb = (out_b / "lemma23_factor.csv").read_text()
    assert ca != cb
    assert main(args + ["--seed", "7", "--out", str(out_b)]) == 0
    assert (out_b / "lemma23_factor.csv").read_text() == ca


def test_suite_guard_failure_exits_1(tmp_path, capsys):
    cfg = {"instances": 1, "thresholds": {"lemma23_factor": 1e-18}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["suite", "lemma23_factor", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    assert (tmp_path / "o" / "lemma23_factor_violations.json").exists()


def test_suite_unconverged_solve_exits_1(tmp_path, capsys):
    cfg = {"instances": 1, "solver": {"max_iter": 1}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["suite", "jones_h1_hinf", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "jones_h1_hinf: FAIL" in capsys.readouterr().out
    blob = json.loads((tmp_path / "o" / "jones_h1_hinf_violations.json").read_text())
    assert blob and all(v["reason"].startswith("solver stopped unconverged at gap ") for v in blob)


@pytest.mark.parametrize("suite", ["matrix_valued_33", "simultaneous_03", "simultaneous_21i"])
def test_suite_unconverged_solve_exits_1_per_suite(tmp_path, capsys, suite):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"instances": 1, "grid_n": 8, "solver": {"max_iter": 1}}))
    assert main(["suite", suite, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert f"{suite}: FAIL" in capsys.readouterr().out
    blob = json.loads((tmp_path / "o" / f"{suite}_violations.json").read_text())
    assert any(v["reason"].startswith("solver stopped unconverged at gap ") for v in blob)


def test_suite_grid_above_max_grid_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"instances": 1, "grid_n": 128}))
    assert main(["suite", "jones_h1_hinf", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "grid_n" in captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cfg", [
    [1, 2, 3],
    {"instances": 1.5},
    {"thresholds": [1, 2]},
    {"thresholds": {"jones_h1_hinf": "big"}},
    {"solver": {"tol": "x"}},
    {"solver": {"tol": float("nan")}},
    {"solver": {"max_iter": 0}},
    {"solver": 5},
    {"t_grid": {"t_min": -1.0}},
    {"t_grid": {"points_per_decade": 0}},
    {"seed": "seven"},
], ids=["list", "instances_float", "thresholds_list", "threshold_string", "tol_string", "tol_nan",
        "max_iter_zero", "solver_number", "t_min_negative", "points_per_decade_zero", "seed_string"])
def test_suite_malformed_config_exits_2(tmp_path, capsys, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["suite", "jones_h1_hinf", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert not (tmp_path / "o").exists()


def test_suite_zero_instances_flag_exits_2(capsys):
    assert main(["suite", "jones_h1_hinf", "--instances", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: instances")


def test_suite_unknown_name_exits_2(capsys):
    assert main(["suite", "bogus"]) == 2


def test_suite_rejects_workers_flag():
    with pytest.raises(SystemExit) as exc:
        main(["suite", "prop25_identity", "--workers", "2"])
    assert exc.value.code == 2


def test_report_empty_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 2


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
