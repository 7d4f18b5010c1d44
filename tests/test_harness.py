"""Experiment configs, seeded instances, suite runs, and artifacts."""

import json

import numpy as np
import pytest

from kclose import circle, harness
from kclose.circle import CircleFunction
from kclose.harness import CSV_COLUMNS, ExperimentConfig, generate_instance, run_suite
from kclose.schatten import MatrixOperator, MatrixValuedFunction


def small_config(**kw):
    base = dict(seed=5, grid_n=16, matrix_n=3, t_min=0.5, t_max=2.0,
                points_per_decade=1, instances=2)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(grid_n=12)
    with pytest.raises(ValueError):
        ExperimentConfig(matrix_n=0)
    with pytest.raises(ValueError):
        ExperimentConfig(matrix_n=17)
    with pytest.raises(ValueError):
        ExperimentConfig(instances=0)
    with pytest.raises(ValueError):
        ExperimentConfig(t_min=2.0, t_max=1.0)


def test_config_rejects_grid_above_max_grid():
    assert ExperimentConfig(grid_n=64).grid_n == 64
    with pytest.raises(ValueError, match="grid_n must be at most 64"):
        ExperimentConfig(grid_n=128)


def test_config_t_grid_endpoints():
    cfg = ExperimentConfig(t_min=1e-2, t_max=1e2, points_per_decade=3)
    g = cfg.t_grid()
    assert abs(g[0] - 1e-2) < 1e-15
    assert abs(g[-1] - 1e2) < 1e-12
    assert g.size == 13


def test_config_json_roundtrip(tmp_path):
    cfg = small_config(n_max=2000)
    cfg.thresholds["jones_h1_hinf"] = 5.0
    data = cfg.to_json()
    back = ExperimentConfig.from_json(data)
    assert back.to_json() == data
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    loaded = ExperimentConfig.load(str(path))
    assert loaded.thresholds["jones_h1_hinf"] == 5.0
    assert loaded.grid_n == 16


def test_config_json_loads_files_with_a_workers_key():
    cfg = ExperimentConfig.from_json({"seed": 3, "workers": 2})
    assert cfg.seed == 3
    assert "workers" not in cfg.to_json()


def test_config_partial_json_uses_defaults():
    cfg = ExperimentConfig.from_json({"seed": 99, "solver": {"tol": 1e-5}})
    assert cfg.seed == 99 and cfg.tol == 1e-5
    assert cfg.grid_n == ExperimentConfig().grid_n
    assert cfg.thresholds == ExperimentConfig().thresholds


# ---------------------------------------------------------------------------
# instance generation


def test_instances_deterministic_per_index():
    cfg = small_config()
    for kind in ("analytic_poly", "trig_poly", "matrix", "triangular_matrix",
                 "matrix_valued_poly", "weight"):
        a = generate_instance(kind, cfg, 3)
        b = generate_instance(kind, cfg, 3)
        c = generate_instance(kind, cfg, 4)
        pa = a.samples if hasattr(a, "samples") else getattr(a, "entries", a)
        pb = b.samples if hasattr(b, "samples") else getattr(b, "entries", b)
        pc = c.samples if hasattr(c, "samples") else getattr(c, "entries", c)
        assert np.abs(np.asarray(pa) - np.asarray(pb)).max() == 0.0
        assert np.abs(np.asarray(pa) - np.asarray(pc)).max() > 0.0


def test_analytic_poly_shape():
    cfg = small_config()
    f = generate_instance("analytic_poly", cfg, 0)
    assert isinstance(f, CircleFunction) and f.n == 16
    assert circle.analyticity_residual(f) < 1e-13
    co = circle.fourier_coeffs(f)
    deg = 16 // 4
    assert np.abs(co[deg + 1 :]).max() < 1e-14  # degree cap grid_n / 4


def test_triangular_instance_invertible_and_triangular():
    cfg = small_config(matrix_n=6)
    x = generate_instance("triangular_matrix", cfg, 1)
    assert isinstance(x, MatrixOperator)
    assert np.abs(np.tril(x.entries, -1)).max() == 0.0
    s = np.linalg.svd(x.entries, compute_uv=False)
    assert s[-1] > 1e-3 * s[0]


def test_matrix_valued_instance_analytic():
    cfg = small_config()
    f = generate_instance("matrix_valued_poly", cfg, 0)
    assert isinstance(f, MatrixValuedFunction)
    assert f.analyticity_residual() < 1e-12


def test_weight_instance_strictly_positive():
    cfg = small_config()
    w = generate_instance("weight", cfg, 2)
    assert isinstance(w, np.ndarray) and w.min() > 0.0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        generate_instance("mystery", small_config(), 0)


# ---------------------------------------------------------------------------
# suites


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope", small_config())


def test_identity_suite_passes_and_writes_artifacts(tmp_path):
    res = run_suite("prop25_identity", small_config(), out_dir=str(tmp_path))
    assert res.exit_code == 0 and res.passed
    assert res.summary["schema"] == 1
    assert res.summary["violations"] == 0
    text = (tmp_path / "prop25_identity.csv").read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    summary = json.loads((tmp_path / "prop25_identity.json").read_text())
    assert summary["suite"] == "prop25_identity"
    assert summary["c_estimate"] == pytest.approx(1.0, abs=1e-6)
    for row in res.rows:
        assert set(row) == set(CSV_COLUMNS)


def test_factor_suite_rows_cover_all_triples():
    res = run_suite("lemma23_factor", small_config())
    assert res.exit_code == 0
    assert len(res.rows) == 2 * 3  # instances x exponent triples
    for row in res.rows:
        assert abs(row["ratio"] - 1.0) < 1e-8


def test_suite_csv_bytes_deterministic(tmp_path):
    cfg = small_config()
    a = run_suite("jones_h1_hinf", cfg, out_dir=str(tmp_path / "a"))
    b = run_suite("jones_h1_hinf", cfg, out_dir=str(tmp_path / "b"))
    ba = (tmp_path / "a" / "jones_h1_hinf.csv").read_bytes()
    bb = (tmp_path / "b" / "jones_h1_hinf.csv").read_bytes()
    assert ba == bb
    assert a.summary["c_estimate"] == b.summary["c_estimate"]


@pytest.mark.parametrize("suite, grid_n", [("jones_h1_hinf", 32), ("matrix_valued_33", 8)])
def test_suite_csv_bytes_identical_across_runs(tmp_path, suite, grid_n):
    # the analytic mask is a BLAS matrix product; two runs must still agree byte for byte
    cfg = ExperimentConfig(instances=1, grid_n=grid_n)
    run_suite(suite, cfg, out_dir=str(tmp_path / "a"))
    run_suite(suite, cfg, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / f"{suite}.csv").read_bytes() == (tmp_path / "b" / f"{suite}.csv").read_bytes()


def test_guard_violation_serializes_offender(tmp_path):
    cfg = small_config()
    cfg.thresholds["lemma23_factor"] = 1e-18  # impossible bar forces a failure
    res = run_suite("lemma23_factor", cfg, out_dir=str(tmp_path))
    assert res.exit_code == 1 and not res.passed
    assert res.violations
    blob = json.loads((tmp_path / "lemma23_factor_violations.json").read_text())
    assert blob[0]["suite"] == "lemma23_factor"
    assert "payload" in blob[0] and blob[0]["payload"]["type"] == "matrix"
    # the serialized payload replays to the generated instance
    replay = MatrixOperator.from_json(blob[0]["payload"])
    original = generate_instance("triangular_matrix", cfg, blob[0]["index"])
    assert np.abs(replay.entries - original.entries).max() < 1e-15


def test_ratio_guard_rows_report_ambient_and_cost():
    res = run_suite("jones_h1_hinf", small_config(instances=1))
    for row in res.rows:
        assert row["ambient_K"] > 0
        assert row["achieved_cost"] >= row["ambient_K"] * (1 - 1e-9)
        assert row["ratio"] == pytest.approx(row["achieved_cost"] / row["ambient_K"], rel=1e-12)
        assert 1.0 - 1e-9 <= row["ratio"] <= 20.0


def test_embeddings_suite_includes_reference_rows():
    res = run_suite("embeddings_42", small_config(instances=2, n_max=2000))
    ids = [r["instance_id"] for r in res.rows]
    assert "const1" in ids and "twolevel" in ids
    assert any(i.startswith("diag31") for i in ids)
    assert res.exit_code == 0
