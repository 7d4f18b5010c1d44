"""Tests of the benchmark itself (not of kclose).

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import run

run.add_source_path()

import instrument  # noqa: E402
import workloads  # noqa: E402
from kclose import circle, hardy, harness, kfunctional, schatten, solver  # noqa: E402
from kclose.kfunctional import CoupleId  # noqa: E402

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def prefix_run(name, seed):
    wl = workloads.WORKLOADS[name]
    states = [kind.setup(seed) for kind in wl.kinds]
    tap = instrument.Tap().install()
    try:
        runner = run.Runner(wl, states, tap)
        runner.replay([(k, 0) for k in range(len(wl.kinds))])
    finally:
        tap.close()
    return runner


def test_same_seed_same_digest_and_iterations():
    a = prefix_run("endpoint_sweep", 3)
    b = prefix_run("endpoint_sweep", 3)
    assert run.rows_csv(a.served) == run.rows_csv(b.served)
    its = [s.iterations for s in a.served]
    assert its == [s.iterations for s in b.served]
    assert all(it > 0 for it in its)
    assert sum(s.failed for s in a.served) == 0


def test_different_seed_different_inputs():
    for wl in workloads.WORKLOADS.values():
        for kind in wl.kinds:
            one, two = kind.setup(1), kind.setup(2)
            if isinstance(one, dict):  # configs per size: the suite draws its own instance
                one, two = next(iter(one.values())), next(iter(two.values()))
            if isinstance(one, harness.ExperimentConfig):  # the suite draws its own instance
                assert one.seed != two.seed
                continue
            first = lambda pool: np.concatenate([np.ravel(a) for a in np.atleast_1d(pool[0])])  # noqa: E731
            assert not np.array_equal(first(one), first(two)), kind.name
    f1 = harness.generate_instance("analytic_poly", workloads.WORKLOADS["endpoint_sweep"].kinds[0].setup(1)[32], 0)
    f2 = harness.generate_instance("analytic_poly", workloads.WORKLOADS["endpoint_sweep"].kinds[0].setup(2)[32], 0)
    assert not np.array_equal(f1.samples, f2.samples)


def test_tracer_wraps_every_binding_and_restores_them():
    originals = {
        (kfunctional, "solve_split"): solver.solve_split,
        (schatten, "solve_split"): solver.solve_split,
        (hardy, "solve_distance"): solver.solve_distance,
        (schatten, "solve_distance"): solver.solve_distance,
        (hardy, "solve_minmax_distance"): solver.solve_minmax_distance,
        (schatten, "solve_minmax_distance"): solver.solve_minmax_distance,
        (hardy, "kt_bruteforce"): kfunctional.kt_bruteforce,
        (schatten, "kt_bruteforce"): kfunctional.kt_bruteforce,
        (harness, "kt_bruteforce"): kfunctional.kt_bruteforce,
        (hardy, "sqrt_factor"): sys.modules["kclose.factorize"].sqrt_factor,
    }
    method = solver.VectorNorm.__dict__["project_dual_ball"]
    tracer = instrument.Tracer().install()
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is not fn, f"{mod.__name__}.{attr} left unwrapped"
        assert solver.VectorNorm.__dict__["project_dual_ball"] is not method
        assert instrument.installed_wrappers()
    finally:
        tracer.close()
    assert instrument.installed_wrappers() == []
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn
    assert solver.VectorNorm.__dict__["project_dual_ball"] is method


def test_traced_iterations_match_certificates():
    f = harness.generate_instance("analytic_poly", harness.ExperimentConfig(seed=5, grid_n=16), 0)
    tracer = instrument.Tracer().install()
    try:
        res = [kfunctional.kt_bruteforce(f, CoupleId("hardy", 1, np.inf), t, tol=1e-6) for t in (0.2, 2.0)]
        hardy.quotient_norm(f, np.inf, tol=1e-6)
    finally:
        tracer.close()
    metrics = tracer.metrics(0, 0.0, 1.0)
    assert metrics["solver.solve_split.iters"]["value"] == sum(r.iterations for r in res)
    assert metrics["solver.solve_split.calls"]["value"] == 2
    assert metrics["solver.solve_distance.calls"]["value"] == 1
    assert tracer.iteration_mismatches() == []
    assert set(metrics) == set(instrument.metric_names())


def _captured(call):
    tap = instrument.Tap().install()
    try:
        call()
    finally:
        tap.close()
    solves, _ = tap.take()
    return solves


def _scaled(rec, factor):
    witness = {k: factor * v for k, v in rec.cert.dual_witness.items()}
    return dataclasses.replace(rec, cert=dataclasses.replace(rec.cert, dual_witness=witness))


@pytest.mark.parametrize("program", ["solve_split", "solve_distance", "solve_minmax_distance"])
def test_witness_recheck_rejects_scaled_witness(program):
    f = harness.generate_instance("trig_poly", harness.ExperimentConfig(seed=2, grid_n=16), 0)
    calls = {
        "solve_split": lambda: kfunctional.kt_bruteforce(
            circle.riesz_project(f), CoupleId("hardy", 1, np.inf), 0.3, tol=1e-6),
        "solve_distance": lambda: hardy.quotient_norm(f, 1.0, tol=1e-6),
        "solve_minmax_distance": lambda: hardy.simultaneous_approx(f, tol=1e-4),
    }
    recs = [r for r in _captured(calls[program]) if r.program == program]
    assert recs
    for rec in recs:
        assert instrument.witness_failures(rec) == []
        assert instrument.witness_failures(_scaled(rec, 2.0)) != []


def _one_kind(request, check, expected_rows):
    kind = workloads.Kind("k", expected_rows, 1, lambda seed: None, request, check)
    return workloads.Workload("w", [kind], lambda seed: None)


def test_injected_failures_count_in_fail_rate():
    def request(state, j):
        if j == 2:
            raise ValueError("injected")
        return j

    def check(state, j, result, solves):
        rows = [workloads.row(f"r{j}", t, 1.0, 1.0, 0.0, 0.0) for t in (1.0, 2.0, 3.0)]
        return rows, [(1, "injected bad row")] if j == 1 else []

    tap = instrument.Tap().install()
    try:
        runner = run.Runner(_one_kind(request, check, 3), [None], tap)
        runner.replay([(0, 0), (0, 1), (0, 2)])
    finally:
        tap.close()
    assert [s.attempted for s in runner.served] == [3, 3, 3]
    assert [s.failed for s in runner.served] == [0, 1, 3]


def test_unconverged_certificate_fails_its_rows():
    f = harness.generate_instance("analytic_poly", harness.ExperimentConfig(seed=1, grid_n=32), 0)

    def request(state, j):
        return kfunctional.kt_bruteforce(f, CoupleId("hardy", 1, np.inf), 0.1233, max_iter=60)

    def check(state, j, res, solves):
        return [workloads.row("x", 0.1233, res.lower, res.value, res.gap, 0.0)], []

    tap = instrument.Tap().install()
    try:
        runner = run.Runner(_one_kind(request, check, 1), [None], tap)
        runner.replay([(0, 0)])
    finally:
        tap.close()
    assert runner.served[0].failed == 1
    assert "unconverged" in runner.served[0].reasons[0]


def _synthetic(name, times):
    """A runner of workload ``name`` whose kind k served requests of ``times[k]`` seconds."""
    wl = workloads.WORKLOADS[name]
    runner = run.Runner(wl, [None] * len(wl.kinds), tap=None)
    runner.served = [run.Served(k, j, 0.0, t, [], 0, wl.kinds[k].expected_rows, [], 0)
                     for k, ts in enumerate(times) for j, t in enumerate(ts)]
    return runner


def test_twice_slower_projection_kind_moves_both_request_metrics_past_their_bounds():
    with open(BENCHMARK) as fh:
        bound = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    base = [[1.2] * 10, [3.8] * 3]  # mixed, pgen: today's request times
    for k in range(2):
        slow = [[2 * t for t in ts] if i == k else ts for i, ts in enumerate(base)]
        a, b = _synthetic("projection_bound", base), _synthetic("projection_bound", slow)
        assert b.rows_per_s(False) < (1 - bound["rows_per_s"]) * a.rows_per_s(False)
        assert b.p50_ms(False) > (1 + bound["instance_p50_ms"]) * a.p50_ms(False)


def test_slow_tail_moves_rows_per_s_but_not_the_median():
    base = [[0.8] * 24]
    tail = [[1.2] * 6 + [0.8] * 18]  # a quarter of the sweeps 1.5 times the median
    a, b = _synthetic("endpoint_sweep", base), _synthetic("endpoint_sweep", tail)
    assert b.rows_per_s(False) < 0.9 * a.rows_per_s(False)
    assert b.p50_ms(False) < 1.02 * a.p50_ms(False)
    # a request beyond the cap counts as the cap
    rare = _synthetic("endpoint_sweep", [[0.8] * 23 + [30.0]])
    capped = _synthetic("endpoint_sweep", [[0.8] * 23 + [0.8 * run.TAIL_CAP]])
    assert rare.rows_per_s(False) == pytest.approx(capped.rows_per_s(False))


def _result_line(args, cwd=run.ROOT):
    out = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), *args],
                         capture_output=True, text=True, timeout=170, cwd=cwd)
    return out


def test_cli_end_to_end_metrics_match_benchmark_json():
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    out = _result_line(["--workload", "exact_routes", "--seed", "4", "--seconds", "0.5", "--trace", "0"])
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    for m in bench["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    assert set(res["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_cli_per_layer_metrics_match_benchmark_json():
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    out = _result_line(["--workload", "exact_routes", "--seed", "4", "--seconds", "0.5", "--trace", "1"])
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["correct"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in bench["per_layer"]}
    # exact_routes never reaches the solver
    assert all(v["value"] == 0 for k, v in res["metrics"].items() if k.startswith("solver."))


def test_cli_refuses_to_run_without_kclose(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            with open(os.path.join(run.HERE, name)) as src, open(tmp_path / "perfbench" / name, "w") as dst:
                dst.write(src.read())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact_routes", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=60,
                         cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_calibration_uses_the_probe_samples_around_each_request():
    probe = run.SpeedProbe()
    nominal = run.PROBE_NOMINAL_S
    # host twice as slow around the first request, four times around the
    # second; nothing falls near the third, so the samples bracketing it stand in
    probe.samples = [(0.1, nominal), (1.0, 2 * nominal), (1.5, 2 * nominal), (5.0, 4 * nominal),
                     (5.5, 4 * nominal), (20.0, 3 * nominal)]
    runner = run.Runner(_one_kind(lambda state, j: j, lambda state, j, r, s: ([], []), 0), [None], None,
                        probe=probe)
    runner.served = [run.Served(0, 0, 1.0, 0.5, [], 0, 0, [], 0), run.Served(0, 1, 5.1, 0.3, [], 0, 0, [], 0),
                     run.Served(0, 2, 12.0, 3.0, [], 0, 0, [], 0)]
    assert runner.calibrated() == pytest.approx([0.25, 0.075, 3.0 / 3.5])


def test_probe_ticks_are_taken_out_of_the_request_time():
    tap = instrument.Tap().install()
    probe = run.SpeedProbe(every=0.005).start()
    try:
        runner = run.Runner(_one_kind(lambda state, j: run.reference_kernel(2000),
                                      lambda state, j, r, s: ([], []), 0), [None], tap, probe=probe)
        t0 = time.perf_counter()
        runner.replay([(0, 0)])
        wall = time.perf_counter() - t0
    finally:
        probe.stop()
        tap.close()
    assert len(probe.samples) >= 5
    assert runner.served[0].seconds == pytest.approx(wall - probe.busy, abs=0.02)
    assert runner.served[0].seconds < wall - 0.5 * probe.busy


def test_hd_median():
    assert run.hd_median([3.0]) == 3.0
    assert run.hd_median([2.0, 1.0]) == pytest.approx(1.5)
    assert run.hd_median([4.0] * 7) == pytest.approx(4.0)
    assert 1.0 < run.hd_median([1.0] * 8 + [10.0]) < 1.02  # one 10x slower request of nine
