"""kclose benchmark: one seeded workload per run, checked, with one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload endpoint_sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same loop traced and reports the per-layer metrics instead.  The
last line of standard output is the result object; the line before it is
the run record, which is also written to ``.perfbench/`` at the root.
See perfbench/README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median of these and our own
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Shared hosts change speed by tens of percent within seconds, in step for
# all small-array numpy code.  While a run is measured, a SIGALRM every
# PROBE_EVERY_S interrupts the one thread between two bytecodes and times a
# fixed numpy kernel of PROBE_STEPS steps (about 0.7 ms, no kclose code).
# The handler's own time is taken out of the request it interrupted, and
# each request's time is scaled by PROBE_NOMINAL_S over the mean kernel time
# from PROBE_WINDOW_S before the request to PROBE_WINDOW_S after it, so that
# a long request is calibrated by the host speed during it and a short one
# still sees several samples.
PROBE_EVERY_S = 0.012
PROBE_STEPS = 25
PROBE_WINDOW_S = 0.25
PROBE_NOMINAL_S = 0.0007
SETUP_MIN_SAMPLES = 10
# rows_per_s counts a slow request (hard-band sweeps run up to 4x the
# median) up to this multiple of its kind's median: one input 10x slower,
# such as a 55,000-iteration sweep, would otherwise decide a 25-s run alone
TAIL_CAP = 1.5


class MissingProgram(RuntimeError):
    pass


def reference_kernel(steps=PROBE_STEPS):
    """Fixed small-array numpy work, independent of kclose: FFT mask, sort,
    cumsum and elementwise updates on 32 points, as in one solver iteration."""
    import numpy as np

    x = np.exp(2j * np.pi * 3 * np.arange(32) / 32) + 0.3
    for _ in range(steps):
        c = np.fft.fft(x)
        c[16:] = 0
        y = np.fft.ifft(c)
        m = np.abs(y)
        x = 0.5 * (x + y / (1.0 + m)) + 1e-3 * np.cumsum(np.sort(m))[-1]
    return x


class SpeedProbe:
    """Samples the host's speed from a SIGALRM handler in this thread.

    ``samples`` holds (end time, kernel seconds) per tick; ``busy`` is the
    total time spent in the handler, which callers subtract from the
    interval they time."""

    def __init__(self, every=PROBE_EVERY_S):
        self.every = every
        self.samples: list[tuple] = []
        self.busy = 0.0
        self._previous = None
        self._ticking = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum=None, frame=None):
        if self._ticking:  # a tick that overran the interval is not nested in itself
            return
        self._ticking = True
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        self._ticking = False
        self.busy += time.perf_counter() - t0

    def top_up(self, count):
        """Take samples directly until there are ``count``."""
        while len(self.samples) < count:
            self._tick()

    def scale(self, start, end):
        """Nominal over mean kernel time around [start, end]; the two
        samples bracketing the window stand in when none falls inside it."""
        ends = [t for t, _ in self.samples]
        lo = bisect.bisect_left(ends, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(ends, end + PROBE_WINDOW_S)
        if lo >= hi:
            lo, hi = max(0, lo - 1), min(len(ends), lo + 1)
        return PROBE_NOMINAL_S / statistics.fmean(d for _, d in self.samples[lo:hi])


def add_source_path():
    """Put this checkout's kclose first on the path; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "kclose", "__init__.py")):
        raise MissingProgram(f"no kclose sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import kclose

    if os.path.dirname(os.path.dirname(os.path.abspath(kclose.__file__))) != SRC:
        raise MissingProgram(f"kclose imported from {kclose.__file__}, not from {SRC}")


def blas_threads():
    """Thread counts reported by each bundled OpenBLAS, or the env pin if none is found."""
    import ctypes
    import glob

    import numpy
    import scipy

    counts = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    counts[pkg.__name__] = int(fn())
                    break
    return counts or {"env": os.environ.get("OPENBLAS_NUM_THREADS")}


def machine_record(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def measure_setup_in_children(args):
    """Set-up times of fresh processes doing the same imports, inputs and warm-up."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


@dataclass
class Served:
    """One completed request."""

    kind: int
    j: int
    start: float
    seconds: float
    rows: list
    failed: int  # rows that failed a check
    attempted: int
    reasons: list
    iterations: int


class Runner:
    """Serves one closed-loop client: the next request starts when the last ends."""

    def __init__(self, workload, states, tap, tracer=None, probe=None):
        self.workload = workload
        self.states = states
        self.tap = tap
        self.tracer = tracer
        self.probe = probe  # without one, request times stay uncalibrated
        self.served: list[Served] = []
        self.witness_fail = 0

    def one(self, k, j):
        from instrument import witness_failures

        kind = self.workload.kinds[k]
        state = self.states[k]
        if self.tracer is not None:
            self.tracer.instance = f"{kind.name}:{j}"
        busy = self.probe.busy if self.probe else 0.0
        t0 = time.perf_counter()
        try:
            result = kind.request(state, j)
            error = None
        except Exception as exc:  # a raising request fails its rows; the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if self.probe:
            dt -= self.probe.busy - busy
        solves, decs = self.tap.take()
        if error is not None:
            rows, fails = [], [(None, error)]
        else:
            rows, fails = kind.check(state, j, result, solves)
            if len(rows) != kind.expected_rows:
                fails.append((None, f"{len(rows)} rows, expected {kind.expected_rows}"))
        fails += generic_failures(solves, decs)
        if self.tracer is not None:
            for rec in solves:
                why = witness_failures(rec)
                if why:
                    self.witness_fail += 1
                    fails.append((None, f"{rec.program} witness: {'; '.join(why)}"))
        attempted = max(len(rows), kind.expected_rows)
        failed = attempted if any(i is None for i, _ in fails) else len({i for i, _ in fails})
        self.served.append(Served(k, j, t0, dt, rows, failed, attempted, [why for _, why in fails],
                                  sum(rec.cert.iterations for rec in solves)))
        return dt

    def run(self, seconds):
        """Serve the kind furthest behind the input mix until ``seconds`` are
        used; every kind serves at least one request."""
        kinds = self.workload.kinds
        used = [0.0] * len(kinds)
        count = [0] * len(kinds)
        while True:
            k = min(range(len(kinds)), key=lambda i: count[i] / kinds[i].mix)
            # stop where the next request would overshoot more than it fills
            if count[k] and sum(used) + 0.5 * used[k] / count[k] >= seconds:
                return
            used[k] += self.one(k, count[k])
            count[k] += 1

    def replay(self, order):
        for k, j in order:
            self.one(k, j)

    def calibrated(self):
        """Request seconds at the nominal host speed, in serving order."""
        if self.probe is None:
            return [s.seconds for s in self.served]
        return [s.seconds * self.probe.scale(s.start, s.start + s.seconds) for s in self.served]

    # -- summaries ------------------------------------------------------------

    def prefix(self):
        """The first request of every kind: the same in every run with this seed."""
        return sorted((s for s in self.served if s.j == 0), key=lambda s: s.kind)

    def wall(self):
        return sum(s.seconds for s in self.served)

    def by_kind(self, calibrated=True):
        """Per kind, the (passed rows, seconds) of each of its requests."""
        times = self.calibrated() if calibrated else [s.seconds for s in self.served]
        out = [[] for _ in self.workload.kinds]
        for s, t in zip(self.served, times):
            out[s.kind].append((s.attempted - s.failed, t))
        return out

    def rows_per_s(self, calibrated=True, cap=TAIL_CAP):
        """Passed rows per second at the input mix: ``mix`` requests of each
        kind, at the kind's mean passed rows and mean request time in this
        run, each request time capped at ``cap`` times the kind's median."""
        rows = secs = 0.0
        for kind, reqs in zip(self.workload.kinds, self.by_kind(calibrated)):
            limit = cap * statistics.median(t for _, t in reqs)
            rows += kind.mix * statistics.fmean(r for r, _ in reqs)
            secs += kind.mix * statistics.fmean(min(t, limit) for _, t in reqs)
        return rows / secs

    def p50_ms(self, calibrated=True):
        """Each kind's median request time, averaged over the input mix."""
        kinds = self.workload.kinds
        meds = [hd_median([t for _, t in reqs]) for reqs in self.by_kind(calibrated)]
        return 1e3 * sum(kind.mix * m for kind, m in zip(kinds, meds)) / sum(kind.mix for kind in kinds)


def hd_median(xs):
    """Harrell-Davis estimate of the median: a beta-weighted mean of all the
    order statistics.  On the 10-20 requests a kind serves in a run it reads
    the same median with less noise than the middle sample alone."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(xs, dtype=float))
    a = (len(x) + 1) / 2
    return float(np.diff(betainc(a, a, np.arange(len(x) + 1) / len(x))) @ x)


def trace_order(workload, seconds):
    """The fixed requests of a traced run, kinds interleaved."""
    counts = [max(1, round(kind.traced * seconds / 25.0)) for kind in workload.kinds]
    return [(k, j) for j in range(max(counts)) for k in range(len(counts)) if j < counts[k]]


def rows_csv(served):
    from kclose import harness

    return harness.rows_to_csv([r for s in served for r in s.rows])


def generic_failures(solves, decs):
    """Checks every certificate and decomposition gets, whatever produced it."""
    fails = []
    for rec in solves:
        c = rec.cert
        if not c.converged:
            fails.append((None, f"{rec.program} stopped at gap {c.gap:.3e} unconverged"))
        if c.dual > c.primal + 1e-9 * max(1.0, abs(c.primal)):
            fails.append((None, f"{rec.program} lower bound {c.dual:.12g} above value {c.primal:.12g}"))
    for x, dec in decs:
        try:
            dec.validate(x)
        except AssertionError as exc:
            fails.append((None, f"decomposition invalid: {exc}"))
    return fails


def probe_record(probe):
    if probe is None:
        return None
    kernel = [d for _, d in probe.samples]
    return {"samples": len(kernel), "kernel_s_quartiles": statistics.quantiles(kernel, n=4),
            "nominal_s": PROBE_NOMINAL_S, "every_s": probe.every}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print the set-up time and exit (used for setup_s)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    import numpy  # noqa: F401  (before the probe: its handler needs numpy whole)

    # the probe runs through set-up and the timed loop of an untraced run; a
    # traced run leaves it off, since its ticks would land inside the spans
    probe = None if args.trace else SpeedProbe().start()
    try:
        return measure(args, probe)
    finally:
        if probe:
            probe.stop()


def measure(args, probe):
    try:
        add_source_path()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import instrument
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    # set-up: imports (above), one warm-up call, then the seeded inputs
    wl.warmup(args.seed)
    tracer = instrument.Tracer().install() if args.trace else None
    tap = tracer.tap if tracer else instrument.Tap().install()
    invariant = []
    try:
        states = [kind.setup(args.seed) for kind in wl.kinds]
        setup_raw = time.perf_counter() - _T0
        if probe:
            # at the nominal host speed, like the request times
            setup_raw -= probe.busy
            probe.top_up(SETUP_MIN_SAMPLES)
            setup_s = setup_raw * PROBE_NOMINAL_S / statistics.fmean(d for _, d in probe.samples)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        runner = Runner(wl, states, tap, tracer, probe)
        if args.trace:
            runner.replay(trace_order(wl, args.seconds))
        else:
            runner.run(args.seconds)
            probe.stop()
    finally:
        (tracer or tap).close()
    # before the summaries, which import modules of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        # the same requests again with tracing off give the tracing overhead
        replay = Runner(wl, states, instrument.Tap().install())
        try:
            replay.replay([(s.kind, s.j) for s in runner.served])
        finally:
            replay.tap.close()
        invariant += tracer.iteration_mismatches()
        if rows_csv(replay.served) != rows_csv(runner.served):
            invariant.append("the untraced replay produced different rows")
    leftover = instrument.installed_wrappers()
    if leftover:
        invariant.append(f"wrappers left installed: {leftover}")

    prefix = runner.prefix()
    prefix_csv = rows_csv(prefix)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "machine": machine_record(args.seed),
        "prefix_digest": hashlib.sha256(prefix_csv.encode()).hexdigest(),
        "prefix_rows": sum(len(s.rows) for s in prefix),
        "prefix_iterations": sum(s.iterations for s in prefix),
        "requests": {kind.name: sum(1 for s in runner.served if s.kind == k)
                     for k, kind in enumerate(wl.kinds)},
        "run_rows": sum(len(s.rows) for s in runner.served),
        "run_iterations": sum(s.iterations for s in runner.served),
        "wall_s": runner.wall(),
        "failures": [f"{wl.kinds[s.kind].name}:{s.j}: {why}" for s in runner.served for why in s.reasons][:20],
        "invariant_failures": invariant,
        "served": [[wl.kinds[s.kind].name, s.j, s.seconds, s.attempted, s.failed, s.iterations, c]
                   for s, c in zip(runner.served, runner.calibrated())],
        "probe": probe_record(probe),
        "uncalibrated": {"rows_per_s": runner.rows_per_s(False), "instance_p50_ms": runner.p50_ms(False)},
        "uncapped_rows_per_s": runner.rows_per_s(cap=math.inf),
    }
    attempted = sum(s.attempted for s in runner.served)
    failed = sum(s.failed for s in runner.served)
    if args.trace:
        record["trace"] = {"traced_wall_s": runner.wall(), "untraced_wall_s": replay.wall(),
                           "spans": len(tracer.spans), "split_iters_max_at": tracer.split_max[1]}
        metrics = tracer.metrics(runner.witness_fail, runner.wall() - replay.wall(), replay.wall())
    else:
        setup = [setup_s] + measure_setup_in_children(args)
        record["setup_samples_s"] = setup
        record["uncalibrated"]["setup_s"] = setup_raw
        metrics = {
            "rows_per_s": {"value": runner.rows_per_s(), "unit": "1/s"},
            "instance_p50_ms": {"value": runner.p50_ms(), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".record.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        with open(stem + ".spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "instance"],
                       "spans": tracer.spans}, fh)
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not invariant,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
