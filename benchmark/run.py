"""Benchmark of the rough-hausdorff package, end to end and layer by layer.

    python3 benchmark/run.py --workload {campaign,norms,queries} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src/``.
Every op's output is checked against a reference or a closed form (see
``workloads.py``), and a failed op never stops the run.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; a summary and every failure go to stderr.

With ``--trace 0`` it repeats rounds of the workload's ops until ``--seconds``
have passed (at least one round) and reports the end-to-end metrics:

    setup_s      import, inputs and generator up to the first op; the median
                 of this process and SETUP_PROBES fresh processes that only set up
    wall_s       median over rounds of the time to finish one round of ops
                 (on campaign one round is the whole campaign: time to a verdict)
    op_p50_ms    median per-op latency (campaign: per case)
    op_p90_ms    90th percentile per-op latency (both as statistics.quantiles gives them)
    peak_rss_mb  peak resident memory of this process

Times are reported at a reference machine speed.  The speed of a shared
host flips between states up to 1.5x apart within seconds, so an untraced
run times a fixed calibration kernel every CALIBRATE_EVERY_S of wall time,
from a SIGALRM handler so that long ops are sampled while they run.  Time
spent in the handler is taken out of the op it interrupted, and each op's
time is scaled by CALIBRATION_REF_S over the mean kernel time of the
samples taken during it and the nearest one on each side.  Stderr has the
same metrics from unscaled times.

With ``--trace 1`` it runs the workload's fixed number of traced rounds
(``trace_rounds``), so work counts repeat exactly for a seed, and reports
the per-layer metrics of ``tracer.py``.
"""

import time

T0 = time.perf_counter()  # set-up starts before numpy or the package is imported

import argparse
import bisect
import contextlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "rough_hausdorff")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
TWIN_REL = 1e-9
CALIBRATION_REF_S = 0.0125  # the kernel's median time on the 2-core x86-64 host the bounds were set on
CALIBRATE_EVERY_S = 0.5


def _import_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.exit(f"run.py: no package at {PACKAGE}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import rough_hausdorff

    if os.path.dirname(os.path.abspath(rough_hausdorff.__file__)) != PACKAGE:
        sys.exit(f"run.py: imported {rough_hausdorff.__file__}, not the checkout's package")


def calibration_kernel() -> float:
    """Seconds for a fixed mix of the work the package's time goes to:
    interpreter loops and dict traffic, argparse and json, small numpy calls.
    It uses nothing from the package, so no change to the package moves it."""
    import numpy as np

    t = time.perf_counter()
    for _ in range(10):  # small tables: the kernel must not raise peak_rss_mb
        table = {i: str(i) for i in range(5000)}
        sum(len(v) for v in table.values())
    parser = argparse.ArgumentParser(prog="calibration")
    commands = parser.add_subparsers(dest="command")
    for j in range(5):
        command = commands.add_parser(f"c{j}")
        for k in range(10):
            command.add_argument(f"--a{k}", type=float)
    parser.parse_args(["c1", "--a3", "1.5"])
    json.loads(json.dumps({"v": list(range(1000))}))
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0) - 1.0
    return time.perf_counter() - t


def calibrate() -> float:
    return statistics.median(calibration_kernel() for _ in range(3))


class Calibrator:
    """Runs the calibration kernel every CALIBRATE_EVERY_S of wall time
    from a SIGALRM handler, recording (handler start, handler end, kernel
    seconds) for each sample."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t = time.perf_counter()
        kernel = calibration_kernel()
        self.samples.append((t, time.perf_counter(), kernel))

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False


def p50_p90(values) -> tuple[float, float]:
    """Median and 90th percentile, interpolated as statistics.quantiles does;
    with the campaign's 13 cases the p90 weighs the two slowest."""
    q = statistics.quantiles(values, n=10)
    return q[4], q[8]


def twins_disagree(a, b) -> bool:
    return not (isinstance(a, float) and isinstance(b, float)
                and abs(a - b) <= TWIN_REL * max(abs(a), abs(b)) + 1e-15)


def execute(workload, seconds: float, tracer=None, rounds=None) -> dict:
    """Run rounds of ``workload``: until ``seconds`` have passed, or exactly
    ``rounds`` rounds when given.  A tracer is installed only while ops run;
    untraced runs calibrate while they run.  ``ops`` holds (round, start,
    end, seconds), the seconds without time spent in the calibration handler."""
    calibrator = Calibrator()
    with contextlib.nullcontext() if tracer is not None else calibrator:
        result = _execute(workload, seconds, tracer, rounds)
    starts = [s for s, _, _ in calibrator.samples]
    ops = []
    for round_index, t, end in result["ops"]:
        handler = sum(max(0.0, min(stop, end) - max(start, t))
                      for start, stop, _ in calibrator.samples[max(bisect.bisect_left(starts, t) - 1, 0):
                                                               bisect.bisect_right(starts, end)])
        ops.append((round_index, t, end, end - t - handler))
    result["ops"] = ops
    result["calibrations"] = [(start, kernel) for start, _, kernel in calibrator.samples]
    return result


def _execute(workload, seconds, tracer, rounds) -> dict:
    ops_run, outputs, failures = [], [], []  # ops_run: (round, start, end)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        ops = workload.round(i)
        if tracer is not None:
            tracer.install()
        results = []
        for op in ops:
            t = time.perf_counter()
            try:
                out, cause = op.run(), None
            except Exception as exc:  # a failed op is counted, never fatal
                out, cause = None, f"raised {type(exc).__name__}: {exc}"
            results.append((t, time.perf_counter(), out, cause))
        if tracer is not None:
            tracer.remove()
        for op, (t, end, out, cause) in zip(ops, results):
            if cause is None:
                cause = op.check(out)
            if cause is None and op.twin is not None and results[op.twin][3] is None:
                if twins_disagree(out, results[op.twin][2]):
                    cause = f"separable path gave {results[op.twin][2]!r}, general path {out!r}"
            ops_run.append((i, t, end))
            outputs.append((op.label, out))
            if cause is not None:
                failures.append((op.label, cause))
        i += 1
        if (i >= rounds) if rounds is not None else time.perf_counter() >= deadline:
            break
    return {"ops": ops_run, "outputs": outputs, "failures": failures, "rounds": i}


def scaled(run: dict) -> list[tuple[int, float]]:
    """(round, op seconds at the reference speed): each op's time is scaled
    by the mean kernel time of the samples taken during it and the nearest
    one on each side."""
    times = [t for t, _ in run["calibrations"]]
    kernel = [k for _, k in run["calibrations"]]
    out = []
    for round_index, start, end, dt in run["ops"]:
        lo = max(bisect.bisect_right(times, start) - 1, 0)
        hi = bisect.bisect_left(times, end) + 1
        around = kernel[lo:hi]
        out.append((round_index, dt * CALIBRATION_REF_S * len(around) / sum(around)))
    return out


def round_times(ops: list[tuple[int, float]]) -> list[float]:
    totals = {}
    for round_index, dt in ops:
        totals[round_index] = totals.get(round_index, 0.0) + dt
    return list(totals.values())


def time_metrics(ops: list[tuple[int, float]], setups: list[float]) -> dict:
    p50, p90 = p50_p90([dt * 1e3 for _, dt in ops])
    return {"setup_s": statistics.median(setups), "wall_s": statistics.median(round_times(ops)),
            "op_p50_ms": p50, "op_p90_ms": p90}


def setup_probes(args) -> list[tuple[float, float]]:
    """(set-up time, calibration) of fresh processes that build the workload and exit."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        setup_s, calibration = proc.stdout.strip().splitlines()[-1].split()
        probes.append((float(setup_s), float(calibration)))
    return probes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "norms", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload, print the set-up time and exit")
    args = parser.parse_args()

    _import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(repr(setup_s), repr(calibrate()))
        return 0

    case_ids = [c["id"] for c in workloads.harness.default_config()["cases"]]
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        run = execute(workload, args.seconds, tracer, rounds=workload.trace_rounds)
        raw_ops = [(r, dt) for r, _, _, dt in run["ops"]]
        layer = tracer.metrics(case_ids, statistics.median(round_times(raw_ops)))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        if tracer.missing:
            print(f"# entry points not found, not traced: {sorted(tracer.missing)}", file=sys.stderr)
    else:
        setups = [(setup_s, calibrate())]
        run = execute(workload, args.seconds)
        setups += setup_probes(args)
        raw = time_metrics([(r, dt) for r, _, _, dt in run["ops"]], [s for s, _ in setups])
        values = time_metrics(scaled(run), [s * CALIBRATION_REF_S / c for s, c in setups])
        print(f"# raw (unscaled) times: {raw}; calibration median "
              f"{statistics.median(k for _, k in run['calibrations']) * 1e3:.4f} ms "
              f"over {len(run['calibrations'])} samples", file=sys.stderr)
        metrics = {name: {"value": value, "unit": name.rsplit("_", 1)[-1]} for name, value in values.items()}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}

    attempted, failed = len(run["ops"]), len(run["failures"])
    latencies = [dt for _, _, _, dt in run["ops"]]
    beyond = sum(1 for t in latencies if t > p50_p90(latencies)[1])
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} rounds={run['rounds']} "
          f"ops={attempted} beyond_p90={beyond} failed={failed} failed_frac={failed / attempted:.4g}",
          file=sys.stderr)
    if args.workload == "campaign":
        rows = sum(len(out or []) for _, out in run["outputs"])
        print(f"# campaign rows={rows} bit-identical to reference={workload.exact_rows}", file=sys.stderr)
    for label, cause in run["failures"]:
        print(f"# FAILED {label}: {cause}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
