"""parmm benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports parmm from ``src/``.  The
workloads are replay-n2, bundle-n2, bundle-n5 and v3-pool (workloads.py
builds them, BENCHMARK.json says why each exists).  Each run is one fresh
process with BLAS and OpenMP pinned to one thread, driving a closed loop with
one caller.  The inputs come from the seed alone (inputs.py).

--trace 0 times operations for S seconds and prints the end-to-end metrics.
Set-up time is the median of SETUP_RUNS fresh processes, each timing
``import parmm`` plus building the opening market, spread over the run.
Times are scaled to a reference machine speed measured alongside them
(machine.py says why); the raw values are printed beside them.

--trace 1 runs a fixed number of operations, sized from S, in alternating
blocks of two untraced and two traced, and prints the per-module metrics
(tracer.py) with the tracing overhead.  Counters repeat exactly for a given
seed and S.  The spans are written to
``.bench_work/spans-<workload>-<seed>.jsonl``.

Every run checks outputs: each operation's result is checked as it completes,
and afterwards a fixed reference run is compared with reference.json.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its sample count.  The exit code is 0 only if every check passed.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
SETUP_RUNS = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_ok_frac": "frac",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "generators.grad_calls_per_op": "count",
    "generators.dg_calls_per_op": "count",
    "convex_core.solves_per_op": "count",
    "convex_core.grad_calls_per_solve": "count",
    "convex_core.solve_ms_p50": "ms",
    "convex_core.busy_frac": "frac",
    "convex_core.solves_diverged": "count",
    "convex_core.liability_calls_per_op": "count",
    "engine.trade_self_ms_p50": "ms",
    "engine.modify_ms_p50": "ms",
    "engine.quote_ms_p50": "ms",
    "engine.snapshot_ms_per_event": "ms",
    "two_asset.price2_ms_p50": "ms",
    "two_asset.trade_self_ms_p50": "ms",
    "two_asset.mint_ms_p50": "ms",
    "cli.replay_busy_frac": "frac",
    "cli.write_busy_frac": "frac",
    "cli.trace_bytes_per_event": "B",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}


def import_program():
    """Import parmm from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import parmm

    if not Path(parmm.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"parmm was imported from {parmm.__file__}, not from {SRC}")


def is_traced(i: int) -> bool:
    return i // 2 % 2 == 1


def run_ops(wl, market, ops, *, seconds=None, count=None, tracer=None, speed=None):
    """Closed loop over the operation inputs `ops`, until `seconds` have
    passed or `count` operations ran.  Returns the latency of every
    attempted operation and, for each, whether it raised ``ParmmError``;
    a failed operation counts at its full time.  With a `tracer`, operations
    run in blocks of two, blocks alternately untraced and traced, so both
    halves see the same warm-up and load; blocks of two also split evenly
    the workloads' own patterns (bundle-n5 alternates trades and quotes,
    v3-pool re-mints every tenth operation).  With a `speed`
    (machine.Speed), the calibration kernel runs before and after every
    operation.  A failed output check raises ``CheckFailed``."""
    from parmm import ParmmError

    times, failed = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if i == count or (seconds is not None and time.perf_counter() - start >= seconds):
            break
        call, verify = wl.prepare(market, op)
        if speed is not None:
            speed.between_ops()
        traced = tracer is not None and is_traced(i)
        if traced:
            tracer.install()
        ok = True
        t0 = time.perf_counter()
        try:
            result = tracer.call(call, wl.root) if traced else call()
        except ParmmError:
            ok = False
        finally:
            times.append(time.perf_counter() - t0)
            if traced:
                tracer.remove()
        failed.append(not ok)
        if ok:
            verify(result)
    if speed is not None:
        speed.stop()
    return times, failed


def reference_fingerprint(name: str, ref: dict, workdir: Path) -> dict:
    """Outputs of the fixed reference run described by `ref`."""
    import workloads

    if name == "replay-n2":
        wl = workloads.ReplayN2(ref["seed"], workdir, events=ref["events"])
        run_ops(wl, None, wl.ops(), count=1)
        return {"trace_sha256": wl.sha256}
    wl = workloads.WORKLOADS[name](ref["seed"], workdir)
    market = wl.build()
    run_ops(wl, market, wl.ops(), count=ref["ops"])
    return workloads.fingerprint(wl.state(market))


def check_reference(name: str, workdir: Path):
    import workloads

    ref = json.loads(REFERENCE.read_text())[name]
    got = reference_fingerprint(name, ref, workdir)
    if name == "replay-n2":
        if got["trace_sha256"] != ref["trace_sha256"]:
            raise workloads.CheckFailed("reference trace differs from the recorded one")
        return
    for key in ("price", "liabilities"):
        if not workloads.close(got[key], ref[key], ref["tol"]):
            raise workloads.CheckFailed(f"reference {key} differs from the recorded one")


def setup_seconds(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    """One set-up time, measured in a fresh process, and its scale factor."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=120, check=True)
    seconds, scale = proc.stdout.split()[-2:]
    return float(seconds), float(scale)


def _quantile(values, i: int, n: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=n)[i]


def end_to_end(wl, seconds: float, workdir: Path):
    """Time operations for `seconds`, in SETUP_RUNS - 1 equal stretches with
    a set-up probe before, between and after them: the probes then sample
    the machine across the whole run rather than in one burst.  Times are
    scaled to the reference machine (machine.py); the raw metrics come back
    beside the scaled ones."""
    from machine import Speed

    market = wl.build()
    ops = wl.ops()
    speed = Speed()
    setup = [setup_seconds(wl.name, wl.seed, workdir)]
    times, flags = [], []
    for _ in range(SETUP_RUNS - 1):
        more_times, more_flags = run_ops(wl, market, ops, seconds=seconds / (SETUP_RUNS - 1),
                                         speed=speed)
        times += more_times
        flags += more_flags
        setup.append(setup_seconds(wl.name, wl.seed, workdir))
    failed = sum(flags)
    ok = len(times) - failed
    ev = wl.events_per_op
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def metrics(op_times, setup_times):
        return {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": ok * ev / sum(op_times),
            "op_ms_p50": 1e3 * statistics.median(op_times),
            "op_ms_p90": 1e3 * _quantile(op_times, 8, 10),
            "ops_ok_frac": ok / len(op_times),
            "peak_rss_mb": rss,
        }

    scaled = metrics([t * f for t, f in zip(times, speed.factors)], [t * f for t, f in setup])
    raw = metrics(times, [t for t, _ in setup])
    samples = {name: len(times) for name in scaled}
    samples["setup_s"] = len(setup)
    samples["peak_rss_mb"] = 1
    return scaled, samples, len(times) * ev, failed * ev, raw


def traced(wl, seconds: float, spans_path: Path):
    from tracer import Tracer, layer_metrics

    count = 4 * max(1, math.ceil(wl.trace_rate * seconds / 4))
    tracer = Tracer()
    times, flags = run_ops(wl, wl.build(), wl.ops(), count=count, tracer=tracer)
    tracer.write(spans_path)
    ev = wl.events_per_op

    def half(on: bool):
        """Latencies and failure count of the traced or the untraced half."""
        picked = [i for i in range(len(times)) if is_traced(i) == on]
        return [times[i] for i in picked], sum(flags[i] for i in picked)

    traced_times, failed = half(True)
    plain_times, plain_failed = half(False)
    metrics, samples = layer_metrics(tracer.spans, len(traced_times) * ev)
    rate = (len(traced_times) - failed) * ev / sum(traced_times)
    rate_plain = (len(plain_times) - plain_failed) * ev / sum(plain_times)
    metrics.update({
        "cli.trace_bytes_per_event": wl.trace_bytes() / ev,
        "trace.ops_per_s": rate,
        "trace.untraced_ops_per_s": rate_plain,
        "trace.overhead_ops_per_s": rate - rate_plain,
    })
    samples.update({name: len(traced_times) for name in metrics
                    if name.startswith(("trace.", "cli.trace"))})
    return metrics, samples, len(traced_times) * ev, failed * ev, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="parmm benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    units = PER_LAYER if args.trace else END_TO_END
    correct = True
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            spans = WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, samples, attempted, failed, raw = traced(wl, args.seconds, spans)
        else:
            metrics, samples, attempted, failed, raw = end_to_end(wl, args.seconds, workdir)
        check_reference(args.workload, workdir)
    except workloads.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        # no metrics from a wrong run; the run itself is the failed attempt
        metrics, samples, attempted, failed, raw = {}, {}, 1, 1, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    for name, unit in units.items():
        if name in metrics:
            line = f"  {name:36s} {metrics[name]:>14.6g} {unit:6s} n={samples[name]}"
            print(line + (f"  raw {raw[name]:.6g}" if name in raw else ""))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
