"""cexpect benchmark: times `cexpect verify` passes and checks their outputs.

    python3 perfbench/run.py --workload tabulation --seed 1 --seconds 20 --trace 0

Run it from a cexpect checkout; it imports the package from `src/`. A pass
runs every config of the workload through `cli.run_experiment`, then
`cli.write_outputs` into its own directory, as `cexpect verify <experiment>
--config <file>` would. Passes repeat until `--seconds` have gone by. The
last line printed is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, which holds the end-to-end metrics with `--trace 0` and the
per-layer metrics with `--trace 1` (see README.md).
"""

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from oracles import Capture, Check, run_oracles
from tracer import Tracer
from workloads import WORKLOADS, defect_configs, workload_configs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5
IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import cexpect, cexpect.cli\n"
    "print(time.perf_counter() - t)\n"
)


@dataclass
class Outcome:
    cfg: dict
    result: object
    error: str


def measure_setup():
    """Seconds a fresh interpreter spends importing cexpect and cexpect.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def run_pass(cli, errors, configs, workers, out_dir, observer=None):
    """One `cexpect verify` per config; a failing operation does not stop the pass."""
    outcomes = []
    for i, cfg in enumerate(configs):
        if observer is not None:
            observer.op = i
        started = time.perf_counter()
        try:
            result = cli.run_experiment(cfg, workers=workers)
            cli.write_outputs([(cfg, result, time.perf_counter() - started)], out_dir / f"op{i}")
        except errors.CexpectError as exc:
            outcomes.append(Outcome(cfg, None, f"{type(exc).__name__}: {exc}"))
            continue
        outcomes.append(Outcome(cfg, result, None if result.all_satisfied else "unsatisfied verdict"))
    return outcomes


def report_bytes(out_dir, op):
    """The report files of one operation; the manifest holds timings and is left out."""
    files = sorted(p for p in (out_dir / f"op{op}").glob("*") if p.name != "manifest.json")
    return b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in files)


def digest(out_dir, n_ops):
    h = hashlib.sha256()
    for op in range(n_ops):
        h.update(report_bytes(out_dir, op))
    return h.hexdigest()


def quartiles(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, configs=None):
    """Run the benchmark; `configs` overrides the workload's list."""
    args = parse_args(argv)
    if not (SRC / "cexpect" / "cli.py").is_file():
        print(f"perfbench: no cexpect package under {SRC}; run it in a cexpect checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = WORKLOADS[args.workload]
    workers = spec["workers"]
    if configs is None:
        configs = workload_configs(args.workload, args.seed)
    defects = defect_configs(args.workload, args.seed)

    setup_times = measure_setup()
    from cexpect import cli, errors

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return measure(args, cli, errors, configs, defects, workers, setup_times, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, errors, configs, defects, workers, setup_times, work):
    n_ops = len(configs)
    capture = Capture()
    walls = []
    passes = []
    with capture.installed():
        begun = time.perf_counter()
        while True:
            capture.calls.clear()
            out_dir = work / f"pass{len(passes)}"
            started = time.perf_counter()
            outcomes = run_pass(cli, errors, configs, workers, out_dir, capture)
            walls.append(time.perf_counter() - started)
            passes.append((out_dir, outcomes))
            if time.perf_counter() - begun >= args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [
        f"pass {k} op {i} {o.cfg['experiment']}: {o.error}"
        for k, (_, outcomes) in enumerate(passes)
        for i, o in enumerate(outcomes)
        if o.error
    ]
    attempted = n_ops * len(passes)

    last_dir, last = passes[-1]
    checks = run_oracles(args.workload, capture, [(o.cfg, o.result) for o in last])
    capture.calls.clear()
    first_digest = digest(passes[0][0], n_ops)
    for k, (out_dir, _) in enumerate(passes[1:], start=1):
        checks.append(Check(None, f"pass {k} report bytes equal pass 0",
                            digest(out_dir, n_ops) == first_digest, ""))
    if workers > 1:
        serial_dir = work / "workers1"
        run_pass(cli, errors, configs, 1, serial_dir)
        for i in range(n_ops):
            same = report_bytes(serial_dir, i) == report_bytes(last_dir, i)
            checks.append(Check(i, f"workers={workers} report bytes equal workers=1", same, ""))

    defect_failures = [
        o for o in run_pass(cli, errors, defects, 1, work / "defects") if o.error
    ]

    if args.trace:
        tracer = Tracer()
        with tracer.installed() as absent:
            started = time.perf_counter()
            traced = run_pass(cli, errors, configs, workers, work / "traced", tracer)
            traced_wall = time.perf_counter() - started
        attempted += n_ops
        failures += [f"traced op {i} {o.cfg['experiment']}: {o.error}"
                     for i, o in enumerate(traced) if o.error]
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        metrics = layer_metrics(tracer, traced_wall, statistics.median(walls), len(defect_failures))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    attempted += len(checks)
    failed = len(failures) + sum(not c.ok for c in checks)

    print(f"workload {args.workload}  seed {args.seed}  workers {workers}  passes {len(passes)}")
    for name, values, unit in (("wall_s", walls, "s"), ("setup_s", setup_times, "s")):
        med, q1, q3 = quartiles(values)
        print(f"  {name:12s} {med:10.4f} {unit}   q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    print(f"  {'peak_rss_mb':12s} {peak_rss_mb:10.1f} MB")
    print(f"  {'fail_frac':12s} {failed / attempted:10.4f}      {failed} of {attempted} "
          f"(operations and {len(checks)} checks)")
    print(f"  report sha256 {first_digest}")
    if defects:
        print(f"  known defects: {len(defect_failures)} of {len(defects)} operations still fail")
        for o in defect_failures:
            print(f"    {o.cfg['experiment']}: {o.error[:120]}")
    for c in checks:
        print(f"  {'ok' if c.ok else 'FAILED'} check: {c.label} (op {c.op}) {c.detail}")
    for line in failures:
        print(f"  FAILED {line}")
    if args.trace:
        if absent:
            print(f"  absent entry points: {', '.join(absent)}")
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
        top = sorted(((v["value"], k) for k, v in metrics.items() if k.endswith(".self_s")),
                     reverse=True)[:5]
        print("  top self time: " + ", ".join(f"{k[:-7]} {v:.3f}s" for v, k in top))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(tracer, traced_wall, untraced_wall, defects_failed):
    metrics = {}
    for name, (self_s, calls) in tracer.layer_metrics().items():
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
    metrics["ordered.records_kept_frac"] = {"value": tracer.records_kept_frac(), "unit": "ratio"}
    metrics["rng.rows_per_s"] = {"value": tracer.rows_per_s(), "unit": "rows/s"}
    metrics["trace.unaccounted_s"] = {"value": traced_wall - tracer.total_self_s(), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    metrics["defects.failed"] = {"value": defects_failed, "unit": "count"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
