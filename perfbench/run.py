"""Benchmark runner for the TDH / EAI reproduction.

    python3 perfbench/run.py --workload crowd-eai-bp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each

Run from the root of a checkout: the program is imported from ``src/``
next to this directory and nowhere else. One run sets up its workload,
repeats the workload's operation until ``--seconds`` of operations have
been timed, checks every output outside the timed region, and prints each
metric with its unit, then one JSON result as the last line of stdout.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates plain and traced calls over the same time and
reports the per-layer metrics plus the tracing overhead.
A full report (set-up details, samples, environment and, when traced,
every span) is written to ``.perfbench/`` at the checkout root.

The exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

_now = time.perf_counter


@dataclass
class Pass:
    """What one measuring pass saw."""

    samples: list[float] = field(default_factory=list)  # seconds per operation, one per run() call
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    infos: list[dict] = field(default_factory=list)
    last: object = None

    @property
    def ops(self) -> int:
        return self.attempted - self.failed


def _step(wl, p: Pass, rec=None) -> float:
    """Run, time and check one ``wl.run()`` call into ``p``; return its timed seconds."""
    n = wl.ops_per_run
    p.attempted += n
    p.last = None  # hold one output at a time, so peak RSS does not grow with the operations run
    if rec is not None:
        rec.phase, rec.op, rec.active = "op", rec.op + 1, True
    t0 = _now()
    try:
        out = wl.run()
    except Exception:  # counted and reported; the caller stops measuring
        p.failed += n
        p.problems.append(traceback.format_exc())
        return float("inf")
    finally:
        dt = _now() - t0
        if rec is not None:
            rec.active = False
    try:
        problems = wl.check(out)
    except Exception:
        problems = [traceback.format_exc()]
    if problems:
        p.failed += n
        p.problems += problems
    else:
        p.samples.append(dt / n)
        p.infos.append(wl.info(out))
        p.last = out
    return dt


def measure(wl, seconds: float, rec=None) -> tuple[Pass, Pass | None]:
    """Repeat ``wl.run()`` until ``seconds`` of it have been timed.

    With a recorder, plain and traced calls alternate, so slow drift of the
    machine or of the program's warm-up weighs on both passes alike.
    """
    plain, traced = Pass(), (Pass() if rec is not None else None)
    steps = [(plain, None)] if rec is None else [(plain, None), (traced, rec)]
    spent = 0.0
    while spent < seconds:
        for p, r in steps:
            spent += _step(wl, p, r)
    return plain, traced


def _use_checkout_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'repro'}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def _isolate(work: Path) -> None:
    """Keep temporary files and Spark's scratch space inside the checkout."""
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    (work / "spark-local").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"  # the session's own settings apply
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # no JVM perf files in the system temp dir
    for k in ("PYSPARK_GATEWAY_PORT", "PYSPARK_GATEWAY_SECRET"):
        os.environ.pop(k, None)


def _run_all(args, names: list[str]) -> int:
    """Every workload in its own process, so peak RSS and Spark stay per workload."""
    worst = 0
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--sf", str(args.sf)]
        if args.rounds is not None:
            cmd += ["--rounds", str(args.rounds)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def _run_one(args, declared: dict) -> int:
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    if args.rounds is not None and isinstance(wl, workloads.Crowd):
        wl.ops_per_run = args.rounds
    work = OUT / f"run-{os.getpid()}"
    _isolate(work)
    rec = None
    try:
        if args.trace:
            rec = spans.Recorder()
            rec.install()
            rec.active = True
        setup = wl.setup(args.seed, args.sf)
        if rec is not None:
            rec.active = False
        wl.prepare_checks()
        plain, traced = measure(wl, args.seconds, rec)
        passes = {"plain": plain} if traced is None else {"plain": plain, "traced": traced}
        quality = wl.quality(plain.last) if plain.last is not None else {}
    finally:
        wl.teardown()
        if rec is not None:
            rec.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes.values())
    failed = sum(p.failed for p in passes.values())
    nan = float("nan")  # no operation passed: no time to report, and never a best one
    op_s = statistics.median(plain.samples) if plain.samples else nan
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "sf": args.sf,
        "config": wl.config(),
        "setup": setup,
        "quality": quality,
        "passes": {k: {"samples": p.samples, "attempted": p.attempted, "failed": p.failed,
                       "infos": p.infos} for k, p in passes.items()},
        "problems": [q for p in passes.values() for q in p.problems],
    }
    if args.trace:
        traced_op_s = statistics.median(traced.samples) if traced.samples else nan
        values, absent = spans.layer_metrics(rec, traced.ops, traced.infos)
        values["trace.overhead_frac"] = traced_op_s / op_s - 1.0
        report["trace"] = {
            "absent_metrics": absent,
            "plain_op_s": op_s,
            "traced_op_s": traced_op_s,
            "self_sum_per_op_s": (rec.self_s("") / traced.ops) if traced.ops else 0.0,
            **rec.dump(),
        }
        kind = "per_layer"
    else:
        values = {
            "op_s": op_s,
            "setup_s": setup["setup_s"],
            "accuracy": quality.get("accuracy", 0.0),
            "gen_accuracy": quality.get("gen_accuracy", 0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json {kind}")
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str))

    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for k, m in metrics.items():
        print(f"{wl.name} {k} = {m['value']:.6g} {m['unit']}")
    for k, v in quality.items():
        if k not in metrics:
            print(f"{wl.name} {k} = {v:.6g} (not a metric: spreads too widely across seeds)")
    print(f"{wl.name} config: {json.dumps({**wl.config(), **setup.get('environment', {})})}")
    print(f"{wl.name} report: {path.relative_to(ROOT)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sf", type=float, default=1.0,
                    help="dataset scale factor; the benchmark is defined at 1, smaller is for self-tests")
    ap.add_argument("--rounds", type=int, default=None,
                    help="crowd rounds per run_crowdsourcing call instead of the workload's; for self-tests")
    args = ap.parse_args(argv)
    if not (args.seconds > 0 and args.sf > 0 and (args.rounds is None or args.rounds > 0)):
        ap.error("--seconds, --sf and --rounds must be positive")
    _use_checkout_program()
    if args.workload == "all":
        return _run_all(args, names)
    return _run_one(args, declared)


if __name__ == "__main__":
    sys.exit(main())
