"""The repo's one performance benchmark (see README.md beside this file).

One workload, as the benchmark driver runs it (last stdout line is the
result object; ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones)::

    python3 benchmarks/perf/run.py --workload pagerank_sql --seed 11 --seconds 16 --trace 0

Add one run of each of the seven workloads, every run a fresh subprocess,
to the set in a result file::

    python3 benchmarks/perf/run.py --seed 11 --out a.json [--runs 1] [--trace] [--smoke]

Compare two result files::

    python3 benchmarks/perf/run.py --check a.json b.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = ROOT / "BENCHMARK.json"

#: set-ups per run: the first is cold (first touch of the program's code
#: paths) and is reported apart; ``setup_s`` is the median of the rest.
#: Cheap set-ups repeat up to ``MAX_SETUPS`` times within ``SETUP_SHARE`` of
#: ``--seconds``
MIN_SETUPS = 4
MAX_SETUPS = 12
SETUP_SHARE = 0.2
#: fewest timed ops; ``peak_rss_mb`` is read after exactly this many, so
#: that it does not depend on how many ops the host fits into ``--seconds``
MIN_OPS = 5
#: index of the op whose exact counts are reported: the first timed one,
#: traced or not
COUNTED_OP = 1


def summary(values: list[float], unit: str, better: str, value: float | None = None) -> dict:
    """A metric with the spread of the per-op (or per-set-up) values behind it."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "value": statistics.median(values) if value is None else value,
        "unit": unit,
        "better": better,
        "n": len(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
    }


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(workload, tracer, trace_every: int, first_index: int, deadline: float,
               min_ops: int):
    """``min_ops`` ops, then more while the next one still fits before
    ``deadline``; ``gc.collect()`` before each.  An op that raises is a
    failed op.  Every ``trace_every``-th op is traced, from the first on
    (0: none)."""
    from workloads import Step

    steps = []
    while len(steps) < min_ops or (
        steps and perf_counter() + 1.1 * steps[-1].seconds < deadline
    ):
        gc.collect()
        index = first_index + len(steps)
        tracer.enabled = bool(trace_every) and len(steps) % trace_every == 0
        started = perf_counter()
        try:
            with tracer.op("step", index):
                step = workload.step(index)
        except Exception:
            step = Step(
                {}, work=0, seconds=perf_counter() - started,
                errors=[traceback.format_exc(limit=3)],
            )
        step.index = index
        step.traced = tracer.enabled
        step.rss_mb = peak_rss_mb()
        steps.append(step)
    tracer.enabled = False
    return steps


def samples_of(step, series: str) -> list[float]:
    value = step.samples.get(series, [])
    return value if isinstance(value, list) else [value]


def named_metric(steps: list, series: str, stat: str) -> dict | None:
    """A workload's own timing metric: the statistic over every sample of
    the run, with the spread of the same statistic taken op by op."""
    def of(values):
        return statistics.median(values) if stat == "p50" else percentile(values, int(stat[1:]))

    per_op = [of(samples_of(step, series)) for step in steps if samples_of(step, series)]
    if not per_op:
        return None
    pooled = [value for step in steps for value in samples_of(step, series)]
    return summary(per_op, "s", "lower", of(pooled))


def end_to_end(workload, setups: list[float], warm_up, steps: list, rss: float,
               failed_share: float) -> dict:
    """The contract's metrics, then the workload's named ones, then the
    informational ones."""
    nan = float("nan")
    ok = [step for step in steps if step.work_seconds]
    metrics = {
        "setup_s": summary(setups[1:] or setups, "s", "lower"),
        "op_s": named_metric(steps, workload.op_series, "p50") or summary([nan], "s", "lower"),
        "work_per_s": summary(
            [step.work / step.work_seconds for step in ok] or [nan], "1/s", "higher"
        ),
        "peak_rss_mb": summary([rss], "MB", "lower"),
        "failed_share": summary([failed_share], "share", "lower"),
    }
    for name, series, stat in workload.named_metrics:
        metric = named_metric(steps, series, stat)
        if metric:
            metrics[name] = metric
    runs = [(samples_of(s, "run_msgs")[0], samples_of(s, "run_s")[0]) for s in steps
            if samples_of(s, "run_s")]
    if runs:
        metrics["msgs_per_s"] = summary([m / t for m, t in runs], "1/s", "higher")
    if workload.work_unit == "requests":
        metrics["serve_rps"] = metrics["work_per_s"]
    metrics["setup_cold_s"] = summary(setups[:1], "s", "lower")
    metrics["warmup_s"] = summary([warm_up.seconds], "s", "lower")
    return metrics


def per_layer(workload, tracer, steps: list, untraced: list) -> dict:
    """The program's own layer statistics (exact counts from op
    ``COUNTED_OP``, the rest as medians over ops) and, from a traced run,
    the span metrics and the trace's own."""
    from workloads import EXACT_COUNTS

    seen: dict[str, list[float]] = {}
    for step in steps:
        for name, value in step.layers.items():
            seen.setdefault(name, []).append(value)
    layers: dict[str, float | None] = {
        name: values[0] if name in EXACT_COUNTS else statistics.median(values)
        for name, values in seen.items()
    }
    if untraced:
        layers.update(tracer.layer_metrics())
        traced_op, base_op = (
            named_metric(ops, workload.op_series, "p50")["value"] for ops in (steps, untraced)
        )
        walls = {step.index: step.traced_wall or step.seconds for step in steps}
        layers["trace.overhead_share"] = traced_op / base_op - 1.0
        layers["trace.attributed_share"] = tracer.attributed_share(walls)
        layers["trace.missing_targets"] = len(tracer.missing)
    return layers


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool, why: str):
    """Run one workload; returns its result record and the tracer.

    ``--seconds`` covers everything measured: the set-ups, the warm-up op
    and the timed ops.  Input generation and the end-of-run oracle checks
    come on top."""
    import inputs
    import workloads
    from tracing import Tracer

    started = perf_counter()
    workload = workloads.build(name, seed, smoke)
    gen_s = perf_counter() - started
    min_setups, min_ops = (2, 2) if smoke else (MIN_SETUPS, MIN_OPS)

    tracer = Tracer()
    if trace:
        tracer.install()
    try:
        began = perf_counter()
        deadline = began + seconds
        setups: list[float] = []
        while len(setups) < min_setups or (
            len(setups) < MAX_SETUPS and perf_counter() - began < SETUP_SHARE * seconds
        ):
            if setups:
                workload.teardown()
            gc.collect()
            tracer.enabled = trace
            started = perf_counter()
            with tracer.op("setup", len(setups)):
                workload.setup()
            setups.append(perf_counter() - started)
        (warm_up,) = timed_loop(workload, tracer, 0, 0, 0.0, 1)

        # A traced run traces every other op, so that the untraced ones, the
        # base of ``trace.overhead_share``, see the same spells of the host.
        # The first timed op is traced: it has the same index as in an
        # untraced run, so its exact counts are comparable between the two.
        timed = timed_loop(workload, tracer, 2 if trace else 0, COUNTED_OP, deadline, min_ops)
        steps = [step for step in timed if step.traced or not trace]
        untraced = [step for step in timed if trace and not step.traced]
        every = [warm_up] + timed
        errors = [error for step in every for error in step.errors] + workload.finish()
        attempted = sum(step.attempted for step in every)
        failed = min(attempted, len(errors))
        rss = timed[min_ops - 1].rss_mb
        metrics = end_to_end(workload, setups, warm_up, steps, rss, failed / attempted)
        layers = per_layer(workload, tracer, steps, untraced)
        workload.teardown()
    finally:
        tracer.uninstall()

    record = {
        "workload": name,
        "why": why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "input_digest": inputs.digest(workload.arrays),
        "gen_s": gen_s,
        "op": workload.op_series,
        "work_unit": workload.work_unit,
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "fingerprint": workload.fingerprint,
        "setup_seconds": setups,
        "op_seconds": [step.seconds for step in steps],
        "metrics": metrics,
        "counts": {k: v for k, v in layers.items() if k in workloads.EXACT_COUNTS},
        "layers": layers,
        "missing_targets": tracer.missing,
    }
    return record, tracer


def result_line(record: dict, contract: dict) -> dict:
    """The driver's result object: every end-to-end metric of the contract
    (untraced) or every per-layer one (traced).  The driver wants a number
    for each: a layer the workload does not touch reads 0, a metric whose
    wrap target is missing reads -1 (``null`` in the result files)."""
    if record["trace"]:
        layers = record["layers"]
        metrics = {
            m["name"]: {
                "value": -1.0 if layers.get(m["name"], 0.0) is None else layers.get(m["name"], 0.0),
                "unit": m["unit"],
            }
            for m in contract["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": record["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in contract["end_to_end"]
        }
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_record(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, op = {record['op']}, "
          f"work = {record['work_unit']}) ==")
    for name, m in record["metrics"].items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']:6s} "
              f"n={m['n']} q1={m['q1']:.6g} q3={m['q3']:.6g} min={m['min']:.6g}")
    for name, value in sorted(record["layers"].items()):
        print(f"{name:36s} {'null' if value is None else format(value, '.6g')}")
    for error in record["errors"]:
        print("ERROR", error)


def wait_for_resource_tracker() -> None:
    """The program's process executor uses shared memory, whose tracker
    process otherwise outlives this one by a moment; stop it and wait."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def run_one(args, contract: dict) -> int:
    why = {w["name"]: w["why"] for w in contract["workloads"]}[args.workload]
    record, tracer = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, why
    )
    wait_for_resource_tracker()
    print_record(record)
    if args.detail:
        Path(args.detail).write_text(json.dumps(record, indent=1))
    if args.spans:
        Path(args.spans).write_text(json.dumps(tracer.span_records(args.workload)))
    print(json.dumps(result_line(record, contract)))
    return 0 if record["correct"] else 1


def environment(seed: int, trace: int, smoke: bool) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
    }


def run_suite(args, contract: dict) -> int:
    """Add ``--runs`` runs of every workload of the contract to the set in
    ``--out`` (created when missing), each run in its own fresh process.

    Sets to be compared are best grown alternately, one run at a time, so
    that a slow spell of the host falls on both alike."""
    names = [w["name"] for w in contract["workloads"]]
    out = {
        "env": environment(args.seed, args.trace, args.smoke),
        "workloads": {name: [] for name in names},
    }
    path = Path(args.out)
    if path.exists():
        held = json.loads(path.read_text())
        if held["env"] != out["env"]:
            print(f"{path} holds runs of {held['env']}, not of {out['env']}", file=sys.stderr)
            return 2
        out = held
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        detail = Path(scratch) / "record.json"
        for _ in range(args.runs):
            for name in names:
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--detail", str(detail),
                ] + (["--smoke"] if args.smoke else [])
                subprocess.run(command, cwd=ROOT, check=False)
                if not detail.exists():
                    return 1
                out["workloads"][name].append(json.loads(detail.read_text()))
                detail.unlink()
            path.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all(r["correct"] for runs in out["workloads"].values() for r in runs) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="inputs about 1/50 the size")
    parser.add_argument("--out", help="add runs of every workload to the set in this file")
    parser.add_argument("--runs", type=int, default=1, help="with --out: runs per workload")
    parser.add_argument("--detail", help="with --workload: write the full record here")
    parser.add_argument("--spans", help="with --workload --trace: write the spans here")
    parser.add_argument("--check", nargs=2, metavar=("A", "B"), help="compare two result files")
    args = parser.parse_args(argv)

    contract = json.loads(CONTRACT.read_text())
    sys.path.insert(0, str(HERE))
    if args.check:
        import check

        return check.main(args.check[0], args.check[1], contract)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(contract["run_seconds"])
    if args.workload:
        return run_one(args, contract)
    if args.out:
        return run_suite(args, contract)
    parser.error("one of --workload, --out or --check is required")


if __name__ == "__main__":
    sys.exit(main())
