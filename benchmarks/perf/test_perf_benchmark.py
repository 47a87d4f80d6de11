"""Tier-1 guard for the perf benchmark: every workload at ``--smoke`` size,
untraced and traced, through the same command the benchmark driver uses."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def load(name: str):
    """Import a benchmark module by path (the directory is not a package)."""
    spec = importlib.util.spec_from_file_location(f"perf_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """Every workload x trace mode, started together: ``(workload, trace)``
    -> (result line, detail record, spans)."""
    out = tmp_path_factory.mktemp("perf")
    started = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            stem = out / f"{workload}_{trace}"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--smoke",
                "--seed", "5", "--seconds", "0.2", "--trace", str(trace),
                "--detail", f"{stem}.json", "--spans", f"{stem}.spans.json",
            ]
            started[workload, trace] = stem, subprocess.Popen(
                command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
            )
    results = {}
    for key, (stem, process) in started.items():
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, f"{key}: {stdout[-2000:]}\n{stderr[-2000:]}"
        results[key] = (
            json.loads(stdout.strip().splitlines()[-1]),
            json.loads(Path(f"{stem}.json").read_text()),
            json.loads(Path(f"{stem}.spans.json").read_text()),
        )
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_the_contract(runs, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = runs[workload, trace][0]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
        assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert all(m["value"] > 0 for m in runs[workload, 0][0]["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_equal_untraced_counts(runs, workload):
    """The exact counts come from the same op whether the run is traced or
    not, so two result files of either kind can be compared."""
    untraced, traced = (runs[workload, trace][1] for trace in (0, 1))
    assert untraced["counts"] and untraced["counts"] == traced["counts"]
    assert untraced["input_digest"] == traced["input_digest"]


def test_every_layer_metric_is_produced_by_some_workload(runs):
    """The contract names no per-layer metric the benchmark cannot produce."""
    produced = set()
    for workload in WORKLOADS:
        produced |= set(runs[workload, 1][1]["layers"])
    assert {m["name"] for m in CONTRACT["per_layer"]} <= produced


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_cover_the_op(runs, workload):
    _, record, spans = runs[workload, 1]
    assert spans and record["missing_targets"] == []
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["op"] == span["op"]
    assert record["layers"]["trace.attributed_share"] >= 0.9


def test_planes_agree_bit_for_bit(runs):
    sql, shards = (runs[w, 0][1] for w in ("pagerank_sql", "pagerank_shards"))
    assert sql["input_digest"] == shards["input_digest"]
    assert sql["fingerprint"] == shards["fingerprint"]


def test_inputs_follow_the_seed():
    inputs = load("inputs")

    def digest(seed: int) -> str:
        return inputs.digest(inputs.social_inputs(np.random.default_rng(seed), 200, 1500, 20, True))

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_missing_wrap_target_degrades_to_null():
    tracing = load("tracing")
    gone = (
        "repro.core.storage", "GraphStorage.renamed_away", "storage.gone_s", "storage.gone_self_s"
    )
    tracer = tracing.Tracer(targets=(*tracing.TARGETS[:3], gone))
    tracer.install()
    try:
        assert tracer.missing == ["repro.core.storage:GraphStorage.renamed_away"]
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["storage.gone_s"] is None and metrics["storage.gone_self_s"] is None
    assert metrics["runner.run_s"] == 0.0
    # the driver's result line needs a number: -1, which no measurement reads
    record = {"trace": True, "correct": True, "attempted": 1, "failed": 0, "layers": metrics}
    contract = {"per_layer": [{"name": "storage.gone_s", "unit": "s"},
                              {"name": "runner.run_s", "unit": "s"}]}
    line = load("run").result_line(record, contract)["metrics"]
    assert line["storage.gone_s"]["value"] == -1.0 and line["runner.run_s"]["value"] == 0.0


def test_check_accepts_a_file_against_itself(runs, tmp_path, capsys):
    check = load("check")
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"workloads": {w: [runs[w, 0][1]] for w in WORKLOADS}}))
    assert check.main(str(path), str(path), CONTRACT) == 0
    assert "0 unresolved, 0 regressed, 0 mismatch" in capsys.readouterr().out


def test_check_flags_a_regression_and_a_drifted_count(runs, tmp_path, capsys):
    check = load("check")
    base = {w: [runs[w, 0][1]] for w in WORKLOADS}
    worse = json.loads(json.dumps(base))
    worse["pagerank_sql"][0]["metrics"]["op_s"]["value"] *= 1.5
    worse["serving_mixed"][0]["counts"]["serving.cache_misses"] += 1
    paths = []
    for name, records in (("a", base), ("b", worse)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"workloads": records}))
    assert check.main(str(paths[0]), str(paths[1]), CONTRACT) == 1
    assert "1 regressed, 1 mismatch" in capsys.readouterr().out
