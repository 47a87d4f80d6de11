"""``run.py --check A.json B.json``: did B regress against A?

A result file holds a *set*: several runs of every workload, each run a
fresh process (``run.py --out``).  A metric's value in a set is the median
of its per-run values, and its spread is the distance between their
quartiles as a share of that median — the same run-to-run spread the
benchmark driver computes.

One row per workload x end-to-end metric — both medians with their
quartiles, the change relative to A, the bound and a verdict — plus one
exact-equality row per count, input digest and value fingerprint.

Verdicts: ``regressed`` (B worse than A by more than the bound),
``unresolved`` (not regressed, but the spread of either side is wider than
the bound, so "unchanged" cannot be claimed), ``ok``, and ``info`` for
metrics that carry no bound.  Exit status 1 on ``regressed`` or a mismatch.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: shown, never judged: what a run reports beside its metrics.  A workload's
#: own metric that does not repeat within the bound across two sets of one
#: commit is added here (the demotion rule in README.md); none is at present
INFORMATIONAL = ("setup_cold_s", "warmup_s")


def across_runs(runs: list[dict], name: str) -> dict | None:
    """Median and quartiles of one metric over the runs of a set."""
    values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
    if not values:
        return None
    first = runs[0]["metrics"][name]
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
        "unit": first["unit"], "better": first["better"],
    }


def spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / abs(metric["value"]) if metric["value"] else 0.0


def verdict(name: str, ma: dict, mb: dict, bound: float) -> tuple[float, str]:
    base = ma["value"]
    change = (mb["value"] - base) / base if base else float(mb["value"] != base)
    worse = change if ma["better"] == "lower" else -change
    if name in INFORMATIONAL:
        return change, "info"
    if worse > bound:
        return change, "regressed"
    if max(spread(ma), spread(mb)) > bound:
        return change, "unresolved"
    return change, "ok"


def metric_rows(workload: str, a: list[dict], b: list[dict], contract: dict) -> list[tuple]:
    # a workload's own metric refines ``op_s`` (or its inverse) and takes its bound
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    bounds["failed_share"] = 0.0
    rows = []
    for name in a[0]["metrics"]:
        ma, mb = across_runs(a, name), across_runs(b, name)
        if mb is None:
            rows.append((workload, name, "", "", "", "", "mismatch"))
            continue
        bound = bounds.get(name, bounds["op_s"])
        change, word = verdict(name, ma, mb, bound)
        rows.append(
            (
                workload,
                name,
                f"{ma['value']:.5g} [{ma['q1']:.4g}, {ma['q3']:.4g}] n={ma['n']}",
                f"{mb['value']:.5g} [{mb['q1']:.4g}, {mb['q3']:.4g}] n={mb['n']}",
                f"{change:+.1%} of {ma['value']:.5g} {ma['unit']}",
                "" if word == "info" else f"{bound:.0%}",
                word,
            )
        )
    return rows


def exact_values(runs: list[dict]) -> dict:
    """Counts, digest and fingerprint of a set; a value that differs between
    the runs of one set reads as the list of what was seen."""
    out: dict = {}
    for run in runs:
        for name, value in {
            "input_digest": run["input_digest"], "fingerprint": run["fingerprint"], **run["counts"]
        }.items():
            out.setdefault(name, [])
            if value not in out[name]:
                out[name].append(value)
    return {name: seen[0] if len(seen) == 1 else seen for name, seen in out.items()}


def count_rows(workload: str, a: list[dict], b: list[dict]) -> list[tuple]:
    from_a, from_b = exact_values(a), exact_values(b)
    rows = []
    for name, value in from_a.items():
        other = from_b.get(name)
        if value is None and other is None:
            continue
        same = value == other and not isinstance(value, list)
        shown = [str(v)[:16] for v in (value, other)]
        rows.append((workload, name, *shown, "", "exact", "ok" if same else "mismatch"))
    return rows


def only_fingerprint(runs: list[dict]) -> str | None:
    seen = {run["fingerprint"] for run in runs}
    return seen.pop() if len(seen) == 1 else None


def main(path_a: str, path_b: str, contract: dict) -> int:
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    rows = []
    for workload in a:
        if not b.get(workload):
            rows.append((workload, "(missing in B)", "", "", "", "", "mismatch"))
            continue
        rows += metric_rows(workload, a[workload], b[workload], contract)
        rows += count_rows(workload, a[workload], b[workload])
    for records, label in ((a, "A"), (b, "B")):
        planes = [only_fingerprint(records.get(w, [])) for w in ("pagerank_sql", "pagerank_shards")]
        same = planes[0] is not None and planes[0] == planes[1]
        rows.append(
            (label, "pagerank_sql == pagerank_shards", *[str(p)[:16] for p in planes], "", "exact",
             "ok" if same else "mismatch")
        )

    header = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound",
              "verdict")
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    verdicts = [row[-1] for row in rows]
    print(
        f"\n{verdicts.count('ok')} ok, {verdicts.count('info')} info, "
        f"{verdicts.count('unresolved')} unresolved, {verdicts.count('regressed')} regressed, "
        f"{verdicts.count('mismatch')} mismatch"
    )
    return 1 if "regressed" in verdicts or "mismatch" in verdicts else 0
