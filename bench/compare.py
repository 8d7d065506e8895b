"""Compare two result sets of the benchmark: a parent and a change.

A result set is a directory of result files written by ``run.py`` (under
``.bench_runs/results/``) or a JSON file holding a list of such records,
like ``bench/baseline.json``.  Untraced runs are compared per workload and
end-to-end metric, plus the per-command times of multi-command workloads.
Runs are paired in seed order, so two sets run on the same seeds pair
run for run.

The verdict follows the measuring rule for a small sandbox:

* ``gain``: the change wins at least 9/10 of all pairs (ties count for
  neither) and the medians differ by more than the parent's own spread,
  the distance between its quartiles;
* ``unresolved``: either side's quartile spread, as a share of its median,
  exceeds the metric's bound, unless every run of the change beats every
  run of the parent (then ``better in every run``);
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

GAIN_SHARE = 0.9


def load_results(path: str) -> list[dict]:
    if os.path.isdir(path):
        records = []
        for name in sorted(glob.glob(os.path.join(path, "*.json"))):
            with open(name, encoding="ascii") as handle:
                records.append(json.load(handle))
        return records
    with open(path, encoding="ascii") as handle:
        return json.load(handle)


def _values(records: list[dict], workload: str, metric: str) -> dict[int, float]:
    out = {}
    for rec in records:
        if rec["workload"] != workload or rec["trace"] != 0:
            continue
        entry = rec["metrics"].get(metric) or rec.get("detail", {}).get(metric)
        if entry is not None:
            out[rec["seed"]] = entry["value"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> tuple[str, float]:
    """Verdict and share of pairs the change won."""
    sign = 1.0 if lower_is_better else -1.0

    def better(a, b):  # a beats b
        return sign * (a - b) < 0

    wins = sum(1 for p, c in pairs if better(c, p))
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    if share >= GAIN_SHARE and better(cm, pm) and abs(cm - pm) > (p3 - p1):
        return "gain", share
    if spread > bound:
        if all(better(c, p) for c in change for p in parent):
            return "better in every run", share
        return "unresolved", share
    if worse_by > bound:
        return "regression", share
    return "within bound", share


def main(parent_path: str, change_path: str, benchmark: dict) -> int:
    """Print one verdict row per workload and metric; 1 if any regressed or
    is unresolved.  Per-command times share the bound of run_s."""
    parent, change = load_results(parent_path), load_results(change_path)
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    run_s = specs["run_s"]
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    print(f"{'workload':12s} {'metric':16s} {'parent q1/med/q3':>30s} {'change q1/med/q3':>30s} "
          f"{'won':>5s}  verdict")
    worst = 0
    for workload in workloads:
        names = list(specs)
        extra = sorted({k for r in parent + change if r["workload"] == workload
                        for k in r.get("detail", {}) if k.endswith("_s")})
        if len(extra) > 1:  # per-command times only matter with several commands
            names += extra
        for metric in names:
            spec = specs.get(metric, {**run_s, "name": metric})
            pv, cv = _values(parent, workload, metric), _values(change, workload, metric)
            if not pv or not cv:
                continue
            pairs = [(pv[a], cv[b]) for a, b in zip(sorted(pv), sorted(cv))]
            text, share = verdict(list(pv.values()), list(cv.values()), pairs,
                                  spec["bound"], spec["better"] == "lower")
            worst = max(worst, text in ("regression", "unresolved"))
            pq, cq = quartiles(list(pv.values())), quartiles(list(cv.values()))
            print(f"{workload:12s} {metric:16s} {_fmt(pq):>30s} {_fmt(cq):>30s} "
                  f"{share:5.0%}  {text} (bound {spec['bound']:.0%}, {len(pairs)} pairs)")
    return 1 if worst else 0


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)
