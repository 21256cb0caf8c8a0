"""Fold the run records in ``.perfbench/results/`` into one trajectory point.

    python3 perfbench/summarize.py > perfbench/trajectory/BENCH_<k>.json

For each workload and metric it gives the median over runs (one per seed)
and the quartile spread, ``(q3 - q1) / median`` as in
``statistics.quantiles(values, n=4)``, with the provenance of the runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench" / "results"


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted(RESULTS.glob("*.json"))]
    if not records:
        print(f"error: no run records in {RESULTS}", file=sys.stderr)
        return 1
    out = {"provenance": {}, "workloads": {}}
    for rec in records:
        prov = rec["provenance"]
        for key in ("python", "git_sha", "src_lines", "nproc", "seconds"):
            out["provenance"].setdefault(key, prov[key])
        mode = "per_layer" if prov["trace"] else "end_to_end"
        wl = out["workloads"].setdefault(prov["workload"], {})
        wl.setdefault(f"{mode}_seeds", []).append(prov["seed"])
        if not rec["correct"]:
            wl["failed_runs"] = wl.get("failed_runs", 0) + 1
        for name, metric in rec["metrics"].items():
            wl.setdefault(mode, {}).setdefault(name, {"unit": metric["unit"], "values": []})
            wl[mode][name]["values"].append(metric["value"])
    for wl in out["workloads"].values():
        for mode in ("end_to_end", "per_layer"):
            for metric in wl.get(mode, {}).values():
                values = metric.pop("values")
                median = statistics.median(values)
                metric["median"] = median
                metric["runs"] = len(values)
                if len(values) >= 2 and median:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    metric["spread"] = (q3 - q1) / median
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
