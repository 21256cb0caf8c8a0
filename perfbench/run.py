"""hopfchar benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload butcher-n7 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is taken from its ``src``.
Workloads (see ``perfbench/README.md``): ``butcher-n7``, ``tensor-d2n7``,
``series-ck5`` drive the library in-process; ``cli-n6`` runs one CLI command
per process.  Each worker is a fresh interpreter started one after another,
single-threaded, as a closed loop with one client.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run plus the tracing overhead.  Every end-to-end time is
normalized by a reference run next to it (see ``calib.py``), so that the
phases in which a shared machine runs slower do not show as changes.
Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output checked out.  Each run's full record, with
provenance, is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import calib  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from workloads import OPS  # noqa: E402

#: Fresh interpreters per in-process run; each gives one ``setup_s`` sample.
SETUP_RUNS = 3
#: A cli-n6 round takes one ``setup_s`` sample before every this many commands.
FLOOR_EVERY = 5
#: A cli-n6 round runs one reference process before every this many commands.
REF_EVERY = 2
#: The trivial command whose wall time is ``setup_s`` on cli-n6.
FLOOR_COMMAND = ["trees", "--max-order", "1"]
#: Longest any child process may take.
CHILD_TIMEOUT = 150

LATENCY_METRICS = {op: f"{op}_ms" for op in OPS}

#: Layers each workload must exercise; a traced run with zero calls fails.
EXPECTED_LAYERS = {
    "butcher-n7": ("trees", "hopf", "convolution", "series", "characters",
                   "rings", "evolution", "ideals"),
    "tensor-d2n7": ("hopf", "convolution", "series", "characters", "rings",
                    "evolution", "ideals"),
    "series-ck5": ("trees", "hopf", "convolution", "series", "characters",
                   "rings", "evolution", "ideals"),
    "cli-n6": ("trees", "hopf", "convolution", "series", "characters",
               "rings", "evolution", "ideals", "cli"),
}


def end_to_end_units() -> dict:
    units = {"setup_s": "s", "ops_per_s": "1/s"}
    units.update({name: "ms" for name in LATENCY_METRICS.values()})
    units["peak_rss_mb"] = "MB"
    return units


def per_layer_units() -> dict:
    units = spans.metric_units()
    units["trace.ops_per_s"] = "1/s"
    units["trace.overhead"] = "ratio"
    return units


# -- child processes ------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"  # same set/dict iteration order in every run
    return env


def run_child(argv: list[str]) -> tuple[int, str, float, float]:
    """Run one process to completion: (exit code, stdout, wall s, its peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss / 1024


def worker(args_list: list[str]) -> dict:
    code, out, _wall, _rss = run_child([sys.executable, str(HERE / "worker.py")] + args_list)
    lines = out.strip().splitlines()
    if not lines:
        return {"attempted": 1, "failures": [f"worker exited {code} without a report"]}
    report = json.loads(lines[-1])
    if code != 0:
        report.setdefault("failures", []).append(f"worker exited {code}")
    return report


# -- in-process workloads -------------------------------------------------------


def rate(passes: list[float]) -> float:
    """Warm ops completed per second over all whole passes, given the
    normalized busy time of each pass (one call of each op)."""
    return len(OPS) * len(passes) / sum(passes)


def latencies(samples: dict, raw: dict, tally) -> dict:
    """Each op's median normalized warm latency in ms; the tally keeps every
    sample, and the raw wall times for the report."""
    out = {}
    for op, name in LATENCY_METRICS.items():
        tally.samples[name] = [1000 * s for s in samples[op]]
        tally.raw[name] = [1000 * s for s in raw[op]]
        out[name] = statistics.median(tally.samples[name])
    return out


def run_in_process(args, tally) -> dict:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        trace_out = trace_dir / f"{args.workload}-seed{args.seed}.json"
        traced = worker(base + ["--warm-seconds", str(args.seconds / 2), "--trace-out", str(trace_out)])
        plain = worker(base + ["--warm-seconds", str(args.seconds / 2)])
        for report in (traced, plain):
            tally.add(report)
        if not all(r.get("passes") for r in (traced, plain)):
            return {}
        metrics = dict(traced["layers"])
        metrics["trace.ops_per_s"] = rate(traced["passes"])
        metrics["trace.overhead"] = rate(plain["passes"]) / metrics["trace.ops_per_s"] - 1
        return metrics

    # the set-up-only interpreters run after the warm one, so that the set-up
    # samples are spread over the run
    reports = [worker(base + ["--warm-seconds", str(args.seconds)])]
    reports += [worker(base) for _ in range(SETUP_RUNS - 1)]
    for report in reports:
        tally.add(report)
    if not all("setup_s" in r for r in reports) or not (
            reports[0].get("passes") and all(reports[0]["samples"].values())):
        return {}
    tally.samples["setup_s"] = [r["setup_s"] for r in reports]
    tally.raw["setup_s"] = [r["setup_wall_s"] for r in reports]
    metrics = {"setup_s": statistics.median(tally.samples["setup_s"]),
               "ops_per_s": rate(reports[0]["passes"])}
    metrics.update(latencies(reports[0]["samples"], reports[0]["raw_samples"], tally))
    tally.clock = {"refs": reports[0]["refs"], "marks": reports[0]["marks"]}
    metrics["peak_rss_mb"] = max(r["rss_mb"] for r in reports)
    return metrics


# -- the CLI workload ----------------------------------------------------------


def run_cli(args, tally) -> dict:
    workdir = OUT / f"cli-n6-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    prep = worker(["--workload", "cli-n6", "--seed", str(args.seed), "--prepare", str(workdir)])
    tally.add(prep)
    if "commands" not in prep:
        return {}
    shim = str(HERE / "clishim.py")

    def argv(op: str, trace_out: str | None) -> list[str]:
        runner, rest, _ = prep["commands"][op]
        if runner == "cli" and not trace_out:
            return [sys.executable, "-m", "hopfchar.cli"] + rest
        prefix = [sys.executable, shim] + (["--trace-out", trace_out] if trace_out else [])
        return prefix + [runner] + rest

    clock = calib.ProcessClock()

    def command(op: str, trace_out: str | None = None):
        """((wall s, clock mark), peak RSS MB) of one checked command, or None."""
        tally.attempted += 1
        mark = clock.tick(0)
        code, out, wall, rss = run_child(argv(op, trace_out))
        try:
            same = json.loads(out) == prep["commands"][op][2]
        except json.JSONDecodeError:
            same = False
        if code != 0 or not same:
            tally.failures.append(f"cli {op}: exit {code}, output differs from the library")
            return None
        return (wall, mark), rss

    setup: list = []  # (wall s, clock mark)

    def floor() -> None:
        """One ``setup_s`` sample: the trivial command every command pays for."""
        tally.attempted += 1
        mark = clock.tick(0)
        code, out, wall, _ = run_child([sys.executable, "-m", "hopfchar.cli"] + FLOOR_COMMAND)
        if code == 0 and out.split() == ["order", "1", "(1", "trees):", "[]"]:
            setup.append((wall, mark))
        else:
            tally.failures.append(f"cli {' '.join(FLOOR_COMMAND)}: exit {code}")

    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    walls = {op: [] for op in OPS}  # (wall s, clock mark)
    rss = {op: [] for op in OPS}
    # traced? -> the (wall s, clock mark) of each command, per whole round
    passes: dict = {False: [], True: []}
    layers: dict = {}
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    # Every run finishes one whole round even past the deadline, so that each
    # command has a sample; a traced run finishes one traced round (the
    # per-layer numbers) and one untraced round (the overhead baseline).
    while time.perf_counter() < deadline or rounds < 1 + args.trace:
        traced = bool(args.trace) and rounds % 2 == 0
        whole = rounds < 1 + args.trace
        calls = []
        shift = rounds % len(OPS)  # partial rounds start at different commands
        for k, op in enumerate(OPS[shift:] + OPS[:shift]):
            if not whole and time.perf_counter() >= deadline:
                break
            if k % REF_EVERY == 0:
                clock.tick()
            if not args.trace and k % FLOOR_EVERY == 0:  # spread over the run
                floor()
            trace_out = str(trace_dir / f"cli-n6-seed{args.seed}-{op}.json") if traced else None
            done = command(op, trace_out)
            if done is None:
                continue
            call, peak = done
            calls.append(call)
            if not traced:
                walls[op].append(call)
            rss[op].append(peak)
            if traced and rounds == 0:
                with open(trace_out + ".summary") as handle:
                    for key, value in json.load(handle).items():
                        layers[key] = layers.get(key, 0) + value
        if len(calls) == len(OPS):
            passes[traced].append(calls)
        rounds += 1

    busy = {traced: [sum(clock.normalize(calls)) for calls in whole_rounds]
            for traced, whole_rounds in passes.items()}
    if args.trace:
        if not (layers and busy[True] and busy[False]):
            return {}
        layers["trace.ops_per_s"] = rate(busy[True])
        layers["trace.overhead"] = rate(busy[False]) / layers["trace.ops_per_s"] - 1
        return layers

    if not setup or not busy[False] or not all(walls.values()):
        return {}
    tally.clock = {"refs": clock.refs, "marks": {op: [m for _, m in t] for op, t in walls.items()}}
    tally.samples["setup_s"] = clock.normalize(setup)
    tally.raw["setup_s"] = [wall for wall, _ in setup]
    metrics = {"setup_s": statistics.median(tally.samples["setup_s"]),
               "ops_per_s": rate(busy[False])}
    metrics.update(latencies({op: clock.normalize(t) for op, t in walls.items()},
                             {op: [wall for wall, _ in t] for op, t in walls.items()}, tally))
    metrics["peak_rss_mb"] = max(statistics.median(v) for v in rss.values())
    return metrics


# -- reporting -----------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}  # normalized
        self.raw: dict[str, list[float]] = {}  # wall times
        self.clock: dict = {}  # reference runs and the clock marks of the samples

    def add(self, report: dict) -> None:
        self.attempted += report.get("attempted", 0)
        self.failures += report.get("failures", [])


def provenance(args, digest: str) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "src_lines": src_lines,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_digest": digest,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="hopfchar benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED_LAYERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hopfchar" / "__init__.py").is_file():
        print(f"error: no hopfchar package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    digest = inputs.digest(inputs.generate(args.workload, args.seed))
    prov = provenance(args, digest)
    print("provenance " + json.dumps(prov), flush=True)

    # byte-compile once, as an installed package would be
    code, _, _, _ = run_child([sys.executable, "-c", "import hopfchar.cli"])
    if code != 0:
        print("error: hopfchar does not import", file=sys.stderr)
        return 2

    # One CPU for this process and every child, so that the reference loop
    # and the timed calls run on the CPU whose speed the loop measures.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tally = Tally()
    run = run_cli if args.workload == "cli-n6" else run_in_process
    metrics = run(args, tally)
    units = per_layer_units() if args.trace else end_to_end_units()
    missing = [name for name in units if name not in metrics]
    if missing:
        tally.failures.append(f"metrics missing: {', '.join(missing[:5])}")
    if args.trace and not missing:
        for layer in EXPECTED_LAYERS[args.workload]:
            if not sum(metrics[m] for m in spans.LAYERS[layer]):
                tally.failures.append(f"layer {layer} recorded no calls")

    failed = len(tally.failures)
    attempted = max(tally.attempted, 1)
    correct = failed == 0
    for failure in tally.failures[:20]:
        print(f"FAIL {failure}")
    for name, unit in units.items():
        if name not in metrics:
            continue
        values = tally.samples.get(name)
        extra = ""
        if values:
            extra = (f"  (median of {len(values)} samples;"
                     f" raw wall median {statistics.median(tally.raw[name]):.6g})")
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}{extra}")
    print(f"{args.workload} fail_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, provenance=prov, failures=tally.failures, samples=tally.samples,
                  raw=tally.raw, clock=tally.clock)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
