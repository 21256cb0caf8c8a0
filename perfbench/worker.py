"""One in-process workload run, in a fresh interpreter.

    python perfbench/worker.py --workload butcher-n7 --seed 1 --warm-seconds 10 [--trace-out F]
    python perfbench/worker.py --workload cli-n6 --seed 1 --prepare DIR

``run.py`` starts this with the checkout's ``src`` on ``PYTHONPATH``.  The
inputs and their oracle weights are made first.  ``setup_s`` times the
import of hopfchar, the building of pool entry 0 and the first pass over the
op sequence on it, so every memo table is cold.  Warm passes follow until
``--warm-seconds`` have gone by (at least one), one op at a time, each op
waiting for the last.  Every timed piece is normalized by the reference
loop of :mod:`calib`, which runs between the pieces and never inside one.
The report lists, for each warm pass that the deadline did not cut, the
normalized busy time of the first call of each op; the repeats of cheap ops
only add latency samples.  Every result is checked outside the
timed region: the first result per (op, pool entry) against the oracle
(during the warm loop, after its deadline), later ones for equality with
it.  The last stdout line is a JSON report.

With ``--prepare DIR`` it instead writes the JSON inputs of the ``cli-n6``
commands and the in-process library result of each command to ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
import traceback

import calib
import inputs
from workloads import OPS, CheckFailed, Workload

#: Each warm pass repeats an op until its normalized calls add up to this
#: many seconds, so cheap ops get several samples per pass.
REPEAT_S = 0.03
#: Reference loop runs before and after the set-up; with those before each
#: op of the cold pass, they normalize ``setup_s``.
SETUP_REFS = 12


class Run:
    """Op calls, latencies and failures of one worker."""

    def __init__(self, workload: Workload, tracer=None, clock=None):
        self.wl = workload
        self.tracer = tracer
        self.clock = clock or calib.Clock()
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict = {}  # (op, i) -> first result
        self.pending: list = []  # (op, i) whose first result awaits the oracle

    def call(self, op: str, i: int, refs: int = 1):
        """Run the reference loop ``refs`` times, then one op; return its
        result and its (elapsed s, clock mark), or (None, None) if it raised."""
        self.attempted += 1
        tracer = self.tracer
        mark = self.clock.tick(refs)
        try:
            if tracer is not None:
                tracer.op += 1
                with tracer.region(f"op.{op}"):
                    start = time.perf_counter()
                    result = self.wl.run(op, i)
                    elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                result = self.wl.run(op, i)
                elapsed = time.perf_counter() - start
        except Exception as err:  # an op that raises is a failed op, not a crash
            self.failures.append(f"{op}[{i}] raised {type(err).__name__}: {err}")
            return None, None
        return result, (elapsed, mark)

    def check(self, op: str, i: int, result, defer: bool = False) -> None:
        """Check a result against the first one of its (op, i), or against
        the oracle if it is the first; ``defer`` leaves the oracle check to
        ``check_pending``, so that it does not use up warm-loop time."""
        if result is None:
            return
        if (op, i) not in self.first:
            self.first[op, i] = result
            self.pending.append((op, i))
            if not defer:
                self.check_pending()
        elif not self._quiet(lambda: result == self.first[op, i]):
            self.failures.append(f"{op}[{i}]: {op} gave a different answer on a repeat")

    def check_pending(self) -> None:
        while self.pending:
            op, i = self.pending.pop(0)
            self._quiet(lambda: self._oracle_check(op, i))

    def _quiet(self, fn):
        """Call ``fn`` with the tracer, if any, paused."""
        if self.tracer is None:
            return fn()
        self.tracer.paused = True
        try:
            return fn()
        finally:
            self.tracer.paused = False

    def _oracle_check(self, op: str, i: int) -> None:
        try:
            self.wl.check(op, i, self.first[op, i])
        except CheckFailed as err:
            self.failures.append(f"{op}[{i}]: {err}")
        except Exception as err:
            self.failures.append(f"{op}[{i}] check raised {type(err).__name__}: {err}")


def run_workload(args, data) -> dict:
    clock = calib.Clock()
    mark = clock.tick(SETUP_REFS)
    start = time.perf_counter()
    import hopfchar

    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        tracer.op = 0
        with tracer.region("op.build"):
            wl = Workload(hopfchar, data)
    else:
        wl = Workload(hopfchar, data)
    pieces = [(time.perf_counter() - start, mark)]
    run = Run(wl, tracer, clock)
    cold = []
    for op in OPS:
        result, timed = run.call(op, 0)
        cold.append((op, result))
        pieces.append(timed or (0.0, mark))
    clock.tick(SETUP_REFS)
    setup_s = sum(clock.normalize(pieces))
    setup_wall = sum(elapsed for elapsed, _ in pieces)
    layers = tracer.summary() if tracer else None
    for op, result in cold:
        run.check(op, 0, result)
    run.attempted += 1
    try:
        wl.check_once()
    except CheckFailed as err:
        run.failures.append(str(err))

    if args.warm_seconds:
        wl.build_pool()

    # at least one whole warm pass, so that every op has a sample
    deadline = time.perf_counter() + args.warm_seconds
    timed = {op: [] for op in OPS}  # (elapsed s, clock mark) of each warm call
    passes = []  # the (elapsed s, clock mark) of the first call of each op, per whole pass
    p = 1
    while args.warm_seconds and (p == 1 or time.perf_counter() < deadline):
        i = p % len(wl.pool)
        calls = []
        for op in OPS:
            spent = 0.0
            while spent < REPEAT_S and (p == 1 or time.perf_counter() < deadline):
                # the repeats of an op are normalized by the reference runs
                # around its first call
                result, call = run.call(op, i, refs=0 if spent else 1)
                run.check(op, i, result, defer=True)
                if call is None:
                    break
                if not spent:
                    calls.append(call)
                timed[op].append(call)
                spent += call[0] * clock.scale(call[1])
        if len(calls) == len(OPS):
            passes.append(calls)
        p += 1
    run.check_pending()
    if tracer is not None:
        tracer.dump(args.trace_out)
    return {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "samples": {op: clock.normalize(calls) for op, calls in timed.items()},
        "marks": {op: [mark for _, mark in calls] for op, calls in timed.items()},
        "refs": clock.refs,
        "raw_samples": {op: [elapsed for elapsed, _ in calls] for op, calls in timed.items()},
        "passes": [sum(clock.normalize(calls)) for calls in passes],
        "attempted": run.attempted,
        "failures": run.failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
    }


def prepare_cli(args, data) -> dict:
    """Inputs and in-process answers for the cli-n6 commands (pool entry 0)."""
    import hopfchar as hc

    wl = Workload(hc, data)
    run = Run(wl)
    results = {}
    for op in OPS:
        results[op], _ = run.call(op, 0)
        run.check(op, 0, results[op])
    e, n, ring = wl.pool[0], wl.n, wl.ring
    files = {
        "a.json": e["ca"].functional.to_json(),
        "b.json": e["cb"].functional.to_json(),
        "aug.json": e["dense"].drop_degree0().to_json(),
        "x.json": e["x"].functional.to_json(),
        "expx.json": wl.exp_out[0].functional.to_json(),
        "curve.json": json.dumps(e["curve"].to_json_dict()),
        "sym.json": json.dumps(hc.tree_values_to_json_dict(e["S"], n, ring)),
        "ta.json": json.dumps(hc.tree_values_to_json_dict(e["A"], n, ring)),
        "tb.json": json.dumps(hc.tree_values_to_json_dict(e["B"], n, ring)),
    }
    for name, text in files.items():
        with open(os.path.join(args.prepare, name), "w") as handle:
            handle.write(text)
    path = lambda name: os.path.join(args.prepare, name)  # noqa: E731
    series = ",".join(str((-1) ** k) for k in range(n + 1))
    t = e["item"]["t"]
    # command -> (runner, argv, expected parsed stdout)
    commands = {
        "member": ("lib", ["member", path("a.json")], {"character": True}),
        "mul": ("cli", ["char", "mul", path("a.json"), path("b.json")],
                results["mul"].functional.to_json_dict()),
        "inv": ("cli", ["char", "inv", path("a.json")], results["inv"].functional.to_json_dict()),
        "conv_inv": ("cli", ["char", "apply", path("aug.json"), "--series", series],
                     results["conv_inv"].to_json_dict()),
        "exp": ("cli", ["char", "exp", path("x.json")], results["exp"].functional.to_json_dict()),
        "log": ("cli", ["char", "log", path("expx.json")], results["log"].functional.to_json_dict()),
        "evolve": ("cli", ["char", "evolve", path("curve.json"), f"--t={t}"],
                   results["evolve"].to_json_dict()),
        "compose": ("lib", ["compose", path("ta.json"), path("tb.json")],
                    hc.tree_values_to_json_dict(results["compose"], n, ring)),
        "ideal": ("cli", ["char", "symplectic", path("sym.json"), "--format", "json"],
                  {"symplectic": True, "generators": len(hc.symplectic_generators(n).generators)}),
        "codec": ("lib", ["codec", path("a.json")], results["codec"].to_json_dict()),
    }
    return {
        "attempted": run.attempted,
        "failures": run.failures,
        "commands": {op: commands[op] for op in OPS},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--warm-seconds", type=float, default=0.0)
    parser.add_argument("--trace-out", help="write spans here and report per-layer metrics")
    parser.add_argument("--prepare", help="directory for the cli-n6 inputs")
    args = parser.parse_args()
    data = inputs.generate(args.workload, args.seed)
    inputs.add_weights(data)
    try:
        report = prepare_cli(args, data) if args.prepare else run_workload(args, data)
    except Exception:
        traceback.print_exc()
        report = {"attempted": 1, "failures": ["worker crashed"], "crashed": True}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
