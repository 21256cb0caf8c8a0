"""One cli-n6 command in a fresh interpreter, for commands the CLI lacks and for
traced CLI runs.

    python perfbench/clishim.py --trace-out F cli <hopfchar CLI arguments...>
    python perfbench/clishim.py [--trace-out F] lib member|compose|codec <files...>

``cli`` calls ``hopfchar.cli.main``; untraced CLI runs use
``python -m hopfchar.cli`` directly instead of this file.  ``lib`` runs one
library call the CLI has no command for, the way a user script would: load
the JSON input, call, print JSON.  With ``--trace-out`` the spans of
``perfbench/spans.py`` are installed after the import and written to F, with
a per-layer summary, at exit.
"""

from __future__ import annotations

import json
import sys
import time


def lib(op: str, paths: list[str]) -> int:
    import hopfchar as hc

    def load(path):
        with open(path) as handle:
            return json.load(handle)

    if op == "member":
        hc.Character(hc.TruncatedFunctional.from_json_dict(load(paths[0])))
        print(json.dumps({"character": True}))
    elif op == "compose":
        a, n, ring = hc.tree_values_from_json_dict(load(paths[0]))
        b, _, _ = hc.tree_values_from_json_dict(load(paths[1]))
        print(json.dumps(hc.tree_values_to_json_dict(hc.butcher_compose(a, b, n, ring), n, ring)))
    elif op == "codec":
        with open(paths[0]) as handle:
            print(hc.TruncatedFunctional.from_json(handle.read()).to_json())
    else:
        print(f"error: unknown op {op!r}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    runner, rest = argv[0], argv[1:]
    if trace_out is None:
        return lib(rest[0], rest[1:])

    import spans

    tracer = spans.Tracer()
    start = time.perf_counter()
    import hopfchar.cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    tracer.op = 0
    if runner == "cli":
        with tracer.region("cli.main"):
            code = hopfchar.cli.main(rest)
    else:
        with tracer.region(f"op.{rest[0]}"):
            code = lib(rest[0], rest[1:])
    tracer.dump(trace_out)
    with open(trace_out + ".summary", "w") as handle:
        json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
