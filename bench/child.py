"""One workload process: import the CLI, build its parser, then run
``su11sim.cli.main`` with a user's arguments in the current directory.

Usage:  python3 child.py '<json>'  with keys
    argvs       list of argument lists as passed to `su11`, run in order
                (omit to stop after set-up)
    trace_out   if set, trace the calls and write the spans to this path

Prints ``ready`` once the parser is built (the parent times set-up up to that
line), then one JSON report line.  The standard output of call i goes to
``stdout-<i>.txt`` in the current directory.
"""

import contextlib
import json
import resource
import sys
import time

spec = json.loads(sys.argv[1])

import su11sim.cli as cli  # noqa: E402  (imported after reading the spec on purpose)

cli.build_parser()
print("ready", flush=True)

if "argvs" in spec:
    tracer = None
    if spec.get("trace_out"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    rcs, wall = [], 0.0
    before = resource.getrusage(resource.RUSAGE_SELF)
    for i, argv in enumerate(spec["argvs"]):
        with open(f"stdout-{i}.txt", "w") as out, contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            rcs.append(cli.main(argv))
            wall += time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "rcs": rcs,
        "module": cli.__file__,
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "peak_rss_kb": after.ru_maxrss,
    }
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer)
        tracer.write_spans(spec["trace_out"])
    print(json.dumps(report), flush=True)
