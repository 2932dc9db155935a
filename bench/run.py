"""Benchmark of su11sim, run from the root of a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
    python3 bench/run.py compare A.jsonl B.jsonl

A run repeats whole rounds of one workload while the next round is
expected to end within S seconds, and runs at least one.  Each round is a
fresh Python process that imports `su11sim.cli` from `src/`, builds its
parser and calls `su11sim.cli.main` with the arguments a user would pass to
`su11`, once per call of the round, writing into a temporary directory under
`.bench_out/`.  SU11_THREADS
is removed from the environment, so the program's defaults are measured.
After each round the outputs are checked (bench/workloads.py).

With --trace 0 the run prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced rounds and prints the per-layer
metrics, including the tracing overhead.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--record appends that object, with the workload and seed, to a JSON-lines
file; `compare` reads two such files (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3       # set-up-only processes per run, after one warm-up
CHILD_TIMEOUT_S = 150
EXACT_UNITS = ("count", "bytes", "bytes-computed")


@dataclass
class Round:
    setup_s: float
    report: dict | None
    problems: list[str] = field(default_factory=list)
    files: dict[str, bytes] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.report is not None and not any(self.report["rcs"])


def _spawn(spec: dict, cwd: Path) -> tuple[float, dict | None, str]:
    """Start child.py; return (set-up seconds, report or None, stderr text)."""
    env = dict(os.environ)
    env.pop("SU11_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    err_path = cwd / "stderr.txt"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err, text=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest, _ = proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    stderr = err_path.read_text()
    err_path.unlink()
    lines = rest.splitlines()
    if ready.strip() != "ready" or proc.returncode != 0:
        return setup_s, None, stderr or f"exit code {proc.returncode}"
    return setup_s, json.loads(lines[-1]) if lines else {}, stderr


def _run_round(workload, seed: int, tag: str, trace: bool) -> Round:
    tmp = OUT / "tmp" / f"{workload.name}-{os.getpid()}-{tag}"
    tmp.mkdir(parents=True)
    try:
        spec = {"argvs": workload.argvs(seed)}
        if trace:
            spec["trace_out"] = str(OUT / f"trace-{workload.name}.json")
        setup_s, report, stderr = _spawn(spec, tmp)
        rnd = Round(setup_s, report or None)
        if rnd.report is None:
            rnd.problems.append(f"{workload.name}: process failed: {stderr[-400:]}")
            return rnd
        if any(report["rcs"]):
            rnd.problems.append(f"{workload.name}: exit codes {report['rcs']}")
        if not Path(report["module"]).is_relative_to(ROOT / "src"):
            rnd.problems.append(f"imported su11sim from {report['module']}, not src/")
        try:
            rnd.problems += workload.check(tmp, seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rnd.problems.append(f"{workload.name}: unreadable output: {exc!r}")
        rnd.files = {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}
        return rnd
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _setup_samples(n: int) -> list[float]:
    tmp = OUT / "tmp" / f"setup-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        samples = []
        for _ in range(n + 1):
            setup_s, report, stderr = _spawn({}, tmp)
            if report is None:
                raise RuntimeError(f"set-up process failed: {stderr[-400:]}")
            samples.append(setup_s)
        return samples[1:]  # the first fills the bytecode and file caches
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workload, seed: int, seconds: int, trace: bool) -> dict:
    spec = _spec()
    setups = [] if trace else _setup_samples(SETUP_SAMPLES)
    pairs: list[tuple[Round, Round | None]] = []
    start = time.perf_counter()
    while True:
        tag = str(len(pairs))
        plain = _run_round(workload, seed, tag, trace=False)
        traced = _run_round(workload, seed, tag + "t", trace=True) if trace else None
        pairs.append((plain, traced))
        # start another round only if it should end within the run's seconds
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(pairs) > seconds:
            break

    rounds = [r for pair in pairs for r in pair if r is not None]
    problems = [p for r in rounds for p in r.problems]
    attempted = workload.points * len(rounds)
    failed = workload.points * sum(not r.ok for r in rounds)
    metrics: dict[str, float] = {}
    done = [r for r in rounds if r.ok]
    if trace:
        complete = [(p, t) for p, t in pairs if p.ok and t.ok]
        for plain, traced in complete:
            if plain.files != traced.files:
                problems.append("traced outputs differ from untraced outputs")
        if complete:
            metrics = _layer_values(spec, [(p.report, t.report) for p, t in complete], problems)
    elif done:
        points = workload.points
        metrics = {
            "points_per_s": statistics.median(points / r.report["wall_s"] for r in done),
            "setup_s": statistics.median(setups + [r.setup_s for r in rounds]),
            "peak_rss_mb": statistics.median(r.report["peak_rss_kb"] / 1024 for r in done),
            "cpu_ms_per_point": statistics.median(
                1e3 * r.report["cpu_s"] / points for r in done
            ),
        }
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not problems:
        problems.append(f"metrics not measured: {missing}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
        "problems": problems,
        "rounds": len(rounds),
    }


def _layer_values(spec, pairs, problems) -> dict[str, float]:
    """Per-layer values: counts from the first traced round (they must repeat
    exactly), times as medians over the traced rounds."""
    layers = [t["layers"] for _, t in pairs]
    values = {"trace.overhead_s": statistics.median(t["wall_s"] - p["wall_s"] for p, t in pairs)}
    for m in spec["per_layer"]:
        name = m["name"]
        if name not in layers[0]:
            continue
        runs = [layer[name] for layer in layers]
        if m["unit"] in EXACT_UNITS:
            if len(set(runs)) != 1:
                problems.append(f"{name} does not repeat: {runs}")
            values[name] = runs[0]
        else:
            values[name] = statistics.median(runs)
    return values


# --- compare mode --------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: Path, path_b: Path) -> int:
    """Medians, quartiles and spreads of two sets of untraced results, and
    whether B stays within each end-to-end metric's bound of A."""
    sets = []
    for path in (path_a, path_b):
        records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        sets.append([r for r in records if not r["trace"]])
    end_to_end = _spec()["end_to_end"]
    ok = True
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':24} {'metric':17} {'unit':9} {'n':>5} "
          f"{'A median [q1, q3] spread':>38} {'B median [q1, q3] spread':>38} "
          f"{'worse':>7} {'bound':>5}  verdict")
    for workload in WORKLOADS:
        recs = [[r for r in s if r["workload"] == workload] for s in sets]
        if not all(recs):
            continue
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in recs]
        incorrect = sum(not r["correct"] for rs in recs for r in rs)
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            cols, spreads, medians = [], [], []
            for rs in recs:
                q1, med, q3 = _quartiles([r["metrics"][name]["value"] for r in rs])
                spreads.append((q3 - q1) / med)
                medians.append(med)
                cols.append(f"{med:11.5g} [{q1:9.5g}, {q3:9.5g}] {spreads[-1]:5.3f}")
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (medians[1] - medians[0]) / medians[0]
            verdict = []
            if worse > bound:
                verdict.append("WORSE")
            if name != "setup_s" and max(spreads) > bound:
                verdict.append("UNSTEADY")
            if shares[0] != shares[1] or incorrect:
                verdict.append("FAILURES")
            ok = ok and not verdict
            n = f"{len(recs[0])}/{len(recs[1])}"
            print(f"{workload:24} {name:17} {metric['unit']:9} {n:>5} {cols[0]:>38} "
                  f"{cols[1]:>38} {worse:+7.3f} {bound:5.2f}  {' '.join(verdict) or 'ok'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a", type=Path)
        p.add_argument("b", type=Path)
        args = p.parse_args(argv[1:])
        return compare(args.a, args.b)
    p = argparse.ArgumentParser(prog="run.py", description="su11sim benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=Path, help="append the result to this JSON-lines file")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "su11sim" / "cli.py").is_file():
        print(f"run.py: no su11sim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for problem in result.pop("problems"):
        print(f"PROBLEM: {problem}")
    rounds = result.pop("rounds")
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, "
          f"{result['attempted']} points attempted, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:45} {m['value']:.6g} {m['unit']}")
    if args.record is not None:
        record = {"workload": args.workload, "seed": args.seed, "trace": bool(args.trace), **result}
        with open(args.record, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
