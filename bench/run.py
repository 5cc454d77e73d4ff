"""Benchmark of the revmap compiler and checker, driven through revmap.cli.main.

    python3 bench/run.py --workload compile_deep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout: the revmap package is imported from
the checkout's ``src/`` and from nowhere else.  The workload's corpus is
generated from ``--seed`` into ``bench/out/``; whole rounds of the
workload's commands then run in this process for at most ``--seconds``
(at least one round).  Every command's output is checked with the
benchmark's own oracle.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  The last line of stdout is one JSON
object; a fuller record and the spans go to ``bench/out/``.

Times are reported in reference seconds: the measured seconds scaled by
PROBE_SECONDS over the median time of a fixed pure-Python probe that runs
after every command, for about PROBE_SHARE of the command's time (and
after every set-up sample).  On a shared virtual machine the CPU speed
moves by a fifth or more from one minute to the next; the probe slows
down with it, so the ratio drifts less than the raw times
(bench/README.md gives both spreads).  The raw seconds and the probe
times are kept in the fuller record.
"""

import os

# one thread per process: numpy must see these before it is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 9
SETUP_PROBES = 10  # probes after each set-up sample
PROBE_ITERATIONS = 20000
# the probe's median on the reference machine (2-vCPU Intel Xeon at 2.1 GHz,
# Python 3.11.7): reported times are seconds on a CPU this fast
PROBE_SECONDS = 0.005
# probes after a command: enough to take about this share of its time, so
# that a long command's stretch of the run is sampled as often as the
# short ones', and a run has enough samples for a steady median
PROBE_SHARE = 0.02

sys.path.insert(0, str(BENCH))
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _load_revmap():
    src = ROOT / "src"
    if not (src / "revmap" / "cli.py").is_file():
        raise SystemExit(f"error: no revmap sources at {src / 'revmap'}")
    sys.path.insert(0, str(src))
    import revmap
    import revmap.cli

    if Path(revmap.__file__).resolve().parent != (src / "revmap").resolve():
        raise SystemExit(f"error: imported revmap from {revmap.__file__}")
    return revmap


def probe():
    """Time a fixed piece of interpreter work that involves no revmap code.

    It allocates no new container, so no garbage collection runs inside it.
    """
    table = {}
    acc = 0
    start = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        key = (i * 7919) & 4095
        table[key] = table.get(key, 0) + i
        acc ^= key
    return time.perf_counter() - start


def measure_setup():
    """Wall times of fresh interpreters importing the revmap CLI, and the
    times of the probes run after each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-c", "import revmap.cli"]
    times, probes = [], []
    for k in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        if k:  # the first import may still be writing bytecode caches
            times.append(time.perf_counter() - start)
            probes += [probe() for _ in range(SETUP_PROBES)]
    return times, probes


class Run:
    """Rounds of one workload, with tallies of outcomes and timings."""

    def __init__(self, revmap, ops, seed):
        self.revmap = revmap
        self.ops = ops
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.wrong = []
        self.quality = {}
        self.op_times = []  # per round: seconds taken by each operation
        self.probes = []  # the probe times after every operation

    def round(self):
        """Run every operation once, in order; return each one's seconds."""
        quality = {}  # per distinct convert command: its .real's sizes
        times = []
        for op in self.ops:
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            code, error = None, None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.revmap.cli.main(op.argv)
            except Exception as exc:  # a traceback is a failed operation
                error = f"{type(exc).__name__}: {str(exc)[:200]}"
            took = time.perf_counter() - start
            times.append(took)
            for _ in range(max(1, round(took * PROBE_SHARE / PROBE_SECONDS))):
                self.probes.append(probe())
            self.attempted += 1
            if error is None and code not in (0, 1):
                error = f"exit {code}: {err.getvalue().strip()[:200]}"
            if error is not None:
                self.failed += 1
                self.failures.append(f"{' '.join(op.argv[:2])}: {error}")
                continue
            problem = workloads.check(op, code, out.getvalue(), self.seed)
            if problem:
                self.wrong.append(problem)
            elif op.kind == "convert":
                real = oracle.parse_real(op.real.read_text())
                quality[id(op)] = {
                    "rev_gates": len(real.gates),
                    "rev_lines": len(real.variables),
                    "garbage_lines": real.garbage.count("1"),
                    "quantum_cost": sum(5 if len(c) == 2 else 1 for c, _ in real.gates),
                }
        self.quality = {
            name: sum(q[name] for q in quality.values())
            for name in ("rev_gates", "rev_lines", "garbage_lines", "quantum_cost")
        }
        self.op_times.append(times)
        return times


def pass_seconds(ops, rounds, kind):
    """Seconds of one pass over the distinct `kind` commands of a round.

    `rounds` holds each round's per-operation seconds.  Every distinct
    command's median over all the times it ran is summed.
    """
    samples = {}
    for times in rounds:
        for op, took in zip(ops, times):
            if op.kind == kind:
                samples.setdefault(id(op), []).append(took)
    return sum(statistics.median(s) for s in samples.values())


def _traced_round(run, tracer):
    tracer.reset()
    with tracer:
        times = run.round()
    self_s, calls = tracer.layers()
    main_s = sum(end - begin for _, begin, end, parent, _ in tracer.spans if parent < 0)
    return {"traced": times, "self_s": self_s, "calls": calls,
            "counts": dict(tracer.counts), "main_s": main_s}


def measure(run, seconds, trace, revmap):
    """Repeat rounds (or untraced/traced pairs) for at most `seconds`."""
    rounds = []
    tracer = Tracer(revmap) if trace else None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        # alternate which round of a pair runs first, so order favours neither
        traced_first = trace and (len(rounds) + run.seed) % 2 == 1
        record = _traced_round(run, tracer) if traced_first else {}
        record["untraced"] = run.round()
        if trace and not traced_first:
            record.update(_traced_round(run, tracer))
        rounds.append(record)
        took = time.perf_counter() - began
        # stop when a round as long as the last would end after the deadline
        if time.perf_counter() - start + took > seconds:
            return rounds, tracer


def end_to_end(run, rounds, setup):
    times, probes = setup
    scale = PROBE_SECONDS / statistics.median(run.probes)
    untraced = [r["untraced"] for r in rounds]
    return {
        "setup_s": statistics.median(times) * PROBE_SECONDS / statistics.median(probes),
        "convert_s": pass_seconds(run.ops, untraced, "convert") * scale,
        "verify_s": pass_seconds(run.ops, untraced, "verify") * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **run.quality,
    }


def per_layer(run, rounds):
    """Every layer's median self time and call count, and the observed counts.

    Self times, calls and counts are per round.  Counts repeat exactly from
    round to round, so the last round's are used.  Times are in reference
    seconds, like the end-to-end ones.
    """
    med = statistics.median
    scale = PROBE_SECONDS / med(run.probes)
    last = rounds[-1]
    metrics = dict(last["counts"])
    for name in last["calls"]:
        metrics[f"{name}.self_s"] = med(r["self_s"][name] for r in rounds) * scale
        metrics[f"{name}.calls"] = last["calls"][name]
    refuted = metrics.pop("sim.refutations", 0)
    patterns = metrics.pop("sim.refutation_patterns", 0)
    metrics["sim.patterns_per_refutation"] = patterns / refuted if refuted else 0
    traced = [r["traced"] for r in rounds]
    untraced = [r["untraced"] for r in rounds]
    metrics["trace.convert_s"] = pass_seconds(run.ops, traced, "convert") * scale
    metrics["trace.verify_s"] = pass_seconds(run.ops, traced, "verify") * scale
    # time inside the timed commands but outside every cli.main span
    metrics["trace.unaccounted_s"] = (
        med(sum(r["traced"]) - r["main_s"] for r in rounds) * scale
    )
    metrics["trace.overhead_s"] = metrics["trace.convert_s"] + metrics["trace.verify_s"] - (
        pass_seconds(run.ops, untraced, "convert") + pass_seconds(run.ops, untraced, "verify")
    ) * scale
    return metrics


def write_spans(path, tracer, workload, seed):
    names = sorted({span[0] for span in tracer.spans})
    index = {name: k for k, name in enumerate(names)}
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    doc = {
        "workload": workload,
        "seed": seed,
        "fields": ["layer", "start_s", "end_s", "parent", "command"],
        "layers": names,
        "commands": tracer.commands,
        "spans": [
            [index[n], round(s - origin, 9), round(e - origin, 9), p, c]
            for n, s, e, p, c in tracer.spans
        ],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    revmap = _load_revmap()
    oracle.self_test()
    setup = None if args.trace else measure_setup()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            ops = workloads.WORKLOADS[args.workload](
                args.seed, workdir, revmap.cli.main
            )
        workloads.check_sources(ops, args.seed)
        run = Run(revmap, ops, args.seed)
        rounds, tracer = measure(run, args.seconds, args.trace, revmap)
        if args.trace:
            measured = per_layer(run, rounds)
            write_spans(OUT / f"{args.workload}-spans.json", tracer, args.workload, args.seed)
        else:
            measured = end_to_end(run, rounds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # every layer is entered on every workload; a declared metric that was
    # not measured means a traced function was renamed, moved or dropped
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise SystemExit(f"error: {args.workload} measured no {', '.join(missing)}")
    metrics = {m["name"]: (measured[m["name"]], m["unit"]) for m in declared}
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=len(rounds), failures=sorted(set(run.failures)),
                  wrong=run.wrong[:20], setup=setup, probes=run.probes,
                  ops=[" ".join(op.argv[:2]) for op in ops], op_times=run.op_times)
    if args.trace:
        record["all_layers"] = measured
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for problem in record["failures"] + record["wrong"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:>16.6f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
