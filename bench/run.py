"""Run one ladderdet benchmark workload and print its metrics.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
``src/``.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of a traced run.  A full record, with the environment,
seed and corpus hash, goes to ``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from spans import NullTracer, Tracer
from workloads import WORKLOADS, Cli

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 10  # extra set-ups in fresh processes; setup_s is the median with the run's own
MIN_OPS = 100  # a timed run goes on until it has this many ops, so 10 lie beyond p90
HASH_INPUTS = 256  # the corpus hash covers this many leading inputs of the timed phase
GRACE_S = 30  # a fixed-length loop may take this much longer than ``--seconds``


class Phase:
    """Latencies and failures of one measured loop over whole cycles.

    Latencies are CPU seconds at the reference speed: each cycle's are
    scaled by the speed factor of the kernel runs taken in that cycle.
    """

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.errors = []
        self.cycles = 0
        self.rss_mb = None
        self.elapsed = 0.0
        self.cycle_rates = []
        self.factors = []

    @property
    def ops_per_s(self):
        """Median over cycles of ops per CPU second of operation time.

        Every cycle has the same mix.  Making inputs and checking outputs
        is the benchmark's work, not the library's, so it is left out.
        """
        return statistics.median(self.cycle_rates)

    @property
    def factor(self):
        """The median over cycles of the speed factor."""
        return statistics.median(self.factors)

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def measure(wl, tr, seconds, max_cycles=None, hasher=None):
    """Closed loop over whole cycles: until ``seconds`` pass and ``MIN_OPS`` ran, or for ``max_cycles``.

    Only the operation is timed, on ``wl.clock`` (CPU time); making
    inputs and checking outputs are not.  The reference kernel runs after
    every operation (see ``speed``).  ``seconds`` is wall time.  So
    that a slow commit cannot push a run past its time limit, a run short
    of ``MIN_OPS`` stops after 4 x ``seconds``, and a fixed-length loop
    stops after ``seconds + GRACE_S``; ``phase.cycles`` then tells it was cut.
    """
    phase = Phase()
    hashed = 0
    start = time.perf_counter()
    while True:
        cycle = wl.make_cycle()
        refs = []
        for inp in cycle:
            if hasher is not None and hashed < HASH_INPUTS:
                hasher.update(inp["text"].encode())
                hashed += 1
            tr.begin_op()
            t0 = wl.clock()
            try:
                out = wl.run(inp, tr)
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                out = exc
            t1 = wl.clock()
            tr.end_op(t0, t1)
            phase.latencies.append(t1 - t0)
            refs += speed.samples_after(t1 - t0)
            if isinstance(out, Exception):
                phase.fail(f"{type(out).__name__}: {out}")
                continue
            try:
                ok = wl.check(inp, out)
            except Exception as exc:  # malformed output
                ok, out = False, exc
            if not ok:
                phase.fail(f"wrong output for input {inp['text'][:300]!r}: {out!r}"[:600])
        phase.cycles += 1
        factor = speed.factor(refs)
        phase.factors.append(factor)
        phase.latencies[-len(cycle):] = [x * factor for x in phase.latencies[-len(cycle):]]
        phase.cycle_rates.append(len(cycle) / sum(phase.latencies[-len(cycle):]))
        if phase.cycles == wl.rss_cycles:
            phase.rss_mb = wl.peak_rss_mb()
        phase.elapsed = time.perf_counter() - start
        enough = len(phase.latencies) >= MIN_OPS or phase.elapsed >= 4 * seconds
        if max_cycles is None and phase.elapsed >= seconds and enough:
            break
        if max_cycles is not None and (phase.cycles >= max_cycles or phase.elapsed >= seconds + GRACE_S):
            break
    if phase.rss_mb is None:
        phase.rss_mb = wl.peak_rss_mb()
    return phase


def setup(name, seed):
    """Import the library, make the workload and warm it up; returns (workload, seconds at the reference speed)."""
    clock = WORKLOADS[name].clock
    start = clock()
    wl = WORKLOADS[name](seed)
    wl.warm_up(NullTracer())
    seconds = clock() - start
    return wl, seconds * speed.factor(speed.samples_after(seconds, share=1))


def probe_setups(args):
    """Set-up times of ``SETUP_PROBES`` fresh processes running only ``setup``."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=150, cwd=ROOT, check=True,
        )
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def timed_run(args):
    setup_times = probe_setups(args)
    wl, own_setup = setup(args.workload, args.seed)
    setup_times.append(own_setup)
    hasher = hashlib.sha256()
    phase = measure(wl, NullTracer(), args.seconds, hasher=hasher)
    lat = phase.latencies
    p90 = percentile(lat, 0.9)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": p90 * 1000,
        "peak_rss_mb": phase.rss_mb,
        "failed_ratio": phase.failed / len(lat),
    }
    samples = {
        "ops": len(lat),
        "beyond_p90": sum(1 for x in lat if x > p90),
        "cycles": phase.cycles,
        "rss_after_cycles": min(wl.rss_cycles, phase.cycles),
        "setup_s": setup_times,
        "wall_s": phase.elapsed,
        "speed_factor": phase.factor,
    }
    return metrics, [phase], samples, {"sha256": hasher.hexdigest(), "inputs": min(HASH_INPUTS, len(lat))}


def traced_run(args):
    """The same number of cycles untraced, then traced, then one cycle of the cli layer (unless that is the workload).

    The number of cycles is fixed by ``--seconds`` and the workload alone,
    so ``calls`` and ``busy_s`` compare between commits; a phase that
    cannot finish them in time fails the run.  The gap in ops/s between
    the first two phases is the tracing overhead.
    """
    wl, _ = setup(args.workload, args.seed)
    cycles = max(1, round(args.seconds * wl.cycles_per_s / 3))
    hasher = hashlib.sha256()
    plain = measure(wl, NullTracer(), args.seconds, max_cycles=cycles, hasher=hasher)
    tr = Tracer(wl.clock)
    traced = measure(wl, tr, args.seconds, max_cycles=cycles)
    if min(plain.cycles, traced.cycles) < cycles:
        raise TimeoutError(f"a traced-run phase did {min(plain.cycles, traced.cycles)} of {cycles} cycles "
                           f"in {args.seconds + GRACE_S:g} s")
    metrics = at_reference_speed(tr.metrics(), traced.factor)
    metrics["trace.overhead_ratio"] = 1 - traced.ops_per_s / plain.ops_per_s
    metrics["trace.spans"] = len(tr.spans)
    write_spans(args, tr)

    phases = [plain, traced]
    if isinstance(wl, Cli):
        cli, cli_tr, cli_phase = wl, tr, traced
    else:
        cli, cli_tr = Cli(args.seed), Tracer(Cli.clock)
        cli.warm_up(NullTracer())
        cli_phase = measure(cli, cli_tr, args.seconds, max_cycles=1)
        phases.append(cli_phase)
    cli_metrics = cli.layer_extras()
    for name, durations in cli_tr.durations.items():
        if name.startswith("cli."):
            cli_metrics[f"{name}.calls"] = len(durations)
            cli_metrics[f"{name}.busy_s"] = sum(durations)
            cli_metrics[f"{name}.p50_ms"] = statistics.median(durations) * 1000
    metrics.update(at_reference_speed(cli_metrics, cli_phase.factor))

    samples = {
        "cycles": [plain.cycles, traced.cycles],
        "ops_per_s": [plain.ops_per_s, traced.ops_per_s],
        "speed_factor": [plain.factor, traced.factor, cli_phase.factor],
    }
    corpus = {"sha256": hasher.hexdigest(), "inputs": min(HASH_INPUTS, len(plain.latencies))}
    return metrics, phases, samples, corpus


def at_reference_speed(metrics, factor):
    """Scales every time (a name ending in ``_s`` or ``_ms``) by the speed ``factor``."""
    return {name: value * factor if name.endswith(("_s", "_ms")) else value for name, value in metrics.items()}


def write_spans(args, tr):
    origin = tr.spans[0][2] if tr.spans else 0.0
    rows = [[sid, name, start - origin, end - origin, parent, op] for sid, name, start, end, parent, op in tr.spans]
    doc = {"fields": ["id", "name", "start_s", "end_s", "parent", "op"], "spans": rows}
    (OUT / f"spans_{args.workload}_seed{args.seed}.json").write_text(json.dumps(doc))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ladderdet" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a ladderdet checkout (src/ladderdet or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        _, seconds = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    try:
        metrics, phases, samples, corpus = (traced_run if args.trace else timed_run)(args)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and not args.trace:
        print(f"error: end-to-end metrics not computed: {missing}", file=sys.stderr)
        return 1
    undeclared = sorted(set(metrics) - {m["name"] for m in declared} - {"failed_ratio"})
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors]
    for message in errors:
        print(f"failed op: {message}", file=sys.stderr)
    # A layer that the workload never calls reads 0.
    reported = {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "commit": commit(),
        },
        "corpus": corpus,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": reported,
        "failed_ratio": failed / attempted,
        "samples": samples,
        "undeclared_metrics": undeclared,
    }
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    for name, entry in reported.items():
        print(f"{args.workload} {name} {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
