"""majorchain benchmark: one workload per run, one process, one thread.

    python3 bench/run.py --workload split-sweep --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: the next op starts only after
the previous one has returned and been checked.  The seed builds the inputs;
majorchain receives only those inputs.

With ``--trace 0`` the run times ops for ``--seconds`` (at least ``MIN_OPS``
ops) and reports the end-to-end metrics named in BENCHMARK.json:

* ``ops_per_s``: ops over the summed op time (checks run between ops, off
  the clock);
* ``latency_ms_p50`` / ``latency_ms_p90``: per-op latency percentiles;
* ``setup_s``: median over ``SETUP_REPEATS`` set-ups, each in a fresh
  interpreter: the run's own and the rest in child runs with
  ``--setup-only``.  A set-up is the import of majorchain, building or
  loading the inputs, and the warm-up ops;
* ``peak_rss_mb``: the process's ``ru_maxrss``, which covers its one set-up
  and the timed ops.

With ``--trace 1`` the run makes a fixed pass over the workload's first
``trace_ops`` ops, once untraced and once traced, then probes every layer on
its first inputs (see probe.py), and reports the per-layer metrics.  The pass
is fixed, not timed, so its counters repeat exactly for a seed.  Spans are
written to ``.bench_out/trace-<workload>-seed<seed>.jsonl``.

Every op's result is checked; a failed check or an exception counts the op
as failed and the run goes on.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

from _api import ROOT, SRC, MissingProgram, load_majorchain
from probe import SUBJECTS, Probe
from tracing import NULL, Tracer
from workloads import WORKLOADS

MIN_OPS = 100  # so that at least ten samples lie beyond the p90
SETUP_REPEATS = 5
IMPORT_SPAWNS = 5
OUT = ROOT / ".bench_out"

# Spans whose median self time per call is reported as the metric "<span>_us".
LAYER_SPANS = (
    "partitions.construct",
    "partitions.dual",
    "partitions.diff_sorted",
    "partitions.union",
    "partitions.majorizes",
    "chains.interlace_check",
    "chains.pi_degree",
    "chains.sigma_degree_sequence",
    "chains.sigma_identity_rhs",
    "instances.lemma_premise",
    "instances.theorem_premises",
    "instances.translate",
    "instances.transport",
    "instances.verify_lemma",
    "instances.verify_theorem",
    "solve.lemma",
    "solve.theorem",
    "solve.direct",
    "generator.instance",
    "jsonio.load",
    "jsonio.parse",
    "jsonio.dumps",
    "cli.check",
    "cli.solve",
    "cli.translate",
    "cli.identity",
)

# Counters that repeat exactly for a seed; the rest of the per-layer metrics
# are wall-clock readings.
COUNTERS = (
    "partitions.calls",
    "chains.calls",
    "instances.calls",
    "solve.nodes",
    "solve.direct_nodes",
    "solve.backtrack_ratio",
    "jsonio.bytes_out",
)

# Spans whose calls write JSON; their bytes_out attributes sum to jsonio.bytes_out.
BYTES_SPANS = ("jsonio.dumps", "cli.check", "cli.solve", "cli.translate", "cli.identity")

IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import majorchain.cli; "
    "print(time.perf_counter() - start)"
)


def timed_pass(workload, ops: list, seconds: float | None = None, tracer=NULL):
    """Run ops one after another; return per-op latencies (s) and failure reasons.

    With ``seconds`` the ops are cycled until that much wall time has passed
    and at least MIN_OPS have run; without it each op runs once.
    """
    latencies = array("d")
    failures: list[str] = []
    deadline = perf_counter() + seconds if seconds is not None else None
    index = 0
    while True:
        if deadline is None:
            if index == len(ops):
                break
        elif index >= MIN_OPS and perf_counter() >= deadline:
            break
        op = ops[index % len(ops)]
        if tracer.enabled:
            tracer.op_id = index
        error = None
        with tracer.span("op"):
            start = perf_counter()
            try:
                result = workload.run(op)
            except Exception as exc:  # counted as a failed op; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - start)
        if error is None:
            with tracer.span("check"):
                try:
                    error = workload.check(op, result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(error)
        index += 1
    return latencies, failures


def warm_up(workload) -> None:
    tracer, workload.tracer = workload.tracer, NULL
    for op in workload.warmup_ops():
        try:
            workload.run(op)
        except Exception:  # the measured ops include this one and count it
            pass
    workload.tracer = tracer


def set_up(cls, seed: int, workdir):
    """Import majorchain, build or load the inputs and warm up; return the
    workload and the seconds this took."""
    start = perf_counter()
    workload = cls(load_majorchain(), seed, NULL, workdir)
    warm_up(workload)
    return workload, perf_counter() - start


def child_set_up(cls, seed: int) -> float:
    """The seconds of one set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", cls.name,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.splitlines()[-1])


def measure(cls, seed: int, seconds: float, workdir) -> tuple[dict, int, list[str]]:
    """The untraced run: end-to-end metrics."""
    workload, own_setup = set_up(cls, seed, workdir)
    latencies, failures = timed_pass(workload, workload.ops, seconds=seconds)
    # Read before sorting, which copies every latency into a Python float.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [own_setup] + [child_set_up(cls, seed) for _ in range(SETUP_REPEATS - 1)]
    ordered = sorted(latencies)
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_ms_p50": statistics.median(ordered) * 1e3,
        "latency_ms_p90": ordered[math.ceil(0.9 * len(ordered)) - 1] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, len(latencies), failures


def import_ms() -> float:
    """Median time of ``import majorchain.cli`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_SPAWNS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout) * 1e3)
    return statistics.median(times)


def trace(cls, seed: int, workdir) -> tuple[dict, int, list[str]]:
    """The traced run: per-layer metrics from a fixed pass plus the layer probe."""
    tracer = Tracer()
    mc = load_majorchain()
    workload = cls(mc, seed, tracer, workdir)
    warm_up(workload)
    ops = workload.ops[: workload.trace_ops]
    workload.tracer = NULL
    plain, failures = timed_pass(workload, ops)
    workload.tracer = tracer
    traced, traced_failures = timed_pass(workload, ops, tracer=tracer)
    failures += traced_failures
    probe = Probe(mc, tracer, workdir)
    subjects = ops[:SUBJECTS]
    for index, op in enumerate(subjects):
        tracer.op_id = len(ops) + index
        try:
            with tracer.span("probe"):
                probe.run(index, *workload.subject(op))
        except Exception as exc:
            failures.append(f"probe raised {type(exc).__name__}: {exc}")
    tracer.write(OUT / f"trace-{cls.name}-seed{seed}.jsonl")

    medians = tracer.median_us()
    metrics = {f"{span}_us": medians[span] for span in LAYER_SPANS}
    for layer in ("partitions", "chains", "instances"):
        metrics[f"{layer}.calls"] = tracer.calls(layer)
    searches = tracer.attrs("solve.lemma", "solve.theorem")
    found = [a for a in searches if "positions" in a]
    lemma_nodes = sum(a["nodes"] for a in tracer.attrs("solve.lemma"))
    metrics.update(
        {
            "solve.search_est_us": medians["solve.lemma"] - medians["instances.verify_lemma"],
            "solve.nodes": sum(a["nodes"] for a in searches),
            "solve.direct_nodes": sum(a["nodes"] for a in tracer.attrs("solve.direct")),
            "solve.nodes_per_s": lemma_nodes / (tracer.total_us("solve.lemma") / 1e6),
            "solve.backtrack_ratio": sum(a["nodes"] for a in found)
            / sum(a["positions"] for a in found),
            "jsonio.bytes_out": sum(a.get("bytes_out", 0) for a in tracer.attrs(*BYTES_SPANS)),
            "cli.import_ms": import_ms(),
            "trace.overhead_ratio": sum(traced) / sum(plain),
        }
    )
    return metrics, len(plain) + len(traced) + len(subjects), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="majorchain benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up, print its seconds and stop (the child runs behind setup_s)",
    )
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    cls = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            print(set_up(cls, args.seed, workdir)[1])
            return 0
        if args.trace:
            metrics, attempted, failures = trace(cls, args.seed, workdir)
        else:
            metrics, attempted, failures = measure(cls, args.seed, args.seconds, workdir)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, {len(failures)} failed")
    for reason in failures[:10]:
        print(f"  failed: {reason}")
    print(f"  fail_ratio = {len(failures) / attempted:.6g} ratio")
    units = {m["name"]: m["unit"] for m in declared}
    for group, names in (
        ("timings", [n for n in units if n not in COUNTERS]),
        ("counters (repeat exactly for a seed)", [n for n in units if n in COUNTERS]),
    ):
        if names:
            print(f"{group}:")
            for name in names:
                print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
