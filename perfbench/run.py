"""totaldom benchmark: three closed-loop workloads with one caller each.

Run from the repository root:

    python3 perfbench/run.py --workload solve-envelope --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the workload up, then repeats timed passes over the same
inputs (at least the workload's ``min_passes``; after that, while another
pass still fits in ``--seconds``) and prints the end-to-end metrics. Each
pass and each set-up is timed under a speed probe (``speed.py``) and scaled
to the probe's reference speed, so that the drifting speed of a shared host
drops out of the figures. ``--trace 1``
makes one untraced pass and one pass with spans around totaldom's public
functions (plus, for ``scan-n7``, one pass through the process pool),
writes the spans to ``.perfbench/<workload>-seed<seed>.json`` and prints
the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units are the
ones declared in ``BENCHMARK.json``. A wrong output aborts the run with exit
code 1 and no result line, so ``failed`` is always 0. A node-limit refusal
on ``solve-envelope`` is not a failure: it is the answer the workload's
fixed solver configuration asks for, and is reported as
``domination.limit_hits``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
SETUP_PROBES = 16

SOLVER_ARMS = ("path_cycle_formula", "circular_two", "circular_three")
GRAPH_GATES = ("two_coloring_masks", "is_connected_masks", "girth_masks")


def import_package():
    """Import totaldom from this checkout's ``src``; exit if it is missing."""
    if not (SRC / "totaldom" / "__init__.py").is_file():
        sys.exit(f"error: no totaldom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import totaldom

    if Path(totaldom.__file__).resolve().parent != SRC / "totaldom":
        sys.exit(f"error: imported totaldom from {totaldom.__file__}, not {SRC}")
    return totaldom


def declared_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def setup_probe(name: str, seed: int) -> float:
    """Import plus input generation, timed in a fresh interpreter and scaled
    to the reference speed like a pass."""
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import_package()
        import workloads

        workloads.WORKLOADS[name](seed).setup()
        elapsed = time.perf_counter() - t0
    return elapsed * probe.scale()


def setup_samples_s(name: str, seed: int, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def percentile_ms(latencies: list, q: float) -> float:
    """Nearest-rank percentile over the answered solves; refusals are left
    out (they are counted by ``domination.limit_hits`` and timed by
    ``domination.refused_s``)."""
    ranked = sorted(t for refused, t in latencies if not refused)
    if not ranked:
        return 0.0
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)] * 1000.0


def run_untraced(workload, seconds: float) -> tuple[list, dict]:
    from workloads import expect

    # half the set-up samples before the passes and half after, so that a
    # slow spell of the machine does not decide the median alone
    setup_samples = setup_samples_s(workload.name, workload.seed, SETUP_PROBES // 2)
    inputs = workload.setup()
    passes = []
    start = time.perf_counter()
    # at least the workload's min_passes passes; after that, another one
    # only if a pass as long as the last still ends within the run's seconds
    while len(passes) < workload.min_passes or (
            time.perf_counter() - start + passes[-1].wall_s <= seconds):
        with SpeedProbe() as probe:
            p = workload.run(inputs, workload.jobs)
        p.scale = probe.scale()
        if passes:
            expect(p.counts == passes[0].counts,
                   f"{workload.name}: exact counts differ between passes of one run")
        passes.append(p)
    setup_samples += setup_samples_s(workload.name, workload.seed, SETUP_PROBES - SETUP_PROBES // 2)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
        "norm_wall_s": statistics.median(p.wall_s * p.scale for p in passes),
    }
    return passes, metrics


def run_traced(workload) -> tuple[list, dict]:
    from spans import Totals, Tracer
    from workloads import SCAN_EXPECTED_N7, expect, trace_wraps

    inputs = workload.setup()
    pool = workload.run(inputs, workload.jobs) if workload.jobs > 1 else None
    untraced = workload.run(inputs, 1)
    tracer = Tracer(f"{workload.name}:seed={workload.seed}:traced")
    with tracer.installed(trace_wraps()):
        with tracer.span("bench.setup"):
            traced_inputs = workload.setup()
        with tracer.span("bench.pass"):
            traced = workload.run(traced_inputs, 1)
    expect(traced.counts == untraced.counts,
           f"{workload.name}: traced counts {traced.counts} != untraced {untraced.counts}")
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"{workload.name}-seed{workload.seed}.json")

    totals = tracer.totals()
    counters = tracer.counters

    def span(name: str) -> Totals:
        return totals.get(name, Totals())

    hits = counters.get("domination.gamma.raised", 0) + counters.get("domination.gamma_t.raised", 0)
    gamma_nodes = counters.get("domination.gamma.nodes", 0)
    gamma_t_nodes = counters.get("domination.gamma_t.nodes", 0)
    # a refused solve explored node_limit nodes before it gave up
    explored = gamma_nodes + gamma_t_nodes + hits * getattr(workload, "node_limit", 0)
    solve_s = span("domination.gamma").total_s + span("domination.gamma_t").total_s
    arms = tracer.by_label("verify.verify")
    # the bound arms are the six bound claims plus bipartite_extremal: the
    # seven claims the labeled scan checks
    scan_claims = [claim for claim, _ in SCAN_EXPECTED_N7]
    metrics = {
        "domination.gamma_s": span("domination.gamma").total_s,
        "domination.gamma_t_s": span("domination.gamma_t").total_s,
        "domination.gamma_t_calls": span("domination.gamma_t").calls,
        "domination.gamma_nodes": gamma_nodes,
        "domination.gamma_t_nodes": gamma_t_nodes,
        "domination.us_per_node": solve_s / explored * 1e6 if explored else 0.0,
        "domination.limit_hits": hits,
        "domination.solve_p50_ms": percentile_ms(untraced.latencies, 0.5),
        "domination.solve_p90_ms": percentile_ms(untraced.latencies, 0.9),
        "domination.refused_s": sum(t for refused, t in untraced.latencies if refused),
        "families.generate_s": span("families.generate").total_s,
        "families.prufer_decode_calls": span("families.prufer_decode").calls,
        "families.prufer_decode_s": span("families.prufer_decode").total_s,
        "bounds.all_bounds_s": span("bounds.all_bounds").total_s,
        "bounds.recognize_star_plus_matching_s":
            span("bounds.recognize_star_plus_matching").total_s,
        "cli.self_s": span("cli.main").self_s,
        "verify.tree_star_s": arms.get("tree_star", 0.0),
        "verify.bound_arms_s": sum(arms.get(a, 0.0) for a in scan_claims),
        "verify.solver_arms_s": sum(arms.get(a, 0.0) for a in SOLVER_ARMS),
        "verify.scan_passes": span("verify.scan_bound_claims").calls,
        "verify.scan_s": span("verify.scan_bound_claims").total_s,
        "verify.scan_self_s": span("verify.scan_bound_claims").self_s,
        "verify.instances": traced.counts.get("instances", 0),
        "verify.pool_efficiency":
            pool.child_cpu_s / (workload.jobs * pool.wall_s) if pool else 0.0,
    }
    for claim in scan_claims:
        metrics[f"verify.checked.{claim}"] = counters.get(f"verify.checked.{claim}", 0)
    for gate in GRAPH_GATES:
        metrics[f"graph.{gate}_s"] = span(f"graph.{gate}").total_s
        metrics[f"graph.{gate}_calls"] = span(f"graph.{gate}").calls
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    metrics["trace.untraced_wall_s"] = untraced.wall_s
    passes = [p for p in (pool, untraced, traced) if p is not None]
    return passes, metrics


class UndeclaredMetrics(RuntimeError):
    """The metrics a run produced differ from those BENCHMARK.json declares."""


def measure(workload, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return the result object the benchmark prints last
    and its passes."""
    end_to_end, per_layer = declared_units()
    if trace:
        passes, metrics = run_traced(workload)
        units = per_layer
    else:
        passes, metrics = run_untraced(workload, seconds)
        units = end_to_end
    if set(metrics) != set(units):
        raise UndeclaredMetrics(
            f"metrics {sorted(set(metrics) ^ set(units))} not matched in BENCHMARK.json"
        )
    result = {
        "correct": True,
        "attempted": sum(p.attempted for p in passes),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve-envelope", "verify-quick", "scan-n7"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0

    import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        result, passes = measure(workload, args.seconds, bool(args.trace))
    except workloads.BenchmarkFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"{workload.name} seed={args.seed} "
          + " ".join(f"{k}={v}" for k, v in sorted(passes[-1].counts.items())))
    if not args.trace:
        print("  passes (wall s x speed scale): "
              + ", ".join(f"{p.wall_s:.3f} x {p.scale:.4f}" for p in passes))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']} {m['unit']}")
    if args.trace:
        overhead = result["metrics"]["trace.overhead_s"]["value"]
        print(f"  tracing overhead: {overhead:.3f} s over one pass; "
              f"spans in {TRACE_DIR.name}/{workload.name}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
