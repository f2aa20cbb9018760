"""The benchmark's three workloads: inputs from a seed, one timed pass, gates.

Every workload is a closed loop with one caller: each call into totaldom
waits for the previous one to return. Only public entry points are called:
``domination.gamma``/``gamma_t``, ``bounds.all_bounds``, ``cli.main`` and
``verify.scan_bound_claims``. Every output is checked; a wrong one raises
``BenchmarkFailure``, which aborts the run.

Importing this module imports totaldom, so the time to import it is part of
the benchmark's set-up time.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import time
from dataclasses import dataclass, field

from totaldom import bounds, cli, domination, errors, families

from spans import Wrap

# ``totaldom.verify`` the attribute is the re-exported function; the module
# itself is only reachable through the import system.
verify_mod = importlib.import_module("totaldom.verify")


class BenchmarkFailure(Exception):
    """A wrong or inconsistent output: the run is aborted."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise BenchmarkFailure(message)


def _children_cpu_s() -> float:
    """CPU seconds of the children this process has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


@dataclass
class Pass:
    """One timed pass of a workload, with the exact counts it produced."""

    wall_s: float
    child_cpu_s: float  # CPU time of the children reaped during the pass
    attempted: int
    counts: dict
    # solve-envelope: (refused, seconds) for every solver call
    latencies: list = field(default_factory=list)
    # machine speed during the pass relative to the reference (speed.py);
    # set by the untraced run
    scale: float = 1.0


def _timed(call):
    c0 = _children_cpu_s()
    t0 = time.perf_counter()
    out = call()
    wall = time.perf_counter() - t0
    return out, wall, _children_cpu_s() - c0


# -- solve-envelope ---------------------------------------------------------------

# Branch and bound near the 64-vertex envelope: (n, p, graphs). The sparse
# n=64 classes are where the exact solvers stop being fast. They stay in the
# set and end as counted refusals at the node limit instead of as 100-second
# outliers, but with few graphs each, so that refusals stay a minority of the
# solves. The classes that are mostly answered have many graphs, which keeps
# the seed-to-seed spread of a pass small; the node limit, which caps a
# solve's cost, helps the same way. With 84 graphs and a 10,000-node limit
# one pass fills a run.
SOLVE_CLASSES = (
    (40, "0.15", 34),
    (50, "0.15", 6),
    (64, "0.3", 34),
    (64, "0.2", 6),
    (64, "0.15", 2),
    (64, "0.1", 2),
)
NODE_LIMIT = 10_000

UPPER_BOUNDS = ("cockayne_upper", "connected_upper", "diam2_upper", "girth_upper")

REFUSED = "refused"  # a solve that hit the node limit


class SolveEnvelope:
    name = "solve-envelope"
    jobs = 1
    min_passes = 1

    def __init__(self, seed: int, classes: tuple = SOLVE_CLASSES,
                 node_limit: int = NODE_LIMIT):
        self.seed = seed
        self.classes = classes
        self.node_limit = node_limit
        self.config = domination.SolverConfig(node_limit=node_limit)

    def specs(self) -> list:
        rng = random.Random(self.seed)
        return [
            families.FamilySpec.parse(f"random:n={n},p={p},seed={rng.getrandbits(32)}")
            for n, p, count in self.classes
            for _ in range(count)
        ]

    def setup(self) -> list:
        return [(spec, families.generate(spec)) for spec in self.specs()]

    def run(self, graphs: list, jobs: int) -> Pass:
        latencies = []

        def solve(fn, g):
            t0 = time.perf_counter()
            try:
                result = fn(g, self.config)
            except errors.ResourceExhausted:
                result = REFUSED
            latencies.append((result is REFUSED, time.perf_counter() - t0))
            return result

        def loop():
            rows = []
            for spec, g in graphs:
                res_g = solve(domination.gamma, g)
                res_t = solve(domination.gamma_t, g)
                exact = res_t.value if isinstance(res_t, domination.DominationResult) else None
                rows.append((spec, g, res_g, res_t, bounds.all_bounds(g, exact)))
            return rows

        rows, wall, child = _timed(loop)
        return Pass(wall, child, len(latencies), self.check(rows), latencies)

    def check(self, rows: list) -> dict:
        """Gate every output; return the exact counts and their digest."""
        counts = {"graphs": len(rows), "refused": 0, "undefined": 0,
                  "gamma_nodes": 0, "gamma_t_nodes": 0}
        digest = hashlib.sha256()
        for spec, g, res_g, res_t, reports in rows:
            def need(ok: bool, what: str) -> None:
                expect(ok, f"{self.name} {spec}: {what}")

            n, delta = g.n, max(g.degrees())
            if res_g is REFUSED:
                counts["refused"] += 1
            else:
                need(domination.is_dominating(g, res_g.witness), "gamma witness does not dominate")
                need(len(res_g.witness) == res_g.value, "gamma witness size != value")
                counts["gamma_nodes"] += res_g.stats.branch_nodes
            if res_t is None:
                counts["undefined"] += 1
                need(g.isolated_mask() != 0, "gamma_t undefined without an isolated vertex")
            elif res_t is REFUSED:
                counts["refused"] += 1
            else:
                need(g.isolated_mask() == 0, "gamma_t defined despite an isolated vertex")
                need(domination.is_total_dominating(g, res_t.witness),
                     "gamma_t witness does not totally dominate")
                need(len(res_t.witness) == res_t.value, "gamma_t witness size != value")
                need(res_t.value >= -(-n // delta), "gamma_t < ceil(n / max degree)")
                if res_g is not REFUSED:
                    need(res_g.value <= res_t.value <= 2 * res_g.value,
                         "gamma <= gamma_t <= 2 gamma fails")
                counts["gamma_t_nodes"] += res_t.stats.branch_nodes
            exact = res_t.value if isinstance(res_t, domination.DominationResult) else None
            _check_bounds(need, g, reports, exact)
            line = [str(spec), _outcome(res_g), _outcome(res_t),
                    ",".join(str(r.value) for r in reports)]
            digest.update("|".join(line).encode() + b"\n")
        counts["digest"] = digest.hexdigest()[:16]
        return counts


def _check_bounds(need, g, reports: list, exact) -> None:
    """Every applicable bound holds against the exact gamma_t."""
    need([r.bound for r in reports] == list(bounds.BOUND_IDS), "unexpected bound list")
    no_isolated = g.isolated_mask() == 0
    for r in reports:
        if r.bound in ("cockayne_upper", "n_over_delta_lower"):
            need(r.applicable == no_isolated, f"{r.bound} gate is wrong")
        if not r.applicable:
            need(r.value is None and r.tight is None, f"{r.bound} has a value but is not applicable")
        elif exact is None:
            need(r.tight is None, f"{r.bound} tightness without an exact value")
        else:
            need(r.tight == (r.value == exact), f"{r.bound} tightness flag is wrong")
            if r.bound in UPPER_BOUNDS:
                need(exact <= r.value, f"{r.bound} = {r.value} below gamma_t = {exact}")
            else:
                need(exact >= r.value, f"{r.bound} = {r.value} above gamma_t = {exact}")


def _outcome(result) -> str:
    if result is None:
        return "undefined"
    if result is REFUSED:
        return REFUSED
    return f"{result.value}:{result.stats.branch_nodes}"


# -- verify-quick -------------------------------------------------------------------

# The documented harness command, run in-process: a plain single-threaded
# baseline whose time goes to the tree walk and seven separate labeled scans.
VERIFY_EXPECTED = (
    ("cockayne_upper", 28_263),
    ("connected_upper", 22_129),
    ("n_over_delta_lower", 28_263),
    ("diam2_upper", 11_393),
    ("girth_upper", 72),
    ("sandwich", 28_263),
    ("path_cycle_formula", 36),
    ("bipartite_extremal", 3_672),
    ("tree_star", 280_592),
    ("circular_two", 84),
    ("circular_three", 10),
)


class VerifyQuick:
    name = "verify-quick"
    jobs = 1
    min_passes = 2

    def __init__(self, seed: int, theorem: str = "all"):
        self.seed = seed  # exhaustive domains: the seed changes nothing
        self.argv = ["verify", "--theorem", theorem, "--scale", "quick",
                     "--jobs", "1", "--format", "json"]
        self.expected = VERIFY_EXPECTED if theorem == "all" else None

    def setup(self) -> list:
        return list(self.argv)

    def run(self, argv: list, jobs: int) -> Pass:
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        (code, stdout), wall, child = _timed(call)
        expect(code == 0, f"{self.name}: exit code {code}")
        reports = json.loads(stdout)
        for r in reports:
            expect(r["verdict"] == "PASS" and r["counterexamples"] == [],
                   f"{self.name}: {r['theorem']} failed")
        got = tuple((r["theorem"], r["instances"]) for r in reports)
        if self.expected is not None:
            expect(got == self.expected, f"{self.name}: claims/instances {got} != {self.expected}")
        counts = {"claims": len(reports), "instances": sum(c for _, c in got)}
        return Pass(wall, child, len(reports), counts)


# -- scan-n7 --------------------------------------------------------------------------

# The same scan code as verify-quick, used differently: one fused pass over
# every labeled 7-vertex graph, dominated by the structural gates and the
# exhaustive covers, through the fork pool and the merge.
SCAN_EXPECTED_N7 = (
    ("cockayne_upper", 1_887_284),
    ("connected_upper", 1_656_388),
    ("n_over_delta_lower", 1_887_284),
    ("diam2_upper", 676_455),
    ("girth_upper", 1_620),
    ("sandwich", 1_887_284),
    ("bipartite_extremal", 73_668),
)
SCAN_JOBS = 2


class ScanN7:
    name = "scan-n7"
    jobs = SCAN_JOBS
    # the speed probe runs in the parent while the pool works, so it tracks
    # the workers' speed less closely: the median of three passes, whatever
    # they take
    min_passes = 3

    def __init__(self, seed: int, n: int = 7):
        self.seed = seed  # exhaustive domain: the seed changes nothing
        self.n = n
        self.claims = tuple(c for c, _ in SCAN_EXPECTED_N7)
        self.expected = SCAN_EXPECTED_N7 if n == 7 else None

    def setup(self) -> tuple:
        return [self.n], self.claims

    def run(self, inputs: tuple, jobs: int) -> Pass:
        ns, claims = inputs
        merged, wall, child = _timed(
            lambda: verify_mod.scan_bound_claims(ns, claims, jobs=jobs)
        )
        expect(tuple(merged) == claims, f"{self.name}: claims {tuple(merged)} != {claims}")
        for claim, (_, cex) in merged.items():
            expect(cex == [], f"{self.name}: {claim} has {len(cex)} counterexamples")
        got = tuple((claim, count) for claim, (count, _) in merged.items())
        if self.expected is not None:
            expect(got == self.expected, f"{self.name}: per-claim counts {got} != {self.expected}")
        counts = {f"checked.{claim}": count for claim, count in got}
        counts["instances"] = sum(count for _, count in got)
        return Pass(wall, child, len(claims), counts)


WORKLOADS = {w.name: w for w in (SolveEnvelope, VerifyQuick, ScanN7)}


# -- traced run -------------------------------------------------------------------------


def _add(counters: dict, key: str, amount: int) -> None:
    counters[key] = counters.get(key, 0) + amount


def _count_nodes(name: str):
    def hook(result, counters):
        if result is not None:
            _add(counters, name + ".nodes", result.stats.branch_nodes)
    return hook


def _count_checked(merged, counters):
    for claim, (count, _) in merged.items():
        _add(counters, f"verify.checked.{claim}", count)


def trace_wraps() -> list:
    """Every public function the workloads reach, under the name each
    calling module looks it up by."""
    gamma_t_nodes = _count_nodes("domination.gamma_t")
    return [
        Wrap(cli, "main", "cli.main"),
        Wrap(cli, "verify", "verify.verify", label=lambda theorem, *a, **k: theorem.value),
        Wrap(verify_mod, "scan_bound_claims", "verify.scan_bound_claims", on_result=_count_checked),
        Wrap(verify_mod, "gamma_t", "domination.gamma_t", on_result=gamma_t_nodes),
        Wrap(verify_mod, "generate", "families.generate"),
        Wrap(verify_mod, "prufer_decode", "families.prufer_decode", aggregate=True),
        Wrap(verify_mod, "two_coloring_masks", "graph.two_coloring_masks", aggregate=True),
        Wrap(verify_mod, "is_connected_masks", "graph.is_connected_masks", aggregate=True),
        Wrap(verify_mod, "girth_masks", "graph.girth_masks", aggregate=True),
        Wrap(verify_mod, "recognize_star_plus_matching",
             "bounds.recognize_star_plus_matching", aggregate=True),
        Wrap(domination, "gamma", "domination.gamma", on_result=_count_nodes("domination.gamma")),
        Wrap(domination, "gamma_t", "domination.gamma_t", on_result=gamma_t_nodes),
        Wrap(families, "generate", "families.generate"),
        Wrap(bounds, "all_bounds", "bounds.all_bounds"),
    ]
