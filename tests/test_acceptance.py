"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -s`` to watch the
lines live; the whole module is also part of the plain ``pytest`` run.
"""

import subprocess
import sys
import time
from fractions import Fraction

import pytest

from totaldom import (
    FamilyKind,
    FamilySpec,
    SolverConfig,
    Strategy,
    TheoremId,
    circular_gamma_t,
    gamma,
    gamma_t,
    generate,
    is_total_dominating,
    path_cycle_formula,
    verify,
)
from totaldom.cli import main as cli_main
from totaldom.verify import SCAN_CLAIMS, random_graph_specs, scan_bound_claims

EXHAUSTIVE = SolverConfig(strategy=Strategy.EXHAUSTIVE)
BNB = SolverConfig(strategy=Strategy.BRANCH_AND_BOUND)

N40_BASE_SEED = 0x5EED_0040


def family(text):
    return generate(FamilySpec.parse(text))


def report(name, ok, extra=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} {name}{': ' + extra if extra else ''}")
    assert ok, name


def test_criterion_1_exact_solver_sanity():
    t0 = time.perf_counter()
    ok = gamma_t(family("cycle:n=5")).value == 3
    for n in range(2, 13):
        ok = ok and gamma_t(family(f"complete:n={n}")).value == 2
    for n in range(3, 25):
        for kind in ("path", "cycle"):
            expected = path_cycle_formula(kind, n)
            ok = ok and gamma_t(family(f"{kind}:n={n}")).value == expected
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (solver sanity on C_5, K_n, closed forms to n=24)",
        ok and elapsed < 30.0,
        f"{elapsed:.1f}s",
    )


# labeled 7-vertex graphs passing each claim's hypothesis; the same counts
# as SCAN_EXPECTED_N7 in perfbench/workloads.py
CHECKED_N7 = {
    "cockayne_upper": 1_887_284,
    "connected_upper": 1_656_388,
    "n_over_delta_lower": 1_887_284,
    "diam2_upper": 676_455,
    "girth_upper": 1_620,
    "sandwich": 1_887_284,
}


@pytest.fixture(scope="module")
def scan_n7():
    """One single-threaded scan of every claim over all labeled 7-vertex
    graphs, shared by criteria 2 and 4, and its wall time."""
    t0 = time.perf_counter()
    results = scan_bound_claims([7], SCAN_CLAIMS, jobs=1)
    return results, time.perf_counter() - t0


def test_criterion_2_bound_soundness_n7(scan_n7):
    scan, elapsed = scan_n7
    results = {c: scan[c] for c in CHECKED_N7}
    violations = {c: len(cex) for c, (_, cex) in results.items()}
    checked = {c: count for c, (count, _) in results.items()}
    ok = all(v == 0 for v in violations.values())
    ok = ok and checked == CHECKED_N7
    report(
        "criterion 2 (zero violations over all 2,097,152 labeled 7-vertex graphs)",
        ok and elapsed < 600.0,
        f"single-threaded {elapsed:.0f}s, checked={checked}",
    )


def test_criterion_3_sharpness_via_sweep(capsys):
    code = cli_main(["sweep", "--family", "complete:n=2..12"])
    out_complete = capsys.readouterr().out
    code2 = cli_main(["sweep", "--family", "cycle:n=5..8"])
    out_cycle = capsys.readouterr().out
    ok = code == 0 and code2 == 0

    def column(text, name):
        lines = text.splitlines()
        header = lines[0].split(",")
        idx = {h: i for i, h in enumerate(header)}
        return {
            row.split(",")[idx["n"]]: (
                row.split(",")[idx[name]],
                row.split(",")[idx[name + "_tight"]],
            )
            for row in lines[1:]
        }

    lower_complete = column(out_complete, "n_over_delta_lower")
    ok = ok and all(lower_complete[str(n)][1] == "true" for n in range(2, 13))
    lower_cycle = column(out_cycle, "n_over_delta_lower")
    ok = ok and lower_cycle["8"] == ("4", "true")
    diam2 = column(out_cycle, "diam2_upper")
    ok = ok and diam2["5"] == ("3", "true")
    report(
        "criterion 3 (sharpness: lower bound tight on K_n and C_8, diam-2 bound tight on C_5, via sweep)",
        ok,
    )


def test_criterion_4_bipartite_extremal_n7(scan_n7):
    t0 = time.perf_counter()
    results = scan_bound_claims(range(1, 7), ("bipartite_extremal",), jobs=1)
    scan, elapsed = scan_n7
    count = results["bipartite_extremal"][0] + scan["bipartite_extremal"][0]
    cex = results["bipartite_extremal"][1] + scan["bipartite_extremal"][1]
    elapsed += time.perf_counter() - t0
    report(
        "criterion 4 (extremal bipartite graphs are exactly star-plus-matching, n <= 7)",
        len(cex) == 0 and count == 77_340,  # 73,668 on n = 7 and 3,672 on n <= 6
        f"{count} bipartite instances, {len(cex)} discrepancies, {elapsed:.0f}s",
    )


def test_criterion_5_tree_corollary():
    r = verify(TheoremId.TREE_STAR, scale="full", jobs=1)
    report(
        "criterion 5 (trees extremal iff star: exhaustive n <= 8 plus 200 random n <= 16)",
        r.verdict == "PASS" and r.instances_checked == 280_592,
        f"instances={r.instances_checked}",
    )


def test_criterion_6_circular_grid():
    ok = True
    cells = 0
    for d in range(3, 9):
        for n in range(2 * d, 49):
            cv = circular_gamma_t(n, d)
            g = generate(FamilySpec(kind=FamilyKind.CIRCULAR_COMPLETE, n=n, d=d))
            ok = ok and gamma_t(g, BNB).value == cv.value
            ok = ok and is_total_dominating(g, cv.witness)
            cells += 1
    k73 = gamma_t(family("circular:n=7,d=3")).value
    ok = ok and k73 == circular_gamma_t(7, 3).value == 4
    report(
        "criterion 6 (circular complete grid d in 3..8, n <= 48: closed form and witness vs solver)",
        ok,
        f"{cells} cells; gamma_t(K_(7,3))={k73}",
    )


def test_criterion_7_solver_equivalence_and_performance():
    mismatches = 0
    for spec in random_graph_specs(500):
        g = generate(spec)
        bb = gamma_t(g, BNB)
        ex = gamma_t(g, EXHAUSTIVE)
        if (bb is None) != (ex is None) or (bb is not None and bb.value != ex.value):
            mismatches += 1
        if gamma(g, BNB).value != gamma(g, EXHAUSTIVE).value:
            mismatches += 1

    # first 20 isolated-vertex-free graphs at n=40, p=0.15, from a fixed base
    solved = 0
    worst = 0.0
    seed = N40_BASE_SEED
    while solved < 20:
        spec = FamilySpec(
            kind=FamilyKind.RANDOM_GRAPH, n=40, p=Fraction(3, 20), seed=seed
        )
        seed += 1
        g = generate(spec)
        if g.isolated_mask():
            continue
        t0 = time.perf_counter()
        res = gamma_t(g, BNB)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert res is not None and is_total_dominating(g, res.witness)
        solved += 1
    report(
        "criterion 7 (strategy equivalence on 500 graphs; 20 solves at n=40 within 60 s each)",
        mismatches == 0 and worst < 60.0,
        f"mismatches={mismatches}, worst n=40 solve {worst:.2f}s",
    )


def test_criterion_8_verify_determinism():
    cmd = [
        sys.executable,
        "-m",
        "totaldom",
        "verify",
        "--theorem",
        "all",
        "--scale",
        "quick",
        "--jobs",
        "4",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.count(b"PASS") == 11
    )
    report(
        "criterion 8 (two verify-all quick runs with --jobs 4 are byte-identical)",
        ok,
        f"{len(first.stdout)} bytes, 11 PASS lines",
    )
