"""Self-test of the benchmark on reduced workloads (well under a minute).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
* every metric the benchmark prints, untraced and traced, for each workload,
  is declared in BENCHMARK.json (``run.measure`` raises otherwise, and the
  units it prints are taken from the declaration);
* a traced run puts back every function it wrapped, also when the traced
  code raises, and the speed probe puts back the SIGALRM handler and timer;
* a reduced traced run reproduces the exact counts of an untraced one.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import signal
import sys

import run

run.import_package()

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def reduced_workloads() -> list:
    return [
        workloads.SolveEnvelope(seed=3, classes=tuple((n, p, 1) for n, p, _ in
                                                      workloads.SOLVE_CLASSES),
                                node_limit=5_000),
        workloads.VerifyQuick(seed=3, theorem="sandwich"),
        workloads.ScanN7(seed=3, n=5),
    ]


def wrapped_attributes() -> dict:
    return {(w.module, w.attr): getattr(w.module, w.attr) for w in workloads.trace_wraps()}


def check_restored(before: dict, what: str) -> None:
    after = wrapped_attributes()
    check(all(after[key] is fn for key, fn in before.items()),
          f"{what}: every wrapped function is restored")


def check_counts(w, untraced, traced_metrics: dict) -> None:
    """The traced run's counters against the untraced pass's exact counts."""
    counts = untraced.counts
    value = {k: m["value"] for k, m in traced_metrics.items()}
    if isinstance(w, workloads.SolveEnvelope):
        expected = {
            "domination.gamma_nodes": counts["gamma_nodes"],
            "domination.gamma_t_nodes": counts["gamma_t_nodes"],
            "domination.limit_hits": counts["refused"],
        }
    else:
        expected = {"verify.instances": counts["instances"], "verify.scan_passes": 1}
        if isinstance(w, workloads.ScanN7):
            for claim in w.claims:
                expected[f"verify.checked.{claim}"] = counts[f"checked.{claim}"]
        else:
            # the reduced verify run checks sandwich, whose domain is one scan
            expected["verify.checked.sandwich"] = counts["instances"]
    got = {k: value[k] for k in expected}
    check(got == expected, f"{w.name}: traced counts {got} == untraced {expected}")


def measure(w, trace: bool) -> dict | None:
    """The result object of a reduced run, or None when its printed metrics
    differ from the declared ones."""
    mode = "traced" if trace else "untraced"
    try:
        result, _ = run.measure(w, seconds=0, trace=trace)
    except run.UndeclaredMetrics as exc:
        check(False, f"{w.name} {mode}: {exc}")
        return None
    check(True, f"{w.name} {mode}: printed metrics are the declared ones")
    return result


def main() -> int:
    for w in reduced_workloads():
        measure(w, trace=False)

        before = wrapped_attributes()
        traced = measure(w, trace=True)
        check_restored(before, f"{w.name} traced run")
        if traced is None:
            continue

        untraced_pass = w.run(w.setup(), 1)
        check_counts(w, untraced_pass, traced["metrics"])

    before = wrapped_attributes()
    try:
        tracer = spans.Tracer("selftest")
        with tracer.installed(workloads.trace_wraps()):
            raise KeyboardInterrupt
    except KeyboardInterrupt:
        pass
    check_restored(before, "interrupted traced run")

    handler = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        for _ in range(500):  # about half a second
            speed.chunk()
    check(signal.getsignal(signal.SIGALRM) is handler
          and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
          "speed probe restores the SIGALRM handler and disarms its timer")
    check(len(probe.samples) > 2 and probe.scale() > 0,
          f"speed probe sampled during the pass ({len(probe.samples)} samples)")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
