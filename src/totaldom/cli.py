"""Command-line frontend.

Stdout carries exclusively the requested output format so pipelines can
consume it; diagnostics go to stderr. Exit codes: 0 success or all-PASS,
1 counterexample or cross-check mismatch, 2 usage error, 3 resource limit,
141 stdout closed by its reader (the status a shell reports for SIGPIPE).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .bounds import all_bounds
from .domination import DominationResult, SolverConfig, Strategy, gamma, gamma_t
from .errors import ResourceExhausted, ToolkitError
from .families import FamilySpec, generate, parse_family_range
from .graph import (
    Graph,
    format_edge_list,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from .verify import SCALES, TheoremId, _fmt, shared_domains, sweep, sweep_csv, verify

# keys a --config file may set: the long flags, with '_' for '-'
_CONFIG_KEYS = frozenset(
    "family input output format strategy theorem scale node_limit time_limit "
    "jobs seed no_exact paranoid stats".split()
)


def _positive(kind: type):
    """An argparse type: a ``kind`` above 0, so not nan."""

    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError by kind's name
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: ``parse_args`` leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="totaldom",
        description=(
            "Exact domination and total domination numbers, classical bounds, "
            "family generators, and an exhaustive claim-verification harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", help="edge-list file ('-' for stdin)")
        p.add_argument("--family", help="family spec, e.g. circular:n=10,d=3")
        p.add_argument("--seed", type=int, help="override the family's seed")

    def add_solver(p):
        p.add_argument(
            "--strategy",
            choices=[s.value for s in Strategy],
            default=Strategy.BRANCH_AND_BOUND.value,
        )
        p.add_argument("--node-limit", type=_positive(int))
        p.add_argument("--time-limit", type=_positive(float), help="seconds")

    def add_common(p):
        p.add_argument("--config", help="key=value file mirroring the flags")
        p.add_argument(
            "--stats", action="store_true", help="include timing and counters"
        )

    p = sub.add_parser("compute", help="gamma and gamma_t with witnesses")
    add_input(p)
    add_solver(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--paranoid",
        action="store_true",
        help="cross-check the default solver against the exhaustive one",
    )
    add_common(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("bounds", help="evaluate every bound on a graph")
    add_input(p)
    add_solver(p)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument(
        "--no-exact",
        action="store_true",
        help="skip the exact solve (tightness flags stay empty)",
    )
    add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("family", help="generate a family member as an edge list")
    p.add_argument("--family", required=True)
    p.add_argument("--seed", type=int, help="override the family's seed")
    p.add_argument("--output", help="write here instead of stdout")
    p.add_argument("--config", help="key=value file mirroring the flags")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="run claim verification domains")
    p.add_argument(
        "--theorem",
        default="all",
        help="claim id or 'all' (see --list)",
    )
    p.add_argument("--list", action="store_true", help="list claim ids and exit")
    p.add_argument("--scale", choices=SCALES, default="quick")
    p.add_argument(
        "--jobs",
        type=_positive(int),
        default=1,
        help="accepted for scripts and --config files; verify runs in one process",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="family sweep table")
    p.add_argument("--family", required=True, help="spec with a..b ranges")
    p.add_argument("--seed", type=int, help="override the family's seed")
    add_solver(p)
    p.add_argument("--jobs", type=_positive(int), default=1)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--config", help="key=value file mirroring the flags")
    p.set_defaults(func=_cmd_sweep)

    return parser


def _load_config(path: str) -> dict[str, str]:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ToolkitError(f"{path}: {exc}") from exc
        for line_no, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not eq or key not in _CONFIG_KEYS:
                raise ToolkitError(f"config line {line_no}: cannot parse {raw!r}")
            values[key] = value.strip()
    return values


# the values a --config file may give a switch such as stats, in lower case
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _with_config(
    parser: argparse.ArgumentParser, args: argparse.Namespace, argv: list[str]
) -> list[str]:
    """``argv`` with the config file's values inserted as flags ahead of the
    given ones, so the parser checks them like flags and a flag given on the
    command line wins; a switch's value that is neither true nor false is a
    usage error. Keys that name no flag of the subcommand are skipped."""
    flags = []
    for key, value in _load_config(args.config).items():
        if not hasattr(args, key):
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):
            if value.lower() in _TRUE:
                flags.append(flag)
            elif value.lower() not in _FALSE:
                parser.error(f"config: {key}={value!r} is not a boolean")
        else:
            flags.append(f"{flag}={value}")
    return [*argv[:1], *flags, *argv[1:]]


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        strategy=Strategy(args.strategy),
        node_limit=args.node_limit,
        time_limit=args.time_limit,
    )


def _spec_with_seed(spec: FamilySpec, seed: int | None) -> FamilySpec:
    if seed is None:
        return spec
    if spec.seed is None:
        raise ToolkitError(
            f"--seed given but family {spec.kind.value!r} takes no seed"
        )
    return dataclasses.replace(spec, seed=seed)


def _load_graph(args) -> Graph:
    if (args.input is None) == (args.family is None):
        raise ToolkitError("exactly one of --input or --family is required")
    if args.input is not None:
        if args.seed is not None:
            raise ToolkitError("--seed applies to --family only, not to --input")
        if args.input == "-":
            # bytes, decoded here: the text layer's decoding follows the locale
            try:
                text = sys.stdin.buffer.read().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ToolkitError(f"<stdin>: {exc}") from exc
            return parse_edge_list(text)
        return read_edge_list(args.input)
    spec = _spec_with_seed(FamilySpec.parse(args.family), args.seed)
    return generate(spec)


def _witness_text(result: DominationResult | None) -> str:
    if result is None:
        return "undefined"
    return f"{result.value} witness=[{','.join(map(str, result.witness))}]"


def _stats_dict(result: DominationResult | None) -> dict | None:
    if result is None:
        return None
    counters = result.stats._asdict()
    elapsed = counters.pop("elapsed_seconds")
    return {**counters, "elapsed_ms": int(elapsed * 1000)}


def _cmd_compute(args) -> int:
    g = _load_graph(args)
    cfg = _solver_config(args)
    res_g = gamma(g, cfg)
    res_t = gamma_t(g, cfg)
    if args.paranoid:
        check = dataclasses.replace(cfg, strategy=Strategy.EXHAUSTIVE)
        ref_t = gamma_t(g, check)  # None exactly when res_t is: an isolated vertex
        ours = (res_g.value, res_t and res_t.value)
        ref = (gamma(g, check).value, ref_t and ref_t.value)
        if ours != ref:
            print(
                "paranoid cross-check failed: "
                f"gamma {ours[0]} vs {ref[0]}, gamma_t {ours[1]} vs {ref[1]}",
                file=sys.stderr,
            )
            return 1
    if args.format == "json":
        payload = {
            "n": g.n,
            "m": g.m,
            "gamma": {"value": res_g.value, "witness": list(res_g.witness)},
            "gamma_t": None
            if res_t is None
            else {"value": res_t.value, "witness": list(res_t.witness)},
        }
        if args.stats:
            payload["stats"] = {
                "gamma": _stats_dict(res_g),
                "gamma_t": _stats_dict(res_t),
            }
        print(json.dumps(payload, indent=2))
    else:
        print(f"n={g.n} m={g.m}")
        print(f"gamma={_witness_text(res_g)}")
        print(f"gamma_t={_witness_text(res_t)}")
        if args.stats:
            for name, res in (("gamma", res_g), ("gamma_t", res_t)):
                st = _stats_dict(res)
                if st is not None:
                    fields = " ".join(f"{key}={value}" for key, value in st.items())
                    print(f"{name}_stats {fields}")
    return 0


def _cmd_bounds(args) -> int:
    g = _load_graph(args)
    exact = None
    if not args.no_exact:
        res_t = gamma_t(g, _solver_config(args))
        exact = res_t.value if res_t is not None else None
    reports = all_bounds(g, exact=exact)
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    elif args.format == "csv":
        print("bound,applicable,value,tight")
        for r in reports:
            print(",".join([r.bound, *map(_fmt, (r.applicable, r.value, r.tight))]))
    else:
        for r in reports:
            tight = "" if r.tight is None else f" tight={_fmt(r.tight)}"
            print(f"{r.bound} applicable={_fmt(r.applicable)} value={_fmt(r.value) or '-'}{tight}")
    return 0


def _cmd_family(args) -> int:
    spec = _spec_with_seed(FamilySpec.parse(args.family), args.seed)
    g = generate(spec)
    if args.output:
        write_edge_list(g, args.output)
    else:
        sys.stdout.write(format_edge_list(g))
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        for t in TheoremId:
            print(t.value)
        return 0
    if args.theorem == "all":
        ids = list(TheoremId)
    else:
        try:
            ids = [TheoremId(args.theorem)]
        except ValueError:
            raise ToolkitError(
                f"unknown theorem {args.theorem!r}; try 'verify --list'"
            ) from None
    with shared_domains():
        reports = [verify(t, scale=args.scale) for t in ids]
    if args.format == "json":
        print(
            json.dumps(
                [r.to_json_dict(include_stats=args.stats) for r in reports],
                indent=2,
            )
        )
    else:
        for r in reports:
            stats = "".join(f" {k}={v}" for k, v in r.stats().items()) if args.stats else ""
            print(f"{r.verdict} {r.theorem.value} checked={r.instances_checked}{stats}")
            for cex in r.counterexamples:
                print(f"  counterexample: {json.dumps(cex, sort_keys=True)}")
    return 0 if all(r.verdict == "PASS" for r in reports) else 1


def _cmd_sweep(args) -> int:
    specs = [
        _spec_with_seed(s, args.seed) for s in parse_family_range(args.family)
    ]
    rows = sweep(specs, jobs=args.jobs, config=_solver_config(args))
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        sys.stdout.write(sweep_csv(rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_with_config(parser, args, argv))
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return code
    except ResourceExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # shutdown stays silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ToolkitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
