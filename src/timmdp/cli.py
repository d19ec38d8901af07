"""Batch command line: generate, solve, evaluate, export-dot, bench.

Machine output (values, CSV, DOT) goes to stdout or files; diagnostics go
to stderr. Exit codes: 0 success, 2 usage, 3 validation failure, 4 solve
timeout, 5 resource limit. All behavior is flag-driven - no environment
variables - so runs are reproducible from the command line alone.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path

from . import baselines, domains, formats, search
from .crg import build_crgs
from .model import TiMmdpInstance, validate_instance
from .search import SearchConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_TIMEOUT = 4
EXIT_RESOURCE = 5

ALGORITHMS = ("core", "crg-ps", "dp")


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _load_valid_instance(path: str) -> TiMmdpInstance | int:
    try:
        m = formats.read_instance(Path(path).read_text(encoding="utf-8"))
    except (OSError, formats.FormatError) as exc:
        _err(f"cannot read instance {path}: {exc}")
        return EXIT_VALIDATION
    violations = validate_instance(m)
    if violations:
        for v in violations:
            _err(str(v))
        return EXIT_VALIDATION
    return m


def _solve_once(name: str, m: TiMmdpInstance, algorithm: str,
                time_limit: float | None,
                ) -> tuple[formats.ResultRow,
                           baselines.DpResult | search.SolveReport | None]:
    """Run one algorithm on one instance; returns its result row and the
    solver's result, if it returned one. A core or crg-ps report extracts
    its ``policy`` only when read."""
    start = time.perf_counter()
    value, stats, status, result = None, {}, "solved", None
    if algorithm == "dp":
        try:
            result = baselines.dp_solve(m, time_budget=time_limit)
        except search.TimeBudgetExceeded:
            status = "timeout"
        except baselines.StateSpaceBudgetExceeded:
            status = "resource"
        else:
            value, stats = result.value, result.stats
    else:
        crgs = build_crgs(m)
        remaining = None
        if time_limit is not None:
            remaining = time_limit - (time.perf_counter() - start)
        if remaining is not None and remaining <= 0:
            status = "timeout"
        else:
            cfg = SearchConfig(pruning=(algorithm == "core"),
                               time_budget=remaining)
            result = search.core_solve(m, crgs, cfg)
            value, stats = result.value, result.stats.as_dict()
            status = result.status
    row = formats.ResultRow(
        instance=name, algorithm=algorithm, status=status, value=value,
        joint_actions_evaluated=stats.get("joint_actions_evaluated", 0),
        nodes_pruned=stats.get("nodes_pruned", 0),
        decouple_events=stats.get("decouple_events", 0),
        wall_time_ms=int((time.perf_counter() - start) * 1000))
    return row, result


def _cmd_generate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.family == "example":
        instances = [domains.example_two_agent() for _ in range(args.count)]
    else:
        kwargs = {}
        if args.family == "mpp":
            kwargs = {"n_agents": args.n, "tasks_per_agent": args.tasks,
                      "horizon": args.horizon, "density": args.density}
        elif args.family == "pyra":
            kwargs = {"n": args.n, "h": args.horizon}
        mpps = domains.gen_batch(args.family, args.count, args.seed, **kwargs)
        instances = [domains.compile_mpp(x) for x in mpps]
    for k, m in enumerate(instances):
        violations = validate_instance(m)
        if violations:
            for v in violations:
                _err(str(v))
            return EXIT_VALIDATION
        path = out_dir / f"{args.family}-{k:03d}.json"
        path.write_text(formats.write_instance(m), encoding="utf-8")
        _err(f"wrote {path}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    m = _load_valid_instance(args.instance)
    if isinstance(m, int):
        return m
    row, result = _solve_once(Path(args.instance).stem, m, args.algorithm,
                              args.time_limit)
    if args.stats:
        Path(args.stats).write_text(formats.write_results([row]),
                                    encoding="utf-8")
    if row.status == "timeout":
        _err(f"time limit of {args.time_limit}s exceeded")
        return EXIT_TIMEOUT
    if row.status == "resource":
        _err("state-space budget exceeded")
        return EXIT_RESOURCE
    if args.policy_out and result is not None:
        Path(args.policy_out).write_text(formats.write_policy(result.policy),
                                         encoding="utf-8")
    print(f"value {row.value:.17g}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    m = _load_valid_instance(args.instance)
    if isinstance(m, int):
        return m
    try:
        policy = formats.read_policy(
            Path(args.policy).read_text(encoding="utf-8"), m)
    except (OSError, UnicodeDecodeError, formats.FormatError) as exc:
        _err(f"cannot read policy {args.policy}: {exc}")
        return EXIT_VALIDATION
    try:
        value = baselines.evaluate_policy(m, policy)
    except KeyError as exc:
        _err(f"policy incomplete: {exc.args[0]}")
        return EXIT_VALIDATION
    print(f"value {value:.17g}")
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    m = _load_valid_instance(args.instance)
    if isinstance(m, int):
        return m
    if not 0 <= args.agent < m.n_agents:
        _err(f"agent {args.agent} outside [0, {m.n_agents})")
        return EXIT_USAGE
    crgs = build_crgs(m)
    sys.stdout.write(formats.export_dot(crgs[args.agent], bounds=args.bounds))
    return EXIT_OK


def _bench_job(job: tuple[str, TiMmdpInstance, str, float | None],
               ) -> formats.ResultRow:
    name, m, algorithm, time_limit = job
    row, _ = _solve_once(name, m, algorithm, time_limit)
    return row


def _cmd_bench(args) -> int:
    paths = sorted(str(p) for p in Path(args.instances).glob("*.json"))
    if not paths:
        _err(f"no instance files under {args.instances}")
        return EXIT_USAGE
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for a in algorithms:
        if a not in ALGORITHMS:
            _err(f"unknown algorithm {a!r}")
            return EXIT_USAGE
    # Each file is read and validated once; its jobs share the instance.
    instances = []
    for path in paths:
        m = _load_valid_instance(path)
        if isinstance(m, int):
            return m
        instances.append((Path(path).stem, m))
    jobs = [(name, m, a, args.time_limit)
            for name, m in instances for a in algorithms]
    if args.jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(args.jobs) as pool:
            rows = pool.map(_bench_job, jobs)
    else:
        rows = [_bench_job(job) for job in jobs]
    Path(args.out).write_text(formats.write_results(rows), encoding="utf-8")
    _err(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _time_limit(text: str) -> float:
    """Seconds, finite and not negative; 0 times out at once."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds >= 0, got {text!r}")
    return value


def _job_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timmdp",
        description="Exact solvers and benchmark tooling for "
                    "transition-independent multi-agent MDPs.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write benchmark instance files")
    gen.add_argument("--family", required=True,
                     choices=("mpp", "pyra", "coordint", "example"))
    gen.add_argument("--n", type=int, default=2, help="number of agents")
    gen.add_argument("--tasks", type=int, default=2, help="tasks per agent")
    gen.add_argument("--horizon", type=int, default=5)
    gen.add_argument("--density", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    solve.add_argument("--instance", required=True)
    solve.add_argument("--time-limit", type=_time_limit, default=None)
    solve.add_argument("--stats", default=None,
                       help="write a one-row result CSV here")
    solve.add_argument("--policy-out", default=None,
                       help="write the optimal policy as JSON here")
    solve.set_defaults(func=_cmd_solve)

    ev = sub.add_parser("evaluate", help="price a policy file on an instance")
    ev.add_argument("--instance", required=True)
    ev.add_argument("--policy", required=True)
    ev.set_defaults(func=_cmd_evaluate)

    dot = sub.add_parser("export-dot", help="dump one agent's return graph")
    dot.add_argument("--instance", required=True)
    dot.add_argument("--agent", type=int, required=True)
    dot.add_argument("--bounds", action="store_true",
                     help="include each node's [lower, upper] return "
                          "bound in its label")
    dot.set_defaults(func=_cmd_export_dot)

    bench = sub.add_parser("bench", help="sweep instances x algorithms")
    bench.add_argument("--instances", required=True, help="instance directory")
    bench.add_argument("--algorithms", default="core,crg-ps,dp")
    bench.add_argument("--time-limit", type=_time_limit, default=None)
    bench.add_argument("--jobs", type=_job_count, default=1)
    bench.add_argument("--out", required=True, help="result CSV path")
    bench.set_defaults(func=_cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parsing leaves it unchanged."""
    return build_parser()


def run_cli(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    return args.func(args)


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
