"""Benchmark of the timmdp solve path: instance file in, ``value`` line out.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout of the repository; the program is imported from its
``src`` directory. The workloads are described in ``suite.json``. One run:

1. Set-up: generate the workload's instances from ``--seed`` with
   ``domains.gen_batch``, write each to a file with ``formats.write_instance``
   and compute an independent reference value for it with the solver the
   suite names (``dp`` for the core workloads), whose policy is priced with
   ``evaluate_policy``. Each instance is set up on its own; ``setup_s`` is
   the batch size times the median per-instance set-up time.
2. Warm-up: one untimed pass over every file through the library's public
   functions (``pipeline.solve_file``). It checks each value and priced
   policy against the reference and gives the solver's counters per pass.
3. Timed phase: a closed loop with one client. Each op calls
   ``timmdp.cli.run_cli(["solve", "--algorithm", <alg>, "--instance", <file>])``
   with the CLI's default flags and captured stdout, round robin over the
   files, for ``--seconds`` seconds and at least one op per file and 11 ops,
   so that some percentile has ten samples beyond it. An op fails on a
   nonzero exit, a missing ``value`` line, or a value more than 1e-9 off the
   reference. ``op_s.p50`` is the median over the files of each file's mean
   op time: on a shared host the speed drifts by up to half for seconds to
   minutes at a time, and averaging each file's repeats before taking the median keeps the
   median from jumping between a fast and a slow level of op times.
4. With ``--trace 1`` the timed phase runs for half the time (at least one
   op) and the same op sequence is then replayed through
   ``pipeline.solve_file`` with one span per public call; the per-layer
   metrics come from those spans and from the set-up's reference solves.
   ``trace.overhead_frac`` compares the replay with the CLI ops it repeats,
   so the CLI's own argument parsing counts against the spans' cost.

Every count is stored under ``.perfbench/counts`` keyed by workload, seed
and a hash of the program and benchmark sources; a later run of the same
code and seed that counts differently is reported as incorrect. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit code 0 means correct, 1 incorrect.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SUITE = json.loads((HERE / "suite.json").read_text(encoding="utf-8"))
TAIL_BEYOND = 10
TOLERANCE = 1e-9

TIMINGS = ("formats.read_instance", "model.validate_instance",
           "crg.partition_rewards", "crg.instance_index", "crg.build_crg",
           "search.walk", "search.extract_policy", "baselines.dp_solve")
COUNTS = ("crg.transition_trees", "crg.graph_size",
          "search.joint_actions_evaluated", "search.nodes_pruned",
          "search.decouple_events", "search.max_component_size",
          "search.component_solves", "baselines.dp_states",
          "baselines.dp_joint_actions_evaluated")
OP_COUNT = {"core": "search.joint_actions_evaluated",
            "dp": "baselines.dp_joint_actions_evaluated"}


def load_program():
    """Import timmdp from this checkout's ``src``; exit without a result
    when it is not there."""
    src = ROOT / "src"
    if not (src / "timmdp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    import timmdp
    if Path(timmdp.__file__).resolve().parent != (src / "timmdp").resolve():
        raise SystemExit(f"perfbench: imported timmdp from {timmdp.__file__}, "
                         f"not from {src}")
    import pipeline
    return pipeline


@dataclass
class Item:
    """One generated instance: its file and what it must solve to."""

    name: str
    path: Path
    reference: float
    ref_counts: dict[str, int]
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Op:
    item: Item
    seconds: float
    ok: bool
    detail: str = ""


@dataclass
class Run:
    """Everything one benchmark run found, before it is summarised."""

    workload: str
    spec: dict
    items: list[Item] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    timed_wall: float = 0.0
    warm_wall: float = 0.0
    traced: list[float] = field(default_factory=list)  # nan: failed


def set_up(pl, run: Run, seed: int, work: Path, tracer) -> None:
    from timmdp import domains, formats

    batches = []
    for batch in run.spec["generate"]:
        family, count = batch["family"], batch["count"]
        start = time.perf_counter()
        mpps = domains.gen_batch(family, batch.get("draws", count), seed,
                                 **batch["kwargs"])
        if "structure" in batch:
            mpps = with_structure(mpps, batch["structure"])
        if len(mpps) < count:
            raise SystemExit(f"perfbench: {len(mpps)} {family} instances "
                             f"drawn, {count} needed")
        mpps = mpps[:count]
        gen_each = (time.perf_counter() - start) / count
        items = []
        for k, mpp in enumerate(mpps):
            start = time.perf_counter()
            m = domains.compile_mpp(mpp)
            path = work / f"{family}-{k:03d}.json"
            path.write_text(formats.write_instance(m), encoding="utf-8")
            ref = pl.solve_instance(m, run.spec["reference"], tracer,
                                    f"ref:{path.stem}")
            priced = pl.policy_value(ref)
            run.setup_times.append(time.perf_counter() - start + gen_each)
            if not agrees(priced, ref.value):
                run.problems.append(f"{path.stem}: reference policy prices "
                                    f"at {priced!r}, not {ref.value!r}")
            items.append(Item(path.stem, path, ref.value, ref.counts))
        batches.append(items)
    # Interleave the families so any stretch of ops sees the same mix.
    longest = max(len(b) for b in batches)
    run.items = [b[k] for k in range(longest) for b in batches if k < len(b)]


def agrees(value: float, reference: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= TOLERANCE


def with_structure(mpps: list, structure: list) -> list:
    """The draws whose tasks have exactly these (duration, delayed
    duration) pairs, in draw order.

    Graph construction time varies several-fold between task structures,
    so a random mix of them would make the workload's medians move with the
    seed; one structure leaves the seed to draw costs, delay probabilities
    and hindrances.
    """
    want = sorted(tuple(pair) for pair in structure)
    return [mpp for mpp in mpps
            if sorted((t.duration, t.delayed_duration)
                      for tasks in mpp.tasks for t in tasks) == want]


def check_pipeline(pl, item: Item, solved) -> str:
    """Empty when the library pipeline's value and priced policy match the
    reference, else what went wrong."""
    if not agrees(solved.value, item.reference):
        return f"{item.name}: value {solved.value!r} != {item.reference!r}"
    priced = pl.policy_value(solved)
    if not agrees(priced, item.reference):
        return f"{item.name}: policy prices at {priced!r}, not {item.reference!r}"
    return ""


def warm_up(pl, run: Run, tracer) -> None:
    start = time.perf_counter()
    for item in run.items:
        try:
            solved = pl.solve_file(item.path, run.spec["algorithm"], tracer,
                                   f"warm:{item.name}")
        except Exception:
            run.problems.append(f"{item.name}: warm-up raised\n"
                                + traceback.format_exc())
            continue
        item.counts = solved.counts
        problem = check_pipeline(pl, item, solved)
        if problem:
            run.problems.append("warm-up " + problem)
    run.warm_wall = time.perf_counter() - start


def op_output_error(rc, stdout: str, reference: float) -> str:
    """Empty when one op's exit code and stdout are correct."""
    if rc != 0:
        return f"exit code {rc}"
    lines = stdout.splitlines()
    if len(lines) != 1 or not lines[0].startswith("value "):
        return f"stdout is not one value line: {stdout[:200]!r}"
    try:
        value = float(lines[0][len("value "):])
    except ValueError:
        return f"unparsable value line {lines[0]!r}"
    if not agrees(value, reference):
        return f"value {value!r} != reference {reference!r}"
    return ""


def run_op(cli, item: Item, algorithm: str) -> Op:
    argv = ["solve", "--algorithm", algorithm, "--instance", str(item.path)]
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.run_cli(argv)
        except Exception:
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    detail = op_output_error(rc, out.getvalue(), item.reference)
    if detail:
        detail = f"{item.name}: {detail}; stderr: {err.getvalue()[-400:]}"
    return Op(item, seconds, not detail, detail)


def timed_phase(run: Run, seconds: float, min_ops: int) -> None:
    from timmdp import cli

    algorithm = run.spec["algorithm"]
    n = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(run.ops) < min_ops:
        run.ops.append(run_op(cli, run.items[n % len(run.items)], algorithm))
        n += 1
    run.timed_wall = time.perf_counter() - start


def traced_pass(pl, run: Run, tracer) -> None:
    """Replay the timed op sequence through the library, one span per call."""
    algorithm = run.spec["algorithm"]
    for n, op in enumerate(run.ops):
        item = op.item
        root = len(tracer.spans)
        try:
            solved = pl.solve_file(item.path, algorithm, tracer, f"op:{n}")
        except Exception:
            run.problems.append(f"{item.name}: traced op raised\n"
                                + traceback.format_exc())
            run.traced.append(math.nan)
            continue
        root = tracer.spans[root]
        problem = check_pipeline(pl, item, solved)
        if solved.counts != item.counts:
            problem = problem or f"{item.name}: counts drifted within the run"
        if problem:
            run.problems.append("traced " + problem)
        run.traced.append(math.nan if problem else root.end - root.start)


def pass_counts(run: Run) -> dict[str, int]:
    """Every counter summed over one pass of the batch (largest component:
    the maximum), from the ops' own algorithm and from the references."""
    totals = dict.fromkeys(COUNTS, 0)
    for item in run.items:
        for source in (item.counts, item.ref_counts):
            for name, value in source.items():
                if name == "search.max_component_size":
                    totals[name] = max(totals[name], value)
                else:
                    totals[name] += value
    return totals


def source_hash() -> str:
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files + [HERE / "suite.json"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeat(run: Run, seed: int) -> None:
    """Compare every per-instance count with earlier runs of this code and
    seed, then add this run's counts to the record."""
    record_path = (STATE / "counts"
                   / f"{run.workload}-seed{seed}-{source_hash()}.json")
    record = {}
    if record_path.exists():
        record = json.loads(record_path.read_text(encoding="utf-8"))
    for item in run.items:
        seen = record.setdefault(item.name, {})
        for name, value in {**item.counts, **item.ref_counts}.items():
            if seen.setdefault(name, value) != value:
                run.problems.append(f"{item.name}: {name} is {value}, an "
                                    f"earlier run counted {seen[name]}")
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its
    rank as a percentage."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(run: Run, lines: list[str]) -> dict[str, tuple[float, str]]:
    times = [op.seconds for op in run.ops]
    per_item: dict[str, list[float]] = {}
    for op in run.ops:
        per_item.setdefault(op.item.name, []).append(op.seconds)
    p50 = statistics.median(statistics.fmean(v) for v in per_item.values())
    tail_s, tail_pct = tail(times)
    failed = sum(not op.ok for op in run.ops)
    counts = pass_counts(run)
    setup = len(run.setup_times) * statistics.median(run.setup_times)
    lines += [
        f"setup: {len(run.items)} instances in {sum(run.setup_times):.2f} s, "
        f"setup_s = {len(run.items)} x median {setup / len(run.items):.4f} s",
        f"warm-up: {len(run.items)} library solves in {run.warm_wall:.2f} s",
        f"timed: {len(run.ops)} ops in {run.timed_wall:.2f} s, one client",
        f"op_s.p50 = {p50:.6f} s (median of {len(per_item)} per-file means; "
        f"median of all ops {statistics.median(times):.6f} s)",
        f"op_s.tail = {tail_s:.6f} s (p{tail_pct:.1f}, "
        f"{TAIL_BEYOND} of n={len(times)} beyond)",
        f"failed_frac = {failed / len(run.ops):.4f} ({failed}/{len(run.ops)})",
    ]
    return {
        "op_s.p50": (p50, "s"),
        "op_s.tail": (tail_s, "s"),
        "ops_per_s": (len(run.ops) / run.timed_wall, "1/s"),
        "setup_s": (setup, "s"),
        "joint_actions_evaluated":
            (counts[OP_COUNT[run.spec["algorithm"]]], "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(run: Run, tracer, lines: list[str]) -> dict[str, tuple[float, str]]:
    runs = tracer.per_op()
    metrics: dict[str, tuple[float, str]] = {}
    # Traced ops give the layers on the op's path; the references give the
    # other algorithm's layers, which only move set-up time here.
    for layer in TIMINGS:
        values = [r[layer] for op, r in runs.items()
                  if op.startswith(("op:", "ref:")) and layer in r]
        metrics[f"{layer}_s"] = (statistics.median(values) if values else 0.0,
                                 "s")
    ops = [r for op, r in runs.items() if op.startswith("op:")]
    total = sum(r["total"] for r in ops)
    shares = {layer: sum(r.get(layer, 0.0) for r in ops) / total
              for layer in TIMINGS}
    for layer, share in shares.items():
        metrics[f"share.{layer}"] = (share, "frac")
    dominant = max(shares, key=shares.get)
    lines.append(f"dominant layer: {dominant} "
                 f"({100 * shares[dominant]:.1f}% of traced op time)")
    counts = pass_counts(run)
    for name in COUNTS:
        metrics[name] = (counts[name], "count")
    tried = (counts["search.joint_actions_evaluated"]
             + counts["search.nodes_pruned"])
    metrics["search.expand_useful_ratio"] = (
        counts["search.joint_actions_evaluated"] / tried if tried else 0.0,
        "frac")
    pairs = [(t, op.seconds) for t, op in zip(run.traced, run.ops)
             if not math.isnan(t)]
    traced = math.fsum(t for t, _ in pairs)
    untraced = math.fsum(s for _, s in pairs)
    metrics["trace.overhead_frac"] = (
        traced / untraced - 1.0 if pairs else 0.0, "frac")
    lines.append(f"traced: {len(run.traced)} ops in {traced:.2f} s "
                 f"against {untraced:.2f} s untraced")
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute(pl, workload: str, seed: int, seconds: float, trace: bool,
            work: Path, tracer, corrupt=None) -> tuple[Run, dict]:
    """One benchmark run. ``corrupt`` may rewrite the items after set-up;
    the self-test uses it to plant a wrong reference."""
    run = Run(workload, SUITE["workloads"][workload])
    set_up(pl, run, seed, work, tracer)
    if corrupt is not None:
        corrupt(run.items)
    warm_up(pl, run, tracer)
    # Freeze what the benchmark holds, so that the collector's passes during
    # an op scan what a fresh ``timmdp solve`` process would hold.
    gc.collect()
    gc.freeze()
    try:
        if trace:
            timed_phase(run, seconds / 2, 1)
            traced_pass(pl, run, tracer)
        else:
            timed_phase(run, seconds, max(TAIL_BEYOND + 1, len(run.items)))
    finally:
        gc.unfreeze()
    check_repeat(run, seed)
    lines = [f"workload {workload}, seed {seed}, trace {int(trace)}"]
    metrics = (per_layer(run, tracer, lines) if trace
               else end_to_end(run, lines))
    failed = sum(not op.ok for op in run.ops)
    failed += sum(math.isnan(s) for s in run.traced)
    attempted = len(run.ops) + len(run.traced)
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return run, {"lines": lines, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SUITE["workloads"]))
    parser.add_argument("--seed", type=int, default=SUITE["default_seed"])
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pl = load_program()
    tracer = pl.Tracer()
    work = STATE / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        run, report = execute(pl, args.workload, args.seed, args.seconds,
                              bool(args.trace), work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        trace_path = STATE / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.to_document()),
                              encoding="utf-8")
        report["lines"].append(f"spans: {len(tracer.spans)} -> {trace_path}")
    for problem in run.problems + [op.detail for op in run.ops if not op.ok]:
        print(f"perfbench: {problem}", file=sys.stderr)
    for line in report["lines"]:
        print(line)
    for name, metric in report["result"]["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
