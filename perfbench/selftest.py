"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. A deliberately wrong reference value is counted as failed ops, and the
   run still completes every op it attempts.
2. A count that differs from an earlier run of the same code and seed is
   reported as a problem.
3. The op output check rejects a nonzero exit, a missing ``value`` line
   and a value 2e-9 off the reference.
4. In a directory holding only ``BENCHMARK.json`` and the benchmark's own
   files, the benchmark exits nonzero without printing a result.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run as bench


def check(ok: bool, text: str, failures: list[str]) -> None:
    print(f"selftest {'ok  ' if ok else 'FAIL'}: {text}")
    if not ok:
        failures.append(text)


def wrong_reference(pl, failures: list[str]) -> None:
    def corrupt(items):
        items[0].reference += 1.0

    work = bench.STATE / f"selftest-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        run, report = bench.execute(pl, "mpp-build", 3, 1.0, False, work,
                                    pl.Tracer(), corrupt=corrupt)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report["result"]
    planted = run.items[0].name
    on_planted = sum(op.item.name == planted for op in run.ops)
    check(not result["correct"], "a wrong reference makes the run incorrect",
          failures)
    check(result["failed"] == on_planted > 0,
          f"each op on the planted instance failed ({result['failed']} of "
          f"{on_planted}), and no other op", failures)
    check(result["attempted"] == len(run.ops) > on_planted,
          f"the run went on after the failures ({result['attempted']} ops)",
          failures)
    check(any(p.startswith(f"warm-up {planted}") for p in run.problems),
          "the warm-up pass reports the planted instance", failures)
    check(result["metrics"]["op_s.p50"]["value"] > 0,
          "metrics are still reported", failures)


def count_drift(failures: list[str]) -> None:
    run = bench.Run("selftest-drift", {})
    item = bench.Item("x", bench.STATE / "x.json", 0.0,
                      {"baselines.dp_states": 5})
    item.counts = {"search.nodes_pruned": 7}
    run.items = [item]
    record = (bench.STATE / "counts"
              / f"selftest-drift-seed0-{bench.source_hash()}.json")
    record.unlink(missing_ok=True)
    try:
        bench.check_repeat(run, 0)
        check(not run.problems, "a first run records its counts", failures)
        bench.check_repeat(run, 0)
        check(not run.problems, "identical counts repeat cleanly", failures)
        item.counts = {"search.nodes_pruned": 8}
        bench.check_repeat(run, 0)
        check(len(run.problems) == 1 and "search.nodes_pruned" in run.problems[0],
              "a drifted count is reported", failures)
    finally:
        record.unlink(missing_ok=True)


def op_output(failures: list[str]) -> None:
    err = bench.op_output_error
    check(err(0, "value 1.5\n", 1.5) == "", "a matching value passes", failures)
    check(err(3, "", 1.5) != "", "a nonzero exit fails", failures)
    check(err(0, "", 1.5) != "", "a missing value line fails", failures)
    check(err(0, "value 1.500000002\n", 1.5) != "",
          "a value 2e-9 off fails", failures)


def bare_directory(failures: list[str]) -> None:
    bare = bench.STATE / f"bare-{time.time_ns()}"
    shutil.copytree(bench.HERE, bare / bench.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, f"{bench.HERE.name}/run.py", "--workload",
             "mpp-build", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith("{")
                         for line in done.stdout.splitlines())
    check(done.returncode != 0 and not printed_result,
          f"without the program it exits {done.returncode} and prints no "
          f"result", failures)


def main() -> int:
    pl = bench.load_program()
    failures: list[str] = []
    op_output(failures)
    count_drift(failures)
    wrong_reference(pl, failures)
    bare_directory(failures)
    print(json.dumps({"selftest": "pass" if not failures else "fail",
                      "failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
