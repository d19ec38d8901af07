import csv
import hashlib
import json
import re
import sys

import pytest

from timmdp import cli
from timmdp.cli import run_cli
from timmdp.crg import build_crgs
from timmdp.domains import compile_mpp, example_two_agent, gen_pyra
from timmdp.formats import read_instance, write_instance
from timmdp.model import reachable_local_states
from timmdp.search import SearchConfig, core_solve

from test_model import UNMATCHABLE_ENTRIES


def _write_example(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(write_instance(example_two_agent()), encoding="utf-8")
    return path


def _write_pyramid(tmp_path):
    """pyra(4,3): small, and repeated components are reused."""
    m = compile_mpp(gen_pyra(4, 3, seed=1))
    path = tmp_path / "pyra.json"
    path.write_text(write_instance(m), encoding="utf-8")
    return m, path


class TestSolve:
    def test_dp_on_bundled_example(self, tmp_path, capsys):
        path = _write_example(tmp_path)
        code = run_cli(["solve", "--algorithm", "dp", "--instance", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "value 19\n"

    def test_value_line_is_machine_readable_and_stable(self, tmp_path, capsys):
        path = _write_example(tmp_path)
        outputs = []
        for _ in range(2):
            assert run_cli(["solve", "--algorithm", "core",
                            "--instance", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert re.fullmatch(r"value -?\d+(\.\d+)?(e[+-]\d+)?\n", outputs[0])

    def test_invalid_probabilities_exit_3(self, tmp_path, capsys):
        text = write_instance(example_two_agent()).replace("0.75", "0.7", 1)
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code = run_cli(["solve", "--algorithm", "core",
                        "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "probability-sum" in captured.err
        assert captured.out == ""

    def test_timeout_exits_4(self, tmp_path, capsys):
        path = _write_example(tmp_path)
        code = run_cli(["solve", "--algorithm", "core", "--instance",
                        str(path), "--time-limit", "0"])
        capsys.readouterr()
        assert code == 4

    @pytest.mark.parametrize("where, edit", [
        ("$.agents", lambda doc: doc.update(agents=5)),
        ("$.initial", lambda doc: doc.update(initial=0)),
        ("$.rewards[0].entries[0].actions",
         lambda doc: doc["rewards"][0]["entries"][0].update(actions=3)),
        ("$.agents[0].transitions[0].outcomes[0]",
         lambda doc: doc["agents"][0]["transitions"][0].update(
             outcomes=[[1]])),
        ("$.horizon", lambda doc: doc.update(horizon="3")),
        ("$.rewards[0].entries[0].value",
         lambda doc: doc["rewards"][0]["entries"][0].update(value="x")),
        ("$.agents[0].transitions[0].state",
         lambda doc: doc["agents"][0]["transitions"][0].update(state=[0])),
        ("$.rewards[0].feature_scope",
         lambda doc: doc["rewards"][0].update(feature_scope=5)),
        ("$.agents[1].states[0].features.x",
         lambda doc: doc["agents"][1]["states"][0]["features"].update(
             x=[1])),
        ("$.rewards[2].entries[0]",  # a feature value that is no scalar
         lambda doc: doc["rewards"][2]["entries"][0]["states"][1].update(
             features=[[1]])),
    ])
    def test_wrong_typed_field_exits_3_naming_it(self, tmp_path, capsys,
                                                 where, edit):
        doc = json.loads(write_instance(example_two_agent()))
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = run_cli(["solve", "--algorithm", "core",
                        "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert f"(at {where})" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("k, edit", UNMATCHABLE_ENTRIES)
    def test_unmatchable_reward_entry_exits_3_naming_it(self, tmp_path,
                                                        capsys, k, edit):
        doc = json.loads(write_instance(example_two_agent()))
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = run_cli(["solve", "--algorithm", "core",
                        "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        key = next(iter(read_instance(path.read_text()).rewards[k].table))
        assert f"reward-key at reward {k} " in captured.err
        assert f"entry {key} can never match" in captured.err
        assert captured.out == ""

    def test_repeated_reward_entry_exits_3_naming_it(self, tmp_path,
                                                     capsys):
        doc = json.loads(write_instance(example_two_agent()))
        entries = doc["rewards"][0]["entries"]
        entries.append(dict(entries[0], value=100.0))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = run_cli(["solve", "--algorithm", "core",
                        "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "(at $.rewards[0].entries[9])" in captured.err
        assert captured.out == ""

    def test_stats_file_written(self, tmp_path, capsys):
        path = _write_example(tmp_path)
        stats = tmp_path / "stats.csv"
        assert run_cli(["solve", "--algorithm", "core", "--instance",
                        str(path), "--stats", str(stats)]) == 0
        capsys.readouterr()
        lines = stats.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("example,core,solved")


class TestSolveWork:
    def test_reachability_is_swept_once_per_agent(self, tmp_path, capsys,
                                                 monkeypatch):
        """Validation and the graph build share one sweep per agent."""
        m, path = _write_pyramid(tmp_path)
        calls = []
        sweep = reachable_local_states

        def counted(m, i):
            calls.append(i)
            return sweep(m, i)
        # wherever the package binds the sweep
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "timmdp"
                    and hasattr(module, "reachable_local_states")):
                monkeypatch.setattr(module, "reachable_local_states", counted)
        for algorithm in ("core", "dp"):
            calls.clear()
            assert run_cli(["solve", "--algorithm", algorithm,
                            "--instance", str(path)]) == 0
            assert sorted(calls) == list(m.agents), algorithm
        capsys.readouterr()

    def test_policy_is_extracted_only_when_written(self, tmp_path, capsys,
                                                  monkeypatch):
        """No policy is composed without --policy-out, nor by bench; with
        it, one is, and its bytes are those recorded when every solve
        composed one."""
        instances = tmp_path / "instances"
        instances.mkdir()
        path = instances / "pyra.json"
        path.write_text(write_instance(compile_mpp(gen_pyra(5, 3, seed=1))),
                        encoding="utf-8")
        calls = []
        extract = cli.search._Search.policy
        monkeypatch.setattr(cli.search._Search, "policy",
                            lambda self: calls.append(1) or extract(self))
        for algorithm in ("core", "crg-ps"):
            calls.clear()
            assert run_cli(["solve", "--algorithm", algorithm,
                            "--instance", str(path)]) == 0
            assert calls == []
            out = tmp_path / f"{algorithm}.json"
            assert run_cli(["solve", "--algorithm", algorithm,
                            "--instance", str(path),
                            "--policy-out", str(out)]) == 0
            assert len(calls) == 1
            assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == (
                "fa5bc4f1fabed839")
        assert capsys.readouterr().out == "value 95.822699999999998\n" * 4
        calls.clear()
        assert run_cli(["bench", "--instances", str(instances),
                        "--algorithms", "core,crg-ps",
                        "--out", str(tmp_path / "bench.csv")]) == 0
        assert calls == []
        capsys.readouterr()


class TestParserReuse:
    def test_usage_error_then_valid_solve(self, tmp_path, capsys):
        path = _write_example(tmp_path)
        parser = cli._parser()
        assert run_cli(["solve", "--algorithm", "nope",
                        "--instance", str(path)]) == 2
        capsys.readouterr()
        assert run_cli(["solve", "--algorithm", "dp",
                        "--instance", str(path)]) == 0
        assert capsys.readouterr().out == "value 19\n"
        assert cli._parser() is parser


class TestMemoFlag:
    """Memoisation has no switch: default flags run the memoised walk."""

    def test_value_line_matches_the_library(self, tmp_path, capsys):
        m, path = _write_pyramid(tmp_path)
        assert run_cli(["solve", "--algorithm", "core",
                        "--instance", str(path)]) == 0
        value = core_solve(m, build_crgs(m)).value
        assert capsys.readouterr().out == f"value {value:.17g}\n"

    def test_stats_carry_the_library_counters(self, tmp_path, capsys):
        m, path = _write_pyramid(tmp_path)
        stats = tmp_path / "stats.csv"
        assert run_cli(["solve", "--algorithm", "core", "--instance",
                        str(path), "--stats", str(stats)]) == 0
        capsys.readouterr()
        [row] = csv.DictReader(stats.read_text().splitlines())
        expected = core_solve(m, build_crgs(m)).stats
        counters = {key: int(row[key]) for key in (
            "joint_actions_evaluated", "nodes_pruned", "decouple_events")}
        assert counters == {
            key: getattr(expected, key) for key in counters}
        assert expected.memo_hits > 0

    def test_bench_rows_carry_the_library_counters(self, tmp_path, capsys):
        m, path = _write_pyramid(tmp_path)
        out_csv = tmp_path / "results.csv"
        assert run_cli(["bench", "--instances", str(tmp_path),
                        "--algorithms", "core,crg-ps",
                        "--out", str(out_csv)]) == 0
        capsys.readouterr()
        crgs = build_crgs(m)
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert [row["algorithm"] for row in rows] == ["core", "crg-ps"]
        for row in rows:
            expected = core_solve(m, crgs, SearchConfig(
                pruning=row["algorithm"] == "core"))
            assert row["status"] == "solved"
            assert (int(row["joint_actions_evaluated"])
                    == expected.stats.joint_actions_evaluated)


class TestResultRows:
    def test_solve_stats_row_equals_the_bench_row(self, tmp_path, capsys):
        path = _write_example(tmp_path)
        out_csv = tmp_path / "bench.csv"
        assert run_cli(["bench", "--instances", str(tmp_path),
                        "--out", str(out_csv)]) == 0
        bench = {row["algorithm"]: row for row in
                 csv.DictReader(out_csv.read_text().splitlines())}
        assert sorted(bench) == ["core", "crg-ps", "dp"]
        for algorithm, want in bench.items():
            stats = tmp_path / f"{algorithm}.csv"
            assert run_cli(["solve", "--algorithm", algorithm, "--instance",
                            str(path), "--stats", str(stats)]) == 0
            [got] = csv.DictReader(stats.read_text().splitlines())
            del got["wall_time_ms"], want["wall_time_ms"]
            assert got == want
            assert int(got["joint_actions_evaluated"]) > 0
        capsys.readouterr()

    @pytest.mark.parametrize("algorithm", ["core", "dp"])
    def test_timeout_row_has_no_value(self, tmp_path, capsys, algorithm):
        path = _write_example(tmp_path)
        stats = tmp_path / "stats.csv"
        assert run_cli(["solve", "--algorithm", algorithm, "--instance",
                        str(path), "--time-limit", "0",
                        "--stats", str(stats)]) == 4
        capsys.readouterr()
        [row] = csv.DictReader(stats.read_text().splitlines())
        assert row["status"] == "timeout" and row["value"] == ""


class TestFlagValues:
    """Out-of-range numbers are usage errors, not silently different runs;
    each value is rejected while parsing, before any solve or pool."""

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("value", ["nan", "-1", "-0.5", "inf", "soon"])
    def test_time_limit_must_be_finite_and_not_negative(
            self, tmp_path, capsys, command, value):
        path = _write_example(tmp_path)
        target = (["--algorithm", "core", "--instance", str(path)]
                  if command == "solve" else
                  ["--instances", str(tmp_path),
                   "--out", str(tmp_path / "out.csv")])
        assert run_cli([command, *target, "--time-limit", value]) == 2
        captured = capsys.readouterr()
        assert "--time-limit" in captured.err and captured.out == ""
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-5", "1.5"])
    def test_jobs_must_be_a_positive_integer(self, tmp_path, capsys, value):
        _write_example(tmp_path)
        out_csv = tmp_path / "out.csv"
        assert run_cli(["bench", "--instances", str(tmp_path), "--jobs",
                        value, "--out", str(out_csv)]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out_csv.exists()


class TestEvaluate:
    def test_policy_round_trip_matches_solver(self, tmp_path, capsys):
        path = _write_example(tmp_path)
        policy = tmp_path / "policy.json"
        assert run_cli(["solve", "--algorithm", "core", "--instance",
                        str(path), "--policy-out", str(policy)]) == 0
        solve_out = capsys.readouterr().out
        assert run_cli(["evaluate", "--instance", str(path),
                        "--policy", str(policy)]) == 0
        eval_out = capsys.readouterr().out
        assert eval_out == solve_out

    def test_incomplete_policy_exits_3(self, tmp_path, capsys):
        path = _write_example(tmp_path)
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"n_agents": 2, "entries": []}),
                          encoding="utf-8")
        assert run_cli(["evaluate", "--instance", str(path),
                        "--policy", str(policy)]) == 3
        assert "stage 0" in capsys.readouterr().err

    @pytest.mark.parametrize("message, edit", [
        ("top level must be an object", lambda doc: []),
        ("(at $.entries[0].state)",
         lambda doc: doc["entries"][0].update(state=0) or doc),
        ("one state and one action id per agent (2) (at $.entries[0])",
         lambda doc: doc["entries"][0].update(action=[0]) or doc),
        ("agent 0 has no action 9 in state 0 (at $.entries[0].action[0])",
         lambda doc: doc["entries"][0].update(action=[9, 9]) or doc),
        ("a second entry for stage 0, state [0, 0] (at $.entries[1])",
         lambda doc: doc["entries"].insert(1, doc["entries"][0]) or doc),
        ("stage 99 is outside [0, 2) (at $.entries[0].t)",
         lambda doc: doc["entries"][0].update(t=99) or doc),
        ("stage -1 is outside [0, 2) (at $.entries[1].t)",
         lambda doc: doc["entries"][1].update(t=-1) or doc),
    ])
    def test_malformed_policy_exits_3_with_a_message(self, tmp_path, capsys,
                                                     message, edit):
        path = _write_example(tmp_path)
        policy = tmp_path / "policy.json"
        assert run_cli(["solve", "--algorithm", "core", "--instance",
                        str(path), "--policy-out", str(policy)]) == 0
        capsys.readouterr()
        doc = edit(json.loads(policy.read_text(encoding="utf-8")))
        policy.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(["evaluate", "--instance", str(path),
                        "--policy", str(policy)]) == 3
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


class TestExportDot:
    def test_writes_dot_to_stdout(self, tmp_path, capsys):
        path = _write_example(tmp_path)
        assert run_cli(["export-dot", "--instance", str(path),
                        "--agent", "1", "--bounds"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "->" in out


class TestGenerateAndBench:
    def test_generate_then_bench_agree_across_algorithms(self, tmp_path,
                                                         capsys):
        instances = tmp_path / "instances"
        assert run_cli(["generate", "--family", "mpp", "--n", "2", "--tasks",
                        "2", "--horizon", "3", "--density", "0.6", "--seed",
                        "7", "--count", "4", "--out", str(instances)]) == 0
        capsys.readouterr()
        assert len(list(instances.glob("*.json"))) == 4
        out_csv = tmp_path / "results.csv"
        assert run_cli(["bench", "--instances", str(instances),
                        "--algorithms", "core,crg-ps,dp",
                        "--out", str(out_csv)]) == 0
        capsys.readouterr()
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 1 + 4 * 3
        values = {}
        for line in lines[1:]:
            inst, algo, status, value = line.split(",")[:4]
            assert status == "solved"
            values.setdefault(inst, {})[algo] = float(value)
        for inst, per_algo in values.items():
            assert abs(per_algo["core"] - per_algo["dp"]) <= 1e-9
            assert abs(per_algo["crg-ps"] - per_algo["dp"]) <= 1e-9

    def test_bench_parses_each_file_once(self, tmp_path, capsys,
                                         monkeypatch):
        """Validation reads each file, and every (file, algorithm) job
        reuses that instance; a parallel bench writes the same rows."""
        instances = tmp_path / "instances"
        assert run_cli(["generate", "--family", "pyra", "--n", "3",
                        "--horizon", "2", "--count", "2", "--out",
                        str(instances)]) == 0
        calls = []
        read = cli.formats.read_instance
        monkeypatch.setattr(cli.formats, "read_instance",
                            lambda text: calls.append(text) or read(text))
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert run_cli(["bench", "--instances", str(instances),
                        "--out", str(serial)]) == 0
        assert len(calls) == 2
        assert run_cli(["bench", "--instances", str(instances),
                        "--jobs", "2", "--out", str(parallel)]) == 0
        assert len(calls) == 4
        capsys.readouterr()

        def rows(path):  # every column but the wall time
            return [line.rsplit(",", 1)[0]
                    for line in path.read_text().splitlines()]
        assert len(rows(serial)) == 1 + 2 * 3
        assert rows(parallel) == rows(serial)

    def test_unknown_arguments_exit_2(self, capsys):
        assert run_cli(["solve", "--nope"]) == 2
        capsys.readouterr()

    def test_generate_coordint_and_example(self, tmp_path, capsys):
        for family in ("coordint", "example"):
            out = tmp_path / family
            assert run_cli(["generate", "--family", family, "--count", "2",
                            "--seed", "1", "--out", str(out)]) == 0
            capsys.readouterr()
            assert len(list(out.glob("*.json"))) == 2
