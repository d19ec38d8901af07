import re

import pytest

from timmdp.crg import build_crgs, partition_rewards
from timmdp.domains import (
    GeneratorParams,
    compile_mpp,
    example_partition,
    example_two_agent,
    gen_random_mpp,
)
from timmdp.formats import (
    FormatError,
    ResultRow,
    export_dot,
    read_instance,
    write_instance,
    write_results,
)
from timmdp.model import validate_instance

from util import random_instance


def _equal_instances(a, b) -> bool:
    if (a.horizon, a.initial, a.metadata) != (b.horizon, b.initial, b.metadata):
        return False
    if len(a.locals) != len(b.locals):
        return False
    for la, lb in zip(a.locals, b.locals):
        if [(s.id, dict(s.features)) for s in la.states] != \
                [(s.id, dict(s.features)) for s in lb.states]:
            return False
        if [(x.id, x.label) for x in la.actions] != \
                [(x.id, x.label) for x in lb.actions]:
            return False
        if dict(la.transitions) != dict(lb.transitions):
            return False
    if len(a.rewards) != len(b.rewards):
        return False
    for ra, rb in zip(a.rewards, b.rewards):
        if (ra.scope, ra.default, ra.feature_scope, ra.table) != \
                (rb.scope, rb.default, rb.feature_scope, rb.table):
            return False
    return True


class TestInstanceRoundTrip:
    def test_random_instances_round_trip(self):
        for seed in range(10):
            m = random_instance(seed, feature_scoped=True)
            text = write_instance(m)
            again = read_instance(text)
            assert _equal_instances(m, again)
            assert write_instance(again) == text

    def test_compiled_mpp_round_trips(self):
        m = compile_mpp(gen_random_mpp(GeneratorParams(seed=3)))
        text = write_instance(m)
        assert _equal_instances(m, read_instance(text))

    def test_canonical_form_is_stable_and_ascii(self):
        text = write_instance(example_two_agent())
        assert text.endswith("\n") and "\r" not in text
        assert text == text.encode("ascii").decode("ascii")

    def test_truncated_document_names_position(self):
        text = write_instance(example_two_agent())
        with pytest.raises(FormatError, match=r"line \d+ column \d+"):
            read_instance(text[: len(text) // 2])

    def test_unknown_field_rejected_with_path(self):
        import json

        doc = json.loads(write_instance(example_two_agent()))
        doc["agents"][0]["bogus"] = 1
        with pytest.raises(FormatError, match=r"bogus.*agents\[0\]"):
            from timmdp.formats import document_to_instance

            document_to_instance(doc)

    def test_newer_major_version_rejected(self):
        import json

        doc = json.loads(write_instance(example_two_agent()))
        doc["schema_version"] = "2"
        from timmdp.formats import document_to_instance

        with pytest.raises(FormatError, match="schema"):
            document_to_instance(doc)

    def test_bad_probabilities_parse_but_fail_validation(self):
        text = write_instance(example_two_agent())
        broken = text.replace("0.75", "0.7", 1)
        m = read_instance(broken)  # parsing succeeds
        assert any(v.kind == "probability-sum" for v in validate_instance(m))


class TestRepeatedRows:
    """A row repeating an earlier row's key is rejected at its path rather
    than silently replacing it."""

    @staticmethod
    def _read(edit):
        import json

        from timmdp.formats import document_to_instance

        doc = json.loads(write_instance(example_two_agent()))
        edit(doc)
        return document_to_instance(doc)

    def test_second_reward_entry_with_the_same_key(self):
        def edit(doc):
            entries = doc["rewards"][0]["entries"]
            entries.append(dict(entries[0], value=100.0))

        with pytest.raises(FormatError,
                           match=re.escape("(at $.rewards[0].entries[9])")):
            self._read(edit)

    def test_second_transition_row_for_a_state_and_action(self):
        def edit(doc):
            rows = doc["agents"][1]["transitions"]
            assert (rows[2]["state"], rows[2]["action"]) == (0, 2)
            rows.append(dict(rows[2], outcomes=[[3, 0.25], [4, 0.75]]))

        with pytest.raises(FormatError, match=re.escape(
                "a second transition for state 0, action 2 "
                "(at $.agents[1].transitions[11])")):
            self._read(edit)

    @pytest.mark.parametrize("key", ["00", "+1", " 1", "\u00b2"])
    def test_feature_scope_key_that_is_no_canonical_id(self, key):
        def edit(doc):
            doc["rewards"][2]["feature_scope"][key] = []

        with pytest.raises(FormatError, match=re.escape(
                f"agent key {key!r} is not a canonical id "
                "(at $.rewards[2].feature_scope)")):
            self._read(edit)


class TestResultCsv:
    def test_empty_list_gives_header_only(self):
        out = write_results([])
        assert out.splitlines() == [
            "instance,algorithm,status,value,joint_actions_evaluated,"
            "nodes_pruned,decouple_events,wall_time_ms"]

    def test_solved_row_carries_value(self):
        rows = [ResultRow(instance="x", algorithm="dp", status="solved",
                          value=1.5, joint_actions_evaluated=7,
                          wall_time_ms=12)]
        lines = write_results(rows).splitlines()
        assert len(lines) == 2
        assert lines[1] == "x,dp,solved,1.5,7,0,0,12"

    def test_timeout_row_has_empty_value(self):
        rows = [ResultRow(instance="x", algorithm="core", status="timeout")]
        assert write_results(rows).splitlines()[1].split(",")[3] == ""

    def test_rows_sorted_by_instance_then_algorithm(self):
        rows = [ResultRow(instance="b", algorithm="dp", status="solved",
                          value=0.0),
                ResultRow(instance="a", algorithm="dp", status="solved",
                          value=0.0),
                ResultRow(instance="a", algorithm="core", status="solved",
                          value=0.0)]
        lines = write_results(rows).splitlines()[1:]
        assert [ln.split(",")[0:2] for ln in lines] == [
            ["a", "core"], ["a", "dp"], ["b", "dp"]]


# A small statement-level check of the DOT subset we emit.
_ID = r'"(?:[^"\\]|\\.)*"|[A-Za-z_][A-Za-z0-9_]*'
_ATTRS = rf'\[(?:[^"\[\]]|{_ID})*\]'
_NODE = re.compile(rf"^({_ID})\s*{_ATTRS};$")
_EDGE = re.compile(rf"^({_ID})\s*->\s*({_ID})\s*({_ATTRS})?;$")


def assert_valid_dot(text: str) -> None:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    assert lines[0].startswith("digraph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    for ln in lines[1:-1]:
        if ln in ("rankdir=LR;",):
            continue
        assert _NODE.match(ln) or _EDGE.match(ln), ln


class TestDotExport:
    def test_single_agent_two_states(self):
        m = random_instance(4, n_agents=1, n_interactions=0, max_states=2)
        dot = export_dot(build_crgs(m)[0])
        assert_valid_dot(dot)
        assert "shape=circle" in dot

    def test_worked_example_has_wildcard_and_no_influence_arcs(self):
        m = example_two_agent()
        crgs = build_crgs(m, partition_rewards(m, example_partition()))
        dot = export_dot(crgs[1])
        assert_valid_dot(dot)
        assert "*^0" in dot
        assert "⊥^0" in dot
        assert "shape=point" in dot and "shape=triangle" in dot

    def test_bounds_flag_adds_interval_labels(self):
        m = example_two_agent()
        crgs = build_crgs(m, partition_rewards(m, example_partition()))
        dot = export_dot(crgs[0], bounds=True)
        assert_valid_dot(dot)
        assert re.search(r"\[-?\d+(\.\d+)?, -?\d+(\.\d+)?\]", dot)

    def test_random_exports_parse(self):
        for seed in range(6):
            m = random_instance(seed, feature_scoped=True)
            for g in build_crgs(m).values():
                assert_valid_dot(export_dot(g, bounds=(seed % 2 == 0)))
