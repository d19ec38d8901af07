import copy
import json
import math
from dataclasses import replace

import pytest

from timmdp.model import (
    LocalAction,
    LocalMdp,
    LocalState,
    RewardFunction,
    TiMmdpInstance,
    enumerate_successors,
    reachable_local_states,
    total_reward,
    validate_instance,
)
from timmdp.domains import compile_mpp, example_two_agent, gen_pyra
from timmdp.formats import document_to_instance, write_instance

from util import (
    ExecutionSequence,
    joint_transition_probability,
    random_execution_sequence,
    random_instance,
    reward_value,
    sequence_return,
    with_interaction_default,
)
from timmdp.rng import SplitMix64


def two_agent_fixture() -> TiMmdpInstance:
    """Tiny deterministic 2-agent instance used across these tests."""
    def local(n_states):
        states = tuple(LocalState(i, {"par": i % 2}) for i in range(n_states))
        actions = (LocalAction(0, "go"), LocalAction(1, "stay"))
        transitions = {}
        for s in range(n_states):
            transitions[(s, 0)] = ((min(s + 1, n_states - 1), 1.0),)
            transitions[(s, 1)] = ((s, 1.0),)
        return LocalMdp(states, actions, transitions)

    r0 = RewardFunction(scope=(0,), table={((0,), (0,), (1,)): 5.0})
    r01 = RewardFunction(scope=(0, 1),
                         table={((0, 0), (0, 0), (1, 1)): -2.0})
    return TiMmdpInstance(locals=(local(3), local(2)), rewards=[r0, r01],
                          horizon=2, initial=(0, 0))


class TestValidate:
    def test_well_formed_fixture_is_clean(self):
        assert validate_instance(two_agent_fixture()) == []

    def test_probability_sum_violation_names_agent_and_pair(self):
        m = two_agent_fixture()
        bad = dict(m.locals[1].transitions)
        bad[(0, 0)] = ((1, 0.9),)
        m = TiMmdpInstance(
            locals=(m.locals[0],
                    LocalMdp(m.locals[1].states, m.locals[1].actions, bad)),
            rewards=m.rewards, horizon=m.horizon, initial=m.initial)
        violations = validate_instance(m)
        assert any(v.kind == "probability-sum" and "agent 1" in v.where
                   and "s=0" in v.where for v in violations)

    def test_reward_scope_outside_agents_is_flagged(self):
        m = two_agent_fixture()
        m.rewards.append(RewardFunction(scope=(0, 2), table={}))
        violations = validate_instance(m)
        assert any(v.kind == "reward-scope" and "reward 2" in v.where
                   for v in violations)

    def test_infinite_reward_rejected(self):
        m = two_agent_fixture()
        m.rewards[0].table[((2,), (1,), (2,))] = math.inf
        assert any(v.kind == "reward-finite" for v in validate_instance(m))

    def test_unreachable_state_flagged(self):
        m = two_agent_fixture()
        states = m.locals[0].states + (LocalState(3, {"par": 1}),)
        m = TiMmdpInstance(
            locals=(LocalMdp(states, m.locals[0].actions,
                             m.locals[0].transitions), m.locals[1]),
            rewards=m.rewards, horizon=m.horizon, initial=m.initial)
        assert any(v.kind == "unreachable-state" for v in validate_instance(m))


# Edits to the worked example's document that leave one reward entry unable
# to match any joint transition, with the reward they break; the example
# reads reward 0 by agent 0's state ids and reward 2 by agent 0's feature f1
# (values "unset", "true" and "false").
UNMATCHABLE_ENTRIES = [
    pytest.param(0, lambda doc: doc["rewards"][0]["entries"][0].update(
        states=[99]), id="state id out of range"),
    pytest.param(0, lambda doc: doc["rewards"][0]["entries"][0].update(
        states=[{"features": [0]}]), id="features for a state-id reader"),
    pytest.param(2, lambda doc: doc["rewards"][2]["entries"][0][
        "states"].__setitem__(0, 1), id="state id for a feature reader"),
    pytest.param(2, lambda doc: doc["rewards"][2]["entries"][0][
        "next_states"][0].update(features=["true", "true"]),
        id="feature tuple of the wrong length"),
    pytest.param(0, lambda doc: doc["rewards"][0]["entries"][0].update(
        actions=[3]), id="action out of range"),
    pytest.param(2, lambda doc: doc["rewards"][2]["entries"][0][
        "next_states"][0].update(features=["maybe"]),
        id="feature values no state has"),
]


class TestRewardKeys:
    @pytest.mark.parametrize("k, edit", UNMATCHABLE_ENTRIES)
    def test_unmatchable_entry_is_one_violation_naming_it(self, k, edit):
        doc = json.loads(write_instance(example_two_agent()))
        edit(doc)
        m = document_to_instance(doc)
        violations = validate_instance(m)
        assert [v.kind for v in violations] == ["reward-key"], violations
        key = next(iter(m.rewards[k].table))
        assert f"reward {k} " in violations[0].where
        assert f"entry {key}" in violations[0].message


class TestJointTransitionProbability:
    def test_deterministic_product_is_one(self):
        m = two_agent_fixture()
        assert joint_transition_probability(m, (0, 0), (0, 0), (1, 1)) == 1.0

    def test_stochastic_outcome_from_bundled_example(self):
        m = example_two_agent()
        # agent 1 plays its stochastic third action; agent 0 moves surely
        p = joint_transition_probability(m, (0, 0), (1, 2), (2, 3))
        assert p == 0.75
        assert joint_transition_probability(m, (0, 0), (1, 2), (2, 4)) == 0.25

    def test_absent_local_transition_gives_zero(self):
        m = two_agent_fixture()
        assert joint_transition_probability(m, (0, 0), (0, 0), (2, 0)) == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            joint_transition_probability(two_agent_fixture(), (0,), (0, 0),
                                         (1, 1))

    def test_factorization_is_order_independent(self):
        for seed in range(10):
            m = random_instance(seed, n_agents=3)
            for t, s, a, s2, _ in _some_transitions(m, 20):
                p = joint_transition_probability(m, s, a, s2)
                q = 1.0
                for i in reversed(range(m.n_agents)):
                    local = 0.0
                    for dst, pr in m.locals[i].outcomes(s[i], a[i]):
                        if dst == s2[i]:
                            local = pr
                    q *= local
                assert abs(p - q) <= 1e-15


def _some_transitions(m, limit):
    from util import all_joint_transitions

    for idx, row in enumerate(all_joint_transitions(m)):
        if idx >= limit:
            return
        yield row


class TestTotalReward:
    def test_empty_tables_sum_to_zero(self):
        m = two_agent_fixture()
        m.rewards[0].table.clear()
        m.rewards[1].table.clear()
        assert total_reward(m, (0, 0), (0, 0), (1, 1)) == 0.0

    def test_two_term_sum(self):
        m = two_agent_fixture()
        assert total_reward(m, (0, 0), (0, 0), (1, 1)) == 3.0

    def test_matches_direct_table_sum_on_random_instances(self):
        for seed in range(15):
            m = random_instance(seed, feature_scoped=True)
            for t, s, a, s2, _ in _some_transitions(m, 30):
                direct = math.fsum(reward_value(m, rf, s, a, s2)
                                   for rf in m.rewards)
                assert total_reward(m, s, a, s2) == direct


class TestReward:
    def test_pins_hand_written_keys(self):
        """A local function keyed by plain state ids, and an interaction
        reading one feature of agent 0 and, through the empty feature
        tuple, only agent 1's action, with a listed zero and a nonzero
        default."""
        m = replace(two_agent_fixture(), rewards=[
            RewardFunction(scope=(0,), table={((0,), (0,), (1,)): 5.0}),
            RewardFunction(
                scope=(0, 1), default=-1.5,
                feature_scope={0: ("par",), 1: ()},
                table={(((0,), ()), (0, 1), ((1,), ())): 4.0,
                       (((1,), ()), (0, 1), ((0,), ())): 0.0})])
        assert m.reward(0, {0: (0, 0, 1)}) == 5.0
        assert m.reward(0, ((0, 0, 1), (1, 1, 1))) == 5.0
        assert m.reward(0, {0: (2, 1, 2)}) == 0.0
        # agent 1's states are not read: any move under action 1 matches
        assert m.reward(1, {0: (0, 0, 1), 1: (0, 1, 0)}) == 4.0
        assert m.reward(1, ((2, 0, 1), (1, 1, 1))) == 4.0
        assert m.reward(1, {0: (1, 0, 2), 1: (1, 1, 1)}) == 0.0
        # unlisted keys earn the default
        assert m.reward(1, {0: (0, 0, 1), 1: (0, 0, 1)}) == -1.5
        assert m.reward(1, {0: (2, 1, 2), 1: (0, 1, 0)}) == -1.5


class TestProjections:
    def test_reward_reads_the_compiled_tables(self):
        """Projections are compiled once per (agent, feature tuple), and the
        evaluator reading them agrees with the reference evaluator on an
        instance with feature-scoped functions."""
        m = compile_mpp(gen_pyra(4, 2, seed=2))
        for rf in m.rewards:
            for j in rf.scope:
                feats = rf.features_read(j)
                table = m.projection(j, feats)
                assert table is m.projection(j, feats)
        assert any(rf.feature_scope for rf in m.rewards)
        for t, s, a, s2, _ in _some_transitions(m, 40):
            trs = tuple(zip(s, a, s2))
            for k, rf in enumerate(m.rewards):
                assert m.reward(k, trs) == reward_value(m, rf, s, a, s2)

    def test_cache_stays_out_of_equality_repr_and_bytes(self):
        m = random_instance(6, feature_scoped=True)
        twin = copy.deepcopy(m)
        text, shown = write_instance(m), repr(m)
        for _, s, a, s2, _ in _some_transitions(m, 40):
            total_reward(m, s, a, s2)
        assert m._projections and m._keys
        assert m == twin and repr(m) == shown
        assert write_instance(m) == text
        assert replace(m)._projections == {} and replace(m)._keys == {}
        # a copy with a new default and shifted table prices its own values
        shifted = with_interaction_default(m, default=2.5, shift=1.0)
        assert shifted._keys == {}
        moved = 0
        for _, s, a, s2, _ in _some_transitions(m, 40):
            trs = tuple(zip(s, a, s2))
            for k, rf in enumerate(shifted.rewards):
                got = shifted.reward(k, trs)
                assert got == reward_value(shifted, rf, s, a, s2)
                moved += got != m.reward(k, trs)
        assert moved


class TestAvailable:
    def test_matches_a_scan_of_the_action_list(self):
        m = random_instance(11, n_agents=3, max_actions=4)
        for local in m.locals:
            for st in local.states:
                want = tuple(act.id for act in local.actions
                             if (st.id, act.id) in local.transitions)
                assert local.available(st.id) == want
                assert local.available(st.id) is local.available(st.id)

    def test_cache_stays_out_of_equality_repr_and_bytes(self):
        m = random_instance(6, feature_scoped=True)
        twin = copy.deepcopy(m)
        text, shown = write_instance(m), repr(m)
        list(m.joint_actions(m.initial))
        local = m.locals[0]
        assert local._available
        assert m == twin and repr(m) == shown
        assert write_instance(m) == text
        copied = replace(local)
        assert copied._available == {} and copied == local
        # a copy with other transitions answers from its own model
        s = m.initial[0]
        dropped = {key: outs for key, outs in local.transitions.items()
                   if key != (s, local.available(s)[0])}
        assert replace(local, transitions=dropped).available(s) == (
            local.available(s)[1:])


class TestReachable:
    def test_matches_the_sweep_and_stays_out_of_equality(self):
        m = random_instance(4, n_agents=3, horizon=4)
        twin = copy.deepcopy(m)
        for i in m.agents:
            reach = m.reachable(i)
            assert reach == tuple(map(frozenset,
                                      reachable_local_states(m, i)))
            assert m.reachable(i) is reach
        assert m == twin and repr(m) == repr(twin)
        shorter = replace(m, horizon=2)
        assert shorter._reach == {}
        assert len(shorter.reachable(0)) == 3


class TestSequenceReturn:
    def test_empty_sequence_returns_zero(self):
        m = two_agent_fixture()
        total, per = sequence_return(m, ExecutionSequence(((0, 0),)))
        assert total == 0.0
        assert all(v == 0.0 for v in per.values())

    def test_two_step_arithmetic(self):
        m = two_agent_fixture()
        phi = ExecutionSequence(((0, 0), (0, 0), (1, 1), (0, 0), (2, 1)))
        total, per = sequence_return(m, phi)
        assert total == 3.0  # 5 - 2 on the first step, nothing after
        assert per[0] == 5.0 and per[1] == -2.0

    def test_invalid_sequence_raises(self):
        m = two_agent_fixture()
        with pytest.raises(ValueError):
            sequence_return(m, ExecutionSequence(((0, 0), (0, 0), (2, 0))))

    def test_components_sum_exactly_to_total(self):
        rng = SplitMix64(7)
        for seed in range(20):
            m = random_instance(seed, horizon=3, feature_scoped=True)
            for _ in range(5):
                phi = random_execution_sequence(m, rng)
                total, per = sequence_return(m, phi)
                assert math.fsum(per.values()) == total
                step_major = math.fsum(
                    total_reward(m, s, a, s2)
                    for s, a, s2 in phi.transitions())
                assert total == step_major

    def test_partitioned_components_add_to_total(self):
        m = random_instance(3, n_agents=3, n_interactions=2)
        rng = SplitMix64(11)
        phi = random_execution_sequence(m, rng)
        total, per = sequence_return(m, phi)
        left = math.fsum(per[k] for k in per if k % 2 == 0)
        right = math.fsum(per[k] for k in per if k % 2 == 1)
        assert abs((left + right) - total) <= 1e-12


class TestEnumerateSuccessors:
    def test_deterministic_action_single_successor(self):
        m = two_agent_fixture()
        assert enumerate_successors(m, (0, 0), (1, 1)) == [((0, 0), 1.0)]

    def test_bundled_example_stochastic_split(self):
        m = example_two_agent()
        outs = enumerate_successors(m, (0, 0), (0, 2))
        assert outs == [((1, 3), 0.75), ((1, 4), 0.25)]

    def test_two_binary_actions_give_four_products(self):
        states = tuple(LocalState(i, {}) for i in range(3))
        actions = (LocalAction(0, "flip"),)
        transitions = {(0, 0): ((1, 0.5), (2, 0.5))}
        local = LocalMdp(states, actions, transitions)
        m = TiMmdpInstance(locals=(local, local), rewards=[], horizon=1,
                           initial=(0, 0))
        outs = enumerate_successors(m, (0, 0), (0, 0))
        assert len(outs) == 4
        assert math.fsum(p for _, p in outs) == 1.0

    def test_probabilities_sum_to_one_on_random_instances(self):
        for seed in range(20):
            m = random_instance(seed, n_agents=3)
            for t, s, a, _, _ in _some_transitions(m, 10):
                outs = enumerate_successors(m, s, a)
                assert abs(math.fsum(p for _, p in outs) - 1.0) <= 1e-9
                assert outs == sorted(outs, key=lambda o: o[0])
