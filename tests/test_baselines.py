import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timmdp
from timmdp.baselines import (
    StateSpaceBudgetExceeded,
    dp_solve,
    evaluate_policy,
)
from timmdp.crg import build_crgs
from timmdp.domains import example_two_agent
from timmdp.model import (
    LocalAction,
    LocalMdp,
    LocalState,
    Policy,
    RewardFunction,
    TiMmdpInstance,
)
from timmdp.search import core_solve

from util import (
    best_open_loop_value,
    naive_dp,
    policy_value_by_induction,
    random_instance,
    with_interaction_default,
)
from timmdp.rng import SplitMix64


def single_action_instance():
    states = (LocalState(0, {}), LocalState(1, {}))
    actions = (LocalAction(0, "go"),)
    local = LocalMdp(states, actions, {(0, 0): ((1, 1.0),)})
    rf = RewardFunction(scope=(0,), table={((0,), (0,), (1,)): 4.0})
    return TiMmdpInstance(locals=(local,), rewards=[rf], horizon=1,
                          initial=(0,))


class TestDpSolve:
    def test_single_step_single_action(self):
        result = dp_solve(single_action_instance())
        assert result.value == 4.0
        assert result.stats["joint_actions_evaluated"] == 1

    def test_independent_agents_add_up(self):
        m = random_instance(8, n_agents=2, n_interactions=0)
        joint = dp_solve(m).value
        split = 0.0
        for i in m.agents:
            sub = TiMmdpInstance(
                locals=(m.locals[i],),
                rewards=[RewardFunction(scope=(0,), table=dict(rf.table))
                         for rf in m.rewards if rf.scope == (i,)],
                horizon=m.horizon, initial=(m.initial[i],))
            split += dp_solve(sub).value
        assert abs(joint - split) <= 1e-9

    def test_agrees_with_graph_search_on_fixture(self):
        m = example_two_agent()
        assert abs(dp_solve(m).value
                   - core_solve(m, build_crgs(m)).value) <= 1e-9

    def test_state_budget_is_enforced(self):
        m = random_instance(1, n_agents=3, horizon=4)
        with pytest.raises(StateSpaceBudgetExceeded):
            dp_solve(m, max_states=2)

    def test_state_budget_counts_every_reachable_state(self):
        m = random_instance(1, n_agents=3, horizon=4)
        states = dp_solve(m).stats["states"]
        assert dp_solve(m, max_states=states).stats["states"] == states
        with pytest.raises(StateSpaceBudgetExceeded):
            dp_solve(m, max_states=states - 1)

    def test_terminal_values_are_zero(self):
        m = random_instance(3)
        result = dp_solve(m)
        for (t, s), v in result.values.items():
            if t == m.horizon:
                assert v == 0.0


class TestDpAgainstNaiveInduction:
    """``dp_solve`` prices each function once per scope-local (state,
    action); ``naive_dp`` prices every joint successor with
    ``total_reward``. Both must give the same table, counters and policy
    value."""

    @staticmethod
    def _check(m):
        dp, ref = dp_solve(m), naive_dp(m)
        assert dp.values.keys() == ref.values.keys()
        for key, v in ref.values.items():
            assert abs(dp.values[key] - v) <= 1e-9, key
        assert dp.stats == ref.stats
        assert abs(evaluate_policy(m, dp.policy) - dp.value) <= 1e-9

    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(1, 3),
           horizon=st.integers(1, 3), n_interactions=st.integers(1, 2),
           feature_scoped=st.booleans(),
           default=st.sampled_from((0.0, -2.5, 1.75)),
           shift=st.sampled_from((0.0, -1.0, 3.0)))
    def test_matches_naive_induction_on_random_draws(
            self, seed, n_agents, horizon, n_interactions, feature_scoped,
            default, shift):
        three = n_agents == 3
        m = random_instance(seed, n_agents=n_agents, horizon=horizon,
                            max_states=3 if three else 4,
                            max_actions=2 if three else 3,
                            n_interactions=n_interactions if n_agents > 1
                            else 0,
                            feature_scoped=feature_scoped)
        self._check(with_interaction_default(m, default, shift))

    def test_matches_naive_induction_on_a_pyramid(self):
        from timmdp.domains import compile_mpp, gen_pyra

        self._check(compile_mpp(gen_pyra(4, 3, seed=3)))


def test_oracle_modules_do_not_import_the_search():
    """dp, and every package module it reaches by import, stays independent
    of the graph search, as the README states: ``dp`` reads neither the
    graphs nor the search. Both price rewards through
    ``TiMmdpInstance.reward``, so only the imports keep them apart."""
    src = Path(timmdp.__file__).parent
    reached, todo = set(), ["baselines"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        imported = set()
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1]
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                if node.module:
                    imported.add(node.module.split(".")[-1])
                if node.level or node.module == "timmdp":
                    imported.update(alias.name for alias in node.names)
        todo.extend(x for x in imported if (src / f"{x}.py").is_file())
    assert "model" in reached
    assert not reached & {"crg", "search"}, reached


class TestEvaluatePolicy:
    def test_deterministic_instance_single_sequence(self):
        m = single_action_instance()
        pi = Policy(n_agents=1, entries={(0, (0,)): (0,)})
        assert evaluate_policy(m, pi) == 4.0

    def test_dp_policy_reproduces_dp_value(self):
        for seed in range(25):
            m = random_instance(seed, n_agents=2, feature_scoped=True)
            result = dp_solve(m)
            assert abs(evaluate_policy(m, result.policy)
                       - result.value) <= 1e-9, seed

    def test_matches_induction_evaluator_on_random_policies(self):
        rng = SplitMix64(13)
        for seed in range(20):
            m = random_instance(seed, n_agents=2)
            pi = _random_policy(m, rng)
            a = evaluate_policy(m, pi)
            b = policy_value_by_induction(m, pi)
            assert abs(a - b) <= 1e-9, seed

    def test_no_policy_beats_the_optimum(self):
        rng = SplitMix64(17)
        for seed in range(20):
            m = random_instance(seed, n_agents=2)
            v_star = dp_solve(m).value
            for _ in range(3):
                pi = _random_policy(m, rng)
                assert evaluate_policy(m, pi) <= v_star + 1e-9, seed

    def test_undefined_state_names_the_gap(self):
        m = single_action_instance()
        pi = Policy(n_agents=1, entries={})
        with pytest.raises(KeyError, match=r"stage 0"):
            evaluate_policy(m, pi)


def _random_policy(m, rng) -> Policy:
    """A policy defined on every stage-reachable joint state."""
    from timmdp.model import enumerate_successors

    entries = {}
    frontier = {tuple(m.initial)}
    for t in range(m.horizon):
        nxt = set()
        for s in sorted(frontier):
            actions = sorted(m.joint_actions(s))
            a = rng.choice(actions)
            entries[(t, s)] = a
            for s2, _ in enumerate_successors(m, s, a):
                nxt.add(s2)
        frontier = nxt
    return Policy(n_agents=m.n_agents, entries=entries)


class TestBestOpenLoop:
    def test_never_exceeds_full_information_optimum(self):
        for seed in range(8):
            m = random_instance(seed, n_agents=2, max_states=3,
                                max_actions=2, horizon=2)
            assert best_open_loop_value(m) <= dp_solve(m).value + 1e-9

    def test_limit_guard(self):
        m = random_instance(0, n_agents=3, horizon=4)
        with pytest.raises(ValueError, match="limit"):
            best_open_loop_value(m, limit=2)
