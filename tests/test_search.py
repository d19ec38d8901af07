import math
import time
from itertools import count, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timmdp.search
from timmdp.baselines import dp_solve, evaluate_policy
from timmdp.crg import build_crgs, cover_mask, partition_rewards
from timmdp.domains import example_partition, example_two_agent
from timmdp.search import SearchConfig, _Search, core_solve

from util import (
    bf_joint_future_fires,
    bound_draws,
    components,
    independent_components,
    joint_action_bounds,
    random_instance,
    row_product,
    table_value,
    with_interaction_default,
)


@st.composite
def search_draws(draw):
    """Two or three agents over three stages, with and without feature
    scopes, and with interaction defaults of 0, -2 or 1."""
    n_agents = draw(st.sampled_from((2, 3)))
    three = n_agents == 3
    m = random_instance(draw(st.integers(0, 2**32 - 1)), n_agents=n_agents,
                        horizon=3, max_states=3 if three else 4,
                        max_actions=2 if three else 3,
                        feature_scoped=draw(st.booleans()))
    default = draw(st.sampled_from((0.0, -2.0, 1.0)))
    return with_interaction_default(m, default) if default else m


class TestCoreSolve:
    def test_trivial_horizon_boundary(self):
        m = random_instance(0, horizon=1)
        crgs = build_crgs(m)
        report = core_solve(m, crgs)
        assert abs(report.value - dp_solve(m).value) <= 1e-9

    def test_zero_interactions_decouple_at_root(self):
        m = random_instance(1, n_agents=3, n_interactions=0)
        report = core_solve(m, build_crgs(m))
        per_agent = []
        for i in m.agents:
            sub = _restrict_to_agent(m, i)
            per_agent.append(dp_solve(sub).value)
        assert abs(report.value - math.fsum(per_agent)) <= 1e-9
        assert report.stats.decouple_events >= 1
        assert report.stats.max_component_size == 1

    def test_matches_dp_on_random_batch(self):
        for seed in range(100):
            m = random_instance(seed, n_agents=2, max_actions=3,
                                max_states=4, horizon=4,
                                feature_scoped=(seed % 3 == 0))
            crgs = build_crgs(m)
            dp = dp_solve(m)
            core = core_solve(m, crgs)
            assert abs(core.value - dp.value) <= 1e-9, seed

    def test_timeout_reports_incomplete(self):
        m = random_instance(2, n_agents=3, horizon=4)
        crgs = build_crgs(m)
        report = core_solve(m, crgs, SearchConfig(time_budget=0.0))
        assert report.status == "timeout"
        assert report.value is None
        assert report.policy is None

    @pytest.mark.parametrize("pruning", (True, False))
    @pytest.mark.parametrize("budget", (2, 3, 5, 8))
    def test_deadline_is_checked_before_each_fresh_solve(self, monkeypatch,
                                                         pruning, budget):
        """On a clock that ticks once per reading, the root's check takes
        one tick and every fresh component solve one more, so a budget
        that runs out after the root stops the walk before any further
        component solve."""
        ticks = count()
        monkeypatch.setattr(timmdp.search, "time", SimpleNamespace(
            monotonic=lambda: next(ticks), perf_counter=time.perf_counter))
        solves = []
        solve_component = _Search._solve_component

        def counted(search, t, agents, states):
            solves.append((t, agents, states))
            return solve_component(search, t, agents, states)

        monkeypatch.setattr(_Search, "_solve_component", counted)
        m = random_instance(2, n_agents=3, horizon=4)
        report = core_solve(m, build_crgs(m),
                            SearchConfig(pruning=pruning, time_budget=budget))
        assert report.status == "timeout"
        assert report.value is None and report.policy is None
        assert len(solves) == budget - 1


def _restrict_to_agent(m, i):
    from timmdp.model import TiMmdpInstance

    return TiMmdpInstance(
        locals=(m.locals[i],),
        rewards=[_shift(rf) for rf in m.rewards if rf.scope == (i,)],
        horizon=m.horizon, initial=(m.initial[i],))


def _shift(rf):
    from timmdp.model import RewardFunction

    return RewardFunction(scope=(0,), table=dict(rf.table),
                          default=rf.default, feature_scope=None)


class TestPruningSafety:
    def test_values_identical_and_fewer_evaluations(self):
        for seed in range(40):
            m = random_instance(seed, n_agents=2, horizon=3,
                                feature_scoped=(seed % 2 == 0))
            crgs = build_crgs(m)
            pruned = core_solve(m, crgs)
            plain = core_solve(m, crgs, SearchConfig(pruning=False))
            assert abs(pruned.value - plain.value) <= 1e-9, seed
            assert plain.stats.nodes_pruned == 0
            assert (pruned.stats.joint_actions_evaluated
                    <= plain.stats.joint_actions_evaluated), seed

    def test_each_component_is_solved_once(self):
        """Every (stage, component, states) is expanded once: the actions
        tried add up to one full action set per table entry."""
        for seed in range(15):
            m = random_instance(seed, n_agents=2, horizon=4)
            crgs = build_crgs(m)
            for pruning in (True, False):
                report = core_solve(m, crgs, SearchConfig(pruning=pruning))
                tried = (report.stats.joint_actions_evaluated
                         + report.stats.nodes_pruned)
                assert tried == sum(
                    math.prod(len(crgs[i].nodes[(t, s)].kept_actions)
                              for i, s in zip(comp, states))
                    for t, comp, states in report.trace), (seed, pruning)

    @settings(deadline=None)
    @given(m=search_draws())
    def test_core_crg_ps_and_dp_agree_on_random_draws(self, m):
        self.assert_core_crg_ps_and_dp_agree(m)

    @settings(deadline=None)
    @given(m=bound_draws())
    def test_core_crg_ps_and_dp_agree_on_edge_draws(self, m):
        """Horizons 1 to 3 over single-agent, all-negative, nonzero-default
        and layered instances as well as plain ones."""
        self.assert_core_crg_ps_and_dp_agree(m)

    @staticmethod
    def assert_core_crg_ps_and_dp_agree(m):
        """core, crg-ps and dp agree on the value, both searches' policies
        priced by evaluate_policy, and pruning never costs evaluations."""
        crgs = build_crgs(m)
        dp = dp_solve(m).value
        core = core_solve(m, crgs)
        ps = core_solve(m, crgs, SearchConfig(pruning=False))
        for report in (core, ps):
            assert abs(report.value - dp) <= 1e-9
            assert abs(evaluate_policy(m, report.policy) - dp) <= 1e-9
        assert ps.stats.nodes_pruned == 0
        assert (core.stats.joint_actions_evaluated
                <= ps.stats.joint_actions_evaluated)

    def test_pyramid_counters_are_pinned(self):
        """pyra(5,3), seed 1: recorded counters of the factored walk under
        upper bounds that take the expectation over each owner's outcomes."""
        from timmdp.domains import compile_mpp, gen_pyra

        m = compile_mpp(gen_pyra(5, 3, seed=1))
        report = core_solve(m, build_crgs(m))
        assert report.value == 95.8227
        assert report.stats.as_dict() == {
            "joint_actions_evaluated": 16, "nodes_pruned": 33,
            "decouple_events": 1, "max_component_size": 5,
            "memo_hits": 3}
        assert len(report.trace) == 16

    def test_crg_ps_keeps_time_budget(self):
        m = random_instance(2, n_agents=3, horizon=4)
        report = core_solve(m, build_crgs(m),
                            SearchConfig(pruning=False, time_budget=0.0))
        assert report.algorithm == "crg-ps"
        assert report.status == "timeout" and report.value is None
        assert report.policy is None

    def test_determinism_of_reports(self):
        m = random_instance(9, n_agents=2, horizon=4)
        crgs = build_crgs(m)
        a = core_solve(m, crgs)
        b = core_solve(m, crgs)
        assert a.value == b.value
        assert a.stats.as_dict() == b.stats.as_dict()
        assert a.policy.entries == b.policy.entries

    def test_lower_bound_only_rises_within_a_node(self):
        m = random_instance(12, n_agents=2, horizon=3)
        crgs = build_crgs(m)
        # without pruning every successor's components are in the table
        solved = core_solve(m, crgs, SearchConfig(pruning=False)).trace

        agents = tuple(m.agents)
        state_of = dict(zip(agents, m.initial))
        for comp in components(crgs, 0, agents, state_of):
            comp_states = tuple(state_of[i] for i in comp)
            masks = {i: cover_mask(crgs[i], comp) for i in comp}
            actions = list(product(*(
                crgs[i].nodes[(0, s)].kept_actions
                for i, s in zip(comp, comp_states))))
            expansions = {a: row_product(crgs, masks, 0, comp, comp_states, a)
                          for a in actions}
            bounds = {a: sum(p * dn for _, p, _, _, dn in rows)
                      for a, rows in expansions.items()}
            lower_max = max(bounds.values())
            history = [lower_max]
            for a in actions:
                q = sum(p * (r + table_value(crgs, solved, m.horizon, 1, comp,
                                             nxt))
                        for nxt, p, r, _, _ in expansions[a])
                lower_max = max(lower_max, q)
                history.append(lower_max)
            assert history == sorted(history)

    @settings(deadline=None)
    @given(m=search_draws())
    def test_factored_walk_matches_the_row_product(self, m):
        """At every table entry, every kept action's scope-local bounds and
        its value split over next-stage parts agree with the sums over the
        full product of the component's outcomes."""
        crgs = build_crgs(m)
        search = _Search(m, crgs, SearchConfig(pruning=False))
        search.solve(0, tuple(m.agents), tuple(m.initial))
        table = dict(search.table)
        for t, comp, states in table:
            assert components(crgs, t, comp, dict(zip(comp, states))) == [comp]
            masks = {i: cover_mask(crgs[i], comp) for i in comp}
            actions = list(product(*(crgs[i].nodes[(t, s)].kept_actions
                                     for i, s in zip(comp, states))))
            bounds = search._bounds(t, search.compiled[comp], states, actions)
            for a in actions:
                rows = row_product(crgs, masks, t, comp, states, a)
                upper, lower, rewards = bounds[a]
                assert abs(upper - math.fsum(p * up for _, p, _, up, _
                                             in rows)) <= 1e-9
                assert abs(lower - math.fsum(p * dn for _, p, _, _, dn
                                             in rows)) <= 1e-9
                value = search._evaluate(t, search.compiled[comp], states, a,
                                         rewards)
                expected = math.fsum(
                    p * (r + table_value(crgs, table, m.horizon, t + 1, comp,
                                         nxt))
                    for nxt, p, r, _, _ in rows)
                assert abs(value - expected) <= 1e-9, (t, comp, states, a)
        assert search.table.keys() == table.keys()


class TestComponents:
    def test_no_interactions_gives_singletons(self):
        m = random_instance(3, n_agents=3, n_interactions=0)
        crgs = build_crgs(m)
        comps = independent_components(m, crgs, 0, m.initial)
        assert comps == [(0,), (1,), (2,)]

    def test_worked_example_decouples_after_joint_ba(self):
        m = example_two_agent()
        crgs = build_crgs(m, partition_rewards(m, example_partition()))
        assert independent_components(m, crgs, 0, (0, 0)) == [(0, 1)]
        # joint action (b, a) leads to local states (2, 1)
        assert independent_components(m, crgs, 1, (2, 1)) == [(0,), (1,)]

    def test_pyramid_is_one_component_at_root(self):
        from timmdp.domains import compile_mpp, gen_pyra

        m = compile_mpp(gen_pyra(7, 3, seed=1))
        crgs = build_crgs(m)
        comps = independent_components(m, crgs, 0, m.initial)
        assert comps == [tuple(range(7))]

    def test_owned_function_with_a_default_but_never_nonzero_is_dead(self):
        """A zero entry for every joint transition of its scope leaves a
        function's nonzero default unreachable, so ``InstanceIndex.alive``
        calls the function dead from the start and it links nothing."""
        from timmdp.baselines import dp_solve
        from timmdp.crg import InstanceIndex
        from util import available_transitions

        m = random_instance(3, n_agents=2, horizon=3)
        k = next(k for k, rf in enumerate(m.rewards) if rf.is_interaction)
        rf = m.rewards[k]
        rf.default = 5.0
        rf.table = {tuple(zip(*trs)): 0.0 for trs in product(
            *(available_transitions(m, j) for j in rf.scope))}
        assert rf.scope == (0, 1)
        assert m.initial[0] not in InstanceIndex(m).alive(k)[0][0]
        crgs = build_crgs(m)
        dp = dp_solve(m).value
        for pruning in (True, False):
            report = core_solve(m, crgs, SearchConfig(pruning=pruning))
            assert sorted(comp for t, comp, _ in report.trace if t == 0) \
                == [(0,), (1,)]
            assert report.stats.max_component_size == 1
            assert abs(report.value - dp) <= 1e-9
            assert abs(evaluate_policy(m, report.policy) - dp) <= 1e-9

    def test_split_functions_cannot_fire(self):
        """Soundness against the exhaustive oracle: at every reachable joint
        state, a function whose scope the partition splits never fires in
        any joint future."""
        from timmdp.model import enumerate_successors

        checked = 0
        for seed in range(15):
            # interactions confined to early stages split the partition often
            m = random_instance(seed, n_agents=3, n_interactions=1 + seed % 2,
                                layered=True, interaction_horizon=2)
            crgs = build_crgs(m)
            interactions = [k for k, rf in enumerate(m.rewards)
                            if rf.is_interaction]
            frontier = {tuple(m.initial)}
            for t in range(m.horizon):
                nxt = set()
                for s in frontier:
                    block = {i: comp for comp in
                             independent_components(m, crgs, t, s)
                             for i in comp}
                    for k in interactions:
                        if len({block[j] for j in m.rewards[k].scope}) > 1:
                            checked += 1
                            assert not bf_joint_future_fires(m, k, t, s), \
                                (seed, t, s, k)
                    for a in m.joint_actions(s):
                        nxt.update(s2 for s2, _ in
                                   enumerate_successors(m, s, a))
                frontier = nxt
        assert checked > 0

    def test_components_refine_along_branches(self):
        from timmdp.model import enumerate_successors

        for seed in range(10):
            m = random_instance(seed, n_agents=3, n_interactions=2)
            crgs = build_crgs(m)
            frontier = {(0, tuple(m.initial))}
            seen = set()
            while frontier:
                t, s = frontier.pop()
                if (t, s) in seen or t >= m.horizon:
                    continue
                seen.add((t, s))
                comps = independent_components(m, crgs, t, s)
                blocks = {i: comp for comp in comps for i in comp}
                for a in m.joint_actions(s):
                    for s2, _ in enumerate_successors(m, s, a):
                        if t + 1 >= m.horizon:
                            continue
                        comps2 = independent_components(m, crgs, t + 1, s2)
                        for comp in comps2:
                            parents = {blocks[i] for i in comp}
                            assert len(parents) == 1, (seed, t, s, comp)
                        frontier.add((t + 1, s2))


class TestJointActionBounds:
    def test_terminal_transition_bounds_collapse_to_reward(self):
        m = example_two_agent()
        crgs = build_crgs(m, partition_rewards(m, example_partition()))
        # from joint state (2, 1) at t=1, joint action (a, b) is deterministic
        lo, hi = joint_action_bounds(crgs, 1, (0, 1), (2, 1), (0, 1))
        assert lo == hi

    def test_q_values_lie_within_bounds(self):
        from timmdp.model import enumerate_successors
        from util import reference_total_reward

        for seed in range(15):
            m = random_instance(seed, n_agents=2, feature_scoped=True)
            crgs = build_crgs(m)
            dp = dp_solve(m)
            agents = tuple(m.agents)
            frontier = {tuple(m.initial)}
            for t in range(m.horizon):
                nxt = set()
                for s in frontier:
                    for a in m.joint_actions(s):
                        q = math.fsum(
                            p * (reference_total_reward(m, s, a, s2)
                                 + dp.values[(t + 1, s2)])
                            for s2, p in enumerate_successors(m, s, a))
                        lo, hi = joint_action_bounds(crgs, t, agents, s, a)
                        assert lo - 1e-9 <= q <= hi + 1e-9, (seed, t, s, a)
                        nxt.update(
                            s2 for s2, _ in enumerate_successors(m, s, a))
                frontier = nxt


class TestPolicyExtraction:
    def test_single_action_instance_maps_the_only_choice(self):
        m = random_instance(5, max_actions=2)
        # restrict to one action per state by rebuilding kept transitions
        report = core_solve(m, build_crgs(m))
        policy = report.policy
        assert (0, tuple(m.initial)) in policy.entries

    def test_policy_value_matches_report_on_batch(self):
        for seed in range(100):
            m = random_instance(seed, n_agents=2, horizon=3,
                                feature_scoped=(seed % 4 == 0))
            report = core_solve(m, build_crgs(m))
            assert abs(evaluate_policy(m, report.policy)
                       - report.value) <= 1e-9, seed

    def test_tie_breaks_prefer_lexicographic_action(self):
        m = random_instance(6)
        for rf in m.rewards:
            rf.table.clear()
        report = core_solve(m, build_crgs(m))
        assert report.value == 0.0
        for (t, s), action in report.policy.entries.items():
            smallest = tuple(min(m.locals[i].available(s[i]))
                             for i in m.agents)
            assert action == smallest
