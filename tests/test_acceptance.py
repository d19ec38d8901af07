"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass. Tolerances are fixed here, not configurable.
"""

import math
import time

import pytest

from timmdp.baselines import (
    StateSpaceBudgetExceeded,
    dp_solve,
)
from timmdp.crg import (
    build_crgs,
    partition_rewards,
    resolve_arc,
    size_audit,
)
from timmdp.domains import (
    GeneratorParams,
    compile_mpp,
    example_partition,
    example_two_agent,
    gen_coordint,
    gen_pyra,
    gen_random_mpp,
)
from timmdp.model import enumerate_successors, validate_instance
from timmdp.rng import SplitMix64, stream
from timmdp.search import SearchConfig, TimeBudgetExceeded, core_solve

from util import (
    all_joint_transitions,
    best_open_loop_value,
    random_execution_sequence,
    random_instance,
    reference_total_reward,
    reward_value_local,
    sequence_return,
)

TOL = 1e-9


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number}: {text}"


def small_instance(k: int, feature_scoped=None):
    """Within the stated ranges (2-3 agents, 2-3 actions, <=4 local states,
    h <= 4); three-agent draws sit at the small end so the unpruned walk
    stays within the criterion's runtime budget."""
    three = k % 2 == 1
    return random_instance(
        seed=stream(11_000, k).next_u64(),
        n_agents=3 if three else 2,
        max_actions=2 if three else 3,
        max_states=3 if three else 4,
        horizon=3 if three else 4,
        n_interactions=1 + (k % 3 == 0),
        feature_scoped=(k % 3 == 0) if feature_scoped is None
        else feature_scoped)


def test_criterion_1_oracle_equivalence():
    """core, crg-ps and dp agree on 200 seeded random instances."""
    start = time.perf_counter()
    agree = 0
    for k in range(200):
        m = small_instance(k)
        crgs = build_crgs(m)
        dp = dp_solve(m).value
        core = core_solve(m, crgs, SearchConfig(pruning=True)).value
        ps = core_solve(m, crgs, SearchConfig(pruning=False)).value
        assert abs(core - dp) <= TOL and abs(ps - dp) <= TOL, k
        agree += 1
    elapsed = time.perf_counter() - start
    verdict(1, agree == 200,
            f"core/crg-ps/dp agree within {TOL} on {agree}/200 instances "
            f"({elapsed:.0f}s)")


def test_criterion_2_bound_admissibility():
    """Summed node bounds bracket the optimal value at every reachable
    joint state on 50 instances."""
    checked = 0
    for k in range(50):
        m = small_instance(k)
        crgs = build_crgs(m)
        dp = dp_solve(m)
        for (t, s), v_star in dp.values.items():
            lo = math.fsum(crgs[i].node(t, s[i]).lower for i in m.agents)
            hi = math.fsum(crgs[i].node(t, s[i]).upper for i in m.agents)
            assert lo <= v_star + TOL and v_star <= hi + TOL, (k, t, s)
        checked += 1
    verdict(2, checked == 50,
            f"L <= V* <= U at every reachable joint state on {checked}/50 "
            "instances")


def test_criterion_3_return_decomposition():
    """Per-component returns of 1000 random sequences add back exactly."""
    rng = SplitMix64(99)
    sequences = 0
    for k in range(20):
        m = small_instance(k, feature_scoped=True)
        for _ in range(50):
            phi = random_execution_sequence(m, rng)
            total, per = sequence_return(m, phi)
            assert math.fsum(per.values()) == total
            step_major = math.fsum(reference_total_reward(m, s, a, s2)
                                   for s, a, s2 in phi.transitions())
            assert total == step_major
            sequences += 1
    verdict(3, sequences == 1000,
            f"component sums equal totals exactly on {sequences}/1000 "
            "sequences")


def _local_values_from(m, agent, stage):
    """Backward induction of one agent's local rewards from a stage on."""
    local = m.locals[agent]
    local_fns = [rf for rf in m.rewards if rf.scope == (agent,)]
    values = {}
    for t in range(m.horizon, stage - 1, -1):
        for s in range(len(local.states)):
            if t == m.horizon:
                values[(t, s)] = 0.0
                continue
            best = None
            for a in local.available(s):
                q = math.fsum(
                    p * (math.fsum(reward_value_local(m, rf, [s], [a], [dst])
                                   for rf in local_fns) + values[(t + 1, dst)])
                    for dst, p in local.outcomes(s, a))
                best = q if best is None else max(best, q)
            values[(t, s)] = best if best is not None else 0.0
    return values


def test_criterion_4_decoupling():
    """With interactions exhausted by stage u, the joint value equals the
    prefix solve stitched to independent per-agent tail solves."""
    passed = 0
    for k in range(20):
        u = 2
        m = random_instance(seed=stream(12_000, k).next_u64(),
                            n_agents=2 + (k % 2), horizon=4, layered=True,
                            interaction_horizon=u)
        per_agent = {i: _local_values_from(m, i, u) for i in m.agents}

        composed = {}
        frontier = {tuple(m.initial)}
        layers = [frontier]
        for t in range(u):
            nxt = set()
            for s in layers[t]:
                for a in m.joint_actions(s):
                    nxt.update(s2 for s2, _ in enumerate_successors(m, s, a))
            layers.append(nxt)
        for s in layers[u]:
            composed[(u, s)] = math.fsum(per_agent[i][(u, s[i])]
                                         for i in m.agents)
        for t in range(u - 1, -1, -1):
            for s in layers[t]:
                best = None
                for a in m.joint_actions(s):
                    q = math.fsum(
                        p * (reference_total_reward(m, s, a, s2)
                             + composed[(t + 1, s2)])
                        for s2, p in enumerate_successors(m, s, a))
                    best = q if best is None else max(best, q)
                composed[(t, s)] = best

        joint = dp_solve(m).value
        assert abs(joint - composed[(0, tuple(m.initial))]) <= TOL, k
        report = core_solve(m, build_crgs(m))
        assert abs(report.value - joint) <= TOL, k
        assert report.stats.decouple_events >= 1, k
        passed += 1
    verdict(4, passed == 20,
            f"prefix + independent tails reproduce the joint value and CoRe "
            f"decouples on {passed}/20 instances")


def test_criterion_5_wildcard_soundness_and_completeness():
    """Exhaustive joint-transition sweep on 50 instances: per-graph sums
    equal the team reward exactly, and non-dependent action substitution
    never moves a leaf reward."""
    passed = 0
    for k in range(50):
        m = small_instance(k, feature_scoped=(k % 2 == 0))
        crgs = build_crgs(m)
        for t, s, a, s2, _ in all_joint_transitions(m):
            context = {i: (s[i], a[i], s2[i]) for i in m.agents}
            parts = []
            for i, g in crgs.items():
                arc = resolve_arc(
                    g, (s[i], a[i], s2[i]),
                    {j: tr for j, tr in context.items() if j != i})
                parts.extend(arc.components)
            assert math.fsum(parts) == reference_total_reward(m, s, a, s2), \
                (k, t, s, a)
        for i, g in crgs.items():
            for tr in list(g.trees)[:10]:
                for j in (q for q in g.scope if q != i):
                    deps = g.trees[tr].records[j].deps
                    rewards = set()
                    for s_j, b, n_j in g.index.available[j]:
                        if b in deps:
                            continue
                        arc = resolve_arc(g, tr, {j: (s_j, b, n_j)})
                        rewards.add(arc.reward)
                    assert len(rewards) <= 1, (k, i, tr, j)
        passed += 1
    verdict(5, passed == 50,
            f"reward completeness and wildcard invariance hold on "
            f"{passed}/50 instances")


def test_criterion_6_size_bound():
    """Measured graph size stays within the evaluated bound, 100/100."""
    passed = 0
    for k in range(100):
        m = small_instance(k)
        for g in build_crgs(m).values():
            audit = size_audit(g)
            assert audit.measured <= audit.worst_case_bound, k
        passed += 1
    verdict(6, passed == 100,
            f"measured size within the worst-case bound on {passed}/100 "
            "instances")


def test_criterion_7_search_space_trend():
    """Evaluated joint actions: core <= crg-ps <= dp on every instance,
    with a strict crg-ps < dp reduction on at least 80 of 100.

    Both graph searches memoize component values (sound here because the
    independence test is state-determined); the dp count memoizes states
    by construction, so this keeps the units comparable.
    """
    strict = 0
    for k in range(100):
        params = GeneratorParams(n_agents=2 + (k % 2), tasks_per_agent=2,
                                 horizon=5, density=0.4,
                                 seed=stream(777_100, k).next_u64())
        m = compile_mpp(gen_random_mpp(params))
        crgs = build_crgs(m)
        core = core_solve(m, crgs, SearchConfig(pruning=True))
        ps = core_solve(m, crgs, SearchConfig(pruning=False))
        dp = dp_solve(m)
        c = core.stats.joint_actions_evaluated
        p = ps.stats.joint_actions_evaluated
        d = dp.stats["joint_actions_evaluated"]
        assert abs(core.value - dp.value) <= TOL, k
        assert abs(ps.value - dp.value) <= TOL, k
        assert c <= p <= d, (k, c, p, d)
        if p < d:
            strict += 1
    verdict(7, strict >= 80,
            f"core <= crg-ps <= dp everywhere; strict crg-ps < dp on "
            f"{strict}/100 instances")


def test_criterion_8_pyramid_scalability():
    """pyra(n=8, h=3) solves with CoRe inside five minutes while dp either
    busts the same budget or expands at least ten times more actions."""
    m = compile_mpp(gen_pyra(8, 3, seed=42))
    assert validate_instance(m) == []
    start = time.perf_counter()
    crgs = build_crgs(m)
    report = core_solve(m, crgs, SearchConfig(pruning=True, time_budget=300))
    core_time = time.perf_counter() - start
    assert report.status == "solved" and core_time < 300
    try:
        dp = dp_solve(m, time_budget=300)
        ratio = (dp.stats["joint_actions_evaluated"]
                 / report.stats.joint_actions_evaluated)
        assert abs(dp.value - report.value) <= TOL
        dp_note = f"dp expanded {ratio:.1f}x more actions"
        ok = ratio >= 10.0
    except (TimeBudgetExceeded, StateSpaceBudgetExceeded):
        dp_note = "dp exceeded the budget"
        ok = True
    verdict(8, ok, f"CoRe solved pyra(8,3) in {core_time:.1f}s; {dp_note}")


def test_criterion_9_worked_example_fixture():
    """The bundled two-agent fixture shows 9 joint actions with 12 result
    states and the wildcard/no-influence structure on the a-branch."""
    m = example_two_agent()
    actions = list(m.joint_actions(m.initial))
    successors = sum(len(enumerate_successors(m, m.initial, a))
                     for a in actions)
    crgs = build_crgs(m, partition_rewards(m, example_partition()))
    tree = crgs[1].tree(0, 0, 1)
    structure_ok = (
        tree.records[0].act_labels == (0, "*")
        and ("*", "⊥") in tree.arcs
        and len(tree.records[0].inf_labels[0]) == 2)
    verdict(9, len(actions) == 9 and successors == 12 and structure_ok,
            f"{len(actions)} joint actions, {successors} result states, "
            "wildcard and no-influence arcs present on the a-branch")


def test_criterion_10_coordination_value_gap():
    """Observing the partner's delay strictly beats the best plan that
    cannot, on at least 45 of 50 seeds."""
    gaps = 0
    for k in range(50):
        m = compile_mpp(gen_coordint(stream(55_000, k).next_u64()))
        v_star = dp_solve(m).value
        v_open = best_open_loop_value(m)
        assert v_open <= v_star + TOL
        if v_star > v_open + 1e-6:
            gaps += 1
    verdict(10, gaps >= 45,
            f"strict value gap over the best local-information plan on "
            f"{gaps}/50 seeds")
