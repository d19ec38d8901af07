import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timmdp.baselines import dp_solve
from timmdp.crg import (
    NO_INFLUENCE,
    WILDCARD,
    CrgArc,
    CrgError,
    InstanceIndex,
    assigned_reward,
    build_crg,
    build_crgs,
    cover_mask,
    partition_rewards,
    resolve_arc,
    size_audit,
    transition_influence,
)
from timmdp.domains import example_partition, example_two_agent
from timmdp.model import RewardFunction

from test_crg_fingerprint import CASES as FINGERPRINT_CASES
from util import (
    all_joint_transitions,
    available_transitions,
    bf_dependent_actions,
    bf_influence_set,
    bf_interaction_alive,
    bf_local_choice,
    fresh_classes,
    random_instance,
    reference_live,
    reference_total_reward,
    reference_transition_influence,
    reward_value,
    with_interaction_default,
    with_negative_rewards,
    worst_path_upper,
)


@st.composite
def small_instances(draw):
    """Two or three agents, with and without feature scopes; interaction
    functions may default to a nonzero value that some entries share, and
    may list zero-valued entries."""
    m = random_instance(draw(st.integers(0, 2**32 - 1)),
                        n_agents=draw(st.sampled_from((2, 3))),
                        feature_scoped=draw(st.booleans()),
                        n_interactions=draw(st.integers(1, 3)))
    return with_interaction_default(
        m, default=draw(st.sampled_from((0.0, 0.0, -2.0, 1.0, 3.5))),
        shift=draw(st.sampled_from((0.0, 2.0, -1.0))))


@st.composite
def liveness_draws(draw):
    """Plain, feature-scoped, layered (interactions confined to early
    stages), nonzero-default and zero-entry draws of two or three agents."""
    variant = draw(st.sampled_from(("plain", "feature_scoped", "layered",
                                    "default", "zeroed")))
    layered = variant == "layered"
    m = random_instance(draw(st.integers(0, 2**32 - 1)),
                        n_agents=draw(st.sampled_from((2, 3))),
                        n_interactions=2,
                        feature_scoped=variant == "feature_scoped",
                        layered=layered,
                        interaction_horizon=(draw(st.integers(1, 3))
                                             if layered else None))
    if variant == "default":
        m = with_interaction_default(
            m, default=draw(st.sampled_from((0.0, -2.0, 1.0))),
            shift=draw(st.sampled_from((0.0, 2.0, -1.0))))
    if variant == "zeroed":  # zero-valued entries never fire
        for rf in m.rewards:
            if rf.is_interaction:
                for key in sorted(rf.table, key=repr)[::2]:
                    rf.table[key] = 0.0
    return m


@st.composite
def influence_draws(draw):
    """Plain, feature-scoped, nonzero interaction default (with listed
    entries shifted, so some may equal the default) and layered draws of
    two or three agents."""
    variant = draw(st.sampled_from(("plain", "feature_scoped", "default",
                                    "layered")))
    layered = variant == "layered"
    m = random_instance(draw(st.integers(0, 2**32 - 1)),
                        n_agents=draw(st.sampled_from((2, 3))),
                        n_interactions=draw(st.integers(1, 3)),
                        feature_scoped=variant in ("feature_scoped",
                                                   "default"),
                        layered=layered,
                        interaction_horizon=(draw(st.integers(1, 3))
                                             if layered else None))
    if variant == "default":
        m = with_interaction_default(
            m, default=draw(st.sampled_from((-2.0, 1.0, 3.5))),
            shift=draw(st.sampled_from((0.0, 2.0, -1.0))))
    return m


@st.composite
def bound_draws(draw):
    """Horizons 1 to 3 over plain, single-agent, all-negative,
    nonzero-default and layered draws of up to three agents."""
    variant = draw(st.sampled_from(("plain", "single", "negative",
                                    "default", "layered")))
    horizon = draw(st.integers(1, 3))
    n_agents = 1 if variant == "single" else draw(st.sampled_from((2, 3)))
    layered = variant == "layered"
    m = random_instance(draw(st.integers(0, 2**32 - 1)), n_agents=n_agents,
                        horizon=horizon,
                        max_states=3 if n_agents == 3 else 4,
                        max_actions=2 if n_agents == 3 else 3,
                        n_interactions=(0 if n_agents == 1
                                        else draw(st.integers(1, 2))),
                        feature_scoped=not layered and draw(st.booleans()),
                        layered=layered,
                        interaction_horizon=(draw(st.integers(1, horizon))
                                             if layered else None))
    if variant == "negative":
        m = with_negative_rewards(m)
    if variant == "default":
        m = with_interaction_default(
            m, default=draw(st.sampled_from((-2.0, 1.0, 3.5))),
            shift=draw(st.sampled_from((0.0, 2.0, -1.0))))
    return m


def crg_reward_sum(m, crgs, t, s, a, s2):
    context = {i: (s[i], a[i], s2[i]) for i in m.agents}
    parts = []
    for i, g in crgs.items():
        arc = resolve_arc(g, (s[i], a[i], s2[i]),
                          {j: tr for j, tr in context.items() if j != i})
        parts.extend(arc.components)
    return math.fsum(parts)


class TestPartition:
    def test_balanced_tie_goes_to_lowest_agent(self):
        m = random_instance(0, n_agents=2, n_interactions=1)
        part = partition_rewards(m)
        # two local functions plus one interaction: tie on counts -> agent 0
        assert 2 in part.assignment[0]

    def test_fixed_assignment_matches_worked_example(self):
        m = example_two_agent()
        part = partition_rewards(m, example_partition())
        assert part.functions(1) == [1, 2]
        assert [i for i in m.agents if 2 in part.functions(i)] == [1]

    def test_fixed_assignment_rejects_out_of_scope(self):
        m = example_two_agent()
        with pytest.raises(ValueError, match="reward 1"):
            partition_rewards(m, {0: [0, 1], 1: [2]})

    def test_fixed_assignment_rejects_incomplete(self):
        m = example_two_agent()
        with pytest.raises(ValueError, match="misses"):
            partition_rewards(m, {0: [0], 1: [1]})

    def test_balanced_is_balanced_on_pyramid(self):
        from timmdp.domains import compile_mpp, gen_pyra

        m = compile_mpp(gen_pyra(7, 3, seed=5))
        part = partition_rewards(m)
        cap = math.ceil(len(m.rewards) / m.n_agents) + 1
        assert all(len(fns) <= cap for fns in part.assignment.values())


class TestDependentActions:
    def test_no_interactions_means_no_dependence(self):
        m = random_instance(1)
        index = InstanceIndex(m)
        local_only = [k for k, rf in enumerate(m.rewards)
                      if not rf.is_interaction]
        for tr in available_transitions(m, 0)[:5]:
            assert transition_influence(index, local_only, 0, tr) == {}

    def test_worked_example_only_a_is_dependent(self):
        m = example_two_agent()
        index = InstanceIndex(m)
        fns = example_partition()[1]
        for tr in [(0, 0, 1), (2, 0, 5)]:  # agent 1 playing a
            deps, _ = transition_influence(index, fns, 1, tr)[0]
            assert deps == {0}
        # agent 1 playing b matches no entry, so agent 0 moves nothing
        assert transition_influence(index, fns, 1, (0, 1, 2)) == {}

    def test_matches_brute_force_on_random_instances(self):
        for seed in range(25):
            m = random_instance(seed, feature_scoped=(seed % 2 == 0))
            index = InstanceIndex(m)
            part = partition_rewards(m)
            for i in m.agents:
                fns = part.functions(i)
                for tr in available_transitions(m, i):
                    influence = transition_influence(index, fns, i, tr)
                    for j in m.agents:
                        if j == i:
                            continue
                        got, _ = influence.get(j, (set(), {}))
                        want = bf_dependent_actions(m, fns, i, tr, j)
                        assert got == want, (seed, i, tr, j)


class TestInfluenceSet:
    def test_pure_action_interaction_has_no_influence(self):
        m = example_two_agent()
        index = InstanceIndex(m)
        # the interaction reads nothing of agent 1's state, so from agent 0's
        # side there is no state-pair influence for agent 1
        fns = [2]
        for tr in available_transitions(m, 0):
            _, pairs = transition_influence(index, fns, 0, tr).get(
                1, (set(), {}))
            assert not any(pairs.values()), tr

    def test_worked_example_feature_pairs(self):
        m = example_two_agent()
        index = InstanceIndex(m)
        fns = example_partition()[1]
        _, pairs = transition_influence(index, fns, 1, (0, 0, 1))[0]
        assert pairs[0] == {(0, 1), (2, 4), (3, 6)}  # unset->true, unset->false

    def test_wildcard_is_union_over_nondependent(self):
        m = example_two_agent()
        index = InstanceIndex(m)
        fns = example_partition()[1]
        deps, pairs = transition_influence(index, fns, 1, (0, 0, 1))[0]
        assert not any(p for a, p in pairs.items() if a not in deps)
        g = build_crg(m, partition_rewards(m, example_partition()), 1, index)
        assert g.tree(0, 0, 1).records[0].inf_labels[WILDCARD] == ()

    @settings(deadline=None)
    @given(m=small_instances())
    def test_matches_brute_force_on_random_instances(self, m):
        # Each owner reads every function touching it, so each side of an
        # interaction is checked, and the oracle never sees the index.
        index = InstanceIndex(m)
        for i in m.agents:
            fns = [k for k, rf in enumerate(m.rewards) if i in rf.scope]
            for tr in available_transitions(m, i):
                influence = transition_influence(index, fns, i, tr)
                for j in m.agents:
                    if j == i:
                        continue
                    deps, pairs = influence.get(j, (set(), {}))
                    assert deps == bf_dependent_actions(m, fns, i, tr, j)
                    for a in range(len(m.locals[j].actions)):
                        want = bf_influence_set(m, fns, i, tr, j, a)
                        assert pairs.get(a, set()) == want, (i, tr, j, a)
        # Built trees over the balanced partition: their dependent actions
        # and the wildcard context's labels, the union over j's
        # non-dependent actions that the tree build forms.
        part = partition_rewards(m)
        for i, g in build_crgs(m, part).items():
            fns = part.functions(i)
            for tr, tree in g.trees.items():
                for j in (q for q in g.scope if q != i):
                    deps = bf_dependent_actions(m, fns, i, tr, j)
                    assert tree.records[j].deps == deps, (i, tr, j)
                    proj = m.projection(j, g.feature_level[j])
                    wildcard = {
                        (proj[s], proj[dst])
                        for a in range(len(m.locals[j].actions))
                        if a not in deps
                        for s, dst in bf_influence_set(m, fns, i, tr, j, a)}
                    got = tree.records[j].inf_labels.get(WILDCARD, ())
                    assert set(got) == wildcard, (i, tr, j)


class TestEntryIndex:
    @settings(deadline=None, max_examples=40)
    @given(m=influence_draws())
    def test_indexed_influence_matches_the_full_scan(self, m):
        """``transition_influence`` reads the entry index; the reference
        decides every table entry anew per transition. Checked for every
        owner and available transition, over the owner's assigned
        functions and over every function reading it."""
        index = InstanceIndex(m)
        part = partition_rewards(m)
        for i in m.agents:
            reading = [k for k, rf in enumerate(m.rewards) if i in rf.scope]
            for fns in (part.functions(i), reading):
                for tr in available_transitions(m, i):
                    assert (transition_influence(index, fns, i, tr)
                            == reference_transition_influence(
                                index, fns, i, tr)), (i, fns, tr)

    def test_direct_pricing_matches_the_table_key(self):
        """``TiMmdpInstance.reward``, which prices every arc, agrees with the
        reference evaluator on every joint transition, given the scope's
        transitions as a mapping or as an agent-indexed tuple."""
        for seed in range(6):
            m = random_instance(seed, n_agents=2 + seed % 2,
                                feature_scoped=seed % 3 != 0,
                                n_interactions=2)
            for _, s, a, s2, _ in all_joint_transitions(m):
                trs = tuple(zip(s, a, s2))
                for k, rf in enumerate(m.rewards):
                    want = reward_value(m, rf, s, a, s2)
                    assert m.reward(k, trs) == want, (seed, k, s, a, s2)
                    assert m.reward(k, {j: trs[j] for j in rf.scope}) \
                        == want, (seed, k, s, a, s2)

    @settings(deadline=None, max_examples=40)
    @given(m=influence_draws())
    def test_shared_records_equal_a_fresh_classification(self, m):
        """Every tree's shared record for each other agent carries the
        dependent actions, labels, classes and completions that classifying
        that tree's own full-scan influence from scratch gives."""
        part = partition_rewards(m)
        for i, g in build_crgs(m, part).items():
            fns = part.functions(i)
            for tr, tree in g.trees.items():
                influence = reference_transition_influence(g.index, fns, i, tr)
                assert sorted(tree.records) == [j for j in g.scope if j != i]
                for j, record in tree.records.items():
                    deps, labels, classes, completions = fresh_classes(
                        m, influence, j, m.projection(j, g.feature_level[j]))
                    assert record.deps == deps, (i, tr, j)
                    assert {ctx: set(got) for ctx, got
                            in record.inf_labels.items()} == labels, (i, tr, j)
                    assert record.classes == classes, (i, tr, j)
                    assert record.completions == completions, (i, tr, j)
                    if classes:
                        assert tree.classes[j] is record.classes


class TestBuild:
    def test_single_agent_graph_is_plain_dag(self):
        m = random_instance(4, n_agents=1, n_interactions=0)
        g = build_crgs(m)[0]
        assert all(tree.degenerate for tree in g.trees.values())

    def test_worked_example_structure_on_a_branch(self):
        m = example_two_agent()
        crgs = build_crgs(m, partition_rewards(m, example_partition()))
        tree = crgs[1].tree(0, 0, 1)
        assert tree.skeleton == (("act", 0), ("inf", 0))
        assert tree.records[0].act_labels == (0, WILDCARD)
        assert tree.records[0].inf_labels[WILDCARD] == ()
        assert (WILDCARD, NO_INFLUENCE) in tree.arcs
        assert len(tree.records[0].inf_labels[0]) == 2
        # other branches carry no interaction structure at all
        assert crgs[1].tree(0, 1, 2).degenerate
        assert all(t.degenerate for t in crgs[0].trees.values())

    def test_reward_completeness_exhaustive_sweep(self):
        for seed in range(12):
            m = random_instance(seed, n_agents=2 + seed % 2,
                                feature_scoped=True, n_interactions=2)
            crgs = build_crgs(m)
            for t, s, a, s2, _ in all_joint_transitions(m):
                want = reference_total_reward(m, s, a, s2)
                got = crg_reward_sum(m, crgs, t, s, a, s2)
                assert got == want, (seed, t, s, a, s2)

    def test_lookup_wildcard_path_gives_local_reward_only(self):
        m = example_two_agent()
        crgs = build_crgs(m, partition_rewards(m, example_partition()))
        # agent 1 plays a while agent 0 plays b: non-dependent, so only the
        # local component remains
        r = resolve_arc(crgs[1], (0, 0, 1), {0: (0, 1, 2)}).reward
        assert r == 2.0

    def test_lookup_interaction_path_adds_feature_resolved_value(self):
        m = example_two_agent()
        crgs = build_crgs(m, partition_rewards(m, example_partition()))
        r_true = resolve_arc(crgs[1], (0, 0, 1), {0: (0, 0, 1)}).reward
        assert r_true == 2.0 + 8.0
        r_false = resolve_arc(crgs[1], (2, 0, 5), {0: (3, 0, 6)}).reward
        assert r_false == 3.0 + (-4.0)

    def test_lookup_of_a_transition_the_graph_lacks_raises(self):
        m = example_two_agent()
        crgs = build_crgs(m, partition_rewards(m, example_partition()))
        assert (0, 0, 2) not in crgs[1].trees
        with pytest.raises(CrgError, match="not represented"):
            resolve_arc(crgs[1], (0, 0, 2), {0: (0, 0, 1)})

    def test_lookup_of_a_context_transition_the_agent_lacks_raises(self):
        m = example_two_agent()
        crgs = build_crgs(m, partition_rewards(m, example_partition()))
        with pytest.raises(CrgError, match=r"agent 0 cannot take transition "
                                           r"\(9, 9, 9\)"):
            resolve_arc(crgs[1], (0, 0, 1), {0: (9, 9, 9)})

    def test_wildcard_substitution_never_changes_leaf_reward(self):
        for seed in range(8):
            m = random_instance(seed, feature_scoped=True)
            crgs = build_crgs(m)
            for i, g in crgs.items():
                for tr, tree in g.trees.items():
                    for j in (q for q in g.scope if q != i):
                        deps = tree.records[j].deps
                        labels = tree.records[j].inf_labels.get(WILDCARD, ())
                        proj = m.projection(j, g.feature_level[j])
                        rewards = set()
                        for s_j, a, n_j in available_transitions(m, j):
                            if a in deps or (proj[s_j], proj[n_j]) in labels:
                                continue
                            arc = resolve_arc(g, tr, {j: (s_j, a, n_j)})
                            rewards.add(arc.reward)
                        assert len(rewards) <= 1, (seed, i, tr, j)


class TestClassProduct:
    @pytest.mark.parametrize("name", sorted(FINGERPRINT_CASES))
    def test_paths_are_the_product_of_transition_classes(self, name):
        """Every available transition of a skeleton agent takes one class,
        read off its dependent actions and influence labels; the tree's arcs
        are the product of those classes; and a context of that agent alone
        resolves to an arc carrying its class at the agent's levels."""
        from itertools import product

        for i, g in FINGERPRINT_CASES[name]().items():
            m = g.instance
            for tr_i, tree in g.trees.items():
                agents = [j for kind, j in tree.skeleton if kind == "inf"]
                assert sorted(tree.classes) == agents, (name, i, tr_i)
                per_agent = {}
                for j in agents:
                    proj = m.projection(j, g.feature_level[j])
                    want = {}
                    for tr in available_transitions(m, j):
                        act = tr[1] if tr[1] in tree.records[j].deps else WILDCARD
                        pair = (proj[tr[0]], proj[tr[2]])
                        if pair not in tree.records[j].inf_labels[act]:
                            pair = NO_INFLUENCE
                        want[tr] = (act, pair)
                    got = dict(tree.classes[j])
                    del got[None]
                    assert got == want, (name, i, tr_i, j)
                    per_agent[j] = set(want.values())
                acts = [j for kind, j in tree.skeleton if kind == "act"]
                paths = set()
                for combo in product(*(per_agent[j] for j in agents)):
                    cls = dict(zip(agents, combo))
                    paths.add(tuple(cls[j][0] for j in acts)
                              + tuple(cls[j][1] for j in agents))
                assert set(tree.arcs) == paths, (name, i, tr_i)
                labels_of = {id(arc): labels
                             for labels, arc in tree.arcs.items()}
                for j in agents:
                    levels = [(depth, kind)
                              for depth, (kind, q) in enumerate(tree.skeleton)
                              if q == j]
                    for tr in available_transitions(m, j):
                        labels = labels_of[id(resolve_arc(g, tr_i, {j: tr}))]
                        act, pair = tree.classes[j][tr]
                        for depth, kind in levels:
                            assert labels[depth] == (
                                act if kind == "act" else pair), (name, tr)


class TestPartialContext:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_interactions=st.integers(1, 3),
           feature_scoped=st.booleans())
    def test_masked_reward_equals_every_full_extension(
            self, seed, n_interactions, feature_scoped):
        """A context over a cover resolves, under the cover's mask, to the
        same reward bit for bit as every full context extending it."""
        from itertools import combinations, product

        m = random_instance(seed, n_agents=3, max_states=3, max_actions=2,
                            n_interactions=n_interactions,
                            feature_scoped=feature_scoped)
        for i, g in build_crgs(m).items():
            others = [j for j in g.scope if j != i]
            for r in range(len(others) + 1):
                for inside in combinations(others, r):
                    keep = cover_mask(g, (i,) + inside)
                    outside = [j for j in others if j not in inside]
                    for tr in g.trees:
                        for part in product(*(available_transitions(m, j)
                                              for j in inside)):
                            ctx = dict(zip(inside, part))
                            got = assigned_reward(
                                resolve_arc(g, tr, ctx), keep).hex()
                            for rest in product(*(available_transitions(m, j)
                                                  for j in outside)):
                                full = {**ctx, **dict(zip(outside, rest))}
                                want = assigned_reward(
                                    resolve_arc(g, tr, full), keep).hex()
                                assert got == want, (i, inside, tr, full)


class TestBounds:
    def test_terminal_layer_bounds_are_zero(self):
        m = example_two_agent()
        g = build_crgs(m)[0]
        for (t, s), node in g.nodes.items():
            if t == m.horizon:
                assert node.upper == 0.0 and node.lower == 0.0

    def test_two_path_chain_max_min(self):
        from timmdp.model import LocalAction, LocalMdp, LocalState, \
            TiMmdpInstance

        states = tuple(LocalState(i, {}) for i in range(3))
        actions = (LocalAction(0, "x"), LocalAction(1, "y"))
        transitions = {(0, 0): ((1, 1.0),), (1, 0): ((2, 1.0),),
                       (1, 1): ((2, 1.0),)}
        local = LocalMdp(states, actions, transitions)
        rf = RewardFunction(scope=(0,), table={
            ((0,), (0,), (1,)): 1.0,
            ((1,), (0,), (2,)): 2.0,
            ((1,), (1,), (2,)): 5.0})
        # A partner whose interaction with x can still fire at stage 1
        # keeps node (1, 1) dependent, so both of its actions stay.
        partner = LocalMdp(states, (LocalAction(0, "z"),),
                           {(0, 0): ((1, 1.0),), (1, 0): ((2, 1.0),)})
        shared = RewardFunction(scope=(0, 1), table={
            ((1, 1), (0, 0), (2, 2)): 4.0})
        m = TiMmdpInstance(locals=(local, partner), rewards=[rf, shared],
                           horizon=2, initial=(0, 0))
        g = build_crgs(m)[0]
        assert g.functions == (0,)
        assert g.node(1, 1).kept_actions == (0, 1)
        assert g.node(0, 0).upper == 6.0
        assert g.node(0, 0).lower == 3.0

    def test_upper_bound_is_expected_over_own_outcomes(self):
        """One action whose two outcomes of p = 0.5 pay 10 and 0: the
        upper bound is their expectation, not the better one, and the lower
        bound is the worse one."""
        from timmdp.model import LocalAction, LocalMdp, LocalState, \
            TiMmdpInstance

        local = LocalMdp(tuple(LocalState(i, {}) for i in range(3)),
                         (LocalAction(0, "x"),),
                         {(0, 0): ((1, 0.5), (2, 0.5))})
        rf = RewardFunction(scope=(0,), table={((0,), (0,), (1,)): 10.0,
                                               ((0,), (0,), (2,)): 0.0})
        m = TiMmdpInstance(locals=(local,), rewards=[rf], horizon=1,
                           initial=(0,))
        g = build_crgs(m)[0]
        assert worst_path_upper(g)[(0, 0)] == 10.0
        assert g.node(0, 0).upper == 5.0
        assert g.node(0, 0).lower == 0.0

    def test_bound_admissibility_against_dp(self):
        for seed in range(12):
            m = random_instance(seed, n_agents=2 + (seed % 2),
                                feature_scoped=True)
            crgs = build_crgs(m)
            dp = dp_solve(m)
            for (t, s), v_star in dp.values.items():
                lo = math.fsum(crgs[i].node(t, s[i]).lower for i in m.agents)
                hi = math.fsum(crgs[i].node(t, s[i]).upper for i in m.agents)
                assert lo <= v_star + 1e-9, (seed, t, s)
                assert v_star <= hi + 1e-9, (seed, t, s)

    @settings(deadline=None, max_examples=60)
    @given(m=bound_draws())
    def test_bounds_bracket_dp_and_stay_under_the_best_path(self, m):
        """Summed node bounds bracket V* at every joint state ``dp``
        reaches, and no node's upper bound exceeds its best-path bound."""
        crgs = build_crgs(m)
        for (t, s), v_star in dp_solve(m).values.items():
            lo = math.fsum(crgs[i].node(t, s[i]).lower for i in m.agents)
            hi = math.fsum(crgs[i].node(t, s[i]).upper for i in m.agents)
            assert lo <= v_star + 1e-9 and v_star <= hi + 1e-9, (t, s)
        for g in crgs.values():
            best_path = worst_path_upper(g)
            for key, node in g.nodes.items():
                assert node.upper <= best_path[key] + 1e-9, key


class TestLocalCri:
    def test_interaction_free_agent_is_independent_everywhere(self):
        m = random_instance(2, n_agents=3, n_interactions=1)
        part = partition_rewards(m)
        inter_scope = next(rf.scope for rf in m.rewards if rf.is_interaction)
        outsider = next(i for i in m.agents if i not in inter_scope)
        g = build_crg(m, part, outsider)
        assert all(node.locally_cri for node in g.nodes.values())

    def test_worked_example_after_a_is_independent(self):
        m = example_two_agent()
        crgs = build_crgs(m, partition_rewards(m, example_partition()))
        assert crgs[0].node(1, 1).locally_cri      # a played, interaction dead
        assert not crgs[0].node(1, 2).locally_cri  # a still available
        assert crgs[1].node(1, 1).locally_cri
        # pruning keeps only the locally optimal continuation
        assert crgs[0].node(1, 1).kept_actions == (2,)

    def test_matches_exhaustive_continuation_sweep(self):
        for seed in range(12):
            m = random_instance(seed, n_agents=2, feature_scoped=True)
            crgs = build_crgs(m)
            interactions = [k for k, rf in enumerate(m.rewards)
                            if rf.is_interaction]
            for i, g in crgs.items():
                for (t, s), node in g.nodes.items():
                    want = not any(
                        bf_interaction_alive(m, k, i, s, t)
                        for k in interactions if i in m.rewards[k].scope)
                    assert node.locally_cri == want, (seed, i, t, s)

    @settings(deadline=None, max_examples=60)
    @given(m=bound_draws())
    def test_kept_actions_and_representation_match_brute_force(self, m):
        """An independent node keeps the action a local-only backward
        induction picks (ties to the lowest id), any other node keeps every
        available action, and exactly the states that kept actions reach
        from the initial one are represented; on plain, single-agent,
        all-negative, nonzero-default and layered draws of horizon 1 to 3."""
        for i, g in build_crgs(m).items():
            local = m.locals[i]
            choice = bf_local_choice(m, i)
            for (t, s), node in g.nodes.items():
                avail = tuple(a for a in range(len(local.actions))
                              if t < m.horizon and local.outcomes(s, a))
                want = ((choice[(t, s)],) if node.locally_cri and avail
                        else avail)
                assert node.kept_actions == want, (i, t, s)
            represented, frontier = set(), {m.initial[i]}
            for t in range(m.horizon + 1):
                represented |= {(t, s) for s in frontier}
                frontier = {dst for s in frontier
                            for a in g.node(t, s).kept_actions
                            for dst, _ in local.outcomes(s, a)}
            assert {key for key, node in g.nodes.items()
                    if node.represented} == represented, i

    @settings(deadline=None, max_examples=60)
    @given(m=bound_draws())
    def test_steps_match_next_nodes_and_exhaustive_liveness(self, m):
        """A represented node below layer h records, per kept action, the
        fsum of its outcomes' probability-weighted next upper and lower
        bounds, and its outcomes grouped by the functions reading the owner
        that the brute-force sweep finds alive at their next states, a lone
        class weighted exactly 1.0; every other node records nothing."""
        for i, g in build_crgs(m).items():
            touching = [k for k, rf in enumerate(m.rewards)
                        if rf.is_interaction and i in rf.scope]
            for (t, s), node in g.nodes.items():
                if not node.represented or t == m.horizon:
                    assert node.steps == {}, (i, t, s)
                    continue
                assert tuple(node.steps) == node.kept_actions, (i, t, s)
                for a in node.kept_actions:
                    outs = g.outcomes(s, a)
                    grouped = {}
                    for dst, p in outs:
                        grouped.setdefault(frozenset(
                            k for k in touching
                            if bf_interaction_alive(m, k, i, dst, t + 1)),
                            []).append((dst, p))
                    classes = [
                        (live, 1.0 if len(grouped) == 1 else
                         math.fsum(p for _, p in cls), cls)
                        for live, cls in grouped.items()]
                    up, down, got = node.steps[a]
                    assert up == math.fsum(
                        p * g.node(t + 1, dst).upper for dst, p in outs)
                    assert down == math.fsum(
                        p * g.node(t + 1, dst).lower for dst, p in outs)
                    assert [(live, w, list(cls)) for live, w, cls in got] \
                        == classes, (i, t, s, a)


    @settings(deadline=None)
    @given(m=liveness_draws())
    def test_alive_and_node_live_match_exhaustive_sweep_per_function(self, m):
        """Each function's deadness, not only the conjunction the flag
        takes, agrees with the brute-force sweep at every reachable state,
        and every node's ``live`` holds exactly the functions reading its
        owner that the sweep finds alive there, on plain, feature-scoped,
        layered, defaulted and zero-entry draws."""
        index = InstanceIndex(m)
        swept = {}  # (agent, stage, state) -> the functions the sweep finds
        for k, rf in enumerate(m.rewards):
            if not rf.is_interaction:
                continue
            for i in rf.scope:
                for t, states in enumerate(m.reachable(i)):
                    for s in states:
                        alive = bf_interaction_alive(m, k, i, s, t)
                        if alive:
                            swept.setdefault((i, t, s), set()).add(k)
                        assert (s not in index.alive(k)[i][t]) == (
                            not alive), (k, i, t, s)
        for i, g in build_crgs(m).items():
            for (t, s), node in g.nodes.items():
                assert node.live == swept.get((i, t, s), set()), (i, t, s)


    @settings(deadline=None)
    @given(m=liveness_draws())
    def test_owned_and_not_dead_is_in_the_reference_live_set(self, m):
        """At every node, an owned interaction that ``InstanceIndex.alive``
        holds at the node's state has a nonzero arc below it along kept
        actions: the search may read liveness from ``alive`` alone."""
        for i, g in build_crgs(m).items():
            live = reference_live(g)
            owned = [k for k in g.functions if m.rewards[k].is_interaction]
            for (t, s) in g.nodes:
                for k in owned:
                    if s in g.index.alive(k)[i][t]:
                        assert k in live[(t, s)], (i, t, s, k)


class TestInteractionReachable:
    """A function ``InstanceIndex.alive`` leaves out at a scope member's
    state can no longer produce a nonzero value in any joint future."""

    def test_false_at_horizon(self):
        """No function is alive at the last layer."""
        index = InstanceIndex(example_two_agent())
        for s in (5, 6, 7, 8, 9):
            assert s not in index.alive(2)[1][2]

    def test_worked_example_after_joint_ba(self):
        index = InstanceIndex(example_two_agent())
        # joint action (b, a): agent 1 lands in state 1 with a used up
        assert 1 not in index.alive(2)[1][1]
        assert 2 in index.alive(2)[1][1]

    def test_sound_against_exhaustive_future_sweep(self):
        from util import bf_joint_future_fires

        dead = 0
        for seed in range(15):
            # interactions confined to early stages go dead on many branches
            m = random_instance(seed, n_agents=2 + seed % 2,
                                n_interactions=1 + (seed // 2) % 2,
                                layered=True, interaction_horizon=2)
            index = InstanceIndex(m)
            states = {(t, s) for t, s, _, _, _ in all_joint_transitions(m)}
            for t, s in sorted(states):
                for k, rf in enumerate(m.rewards):
                    if rf.is_interaction and any(
                            s[j] not in index.alive(k)[j][t]
                            for j in rf.scope):
                        dead += 1
                        assert not bf_joint_future_fires(m, k, t, s), \
                            (seed, k, t, s)
        assert dead > 0


class TestAssignedReward:
    @staticmethod
    def _filtered(g, arc, covered):
        """The per-call filter the compiled mask replaces."""
        return math.fsum(
            v for k, v in zip(g.functions, arc.components)
            if all(j in covered for j in g.instance.rewards[k].scope))

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_interactions=st.integers(1, 3),
           data=st.data())
    def test_cover_mask_matches_per_call_filter_bit_for_bit(
            self, seed, n_interactions, data):
        from itertools import combinations

        m = random_instance(seed, n_agents=3, n_interactions=n_interactions)
        values = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(
            (0.0, -0.0, 1e-17, 0.1, 0.2, 1e16)))
        covers = [frozenset(c) for r in range(1, 4)
                  for c in combinations(m.agents, r)]
        for g in build_crgs(m).values():
            arcs = [arc for tree in g.trees.values()
                    for arc in tree.arcs.values()]
            for _ in range(5):
                parts = tuple(data.draw(st.lists(
                    values, min_size=len(g.functions),
                    max_size=len(g.functions))))
                arcs.append(CrgArc(components=parts, reward=math.fsum(parts)))
            assert cover_mask(g, m.agents) is None
            for covered in covers:
                keep = cover_mask(g, sorted(covered))
                for arc in arcs:
                    got = assigned_reward(arc, keep)
                    want = self._filtered(g, arc, covered)
                    assert got.hex() == want.hex(), (g.owner, covered, arc)
                    if covered == frozenset(m.agents):
                        assert got.hex() == arc.reward.hex()


class TestSizeAudit:
    def test_single_agent_bound_and_measurement(self):
        m = random_instance(4, n_agents=1, n_interactions=0)
        audit = size_audit(build_crgs(m)[0])
        assert audit.rho == 0
        assert audit.measured <= audit.worst_case_bound

    def test_worked_example_compact_sizes(self):
        m = example_two_agent()
        crgs = build_crgs(m, partition_rewards(m, example_partition()))
        a0, a1 = size_audit(crgs[0]), size_audit(crgs[1])
        # layer-1 states: 3 for agent 0 (post-pruning) and 4 for agent 1
        assert a0.state_nodes_per_layer[1] == 3
        assert a1.state_nodes_per_layer[1] == 4
        # reward arcs out of the first layer: 3 plain vs 6 with the trees
        assert a0.reward_arcs_per_layer[0] == 3
        assert a1.reward_arcs_per_layer[0] == 6

    def test_measured_within_bound_on_batch(self):
        passed = 0
        for seed in range(100):
            m = random_instance(seed, n_agents=2 + seed % 2,
                                feature_scoped=True,
                                n_interactions=1 + seed % 2)
            for g in build_crgs(m).values():
                audit = size_audit(g)
                assert audit.measured <= audit.worst_case_bound, seed
            passed += 1
        assert passed == 100
