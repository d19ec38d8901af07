"""Shared test helpers: seeded random instances with the hypothesis
edge-case draws ``bound_draws`` over them, the reference reward
evaluator ``reward_value_local`` (with ``reward_value`` and
``reference_total_reward`` on joint transitions) that
``TiMmdpInstance.reward``, the package's one evaluator, is checked against,
brute-force oracles, execution sequences and the best open-loop plan, the
full row-product reference for the search's factored bounds and values, the
reference liveness ``reference_live`` read off each graph's arcs, the
reference partition ``components`` built on it that the search's signature
partitions are checked against, the full-scan
``reference_transition_influence`` and the unshared ``fresh_classes`` that
the graphs' entry index and shared class records are checked against, the
best-path bound ``worst_path_upper`` that node upper bounds may not exceed,
and small queries of the search and of policies.

The oracles re-state the definitions directly over concrete transitions -
no table-entry shortcuts, no caching - and price rewards through the
reference evaluator, which builds each table key from the states' own
features rather than from the instance's compiled projections, so they
stay independent of the implementation paths they check. The queries at
the end call the graphs' and the search's own functions.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, Mapping, Sequence

from hypothesis import strategies as st

from timmdp.baselines import DpResult
from timmdp.crg import (
    NO_INFLUENCE,
    WILDCARD,
    ConditionalReturnGraph,
    CrgArc,
    InstanceIndex,
    assigned_reward,
    cover_mask,
    resolve_arc,
)
from timmdp.model import (
    JointAction,
    JointState,
    LocalAction,
    LocalMdp,
    LocalState,
    Policy,
    RewardFunction,
    TiMmdpInstance,
    enumerate_successors,
    reachable_local_states,
)
from timmdp.search import _groups
from timmdp.rng import SplitMix64

# Outcome probability menus with exact float sums.
_DYADIC = ((1.0,), (0.5, 0.5), (0.75, 0.25), (0.25, 0.75),
           (0.25, 0.25, 0.5))


def random_instance(seed: int, n_agents: int = 2, max_states: int = 4,
                    max_actions: int = 3, horizon: int = 3,
                    n_interactions: int = 1, feature_scoped: bool = False,
                    layered: bool = False,
                    interaction_horizon: int | None = None) -> TiMmdpInstance:
    """A small random TI-MMDP with every state reachable and no dead ends.

    ``layered`` builds once-visitable states carrying a time feature, and
    ``interaction_horizon`` then restricts interaction entries to
    transitions starting before that stage.
    """
    rng = SplitMix64(seed)
    if layered:
        return _layered_instance(rng, n_agents, max_states, max_actions,
                                 horizon, n_interactions, interaction_horizon)
    locals_ = []
    for _ in range(n_agents):
        n_states = rng.randint(2, max_states)
        n_actions = rng.randint(2, max_actions)
        transitions = {}
        for s in range(n_states):
            available = [a for a in range(n_actions) if rng.uniform() < 0.75]
            if not available:
                available = [rng.randint(0, n_actions - 1)]
            for a in available:
                probs = rng.choice(_DYADIC)
                outs = {}
                for p in probs:
                    dst = rng.randint(0, n_states - 1)
                    outs[dst] = outs.get(dst, 0.0) + p
                transitions[(s, a)] = tuple(sorted(outs.items()))
        locals_.append(_trimmed_local(n_states, n_actions, transitions))
    rewards = _random_rewards(rng, locals_, n_agents, n_interactions,
                              feature_scoped)
    return TiMmdpInstance(locals=tuple(locals_), rewards=rewards,
                          horizon=horizon, initial=(0,) * n_agents)


def with_interaction_default(m: TiMmdpInstance, default: float,
                             shift: float = 0.0) -> TiMmdpInstance:
    """Copy of ``m`` whose interaction functions earn ``default`` on every
    unlisted transition and ``shift`` more than before on every listed one
    (``random_instance`` draws neither a nonzero default nor zero entries)."""
    rewards = [replace(rf, default=default,
                       table={key: v + shift for key, v in rf.table.items()})
               if rf.is_interaction else rf
               for rf in m.rewards]
    return replace(m, rewards=rewards)


def with_negative_rewards(m: TiMmdpInstance) -> TiMmdpInstance:
    """Copy of ``m`` in which every function, local or interaction, earns
    at most -1 on every transition, listed or not."""
    rewards = [replace(rf, default=-1.0 - abs(rf.default),
                       table={key: -1.0 - abs(v)
                              for key, v in rf.table.items()})
               for rf in m.rewards]
    return replace(m, rewards=rewards)


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


def _trimmed_local(n_states, n_actions, transitions) -> LocalMdp:
    """Drop states unreachable from 0 and remap ids densely."""
    reachable = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for (src, _), outs in transitions.items():
            if src != s:
                continue
            for dst, _ in outs:
                if dst not in reachable:
                    reachable.add(dst)
                    frontier.append(dst)
    order = sorted(reachable)
    remap = {old: new for new, old in enumerate(order)}
    new_transitions = {}
    for (s, a), outs in transitions.items():
        if s in reachable:
            new_transitions[(remap[s], a)] = tuple(
                sorted((remap[dst], p) for dst, p in outs))
    states = tuple(LocalState(i, {"par": order[i] % 2})
                   for i in range(len(order)))
    actions = tuple(LocalAction(a, f"a{a}") for a in range(n_actions))
    return LocalMdp(states=states, actions=actions,
                    transitions=new_transitions)


def _layered_instance(rng, n_agents, max_states, max_actions, horizon,
                      n_interactions, interaction_horizon):
    locals_ = []
    for _ in range(n_agents):
        width = rng.randint(2, max_states)
        n_actions = rng.randint(2, max_actions)
        states = []
        ids = {}
        for t in range(horizon + 1):
            for k in range(width if t else 1):
                ids[(t, k)] = len(states)
                states.append(LocalState(len(states), {"t": t, "k": k}))
        transitions = {}
        for t in range(horizon):
            for k in range(width if t else 1):
                sid = ids[(t, k)]
                available = [a for a in range(n_actions)
                             if rng.uniform() < 0.8] or [0]
                for a in available:
                    probs = rng.choice(_DYADIC)
                    outs = {}
                    for p in probs:
                        dst = ids[(t + 1, rng.randint(0, width - 1))]
                        outs[dst] = outs.get(dst, 0.0) + p
                    transitions[(sid, a)] = tuple(sorted(outs.items()))
        # keep only states reachable within the layer structure
        reach = set()
        frontier = {ids[(0, 0)]}
        while frontier:
            reach |= frontier
            nxt = set()
            for (s, _), outs in transitions.items():
                if s in reach:
                    nxt.update(dst for dst, _ in outs if dst not in reach)
            frontier = nxt
        order = sorted(reach)
        remap = {old: new for new, old in enumerate(order)}
        new_states = tuple(
            LocalState(remap[s.id], dict(s.features))
            for s in states if s.id in reach)
        new_transitions = {
            (remap[s], a): tuple(sorted((remap[d], p) for d, p in outs))
            for (s, a), outs in transitions.items() if s in reach}
        locals_.append(LocalMdp(
            states=tuple(sorted(new_states, key=lambda st: st.id)),
            actions=tuple(LocalAction(a, f"a{a}") for a in range(n_actions)),
            transitions=new_transitions))
    rewards = _random_rewards(rng, locals_, n_agents, n_interactions, False,
                              interaction_horizon=interaction_horizon)
    return TiMmdpInstance(locals=tuple(locals_), rewards=rewards,
                          horizon=horizon, initial=(0,) * n_agents)


def _available_transitions(local: LocalMdp) -> list[tuple[int, int, int]]:
    out = []
    for (s, a), outs in sorted(local.transitions.items()):
        for dst, _ in sorted(outs):
            out.append((s, a, dst))
    return out


def _random_rewards(rng, locals_, n_agents, n_interactions, feature_scoped,
                    interaction_horizon=None) -> list[RewardFunction]:
    rewards = []
    for i, local in enumerate(locals_):
        table = {}
        for tr in _available_transitions(local):
            if rng.uniform() < 0.5:
                table[((tr[0],), (tr[1],), (tr[2],))] = float(
                    rng.randint(-5, 8))
        rewards.append(RewardFunction(scope=(i,), table=table))
    for _ in range(n_interactions):
        if n_agents >= 3 and rng.uniform() < 0.25:
            scope = tuple(sorted(rng_sample(rng, range(n_agents), 3)))
        else:
            scope = tuple(sorted(rng_sample(rng, range(n_agents), 2)))
        feature_mode = feature_scoped and rng.uniform() < 0.6
        feature_scope = None
        if feature_mode:
            feature_scope = {}
            for j in scope:
                feature_scope[j] = ("par",) if rng.uniform() < 0.7 else ()
        table = {}
        per_agent = [_available_transitions(locals_[j]) for j in scope]
        combos = list(product(*per_agent))
        rng_shuffle(rng, combos)
        for combo in combos[:max(2, len(combos) // 3)]:
            if interaction_horizon is not None:
                t0 = locals_[scope[0]].states[combo[0][0]].features["t"]
                if t0 >= interaction_horizon:
                    continue
            key_s, key_a, key_n = [], [], []
            for pos, j in enumerate(scope):
                s, a, dst = combo[pos]
                if feature_scope is not None:
                    feats = feature_scope[j]
                    st = locals_[j].states
                    key_s.append(tuple(st[s].features[f] for f in feats))
                    key_n.append(tuple(st[dst].features[f] for f in feats))
                else:
                    key_s.append(s)
                    key_n.append(dst)
                key_a.append(a)
            value = float(rng.randint(-6, 6))
            if value != 0.0:
                table[(tuple(key_s), tuple(key_a), tuple(key_n))] = value
        rewards.append(RewardFunction(scope=scope, table=table,
                                      feature_scope=feature_scope))
    return rewards


def rng_sample(rng: SplitMix64, population, k: int) -> list:
    items = list(population)
    rng_shuffle(rng, items)
    return items[:k]


def rng_shuffle(rng: SplitMix64, items: list) -> None:
    rng.shuffle(items)


# ---------------------------------------------------------------------------
# Reference reward evaluator


def reward_value_local(m: TiMmdpInstance, rf: RewardFunction,
                       states: Sequence[int], actions: Sequence[int],
                       next_states: Sequence[int]) -> float:
    """One reward function on scope-ordered local components: each state
    enters the table key as the tuple of the features the function reads
    of its agent, or as its id without a feature scope."""
    s_part, n_part = [], []
    for j, s, dst in zip(rf.scope, states, next_states):
        feats = rf.features_read(j)
        if feats is None:
            s_part.append(s)
            n_part.append(dst)
        else:
            st = m.locals[j].states
            s_part.append(tuple([st[s].features[f] for f in feats]))
            n_part.append(tuple([st[dst].features[f] for f in feats]))
    return rf.table.get((tuple(s_part), tuple(actions), tuple(n_part)),
                        rf.default)


def reward_value(m: TiMmdpInstance, rf: RewardFunction, s: JointState,
                 a: JointAction, s_next: JointState) -> float:
    """One reward function on a joint transition."""
    return reward_value_local(m, rf, [s[j] for j in rf.scope],
                              [a[j] for j in rf.scope],
                              [s_next[j] for j in rf.scope])


def reference_total_reward(m: TiMmdpInstance, s: JointState, a: JointAction,
                           s_next: JointState) -> float:
    """Team reward of a joint transition: the fsum over all functions."""
    return math.fsum(reward_value(m, rf, s, a, s_next) for rf in m.rewards)


# ---------------------------------------------------------------------------
# Brute-force oracles, straight from the definitions


def available_transitions(m: TiMmdpInstance, agent: int):
    return _available_transitions(m.locals[agent])


def reference_transition_influence(index: InstanceIndex, fns: Sequence[int],
                                   owner: int, tr_i: tuple[int, int, int],
                                   ) -> dict[int, tuple[set[int], dict[int, set]]]:
    """``crg.transition_influence`` by a full scan: every table entry of
    every function is decided anew for this one transition, with no entry
    index. One pass keeps the entries whose owner slice matches tr_i, whose
    value differs from the default and whose every slice is realizable;
    for each other agent j in such an entry, j's action is dependent when
    swapping it for another of j's actions changes the value, and the entry
    is influential when swapping j's projected state pair does, in which
    case it adds j's available pairs under its slice."""
    m = index.m
    result: dict[int, tuple[set[int], dict[int, set]]] = {}
    s_i, a_i, n_i = tr_i
    for k in fns:
        rf = m.rewards[k]
        if owner not in rf.scope or not rf.is_interaction:
            continue
        pos_own = rf.scope.index(owner)
        proj_own = m.projection(owner, rf.features_read(owner))
        own_part = (proj_own[s_i], a_i, proj_own[n_i])
        slices = index.slices(k)
        others = [(pos, j, set(m.projection(j, rf.features_read(j))))
                  for pos, j in enumerate(rf.scope) if j != owner]
        for (states, actions, nexts), value in rf.table.items():
            parts = tuple(zip(states, actions, nexts))
            if (value == rf.default or parts[pos_own] != own_part
                    or not all(sl in by for by, sl in zip(slices, parts))):
                continue
            for pos, j, distinct in others:
                deps, pairs = result.setdefault(j, (set(), {}))
                a_j = actions[pos]
                if a_j not in deps and any(
                        rf.table.get((states,
                                      actions[:pos] + (b,) + actions[pos + 1:],
                                      nexts), rf.default) != value
                        for b in range(len(m.locals[j].actions)) if b != a_j):
                    deps.add(a_j)
                known = pairs.setdefault(a_j, set())
                concrete = slices[pos][parts[pos]]
                if concrete <= known:
                    continue
                if any(rf.table.get((states[:pos] + (sp,) + states[pos + 1:],
                                     actions,
                                     nexts[:pos] + (np_,) + nexts[pos + 1:]),
                                    rf.default) != value
                       for sp in distinct for np_ in distinct):
                    known |= concrete
    return result


def fresh_classes(m: TiMmdpInstance, influence: dict, j: int,
                  proj: tuple) -> tuple[frozenset, dict, dict, dict]:
    """Agent j's dependent actions, influence labels per action context,
    class per available transition (None: the first one's) and completion
    per class, classified from one transition's influence alone; an agent
    off the skeleton has no classes."""
    deps, pairs = influence.get(j, (set(), {}))
    available = available_transitions(m, j)
    live = {a for _, a, _ in available}
    nondep = [a for a in range(len(m.locals[j].actions))
              if a not in deps and a in live]
    contexts = {a: [a] for a in deps}
    if not deps or nondep:
        contexts[WILDCARD] = nondep
    labels = {ctx: {(proj[s], proj[dst])
                    for a in acts for s, dst in pairs.get(a, ())}
              for ctx, acts in contexts.items()}
    classes: dict = {}
    completions: dict = {}
    if deps or labels.get(WILDCARD):
        for tr in available:
            act = tr[1] if tr[1] in deps else WILDCARD
            pair = (proj[tr[0]], proj[tr[2]])
            cls = (act, pair if pair in labels[act] else NO_INFLUENCE)
            classes[tr] = cls
            completions.setdefault(cls, tr)
        classes[None] = classes[available[0]]
    return frozenset(deps), labels, classes, completions


def bf_dependent_actions(m: TiMmdpInstance, fns: list[int], owner: int,
                         tr_i: tuple[int, int, int], j: int) -> set[int]:
    """Enumerate every available joint transition containing tr_i and apply
    the three conditions literally."""
    deps = set()
    for k in fns:
        rf = m.rewards[k]
        if owner not in rf.scope or j not in rf.scope or not rf.is_interaction:
            continue
        others = [q for q in rf.scope if q != owner]
        for combo in product(*(available_transitions(m, q) for q in others)):
            parts = {owner: tr_i}
            parts.update(dict(zip(others, combo)))
            states = [parts[q][0] for q in rf.scope]
            actions = [parts[q][1] for q in rf.scope]
            nexts = [parts[q][2] for q in rf.scope]
            v = reward_value_local(m, rf, states, actions, nexts)
            if v == rf.default:
                continue
            a_j = parts[j][1]
            pos = rf.scope.index(j)
            for b in range(len(m.locals[j].actions)):
                if b == a_j:
                    continue
                swapped = list(actions)
                swapped[pos] = b
                if reward_value_local(m, rf, states, swapped, nexts) != v:
                    deps.add(a_j)
                    break
    return deps


def bf_influence_set(m: TiMmdpInstance, fns: list[int], owner: int,
                     tr_i: tuple[int, int, int], j: int,
                     action: int) -> set[tuple[int, int]]:
    pairs = set()
    n_states = len(m.locals[j].states)
    for k in fns:
        rf = m.rewards[k]
        if owner not in rf.scope or j not in rf.scope or not rf.is_interaction:
            continue
        others = [q for q in rf.scope if q != owner]
        for combo in product(*(available_transitions(m, q) for q in others)):
            parts = {owner: tr_i}
            parts.update(dict(zip(others, combo)))
            if parts[j][1] != action:
                continue
            states = [parts[q][0] for q in rf.scope]
            actions = [parts[q][1] for q in rf.scope]
            nexts = [parts[q][2] for q in rf.scope]
            v = reward_value_local(m, rf, states, actions, nexts)
            if v == rf.default:
                continue
            s_j, n_j = parts[j][0], parts[j][2]
            pos = rf.scope.index(j)
            for s2 in range(n_states):
                for n2 in range(n_states):
                    if (s2, n2) == (s_j, n_j):
                        continue
                    st2, nx2 = list(states), list(nexts)
                    st2[pos], nx2[pos] = s2, n2
                    if reward_value_local(m, rf, st2, actions, nx2) != v:
                        pairs.add((s_j, n_j))
                        break
                else:
                    continue
                break
    return pairs


def bf_interaction_alive(m: TiMmdpInstance, rf_index: int, agent: int,
                         state: int, stage: int) -> bool:
    """Can the function still fire, over all stage-consistent joint futures,
    given only this agent's local position?"""
    rf = m.rewards[rf_index]
    own = _bf_reach(m, agent, state, stage)
    others = {q: _bf_reach(m, q, m.initial[q], 0)
              for q in rf.scope if q != agent}
    for x in range(stage, m.horizon):
        own_trs = [tr for tr in available_transitions(m, agent)
                   if tr[0] in own[x]]
        other_trs = []
        for q in rf.scope:
            if q == agent:
                continue
            other_trs.append([tr for tr in available_transitions(m, q)
                              if tr[0] in others[q][x]])
        for tr in own_trs:
            for combo in product(*other_trs):
                parts = {agent: tr}
                parts.update(dict(zip([q for q in rf.scope if q != agent],
                                      combo)))
                states = [parts[q][0] for q in rf.scope]
                actions = [parts[q][1] for q in rf.scope]
                nexts = [parts[q][2] for q in rf.scope]
                if reward_value_local(m, rf, states, actions, nexts) != 0.0:
                    return True
    return False


def _bf_reach(m: TiMmdpInstance, agent: int, state: int,
              stage: int) -> dict[int, set[int]]:
    """Stage -> the agent's states reachable there from ``state`` at
    ``stage``, over every available transition."""
    reach = {stage: {state}}
    for x in range(stage, m.horizon):
        reach[x + 1] = {dst for src, _, dst in available_transitions(m, agent)
                        if src in reach[x]}
    return reach


def bf_joint_future_fires(m: TiMmdpInstance, rf_index: int, t: int,
                          s: tuple[int, ...]) -> bool:
    """Exhaustive check over all joint futures from (t, s): does any joint
    transition give the function a nonzero value?"""
    rf = m.rewards[rf_index]
    frontier = {tuple(s)}
    for x in range(t, m.horizon):
        nxt = set()
        for state in frontier:
            for a in m.joint_actions(state):
                for s2, _ in enumerate_successors(m, state, a):
                    if reward_value(m, rf, state, a, s2) != 0.0:
                        return True
                    nxt.add(s2)
        frontier = nxt
    return False


def bf_local_choice(m: TiMmdpInstance, agent: int,
                    ) -> dict[tuple[int, int], int]:
    """Per (t, s) before the horizon where the agent has an action, its
    best action under its own local functions alone, by plain recursion
    over every state; ties go to the lowest action id."""
    local = m.locals[agent]
    own = [rf for rf in m.rewards if rf.scope == (agent,)]
    values: dict[tuple[int, int], float] = {}

    def q(t: int, s: int, a: int) -> float:
        return math.fsum(
            p * (math.fsum(reward_value_local(m, rf, [s], [a], [dst])
                           for rf in own) + value(t + 1, dst))
            for dst, p in local.outcomes(s, a))

    def value(t: int, s: int) -> float:
        if t == m.horizon:
            return 0.0
        if (t, s) not in values:
            values[(t, s)] = max((q(t, s, a) for a in range(len(local.actions))
                                  if local.outcomes(s, a)), default=0.0)
        return values[(t, s)]

    choice = {}
    for t in range(m.horizon):
        for s in range(len(local.states)):
            acts = [a for a in range(len(local.actions))
                    if local.outcomes(s, a)]
            if acts:
                qs = [q(t, s, a) for a in acts]
                choice[(t, s)] = acts[qs.index(max(qs))]
    return choice


def all_joint_transitions(m: TiMmdpInstance):
    """Every (t, s, a, s2) with positive probability, stage-reachable."""
    frontier = {tuple(m.initial)}
    for t in range(m.horizon):
        nxt = set()
        for s in sorted(frontier):
            for a in sorted(m.joint_actions(s)):
                for s2, p in enumerate_successors(m, s, a):
                    yield t, s, a, s2, p
                    nxt.add(s2)
        frontier = nxt


def naive_dp(m: TiMmdpInstance) -> DpResult:
    """Backward induction over the reachable joint states that prices every
    joint successor with the per-transition ``reference_total_reward``: the
    plain definition that ``dp_solve``'s expected-reward decomposition must
    match."""
    layers = [{tuple(m.initial)}]
    for t in range(m.horizon):
        nxt = set()
        for s in layers[t]:
            for a in m.joint_actions(s):
                for s2, _ in enumerate_successors(m, s, a):
                    nxt.add(s2)
        layers.append(nxt)

    values = {(m.horizon, s): 0.0 for s in layers[m.horizon]}
    entries = {}
    expanded = 0
    for t in range(m.horizon - 1, -1, -1):
        for s in layers[t]:
            best, best_a = None, None
            for a in sorted(m.joint_actions(s)):
                expanded += 1
                q = math.fsum(
                    p * (reference_total_reward(m, s, a, s2)
                         + values[(t + 1, s2)])
                    for s2, p in enumerate_successors(m, s, a))
                if best is None or q > best:
                    best, best_a = q, a
            values[(t, s)] = best if best is not None else 0.0
            if best_a is not None:
                entries[(t, s)] = best_a
    stats = {"joint_actions_evaluated": expanded,
             "states": sum(len(layer) for layer in layers)}
    return DpResult(value=values[(0, tuple(m.initial))], values=values,
                    policy=Policy(n_agents=m.n_agents, entries=entries),
                    stats=stats)


# ---------------------------------------------------------------------------
# Execution sequences and open-loop plans


@dataclass(frozen=True)
class ExecutionSequence:
    """Alternating joint states and joint actions, s_0 a_0 s_1 ... s_t."""

    steps: tuple

    @property
    def t(self) -> int:
        return len(self.steps) // 2

    def transitions(self) -> Iterator[tuple[JointState, JointAction, JointState]]:
        for x in range(self.t):
            yield self.steps[2 * x], self.steps[2 * x + 1], self.steps[2 * x + 2]


def joint_transition_probability(m: TiMmdpInstance, s: JointState,
                                 a: JointAction, s_next: JointState) -> float:
    """Product of local transition probabilities; 0 if any local move is absent."""
    if not (len(s) == len(a) == len(s_next) == m.n_agents):
        raise ValueError("joint state/action arity does not match agent count")
    p = 1.0
    for i in m.agents:
        local = 0.0
        for nxt, q in m.locals[i].outcomes(s[i], a[i]):
            if nxt == s_next[i]:
                local = q
                break
        if local == 0.0:
            return 0.0
        p *= local
    return p


def sequence_return(m: TiMmdpInstance,
                    phi: ExecutionSequence) -> tuple[float, dict[int, float]]:
    """Return of an execution sequence and its split per reward function.

    The per-component map is keyed by index into ``m.rewards``. Both the
    total and the components are exact (fsum), so the components always add
    back to the total bit-for-bit regardless of summation order.
    """
    _check_sequence(m, phi)
    per_fn: dict[int, list[float]] = {k: [] for k in range(len(m.rewards))}
    for s, a, s_next in phi.transitions():
        for k, rf in enumerate(m.rewards):
            per_fn[k].append(reward_value(m, rf, s, a, s_next))
    components = {k: math.fsum(vals) for k, vals in per_fn.items()}
    total = math.fsum(v for vals in per_fn.values() for v in vals)
    return total, components


def _check_sequence(m: TiMmdpInstance, phi: ExecutionSequence) -> None:
    if len(phi.steps) % 2 == 0 or not phi.steps:
        raise ValueError("execution sequence must start and end with a state")
    for s, a, s_next in phi.transitions():
        if joint_transition_probability(m, s, a, s_next) <= 0.0:
            raise ValueError(f"impossible step {s} {a} {s_next} in sequence")


def best_open_loop_value(m: TiMmdpInstance, limit: int = 200_000) -> float:
    """Best joint value when every agent sees only its own local state.

    Enumerates each agent's deterministic local policies over its reachable
    (stage, state) decision points, evaluates every combination jointly and
    keeps the best - the ceiling for plans that cannot react to other
    agents' realized outcomes. Exponential; guarded by ``limit``.
    """
    per_agent: list[list[dict[tuple[int, int], int]]] = []
    for i in m.agents:
        reach = reachable_local_states(m, i)
        points = [(t, s) for t in range(m.horizon) for s in sorted(reach[t])]
        options = [m.locals[i].available(s) for _, s in points]
        count = 1
        for opts in options:
            count *= max(len(opts), 1)
        if count > limit:
            raise ValueError(f"agent {i} has {count} local policies; "
                             f"limit is {limit}")
        policies = []
        for combo in product(*options):
            policies.append(dict(zip(points, combo)))
        per_agent.append(policies)

    total = 1
    for ps in per_agent:
        total *= len(ps)
    if total > limit:
        raise ValueError(f"{total} joint policy combinations; limit is {limit}")

    best = None
    for combo in product(*per_agent):
        cache: dict[tuple[int, JointState], float] = {}

        def value(t: int, s: JointState) -> float:
            if t == m.horizon:
                return 0.0
            if (t, s) not in cache:
                a = tuple(combo[i][(t, s[i])] for i in m.agents)
                cache[(t, s)] = math.fsum(
                    p * (reference_total_reward(m, s, a, s2)
                         + value(t + 1, s2))
                    for s2, p in enumerate_successors(m, s, a))
            return cache[(t, s)]

        v = value(0, tuple(m.initial))
        if best is None or v > best:
            best = v
    return best


def random_execution_sequence(m: TiMmdpInstance, rng: SplitMix64):
    steps = [tuple(m.initial)]
    s = tuple(m.initial)
    for t in range(m.horizon):
        actions = sorted(m.joint_actions(s))
        a = rng.choice(actions)
        outs = enumerate_successors(m, s, a)
        pick = rng.uniform()
        acc = 0.0
        s2 = outs[-1][0]
        for cand, p in outs:
            acc += p
            if pick <= acc:
                s2 = cand
                break
        steps.extend([a, s2])
        s = s2
    return ExecutionSequence(steps=tuple(steps))


# ---------------------------------------------------------------------------
# Search and policy helpers


def row_product(crgs, masks, t: int, agents: tuple[int, ...],
                states: tuple[int, ...], action: tuple[int, ...]) -> list:
    """Successor rows of one component action over the full product of its
    members' outcomes, the reference the factored walk must agree with.

    ``masks`` holds each member's keep mask for this component (see
    ``crg.cover_mask``). Each row is (next states, probability, step reward,
    upper, lower); the bounds already include the step reward.
    """
    per_agent = []
    for i, s, a in zip(agents, states, action):
        outs = sorted(crgs[i].outcomes(s, a))
        per_agent.append([(i, s, a, dst, p) for dst, p in outs])
    rows = []
    for combo in product(*per_agent):
        context = {i: (s, a, dst) for i, s, a, dst, _ in combo}
        p = 1.0
        reward_parts, up, dn = [], 0.0, 0.0
        for i, s, a, dst, q in combo:
            p *= q
            g = crgs[i]
            arc = resolve_arc(g, (s, a, dst), context)
            r_i = assigned_reward(arc, masks[i])
            reward_parts.append(r_i)
            child = g.nodes[(t + 1, dst)]
            up += r_i + child.upper
            dn += r_i + child.lower
        nxt = tuple(context[i][2] for i in agents)
        rows.append((nxt, p, math.fsum(reward_parts), up, dn))
    return rows


def joint_action_bounds(crgs, t: int, agents, states,
                        action) -> tuple[float, float]:
    """Probability-weighted (lower, upper) return bounds of one joint action
    of the given agent subset, summed over the full row product."""
    agents = tuple(agents)
    masks = {i: cover_mask(crgs[i], agents) for i in agents}
    rows = row_product(crgs, masks, t, agents, tuple(states), tuple(action))
    upper = math.fsum(p * up for _, p, _, up, _ in rows)
    lower = math.fsum(p * dn for _, p, _, _, dn in rows)
    return lower, upper


def worst_path_upper(g: ConditionalReturnGraph,
                     ) -> dict[tuple[int, int], float]:
    """Per node, the upper bound along the owner's luckiest path: the best,
    over kept actions and every outcome of them, of the transition's best
    arc reward plus this bound at the next node. Node upper bounds, which
    take the expectation over the owner's outcomes, never exceed it."""
    bound: dict[tuple[int, int], float] = {}
    for (t, s), node in sorted(g.nodes.items(), reverse=True):
        bound[(t, s)] = max(
            (max(arc.reward for arc in g.tree(s, a, dst).arcs.values())
             + bound[(t + 1, dst)]
             for a in (node.kept_actions if t < g.horizon else ())
             for dst, _ in g.outcomes(s, a)), default=0.0)
    return bound


def nonzero_interactions(g: ConditionalReturnGraph,
                         arc: CrgArc) -> frozenset[int]:
    """The interaction functions among the graph's own with a nonzero
    component on this arc."""
    rewards = g.instance.rewards
    return frozenset(k for k, v in zip(g.functions, arc.components)
                     if v != 0.0 and rewards[k].is_interaction)


_REFERENCE_LIVE: dict[int, dict] = {}


def reference_live(g: ConditionalReturnGraph,
                   ) -> dict[tuple[int, int], frozenset[int]]:
    """Per node (t, s), the graph's own interaction functions with a nonzero
    arc somewhere below it along kept actions, by one backward union over
    the arcs; layer-h nodes have none. Stage-free, and so independent of
    ``InstanceIndex.alive``. Compiled once per graph."""
    live = _REFERENCE_LIVE.get(id(g))
    if live is None:
        live = _REFERENCE_LIVE[id(g)] = {}
        weakref.finalize(g, _REFERENCE_LIVE.pop, id(g), None)
        for (t, s), node in sorted(g.nodes.items(), reverse=True):
            found: set[int] = set()
            if t < g.horizon:
                for a in node.kept_actions:
                    for dst, _ in g.outcomes(s, a):
                        for arc in g.trees[(s, a, dst)].arcs.values():
                            found |= nonzero_interactions(g, arc)
                        found |= live[(t + 1, dst)]
            live[(t, s)] = frozenset(found)
    return live


def components(crgs: Mapping[int, ConditionalReturnGraph], t: int,
               agents: Sequence[int],
               states: Mapping[int, int]) -> list[tuple[int, ...]]:
    """Connected components of the still-interacting relation.

    A function links its scope only while a nonzero arc of it remains
    reachable in its owner's graph (``reference_live``) and no member's
    local state already rules it out. Both tests depend on the current
    states alone, so the partition can only refine along a branch.
    """
    agent_set = set(agents)
    links = []
    for i in agents:
        g = crgs[i]
        for k in reference_live(g)[(t, states[i])]:
            scope = g.instance.rewards[k].scope
            if set(scope) <= agent_set and not any(
                    states[j] not in g.index.alive(k)[j][t]
                    for j in scope):
                links.append(scope)
    return _groups(agents, links)


def table_value(crgs, table: dict, horizon: int, t: int, agents,
                states) -> float:
    """Value of ``agents`` in ``states`` at stage t: the sum of their
    components' table entries, which a solve without pruning fills for every
    reachable state."""
    if t == horizon:
        return 0.0
    state_of = dict(zip(agents, states))
    return math.fsum(table[(t, comp, tuple(state_of[i] for i in comp))][0]
                     for comp in components(crgs, t, agents, state_of))


def independent_components(m: TiMmdpInstance, crgs, t: int,
                           s) -> list[tuple[int, ...]]:
    """Conditionally independent agent subsets at one joint state."""
    return components(crgs, t, m.agents, dict(zip(m.agents, s)))


def policy_value_by_induction(m: TiMmdpInstance, pi) -> float:
    """Backward induction restricted to the policy's choices, a second
    evaluator to cross-check ``evaluate_policy``'s sequence enumeration."""
    cache: dict = {}

    def value(t: int, s) -> float:
        if t == m.horizon:
            return 0.0
        key = (t, s)
        if key not in cache:
            a = pi.action(t, s)
            cache[key] = math.fsum(
                p * (reference_total_reward(m, s, a, s2) + value(t + 1, s2))
                for s2, p in enumerate_successors(m, s, a))
        return cache[key]

    return value(0, tuple(m.initial))
