"""Transition-independent multi-agent MDP: model types and joint dynamics.

A problem instance couples n agents that move through fully independent
local MDPs; only rewards read across agents. Joint states and actions are
fixed-length tuples of local ids indexed by agent, so projecting onto one
agent is a constant-time index. Reward functions are sparse tables over the
local transitions of their scope plus an explicit default for everything
unlisted - the sparsity is what the rest of the package exploits - and
``TiMmdpInstance.reward`` is the one evaluator every solver prices them by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Mapping, Sequence

PROB_TOL = 1e-9

JointState = tuple[int, ...]
JointAction = tuple[int, ...]

LocalTransition = tuple[int, int, int]  # (state, action, next state)

# (state id, action id) -> ((next state id, probability), ...)
LocalTransitionModel = Mapping[tuple[int, int], tuple[tuple[int, float], ...]]


@dataclass(frozen=True)
class LocalState:
    """A local state: dense id plus the discrete features composing it."""

    id: int
    features: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class LocalAction:
    id: int
    label: str = ""


@dataclass
class LocalMdp:
    """One agent's state set, action set and transition model."""

    states: tuple[LocalState, ...]
    actions: tuple[LocalAction, ...]
    transitions: LocalTransitionModel
    # state id -> its available action ids; a cache, so it stays out of
    # equality and repr, and a ``dataclasses.replace`` copy starts empty
    _available: dict = field(default_factory=dict, init=False,
                             repr=False, compare=False)

    def available(self, state_id: int) -> tuple[int, ...]:
        """The actions with outcomes in the state, in action order; compiled
        once per state."""
        acts = self._available.get(state_id)
        if acts is None:
            acts = self._available[state_id] = tuple(
                a.id for a in self.actions
                if (state_id, a.id) in self.transitions)
        return acts

    def outcomes(self, state_id: int, action_id: int) -> tuple[tuple[int, float], ...]:
        return self.transitions.get((state_id, action_id), ())


@dataclass
class RewardFunction:
    """Sparse reward over the local joint transitions of an agent subset.

    ``scope`` lists the agents the function reads, ascending. Table keys are
    ``(states, actions, next_states)`` with one component per scope agent in
    scope order. A state component is the local state id, unless
    ``feature_scope`` declares that this function only reads some features of
    that agent - then the component is the tuple of those feature values
    (the empty tuple declares pure action dependence). Unlisted transitions
    earn ``default``.
    """

    scope: tuple[int, ...]
    table: dict[tuple, float]
    default: float = 0.0
    feature_scope: Mapping[int, tuple[str, ...]] | None = None

    @property
    def is_interaction(self) -> bool:
        return len(self.scope) > 1

    def features_read(self, agent: int) -> tuple[str, ...] | None:
        if self.feature_scope is None:
            return None
        return self.feature_scope.get(agent)


@dataclass
class TiMmdpInstance:
    """A full problem: per-agent local MDPs, reward set, horizon, start state."""

    locals: tuple[LocalMdp, ...]
    rewards: list[RewardFunction]
    horizon: int
    initial: JointState
    metadata: dict = field(default_factory=dict)
    # (agent, feature tuple) -> projection table; a cache, so it stays out
    # of equality and repr, and a ``dataclasses.replace`` copy starts empty
    _projections: dict = field(default_factory=dict, init=False,
                               repr=False, compare=False)
    # agent -> its per-stage reachable states; a cache like the projections
    _reach: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    # reward index -> its scope's (agent, projection) pairs and the function;
    # a cache like the projections
    _keys: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def n_agents(self) -> int:
        return len(self.locals)

    @property
    def agents(self) -> range:
        return range(len(self.locals))

    def joint_actions(self, s: JointState) -> Iterator[JointAction]:
        per_agent = [self.locals[i].available(s[i]) for i in self.agents]
        return product(*per_agent)

    def projection(self, agent: int, feats: tuple[str, ...] | None) -> tuple:
        """The agent's states as a reward table reads them, indexed by state
        id: the tuple of ``feats`` values, or the id itself without
        features. Compiled once per (agent, feature tuple)."""
        key = (agent, feats)
        proj = self._projections.get(key)
        if proj is None:
            states = self.locals[agent].states
            proj = (tuple(range(len(states))) if feats is None else
                    tuple(tuple(st.features[f] for f in feats)
                          for st in states))
            self._projections[key] = proj
        return proj

    def reward(self, k: int, trs: Mapping[int, LocalTransition]
               | Sequence[LocalTransition]) -> float:
        """Reward function k's value when each scope agent j takes the local
        transition ``trs[j]`` = (s, a, s'); ``trs`` may be a mapping or an
        agent-indexed sequence. The one reward evaluator of the package: the
        table key is read off the compiled projections, which are looked up
        once per function."""
        key = self._keys.get(k)
        if key is None:
            rf = self.rewards[k]
            key = self._keys[k] = (
                tuple((j, self.projection(j, rf.features_read(j)))
                      for j in rf.scope), rf)
        scope, rf = key
        states, actions, nexts = [], [], []
        for j, proj in scope:
            s, a, dst = trs[j]
            states.append(proj[s])
            actions.append(a)
            nexts.append(proj[dst])
        return rf.table.get((tuple(states), tuple(actions), tuple(nexts)),
                            rf.default)

    def reachable(self, agent: int) -> tuple[frozenset[int], ...]:
        """Per stage, the agent's local states reachable from its initial
        state (``reachable_local_states``). Compiled once per agent, so
        validation and the graph build share one sweep."""
        reach = self._reach.get(agent)
        if reach is None:
            reach = self._reach[agent] = tuple(
                frozenset(x) for x in reachable_local_states(self, agent))
        return reach


class TimeBudgetExceeded(Exception):
    """A solve ran past its time budget."""


@dataclass
class Policy:
    """Joint decisions by (stage, joint state).

    ``entries`` maps (stage, joint state) to the full joint action and is
    closed under its own reachable states from the initial one.
    """

    n_agents: int
    entries: dict[tuple[int, JointState], JointAction]

    def action(self, t: int, s: JointState) -> JointAction:
        try:
            return self.entries[(t, tuple(s))]
        except KeyError:
            raise KeyError(f"policy undefined at stage {t}, state {tuple(s)}") \
                from None


@dataclass(frozen=True)
class Violation:
    """One broken invariant; data for the caller, not an exception."""

    kind: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.message}"


def total_reward(m: TiMmdpInstance, s: JointState, a: JointAction,
                 s_next: JointState) -> float:
    """Team reward for one joint transition: the sum over all reward functions."""
    trs = tuple(zip(s, a, s_next))
    return math.fsum(m.reward(k, trs) for k in range(len(m.rewards)))


def enumerate_successors(m: TiMmdpInstance, s: JointState,
                         a: JointAction) -> list[tuple[JointState, float]]:
    """All joint successors with probabilities, ordered agent-major by state id."""
    per_agent = []
    for i in m.agents:
        outs = m.locals[i].outcomes(s[i], a[i])
        if not outs:
            return []
        per_agent.append(sorted(outs))
    result = []
    for combo in product(*per_agent):
        p = 1.0
        for _, q in combo:
            p *= q
        result.append((tuple(nxt for nxt, _ in combo), p))
    return result


def reachable_local_states(m: TiMmdpInstance, agent: int) -> list[set[int]]:
    """Per-stage sets of the agent's local states reachable from its initial
    state: index x of the result holds the states reachable at stage x."""
    local = m.locals[agent]
    sets: list[set[int]] = [set() for _ in range(m.horizon + 1)]
    sets[0] = {m.initial[agent]}
    for t in range(m.horizon):
        nxt: set[int] = set()
        for sid in sets[t]:
            for a in local.available(sid):
                nxt.update(dst for dst, _ in local.outcomes(sid, a))
        sets[t + 1] = nxt
    return sets


def validate_instance(m: TiMmdpInstance) -> list[Violation]:
    """Check every structural invariant; an empty list means well-formed.

    Violations are returned, never raised: a bad generated instance is data
    to report, not a crash. Probabilities are checked to 1e-9 and never
    silently renormalized.
    """
    out: list[Violation] = []
    if m.horizon < 1:
        out.append(Violation("horizon", "instance", f"horizon {m.horizon} < 1"))
    if len(m.initial) != m.n_agents:
        out.append(Violation("initial", "instance",
                             f"initial state has arity {len(m.initial)}, "
                             f"expected {m.n_agents}"))
        return out

    for i, local in enumerate(m.locals):
        where = f"agent {i}"
        for idx, st in enumerate(local.states):
            if st.id != idx:
                out.append(Violation("state-ids", where,
                                     f"state at index {idx} has id {st.id}; "
                                     "ids must be dense and ascending"))
        for idx, act in enumerate(local.actions):
            if act.id != idx:
                out.append(Violation("action-ids", where,
                                     f"action at index {idx} has id {act.id}"))
        n_states, n_actions = len(local.states), len(local.actions)
        for (sid, aid), outs in local.transitions.items():
            tag = f"{where} (s={sid}, a={aid})"
            if not (0 <= sid < n_states and 0 <= aid < n_actions):
                out.append(Violation("transition-ids", tag, "unknown state or action"))
                continue
            if not outs:
                out.append(Violation("transition-empty", tag, "no outcomes listed"))
                continue
            total = math.fsum(p for _, p in outs)
            if any(p <= 0.0 for _, p in outs):
                out.append(Violation("probability-positive", tag,
                                     "listed probabilities must be > 0"))
            if any(not (0 <= dst < n_states) for dst, _ in outs):
                out.append(Violation("transition-ids", tag, "unknown successor state"))
            if abs(total - 1.0) > PROB_TOL:
                out.append(Violation("probability-sum", tag,
                                     f"outcome probabilities sum to {total!r}"))
        if not (0 <= m.initial[i] < n_states):
            out.append(Violation("initial", where,
                                 f"initial state {m.initial[i]} unknown"))

    for k, rf in enumerate(m.rewards):
        where = f"reward {k} (scope {rf.scope})"
        if not rf.scope:
            out.append(Violation("reward-scope", where, "scope is empty"))
            continue
        if list(rf.scope) != sorted(set(rf.scope)):
            out.append(Violation("reward-scope", where,
                                 "scope must be strictly ascending agent ids"))
            continue
        if any(j not in m.agents for j in rf.scope):
            out.append(Violation("reward-scope", where,
                                 "scope names an agent outside the instance"))
            continue
        if not math.isfinite(rf.default):
            out.append(Violation("reward-finite", where, "default is not finite"))
        if rf.feature_scope is not None:
            for j, feats in rf.feature_scope.items():
                if j not in rf.scope:
                    out.append(Violation("feature-scope", where,
                                         f"feature scope names agent {j} "
                                         "outside the reward scope"))
                    continue
                known = set(m.locals[j].states[0].features) if m.locals[j].states else set()
                for f in feats:
                    if f not in known:
                        out.append(Violation("feature-scope", where,
                                             f"agent {j} has no feature {f!r}"))
        arity = len(rf.scope)
        for key, value in rf.table.items():
            if not math.isfinite(value):
                out.append(Violation("reward-finite", where,
                                     f"entry {key} is not finite"))
            if (len(key) != 3 or any(len(part) != arity for part in key)):
                out.append(Violation("reward-key", where,
                                     f"entry {key} does not match scope arity"))

    # Feature maps must be a function of the state id.
    for i, local in enumerate(m.locals):
        keys = {tuple(sorted(st.features)) for st in local.states}
        if len(keys) > 1:
            out.append(Violation("features", f"agent {i}",
                                 "states disagree on the feature set"))

    if not out:
        out.extend(_unmatchable_entries(m))
        out.extend(_reachability_violations(m))
    return out


def _unmatchable_entries(m: TiMmdpInstance) -> list[Violation]:
    """One violation per table entry that no joint transition of its scope
    can take: an action outside its agent's ids, or a state component that
    none of its agent's states reads as (``TiMmdpInstance.projection``)."""
    out = []
    for k, rf in enumerate(m.rewards):
        reads = [(j, range(len(m.locals[j].actions)),
                  set(m.projection(j, rf.features_read(j)))) for j in rf.scope]
        for key in rf.table:
            for (j, acts, seen), s, a, dst in zip(reads, *key):
                if a not in acts or s not in seen or dst not in seen:
                    out.append(Violation(
                        "reward-key", f"reward {k} (scope {rf.scope})",
                        f"entry {key} can never match: agent {j} has no "
                        "such action, state id or feature values"))
                    break
    return out


def _reachability_violations(m: TiMmdpInstance) -> list[Violation]:
    out = []
    for i in m.agents:
        per_stage = m.reachable(i)
        seen = set().union(*per_stage)
        for st in m.locals[i].states:
            if st.id not in seen:
                out.append(Violation("unreachable-state", f"agent {i}",
                                     f"state {st.id} is unreachable within "
                                     f"{m.horizon} steps"))
        # States that can be occupied before the horizon must offer an action.
        for t in range(m.horizon):
            for sid in per_stage[t]:
                if not m.locals[i].available(sid):
                    out.append(Violation("dead-end", f"agent {i}",
                                         f"state {sid} reachable at stage {t} "
                                         "has no available action"))
    return out
