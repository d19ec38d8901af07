"""Exact reference solvers the graph-based search is verified against.

``dp_solve`` maximizes the finite-horizon Bellman recursion by backward
induction over the joint states actually reachable from the start, which is
the plain oracle every other algorithm here must match. Under transition
independence the joint states reachable at stage t are exactly the product
of each agent's local states reachable at t, and a reward function's
expected step reward depends only on the local states and actions of its
own scope. So the layers are formed as products, without walking a joint
action, and each Q-value is the sum of those expected rewards plus the
probability-weighted values of the joint successors. The backward pass
compiles one option record per (agent, local state): its available actions
and, per action, its sorted outcomes and the expected values of the agent's
single-agent functions. A joint state's joint actions are walked in sorted
order as products of its agents' records; each interaction function's expected reward is computed
once per (scope states, scope actions) over the scope's own local outcomes,
and the successor values once per stage and combination of the agents'
outcomes. ``evaluate_policy`` prices a fixed policy by enumerating its
execution sequences depth first and summing probability-weighted returns
with the per-transition ``total_reward``, so it does not rely on that
decomposition.

Both price rewards through the instance's one evaluator,
``TiMmdpInstance.reward``, which the graph build shares, and stay
independent of the graph search: nothing here reads the conditional return
graphs or the search.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import chain, product
from operator import itemgetter, mul

from .model import (
    JointAction,
    JointState,
    Policy,
    TiMmdpInstance,
    TimeBudgetExceeded,
    enumerate_successors,
    total_reward,
)


class StateSpaceBudgetExceeded(Exception):
    """The reachable joint state space outgrew the configured budget."""


@dataclass
class DpResult:
    value: float
    values: dict[tuple[int, JointState], float]  # V(h, .) = 0 included
    policy: Policy
    stats: dict = field(default_factory=dict)


def dp_solve(m: TiMmdpInstance, max_states: int = 2_000_000,
             time_budget: float | None = None) -> DpResult:
    """Exact value and greedy policy via depth-ordered backward induction.

    Only joint states reachable from the initial state are expanded; every
    expanded (state, action) pair is counted in the stats. Each Q-value is
    ``fsum(E[r_f | scope states, scope actions]) + fsum(p * V(t+1, s'))``,
    and of equal Q-values the first joint action in sorted order wins.
    Reaching more than ``max_states`` joint states raises
    StateSpaceBudgetExceeded rather than thrashing; the time budget is
    checked once per layer and then at every joint state of the backward
    pass.
    """
    deadline = (time.monotonic() + time_budget
                if time_budget is not None else None)

    def check_deadline() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded

    # per stage, each agent's reachable local states in id order
    stages: list[list[list[int]]] = []
    total_states = 0
    for t in range(m.horizon + 1):
        check_deadline()
        stages.append([sorted(m.reachable(i)[t]) for i in m.agents])
        total_states += math.prod(map(len, stages[t]))
        if total_states > max_states:
            raise StateSpaceBudgetExceeded(
                f"more than {max_states} reachable joint states")

    # (agent, state, action) -> (next states, probabilities), sorted
    local_outcomes: dict[tuple[int, int, int], tuple[tuple, tuple]] = {}

    def outcomes(i: int, si: int, ai: int) -> tuple[tuple, tuple]:
        key = (i, si, ai)
        outs = local_outcomes.get(key)
        if outs is None:
            ordered = sorted(m.locals[i].outcomes(si, ai))
            outs = local_outcomes[key] = (tuple(d for d, _ in ordered),
                                          tuple(q for _, q in ordered))
        return outs

    singles: list[list[int]] = [[] for _ in m.agents]
    interactions = []  # (function, its scope's getter)
    for k, rf in enumerate(m.rewards):
        if rf.is_interaction:
            interactions.append((k, itemgetter(*rf.scope)))
        else:
            singles[rf.scope[0]].append(k)

    # the distinct sorted outcomes, (next states, probabilities), of any
    # agent's actions, and their positions in that list
    outcome_list: list[tuple[tuple, tuple]] = []
    outcome_ids: dict[tuple[tuple, tuple], int] = {}

    # (agent, state) -> its option record: the available actions in id
    # order and, per action, the id of its outcomes and the expected values
    # of the agent's single-agent functions
    records: dict[tuple[int, int], tuple[tuple, tuple, tuple]] = {}

    def record(i: int, si: int) -> tuple[tuple, tuple, tuple]:
        rec = records.get((i, si))
        if rec is None:
            acts = tuple(sorted(m.locals[i].available(si)))
            ids = []
            for ai in acts:
                outs = outcomes(i, si, ai)
                x = outcome_ids.get(outs)
                if x is None:
                    x = outcome_ids[outs] = len(outcome_list)
                    outcome_list.append(outs)
                ids.append(x)
            rec = records[(i, si)] = (
                acts, tuple(ids),
                tuple(tuple(_expected_step_reward(m, k, (si,), (ai,),
                                                  outcomes)
                            for k in singles[i]) for ai in acts))
        return rec

    # per interaction function: scope states -> {scope actions: E[r]}
    expected: list[dict[tuple, dict[tuple, float]]] = [{} for _ in m.rewards]
    # per-agent probability tuples -> joint probabilities, agent-major
    joint_probs: dict[tuple, list[float]] = {}

    later = dict.fromkeys(product(*stages[m.horizon]), 0.0)  # V(t + 1, .)
    values = {(m.horizon, s): 0.0 for s in later}
    entries: dict[tuple[int, JointState], JointAction] = {}
    expanded = 0
    for t in range(m.horizon - 1, -1, -1):
        current: dict[JointState, float] = {}
        # per-agent outcome ids -> fsum(p * V(t + 1, s')) at this stage
        continuation: dict[tuple[int, ...], float] = {}
        options = [[record(i, si) for si in states]
                   for i, states in enumerate(stages[t])]
        for s, recs in zip(product(*stages[t]), product(*options)):
            check_deadline()
            priced = []
            for k, get in interactions:
                scope_states = get(s)
                table = expected[k].get(scope_states)
                if table is None:
                    table = expected[k][scope_states] = {
                        scope_actions: _expected_step_reward(
                            m, k, scope_states, scope_actions, outcomes)
                        for scope_actions in product(
                            *(rec[0] for rec in get(recs)))}
                priced.append((get, table))
            best, best_a = None, None
            for a, ids, own in zip(product(*(rec[0] for rec in recs)),
                                   product(*(rec[1] for rec in recs)),
                                   product(*(rec[2] for rec in recs))):
                expanded += 1
                rewards = list(chain.from_iterable(own))
                rewards += [table[get(a)] for get, table in priced]
                future = continuation.get(ids)
                if future is None:
                    outs = [outcome_list[x] for x in ids]
                    qs = tuple(q for _, q in outs)
                    probs = joint_probs.get(qs)
                    if probs is None:
                        probs = [1.0]
                        for q_i in qs:
                            probs = [p * q for p in probs for q in q_i]
                        joint_probs[qs] = probs
                    future = continuation[ids] = math.fsum(map(
                        mul, probs, map(later.__getitem__,
                                        product(*(d for d, _ in outs)))))
                q = math.fsum(rewards) + future
                if best is None or q > best:
                    best, best_a = q, a
            current[s] = values[(t, s)] = best if best is not None else 0.0
            if best_a is not None:
                entries[(t, s)] = best_a
        later = current
    policy = Policy(n_agents=m.n_agents, entries=entries)
    value = values[(0, tuple(m.initial))]
    stats = {"joint_actions_evaluated": expanded, "states": total_states}
    return DpResult(value=value, values=values, policy=policy, stats=stats)


def _expected_step_reward(m: TiMmdpInstance, k: int, scope_states: tuple,
                          scope_actions: tuple, outcomes) -> float:
    """E[r_k | scope states, scope actions]: the probability-weighted fsum
    of function k over the product of its scope agents' own sorted local
    outcomes."""
    scope = m.rewards[k].scope
    per_agent = [zip(*outcomes(j, sj, aj))
                 for j, sj, aj in zip(scope, scope_states, scope_actions)]
    terms = []
    for combo in product(*per_agent):
        p = 1.0
        trs = {}
        for j, sj, aj, (d, q) in zip(scope, scope_states, scope_actions,
                                     combo):
            p *= q
            trs[j] = (sj, aj, d)
        terms.append(p * m.reward(k, trs))
    return math.fsum(terms)


def evaluate_policy(m: TiMmdpInstance, pi: Policy) -> float:
    """Expected value of ``pi`` from the initial state.

    Depth-first enumeration of every execution sequence the policy can
    generate, summing sequence probability times sequence return. The policy
    must be defined at each reachable (stage, state); a gap raises KeyError
    naming it.
    """
    terms: list[float] = []
    mass: list[float] = []

    def walk(t: int, s: JointState, prob: float, ret: list[float]) -> None:
        if t == m.horizon:
            terms.append(prob * math.fsum(ret))
            mass.append(prob)
            return
        a = pi.action(t, s)
        for s2, p in enumerate_successors(m, s, a):
            ret.append(total_reward(m, s, a, s2))
            walk(t + 1, s2, prob * p, ret)
            ret.pop()

    walk(0, tuple(m.initial), 1.0, [])
    total_mass = math.fsum(mass)
    if abs(total_mass - 1.0) > 1e-9:
        raise ValueError(f"sequence probabilities sum to {total_mass!r}")
    return math.fsum(terms)

