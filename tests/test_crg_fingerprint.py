"""Regression fingerprints of whole conditional return graphs.

Each case builds every agent's graph for one fixed instance and takes two
digests. The structure digest hashes all that construction decides apart
from the bounds: per node the kept actions, the independence flag,
representation and the reference live interactions (``util.reference_live``);
per transition tree the skeleton, dependent actions, action and influence
labels, and per leaf arc its labels, target state, components, reward and
nonzero interactions. Trees share their per-agent class records, and
``crg.tree_labels`` reads the labels off them in a per-tree layout. The
bounds digest hashes every node's upper and lower bound, which
``crg.build_crg`` derives from that structure in the same backward sweep
that decides each node. Containers are sorted by ``repr`` so neither digest
depends on insertion order. Any change to how graphs are built must
reproduce the structure digests bit for bit; a change to the bounds alone
moves only the bounds digests.
"""

import hashlib

import pytest

from timmdp.crg import build_crgs, partition_rewards, tree_labels
from timmdp.domains import (
    GeneratorParams,
    compile_mpp,
    example_partition,
    example_two_agent,
    gen_coordint,
    gen_pyra,
    gen_random_mpp,
)
from timmdp.rng import stream

from util import (
    nonzero_interactions,
    random_instance,
    reference_live,
    with_interaction_default,
)


def _sorted(items):
    return tuple(sorted(items, key=repr))


def graph_fingerprint(g) -> tuple:
    """Everything construction decides except the node bounds."""
    live = reference_live(g)
    nodes = tuple(
        (key, node.kept_actions, node.locally_cri, node.represented,
         _sorted(live[key]))
        for key, node in sorted(g.nodes.items()))
    trees = []
    for tr, tree in sorted(g.trees.items()):
        arcs = tuple(
            (labels, tr[2], repr(arc.components), repr(arc.reward),
             _sorted(nonzero_interactions(g, arc)))
            for labels, arc in sorted(tree.arcs.items(),
                                      key=lambda item: repr(item[0])))
        deps, act_labels, inf_labels = tree_labels(tree)
        trees.append((
            tr, tree.skeleton,
            _sorted((j, _sorted(d)) for j, d in deps.items()),
            _sorted(act_labels.items()),
            _sorted(inf_labels.items()),
            arcs))
    return (g.owner, g.horizon, g.functions, g.scope,
            _sorted(g.feature_level.items()), nodes, tuple(trees))


def bounds_fingerprint(g) -> tuple:
    """Every node's (upper, lower) bound."""
    return (g.owner, tuple((key, repr(node.upper), repr(node.lower))
                           for key, node in sorted(g.nodes.items())))


def digest(crgs, fingerprint=graph_fingerprint) -> str:
    text = repr(tuple(fingerprint(g) for _, g in sorted(crgs.items())))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


MPP_BUILD_STRUCTURE = [(1, 2), (2, 2), (2, 2)]


def mpp_build_instance(rank: int):
    """The rank-th seed-1 draw with the three-agent task structure the
    mpp-build benchmark workload uses."""
    found = -1
    for k in range(1000):
        mpp = gen_random_mpp(GeneratorParams(
            n_agents=3, tasks_per_agent=1, horizon=5, density=1.0,
            seed=stream(1, k).next_u64()))
        pairs = sorted((t.duration, t.delayed_duration)
                       for tasks in mpp.tasks for t in tasks)
        if pairs == MPP_BUILD_STRUCTURE:
            found += 1
            if found == rank:
                return compile_mpp(mpp)
    raise AssertionError("structure not drawn")


def criterion_7_instance(k: int):
    """Draw k of the acceptance suite's search-space-trend stream."""
    return compile_mpp(gen_random_mpp(GeneratorParams(
        n_agents=2 + (k % 2), tasks_per_agent=2, horizon=5, density=0.4,
        seed=stream(777_100, k).next_u64())))


def _example(partition):
    def build():
        m = example_two_agent()
        part = partition_rewards(m, partition() if partition else None)
        return build_crgs(m, part)
    return build


def _plain(make):
    def build():
        return build_crgs(make())
    return build


CASES = {
    "example-fixed": _example(example_partition),
    "example-balanced": _example(None),
    "mpp-build-0": _plain(lambda: mpp_build_instance(0)),
    "mpp-build-1": _plain(lambda: mpp_build_instance(1)),
    "mpp-build-2": _plain(lambda: mpp_build_instance(2)),
    "criterion-7-k0": _plain(lambda: criterion_7_instance(0)),
    "criterion-7-k1": _plain(lambda: criterion_7_instance(1)),
    "pyra-5-3": _plain(lambda: compile_mpp(gen_pyra(5, 3, seed=1))),
    "coordint": _plain(lambda: compile_mpp(gen_coordint(3))),
    **{f"random-{seed}": _plain(
        lambda seed=seed: random_instance(
            seed, n_agents=2 + seed % 2, feature_scoped=seed % 3 != 0,
            n_interactions=1 + seed % 3))
       for seed in range(8)},
    **{f"random-default-{seed}": _plain(
        lambda seed=seed: with_interaction_default(
            random_instance(seed, n_agents=2 + seed % 2, feature_scoped=True,
                            n_interactions=2), (-2.0, 3.0, 1.5)[seed]))
       for seed in range(3)},
    # a nonzero interaction default together with three-agent functions and
    # two-agent skeletons
    "random-default-3scope-4": _plain(
        lambda: with_interaction_default(
            random_instance(4, n_agents=3, feature_scoped=True,
                            n_interactions=3), -1.5)),
}

# recorded before upper bounds took the expectation over the owner's
# outcomes, which left them unchanged
STRUCTURE = {
    "coordint": "6587eb8728d8cf95",
    "criterion-7-k0": "b1748b82edd73c94",
    "criterion-7-k1": "641f76e34ea1fa29",
    "example-balanced": "cb20bb331cb7922c",
    "example-fixed": "de54286d8e08d80b",
    "mpp-build-0": "750a8b5e9ae3213f",
    "mpp-build-1": "58e53fc22dec068c",
    "mpp-build-2": "54f78851ca771ab8",
    "pyra-5-3": "9477f62a039a494c",
    "random-0": "f95553ff89e9b693",
    "random-1": "95434e2dd3d53f69",
    "random-2": "13b4d94908899c85",
    "random-3": "22c556d992bb96f3",
    "random-4": "cd1111d5ef979587",
    "random-5": "8c12d602e241311c",
    "random-6": "c6e9b974c4794d0e",
    "random-7": "b5ec93dcb541a3ec",
    "random-default-0": "e13ffd41b74402e9",
    "random-default-1": "9e1a145065cb74ea",
    "random-default-2": "5f57a23d1517e373",
    "random-default-3scope-4": "dca08ee131434f08",
}

BOUNDS = {
    "coordint": "70d027e455c5b0f1",
    "criterion-7-k0": "d83e4ebf2ac61aea",
    "criterion-7-k1": "5f2bd0895440ca69",
    "example-balanced": "4dff952b1598bb12",
    "example-fixed": "908424d252e43026",
    "mpp-build-0": "a49885b5dd83d491",
    "mpp-build-1": "e440db96d328a9c5",
    "mpp-build-2": "ac0d0d3844286619",
    "pyra-5-3": "4fda27b5f349b89b",
    "random-0": "25e16384a80e9956",
    "random-1": "89e86b62d5d22b7d",
    "random-2": "cedb2f36cb2d88ec",
    "random-3": "3214be56462a4d8f",
    "random-4": "901579da1c64c143",
    "random-5": "287573f297fa5e21",
    "random-6": "e179a20fd91ea69c",
    "random-7": "f7e1c906ebe01196",
    "random-default-0": "9b0f783e9be75b8d",
    "random-default-1": "796437e68958faf2",
    "random-default-2": "fc209d43197d732c",
    "random-default-3scope-4": "99553e61ef550329",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_graphs_match_recorded_fingerprint(name):
    assert digest(CASES[name]()) == STRUCTURE[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_bounds_match_recorded_fingerprint(name):
    assert digest(CASES[name](), bounds_fingerprint) == BOUNDS[name]
