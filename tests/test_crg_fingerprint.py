"""Regression fingerprints of whole conditional return graphs.

Each case builds every agent's graph for one fixed instance and hashes all
of it that construction decides: per node the kept actions, the
independence flag, representation, both bounds and the reference live
interactions (``util.reference_live``); per transition tree the skeleton,
dependent actions, action and influence labels, and per leaf arc its
labels, target state, components, reward and nonzero interactions. Trees
share their per-agent class records, and ``crg.tree_labels`` reads the
labels off them in the per-tree layout the trees once stored. The
labels and the target are hashed twice, in the layout of a time when arcs
stored them, and the live and nonzero interactions are read off the arcs,
so the digests recorded then still apply. Containers are sorted by
``repr`` so the digest does not depend on insertion order. Any change to
how graphs are built must reproduce these digests bit for bit.
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
    live = reference_live(g)
    nodes = tuple(
        (key, node.kept_actions, node.locally_cri, node.represented,
         repr(node.upper), repr(node.lower), _sorted(live[key]))
        for key, node in sorted(g.nodes.items()))
    trees = []
    for tr, tree in sorted(g.trees.items()):
        arcs = tuple(
            (labels, tr[2], labels, repr(arc.components),
             repr(arc.reward), _sorted(nonzero_interactions(g, arc)))
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
            # graphs once carried a CRI-pruning flag here; every graph is
            # pruned now, and the constant keeps the recorded digests
            _sorted(g.feature_level.items()), True, nodes,
            tuple(trees))


def digest(crgs) -> str:
    text = repr(tuple(graph_fingerprint(g) for _, g in sorted(crgs.items())))
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
        part = partition_rewards(m, partition() if partition else "balanced")
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

EXPECTED = {
    "coordint": "2b830244964a02cf",
    "criterion-7-k0": "37101c23f4adcfc2",
    "criterion-7-k1": "8f657c0a9fa75436",
    "example-balanced": "ac8abd635d9a2c23",
    "example-fixed": "e063429b2427db53",
    "mpp-build-0": "96d754dd7e561aab",
    "mpp-build-1": "40fa2d9cbe6642a6",
    "mpp-build-2": "6a491e32f2c82207",
    "pyra-5-3": "299d1fa765ec84e3",
    "random-0": "f6a01707431a33fe",
    "random-1": "de0df6bac9fc248d",
    "random-2": "664e9cbc38880d31",
    "random-3": "b118d74e7e0e6bea",
    "random-4": "ab9afdec0342ee85",
    "random-5": "d7bb40860cbcc2ca",
    "random-6": "380c93a38a1083b5",
    "random-7": "ba6126939c4fef6b",
    "random-default-0": "30298924a623b994",
    "random-default-1": "8cac046c1815ac37",
    "random-default-2": "5bf4a47c06a356f5",
    "random-default-3scope-4": "03a7150eb182f61b",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_graphs_match_recorded_fingerprint(name):
    assert digest(CASES[name]()) == EXPECTED[name]
