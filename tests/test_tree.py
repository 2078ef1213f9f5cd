import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergorank.operators import (
    KIND_DENSE,
    KIND_DIAGONAL,
    OperatorSpec,
    basis_probes,
    default_probes,
    gallery,
)
from ergorank.tree import (
    TreeTruncation,
    best_chains,
    build_truncation,
    tree_to_dot,
    truncated_height,
)
from reference import node_member


def _seq(key):
    return tuple(map(int, key.split(",")))


def _brute_force_members(spec, probes, epsilon, depth_cap, index_bound):
    found = []
    for length in range(1, depth_cap + 1):
        for seq in itertools.combinations(range(1, index_bound + 1), length):
            if node_member(spec, seq, epsilon, probes).member:
                found.append(",".join(map(str, seq)))
    return set(found)


def test_node_member_frozen_shift_example():
    spec = gallery("left_shift_l1(128)")
    probes = basis_probes(128, "l1")
    res = node_member(spec, (1, 2, 4), 0.5, probes)
    assert res.member
    assert res.witness == 2
    assert res.margins == pytest.approx([1.0, 0.75], abs=1e-15)
    # prefix margins are a subset, so prefixes stay members
    assert node_member(spec, (1, 2), 0.5, probes).member
    assert node_member(spec, (1,), 0.5, probes) == (True, None, [])


def test_node_member_validation():
    spec = gallery("identity(4)")
    probes = basis_probes(4, "l2")
    with pytest.raises(ValueError):
        node_member(spec, (2, 2), 0.5, probes)
    with pytest.raises(ValueError):
        node_member(spec, (3, 1), 0.5, probes)
    with pytest.raises(ValueError):
        node_member(spec, (0, 1), 0.5, probes)
    with pytest.raises(ValueError):
        node_member(spec, (1, 2), 0.0, probes)


def test_dfs_matches_brute_force_on_shift():
    spec = gallery("left_shift_l1(64)")
    probes = default_probes(spec)
    trunc = build_truncation(spec, 0.5, depth_cap=3, index_bound=8, probes=probes)
    assert set(trunc.members) == _brute_force_members(spec, probes, 0.5, 3, 8)
    assert not trunc.partial
    # discovery order is depth-first lexicographic
    assert trunc.members == sorted(trunc.members, key=_seq)


def test_witnesses_recheck():
    spec = gallery("left_shift_l1(64)")
    probes = default_probes(spec)
    trunc = build_truncation(spec, 0.25, depth_cap=3, index_bound=8, probes=probes)
    for key in trunc.members:
        seq = _seq(key)
        wit = trunc.witnesses[key]
        if len(seq) == 1:
            assert wit is None
            continue
        res = node_member(spec, seq, 0.25, probes)
        assert res.member
        # the recorded witness is the lowest separating probe index
        assert res.witness == wit


def test_zero_heights_follow_harmonic_gaps():
    # Means of the zero operator are x/n, so a chain needs consecutive
    # gaps 1/n_i - 1/n_{i+1} > eps; heights are forced by how many such
    # gaps fit below 1.
    spec = gallery("zero(4)")
    probes = default_probes(spec)
    for k, expected in [(1, 1), (2, 2), (4, 3), (8, 5)]:
        trunc = build_truncation(spec, 1.0 / k, depth_cap=6, index_bound=32, probes=probes)
        assert truncated_height(trunc) == expected, k


def test_identity_height_one_at_every_epsilon():
    spec = gallery("identity(8)")
    probes = default_probes(spec)
    for eps in (1.0, 0.5, 0.25, 0.125, 1e-6):
        trunc = build_truncation(spec, eps, depth_cap=5, index_bound=16, probes=probes)
        assert truncated_height(trunc) == 1
        assert all("," not in key for key in trunc.members)


def test_budget_marks_partial():
    spec = gallery("left_shift_l1(64)")
    probes = default_probes(spec)
    trunc = build_truncation(spec, 0.25, depth_cap=4, index_bound=16, probes=probes, max_nodes=5)
    assert trunc.partial
    assert len(trunc.members) == 5
    full = build_truncation(spec, 0.25, depth_cap=4, index_bound=16, probes=probes)
    assert not full.partial
    assert trunc.members == full.members[:5]


@pytest.mark.parametrize("name, epsilon", [("rotation(1.0)", 0.25), ("zero(4)", 0.5)])
def test_a_budget_equal_to_the_member_count_cuts_nothing(name, epsilon):
    spec = gallery(name)
    probes = default_probes(spec)
    full = build_truncation(spec, epsilon, depth_cap=4, index_bound=32, probes=probes)
    count = len(full.members)
    assert not full.partial
    exact = build_truncation(spec, epsilon, depth_cap=4, index_bound=32, probes=probes,
                             max_nodes=count)
    assert not exact.partial
    assert exact.members == full.members and exact.witnesses == full.witnesses
    short = build_truncation(spec, epsilon, depth_cap=4, index_bound=32, probes=probes,
                             max_nodes=count - 1)
    assert short.partial
    assert short.members == full.members[:-1]


def test_truncation_holds_the_only_reference_to_its_members():
    # The depth-first walk is a recursive closure over the member list; a
    # closure left in a reference cycle would keep that list (and the rest
    # of the walk's state) alive until the next garbage collection.
    spec = gallery("left_shift_l1(64)")
    for max_nodes in (5, 10_000):
        trunc = build_truncation(spec, 0.25, depth_cap=4, index_bound=16,
                                 probes=default_probes(spec), max_nodes=max_nodes)
        refs = sys.getrefcount(trunc.members)  # outside the rewritten assert
        assert refs == 2  # the attribute and the call's argument


def test_dot_rendering():
    spec = gallery("zero(4)")
    probes = default_probes(spec)
    trunc = build_truncation(spec, 0.5, depth_cap=2, index_bound=4, probes=probes)
    dot = tree_to_dot(trunc)
    assert dot.startswith("digraph")
    assert 'root [label="()"]' in dot
    assert 'root -> "1";' in dot
    assert '"1" -> "1,3";' in dot


def _truncation(members, witnesses):
    return TreeTruncation(epsilon=0.5, depth_cap=3, index_bound=4, probe_label="hand-built",
                          members=members, witnesses=witnesses, partial=False)


_DOT_HEAD = 'digraph separation_tree {\n  node [shape=box, fontsize=10];\n  root [label="()"];\n'


def test_dot_of_an_empty_truncation_is_the_root_alone():
    assert tree_to_dot(_truncation([], {})) == _DOT_HEAD + "}\n"


def test_dot_labels_a_node_without_a_witness_by_its_key_alone():
    # A non-singleton whose witness is None, and a key missing from
    # `witnesses`, both render without a probe line.
    trunc = _truncation(["1", "1,2", "1,2,4", "3"], {"1": None, "1,2": None, "1,2,4": 7})
    assert tree_to_dot(trunc) == _DOT_HEAD + (
        '  "1" [label="(1)"];\n'
        '  root -> "1";\n'
        '  "1,2" [label="(1,2)"];\n'
        '  "1" -> "1,2";\n'
        '  "1,2,4" [label="(1,2,4)\\nprobe 7"];\n'
        '  "1,2" -> "1,2,4";\n'
        '  "3" [label="(3)"];\n'
        '  root -> "3";\n'
        "}\n"
    )


def test_longest_members():
    spec = gallery("zero(4)")
    probes = default_probes(spec)
    trunc = build_truncation(spec, 0.5, depth_cap=4, index_bound=8, probes=probes)
    assert truncated_height(trunc) == 2
    longest = [seq for seq in map(_seq, trunc.members) if len(seq) == truncated_height(trunc)]
    assert (1, 3) in longest
    assert all(len(seq) == 2 for seq in longest)


def test_prefix_closure_and_antitonicity_random_specs(rng):
    for case in range(30):
        dim = int(rng.integers(2, 6))
        if case % 2:
            entries = rng.uniform(-1, 1, size=(dim, dim))
            entries /= max(1.0, np.abs(np.linalg.eigvals(entries)).max())
            spec = OperatorSpec(KIND_DENSE, dim, entries, "l2")
        else:
            spec = OperatorSpec(KIND_DIAGONAL, dim, rng.uniform(-1, 1, size=dim), "l2")
        probes = default_probes(spec, random_count=4)
        eps_hi, eps_lo = 0.5, 0.2
        hi = build_truncation(spec, eps_hi, depth_cap=4, index_bound=10, probes=probes)
        lo = build_truncation(spec, eps_lo, depth_cap=4, index_bound=10, probes=probes)
        members_hi, members_lo = set(hi.members), set(lo.members)
        # prefix closure
        for key in members_hi:
            seq = _seq(key)
            if len(seq) > 1:
                assert ",".join(map(str, seq[:-1])) in members_hi
        # membership is antitone in epsilon
        assert members_hi <= members_lo


# -- best chains against brute force --------------------------------------


def _brute_force_best(margins, depth, n, q):
    """The largest minimum margin over every increasing chain of depth + 1
    indices <= B that starts at n, listed one by one."""
    if depth == 0:
        return np.inf
    bound = margins.shape[0] - 1
    best = -np.inf
    for rest in itertools.combinations(range(n + 1, bound + 1), depth):
        chain = (n, *rest)
        best = max(best, min(margins[a, b, q] for a, b in zip(chain, chain[1:])))
    return best


@given(
    st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(1, 3), st.integers(0, 4)
)
@settings(max_examples=60)
def test_best_chains_match_brute_force(seed, bound, probes, depth):
    # Few distinct values, so ties are common; -inf cells are pairs that no
    # probe reached, and every pair outside 1 <= n < m <= B is -inf, as in
    # a margin tensor.
    rng = np.random.default_rng(seed)
    values = rng.choice([-np.inf, 0.0, 0.25, 0.5, 1.0, 2.0], size=(bound + 1, bound + 1, probes))
    upper = np.triu(np.ones((bound + 1, bound + 1), dtype=bool), k=1)
    upper[0] = False
    margins = np.where(upper[:, :, None], values, -np.inf)
    best = best_chains(margins, depth)
    assert best.shape == (depth + 1, bound + 1, probes)
    for d, n, q in itertools.product(range(depth + 1), range(bound + 1), range(probes)):
        assert best[d, n, q] == _brute_force_best(margins, d, n, q)
