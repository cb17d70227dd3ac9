"""Hook statistics, pruning, and the skeleton/forest decomposition."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hooktrees.hooks import (
    compose,
    decompose,
    first_kind_hooks,
    forest_hooks,
    prune,
    second_kind_hooks,
    standard_hooks,
)
from hooktrees.trees import (
    MAryTree,
    Node,
    PlaneForest,
    decode,
    enumerate_forests,
    enumerate_trees,
    psi,
)

from test_trees import mary_trees

TERNARY = decode("1100010000", 3)


def internal_nodes(tree: MAryTree) -> list[Node]:
    """Internal nodes in preorder, the oracles' way into each subtree."""
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node:
            out.append(node)
            stack.extend(reversed(node))
    return out


def test_standard_hooks_examples():
    assert standard_hooks(decode("11000", 2)) == [2, 1]
    assert standard_hooks(decode("100", 2)) == [1]
    assert standard_hooks(TERNARY) == [3, 1, 1]
    assert standard_hooks(MAryTree(2)) == []


def test_standard_hook_of_root_is_internal_count():
    for tree in enumerate_trees(3, 3):
        assert standard_hooks(tree)[0] == 3


def test_first_kind_hooks_examples():
    assert first_kind_hooks(decode("11000", 2)) == [2, 1]
    assert first_kind_hooks(decode("10100", 2)) == [1, 1]


def test_first_kind_bounded_by_standard():
    for tree in enumerate_trees(3, 4):
        h = standard_hooks(tree)
        hcal = first_kind_hooks(tree)
        assert len(h) == len(hcal)
        assert all(1 <= c <= s for s, c in zip(h, hcal))


def test_first_kind_on_binary_counts_left_subtree():
    for tree in enumerate_trees(2, 5):
        hcal = first_kind_hooks(tree)
        left = [MAryTree(2, node[0]).internal_count() for node in internal_nodes(tree)]
        assert hcal == [1 + size for size in left]


def test_second_kind_empty_set_is_standard():
    for tree in enumerate_trees(3, 3):
        assert second_kind_hooks(tree, ()) == standard_hooks(tree)


def test_second_kind_examples():
    assert second_kind_hooks(TERNARY, {2}) == [2, 1, 1]
    # with both prunable positions gone only last-child chains survive
    assert second_kind_hooks(TERNARY, {1, 2}) == [1, 1, 1]


def test_second_kind_rejects_bad_positions():
    with pytest.raises(ValueError):
        second_kind_hooks(TERNARY, {3})
    with pytest.raises(ValueError):
        second_kind_hooks(TERNARY, {0})


def test_prune_identity_and_examples():
    assert prune(TERNARY, ()) == TERNARY
    assert prune(TERNARY, {2}) == decode("11000", 2)
    assert prune(decode("1000", 3), {1, 2}) == decode("10", 1)


def test_prune_produces_complete_trees():
    for tree in enumerate_trees(3, 3):
        for positions in ((), {1}, {2}, {1, 2}):
            pruned = prune(tree, positions)
            assert pruned.arity == 3 - len(positions)
            pruned.check()


def oracle_second_kind(tree: MAryTree, positions) -> list[int]:
    """The slow route: prune each subtree separately and count."""
    return [
        prune(MAryTree(tree.arity, node), positions).internal_count()
        for node in internal_nodes(tree)
    ]


def test_second_kind_agrees_with_prune_oracle_exhaustive():
    for arity in (2, 3):
        for n in range(4):
            for tree in enumerate_trees(arity, n):
                for positions in _subsets(arity - 1):
                    assert second_kind_hooks(tree, positions) == oracle_second_kind(
                        tree, positions
                    )


@given(mary_trees(), st.data())
def test_second_kind_agrees_with_prune_oracle_random(tree, data):
    positions = data.draw(st.frozensets(st.integers(1, tree.arity - 1)))
    assert second_kind_hooks(tree, positions) == oracle_second_kind(tree, positions)


@given(mary_trees(), st.data())
def test_hooks_agree_with_subtree_oracles(tree, data):
    positions = data.draw(st.frozensets(st.integers(1, tree.arity - 1)))
    nodes = internal_nodes(tree)

    def size(node):
        return MAryTree(tree.arity, node).internal_count()

    assert standard_hooks(tree) == [size(node) for node in nodes]
    assert first_kind_hooks(tree) == [1 + sum(map(size, node[:-1])) for node in nodes]
    assert second_kind_hooks(tree, positions) == oracle_second_kind(tree, positions)


def _subsets(m):
    subs = [frozenset()]
    for p in range(1, m + 1):
        subs += [s | {p} for s in subs]
    return subs


def test_forest_hooks_examples():
    assert forest_hooks(PlaneForest(((),))) == [1]
    assert forest_hooks(PlaneForest((((),),))) == [2, 1]
    assert forest_hooks(PlaneForest(((), ()))) == [1, 1]
    assert forest_hooks(PlaneForest()) == []


def test_forest_hook_multiset_matches_first_kind_under_psi():
    # psi keeps preorder, so the hooks agree vertex by vertex, not just as multisets
    for n in range(7):
        for forest in enumerate_forests(n):
            assert forest_hooks(forest) == first_kind_hooks(psi(forest))


def test_decompose_examples():
    tree = decode("1000", 3)
    assert decompose(tree, ()) == (tree, ())

    skeleton, forest = decompose(TERNARY, {2})
    assert skeleton == decode("11000", 2)
    assert [piece.encode() for piece in forest] == ["1000", "0"]
    assert all(piece.arity == 3 for piece in forest)


def test_decompose_requires_internal_vertex():
    with pytest.raises(ValueError):
        decompose(MAryTree(3), {1})


def test_compose_inverts_decompose_example():
    skeleton = decode("11000", 2)
    forest = (decode("1000", 3), decode("0", 3))
    assert compose(skeleton, forest, {2}) == TERNARY


def test_compose_rejects_mismatches():
    skeleton = decode("11000", 2)
    with pytest.raises(ValueError):
        compose(skeleton, (decode("1000", 3),), {2})  # too short
    with pytest.raises(ValueError):
        compose(skeleton, (decode("0", 2), decode("0", 2)), {2})  # wrong arity


def test_decompose_compose_round_trip_exhaustive():
    for arity in (2, 3, 4):
        for n in range(1, 4):
            for tree in enumerate_trees(arity, n):
                for positions in _subsets(arity - 1):
                    skeleton, forest = decompose(tree, positions)
                    assert skeleton.arity == arity - len(positions)
                    assert len(forest) == len(positions) * skeleton.internal_count()
                    total = skeleton.internal_count() + sum(
                        piece.internal_count() for piece in forest
                    )
                    assert total == tree.internal_count()
                    assert compose(skeleton, forest, positions) == tree

