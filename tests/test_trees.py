"""Tree/forest enumeration, preorder codes, and the forest bijection."""

import json
import math
import operator
import os
import pickle
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hooktrees import trees
from hooktrees.hooks import compose, decompose, prune
from hooktrees.trees import (
    DecodeError,
    LEAF,
    MAryTree,
    PlaneForest,
    count_trees,
    decode,
    enumerate_forests,
    enumerate_trees,
    psi,
    psi_inverse,
)


@st.composite
def mary_nodes(draw, arity, size):
    if size == 0:
        return LEAF
    remaining = size - 1
    parts = []
    for _ in range(arity - 1):
        take = draw(st.integers(0, remaining))
        parts.append(take)
        remaining -= take
    parts.append(remaining)
    return tuple(draw(mary_nodes(arity, p)) for p in parts)


@st.composite
def mary_trees(draw, min_arity=2, max_arity=4, max_size=5):
    arity = draw(st.integers(min_arity, max_arity))
    size = draw(st.integers(0, max_size))
    return MAryTree(arity, draw(mary_nodes(arity, size)))


def test_count_trees_values():
    assert count_trees(2, 0) == 1
    assert count_trees(2, 3) == 5
    assert count_trees(3, 3) == 12
    assert count_trees(1, 7) == 1
    with pytest.raises(ValueError):
        count_trees(0, 2)
    with pytest.raises(ValueError):
        count_trees(2, -1)


def test_enumerate_single_tree():
    trees = list(enumerate_trees(2, 1))
    assert len(trees) == 1
    assert trees[0] == MAryTree(2, (LEAF, LEAF))
    assert trees[0].encode() == "100"


def test_enumerate_order_is_canonical():
    assert [t.encode() for t in enumerate_trees(2, 2)] == ["10100", "11000"]
    assert [t.encode() for t in enumerate_trees(3, 2)] == [
        "1001000",
        "1010000",
        "1100000",
    ]


def test_enumerate_matches_count_by_brute_force():
    for arity in (1, 2, 3, 4, 5):
        for n in range(6):
            codes = [t.encode() for t in enumerate_trees(arity, n)]
            assert len(codes) == count_trees(arity, n)
            assert len(set(codes)) == len(codes)


def test_enumerated_trees_are_complete():
    for arity in (2, 3, 4):
        for n in range(5):
            for tree in enumerate_trees(arity, n):
                tree.check()
                assert tree.internal_count() == n
                assert tree.leaf_count() == (arity - 1) * n + 1


def _reference_nodes(arity, n):
    """Every node with n internal vertices, by plain recursion in canonical order."""
    if n == 0:
        return [LEAF]
    nodes = []
    for comp in _reference_compositions(n - 1, arity):
        children = [()]
        for part in comp:
            children = [rest + (child,) for rest in children for child in _reference_nodes(arity, part)]
        nodes += children
    return nodes


def _reference_compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [(head,) + tail for head in range(total + 1)
            for tail in _reference_compositions(total - head, parts - 1)]


@pytest.mark.parametrize("cap, limit", [(None, 10_000), (0, 1_000), (1, 1_000), (5, 1_000)])
def test_enumeration_matches_the_reference_enumerator(monkeypatch, cap, limit):
    # a low cap sends every size above it through the streaming recursion
    if cap is not None:
        monkeypatch.setattr(trees, "_SUBTREE_LIST_CAP", cap)
    for arity in (1, 2, 3, 4, 5):
        for n in range(12):
            if count_trees(arity, n) <= limit:
                roots = [tree.root for tree in enumerate_trees(arity, n)]
                assert roots == _reference_nodes(arity, n), (arity, n)


def test_subtree_lists_are_kept_and_cut_to_the_current_cap(monkeypatch):
    built = trees._subtree_lists(2, 10)
    assert [len(level) for level in built] == [count_trees(2, k) for k in range(10)]
    again = trees._subtree_lists(2, 6)
    assert len(again) == 6 and all(a is b for a, b in zip(again, built))
    assert trees._subtree_lists(2, 0) == [[LEAF]]
    # every enumeration of an arity builds its trees from the same child objects
    first, second = enumerate_trees(2, 7), enumerate_trees(2, 7)
    assert all(a.root[0] is b.root[0] and a.root[1] is b.root[1] for a, b in zip(first, second))
    # a lower cap streams the sizes above it, whatever was listed before
    monkeypatch.setattr(trees, "_SUBTREE_LIST_CAP", 0)
    assert trees._subtree_lists(2, 8) == [[LEAF]]


def test_subtree_lists_stop_below_the_size_asked_for():
    assert [len(level) for level in trees._subtree_lists(2, 5)] == [1, 1, 2, 5, 14]


def test_enumeration_builds_no_tree_in_python():
    # Each tree is one tuple built in C: no constructor frame per tree.  Every
    # root composition here is made of listed sizes, so it streams through
    # ``product`` and ``chain``; the stream's own frames (each start or
    # resumption is a "call" event) open a few times per composition, to
    # make and pick its product, never once per tree.
    for m, n in [(2, 9), (3, 7)]:
        list(enumerate_trees(m, n))  # list the smaller sizes first
        built = stream = 0

        def count(frame, event, arg):
            nonlocal built, stream
            if event == "call":
                name = frame.f_code.co_name
                built += name in ("__new__", "__init__")
                in_trees = frame.f_code.co_filename == trees.__file__
                stream += in_trees and name in ("_nodes", "_children", "<genexpr>")

        sys.setprofile(count)
        try:
            streamed = list(enumerate_trees(m, n))
        finally:
            sys.setprofile(None)
        assert len(streamed) == count_trees(m, n) and built == 0
        assert stream < 10 * math.comb(n + m - 2, m - 1), (m, n, stream)


def test_enumeration_is_lazy():
    # the universe for n = 40 is astronomically large; taking a prefix
    # must not materialize it
    first = list(islice(enumerate_trees(2, 40), 3))
    assert len(first) == 3
    assert first[0].internal_count() == 40


def test_a_deep_universe_streams_its_first_tree():
    # Each streamed size nests one generator expression, so the first tree of
    # a universe 400 sizes deep comes out at the default recursion limit.
    assert next(enumerate_trees(2, 400)).encode() == "10" * 400 + "0"
    assert next(enumerate_forests(400)) == PlaneForest(((),) * 400)


@pytest.mark.parametrize(
    "stream", [lambda: enumerate_trees(2, 5000), lambda: enumerate_forests(5000)], ids=["trees", "forests"]
)
def test_too_deep_an_enumeration_names_n_and_the_limit(stream):
    # Streaming nests one generator expression per size above the listed ones.
    with pytest.raises(ValueError, match=rf"n = 5000 .*\({sys.getrecursionlimit()}\)"):
        next(stream())


@pytest.mark.parametrize("m, n", [(2, 11), (3, 8)])
def test_small_subtrees_of_enumerated_trees_are_shared(m, n):
    # The hook memos store only ids in ``trees._SHARED``.  If the enumerator
    # built a subtree no larger than the largest listed size afresh, they
    # would silently stop hitting on it.
    fresh_sizes = set()
    for top in enumerate_trees(m, n):
        stack = list(top.root)
        while stack:
            node = stack.pop()
            if id(node) not in trees._SHARED:
                fresh_sizes.add(MAryTree(m, node).internal_count())
                stack += node
    levels = trees._SUBTREE_LISTS[m]
    assert all(size > len(levels) - 1 for size in fresh_sizes)
    # a listed subtree's own subtrees are listed too
    assert all(id(child) in trees._SHARED for level in levels for node in level for child in node)


def test_first_use_of_an_arity_in_threads_lists_each_level_once():
    # Eight threads at a time make the first use of arities 3, 4 and 5, and
    # through the forest rows of arity 2, switching as often as possible.  The
    # lists are global to the process, so the check runs in a fresh one.
    script = (
        "import json, sys, threading\n"
        "sys.setswitchinterval(1e-6)\n"
        "from hooktrees import trees\n"
        "from hooktrees.identities import IdentitySpec, check_identity\n"
        "specs = [IdentitySpec('thm1_1_eq1_7', m=3, n=7), IdentitySpec('thm1_1_eq1_7', m=4, n=6),\n"
        "         IdentitySpec('thm1_1_eq1_7', m=5, n=5), IdentitySpec('forest_1_3b', n=9)]\n"
        "reports = []\n"
        "threads = [threading.Thread(target=lambda s=s: reports.append(check_identity(s)))\n"
        "           for s in specs for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=120)\n"
        "lists = trees._SUBTREE_LISTS\n"
        "print(json.dumps({\n"
        "    'alive': sum(t.is_alive() for t in threads),\n"
        "    'reports': sorted((r.spec.m or 2, r.passed, r.trees_visited) for r in reports),\n"
        "    'levels': {m: [len(level) for level in lists[m]] for m in (2, 3, 4, 5)},\n"
        "    'unshared': sum(id(node) not in trees._SHARED for levels in lists.values()\n"
        "                    for level in levels for node in level),\n"
        "}))\n"
    )
    src = str(Path(trees.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["alive"] == 0
    expected = {2: count_trees(2, 9), 3: count_trees(3, 7), 4: count_trees(4, 6), 5: count_trees(5, 5)}
    assert got["reports"] == sorted([m, True, count] for m, count in expected.items() for _ in range(8))
    for m, sizes in got["levels"].items():
        assert sizes == [count_trees(int(m), k) for k in range(len(sizes))]
    assert got["unshared"] == 0


def test_encode_examples():
    assert MAryTree(2).encode() == "0"
    assert MAryTree(7).encode() == "0"
    assert MAryTree(2, ((LEAF, LEAF), LEAF)).encode() == "11000"
    ternary = MAryTree(3, ((LEAF, LEAF, LEAF), (LEAF, LEAF, LEAF), LEAF))
    assert ternary.encode() == "1100010000"


def test_decode_examples():
    assert decode("0", 2) == MAryTree(2)
    assert decode("11000", 2) == MAryTree(2, ((LEAF, LEAF), LEAF))
    assert decode("10", 1) == MAryTree(1, (LEAF,))


def test_decode_rejects_truncated_code():
    with pytest.raises(DecodeError) as err:
        decode("110", 2)
    assert err.value.position == 3
    with pytest.raises(DecodeError):
        decode("", 2)


def test_decode_rejects_trailing_characters():
    with pytest.raises(DecodeError) as err:
        decode("00", 2)
    assert err.value.position == 1
    with pytest.raises(DecodeError) as err:
        decode("100100", 2)
    assert err.value.position == 3


def test_decode_rejects_bad_alphabet():
    with pytest.raises(DecodeError) as err:
        decode("1x000", 2)
    assert err.value.position == 1


@given(mary_trees())
def test_decode_inverts_encode(tree):
    assert decode(tree.encode(), tree.arity) == tree


def test_encode_inverts_decode_on_all_small_codes():
    for arity in (2, 3):
        for n in range(4):
            for tree in enumerate_trees(arity, n):
                code = tree.encode()
                assert decode(code, arity).encode() == code


def test_plane_forest_vertex_count():
    assert PlaneForest().vertex_count() == 0
    assert PlaneForest(((), ())).vertex_count() == 2
    assert PlaneForest((((),),)).vertex_count() == 2


def test_psi_examples():
    assert psi(PlaneForest()).encode() == "0"
    assert psi(PlaneForest(((),))).encode() == "100"
    assert psi(PlaneForest((((),),))).encode() == "11000"
    assert psi(PlaneForest(((), ()))).encode() == "10100"


def test_psi_inverse_examples():
    assert psi_inverse(decode("10100", 2)) == PlaneForest(((), ()))
    assert psi_inverse(decode("11000", 2)) == PlaneForest((((),),))
    with pytest.raises(ValueError):
        psi_inverse(MAryTree(3))


def test_psi_preserves_size():
    for n in range(6):
        for forest in enumerate_forests(n):
            image = psi(forest)
            assert image.internal_count() == forest.vertex_count() == n


def test_psi_round_trips():
    for n in range(7):
        for tree in enumerate_trees(2, n):
            assert psi(psi_inverse(tree)) == tree
        for forest in enumerate_forests(n):
            assert psi_inverse(psi(forest)) == forest


def _right_comb(size):
    node = LEAF
    for _ in range(size):
        node = (LEAF, node)
    return MAryTree(2, node)


def _path(size):
    node = ()
    for _ in range(size - 1):
        node = (node,)
    return node


def test_psi_round_trips_long_right_spines():
    forest = PlaneForest(((),) * 5000)
    comb = _right_comb(5000)
    assert comb.encode() == "10" * 5000 + "0"
    assert psi(forest) == comb
    assert psi_inverse(comb) == forest
    assert psi_inverse(psi(forest)) == forest
    assert psi(psi_inverse(comb)) == comb


def test_deep_trees_compare_and_hash():
    one, two = _right_comb(5000), _right_comb(5000)
    assert one.root is not two.root
    assert one == two and hash(one) == hash(two)
    assert len({one, two}) == 1
    assert one != _right_comb(4999)
    assert one != MAryTree(3, one.root)
    assert MAryTree(2, ((LEAF, LEAF), LEAF)) != MAryTree(2, (LEAF, (LEAF, LEAF)))
    first, second = PlaneForest((_path(5000),)), PlaneForest((_path(5000),))
    assert first.trees[0] is not second.trees[0]
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    assert first != PlaneForest((_path(4999),))
    assert PlaneForest(((), ((),))) != PlaneForest((((),), ()))
    assert repr(one) == f"MAryTree(arity=2, code='{'10' * 5000}0')"
    assert repr(first) == f"PlaneForest(child_counts={[1] * 5000 + [0]})"
    assert repr(MAryTree(2, ((LEAF, LEAF), LEAF))) == "MAryTree(arity=2, code='11000')"
    assert repr(PlaneForest(((), ((),)))) == "PlaneForest(child_counts=[2, 0, 1, 0])"


def test_a_tree_is_a_value_of_its_own_type():
    tree = list(enumerate_trees(3, 4))[7]
    copy = decode(tree.encode(), 3)
    assert copy.root is not tree.root
    assert tree == copy and hash(tree) == hash(copy)
    back = pickle.loads(pickle.dumps(tree))
    assert type(back) is MAryTree and back == copy and hash(back) == hash(copy)
    # a tuple underneath, but never equal to a plain one and never ordered
    plain = (3, tree.root)
    assert tree != plain and plain != tree
    assert not tree == plain and not plain == tree
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        for left, right in ((tree, tree), (tree, plain), (plain, tree)):
            with pytest.raises(TypeError):
                compare(left, right)
    with pytest.raises(AttributeError):
        tree.arity = 3
    with pytest.raises(AttributeError):
        tree.root = LEAF
    skeleton, forest = decompose(tree, {1})
    made = [
        tree, copy, back, prune(tree, {1}), skeleton, *forest, compose(skeleton, forest, {1}),
        psi(PlaneForest(((), ((),)))),
    ]
    assert all(type(t) is MAryTree for t in made)


def test_hash_of_a_million_deep_tree_and_forest_does_not_crash():
    # Hashing nested root tuples this deep overflowed the C stack and killed the
    # interpreter, so the check runs in a child process.
    script = (
        "from hooktrees.trees import PlaneForest, decode\n"
        "tree = decode('1' * 10**6 + '0' * (10**6 + 1), 2)\n"
        "node = ()\n"
        "for _ in range(10**6):\n"
        "    node = (node,)\n"
        "print(type(hash(tree)).__name__, type(hash(PlaneForest((node,)))).__name__)\n"
    )
    src = str(Path(trees.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["int", "int"]


def test_psi_maps_a_deep_path_and_round_trips():
    forest = PlaneForest((_path(5000),))
    left_comb = decode("1" * 5000 + "0" * 5001, 2)
    assert psi(forest) == left_comb
    assert psi_inverse(psi(forest)) == forest


@pytest.mark.parametrize("cap", [None, 0, 5])
def test_enumerate_forests_is_the_pullback_in_order(monkeypatch, cap):
    # A low cap streams the binary trees above it, built afresh.
    if cap is not None:
        monkeypatch.setattr(trees, "_SUBTREE_LIST_CAP", cap)
    for n in range(11 if cap is None else 8):
        forests = list(enumerate_forests(n))
        assert forests == [psi_inverse(tree) for tree in enumerate_trees(2, n)], n
        assert [psi(f) for f in forests] == list(enumerate_trees(2, n)), n


def _child_count_sequences(n):
    """Every (trees, [c_1, ..., c_n]) that is the preorder child-count list of a plane forest."""

    def extend(counts, pending):
        # ``pending`` vertices are named by a parent or the forest but not yet read.
        if len(counts) == n:
            yield counts
            return
        if not pending:
            return
        for c in range(n - len(counts) - pending + 1):
            yield from extend(counts + [c], pending - 1 + c)

    for k in range(1, n + 1) if n else [0]:
        yield from ((k, counts) for counts in extend([], k))


def _forest_of(k, counts):
    it = iter(counts)

    def tree():
        return tuple(tree() for _ in range(next(it)))

    return tuple(tree() for _ in range(k))


def test_enumerate_forests_yields_every_plane_forest_once():
    # An oracle that does not go through psi: forests read off their child counts.
    for n in range(9):
        brute = sorted(_forest_of(k, counts) for k, counts in _child_count_sequences(n))
        assert len(brute) == len(set(brute)) == count_trees(2, n)
        assert sorted(f.trees for f in enumerate_forests(n)) == brute, n


def test_enumerate_forests_counts():
    assert [f for f in enumerate_forests(0)] == [PlaneForest()]
    two = list(enumerate_forests(2))
    assert len(two) == 2
    assert set(two) == {PlaneForest(((), ())), PlaneForest((((),),))}
    assert len(list(enumerate_forests(3))) == 5
