"""Hook statistics, pruning, and the skeleton/forest decomposition."""

import sys
import threading
from collections import Counter
from dataclasses import replace
from itertools import islice
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hooktrees import hooks, identities, trees
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
    LEAF,
    MAryTree,
    Node,
    PlaneForest,
    count_trees,
    decode,
    enumerate_forests,
    enumerate_trees,
    psi,
    psi_inverse,
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
    with pytest.raises(ValueError):
        second_kind_hooks(TERNARY, {True})


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


def oracle_hooks(tree: MAryTree, kind: str, positions) -> list[int]:
    nodes = internal_nodes(tree)

    def size(node):
        return MAryTree(tree.arity, node).internal_count()

    if kind == "standard":
        return [size(node) for node in nodes]
    if kind == "first":
        return [1 + sum(map(size, node[:-1])) for node in nodes]
    return oracle_second_kind(tree, positions)


HOOKS = {
    "standard": lambda tree, positions: standard_hooks(tree),
    "first": lambda tree, positions: first_kind_hooks(tree),
    "second": second_kind_hooks,
}


@given(st.data())
def test_interleaved_hook_calls_agree_with_the_oracles(data):
    # Enumerated trees share their subtrees, decoded ones do not; the calls
    # switch kind and position set (reused, equal or as another type) freely.
    arity = data.draw(st.integers(2, 4))
    universe = list(enumerate_trees(arity, data.draw(st.integers(0, 7 - arity))))
    subsets = _subsets(arity - 1)
    for _ in range(data.draw(st.integers(1, 12))):
        if data.draw(st.booleans()):
            tree = data.draw(st.sampled_from(universe))
        else:
            tree = data.draw(mary_trees(arity, arity))
        kind = data.draw(st.sampled_from(sorted(HOOKS)))
        positions = data.draw(st.sampled_from(subsets))
        positions = data.draw(st.sampled_from((lambda p: p, frozenset, set, sorted)))(positions)
        assert HOOKS[kind](tree, positions) == oracle_hooks(tree, kind, positions)


def test_hooks_stay_right_when_trees_are_dropped():
    # Decoded subtrees are freed with their tree: a later tree must never get
    # a stale hit from a reused id.
    list(enumerate_trees(2, 8))  # lists the subtrees up to size 7
    codes = [tree.encode() for n in range(8) for tree in enumerate_trees(2, n)]
    rng = Random(11)
    for _ in range(600):
        tree = decode(rng.choice(codes), 2)
        kind = rng.choice(sorted(HOOKS))
        positions = rng.choice(((), (1,)))
        assert HOOKS[kind](tree, positions) == oracle_hooks(tree, kind, positions)
        del tree


@pytest.mark.parametrize(
    "kind, positions",
    [("standard", ()), ("first", ()), ("second", frozenset({1}))],
    ids=["standard", "first", "second"],
)
def test_memo_stays_bounded_over_a_streamed_universe(monkeypatch, kind, positions):
    # count_trees(2, 10) is above the cap, so n = 11 streams its size-10 subtrees,
    # and the root's children of that size miss the memo.  Every listed
    # subtree of sizes 1..9 is met, and only those are memoized.  The walk
    # starts from a fresh memo: a mode's memo also holds other arities' nodes.
    assert count_trees(2, 10) > trees._SUBTREE_LIST_CAP
    monkeypatch.setattr(hooks, "_state", (0, hooks._NO_POSITIONS, False, {}))
    for i, tree in enumerate(enumerate_trees(2, 11)):
        values = HOOKS[kind](tree, positions)
        if i % 5000 == 0:
            assert values == oracle_hooks(tree, kind, positions)
    levels = trees._SUBTREE_LISTS[2]
    assert len(levels) - 1 < 10
    memo = hooks._state[-1]
    assert len(memo) == sum(map(len, levels[1:])) == 6917
    assert set(memo) <= trees._SHARED
    assert max(len(below) for _, below in memo.values()) <= len(levels) - 1


def _memoized_nodes_are_shared(memo, kept):
    return memo and set(memo) <= trees._SHARED and not set(memo) & kept


def test_memos_never_hold_decoded_nodes():
    # Decoded trees come between enumerated ones in every hook mode.  They
    # stay alive, so their ids cannot be reused, and no memo may hold any of them.
    rng = Random(3)
    kept = set()
    for arity, n in ((2, 8), (3, 5)):
        universe = list(enumerate_trees(arity, n))
        decoded = [decode(rng.choice(universe).encode(), arity) for _ in range(40)]
        kept.update(id(node) for tree in decoded for node in internal_nodes(tree))
        modes = [("standard", ()), ("first", ())] + [("second", s) for s in _subsets(arity - 1)[1:]]
        for kind, positions in modes:
            for i, tree in enumerate(universe):
                assert HOOKS[kind](tree, positions) == oracle_hooks(tree, kind, positions)
                if i % 10 == 0:
                    other = decoded[i // 10 % len(decoded)]
                    assert HOOKS[kind](other, positions) == oracle_hooks(other, kind, positions)
            assert _memoized_nodes_are_shared(hooks._state[-1], kept)


def test_hook_modes_in_threads_do_not_mix():
    # More threads than cores, each in its own mode over one shared universe
    # of two arities, switching often: a walk must never read another mode's
    # memo.  Every mode but S = {2} walks both arities through one memo.
    universe = list(enumerate_trees(3, 5)) + list(enumerate_trees(2, 6))
    modes = [("standard", ()), ("first", ())] + [("second", frozenset({p})) for p in (1, 2)]
    walked = {mode: [tree for tree in universe if max(mode[1], default=0) < tree.arity] for mode in modes}
    expected = {mode: [oracle_hooks(tree, *mode) for tree in walked[mode]] for mode in modes}
    wrong = []

    def work(kind, positions):
        for _ in range(4):
            got = [HOOKS[kind](tree, positions) for tree in walked[kind, positions]]
            if got != expected[kind, positions]:
                wrong.append(kind)

    workers = [threading.Thread(target=work, args=mode) for mode in modes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert wrong == []


@pytest.mark.parametrize("levels", [3000, 100_000])
def test_hooks_on_deep_combs(levels):
    # The walk keeps its own stack, so depth past the recursion limit is fine.
    # A right comb's standard hooks run L..1 and its first-kind hooks are all
    # 1; a left comb's are L..1 both.  Pruning the left children keeps the
    # right comb whole and cuts the left comb to single vertices.
    right = decode("10" * levels + "0", 2)
    left = decode("1" * levels + "0" * (levels + 1), 2)
    down, ones = list(range(levels, 0, -1)), [1] * levels
    for tree, hcal, hbb in ((right, ones, down), (left, down, ones)):
        assert standard_hooks(tree) == down
        assert first_kind_hooks(tree) == hcal
        assert second_kind_hooks(tree, {1}) == hbb
    assert standard_hooks(TERNARY) == [3, 1, 1]  # and a shallow tree after them


@given(mary_trees(), st.data())
def test_deep_walk_agrees_with_the_oracles(tree, data):
    # T hangs as the last child at the bottom of a 3,000-vertex right spine
    # whose other children are leaves.  Spine vertex j, counted from the
    # bottom, has h = |T| + j, hcal = 1 and hbb = hbb(T's root) + j.
    positions = data.draw(st.frozensets(st.integers(1, tree.arity - 1)))
    spine, node = 3000, tree.root
    for _ in range(spine):
        node = (LEAF,) * (tree.arity - 1) + (node,)
    deep = MAryTree(tree.arity, node)
    size = tree.internal_count()
    below = oracle_hooks(tree, "second", positions)
    expected = {
        "standard": [size + j for j in range(spine, 0, -1)],
        "first": [1] * spine,
        "second": [(below[0] if below else 0) + j for j in range(spine, 0, -1)],
    }
    for kind, values in expected.items():
        assert HOOKS[kind](deep, positions) == values + oracle_hooks(tree, kind, positions)


def test_each_hook_call_is_one_walk_frame():
    # Root children that miss the memo (each tree's size-10 child) and a
    # comb past the recursion limit still cost no second _walk frame.
    code, frames = hooks._walk.__code__, 0

    def count(frame, event, arg):
        nonlocal frames
        frames += event == "call" and frame.f_code is code

    shapes = [*islice(enumerate_trees(2, 11), 2000), decode("10" * 3000 + "0", 2)]
    modes = (("standard", ()), ("first", ()), ("second", frozenset({1})))
    sys.setprofile(count)
    try:
        for kind, positions in modes:
            for tree in shapes:
                HOOKS[kind](tree, positions)
    finally:
        sys.setprofile(None)
    assert frames == len(modes) * len(shapes) == 6003


@pytest.mark.parametrize("kind", ["standard", "first", "second"])
def test_hooks_reject_a_bare_node(kind):
    # A node or a plain (arity, root) pair has no ``arity`` attribute to read.
    for bare in ((LEAF, LEAF), (2, (LEAF, LEAF))):
        with pytest.raises(AttributeError):
            HOOKS[kind](bare, ())


def test_hook_lists_are_fresh_and_positions_checked_per_arity():
    tree = next(enumerate_trees(2, 6))
    values = standard_hooks(tree)
    values[0] = 0
    values.append(99)
    assert standard_hooks(tree) == oracle_hooks(tree, "standard", ())
    three = frozenset({3})
    assert second_kind_hooks(decode("10000", 4), three) == [1]
    with pytest.raises(ValueError):
        second_kind_hooks(decode("11000", 2), three)
    with pytest.raises(ValueError):
        second_kind_hooks(decode("10000", 4), {3.0})


def test_one_memo_serves_every_arity_of_a_mode():
    # First-kind walks over arity 2, then 3, then 2 again keep one memo and
    # stay right.  A position set too large for a new arity raises before the
    # walk touches its state, so the memo stays.
    memos = []
    for arity, n in ((2, 6), (3, 4), (2, 6)):
        for tree in enumerate_trees(arity, n):
            assert first_kind_hooks(tree) == oracle_hooks(tree, "first", ())
            memos.append(hooks._state[3])
    assert memos[0] and all(memo is memos[0] for memo in memos)
    second_kind_hooks(next(enumerate_trees(4, 3)), {3})
    memo = hooks._state[3]
    with pytest.raises(ValueError):
        second_kind_hooks(decode("11000", 2), {3})
    assert hooks._state[3] is memo


def test_an_equal_new_position_set_keeps_the_mode_memo():
    memos = []
    for tree in enumerate_trees(3, 4):
        second_kind_hooks(tree, {1})  # a new set on every call, equal to the last
        memos.append(hooks._state[3])
    assert memos[0] and all(memo is memos[0] for memo in memos)


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


def test_forest_hooks_on_a_deep_path():
    # 5,000 levels are past the recursion limit; the walk keeps its own stack.
    path = ()
    for _ in range(4999):
        path = (path,)
    assert forest_hooks(PlaneForest((path,))) == list(range(5000, 0, -1))
    assert forest_hooks(PlaneForest(((), path, ((),)))) == [1, *range(5000, 0, -1), 2, 1]


def plain_forest_hooks(forest: PlaneForest) -> list[int]:
    """Memo-free oracle: each vertex's subtree size, read off the preorder child counts."""
    counts = forest._child_counts()[1:]
    out = []
    for i in range(len(counts)):
        open_, j = 1, i
        while open_:
            open_ += counts[j] - 1
            j += 1
        out.append(j - i)
    return out


def test_forest_hooks_equal_the_child_count_oracle():
    # Enumerated, decoded and deep forests; the deep ones go past the recursion limit.
    path = ()
    for _ in range(4999):
        path = (path,)
    rng = Random(5)
    codes = [tree.encode() for tree in enumerate_trees(2, 6)]
    for n in range(10):
        for i, forest in enumerate(enumerate_forests(n)):
            assert forest_hooks(forest) == plain_forest_hooks(forest)
            if i % 97 == 0:
                decoded = psi_inverse(decode(rng.choice(codes), 2))
                assert forest_hooks(decoded) == plain_forest_hooks(decoded)
                deep = PlaneForest((*decoded.trees, path))
                assert forest_hooks(deep) == plain_forest_hooks(decoded) + list(range(5000, 0, -1))


def test_forest_hook_multiset_matches_first_kind_under_psi():
    # psi keeps preorder, so the hooks agree vertex by vertex, not just as multisets
    for n in range(9):
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
    skeleton, forest = decompose(decode("1100000", 3), {1})
    for positions in ({1, "a"}, {1.5}, [1, 1]):  # validated before any sort
        with pytest.raises(ValueError):
            compose(skeleton, forest, positions)


def _deleted_children(node: Node, positions) -> list[Node]:
    """The children at pruned positions of the surviving vertices, in decompose order."""
    if not node:
        return []
    out = [node[p - 1] for p in sorted(positions)]
    for p, child in enumerate(node, 1):
        if p not in positions:
            out += _deleted_children(child, positions)
    return out


def test_decompose_compose_round_trip_exhaustive():
    for arity in (2, 3, 4):
        for n in range(1, 4):
            for tree in enumerate_trees(arity, n):
                for positions in _subsets(arity - 1):
                    skeleton, forest = decompose(tree, positions)
                    assert prune(tree, positions) == skeleton
                    # The pieces are the original subtree objects, not rebuilt.
                    children = _deleted_children(tree.root, positions)
                    assert len(children) == len(forest)
                    assert all(piece.root is child for piece, child in zip(forest, children))
                    assert skeleton.arity == arity - len(positions)
                    assert len(forest) == len(positions) * skeleton.internal_count()
                    total = skeleton.internal_count() + sum(
                        piece.internal_count() for piece in forest
                    )
                    assert total == tree.internal_count()
                    assert compose(skeleton, forest, positions) == tree


def test_prune_decompose_compose_on_a_deep_comb():
    # A right comb 5,000 levels deep: the rebuilds must not recurse.
    comb = decode("10" * 5000 + "0", 2)
    skeleton, forest = decompose(comb, {1})
    assert skeleton == prune(comb, {1}) == decode("1" * 5000 + "0", 1)
    assert forest == (MAryTree(2),) * 5000
    assert compose(skeleton, forest, {1}) == comb
    # A ternary tree 3,000 levels deep along its last child, with a
    # one-vertex tree first at every level: the spliced pieces are internal.
    one = (LEAF, LEAF, LEAF)
    node = LEAF
    for _ in range(3000):
        node = (one, LEAF, node)
    deep = MAryTree(3, node)
    skeleton, forest = decompose(deep, {1})
    assert skeleton == prune(deep, {1}) == decode("10" * 3000 + "0", 2)
    assert forest == (MAryTree(3, one),) * 3000
    assert compose(skeleton, forest, {1}) == deep


def _walked_counts(arity, pruned, n):
    return Counter(tuple(sorted(second_kind_hooks(tree, pruned))) for tree in enumerate_trees(arity, n))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_key_counts_equal_the_walked_counts(data):
    arity = data.draw(st.integers(1, 4))
    pruned = data.draw(st.sampled_from(_subsets(arity - 1)))
    n = data.draw(st.integers(0, 7))
    assert hooks._key_counts(arity, pruned, n) == _walked_counts(arity, pruned, n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_shared_level_list_gives_the_fresh_counts(data):
    # One list fed sizes that may go down: each call extends it to the largest
    # n so far, reads level n, and counts as a call with levels of its own does.
    arity = data.draw(st.integers(1, 4))
    pruned = data.draw(st.sampled_from(_subsets(arity - 1)))
    ns = data.draw(st.lists(st.integers(0, 10), min_size=1, max_size=6))
    levels = []
    for i, n in enumerate(ns):
        assert hooks._key_counts(arity, pruned, n, levels) == hooks._key_counts(arity, pruned, n)
        assert len(levels) == max(ns[: i + 1]) + 1


def test_key_counts_equal_the_walked_counts_on_the_default_grid():
    universes = set()
    for spec in map(identities._validated, identities.default_grid()):
        row = identities.FAMILY_TABLE[spec.family]
        if row.hooks != "first":
            universes.add((row.arity(spec.m), spec.S or frozenset(), spec.n))
    for arity, pruned, n in universes:
        assert hooks._key_counts(arity, pruned, n) == _walked_counts(arity, pruned, n), (arity, pruned, n)


def test_key_counts_past_enumeration():
    # 50,067,108 ternary trees with 12 internal vertices, counted by key.
    assert hooks._key_counts(3, frozenset({1}), 12).total() == count_trees(3, 12) == 50_067_108


def test_suites_in_threads_match_a_serial_run():
    # Eight threads at once, switching as often as possible, each run one
    # shuffled second-kind grid of several modes: each suite's key levels are
    # its own, so every thread's reports equal a serial run's.
    grid = identities._grid(("thm1_2_eq5_1a", "thm1_2_eq5_1b", "cor2_second"), (1, 2, 3),
                            lambda m: range(7 - m), identities.all_position_subsets)
    Random(5).shuffle(grid)

    def reports():
        return [replace(r, elapsed=0.0) for r in identities.verify_suite(grid).reports]

    serial = reports()
    assert all(r.passed for r in serial)
    got, start = [], threading.Barrier(8, timeout=60)
    workers = [threading.Thread(target=lambda: (start.wait(), got.append(reports()))) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == [serial] * 8


def test_a_check_builds_every_level_and_keeps_no_key_state(monkeypatch):
    # Back-to-back checks of one mode each build every key level 1..n: no
    # levels outlive a check.  Afterwards ``hooks`` binds the same objects to
    # the same names, and its one module-level container holds as much.
    builds = Counter()
    real = hooks._terms

    def terms(arity, pruned, k):
        builds[arity, pruned, k] += 1
        return real(arity, pruned, k)

    def containers():
        return {name: len(value) for name, value in vars(hooks).items()
                if name[:2] != "__" and isinstance(value, (list, dict, set))}

    monkeypatch.setattr(hooks, "_terms", terms)
    names = dict(vars(hooks))
    # The only module-level container is the walk's ``trees._SHARED``.
    held = containers()
    assert held == {"_SHARED": len(trees._SHARED)}
    for spec, mode in ((identities.IdentitySpec("duliu_1_2a", m=1, n=12), (2, frozenset())),
                       (identities.IdentitySpec("thm1_2_eq5_1a", m=2, n=8, S={1}), (3, frozenset({1})))):
        for _ in range(2):
            builds.clear()
            report = identities.check_identity(spec)
            assert report.passed and report.trees_visited == count_trees(mode[0], spec.n)
            assert builds == {(*mode, k): 1 for k in range(1, spec.n + 1)}
            assert vars(hooks).keys() == names.keys()
            assert all(vars(hooks)[name] is value for name, value in names.items())
            assert containers() == held
