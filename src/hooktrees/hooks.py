"""Hook statistics on complete m-ary trees and plane forests.

Three statistics are computed for every internal vertex v of an m-ary
tree by one walk, ``_walk``, and returned as a list in preorder over the
internal vertices:

* ``standard_hooks``     h_v   -- internal vertices in the subtree at v.
* ``first_kind_hooks``   hcal  -- internal vertices left in that subtree
                                  after removing v's rightmost subtree.
* ``second_kind_hooks``  hbb   -- internal vertices left after recursively
                                  deleting the children at a fixed position
                                  set S from every surviving vertex.

All three follow one rule: 1 plus the values of v's children at some
set of positions (every position for h, those outside S for hbb), with
hcal leaving out the last child's h.

``forest_hooks`` is the plane-forest analogue counting all vertices (not
just internal ones), also a preorder list.  Under ``trees.psi`` it equals
``first_kind_hooks`` vertex by vertex, so the forest identities are summed
over binary trees and this walk is kept as the independent check of that
correspondence.  ``prune`` materializes the S-deletion as a tree of
smaller arity, and ``decompose`` / ``compose`` realize the induced
bijection between an arity-(m+1) tree and a pruned skeleton plus the
ordered forest of deleted subtrees.  Like ``trees.psi``, each writes its
result's preorder code on an explicit stack and ``decode``s it; a deleted
subtree stays the original node.

A vertex's values depend only on its own subtree, and ``enumerate_trees``
builds every tree of an arity from the same listed subtree objects.  So
``_walk`` memoizes, by ``id``, each proper subtree that ``trees`` holds for
good (``trees._SHARED``): no such id is ever reused, so an entry pins no
node, and the subtree lists bound the memo, so it is never cleared.  Keying
by value would hash a nested tuple, which recurses in C and crashes the
interpreter on deep trees.  The memo serves one mode (arity, pruned
positions, first) at a time.  An enumerated tree, one tuple built in C,
whose root children all hit it costs the mode check, O(arity) lookups and
one copy of its preorder list, always a fresh list.  The identity checks
walk only first-kind trees, so the memo serves them and the public
``*_hooks`` calls.

For the same reason a subtree's multiset of h or hbb values is fixed by its
children's multisets and values.  ``_key_counts`` counts a whole universe's
sorted hbb tuples (h tuples with nothing pruned) without building a tree:
a tree's key is the product of p_hbb over its vertices, p_h the h-th prime,
built from its root's hbb and its subtrees' keys.  The keys of each small
enough subtree size are kept per mode (arity, pruned), grouped by hbb, under
the same cap and lock as the subtree lists; larger sizes are streamed.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, product, repeat
from operator import mul
from typing import Iterable, Iterator

from . import trees
from .trees import _SHARED, MAryTree, PlaneForest, decode


def _position_set(positions: Iterable[int], arity: int) -> frozenset[int]:
    """The one check of a pruned position set, a subset of {1, ..., arity-1}; returns frozenset(positions).

    The last position is never pruned, so a nonempty tree stays nonempty.  A ``bool`` is not a
    position, though True == 1.  Checked in ``repr`` order, so an error names the same one every run.
    """
    s = frozenset(positions)
    for p in sorted(s, key=repr):
        if isinstance(p, bool) or not isinstance(p, int) or not 1 <= p <= arity - 1:
            raise ValueError(f"pruned position {p!r} is not an integer in 1..{arity - 1}")
    return s


_NO_POSITIONS: frozenset[int] = frozenset()
# The mode (arity, pruned, first) of the last tree walked and its memo.  A
# new mode gets a new dict, so a walk in another thread keeps its own.
_state: tuple[int, frozenset[int], bool, dict] = (0, _NO_POSITIONS, False, {})


def _walk(tree: MAryTree, positions: Iterable[int], first: bool) -> list[int]:
    """Preorder list of a tree's values in the mode (arity, positions, first).

    A vertex's total is 1 plus the totals of its children at positions
    outside ``positions``; its slot holds that total, or with ``first`` the
    total less the last child's (``positions`` is then empty).  The walk
    selects the mode's memo and validates the positions once per mode, not
    once per tree.  One loop visits the vertices: memo hits and leaves are
    taken in place, and a miss pushes (node, pos, total, slot) on ``parents``
    and descends, so depth costs no recursion.  A finished non-root vertex
    whose id is in ``_SHARED`` is memoized as (total, its preorder list).
    """
    global _state
    arity, pruned, mode_first, memo = state = _state
    if tree.arity != arity or positions is not pruned or first is not mode_first:
        pruned = _position_set(positions, tree.arity)
        if (tree.arity, pruned, first) != state[:3]:
            memo = {}
        _state = (tree.arity, pruned, first, memo)
    node = tree.root
    if not node:
        return []
    out, parents = [0], []
    pos, total, slot = 0, 1, 0
    while True:
        for child in node[pos:]:
            pos += 1
            sub = 0
            if child:
                hit = memo.get(id(child))
                if hit is None:
                    parents.append((node, pos, total, slot))
                    node, pos, total, slot = child, 0, 1, len(out)
                    out.append(0)
                    break
                sub, below = hit
                out += below
                if pos not in pruned:
                    total += sub
        else:
            out[slot] = total - sub if first else total
            if not parents:
                return out
            if id(node) in _SHARED:
                memo[id(node)] = (total, out[slot:])
            sub = total
            node, pos, total, slot = parents.pop()
            if pos not in pruned:
                total += sub


def standard_hooks(tree: MAryTree) -> list[int]:
    """h_v = 1 + sum of h over internal children, for every internal v."""
    return _walk(tree, _NO_POSITIONS, False)


def first_kind_hooks(tree: MAryTree) -> list[int]:
    """hcal_v = 1 + sum of h over internal children at positions 1..m-1.

    Equivalently h_v minus the standard hook of v's rightmost child when
    that child is internal.
    """
    return _walk(tree, _NO_POSITIONS, True)


def second_kind_hooks(tree: MAryTree, positions: Iterable[int]) -> list[int]:
    """hbb_v = 1 + sum of hbb over internal children at unpruned positions.

    Defined for every internal vertex of the original tree: each v's value
    prunes within its own subtree, so vertices that the root's pruning
    would delete still get a value.  Agrees with standard hooks of
    ``prune`` applied at each vertex.
    """
    return _walk(tree, positions, False)


def forest_hooks(forest: PlaneForest) -> list[int]:
    """H_v = 1 + sum of H over children, for every vertex of every tree.

    Preorder across the whole forest, trees left to right; a childless
    vertex counts, unlike an m-ary leaf, so this walk is the forest's own.
    H_v is the size of v's subtree: the walk pushes v's preorder slot
    beneath its children, and when it pops that slot again the subtree
    fills the slots from it to the end of the list, so depth costs no
    recursion.
    """
    out: list[int] = []
    stack = list(reversed(forest.trees))
    while stack:
        node = stack.pop()
        if node.__class__ is int:
            out[node] = len(out) - node
        elif node:
            stack.append(len(out))
            out.append(0)
            stack += reversed(node)
        else:
            out.append(1)
    return out


# Per mode (arity, pruned), level k maps each hbb value to the keys of the
# size-k subtrees with that hbb, and None to all of them.  Levels are built
# under ``trees._LOCK`` while count_trees(arity, k) <= trees._SUBTREE_LIST_CAP.
_KEY_LEVELS: dict[tuple[int, frozenset[int]], list[dict[int | None, list[int]]]] = {}
# _PRIMES[h] is p_h, the h-th prime; entry 0 is unused.  Extended under the lock.
_PRIMES = [1, 2]


def _key_counts(arity: int, pruned: frozenset[int], n: int) -> Counter:
    """The sorted hbb tuples of the arity-``arity`` trees with n internal vertices, counted.

    With nothing pruned hbb is h.  Each distinct key is decoded once.  No
    validation: ``pruned`` is a frozenset of positions in 1..arity-1.
    """
    if len(_PRIMES) <= n:
        with trees._LOCK:
            while len(_PRIMES) <= n:
                c = _PRIMES[-1] + 1
                while any(c % p == 0 for p in _PRIMES[1:]):
                    c += 1
                _PRIMES.append(c)
    levels = _key_levels(arity, pruned, n)
    counts = Counter()
    for key, count in Counter(_keys(arity, pruned, levels, n)).items():
        values, h = [], 0
        while key > 1:
            h += 1
            while key % _PRIMES[h] == 0:
                key //= _PRIMES[h]
                values.append(h)
        counts[tuple(values)] = count
    return counts


def _key_levels(arity: int, pruned: frozenset[int], n: int) -> list[dict[int | None, list[int]]]:
    """The mode's key levels 0..k, for the largest k < n within the cap; as ``trees._subtree_lists``."""
    levels = _KEY_LEVELS.setdefault((arity, pruned), [{0: [1], None: [1]}])  # a leaf: key 1, hbb 0
    k = 1
    while k < n and trees.count_trees(arity, k) <= trees._SUBTREE_LIST_CAP:
        if k == len(levels):
            with trees._LOCK:
                if k == len(levels):
                    levels.append(_key_level(arity, pruned, levels, k))
        k += 1
    return levels[:k]


def _key_level(arity: int, pruned: frozenset[int], levels: list, k: int) -> dict[int | None, list[int]]:
    """Level k, from the levels 0..k-1 in ``levels``."""
    level: dict[int | None, list[int]] = {None: []}
    for picks, h in _terms(arity, pruned, k):
        keys = list(_products(_PRIMES[h], picks, arity, pruned, levels))
        level.setdefault(h, []).extend(keys)
        level[None] += keys
    return level


def _keys(arity: int, pruned: frozenset[int], levels: list, k: int, hbb: int | None = None) -> Iterable[int]:
    """The keys of the size-k subtrees whose hbb is ``hbb``, or of all of them when it is None."""
    if k < len(levels):
        return levels[k][hbb]
    return chain.from_iterable(_products(_PRIMES[h], picks, arity, pruned, levels)
                               for picks, h in _terms(arity, pruned, k) if hbb in (None, h))


def _terms(arity: int, pruned: frozenset[int], k: int) -> Iterator[tuple[tuple, int]]:
    """Each root composition of k-1 with its picks, then the root's hbb.

    A pick is (size, hbb) per position: a pruned position takes every subtree
    of its size (hbb None) and adds nothing to the root, an unpruned one takes
    the subtrees of one hbb value.  A size-c subtree has hbb 0 if c = 0, c if
    nothing is pruned, and otherwise every value in 1..c: a spine of b
    vertices down the last position, with the other c-b hung at a pruned
    position of the root, has hbb b.
    """
    for comp in trees._compositions(k - 1, arity):
        choices = []
        for p, c in enumerate(comp, 1):
            hbbs = (None,) if p in pruned else range(1, c + 1) if pruned and c else (c,)
            choices.append([(c, b) for b in hbbs])
        for picks in product(*choices):
            yield picks, 1 + sum(b for _, b in picks if b)


def _products(key: int, picks: tuple, arity: int, pruned: frozenset[int], levels: list) -> Iterator[int]:
    """``key`` times one key per pick, for every choice of those keys.

    Listed sizes multiply in ``product`` and ``math.prod``, in C, so a tree
    costs no Python frame.  A streamed size is multiplied in C too, by each
    product of the other picks in turn, so it is streamed once per product.
    """
    for i, (c, b) in enumerate(picks):
        if c >= len(levels):
            rest = _products(key, picks[:i] + picks[i + 1:], arity, pruned, levels)
            return chain.from_iterable(map(mul, repeat(sub), _keys(arity, pruned, levels, c, b))
                                       for sub in rest)
    return map(mul, repeat(key), map(math.prod, product(*[levels[c][b] for c, b in picks])))


def _split(tree: MAryTree, pruned: frozenset[int]) -> tuple[MAryTree, list[MAryTree]]:
    """The decoded skeleton and the deleted subtrees, in ``decompose`` order.

    A preorder walk over the surviving vertices writes the skeleton's code
    and keeps their children at the pruned positions as they are.
    """
    cut = sorted(pruned)
    keep = [p - 1 for p in range(tree.arity, 0, -1) if p not in pruned]
    code, pieces, stack = [], [], [tree.root]
    while stack:
        node = stack.pop()
        if node:
            code.append("1")
            pieces += [MAryTree(tree.arity, node[p - 1]) for p in cut]
            stack += [node[i] for i in keep]
        else:
            code.append("0")
    return decode("".join(code), tree.arity - len(pruned)), pieces


def prune(tree: MAryTree, positions: Iterable[int]) -> MAryTree:
    """Recursively delete the subtrees at the given child positions.

    Every internal node keeps exactly the children at the complementary
    positions, in order; leaves stay leaves.  The result is a complete tree
    of arity ``tree.arity - len(positions)`` (arity 1, a path, when all
    prunable positions are deleted).  Pruning with the empty set is the
    identity.
    """
    pruned = _position_set(positions, tree.arity)
    return _split(tree, pruned)[0] if pruned else tree


def decompose(
    tree: MAryTree, positions: Iterable[int]
) -> tuple[MAryTree, tuple[MAryTree, ...]]:
    """Split a tree into its pruned skeleton and the deleted subtrees.

    The forest holds one original subtree per (surviving internal vertex,
    pruned position) pair, ordered by the vertex's preorder position in
    the skeleton and then by ascending pruned position; ``compose``
    restores the tree exactly.  Requires at least one internal vertex.
    """
    pruned = _position_set(positions, tree.arity)
    if not tree.root:
        raise ValueError("decompose needs a tree with at least one internal vertex")
    skeleton, pieces = _split(tree, pruned)
    return skeleton, tuple(pieces)


def compose(
    skeleton: MAryTree, forest: Iterable[MAryTree], positions: Iterable[int]
) -> MAryTree:
    """Inverse of ``decompose``: graft the forest back onto the skeleton.

    The skeleton must have arity m+1-s where m+1 is the arity of the forest
    trees and s the number of pruned positions; the forest must hold exactly
    s subtrees per internal skeleton vertex, in decompose order.
    """
    pieces = list(forest)
    given = list(positions)
    pruned = frozenset(given)
    arity = skeleton.arity + len(pruned)
    _position_set(pruned, arity)
    if len(pruned) != len(given):
        raise ValueError("duplicate pruned positions")
    for piece in pieces:
        if piece.arity != arity:
            raise ValueError(f"forest tree of arity {piece.arity}, expected {arity}")
    expected = len(pruned) * skeleton.internal_count()
    if len(pieces) != expected:
        raise ValueError(f"forest length {len(pieces)}, expected {expected}")
    # Each skeleton vertex, in preorder, writes a 1 and splices the codes of
    # its next s pieces in at the pruned positions among its kept children.
    grafts = iter(pieces)
    cut = sorted(pruned)
    code, stack = [], [skeleton.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            code.append(item)
        elif item:
            code.append("1")
            children = list(item)
            for p in cut:
                children.insert(p - 1, next(grafts).encode())
            stack += reversed(children)
        else:
            code.append("0")
    return decode("".join(code), arity)
