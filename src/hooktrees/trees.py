"""Complete m-ary trees and plane forests.

A tree node is a plain tuple of its child nodes; ``()`` is a leaf.  In a
complete m-ary tree every internal node is an m-tuple, and the tree itself
is the pair (arity, root), an ``MAryTree`` named tuple.  A plane tree node
is a tuple of arbitrarily many children, and a plane forest a linearly
ordered tuple of plane trees.  Every rewrite of a tree writes its image's
preorder code from an explicit stack and ``decode``s it: ``psi`` does, and
so do ``hooks.prune``, ``decompose`` and ``compose``.  ``psi_inverse`` reads
psi's code back in one explicit-stack preorder walk.

Enumeration is streaming: memory stays proportional to the tree depth
plus the lists of all subtrees of each size that has at most
``_SUBTREE_LIST_CAP`` of them, never to the (Fuss-Catalan sized) stream
length.  Those lists are kept per arity and extended on demand, so every
enumeration of one arity builds its trees from the same child objects;
they hold at most sum_{k <= k_max} count_trees(m, k) nodes, k_max the
largest listed size.  The order is canonical and documented on
``enumerate_trees`` so streams are reproducible and can be chunked for
parallel consumption.  A root composition of listed sizes streams through
``product`` and ``chain`` and is paired with its arity in C, so such a tree
costs one tuple and resumes no Python frame; a streamed size nests one
generator expression.  ``enumerate_forests`` is its ``psi_inverse`` image
at arity 2.  Listed nodes live as long as the process, so their ids, in
``_SHARED``, are never reused: ``hooks`` memoizes exactly them.  A lock
builds and marks each level once across threads.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from itertools import chain, product, repeat
from typing import Iterator, NamedTuple

Node = tuple
LEAF: Node = ()


class MAryTree(NamedTuple):
    """A complete m-ary tree: every internal vertex has exactly m ordered children.

    With n internal vertices there are exactly (m-1)*n + 1 leaves.  Arity 1
    (a path of internal vertices ending in one leaf) is the degenerate case
    produced by pruning away all but one child position; it is supported
    everywhere in the library, while the command line restricts itself to
    arity >= 2.

    A tree is the pair (arity, root), a tuple, so it is immutable and
    ``enumerate_trees`` builds each one in C.  Constructors assume a
    well-formed node structure; ``check`` validates.
    """

    arity: int
    root: Node = LEAF

    # Equality, hash and repr read the code: comparing or printing nested root
    # tuples recurses in C and raises RecursionError deeper than about 1,000
    # levels, and hashing them overflows the C stack on deep enough trees.  A
    # tree equals no plain tuple and has no order, which tuple would supply.
    def __eq__(self, other):
        if not isinstance(other, MAryTree):
            return False
        return self.arity == other.arity and self.encode() == other.encode()

    def __ne__(self, other):
        return not self == other

    def __lt__(self, other):
        raise TypeError("MAryTree values are not ordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self) -> str:
        return f"MAryTree(arity={self.arity}, code={self.encode()!r})"

    def __hash__(self) -> int:
        return hash((self.arity, self.encode()))

    def internal_count(self) -> int:
        return self.encode().count("1")

    def leaf_count(self) -> int:
        return self.encode().count("0")

    def encode(self) -> str:
        """Preorder code: '1' per internal vertex, '0' per leaf.

        A complete m-ary tree with n internal vertices yields n ones and
        (m-1)*n + 1 zeros, and every proper prefix of the code has
        #zeros <= (m-1) * #ones.  ``decode`` is the exact inverse.
        """
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node:
                out.append("1")
                stack.extend(reversed(node))
            else:
                out.append("0")
        return "".join(out)

    def check(self) -> None:
        """Raise ValueError unless every internal node has exactly ``arity`` children."""
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node:
                if len(node) != self.arity:
                    raise ValueError(
                        f"internal node with {len(node)} children in an arity-{self.arity} tree"
                    )
                stack.extend(node)


class DecodeError(ValueError):
    """Malformed preorder code; ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def decode(text: str, arity: int) -> MAryTree:
    """Parse a preorder 0/1 code back into a complete ``arity``-ary tree.

    Rejects characters outside {0, 1}, codes that end before the tree is
    complete, and trailing characters after it is, naming the offending
    position in each case.
    """
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    stack: list[list[Node]] = []
    root: Node | None = None
    for pos, ch in enumerate(text):
        if root is not None:
            raise DecodeError("trailing characters after a complete tree", pos)
        if ch == "1":
            stack.append([])
            continue
        if ch != "0":
            raise DecodeError(f"invalid character {ch!r}", pos)
        node: Node = LEAF
        while True:
            if not stack:
                root = node
                break
            stack[-1].append(node)
            if len(stack[-1]) < arity:
                break
            node = tuple(stack.pop())
    if root is None:
        raise DecodeError("truncated code", len(text))
    return MAryTree(arity, root)


def count_trees(arity: int, internal: int) -> int:
    """Number of complete ``arity``-ary trees with ``internal`` internal vertices.

    The Fuss-Catalan count C(arity*n + 1, n) / (arity*n + 1), exact.
    """
    if arity < 1 or internal < 0:
        raise ValueError(f"need arity >= 1 and internal >= 0, got {arity}, {internal}")
    top = arity * internal + 1
    return math.comb(top, internal) // top


def enumerate_trees(arity: int, internal: int) -> Iterator[MAryTree]:
    """Yield every complete ``arity``-ary tree with ``internal`` internal vertices once.

    Canonical order: a tree with n >= 1 internal vertices distributes the
    remaining n-1 among the root's subtrees; the compositions
    (i_1, ..., i_m) run in increasing lexicographic order (i_1 slowest),
    and within one composition the child streams advance in left-to-right
    product order (leftmost slowest).  For arity 2, n = 2 this yields the
    codes "10100" then "11000".
    """
    if arity < 1 or internal < 0:
        raise ValueError(f"need arity >= 1 and internal >= 0, got {arity}, {internal}")
    small = _subtree_lists(arity, internal)
    try:
        # ``product``, ``chain`` and ``tuple.__new__`` build a listed composition's trees in C.
        yield from map(tuple.__new__, repeat(MAryTree), zip(repeat(arity), _nodes(arity, internal, small)))
    except RecursionError:
        # Each streamed size above the listed ones nests one generator expression.
        limit = sys.getrecursionlimit()
        raise ValueError(f"enumerating n = {internal} goes past the recursion limit ({limit})") from None


# Subtrees of every size k whose count_trees(arity, k) is at most this many
# are listed, so that any root composition made only of such sizes is a plain
# ``itertools.product`` of lists.
_SUBTREE_LIST_CAP = 2**14

# Per arity, the lists of sizes 0, 1, ... built so far.
_SUBTREE_LISTS: dict[int, list[list[Node]]] = {}

# Ids of the nodes held for good: every listed subtree.  Levels are extended
# and marked under ``_LOCK``.
_SHARED: set[int] = {id(LEAF)}
_LOCK = threading.Lock()


def _subtree_lists(m: int, n: int) -> list[list[Node]]:
    """All subtrees of sizes 0..k in order, for the largest k < n within the cap."""
    small = _SUBTREE_LISTS.setdefault(m, [[LEAF]])
    k = 1
    while k < n and count_trees(m, k) <= _SUBTREE_LIST_CAP:
        if k == len(small):
            with _LOCK:
                if k == len(small):
                    small.append(list(_nodes(m, k, small)))
                    _SHARED.update(map(id, small[k]))
        k += 1
    return small[:k]


def _nodes(m: int, n: int, small: list[list[Node]]) -> Iterator[Node]:
    if n < len(small):
        return iter(small[n])
    return chain.from_iterable(_children(m, comp, 0, small) for comp in _compositions(n - 1, m))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _children(m: int, comp: tuple[int, ...], start: int, small: list[list[Node]]) -> Iterator[Node]:
    # ``product`` runs leftmost slowest, the order of the streaming recursion.
    if max(comp[start:], default=0) < len(small):
        return product(*(small[c] for c in comp[start:]))
    streamed = _nodes(m, comp[start], small)
    return ((child,) + rest for child in streamed for rest in _children(m, comp, start + 1, small))


PlaneNode = tuple


@dataclass(frozen=True, eq=False)
class PlaneForest:
    """A linearly ordered sequence of plane trees.

    Each plane tree node is the tuple of its (arbitrarily many, ordered)
    child nodes, so a tree with its root removed is literally the node
    itself read as a forest.
    """

    trees: tuple[PlaneNode, ...] = ()

    # As for MAryTree; the child counts in preorder determine a forest.
    def __eq__(self, other):
        if not isinstance(other, PlaneForest):
            return NotImplemented
        return self._child_counts() == other._child_counts()

    def __hash__(self) -> int:
        return hash(tuple(self._child_counts()))

    def __repr__(self) -> str:
        return f"PlaneForest(child_counts={self._child_counts()})"

    def _child_counts(self) -> list[int]:
        """The number of trees, then each vertex's child count in preorder."""
        out = [len(self.trees)]
        stack = list(reversed(self.trees))
        while stack:
            node = stack.pop()
            out.append(len(node))
            stack.extend(reversed(node))
        return out

    def vertex_count(self) -> int:
        return len(self._child_counts()) - 1


def psi(forest: PlaneForest) -> MAryTree:
    """The recursive bijection from plane forests to complete binary trees.

    The empty forest maps to a single leaf; otherwise the first tree's root
    becomes the binary root, whose left subtree is the image of that tree's
    children-forest and whose right subtree is the image of the remaining
    forest.  The vertex count of the forest equals the internal-vertex
    count of the image.
    """
    # The image's preorder code, from an explicit stack: each vertex writes a
    # 1, then the code of its children's forest; every forest ends in a 0.
    code, stack = [], ["0", *reversed(forest.trees)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            code.append(item)
        else:
            code.append("1")
            stack.extend(["0", *reversed(item)])
    return decode("".join(code), 2)


def psi_inverse(tree: MAryTree) -> PlaneForest:
    """Exact inverse of ``psi``."""
    if tree.arity != 2:
        raise ValueError(f"psi_inverse expects a binary tree, got arity {tree.arity}")
    # A preorder walk reads the code psi writes: an internal vertex (a 1) opens
    # a child list, and a leaf (a 0) closes the innermost open one.
    lists, stack = [[]], [tree.root]
    while stack:
        node = stack.pop()
        if node:
            lists.append([])
            stack += node[::-1]
        else:
            closed = tuple(lists.pop())
            if lists:
                lists[-1].append(closed)
    return PlaneForest(closed)


def enumerate_forests(vertices: int) -> Iterator[PlaneForest]:
    """Yield every plane forest with the given vertex count exactly once.

    The stream is the ``psi_inverse`` image of ``enumerate_trees(2, n)``, in
    that order, so its length is the Catalan number count_trees(2, n).
    """
    if vertices < 0:
        raise ValueError(f"need vertices >= 0, got {vertices}")
    return map(psi_inverse, enumerate_trees(2, vertices))
