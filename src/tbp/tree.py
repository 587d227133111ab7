"""Binary tree over arm indices and its lazy infinite leaf extension.

Nodes are triples ``{L, M, R}`` of arm indices with ``M = floor((L + R) / 2)``.
A leaf (``R = L + 1``) roots an infinite chain of duplicates of itself,
realized lazily through ``dup_count``; the left child of a leaf does not
exist.  Each node carries the stack of ancestors it was reached through, so
``parent`` is exact even along duplicate chains.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

__all__ = ["Node", "root", "children", "parent", "is_leaf", "max_depth", "iter_preorder", "dump_lines"]


@dataclass(frozen=True)
class Node:
    left: int
    mid: int
    right: int
    depth: int = 0
    dup_count: int = 0
    # (left, right, dup_count) fix the path, so equality and hashing skip it;
    # comparing paths would recurse through every ancestor's path in turn.
    path: Tuple["Node", ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.left <= self.mid <= self.right:
            raise ValueError(f"invalid triple ({self.left}, {self.mid}, {self.right})")
        if self.mid != (self.left + self.right) // 2:
            raise ValueError("mid must be floor((left + right) / 2)")
        if self.depth != len(self.path):
            raise ValueError("depth must equal the ancestor count")
        if self.dup_count < 0:
            raise ValueError("dup_count must be nonnegative")
        if self.dup_count > 0 and self.right != self.left + 1:
            raise ValueError("only leaves have duplicate copies")

    @property
    def triple(self) -> Tuple[int, int, int]:
        return (self.left, self.mid, self.right)


def root(K: int) -> Node:
    """Root node ``{1, floor((1 + K) / 2), K}`` of the tree over ``K`` arms."""
    if K < 3:
        raise ValueError("K must be >= 3")
    return Node(1, (1 + K) // 2, K)


def is_leaf(node: Node) -> bool:
    return node.right == node.left + 1


def children(node: Node) -> Tuple[Optional[Node], Node]:
    """``(left child, right child)``; a leaf has ``(None, duplicate of itself)``."""
    path = node.path + (node,)
    if is_leaf(node):
        dup = Node(node.left, node.mid, node.right, node.depth + 1, node.dup_count + 1, path)
        return None, dup
    left = Node(node.left, (node.left + node.mid) // 2, node.mid, node.depth + 1, 0, path)
    right = Node(node.mid, (node.mid + node.right) // 2, node.right, node.depth + 1, 0, path)
    return left, right


def parent(node: Node) -> Node:
    """Parent along the construction path; the root is its own parent."""
    if node.depth == 0:
        return node
    return node.path[-1]


class NodeViews(dict):
    """The :class:`Node` of each ``(left, right, dup_count)`` of the tree over ``K`` arms.

    Those three fix a node, its depth and its ancestor path, so one view per
    triple serves every walk over the tree.  ``views[left, right, dup_count]``
    builds it on first use, through :func:`children` of its parent.
    """

    def __init__(self, K: int) -> None:
        super().__init__()
        self.K = K

    def __missing__(self, key: Tuple[int, int, int]) -> Node:
        node = self[key] = self._build(*key)
        return node

    def _build(self, left: int, right: int, dup_count: int) -> Node:
        if dup_count:
            return children(self[left, right, dup_count - 1])[1]
        l, r = 1, self.K
        if (left, right) == (l, r):
            return root(self.K)
        while r > l + 1:  # descend from the root to the parent of (left, right)
            m = (l + r) // 2
            if (left, right) in ((l, m), (m, r)):
                lo, hi = children(self[l, r, 0])
                return lo if left == l else hi
            l, r = (l, m) if right <= m else (m, r)
        raise ValueError(f"({left}, {right}) is not a node of the tree over {self.K} arms")


def max_depth(K: int) -> int:
    """Depth bound ``floor(log2(K)) + 1`` for the original (unextended) tree."""
    if K < 3:
        raise ValueError("K must be >= 3")
    return K.bit_length()  # == floor(log2(K)) + 1 for K >= 1


def iter_preorder(K: int) -> Iterator[Node]:
    """Preorder traversal of the original tree (duplicate chains excluded)."""
    stack = [root(K)]
    while stack:
        node = stack.pop()
        yield node
        if not is_leaf(node):
            left, right = children(node)
            stack.append(right)
            stack.append(left)


def dump_lines(K: int) -> Iterator[str]:
    """One ``depth,L,M,R,leaf_flag`` line per node, in preorder."""
    for node in iter_preorder(K):
        yield f"{node.depth},{node.left},{node.mid},{node.right},{int(is_leaf(node))}"
