import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbp.tree import (Node, NodeViews, children, dump_lines, is_leaf, iter_preorder, max_depth,
                      parent, root)


class TestRoot:
    def test_examples(self):
        assert root(5).triple == (1, 3, 5)
        assert root(7).triple == (1, 4, 7)
        assert root(3).triple == (1, 2, 3)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            root(2)


class TestChildren:
    def test_split(self):
        left, right = children(root(5))
        assert left.triple == (1, 2, 3)
        assert right.triple == (3, 4, 5)

    def test_both_leaves(self):
        left, right = children(Node(1, 2, 3, 1, 0, (root(5),)))
        assert left.triple == (1, 1, 2) and is_leaf(left)
        assert right.triple == (2, 2, 3) and is_leaf(right)

    def test_leaf_duplicates(self):
        leaf = children(children(root(5))[0])[1]  # {2,2,3}
        assert leaf.triple == (2, 2, 3)
        none_child, dup = children(leaf)
        assert none_child is None
        assert dup.triple == (2, 2, 3)
        assert dup.dup_count == 1 and dup.depth == leaf.depth + 1


class TestParent:
    def test_root_is_own_parent(self):
        r = root(9)
        assert parent(r) is r

    def test_duplicate_chain_steps_back(self):
        leaf = children(children(root(5))[0])[1]
        dup1 = children(leaf)[1]
        dup2 = children(dup1)[1]
        assert dup2.dup_count == 2
        assert parent(dup2) == dup1
        assert parent(dup1) == leaf

    def test_path_stack(self):
        r = root(5)
        left = children(r)[0]
        assert parent(left) == r


class TestIsLeaf:
    @pytest.mark.parametrize(
        "triple,expected", [((2, 2, 3), True), ((1, 3, 5), False), ((1, 1, 2), True)]
    )
    def test_examples(self, triple, expected):
        assert is_leaf(Node(*triple)) == expected


class TestMaxDepth:
    def test_examples(self):
        assert max_depth(5) == 3
        assert max_depth(8) == 4
        assert max_depth(1024) == 11


@pytest.mark.parametrize("K", [3, 4, 5, 7, 8, 16, 31, 64])
def test_exhaustive_invariants(K):
    leaves = []
    for node in iter_preorder(K):
        assert 1 <= node.left <= node.mid <= node.right <= K
        assert node.mid == (node.left + node.right) // 2
        assert node.depth <= max_depth(K)
        if is_leaf(node):
            leaves.append((node.left, node.right))
        else:
            left, right = children(node)
            assert parent(left) == node and parent(right) == node
    # Leaves tile the adjacent pairs exactly.
    assert sorted(leaves) == [(k, k + 1) for k in range(1, K)]
    assert len(set(leaves)) == len(leaves)


def test_dump_format():
    lines = list(dump_lines(5))
    assert lines[0] == "0,1,3,5,0"
    assert all(len(line.split(",")) == 5 for line in lines)
    assert len(lines) == 7  # root, two internal, four leaves


@settings(max_examples=100, deadline=None)
@given(K=st.integers(3, 512), moves=st.lists(st.sampled_from(["L", "R", "P"]), max_size=40))
def test_random_walk_stays_well_formed(K, moves):
    v = root(K)
    for move in moves:
        if move == "P":
            v = parent(v)
        else:
            left, right = children(v)
            v = right if move == "R" or left is None else left
        assert 1 <= v.left <= v.mid <= v.right <= K
        assert v.mid == (v.left + v.right) // 2
        assert v.depth == len(v.path)
        if v.dup_count > 0:
            assert is_leaf(v)


def lineage(node):
    return [(n.triple, n.depth, n.dup_count) for n in node.path + (node,)]


@settings(max_examples=60, deadline=None)
@given(K=st.integers(3, 300), moves=st.lists(st.sampled_from(["L", "R", "P"]), max_size=40))
def test_node_views_equal_the_nodes_a_walk_builds(K, moves):
    views, v = NodeViews(K), root(K)
    for move in moves:
        if move == "P":
            v = parent(v)
        else:
            left, right = children(v)
            v = right if move == "R" or left is None else left
        view = views[v.left, v.right, v.dup_count]
        assert view == v and lineage(view) == lineage(v)
        assert view is views[v.left, v.right, v.dup_count]  # built once
        for ancestor in view.path:  # and its ancestors are the table's own views
            assert ancestor is views[ancestor.left, ancestor.right, ancestor.dup_count]


def test_node_views_refuse_what_is_not_a_node():
    views = NodeViews(9)
    for key in [(2, 9, 0), (1, 4, 0), (3, 6, 0)]:
        for _ in range(2):
            with pytest.raises(ValueError, match="not a node"):
                views[key]
        assert key not in views


@pytest.mark.parametrize("fields,match", [
    pytest.param(dict(left=3, mid=2, right=1), "invalid triple", id="unordered-triple"),
    pytest.param(dict(left=1, mid=2, right=5), "floor", id="mid-not-the-floor-midpoint"),
    pytest.param(dict(left=1, mid=3, right=5, depth=1), "ancestor count",
                 id="depth-without-ancestors"),
    pytest.param(dict(left=1, mid=1, right=2, dup_count=-1), "nonnegative",
                 id="negative-dup-count"),
    pytest.param(dict(left=1, mid=3, right=5, dup_count=1), "only leaves",
                 id="duplicate-of-an-inner-node"),
])
def test_a_node_breaking_an_invariant_is_refused(fields, match):
    with pytest.raises(ValueError, match=match):
        Node(**fields)
