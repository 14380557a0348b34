"""The move-closure oracle against its per-word reference build, and the
oracle's independence from the word-problem code it checks."""

import ast
import random
from itertools import combinations, product

import pytest

from raagembed import oracle
from raagembed.graphs import SimplicialGraph, make_cycle, make_path, make_tripod
from raagembed.oracle import MoveClosure
from raagembed.words import Letter


def _reference_closure_roots(g, max_len):
    """Every index's root and the class count, built word by word: decode
    each word's letter ids, unite it with each word one swap of adjacent
    commuting letters or one deletion of an adjacent inverse pair away.

    Same index order as ``MoveClosure`` (length, then lexicographic over
    letter ids 2*vertex_index + (0 if positive)), and a union keeps the
    smaller index as the root, so the roots are comparable one for one.
    """
    vs = g.vertices
    a = 2 * len(vs)
    commute = [
        [i // 2 == j // 2 or not g.adjacent(vs[i // 2], vs[j // 2]) for j in range(a)]
        for i in range(a)
    ]
    offsets = [0]
    for k in range(max_len + 1):
        offsets.append(offsets[-1] + a**k)
    parent = list(range(offsets[max_len + 1]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    def index(digits):
        acc = 0
        for d in digits:
            acc = acc * a + d
        return offsets[len(digits)] + acc

    for k in range(2, max_len + 1):
        for digits in product(range(a), repeat=k):
            idx = index(digits)
            for i in range(k - 1):
                x, y = digits[i], digits[i + 1]
                if x != y and commute[x][y]:
                    swapped = digits[:i] + (y, x) + digits[i + 2 :]
                    union(idx, index(swapped))
                if y == x ^ 1:
                    union(idx, index(digits[:i] + digits[i + 2 :]))
    roots = [find(x) for x in range(len(parent))]
    return roots, len(set(roots))


def _block_closure_roots(g, max_len):
    """Every index's root and the class count, built by aligned blocks: a
    move at position i of the words of length k with prefix index p joins
    two blocks of t = a**(k-i-2) consecutive indices, one per suffix, and
    each pair of blocks is united element by element, once per (k, i, p,
    move). Far faster than the per-word build and independent of the
    closure's length-by-length carrying, so it reaches mid-size bounds."""
    vs = g.vertices
    a = 2 * len(vs)
    swaps = [
        (x * a + y, y * a + x)
        for x in range(a)
        for y in range(x)
        if x // 2 == y // 2 or not g.adjacent(vs[x // 2], vs[y // 2])
    ]
    deletions = [x * a + (x ^ 1) for x in range(a)]
    offsets = [0]
    for k in range(max_len + 1):
        offsets.append(offsets[-1] + a**k)
    parent = list(range(offsets[max_len + 1]))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for k in range(2, max_len + 1):
        for i in range(k - 1):
            t = a ** (k - i - 2)
            for p in range(a**i):
                block = offsets[k] + p * a * a * t
                moves = [(block + u * t, block + v * t) for u, v in swaps]
                moves += [(block + d * t, offsets[k - 2] + p * t) for d in deletions]
                for src, dst in moves:
                    for s in range(t):
                        x, y = find(src + s), find(dst + s)
                        if x != y:
                            parent[max(x, y)] = min(x, y)
    roots = [find(x) for x in range(len(parent))]
    return roots, len(set(roots))


def _random_graph(seed, n=None):
    rng = random.Random(seed)
    vs = [f"v{i}" for i in range(n or rng.randint(2, 5))]
    return SimplicialGraph(vs, [e for e in combinations(vs, 2) if rng.random() < 0.5])


CLOSURE_GRAPHS = {
    **{f"P{n}": make_path(n) for n in range(1, 6)},
    "C4": make_cycle(4),
    "C5": make_cycle(5),
    "K13": make_tripod(1, 1, 1),
    "empty3": SimplicialGraph(["u", "v", "w"]),
    "K3": SimplicialGraph(["u", "v", "w"], [("u", "v"), ("u", "w"), ("v", "w")]),
    **{f"random{s}": _random_graph(s) for s in range(5)},
}


@pytest.mark.parametrize("name", sorted(CLOSURE_GRAPHS))
def test_the_block_build_matches_the_per_word_reference(name):
    # the closure and the block reference both match the per-word build
    g = CLOSURE_GRAPHS[name]
    # L = 0 and L = 1 unite nothing; 5-vertex graphs stop at 3 to stay fast
    for max_len in range(4 if len(g.vertices) == 5 else 5):
        closure = MoveClosure(g, max_len)
        roots, classes = _reference_closure_roots(g, max_len)
        assert _block_closure_roots(g, max_len) == (roots, classes), max_len
        assert [closure._find(x) for x in range(len(roots))] == roots, max_len
        assert closure.class_count() == classes, max_len


_EDGELESS4 = SimplicialGraph(["a", "b", "c", "d"])
_COMPLETE4 = SimplicialGraph(["a", "b", "c", "d"], list(combinations("abcd", 2)))

# (graph, bound, class count); the counts are pinned from the block build
MID_SIZE_CLOSURES = {
    "P5": (make_path(5), 5, 14_659),
    "C5": (make_cycle(5), 5, 21_051),
    **{
        f"random5v{s}": (_random_graph(s, 5), 5, count)
        for s, count in enumerate([22_683, 31_571, 10_507, 29_875])
    },
    "P4": (make_path(4), 6, 35_149),
    "C4": (make_cycle(4), 6, 66_921),
    "K13": (make_tripod(1, 1, 1), 6, 42_461),
    "edgeless4": (_EDGELESS4, 6, 1_289),
    "K4": (_COMPLETE4, 6, 156_865),
}


@pytest.mark.parametrize("name", sorted(MID_SIZE_CLOSURES))
def test_the_closure_matches_the_block_build_at_mid_size(name):
    g, max_len, count = MID_SIZE_CLOSURES[name]
    closure = MoveClosure(g, max_len)
    roots, classes = _block_closure_roots(g, max_len)
    assert [closure._find(x) for x in range(len(roots))] == roots
    assert closure.class_count() == classes == count


@pytest.mark.parametrize("name", sorted(CLOSURE_GRAPHS))
def test_every_parent_points_at_or_below_its_child(name):
    g = CLOSURE_GRAPHS[name]
    for max_len in range(4):
        closure = MoveClosure(g, max_len)
        parent = closure._parent
        assert all(p <= i for i, p in enumerate(parent)), max_len
        # a class is a tree, so its one self-parented index is its root
        assert closure.class_count() == sum(p == i for i, p in enumerate(parent)), max_len


def test_the_root_check_raises_when_a_read_root_has_moved():
    # index 2's root was read as 2, but a later union moved it under 1
    read = [0, 1, 2]
    oracle._check_roots([0, 1, 2, 2], read)
    with pytest.raises(RuntimeError, match="root of index 2 moved from 2 to 1"):
        oracle._check_roots([0, 1, 1, 2], read)


def _words_in_index_order(g, max_len):
    """Every word up to max_len, by length and then lexicographic over the
    letters x1, x1^-1, x2, x2^-1, ... in vertex order."""
    letters = [Letter(v, s) for v in g.vertices for s in (1, -1)]
    for k in range(max_len + 1):
        yield from product(letters, repeat=k)


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "C4", "K13", "empty3", "K3"])
def test_the_sweep_walks_the_index_order_with_each_word_canonical(name):
    g = CLOSURE_GRAPHS[name]
    for max_len in range(5):
        closure = MoveClosure(g, max_len)
        swept = list(closure.sweep())
        assert [w for w, _ in swept] == list(_words_in_index_order(g, max_len)), max_len
        for w, c in swept:
            assert c == closure.canonical(w), (max_len, w)


def test_canonical_refuses_a_word_beyond_the_bound_or_the_graph():
    closure = MoveClosure(make_path(3), 2)
    with pytest.raises(ValueError, match="longer than the closure bound"):
        closure.canonical((Letter("x1", 1),) * 3)
    with pytest.raises(ValueError, match="unknown vertex 'y'"):
        closure.canonical((Letter("x1", 1), Letter("y", -1)))


def test_canonical_refuses_a_letter_whose_sign_is_not_one():
    # Sign 0 would read as x1^-1, and (x1^2, x1^-1) would cancel to the
    # empty word, where the word-problem code refuses both letters.
    closure = MoveClosure(make_path(3), 2)
    for bad in (Letter("x1", 0), Letter("x1", 2)):
        with pytest.raises(ValueError, match=r"unknown letter Letter\(base='x1'"):
            closure.canonical((bad,))
        with pytest.raises(ValueError, match="unknown letter"):
            closure.canonical((bad, Letter("x1", -1)))


def test_the_benchmark_closure_has_its_class_count():
    # words_mixed builds this closure and reports its oracle.classes
    assert MoveClosure(make_path(5), 5).class_count() == 14_659


def test_the_closure_refuses_a_negative_bound():
    with pytest.raises(ValueError, match="negative bound -1"):
        MoveClosure(make_path(3), -1)


def test_all_words_refuses_a_negative_bound_when_called():
    # refused at the call, before anything asks for a first word
    with pytest.raises(ValueError, match="negative bound -1"):
        oracle.all_words(make_path(3), -1)


def test_the_oracle_imports_only_letter_from_the_package():
    # it is the independent side of every word-problem check, so it must
    # not reach the reduction or normal-form code
    tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
    internal = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.startswith("raagembed"):
                internal += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            internal += [
                (alias.name, None) for alias in node.names if alias.name.startswith("raagembed")
            ]
    assert internal == [(".words", "Letter")]
