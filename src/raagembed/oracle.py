"""Independent word-problem reference built from elementary moves only.

States are ALL words over the letter alphabet up to a length bound. Two
states are joined when one turns into the other by swapping two adjacent
commuting letters or by deleting an adjacent inverse pair. Connected
components of that move graph are exactly the group-element equality
classes restricted to the bounded universe, the shortest member of a
component is the element's geodesic length, and the first member in
(length, lexicographic) order is a canonical representative.

Word indices run in (length, lexicographic) order over the letter ids.
The closure is built on indices, one length k at a time:

* Carried moves are sound. A move at position >= 1 of x·u is a move of u
  under the prefix x, and so is any path of moves among shorter words. So
  x·u takes x·root(u) as its parent without a union, and two words one
  such move apart get the same parent.
* Root suffixes suffice. With r = root(s), carried moves join x·y·s to
  x·y·r and s to r, so a position-0 swap or deletion on x·y·s follows
  from the same move on x·y·r. Only suffixes s that are their own root
  of length k-2 are united; a shorter r was united at its own length.
* The roots the carrying reads must stay put: no longer word may join two
  classes of shorter words. Equal words are joined by moves that never
  lengthen a word, and the build checks it: it ends by recomputing the
  roots it read and raises ``RuntimeError`` if any has moved.

Nothing here calls the reduction or normal-form code, so this module can
sit on the other side of every word-problem check.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import chain, product
from operator import add

from .words import Letter


def all_words(g, max_len):
    """Every word of length <= max_len over the letters of g, by length
    and then lexicographic over the letter ids 2*vertex_index + (0 if
    positive): the index order of ``MoveClosure``. A negative bound is
    refused at the call."""
    if max_len < 0:
        raise ValueError(f"negative bound {max_len}")
    letters = [Letter(v, s) for v in g.vertices for s in (1, -1)]
    return chain.from_iterable(product(letters, repeat=k) for k in range(max_len + 1))


def _check_roots(parent, read):
    """Raise RuntimeError unless each index i below len(read) still has the
    root read[i]: the carried moves assume that no longer word joins two
    classes of shorter words. (RuntimeError: the oracle imports nothing
    from the package but ``Letter``.)"""
    roots = []
    for i in range(len(read)):
        p = parent[i]
        roots.append(i if p == i else roots[p])
    if roots != read:
        i = next(i for i, r in enumerate(read) if roots[i] != r)
        raise RuntimeError(f"the root of index {i} moved from {read[i]} to {roots[i]}")


class MoveClosure:
    """Union-find closure of the shuffle/cancel move graph on all words of
    length <= max_len over the letters of a graph."""

    def __init__(self, g, max_len):
        if max_len < 0:
            raise ValueError(f"negative bound {max_len}")
        self.graph = g
        self.max_len = max_len
        n = len(g.vertices)
        self.alphabet = 2 * n  # letter id: 2*vertex_index + (0 if positive)

        # offsets[k] = index of the first word of length k
        offsets = [0]
        for k in range(max_len + 1):
            offsets.append(offsets[-1] + self.alphabet**k)
        self._offsets = offsets
        parent, self._classes = self._build()
        # Machine ints instead of a list of int objects: a fraction of the
        # memory for the queries, which only follow and compress paths.
        self._parent = array("i", parent)

    # -- union-find ---------------------------------------------------
    # A union keeps the smaller index as the root, and index order is
    # (length, lexicographic) order, so each root is its component's
    # canonical representative.

    def _find(self, x):
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    # -- construction ---------------------------------------------------

    def _build(self):
        # A word of length m has index offsets[m] + its letter ids read in
        # base a, so prefixing x to the word with index r adds a**m * (x + 1).
        g = self.graph
        vs = g.vertices
        a = self.alphabet
        swaps = [
            (x * a + y, y * a + x)
            for x in range(a)
            for y in range(x)
            if x // 2 == y // 2 or not g.adjacent(vs[x // 2], vs[y // 2])
        ]
        deletions = [x * a + (x ^ 1) for x in range(a)]
        offsets = self._offsets
        parent = [0]
        # root[i], and step[i] = a**len(root[i]), for every word shorter
        # than the length being closed: the roots the build reads
        root, step = [0], [1]
        fresh = classes = 1  # fresh counts the roots of the last length
        for k in range(1, self.max_len + 1):
            # Carried moves: x·u takes x·root(u) as its parent, one slice
            # per first letter x. Each self-rooted u gives a new root x·u.
            lower = offsets[k - 1]
            carried, steps = root[lower:], step[lower:]
            for _ in range(a):
                carried = list(map(add, carried, steps))
                parent += carried
            classes += a * fresh
            if k >= 2:
                # Position-0 moves, only on x·y·s with s its own root of
                # length k-2: x·y·s = offsets[k] + (x*a + y)*t + s - offsets[k-2]
                t = a ** (k - 2)
                shorter = offsets[k - 2]
                shift = offsets[k] - shorter
                for s in range(shorter, offsets[k - 1]):
                    if root[s] != s:
                        continue
                    j = s + shift
                    moves = [(j + u * t, j + v * t) for u, v in swaps]
                    moves += [(j + d * t, s) for d in deletions]
                    for x, y in moves:
                        # union by the smaller root; the build leaves path
                        # compression to the queries
                        while parent[x] != x:
                            x = parent[x]
                        while parent[y] != y:
                            y = parent[y]
                        if x != y:
                            if x < y:
                                parent[y] = x
                            else:
                                parent[x] = y
                            classes -= 1
            if k < self.max_len:
                # Every parent points at or below its child, so one pass in
                # index order reads each root off its parent's.
                ak, fresh = a**k, 0
                for i in range(offsets[k], offsets[k + 1]):
                    p = parent[i]
                    if p == i:
                        root.append(i)
                        step.append(ak)
                        fresh += 1
                    else:
                        root.append(root[p])
                        step.append(step[p])
        _check_roots(parent, root)
        return parent, classes

    # -- queries ---------------------------------------------------------

    def sweep(self):
        """Yield (w, canonical(w)) for each word of ``all_words``, in index
        order: a root is its class's least index, so the sweep meets the
        canonical word first and decodes nothing."""
        first = {}
        for idx, w in enumerate(all_words(self.graph, self.max_len)):
            yield w, first.setdefault(self._find(idx), w)

    def canonical(self, w):
        """The component's first word in (length, lex) order."""
        if len(w) > self.max_len:
            raise ValueError("word longer than the closure bound")
        g, a, offsets = self.graph, self.alphabet, self._offsets
        acc = 0
        for lt in w:
            if lt.sign not in (1, -1):
                raise ValueError(f"unknown letter {lt!r}")
            acc = acc * a + 2 * g.index(lt.base) + (lt.sign < 0)
        root = self._find(offsets[len(w)] + acc)
        k = bisect_right(offsets, root) - 1
        acc, out = root - offsets[k], []
        for _ in range(k):
            acc, d = divmod(acc, a)
            out.append(Letter(g.vertices[d // 2], 1 if d % 2 == 0 else -1))
        return tuple(reversed(out))

    def class_count(self):
        """Number of distinct group elements met by the bounded universe."""
        return self._classes
