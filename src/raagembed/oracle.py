"""Independent word-problem reference built from elementary moves only.

States are ALL words over the letter alphabet up to a length bound. Two
states are joined when one turns into the other by swapping two adjacent
commuting letters or by deleting an adjacent inverse pair. Connected
components of that move graph are exactly the group-element equality
classes restricted to the bounded universe, the shortest member of a
component is the element's geodesic length, and the first member in
(length, lexicographic) order is a canonical representative.

Word indices run in (length, lexicographic) order over the letter ids, so
a move at a fixed position maps one block of consecutive indices (the
words with a fixed prefix and letter pair there, every suffix) onto
another block of the same size, shifted by a constant. The closure is
built by uniting such aligned blocks element by element, one block pair
per (length, position, prefix, move); no word is decoded into letters.

Nothing here calls the reduction or normal-form code, so this module can
sit on the other side of every word-problem check.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import product

from .words import Letter


def all_words(g, max_len):
    """Every word of length <= max_len over the letters of g, by length
    and then lexicographic over the letter ids 2*vertex_index + (0 if
    positive): the index order of ``MoveClosure``."""
    letters = [Letter(v, s) for v in g.vertices for s in (1, -1)]
    for k in range(max_len + 1):
        yield from product(letters, repeat=k)


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
        # A word of length k with letters x, y at positions i, i+1 has index
        # offsets[k] + p*a*a*t + (x*a + y)*t + s, where p indexes its
        # i-letter prefix, s its suffix and t = a**(k-i-2) counts the
        # suffixes. So one move at one position joins two aligned blocks of
        # t consecutive indices, element by element: a swap of commuting
        # x != y (each unordered pair once, y < x) joins block (x, y) to
        # block (y, x), and deleting x, x^-1 joins block (x, x^-1) to the
        # words offsets[k-2] + p*t + s.
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
        parent = list(range(offsets[self.max_len + 1]))
        classes = len(parent)
        for k in range(2, self.max_len + 1):
            base = offsets[k]
            short_base = offsets[k - 2]
            for i in range(k - 1):
                t = a ** (k - i - 2)
                for p in range(a**i):
                    block = base + p * a * a * t
                    moves = [(block + u * t, block + v * t) for u, v in swaps]
                    moves += [(block + d * t, short_base + p * t) for d in deletions]
                    for src, dst in moves:
                        for s in range(t):
                            # union by the smaller root; the build leaves
                            # path compression to the queries
                            x = src + s
                            while parent[x] != x:
                                x = parent[x]
                            y = dst + s
                            while parent[y] != y:
                                y = parent[y]
                            if x != y:
                                if x < y:
                                    parent[y] = x
                                else:
                                    parent[x] = y
                                classes -= 1
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
