"""Independent word-problem reference built from elementary moves only.

States are ALL words over the letter alphabet up to a length bound. Two
states are joined when one turns into the other by swapping two adjacent
commuting letters or by deleting an adjacent inverse pair. Connected
components of that move graph are exactly the group-element equality
classes restricted to the bounded universe, the shortest member of a
component is the element's geodesic length, and the first member in
(length, lexicographic) order is a canonical representative.

Nothing here calls the reduction or normal-form code, so this module can
sit on the other side of every word-problem check.
"""

from __future__ import annotations

from array import array
from itertools import product

from .words import Letter


class MoveClosure:
    """Union-find closure of the shuffle/cancel move graph on all words of
    length <= max_len over the letters of a graph."""

    def __init__(self, g, max_len):
        self.graph = g
        self.max_len = max_len
        n = len(g.vertices)
        self.alphabet = 2 * n  # letter id: 2*vertex_index + (0 if positive)
        a = self.alphabet

        commute = [[False] * a for _ in range(a)]
        for i in range(n):
            for j in range(n):
                ok = i == j or not g.adjacent(g.vertices[i], g.vertices[j])
                for si in (0, 1):
                    for sj in (0, 1):
                        commute[2 * i + si][2 * j + sj] = ok
        self._commute = commute
        self._inv = [lid ^ 1 for lid in range(a)]

        # offsets[k] = index of the first word of length k
        offsets = [0]
        for k in range(max_len + 1):
            offsets.append(offsets[-1] + a**k)
        self._offsets = offsets
        total = offsets[max_len + 1]
        self._parent = list(range(total))
        self._classes = total
        self._build()
        # Machine ints instead of a list of int objects: a fraction of the
        # memory for the queries, which only follow and compress paths.
        self._parent = array("i", self._parent)

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

    def _union(self, x, y):
        rx, ry = self._find(x), self._find(y)
        if rx != ry:
            if rx > ry:
                rx, ry = ry, rx
            self._parent[ry] = rx
            self._classes -= 1

    # -- construction ---------------------------------------------------

    def _index(self, digits):
        acc = 0
        for d in digits:
            acc = acc * self.alphabet + d
        return self._offsets[len(digits)] + acc

    def _decode(self, idx):
        k = 0
        while self._offsets[k + 1] <= idx:
            k += 1
        acc = idx - self._offsets[k]
        digits = [0] * k
        for pos in range(k - 1, -1, -1):
            digits[pos] = acc % self.alphabet
            acc //= self.alphabet
        return digits

    def _build(self):
        a = self.alphabet
        commute = self._commute
        inv = self._inv
        offsets = self._offsets
        union = self._union
        for k in range(2, self.max_len + 1):
            base = offsets[k]
            short_base = offsets[k - 2]
            # positional place values, most significant first
            place = [a ** (k - 1 - i) for i in range(k)]
            for digits in product(range(a), repeat=k):
                acc = 0
                for d in digits:
                    acc = acc * a + d
                idx = base + acc
                for i in range(k - 1):
                    x, y = digits[i], digits[i + 1]
                    if x != y and commute[x][y]:
                        swapped = acc + (y - x) * place[i] + (x - y) * place[i + 1]
                        if swapped < acc:  # union once per unordered pair
                            union(idx, base + swapped)
                    if y == inv[x]:
                        rem = 0
                        for t in range(k):
                            if t != i and t != i + 1:
                                rem = rem * a + digits[t]
                        union(idx, short_base + rem)

    # -- queries ---------------------------------------------------------

    def _encode_word(self, w):
        if len(w) > self.max_len:
            raise ValueError("word longer than the closure bound")
        g = self.graph
        return [2 * g.index(lt.base) + (0 if lt.sign > 0 else 1) for lt in w]

    def _digits_to_word(self, digits):
        g = self.graph
        return tuple(
            Letter(g.vertices[d // 2], 1 if d % 2 == 0 else -1) for d in digits
        )

    def canonical(self, w):
        """The component's first word in (length, lex) order."""
        idx = self._index(self._encode_word(w))
        return self._digits_to_word(self._decode(self._find(idx)))

    def class_count(self):
        """Number of distinct group elements met by the bounded universe."""
        return self._classes
