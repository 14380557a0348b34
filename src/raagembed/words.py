"""Words in the group presented on a graph, under the convention that two
generators commute exactly when their vertices are NOT adjacent.

Words are flat tuples of letters; equal adjacent letters are never merged
into exponents, so cancellation detection stays literal. All functions are
pure and the values immutable.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import GraphParseError


class Letter(NamedTuple):
    base: str
    sign: int

    def inverse(self):
        return Letter(self.base, -self.sign)

    def __str__(self):
        return self.base if self.sign > 0 else self.base + "^-1"


def word(*tokens):
    """Build a word from vertex labels; a trailing '^-1' inverts a token."""
    out = []
    for t in tokens:
        if t.endswith("^-1"):
            out.append(Letter(t[:-3], -1))
        else:
            out.append(Letter(t, 1))
    return tuple(out)


def inverse(w):
    return tuple(lt.inverse() for lt in reversed(w))


def letters_commute(g, a, b):
    """Two letters commute iff same base or bases non-adjacent."""
    return a.base == b.base or not g.adjacent(a.base, b.base)


def letter_key(g, lt):
    """Total order on letters: vertex order first, positive sign first."""
    return (g.index(lt.base), 0 if lt.sign > 0 else 1)


def find_cancellation(g, w):
    """Positions (i, j) of an innermost cancellation, or None.

    The pair carries inverse letters of one base v with every strictly
    interior letter outside the link of v and no occurrence of v between;
    a word admits no such pair exactly when it is reduced.
    """
    for i, lt in enumerate(w):
        nbrs = g.neighbors(lt.base)
        for j in range(i + 1, len(w)):
            m = w[j]
            if m.base == lt.base:
                if m.sign == -lt.sign:
                    return (i, j)
                break
            if m.base in nbrs:
                break
    return None


def is_reduced(g, w):
    return find_cancellation(g, w) is None


def extend_reduced(g, out, w):
    """Multiply the reduced word ``out`` (a list) by w in place, keeping
    it reduced. Each letter scans back through the letters it commutes
    with: it deletes the first inverse it meets, and stops at a letter of
    its own base and sign or of its link, where it is appended."""
    for lt in w:
        base, sign = lt
        link = g.neighbors(base)
        i = len(out)
        while i:
            i -= 1
            b, s = out[i]
            if b == base:
                if s != sign:
                    del out[i]
                    break
                out.append(lt)
                break
            if b in link:
                out.append(lt)
                break
        else:
            out.append(lt)


def reduce(g, w):
    """Reduced word for w in one left-to-right pass of ``extend_reduced``:
    the word that deleting innermost cancellation pairs until none is
    left also leaves, letter for letter."""
    out = []
    extend_reduced(g, out, w)
    return tuple(out)


def normal_form(g, w):
    """Canonical reduced word: repeatedly emit the least letter (by vertex
    order, then sign) that commutes with everything still ahead of it.

    Two words get the same normal form exactly when they represent the
    same group element.
    """
    remaining = list(reduce(g, w))
    out = []
    while remaining:
        best = None
        best_key = None
        for t, lt in enumerate(remaining):
            if all(letters_commute(g, remaining[i], lt) for i in range(t)):
                k = letter_key(g, lt)
                if best is None or k < best_key:
                    best, best_key = t, k
        out.append(remaining.pop(best))
    return tuple(out)


def is_trivial(g, w):
    return len(reduce(g, w)) == 0


def equal(g, u, w):
    return is_trivial(g, u + inverse(w))


def support(g, w):
    """Vertices whose generator occurs in a reduced word for the element."""
    return frozenset(lt.base for lt in reduce(g, w))


def conjugate_word(g, b, w):
    """Formal word for the conjugate w^-1 b w of a letter b."""
    return inverse(w) + (b,) + w


def commutator(g, u, w):
    """Formal word for u^-1 w^-1 u w."""
    return inverse(u) + inverse(w) + u + w


def iterated_commutator(g, items):
    """Left-normed commutator [[..[g1,g2],g3..],gk] as a formal word."""
    items = list(items)
    if not items:
        raise ValueError("need at least one word")
    acc = items[0]
    for nxt in items[1:]:
        acc = commutator(g, acc, nxt)
    return acc


def commute_elements(g, u, w):
    return is_trivial(g, commutator(g, u, w))


def check_lemma_comm1(g, a, w):
    """Pair (elements commute, link of a misses the support of w).

    The two booleans agree for every input; computing both from
    independent routes makes this a cross-check.
    """
    direct = commute_elements(g, (Letter(a, 1),), w)
    by_support = not (g.neighbors(a) & support(g, w))
    return (direct, by_support)


# ---------------------------------------------------------------------------
# Enumeration of words, one canonical representative per element or every
# reduced word, by letter-by-letter extension.


def _letters(g):
    out = []
    for v in g.vertices:
        out.append(Letter(v, 1))
        out.append(Letter(v, -1))
    return out


def _words(g, max_len, canonical):
    """Depth-first preorder over the reduced words of length <= max_len,
    extended in letter order; with ``canonical``, one word per element.

    A new letter is rejected if it cancels, or (with ``canonical``) if it
    could shuffle ahead of a larger letter: the scan walks back through
    the letters commuting with it and stops at the first link letter.
    """
    letters = _letters(g)
    index = {v: i for i, v in enumerate(g.vertices)}
    nbrs = {v: g.neighbors(v) for v in g.vertices}

    def blocked(w, base, sign):
        link = nbrs[base]
        k = index[base]
        for b, s in reversed(w):
            if b == base:
                if s != sign:
                    return True
                continue
            if b in link:
                return False
            # distinct bases: the letter order is the vertex order
            if canonical and index[b] > k:
                return True
        return False

    stack = [()]
    while stack:
        w = stack.pop()
        yield w
        if len(w) < max_len:
            stack.extend(
                w + (lt,) for lt in reversed(letters) if not blocked(w, *lt)
            )


def canonical_words(g, max_len):
    """Yield the canonical reduced word of every element of length <= max_len."""
    yield from _words(g, max_len, canonical=True)


def reduced_words(g, max_len):
    """Yield every reduced word of length <= max_len (all representatives)."""
    yield from _words(g, max_len, canonical=False)


# ---------------------------------------------------------------------------
# Word syntax: whitespace-separated tokens, `v` or `v^-1`.


def parse_word(text, g=None, name="<word>"):
    out = []
    for tok in text.split():
        if tok.endswith("^-1"):
            base, sign = tok[:-3], -1
        elif "^" in tok:
            raise GraphParseError(f"{name}: bad token {tok!r} (use v or v^-1)")
        else:
            base, sign = tok, 1
        if not base:
            raise GraphParseError(f"{name}: bad token {tok!r}")
        if g is not None and base not in g:
            raise GraphParseError(f"{name}: {base!r} is not a vertex")
        out.append(Letter(base, sign))
    return tuple(out)


def format_word(w):
    return " ".join(str(lt) for lt in w)
