"""Words in the group presented on a graph, under the convention that two
generators commute exactly when their vertices are NOT adjacent.

Words are flat tuples of letters; equal adjacent letters are never merged
into exponents. All functions are pure and the values immutable.
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
    """A word of one letter per token, read by ``parse_word``'s rule."""
    w = parse_word(" ".join(tokens))
    if len(w) != len(tokens):
        raise GraphParseError(f"<word>: {tokens!r} is not one letter per token")
    return w


def inverse(w):
    return tuple(lt.inverse() for lt in reversed(w))


def reduce(g, w):
    """Reduced word for w in one left-to-right pass: each letter scans
    back through the letters it commutes with, deletes the first inverse
    it meets, and stops at a letter of its own base and sign or of its
    link, where it is appended. The result is the word that deleting
    innermost cancellation pairs until none is left also leaves, letter
    for letter. A tuple that is already reduced is returned itself."""
    a = _alphabet(g)
    ids = _encode(a, w)
    return _as_word(a, w, ids, _reduced_ids(a.stops, ids))


def normal_form(g, w):
    """Canonical reduced word: the lexicographically least reduced word
    for the element, letters ordered by vertex, then sign; one insertion
    pass of ``_normal_form_ids`` over w, reduced or not, builds it.

    Two words get the same normal form exactly when they represent the
    same group element. A tuple that is already its normal form is
    returned itself.
    """
    a = _alphabet(g)
    ids = _encode(a, w)
    return _as_word(a, w, ids, _normal_form_ids(a.stops, ids))


def is_trivial(g, w):
    a = _alphabet(g)
    return not _reduced_ids(a.stops, _encode(a, w))


def equal(g, u, w):
    a = _alphabet(g)
    return not _reduced_ids(a.stops, _encode(a, u) + _inverse_ids(_encode(a, w)))


def support(g, w):
    """Vertices whose generator occurs in a reduced word for the element."""
    a = _alphabet(g)
    vertices = g.vertices
    return frozenset([vertices[c >> 1] for c in _reduced_ids(a.stops, _encode(a, w))])


def conjugate_word(b, w):
    """Formal word for the conjugate w^-1 b w of a letter b."""
    return inverse(w) + (b,) + w


def commutator(u, w):
    """Formal word for u^-1 w^-1 u w."""
    return inverse(u) + inverse(w) + u + w


def iterated_commutator(items):
    """Left-normed commutator [[..[g1,g2],g3..],gk] as a formal word."""
    items = list(items)
    if not items:
        raise ValueError("need at least one word")
    acc = items[0]
    for nxt in items[1:]:
        acc = commutator(acc, nxt)
    return acc


def commute_elements(g, u, w):
    """Whether u and w commute: the commutator u^-1 w^-1 u w, built on
    letter ids, reduces to the empty word."""
    a = _alphabet(g)
    u, w = _encode(a, u), _encode(a, w)
    return not _reduced_ids(a.stops, _inverse_ids(u) + _inverse_ids(w) + u + w)


# ---------------------------------------------------------------------------
# Integer letter ids. The letter of sign s on the vertex of index i has id
# 2*i + (s < 0), so id order is vertex order, positive sign first. The word
# problem above, the enumerator, the bounded hom walks and the
# extension-graph vertices run on ids; strings come back only when a word
# is decoded or formatted.


class _Alphabet(NamedTuple):
    letters: tuple  # the Letter of each id
    ids: dict  # the id of each Letter
    stops: tuple  # per id: the ids of both signs of its base and neighbours
    links: tuple  # per id: the ids of both signs of its neighbours


def _alphabet(g):
    """The id tables of g, built on first use and kept in its one slot.
    ``links[c]`` is the neighbour bitmask of c's vertex, in ids: the
    letters that do not commute with c. ``stops[c]`` adds that vertex:
    the letters that end c's backward scan."""
    a = g._alphabet
    if a is None:
        # ``_make`` skips the Python-level ``__new__`` of the namedtuple.
        make = Letter._make
        letters = tuple([make((v, s)) for v in g.vertices for s in (1, -1)])
        ids = {lt: c for c, lt in enumerate(letters)}
        stops, links = [], []
        for i, m in enumerate(g._masks):
            # Spread the neighbour mask to ids: the bit 1 << j of vertex j
            # becomes 3 << 2 * j, which is 3 * (1 << j) ** 2.
            link = 0
            while m:
                low = m & -m
                m ^= low
                link |= 3 * low * low
            stop = link | 3 << 2 * i
            stops += (stop, stop)
            links += (link, link)
        a = g._alphabet = _Alphabet(letters, ids, tuple(stops), tuple(links))
    return a


def _encode(alphabet, w):
    """The ids of the letters of w, as a list. A letter that is not on the
    graph raises ValueError."""
    ids = alphabet.ids
    try:
        return [ids[lt] for lt in w]
    except KeyError as exc:
        raise ValueError(f"unknown letter {exc.args[0]!r}") from None


def _decode(alphabet, w):
    letters = alphabet.letters
    return tuple([letters[c] for c in w])


def _as_word(alphabet, w, ids, out):
    """The word of the id list ``out``, given that the word w has the ids
    ``ids``: w itself when it is a tuple and out equals ids (as
    ``tuple(t)`` returns t), else a decoded tuple."""
    if out == ids and type(w) is tuple:
        return w
    return _decode(alphabet, out)


def _inverse_ids(w):
    return [c ^ 1 for c in reversed(w)]


def _reduced_ids(stops, w):
    """The reduced id list of the id word w."""
    out = []
    _extend_reduced_ids(stops, out, w)
    return out


def _extend_reduced_ids(stops, out, w):
    """The pass of ``reduce`` on letter ids: multiply the reduced id list
    ``out`` by the ids w in place, keeping it reduced."""
    for c in w:
        stop = stops[c]
        i = len(out)
        while i:
            i -= 1
            d = out[i]
            if stop >> d & 1:
                if d == c ^ 1:
                    del out[i]
                else:
                    out.append(c)
                break
        else:
            out.append(c)


def _normal_form_ids(stops, w):
    """``normal_form`` of the id word w, reduced or not, as an id list, in
    one pass. Each id c scans back over the letters it commutes with, as
    in ``_extend_reduced_ids``, to the first letter in ``stops[c]``. If
    that is c's inverse, it is deleted; else c is inserted before the
    leftmost scanned letter above c, or at the end if there is none.

    A reduced word is the least of its element's reduced words, in id
    order, exactly when it has no factor b v a with a < b and a commuting
    with b and with all of v (Anisimov and Knuth, "Inhomogeneous
    sorting", 1979). Let ``out`` be in normal form. An inserted c makes
    no such factor. One ending at c would start at a scanned letter above
    c ahead of it (there is none) or run through the stop letter, which
    commutes with c only when it equals c and then ended an older factor.
    One starting at c would, without c, start at the letter after c,
    which is above c: an older factor. A deleted inverse commutes with
    every letter after it, so a factor across its place held it in v
    before. And ``out`` stays reduced: an inverse that c could reach past
    commuting letters is where its scan stops."""
    out = []
    for c in w:
        stop = stops[c]
        i = p = len(out)
        while i:
            i -= 1
            d = out[i]
            if stop >> d & 1:
                if d == c ^ 1:
                    p = -1
                    del out[i]
                break
            if d > c:
                p = i
        if p >= 0:
            out.insert(p, c)
    return out


def _words(g, max_len, canonical, blocked=0):
    """Depth-first preorder over the reduced words of length <= max_len,
    as id tuples extended in id order; with ``canonical``, one word per
    element. ``blocked`` is the mask of ids that may not start a word.

    Yields ``(w, leaves)`` for each word w shorter than max_len (for
    max_len 0, just ``((), 0)``). ``leaves`` is the mask of the ids c for
    which ``w + (c,)`` is a word of length max_len: 0 unless w has length
    max_len - 1. The words of length max_len are not built; in preorder
    they come right after their parent, in ascending id order (see
    ``_bits``).

    Each stacked word carries the mask of ids that may not extend it.
    Appending c clears the bits of its base and link, since their
    backward scans now stop at c, which was allowed; it sets the bit of
    its inverse, which would cancel; and, with ``canonical``, it sets the
    bits of every lower-indexed vertex commuting with c, whose letters
    could shuffle ahead of c.
    """
    if max_len < 0:
        raise ValueError(f"negative bound {max_len}")
    if max_len == 0:
        yield (), 0
        return
    keep, add = _steps(g, canonical)
    every = (1 << 2 * len(g)) - 1
    top = range(2 * len(g) - 1, -1, -1)
    last = max_len - 1
    stack = [((), blocked)]
    while stack:
        w, blocked = stack.pop()
        if len(w) == last:
            yield w, every & ~blocked
        else:
            yield w, 0
            stack += [
                (w + (c,), blocked & keep[c] | add[c])
                for c in top
                if not blocked >> c & 1
            ]


def _steps(g, canonical):
    """The step tables of the walk of ``_words``: appending the id c to a
    word with blocked mask b leaves the mask ``b & keep[c] | add[c]``."""
    keep, add = [], []
    for c, stop in enumerate(_alphabet(g).stops):
        keep.append(~stop)
        low = ((1 << (c & ~1)) - 1) & ~stop if canonical else 0
        add.append(1 << (c ^ 1) | low)
    return keep, add


def _word_count(steps, max_len):
    """The number of words in the walk of ``_words`` with the step tables
    ``steps`` from the empty mask, the empty word included, without
    walking them."""
    return _state_counts(steps, max_len, [[0] * len(steps[0])])[0]


def _state_counts(steps, max_len, step):
    """The number of words in each state in the walk of ``_words`` from the
    empty mask, the empty word included, without walking them. The empty
    word has state 0, and w + (c,) has state ``step[s][c]`` when w has
    state s. A word's extensions depend on its blocked mask alone, so the
    words of each length are counted per state and blocked mask, level by
    level. From each state the ids are grouped by the state they lead to,
    so that each group steps the masks into one state's next level as
    ``steps``, the tables of ``_steps``, say; the last level is counted
    by popcount per group."""
    if max_len < 0:
        raise ValueError(f"negative bound {max_len}")
    keep, add = steps
    groups = []
    for row in step:
        by_state = {}
        for c, t in enumerate(row):
            by_state.setdefault(t, []).append(c)
        groups.append(
            [(t, ids, sum(1 << c for c in ids)) for t, ids in by_state.items()]
        )
    counts = [0] * len(step)
    level = [{0: 1}] + [{} for _ in step[1:]]
    for _ in range(max_len - 1):
        nxt = [{} for _ in step]
        for s, masks in enumerate(level):
            counts[s] += sum(masks.values())
            for t, ids, _ in groups[s]:
                into = nxt[t]
                for blocked, n in masks.items():
                    for c in ids:
                        if not blocked >> c & 1:
                            b = blocked & keep[c] | add[c]
                            into[b] = into.get(b, 0) + n
        level = nxt
    for s, masks in enumerate(level):
        counts[s] += sum(masks.values())
        if max_len:
            for t, _, mask in groups[s]:
                counts[t] += sum(
                    n * (mask & ~b).bit_count() for b, n in masks.items()
                )
    return counts


def _bits(mask):
    """The ids of the set bits of mask, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _decoded_words(g, max_len, canonical):
    """Every word of the walk of ``_words``, leaves expanded, as letters."""
    letters = _alphabet(g).letters
    for w, leaves in _words(g, max_len, canonical):
        prefix = tuple([letters[c] for c in w])
        yield prefix
        for c in _bits(leaves):
            yield prefix + (letters[c],)


def canonical_words(g, max_len):
    """Yield the canonical reduced word of every element of length <= max_len."""
    yield from _decoded_words(g, max_len, True)


def reduced_words(g, max_len):
    """Yield every reduced word of length <= max_len (all representatives)."""
    yield from _decoded_words(g, max_len, False)


# ---------------------------------------------------------------------------
# Word syntax: whitespace-separated tokens, `v` or `v^-1`.


def parse_word(text, g=None, name="<word>"):
    out = []
    for tok in text.split():
        sign = -1 if tok.endswith("^-1") else 1
        base = tok[:-3] if sign < 0 else tok
        if not base or "^" in base:
            raise GraphParseError(f"{name}: bad token {tok!r} (use v or v^-1)")
        if g is not None and base not in g:
            raise GraphParseError(f"{name}: {base!r} is not a vertex")
        out.append(Letter(base, sign))
    return tuple(out)


def format_word(w):
    return " ".join(str(lt) for lt in w)
