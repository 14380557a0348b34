"""Vertices and finite induced subgraphs of the extension graph: the
conjugates of generators, with adjacency given by non-commutation.

The whole extension graph is usually infinite; everything here works on
the finite part reachable within a conjugator-length radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter

from .errors import GraphParseError, InvariantViolation
from .graphs import (
    SimplicialGraph,
    _edge_ids,
    automorphisms,
    induced_maps,
    make_path,
)
from .words import (
    Letter,
    _alphabet,
    _bits,
    _decode,
    _encode,
    _extend_reduced_ids,
    _inverse_ids,
    _normal_form_ids,
    _words,
    commute_elements,
    equal,
    format_word,
    inverse,
    normal_form,
    parse_word,
)


class ExtVertex:
    """A conjugate of a generator, stored canonically.

    ``key`` is the normal form of the whole element and is the equality
    key; ``conjugator`` is a shortest word w with the conjugate of base by
    w reduced and equal to the element.

    Only ``ext_vertex`` builds one, from the ``_record`` it proved: the
    constructor takes the building graph's id tables (``_alphabet``, the
    tag) and the record, and keeps the record's triple as ``_ids`` and
    its key decoded. ``base``, ``conjugator`` and ``radius`` are read off
    the triple's word x^-1 a x, and no field can be assigned. The vertex
    is read only on the graph that built it: ``_on`` rebuilds it for any
    other.
    """

    __slots__ = ("_alphabet", "_ids", "_key")

    def __init__(self, alphabet, record):
        key, self._ids = record
        self._key = _decode(alphabet, key)
        self._alphabet = alphabet

    key = property(attrgetter("_key"))

    @property
    def base(self):
        w = self._ids[0]
        return self._alphabet.letters[w[len(w) >> 1]].base

    @property
    def conjugator(self):
        w = self._ids[0]
        return _decode(self._alphabet, w[(len(w) >> 1) + 1:])

    @property
    def radius(self):
        return len(self._ids[0]) >> 1

    def __eq__(self, other):
        if not isinstance(other, ExtVertex):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __str__(self):
        return format_ext_vertex(self)

    def __repr__(self):
        return f"ExtVertex({format_ext_vertex(self)!r})"


def _on(g, vertices):
    """The vertices as vertices of g: each built on another graph object,
    an equal one too, is rebuilt by ``ext_vertex`` from its base and
    conjugator. Every key is then g's normal form, so equal keys are
    equal elements of g. A base or letter not on g raises ValueError."""
    alphabet = _alphabet(g)
    return [
        v if v._alphabet is alphabet else ext_vertex(g, v.base, v.conjugator)
        for v in vertices
    ]


def _conjugate_key(alphabet, w):
    """The normal form of the id word w = x^-1 a x, one insertion pass.
    Raises InvariantViolation unless it keeps all 2|x| + 1 letters, that
    is, unless w is reduced: the check that every vertex passes."""
    key = _normal_form_ids(alphabet.stops, w)
    if len(key) != len(w):
        k = len(w) >> 1
        raise InvariantViolation(
            f"conjugate of {alphabet.letters[w[k]].base!r} by "
            f"{format_word(_decode(alphabet, w[k + 1:]))!r} failed to canonicalize"
        )
    return key


def _record(alphabet, a, x):
    """The record of the vertex a^(x), for a base id a and a stripped id
    conjugator x: the ids of its key and the triple that ``_adjacent_ids``
    reads (the word x^-1 a x, the id mask of its support, that mask plus
    the neighbours of every support vertex), masks taking both signs of a
    vertex. ``_conjugate_key`` proves x^-1 a x reduced, so its support is
    a with the letters of x. The one builder of a triple."""
    stops = alphabet.stops
    if not x:
        # A generator is its own reduced word and key.
        return (a,), ((a,), 3 << a, stops[a])
    w = _inverse_ids(x) + [a, *x]
    key = _conjugate_key(alphabet, w)
    support, reach = 3 << a, stops[a]
    for c in x:
        support |= 3 << (c & ~1)
        reach |= stops[c]
    return key, (tuple(w), support, reach)


def ext_vertex(g, base, w=()):
    """Canonical extension-graph vertex for the conjugate of ``base`` by w.

    Letters of w that can shuffle to the front and commute with the base
    contribute nothing to the conjugate and are stripped, which leaves the
    stored conjugate expression reduced. When nothing is stripped, the
    normal form of w is already the conjugator. The work runs on letter
    ids, each normal form (of w, of the stripped conjugator, of the key)
    in one pass of ``_normal_form_ids`` over an unreduced word; the result
    is kept by the vertex as its ``_record``. A generator, with w empty,
    needs no normal form of w.
    """
    if base not in g:
        raise ValueError(f"unknown vertex {base!r}")
    alphabet = _alphabet(g)
    a = 2 * g.index(base)
    if not w:
        # Most witness vertices are generators.
        return ExtVertex(alphabet, _record(alphabet, a, ()))
    stops, links = alphabet.stops, alphabet.links
    u = _normal_form_ids(stops, _encode(alphabet, w))
    # A letter is kept when it is in the link of a or blocked by a letter
    # kept before it; any other letter shuffles to the front and commutes
    # with a. Stripping a letter changes no earlier letter's test, so one
    # pass strips all that rescanning would.
    link = links[a]
    conj = []
    blocked = 0
    for c in u:
        if (link | blocked) >> c & 1:
            conj.append(c)
            blocked |= links[c]
    if len(conj) < len(u):
        conj = _normal_form_ids(stops, conj)
    return ExtVertex(alphabet, _record(alphabet, a, conj))


def format_ext_vertex(v):
    w = v.conjugator
    return f"{v.base}^({format_word(w)})" if w else v.base


def parse_ext_vertex(text, g, name="<ext-vertex>"):
    """Parse ``a^(w)`` or a bare generator name."""
    text = text.strip()
    if "^" not in text:
        return ext_vertex(g, text) if text in g else _bad_ext(name, text)
    base, _, rest = text.partition("^")
    rest = rest.strip()
    if base not in g or not (rest.startswith("(") and rest.endswith(")")):
        return _bad_ext(name, text)
    w = parse_word(rest[1:-1], g, name=name)
    return ext_vertex(g, base, w)


def _bad_ext(name, text):
    raise GraphParseError(f"{name}: cannot parse extension vertex {text!r}")


def ext_adjacent(g, u, v):
    """Adjacent iff the two conjugates do not commute in g: distinct keys,
    then ``_adjacent_ids`` on the pair's ``_record`` triples. A vertex
    built on another graph is first rebuilt on g (``_on``)."""
    alphabet = _alphabet(g)
    if u._alphabet is not alphabet or v._alphabet is not alphabet:
        u, v = _on(g, (u, v))
    if u._key == v._key:
        return False
    return _adjacent_ids(alphabet, u._ids, v._ids)


def _adjacent_ids(alphabet, iu, iv):
    """Whether two distinct elements of the graph of ``alphabet``, as
    ``_record`` triples, do not commute: the one pair routine on ids.

    Write u = a^(x) with the shorter conjugator and v = b^(y); a and x
    are read off the triple's word x^-1 a x, and b is the middle id of
    v's. When no vertex of u's support meets or neighbours one of v's,
    every letter pair commutes. When b neighbours a, they do not
    commute: conjugating by x^-1 turns u into a and v into b^(z), with
    z = y x^-1. If these commuted, b^(z) would lie in the centraliser of
    a, which is the subgroup on the star of a: a with the vertices not
    adjacent to it (Servatius 1989). The retraction onto that subgroup,
    sending every other generator to 1, would fix b^(z) and, b being off
    the star, send it to 1; but a conjugate of a generator is not 1. On
    b = a, a^(z) would be a^m w with w on the star of a less a; the
    retraction onto that smaller star sends a^(z) to 1 and a^m w to w,
    so w = 1, and the exponent sum of a gives m = 1: two commuting
    vertices on one base are one element, so distinct ones do not
    commute either. Otherwise conjugating by x^-1 turns v into the
    reduced word z of x y^-1 b y x^-1, and the two commute iff the link
    of a misses the support of z. When u is a generator, z is v's word,
    whose support is known. No reduction runs in the first three cases.
    """
    if len(iv[0]) < len(iu[0]):
        iu, iv = iv, iu
    ku, _, reach = iu
    kv, support, _ = iv
    if not reach & support:
        return False
    k = len(ku) >> 1
    a = ku[k]
    if alphabet.stops[a] >> kv[len(kv) >> 1] & 1:
        return True
    link = alphabet.links[a]
    if not k:
        return bool(link & support)
    # x is reduced, so z is reduced from x onwards.
    z = list(ku[k + 1:])
    _extend_reduced_ids(alphabet.stops, z, kv + ku[:k])
    for c in z:
        if link >> c & 1:
            return True
    return False


def _conjugators(g, radius):
    """The vertices of conjugator length <= radius as (base index i, id
    conjugator x) pairs, sorted by (radius, base, conjugator).

    ``ext_vertex`` stores as the conjugator of a base a the normal-form
    word x in which every letter lies in the link of a or in the link of
    an earlier letter of x. The canonical walk of ``_words`` yields the
    normal-form words, those of length radius as leaf masks, and started
    with every id outside the link of a blocked it yields exactly these:
    an appended letter unblocks its own base and link. A stripped
    conjugator is the unique shortest word of its coset of the
    centraliser of a, so each word is a distinct vertex.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    alphabet = _alphabet(g)
    found = []
    for i in range(len(g)):
        for x, leaves in _words(g, radius, True, ~alphabet.links[2 * i]):
            found.append((len(x), i, x))
            found += [(len(x) + 1, i, x + (c,)) for c in _bits(leaves)]
    found.sort()
    return [(i, x) for _, i, x in found]


def enumerate_vertices(g, radius):
    """All distinct vertices with conjugator length <= radius, sorted by
    (radius, base, conjugator), each built by ``ext_vertex``."""
    alphabet = _alphabet(g)
    return [
        ext_vertex(g, g.vertices[i], _decode(alphabet, x))
        for i, x in _conjugators(g, radius)
    ]


def _pool(g, radius):
    """The vertices of ``enumerate_vertices`` as id records, in its
    order: (base index i, id conjugator x, ``_record`` triple), every
    part immutable; the vertex that ``ext_vertex`` builds keeps the same
    triple."""
    alphabet = _alphabet(g)
    return [
        (i, x, _record(alphabet, 2 * i, x)[1]) for i, x in _conjugators(g, radius)
    ]


@dataclass(frozen=True)
class ExtSubgraphView:
    """Pairwise adjacency of a finite vertex set, plus the abstract image."""

    vertices: tuple
    edges: frozenset  # index pairs (i, j), i < j

    @property
    def graph(self):
        """The image as a graph on the labels u1..uk, u<i> standing for the
        i-th vertex: a vertex text such as x2^(x3 x4) is no readable label."""
        labels = [f"u{i}" for i in range(1, len(self.vertices) + 1)]
        return SimplicialGraph(labels, [(labels[i], labels[j]) for i, j in self.edges])


def _ext_edges(g, vertices):
    """The index pairs (i, j), i < j, of the adjacent vertices in the
    sequence; ValueError if two are equal elements."""
    edges = _distinct_ext_edges(g, vertices)
    if edges is None:
        raise ValueError("duplicate extension vertices")
    return edges


def _distinct_ext_edges(g, vertices):
    """``_ext_edges``, or None if two vertices are equal elements. Each
    pair is asked once in ``combinations`` order, with no early exit, so
    that one routine serves the accepting and the rejecting callers."""
    vertices = _on(g, vertices)
    if len({v._key for v in vertices}) != len(vertices):
        return None
    alphabet = _alphabet(g)
    ids = [v._ids for v in vertices]
    return frozenset(
        (i, j)
        for i, j in combinations(range(len(vertices)), 2)
        if _adjacent_ids(alphabet, ids[i], ids[j])
    )


def induced_ext_subgraph(g, S):
    S = tuple(S)
    return ExtSubgraphView(vertices=S, edges=_ext_edges(g, S))


def push_to_base(g, items):
    """Conjugate an independent set of distinct vertices into the base
    generators.

    Returns (w, bases): conjugating every element by w on the left and its
    inverse on the right lands item i on bases[i]. Each step fixes the
    vertices already placed, so the set is moved one vertex at a time.
    """
    items = _on(g, items)
    edges = _ext_edges(g, items)
    if edges:
        i, j = min(edges)
        raise ValueError(
            f"set is not independent: {format_ext_vertex(items[i])} and "
            f"{format_ext_vertex(items[j])} do not commute"
        )
    total = ()
    placed = []
    for item in items:
        # item conjugated by every step so far depends only on their product
        v = ext_vertex(g, item.base, item.conjugator + inverse(total))
        w = v.conjugator
        if w:
            for b in placed:
                if not equal(g, w + (Letter(b, 1),) + inverse(w), (Letter(b, 1),)):
                    raise InvariantViolation(
                        f"conjugation by {format_word(w)} moved the placed vertex {b}"
                    )
            if not equal(g, w + v.key + inverse(w), (Letter(v.base, 1),)):
                raise InvariantViolation(
                    f"conjugation by {format_word(w)} missed the base of "
                    f"{format_ext_vertex(v)}"
                )
            total = w + total
        placed.append(v.base)
    total = normal_form(g, total)
    for v, b in zip(items, placed):
        if not equal(g, total + v.key + inverse(total), (Letter(b, 1),)):
            raise InvariantViolation("final conjugator verification failed")
    return total, placed


def lex_first_max_independent_set(g):
    """Lexicographically first maximum independent set (canonical order)."""
    found = _max_independent(g._masks, (1 << len(g)) - 1, {})
    return tuple([v for i, v in enumerate(g.vertices) if found >> i & 1])


def _max_independent(masks, avail, memo):
    """The lexicographically first maximum independent set of the vertices
    in the mask ``avail``, as a mask, by branching on the least vertex:
    take it, which makes its neighbours unavailable, or drop it. Each set
    that takes it comes before each set that drops it, so taking wins a
    tie, and a vertex with no available neighbour is always taken. The
    answer for each mask is kept in ``memo``."""
    if not avail:
        return 0
    found = memo.get(avail)
    if found is None:
        low = avail & -avail
        rest = avail ^ low
        nbrs = masks[low.bit_length() - 1]
        found = low | _max_independent(masks, rest & ~nbrs, memo)
        if nbrs & rest:
            drop = _max_independent(masks, rest, memo)
            if drop.bit_count() > found.bit_count():
                found = drop
        memo[avail] = found
    return found


def _pool_rows(g, pool):
    """The adjacency rows of a ``_pool`` of g: returns ``row(d, mask)``,
    the mask of the pool vertices in ``mask`` adjacent to pool[d].

    A record's support is its base with the letters of its conjugator
    (``_pool`` keeps only reduced x^-1 a x). Two vertices whose supports
    neither meet nor neighbour commute, and a generator is adjacent to a
    vertex exactly when it neighbours that vertex's support: the two
    facts ``_adjacent_ids`` answers first. The records are distinct
    elements of g, so two of them on equal or adjacent bases do not
    commute (the base rule of ``_adjacent_ids``). So one pass over the
    records builds, per vertex b of g, the mask of the pool vertices
    whose support holds b and the mask of those on base b. The pool starts with the
    generators in vertex order, so a generator's pool index is its vertex
    index: a generator's row is the OR of the support masks over its
    link, and the generator part of another vertex's row is the mask of
    the vertices that neighbour its support. A non-generator's row also
    takes, by the base masks, every other vertex on its base or on a
    neighbour of it. Only the non-generators on other bases in the OR of
    the support masks over its support and those neighbours go through
    ``_adjacent_ids``, when a row asks for them, each pair once, written
    into both rows.
    """
    alphabet = _alphabet(g)
    n = len(g)
    nbrs = g._masks
    # The bits are set in byte arrays, so that the pass is linear in the pool.
    holders = [bytearray((len(pool) + 7) >> 3) for _ in range(n)]
    bases = [bytearray((len(pool) + 7) >> 3) for _ in range(n)]
    for d, (i, x, _) in enumerate(pool):
        byte, bit = d >> 3, 1 << (d & 7)
        holders[i][byte] |= bit
        bases[i][byte] |= bit
        for c in x:
            holders[c >> 1][byte] |= bit
    by_vertex = [int.from_bytes(h, "little") for h in holders]
    by_base = [int.from_bytes(h, "little") for h in bases]
    ids = [r[2] for r in pool]
    others = ~((1 << n) - 1)
    # Per pool vertex: the mask of those adjacent to it found so far, the
    # non-generators that the pair routine may find adjacent to it (None
    # until its row is first asked for), and those whose pair with it has
    # been evaluated.
    adj = [0] * len(pool)
    maybe = [None] * len(pool)
    known = [0] * len(pool)

    def row(d, mask):
        """The pool vertices in ``mask`` adjacent to pool[d]."""
        todo = maybe[d]
        if todo is None:
            i, x, _ = pool[d]
            support = near = 0
            for b in {i, *[c >> 1 for c in x]}:
                support |= 1 << b
                near |= nbrs[b]
            reach = 0
            for b in _bits(near if d < n else support | near):
                reach |= by_vertex[b]
            if d < n:
                adj[d], todo = reach, 0
            else:
                same = by_base[i]
                for b in _bits(nbrs[i]):
                    same |= by_base[b]
                same &= others
                adj[d] |= near | same & ~(1 << d)
                todo = reach & others & ~same
            maybe[d] = todo
        todo &= mask & ~known[d]
        if todo:
            idd, bit = ids[d], 1 << d
            known[d] |= todo
            while todo:
                low = todo & -todo
                todo ^= low
                c = low.bit_length() - 1
                known[c] |= bit
                if _adjacent_ids(alphabet, ids[c], idd):
                    adj[d] |= low
                    adj[c] |= bit
        return adj[d] & mask

    return row


def search_induced_embedding_ext(pattern, g, radius):
    """Backtracking search for an induced copy of ``pattern`` among the
    extension-graph vertices of conjugator length <= radius.

    The radius bound is anchored: a maximum independent set of the
    pattern is assigned only to base generators, and the radius bounds
    only the images of the remaining vertices. Any witness can be
    conjugated so that the anchors land on base generators, but that
    conjugation can lengthen the other images, so 'None' means no
    anchored witness within the radius. It does not mean that no witness
    of conjugator length <= radius exists, nor that no embedding exists.

    The anchor maps come in lexicographic order of their image tuples,
    and the first one with a witness gives the answer. Two generators are
    adjacent in the extension graph exactly when they are adjacent in g,
    so the anchors are placed on g's neighbour masks. Each generator's
    row is read once per search (it needs no pair evaluation), and the
    rest domains are narrowed on those rows by mask operations.

    An anchor map A is skipped when an automorphism p of g kept with the
    pool sends it to a smaller tuple p∘A. This changes no answer. p
    permutes the generators, maps the radius-L pool onto itself (it
    preserves conjugator length) and preserves commutation, so p∘W is an
    anchored witness for p∘A whenever W is one for A. Hence the first
    anchor map with a witness is never skipped: the smaller map it would
    be skipped for also has a witness and comes earlier. The rest search
    at that map is unchanged, so None stays None and every witness stays
    the same. The argument holds for any set of automorphisms, so keeping
    only the first len(g) (``graphs.automorphisms``) changes no answer.
    A first anchor on generator i is skipped whenever some p has
    p[i] < i, so the root domain keeps only the others; a complete map is
    then tested only against the p that fix its first image, since every
    other kept p moves that image higher. The empty anchor map of an
    empty pattern has no first image and is never skipped.

    The pool, its rows and the automorphisms are kept on g per radius,
    for as long as g lives: a pair settled by one search stays settled
    for the next, since every row is a fact about the pool alone.
    """
    alphabet = _alphabet(g)
    entry = g._pools.get(radius)
    if entry is None:
        pool = _pool(g, radius)
        entry = g._pools[radius] = (pool, _pool_rows(g, pool), automorphisms(g))
    pool, row, autos = entry
    anchors = lex_first_max_independent_set(pattern)
    rest = [v for v in pattern.vertices if v not in anchors]
    # Per rest vertex: each anchor's position, and whether the two must be
    # adjacent.
    wants = [
        (rv, [(k, pattern.adjacent(rv, au)) for k, au in enumerate(anchors)])
        for rv in rest
    ]
    everything = (1 << len(pool)) - 1
    # The pool is sorted by (radius, base): the generators come first.
    gen_rows = [row(i, everything) for i in range(len(g))]
    anchor_domains = dict.fromkeys(anchors, (1 << len(g)) - 1)
    if anchors:
        anchor_domains[anchors[0]] = sum(
            1 << i for i in range(len(g)) if all(p[i] >= i for p in autos)
        )
    nbrs = g._masks
    for amap in induced_maps(
        pattern.adjacent, anchors, anchor_domains, lambda d, mask: nbrs[d] & mask
    ):
        t = list(amap.values())
        if t and any(p[t[0]] == t[0] and [p[i] for i in t] < t for p in autos):
            continue
        free = everything
        for ai in t:
            free &= ~(1 << ai)
        domains = {}
        for rv, pairs in wants:
            mask = free
            for k, want in pairs:
                r = gen_rows[t[k]]
                mask = mask & r if want else mask & ~r
            if not mask:
                break
            domains[rv] = mask
        if len(domains) < len(rest):
            continue
        # ``rest`` is in pattern order, which the stable sort keeps on ties.
        order = sorted(rest, key=lambda v: domains[v].bit_count())
        found = next(induced_maps(pattern.adjacent, order, domains, row), None)
        if found is not None:
            amap.update(found)
            # Only the witness is decoded, each vertex built by ``ext_vertex``
            # as ``enumerate_vertices`` builds it; check the decoded
            # vertices against the pattern through the public pair test.
            witness = {}
            for pv, d in amap.items():
                i, x, _ = pool[d]
                witness[pv] = ext_vertex(g, g.vertices[i], _decode(alphabet, x))
            for p, q in combinations(pattern.vertices, 2):
                if ext_adjacent(g, witness[p], witness[q]) != pattern.adjacent(p, q):
                    raise InvariantViolation(
                        f"decoded witness disagrees with the pattern on {p!r}-{q!r}"
                    )
            return witness
    return None


def verify_witness(pattern, g, witness):
    """Check that a label->vertex map realizes the pattern as an induced
    subgraph of the extension graph."""
    if set(witness) != set(pattern.vertices):
        return False
    want = set(_edge_ids(pattern))
    # None, for two labels on one element, is not equal to want.
    return _distinct_ext_edges(g, [witness[v] for v in pattern.vertices]) == want


def verify_lemma_path(n, radius):
    """Exhaustively confirm, over the path on n vertices: whenever an
    extension vertex (radius-bounded) commutes with the middle vertex of
    an independent triple, it commutes with one of the two outer ones.

    Returns a count report; a violation raises InvariantViolation since it
    would mean the implementation (not the statement) is broken.
    """
    if n < 5:
        raise ValueError("need a path on at least five vertices")
    g = make_path(n)
    vs = g.vertices
    pool = enumerate_vertices(g, radius)
    triples = [
        (vs[i], vs[j], vs[k])
        for i in range(n)
        for j in range(i + 2, n)
        for k in range(j + 2, n)
    ]
    checks = 0
    violations = []
    for x, p, q in triples:
        px = (Letter(x, 1),)
        pp = (Letter(p, 1),)
        pq = (Letter(q, 1),)
        for v in pool:
            if not commute_elements(g, v.key, pp):
                continue
            checks += 1
            if not (
                commute_elements(g, v.key, px) or commute_elements(g, v.key, pq)
            ):
                violations.append(
                    {"vertex": format_ext_vertex(v), "triple": [x, p, q]}
                )
    report = {
        "n": n,
        "radius": radius,
        "triples": len(triples),
        "pool": len(pool),
        "checks": checks,
        "violations": violations,
    }
    if violations:
        raise InvariantViolation(f"middle-vertex commutation failed: {violations[:3]}")
    return report
