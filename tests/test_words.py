import random
from itertools import combinations

import pytest

from raagembed.errors import GraphParseError
from raagembed.graphs import SimplicialGraph, make_cycle, make_path, make_tripod
from raagembed.oracle import MoveClosure, all_words
from raagembed.words import (
    Letter,
    _alphabet,
    _decoded_words,
    _extend_reduced_ids,
    _normal_form_ids,
    _state_counts,
    _steps,
    _word_count,
    canonical_words,
    commutator,
    commute_elements,
    conjugate_word,
    equal,
    format_word,
    inverse,
    is_trivial,
    iterated_commutator,
    normal_form,
    parse_word,
    reduce,
    reduced_words,
    support,
    word,
)
from test_graphs import random_graphs

P5 = make_path(5)
P4 = make_path(4)


# ---------------------------------------------------------------------------
# The Letter route: the word problem as it ran before the id kernel, kept
# as the independent reference for ``reduce``, ``normal_form`` and the
# functions built on them.


def letters_commute(g, a, b):
    """Two letters commute iff same base or bases non-adjacent."""
    return a.base == b.base or not g.adjacent(a.base, b.base)


def letter_key(g, lt):
    """Total order on letters: vertex order first, positive sign first."""
    return (g.index(lt.base), 0 if lt.sign > 0 else 1)


def _reference_normal_form(g, w):
    """The ``Letter`` loop ``normal_form`` ran before the id kernel:
    reduce w by the reference, then repeatedly emit the least letter that
    commutes with everything still ahead of it."""
    remaining = list(_reference_reduce(g, w))
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


def test_letters_commute_matches_distance_on_the_path():
    # on the path, generators commute exactly when indices differ by >= 2
    for i in range(1, 6):
        for j in range(1, 6):
            expected = abs(i - j) >= 2 or i == j
            got = letters_commute(P5, Letter(f"x{i}", 1), Letter(f"x{j}", 1))
            assert got == expected


def test_letter_commutes_with_its_inverse():
    assert letters_commute(P5, Letter("x2", 1), Letter("x2", -1))


def test_find_cancellation_examples():
    assert find_cancellation(P5, parse_word("x1 x3 x1^-1")) == (0, 2)
    assert find_cancellation(P5, parse_word("x2 x3 x2^-1")) is None
    assert find_cancellation(P5, parse_word("x2 x4 x2^-1 x4^-1")) == (0, 2)


def test_reduce_examples():
    assert reduce(P5, parse_word("x1 x1^-1")) == ()
    # image of a hexagon-move word; already geodesic
    w = parse_word("x4^-1 x2^-1 x3^-1 x2 x4 x3")
    assert len(reduce(P5, w)) == 6
    assert len(reduce(P5, parse_word("x1 x3 x1"))) == 3


def find_cancellation(g, w):
    """Positions (i, j) of an innermost cancellation, or None.

    The pair carries inverse letters of one base v with every strictly
    interior letter outside the link of v and no occurrence of v between;
    a word admits no such pair exactly when it is reduced.
    """
    for i, lt in enumerate(w):
        for j in range(i + 1, len(w)):
            m = w[j]
            if m.base == lt.base:
                if m.sign == -lt.sign:
                    return (i, j)
                break
            if g.adjacent(lt.base, m.base):
                break
    return None


def is_reduced(g, w):
    return find_cancellation(g, w) is None


def _reference_reduce(g, w):
    """The innermost-pair loop ``reduce`` replaced: find the first letter
    with an inverse partner it commutes up to, delete both, start over."""
    current = list(w)
    while (hit := find_cancellation(g, current)) is not None:
        i, j = hit
        del current[j]
        del current[i]
    return tuple(current)


def test_reduce_matches_the_reference_on_random_long_words():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(3, 10)
        labels = [f"v{i}" for i in range(n)]
        edges = [(u, v) for u, v in combinations(labels, 2) if rng.random() < 0.5]
        rng.shuffle(labels)
        g = SimplicialGraph(labels, edges)
        alphabet = _alphabet(g)
        for _ in range(50):
            # few bases make long cancelling runs likely
            bases = rng.sample(labels, rng.randint(1, n))
            w = tuple(
                Letter(rng.choice(bases), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 80))
            )
            expected = _reference_reduce(g, w)
            assert reduce(g, w) == expected, format_word(w)
            out = []
            _extend_reduced_ids(alphabet.stops, out, [alphabet.ids[lt] for lt in w])
            assert tuple(alphabet.letters[c] for c in out) == expected


def _random_graph(rng):
    n = rng.randint(3, 10)
    labels = [f"v{i}" for i in range(n)]
    edges = [(u, v) for u, v in combinations(labels, 2) if rng.random() < 0.5]
    rng.shuffle(labels)
    return SimplicialGraph(labels, edges)


def _reference_alphabet(g):
    """The id tables built from labels: each neighbour u of a vertex puts
    both ids of u, 3 << 2 * index(u), into the vertex's link."""
    letters = tuple(Letter(v, s) for v in g.vertices for s in (1, -1))
    stops, links = [], []
    for i, v in enumerate(g.vertices):
        link = sum(3 << 2 * g.index(u) for u in g.neighbors(v))
        stop = link | 3 << 2 * i
        stops += (stop, stop)
        links += (link, link)
    ids = {lt: c for c, lt in enumerate(letters)}
    return letters, ids, tuple(stops), tuple(links)


def test_alphabet_tables_match_the_label_construction():
    graphs = list(random_graphs(13, 200)) + [make_path(12), make_tripod(2, 2, 2)]
    for g in graphs:
        assert tuple(_alphabet(g)) == _reference_alphabet(g), g


def _kernel_normal_form(g, w):
    """``normal_form`` of a word, reduced or not, through the id kernel."""
    alphabet = _alphabet(g)
    out = _normal_form_ids(alphabet.stops, [alphabet.ids[lt] for lt in w])
    return tuple(alphabet.letters[c] for c in out)


SHORT_WORDS = {
    "P3": (make_path(3), 6),
    "P4": (make_path(4), 6),
    "C4": (make_cycle(4), 6),
    "K13": (make_tripod(1, 1, 1), 6),
    "P5": (make_path(5), 5),
}


@pytest.fixture(scope="module", params=list(SHORT_WORDS))
def short_words(request):
    """(g, max_len, the reference normal form of every reduced word of
    length <= max_len, the reference reduction of every word of length
    <= max_len in ``all_words`` order), built once per graph for the
    sweeps below.

    One walk of the move closure: ``_reference_normal_form`` runs once per
    class, on its root, and must return the root, so the two references
    agree; each reduced word's normal form is then its class's root."""
    g, max_len = SHORT_WORDS[request.param]
    nf_of = {}
    # each reduction is stored as the equal key of nf_of, not as a copy
    key_of = {}
    reduced = []
    for w, c in MoveClosure(g, max_len).sweep():
        if c == w:
            assert _reference_normal_form(g, w) == w, format_word(w)
        r = _reference_reduce(g, w)
        if r == w:
            nf_of[w] = c
            key_of[w] = w
        reduced.append(key_of[r])
    return g, max_len, nf_of, reduced


def test_reduce_matches_the_reference_on_every_short_word(short_words):
    g, max_len, _, reduced = short_words
    for w, r in zip(all_words(g, max_len), reduced, strict=True):
        assert reduce(g, w) == r, format_word(w)


def test_normal_form_kernel_matches_normal_form_on_every_short_word(short_words):
    g, _, nf_of, _ = short_words
    for w, nf in nf_of.items():
        assert _kernel_normal_form(g, w) == nf, w


def test_normal_form_kernel_matches_normal_form_on_random_long_words():
    rng = random.Random(17)
    for _ in range(40):
        g = _random_graph(rng)
        for _ in range(50):
            w = _reference_reduce(g, tuple(
                Letter(rng.choice(g.vertices), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 40))
            ))
            assert _kernel_normal_form(g, w) == _reference_normal_form(g, w), format_word(w)
        for _ in range(15):
            # unreduced input; few bases make long cancelling runs likely
            bases = rng.sample(g.vertices, rng.randint(1, len(g)))
            w = tuple(
                Letter(rng.choice(bases), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 120))
            )
            # the reference reduces w before it sorts
            assert _kernel_normal_form(g, w) == _reference_normal_form(g, w), format_word(w)


def _check_against_the_reference(g, links, w, r, nf, partner, partner_nf, x):
    """The six word-problem functions on w, given w's reference reduced
    word r and normal form nf: ``equal`` against a partner word of
    reference normal form partner_nf, ``commute_elements`` against the
    letter x, which w commutes with exactly when x's link misses the
    support of w (the centralizer of a generator). ``links`` maps each
    vertex of g to its set of neighbours."""
    assert reduce(g, w) == r, format_word(w)
    assert normal_form(g, w) == nf, format_word(w)
    assert is_trivial(g, w) == (not r), format_word(w)
    bases = frozenset(lt.base for lt in r)
    assert support(g, w) == bases, format_word(w)
    assert equal(g, w, partner) == (nf == partner_nf), format_word(w)
    commute = not (links[x.base] & bases)
    assert commute_elements(g, w, (x,)) == commute, format_word(w)


def test_word_problem_matches_the_reference_on_every_short_word(short_words):
    g, max_len, nf_of, reduced = short_words
    letters = [Letter(v, s) for v in g.vertices for s in (1, -1)]
    links = {v: g.neighbors(v) for v in g.vertices}
    previous, previous_nf = (), ()
    for k, (w, r) in enumerate(zip(all_words(g, max_len), reduced, strict=True)):
        nf = nf_of[r]
        # equal against w's own normal form, or against the word before
        partner, partner_nf = (nf, nf) if k % 2 else (previous, previous_nf)
        _check_against_the_reference(
            g, links, w, r, nf, partner, partner_nf, letters[k % len(letters)]
        )
        previous, previous_nf = w, nf


def test_word_problem_matches_the_reference_on_random_long_words():
    rng = random.Random(29)
    for _ in range(40):
        g = _random_graph(rng)
        letters = [Letter(v, s) for v in g.vertices for s in (1, -1)]
        links = {v: g.neighbors(v) for v in g.vertices}
        for _ in range(50):
            # few bases make long cancelling runs likely
            bases = rng.sample(g.vertices, rng.randint(1, len(g)))
            w = tuple(
                Letter(rng.choice(bases), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 80))
            )
            r = _reference_reduce(g, w)
            nf = _reference_normal_form(g, r)
            # an equal partner (an inverse pair inserted) or an unequal one
            # (a letter appended changes the exponent sum)
            lt = rng.choice(letters)
            if rng.random() < 0.5:
                i = rng.randint(0, len(w))
                partner = w[:i] + (lt, lt.inverse()) + w[i:]
            else:
                partner = w + (lt,)
            _check_against_the_reference(
                g, links, w, r, nf, partner, _reference_normal_form(g, partner),
                rng.choice(letters),
            )
            u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 20)))
            commute = _reference_normal_form(g, u + w) == _reference_normal_form(g, w + u)
            assert commute_elements(g, u, w) == commute, (format_word(u), format_word(w))


@pytest.mark.parametrize(
    "call",
    [
        lambda g, w: reduce(g, w),
        lambda g, w: normal_form(g, w),
        lambda g, w: is_trivial(g, w),
        lambda g, w: support(g, w),
        lambda g, w: equal(g, w, word("x1")),
        lambda g, w: equal(g, word("x1"), w),
        lambda g, w: commute_elements(g, w, word("x1")),
        lambda g, w: commute_elements(g, word("x1"), w),
    ],
    ids=[
        "reduce", "normal_form", "is_trivial", "support", "equal-left",
        "equal-right", "commute_elements-left", "commute_elements-right",
    ],
)
def test_a_letter_off_the_graph_raises_value_error(call):
    for w in [word("zz"), word("x1", "zz^-1", "x1^-1"), (Letter("x1", 1), ("x9", -1))]:
        with pytest.raises(ValueError) as exc:
            call(P5, w)
        assert exc.type is ValueError
        assert exc.value.__suppress_context__, "the ids lookup error leaked"


def test_normal_form_examples():
    assert normal_form(P5, word("x3", "x1")) == word("x1", "x3")
    assert normal_form(P5, word("x3", "x2")) == word("x3", "x2")
    assert normal_form(P5, word("x1", "x3", "x1")) == word("x1", "x1", "x3")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("x5 x3 x1 x5^-1 x2", "x1 x3 x2"),
        ("x4 x1 x3 x1^-1 x2", "x4 x3 x2"),
        ("x5 x4 x1 x3 x1^-1 x4^-1", "x5 x4 x3 x4^-1"),
    ],
)
def test_normal_form_cancels_after_an_insertion(text, expected):
    # each word puts a letter ahead of a greater one, then cancels a
    # letter that such an insertion passed
    w = parse_word(text, P5)
    assert normal_form(P5, w) == parse_word(expected, P5)
    assert _kernel_normal_form(P5, w) == _reference_normal_form(P5, w)


def test_a_word_already_in_the_asked_form_is_returned_itself():
    w = parse_word("x1 x1 x3")
    assert normal_form(P5, w) is w and reduce(P5, w) is w
    assert reduce(P5, list(w)) == w and type(reduce(P5, list(w))) is tuple
    assert normal_form(P5, word("x3", "x1")) == word("x1", "x3")


def test_equal_and_trivial():
    g = make_path(3)
    # end vertices commute
    assert equal(g, word("x1", "x3"), word("x3", "x1"))
    assert not equal(g, word("x1", "x2"), word("x2", "x1"))
    assert is_trivial(g, ())


def test_commutator_brackets_from_the_refutation():
    assert is_trivial(
        P5, iterated_commutator([word("x2"), word("x3"), word("x1"), word("x5")])
    )
    assert is_trivial(
        P5, iterated_commutator([word("x4"), word("x3"), word("x1"), word("x5")])
    )
    assert not is_trivial(
        P5,
        iterated_commutator([word("x2", "x4"), word("x3"), word("x1"), word("x5")]),
    )


def test_support_examples():
    assert support(P5, parse_word("x1 x1^-1")) == frozenset()
    assert support(P5, parse_word("x2^-1 x1 x2")) == {"x1", "x2"}
    assert support(P5, commutator(word("x2", "x4"), word("x3"))) == {
        "x2",
        "x3",
        "x4",
    }


def test_commutator_with_self_is_trivial():
    w = parse_word("x1 x2 x3^-1")
    assert is_trivial(P5, commutator(w, w))


def test_commute_elements_examples():
    assert not commute_elements(P5, word("x1"), parse_word("x2^-1 x3 x2"))
    assert commute_elements(P5, word("x1"), word("x3"))


def test_lemma_comm1_examples():
    # A generator commutes with an element exactly when its link misses
    # the element's support: both routes, on three elements.
    for a, w, want in (
        ("x1", "", True),
        ("x1", "x2^-1 x3 x2", False),
        ("x5", "x2^-1 x1 x2", True),
    ):
        w = parse_word(w)
        assert commute_elements(P5, word(a), w) == want, (a, w)
        assert (not (P5.neighbors(a) & support(P5, w))) == want, (a, w)


_C5 = [f"c{i}" for i in range(1, 6)]
_P6 = [f"p{i}" for i in range(1, 7)]
LEMMA_INPUTS = {
    "C5": (_C5, list(zip(_C5, _C5[1:] + _C5[:1]))),
    "K13": (["x", "a", "b", "c"], [("x", "a"), ("x", "b"), ("x", "c")]),
    "P6": (_P6, list(zip(_P6, _P6[1:]))),
}


@pytest.mark.parametrize("name", sorted(LEMMA_INPUTS))
def test_lemma_comm1_mask_route_matches_the_label_route(name):
    """Whether a commutes with w, by reducing their commutator on the
    stop masks, against whether the link of a, from the label sets of
    the input edges, misses the support of w."""
    labels, edges = LEMMA_INPUTS[name]
    g = SimplicialGraph(labels, edges)
    nbrs = {v: {u for e in edges if v in e for u in e if u != v} for v in labels}
    rng = random.Random(f"lemma_comm1:{name}")
    seen = set()
    for _ in range(300):
        w = tuple(
            Letter(rng.choice(labels), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 12))
        )
        for a in labels:
            want = not (nbrs[a] & support(g, w))
            assert commute_elements(g, (Letter(a, 1),), w) == want, (a, w)
            seen.add(want)
    assert seen == {True, False}


def test_conjugate_word_shape():
    w = conjugate_word(Letter("x1", 1), word("x2", "x3"))
    assert w == parse_word("x3^-1 x2^-1 x1 x2 x3")


def test_inverse_is_an_involution():
    w = parse_word("x1 x2^-1 x3")
    assert inverse(inverse(w)) == w
    assert is_trivial(P5, w + inverse(w))


# ---------------------------------------------------------------------------
# Oracle-backed sweeps (small bounds here; the larger ones run in the
# acceptance suite).


def test_reduce_and_normal_form_match_the_move_closure_on_p4():
    closure = MoveClosure(P4, 4)
    for combo in all_words(P4, 4):
        w = tuple(combo)
        c = closure.canonical(w)
        assert normal_form(P4, w) == c
        assert len(reduce(P4, w)) == len(c)


def test_the_oracle_representative_is_the_first_word_of_its_class():
    # all_words runs in (length, lexicographic) order, so the first word of
    # each class that it meets must be that class's representative
    closure = MoveClosure(P4, 4)
    seen = set()
    for w in all_words(P4, 4):
        c = closure.canonical(w)
        if c not in seen:
            assert c == w
            seen.add(c)
        assert closure.canonical(c) == c
    assert len(seen) == closure.class_count()


def test_reduce_is_idempotent_and_preserves_the_element():
    closure = MoveClosure(P4, 4)
    for combo in all_words(P4, 3):
        w = tuple(combo)
        r = reduce(P4, w)
        assert len(r) <= len(w)
        assert reduce(P4, r) == r
        assert closure.canonical(w) == closure.canonical(r)


def test_support_is_invariant_under_normal_form():
    for combo in all_words(P4, 3):
        w = tuple(combo)
        assert support(P4, w) == support(P4, normal_form(P4, w))


def test_canonical_words_hit_every_element_exactly_once():
    closure = MoveClosure(P4, 3)
    seen = set()
    for w in canonical_words(P4, 3):
        assert is_reduced(P4, w)
        assert normal_form(P4, w) == w
        assert w not in seen
        seen.add(w)
    assert len(seen) == closure.class_count()


def test_enumerators_yield_depth_first_in_letter_order():
    # the bounded hom checks extend the image of each word's prefix, and
    # their reports list violations in this order
    letters = [Letter(v, s) for v in P4.vertices for s in (1, -1)]
    rank = {lt: k for k, lt in enumerate(letters)}
    for listed in (list(canonical_words(P4, 4)), list(reduced_words(P4, 4))):
        assert listed == sorted(listed, key=lambda w: [rank[lt] for lt in w])


def test_enumerators_refuse_a_negative_bound():
    # next, not list: a walk without the check never stops
    for words_of in (canonical_words, reduced_words):
        with pytest.raises(ValueError, match="negative"):
            next(words_of(P5, -1))


def test_word_count_equals_the_length_of_the_walk():
    # the bounded injectivity check reports this count as ``checked``
    rng = random.Random(41)
    graphs = [make_path(n) for n in range(1, 7)]
    graphs += [make_cycle(n) for n in range(4, 7)]
    graphs += [make_tripod(1, 1, 1), make_tripod(2, 2, 2)]
    graphs += [g for g in (_random_graph(rng) for _ in range(12)) if len(g) <= 7]
    for g in graphs:
        for max_len in range(6):
            for canonical in (True, False):
                walk = sum(1 for _ in _decoded_words(g, max_len, canonical))
                assert _word_count(_steps(g, canonical), max_len) == walk, (g, max_len)
    with pytest.raises(ValueError, match="negative"):
        _word_count(_steps(P5, True), -1)


def test_state_counts_split_the_walk_by_state():
    # state 0 until the first inverse letter of the first vertex, then 1
    # after a positive letter and 2 after an inverse one
    for g in (make_path(1), P4, make_cycle(5), make_tripod(1, 1, 1)):
        first = g.vertices[0]
        n = 2 * len(g)
        step = [[2 if c == 1 else 0 for c in range(n)]]
        step += [[1 + (c & 1) for c in range(n)]] * 2
        for max_len in range(6):
            for canonical in (True, False):
                counts = [0, 0, 0]
                for w in _decoded_words(g, max_len, canonical):
                    if Letter(first, -1) not in w:
                        counts[0] += 1
                    else:
                        counts[1 + (w[-1].sign < 0)] += 1
                assert _state_counts(_steps(g, canonical), max_len, step) == counts, g


def test_reduced_words_cover_all_reduced_representatives():
    listed = set(reduced_words(P4, 3))
    for combo in all_words(P4, 3):
        w = tuple(combo)
        assert (w in listed) == is_reduced(P4, w)


def test_equality_classes_agree_with_word_pairs():
    # normal-form equality is exactly element equality
    words_ = [tuple(c) for c in all_words(P4, 2)]
    for u, w in combinations(words_, 2):
        assert equal(P4, u, w) == (normal_form(P4, u) == normal_form(P4, w))


# ---------------------------------------------------------------------------
# Syntax


def test_parse_and_format_roundtrip():
    text = "x1 x2^-1 x3"
    assert format_word(parse_word(text, P5)) == text
    assert parse_word("", P5) == ()


def test_parse_rejects_bad_tokens():
    with pytest.raises(GraphParseError):
        parse_word("x1^2", P5)
    with pytest.raises(GraphParseError):
        parse_word("y7", P5)


def test_word_reads_each_token_as_parse_word_does():
    cases = [(), ("x1",), ("x1", "x2^-1", "x3"), ("a", "b^-1", "a^-1"), ("x^-1",)]
    for tokens in cases:
        assert word(*tokens) == parse_word(" ".join(tokens))
    assert word("x1", "x2^-1") == (Letter("x1", 1), Letter("x2", -1))
    assert word("x3^-1", "x1") == parse_word("x3^-1 x1", P5)


def test_word_and_parse_word_refuse_the_same_bad_tokens():
    for token in ["x^2", "^-1", "x1^-1^-1", "^", "x^"]:
        with pytest.raises(GraphParseError):
            word(token)
        with pytest.raises(GraphParseError):
            parse_word(token)
    # A token that is not one letter: two letters, or none.
    for tokens in [("a b",), ("x1", ""), ("x1", " ")]:
        with pytest.raises(GraphParseError, match="one letter per token"):
            word(*tokens)
