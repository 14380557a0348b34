import random
import re
from itertools import combinations

import pytest

from raagembed.constructions import deg3_claim_reports, move_deg3, t2_graph
from raagembed.graphs import (
    SimplicialGraph,
    all_trees,
    make_cycle,
    make_path,
    make_tripod,
    remove,
)
from raagembed.homs import (
    GroupMap,
    bounded_injectivity,
    check_relator_preservation,
    check_support_propagation,
    check_surviving,
    compose,
    induced_map,
)
from raagembed.words import (
    Letter,
    _alphabet,
    _bits,
    _decode,
    _words,
    canonical_words,
    equal,
    format_word,
    inverse,
    is_trivial,
    parse_word,
    reduced_words,
    support,
    word,
)

P5 = make_path(5)


def identity_hom(g):
    return induced_map(g, g, {v: v for v in g.vertices})


def kill_generators(g, kill):
    """Retraction onto the group of the graph minus ``kill``: those
    generators map to the identity, everything else to itself."""
    sub = remove(g, kill)
    return induced_map(sub, g, {v: v for v in sub.vertices})


def collapse(move):
    """The hexagon move's vertex map new graph -> old graph, read off the
    letters of its generator images."""
    return {
        lt.base: v for v, image in move.group_map.images.items() for lt in image
    }


def restricted_phi1(move, g1p, g2p):
    """The hexagon move's map between the graphs with a and a1 removed."""
    c = collapse(move)
    return induced_map(g2p, g1p, {v: c[v] for v in g2p.vertices})


def test_induced_map_identity_and_refusals():
    assert identity_hom(P5).images == {v: word(v) for v in P5.vertices}
    identity = {v: v for v in P5.vertices}
    with pytest.raises(ValueError, match="no image for source vertex 'x3'"):
        induced_map(P5, P5, {v: v for v in P5.vertices if v != "x3"})
    with pytest.raises(ValueError, match="unknown source vertex 'zz'"):
        induced_map(P5, P5, {**identity, "zz": "x1"})
    with pytest.raises(ValueError, match="unknown target vertex 'zz'"):
        induced_map(P5, P5, {**identity, "x5": "zz"})
    # A target whose vertex order differs from the source's, so that the
    # index and label orders of the two graphs disagree.
    shuffled = SimplicialGraph(("x3", "x5", "x1", "x4", "x2"), P5.edges)
    for target in (P5, shuffled):
        assert induced_map(P5, target, identity).images == {
            v: word(v) for v in P5.vertices
        }
        # collapsing an edge onto one endpoint would need a loop
        with pytest.raises(ValueError, match="vertex map does not carry edges to edges"):
            induced_map(P5, target, {**identity, "x2": "x1"})
        # x1 x2 lands on x1 and x4, distinct but not adjacent
        with pytest.raises(ValueError, match="vertex map does not carry edges to edges"):
            induced_map(P5, target, {**identity, "x2": "x4"})


def test_deg3_vertex_map_is_a_hom_with_independent_fibers():
    t2 = t2_graph()
    move = move_deg3(t2, "x")
    # induced_map refuses a vertex map that is not a graph homomorphism
    again = induced_map(move.new_graph, t2, collapse(move))
    assert again.images == move.group_map.images
    fiber = [lt.base for lt in move.group_map.images["x"]]
    assert fiber == ["x1", "x2", "x3"]
    for u, v in combinations(fiber, 2):
        assert not move.new_graph.adjacent(u, v)


def _fiber_products(source, target, mapping):
    """The group map target -> source that sends each target vertex to
    the product of its fiber under ``mapping``, in source order."""
    return GroupMap(target, source, {
        w: tuple(Letter(v, 1) for v in source.vertices if mapping[v] == w)
        for w in target.vertices
    })


def _reference_hexagon(g, x, new_graph):
    """The hexagon move's vertex map new graph -> g by position: the new
    vertices are g's in order, with x replaced by three. Returns the
    vertex map, its fiber products, and the renaming of the other
    vertices."""
    i = g.index(x)
    old = list(g.vertices)
    old[i:i + 1] = [x] * 3
    mapping = dict(zip(new_graph.vertices, old))
    assert all(g.adjacent(mapping[u], mapping[v]) for u, v in new_graph.edges)
    renaming = {w: v for v, w in mapping.items() if w != x}
    return mapping, _fiber_products(new_graph, g, mapping), renaming


def _reference_claims(g, x, move, mapping, full, renaming, length):
    a = min(g.neighbors(x), key=g.index)
    a1 = renaming[a]
    _, x2, x3 = move.new_labels
    g1p = remove(g, {a})
    g2p = remove(move.new_graph, {a1})
    phi1 = _fiber_products(g2p, g1p, mapping)
    return {
        "dropped": a,
        "restricted_surviving": {
            v: check_surviving(phi1, v, length)
            for v in g2p.vertices
            if v not in (x2, x3)
        },
        "support_propagation": check_support_propagation(phi1, x, {x2, x3}, length),
        "full_surviving": check_surviving(full, a1, length),
    }


def test_hexagon_moves_equal_the_vertex_map_reference():
    moves = 0
    for n in range(4, 10):
        for t in all_trees(n):
            for x in t.vertices:
                if t.degree(x) != 3:
                    continue
                move = move_deg3(t, x)
                mapping, full, renaming = _reference_hexagon(t, x, move.new_graph)
                assert move.group_map.images == full.images, (t, x)
                assert move.renaming == renaming, (t, x)
                assert deg3_claim_reports(move, 3) == _reference_claims(
                    t, x, move, mapping, full, renaming, 3
                ), (t, x)
                moves += 1
    assert moves == 83


def test_apply_induced_examples():
    move = move_deg3(t2_graph(), "x")
    ind = move.group_map
    assert ind.apply(word("x")) == word("x1", "x2", "x3")
    assert ind.apply(()) == ()
    # inverse letters reverse the fiber product
    assert ind.apply(parse_word("x^-1")) == inverse(word("x1", "x2", "x3"))


def test_apply_is_a_homomorphism_on_literal_words():
    move = move_deg3(t2_graph(), "x")
    ind = move.group_map
    u = parse_word("x b^-1")
    w = parse_word("p x")
    assert ind.apply(u + w) == ind.apply(u) + ind.apply(w)


def test_kill_generators():
    t2 = t2_graph()
    nothing = kill_generators(t2, set())
    assert all(nothing.images[v] == word(v) for v in t2.vertices)
    killed = kill_generators(t2, {"a", "x"})
    assert killed.images["a"] == () and killed.images["x"] == ()
    assert killed.images["p"] == word("p")
    everything = kill_generators(t2, set(t2.vertices))
    assert everything.apply(parse_word("x p^-1 q")) == ()


def test_killing_the_new_vertices_undoes_the_hexagon_move():
    # on the graph with the leg vertex removed, killing x2 and x3 composed
    # with the induced map is the identity relabeling
    t2 = t2_graph()
    move = move_deg3(t2, "x")
    g1p = remove(t2, {"a"})
    g2p = remove(move.new_graph, {"a1"})
    phi1 = restricted_phi1(move, g1p, g2p)
    x1, x2, x3 = move.new_labels
    iota = kill_generators(g2p, {x2, x3})
    both = compose(iota, phi1)
    rename = {v: move.renaming.get(v, x1) for v in g1p.vertices}
    for w in canonical_words(g1p, 3):
        image = both.apply(w)
        expected = tuple(Letter(rename[lt.base], lt.sign) for lt in w)
        assert equal(both.codomain, image, expected)


def test_relator_preservation():
    assert check_relator_preservation(identity_hom(P5))
    move = move_deg3(t2_graph(), "x")
    assert check_relator_preservation(move.group_map)
    # sending one leg vertex onto another leg's image breaks a commuting pair
    broken = dict(move.group_map.images)
    broken["a"] = word("b1")
    assert not check_relator_preservation(
        GroupMap(t2_graph(), move.new_graph, broken)
    )


def test_group_map_refuses_images_off_its_graphs():
    p2 = make_path(2)
    images = {"x1": word("x1"), "x2": word("x2")}
    with pytest.raises(ValueError, match="'zz'"):
        GroupMap(p2, p2, {**images, "zz": word("x1")})
    with pytest.raises(ValueError, match="no image word for generator 'x2'"):
        GroupMap(p2, p2, {"x1": word("x1")})
    with pytest.raises(ValueError, match="unknown vertex 'zz'"):
        GroupMap(p2, p2, {**images, "x2": word("zz")})
    # A letter on a codomain vertex but with no sign the letter table holds.
    with pytest.raises(ValueError, match="unknown letter Letter.base='x1', sign=2."):
        GroupMap(p2, p2, {**images, "x2": (Letter("x1", 2),)})
    # ``apply`` reads its letters through the domain's letter table too.
    m = GroupMap(p2, p2, {"x1": word("x1", "x2"), "x2": word("x2")})
    for bad in (Letter("x1", 0), Letter("x1", 2), Letter("zz", 1)):
        with pytest.raises(ValueError, match=f"unknown letter {re.escape(repr(bad))}"):
            m.apply(word("x2") + (bad,))
    assert m.apply(word("x1^-1", "x2")) == word("x2^-1", "x1^-1", "x2")


def test_group_map_keeps_one_shot_images():
    p3 = make_path(3)
    m = GroupMap(p3, p3, {v: iter(word(v)) for v in p3.vertices})
    assert m.images == {v: word(v) for v in p3.vertices}
    assert check_relator_preservation(m)
    assert bounded_injectivity(m, 2)["violations"] == []
    m = GroupMap(p3, p3, {v: (lt for lt in word("x1", v)) for v in p3.vertices})
    assert m.images["x3"] == word("x1", "x3")


def test_trimmed_center_image_is_still_a_homomorphism():
    # dropping x3 from the center image leaves all relators intact and no
    # bounded injectivity failure at this scale; nothing flags it
    move = move_deg3(t2_graph(), "x")
    trimmed = dict(move.group_map.images)
    trimmed["x"] = word("x1", "x2")
    gm = GroupMap(t2_graph(), move.new_graph, trimmed)
    assert check_relator_preservation(gm)
    assert bounded_injectivity(gm, 3)["violations"] == []


def test_bounded_injectivity_identity():
    report = bounded_injectivity(identity_hom(P5), 3)
    assert report["violations"] == []
    assert report["checked"] > 0


def test_bounded_injectivity_detects_a_killed_generator():
    report = bounded_injectivity(kill_generators(P5, {"x1"}), 2)
    assert "x1" in report["violations"]


def _reference_words(g, max_len, canonical, start=frozenset()):
    """The Letter enumerator that the id enumerator replaced, kept so that
    the naive references below share no code with the checks: depth-first
    preorder over the reduced words of length <= max_len, extended in
    letter order; each new letter scans back through the letters
    commuting with it and is rejected if it cancels or, with
    ``canonical``, if it could shuffle ahead of a larger letter. A letter
    in ``start`` is also rejected while no letter of the word has its
    base or a neighbour of it (the start mask of ``_words``)."""
    letters = [Letter(v, s) for v in g.vertices for s in (1, -1)]
    index = {v: i for i, v in enumerate(g.vertices)}
    links = {v: g.neighbors(v) for v in g.vertices}

    def blocked(w, base, sign):
        link = links[base]
        if Letter(base, sign) in start and not any(
            b == base or b in link for b, _ in w
        ):
            return True
        for b, s in reversed(w):
            if b == base:
                if s != sign:
                    return True
                continue
            if b in link:
                return False
            if canonical and index[b] > index[base]:
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


def _naive_injectivity(m, max_len):
    checked, violations = 0, []
    for w in _reference_words(m.domain, max_len, True):
        if not w:
            continue
        checked += 1
        if is_trivial(m.codomain, m.apply(w)):
            violations.append(format_word(w))
    return {"bound": max_len, "checked": checked, "violations": violations}


def _naive_support_propagation(m, trigger, required, max_len):
    required = frozenset(required)
    checked, violations = 0, []
    for w in _reference_words(m.domain, max_len, True):
        if trigger not in support(m.domain, w):
            continue
        checked += 1
        if not (support(m.codomain, m.apply(w)) & required):
            violations.append(format_word(w))
    return {
        "trigger": trigger,
        "required": sorted(required),
        "bound": max_len,
        "checked": checked,
        "violations": violations,
    }


def _base_cancellation(g, w, base):
    """Positions (i, j) of an innermost cancellation of two ``base``
    letters in the literal word w, or None."""
    for i, lt in enumerate(w):
        if lt.base != base:
            continue
        for j in range(i + 1, len(w)):
            if w[j].base == base:
                if w[j].sign == -lt.sign:
                    return (i, j)
                break
            if g.adjacent(base, w[j].base):
                break
    return None


def _naive_surviving(m, v_prime, max_len):
    # the literal image of a word is the concatenation of the images that
    # ``apply`` gives its letters
    images = {
        lt: m.apply((lt,)) for v in m.domain.vertices for lt in word(v, v + "^-1")
    }
    checked, violations = 0, []
    for w in _reference_words(m.domain, max_len, False):
        checked += 1
        image = [x for lt in w for x in images[lt]]
        if _base_cancellation(m.codomain, image, v_prime) is not None:
            violations.append(format_word(w))
    return {
        "vertex": v_prime,
        "bound": max_len,
        "checked": checked,
        "violations": violations,
    }


def _random_graph(rng, n, prefix):
    labels = [f"{prefix}{i}" for i in range(n)]
    edges = [(u, v) for u, v in combinations(labels, 2) if rng.random() < 0.5]
    return SimplicialGraph(labels, edges)


def _shuffled_graph(rng, n, prefix):
    """A random graph whose vertex order is not the order of its labels."""
    g = _random_graph(rng, n, prefix)
    labels = list(g.vertices)
    rng.shuffle(labels)
    return SimplicialGraph(labels, g.edges)


def _enumerator_graphs():
    yield from (make_path(n) for n in range(1, 8))
    yield from (make_cycle(n) for n in range(4, 7))
    yield make_tripod(1, 1, 1)
    rng = random.Random(8)
    for _ in range(8):
        yield _shuffled_graph(rng, rng.randint(3, 6), "r")


def test_enumerators_equal_the_reference_in_order():
    for g in _enumerator_graphs():
        max_len = 5 if len(g) <= 4 else 4
        for canonical, fast in ((True, canonical_words), (False, reduced_words)):
            expected = list(_reference_words(g, max_len, canonical))
            assert list(fast(g, max_len)) == expected, (g, canonical)


def test_leaf_masks_expand_to_the_reference_under_a_start_mask():
    # the start mask of enumerate_vertices: every id outside the link of
    # a base vertex is blocked
    for g in (make_path(5), make_cycle(5)):
        a = _alphabet(g)
        for i, v in enumerate(g.vertices):
            link = {Letter(u, s) for u in g.neighbors(v) for s in (1, -1)}
            start = frozenset(a.letters) - link
            for max_len in range(4):
                for canonical in (True, False):
                    walk = []
                    for w, leaves in _words(g, max_len, canonical, ~a.links[2 * i]):
                        walk.append(w)
                        walk += [w + (c,) for c in _bits(leaves)]
                    expected = _reference_words(g, max_len, canonical, start)
                    assert [_decode(a, w) for w in walk] == list(expected), (g, v)


def _cancelling_cases():
    """Seeded maps whose images cancel heavily (short words over two or
    three codomain letters, some the inverse of another), each with a
    trigger vertex and a required set."""
    rng = random.Random(3)
    for _ in range(6):
        dom = _random_graph(rng, rng.randint(3, 4), "d")
        cod = _random_graph(rng, rng.randint(3, 5), "c")
        pool = rng.sample(cod.vertices, rng.randint(2, 3))
        images = {}
        for v in dom.vertices:
            if images and rng.random() < 0.4:
                images[v] = inverse(images[rng.choice(list(images))])
            else:
                images[v] = tuple(
                    Letter(rng.choice(pool), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 4))
                )
        trigger = rng.choice(dom.vertices)
        required = set(rng.sample(cod.vertices, rng.randint(1, 2)))
        yield GroupMap(dom, cod, images), trigger, required


def _shuffled_cases():
    """Seeded maps between graphs with shuffled vertex orders: one
    generator is killed, the others map to words of length 3 to 5."""
    rng = random.Random(19)
    for _ in range(6):
        dom = _shuffled_graph(rng, rng.randint(3, 4), "d")
        cod = _shuffled_graph(rng, rng.randint(3, 5), "c")
        killed = rng.choice(dom.vertices)
        images = {
            v: ()
            if v == killed
            else tuple(
                Letter(rng.choice(cod.vertices), rng.choice((1, -1)))
                for _ in range(rng.randint(3, 5))
            )
            for v in dom.vertices
        }
        trigger = rng.choice(dom.vertices)
        required = set(rng.sample(cod.vertices, rng.randint(1, 2)))
        yield GroupMap(dom, cod, images), trigger, required


def _leaf_cases():
    """Two maps on P3 for the leaf level of the walk. In the first, the
    generator images are unreduced, so their literal and reduced lengths
    differ, and x1 x3 maps to the identity. In the second, the image of x1
    cancels x1 by itself, so every word through x1 violates survival of
    x1, leaves included; x1 x3 cancels x1 across two images, and x2 maps
    to the identity."""
    p3 = make_path(3)
    unreduced = {
        "x1": parse_word("x1 x2 x2^-1"),
        "x2": parse_word("x2 x3^-1 x3 x2^-1 x2"),
        "x3": parse_word("x1^-1 x3 x3^-1"),
    }
    cancelled = {
        "x1": parse_word("x1 x3 x1^-1"),
        "x2": parse_word("x2 x2^-1"),
        "x3": parse_word("x3 x1"),
    }
    for images in (unreduced, cancelled):
        yield GroupMap(p3, p3, images), "x1", {"x2"}


def test_bounded_checks_match_the_naive_references():
    cases = [
        (kill_generators(P5, {"x1"}), "x1", {"x2"}),
        (kill_generators(make_cycle(5), {"x2", "x4"}), "x3", {"x1", "x5"}),
        *_cancelling_cases(),
        *_shuffled_cases(),
        *_leaf_cases(),
    ]
    # bound 0 yields only the empty word, bound 1 the empty word as the
    # parent of every leaf
    for max_len in range(5):
        for m, trigger, required in cases:
            fast = bounded_injectivity(m, max_len)
            assert fast == _naive_injectivity(m, max_len)
            assert fast["violations"] or max_len < 4
            fast = check_support_propagation(m, trigger, required, max_len)
            assert fast == _naive_support_propagation(m, trigger, required, max_len)
            for v in m.codomain.vertices:
                fast = check_surviving(m, v, max_len)
                assert fast == _naive_surviving(m, v, max_len), (m.images, v, max_len)
    # injectivity splits a word as u t with |u| = ceil(max_len / 2): the
    # bounds 5 and 6 give an odd and an even split. Survival builds words
    # only below the classes that lead to a cancellation; it is checked
    # for one codomain vertex per case, taken in turn, and must meet both
    # a clean report and one with violations
    clean = set()
    for max_len in (5, 6):
        for i, (m, _, _) in enumerate(cases):
            if len(m.domain) <= 4:
                fast = bounded_injectivity(m, max_len)
                assert fast == _naive_injectivity(m, max_len)
                assert fast["violations"]
                v = m.codomain.vertices[i % len(m.codomain)]
                fast = check_surviving(m, v, max_len)
                assert fast == _naive_surviving(m, v, max_len), (m.images, v, max_len)
                clean.add(not fast["violations"])
    assert clean == {True, False}


def test_bounded_checks_reject_bad_input():
    m = kill_generators(P5, {"x1"})
    with pytest.raises(ValueError, match="trigger"):
        check_support_propagation(m, "y1", {"x2"}, 2)
    # x1 is killed, so it is not a codomain vertex
    with pytest.raises(ValueError, match="required"):
        check_support_propagation(m, "x2", {"x1"}, 2)
    with pytest.raises(ValueError, match="negative"):
        bounded_injectivity(m, -1)
    with pytest.raises(ValueError, match="negative"):
        check_surviving(m, "x2", -1)
    with pytest.raises(ValueError, match="negative"):
        check_support_propagation(m, "x2", {"x3"}, -1)


def test_innermost_cancellation_detector():
    w = parse_word("x2 x3 x2^-1")
    assert _base_cancellation(P5, w, "x2") is None
    w = parse_word("x2 x4 x2^-1")
    assert _base_cancellation(P5, w, "x2") == (0, 2)
    assert _base_cancellation(P5, w, "x4") is None


def test_surviving_identity_hom():
    report = check_surviving(identity_hom(P5), "x3", 3)
    assert report["violations"] == []


def test_support_propagation_on_the_hexagon_instance():
    t2 = t2_graph()
    move = move_deg3(t2, "x")
    g1p = remove(t2, {"a"})
    g2p = remove(move.new_graph, {"a1"})
    phi1 = restricted_phi1(move, g1p, g2p)
    report = check_support_propagation(phi1, "x", {"x2", "x3"}, 3)
    assert report["violations"] == []
    assert report["checked"] > 0


def test_equal_words_map_to_equal_images():
    move = move_deg3(t2_graph(), "x")
    ind = move.group_map
    words_ = list(canonical_words(ind.domain, 2))
    for u in words_[:40]:
        for w in words_[:40]:
            if equal(ind.domain, u, w):
                assert equal(ind.codomain, ind.apply(u), ind.apply(w))


def test_compose_chains_images():
    t2 = t2_graph()
    move = move_deg3(t2, "x")
    idmap = identity_hom(move.new_graph)
    chained = compose(idmap, move.group_map)
    assert chained.images == move.group_map.images

