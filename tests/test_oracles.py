import math
import sys
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from nonevade.certify import (
    Leaf,
    Split,
    _iterative,
    certificate_complex,
    verify_certificate,
)
from nonevade.complexes import Complex, order_complex, replay_collapses
from nonevade.corpus import full_corpus, named_corpus, random_complexes, random_corpus
from nonevade.errors import CapExceeded, EmptyLink
from nonevade.lattice import _bits, generate, parse_lattice
from nonevade.corpus import M3_TEXT, N5_TEXT
from nonevade.oracles import (
    brute_certificate,
    brute_collapsible,
    brute_nonevasive,
    find_noncomplemented_element,
    interior_euler,
    mobius,
)


def full_triangle():
    return Complex("abc", [{"a", "b", "c"}])


def hollow_triangle():
    return Complex("abc", [{"a", "b"}, {"a", "c"}, {"b", "c"}])


# --- nonevasiveness -------------------------------------------------------------


def test_point_is_nonevasive():
    assert brute_nonevasive(Complex("a", [{"a"}]))


def test_two_points_are_evasive():
    assert not brute_nonevasive(Complex("ab", [{"a"}, {"b"}]))


def test_full_triangle_is_nonevasive():
    assert brute_nonevasive(full_triangle())


def test_hollow_triangle_is_evasive():
    assert not brute_nonevasive(hollow_triangle())


def test_nonevasive_cap():
    big = Complex([f"v{i}" for i in range(13)],
                  [{f"v{i}"} for i in range(13)])
    with pytest.raises(CapExceeded):
        brute_nonevasive(big)


def test_shared_memo_is_keyed_on_labels_not_masks():
    # equal masks, different labels: no entry is shared, and each
    # certificate names its own complex's vertices
    path = Complex("abc", [{"a", "b"}, {"b", "c"}])
    renamed = Complex("xyz", [{"x", "y"}, {"y", "z"}])
    memo = {}
    for complex_, size in ((path, 2), (renamed, 4)):
        cert = brute_certificate(complex_, memo=memo)
        assert verify_certificate(complex_, cert).ok
        assert len(memo) == size
    # equal complexes on different grounds share every entry: the path
    # again, and its deletion of a as an edge on either vertex order
    reordered = Complex("cba", [{"a", "b"}, {"b", "c"}])
    cert = brute_certificate(reordered, memo=memo)
    assert verify_certificate(reordered, cert).ok
    assert len(memo) == 4
    for ground in ("bc", "cb"):
        edge = Complex(ground, [set(ground)])
        assert brute_certificate(edge, memo=memo) is memo[edge.facets]
    assert len(memo) == 4
    # a hollow triangle adds itself, three pairs of points and two edges:
    # its third edge is the path's deletion of a (or of x)
    for labels, size in (("abc", 10), ("xyz", 16), ("bca", 16)):
        a, b, c = labels
        hollow = Complex(labels, [{a, b}, {a, c}, {b, c}])
        assert not brute_nonevasive(hollow, memo=memo)
        assert len(memo) == size


def test_certificate_search_runs_at_any_depth():
    # each deletion of a simplex is one level deeper, 1,100 in all, past
    # the default recursion limit; the search keeps its own stack
    labels = [f"v{i}" for i in range(1100)]
    simplex = Complex(labels, [set(labels)])
    cert = brute_certificate(simplex, cap=2000)
    assert cert is not None
    assert verify_certificate(simplex, cert).ok


# --- collapsibility --------------------------------------------------------------


def test_single_edge_collapses():
    seq = brute_collapsible(Complex("ab", [{"a", "b"}]))
    assert seq is not None and len(seq.pairs) == 1


def test_hollow_triangle_has_no_free_pair():
    assert brute_collapsible(hollow_triangle()) is None


def test_path_collapse_is_replayable():
    c = Complex(["2", "3", "4", "6"], [{"2", "4"}, {"2", "6"}, {"3", "6"}])
    seq = brute_collapsible(c)
    assert seq is not None
    assert len(seq.pairs) == (c.face_count() - 1) // 2 == 3
    replay_collapses(c, seq)


def test_collapse_search_leaves_the_recursion_limit_alone(monkeypatch):
    # the search keeps its own stack, so it never touches process-wide state
    def refuse(limit):
        raise AssertionError("brute_collapsible changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    c = Complex(["2", "3", "4", "6"], [{"2", "4"}, {"2", "6"}, {"3", "6"}])
    seq = brute_collapsible(c)
    # the first full collapse in canonical free-face order
    assert [(sorted(p.free_face), sorted(p.coface)) for p in seq.pairs] == [
        (["3"], ["3", "6"]), (["4"], ["2", "4"]), (["2"], ["2", "6"]),
    ]
    assert seq.final_vertex == "6"
    seq = brute_collapsible(full_triangle())
    assert [(sorted(p.free_face), sorted(p.coface)) for p in seq.pairs] == [
        (["a", "b"], ["a", "b", "c"]), (["a"], ["a", "c"]), (["b"], ["b", "c"]),
    ]
    assert seq.final_vertex == "c"


def test_collapse_cap():
    chain = generate("chain", 8)
    c = order_complex(chain.interior_set())
    with pytest.raises(CapExceeded):
        brute_collapsible(c, face_cap=10)


def test_collapse_cap_refuses_before_listing_faces():
    # the interior of chain-24 is one facet with 2^22 - 1 faces
    c = order_complex(generate("chain", 24).interior_set())
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="more than"):
        brute_collapsible(c, face_cap=128)
    assert time.perf_counter() - start < 1.0


def test_collapse_cap_refuses_after_the_faces_were_counted():
    # face_count lists all 63 faces of the 5-simplex first
    c = order_complex(generate("chain", 8).interior_set())
    assert c.face_count() == 63
    with pytest.raises(CapExceeded, match="more than the cap of 62 faces"):
        brute_collapsible(c, face_cap=62)


def test_collapse_cap_equal_to_the_face_count_is_accepted():
    c = Complex("abcdef", [set("abcd"), set("cdef")])
    seq = brute_collapsible(c, face_cap=27)
    assert len(seq.pairs) == 13
    replay_collapses(c, seq)


def test_refused_face_listing_leaves_the_face_count_whole():
    # each tetrahedron alone fits the cap, the two together do not
    c = Complex("abcdef", [set("abcd"), set("cdef")])
    with pytest.raises(CapExceeded, match="more than the cap of 20 faces"):
        brute_collapsible(c, face_cap=20)
    assert c.face_count() == 27


def reference_collapsible(complex_):
    """The label-set collapse search that brute_collapsible replaced, with
    the number of collapses it took back."""
    faces = {frozenset(s) for f in complex_.facets
             for k in range(1, len(f) + 1) for s in combinations(f, k)}
    if len(faces) % 2 == 0:
        return None, 0
    vertices = complex_.vertices
    dead_ends = set()
    undone = 0

    @_iterative
    def search(current):
        if len(current) == 1:
            (only,) = current
            return [] if len(only) == 1 else None
        state = frozenset(current)
        if state in dead_ends:
            return None
        for free in sorted(current, key=lambda f: (len(f), sorted(f))):
            cofaces = [free | {u} for u in vertices
                       if u not in free and free | {u} in current]
            if len(cofaces) != 1:
                continue
            current -= {free, cofaces[0]}
            tail = yield current
            current |= {free, cofaces[0]}
            if tail is not None:
                return [(free, cofaces[0])] + tail
            nonlocal undone
            undone += 1
        dead_ends.add(state)
        return None

    pairs = search(set(faces))
    if pairs is None:
        return None, undone
    (last,) = faces - {f for pair in pairs for f in pair}
    (final,) = last
    return (pairs, final), undone


def test_collapse_search_matches_the_label_set_reference():
    complexes = [c for _, c in random_complexes(count=300)]
    for _, lat in named_corpus():
        for x in lat.interior():
            c = certificate_complex(lat, x)
            if c.face_count() <= 128:
                complexes.append(c)
    backtracked = 0
    for c in complexes:
        expected, undone = reference_collapsible(c)
        backtracked += undone > 0
        seq = brute_collapsible(c)
        if expected is None:
            assert seq is None
        else:
            assert seq is not None
            assert [(p.free_face, p.coface) for p in seq.pairs] == expected[0]
            assert seq.final_vertex == expected[1]
    # the comparison covers searches that take collapses back (48 of the
    # random complexes), not only greedy ones
    assert backtracked >= 48


def test_even_face_count_is_never_collapsible():
    two_points = Complex("ab", [{"a"}, {"b"}])
    assert brute_collapsible(two_points) is None


# --- Mobius -------------------------------------------------------------------------


def test_mobius_dual_invariant():
    for name, lat in named_corpus():
        assert mobius(lat) == mobius(lat.dual())


def reference_mobius(lattice):
    """mobius before the bit planes: the recursion summed value by value,
    one step per comparable pair with a nonzero value."""
    P = lattice.poset
    bottom, top = lattice._bounds
    members = P._mask & ~(1 << bottom)
    values, nonzero = {bottom: 1}, 1 << bottom
    for p in sorted(_bits(members), reverse=True) if P._rev else _bits(members):
        mu = -sum(values[q] for q in _bits(P._down[p] & nonzero))
        if mu:
            values[p] = mu
            nonzero |= 1 << p
    return values.get(top, 0)


def test_mobius_matches_the_reference():
    lattices = [lat for _, lat in named_corpus() + random_corpus(count=150)]
    lattices += [generate("random", n, p=p, seed=seed)
                 for n, p in ((6, 0.3), (10, 0.3), (12, 0.2), (16, 0.1))
                 for seed in range(25)]
    values = set()
    for lat in lattices:
        for view in (lat, lat.dual()):
            mu = mobius(view)
            assert mu == reference_mobius(view), view
            values.add(mu)
    # both signs, with values that need several planes
    assert min(values) == -6 and max(values) == 10


def number_mobius(n):
    """The number-theoretic Möbius function, by trial division."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def test_mobius_closed_forms():
    cases = [(generate("boolean", n), (-1) ** n) for n in range(11)]
    # (n-1)! takes up to ten planes, with both signs along the way
    cases += [(generate("partition", n), (-1) ** (n - 1) * math.factorial(n - 1))
              for n in range(1, 8)]
    cases += [(generate("chain", n), mu)
              for n, mu in ((1, 1), (2, -1), (3, 0), (4, 0), (5, 0))]
    divisors = (1, 2, 12, 30, 210, 360, 2310, 510510, 720720)
    cases += [(generate("divisor", n), number_mobius(n)) for n in divisors]
    assert [number_mobius(n) for n in (1, 720720, 510510)] == [1, 0, -1]
    for lat, mu in cases:
        assert mobius(lat) == mu == mobius(lat.dual()), lat
    # the one-element lattice: bottom is top
    one = generate("chain", 1)
    assert one.bottom == one.top and mobius(one) == 1


def test_mobius_is_multiplicative_on_products():
    factors = [generate("chain", 2), generate("chain", 3),
               generate("boolean", 2), generate("partition", 3),
               generate("partition", 4), generate("divisor", 12),
               parse_lattice(M3_TEXT), parse_lattice(N5_TEXT)]
    for left in factors:
        for right in factors:
            product = generate("product", left=left, right=right)
            mu = mobius(left) * mobius(right)
            assert mobius(product) == mu == reference_mobius(product)
    assert mobius(generate("product", left="boolean:4", right="partition:4")) == -6


# --- complementation scan --------------------------------------------------------------


def test_noncomplemented_scan():
    assert find_noncomplemented_element(generate("divisor", 12)) == "2"
    assert find_noncomplemented_element(generate("boolean", 3)) is None
    assert find_noncomplemented_element(generate("chain", 3)) == "a"
    assert find_noncomplemented_element(parse_lattice(M3_TEXT)) is None
    assert find_noncomplemented_element(parse_lattice(N5_TEXT)) is None


# --- cross-oracle implications -----------------------------------------------------------


def test_implication_chain_on_small_corpus():
    # nonevasive => collapsible => reduced Euler 0
    for name, lat in named_corpus():
        interior = lat.interior()
        if not interior or len(interior) > 8:
            continue
        c = order_complex(lat.interior_set())
        if brute_nonevasive(c):
            seq = brute_collapsible(c)
            assert seq is not None, name
            replay_collapses(c, seq)
            assert c.reduced_euler() == 0, name


def test_brute_certificate_agrees_with_brute_nonevasive():
    # a nonevasive complex is collapsible, so its reduced Euler
    # characteristic is 0; a nonzero one rules a certificate out
    certified = nonzero = 0
    for name, c in random_complexes(count=25):
        cert = brute_certificate(c)
        if cert is not None:
            certified += 1
            assert verify_certificate(c, cert).ok, name
            assert brute_collapsible(c) is not None, name
            assert c.reduced_euler() == 0, name
        if c.reduced_euler() != 0:
            nonzero += 1
            assert cert is None, name
    assert certified and nonzero


def label_key(c):
    """The shared memo's key before it was the label facets: sorted vertex
    labels and sorted facet label lists."""
    return (tuple(sorted(c.vertices)),
            tuple(sorted(tuple(sorted(f)) for f in c.facets)))


def reference_certificate(c, memo):
    """The certificate search before brute_certificate kept a per-call
    cache in front of the shared memo, on the sorted-label key."""
    if len(c.vertices) == 1:
        return Leaf(c.vertices[0])
    key = label_key(c)
    if key in memo:
        return memo[key]
    found = None
    for v in c.vertices:
        try:
            lk = c.link(v)
        except EmptyLink:
            continue
        dl_cert = reference_certificate(c.deletion(v), memo)
        if dl_cert is None:
            continue
        lk_cert = reference_certificate(lk, memo)
        if lk_cert is None:
            continue
        found = Split(v, "case2_atom", v, dl_cert, lk_cert)
        break
    memo[key] = found
    return found


def test_certificate_search_matches_the_reference():
    memo, reference_memo = {}, {}
    for name, c in random_complexes(count=300):
        assert brute_certificate(c, memo=memo) == reference_certificate(
            c, reference_memo), name
    # the facet key tells complexes apart exactly as the label key did
    assert memo.keys() == {frozenset(map(frozenset, facets))
                           for _, facets in reference_memo}
    assert len(memo) == len(reference_memo)


def test_shared_memo_entries_and_verdicts_are_pinned():
    # one memo across many grounds, as C2 shares it: every certified
    # complex of the corpus with at most 10 vertices, then the random ones;
    # the entry count and the nonevasive names were taken on the
    # sorted-label key
    memo = {}
    for _, lat in full_corpus(100):
        for x in lat.interior():
            c = certificate_complex(lat, x)
            if len(c.vertices) <= 10:
                assert brute_nonevasive(c, memo=memo), x
    nonevasive = [name for name, c in random_complexes()
                  if brute_nonevasive(c, memo=memo)]
    assert len(memo) == 8998
    assert nonevasive == [f"complex-s{s}" for s in (
        777, 779, 780, 781, 782, 785, 787, 791, 792, 799, 801, 802, 803,
        809, 811, 812, 815, 820, 821, 822, 826)]


def test_certifier_matches_oracle_on_divisors():
    for n in (12, 24, 36, 60):
        lat = generate("divisor", n)
        for x in lat.interior():
            c = certificate_complex(lat, x)
            if len(c.vertices) <= 10:
                assert brute_nonevasive(c)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_mobius_matches_euler_on_random_lattices(seed):
    lat = generate("random", 6, p=0.3, seed=seed)
    mu = mobius(lat)
    assert interior_euler(lat) == mu
    if find_noncomplemented_element(lat) is not None:
        assert mu == 0
