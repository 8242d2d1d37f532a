from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from nonevade.certify import (
    certificate_complex,
    certify,
    extract_collapses,
    interior_members,
)

from nonevade.complexes import (
    CollapsePair,
    CollapseSequence,
    Complex,
    _face_masks,
    order_complex,
    replay_collapses,
)
from nonevade.errors import (
    EmptyInterior,
    EmptyLink,
    LastVertex,
    NotFreePair,
    ParseError,
    ReplayMismatch,
    UnknownVertex,
)
from nonevade.lattice import _bits, generate, parse_lattice
from nonevade.corpus import M3_TEXT, full_corpus, random_complexes, random_corpus


def path_complex():
    # the divisor-12 interior: edges 2-4, 2-6, 3-6
    return Complex(["2", "3", "4", "6"], [{"2", "4"}, {"2", "6"}, {"3", "6"}])


def hollow_triangle():
    return Complex("abc", [{"a", "b"}, {"a", "c"}, {"b", "c"}])


def _faces(c):
    """Every nonempty face of c as a label set, read off its face masks."""
    return {frozenset(c._labels(m)) for m in _face_masks(c._facet_masks())}


# --- construction ----------------------------------------------------------------


def test_facets_are_maximalised():
    c = Complex("ab", [{"a"}, {"a", "b"}, {"b"}])
    assert c.facets == frozenset({frozenset({"a", "b"})})


def test_every_vertex_needs_a_facet():
    with pytest.raises(ValueError):
        Complex("abc", [{"a", "b"}])


def test_faces_must_use_known_vertices():
    with pytest.raises(UnknownVertex):
        Complex("ab", [{"a", "q"}, {"b"}])


def test_complex_equality_ignores_vertex_order():
    one = Complex(["a", "b"], [{"a", "b"}])
    two = Complex(["b", "a"], [{"a", "b"}])
    assert one == two


def test_equality_on_one_vertex_ground_compares_facets():
    # a link and a deletion share their parent's vertex ground; here they
    # have the same vertices but different facets
    cone = Complex("abcx", [{"a", "b", "c"}, {"a", "x"}, {"b", "x"}, {"c", "x"}])
    link, deletion = cone.link("x"), cone.deletion("x")
    assert link.vertices == deletion.vertices == ("a", "b", "c")
    assert link != deletion
    assert deletion == Complex("cba", [{"a", "b", "c"}])
    assert link == Complex("abc", [{"a"}, {"b"}, {"c"}])


def test_serialisation_round_trip():
    c = path_complex()
    assert Complex.from_obj(c.to_obj()) == c
    assert c.to_obj()["facets"] == [["2", "4"], ["2", "6"], ["3", "6"]]


# --- order complexes ----------------------------------------------------------------


def test_order_complex_of_two_chain():
    chain = generate("chain", 4)
    c = order_complex(chain.interior_set())
    assert c.facets == frozenset({frozenset({"a", "b"})})


def test_order_complex_of_d12_interior_is_a_path():
    d12 = generate("divisor", 12)
    c = order_complex(d12.interior_set())
    assert c == path_complex()


def test_order_complex_of_antichain_is_isolated_points():
    m3 = parse_lattice(M3_TEXT)
    c = order_complex(m3.interior_set())
    assert c.facets == frozenset(
        {frozenset({"a"}), frozenset({"b"}), frozenset({"c"})}
    )


def test_order_complex_rejects_empty_interior():
    chain = generate("chain", 2)
    with pytest.raises(EmptyInterior):
        order_complex(chain.interior_set())


def test_order_complex_takes_poset_views_only():
    d12 = generate("divisor", 12)
    with pytest.raises(TypeError):
        order_complex(d12.interior())
    # a dual view walks its chains in the reversed order
    dual = order_complex(d12.dual().interior_set())
    assert dual == order_complex(d12.interior_set())
    c = order_complex(d12.poset.restrict(["2", "3", "6"]))
    assert c.facets == frozenset({frozenset({"2", "6"}), frozenset({"3", "6"})})


def test_order_complex_of_a_deep_chain_is_one_simplex():
    # 1,200 cover steps: the maximal chains are walked on an explicit stack
    chain = generate("chain", 1202)
    c = order_complex(chain.interior_set())
    assert c.facets == frozenset({frozenset(chain.interior())})
    assert c.vertices == chain.interior()


def test_order_complex_faces_are_chains():
    lat = generate("boolean", 3)
    c = order_complex(lat.interior_set())
    for face in _faces(c):
        members = sorted(face)
        for u, v in combinations(members, 2):
            assert lat.leq(u, v) or lat.leq(v, u)


# --- link and deletion ----------------------------------------------------------------


def test_link_of_path_centre_is_two_points():
    c = path_complex()
    link = c.link("2")
    assert set(link.vertices) == {"4", "6"}
    assert link.facets == frozenset({frozenset({"4"}), frozenset({"6"})})


def test_link_of_edge_end_is_point():
    c = Complex("ab", [{"a", "b"}])
    assert c.link("b") == Complex(["a"], [{"a"}])


def test_link_of_path_end():
    c = path_complex()
    assert c.link("3") == Complex(["6"], [{"6"}])


def test_link_errors():
    c = Complex("ab", [{"a"}, {"b"}])
    with pytest.raises(EmptyLink):
        c.link("a")
    with pytest.raises(UnknownVertex):
        c.link("q")


def test_deletion_of_path_end():
    c = path_complex()
    assert c.deletion("3") == Complex(["2", "4", "6"], [{"2", "4"}, {"2", "6"}])


def test_deletion_keeps_other_vertices():
    c = Complex("ab", [{"a", "b"}])
    assert c.deletion("b") == Complex(["a"], [{"a"}])
    three = Complex("abc", [{"a"}, {"b"}, {"c"}])
    assert set(three.deletion("c").vertices) == {"a", "b"}


def test_deletion_of_last_vertex_fails():
    c = Complex("a", [{"a"}])
    with pytest.raises(LastVertex):
        c.deletion("a")


def test_link_deletion_partition_faces():
    # faces containing v correspond to link faces; the rest to the deletion
    lat = generate("divisor", 36)
    c = order_complex(lat.interior_set())
    for v in c.vertices:
        try:
            lk = c.link(v)
        except EmptyLink:
            continue
        dl = c.deletion(v)
        with_v = {f for f in _faces(c) if v in f and len(f) > 1}
        assert {f - {v} for f in with_v} == _faces(lk)
        assert {f for f in _faces(c) if v not in f} == _faces(dl)


# --- Euler characteristics ----------------------------------------------------------


def test_reduced_euler_point():
    assert Complex("a", [{"a"}]).reduced_euler() == 0


def test_reduced_euler_path():
    assert path_complex().reduced_euler() == 0


def test_reduced_euler_hollow_triangle():
    assert hollow_triangle().reduced_euler() == -1


# --- collapse replay ------------------------------------------------------------------


def seq(pairs, final):
    return CollapseSequence(
        tuple(CollapsePair(frozenset(a), frozenset(b)) for a, b in pairs), final
    )


def test_replay_single_edge():
    c = Complex("ab", [{"a", "b"}])
    result = replay_collapses(c, seq([({"b"}, {"a", "b"})], "a"))
    assert result == Complex(["a"], [{"a"}])


def test_replay_path_frozen_sequence():
    c = path_complex()
    s = seq([({"3"}, {"3", "6"}), ({"4"}, {"2", "4"}), ({"6"}, {"2", "6"})], "2")
    assert replay_collapses(c, s) == Complex(["2"], [{"2"}])


def test_replay_counts_pairs():
    c = path_complex()
    assert (c.face_count() - 1) // 2 == 3


def test_replay_rejects_hollow_triangle_steps():
    c = hollow_triangle()
    with pytest.raises(NotFreePair) as err:
        replay_collapses(c, seq([({"a"}, {"a", "b"})], "c"))
    assert err.value.index == 0
    assert err.value.reason == "multiple-cofaces"


def test_replay_reports_reasons():
    c = path_complex()
    with pytest.raises(NotFreePair) as err:
        replay_collapses(c, seq([({"2", "3"}, {"2", "3", "4"})], "2"))
    assert err.value.reason == "not-a-face"
    with pytest.raises(NotFreePair) as err:
        replay_collapses(c, seq([({"3"}, {"2", "3"})], "2"))
    assert err.value.reason == "wrong-coface"


def test_replaying_twice_leaves_the_complex_whole():
    # each replay removes faces from a face set of its own
    c = path_complex()
    s = seq([({"3"}, {"3", "6"}), ({"4"}, {"2", "4"}), ({"6"}, {"2", "6"})], "2")
    assert c.face_count() == 7
    for _ in range(2):
        assert replay_collapses(c, s) == Complex(["2"], [{"2"}])
    assert c.face_count() == 7


def test_replay_mismatch_when_final_wrong():
    c = Complex("ab", [{"a", "b"}])
    with pytest.raises(ReplayMismatch):
        replay_collapses(c, seq([({"b"}, {"a", "b"})], "b"))


def reference_replay(complex_, sequence):
    """The replay before it sought cofaces inside the star of the face:
    every vertex outside the free face is tried."""
    faces = _face_masks(complex_._facet_masks())
    mask, vmask = complex_._mask, complex_._vmask
    for index, pair in enumerate(sequence.pairs):
        free = mask(pair.free_face)
        if free is None or free not in faces:
            raise NotFreePair(index, "not-a-face", f"{sorted(pair.free_face)}")
        cofaces = [
            free | 1 << p for p in _bits(vmask & ~free) if free | 1 << p in faces
        ]
        if len(cofaces) != 1:
            raise NotFreePair(
                index, "multiple-cofaces",
                f"{sorted(pair.free_face)} has {len(cofaces)} cofaces",
            )
        if cofaces[0] != mask(pair.coface):
            raise NotFreePair(
                index, "wrong-coface",
                f"expected {sorted(complex_._labels(cofaces[0]))}, "
                f"got {sorted(pair.coface)}",
            )
        faces.remove(free)
        faces.remove(cofaces[0])
    final = sequence.final_vertex
    if faces != {mask((final,))}:
        raise ReplayMismatch(
            f"{len(faces)} faces remain after replay, "
            f"expected the single vertex {final!r}"
        )
    return Complex([final], [frozenset({final})])


def _replay_outcome(replay, complex_, sequence):
    try:
        return "ok", replay(complex_, sequence)
    except NotFreePair as exc:
        return type(exc), exc.index, exc.reason, str(exc)
    except ReplayMismatch as exc:
        return type(exc), str(exc)


def _mutated(sequence, vertices, rng):
    """Seeded mutants of a collapse sequence: two pairs swapped, a pair
    dropped, a wrong coface, a free face that is no face, a wrong final
    vertex."""
    pairs, final = list(sequence.pairs), sequence.final_vertex
    i, j = rng.randrange(len(pairs)), rng.randrange(len(pairs))
    swapped = list(pairs)
    swapped[i], swapped[j] = pairs[j], pairs[i]
    free = pairs[i].free_face
    others = [v for v in vertices if v not in free]
    u, w = rng.choice(vertices), rng.choice(vertices + ["nowhere"])
    return [
        CollapseSequence(swapped, final),
        CollapseSequence(pairs[:i] + pairs[i + 1:], final),
        CollapseSequence(pairs[:i] + [CollapsePair(free, free | {rng.choice(others)})]
                         + pairs[i + 1:], final),
        CollapseSequence(pairs[:i] + [CollapsePair({u, w}, {u, w, "elsewhere"})]
                         + pairs[i + 1:], final),
        CollapseSequence(pairs, rng.choice(vertices)),
    ]


def test_replay_matches_the_full_scan_reference():
    # cofaces sought inside the star of the face: the same verdict, index,
    # reason and message as trying every vertex, on order complexes and on
    # facet-built copies, for extracted sequences and seeded mutants
    rng, reasons = Random(3), set()
    for _, lat in random_corpus(count=30):
        for x in lat.interior():
            c = certificate_complex(lat, x)
            cert, _ = certify(lat, x)
            sequence = extract_collapses(cert, c)
            if not sequence.pairs:
                continue
            copy = Complex(c.vertices, c.facets)
            for s in [sequence] + _mutated(sequence, list(c.vertices), rng):
                for complex_ in (c, copy):
                    outcome = _replay_outcome(replay_collapses, complex_, s)
                    assert outcome == _replay_outcome(reference_replay, complex_, s)
                    reasons.add(outcome[2] if outcome[0] is NotFreePair
                                else outcome[0])
    assert reasons == {"ok", "not-a-face", "multiple-cofaces", "wrong-coface",
                       ReplayMismatch}, reasons


def test_collapse_pair_validation():
    with pytest.raises(ValueError):
        CollapsePair(frozenset({"a"}), frozenset({"a"}))
    with pytest.raises(ValueError):
        CollapsePair(frozenset({"a"}), frozenset({"a", "b", "c"}))


@pytest.mark.parametrize("doc, exc, message", [
    ({"vertices": []}, ParseError, 'complex document needs "vertices" and "facets"'),
    ({"vertices": "ab", "facets": ["ab"]}, ParseError,
     '"vertices" must be an array of strings'),
    ({"vertices": ["a"], "facets": [5]}, ParseError,
     '"facets" must be an array of arrays of strings'),
    ({"vertices": [], "facets": []}, ParseError,
     "bad complex document: a complex needs at least one vertex"),
    ({"vertices": ["a"], "facets": [["b"]]}, UnknownVertex,
     "face uses unknown vertices ['b']"),
])
def test_complex_from_obj_refusals_name_their_cause(doc, exc, message):
    with pytest.raises(exc) as info:
        Complex.from_obj(doc)
    assert type(info.value) is exc and str(info.value) == message


def test_collapse_sequence_round_trip():
    s = seq([({"3"}, {"3", "6"})], "6")
    assert CollapseSequence.from_obj(s.to_obj()) == s


@pytest.mark.parametrize("doc", [
    {"pairs": [[["a"], ["a", "b"]]], "final": ["x"]},  # final is a list
    {"pairs": [[[1], [1, 2]]], "final": 1},  # integer labels
    {"pairs": [["ab", "abc"]], "final": "a"},  # string faces, not lists
    {"pairs": [[["a"], ["a", "b"], ["c"]]], "final": "a"},  # three faces
    {"pairs": {"a": "b"}, "final": "a"},
    {"pairs": [[["a"], ["a", "b", "c"]]], "final": "a"},  # not a free pair
    {"pairs": []},
])
def test_collapse_sequence_from_obj_checks_field_kinds(doc):
    with pytest.raises(ParseError):
        CollapseSequence.from_obj(doc)


# --- the proof's link/deletion identities ----------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_atom_link_identity_random(seed):
    lat = generate("random", 6, p=0.35, seed=seed)
    interior = lat.interior()
    if not interior:
        return
    whole = order_complex(lat.interior_set())
    for y in lat.atoms:
        if y not in interior:
            continue
        above = [w for w in interior if lat.leq(y, w) and w != y]
        below_free = [w for w in interior if w != y]
        if above:
            assert order_complex(lat.poset.restrict(above)) == whole.link(y)
        if below_free:
            assert order_complex(lat.poset.restrict(below_free)) == whole.deletion(y)


# --- the mask representation against the definitions ------------------------------


def _closure(facets):
    """Every nonempty subset of the given label sets."""
    faces = set()
    for f in facets:
        items = sorted(f)
        for k in range(1, len(items) + 1):
            faces.update(map(frozenset, combinations(items, k)))
    return faces


def _chains(members, leq):
    """Every nonempty chain among ``members``, by brute force."""
    chains = [frozenset()]
    for m in members:
        chains += [ch | {m} for ch in chains
                   if all(leq(u, m) or leq(m, u) for u in ch)]
    return {ch for ch in chains if ch}


def _check_against(c, faces, vertices, picks, rng):
    """c against the reference complex with face set ``faces`` and canonical
    vertex order ``vertices``, then its links and deletions chosen by
    ``picks`` against their definitions on the reference."""
    assert c.vertices == vertices
    assert _faces(c) == set(faces)
    assert c.facets == frozenset(f for f in faces if not any(f < g for g in faces))
    assert c.face_count() == len(faces)
    assert c.reduced_euler() == sum(1 if len(f) % 2 else -1 for f in faces) - 1
    # equality and hash follow labels, also against a complex built on
    # another vertex ground from redundant faces in a shuffled order
    order, listed = list(vertices), sorted(faces, key=sorted)
    rng.shuffle(order)
    rng.shuffle(listed)
    other = Complex(order, listed)
    assert other == c and c == other and hash(other) == hash(c)
    if not picks:
        return
    (op, i), rest = picks[0], picks[1:]
    v = vertices[i % len(vertices)]
    if op == "link":
        expected = {f - {v} for f in faces if v in f and len(f) > 1}
        if not expected:
            with pytest.raises(EmptyLink):
                c.link(v)
            return
        child, same = c.link(v), other.link(v)
    else:
        expected = {f for f in faces if v not in f}
        if len(vertices) == 1:
            with pytest.raises(LastVertex):
                c.deletion(v)
            return
        child, same = c.deletion(v), other.deletion(v)
    assert child == same and hash(child) == hash(same)
    assert child != c
    kept = tuple(u for u in vertices if frozenset({u}) in expected)
    _check_against(child, expected, kept, rest, rng)


_PICKS = st.lists(st.tuples(st.sampled_from(["link", "deletion"]),
                            st.integers(min_value=0, max_value=1_000)), max_size=5)
_RANDOM_COMPLEXES = [c for _, c in random_complexes()]


@settings(max_examples=60, deadline=None)
@given(index=st.integers(min_value=0, max_value=len(_RANDOM_COMPLEXES) - 1),
       picks=_PICKS, shuffle=st.integers(min_value=0, max_value=1_000))
def test_random_complexes_match_the_definitions(index, picks, shuffle):
    c = _RANDOM_COMPLEXES[index]
    _check_against(c, _closure(c.facets), c.vertices, picks, Random(shuffle))


def _view_after(root, steps, pick):
    """The view that deletions, intervals [atom, top] and duals, as certify
    and the audit take them, make of ``root``."""
    lat = root
    for step in steps:
        if len(lat.interior()) < 2:
            break
        if step == "dual":
            lat = lat.dual()
        elif step == "remove_atom":
            lat = lat.remove_atom(lat.atoms[pick % len(lat.atoms)])
        else:
            lat = lat.interval(lat.atoms[pick % len(lat.atoms)], lat.top)
    return lat


_VIEW_STEPS = st.lists(st.sampled_from(["remove_atom", "interval", "dual"]), max_size=3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), steps=_VIEW_STEPS,
       pick=st.integers(min_value=0, max_value=1_000),
       picks=_PICKS, shuffle=st.integers(min_value=0, max_value=1_000))
def test_order_complexes_of_views_match_the_definitions(seed, steps, pick, picks,
                                                         shuffle):
    # the certified complexes of sublattice views, as certify and the audit
    # build them, against maximal chains found by brute force
    (_, root), = random_corpus(count=1, seed_start=seed)
    lat = _view_after(root, steps, pick)
    if not lat.interior():
        return
    x = lat.interior()[pick % len(lat.interior())]
    members = interior_members(lat, x)
    if not members:
        return
    c = certificate_complex(lat, x)
    _check_against(c, _chains(members, lat.leq), members, picks, Random(shuffle))
    # every complex of one root shares its vertex ground
    assert order_complex(root.poset.restrict(members)) == c


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), steps=_VIEW_STEPS,
       pick=st.integers(min_value=0, max_value=1_000))
def test_link_and_deletion_are_order_complexes_of_masks(seed, steps, pick):
    # the identities the audit compares vertex masks by: in the order
    # complex of a member set c of one root, deleting y leaves the order
    # complex of c - y, and the link of y is the order complex of the
    # members of c comparable to y
    (_, root), = random_corpus(count=1, seed_start=seed)
    lat = _view_after(root, steps, pick)
    P = lat.poset
    for x in lat.interior():
        c = certificate_complex(lat, x)
        for y in c.vertices:
            p = P._pos[y]
            rest = c._vmask & ~(1 << p)
            if rest:
                assert c.deletion(y) == order_complex(P._view(rest))
            else:
                with pytest.raises(LastVertex):
                    c.deletion(y)
            near = rest & (P._up[p] | P._down[p])
            if near:
                assert c.link(y) == order_complex(P._view(near))
            else:
                with pytest.raises(EmptyLink):
                    c.link(y)


def _strict_up_sets(lattice):
    """The strict up-set of each element, from the cover pairs alone."""
    succ = {u: [] for u in lattice.elements}
    for u, v in lattice.covers():
        succ[u].append(v)
    above = {}
    for u in succ:
        seen, stack = set(), list(succ[u])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack += succ[v]
        above[u] = seen
    return above


def _maximal_chains(above, members):
    """The maximal chains among ``members`` as label sets: a chain starts
    at a minimal member and steps to each member above its top with no
    member in between."""
    up = {u: above[u] & members for u in members}
    stack = [(u, frozenset({u})) for u in members
             if not any(u in up[w] for w in members)]
    chains = set()
    while stack:
        u, chain = stack.pop()
        steps = [v for v in up[u] if not any(v in up[w] for w in up[u])]
        if not steps:
            chains.add(chain)
        stack += [(v, chain | {v}) for v in steps]
    return chains


def test_order_complexes_list_their_maximal_chains_when_read():
    # an order complex stores its poset view and no facets: for every
    # certified complex of the corpus and each of its one-vertex links and
    # deletions, the facets read are the maximal chains, and the complex
    # writes, compares and hashes as its facet-built copy
    for name, lat in full_corpus(100):
        above = _strict_up_sets(lat)
        for x in lat.interior():
            members = set(interior_members(lat, x))
            c = certificate_complex(lat, x)
            cases = [(c, members)]
            for v in sorted(members):
                rest = members - {v}
                near = {u for u in rest if u in above[v] or v in above[u]}
                if rest:
                    cases.append((c.deletion(v), rest))
                if near:
                    cases.append((c.link(v), near))
            for k, vertices in cases:
                assert k._facets is None and k._order is not None
                facets = k.facets
                assert facets == _maximal_chains(above, vertices), (name, x)
                copy = Complex(k.vertices, facets)
                assert copy._facets is not None and copy._order is None
                assert k.to_obj() == copy.to_obj(), (name, x)
                assert k == copy and copy == k and hash(k) == hash(copy)
