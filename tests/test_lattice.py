import hashlib
import json
import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from nonevade.errors import (
    CycleDetected,
    NoUniqueBottom,
    NoUniqueTop,
    NotALattice,
    NotAnAtom,
    NotComparable,
    ParamOutOfRange,
    ParseError,
    UnknownElement,
    UnknownFamily,
)
from nonevade.cli import main
from nonevade.complexes import order_complex
from nonevade.corpus import BOWTIE_TEXT, M3_TEXT, N5_TEXT, named_corpus, random_corpus
from nonevade.lattice import (
    MAX_ELEMENTS,
    Lattice,
    Poset,
    _meets_exist,
    _missing_bound,
    check_label,
    dedekind_macneille,
    format_lattice,
    generate,
    parse_lattice,
    product_lattice,
)
from nonevade.oracles import mobius

D12_TEXT = """\
# divisors of 12
elements: 1 2 3 4 6 12
cover: 1 2
cover: 1 3
cover: 2 4
cover: 2 6
cover: 3 6
cover: 4 12
cover: 6 12
"""


@pytest.fixture
def d12():
    return parse_lattice(D12_TEXT)


@pytest.fixture
def b3():
    return generate("boolean", 3)


# --- parsing and validation -------------------------------------------------


def test_parse_d12_meet_join_match_gcd_lcm(d12):
    # oracle: arithmetic gcd/lcm over all 36 pairs
    divisors = [1, 2, 3, 4, 6, 12]
    for u in divisors:
        for v in divisors:
            assert d12.meet(str(u), str(v)) == str(math.gcd(u, v))
            assert d12.join(str(u), str(v)) == str(math.lcm(u, v))


def test_parse_three_chain():
    lat = parse_lattice("elements: 0 a 1\ncover: 0 a\ncover: a 1\n")
    assert lat.bottom == "0" and lat.top == "1"
    assert lat.leq("0", "1") and lat.leq("a", "1")


def test_parse_bowtie_reports_join_witnesses():
    # only meets are checked, so the first pair named is c and d, whose
    # maximal common lower bounds a and b witness the missing join of a and b
    with pytest.raises(NotALattice) as err:
        parse_lattice(BOWTIE_TEXT)
    exc = err.value
    assert exc.kind == "meet"
    assert (exc.left, exc.right) == ("c", "d")
    assert exc.witnesses == ("a", "b")
    assert str(exc) == "no unique meet for 'c' and 'd': candidates ['a', 'b']"


def test_parse_json_document(d12):
    doc = format_lattice(d12, as_json=True)
    assert parse_lattice(doc) == d12


def test_parse_rejects_cycles():
    text = "elements: a b\ncover: a b\ncover: b a\n"
    with pytest.raises(CycleDetected):
        parse_lattice(text)


def test_parse_rejects_unknown_cover_labels():
    with pytest.raises(ParseError):
        parse_lattice("elements: a b\ncover: a q\n")


#: JSON text that does not decode: nesting deeper than any CPython's
#: recursion limits, and an integer longer than CPython converts.
UNDECODABLE_JSON = [
    '{"elements": ' + "[" * 100_000 + "]" * 100_000 + "}",
    '{"elements": ["a"], "covers": [[' + "1" * 5000 + "]]}",
]


@pytest.mark.parametrize("text", UNDECODABLE_JSON, ids=["deep", "long-int"])
def test_parse_undecodable_json_is_a_parse_error(text):
    with pytest.raises(ParseError, match="^invalid JSON lattice document: "):
        parse_lattice(text)


def test_parse_requires_unique_bottom():
    text = "elements: a b 1\ncover: a 1\ncover: b 1\n"
    with pytest.raises(NoUniqueBottom):
        parse_lattice(text)


def test_parse_requires_unique_top():
    text = "elements: 0 a b\ncover: 0 a\ncover: 0 b\n"
    with pytest.raises(NoUniqueTop):
        parse_lattice(text)


def test_round_trip_text_format(d12):
    assert parse_lattice(format_lattice(d12)) == d12


def test_roots_come_only_from_covers():
    with pytest.raises(TypeError):
        Poset(["a"], [1])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_from_covers_closes_unclosed_covers_over_shuffled_labels(seed):
    # a sparse sample of pairs i < j, so mostly not transitively closed,
    # listed in shuffled order over labels in a shuffled canonical order
    rng = Random(seed)
    n = rng.randint(1, 9)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    rng.shuffle(pairs)
    elements = [f"e{i}" for i in range(n)]
    rng.shuffle(elements)
    root = Poset.from_covers(elements, [(f"e{i}", f"e{j}") for i, j in pairs])
    above = [{i} | {j for a, j in pairs if a == i} for i in range(n)]
    for k in range(n):
        for i in range(n):
            if k in above[i]:
                above[i] |= above[k]
    for i in range(n):
        for j in range(n):
            assert root.leq(f"e{i}", f"e{j}") == (j in above[i])
    where = {e: k for k, e in enumerate(elements)}
    extends = all(where[f"e{i}"] < where[f"e{j}"] for i, j in pairs)
    assert (type(root._rank) is range) == extends


def test_bad_labels_rejected():
    with pytest.raises(ParseError):
        Poset.from_covers(["a", "b,c"], [])
    with pytest.raises(ParseError):
        Poset.from_covers(["a", "a"], [])
    with pytest.raises(ParseError):
        Poset.from_covers(["a", "a#b"], [])


def test_from_covers_refuses_more_than_max_elements_before_any_work():
    labels = [f"e{i}" for i in range(MAX_ELEMENTS + 1)]
    with pytest.raises(ParamOutOfRange, match="^65537 elements exceeds the cap of 65536$"):
        Poset.from_covers(labels, [])


#: Documents each refused by one check of ``parse_lattice``, with the
#: exception and its message; the CLI exits 2 on a ParseError and 1 on the
#: semantic failures.
REFUSED_DOCUMENTS = [
    ('{"covers": []}', ParseError,
     'JSON lattice document needs an "elements" array'),
    ('{"elements": ["a", 1]}', ParseError, '"elements" must be an array of strings'),
    ('{"elements": ["a", ""]}', ParseError,
     "bad element label '': must be a nonempty string"),
    ("elements: a b\ncover: z a\n", ParseError, "cover references unknown element 'z'"),
    ("elements: a b\ncover: a a\n", CycleDetected, "self-cover on 'a'"),
    ('{"elements": []}', NoUniqueBottom, "empty poset has no bottom element"),
    ("elements: a\nelements: b\n", ParseError, "line 2: duplicate elements line"),
    ("elements:\n", ParseError, "line 1: elements line is empty"),
    ("cover: a b\nelements: a b\n", ParseError, "line 1: cover before elements line"),
    ("elements: a b c\ncover: a b c\n", ParseError,
     "line 2: cover needs exactly two labels"),
    ("# no elements\n", ParseError, "document has no elements line"),
]


@pytest.mark.parametrize("text, exc, message", REFUSED_DOCUMENTS)
def test_parse_refusals_name_their_cause(capsys, tmp_path, text, exc, message):
    with pytest.raises(exc) as info:
        parse_lattice(text)
    assert type(info.value) is exc and str(info.value) == message
    path = tmp_path / "refused.lat"
    path.write_text(text)
    assert main(["validate", str(path), "--json"]) == (2 if exc is ParseError else 1)
    assert json.loads(capsys.readouterr().err) == {
        "error": {"type": exc.__name__, "message": message}}


@pytest.mark.parametrize("args, kwargs, exc, message", [
    (("chain", 70_000), {}, ParamOutOfRange, "chain of 70000 exceeds the cap of 65536"),
    (("product",), {"left": "chain:300", "right": "chain:300"}, ParamOutOfRange,
     "product has 90000 elements, cap is 65536"),
    (("boolean", -1), {}, ParamOutOfRange, "boolean rank must be nonnegative"),
    (("divisor", 0), {}, ParamOutOfRange, "divisor lattice needs n >= 1"),
    (("partition", 0), {}, ParamOutOfRange, "partition lattice needs n >= 1"),
    (("random", 25), {}, ParamOutOfRange, "random base poset size must be in 0..24"),
    (("random", 5), {"p": 1.5}, ParamOutOfRange, "edge probability must be in [0, 1]"),
    (("product",), {}, ParamOutOfRange, "product needs left and right factors"),
    (("product",), {"left": "chain3", "right": "chain:2"}, ParamOutOfRange,
     "bad product factor 'chain3': expected e.g. 'chain:3'"),
    (("product",), {"left": "chain:x", "right": "chain:2"}, ParamOutOfRange,
     "bad product factor size in 'chain:x'"),
    (("product",), {"left": "foo:3", "right": "chain:2"}, UnknownFamily,
     "unknown product factor family 'foo'"),
])
def test_generate_refusals_name_their_cause(args, kwargs, exc, message):
    with pytest.raises(exc) as info:
        generate(*args, **kwargs)
    assert type(info.value) is exc and str(info.value) == message


def _accepted(label):
    try:
        check_label(label)
    except ParseError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.text(min_size=1, max_size=6).filter(_accepted),
                       min_size=1, max_size=4, unique=True))
def test_accepted_labels_round_trip_both_formats(labels):
    chain = Lattice(Poset.from_covers(labels, zip(labels, labels[1:])))
    for as_json in (False, True):
        assert parse_lattice(format_lattice(chain, as_json=as_json)) == chain


# --- recognition against the definition --------------------------------------


def _brute_meet(members, leq, u, v):
    """The meet of u and v among ``members`` under ``leq``, by brute force,
    or the tuple of their maximal common lower bounds when it is not unique."""
    common = [w for w in members if leq(w, u) and leq(w, v)]
    tops = tuple(w for w in common if not any(w != z and leq(w, z) for z in common))
    return tops[0] if len(tops) == 1 else tops


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       shuffle=st.none() | st.integers(min_value=0, max_value=1_000), dual=st.booleans())
def test_recognition_matches_the_definition(seed, shuffle, dual):
    # a random bounded poset: 0 < every middle element < 1, plus random
    # relations among the middle ones closed by hand; restrict then drops
    # ``extra`` middle elements, leaving 3-10 members
    rng = Random(seed)
    size, extra, p = rng.randint(3, 10), rng.randint(0, 4), rng.choice([0.35, 0.5])
    mids = [f"m{i}" for i in range(size - 2 + extra)]
    less = {(u, v) for i, u in enumerate(mids) for v in mids[i + 1:] if rng.random() < p}
    for w in mids:
        less |= {(u, v) for u, x in less if x == w for y, v in less if y == w}
    less |= {("0", w) for w in mids} | {(w, "1") for w in mids} | {("0", "1")}
    elements = ["0", *mids, "1"]
    if shuffle is not None:
        Random(shuffle).shuffle(elements)
    dropped = set(rng.sample(mids, extra))
    members = [e for e in elements if e not in dropped]
    root = Poset.from_covers(elements, less)
    view = (root.dual() if dual else root).restrict(members)

    def leq(u, v):
        return u == v or ((v, u) if dual else (u, v)) in less

    def geq(u, v):
        return leq(v, u)

    pairs = [(u, v) for i, u in enumerate(members) for v in members[i + 1:]]
    meets = {uv: _brute_meet(members, leq, *uv) for uv in pairs}
    joins = {uv: _brute_meet(members, geq, *uv) for uv in pairs}
    missing = [uv for uv in pairs if isinstance(meets[uv], tuple)]
    is_lattice = not missing and not any(isinstance(j, tuple) for j in joins.values())
    try:
        lat = Lattice(view)
    except NotALattice as exc:
        assert not is_lattice
        assert (exc.left, exc.right) == missing[0]
        assert exc.witnesses == meets[missing[0]]
        return
    assert is_lattice
    for (u, v), w in meets.items():
        assert lat.meet(u, v) == w and lat.join(u, v) == joins[u, v]


def test_the_meet_irreducible_check_agrees_with_the_full_scan():
    # seeded bounded posets 0 < 3-12 middle elements < 1 in a shuffled
    # canonical order, as roots, duals and restricted views: the check over
    # meet-irreducible partners says yes exactly when the scan of every
    # pair finds none without a meet, and a refusal names the pair that
    # scan finds first and its maximal common lower bounds
    seen = {"lattice": 0, "not": 0}
    for seed in range(4000):
        rng = Random(seed)
        mids = [f"m{i}" for i in range(rng.randint(3, 12))]
        prob = rng.choice([0.2, 0.35, 0.5])
        less = [(u, v) for i, u in enumerate(mids) for v in mids[i + 1:]
                if rng.random() < prob]
        less += [("0", w) for w in mids] + [(w, "1") for w in mids]
        elements = ["0", *mids, "1"]
        rng.shuffle(elements)
        root = Poset.from_covers(elements, less)
        dropped = set(rng.sample(mids, rng.randint(0, 3)))
        kept = [e for e in elements if e not in dropped]
        restricted = (root.dual() if seed % 2 else root).restrict(kept)
        for view in (root, root.dual(), restricted):
            order = view._sorted(view._mask)
            missing = _missing_bound(view, order)
            assert _meets_exist(view, order) == (missing is None), seed
            if missing is None:
                seen["lattice"] += 1
                Lattice(view)
                continue
            seen["not"] += 1
            p, q, common = missing
            below = view._labels(common)
            wits = tuple(w for w in below if not any(w != z and view.leq(w, z) for z in below))
            with pytest.raises(NotALattice) as err:
                Lattice(view)
            exc = err.value
            assert (exc.left, exc.right, exc.witnesses) == (
                view._label[p], view._label[q], wits), seed
    assert min(seen.values()) > 2000, seen


# --- complements --------------------------------------------------------------


def test_complements_two_atom_boolean():
    b2 = generate("boolean", 2)
    assert b2.complements("a") == ("b",)


def test_complements_d12_by_scan(d12):
    # oracle: definition scan via gcd/lcm arithmetic
    def co(x):
        return tuple(
            str(y) for y in (1, 2, 3, 4, 6, 12)
            if math.gcd(x, y) == 1 and math.lcm(x, y) == 12
        )

    assert d12.complements("2") == co(2) == ()
    assert d12.complements("4") == co(4) == ("3",)


def test_complements_unknown_element(d12):
    with pytest.raises(UnknownElement):
        d12.complements("7")


def test_complements_self_dual(d12, b3):
    for lat in (d12, b3):
        dual = lat.dual()
        for x in lat.elements:
            assert set(lat.complements(x)) == set(dual.complements(x))


# --- intervals, atom removal, dual --------------------------------------------


def test_interval_multiples_of_three(d12):
    # oracle: enumerate multiples of 3 dividing 12
    expected = tuple(str(d) for d in (3, 6, 12) )
    intv = d12.interval("3", "12")
    assert intv.elements == expected
    assert intv.bottom == "3" and intv.top == "12"


def test_interval_full_is_identity(d12):
    assert d12.interval("1", "12") == d12


def test_interval_of_b3_is_b2_shaped(b3):
    # oracle: supersets of {a} in the subset algebra
    intv = b3.interval("a", "1")
    assert set(intv.elements) == {"a", "ab", "ac", "1"}
    assert intv.bottom == "a" and intv.top == "1"
    assert not intv.leq("ab", "ac") and not intv.leq("ac", "ab")
    assert intv.meet("ab", "ac") == "a" and intv.join("ab", "ac") == "1"


def test_interval_requires_comparable(d12):
    with pytest.raises(NotComparable):
        d12.interval("4", "3")


def test_remove_atom_three(d12):
    lat = d12.remove_atom("3")
    assert lat.elements == ("1", "2", "4", "6", "12")
    # oracle: every pair still has unique bounds (constructor revalidates),
    # spot-check the divisibility structure survives
    assert lat.meet("4", "6") == "2"
    assert lat.join("4", "6") == "12"


def test_remove_atom_two_changes_meet(d12):
    lat = d12.remove_atom("2")
    assert lat.elements == ("1", "3", "4", "6", "12")
    assert lat.meet("4", "6") == "1"


def test_remove_atom_b2_leaves_chain():
    b2 = generate("boolean", 2)
    lat = b2.remove_atom("a")
    assert lat.elements == ("0", "b", "1")
    assert lat.atoms == ("b",)


def test_remove_atom_rejects_non_atoms(d12):
    with pytest.raises(NotAnAtom):
        d12.remove_atom("4")


def test_remove_atom_preserves_complements_of_incomparables(d12, b3):
    # an atom y below neither x nor a complement of it leaves Co(x) unchanged
    for lat in (d12, b3, generate("partition", 4)):
        for y in lat.atoms:
            smaller = lat.remove_atom(y)
            for x in lat.interior():
                if x != y and not lat.leq(y, x) and y not in lat.complements(x):
                    assert set(smaller.complements(x)) == set(lat.complements(x))


def test_dual_swaps_structure(d12):
    dual = d12.dual()
    assert dual.bottom == "12" and dual.top == "1"
    assert set(dual.atoms) == set(d12.coatoms) == {"4", "6"}
    assert set(dual.coatoms) == set(d12.atoms)
    assert dual.dual() == d12


def test_dual_of_chain_reverses():
    chain = generate("chain", 3)
    dual = chain.dual()
    assert dual.leq("1", "a") and dual.leq("a", "0")


# --- comparability components ---------------------------------------------------


def test_components_b2_isolated():
    b2 = generate("boolean", 2)
    assert set(b2.comparability_components()) == {frozenset({"a"}), frozenset({"b"})}


def test_components_d12_connected(d12):
    assert d12.comparability_components() == (frozenset({"2", "3", "4", "6"}),)


def test_components_m3_antichain():
    m3 = parse_lattice(M3_TEXT)
    assert set(m3.comparability_components()) == {
        frozenset({"a"}), frozenset({"b"}), frozenset({"c"}),
    }


def test_components_survive_component_removal():
    n5 = parse_lattice(N5_TEXT)
    comps = n5.comparability_components()
    removable = comps[1]
    rest = n5.restrict([e for e in n5.elements if e not in removable])
    assert set(rest.comparability_components()) == set(comps) - {removable}


# --- Dedekind-MacNeille ----------------------------------------------------------


def test_completion_of_antichain_is_b2_shaped():
    poset = Poset.from_covers(["a", "b"], [])
    lat = dedekind_macneille(poset)
    assert len(lat) == 4
    mid = lat.interior()
    assert len(mid) == 2
    assert not lat.leq(mid[0], mid[1]) and not lat.leq(mid[1], mid[0])


def test_completion_fixes_lattices(d12):
    completed = dedekind_macneille(d12.poset)
    assert len(completed) == len(d12)
    # principal cuts give an order isomorphism; compare down-set profiles
    profile = sorted(len(d12.poset.below(e, strict=False)) for e in d12.elements)
    completed_profile = sorted(
        len(completed.poset.below(e, strict=False)) for e in completed.elements
    )
    assert profile == completed_profile


def test_completion_of_empty_poset():
    lat = dedekind_macneille(Poset.from_covers([], []))
    assert len(lat) == 1
    assert lat.bottom == lat.top


# --- generators -------------------------------------------------------------------


def test_generate_chain():
    chain = generate("chain", 4)
    assert chain.elements == ("0", "a", "b", "1")
    assert chain.covers() == [("0", "a"), ("a", "b"), ("b", "1")]


def test_generate_boolean_3(b3):
    assert len(b3) == 8
    assert b3.elements == ("0", "a", "b", "c", "ab", "ac", "bc", "1")
    # oracle: subset algebra on letters
    assert b3.join("a", "b") == "ab"
    assert b3.meet("ab", "ac") == "a"
    assert b3.complements("ab") == ("c",)


def test_generate_divisor_12(d12):
    assert generate("divisor", 12) == d12


def test_generate_divisor_is_unchanged_and_capped():
    # the divisors come from trial division up to sqrt(n); the text of the
    # two big validate roots is pinned as the full scan up to n built it
    for n, digest in (
        (720720, "8725306ef673c1e1863cac7909b3112572c96d439140615d156cf75d36be4aba"),
        (510510, "ad8f59a244b200a79950cf505734d1368cff676e5262b8298bd48575bc1e5b61"),
    ):
        lat = generate("divisor", n)
        assert lat.elements == tuple(str(d) for d in range(1, n + 1) if n % d == 0)
        assert hashlib.sha256(format_lattice(lat).encode()).hexdigest() == digest
    assert len(generate("divisor", 10 ** 9)) == 100
    with pytest.raises(ParamOutOfRange, match="capped at n = 1000000000"):
        generate("divisor", 10 ** 9 + 1)


# sha256 of the text form followed by the JSON form of each generated family,
# taken from generators that wrote out every up-set in full
FAMILY_DIGESTS = {
    "boolean:0": "db877170bb7315d83f1071181494cf85ae1a5390a82a55f54cc544afe996be90",
    "boolean:1": "ae3c61cb50e7aff38ef097b7dbf409a3b3cdc331e0107a56a2da2fec22fc8012",
    "boolean:2": "28946be62d0e0bd0f66825de14a26af0fa68e16ddff31c651872c681f55fd266",
    "boolean:3": "2b26d7a893c9de0a5675af8dfdd55fa8cf6bd6637eddbfecfa6d6d37733499a4",
    "boolean:4": "41ab6e87f987de6342594e9e7cbb9c9dc99bf1559bf0a9cc658b10f3d90d7fdf",
    "boolean:5": "69659f1951b4b3e0995d686714c33a3988e2c520bedadc6dbca69fd6aa37dd7b",
    "boolean:6": "e5ce5ac48c3604b80c5f9153686f0024dfc24f7c5ce4bafef19bde8f3e18bb25",
    "boolean:7": "0d922612c24cda222b99fdddf91df923b833a79ae95ed2033cdf2cc9efa68915",
    "boolean:8": "6eb211611c2dd3052860e04d5d89339556c9e5e7ec3fb397e577596d358743b3",
    "boolean:9": "b79382a1cce8c01692f0930966b03d714454b116541647f4663f9c0cad4e1b7f",
    "boolean:10": "965097a81a53b1bb38693a55c88b0a89d5c03cab39330e32133de2befeb859e7",
    "partition:1": "36722a9de6bf9916f77b97c7290676ce75a5e02ad70c1b537e5f189e5641aed6",
    "partition:2": "60a196e7ecb366793022f64f6a54156a57d0083acd572a2038d0391a0d2cd966",
    "partition:3": "ae3fb35c1168a64ce1abb3938e9256fa7c67bb67fd8719d16605b5aa3edcad72",
    "partition:4": "e738c89a5e23c231192470684be01bc330a6b510eefb1a7f6ff4085e73ad44ce",
    "partition:5": "774083e75abd2f75838f0fb566e0fc1c72a47df5d608b2a9853b30db72adfc2f",
    "partition:6": "83b95fb1fdf3d08d2e5b107d606cf26f14657c45f1eac522af3709a5a50f1963",
    "partition:7": "506ea8f40cfdadbc70b83cffab4586f2a1c54fab52109fc4f25c75acf19e7a95",
    "divisor:1": "36722a9de6bf9916f77b97c7290676ce75a5e02ad70c1b537e5f189e5641aed6",
    "divisor:97": "3eb41cf6557449ac6c2bf5ff5f20e0dd1b44911a8580ea32ec8501cb3c901c80",
    "divisor:1024": "4d30393a7ecad0fff19acfa5d11d93d33d3605b4cd6936ff5d27255abe5deb53",
    "divisor:360": "f2af05ead510afac3dbf64e1d8849c602009a12e60e572cbf022eaa6cf4f24ca",
    "divisor:735134400": "0684d69a1d6194ec75deeefc868a6f610eaa3cd16a9b6139fd72773b1d6af072",
    "chain:3*chain:3": "0e5859f96936e334538f3db1f5b1e3e01efcebefa4f1c23b2d67f3e86a73742c",
    "boolean:4*partition:4": "f6db723c0e2783e3a1d5a17c12a413351b93a4406110f8ebc019d50fcd576c2f",
    "divisor:12*chain:2": "45a0584ba0d1b41d606a35a58086ff80d3c93039a65660b8644f31282fc31fff",
    "chain:400": "074ef5f7935fb8ea3ed95f73f222a230092e37998885e52459fa501db77e576b",
}


def _generate_named(name):
    """The lattice named "family:n", or "left*right" for a product."""
    left, star, right = name.partition("*")
    if star:
        return generate("product", left=left, right=right)
    family, _, n = name.partition(":")
    return generate(family, int(n))


@pytest.mark.parametrize("name", FAMILY_DIGESTS)
def test_generated_family_is_pinned(name):
    lat = _generate_named(name)
    text = format_lattice(lat) + format_lattice(lat, as_json=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_DIGESTS[name]


# sha256 of the outputs of each validate root parsed from text whose
# element line and cover lines are shuffled, so its canonical order is not
# a linear extension; taken when such roots renumbered their bits by a
# stable sort on down-set size
SHUFFLED_ROOT_DIGESTS = {
    "boolean:9": "10bdd4663df11036f73e6f3c735ebceaac429cb73b4ca4ab971ac02d4b53bdd1",
    "boolean:10": "c63a3c34fe2e330584347de69cfb177729e4aeab6626a92d5b91ddda20fbed5b",
    "partition:6": "8139565342fb0312169194f7cc2656528ef340325d2b85d4b9c2831257a57de9",
    "divisor:720720": "3089c0a78cf8de147c1842f96953fb0f3ee5cb03b6ffba8aa1d5547fd657125a",
    "divisor:510510": "a07f0c11141b9cb5d2ea19192363d4c90267845fe21a4caea2727d168ce20e93",
    "chain:400": "721367bec3897cca832e1bcdba51705a0260470ec2c0464f839bdec1a2ced2a9",
    "boolean:4*partition:4": "17a6bf1c72f09a254291b15ef2364211159355c7574960b6a823668356e48ada",
}


@pytest.mark.parametrize("name", SHUFFLED_ROOT_DIGESTS)
def test_shuffled_root_is_pinned(name):
    lat = _generate_named(name)
    rng = Random(name)
    elements = list(lat.elements)
    covers = [f"cover: {u} {v}" for u, v in lat.covers()]
    rng.shuffle(elements)
    rng.shuffle(covers)
    lat = parse_lattice("\n".join(["elements: " + " ".join(elements), *covers]) + "\n")
    assert type(lat.poset._rank) is not range
    outputs = [format_lattice(lat), format_lattice(lat, as_json=True), lat.atoms,
               lat.coatoms, lat.poset.linear_extension(),
               [lat.complements(e) for e in lat.elements], mobius(lat)]
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    assert digest == SHUFFLED_ROOT_DIGESTS[name]


def test_generate_partition_sizes():
    assert len(generate("partition", 3)) == 5
    assert len(generate("partition", 4)) == 15


def test_generate_partition_structure():
    p3 = generate("partition", 3)
    assert p3.bottom == "1|2|3" and p3.top == "123"
    assert p3.meet("12|3", "13|2") == "1|2|3"
    assert p3.join("12|3", "13|2") == "123"


def test_generate_product():
    lat = generate("product", left="chain:3", right="chain:3")
    assert len(lat) == 9
    assert lat.bottom == "0*0" and lat.top == "1*1"
    assert lat.meet("a*1", "1*a") == "a*a"


def test_generate_random_deterministic():
    one = generate("random", 6, p=0.4, seed=11)
    two = generate("random", 6, p=0.4, seed=11)
    other = generate("random", 6, p=0.4, seed=12)
    assert one == two
    assert one != other


def test_generate_errors():
    with pytest.raises(UnknownFamily):
        generate("mystery", 3)
    with pytest.raises(ParamOutOfRange):
        generate("chain", 0)
    with pytest.raises(ParamOutOfRange):
        generate("boolean", 17)
    with pytest.raises(ParamOutOfRange):
        generate("partition", 10)
    with pytest.raises(ParamOutOfRange):
        generate("chain")


# --- lattice axioms as properties ------------------------------------------------


def _check_bound_property(lat):
    elements = lat.elements
    for u in elements:
        for v in elements:
            m = lat.meet(u, v)
            assert lat.leq(m, u) and lat.leq(m, v)
            for w in elements:
                if lat.leq(w, u) and lat.leq(w, v):
                    assert lat.leq(w, m)
            j = lat.join(u, v)
            assert lat.leq(u, j) and lat.leq(v, j)
            for w in elements:
                if lat.leq(u, w) and lat.leq(v, w):
                    assert lat.leq(j, w)


def test_meet_join_universal_property_named_corpus():
    for name, lat in named_corpus():
        if len(lat) <= 12:
            _check_bound_property(lat)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_meet_join_universal_property_random(seed):
    lat = generate("random", 6, p=0.35, seed=seed)
    _check_bound_property(lat)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_dual_involution_and_absorption_random(seed):
    lat = generate("random", 7, p=0.3, seed=seed)
    view = lat.dual()
    assert view.dual() == lat
    rebuilt = Lattice(Poset.from_covers(lat.elements,
                                        [(v, u) for u, v in lat.covers()]))
    assert view.poset == rebuilt.poset
    assert (view.bottom, view.top) == (rebuilt.bottom, rebuilt.top)
    assert (view.atoms, view.coatoms) == (rebuilt.atoms, rebuilt.coatoms)
    assert view.poset.linear_extension() == rebuilt.poset.linear_extension()
    for u in lat.elements:
        for v in lat.elements:
            assert lat.meet(u, lat.join(u, v)) == u
            assert lat.join(u, lat.meet(u, v)) == u
            assert view.meet(u, v) == rebuilt.meet(u, v)
            assert view.join(u, v) == rebuilt.join(u, v)


# --- sublattice views against rebuilt lattices ------------------------------------


def _assert_matches_rebuilt(view):
    rebuilt = Lattice(Poset.from_covers(view.elements, view.covers()))
    assert view.elements == rebuilt.elements
    assert (view.bottom, view.top) == (rebuilt.bottom, rebuilt.top)
    assert (view.atoms, view.coatoms) == (rebuilt.atoms, rebuilt.coatoms)
    assert view.interior() == rebuilt.interior()
    assert view.covers() == rebuilt.covers()
    assert view.poset.linear_extension() == rebuilt.poset.linear_extension()
    assert view.comparability_components() == rebuilt.comparability_components()
    assert view == rebuilt and hash(view) == hash(rebuilt)
    for u in view.elements:
        assert view.complements(u) == rebuilt.complements(u) == tuple(
            v for v in view.elements
            if view.meet(u, v) == view.bottom and view.join(u, v) == view.top
        )
        for v in view.elements:
            assert view.leq(u, v) == rebuilt.leq(u, v)
            assert view.meet(u, v) == rebuilt.meet(u, v)
            assert view.join(u, v) == rebuilt.join(u, v)


_STEP = st.tuples(
    st.sampled_from(["remove_atom", "interval", "restrict", "dual"]),
    st.integers(min_value=0, max_value=1_000),
    st.integers(min_value=0, max_value=1_000),
)


_SMALL_NAMED = [lat for _, lat in named_corpus() if len(lat) <= 16]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       named=st.none() | st.sampled_from(_SMALL_NAMED),
       steps=st.lists(_STEP, max_size=6))
def test_nested_views_match_rebuilt_lattices(seed, named, steps):
    # chains of deletions, intervals, restrictions and duals, as certify
    # and its prune step nest them; a restriction drops one or two interior
    # elements and may leave no lattice
    lat = generate("random", 7, p=0.3, seed=seed) if named is None else named
    _assert_matches_rebuilt(lat)
    for op, i, j in steps:
        elements = lat.elements
        if op == "remove_atom":
            if not lat.atoms:
                break
            lat = lat.remove_atom(lat.atoms[i % len(lat.atoms)])
        elif op == "interval":
            u = elements[i % len(elements)]
            uppers = lat.poset.above(u, strict=False)
            lat = lat.interval(u, uppers[j % len(uppers)])
        elif op == "dual":
            lat = lat.dual()
        else:
            interior = lat.interior()
            if not interior:
                break
            dropped = {interior[i % len(interior)], interior[j % len(interior)]}
            lat = _restrict_as_rebuilt(lat, [e for e in elements if e not in dropped])
            if lat is None:
                break
        _assert_matches_rebuilt(lat)


def _covers_by_scan(elements, leq, v):
    """The members of ``elements`` covering v under ``leq``, in order."""
    return tuple(e for e in elements if e != v and leq(v, e) and not any(
        w not in (v, e) and leq(v, w) and leq(w, e) for w in elements))


def _assert_masks_match_a_rescan(lat):
    # the atoms and coatoms a view derived from its parent's or walked from
    # its bounds, against a scan of every member of the same view by the
    # definition of a cover
    P, elements = lat.poset, lat.elements
    atoms = _covers_by_scan(elements, lat.leq, lat.bottom)
    coatoms = _covers_by_scan(elements, lambda u, v: lat.leq(v, u), lat.top)
    assert (lat.atoms, lat.coatoms) == (atoms, coatoms)
    assert lat._atom_mask == sum(1 << P._pos[e] for e in atoms)
    assert lat._coatom_mask == sum(1 << P._pos[e] for e in coatoms)
    for mask in (lat._atom_mask, lat._coatom_mask, P._mask):
        if mask:
            assert P._first(mask) == P._sorted(mask)[0]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       shuffle=st.none() | st.integers(min_value=0, max_value=1_000),
       steps=st.lists(st.tuples(st.sampled_from(["remove_atom", "interval", "dual"]),
                                st.integers(min_value=0, max_value=1_000),
                                st.booleans()), max_size=8))
def test_derived_atoms_and_coatoms_match_a_rescan(seed, shuffle, steps):
    # chains of the steps certify and the audit take, on random roots; a
    # shuffled element order is rarely a linear extension, so bits and
    # canonical ranks then disagree
    (_, lat), = random_corpus(count=1, seed_start=seed)
    if shuffle is not None:
        elements = list(lat.elements)
        Random(shuffle).shuffle(elements)
        lat = Lattice(Poset.from_covers(elements, lat.covers()))
    _assert_masks_match_a_rescan(lat)
    for op, i, to_top in steps:
        if op == "dual":
            lat = lat.dual()
        elif op == "remove_atom":
            if not lat.atoms:
                break
            lat = lat.remove_atom(lat.atoms[i % len(lat.atoms)])
        else:
            u = lat.elements[i % len(lat)]
            uppers = lat.poset.above(u, strict=False)
            lat = lat.interval(u, lat.top if to_top else uppers[i % len(uppers)])
        _assert_masks_match_a_rescan(lat)


def _restrict_as_rebuilt(lat, members):
    """lat.restrict(members), checked against a lattice rebuilt from the
    induced order; None when both raise the same NotALattice."""
    relation = [(u, v) for u in members for v in members if u != v and lat.leq(u, v)]
    try:
        expected = Lattice(Poset.from_covers(members, relation))
    except NotALattice as exc:
        with pytest.raises(NotALattice) as err:
            lat.restrict(members)
        assert str(err.value) == str(exc)
        return None
    view = lat.restrict(members)
    assert view == expected
    return view


def test_restrict_matches_rebuilt_on_every_single_deletion():
    failures = 0
    for lat in _SMALL_NAMED:
        for side in (lat, lat.dual()):
            for e in side.interior():
                view = _restrict_as_rebuilt(side, [m for m in side.elements if m != e])
                failures += view is None
    assert failures > 0


def test_restrict_to_a_non_lattice_names_the_first_pair():
    # without ab, abc and abd have two maximal common lower bounds, a and
    # b; on the dual, a and b are the first pair without a meet
    b4 = generate("boolean", 4)
    members = [e for e in b4.elements if e != "ab"]
    for view, pair, wits in ((b4, ("abc", "abd"), ("a", "b")),
                             (b4.interval("0", "1").dual(), ("a", "b"), ("abc", "abd"))):
        with pytest.raises(NotALattice) as err:
            view.restrict(members)
        exc = err.value
        assert (exc.kind, (exc.left, exc.right), exc.witnesses) == ("meet", pair, wits)


# --- Crapo's complementation theorem -----------------------------------------------
#
# mu(0, 1) = sum of mu(0, y) * mu(z, 1) over complements y <= z of x, for every
# x (Crapo 1968): a check of complements() that shares none of its code.


def _mobius_from_bottom(lat):
    mu = {}
    for y in lat.poset.linear_extension():
        below = [w for w in mu if lat.leq(w, y)]
        mu[y] = 1 if y == lat.bottom else -sum(mu[w] for w in below)
    return mu


def test_mobius_on_views_matches_the_recursion_on_labels():
    for name, lat in named_corpus():
        views = [lat, lat.dual()]
        views += [lat.remove_atom(a) for a in lat.atoms]
        views += [lat.interval(a, lat.top) for a in lat.atoms]
        for view in views:
            assert mobius(view) == _mobius_from_bottom(view)[view.top], name


def _assert_crapo(lat):
    from_bottom = _mobius_from_bottom(lat)
    to_top = _mobius_from_bottom(lat.dual())
    for x in lat.elements:
        co = lat.complements(x)
        assert from_bottom[lat.top] == sum(
            from_bottom[y] * to_top[z] for y in co for z in co if lat.leq(y, z)
        ), x


def test_crapo_complementation_named_corpus():
    for name, lat in named_corpus():
        _assert_crapo(lat)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_crapo_complementation_random_and_views(seed):
    lat = generate("random", 7, p=0.3, seed=seed)
    _assert_crapo(lat)
    for y in lat.atoms:
        _assert_crapo(lat.remove_atom(y))
        _assert_crapo(lat.interval(y, lat.top))
    for y in lat.coatoms:
        _assert_crapo(lat.interval(lat.bottom, y))


# --- label rendering ----------------------------------------------------------------


def test_label_reads_are_pinned_and_leave_views_untouched():
    # every named-corpus lattice in three shuffled element orders, which
    # are rarely linear extensions, so bits and canonical ranks disagree
    digest, off = hashlib.sha256(), 0
    for seed in (1, 2, 3):
        rng = Random(seed)
        for name, lat in named_corpus():
            elements = list(lat.elements)
            rng.shuffle(elements)
            lat = Lattice(Poset.from_covers(elements, lat.covers()))
            off += type(lat.poset._rank) is not range
            dual = lat.dual()
            views = (lat, lat.poset, dual, dual.poset)
            # a lattice's slots are its own and its Poset base's
            slots = [[s for c in type(v).__mro__ for s in getattr(c, "__slots__", ())]
                     for v in views]
            before = [[getattr(v, s) for s in names] for v, names in zip(views, slots)]
            for view in views[::2]:
                reads = [name, seed, view.elements, view.atoms, view.coatoms,
                         view.interior(), view.dual().atoms,
                         {e: view.complements(e) for e in view.elements}]
                digest.update(json.dumps(reads).encode() + b"\n")
            after = [[getattr(v, s) for s in names] for v, names in zip(views, slots)]
            assert all(a is b for old, new in zip(before, after)
                       for a, b in zip(old, new)), name
    assert off == 57
    assert digest.hexdigest() == (
        "fbce2afd6d6ab0dbd8b9ff165177803cff44bb1f8418f93e1fb9c89385e6fab6"
    )


def test_a_lattice_is_its_own_poset_view():
    # one object per sublattice: a lattice is a Poset view sharing its
    # root's ground and masks, and its poset is the plain order of it
    assert Lattice.leq is Poset.leq
    assert not {"elements", "__len__", "leq", "covers"} & set(vars(Lattice))
    for name, root in named_corpus():
        assert Lattice.from_covers(root.elements, root.covers()) == root, name
        y, c = root._atom_mask, root._coatom_mask
        y, c = (y & -y).bit_length() - 1, (c & -c).bit_length() - 1
        lats = [root, root.dual(), Lattice(root.poset), Lattice(root),
                root._remove_atom(y), root._interval(y, root._bounds[1]),
                root.dual()._remove_atom(c), root._interval(root._bounds[0], c),
                root.restrict(root.elements)]
        if len(root) > 2:
            lats.append(root.restrict(set(root.elements) - set(root.atoms[:1])))
        for lat in lats:
            assert type(lat) is Lattice and isinstance(lat, Poset), name
            assert lat._label is root._label and lat._pos is root._pos, name
            assert lat._rank is root._rank, name
            assert {id(lat._up), id(lat._down)} == {id(root._up), id(root._down)}
            assert (lat._up is root._down) == lat._rev, name
            plain = lat.poset
            assert type(plain) is Poset, name
            assert (plain._mask, plain._rev) == (lat._mask, lat._rev), name
            assert plain._up is lat._up and plain._label is lat._label, name
            assert lat != plain and plain != lat, name
            assert not (lat == plain or plain == lat), name
            assert hash(lat) == hash(plain), name
            assert lat == Lattice(plain) and plain == plain.restrict(lat.elements)
            if lat._interior_mask():
                assert order_complex(lat) == order_complex(plain), name


# --- interior sets -----------------------------------------------------------------


def test_interior_set_and_restrict_give_poset_views(d12):
    interior = d12.interior_set()
    assert isinstance(interior, Poset) and interior.elements == ("2", "3", "4", "6")
    assert d12.dual().interior_set().elements == interior.elements
    assert d12.poset.restrict(["6", "2", "6"]).elements == ("2", "6")
    with pytest.raises(UnknownElement):
        d12.poset.restrict(("1", "9"))


def test_product_standalone(d12):
    square = product_lattice(d12, generate("chain", 2))
    assert len(square) == 12
    assert square.leq("1*0", "12*1")
