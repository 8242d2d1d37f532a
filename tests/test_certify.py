import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time
from dataclasses import fields
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import nonevade
from nonevade.certify import (
    CertifyTrace,
    Leaf,
    Prune,
    Split,
    _audit,
    _certified,
    _certify,
    _iterative,
    audit_certificate,
    certificate_complex,
    certificate_from_obj,
    certificate_ground,
    certificate_size,
    certificate_to_obj,
    certify,
    extract_collapses,
    VerifyResult,
    interior_members,
    verify_certificate,
)
from nonevade.chain_game import (
    Answer,
    Query,
    compile_strategy,
    exhaustive_check,
    play,
    strategy_to_obj,
)
from nonevade.complexes import Complex, order_complex, replay_collapses
from nonevade.corpus import M3_TEXT, N5_TEXT, full_corpus, named_corpus, random_corpus
from nonevade.errors import (
    ElementOnBoundary,
    NonevadeError,
    ParseError,
    UnknownElement,
    VerificationFailed,
)
from nonevade.lattice import Lattice, Poset, generate, parse_lattice
from nonevade.oracles import brute_certificate


@pytest.fixture
def d12():
    return generate("divisor", 12)


# --- certify: frozen shapes ----------------------------------------------------


def test_certify_chain4():
    cert, _ = certify(generate("chain", 4), "a")
    assert cert == Split("b", "case2_coatom", "a", Leaf("a"), Leaf("a"))


def test_certify_b2_prunes_the_complement():
    cert, _ = certify(generate("boolean", 2), "a")
    assert cert == Prune(("b",), Leaf("a"))


def test_certify_d12_root(d12):
    cert, trace = certify(d12, "2")
    assert isinstance(cert, Split)
    assert cert.vertex == "3"
    assert cert.mode == "case1_atom"
    assert cert.link_element == "6"
    assert cert.lk == Leaf("6")
    assert len(trace) == 7


def test_certify_boundary_rejected(d12):
    with pytest.raises(ElementOnBoundary):
        certify(d12, "1")
    with pytest.raises(ElementOnBoundary):
        certify(d12, "12")
    with pytest.raises(UnknownElement):
        certify(d12, "9")


def test_certify_m3_prunes_both_complements():
    cert, _ = certify(parse_lattice(M3_TEXT), "a")
    assert cert == Prune(("b", "c"), Leaf("a"))


def test_certify_n5():
    cert, _ = certify(parse_lattice(N5_TEXT), "a")
    assert isinstance(cert, Prune) and cert.removed == ("b",)
    assert isinstance(cert.child, Split) and cert.child.vertex == "c"


def test_interior_members_drop_complements(d12):
    assert interior_members(d12, "2") == ("2", "3", "4", "6")
    assert interior_members(d12, "4") == ("2", "4", "6")
    b2 = generate("boolean", 2)
    assert interior_members(b2, "a") == ("a",)


# --- verification -----------------------------------------------------------------


def test_verify_leaf_point():
    assert verify_certificate(Complex("a", [{"a"}]), Leaf("a")).ok
    result = verify_certificate(Complex("a", [{"a"}]), Leaf("b"))
    assert not result.ok


def test_verify_d12_certificate(d12):
    cert, _ = certify(d12, "2")
    complex_ = certificate_complex(d12, "2")
    assert verify_certificate(complex_, cert).ok


def test_verify_rejects_hollow_triangle():
    triangle = Complex("abc", [{"a", "b"}, {"a", "c"}, {"b", "c"}])
    cert = Split("a", "case1_atom", "b",
                 Split("b", "case1_atom", "c", Leaf("c"), Leaf("c")),
                 Leaf("b"))
    result = verify_certificate(triangle, cert)
    assert not result.ok
    assert "lk" in result.path


def test_verify_prune_must_avoid_present_vertices():
    point = Complex("a", [{"a"}])
    assert verify_certificate(point, Prune(("b",), Leaf("a"))).ok
    assert not verify_certificate(point, Prune(("a",), Leaf("a"))).ok


EDGE = Complex("ab", [{"a", "b"}])
POINT = Complex("a", [{"a"}])
TWO_POINTS = Complex("ab", [{"a"}, {"b"}])


def _split(vertex, dl, lk):
    return Split(vertex, "case2_atom", "a", dl, lk)


@pytest.mark.parametrize("complex_, cert, path, reason", [
    (EDGE, Leaf("a"), (), "leaf against 2-vertex complex"),
    (POINT, Leaf("b"), (), "leaf names 'b' but the vertex is 'a'"),
    (EDGE, Prune(("z", "b", "a", "b"), Leaf("a")), (),
     "pruned vertices ['a', 'b'] are present"),
    (EDGE, _split("z", Leaf("a"), Leaf("a")), (), "split vertex 'z' missing"),
    (EDGE, _split("b", _split("b", Leaf("a"), Leaf("a")), Leaf("a")), ("dl",),
     "split vertex 'b' missing"),
    (POINT, _split("a", Leaf("a"), Leaf("a")), (),
     "deletion failed: cannot delete the only vertex"),
    (TWO_POINTS, _split("b", Leaf("a"), Leaf("a")), ("lk",),
     "link failed: vertex 'b' is isolated"),
    (POINT, Prune(("b",), "a"), ("child",), "unknown node str"),
])
def test_verify_failure_names_its_path_and_reason(complex_, cert, path, reason):
    assert verify_certificate(complex_, cert) == VerifyResult(False, path, reason)


def test_verify_reports_first_failure_path(d12):
    cert, _ = certify(d12, "2")
    broken = Split(cert.vertex, cert.mode, cert.link_element, cert.dl, Leaf("4"))
    result = verify_certificate(certificate_complex(d12, "2"), broken)
    assert not result.ok
    assert result.path[-1] == "lk"


# --- collapse extraction -------------------------------------------------------------


def test_extract_single_edge():
    c = Complex("ab", [{"a", "b"}])
    cert = Split("b", "case2_coatom", "a", Leaf("a"), Leaf("a"))
    seq = extract_collapses(cert, c)
    assert [tuple(sorted(p.free_face)) for p in seq.pairs] == [("b",)]
    assert seq.final_vertex == "a"


def test_extract_d12_matches_frozen_sequence(d12):
    cert, _ = certify(d12, "2")
    complex_ = certificate_complex(d12, "2")
    seq = extract_collapses(cert, complex_)
    assert seq.to_obj() == {
        "pairs": [[["3"], ["3", "6"]], [["4"], ["2", "4"]], [["6"], ["2", "6"]]],
        "final": "2",
    }


def test_extract_point_is_empty():
    seq = extract_collapses(Leaf("a"), Complex("a", [{"a"}]))
    assert seq.pairs == () and seq.final_vertex == "a"


def test_extract_requires_verification():
    c = Complex("ab", [{"a"}, {"b"}])
    with pytest.raises(VerificationFailed):
        extract_collapses(Leaf("a"), c)


def test_extract_pair_count_is_half_the_faces(d12):
    for x in d12.interior():
        cert, _ = certify(d12, x)
        complex_ = certificate_complex(d12, x)
        seq = extract_collapses(cert, complex_)
        assert len(seq.pairs) == (complex_.face_count() - 1) // 2
        replay_collapses(complex_, seq)


def test_named_corpus_outputs_are_byte_identical():
    # pins the certificate, collapse and strategy JSON of every named
    # corpus instance; any change to the certifier's choices shows here
    digest = hashlib.sha256()
    for name, lat in named_corpus():
        for x in lat.interior():
            cert, _ = certify(lat, x)
            complex_ = certificate_complex(lat, x)
            digest.update(name.encode() + b"\n")
            digest.update(x.encode() + b"\n")
            for obj in (
                certificate_to_obj(cert),
                extract_collapses(cert, complex_).to_obj(),
                strategy_to_obj(compile_strategy(cert, complex_.vertices)),
            ):
                text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
                digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == (
        "ac87c39a7607188b314ce2ce74a5c6c687a356a0bf75f7a1fdba95f47d21d03c"
    )


def test_named_corpus_traces_are_unchanged():
    # pins the decision trace of every named corpus instance: repeated
    # subproblems are solved once but must replay the same entries
    digest = hashlib.sha256()
    for name, lat in named_corpus():
        for x in lat.interior():
            _, trace = certify(lat, x)
            digest.update(name.encode() + b"\n")
            digest.update(x.encode() + b"\n")
            text = json.dumps(trace.to_obj(), sort_keys=True, separators=(",", ":"))
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == (
        "9ed029f187cc412e81e52fdc92a34d1f3aaff7529ec5984473b7f488b3cba5f5"
    )


def test_named_corpus_in_shuffled_element_orders_is_unchanged():
    # pins the certificate and trace JSON of the named corpus re-parsed
    # from a seeded shuffled element order: such an order is rarely a
    # linear extension, so bits and canonical ranks disagree and every
    # canonical tie-break must read the ranks
    digest, rng, off = hashlib.sha256(), Random(12), 0
    for name, lat in named_corpus():
        elements = list(lat.elements)
        rng.shuffle(elements)
        lat = Lattice(Poset.from_covers(elements, lat.covers()))
        off += type(lat.poset._rank) is not range
        for x in lat.interior():
            cert, trace = certify(lat, x)
            digest.update(name.encode() + b"\n")
            digest.update(x.encode() + b"\n")
            for obj in (certificate_to_obj(cert), trace.to_obj()):
                text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
                digest.update(text.encode() + b"\n")
    assert off == 18
    assert digest.hexdigest() == (
        "85d5a16aa0f469344218a8e9111fa1187a4819a7e9c1549040eac5c5f1d79bb9"
    )


# --- sharing: the certificate is a DAG ---------------------------------------------


def _distinct_nodes(cert):
    """The node objects of a certificate or a strategy, each once, by
    identity."""
    seen, stack = {}, [cert]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack += [getattr(node, kid) for kid in node._kids]
    return list(seen.values())


def _occurrences(cert):
    """How many tree paths reach each node object, by id."""
    count, stack = {}, [cert]
    while stack:
        node = stack.pop()
        count[id(node)] = count.get(id(node), 0) + 1
        if isinstance(node, Prune):
            stack.append(node.child)
        elif isinstance(node, Split):
            stack += [node.dl, node.lk]
    return count


def _replace(cert, target, new):
    """``cert`` with the node object ``target`` replaced by ``new``
    everywhere; a node above no replacement stays the same object."""
    done = {}

    def walk(node):
        if node is target:
            return new
        if id(node) not in done:
            out = node
            if isinstance(node, Prune):
                child = walk(node.child)
                if child is not node.child:
                    out = Prune(node.removed, child)
            elif isinstance(node, Split):
                dl, lk = walk(node.dl), walk(node.lk)
                if dl is not node.dl or lk is not node.lk:
                    out = Split(node.vertex, node.mode, node.link_element, dl, lk)
            done[id(node)] = out
        return done[id(node)]

    return walk(cert)


def test_chain_certificate_shares_its_subproblems():
    chain = generate("chain", 14)
    cert, trace = certify(chain, "g")
    assert certificate_size(cert) == len(trace) == 4095
    # one node per (interior, element): sub-chains whose interiors are
    # equal are one subproblem, whatever their bounds
    assert len(_distinct_nodes(cert)) == 12
    obj = certificate_to_obj(cert)
    tree = certificate_from_obj(obj)
    assert len(_distinct_nodes(tree)) == 4095
    # the DAG's document shares sub-objects, the tree's does not; their
    # JSON text is the same
    assert (json.dumps(obj, sort_keys=True, separators=(",", ":"))
            == json.dumps(certificate_to_obj(tree), sort_keys=True,
                          separators=(",", ":")))


def test_long_chain_trace_is_not_written_out():
    # the trace stores one decision per distinct node: its length is the
    # tree's node count, 2**38 - 1 here, read off the DAG
    cert, trace = certify(generate("chain", 40), "v20")
    assert len(trace) == certificate_size(cert) == 2**38 - 1


_DAG_DOCUMENTS = r"""
import resource
import time
import nonevade as nv

# a build that writes out the tree runs out of this within seconds
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
chain = nv.generate("chain", 40)
cert, trace = nv.certify(chain, "v20")
strategy = nv.compile_strategy(cert, nv.interior_members(chain, "v20"))
for build in (lambda: nv.certificate_to_obj(cert),
              lambda: nv.strategy_to_obj(strategy), trace.summary):
    start = time.perf_counter()
    build()
    print(time.perf_counter() - start)
print(trace.summary())
"""


def test_long_chain_documents_are_built_on_the_dag():
    # the document objects, the strategy's included, and the trace summary
    # are built once per distinct node: chain-40 stands for a tree of
    # 2**38 - 1 nodes.  A subprocess with capped memory keeps a tree-sized
    # build from taking this one down.
    src = str(pathlib.Path(nonevade.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", _DAG_DOCUMENTS], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    *seconds, summary = run.stdout.splitlines()
    assert len(seconds) == 3 and all(float(s) < 1.0 for s in seconds), seconds
    assert summary.startswith(f"{2**38 - 1} decisions, max depth 37,")


def _summary_of_entries(trace):
    """The trace summary read off the written-out log, for reference."""
    entries = trace.entries
    cases = {}
    for e in entries:
        cases[e["case"]] = cases.get(e["case"], 0) + 1
    parts = [f"{len(entries)} decisions",
             f"max depth {max(e['depth'] for e in entries)}"]
    return ", ".join(parts + [f"{k}: {cases[k]}" for k in sorted(cases)])


def test_trace_summary_matches_its_log():
    for name, lat in named_corpus():
        for x in lat.interior():
            _, trace = certify(lat, x)
            assert trace.summary() == _summary_of_entries(trace), (name, x)
    _, trace = certify(generate("chain", 14), "g")
    assert trace.summary() == _summary_of_entries(trace)


_DEEP_CERTIFY = r"""
import sys
import nonevade as nv
from nonevade.certify import certificate_size

k = 30
atoms = [f"a{i}" for i in range(k)]
coatoms = [f"c{i}" for i in range(k)]
covers = [("0", a) for a in atoms] + [(a, "m") for a in atoms]
covers += [("m", c) for c in coatoms] + [(c, "1") for c in coatoms]
text = "elements: " + " ".join(["0", *atoms, "m", *coatoms, "1"]) + "\n"
text += "".join(f"cover: {u} {v}\n" for u, v in covers)
lattice = nv.parse_lattice(text)
sys.setrecursionlimit(120)
cert, trace = nv.certify(lattice, "m")
assert len(trace) == certificate_size(cert), (len(trace), certificate_size(cert))
print(len(trace))
"""


def test_certify_needs_no_recursion_depth():
    # the ordinal sum 0 < 30 atoms < m < 30 coatoms < 1 certifies at m far
    # deeper than a recursion limit of 120 allows; a subprocess keeps that
    # limit out of this one
    src = str(pathlib.Path(nonevade.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", _DEEP_CERTIFY], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) > 120


def _outcomes(lat, x, cert):
    """Everything the checkers and compilers say about one certificate."""
    complex_ = certificate_complex(lat, x)
    verdict = verify_certificate(complex_, cert)
    report = audit_certificate(lat, x, cert)
    collapses = extract_collapses(cert, complex_).to_obj() if verdict.ok else None
    strategy = strategy_to_obj(compile_strategy(cert, complex_.vertices))
    return (verdict, report.splits, report.prunes, report.leaves,
            report.failures, collapses, strategy)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       pick=st.integers(min_value=0, max_value=1_000))
def test_dag_certificates_check_like_their_trees(seed, pick):
    # the JSON round trip writes the DAG out as a tree with no sharing;
    # every walker must say the same about both, also when a shared
    # subtree is wrong
    (_, lat), = random_corpus(count=1, seed_start=seed)
    x = lat.interior()[pick % len(lat.interior())]
    cert, _ = certify(lat, x)
    tree = certificate_from_obj(certificate_to_obj(cert))
    outcome = _outcomes(lat, x, cert)
    assert outcome == _outcomes(lat, x, tree)
    assert outcome[0].ok and outcome[4] == []
    count = _occurrences(cert)
    shared = [node for node in _distinct_nodes(cert)
              if isinstance(node, Split) and count[id(node)] > 1]
    if not shared:
        return
    target = shared[pick % len(shared)]
    wrong = Split(target.vertex, target.mode, lat.top, target.dl, target.lk)
    broken = _replace(cert, target, wrong)
    outcome = _outcomes(lat, x, broken)
    assert outcome == _outcomes(lat, x, certificate_from_obj(
        certificate_to_obj(broken)))
    failures = outcome[4]
    assert len(failures) == count[id(target)]
    assert len(set(failures)) == len(failures)
    assert all("recorded link element" in f for f in failures)


def _subproblems(lat, x, cert):
    """The (sublattice interior, sublattice elements, element) triples each
    node is reached at, derived with coatom deletions and lower intervals,
    by node id."""
    out, stack = {}, [(lat, x, cert)]
    while stack:
        L, e, node = stack.pop()
        out.setdefault(id(node), (node, set()))[1].add((L.interior(), L.elements, e))
        if isinstance(node, Prune):
            kept = [u for u in L.elements if u not in node.removed]
            stack.append((L.restrict(kept), e, node.child))
        elif isinstance(node, Split):
            if node.mode.endswith("coatom"):
                dl = L.restrict([u for u in L.elements if u != node.vertex])
                lk = L.interval(L.bottom, node.vertex)
            else:
                dl = L.remove_atom(node.vertex)
                lk = L.interval(node.vertex, L.top)
            stack += [(dl, e, node.dl), (lk, node.link_element, node.lk)]
    return out


def test_one_sublattice_certified_at_two_elements():
    # the one interior of the acceptance corpus that certify reaches with
    # two different elements: the memo keys must tell them apart.  A node
    # stands for one (interior, element), and here some nodes are reached
    # on several sublattices that differ only in their bounds
    (_, lat), = random_corpus(count=1, seed_start=485)
    x = "(p0+p1+p6)"
    cert, _ = certify(lat, x)
    assert verify_certificate(certificate_complex(lat, x), cert).ok
    assert audit_certificate(lat, x, cert).ok
    by_interior, bounds_shared = {}, 0
    for node, reached in _subproblems(lat, x, cert).values():
        (interior, e), = {(interior, e) for interior, _, e in reached}
        by_interior.setdefault(interior, {})[e] = node
        bounds_shared += len(reached) > 1
    assert bounds_shared == 21
    (first, second), = [tuple(by_element.values())
                        for by_element in by_interior.values()
                        if len(by_element) > 1]
    # either node standing in for the other breaks the audit there, in the
    # DAG as in its tree
    for node, stand_in in ((first, second), (second, first)):
        broken = _replace(cert, node, stand_in)
        tree = certificate_from_obj(certificate_to_obj(broken))
        report = audit_certificate(lat, x, broken)
        assert not report.ok
        assert report.failures == audit_certificate(lat, x, tree).failures


def test_verify_rechecks_a_shared_node_on_another_complex():
    # in the hollow triangle the deletion and the link of v have the same
    # vertices but not the same faces: the edge ab verifies, the two
    # points a, b do not
    edge = Split("a", "case2_atom", "b", Leaf("b"), Leaf("b"))
    triangle = Complex("vab", [{"v", "a"}, {"v", "b"}, {"a", "b"}])
    result = verify_certificate(triangle, Split("v", "case1_atom", "a", edge, edge))
    assert not result.ok and result.path == ("lk", "lk")


def test_mask_walk_rechecks_a_shared_node_on_another_member_set():
    # c < a, v < a, a < b: the edge {c, a} and the link of v, the edge
    # {a, b}, are member sets of one size; the edge certificate shared by
    # both verifies the first and not the second, on masks as on facets
    P = Poset.from_covers(["c", "v", "a", "b"], [("c", "a"), ("v", "a"), ("a", "b")])
    ca = Split("a", "case2_atom", "c", Leaf("c"), Leaf("c"))
    cert = Split("v", "case1_atom", "a", Split("b", "case1_atom", "a", ca, ca), ca)
    c = order_complex(P)
    expected = VerifyResult(False, ("lk", "dl"), "leaf names 'c' but the vertex is 'b'")
    assert verify_certificate(c, cert) == expected
    assert verify_certificate(Complex(c.vertices, c.facets), cert) == expected


# --- serialisation --------------------------------------------------------------------


def test_certificate_json_round_trip(d12):
    cert, _ = certify(d12, "2")
    obj = certificate_to_obj(cert)
    assert certificate_from_obj(obj) == cert
    assert obj["type"] == "split" and obj["z"] == "6"


def test_deep_prune_chain_round_trips_in_process():
    # 1,500 levels is past the default recursion limit; the serialisers
    # keep their own stack
    depth = 1500
    cert = Leaf("a")
    for level in range(depth):
        cert = Prune((f"p{level}",), cert)
    obj = certificate_to_obj(cert)
    back = certificate_from_obj(obj)
    assert back == cert and hash(back) == hash(cert)
    for level in reversed(range(depth)):
        assert obj["type"] == "prune" and obj["removed"] == [f"p{level}"]
        obj = obj["child"]
    assert obj == {"type": "leaf", "vertex": "a"}


def test_deep_prune_chains_compare_and_hash_without_recursion():
    depth = 1500
    one, two = Leaf("a"), Leaf("a")
    for level in range(depth):
        one, two = Prune((f"p{level}",), one), Prune((f"p{level}",), two)
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert one != Prune(("q",), two) and one != two.child
    # the innermost leaf differs
    other = Leaf("b")
    for level in range(depth):
        other = Prune((f"p{level}",), other)
    assert one != other


def test_node_equality_is_structural():
    split = Split("a", "case1_atom", "b", Leaf("c"), Leaf("d"))
    same = Split("a", "case1_atom", "b", Leaf("c"), Leaf("d"))
    assert split == same and hash(split) == hash(same)
    assert len({split, same}) == 1
    assert split != Split("a", "case1_atom", "b", Leaf("c"), Leaf("e"))
    assert split != Split("a", "case2_atom", "b", Leaf("c"), Leaf("d"))
    assert Leaf("a") != Prune((), Leaf("a")) and Leaf("a") != "a"


def test_node_wire_declarations_follow_the_constructor():
    # the parser builds a node from its wire fields in order, so that order
    # must be the dataclass's; _own and _kids are derived from it
    for t in (Leaf, Prune, Split, Answer, Query):
        assert [name for _, name, _ in t._wire] == [f.name for f in fields(t)]
    assert Split._kids == ("dl", "lk") and Prune._kids == ("child",)
    assert Leaf._kids == () and Query._kids == ("yes", "no")
    assert Split._own(Split("a", "case1_atom", "z", None, None)) == (
        "a", "case1_atom", "z")


def test_node_with_a_foreign_child_compares_and_hashes():
    # a child that is not a node is compared and hashed as a value, and the
    # verifier names it instead of failing
    junk = Prune(("a",), "junk")
    assert hash(junk) == hash(Prune(("a",), "junk"))
    assert junk == Prune(("a",), "junk")
    assert junk != Prune(("a",), "other") and junk != Prune(("a",), Leaf("junk"))
    assert len({junk, Prune(("a",), "junk"), Prune(("b",), "junk")}) == 2
    with pytest.raises(TypeError):
        hash(Prune(("a",), ["unhashable"]))
    result = verify_certificate(Complex(["v"], [{"v"}]), Prune((), "junk"))
    assert not result.ok and result.path == ("child",)
    assert result.reason == "unknown node str"


def test_long_chain_certificates_compare_in_linear_time():
    # two separately certified chain-30 certificates are DAGs of the same
    # shape but share no node; the tree they stand for has 2**28 - 1 nodes
    chain = generate("chain", 30)
    x = chain.interior()[14]
    one, _ = certify(chain, x)
    two, _ = certify(chain, x)
    assert one is not two
    start = time.perf_counter()
    assert one == two and hash(one) == hash(two)
    assert time.perf_counter() - start < 1.0


def test_deep_prune_chain_verifies_and_extracts():
    # verification, extraction and the size count keep their own stack too
    depth = 1500
    cert = Leaf("a")
    for level in range(depth):
        cert = Prune((f"p{level}",), cert)
    point = Complex(["a"], [{"a"}])
    assert verify_certificate(point, cert).ok
    sequence = extract_collapses(cert, point)
    assert sequence.pairs == () and sequence.final_vertex == "a"
    assert certificate_size(cert) == depth + 1
    assert certificate_ground(cert) == frozenset({"a"})
    bad = verify_certificate(Complex(["a", "p7"], [{"a", "p7"}]), cert)
    assert not bad.ok and len(bad.path) == depth - 1 - 7


def test_deep_prune_chain_audits_and_compiles():
    # the audit and the strategy compiler keep their own stack as well
    depth = 1500
    cert = Leaf("a")
    for _ in range(depth):
        cert = Prune((), cert)
    chain = generate("chain", 3)
    report = audit_certificate(chain, "a", cert)
    assert report.ok
    assert (report.splits, report.prunes, report.leaves) == (0, depth, 1)
    assert compile_strategy(cert, ["a"]) == Answer(True)


def test_certificate_from_obj_rejects_garbage():
    with pytest.raises(ParseError):
        certificate_from_obj({"type": "mystery"})
    with pytest.raises(ParseError):
        certificate_from_obj({"type": "split", "vertex": "a"})
    with pytest.raises(ParseError):
        certificate_from_obj([])
    leaf = {"type": "leaf", "vertex": "b"}
    for obj in (
        {"type": "leaf", "vertex": ["3"]},
        {"type": "leaf", "vertex": 3},
        {"type": "prune", "removed": [["x"]], "child": leaf},
        {"type": "split", "vertex": "a", "mode": ["case1_atom"], "z": "b",
         "dl": leaf, "lk": leaf},
        {"type": "split", "vertex": "a", "mode": "case1_atom", "z": None,
         "dl": leaf, "lk": leaf},
        # removed must be a JSON list of strings, not any iterable of them
        {"type": "prune", "removed": "ab", "child": leaf},
        {"type": "prune", "removed": {"x": 1}, "child": leaf},
        {"type": "prune", "removed": ["a"]},
        {"type": "split", "vertex": "a", "mode": "case9_atom", "z": "b",
         "dl": leaf, "lk": leaf},
        {"type": {"leaf": 1}, "vertex": "a"},
        {"type": "answer", "chain": True},
    ):
        with pytest.raises(ParseError):
            certificate_from_obj(obj)


def test_certificate_from_obj_names_a_missing_child():
    leaf = {"type": "leaf", "vertex": "b"}
    split = {"type": "split", "vertex": "a", "mode": "case1_atom", "z": "b",
             "dl": leaf}
    with pytest.raises(ParseError, match="bad certificate node: 'lk' is missing"):
        certificate_from_obj(split)
    with pytest.raises(ParseError, match="bad certificate node: 'child' is missing"):
        certificate_from_obj({"type": "prune", "removed": ["a"]})


def test_certificate_ground(d12):
    cert, _ = certify(d12, "2")
    assert certificate_ground(cert) == frozenset({"2", "3", "4", "6"})


def test_trace_reproduces_certificate_structure(d12):
    # trace entries are recorded in preorder; replaying them rebuilds the tree
    cert, trace = certify(d12, "2")
    entries = iter(trace.entries)

    def rebuild(node):
        entry = next(entries)
        if isinstance(node, Leaf):
            assert entry["case"] == "leaf" and entry["vertex"] == node.vertex
            return
        if isinstance(node, Prune):
            assert entry["case"] == "prune"
            assert tuple(entry["removed"]) == node.removed
            rebuild(node.child)
            return
        assert entry["case"] == node.mode
        assert entry["vertex"] == node.vertex
        assert entry["link_element"] == node.link_element
        rebuild(node.dl)
        rebuild(node.lk)

    rebuild(cert)
    assert next(entries, None) is None


# --- the audit -----------------------------------------------------------------------


def test_audit_accepts_named_corpus_sample():
    for name, lat in named_corpus():
        if len(lat) > 9:
            continue
        for x in lat.interior():
            cert, _ = certify(lat, x)
            report = audit_certificate(lat, x, cert)
            assert report.ok, (name, x, report.failures)


def test_audit_flags_tampered_mode(d12):
    cert, _ = certify(d12, "2")
    tampered = Split(cert.vertex, "case2_atom", cert.link_element, cert.dl, cert.lk)
    report = audit_certificate(d12, "2", tampered)
    assert not report.ok


def test_audit_reports_unusable_steps_instead_of_raising(d12):
    cert, _ = certify(d12, "2")
    not_a_coatom = Split(cert.vertex, "case1_coatom", cert.link_element,
                         cert.dl, cert.lk)
    unknown = Split("9", cert.mode, cert.link_element, cert.dl, cert.lk)
    not_a_label = Split(["3"], cert.mode, cert.link_element, cert.dl, cert.lk)
    for tampered in (not_a_coatom, unknown, not_a_label):
        report = audit_certificate(d12, "2", tampered)
        assert not report.ok
        assert "split vertex" in report.failures[0]
    # cd complements ab in boolean-4, but dropping it leaves no lattice
    report = audit_certificate(generate("boolean", 4), "ab",
                               Prune(("cd",), Leaf("ab")))
    assert len(report.failures) == 1
    assert report.failures[0].startswith("root: prune leaves no lattice")


def _prune_cases():
    d12, b4 = generate("divisor", 12), generate("boolean", 4)
    cert, _ = certify(d12, "2")
    b4_cert, _ = certify(b4, "ab")
    non = "root: prune removed non-complements"
    cases = [(d12, "2", Prune(("2",), cert), (0, 1, 0),
              ["root: prune removed the certified element"])]
    cases += [(d12, "2", Prune((e,), cert), (0, 1, 0), [non])
              for e in ("4", "3", "1", "zz")]
    cases.append((d12, "2", Split(cert.vertex, cert.mode, cert.link_element,
                                  Prune(("4",), cert.dl), cert.lk),
                  (1, 1, 1), ["dl: prune removed non-complements"]))
    cases.append((b4, "ab", Prune(("cd",), b4_cert), (0, 1, 0), [
        "root: prune leaves no lattice: no unique meet for 'acd' and 'bcd': "
        "candidates ['c', 'd']"]))
    return cases


@pytest.mark.parametrize("case", range(len(_prune_cases())))
def test_audit_prune_failures_are_pinned(case):
    # the tally and failures of prunes that remove the element, a
    # non-complement, the bottom, an unknown label or a complement whose
    # removal leaves no lattice
    lat, x, cert, tally, failures = _prune_cases()[case]
    report = audit_certificate(lat, x, cert)
    assert (report.splits, report.prunes, report.leaves) == tally
    assert report.failures == failures


def test_audit_flags_wrong_link_element(d12):
    cert, _ = certify(d12, "2")
    tampered = Split(cert.vertex, cert.mode, "12", cert.dl, cert.lk)
    report = audit_certificate(d12, "2", tampered)
    assert not report.ok


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=20_000),
       shuffle=st.none() | st.integers(min_value=0, max_value=1_000))
def test_certify_verify_audit_random(seed, shuffle):
    lat = generate("random", 7, p=0.35, seed=seed)
    if shuffle is not None:
        # an element order that is rarely a linear extension, so the bits
        # and the canonical ranks disagree
        elements = list(lat.elements)
        Random(shuffle).shuffle(elements)
        lat = Lattice(Poset.from_covers(elements, lat.covers()))
    for x in lat.interior():
        cert, _ = certify(lat, x)
        complex_ = certificate_complex(lat, x)
        assert verify_certificate(complex_, cert).ok
        assert audit_certificate(lat, x, cert).ok


# --- the mask walk against the facet walk -------------------------------------------


def _reason_kind(reason):
    return " ".join(reason.split()[:2]).rstrip(":")


def _isolated_split(c, rng):
    """A certificate that splits c on a vertex v, then on a vertex u whose
    only neighbour was v: u is isolated in c - v, so its link is empty.
    The deletion c - v - u is certified by the brute search, if it can be;
    None when c has no such pair or is too big to search."""
    if not 3 <= len(c.vertices) <= 9:
        return None
    pairs = []
    for v in c.vertices:
        dl = c.deletion(v)
        facets = dl.facets
        pairs += [(v, u) for u in dl.vertices if frozenset({u}) in facets]
    if not pairs:
        return None
    v, u = rng.choice(pairs)
    rest = brute_certificate(c.deletion(v).deletion(u)) or Leaf(u)
    return _split(v, _split(u, rest, Leaf(v)), Leaf(u))


def _mutants(cert, c, rng):
    """Seeded mutants of a certificate for the complex c: a vertex swap,
    swapped children, an added prune label, a wrong leaf, a split on a
    vertex's last position, a foreign node and a split on an isolated
    vertex."""
    nodes = _distinct_nodes(cert)
    splits = [n for n in nodes if isinstance(n, Split)]
    leaves = [n for n in nodes if isinstance(n, Leaf)]
    vertices = c.vertices
    out = []
    if splits:
        s = rng.choice(splits)
        out.append(_replace(cert, s, Split(rng.choice(vertices), s.mode,
                                           s.link_element, s.dl, s.lk)))
        s = rng.choice(splits)
        out.append(_replace(cert, s, Split(s.vertex, s.mode, s.link_element,
                                           s.lk, s.dl)))
    n = rng.choice(nodes)
    removed = n.removed if isinstance(n, Prune) else ()
    out.append(_replace(cert, n, Prune(removed + (rng.choice(vertices),),
                                       n.child if isinstance(n, Prune) else n)))
    out.append(_replace(cert, rng.choice(nodes), Leaf(rng.choice(vertices))))
    leaf = rng.choice(leaves)
    out.append(_replace(cert, leaf, _split(leaf.vertex, leaf, leaf)))
    out.append(_replace(cert, rng.choice(nodes), Answer(True)))
    isolated = _isolated_split(c, rng)
    if isolated is not None:
        out.append(isolated)
    return out


def test_mask_walk_matches_the_facet_walk():
    # an order complex is verified on member masks of its root, any other
    # complex on its facets: on the corpus and on seeded mutants of its
    # certificates both walks give equal results, reaching every reason
    kinds = set()
    for index, (name, lat) in enumerate(full_corpus(100)):
        rng = Random(index)
        for x in lat.interior():
            cert, _ = certify(lat, x)
            c = certificate_complex(lat, x)
            assert c._order is not None
            facet_built = Complex(c.vertices, c.facets)
            assert facet_built._order is None
            for candidate in [cert] + _mutants(cert, c, rng):
                result = verify_certificate(c, candidate)
                assert result == verify_certificate(facet_built, candidate), (name, x)
                if not result.ok:
                    kinds.add(_reason_kind(result.reason))
    assert kinds == {"leaf against", "leaf names", "pruned vertices", "split vertex",
                     "deletion failed", "link failed", "unknown node"}, kinds


def test_certificate_complex_and_verify_list_no_chain(monkeypatch):
    # an order complex is its poset view: building the certified complex
    # and verifying a certificate on it read no facets
    def listing(self):
        raise AssertionError("facets listed")

    monkeypatch.setattr(Complex, "_facet_masks", listing)
    lat = generate("boolean", 6)
    cert, _ = certify(lat, "abc")
    assert verify_certificate(certificate_complex(lat, "abc"), cert).ok


def test_audit_reports_a_foreign_node_where_verify_does():
    # a certificate holding a node that is not a Leaf, Prune or Split (a
    # strategy's Answer) fails the audit at the path where verify reports
    # the unknown node, and the node tallies nothing; the certificate writer
    # and the strategy compiler refuse it, as every strategy walker refuses
    # a certificate's Leaf
    refusal = "^certificate nodes are Leaf, Prune, Split; got Answer$"
    foreign = 0
    for index, (name, lat) in enumerate(full_corpus(100)):
        rng = Random(index)
        for x in lat.interior():
            cert, _ = certify(lat, x)
            c = certificate_complex(lat, x)
            for candidate in _mutants(cert, c, rng):
                result = verify_certificate(c, candidate)
                if not result.reason.startswith("unknown node"):
                    continue
                foreign += 1
                report = audit_certificate(lat, x, candidate)
                where = "/".join(result.path) or "root"
                assert f"{where}: {result.reason}" in report.failures, (name, x)
                if not result.path:
                    assert (report.splits, report.prunes, report.leaves) == (0, 0, 0)
                with pytest.raises(TypeError, match=refusal):
                    certificate_to_obj(candidate)
                with pytest.raises(TypeError, match=refusal):
                    compile_strategy(candidate, c.vertices)
    assert foreign == 1042
    with pytest.raises(TypeError, match=refusal):
        certificate_ground(Split("a", "case1_atom", "b", Answer(True), Leaf("b")))
    strategy = Query("a", Leaf("a"), Answer(False))
    for walk in (strategy_to_obj, lambda s: play(s, {"a"}),
                 lambda s: exhaustive_check(s, ("a",), str.__eq__)):
        with pytest.raises(TypeError, match="^strategy nodes are Answer, Query; got Leaf$"):
            walk(strategy)


# --- soft prunes refused as non-lattices ---------------------------------------------


def test_soft_prunes_that_leave_no_lattice_are_refused(monkeypatch):
    # a prune that is not theory-guaranteed is tried softly: a candidate
    # whose removal leaves no lattice is refused and the recursion goes on
    # to the next stage.  These random completions (12, 15 and 19
    # elements) reach that refusal; the certificates verify and audit,
    # and their certificate and trace JSON are pinned
    refusals = []
    restrict = Lattice._restrict

    def counting(self, mask):
        try:
            return restrict(self, mask)
        except NonevadeError:
            refusals[-1] += 1
            raise

    monkeypatch.setattr(Lattice, "_restrict", counting)
    digest = hashlib.sha256()
    for (n, seed), x, refused in [((9, 40), "(p1)", 1), ((11, 1440), "(p5)", 1),
                                  ((11, 811), "(p6)", 2)]:
        lat = generate("random", n, p=0.3, seed=seed)
        refusals.append(0)
        cert, trace = certify(lat, x)
        assert refusals[-1] == refused, (n, seed)
        assert verify_certificate(certificate_complex(lat, x), cert).ok
        assert audit_certificate(lat, x, cert).ok
        for obj in (certificate_to_obj(cert), trace.to_obj()):
            text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == (
        "f5104589a587f3ca8f2ce8e7ea2a3d3b5ccb00ebe6078c5ce5faaebb05d4d80d"
    )


# --- the interior key against the member-mask key ------------------------------------


def _ordinal_sum(k):
    """0 < k atoms < m < k coatoms < 1."""
    atoms = [f"a{i}" for i in range(k)]
    coatoms = [f"c{i}" for i in range(k)]
    covers = [("0", a) for a in atoms] + [(a, "m") for a in atoms]
    covers += [("m", c) for c in coatoms] + [(c, "1") for c in coatoms]
    return Lattice.from_covers(["0", *atoms, "m", *coatoms, "1"], covers)


def _member_mask_keyed(orientations):
    """``_certify`` and ``_audit`` rebuilt from their steps with memo keys
    on the member mask and the orientation, as they were before the
    interior key; both add the orientation of every view they look up to
    the set ``orientations``."""
    def view(args):
        orientations.add(args[0]._rev)
        return args[0]._mask, args[0]._rev

    return (_iterative(_certify.__wrapped__,
                       key=lambda args: (*view(args), args[1])),
            _iterative(_audit.__wrapped__,
                       key=lambda args: (id(args[2]), *view(args), args[1])))


def test_interior_key_matches_the_member_mask_key():
    # the memos leave out the bounds and the orientation: certify and the
    # audit give the certificates, traces and reports they give keyed on
    # the member mask, on seeded mutants as on the certificates, and every
    # view a run reaches has the root call's orientation
    corpus = full_corpus(100)
    lattices = [(name, lat, lat.interior(), Random(index))
                for index, (name, lat) in enumerate(corpus)]
    lattices += [(f"{name} dual", lat.dual(), lat.interior(), None)
                 for name, lat in corpus]
    # an ordinal sum's atoms are alike, and so are its coatoms
    lattices += [(f"ordinal-sum-{k}", _ordinal_sum(k), ("a0", "m", "c0"), None)
                 for k in (3, 10, 25)]
    # one element per (down-set size, up-set size), which on boolean-5
    # and partition-5 is one per orbit of their symmetries
    for family in ("boolean", "partition"):
        lat = generate(family, 5)
        shapes = {(len(lat.below(x)), len(lat.above(x))): x for x in reversed(lat.interior())}
        lattices.append((f"{family}-5", lat, sorted(shapes.values()), None))
    failing = 0
    for name, lat, elements, rng in lattices:
        for x in elements:
            orientations = set()
            certify_ref, audit_ref = _member_mask_keyed(orientations)
            cert, trace = certify(lat, x)
            c = _certified(lat, x)
            records = {}
            ref = certify_ref((lat, x, lat._interior_mask() & ~c, records))
            assert certificate_to_obj(cert) == certificate_to_obj(ref), (name, x)
            assert trace.to_obj() == CertifyTrace(ref, records, lat).to_obj(), (name, x)
            candidates = [cert]
            if rng is not None:
                candidates += _mutants(cert, certificate_complex(lat, x), rng)
            for candidate in candidates:
                tally = _audit((lat, x, candidate, c))
                assert tally == audit_ref((lat, x, candidate, c)), (name, x)
                failing += bool(tally[3])
            assert orientations <= {lat._rev}, (name, x)
    assert failing > 4000


@pytest.mark.parametrize("k", [25, 100])
def test_ordinal_sum_shares_its_link_children(k):
    # the link children [a, 1] of the k atoms have one interior, the
    # coatoms, so they are one node: the certificate has 2k + 1 node
    # objects and its strategy k^2 + k + 2, against 2k^2 + 4k + 1 tree nodes
    lat = _ordinal_sum(k)
    cert, trace = certify(lat, "m")
    assert certificate_size(cert) == len(trace) == 2 * k * k + 4 * k + 1
    assert len(_distinct_nodes(cert)) == 2 * k + 1
    strategy = compile_strategy(cert, interior_members(lat, "m"))
    assert len(_distinct_nodes(strategy)) == k * k + k + 2
