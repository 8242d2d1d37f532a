import json
from collections import Counter
from functools import partial
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from nonevade.certify import (
    Leaf,
    Prune,
    Split,
    _fold,
    _iterative,
    certificate_complex,
    certificate_from_obj,
    certificate_ground,
    certificate_to_obj,
    certify,
    interior_members,
)
from nonevade.chain_game import (
    GAME_CAP,
    Answer,
    GameReport,
    Query,
    _NO,
    _YES,
    compile_strategy,
    exhaustive_check,
    play,
    strategy_depth,
    strategy_from_obj,
    strategy_to_obj,
)
from nonevade.corpus import named_corpus, random_corpus
from nonevade.errors import CapExceeded, GroundMismatch, ParseError
from nonevade.lattice import generate


@pytest.fixture
def d12():
    return generate("divisor", 12)


def d12_strategy(d12):
    cert, _ = certify(d12, "2")
    return compile_strategy(cert, interior_members(d12, "2"))


# --- compilation ------------------------------------------------------------------


def test_compile_chain4_single_query():
    chain = generate("chain", 4)
    cert, _ = certify(chain, "a")
    strategy = compile_strategy(cert, interior_members(chain, "a"))
    assert strategy == Query("b", Answer(True), Answer(True))


def test_compile_leaf_answers_immediately():
    strategy = compile_strategy(Leaf("w"), ("w",))
    assert strategy == Answer(True)


def test_compile_d12_queries_dead_vertices_in_order(d12):
    strategy = d12_strategy(d12)
    assert strategy.vertex == "3"
    yes = strategy.yes
    assert yes.vertex == "2" and yes.yes == Answer(False)
    assert yes.no.vertex == "4" and yes.no.yes == Answer(False)
    assert yes.no.no == Answer(True)
    assert strategy.no.vertex == "4"


def test_compile_checks_ground(d12):
    cert, _ = certify(d12, "2")
    with pytest.raises(GroundMismatch):
        compile_strategy(cert, ("2", "3", "4"))


def test_compile_refuses_a_repeated_ground_vertex(d12):
    cert, _ = certify(d12, "2")
    with pytest.raises(GroundMismatch):
        compile_strategy(cert, ("2", "3", "4", "6", "3"))


# A test-only copy of the compiler the fold replaced: a recursion on
# (node, ground) that passes each child its ground and reads a link child's
# vertices off its deletion spine.
@partial(_iterative, key=lambda args: (id(args[0]), args[1]))
def _reference_compile(args):
    node, ground, link_grounds = args
    if isinstance(node, Leaf):
        if ground != (node.vertex,):
            raise GroundMismatch(f"leaf {node.vertex!r} against ground {ground}")
        return Answer(True)
    if isinstance(node, Prune):
        return (yield node.child, ground, link_grounds)
    y = node.vertex
    if y not in ground:
        raise GroundMismatch(f"split vertex {y!r} missing from ground {ground}")
    rest = tuple(v for v in ground if v != y)
    link_vertices = link_grounds.get(id(node.lk))
    if link_vertices is None:
        link_vertices = link_grounds[id(node.lk)] = certificate_ground(node.lk)
    if not link_vertices <= frozenset(rest):
        raise GroundMismatch(f"link vertices escape the ground at {y!r}")
    yes = yield node.lk, tuple(v for v in rest if v in link_vertices), link_grounds
    for dead in reversed([v for v in rest if v not in link_vertices]):
        yes = Query(dead, Answer(False), yes)
    return Query(y, yes, (yield node.dl, rest, link_grounds))


def _reference_compile_strategy(certificate, ground):
    ground = tuple(ground)
    implied = certificate_ground(certificate)
    if implied != frozenset(ground):
        raise GroundMismatch(f"certificate covers {sorted(implied)}")
    return _reference_compile((certificate, ground, {}))


def _outcomes(cert, ground):
    """(fold, reference) strategy JSON text, or GroundMismatch, of one input."""
    out = []
    for compile_ in (compile_strategy, _reference_compile_strategy):
        try:
            out.append(json.dumps(strategy_to_obj(compile_(cert, ground))))
        except GroundMismatch:
            out.append(GroundMismatch)
    return out


def _label_slots(obj):
    """The leaf and split nodes of a certificate document, in preorder."""
    slots, stack = [], [obj]
    while stack:
        node = stack.pop()
        if node["type"] != "prune":
            slots.append(node)
        stack += [node[k] for k in ("child", "lk", "dl") if k in node]
    return slots


def test_compile_fold_matches_the_reference():
    chain = generate("chain", 14)
    cert, _ = certify(chain, "g")
    ground = certificate_complex(chain, "g").vertices
    fold, reference = _outcomes(cert, ground)
    assert fold == reference != GroundMismatch
    rng, mutants, refused = Random(10), 0, 0
    for _, lat in named_corpus():
        for x in lat.interior():
            cert, _ = certify(lat, x)
            ground = certificate_complex(lat, x).vertices
            for order in (ground, ground[::-1]):
                fold, reference = _outcomes(cert, order)
                assert fold == reference != GroundMismatch
            # every label of the tree, in turn, moved to another vertex or
            # off the ground: the fold refuses what the reference refuses
            text = json.dumps(certificate_to_obj(cert))
            for k in range(len(_label_slots(json.loads(text)))):
                obj = json.loads(text)
                slot = _label_slots(obj)[k]
                slot["vertex"] = rng.choice([v for v in ground + ("zz",)
                                             if v != slot["vertex"]])
                fold, reference = _outcomes(certificate_from_obj(obj), ground)
                assert fold == reference
                mutants += 1
                refused += fold is GroundMismatch
    assert (mutants, refused) == (2635, 2412)


def test_compile_refuses_bad_certificates_where_the_reference_does():
    def split(y, dl, lk):
        return Split(y, "case1_atom", "z", dl, lk)

    for cert, ground in (
        # the split vertex recurs in its deletion child
        (split("a", split("a", Leaf("b"), Leaf("b")), Leaf("b")), ("a", "b")),
        # a link vertex is on the ground but not among the deletion child's
        (split("b", split("a", Leaf("c"), Leaf("b")), Leaf("c")), ("a", "b", "c")),
        # a leaf names a vertex outside the ground
        (split("a", Leaf("b"), Leaf("zz")), ("a", "b")),
        # the root covers another ground
        (split("a", Leaf("b"), Leaf("b")), ("a", "c")),
        (split("a", Leaf("b"), Leaf("b")), ("a",)),
    ):
        assert _outcomes(cert, ground) == [GroundMismatch, GroundMismatch]
    # and a sound hand-built certificate compiles the same way in both
    fold, reference = _outcomes(split("a", split("b", Leaf("c"), Leaf("c")),
                                      Leaf("c")), ("c", "a", "b"))
    assert fold == reference != GroundMismatch


def test_compiled_answers_are_the_two_shared_values():
    for _, lat in named_corpus():
        for x in lat.interior():
            cert, _ = certify(lat, x)
            strategy = compile_strategy(cert, interior_members(lat, x))
            answers = set()
            _fold(strategy, lambda node, *kids: kids or answers.add(id(node)))
            assert answers <= {id(_YES), id(_NO)}


def test_no_path_queries_a_vertex_twice(d12):
    strategy = d12_strategy(d12)

    def walk(node, seen):
        if isinstance(node, Answer):
            return
        assert node.vertex not in seen
        walk(node.yes, seen | {node.vertex})
        walk(node.no, seen | {node.vertex})

    walk(strategy, frozenset())


# --- play -------------------------------------------------------------------------


def test_play_chain_subset(d12):
    strategy = d12_strategy(d12)
    verdict, transcript = play(strategy, {"2", "6"})
    assert verdict is True
    assert len(transcript.queries) <= 3


def test_play_non_chain(d12):
    strategy = d12_strategy(d12)
    verdict, transcript = play(strategy, {"4", "6"})
    assert verdict is False
    assert transcript.verdict is False


def test_play_empty_set_is_chain(d12):
    verdict, _ = play(d12_strategy(d12), set())
    assert verdict is True


def test_transcript_matches_path(d12):
    strategy = d12_strategy(d12)
    _, transcript = play(strategy, {"3", "4"})
    assert transcript.queries[0] == ("3", True)
    assert transcript.to_obj()["queries"][0] == ["3", 1]


# --- exhaustive check ---------------------------------------------------------------


def test_exhaustive_chain4():
    chain = generate("chain", 4)
    cert, _ = certify(chain, "a")
    ground = interior_members(chain, "a")
    report = exhaustive_check(compile_strategy(cert, ground), ground, chain.leq)
    assert report.subsets_tested == 4
    assert report.mismatches == 0
    assert report.max_queries == 1 == len(ground) - 1


def test_exhaustive_d12(d12):
    ground = interior_members(d12, "2")
    report = exhaustive_check(d12_strategy(d12), ground, d12.leq)
    assert report.subsets_tested == 16
    assert report.mismatches == 0
    assert report.max_queries <= 3
    # chains of {2,3,4,6} under divisibility
    chains = [
        set(s)
        for k in range(0, 5)
        for s in combinations(("2", "3", "4", "6"), k)
        if all(
            int(u) % int(v) == 0 or int(v) % int(u) == 0
            for u, v in combinations(s, 2)
        )
    ]
    true_count = sum(play(d12_strategy(d12), c)[0] for c in
                     (set(s) for k in range(0, 5)
                      for s in combinations(("2", "3", "4", "6"), k)))
    assert len(chains) == true_count == 8


def test_exhaustive_single_point():
    report = exhaustive_check(Answer(True), ("w",), lambda u, v: True)
    assert report.subsets_tested == 2
    assert report.max_queries == 0
    assert report.mismatches == 0


def test_exhaustive_check_asks_each_ordered_pair_at_most_once():
    # a constant yes over boolean-3's interior (two ranks, not a chain)
    # reaches the chain count, whose down-sets come from the same calls
    lat = generate("boolean", 3)
    ground = lat.interior()
    calls = Counter()

    def leq(u, v):
        calls[u, v] += 1
        return lat.leq(u, v)

    report = exhaustive_check(_YES, ground, leq)
    chains = sum(all(lat.leq(u, v) or lat.leq(v, u) for u, v in combinations(s, 2))
                 for r in range(len(ground) + 1) for s in combinations(ground, r))
    assert (report.subsets_tested, report.mismatches) == (64, 64 - chains)
    assert 0 < report.mismatches < report.subsets_tested
    assert max(calls.values()) == 1
    assert len(calls) <= len(ground) * (len(ground) - 1)


def test_exhaustive_check_names_a_query_outside_the_ground():
    answer = {"type": "answer", "chain": True}
    off = {"type": "query", "vertex": "zz", "yes": answer, "no": answer}
    # the second asks about 'zz' only under a repeat of 'a' that contradicts
    # the first answer, so no subset is played to it
    for obj in (off, {"type": "query", "vertex": "a", "no": answer, "yes": {
            "type": "query", "vertex": "a", "yes": answer, "no": off}}):
        with pytest.raises(GroundMismatch, match="'zz'"):
            exhaustive_check(strategy_from_obj(obj), ("a", "b"), lambda u, v: u == v)


def test_exhaustive_check_messages_are_the_folds():
    # the message names the first off-ground vertex of the fold over the
    # whole strategy, not the first one a path meets: 'zz' on the yes branch
    # and 'pp' under a repeat of 'a' that contradicts its first answer
    two_off = Query("a", Query("zz", _YES, _NO), Query("yy", _NO, _YES))
    repeat = Query("a", Query("b", Query("a", Query("qq", _YES, _NO),
                                         Query("pp", _YES, _NO)), _NO), _YES)
    for strategy, vertex in ((two_off, "yy"), (repeat, "pp")):
        for check in (exhaustive_check, _node_walk_exhaustive_check,
                      _reference_exhaustive_check):
            with pytest.raises(GroundMismatch) as caught:
                check(strategy, ("a", "b"), lambda u, v: u == v)
            assert str(caught.value) == f"strategy asks about {vertex!r}, off the ground"


def test_exhaustive_cap():
    ground = tuple(f"v{i}" for i in range(17))
    with pytest.raises(CapExceeded):
        exhaustive_check(Answer(True), ground, lambda u, v: True)


# Two test-only copies of the exhaustive checks the leaf walk replaced: the
# node walk plays every subset on the Query/Answer DAG with a 2^n chain
# table, and before it the tuple walk played the strategy flattened into
# tuples and walked each subset's bits for its chainhood.
def _node_walk_exhaustive_check(strategy, ground, leq, cap=GAME_CAP):
    ground = tuple(ground)
    n = len(ground)
    if n > cap:
        raise CapExceeded(f"ground of {n} exceeds the cap of {cap}")
    bit = {v: 1 << i for i, v in enumerate(ground)}

    def known(node, *kids):
        if kids and node.vertex not in bit:
            raise GroundMismatch(f"strategy asks about {node.vertex!r}, off the ground")

    _fold(strategy, known)
    comparable = [sum(1 << j for j, v in enumerate(ground) if leq(u, v) or leq(v, u))
                  for u in ground]
    chain = bytearray(1 << n)
    chain[0] = True
    mismatches = 0
    histogram = {}
    for mask in range(1 << n):
        if mask:
            low = mask & -mask
            rest = mask ^ low
            chain[mask] = chain[rest] and not rest & ~comparable[low.bit_length() - 1]
        node = strategy
        count = 0
        while type(node) is Query:
            count += 1
            node = node.yes if mask & bit[node.vertex] else node.no
        mismatches += node.is_chain != chain[mask]
        histogram[count] = histogram.get(count, 0) + 1
    return GameReport(n, 1 << n, mismatches, max(histogram), histogram)


def _reference_exhaustive_check(strategy, ground, leq, cap=GAME_CAP):
    ground = tuple(ground)
    n = len(ground)
    if n > cap:
        raise CapExceeded(f"ground of {n} exceeds the cap of {cap}")
    index = {v: i for i, v in enumerate(ground)}
    comparable = [0] * n
    for i, u in enumerate(ground):
        for j, v in enumerate(ground):
            if leq(u, v) or leq(v, u):
                comparable[i] |= 1 << j
    compiled = _flatten(strategy, index)
    mismatches, histogram = 0, {}
    for mask in range(1 << n):
        node, count = compiled, 0
        while node[0] == "q":
            count += 1
            node = node[2] if mask & node[1] else node[3]
        is_chain, m = True, mask
        while m:
            low = m & -m
            if mask & ~comparable[low.bit_length() - 1]:
                is_chain = False
                break
            m ^= low
        mismatches += node[1] != is_chain
        histogram[count] = histogram.get(count, 0) + 1
    return GameReport(n, 1 << n, mismatches, max(histogram), histogram)


def _flatten(strategy, index):
    """The strategy as nested tuples ("a", verdict) and ("q", vertex bit,
    yes, no)."""
    def visit(node, *kids):
        if not kids:
            return "a", node.is_chain
        if node.vertex not in index:
            raise GroundMismatch(f"strategy asks about {node.vertex!r}, off the ground")
        return ("q", 1 << index[node.vertex], *kids)

    return _fold(strategy, visit)


def _checked(strategy, ground, leq):
    """The leaf walk's report, asserted equal to both references'."""
    report = exhaustive_check(strategy, ground, leq)
    assert report == _node_walk_exhaustive_check(strategy, ground, leq)
    assert report == _reference_exhaustive_check(strategy, ground, leq)
    return report


def _answer_slots(obj):
    """The answer nodes of a strategy document, in preorder."""
    slots, stack = [], [obj]
    while stack:
        node = stack.pop()
        if node["type"] == "answer":
            slots.append(node)
        else:
            stack += [node["no"], node["yes"]]
    return slots


def _game_instances():
    """(lattice, ground) of every named-corpus and random_corpus(40)
    instance the game cap admits, with its certificate."""
    instances = [(lat, x) for _, lat in named_corpus() for x in lat.interior()]
    instances += [(lat, x) for _, lat in random_corpus(count=40)
                  for x in lat.interior()]
    for lat, x in instances:
        ground = interior_members(lat, x)
        if len(ground) <= GAME_CAP:
            yield lat, ground, certify(lat, x)[0]


def test_exhaustive_check_matches_the_reference():
    rng, played, mutants, wrong = Random(23), 0, 0, 0
    for lat, ground, cert in _game_instances():
        for order in (ground, ground[::-1]):
            strategy = compile_strategy(cert, order)
            assert _checked(strategy, order, lat.leq).mismatches == 0
            played += 1
        # one answer flipped, in the document, where no answer is shared
        obj = json.loads(json.dumps(strategy_to_obj(strategy)))
        slot = rng.choice(_answer_slots(obj))
        slot["chain"] = not slot["chain"]
        mutants += 1
        wrong += _checked(strategy_from_obj(obj), order, lat.leq).mismatches > 0
    # every flip lands on a leaf some subset reaches, so each mutant errs
    assert (played, mutants, wrong) == (962, 481, 481)


def _graft(strategy, rng, make):
    """The strategy with the node at the end of a random path from the root
    replaced by make(node, the (vertex, answer) pairs of the path)."""
    steps, node = [], strategy
    while type(node) is Query and (not steps or rng.random() < 0.7):
        answer = rng.random() < 0.5
        steps.append((node, answer))
        node = node.yes if answer else node.no
    new = make(node, [(q.vertex, a) for q, a in steps])
    for q, answer in reversed(steps):
        new = Query(q.vertex, new, q.no) if answer else Query(q.vertex, q.yes, new)
    return new


def test_exhaustive_check_decides_what_compiled_strategies_never_reach():
    # compiled strategies never query a vertex twice and never end on a
    # subcube holding chains and non-chains; hand-made ones do both
    rng = Random(24)
    made = {"mixed": 0, "repeat": 0, "constant": 0}
    # the reports whose mismatches are neither none nor every subset
    partial = {"mixed": 0, "constant": 0}
    for lat, ground, cert in _game_instances():
        order = ground if rng.random() < 0.5 else ground[::-1]
        strategy = compile_strategy(cert, order)
        if type(strategy) is not Query:
            continue
        # a whole subtree answered by one verdict
        mixed = _graft(strategy, rng, lambda node, path: rng.choice((_YES, _NO)))
        report = _checked(mixed, order, lat.leq)
        made["mixed"] += 1
        partial["mixed"] += 0 < report.mismatches < report.subsets_tested

        # the vertex of a query on the path asked again: its answer leads on
        # as before, and the other branch is a subtree no subset reaches
        def repeat(node, path):
            vertex, answer = rng.choice(path)
            other = rng.choice((_YES, _NO, strategy))
            return Query(vertex, node, other) if answer else Query(vertex, other, node)

        report = _checked(_graft(strategy, rng, repeat), order, lat.leq)
        made["repeat"] += 1
        assert report.mismatches == 0
        # one verdict for every subset of a ground that is not a chain
        if any(not lat.leq(u, v) and not lat.leq(v, u)
               for u, v in combinations(order, 2)):
            for answer in (_YES, _NO):
                report = _checked(answer, order, lat.leq)
                partial["constant"] += 0 < report.mismatches < report.subsets_tested
            made["constant"] += 1
    assert made == {"mixed": 461, "repeat": 461, "constant": 437}
    assert partial == {"mixed": 366, "constant": 874}


def test_verdicts_downward_closed(d12):
    # if a set is declared a chain, so is every subset
    strategy = d12_strategy(d12)
    ground = interior_members(d12, "2")
    for k in range(len(ground) + 1):
        for s in combinations(ground, k):
            if play(strategy, set(s))[0]:
                for t in combinations(s, max(len(s) - 1, 0)):
                    assert play(strategy, set(t))[0]


# --- serialisation -------------------------------------------------------------------


def test_strategy_round_trip(d12):
    strategy = d12_strategy(d12)
    assert strategy_from_obj(strategy_to_obj(strategy)) == strategy


def test_deep_strategy_round_trips_and_measures():
    # 1,500 levels is past the default recursion limit; the serialisers,
    # the depth count, == and hash keep their own stack
    depth = 1500
    strategy = Answer(True)
    for level in range(depth):
        strategy = Query(f"v{level}", Answer(False), strategy)
    back = strategy_from_obj(strategy_to_obj(strategy))
    assert strategy_depth(strategy) == strategy_depth(back) == depth
    assert back == strategy and hash(back) == hash(strategy)
    assert back != Query("v1499", Answer(False), Answer(True))


def test_strategy_from_obj_wants_string_vertices():
    with pytest.raises(ParseError):
        strategy_from_obj({"type": "query", "vertex": ["a"],
                           "yes": {"type": "answer", "chain": True},
                           "no": {"type": "answer", "chain": True}})
    # the verdict must be a JSON boolean, not anything truthy
    for chain in ("no", 1, None, [True]):
        with pytest.raises(ParseError):
            strategy_from_obj({"type": "answer", "chain": chain})
    for obj in ({"type": "answer"}, {"type": "query", "vertex": "a",
                                      "yes": {"type": "answer", "chain": True}},
                {"type": ["answer"], "chain": True}, {"type": "leaf", "vertex": "a"}):
        with pytest.raises(ParseError):
            strategy_from_obj(obj)


def test_strategy_from_obj_names_a_missing_child():
    query = {"type": "query", "vertex": "a", "yes": {"type": "answer", "chain": True}}
    with pytest.raises(ParseError, match="bad strategy node: 'no' is missing"):
        strategy_from_obj(query)


def test_strategy_equality_is_structural():
    query = Query("a", Answer(True), Answer(False))
    assert query == Query("a", Answer(True), Answer(False))
    assert hash(query) == hash(Query("a", Answer(True), Answer(False)))
    assert query != Query("a", Answer(False), Answer(True))
    assert query != Query("b", Answer(True), Answer(False))
    assert Answer(True) != Answer(False) and query != Answer(True)


# --- the query budget as a property ----------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_budget_on_random_lattices(seed):
    lat = generate("random", 6, p=0.35, seed=seed)
    for x in lat.interior():
        cert, _ = certify(lat, x)
        ground = interior_members(lat, x)
        strategy = compile_strategy(cert, ground)
        assert strategy_depth(strategy) <= max(len(ground) - 1, 0)
        report = exhaustive_check(strategy, ground, lat.leq)
        assert report.mismatches == 0
