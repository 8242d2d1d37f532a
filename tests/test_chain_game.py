from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from nonevade.certify import certify, interior_members, Leaf
from nonevade.chain_game import (
    Answer,
    Query,
    compile_strategy,
    exhaustive_check,
    play,
    strategy_depth,
    strategy_from_obj,
    strategy_to_obj,
)
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


def test_exhaustive_cap():
    ground = tuple(f"v{i}" for i in range(17))
    with pytest.raises(CapExceeded):
        exhaustive_check(Answer(True), ground, lambda u, v: True)


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
