"""Compile certificates into membership-query strategies for the chain game.

A hidden subset of the certified vertex set is probed with questions
"is this vertex in the set?"; the compiled strategy decides whether the
subset is a chain using at most |ground| - 1 questions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certify import Leaf, Prune, _fold, _Node, _parser, _to_obj, certificate_ground
from .errors import CapExceeded, GroundMismatch

GAME_CAP = 16


@dataclass(frozen=True, eq=False)
class Answer(_Node, wire="answer", is_chain="chain"):
    is_chain: bool


@dataclass(frozen=True, eq=False)
class Query(_Node, wire="query"):
    vertex: str
    yes: object
    no: object


@dataclass(frozen=True)
class Transcript:
    """Queries asked (vertex, answer) in order, plus the final verdict."""

    queries: tuple
    verdict: bool

    def to_obj(self):
        return {
            "queries": [[v, 1 if a else 0] for v, a in self.queries],
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class GameReport:
    ground_size: int
    subsets_tested: int
    mismatches: int
    max_queries: int
    histogram: dict

    def to_obj(self):
        # the fields in declaration order, with the histogram's keys as text
        return {**vars(self), "histogram": {
            str(k): v for k, v in sorted(self.histogram.items())}}


def compile_strategy(certificate, ground):
    """Build the query tree a certificate induces over its vertex set.

    A Split queries its vertex.  On "no" the deletion child handles the
    rest of the ground.  On "yes" every vertex absent from the link (a
    "dead" vertex: together with the queried one it cannot sit in any
    chain) is probed next in the order of ``ground``, answering not-a-chain
    as soon as one is present; afterwards the link child takes over on the
    link's vertex set.  A Leaf answers yes without a question, which is
    what keeps the budget one below the ground size.

    A node's vertex set is its Leaf's vertex, or its Prune child's set, or
    its Split vertex plus its deletion child's set, which must hold the
    link child's set; so one fold builds each distinct node's strategy and
    vertex set once, and a certificate DAG gives a strategy DAG.
    """
    ground = tuple(ground)
    order = {v: i for i, v in enumerate(ground)}
    implied = certificate_ground(certificate)
    if implied != order.keys() or len(order) < len(ground):
        raise GroundMismatch(
            f"certificate covers {sorted(implied)}, ground is {sorted(ground)}"
        )

    def visit(node, *kids):
        # (strategy, vertex set) of the subtree under node
        if isinstance(node, Prune):
            return kids[0]
        y = node.vertex
        if y not in order:
            raise GroundMismatch(f"certificate vertex {y!r} is off the ground")
        if isinstance(node, Leaf):
            return Answer(True), frozenset((y,))
        (no, rest), (yes, link) = kids
        if y in rest:
            raise GroundMismatch(f"split vertex {y!r} recurs in its deletion child")
        if not link <= rest:
            raise GroundMismatch(f"link vertices at {y!r} escape the deletion child")
        for dead in sorted(rest - link, key=order.__getitem__, reverse=True):
            yes = Query(dead, Answer(False), yes)
        return Query(y, yes, no), rest | {y}

    return _fold(certificate, visit)[0]


def play(strategy, hidden):
    """Walk the tree answering membership truthfully.

    Returns (verdict, transcript).
    """
    hidden = frozenset(hidden)
    queries = []
    node = strategy
    while isinstance(node, Query):
        answer = node.vertex in hidden
        queries.append((node.vertex, answer))
        node = node.yes if answer else node.no
    return node.is_chain, Transcript(tuple(queries), node.is_chain)


def exhaustive_check(strategy, ground, leq, cap=GAME_CAP):
    """Play every subset of the ground and compare with the chain predicate.

    ``leq`` is the order predicate on ground elements; a subset is a chain
    when all its pairs are comparable.  Returns a GameReport whose mismatch
    count must be zero for a correct strategy; a query about a vertex off
    the ground raises GroundMismatch."""
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
    mismatches = 0
    max_queries = 0
    histogram = {}
    for mask in range(1 << n):
        node = compiled
        count = 0
        while node[0] == "q":
            count += 1
            node = node[2] if mask & node[1] else node[3]
        verdict = node[1]
        is_chain = True
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if mask & ~comparable[i]:
                is_chain = False
                break
            m ^= low
        if verdict != is_chain:
            mismatches += 1
        if count > max_queries:
            max_queries = count
        histogram[count] = histogram.get(count, 0) + 1
    return GameReport(
        ground_size=n,
        subsets_tested=1 << n,
        mismatches=mismatches,
        max_queries=max_queries,
        histogram=histogram,
    )


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


def strategy_to_obj(strategy):
    """The strategy as JSON-ready dicts, built once per distinct node: a
    node shared in the DAG is one shared sub-object of the result."""
    return _fold(strategy, _to_obj)


strategy_from_obj = _parser("strategy", Answer, Query)


def strategy_depth(strategy):
    """The most queries any play of the strategy asks."""
    return _fold(strategy, lambda node, *kids: 1 + max(kids) if kids else 0)
