"""Compile certificates into membership-query strategies for the chain game.

A hidden subset of the certified vertex set is probed with questions
"is this vertex in the set?"; the compiled strategy decides whether the
subset is a chain using at most |ground| - 1 questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter

from .certify import Leaf, Prune, _fold, _iterative, _string, _Node, certificate_ground
from .errors import CapExceeded, GroundMismatch, ParseError

GAME_CAP = 16


@dataclass(frozen=True, eq=False)
class Answer(_Node):
    is_chain: bool

    _own = attrgetter("is_chain")


@dataclass(frozen=True, eq=False)
class Query(_Node):
    vertex: str
    yes: object
    no: object

    _own = attrgetter("vertex")
    _kids = ("yes", "no")


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
        return {
            "ground_size": self.ground_size,
            "subsets_tested": self.subsets_tested,
            "mismatches": self.mismatches,
            "max_queries": self.max_queries,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


def compile_strategy(certificate, ground):
    """Build the query tree a certificate induces over its vertex set.

    A Split queries its vertex.  On "no" the deletion child handles the
    rest of the ground.  On "yes" every vertex absent from the link (a
    "dead" vertex: together with the queried one it cannot sit in any
    chain) is probed next in canonical order, answering not-a-chain as
    soon as one is present; afterwards the link child takes over on the
    link's vertex set.  A Leaf answers yes without a question, which is
    what keeps the budget one below the ground size.

    A certificate node reached again on the same ground is compiled once,
    so a certificate DAG gives a strategy DAG.
    """
    ground = tuple(ground)
    implied = certificate_ground(certificate)
    if implied != frozenset(ground):
        raise GroundMismatch(
            f"certificate covers {sorted(implied)}, ground is {sorted(ground)}"
        )
    return _compile((certificate, ground, {}))


@partial(_iterative, key=lambda args: (id(args[0]), args[1]))
def _compile(args):
    # link_grounds: certificate_ground of each link child seen, by node id
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

    ``leq`` is the order predicate on ground elements; a subset is a
    chain when all its pairs are comparable.  Returns a GameReport whose
    mismatch count must be zero for a correct strategy.
    """
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
    return _fold(strategy, lambda node, *kids: (
        ("q", 1 << index[node.vertex], *kids) if kids else ("a", node.is_chain)))


def strategy_to_obj(strategy):
    """The strategy as JSON-ready dicts, built once per distinct node: a
    node shared in the DAG is one shared sub-object of the result."""
    return _fold(strategy, lambda node, *kids: (
        {"type": "query", "vertex": node.vertex, "yes": kids[0], "no": kids[1]}
        if kids else {"type": "answer", "chain": node.is_chain}))


@_iterative
def strategy_from_obj(obj):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError("strategy node must be an object with a type")
    kind = obj["type"]
    try:
        if kind == "answer":
            return Answer(bool(obj["chain"]))
        if kind == "query":
            return Query(_string(obj["vertex"]),
                         (yield obj["yes"]), (yield obj["no"]))
    except KeyError as exc:
        raise ParseError(f"bad strategy node: missing {exc}") from None
    except TypeError as exc:
        raise ParseError(f"bad strategy node: {exc}") from None
    raise ParseError(f"unknown strategy node type {kind!r}")


def strategy_depth(strategy):
    """The most queries any play of the strategy asks."""
    return _fold(strategy, lambda node, *kids: 1 + max(kids) if kids else 0)
