"""Compile certificates into membership-query strategies for the chain game.

A hidden subset of the certified vertex set is probed with questions
"is this vertex in the set?"; the compiled strategy, one DAG of Query and
Answer nodes that every walker plays as it is, decides whether the subset
is a chain using at most |ground| - 1 questions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certify import Leaf, Prune, _fold, _Node, _parser, _to_obj
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


_YES, _NO = Answer(True), Answer(False)


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

    A node's vertex set, a mask over the positions of ``ground``, is its
    Leaf's vertex, or its Prune child's set, or its Split vertex plus its
    deletion child's set, which must hold the link child's set; so one fold
    builds each distinct node's strategy and vertex set once, a certificate
    DAG gives a strategy DAG, and the root's set must be the whole ground.
    Every answer is one of the two shared ``_YES`` and ``_NO``.
    """
    ground = tuple(ground)
    # a repeated vertex keeps its last position, so the root's set misses
    # the others and the ground is refused
    bit = {v: 1 << i for i, v in enumerate(ground)}

    def visit(node, *kids):
        # (strategy, vertex mask) of the subtree under node
        if isinstance(node, Prune):
            return kids[0]
        y = node.vertex
        if y not in bit:
            raise GroundMismatch(f"certificate vertex {y!r} is off the ground")
        if isinstance(node, Leaf):
            return _YES, bit[y]
        (no, rest), (yes, link) = kids
        if rest & bit[y]:
            raise GroundMismatch(f"split vertex {y!r} recurs in its deletion child")
        if link & ~rest:
            raise GroundMismatch(f"link vertices at {y!r} escape the deletion child")
        dead = rest & ~link
        while dead:
            i = dead.bit_length() - 1
            yes = Query(ground[i], _NO, yes)
            dead ^= 1 << i
        return Query(y, yes, no), rest | bit[y]

    strategy, covered = _fold(certificate, visit)
    if covered != (1 << len(ground)) - 1:
        raise GroundMismatch(
            f"certificate covers {sorted(v for v in ground if covered & bit[v])}, "
            f"ground is {sorted(ground)}"
        )
    return strategy


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
    count must be zero for a correct strategy.  A query about a vertex off
    the ground raises GroundMismatch before any play, even one no play
    reaches.  Subsets are masks over the positions of ``ground``, played in
    increasing order; one is a chain iff it is empty, or is a chain without
    its lowest vertex and that vertex is comparable to all of it, so a table
    of 2^n bytes filled in the same loop decides each in one step."""
    ground = tuple(ground)
    n = len(ground)
    check_game_cap(n, cap)
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


def check_game_cap(size, cap):
    """Refuse with CapExceeded a ground too large to play all its subsets."""
    if size > cap:
        raise CapExceeded(f"ground of {size} exceeds the cap of {cap}")


def strategy_to_obj(strategy):
    """The strategy as JSON-ready dicts, built once per distinct node: a
    node shared in the DAG is one shared sub-object of the result."""
    return _fold(strategy, _to_obj)


strategy_from_obj = _parser("strategy", Answer, Query)


def strategy_depth(strategy):
    """The most queries any play of the strategy asks."""
    return _fold(strategy, lambda node, *kids: 1 + max(kids) if kids else 0)
