"""Compile certificates into membership-query strategies for the chain game.

A hidden subset of the certified vertex set is probed with questions
"is this vertex in the set?"; the compiled strategy, one DAG of Query and
Answer nodes that every walker plays as it is, decides whether the subset
is a chain using at most |ground| - 1 questions.  The exhaustive check
settles all subsets at once from the strategy's leaves: each leaf is one
subcube of subsets, and downward-closed chains make it all chains, none,
or a count along a linear extension.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certify import Leaf, Prune, _fold, _Node, _parser, _to_obj
from .errors import CapExceeded, GroundMismatch
from .lattice import _bits

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
    """Decide the game on every subset of the ground, one leaf at a time.

    ``leq`` is the order predicate on ground elements; a subset is a chain
    when all its pairs are comparable.  Returns a GameReport over all
    2^|ground| subsets whose mismatch count must be zero for a correct
    strategy; ``cap`` bounds the ground, not the leaves.  A query about a
    vertex off the ground raises GroundMismatch, even one no subset reaches.

    Each root-to-leaf path carries the masks, over the positions of
    ``ground``, of the vertices answered in (I) and of those answered at all;
    a query on an answered vertex follows its answer and still counts.  The
    subsets reaching a leaf are the subcube [I, I + F] of its free vertices
    F, 2^|F| of them, each asked the path's query count.  Chains are closed
    downward, so the subcube is all chains when I + F is a chain, has none
    when I is not, and otherwise has one per chain among the vertices of F
    comparable to all of I, counted along a linear extension.  A path
    ending early is one step for all its subsets, so the cost is one step
    per leaf, not per subset."""
    ground = tuple(ground)
    n = len(ground)
    check_game_cap(n, cap)
    index = {v: i for i, v in enumerate(ground)}
    # the strict down-sets, from at most one leq call per ordered pair
    below, comparable = [0] * n, [1 << i for i in range(n)]
    for j, v in enumerate(ground):
        for i in range(j):
            u = ground[i]
            if leq(u, v):
                below[j] |= 1 << i
            elif leq(v, u):
                below[i] |= 1 << j
            else:
                continue
            comparable[i] |= 1 << j
            comparable[j] |= 1 << i
    order = sorted(range(n), key=lambda j: below[j].bit_count())

    def chains(mask):
        # the chains among the vertices of mask, the empty one included
        total, ending = 1, [0] * n  # ending[j]: the chains whose top is j
        for j in order:
            if mask >> j & 1:
                ending[j] = 1 + sum(ending[i] for i in _bits(mask & below[j]))
                total += ending[j]
        return total

    def is_chain(mask):
        # a loop, as any() over _bits costs a quarter more of the walk
        rest = mask
        while rest and not mask & ~comparable[(rest & -rest).bit_length() - 1]:
            rest &= rest - 1
        return not rest

    def known(node, *kids):
        if kids and node.vertex not in index:
            raise GroundMismatch(f"strategy asks about {node.vertex!r}, off the ground")

    walked = False  # whether every node is known to be on the ground
    full = (1 << n) - 1
    mismatches = 0
    histogram = {}
    # (node, I, answered, queries, the vertices comparable to all of I)
    stack = [(strategy, 0, 0, 0, full)]
    while stack:
        node, yes, seen, count, common = stack.pop()
        while type(node) is Query:
            count += 1
            i = index.get(node.vertex)
            if i is None or seen >> i & 1:
                # a path that skips a branch may skip an off-ground vertex:
                # one fold over the whole strategy names the first one
                if not walked:
                    _fold(strategy, known)
                    walked = True
                node = node.yes if yes >> i & 1 else node.no
                continue
            seen |= 1 << i
            stack.append((node.no, yes, seen, count, common))
            node, yes, common = node.yes, yes | 1 << i, common & comparable[i]
        free = full ^ seen
        size = 1 << free.bit_count()
        histogram[count] = histogram.get(count, 0) + size
        if yes & ~common:  # I is not a chain, so no subset here is
            chained = 0
        elif free & ~common or not is_chain(free):
            chained = chains(free & common)
        else:  # I + F is a chain
            chained = size
        mismatches += size - chained if node.is_chain else chained
    return GameReport(n, 1 << n, mismatches, max(histogram), histogram)


def check_game_cap(size, cap):
    """Refuse with CapExceeded a ground too large to decide all its subsets:
    a strategy on n vertices may have 2^n leaves."""
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
