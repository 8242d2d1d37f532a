"""The cross-check corpus: named desk-scale lattices, a reproducible
stream of random completion lattices, and seeded random complexes."""

from __future__ import annotations

from random import Random

from .complexes import Complex
from .errors import NonevadeError
from .lattice import generate, parse_lattice

M3_TEXT = """\
# three incomparable interior elements
elements: 0 a b c 1
cover: 0 a
cover: 0 b
cover: 0 c
cover: a 1
cover: b 1
cover: c 1
"""

N5_TEXT = """\
# pentagon: 0 < a < c < 1 with b off to the side
elements: 0 a b c 1
cover: 0 a
cover: 0 b
cover: a c
cover: b 1
cover: c 1
"""

BOWTIE_TEXT = """\
# not a lattice: a and b have two minimal upper bounds
elements: 0 a b c d 1
cover: 0 a
cover: 0 b
cover: a c
cover: a d
cover: b c
cover: b d
cover: c 1
cover: d 1
"""

RANDOM_BASE_SIZE = 9
RANDOM_EDGE_PROBABILITY = 0.35
RANDOM_MAX_SIZE = 14


def named_corpus():
    """The fixed part of the corpus, as (name, lattice) pairs."""
    out = []
    for n in range(2, 9):
        out.append((f"chain-{n}", generate("chain", n)))
    for n in range(2, 5):
        out.append((f"boolean-{n}", generate("boolean", n)))
    for n in (12, 24, 36, 60):
        out.append((f"divisor-{n}", generate("divisor", n)))
    for n in (3, 4):
        out.append((f"partition-{n}", generate("partition", n)))
    out.append(("m3", parse_lattice(M3_TEXT)))
    out.append(("n5", parse_lattice(N5_TEXT)))
    out.append(("product-c3xc3", generate("product", left="chain:3", right="chain:3")))
    return out


def random_corpus(count=500, seed_start=0):
    """Scan seeds upward and keep the Dedekind-MacNeille completions of
    random RANDOM_BASE_SIZE-point posets (edge probability
    RANDOM_EDGE_PROBABILITY) that have at most RANDOM_MAX_SIZE elements.

    Purely a function of its arguments: the same seeds always produce the
    same list.
    """
    out = []
    seed = seed_start
    limit = seed_start + 200 * max(count, 1) + 1000
    while len(out) < count:
        if seed > limit:
            raise NonevadeError(
                f"random corpus scan exhausted {limit} seeds before finding {count}"
            )
        lat = generate("random", RANDOM_BASE_SIZE, p=RANDOM_EDGE_PROBABILITY,
                       seed=seed)
        if len(lat) <= RANDOM_MAX_SIZE:
            out.append((f"random-s{seed:05d}", lat))
        seed += 1
    return out


def full_corpus(random_count=500):
    return named_corpus() + random_corpus(count=random_count)


def random_complex(seed):
    """A seeded random complex on 4 to 7 vertices; generally not an order
    complex."""
    rng = Random(seed)
    n = rng.randint(4, 7)
    vertices = [f"v{i}" for i in range(n)]
    faces = []
    for _ in range(rng.randint(2, 6)):
        size = rng.randint(1, min(4, n))
        faces.append(frozenset(rng.sample(vertices, size)))
    covered = set().union(*faces)
    faces.extend(frozenset({v}) for v in vertices if v not in covered)
    return Complex(vertices, faces)


def random_complexes(count=50):
    seeds = range(777, 777 + count)
    return [(f"complex-s{seed}", random_complex(seed)) for seed in seeds]
