"""Workload inputs for the benchmark, built from a seed.

Every workload is a list of ``Instance`` values: the lattice as file text,
plus the element to certify (``corpus`` and ``deep``) or the values the
lattice's checks expect (``validate``).  The library only ever sees the
text and the element, so the inputs are the same whatever it does with
them.  Building is a pure function of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import nonevade as nv
from nonevade.corpus import named_corpus, random_corpus


@dataclass(frozen=True)
class Instance:
    name: str
    text: str
    x: str | None = None
    #: validate only: the Möbius value of the lattice, from its closed form
    mobius: int | None = None
    #: validate only: every interior element has exactly this many complements
    complements: int | None = None


# --- corpus ------------------------------------------------------------------
#
# The named acceptance corpus plus a slice of random completion lattices
# scanned from a seeded start.  Random lattices differ widely in cost, so a
# plain slice would make the workload's cost depend on the seed.  The slice
# is therefore stratified by its size: F, the total face count of the
# certified complexes over all interior elements of a lattice.  Each band
# of F between the edges below takes the same number of lattices and
# lattices above the last edge are skipped, so every seed gets the same size
# profile and differs only in the lattices' structure.  The edges are the
# deciles of F over 900 lattices of the stream, below its 90th percentile.

CORPUS_BANDS = (0, 158, 228, 289, 348, 424, 505, 630, 755, 949, 1204)
CORPUS_PER_BAND = 10
CORPUS_POOL = 400
CORPUS_SEED_STRIDE = 100_000


def face_counts(lattice):
    """Faces of the certified complex for each interior element x.

    A face is a nonempty chain of interior elements that avoids the
    complements of x, counted by dynamic programming over a linear
    extension.  Independent of the certifier.
    """
    interior = set(lattice.interior())
    order = [e for e in lattice.poset.linear_extension() if e in interior]
    below = {e: [d for d in order if d != e and lattice.leq(d, e)] for e in order}
    counts = {}
    for x in order:
        co = set(lattice.complements(x))
        chains = {}
        for e in order:
            if e not in co:
                chains[e] = 1 + sum(chains.get(d, 0) for d in below[e])
        counts[x] = sum(chains.values())
    return counts


def _instances(name, lattice, xs, call):
    text = call("lattice.format", nv.format_lattice, lattice)
    return [Instance(f"{name}/{x}", text, x) for x in xs]


def corpus_lattices(seed, call):
    """The named corpus, then CORPUS_PER_BAND lattices per face band, taken in
    scan order from a pool of CORPUS_POOL; the whole pool is measured so that
    set-up does the same work for every seed."""
    named = call("corpus.generate", named_corpus)
    pool = call(
        "corpus.generate", random_corpus,
        count=CORPUS_POOL, seed_start=seed * CORPUS_SEED_STRIDE,
    )
    faces = [sum(face_counts(lattice).values()) for _, lattice in pool]
    chosen = []
    for lo, hi in zip(CORPUS_BANDS, CORPUS_BANDS[1:]):
        band = [entry for entry, f in zip(pool, faces) if lo < f <= hi]
        if len(band) < CORPUS_PER_BAND:
            raise RuntimeError(f"random corpus pool has {len(band)} lattices "
                               f"with {lo + 1}..{hi} faces")
        chosen += band[:CORPUS_PER_BAND]
    return named + sorted(chosen, key=lambda entry: entry[0])


def corpus(seed, call):
    out = []
    for name, lattice in corpus_lattices(seed, call):
        out += _instances(name, lattice, lattice.interior(), call)
    return out


# --- deep --------------------------------------------------------------------
#
# Few large instances from the scaling families.  The set is laid out so
# that the median instance is a fixed one (chain-13): five cheaper
# instances sit below it and five dearer ones above, whatever the seed.
# The seed picks x for boolean-5 among the rank-2 elements and for
# partition-5 among the atoms (one symmetry class each), for divisor-360
# among all interior elements (their costs differ little), and picks the
# random completions and their x within narrow face-count bands.

RANDOM_BASE = 16
RANDOM_P = 0.3
DEEP_CANDIDATES = 80
DEEP_RANDOM_BANDS = ((500, 900), (500, 900), (3000, 4000))


def ordinal_sum_text(k):
    """0 < k atoms < m < k coatoms < 1, as lattice file text."""
    atoms = [f"a{i}" for i in range(k)]
    coatoms = [f"c{i}" for i in range(k)]
    covers = [("0", a) for a in atoms] + [(a, "m") for a in atoms]
    covers += [("m", c) for c in coatoms] + [(c, "1") for c in coatoms]
    lines = ["elements: " + " ".join(["0", *atoms, "m", *coatoms, "1"])]
    lines += [f"cover: {u} {v}" for u, v in covers]
    return "\n".join(lines) + "\n"


def _random_deep(rng, call):
    """Random completions on RANDOM_BASE points, each with an x whose complex
    has a face count in its DEEP_RANDOM_BANDS band.  A fixed number of
    candidates is measured so that set-up does the same work for every seed."""
    start = rng.randrange(1_000_000)
    candidates = []
    for seed in range(start, start + DEEP_CANDIDATES):
        lattice = call("corpus.generate", nv.generate, "random", RANDOM_BASE,
                       p=RANDOM_P, seed=seed)
        candidates.append((f"random{RANDOM_BASE}-s{seed}", lattice,
                           face_counts(lattice)))
    out = []
    for lo, hi in DEEP_RANDOM_BANDS:
        for entry in candidates:
            name, lattice, counts = entry
            xs = [x for x, f in counts.items() if lo <= f <= hi]
            if xs:
                candidates.remove(entry)
                out.append((name, lattice, rng.choice(xs)))
                break
        else:
            raise RuntimeError(f"no random completion with {lo}..{hi} faces")
    return out


def deep(seed, call):
    rng = Random(seed)
    out = []

    def add(name, lattice, x):
        out.extend(_instances(name, lattice, [x], call))

    boolean = call("corpus.generate", nv.generate, "boolean", 5)
    add("boolean-5", boolean, rng.choice([e for e in boolean.elements if len(e) == 2]))
    divisor = call("corpus.generate", nv.generate, "divisor", 360)
    add("divisor-360", divisor, rng.choice(divisor.interior()))
    partition = call("corpus.generate", nv.generate, "partition", 5)
    pairs = [e for e in partition.elements if e.count("|") == 3]
    add("partition-5", partition, rng.choice(pairs))
    for name, lattice, x in _random_deep(rng, call):
        add(name, lattice, x)
    for n in (13, 14):
        chain = call("corpus.generate", nv.generate, "chain", n)
        add(f"chain-{n}", chain, chain.interior()[(n - 2) // 2])
    for k in (20, 22, 25):
        out.append(Instance(f"ordinal-sum-{k}/m", ordinal_sum_text(k), "m"))
    return out


# --- validate ----------------------------------------------------------------
#
# Big root lattices, parsed once each.  The seed shuffles the element line
# and the cover lines of the text; the parser takes any order, and the
# element order it reads becomes the canonical order of the lattice.


def _shuffled_text(lattice, rng):
    elements = list(lattice.elements)
    covers = [f"cover: {u} {v}" for u, v in lattice.covers()]
    rng.shuffle(elements)
    rng.shuffle(covers)
    return "\n".join(["elements: " + " ".join(elements), *covers]) + "\n"


def _number_mobius(n):
    """The number-theoretic Möbius function, which is the Möbius value of
    the divisor lattice of n."""
    value, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            value = -value
        p += 1
    return -value if n > 1 else value


def validate(seed, call):
    rng = Random(seed)
    # name, generator arguments, the Möbius value from its closed form
    # ((-1)^n for boolean-n, (-1)^(n-1) (n-1)! for partition-n, mu(n) for
    # divisor-n, 0 for a chain longer than 2, the product of the factors'
    # values for a product) and the number of complements of every interior
    # element where the family fixes it
    roots = [
        ("boolean-9", ("boolean", 9), {}, (-1) ** 9, 1),
        ("boolean-10", ("boolean", 10), {}, (-1) ** 10, 1),
        ("partition-6", ("partition", 6), {}, (-1) ** 5 * math.factorial(5), None),
        ("divisor-720720", ("divisor", 720720), {}, _number_mobius(720720), None),
        ("divisor-510510", ("divisor", 510510), {}, _number_mobius(510510), 1),
        ("chain-400", ("chain", 400), {}, 0, 0),
        ("product-b4xp4", ("product",), {"left": "boolean:4", "right": "partition:4"},
         -math.factorial(3), None),
    ]
    out = []
    for name, args, kwargs, mobius, complements in roots:
        lattice = call("corpus.generate", nv.generate, *args, **kwargs)
        out.append(Instance(name, _shuffled_text(lattice, rng), None, mobius,
                            complements))
    return out


WORKLOADS = {"corpus": corpus, "deep": deep, "validate": validate}
