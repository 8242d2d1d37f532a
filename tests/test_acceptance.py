"""Acceptance criteria, one test per criterion.

The corpus (chains 2-8, boolean ranks 2-4, divisor lattices of 12/24/36/60,
partition lattices of 3 and 4, the two five-element classics, a chain
product, and 500 seeded random completion lattices of at most 14 elements)
is certified once in a session fixture; each criterion then checks its own
property and prints a PASS/FAIL line.  Run with ``pytest -s`` to see the
lines as they appear.
"""

from types import SimpleNamespace

import pytest

from nonevade.lattice import generate
from nonevade.suite import (
    CorpusRun,
    criterion_certification,
    criterion_collapse_extraction,
    criterion_mobius_vanishing,
    criterion_oracle_equivalence,
    criterion_proof_identities,
    criterion_query_bound,
    criterion_spot_checks,
)

RANDOM_COUNT = 500


@pytest.fixture(scope="module")
def corpus_run():
    return CorpusRun(random_count=RANDOM_COUNT)


def _finish(outcome):
    print()
    print(outcome.line())
    assert outcome.passed, "\n".join([outcome.detail] + outcome.failures[:10])


def test_criterion_1_universal_certification(corpus_run):
    _finish(criterion_certification(corpus_run))


def test_criterion_2_oracle_equivalence(corpus_run):
    _finish(criterion_oracle_equivalence(corpus_run))


def test_criterion_3_collapse_extraction(corpus_run):
    _finish(criterion_collapse_extraction(corpus_run))


def test_criterion_4_query_bound(corpus_run):
    _finish(criterion_query_bound(corpus_run))


def test_criterion_5_mobius_vanishing(corpus_run):
    _finish(criterion_mobius_vanishing(corpus_run))


def test_criterion_6_proof_identities(corpus_run):
    _finish(criterion_proof_identities(corpus_run))


def test_criterion_7_known_value_spot_checks():
    _finish(criterion_spot_checks())


def test_criterion_5_holds_on_the_one_element_lattice():
    # bottom = top: mu is 1 and the empty interior's reduced Euler
    # characteristic is -1, but P. Hall's theorem needs bottom < top
    run = SimpleNamespace(corpus=[(f"chain-{n}", generate("chain", n))
                                  for n in (1, 2, 3)])
    _finish(criterion_mobius_vanishing(run))
