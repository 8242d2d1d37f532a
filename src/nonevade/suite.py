"""Corpus-wide cross-check runner: one function per acceptance criterion.

Used by the CLI ``suite`` command and the acceptance test module.  All
checks are deterministic functions of the corpus seeds, so identical
seeds produce identical reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import wraps

from . import chain_game
from .certify import (
    Leaf,
    Prune,
    audit_certificate,
    certificate_complex,
    certificate_to_obj,
    certify,
    extract_collapses,
    verify_certificate,
)
from .complexes import Complex
from .corpus import full_corpus, random_complexes
from .errors import NonevadeError
from .lattice import generate
from .oracles import (
    brute_certificate,
    brute_nonevasive,
    find_noncomplemented_element,
    interior_euler,
    mobius,
)


@dataclass
class CriterionOutcome:
    key: str
    title: str
    passed: bool
    detail: str
    seconds: float
    failures: list = field(default_factory=list)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.key} {self.title}: {self.detail} ({self.seconds:.1f}s)"

    def to_obj(self):
        return {
            "key": self.key,
            "title": self.title,
            "passed": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
            "failures": self.failures[:20],
        }


@dataclass
class SuiteReport:
    outcomes: list
    corpus_size: int
    instance_count: int

    @property
    def ok(self):
        return all(o.passed for o in self.outcomes)

    def to_obj(self):
        return {
            "ok": self.ok,
            "corpus_size": self.corpus_size,
            "instances": self.instance_count,
            "criteria": [o.to_obj() for o in self.outcomes],
        }

    def format_text(self):
        lines = [o.line() for o in self.outcomes]
        verdict = "all criteria passed" if self.ok else "CRITERIA FAILED"
        lines.append(
            f"suite: {self.corpus_size} lattices, {self.instance_count} "
            f"certification instances -> {verdict}"
        )
        return "\n".join(lines)


class CorpusRun:
    """Certifies the whole corpus once; criteria share the artifacts."""

    def __init__(self, random_count=500):
        self.corpus = full_corpus(random_count)
        self.instances = []
        self.certify_failures = []
        t0 = time.perf_counter()
        for name, lattice in self.corpus:
            for x in lattice.interior():
                try:
                    cert, _ = certify(lattice, x)
                    complex_ = certificate_complex(lattice, x)
                    # a facet-built copy: C1 runs verify's generic walk, the
                    # reference, where C3's extraction walks member masks
                    result = verify_certificate(
                        Complex(complex_.vertices, complex_.facets), cert)
                    if not result.ok:
                        self.certify_failures.append(
                            f"{name}/{x}: verification failed at "
                            f"{'/'.join(result.path) or 'root'}: {result.reason}"
                        )
                        continue
                except NonevadeError as exc:
                    self.certify_failures.append(f"{name}/{x}: {exc}")
                    continue
                self.instances.append((name, lattice, x, cert, complex_))
        self.certify_seconds = time.perf_counter() - t0


def criterion_certification(run):
    """1: every corpus (lattice, x) certifies and verifies, no assertions."""
    total = len(run.instances) + len(run.certify_failures)
    return CriterionOutcome(
        key="C1",
        title="universal certification",
        passed=not run.certify_failures,
        detail=f"{len(run.instances)}/{total} instances certified and verified",
        seconds=run.certify_seconds,
        failures=run.certify_failures,
    )


def _criterion(key, title):
    """Decorate the check of criterion ``key``, which returns (detail,
    failures): the wrapped check is timed and returns a CriterionOutcome."""
    def wrap(check):
        @wraps(check)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            detail, failures = check(*args, **kwargs)
            return CriterionOutcome(key, title, not failures, detail,
                                    time.perf_counter() - t0, failures)
        return run
    return wrap


@_criterion("C2", "oracle equivalence")
def criterion_oracle_equivalence(run):
    """2: the brute oracle accepts every certified complex, and on random
    complexes every certificate its search finds verifies."""
    failures = []
    memo = {}
    checked = 0
    for name, lattice, x, cert, complex_ in run.instances:
        if len(complex_.vertices) > 10:  # the criterion's own bound
            continue
        checked += 1
        if not brute_nonevasive(complex_, memo=memo):
            failures.append(f"{name}/{x}: brute oracle says evasive")
    nev_count = 0
    complexes = random_complexes()
    for name, complex_ in complexes:
        witness = brute_certificate(complex_, memo=memo)
        if witness is not None:
            nev_count += 1
            if not verify_certificate(complex_, witness).ok:
                failures.append(f"{name}: searched certificate fails verification")
    return (
        f"{checked} order complexes brute-checked nonevasive; "
        f"{len(complexes)} random complexes ({nev_count} nonevasive) agree "
        f"with certificate search"
    ), failures


@_criterion("C3", "collapse extraction")
def criterion_collapse_extraction(run):
    """3: extraction replays to one vertex with exactly (faces-1)/2 pairs."""
    failures = []
    for name, lattice, x, cert, complex_ in run.instances:
        try:
            seq = extract_collapses(cert, complex_)
        except NonevadeError as exc:
            failures.append(f"{name}/{x}: {exc}")
            continue
        faces = complex_.face_count()
        if len(seq.pairs) != (faces - 1) // 2 or faces % 2 != 1:
            failures.append(
                f"{name}/{x}: {len(seq.pairs)} pairs for {faces} faces"
            )
    return f"{len(run.instances)} collapse sequences replayed", failures


@_criterion("C4", "query bound")
def criterion_query_bound(run):
    """4: the strategy decides every hidden subset within |ground|-1 queries."""
    failures = []
    checked = 0
    for name, lattice, x, cert, complex_ in run.instances:
        ground = complex_.vertices
        if len(ground) > chain_game.GAME_CAP:
            continue
        checked += 1
        strategy = chain_game.compile_strategy(cert, ground)
        report = chain_game.exhaustive_check(strategy, ground, lattice.leq)
        if report.mismatches:
            failures.append(f"{name}/{x}: {report.mismatches} verdict mismatches")
        if report.max_queries > len(ground) - 1 and len(ground) > 0:
            failures.append(
                f"{name}/{x}: {report.max_queries} queries on ground "
                f"{len(ground)}"
            )
    return f"{checked} strategies exhausted, budget never exceeded", failures


@_criterion("C5", "Möbius vanishing")
def criterion_mobius_vanishing(run):
    """5: Möbius zero for noncomplemented lattices; equals reduced Euler."""
    failures = []
    noncomp = 0
    for name, lattice in run.corpus:
        mu = mobius(lattice)
        if len(lattice) > 1:  # P. Hall's theorem needs bottom < top
            euler = interior_euler(lattice)
            if euler != mu:
                failures.append(f"{name}: euler {euler} != mobius {mu}")
        if find_noncomplemented_element(lattice) is not None:
            noncomp += 1
            if mu != 0:
                failures.append(f"{name}: noncomplemented but mobius {mu}")
    return (
        f"{len(run.corpus)} lattices, {noncomp} noncomplemented, "
        f"euler = mobius throughout"
    ), failures


@_criterion("C6", "proof identities")
def criterion_proof_identities(run):
    """6: link/deletion identities and complement witnesses at every split."""
    failures = []
    splits = 0
    for name, lattice, x, cert, complex_ in run.instances:
        report = audit_certificate(lattice, x, cert)
        splits += report.splits
        if not report.ok:
            failures.extend(f"{name}/{x}: {f}" for f in report.failures[:3])
    return f"{splits} splits audited across {len(run.instances)} instances", failures


@_criterion("C7", "known-value spot checks")
def criterion_spot_checks():
    """7: frozen known values."""
    failures = []
    d12 = generate("divisor", 12)
    cert, _ = certify(d12, "2")
    obj = certificate_to_obj(cert)
    if not (obj.get("type") == "split" and obj.get("vertex") == "3"
            and obj.get("z") == "6"):
        failures.append(f"divisor-12 root split: {obj.get('vertex')}/{obj.get('z')}")
    b2 = generate("boolean", 2)
    b2_cert, _ = certify(b2, "a")
    if not (isinstance(b2_cert, Prune) and set(b2_cert.removed) == {"b"}
            and isinstance(b2_cert.child, Leaf) and b2_cert.child.vertex == "a"):
        failures.append(f"boolean-2 certificate shape: {certificate_to_obj(b2_cert)}")
    if mobius(generate("boolean", 3)) != -1:
        failures.append("mobius(boolean-3) != -1")
    if mobius(d12) != 0:
        failures.append("mobius(divisor-12) != 0")
    return "divisor-12 root, boolean-2 prune, mobius values", failures


def run_suite(random_count=500):
    run = CorpusRun(random_count=random_count)
    outcomes = [
        criterion_certification(run),
        criterion_oracle_equivalence(run),
        criterion_collapse_extraction(run),
        criterion_query_bound(run),
        criterion_mobius_vanishing(run),
        criterion_proof_identities(run),
        criterion_spot_checks(),
    ]
    total = len(run.instances) + len(run.certify_failures)
    return SuiteReport(outcomes, corpus_size=len(run.corpus), instance_count=total)
