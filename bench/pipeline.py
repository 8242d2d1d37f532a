"""One benchmark instance, end to end, with every output checked.

``certify_instance`` runs a (lattice text, x) pair through the whole
pipeline: parse, certify, the certified complex, verify, collapse
extraction, a JSON round trip of the certificate, strategy compilation, the
exhaustive chain game, the audit and the brute-force oracles.
``validate_instance`` parses a big root lattice and computes the
complements of every element and its Möbius value.  Both call the library
only through ``call(layer, fn, *args)`` so that a traced run can time each
call, and both return a digest of their outputs plus output-derived
counters.  Any failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import hashlib
import json

import nonevade as nv

#: Caps for the exhaustive game and the brute-force oracles.  The game cap
#: is the library default; the oracle caps are lower than the defaults so
#: that these exponential searches, whose cost varies most from lattice to
#: lattice, stay a modest share of the corpus.
GAME_CAP = 16
NONEVASIVE_CAP = 9
COLLAPSE_FACE_CAP = 128

#: Output-derived counters, in the order each instance function returns them.
CERTIFY_COUNTERS = (
    "lattice.elements", "certify.nodes", "certify.splits", "certify.prunes",
    "certify.json_bytes", "complexes.faces", "complexes.pairs",
    "chain_game.subsets", "oracles.memo_entries",
)
VALIDATE_COUNTERS = ("lattice.elements", "lattice.complement_pairs")


class CheckFailed(Exception):
    """An output of the library did not pass one of the benchmark's checks."""


def _check(ok, what):
    if not ok:
        raise CheckFailed(what)


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _roundtrip(cert):
    text = canonical_json(nv.certificate_to_obj(cert))
    return text, nv.certificate_from_obj(json.loads(text))


def _interior_euler(lattice):
    return nv.order_complex(lattice.interior_set()).reduced_euler()


def certify_instance(inst, call):
    lattice = call("lattice.parse", nv.parse_lattice, inst.text)
    x = inst.x
    cert, _ = call("certify.certify", nv.certify, lattice, x)
    complex_ = call("complexes.order_complex", nv.certificate_complex, lattice, x)
    verdict = call("certify.verify", nv.verify_certificate, complex_, cert)
    _check(verdict.ok, f"verify_certificate failed at {verdict.path}: {verdict.reason}")

    sequence = call("certify.extract", nv.extract_collapses, cert, complex_)
    faces = complex_.face_count()
    _check(faces % 2 == 1 and len(sequence.pairs) == (faces - 1) // 2,
           f"{len(sequence.pairs)} collapse pairs for {faces} faces")

    cert_json, back = call("certify.roundtrip", _roundtrip, cert)
    _check(back == cert, "certificate changed across a JSON round trip")

    ground = complex_.vertices
    strategy = call("chain_game.compile", nv.compile_strategy, cert, ground)
    subsets = 0
    if len(ground) <= GAME_CAP:
        game = call("chain_game.exhaustive", nv.exhaustive_check, strategy, ground,
                    lattice.leq, cap=GAME_CAP)
        _check(game.mismatches == 0, f"{game.mismatches} chain-game mismatches")
        _check(game.max_queries <= len(ground) - 1,
               f"{game.max_queries} queries on a ground of {len(ground)}")
        subsets = game.subsets_tested

    audit = call("certify.audit", nv.audit_certificate, lattice, x, cert)
    _check(audit.ok, f"audit failed: {audit.failures[:3]}")

    memo = {}
    if len(ground) <= NONEVASIVE_CAP:
        _check(call("oracles.nonevasive", nv.brute_nonevasive, complex_,
                    cap=NONEVASIVE_CAP, memo=memo),
               "brute-force oracle says the complex is evasive")
    if faces <= COLLAPSE_FACE_CAP:
        witness = call("oracles.collapsible", nv.brute_collapsible, complex_,
                       face_cap=COLLAPSE_FACE_CAP)
        _check(witness is not None and len(witness.pairs) == len(sequence.pairs),
               "backtracking search found no full collapse")
    mobius = call("oracles.mobius", nv.mobius, lattice)
    euler = call("complexes.order_complex", _interior_euler, lattice)
    _check(mobius == euler, f"Möbius value {mobius} but reduced Euler {euler}")

    digest = hashlib.sha256()
    for part in (cert_json, canonical_json(sequence.to_obj()),
                 canonical_json(nv.strategy_to_obj(strategy))):
        digest.update(part.encode())
        digest.update(b"\n")
    counters = (
        len(lattice), audit.splits + audit.prunes + audit.leaves, audit.splits,
        audit.prunes, len(cert_json), faces, len(sequence.pairs), subsets,
        len(memo),
    )
    return digest.hexdigest(), counters


def _all_complements(lattice):
    return {e: lattice.complements(e) for e in lattice.elements}


def validate_instance(inst, call):
    lattice = call("lattice.parse", nv.parse_lattice, inst.text)
    complements = call("lattice.complements", _all_complements, lattice)
    bottom, top = lattice.bottom, lattice.top
    _check(complements[bottom] == (top,) and complements[top] == (bottom,),
           "the bounds are not each other's only complement")
    pairs = 0
    for e, others in complements.items():
        pairs += len(others)
        for y in others:
            _check(e in complements[y], f"{y} complements {e} but not back")
        if inst.complements is not None and e not in (bottom, top):
            _check(len(others) == inst.complements,
                   f"{e} has {len(others)} complements, expected {inst.complements}")

    mobius = call("oracles.mobius", nv.mobius, lattice)
    _check(mobius == inst.mobius, f"Möbius value {mobius}, expected {inst.mobius}")

    text = call("lattice.format", nv.format_lattice, lattice)
    _check(sorted(lattice.elements) == _element_names(inst.text),
           "parse_lattice does not keep the elements of its input")
    _check(_element_names(text) == _element_names(inst.text)
           and _cover_lines(text) == _cover_lines(inst.text),
           "format_lattice does not reproduce the parsed elements and covers")

    digest = hashlib.sha256(text.encode())
    digest.update(canonical_json(complements).encode())
    return digest.hexdigest(), (len(lattice), pairs)


def _element_names(text):
    return sorted(text.split("\n", 1)[0].split()[1:])


def _cover_lines(text):
    return sorted(line for line in text.splitlines() if line.startswith("cover:"))
