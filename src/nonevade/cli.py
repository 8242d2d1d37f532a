"""Command-line surface: parse, generate, certify, verify, collapse,
compile strategies, play the chain game, and run the corpus cross-check.

Exit codes: 0 success, 1 semantic failure (not a lattice, verification
failed, mismatch found, negative oracle verdict), 2 usage/parse/IO
errors.  With --json, results go to stdout and errors to stderr as JSON;
payloads and errors never share a stream.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

from . import chain_game, oracles, suite as suite_mod
from .certify import (
    certificate_complex,
    certificate_from_obj,
    certificate_to_obj,
    certificate_size,
    certify,
    extract_collapses,
    interior_members,
    verify_certificate,
)
from .chain_game import (
    compile_strategy,
    exhaustive_check,
    play,
    strategy_depth,
    strategy_to_obj,
)
from .complexes import Complex, order_complex
from .errors import (
    NonevadeError,
    ParamOutOfRange,
    ParseError,
    UnknownElement,
    UnknownFamily,
)
from .lattice import format_lattice, generate, parse_lattice
from .oracles import brute_collapsible, brute_nonevasive, find_noncomplemented_element, mobius

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2

_USAGE_ERRORS = (ParseError, UnknownFamily, ParamOutOfRange, OSError)


@dataclass(frozen=True)
class Caps:
    """Brute-force limits; precedence is flag > NONEVADE_CAPS env > default."""

    nonevasive: int = oracles.NONEVASIVE_CAP
    game: int = chain_game.GAME_CAP
    collapse_faces: int = oracles.COLLAPSE_FACE_CAP

    @classmethod
    def resolve(cls, flags):
        values = asdict(cls())
        env = os.environ.get("NONEVADE_CAPS", "")
        if env:
            for item in env.split(","):
                item = item.strip()
                if not item:
                    continue
                key, sep, raw = item.partition("=")
                key = key.strip().replace("-", "_")
                if not sep or key not in values:
                    raise ParseError(f"bad NONEVADE_CAPS entry {item!r}")
                try:
                    values[key] = int(raw)
                except ValueError:
                    raise ParseError(f"bad NONEVADE_CAPS value {item!r}") from None
        for key, flag in flags.items():
            if flag is not None:
                values[key] = flag
        caps = cls(**values)
        if caps.nonevasive <= 0 or caps.game <= 0 or caps.collapse_faces <= 0:
            raise ParseError("caps must be positive")
        return caps


def _read_text(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _load_lattice(args):
    return parse_lattice(_read_text(args.file))


def _load_json(path):
    try:
        return json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def _emit(args, obj, text_lines):
    if args.json:
        print(json.dumps(obj, indent=2))
    else:
        for line in text_lines:
            print(line)


def _write_doc(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")


def _emit_document(args, key, obj, payload, text_lines):
    """Write the document ``obj`` to -o if given, then report: with --json
    the payload, holding the document under ``key`` unless it went to a
    file; otherwise the text lines, then the document or where it went."""
    if args.output:
        _write_doc(args.output, obj)
        text_lines.append(f"{key} written to {args.output}")
    elif args.json:
        payload[key] = obj
    else:
        text_lines.append(json.dumps(obj, indent=2))
    _emit(args, payload, text_lines)


def cmd_validate(args):
    lattice = _load_lattice(args)
    info = {
        "elements": len(lattice),
        "bottom": lattice.bottom,
        "top": lattice.top,
        "atoms": list(lattice.atoms),
        "coatoms": list(lattice.coatoms),
        "interior": len(lattice.interior()),
    }
    _emit(args, info, [
        f"lattice ok: {info['elements']} elements, "
        f"bottom={info['bottom']} top={info['top']}",
        f"atoms: {' '.join(info['atoms']) or '-'}",
        f"coatoms: {' '.join(info['coatoms']) or '-'}",
    ])
    return EXIT_OK


def cmd_complements(args):
    lattice = _load_lattice(args)
    co = lattice.complements(args.element)
    _emit(
        args,
        {"x": args.element, "complements": list(co)},
        [f"Co({args.element}) = {' '.join(co) if co else '(empty)'}"],
    )
    return EXIT_OK


def cmd_certify(args):
    lattice = _load_lattice(args)
    cert, trace = certify(lattice, args.element)
    complex_ = certificate_complex(lattice, args.element)
    result = verify_certificate(complex_, cert)
    summary = {
        "vertices": len(complex_.vertices),
        "certificate_nodes": certificate_size(cert),
        "trace": trace.summary(),
        "verified": result.ok,
    }
    _emit_document(args, "certificate", certificate_to_obj(cert),
                   {"summary": summary}, [
        f"certified {args.element}: complex on {summary['vertices']} "
        f"vertices, {summary['certificate_nodes']} certificate nodes",
        f"trace: {summary['trace']}",
    ])
    return EXIT_OK if result.ok else EXIT_SEMANTIC


def cmd_verify(args):
    lattice = _load_lattice(args)
    cert = certificate_from_obj(_load_json(args.cert))
    complex_ = certificate_complex(lattice, args.element)
    result = verify_certificate(complex_, cert)
    obj = {
        "verified": result.ok,
        "path": list(result.path),
        "reason": result.reason,
    }
    if result.ok:
        _emit(args, obj, [
            f"certificate verifies against the complex on "
            f"{len(complex_.vertices)} vertices"
        ])
        return EXIT_OK
    _emit(args, obj, [
        f"verification FAILED at {'/'.join(result.path) or 'root'}: {result.reason}"
    ])
    return EXIT_SEMANTIC


def cmd_collapse(args):
    lattice = _load_lattice(args)
    cert, _ = certify(lattice, args.element)
    complex_ = certificate_complex(lattice, args.element)
    seq = extract_collapses(cert, complex_)  # replay-checked internally
    _emit_document(args, "sequence", seq.to_obj(),
                   {"pairs": len(seq.pairs), "final": seq.final_vertex}, [
        f"collapse sequence: {len(seq.pairs)} free pairs, "
        f"final vertex {seq.final_vertex} (replay checked)",
    ])
    return EXIT_OK


def cmd_strategy(args):
    lattice = _load_lattice(args)
    cert, _ = certify(lattice, args.element)
    ground = interior_members(lattice, args.element)
    strategy = compile_strategy(cert, ground)
    depth = strategy_depth(strategy)
    _emit_document(args, "strategy", strategy_to_obj(strategy),
                   {"ground": list(ground), "max_queries": depth}, [
        f"strategy over {len(ground)} vertices, worst case {depth} queries "
        f"(budget {max(len(ground) - 1, 0)})",
    ])
    return EXIT_OK


def cmd_game(args):
    lattice = _load_lattice(args)
    cert, _ = certify(lattice, args.element)
    ground = interior_members(lattice, args.element)
    strategy = compile_strategy(cert, ground)
    if args.exhaustive:
        report = exhaustive_check(strategy, ground, lattice.leq,
                                  cap=args.caps.game)
        obj = report.to_obj()
        _emit(args, obj, [
            f"ground {report.ground_size}, subsets {report.subsets_tested}, "
            f"mismatches {report.mismatches}, max queries {report.max_queries}",
            "histogram: " + " ".join(
                f"{k}:{v}" for k, v in sorted(report.histogram.items())
            ),
        ])
        return EXIT_OK if report.mismatches == 0 else EXIT_SEMANTIC
    raw = args.hidden or ""
    hidden = [v for v in raw.split(",") if v]
    unknown = [v for v in hidden if v not in ground]
    if unknown:
        raise UnknownElement(f"hidden elements {unknown} are not in the ground set")
    verdict, transcript = play(strategy, hidden)
    obj = transcript.to_obj()
    lines = [f"ask {v}? {'yes' if a else 'no'}" for v, a in transcript.queries]
    lines.append(f"verdict: {'chain' if verdict else 'not a chain'}")
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_mobius(args):
    lattice = _load_lattice(args)
    mu = mobius(lattice)
    interior = lattice.interior()
    if interior:
        euler = order_complex(lattice.interior_set()).reduced_euler()
    else:
        euler = -1
    witness = find_noncomplemented_element(lattice)
    obj = {
        "mobius": mu,
        "reduced_euler": euler,
        "noncomplemented_element": witness,
    }
    _emit(args, obj, [
        f"mobius = {mu}",
        f"reduced euler characteristic = {euler}",
        f"noncomplemented element: {witness if witness else '(none: complemented)'}",
    ])
    return EXIT_OK


def cmd_oracle(args):
    if args.complex:
        complex_ = Complex.from_obj(_load_json(args.file))
    else:
        if args.element is None:
            raise ParseError("oracle needs -x unless --complex is given")
        lattice = _load_lattice(args)
        complex_ = certificate_complex(lattice, args.element)
    if args.check == "nonevasive":
        verdict = brute_nonevasive(complex_, cap=args.caps.nonevasive)
        _emit(args, {"nonevasive": verdict},
              [f"nonevasive: {'yes' if verdict else 'no'}"])
        return EXIT_OK if verdict else EXIT_SEMANTIC
    seq = brute_collapsible(complex_, face_cap=args.caps.collapse_faces)
    if seq is None:
        _emit(args, {"collapsible": False}, ["collapsible: no"])
        return EXIT_SEMANTIC
    obj = {"collapsible": True, "pairs": len(seq.pairs), "final": seq.final_vertex}
    _emit(args, obj, [
        f"collapsible: yes ({len(seq.pairs)} pairs, final {seq.final_vertex})"
    ])
    return EXIT_OK


def cmd_gen(args):
    lattice = generate(args.family, args.n, p=args.p, seed=args.seed,
                       left=args.left, right=args.right)
    text = format_lattice(lattice, as_json=args.json)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(lattice)} elements to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_suite(args):
    report = suite_mod.run_suite(
        random_count=args.random_count,
        nonevasive_cap=args.caps.nonevasive,
        game_cap=args.caps.game,
    )
    if args.json:
        print(json.dumps(report.to_obj(), indent=2))
    else:
        print(report.format_text())
    return EXIT_OK if report.ok else EXIT_SEMANTIC


_HANDLERS = {
    "validate": cmd_validate,
    "complements": cmd_complements,
    "certify": cmd_certify,
    "verify": cmd_verify,
    "collapse": cmd_collapse,
    "strategy": cmd_strategy,
    "game": cmd_game,
    "mobius": cmd_mobius,
    "oracle": cmd_oracle,
    "gen": cmd_gen,
    "suite": cmd_suite,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nonevade",
        description=(
            "Certify order complexes of complement-deleted lattices as "
            "nonevasive; extract collapse sequences and chain-query strategies."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def file_cmd(name, help_, element=True, output=False):
        p = sub.add_parser(name, parents=[common], help=help_)
        p.add_argument("file", help="lattice file (text or JSON)")
        if element:
            p.add_argument("-x", required=True, dest="element",
                           help="interior element label")
        if output:
            p.add_argument("-o", "--output", help="write the result document here")
        return p

    file_cmd("validate", "check a lattice file", element=False)
    file_cmd("complements", "print the complement set of an element")
    file_cmd("certify", "emit a nonevasiveness certificate", output=True)
    verify_p = file_cmd("verify", "check a certificate against the complex")
    verify_p.add_argument("--cert", required=True, help="certificate JSON file")
    file_cmd("collapse", "emit a replay-checked collapse sequence", output=True)
    file_cmd("strategy", "compile the chain-game query strategy", output=True)
    game_p = file_cmd("game", "play the chain game")
    mode = game_p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true",
                      help="test all hidden subsets")
    mode.add_argument("--hidden", help="comma-separated hidden subset "
                                       "(empty string for the empty set)")
    game_p.add_argument("--cap-game", type=int, dest="cap_game")
    file_cmd("mobius", "Möbius value and reduced Euler characteristic",
             element=False)
    oracle_p = sub.add_parser("oracle", parents=[common],
                              help="brute-force nonevasiveness/collapsibility")
    oracle_p.add_argument("file", help="lattice file, or complex JSON with --complex")
    oracle_p.add_argument("-x", dest="element", help="interior element label")
    oracle_p.add_argument("--complex", action="store_true",
                          help="treat FILE as a complex document")
    oracle_p.add_argument("--check", choices=("nonevasive", "collapsible"),
                          required=True)
    oracle_p.add_argument("--cap-nonevasive", type=int, dest="cap_nonevasive")
    oracle_p.add_argument("--cap-faces", type=int, dest="cap_collapse_faces")
    gen_p = sub.add_parser("gen", parents=[common], help="generate a lattice file")
    gen_p.add_argument("family",
                       help="chain | boolean | divisor | partition | product | random")
    gen_p.add_argument("--n", type=int, help="size parameter")
    gen_p.add_argument("--p", type=float, help="edge probability (random)")
    gen_p.add_argument("--seed", type=int, help="random seed")
    gen_p.add_argument("--left", help="product left factor, e.g. chain:3")
    gen_p.add_argument("--right", help="product right factor")
    gen_p.add_argument("-o", "--output", help="write the lattice file here")
    suite_p = sub.add_parser("suite", parents=[common],
                             help="run the full corpus cross-check")
    suite_p.add_argument("--cap-nonevasive", type=int, dest="cap_nonevasive")
    suite_p.add_argument("--cap-game", type=int, dest="cap_game")
    suite_p.add_argument("--random-count", type=int, default=500,
                         help="number of seeded random lattices")
    return parser


def _report_error(exc, json_output):
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if json_output:
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.caps = Caps.resolve({
            "nonevasive": getattr(args, "cap_nonevasive", None),
            "game": getattr(args, "cap_game", None),
            "collapse_faces": getattr(args, "cap_collapse_faces", None),
        })
        return _HANDLERS[args.command](args)
    except _USAGE_ERRORS as exc:
        _report_error(exc, args.json)
        return EXIT_USAGE
    except NonevadeError as exc:
        _report_error(exc, args.json)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    raise SystemExit(main())
