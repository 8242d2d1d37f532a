"""Command-line surface: parse, generate, certify, verify, collapse,
compile strategies, play the chain game, and run the corpus cross-check.

Exit codes: 0 success, 1 semantic failure (not a lattice, verification
failed, mismatch found, negative oracle verdict), 2 usage/parse/IO
errors.  With --json, results go to stdout and errors, usage errors
included, to stderr as JSON; payloads and errors never share a stream.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from itertools import chain

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
from .complexes import Complex
from .errors import (
    NonevadeError,
    ParamOutOfRange,
    ParseError,
    UnknownElement,
    UnknownFamily,
)
from .lattice import _decode_json, format_lattice, generate, parse_lattice
from .oracles import brute_collapsible, brute_nonevasive, find_noncomplemented_element, mobius

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2

_USAGE_ERRORS = (ParseError, UnknownFamily, ParamOutOfRange, OSError)

#: The encoder of every JSON payload and document the CLI writes.
_JSON = json.JSONEncoder(indent=2)


@dataclass(frozen=True)
class Caps:
    """Brute-force limits; precedence is flag > NONEVADE_CAPS env > default."""

    nonevasive: int = oracles.NONEVASIVE_CAP
    game: int = chain_game.GAME_CAP
    collapse_faces: int = oracles.COLLAPSE_FACE_CAP

    @classmethod
    def resolve(cls, args):
        """The caps for parsed ``args``; the flag for a cap ``key`` is the
        option ``cap_<key>``, on the commands that declare it."""
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
        for key in values:
            flag = getattr(args, "cap_" + key, None)
            if flag is not None:
                values[key] = flag
        if min(values.values()) <= 0:
            raise ParseError("caps must be positive")
        return cls(**values)


def _read_text(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _load_lattice(args):
    return parse_lattice(_read_text(args.file))


def _load_json(path):
    return _decode_json(_read_text(path), f"{path}: invalid JSON")


def _certified(args):
    """The lattice, the certificate of its element -x and the trace."""
    lattice = _load_lattice(args)
    return (lattice, *certify(lattice, args.element))


def _write(path, chunks):
    """Write the strings ``chunks`` to the file ``path`` as they come."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(chunks)


def _emit(args, obj, text_lines):
    """Print the payload: ``obj`` as JSON with --json, else the text lines."""
    print(_JSON.encode(obj) if args.json else "\n".join(text_lines))


def _emit_document(args, key, obj, payload, text_lines):
    """Write the document ``obj`` to -o if given, then report: with --json
    the payload, holding the document under ``key`` unless it went to a
    file; otherwise the text lines, then the document or where it went."""
    if args.output:
        _write(args.output, chain(_JSON.iterencode(obj), "\n"))
        text_lines.append(f"{key} written to {args.output}")
    elif args.json:
        payload[key] = obj
    else:
        text_lines.append(_JSON.encode(obj))
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
    lattice, cert, trace = _certified(args)
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
    _emit(args, obj, [
        f"certificate verifies against the complex on {len(complex_.vertices)} vertices"
        if result.ok else
        f"verification FAILED at {'/'.join(result.path) or 'root'}: {result.reason}"
    ])
    return EXIT_OK if result.ok else EXIT_SEMANTIC


def cmd_collapse(args):
    lattice, cert, _ = _certified(args)
    complex_ = certificate_complex(lattice, args.element)
    seq = extract_collapses(cert, complex_)  # replay-checked internally
    _emit_document(args, "sequence", seq.to_obj(),
                   {"pairs": len(seq.pairs), "final": seq.final_vertex}, [
        f"collapse sequence: {len(seq.pairs)} free pairs, "
        f"final vertex {seq.final_vertex} (replay checked)",
    ])
    return EXIT_OK


def cmd_strategy(args):
    lattice, cert, _ = _certified(args)
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
    ground = interior_members(lattice, args.element)
    if args.exhaustive:
        chain_game.check_game_cap(len(ground), args.caps.game)  # before certifying
    strategy = compile_strategy(certify(lattice, args.element)[0], ground)
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
    hidden = [v for v in args.hidden.split(",") if v]
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
    euler = oracles.interior_euler(lattice)
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
        _write(args.output, [text])
        _emit(args, {"elements": len(lattice), "output": args.output},
              [f"wrote {len(lattice)} elements to {args.output}"])
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_suite(args):
    report = suite_mod.run_suite(random_count=args.random_count)
    _emit(args, report.to_obj(), [report.format_text()])
    return EXIT_OK if report.ok else EXIT_SEMANTIC


class _UsageError(Exception):
    """An argparse usage error, as (parser, message), for ``main`` to report."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def build_parser():
    parser = _Parser(
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

    def command(handler, help_, *, file="lattice file (text or JSON)",
                element=True, output=False):
        """Declare the subcommand that ``handler`` (``cmd_<name>``) runs; a
        None ``file`` declares no FILE, and ``element`` a required -x."""
        p = sub.add_parser(handler.__name__[len("cmd_"):], parents=[common],
                           help=help_)
        p.set_defaults(handler=handler)
        if file:
            p.add_argument("file", help=file)
        if element:
            p.add_argument("-x", required=True, dest="element",
                           help="interior element label")
        if output:
            p.add_argument("-o", "--output", help="write the result document here")
        return p

    command(cmd_validate, "check a lattice file", element=False)
    command(cmd_complements, "print the complement set of an element")
    command(cmd_certify, "emit a nonevasiveness certificate", output=True)
    verify_p = command(cmd_verify, "check a certificate against the complex")
    verify_p.add_argument("--cert", required=True, help="certificate JSON file")
    command(cmd_collapse, "emit a replay-checked collapse sequence", output=True)
    command(cmd_strategy, "compile the chain-game query strategy", output=True)
    game_p = command(cmd_game, "play the chain game")
    mode = game_p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true",
                      help="test all hidden subsets")
    mode.add_argument("--hidden", help="comma-separated hidden subset "
                                       "(empty string for the empty set)")
    game_p.add_argument("--cap-game", type=int)
    command(cmd_mobius, "Möbius value and reduced Euler characteristic",
            element=False)
    oracle_p = command(cmd_oracle, "brute-force nonevasiveness/collapsibility",
                       file="lattice file, or complex JSON with --complex",
                       element=False)
    oracle_p.add_argument("-x", dest="element", help="interior element label")
    oracle_p.add_argument("--complex", action="store_true",
                          help="treat FILE as a complex document")
    oracle_p.add_argument("--check", choices=("nonevasive", "collapsible"),
                          required=True)
    oracle_p.add_argument("--cap-nonevasive", type=int)
    oracle_p.add_argument("--cap-faces", type=int, dest="cap_collapse_faces")
    gen_p = command(cmd_gen, "generate a lattice file", file=None, element=False)
    gen_p.add_argument("family",
                       help="chain | boolean | divisor | partition | product | random")
    gen_p.add_argument("--n", type=int, help="size parameter")
    gen_p.add_argument("--p", type=float, help="edge probability (random)")
    gen_p.add_argument("--seed", type=int, help="random seed")
    gen_p.add_argument("--left", help="product left factor, e.g. chain:3")
    gen_p.add_argument("--right", help="product right factor")
    gen_p.add_argument("-o", "--output", help="write the lattice file here")
    suite_p = command(cmd_suite, "run the full corpus cross-check",
                      file=None, element=False)
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
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        # argparse reports and exits unless --json (or an abbreviation) is given
        parser, message = exc.args
        if not any(len(a) > 2 and "--json".startswith(a) for a in argv):
            argparse.ArgumentParser.error(parser, message)
        _report_error(ParseError(message), True)
        return EXIT_USAGE
    try:
        args.caps = Caps.resolve(args)
        return args.handler(args)
    except (NonevadeError, OSError) as exc:
        _report_error(exc, args.json)
        return EXIT_USAGE if isinstance(exc, _USAGE_ERRORS) else EXIT_SEMANTIC


if __name__ == "__main__":
    raise SystemExit(main())
