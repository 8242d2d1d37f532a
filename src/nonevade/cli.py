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
from dataclasses import asdict, dataclass, field

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


@dataclass
class RunConfig:
    command: str
    input_path: str = None
    element: str = None
    seed: int = None
    caps: Caps = field(default_factory=Caps)
    output_path: str = None
    json_output: bool = False
    options: dict = field(default_factory=dict)


def _load_lattice(config):
    with open(config.input_path, "r", encoding="utf-8") as handle:
        return parse_lattice(handle.read())


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None


def _emit(config, obj, text_lines):
    if config.json_output:
        print(json.dumps(obj, indent=2))
    else:
        for line in text_lines:
            print(line)


def _write_doc(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")


def cmd_validate(config):
    lattice = _load_lattice(config)
    info = {
        "elements": len(lattice),
        "bottom": lattice.bottom,
        "top": lattice.top,
        "atoms": list(lattice.atoms),
        "coatoms": list(lattice.coatoms),
        "interior": len(lattice.interior()),
    }
    _emit(config, info, [
        f"lattice ok: {info['elements']} elements, "
        f"bottom={info['bottom']} top={info['top']}",
        f"atoms: {' '.join(info['atoms']) or '-'}",
        f"coatoms: {' '.join(info['coatoms']) or '-'}",
    ])
    return EXIT_OK


def cmd_complements(config):
    lattice = _load_lattice(config)
    co = lattice.complements(config.element)
    _emit(
        config,
        {"x": config.element, "complements": list(co)},
        [f"Co({config.element}) = {' '.join(co) if co else '(empty)'}"],
    )
    return EXIT_OK


def cmd_certify(config):
    lattice = _load_lattice(config)
    cert, trace = certify(lattice, config.element)
    complex_ = certificate_complex(lattice, config.element)
    result = verify_certificate(complex_, cert)
    obj = certificate_to_obj(cert)
    summary = {
        "vertices": len(complex_.vertices),
        "certificate_nodes": certificate_size(cert),
        "trace": trace.summary(),
        "verified": result.ok,
    }
    if config.output_path:
        _write_doc(config.output_path, obj)
    if config.json_output:
        payload = {"summary": summary}
        if not config.output_path:
            payload["certificate"] = obj
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"certified {config.element}: complex on {summary['vertices']} "
            f"vertices, {summary['certificate_nodes']} certificate nodes"
        )
        print(f"trace: {summary['trace']}")
        if config.output_path:
            print(f"certificate written to {config.output_path}")
        else:
            print(json.dumps(obj, indent=2))
    return EXIT_OK if result.ok else EXIT_SEMANTIC


def cmd_verify(config):
    lattice = _load_lattice(config)
    cert = certificate_from_obj(_load_json(config.options["cert"]))
    complex_ = certificate_complex(lattice, config.element)
    result = verify_certificate(complex_, cert)
    obj = {
        "verified": result.ok,
        "path": list(result.path),
        "reason": result.reason,
    }
    if result.ok:
        _emit(config, obj, [
            f"certificate verifies against the complex on "
            f"{len(complex_.vertices)} vertices"
        ])
        return EXIT_OK
    _emit(config, obj, [
        f"verification FAILED at {'/'.join(result.path) or 'root'}: {result.reason}"
    ])
    return EXIT_SEMANTIC


def cmd_collapse(config):
    lattice = _load_lattice(config)
    cert, _ = certify(lattice, config.element)
    complex_ = certificate_complex(lattice, config.element)
    seq = extract_collapses(cert, complex_)  # replay-checked internally
    obj = seq.to_obj()
    if config.output_path:
        _write_doc(config.output_path, obj)
    if config.json_output:
        payload = {"pairs": len(seq.pairs), "final": seq.final_vertex}
        if not config.output_path:
            payload["sequence"] = obj
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"collapse sequence: {len(seq.pairs)} free pairs, "
            f"final vertex {seq.final_vertex} (replay checked)"
        )
        if config.output_path:
            print(f"sequence written to {config.output_path}")
        else:
            print(json.dumps(obj, indent=2))
    return EXIT_OK


def cmd_strategy(config):
    lattice = _load_lattice(config)
    cert, _ = certify(lattice, config.element)
    ground = interior_members(lattice, config.element)
    strategy = compile_strategy(cert, ground)
    obj = strategy_to_obj(strategy)
    if config.output_path:
        _write_doc(config.output_path, obj)
    if config.json_output:
        payload = {"ground": list(ground), "max_queries": strategy_depth(strategy)}
        if not config.output_path:
            payload["strategy"] = obj
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"strategy over {len(ground)} vertices, "
            f"worst case {strategy_depth(strategy)} queries "
            f"(budget {max(len(ground) - 1, 0)})"
        )
        if config.output_path:
            print(f"strategy written to {config.output_path}")
        else:
            print(json.dumps(obj, indent=2))
    return EXIT_OK


def cmd_game(config):
    lattice = _load_lattice(config)
    cert, _ = certify(lattice, config.element)
    ground = interior_members(lattice, config.element)
    strategy = compile_strategy(cert, ground)
    if config.options.get("exhaustive"):
        report = exhaustive_check(strategy, ground, lattice.leq,
                                  cap=config.caps.game)
        obj = report.to_obj()
        _emit(config, obj, [
            f"ground {report.ground_size}, subsets {report.subsets_tested}, "
            f"mismatches {report.mismatches}, max queries {report.max_queries}",
            "histogram: " + " ".join(
                f"{k}:{v}" for k, v in sorted(report.histogram.items())
            ),
        ])
        return EXIT_OK if report.mismatches == 0 else EXIT_SEMANTIC
    raw = config.options.get("hidden") or ""
    hidden = [v for v in raw.split(",") if v]
    unknown = [v for v in hidden if v not in ground]
    if unknown:
        raise UnknownElement(f"hidden elements {unknown} are not in the ground set")
    verdict, transcript = play(strategy, hidden)
    obj = transcript.to_obj()
    lines = [f"ask {v}? {'yes' if a else 'no'}" for v, a in transcript.queries]
    lines.append(f"verdict: {'chain' if verdict else 'not a chain'}")
    _emit(config, obj, lines)
    return EXIT_OK


def cmd_mobius(config):
    lattice = _load_lattice(config)
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
    _emit(config, obj, [
        f"mobius = {mu}",
        f"reduced euler characteristic = {euler}",
        f"noncomplemented element: {witness if witness else '(none: complemented)'}",
    ])
    return EXIT_OK


def cmd_oracle(config):
    if config.options.get("complex"):
        complex_ = Complex.from_obj(_load_json(config.input_path))
    else:
        if config.element is None:
            raise ParseError("oracle needs -x unless --complex is given")
        lattice = _load_lattice(config)
        complex_ = certificate_complex(lattice, config.element)
    check = config.options["check"]
    if check == "nonevasive":
        verdict = brute_nonevasive(complex_, cap=config.caps.nonevasive)
        _emit(config, {"nonevasive": verdict},
              [f"nonevasive: {'yes' if verdict else 'no'}"])
        return EXIT_OK if verdict else EXIT_SEMANTIC
    seq = brute_collapsible(complex_, face_cap=config.caps.collapse_faces)
    if seq is None:
        _emit(config, {"collapsible": False}, ["collapsible: no"])
        return EXIT_SEMANTIC
    obj = {"collapsible": True, "pairs": len(seq.pairs), "final": seq.final_vertex}
    _emit(config, obj, [
        f"collapsible: yes ({len(seq.pairs)} pairs, final {seq.final_vertex})"
    ])
    return EXIT_OK


def cmd_gen(config):
    opts = config.options
    lattice = generate(
        opts["family"],
        opts.get("n"),
        p=opts.get("p"),
        seed=config.seed,
        left=opts.get("left"),
        right=opts.get("right"),
    )
    text = format_lattice(lattice, as_json=config.json_output)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(lattice)} elements to {config.output_path}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_suite(config):
    report = suite_mod.run_suite(
        random_count=config.options.get("random_count", 500),
        nonevasive_cap=config.caps.nonevasive,
        game_cap=config.caps.game,
    )
    if config.json_output:
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


def _config_from_args(args):
    caps = Caps.resolve({
        "nonevasive": getattr(args, "cap_nonevasive", None),
        "game": getattr(args, "cap_game", None),
        "collapse_faces": getattr(args, "cap_collapse_faces", None),
    })
    options = {}
    for key in ("cert", "exhaustive", "hidden", "complex", "check",
                "family", "n", "p", "left", "right", "random_count"):
        if hasattr(args, key):
            options[key] = getattr(args, key)
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "file", None),
        element=getattr(args, "element", None),
        seed=getattr(args, "seed", None),
        caps=caps,
        output_path=getattr(args, "output", None),
        json_output=args.json,
        options=options,
    )


def _report_error(exc, json_output):
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if json_output:
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    json_output = getattr(args, "json", False)
    try:
        config = _config_from_args(args)
        return _HANDLERS[args.command](config)
    except _USAGE_ERRORS as exc:
        _report_error(exc, json_output)
        return EXIT_USAGE
    except NonevadeError as exc:
        _report_error(exc, json_output)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    raise SystemExit(main())
