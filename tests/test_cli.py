import hashlib
import json
import re
from pathlib import Path

import pytest

from nonevade.cli import main
from nonevade.corpus import BOWTIE_TEXT

D12 = """\
elements: 1 2 3 4 6 12
cover: 1 2
cover: 1 3
cover: 2 4
cover: 2 6
cover: 3 6
cover: 4 12
cover: 6 12
"""


@pytest.fixture
def d12_file(tmp_path):
    path = tmp_path / "d12.lat"
    path.write_text(D12)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, d12_file):
    code, out, err = run(capsys, "validate", d12_file)
    assert code == 0
    assert "6 elements" in out and "atoms: 2 3" in out


def test_validate_json(capsys, d12_file):
    code, out, err = run(capsys, "validate", d12_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["bottom"] == "1" and doc["coatoms"] == ["4", "6"]


def test_validate_bowtie_semantic_failure(capsys, tmp_path):
    path = tmp_path / "bowtie.lat"
    path.write_text(BOWTIE_TEXT)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "NotALattice" in err


def test_validate_bad_file_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.lat"
    path.write_text("elements 1 2\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2


@pytest.mark.parametrize("doc, entry", [
    ({"elements": ["a"], "covers": 5}, "bad covers 5"),
    ({"elements": ["a", "b"], "covers": [["a", ["b"]]]}, "bad cover entry"),
])
def test_validate_malformed_json_covers_usage_error(capsys, tmp_path, doc, entry):
    path = tmp_path / "l.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path), "--json")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParseError" and error["message"].startswith(entry)


@pytest.mark.parametrize("text", [
    '{"elements": ' + "[" * 100_000 + "]" * 100_000 + "}",
    '{"elements": ["a"], "covers": [[' + "1" * 5000 + "]]}",
], ids=["deep", "long-int"])
def test_validate_undecodable_lattice_json_is_usage_error(capsys, tmp_path, text):
    path = tmp_path / "l.json"
    path.write_text(text)
    code, out, err = run(capsys, "validate", str(path), "--json")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith("invalid JSON lattice document: ")


USAGE_ERRORS = [
    (["certify", "{d12}"], "the following arguments are required: -x"),
    (["gen", "boolean", "--n", "x"], "argument --n: invalid int value: 'x'"),
]


@pytest.mark.parametrize("flag", ["--json", "--jso", "--j"])
@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_errors_follow_json(capsys, d12_file, argv, message, flag):
    code, out, err = run(capsys, *(a.format(d12=d12_file) for a in argv), flag)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {"type": "ParseError", "message": message}}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_errors_without_json_are_argparse_reports(capsys, d12_file, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([a.format(d12=d12_file) for a in argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith(f"usage: nonevade {argv[0]} ")
    assert err.endswith(f"\nnonevade {argv[0]}: error: {message}\n")


@pytest.mark.parametrize("loader", ["lattice", "complex", "certificate"])
def test_a_file_that_is_not_utf8_is_usage_error(capsys, d12_file, tmp_path, loader):
    # the lattice loader reads a UTF-16 byte-order mark, the JSON loader a
    # document with a trailing byte that is not UTF-8
    path = tmp_path / "bad.bin"
    if loader == "lattice":
        path.write_bytes(b"\xff\xfe")
        argv = ["validate", str(path)]
    elif loader == "complex":
        path.write_bytes(json.dumps({"vertices": ["a"], "facets": [["a"]]}).encode()
                         + b"\xff")
        argv = ["oracle", str(path), "--complex", "--check", "nonevasive"]
    else:
        run(capsys, "certify", d12_file, "-x", "2", "-o", str(path))
        path.write_bytes(path.read_bytes() + b"\xff")
        argv = ["verify", d12_file, "-x", "2", "--cert", str(path)]
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith(f"{path}: not UTF-8 text")


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path / "nope.lat"))
    assert code == 2


def test_complements(capsys, d12_file):
    code, out, _ = run(capsys, "complements", d12_file, "-x", "4")
    assert code == 0 and "Co(4) = 3" in out
    code, out, _ = run(capsys, "complements", d12_file, "-x", "2")
    assert code == 0 and "(empty)" in out


def test_complements_unknown_element(capsys, d12_file):
    code, out, err = run(capsys, "complements", d12_file, "-x", "9")
    assert code == 1
    assert "UnknownElement" in err


def test_certify_roundtrip(capsys, d12_file, tmp_path):
    cert_path = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "certify", d12_file, "-x", "2", "-o", cert_path)
    assert code == 0
    doc = json.loads(Path(cert_path).read_text())
    assert doc["vertex"] == "3" and doc["z"] == "6"
    code, out, _ = run(capsys, "verify", d12_file, "-x", "2", "--cert", cert_path)
    assert code == 0 and "verifies" in out


def test_verify_mismatched_certificate(capsys, d12_file, tmp_path):
    cert_path = str(tmp_path / "cert.json")
    run(capsys, "certify", d12_file, "-x", "2", "-o", cert_path)
    code, out, err = run(capsys, "verify", d12_file, "-x", "4", "--cert", cert_path)
    assert code == 1
    assert "FAILED" in out


def test_verify_deeply_nested_certificate_is_usage_error(capsys, d12_file, tmp_path):
    depth = 1500
    text = ('{"type": "prune", "removed": [], "child": ' * depth
            + '{"type": "leaf", "vertex": "2"}' + "}" * depth)
    cert_path = tmp_path / "deep.json"
    cert_path.write_text(text)
    code, out, err = run(capsys, "verify", d12_file, "-x", "2", "--json",
                         "--cert", str(cert_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("cert", [
    {"type": "prune", "removed": [["x"]], "child": {"type": "leaf", "vertex": "2"}},
    {"type": "split", "vertex": ["3"], "mode": "case1_atom", "z": "6",
     "dl": {"type": "leaf", "vertex": "2"}, "lk": {"type": "leaf", "vertex": "2"}},
    {"type": "prune", "removed": "ab", "child": {"type": "leaf", "vertex": "2"}},
])
def test_verify_non_string_label_is_usage_error(capsys, d12_file, tmp_path, cert):
    cert_path = tmp_path / "bad.json"
    cert_path.write_text(json.dumps(cert))
    code, out, err = run(capsys, "verify", d12_file, "-x", "2", "--json",
                         "--cert", str(cert_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_verify_certificate_missing_a_child_is_usage_error(capsys, d12_file, tmp_path):
    cert_path = tmp_path / "bad.json"
    cert_path.write_text(json.dumps({
        "type": "split", "vertex": "3", "mode": "case1_atom", "z": "6",
        "dl": {"type": "leaf", "vertex": "2"}}))
    code, out, err = run(capsys, "verify", d12_file, "-x", "2", "--json",
                         "--cert", str(cert_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "ParseError", "message": "bad certificate node: 'lk' is missing"}


def test_certificate_file_byte_stable(capsys, d12_file, tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    run(capsys, "certify", d12_file, "-x", "2", "-o", str(first))
    run(capsys, "certify", d12_file, "-x", "2", "-o", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_collapse(capsys, d12_file, tmp_path):
    seq_path = str(tmp_path / "seq.json")
    code, out, _ = run(capsys, "collapse", d12_file, "-x", "2", "-o", seq_path)
    assert code == 0 and "3 free pairs" in out
    doc = json.loads(Path(seq_path).read_text())
    assert doc["final"] == "2" and len(doc["pairs"]) == 3


def test_strategy(capsys, d12_file, tmp_path):
    strat_path = str(tmp_path / "strat.json")
    code, out, _ = run(capsys, "strategy", d12_file, "-x", "2", "-o", strat_path)
    assert code == 0
    doc = json.loads(Path(strat_path).read_text())
    assert doc["type"] == "query" and doc["vertex"] == "3"


def test_game_exhaustive(capsys, d12_file):
    code, out, _ = run(capsys, "game", d12_file, "-x", "2", "--exhaustive")
    assert code == 0
    assert "subsets 16" in out and "mismatches 0" in out


def test_game_hidden_chain(capsys, d12_file):
    code, out, _ = run(capsys, "game", d12_file, "-x", "2", "--hidden", "2,6")
    assert code == 0
    assert "verdict: chain" in out


def test_game_hidden_non_chain(capsys, d12_file):
    code, out, _ = run(capsys, "game", d12_file, "-x", "2", "--hidden", "4,6")
    assert code == 0
    assert "not a chain" in out


def test_game_hidden_empty(capsys, d12_file):
    code, out, _ = run(capsys, "game", d12_file, "-x", "2", "--hidden", "")
    assert code == 0 and "verdict: chain" in out


def test_game_hidden_unknown(capsys, d12_file):
    code, out, err = run(capsys, "game", d12_file, "-x", "2", "--hidden", "5")
    assert code == 1


def test_mobius(capsys, d12_file):
    code, out, _ = run(capsys, "mobius", d12_file, "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc == {
        "mobius": 0, "reduced_euler": 0, "noncomplemented_element": "2",
    }


def test_oracle_nonevasive(capsys, d12_file):
    code, out, _ = run(capsys, "oracle", d12_file, "-x", "2",
                       "--check", "nonevasive")
    assert code == 0 and "yes" in out


def test_oracle_on_complex_document(capsys, tmp_path):
    doc = {"vertices": ["a", "b", "c"],
           "facets": [["a", "b"], ["a", "c"], ["b", "c"]]}
    path = tmp_path / "hollow.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "oracle", str(path), "--complex",
                       "--check", "nonevasive")
    assert code == 1 and "no" in out
    code, out, _ = run(capsys, "oracle", str(path), "--complex",
                       "--check", "collapsible")
    assert code == 1
    # a facet on an unknown vertex is a semantic failure, not a usage error
    path.write_text(json.dumps({"vertices": ["a"], "facets": [["a", "q"]]}))
    code, _, err = run(capsys, "oracle", str(path), "--complex",
                       "--check", "nonevasive")
    assert code == 1 and "UnknownVertex" in err


@pytest.mark.parametrize("doc", [
    {"vertices": ["a", "b"], "facets": [5]},
    {"vertices": [["a"]], "facets": [[["a"]]]},
    {"vertices": ["a", "a"], "facets": [["a"]]},
    {"vertices": [], "facets": []},
    {"vertices": ["a", "b"], "facets": [["a"]]},
    {"vertices": "ab", "facets": ["ab"]},
])
def test_oracle_on_a_malformed_complex_document_is_usage_error(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "oracle", str(path), "--complex",
                         "--check", "nonevasive", "--json")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_oracle_cap_flags(capsys, d12_file):
    code, _, err = run(capsys, "oracle", d12_file, "-x", "2",
                       "--check", "collapsible", "--cap-faces", "1")
    assert code == 1 and "CapExceeded" in err
    code, _, err = run(capsys, "oracle", d12_file, "-x", "2",
                       "--check", "nonevasive", "--cap-nonevasive", "1")
    assert code == 1 and "CapExceeded" in err


@pytest.mark.parametrize("env, flags", [
    ("game", []),
    ("foo=1", []),
    ("", ["--cap-game", "0"]),
])
def test_bad_caps_are_usage_errors(capsys, d12_file, monkeypatch, env, flags):
    # an NONEVADE_CAPS entry without "=" or with an unknown key, and a cap
    # that is not positive, are refused before any work
    monkeypatch.setenv("NONEVADE_CAPS", env)
    code, out, err = run(capsys, "game", d12_file, "-x", "2", "--exhaustive",
                         *flags, "--json")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_oracle_on_a_lattice_needs_an_element(capsys, d12_file):
    code, out, err = run(capsys, "oracle", d12_file, "--check", "nonevasive")
    assert code == 2 and out == ""
    assert "needs -x" in err


@pytest.mark.parametrize("command, key, head", [
    ("certify", "certificate", ["summary"]),
    ("collapse", "sequence", ["pairs", "final"]),
    ("strategy", "strategy", ["ground", "max_queries"]),
])
def test_document_commands_share_one_output_path(capsys, d12_file, tmp_path,
                                                 command, key, head):
    path = tmp_path / f"{key}.json"
    code, out, _ = run(capsys, command, d12_file, "-x", "2", "-o", str(path))
    assert code == 0 and out.endswith(f"{key} written to {path}\n")
    document = path.read_text()
    code, out, _ = run(capsys, command, d12_file, "-x", "2")
    assert code == 0 and out.endswith(document)
    code, out, _ = run(capsys, command, d12_file, "-x", "2", "--json")
    payload = json.loads(out)
    assert code == 0 and list(payload) == head + [key]
    assert payload[key] == json.loads(document)
    code, out, _ = run(capsys, command, d12_file, "-x", "2", "--json",
                       "-o", str(path))
    assert code == 0 and list(json.loads(out)) == head
    assert path.read_text() == document


def test_gen_round_trip(capsys, tmp_path):
    out_path = str(tmp_path / "b3.lat")
    code, _, _ = run(capsys, "gen", "boolean", "--n", "3", "-o", out_path)
    assert code == 0
    code, out, _ = run(capsys, "validate", out_path)
    assert code == 0 and "8 elements" in out


def test_gen_json_output_reports_in_json(capsys, tmp_path):
    path = tmp_path / "d12.json"
    code, out, _ = run(capsys, "gen", "divisor", "--n", "12", "--json", "-o", str(path))
    assert code == 0
    assert json.loads(out) == {"elements": 6, "output": str(path)}
    assert len(json.loads(path.read_text())["elements"]) == 6


def test_gen_stdout(capsys):
    code, out, _ = run(capsys, "gen", "chain", "--n", "3")
    assert code == 0
    assert out.startswith("elements: 0 a 1")


def test_gen_unknown_family(capsys):
    code, _, err = run(capsys, "gen", "mystery", "--n", "3")
    assert code == 2


def test_gen_product(capsys, tmp_path):
    out_path = str(tmp_path / "p.lat")
    code, _, _ = run(capsys, "gen", "product", "--left", "chain:3",
                     "--right", "chain:3", "-o", out_path)
    assert code == 0
    code, out, _ = run(capsys, "validate", out_path)
    assert code == 0 and "9 elements" in out


def test_gen_random_seed_echoed(capsys, tmp_path):
    a = tmp_path / "a.lat"
    b = tmp_path / "b.lat"
    run(capsys, "gen", "random", "--n", "5", "--seed", "9", "-o", str(a))
    run(capsys, "gen", "random", "--n", "5", "--seed", "9", "-o", str(b))
    assert a.read_text() == b.read_text()


def test_json_error_on_stderr(capsys, tmp_path):
    path = tmp_path / "bowtie.lat"
    path.write_text(BOWTIE_TEXT)
    code, out, err = run(capsys, "validate", str(path), "--json")
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "NotALattice"


def test_caps_env_override(capsys, d12_file, monkeypatch):
    monkeypatch.setenv("NONEVADE_CAPS", "game=2")
    code, out, err = run(capsys, "game", d12_file, "-x", "2", "--exhaustive")
    assert code == 1
    assert "CapExceeded" in err
    # flag beats env
    code, out, err = run(capsys, "game", d12_file, "-x", "2", "--exhaustive",
                         "--cap-game", "16")
    assert code == 0


def test_game_refuses_an_oversized_ground_before_certifying(capsys, d12_file,
                                                           monkeypatch):
    def certify(*args):
        raise AssertionError("certified a ground over the cap")

    monkeypatch.setattr("nonevade.cli.certify", certify)
    code, out, err = run(capsys, "game", d12_file, "-x", "2", "--exhaustive",
                         "--cap-game", "3", "--json")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "CapExceeded", "message": "ground of 4 exceeds the cap of 3"}


def test_caps_env_rejects_garbage(capsys, d12_file, monkeypatch):
    monkeypatch.setenv("NONEVADE_CAPS", "game=lots")
    code, out, err = run(capsys, "validate", d12_file)
    assert code == 2


def test_suite_smoke(capsys):
    code, out, _ = run(capsys, "suite", "--random-count", "3")
    assert code == 0
    assert out.count("[PASS]") == 7


def test_suite_criteria_are_fixed_gates(capsys, monkeypatch):
    # no cap reaches the suite: it takes no cap flag, and NONEVADE_CAPS
    # leaves every criterion's checked counts as they are
    code, _, err = run(capsys, "suite", "--random-count", "0", "--cap-game", "2",
                       "--json")
    assert code == 2 and json.loads(err)["error"]["type"] == "ParseError"

    def details():
        code, out, _ = run(capsys, "suite", "--random-count", "0", "--json")
        assert code == 0
        return [c["detail"] for c in json.loads(out)["criteria"]]

    monkeypatch.delenv("NONEVADE_CAPS", raising=False)
    plain = details()
    monkeypatch.setenv("NONEVADE_CAPS", "game=1,nonevasive=1")
    assert details() == plain


def test_suite_json(capsys):
    code, out, _ = run(capsys, "suite", "--random-count", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and len(doc["criteria"]) == 7
    # the whole report, timings aside, is pinned
    for criterion in doc["criteria"]:
        del criterion["seconds"]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == (
        "e4ea090db561c59da245856e11b37d2f361abb306a05701a97811998a2856157"
    )


HOLLOW = {"vertices": ["a", "b", "c"], "facets": [["a", "b"], ["a", "c"], ["b", "c"]]}

#: One row per call; each call runs once in text mode and once with --json
#: unless its row says otherwise.  {out} is the file a call may write.
PINNED_CALLS = [
    ("validate {d12}", True),
    ("validate {bowtie}", True),
    ("complements {d12} -x 4", True),
    ("complements {d12} -x 9", True),
    ("certify {d12} -x 2", True),
    ("certify {d12} -x 2 -o {out}", True),
    ("verify {d12} -x 2 --cert {cert}", True),
    ("verify {d12} -x 4 --cert {cert}", True),
    ("collapse {d12} -x 2", True),
    ("collapse {d12} -x 2 -o {out}", True),
    ("strategy {d12} -x 2", True),
    ("strategy {d12} -x 2 -o {out}", True),
    ("game {d12} -x 2 --exhaustive", True),
    ("game {d12} -x 2 --exhaustive --cap-game 2", True),
    ("game {d12} -x 2 --hidden 2,6", True),
    ("game {d12} -x 2 --hidden 5", True),
    ("mobius {d12}", True),
    ("oracle {d12} -x 2 --check nonevasive", True),
    ("oracle {d12} -x 2 --check collapsible", True),
    ("oracle {d12} -x 2 --check collapsible --cap-faces 1", True),
    ("oracle {hollow} --complex --check collapsible", True),
    ("oracle {d12} --check nonevasive", True),
    ("gen divisor --n 12", True),
    ("gen divisor --n 1000000001", True),
    ("gen boolean --n 2 -o {out}", False),
    ("suite --random-count 0", True),
]

#: sha256 of [exit code, stdout, stderr, the file written to {out}] per
#: call, with the temporary directory shown as <tmp> and suite timings as <s>.
CLI_DIGESTS = {
    "validate {d12}":
        "687401545f34019d0ffc254f15fdc3b8dbf8f308e73fc3c3a3830e0bd049f611",
    "validate {d12} --json":
        "d4cb3252a38f0af99b83961f5be76ce0e97058c6131897a991b038bc209cdda1",
    "validate {bowtie}":
        "5e80c0bfe3672e6c39c1a9d6287202e4e4abca329e7146abc1bd0d1dba3ee34f",
    "validate {bowtie} --json":
        "125767849e0d0fbb814cb7ff4f217d7b093cf6b48053ffbe3a30b062c1b181a8",
    "complements {d12} -x 4":
        "5e8d24fe6736a9b9aa90e0fe46b59cec58502ddce0dbdf56c43b04bac2afc43b",
    "complements {d12} -x 4 --json":
        "08c79bd99d7080171603045548328feac47837df8d973e4f436ec61768b974d7",
    "complements {d12} -x 9":
        "aefc0c129b14bb569f30d285fc1e82e5120f6cd061eaa81364dbe04bafb23545",
    "complements {d12} -x 9 --json":
        "dc214a14f00c7472579837c8d77449cd89005872c6493b75de266c46a3e7fe3d",
    "certify {d12} -x 2":
        "af97c0a6a2dd5ec7c9a2d40bd4819d1fa7bd5b62ca9e4ed15159538ccf37596a",
    "certify {d12} -x 2 --json":
        "40049b70a5e4f81c4072b3e4e0d7cd4fa64a58fe6df6386e40f836873d222b70",
    "certify {d12} -x 2 -o {out}":
        "401e1fe4d526fd8e7304a7af6ed55516c531f78ced3a3b7e6be72ec450c81298",
    "certify {d12} -x 2 -o {out} --json":
        "3a6d84b2736bf9613e8ba67c4adf75752bef13459130b8a3d3e091e14c348034",
    "verify {d12} -x 2 --cert {cert}":
        "4e31b6ed20c4db5aac194a669d0e01f6628ebcb7565b91bf9215646cdeb003ac",
    "verify {d12} -x 2 --cert {cert} --json":
        "4bb2f810554a21279bbc9cb3ddef90343d73a759c6650a00f92f6dbbb4037727",
    "verify {d12} -x 4 --cert {cert}":
        "c144a9ddef98676a713011f7a51ef5816bcc3e58b47fa1b30827b53646e1b56f",
    "verify {d12} -x 4 --cert {cert} --json":
        "4e890253c96ca06921af30d1227879f43403f34245bb7bad34ca9990faf0c7d8",
    "collapse {d12} -x 2":
        "03a13bf6db624038e90a73ccc6ce5afdcce0022e137239e0077035c76d764784",
    "collapse {d12} -x 2 --json":
        "e2234c8a4e45bb53602f7d3390ba257e6b4f2a4565b257d24eb6ee25b8e7c3dc",
    "collapse {d12} -x 2 -o {out}":
        "72e61f02b5e3af4e021022fa0596c6cf36c6585a71edea49e23daf6c806a1993",
    "collapse {d12} -x 2 -o {out} --json":
        "b8b08e3cb2fc864b88faa240998d184a6c9a279321a4d3b3888f0decaab23c41",
    "strategy {d12} -x 2":
        "2a5f0ceeabd4c2fc2bf6f6d47d8158d0aade0a7565ae864298e16bc4abb0ee4a",
    "strategy {d12} -x 2 --json":
        "83fcbbe18801fc8e32a7e537d0864e9146c90caa78ce33116297962605f91934",
    "strategy {d12} -x 2 -o {out}":
        "edd5e1a303851d5aa894eef440aef1e246536cf5a59aad7e348dabec7fa731a9",
    "strategy {d12} -x 2 -o {out} --json":
        "66f4a76fd7d09c708e2505ca7eebd0ab6f0c16f882e6c341d35f5810868b1e77",
    "game {d12} -x 2 --exhaustive":
        "721f58424f80cc8ae1953375e76710ae8ae1af99d049ee0014a61e159dcd4712",
    "game {d12} -x 2 --exhaustive --json":
        "e433f12693cb75af1ea5c219451c986b62aba3c971803b3ffba8d9500390188e",
    "game {d12} -x 2 --exhaustive --cap-game 2":
        "4fb0032e11918d4ef84a77e211c036dbbabdaf958e5c1eeb29d962456c028fa4",
    "game {d12} -x 2 --exhaustive --cap-game 2 --json":
        "858595fe8eae423773daa64e38deacbc09e9c32c491eaff9dd4728021f1b88f9",
    "game {d12} -x 2 --hidden 2,6":
        "e7a842b23b1841567331ec459b656dfed6c4c0c6009b75c4a3ae8fd4dd9b0d6e",
    "game {d12} -x 2 --hidden 2,6 --json":
        "a13e75058d60ec08f5daf6e16277d373cc3a3fc13b27aa1b8c01afd64a965c0c",
    "game {d12} -x 2 --hidden 5":
        "192f554bea2c94a73d3e1834b091e5ff84a6c941c6037a2b2074a8f00810f100",
    "game {d12} -x 2 --hidden 5 --json":
        "50311ea57575657f945897e0c38ab8bc69c035ea248af42ed02002bd0b0e936d",
    "mobius {d12}":
        "bd954c84b821a4701a475355d8f8dd1128d69c964d90ff988f79483430de026e",
    "mobius {d12} --json":
        "9be4fcd2ffd809e84495cfe99a64c36a7fbaa2c31785c403a717606d168a6c8f",
    "oracle {d12} -x 2 --check nonevasive":
        "47ad4bffe61113bc80dfc4b8a53991565c1a6dbcfd5e2bf543e0a008c09b759f",
    "oracle {d12} -x 2 --check nonevasive --json":
        "b66bf2bbfe6f8b8c63311de65c5d4dc3b740385ad7046686844c0bdfb35b0177",
    "oracle {d12} -x 2 --check collapsible":
        "011b1444907dfba6913c682dd957b7d992c620855f9bb448f9025f087a236d4b",
    "oracle {d12} -x 2 --check collapsible --json":
        "de716cbaa48cda18c147d5b0a800ec35d4da0bbe7daf81095f81abb65932e3fa",
    "oracle {d12} -x 2 --check collapsible --cap-faces 1":
        "7c2bba68820f90ebae3b3edc796f964021645994bda9d155d261f78a47688ed5",
    "oracle {d12} -x 2 --check collapsible --cap-faces 1 --json":
        "05d4857311d3de144b02357ce268e7c36bd03cf2e20d87f04213157cad311f16",
    "oracle {hollow} --complex --check collapsible":
        "d8ffb9dd88c2da09b2f68a5c49b524412489f9ba116d926013ba0d07739c5b3e",
    "oracle {hollow} --complex --check collapsible --json":
        "9ce49e8703e28c42d979559213969176b7ec4d161e3e58f93530c48e6d9277a3",
    "oracle {d12} --check nonevasive":
        "d7f1f11967684c1e5ea9371afffdd5350de00c7a6bc68d8e1e15ee916e55207d",
    "oracle {d12} --check nonevasive --json":
        "50ada6d0852692ad6571ec0cdc8c34d18ac34e29ded9fbe564c6ec50e33988a8",
    "gen divisor --n 12":
        "5a52010cd6eb6305ec050a5c061d989f8da7fb5b257f7c23b53283f8da0d6fd9",
    "gen divisor --n 12 --json":
        "b29543f1e8127f0864131f50af79cbeaf2f7913e1a2b4aac7bd12eeb6b016acc",
    "gen divisor --n 1000000001":
        "267c2df7488afbfd24a133d7cc7764d5fc66b0025918028a461c1529a0a08763",
    "gen divisor --n 1000000001 --json":
        "e350245ec14a489c4ed38d4f2fb248dd0551bf8acd93f8d37205a6be2ace4264",
    "gen boolean --n 2 -o {out}":
        "92fa9d22d4d7b9909169610a0703d815d3cbea2381594f448ef12b243ad4aed4",
    "suite --random-count 0":
        "830bffd3fa5b9f1ffe6d8545b7c3498bc776ce635741a8a687a6bf7dd02db18a",
    "suite --random-count 0 --json":
        "0a8e1b7751a2aa4f0cb48deeb0235bbb85df84dba6752baae4e0c9c08aa1f0b3",
}


def test_cli_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("NONEVADE_CAPS", raising=False)
    files = {"d12": tmp_path / "d12.lat", "bowtie": tmp_path / "bowtie.lat",
             "hollow": tmp_path / "hollow.json", "cert": tmp_path / "cert.json",
             "out": tmp_path / "out"}
    files["d12"].write_text(D12)
    files["bowtie"].write_text(BOWTIE_TEXT)
    files["hollow"].write_text(json.dumps(HOLLOW))
    main(["certify", str(files["d12"]), "-x", "2", "-o", str(files["cert"])])
    capsys.readouterr()
    names = {key: str(path) for key, path in files.items()}
    digests = {}
    for call, both in PINNED_CALLS:
        for argv in [call, call + " --json"][:1 + both]:
            code = main(argv.format(**names).split())
            out, err = capsys.readouterr()
            written = files["out"].read_text() if files["out"].exists() else None
            files["out"].unlink(missing_ok=True)
            out = re.sub(r'\(\d+\.\d+s\)|(?<="seconds": )[0-9.e-]+', "<s>", out)
            masked = json.dumps([code, out, err, written]).replace(str(tmp_path), "<tmp>")
            digests[argv] = hashlib.sha256(masked.encode()).hexdigest()
    assert digests == CLI_DIGESTS
