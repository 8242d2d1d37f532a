import hashlib
import json

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
    doc = json.loads(open(cert_path).read())
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
    doc = json.loads(open(seq_path).read())
    assert doc["final"] == "2" and len(doc["pairs"]) == 3


def test_strategy(capsys, d12_file, tmp_path):
    strat_path = str(tmp_path / "strat.json")
    code, out, _ = run(capsys, "strategy", d12_file, "-x", "2", "-o", strat_path)
    assert code == 0
    doc = json.loads(open(strat_path).read())
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


def test_caps_env_rejects_garbage(capsys, d12_file, monkeypatch):
    monkeypatch.setenv("NONEVADE_CAPS", "game=lots")
    code, out, err = run(capsys, "validate", d12_file)
    assert code == 2


def test_suite_smoke(capsys):
    code, out, _ = run(capsys, "suite", "--random-count", "3")
    assert code == 0
    assert out.count("[PASS]") == 7


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
