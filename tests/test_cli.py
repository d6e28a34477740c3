"""Command-line behavior: exit codes, formats, determinism."""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from conftest import BAD_FORMAT3, FIG_A, flat_tree
import ospmatch.cli
from ospmatch.cli import main
from ospmatch.jsonio import parse_subdomain, subdomain_to_doc, tree_to_doc
from ospmatch.mechanism import Leaf, full_universe, reveal_tree, validate
from ospmatch.witness import Subdomain


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "taa3": write(tmp_path / "taa3.json", {
            "n": 3,
            "priorities": [["a", "b", "c"], ["a", "c", "b"], ["b", "a", "c"]],
        }),
        "fig1a": write(tmp_path / "fig1a.json", {
            "n": 3,
            "priorities": [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]],
        }),
        "fig1b": write(tmp_path / "fig1b.json", {
            "n": 3,
            "priorities": [["a", "b", "c"], ["a", "b", "c"], ["c", "a", "b"]],
        }),
        "profile": write(tmp_path / "p.json", {
            "n": 3,
            "preferences": [["3", "2", "1"], ["1", "2", "3"], ["1", "3", "2"]],
        }),
        "tmp": tmp_path,
    }


def test_da_prints_matching(files, capsys):
    assert main(["da", files["fig1b"], files["profile"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"matching": {"a": "2", "b": "1", "c": "3"}}


def test_da_transcript_matches_table(files, capsys):
    assert main(["da", files["fig1b"], files["profile"], "--transcript"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 | b c |   |\n2 |     |   | a\n3 | a   | c |\n")


def test_classify_exit_codes_and_message(files, capsys):
    assert main(["classify", files["taa3"]]) == 0
    assert "limited cyclic" in capsys.readouterr().out
    assert main(["classify", files["fig1a"]]) == 1
    out = capsys.readouterr().out
    assert (
        "not limited cyclic; forbidden pattern (a) on applicants {a,b,c} "
        "positions {1,2,3}" in out
    )


def test_classify_json_mode(files, capsys):
    assert main(["--json", "classify", files["fig1b"]]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "not-limited-cyclic"
    assert doc["witness"]["pattern"] == "b"


def test_synthesize_then_verify_pipeline(files, capsys):
    tree_path = str(files["tmp"] / "tree.json")
    assert main(["synthesize", files["taa3"], "-o", tree_path]) == 0
    capsys.readouterr()
    assert main(["verify-tree", tree_path, files["taa3"], "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "validate: ok" in out and "implements: ok" in out and "osp: ok" in out


def test_synthesize_refuses_non_implementable(files, capsys):
    tree_path = str(files["tmp"] / "tree.json")
    assert main(["synthesize", files["fig1a"], "-o", tree_path]) == 1
    err = capsys.readouterr().err
    assert err == (
        "not limited cyclic; forbidden pattern (a) on applicants {a,b,c} "
        "positions {1,2,3}\n"
    )


def test_verify_tree_flags_wrong_priorities(files, capsys):
    tree_path = str(files["tmp"] / "tree.json")
    assert main(["synthesize", files["taa3"], "-o", tree_path]) == 0
    assert main(["verify-tree", tree_path, files["fig1b"], "--exhaustive"]) == 1
    out = capsys.readouterr().out
    assert "implements: FAIL" in out


def test_check_osp_subcommand(files, capsys):
    tree_path = str(files["tmp"] / "tree.json")
    main(["synthesize", files["taa3"], "-o", tree_path])
    capsys.readouterr()
    assert main(["check-osp", tree_path]) == 0
    assert "obviously strategyproof" in capsys.readouterr().out


def test_check_osp_output_is_pinned(files, capsys):
    # the CI smoke step compares the console script's output with this file
    # too, on a fresh write
    data = os.path.join(os.path.dirname(__file__), "data")
    tree_path = write(files["tmp"] / "fig_a_reveal.json", tree_to_doc(reveal_tree(FIG_A)))
    with open(os.path.join(data, "fig_a_reveal_check_osp.json")) as f:
        golden = f.read()
    for path in (tree_path, os.path.join(data, "fig_a_reveal_tree_v3.json")):
        assert main(["--json", "check-osp", path]) == 1
        assert capsys.readouterr().out == golden


def test_witness_on_limited_cyclic_input(files, capsys):
    assert main(["witness", files["taa3"]]) == 3
    assert "no witness" in capsys.readouterr().out


def test_witness_search_and_fixtures(files, capsys):
    assert main(["witness", files["fig1a"], "--search", "--budget", "5000"]) == 0
    searched = json.loads(capsys.readouterr().out)
    assert searched["types"]
    # the default path lifts the bundled fixture of the forbidden restriction
    assert main(["witness", files["fig1b"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["types"]) == {"a", "b", "c"}
    assert doc["evidence"]
    # emitted subdomains round-trip through the module serializers
    parsed, names = parse_subdomain(doc)
    round_tripped = subdomain_to_doc(parsed, names)
    assert round_tripped["types"] == doc["types"]


def test_witness_search_deterministic(files, capsys):
    main(["witness", files["fig1a"], "--search", "--budget", "5000", "--seed", "9"])
    first = capsys.readouterr().out
    main(["witness", files["fig1a"], "--search", "--budget", "5000", "--seed", "9"])
    assert capsys.readouterr().out == first


def test_witness_search_output_is_pinned(files, capsys):
    # the CI smoke step compares the console script's output with this file too
    argv = ["--json", "witness", "--search", "--budget", "500", "--seed", "7", files["fig1a"]]
    assert main(argv) == 0
    golden = os.path.join(os.path.dirname(__file__), "data", "cyclic_search_b500_s7.json")
    with open(golden) as f:
        assert capsys.readouterr().out == f.read()


def _market(tmp_path, n, seed):
    names = [chr(ord("a") + i) for i in range(n)]
    rng = random.Random(seed)
    rows = [rng.sample(names, n) for _ in range(n)]
    return write(tmp_path / f"market{n}.json", {"n": n, "priorities": rows})


def test_witness_lifts_on_a_large_market(files, capsys):
    market = _market(files["tmp"], 8, "cli/8")
    assert main(["classify", market]) == 1
    capsys.readouterr()
    assert main(["witness", market]) == 0
    doc = json.loads(capsys.readouterr().out)
    parsed, _ = parse_subdomain(doc)
    assert parsed.n == 8 and doc["evidence"]
    # applicants outside the forbidden restriction hold a single type
    assert sum(len(ts) == 1 for ts in parsed.type_lists) >= 4
    assert main(["witness", files["taa3"]]) == 3


def test_internal_errors_exit_four(files, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(ospmatch.cli, "_cmd_classify", broken)
    assert main(["classify", files["fig1a"]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError('boom')\n"


def test_value_errors_outside_input_parsing_exit_four(files, capsys, monkeypatch):
    # only FormatError (and OSError) reads as bad input
    def broken(args):
        raise ValueError("boom")

    monkeypatch.setattr(ospmatch.cli, "_cmd_classify", broken)
    assert main(["classify", files["taa3"]]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ValueError('boom')\n"


@pytest.mark.parametrize("text", ["[" * 200_000, "{\"n\": " * 200_000, b"\xff\xfe{"],
                         ids=["nested_arrays", "nested_objects", "not_utf8"])
def test_undecodable_json_is_an_input_error(files, capsys, text):
    path = files["tmp"] / "bad.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    for argv in (["classify", str(path)], ["verify-tree", str(path), files["taa3"]],
                 ["check-osp", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def test_json_syntax_errors_name_their_file(files, capsys):
    tree = str(files["tmp"] / "t.json")
    assert main(["synthesize", files["taa3"], "-o", tree]) == 0
    empty = files["tmp"] / "empty.json"
    empty.write_text("")
    capsys.readouterr()
    for argv in (["verify-tree", tree, str(empty)], ["verify-tree", str(empty), files["taa3"]]):
        assert main(argv) == 2
        _one_error_line(capsys, contains=f"error: {empty}: Expecting value")


def test_classify_and_witness_refuse_more_than_sixteen_applicants(files, capsys):
    market = _market(files["tmp"], 17, "cli/17")
    for command in ("classify", "witness"):
        assert main([command, market]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {command}: n = 17 is above the supported 16\n"
    assert main(["classify", _market(files["tmp"], 16, "cli/16")]) == 1


def test_witness_that_fails_its_referee_is_an_internal_error(files, capsys, monkeypatch):
    # check_witness referees every emitted witness, also under python -O
    monkeypatch.setattr(ospmatch.cli, "lift_witness", lambda q, r: Subdomain((
        ((0, 1, 2), (1, 0, 2)), ((0, 1, 2),), ((0, 1, 2),),
    )))
    assert main(["witness", files["fig1a"]]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("internal error: ")
    assert captured.err.count("\n") == 1


def test_synthesize_refuses_more_than_eight_applicants(files, capsys):
    market = _market(files["tmp"], 9, "cli/9")
    tree_path = files["tmp"] / "t9.json"
    assert main(["synthesize", market, "-o", str(tree_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: synthesize: n = 9 is above the supported 8\n"
    assert not tree_path.exists()


def test_witness_search_refuses_more_than_eight_applicants(files, capsys):
    # each sample checks up to 3^n profiles; the lift checks one witness
    market = _market(files["tmp"], 9, "cli/9")
    assert main(["witness", market, "--search", "--budget", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: witness --search: n = 9 is above the supported 8\n"
    assert main(["witness", market]) == 0
    assert parse_subdomain(json.loads(capsys.readouterr().out))[0].n == 9
    assert main(["witness", _market(files["tmp"], 8, "cli/8"), "--search", "--budget", "1"]) in (0, 1)


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_stdout_pipe_exits_141_quietly(files, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert main(["witness", files["fig1a"]]) == 141
    assert capsys.readouterr().err == ""
    # stdout now points at the null device, so the flush at exit is quiet
    assert sys.stdout.name == os.devnull
    sys.stdout.close()


def test_enumerate_report(files, capsys):
    report = files["tmp"] / "census.tsv"
    assert main(["enumerate", "--n", "3", "--report", str(report)]) == 0
    assert report.read_text() == (
        "canonical_form\tcount\tverdict\twitness\n"
        "abc|abc|abc\t6\tlimited-cyclic\t-\n"
        "abc|abc|acb\t18\tlimited-cyclic\t-\n"
        "abc|abc|bac\t18\tlimited-cyclic\t-\n"
        "abc|abc|bca\t18\tnot-limited-cyclic\tb\n"
        "abc|abc|cab\t18\tnot-limited-cyclic\tb\n"
        "abc|abc|cba\t18\tnot-limited-cyclic\tb\n"
        "abc|acb|bac\t36\tlimited-cyclic\t-\n"
        "abc|acb|bca\t36\tnot-limited-cyclic\tc\n"
        "abc|bac|cab\t36\tnot-limited-cyclic\td\n"
        "abc|bca|cab\t12\tnot-limited-cyclic\ta\n"
    )
    summary = capsys.readouterr().out
    assert "216 sets in 10 classes" in summary


def test_enumerate_four_summary(capsys):
    assert main(["--json", "enumerate", "--n", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "n": 4,
        "classes": 762,
        "sets": 331776,
        "limited_cyclic_classes": 16,
        "limited_cyclic_sets": 2568,
    }


def test_usage_errors(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == 2
    assert main(["classify", str(tmp_path / "missing.json")]) == 2
    assert main(["da", files["taa3"]]) == 2  # missing profile argument
    doc = {"n": 3, "priorities": [["a", "b"], ["b", "a"], ["a", "b"]]}
    assert main(["classify", write(tmp_path / "ragged.json", doc)]) == 2


def test_star_pipeline(tmp_path, capsys):
    star = write(tmp_path / "star6.json", {
        "n": 6,
        "priorities": [
            ["a", "b", "c", "d", "e", "f"],
            ["a", "b", "c", "d", "e", "f"],
            ["a", "b", "c", "d", "e", "f"],
            ["a", "b", "c", "d", "e", "f"],
            ["a", "c", "b", "e", "d", "f"],
            ["b", "a", "d", "c", "f", "e"],
        ],
    })
    tree_path = str(tmp_path / "t.json")
    assert main(["synthesize", star, "-o", tree_path]) == 0
    assert main([
        "verify-tree", tree_path, star, "--samples", "100000", "--seed", "7"
    ]) == 0
    capsys.readouterr()
    # the default exhaustive mode refuses an astronomically large run
    assert main(["verify-tree", tree_path, star]) == 2
    assert "--samples" in capsys.readouterr().err


def test_json_flag_round_trips(files, capsys):
    assert main(["--json", "da", files["fig1b"], files["profile"], "--transcript"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matching"] == {"a": "2", "b": "1", "c": "3"}
    assert doc["transcript"][0][0] == ["b", "c"]


def _one_error_line(capsys, contains="error: "):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and contains in err, err


def _synthesized_doc(files, tmp_path):
    """The TAA3 tree file ``synthesize`` writes, as a document."""
    tree_path = tmp_path / "t.json"
    assert main(["synthesize", files["taa3"], "-o", str(tree_path)]) == 0
    return json.loads(tree_path.read_text())


@pytest.mark.parametrize("case", sorted(BAD_FORMAT3))
def test_format_three_refusals_exit_two(files, tmp_path, capsys, case):
    # hostile format-3 input: exit 2 and one line, never a traceback or exit 1
    rewrite, message = BAD_FORMAT3[case]
    doc = _synthesized_doc(files, tmp_path)
    rewrite(doc)
    mutated = write(tmp_path / "mutated.json", doc)
    capsys.readouterr()
    for argv in (["verify-tree", mutated, files["taa3"]], ["check-osp", mutated],
                 ["--json", "check-osp", mutated]):
        assert main(argv) == 2
        _one_error_line(capsys, message)


@pytest.mark.parametrize("row, value", [(0, [["a"], "b", "c"]), (2, [["a"], "b", "c"]), (0, 5)],
                         ids=["first", "later", "first_not_a_list"])
def test_priorities_reject_non_string_names(tmp_path, capsys, row, value):
    rows = [["a", "b", "c"], ["a", "c", "b"], ["b", "a", "c"]]
    rows[row] = value
    path = write(tmp_path / "bad.json", {"n": 3, "priorities": rows})
    assert main(["classify", path]) == 2
    _one_error_line(capsys)


def test_priorities_reject_bool_size(tmp_path, capsys):
    path = write(tmp_path / "bad.json", {"n": True, "priorities": [["a"]]})
    assert main(["classify", path]) == 2
    _one_error_line(capsys)


# each rewrite of a synthesized TAA3 file, with the tail of its refusal
BAD_NODE_FIELDS = {
    "player": (lambda d: d["nodes"][0].__setitem__(0, ["a"]), "nodes[0]: unknown player ['a']"),
    "applicants": (lambda d: d["applicants"].__setitem__(0, ["a"]), "must name n distinct entries each"),
    "positions": (lambda d: d["positions"].__setitem__(0, ["1"]), "must name n distinct entries each"),
    "universes": (lambda d: d["universes"].__setitem__(1, True),
                  "universes[1]: expected a lowercase hex bitmask"),
    "record": (lambda d: d["nodes"].__setitem__(1, 5), "nodes[1]: expected an array"),
    "applicants_string": (lambda d: d.__setitem__("applicants", "abc"), "must name n distinct entries each"),
    "applicants_repeated": (lambda d: d.__setitem__("applicants", ["a", "a", "c"]),
                            "must name n distinct entries each"),
    "positions_repeated": (lambda d: d.__setitem__("positions", ["1", "1", "3"]),
                           "must name n distinct entries each"),
}


@pytest.mark.parametrize("field", list(BAD_NODE_FIELDS))
def test_verify_tree_rejects_bad_node_fields(files, tmp_path, capsys, field):
    rewrite, message = BAD_NODE_FIELDS[field]
    doc = _synthesized_doc(files, tmp_path)
    rewrite(doc)
    mutated = write(tmp_path / "mutated.json", doc)
    capsys.readouterr()
    assert main(["verify-tree", mutated, files["taa3"]]) == 2
    _one_error_line(capsys, message + "\n")


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_tree_rejects_nonpositive_samples(files, capsys, samples):
    tree_path = str(files["tmp"] / "tree.json")
    assert main(["synthesize", files["taa3"], "-o", tree_path]) == 0
    capsys.readouterr()
    assert main(["verify-tree", tree_path, files["taa3"], "--samples", samples]) == 2
    _one_error_line(capsys)


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_tree_checks_samples_before_validating(files, capsys, samples):
    # a one-child root that does not cover its player's universe
    tree = flat_tree(3, (full_universe(3),) * 3, (0, (((0,), Leaf((0, 1, 2))),)))
    assert not validate(tree).ok
    tree_path = write(files["tmp"] / "invalid.json", tree_to_doc(tree))
    assert main(["verify-tree", tree_path, files["taa3"]]) == 1
    capsys.readouterr()
    assert main(["verify-tree", tree_path, files["taa3"], "--samples", samples]) == 2
    _one_error_line(capsys)


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_witness_rejects_nonpositive_budget(files, capsys, budget):
    assert main(["witness", files["fig1a"], "--search", "--budget", budget]) == 2
    _one_error_line(capsys)


@pytest.mark.parametrize("flags, with_search", [
    (["--budget", "5000"], 0),
    (["--seed", "9"], 0),
    (["--seed", "0", "--budget", "3000"], 0),
    (["--budget", "0"], 2),
])
def test_witness_refuses_search_flags_without_search(files, capsys, flags, with_search):
    # refused before the priorities are read, so a missing file is not reached
    for path in (files["fig1a"], str(files["tmp"] / "missing.json")):
        assert main(["witness", path, *flags]) == 2
        err = capsys.readouterr().err
        assert err == "error: --budget and --seed apply only to --search\n"
    assert main(["witness", files["fig1a"], "--search", *flags]) == with_search


@pytest.mark.parametrize("flags", [["--seed", "5"], ["--exhaustive", "--seed", "5"], ["--seed", "0"]])
def test_verify_tree_refuses_seed_without_samples(files, capsys, flags):
    # refused before the files are read, so a missing tree is not reached
    tree_path = str(files["tmp"] / "t.json")
    assert main(["synthesize", files["taa3"], "-o", tree_path]) == 0
    capsys.readouterr()
    for path in (tree_path, str(files["tmp"] / "missing.json")):
        assert main(["verify-tree", path, files["taa3"], *flags]) == 2
        assert capsys.readouterr().err == "error: --seed applies only to --samples\n"
    assert main(["verify-tree", tree_path, files["taa3"], "--samples", "300", *flags[-2:]]) == 0


def test_tree_files_above_eight_applicants_are_refused(files, capsys):
    # a single-leaf n = 9 tree: tiny on disk, but the exact checkers'
    # tables would take hundreds of MB
    names = list("abcdefghi")
    positions = [str(i + 1) for i in range(9)]
    doc = {
        "format": 3,
        "n": 9,
        "applicants": names,
        "positions": positions,
        "universes": ["1"] * 9,
        "type_sets": [[] for _ in names],
        "nodes": [list(range(9))],
    }
    tree = write(files["tmp"] / "n9.json", doc)
    prio = write(files["tmp"] / "n9_prio.json", {"n": 9, "priorities": [names] * 9})
    capsys.readouterr()
    for argv in (["check-osp", tree], ["verify-tree", tree, prio]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "tree: n = 9 is above the supported 8" in err


# numpy is loaded lazily, so whether a command loads it is checked in a new
# interpreter: this suite imports numpy itself.
_FRESH_MAIN = """\
import sys
import ospmatch.cli
on_import = "numpy" in sys.modules
code = ospmatch.cli.main(sys.argv[1:])
print(on_import, code, "numpy" in sys.modules)
"""


def _fresh_run(script: str, *args: str) -> list[str]:
    """The words of the last line ``script`` prints, run in a new
    interpreter with ``args`` as ``sys.argv[1:]``."""
    src = os.path.dirname(os.path.dirname(ospmatch.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    return done.stdout.splitlines()[-1].split()


def _fresh_main(argv: list[str]) -> tuple[bool, int, bool]:
    """(numpy loaded by ``import ospmatch.cli``, exit code of
    ``main(argv)``, numpy loaded afterwards), in a new interpreter."""
    on_import, code, after = _fresh_run(_FRESH_MAIN, *argv)
    return on_import == "True", int(code), after == "True"


@pytest.mark.parametrize("argv, code", [
    (["classify", "fig1a"], 1),
    (["witness", "fig1a"], 0),
    (["witness", "--search", "--budget", "50", "fig1a"], 1),
    (["da", "fig1b", "profile"], 0),
    (["enumerate", "--n", "3"], 0),
], ids=["classify", "witness", "witness_search", "da", "enumerate"])
def test_pure_python_commands_never_load_numpy(files, argv, code):
    argv = [files.get(arg, arg) for arg in argv]
    assert _fresh_main(argv) == (False, code, False)


def test_only_verify_tree_loads_numpy(files):
    # synthesis and the OSP check work on type bitsets; only the DA replay
    # of verify-tree builds arrays
    tree = str(files["tmp"] / "taa3_tree.json")
    for argv, loads in ((["synthesize", files["taa3"], "-o", tree], False),
                        (["check-osp", tree], False),
                        (["verify-tree", tree, files["taa3"]], True)):
        assert _fresh_main(argv) == (False, 0, loads)


def test_library_decisions_never_load_numpy():
    script = """\
import sys
from ospmatch.classify import classify, scan_forbidden
from ospmatch.core import PrioritySet, Restriction
from ospmatch.da import da_match, da_match_product
from ospmatch.jsonio import parse_tree, tree_to_doc
from ospmatch.mechanism import check_osp, validate
from ospmatch.sweep import class_census, sweep_equivalence
from ospmatch.synth import synthesize
from ospmatch.witness import check_witness, find_witness, fixtures, lift_witness
q = PrioritySet.from_rankings(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
classify(q), scan_forbidden(q), sweep_equivalence(3), class_census(3), fixtures()
subdomain = lift_witness(q, Restriction((0, 1, 2), (0, 1, 2)))
check_witness(q, subdomain), find_witness(q, 50, 0)
da_match(q.rank_table(), q.rankings), da_match_product(q.rank_table(), subdomain.type_lists)
tree, _ = parse_tree(tree_to_doc(synthesize(PrioritySet.from_rankings(((0, 1, 2), (0, 2, 1), (1, 0, 2))))))
assert validate(tree).ok and check_osp(tree).ok
print("numpy" in sys.modules)
"""
    assert _fresh_run(script) == ["False"]
