"""Property-based fuzzing of the JSON formats and the command line.

The round trips check that every format gives back what it was written
from.  The CLI runs feed ``cli.main`` drawn documents, both arbitrary JSON
values and valid documents with one field mutated, and hold every run to
the exit-code contract: 0, 1, 2 or 3, never 4 and never a traceback, and
an input error (exit 2) is exactly one line on stderr.  Tree documents
come in format 3, with hex-bitmask sets and array nodes, the only layout
the reader takes, and in the two layouts written before it: format 2,
with its shared ``type_sets`` table of index lists, and the older inline
layout.  Those must exit 2, mutated or not.  A mutated format-3 field may
also become a malformed hex bitmask.  Hand-built node lists with bad
players, set indices, child ids and leaves must be refused by the tree
constructor, or else be trees the checkers and the writer take.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAYOUTS, priorities_to_doc, profile_to_doc, tree_doc
from ospmatch.classify import classify
from ospmatch.cli import main
from ospmatch.core import PreferenceProfile, PrioritySet, ids_mask
from ospmatch.jsonio import (
    default_names,
    parse_priorities,
    parse_profile,
    parse_subdomain,
    parse_tree,
    subdomain_to_doc,
    tree_to_doc,
)
from ospmatch.mechanism import (
    Internal,
    Leaf,
    MechanismTree,
    check_implements,
    check_osp,
    restrict_environment,
    reveal_tree,
    validate,
)
from ospmatch.synth import synthesize
from ospmatch.witness import Subdomain

FUZZ = settings(deadline=None, derandomize=True)


def rankings(n):
    return st.permutations(range(n)).map(tuple)


@st.composite
def tables(draw, n):
    """n rankings of 0..n-1.  Half the draws are one base ranking with at
    most one adjacent swap per row, which is mostly limited cyclic (a
    uniform table at n = 4 almost never is)."""
    if draw(st.booleans()):
        return draw(st.lists(rankings(n), min_size=n, max_size=n))
    base = draw(rankings(n))
    rows = []
    for _ in range(n):
        row = list(base)
        swap = draw(st.integers(-1, n - 2))
        if swap >= 0:
            row[swap], row[swap + 1] = row[swap + 1], row[swap]
        rows.append(tuple(row))
    return rows


@st.composite
def trees(draw, restricted):
    """A priority set at n <= 4 and a tree over it: its synthesized tree
    (pruned to drawn sub-universes when ``restricted``) if it is limited
    cyclic, else the reveal tree over drawn universes of 1 to 3 types."""
    n = draw(st.integers(1, 4))
    q = PrioritySet.from_rankings(draw(tables(n)))
    size = math.factorial(n)
    subs = [draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3, unique=True))
            for _ in range(n)]
    if draw(st.booleans()) and classify(q).limited_cyclic:
        tree = synthesize(q)
        return q, restrict_environment(tree, subs) if restricted or draw(st.booleans()) else tree
    return q, reveal_tree(q, subs)


@st.composite
def subdomains(draw):
    n = draw(st.integers(2, 5))
    lists = [draw(st.lists(rankings(n), min_size=1, max_size=3, unique=True)) for _ in range(n)]
    if all(len(ts) == 1 for ts in lists):
        i = draw(st.integers(0, n - 1))
        lists[i].append(draw(rankings(n).filter(lambda r: r != lists[i][0])))
    return Subdomain(tuple(map(tuple, lists)))


@settings(FUZZ, max_examples=60)
@given(st.data())
def test_priorities_and_profiles_round_trip(data):
    n = data.draw(st.integers(1, 6))
    q = PrioritySet.from_rankings(data.draw(tables(n)))
    p = PreferenceProfile.from_rankings(data.draw(tables(n)))
    assert parse_priorities(priorities_to_doc(q)) == (q, default_names(n))
    assert parse_profile(profile_to_doc(p), default_names(n))[0] == p


@settings(FUZZ, max_examples=60)
@given(subdomains())
def test_subdomains_round_trip(subdomain):
    assert parse_subdomain(subdomain_to_doc(subdomain))[0] == subdomain


@settings(FUZZ, max_examples=60)
@given(trees(restricted=False))
def test_trees_round_trip(drawn):
    _, tree = drawn
    parsed, _ = parse_tree(json.loads(json.dumps(tree_to_doc(tree))))
    assert (parsed.n, parsed.universes, parsed.type_sets, parsed.nodes) == (
        tree.n, tree.universes, tree.type_sets, tree.nodes)


# values a hand-built tree may hold where an exact int belongs
NOT_INDICES = st.integers(-2, 9) | st.booleans() | st.sampled_from([1.0, "0", None, (0,)])


def _often(draw, good, bad):
    """A value of ``good``, or one time in six a value of ``bad``."""
    return draw(bad) if draw(st.integers(0, 5)) == 5 else draw(good)


@st.composite
def node_lists(draw):
    """The fields of a hand-built tree at n <= 3: drawn universes and
    tables of nonempty sets within them, and nodes listed in preorder whose
    players, set indices and leaves are now and then out of range, bools,
    floats or no ints at all, with now and then a node that is neither a
    Leaf nor an Internal, sets that are no tuple, an internal node followed
    by fewer or more subtrees than it has sets, or a record after the
    root's subtree."""
    n = draw(st.integers(1, 3))
    size = math.factorial(n)
    universes = [draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True))
                 for _ in range(n)]
    type_sets = tuple(tuple(ids_mask(draw(st.lists(st.sampled_from(u), min_size=1, unique=True)), size)
                            for _ in range(draw(st.integers(1, 3)))) for u in universes)
    leaves = st.permutations(range(n)).map(tuple)
    bad_leaves = st.lists(NOT_INDICES, max_size=n + 1).map(tuple) | leaves.map(list)
    nodes = []

    def build(depth):
        if depth == 0 or nodes and draw(st.booleans()):
            nodes.append(Leaf(_often(draw, leaves, bad_leaves)))
            return
        player = _often(draw, st.integers(0, n - 1), NOT_INDICES)
        count = len(type_sets[player]) if type(player) is int and 0 <= player < n else 1
        arity = _often(draw, st.integers(1, 3), st.just(0))
        sets = tuple(_often(draw, st.integers(0, count - 1), NOT_INDICES) for _ in range(arity))
        nodes.append(_often(draw, st.just(Internal(player, sets)),
                            st.sampled_from([None, 0, (0, 1), Internal(player, list(sets))])))
        for _ in range(_often(draw, st.just(arity), st.integers(0, 3))):
            build(depth - 1)

    build(3)
    if draw(st.integers(0, 9)) == 9:
        build(0)
    return n, tuple(ids_mask(u, size) for u in universes), type_sets, nodes


@settings(FUZZ, max_examples=300)
@given(node_lists(), st.data())
def test_constructor_refuses_or_the_checkers_run(drawn, data):
    # a tree the constructor takes is well formed: validate, check_osp and
    # sampled check_implements report on it or raise ValueError, and it
    # round-trips through format 3
    n, universes, type_sets, nodes = drawn
    try:
        tree = MechanismTree(n, universes, type_sets, nodes)
    except ValueError:
        return
    q = PrioritySet.from_rankings(data.draw(tables(n)))
    validate(tree)
    for check in (lambda: check_osp(tree), lambda: check_implements(tree, q, samples=20)):
        with contextlib.suppress(ValueError):
            check()
    parsed, _ = parse_tree(json.loads(json.dumps(tree_to_doc(tree))))
    assert (parsed.n, parsed.universes, parsed.type_sets, parsed.nodes, parsed.children) == (
        n, universes, type_sets, tuple(nodes), tree.children)


KEYS = st.sampled_from(["n", "priorities", "preferences", "types", "applicants", "positions",
                        "universes", "nodes", "player", "children", "node", "matching",
                        "format", "type_sets", "set"])
SCALARS = (st.none() | st.booleans() | st.integers(-3, 30) | st.integers()
           | st.floats() | st.text(max_size=4) | st.sampled_from(list("abcd") + ["1", "2", "3", "4"]))
# hex bitmasks the format-3 reader must refuse or read strictly: a prefix,
# a separator, a sign, upper case, zero, surplus digits and digits that
# set bits past the universe
HEX = st.sampled_from(["0", "00", "0x1f", "1_f", " 1f", "+1f", "-1f", "1F", "ff", "fff", "f" * 40]) | st.text(
    "0123456789abcdef", min_size=1, max_size=8)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(KEYS | st.text(max_size=3), inner, max_size=5),
    max_leaves=20,
)


def _places(doc, path=()):
    """Every place in a JSON document, as the path of keys and indices to it."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _places(value, path + (key,))


def _document(data, valid):
    """The valid document with one field mutated (three draws in five), the
    valid document itself, or an arbitrary JSON value.  A mutation picks a
    field, then a place of it (a field is a path with its list indices
    left out, so the few containers near the root are hit as often as the
    many leaf names), and replaces it with a drawn value, deletes it or, in
    a list, repeats it.  The choices come from a ``Random`` seeded by a
    drawn integer and the valid document: Hypothesis' own draws favour the
    first option of a list and repeat values across examples, which would
    mostly hit one field."""
    rng = random.Random(repr((data.draw(st.integers(0, 2**64 - 1)), valid)))
    kind = rng.random()
    if kind < 0.2:
        return valid
    if kind < 0.4:
        return data.draw(JSON)
    doc = copy.deepcopy(valid)
    fields: dict[tuple, list[tuple]] = {}
    for path in list(_places(doc))[1:]:
        fields.setdefault((len(path),) + tuple(k for k in path if isinstance(k, str)), []).append(path)
    path = rng.choice(fields[rng.choice(sorted(fields))])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = rng.choice(["replace", "delete", "repeat"])
    if action == "delete":
        del parent[key]
    elif action == "repeat" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = data.draw(SCALARS | JSON | HEX if valid.get("format") == 3 else SCALARS | JSON)
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


COMMANDS = ["da", "classify", "synthesize", "verify-tree", "check-osp", "witness"]


@pytest.mark.parametrize("command", COMMANDS)
@settings(FUZZ, max_examples=100)
@given(data=st.data())
def test_cli_survives_drawn_documents(command, data):
    if command in ("synthesize", "verify-tree", "check-osp"):
        q, tree = data.draw(trees(restricted=True))
        n = q.n
    else:
        n = data.draw(st.integers(1, 6))
        q = PrioritySet.from_rankings(data.draw(tables(n)))
    profile = PreferenceProfile.from_rankings(data.draw(tables(n)))
    layout = "format3"  # of the tree file, drawn for the tree commands
    with tempfile.TemporaryDirectory() as tmp:
        def put(name, valid):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(_document(data, valid), handle)
            return path

        flags = ["--json"] if data.draw(st.booleans()) else []
        if command == "da":
            argv = ["da", put("q.json", priorities_to_doc(q)), put("p.json", profile_to_doc(profile))]
            argv += ["--transcript"] if data.draw(st.booleans()) else []
        elif command in ("classify", "witness"):
            argv = [command, put("q.json", priorities_to_doc(q))]
            if command == "witness" and data.draw(st.booleans()):
                argv += ["--search", "--budget", str(data.draw(st.integers(1, 20))),
                         "--seed", str(data.draw(st.integers(-5, 5)))]
        elif command == "synthesize":
            argv = ["synthesize", put("q.json", priorities_to_doc(q)), "-o", os.path.join(tmp, "t.json")]
        elif command == "check-osp":
            layout = data.draw(st.sampled_from(LAYOUTS))
            argv = ["check-osp", put("t.json", tree_doc(tree, layout))]
        else:
            layout = data.draw(st.sampled_from(LAYOUTS))
            argv = ["verify-tree", put("t.json", tree_doc(tree, layout)),
                    put("q.json", priorities_to_doc(q))]
            mode = data.draw(st.sampled_from(["default", "--exhaustive", "--samples"]))
            if mode == "--samples":
                argv += ["--samples", "50", "--seed", str(data.draw(st.integers(-3, 3)))]
            elif mode == "--exhaustive":
                argv.append(mode)
        code, out, err = _run(flags + argv)
    assert code in (0, 1, 2, 3), (code, err)
    assert code == 2 or layout == "format3", (layout, code, out)
    assert "Traceback" not in out + err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
