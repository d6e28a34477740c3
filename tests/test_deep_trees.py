"""Trees far deeper than the interpreter's recursion limit: a chain of
single-child nodes where applicant a acts at every level."""
from __future__ import annotations

import json
import sys

import pytest

from conftest import TAA3, priorities_to_doc
from ospmatch.cli import main
from ospmatch.jsonio import parse_tree, tree_to_doc
from ospmatch.mechanism import (
    Internal,
    Leaf,
    MechanismTree,
    full_universe,
    max_active_applicants,
    player_move_bound,
    restrict_environment,
    validate,
)

DEPTHS = [5_000, 100_000]


def chain(depth: int) -> MechanismTree:
    uni = full_universe(3)
    nodes = [Internal(0, (0,))] * depth + [Leaf((0, 1, 2))]
    return MechanismTree(3, (uni,) * 3, ((uni,), (), ()), nodes)


@pytest.mark.parametrize("depth", DEPTHS)
def test_deep_chain_library(depth):
    assert depth > sys.getrecursionlimit()
    tree = chain(depth)
    assert tree.node_count() == depth + 1
    assert validate(tree).ok
    assert player_move_bound(tree) == depth
    assert max_active_applicants(tree) == 0
    pruned = restrict_environment(tree, ((0, 1), (2,), (3, 4, 5)))
    assert pruned.node_count() == depth + 1
    rebuilt, _ = parse_tree(tree_to_doc(tree))
    assert rebuilt.node_count() == depth + 1


@pytest.mark.parametrize("depth", DEPTHS)
def test_deep_chain_cli_verdicts(depth, tmp_path, capsys):
    tree_path = tmp_path / "chain.json"
    tree_path.write_text(json.dumps(tree_to_doc(chain(depth))))
    q_path = tmp_path / "taa3.json"
    q_path.write_text(json.dumps(priorities_to_doc(TAA3)))
    assert main(["check-osp", str(tree_path)]) == 0
    captured = capsys.readouterr()
    assert "obviously strategyproof" in captured.out
    assert "Traceback" not in captured.err
    # one leaf cannot match deferred acceptance on every profile
    assert main(["verify-tree", str(tree_path), str(q_path)]) == 1
    captured = capsys.readouterr()
    assert "validate: ok" in captured.out and "implements: FAIL" in captured.out
    assert "Traceback" not in captured.err
