"""Public calls free what they build by reference counting: none leaves
objects that only the cyclic garbage collector could reclaim."""
from __future__ import annotations

import gc

import pytest

from conftest import FIG_A, STAR6, TAA3, p_of
from ospmatch.classify import classify, scan_forbidden
from ospmatch.core import all_rankings
from ospmatch.da import da_match_product, run_da
from ospmatch.jsonio import parse_tree, tree_to_doc
from ospmatch.mechanism import (
    check_implements,
    check_osp,
    execute,
    restrict_environment,
    reveal_tree,
    validate,
)
from ospmatch.sweep import class_census, sweep_equivalence
from ospmatch.synth import synthesize
from ospmatch.witness import check_witness, find_witness, fixtures, lift_witness

TREE = synthesize(TAA3)
PROFILE = p_of((1, 2, 3), (2, 1, 3), (3, 1, 2))
RANKINGS = all_rankings(3)

CALLS = {
    "synthesize": lambda: synthesize(STAR6),
    "reveal_tree": lambda: reveal_tree(FIG_A),
    "reveal_tree_restricted": lambda: reveal_tree(FIG_A, ((0, 5), (3,), (1, 2, 4))),
    "validate": lambda: validate(TREE),
    "check_osp": lambda: check_osp(TREE),
    "check_implements": lambda: check_implements(TREE, TAA3),
    "check_implements_sampled": lambda: check_implements(TREE, TAA3, samples=50, seed=3),
    "restrict_environment": lambda: restrict_environment(TREE, ((0, 1, 2), (3, 4), (5,))),
    "execute": lambda: execute(TREE, PROFILE),
    "json_format3": lambda: parse_tree(tree_to_doc(TREE)),
    "classify": lambda: classify(FIG_A),
    "scan_forbidden": lambda: scan_forbidden(FIG_A),
    "check_witness": lambda: check_witness(fixtures()[0].priorities, fixtures()[0].subdomain),
    "find_witness": lambda: find_witness(FIG_A, 200, 7),
    "lift_witness": lambda: lift_witness(FIG_A, scan_forbidden(FIG_A)[0]),
    "da_match_product": lambda: da_match_product(
        FIG_A.rank_table(), (RANKINGS[:2], RANKINGS[2:4], RANKINGS[4:])),
    "da_match_product_n0": lambda: da_match_product((), ()),
    "run_da": lambda: run_da(FIG_A, PROFILE),
    "class_census": lambda: class_census(3),
    "sweep_equivalence": lambda: sweep_equivalence(3),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_public_calls_leave_nothing_for_the_cyclic_collector(call):
    call()  # the first call fills the module caches
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
