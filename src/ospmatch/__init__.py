"""Obviously strategyproof implementations of deferred acceptance.

Classify fixed priority structures for one-sided stable matching, build
extensive-form clinch mechanisms for the implementable ones, and certify
the rest with witness subdomains.
"""

from .classify import (
    Classification,
    TaaLabeling,
    classify,
    forbidden_patterns,
    is_cyclic,
    scan_forbidden,
)
from .core import (
    Matching,
    PreferenceProfile,
    PrioritySet,
    Restriction,
    enumerate_priority_sets,
    restrict,
    restrictions,
)
from .da import all_stable_matchings, is_stable, proposal_rounds, run_da
from .mechanism import (
    ImplementsReport,
    MechanismTree,
    OspReport,
    ValidationReport,
    check_implements,
    check_osp,
    execute,
    restrict_environment,
    validate,
)
from .synth import NotLimitedCyclicError, synthesize
from .witness import Subdomain, WitnessReport, check_witness, find_witness, fixtures

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "ImplementsReport",
    "Matching",
    "MechanismTree",
    "NotLimitedCyclicError",
    "OspReport",
    "PreferenceProfile",
    "PrioritySet",
    "Restriction",
    "Subdomain",
    "TaaLabeling",
    "ValidationReport",
    "WitnessReport",
    "all_stable_matchings",
    "check_implements",
    "check_osp",
    "check_witness",
    "classify",
    "enumerate_priority_sets",
    "execute",
    "find_witness",
    "fixtures",
    "forbidden_patterns",
    "is_cyclic",
    "is_stable",
    "proposal_rounds",
    "restrict",
    "restrict_environment",
    "restrictions",
    "run_da",
    "scan_forbidden",
    "synthesize",
    "validate",
]
