"""Consensus solvability analysis for dynamic directed networks whose
per-round communication graph is drawn adversarially from a fixed set.

The package decides solvability by iteratively refining the adversary's
indistinguishability graph, synthesizes the induced consensus rule and
verifies it by exhaustive simulation at small scale, and generates the
adversary families used to probe worst-case behavior.
"""

from .decision import RefinementTrace, Verdict, check_protected_chain, decide
from .errors import (
    AdversaryFormatError,
    BudgetExceededError,
    FamilyValidationError,
    NonBroadcastableComponentError,
    NotRootedError,
    PremiseError,
)
from .graphs import CommunicationGraph
from .indist import Adversary, IndistGraph, is_protected, single_round_indist
from .patterns import (
    DEFAULT_PATTERN_BUDGET,
    Pattern,
    broadcaster_mask,
    indist_label,
    pattern_at,
    pattern_index,
    pattern_indist_graph,
)
from .simulate import (
    ConsensusRule,
    ImpossibilityWitness,
    RunReport,
    VerificationReport,
    build_rule,
    imposs_witness,
    oracle_min_horizon,
    run,
    verify_all_runs,
)

__version__ = "0.1.0"

__all__ = [
    "Adversary",
    "AdversaryFormatError",
    "BudgetExceededError",
    "CommunicationGraph",
    "ConsensusRule",
    "DEFAULT_PATTERN_BUDGET",
    "FamilyValidationError",
    "ImpossibilityWitness",
    "IndistGraph",
    "NonBroadcastableComponentError",
    "NotRootedError",
    "Pattern",
    "PremiseError",
    "RefinementTrace",
    "RunReport",
    "Verdict",
    "VerificationReport",
    "broadcaster_mask",
    "build_rule",
    "check_protected_chain",
    "decide",
    "imposs_witness",
    "indist_label",
    "is_protected",
    "oracle_min_horizon",
    "pattern_at",
    "pattern_index",
    "pattern_indist_graph",
    "run",
    "single_round_indist",
    "verify_all_runs",
]
