"""Truthful approximation mechanisms for barter exchange with bounded
trading cycles: conflict-graph reduction, loyal local search, mechanism
concatenation, and an adversarial verification harness."""

from .core import (
    NEG_INF,
    Exchange,
    LengthFunction,
    TradingCycle,
    WishListVector,
    parse_rational,
    rational_str,
    respects,
    social_welfare,
    utility,
)
from .cyclegraph import (
    CycleGraph,
    build_from_wishes,
    build_graph,
    enumerate_cycles,
)
from .exact import ExactSearchCapExceeded
from .localsearch import (
    ImprovementRule,
    LocalSearchTrace,
    RuleContractError,
    SearchStats,
    all_for_q_rule,
    expansion_rule,
    run_local_search,
)
from .mechanisms import (
    LambdaProfile,
    Mechanism,
    concatenate,
    greedy_mechanism,
    io_mechanism,
    lambda_profile,
    ls_mechanism,
    nu_mechanism,
    opt_mechanism,
    parse_mechanism,
    randomized_mechanism,
)
from .verification import (
    ManipulationFinding,
    RatioReport,
    fuzz_truthfulness_nodes,
    fuzz_truthfulness_wishlists,
    measure_ratio,
    oracle_max_weight_is,
    test_inpa,
)

__version__ = "0.1.0"
