"""Tournament solutions and the 3CNF gadget machinery around them."""

from tsol.banks import banks_member, banks_set
from tsol.core import (
    Tournament,
    enumerate_tournaments,
    format_tournament,
    parse_tournament,
    random_tournament,
    tournament_from_bits,
)
from tsol.reductions import (
    Cnf,
    GadgetLayout,
    Literal,
    banks_gadget,
    cnf,
    decision_node,
    layout_labels,
    layout_to_dot,
    lit,
    parse_dimacs,
    teq_gadget,
    validate_layout,
)
from tsol.teq import TeqResult, TeqStats, teq_exact, teq_heuristic, teq_member, teq_trace
from tsol.verification import (
    SWEEP_CHECKS,
    ReductionVerdict,
    SweepReport,
    check_proof_traces,
    consistent_choice_set,
    iter_consistent_choice_sets,
    sample_chain_reachability,
    sat_brute_force,
    sweep,
    verify_banks_reduction,
    verify_teq_reduction,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the kernel that runs every TEQ and Banks computation."""
    return "python"


__all__ = [
    "Tournament",
    "Cnf",
    "Literal",
    "GadgetLayout",
    "TeqResult",
    "TeqStats",
    "ReductionVerdict",
    "SweepReport",
    "SWEEP_CHECKS",
    "backend_name",
    "banks_gadget",
    "banks_member",
    "banks_set",
    "check_proof_traces",
    "cnf",
    "consistent_choice_set",
    "decision_node",
    "enumerate_tournaments",
    "format_tournament",
    "iter_consistent_choice_sets",
    "layout_labels",
    "layout_to_dot",
    "lit",
    "parse_dimacs",
    "parse_tournament",
    "random_tournament",
    "sample_chain_reachability",
    "sat_brute_force",
    "sweep",
    "teq_exact",
    "teq_gadget",
    "teq_heuristic",
    "teq_member",
    "teq_trace",
    "tournament_from_bits",
    "validate_layout",
    "verify_banks_reduction",
    "verify_teq_reduction",
]
