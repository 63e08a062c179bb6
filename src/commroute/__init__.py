"""commroute: swap-minimal qubit routing for commuting two-qubit gates.

Routes an interaction graph onto a hardware graph through sequences of
parallel swap steps, exactly (integer programming, exhaustive oracle),
constructively (tree heuristics), and schedules the resulting gates into
depth-minimal circuit layers.
"""

from .bounds import (
    BoundReport,
    bound_report,
    max_gain_per_step,
    max_gain_per_swap,
    step_lower_bound,
    swap_lower_bound,
    swap_upper_bound,
)
from .graphs import (
    Graph,
    bridged_cycles_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    spider_graph,
    star_graph,
)
from .pipeline import (
    PipelineResult,
    circuit_ingest,
    generate_instance,
    route,
    solve_min_swaps,
)
from .solutions import (
    CircuitLayer,
    RoutedCircuit,
    SwapSolution,
    TmpInstance,
    TokenPlacement,
    apply_matching,
    is_subgraph_placement,
    placement_trajectory,
    validate_routed_circuit,
    validate_swap_solution,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CircuitLayer",
    "Graph",
    "RoutedCircuit",
    "SwapSolution",
    "TmpInstance",
    "TokenPlacement",
    "apply_matching",
    "bound_report",
    "bridged_cycles_graph",
    "complete_graph",
    "cycle_graph",
    "PipelineResult",
    "circuit_ingest",
    "generate_instance",
    "max_gain_per_step",
    "max_gain_per_swap",
    "grid_graph",
    "is_subgraph_placement",
    "path_graph",
    "placement_trajectory",
    "route",
    "solve_min_swaps",
    "spider_graph",
    "star_graph",
    "step_lower_bound",
    "swap_lower_bound",
    "swap_upper_bound",
    "validate_routed_circuit",
    "validate_swap_solution",
]
