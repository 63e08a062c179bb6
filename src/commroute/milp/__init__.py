"""Integer programming layer: 0/1 minimization container, HiGHS solver, builders."""

from .model import MilpModel, Variable, LinearConstraint
from .backends import (
    SolveResult,
    ScipyBackend,
    solve_lp_relaxation,
)
from .models import (
    ModelVariant,
    build_base,
    add_gate_constraints,
    build_variant,
    add_hardware_symmetry,
    add_complete_placement_fixing,
    build_swap_step_model,
    decode_solution,
    solve_min_swaps_at,
    DecodeError,
)

__all__ = [
    "MilpModel",
    "Variable",
    "LinearConstraint",
    "SolveResult",
    "ScipyBackend",
    "solve_lp_relaxation",
    "ModelVariant",
    "build_base",
    "add_gate_constraints",
    "build_variant",
    "add_hardware_symmetry",
    "add_complete_placement_fixing",
    "build_swap_step_model",
    "decode_solution",
    "solve_min_swaps_at",
    "DecodeError",
]
