"""Cadlag rough stochastic analysis on finite grids.

Lifts with jumps and Chen's relation, p-variation and ensemble seminorms,
a stochastic-sewing engine, rough stochastic integrals, bracket calculus
with a change-of-variable formula, and an RSDE solver with exact jump
reinsertion.  The command line (`roughsew run/verify/list`) drives the
scenario registry in `roughsew.scenarios`.
"""
from .calculus import (
    ControlledPath,
    SmoothFn,
    bracket,
    compose,
    constant_controlled,
    controlled_from_lift,
    controlled_integral,
    integration_by_parts_residual,
    ito_formula_residual,
    mixed_bracket_check,
    remainder,
    rough_bracket,
    smooth_fn,
    smooth_fn_registry,
)
from .grids import (
    ControlFn,
    Partition,
    TimeGrid,
    alternating_midpoints,
    increment_table,
    insert_times,
    make_uniform_grid,
    p_variation,
    pvar_control,
    time_control,
)
from .integrals import (
    IntegralProcess,
    ito_integrate,
    jump_structure_check,
    rough_stoch_integrate,
    young_integrate,
)
from .norms import (
    chen_residual,
    lq_norm,
    lq_table,
    rough_path_distance,
    second_level_seminorm,
    two_param_seminorm,
    vp_lq_seminorm,
)
from .paths import (
    DriverSpec,
    MartingalePath,
    RoughLift,
    SamplePath,
    build_driver,
    forward_lift_jump_path,
    ito_lift_brownian,
    lift_from_steps,
    simulate_brownian,
    simulate_compound_poisson,
    simulate_mixed,
    smooth_lift,
)
from .rng import stream
from .rsde import (
    CoefficientSet,
    RSDEProblem,
    RSDEResult,
    picard_solve,
    solve,
    stability_experiment,
    step,
    window_control,
)
from .scenarios import ExperimentConfig, SCENARIOS, default_config, run_scenario
from .sewing import (
    Germ,
    RateReport,
    SewOutput,
    convergence_rate,
    delta_germ,
    increment_germ,
    ito_germ,
    qv_germ,
    riemann_path,
    riemann_sum,
    rough_germ,
    sew,
    young_germ,
)

__version__ = "0.1.0"
