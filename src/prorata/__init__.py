"""Equilibria, best-response dynamics, and batch clearing for concave
pro-rata games: n players tender amounts x and split f(sum x) in
proportion to their contribution."""

from .analysis import (
    PoaGrowthResult,
    PoaReport,
    poa,
    poa_growth_check,
    power_poa_closed_form,
)
from .batch import (
    BatchInstance,
    BatchOutcome,
    clear,
    optimal_arbitrage,
)
from .dynamics import (
    BoundedUpdate,
    Budgeted,
    DynamicsTrace,
    GameConfig,
    StudyRecord,
    StudyResult,
    Unconstrained,
    WhaleFishReport,
    bounded_update_sweep,
    convergence_study,
    draw_initial_profile,
    simulate,
    whale_fish_experiment,
    whale_fish_sweep,
)
from .equilibrium import (
    BestResponseResult,
    EquilibriumResult,
    best_response,
    foc_residual,
    solve_symmetric,
)
from .errors import (
    ConfigError,
    DomainExceeded,
    InvalidArgument,
    NoFiniteRoot,
    NonPositiveNetDemand,
    NoPositiveRegion,
    ProRataError,
)
from .payoff import (
    CallablePayoff,
    CfmmArbitragePayoff,
    ForwardExchange,
    PayoffDiagnostics,
    PayoffFamily,
    PowerPayoff,
    TabulatedPayoff,
    diagnostics,
    family_from_dict,
    pro_rata_payoff,
)
from .verify import (
    CHORD_STRICT,
    LINEAR_SEGMENT_AT_ZERO,
    ROSEN_MONOTONE_PROBE,
    ConditionReport,
    check_chord_condition,
    detect_linear_segment_at_zero,
    replay_witness,
    rosen_probe,
)

__version__ = "0.1.0"
