"""Games with optimistic payoff perturbations: responses, dynamics, stability."""

from .analysis import (
    ConcavityReport,
    FixedPointResult,
    PlayerStability,
    StabilityReport,
    VariationalProbe,
    coupling_bound,
    diagonal_dominance_check,
    equilibrium_residual,
    fixed_point_iterate,
    game_hessian,
    hessian_blocks,
    negdef_on_tangent_check,
    operator_norm,
    residual_series,
    stability_check,
    strong_concavity_check,
    variational_stability_probe,
)
from .dynamics import (
    RunConfig,
    ScheduleReport,
    StepSchedule,
    Trace,
    classify_schedule,
    run_dynamics,
    update_estimates,
)
from .families import (
    ExponentialFamily,
    MarginalFamily,
    ParetoFamily,
    TabulatedFamily,
    UniformFamily,
    family_from_dict,
)
from .games import (
    Game,
    StrategyProfile,
    expected_payoff,
    load_game,
    matching_game,
    pairwise_payoff_matrix,
    payoff_vector,
    payoff_vector_rows,
    random_game,
    random_profile,
    save_game,
    uniform_profile,
)
from .oracles import (
    SampleEstimate,
    coupling_expected_max,
    finite_difference_gradient,
    grid_fixed_point,
    gumbel_choice_frequencies,
    project_simplex,
    quadrature_regularizer,
)
from .response import (
    ResponseResult,
    optimistic_value,
    quantal_response,
    response_operator,
    response_probabilities,
    response_solver,
    smooth_payoff,
    smooth_payoff_gradient,
    sparsemax,
    weighted_softmax,
)
from .verify import verification_suite

__version__ = "0.1.0"
