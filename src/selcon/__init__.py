"""Training-subset selection for constrained ridge regression.

Selects k training points by minimizing the optimal value of a
validation-constrained regularized regression objective, written as a
max-min problem over model parameters and box-bounded multipliers.  The set
function this induces is monotone with a certifiable submodularity ratio and
curvature, which powers a majorization-minimization driver with an
approximation guarantee; exhaustive desk-scale oracles verify every claimed
property.
"""

from .baselines import (
    full_selection,
    full_with_constraints,
    random_subset,
    random_selection,
    random_with_constraints,
)
from .bounds import (
    BoundReport,
    DataConstants,
    alpha_hat_linear,
    alpha_hat_nonlinear,
    approx_ratio,
    bound_report,
    claim1_min,
    data_constants,
    ell,
    ell_star_linear,
    kappa_hat,
    lambda_min_linear,
    w_norm_bound,
)
from .dataset import (
    Dataset,
    SplitSpec,
    ValidationPartition,
    gen_synthetic,
    load_csv,
    offset_augment,
    partition_validation,
    save_csv,
    split,
)
from .dual import (
    TrainedState,
    TrainerConfig,
    dual_objective,
    primal_value,
    solve_inner_linear,
    train_dual_exact,
    train_dual_sgd,
)
from .metrics import (
    default_delta,
    fairness_violation,
    group_errors,
    mse,
)
from .models import LinearModel, TwoLayerModel, loss_grad, predict, predict_many
from .oracle import (
    OracleReport,
    brute_force_optimum,
    check_modular_bound,
    check_monotone,
    check_sandwich,
    empirical_alpha,
    empirical_kappa,
)
from .selection import (
    SelconConfig,
    SelectionResult,
    modular_scores,
    run_selcon,
    run_selcon_unconstrained,
)
from .setfn import SetFnContext

__version__ = "0.1.0"
