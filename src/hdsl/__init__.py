"""hdsl: sparse bilinear similarity learning from triplet constraints.

Learns S_M(x, x') = x^T M x' with M a convex combination of rank-one
4-sparse bases, fit by a Frank-Wolfe algorithm with away steps whose
per-iteration cost is independent of the ambient dimension.
"""

from .sparse_data import (
    Dataset,
    ParseError,
    SparseVector,
    feature_scales,
    parse_libsvm,
    read_triplets,
    scale_to_unit_range,
    serialize_libsvm,
    write_triplets,
)
from .model import (
    NEG,
    POS,
    BasisId,
    Model,
    ProjectionMap,
    deserialize,
    factorize,
    project,
    project_dataset,
    serialize,
    similarity,
    to_csr_matrix,
    to_sparse_matrix,
)
from .objective import (
    ConstraintSet,
    MarginCache,
    grad_inner_with_model,
    init_cache,
    objective,
    smoothed_hinge,
    smoothed_hinge_deriv,
    update_cache_sparse,
)
from .solver import (
    Direction,
    GradientAccumulators,
    SolverConfig,
    SolverState,
    apply_step,
    away_direction,
    choose_direction,
    convergence_bound,
    excess_risk_bound,
    forward_exact,
    forward_heuristic,
    forward_minibatch,
    fw_gap,
    gradient_accumulate,
    line_search,
    lipschitz_constant,
    train,
)
from .constraints import (
    link_triplets,
    neighbors_triplets,
    random_label_triplets,
    truth_triplets,
)
from .synthetic import (
    gen_links,
    gen_powerlaw_sparse,
    gen_truth,
    gen_truth_frequent,
    gen_uniform_sparse,
    powerlaw_inclusion_probs,
)
from .evaluation import (
    auc,
    entry_recovery_auc,
    feature_recovery_auc,
    knn_error,
    link_auc,
)

__version__ = "0.1.0"
