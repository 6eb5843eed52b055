"""blocktune: throughput-oriented block size tuning for batch-committing
ledger networks.

The pipeline: a discrete-event simulator of the orderer -> validate ->
commit path produces per-block performance measurements; three regression
models learn storing time and latency from them; a genetic search over
transaction-to-block assignments minimizes total processing time under
per-block count and byte caps; the largest block in the best assignment is
the recommended block size, which the simulator then validates against
neighboring sizes.
"""

__version__ = "0.1.0"

from .errors import (
    BlocktuneError,
    ConfigError,
    ConstraintViolationError,
    DatasetError,
    EmptyInstanceError,
    EnumerationBudgetError,
    FitError,
    InfeasibleInstanceError,
    InternalInvariantError,
    MalformedAssignmentError,
)
from .ga import (
    GaConfig,
    GaResult,
    brute_force_optimum,
    crossover,
    initialize_population,
    mutate,
    select,
)
from .ga import run as run_ga
from .model import (
    AssignmentMatrix,
    BlockLimits,
    ConstraintReport,
    NodeProfile,
    ProblemInstance,
    Transaction,
    Violation,
    derive_block_count,
    recommended_block_size,
    total_processing_time,
    validate_assignment,
)
from .simulator import (
    BlockCutRule,
    GroundTruthCost,
    SimConfig,
    SimResult,
    WorkloadProfile,
    generate_training_dataset,
    run_simulation,
    throughput_vs_blocksize,
)
from .surrogate import (
    BoostedEnsemble,
    PerformancePredictor,
    PolynomialModel,
    RegressionTree,
    SurrogateConfig,
    fit_boosted,
    fit_polynomial,
    fit_predictor,
    fit_tree,
    load_dataset,
    save_dataset,
)
