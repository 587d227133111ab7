"""Fixed-budget thresholding bandits under monotone and concave shape constraints.

Simulation library: instance families, backtracking tree-search algorithms
and baselines, closed-form rate bounds, adversarial constructors, and a
seeded Monte-Carlo experiment harness with CSV output.
"""
from .algos import (
    Action,
    AlgoResult,
    BatchResult,
    BudgetError,
    GradState,
    ShapeError,
    StepRecord,
    Trajectory,
    budget_split,
    ctb,
    ctb_batch,
    dexplore,
    distance_series,
    explore,
    explore_batch,
    favorable_series,
    gradexplore,
    naive,
    naive_batch,
    uniform,
    uniform_batch,
)
from .bounds import (
    BoundReport,
    PerturbationError,
    adversarial_monotone_pair,
    concave_lower,
    concave_perturb,
    concave_upper,
    monotone_lower,
    monotone_upper,
    unstructured_bounds,
    unstructured_complexity,
)
from .env import (
    Classification,
    GapVector,
    Problem,
    RngStream,
    Setting,
    ShapeClass,
    VariateBlock,
    augment,
    gap_distorted,
    gaps,
    make_setting,
    sample_mean,
    shape_check,
    true_labels,
)
from .harness import (
    ErrorEstimate,
    ExperimentConfig,
    ResultRow,
    run_experiment,
    run_trial,
    wilson_interval,
    write_csv,
)
from .tree import Node, children, is_leaf, max_depth, parent, root

__version__ = "0.1.0"
