"""Fixed-budget thresholding bandits under monotone and concave shape constraints.

Simulation library: instance families, backtracking tree-search algorithms
and baselines, closed-form rate bounds, adversarial constructors, and a
seeded Monte-Carlo experiment harness with CSV output.

The names below are resolved on first use (PEP 562), so ``import tbp`` and
the CLI load only the submodules they run.
"""
__version__ = "0.1.0"

#: Every re-exported name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "Action", "AlgoResult", "BatchResult", "BudgetError", "GradState", "ShapeError",
        "StepRecord", "Trajectory", "budget_split", "ctb", "ctb_batch", "dexplore",
        "explore", "explore_batch", "gradexplore", "naive", "naive_batch", "uniform",
        "uniform_batch"), "algos"),
    **dict.fromkeys(("distance_series", "favorable_series"), "diagnostics"),
    **dict.fromkeys((
        "BoundReport", "PerturbationError", "adversarial_monotone_pair", "concave_lower",
        "concave_perturb", "concave_upper", "monotone_lower", "monotone_upper",
        "unstructured_bounds", "unstructured_complexity"), "bounds"),
    **dict.fromkeys((
        "Classification", "GapVector", "Problem", "RngStream", "Setting", "ShapeClass",
        "VariateBlock", "augment", "gap_distorted", "gaps", "make_setting", "sample_mean",
        "shape_check", "true_labels"), "env"),
    **dict.fromkeys((
        "ErrorEstimate", "ExperimentConfig", "ResultRow", "run_experiment", "run_trial",
        "wilson_interval", "write_csv"), "harness"),
    **dict.fromkeys(("Node", "children", "is_leaf", "max_depth", "parent", "root"), "tree"),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def _submodule(name):
    # The import statement's machinery (so ``-X importtime`` reports it), which
    # also binds the submodule in this namespace.
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(_submodule(_EXPORTS[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _EXPORTS.keys() | _SUBMODULES)
