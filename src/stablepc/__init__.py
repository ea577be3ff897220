"""Constraint-based causal discovery with level-parallel CI testing.

The skeleton search is the order-independent (stable) variant: all edge
removals of one conditioning-set level apply together at level end, so CI
tests within a level can run on any number of workers, in memory-bounded
batches, and still produce results identical to the sequential run.
"""

from .citests import (
    ChiSquaredTest,
    CiTestOutcome,
    DegenerateConditioningError,
    FisherZTest,
    GaussianMiTest,
    GSquaredTest,
    OracleTest,
    TEST_IDS,
    chi2_sf,
    make_citest,
    normal_sf,
    partial_correlation,
)
from .data import (
    Continuous,
    Dataset,
    DatasetError,
    DegenerateDataError,
    Discrete,
    DiscreteSuffStat,
    GaussianSuffStat,
    discrete_suffstat,
    gaussian_suffstat,
    load_csv,
    sample_covariance,
    write_csv,
)
from .graphs import (
    Cpdag,
    Dag,
    GraphError,
    SepsetMap,
    SkeletonGraph,
    complete_graph,
    d_separated,
)
from .inference import (
    EffectMultiset,
    IdaEffect,
    PcSimpleResult,
    admissible_parent_sets,
    ida_effects,
    linear_sem_population_cov,
    linear_sem_sample,
    pc_simple,
)
from .orientation import cpdag_from_dag, meek_closure, orient_v_structures
from .skeleton import (
    BatchPlan,
    LevelExecutionError,
    LevelStat,
    LevelStats,
    SkeletonConfig,
    decide_edges,
    estimate_task_cost,
    plan_batches,
    skeleton_stable,
)

__version__ = "0.1.0"

__all__ = [
    "BatchPlan",
    "ChiSquaredTest",
    "CiTestOutcome",
    "Continuous",
    "Cpdag",
    "Dag",
    "Dataset",
    "DatasetError",
    "DegenerateConditioningError",
    "DegenerateDataError",
    "Discrete",
    "DiscreteSuffStat",
    "EffectMultiset",
    "FisherZTest",
    "GaussianMiTest",
    "GaussianSuffStat",
    "GraphError",
    "GSquaredTest",
    "IdaEffect",
    "LevelExecutionError",
    "LevelStat",
    "LevelStats",
    "OracleTest",
    "PcSimpleResult",
    "SepsetMap",
    "SkeletonConfig",
    "SkeletonGraph",
    "TEST_IDS",
    "admissible_parent_sets",
    "chi2_sf",
    "complete_graph",
    "cpdag_from_dag",
    "d_separated",
    "decide_edges",
    "discrete_suffstat",
    "estimate_task_cost",
    "gaussian_suffstat",
    "ida_effects",
    "linear_sem_population_cov",
    "linear_sem_sample",
    "load_csv",
    "make_citest",
    "meek_closure",
    "normal_sf",
    "orient_v_structures",
    "partial_correlation",
    "pc_simple",
    "plan_batches",
    "sample_covariance",
    "skeleton_stable",
    "write_csv",
]
