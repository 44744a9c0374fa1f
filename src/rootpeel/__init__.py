"""Interval peeling for zero-dimensional density-Rips persistence modules.

The package splits into: ``space`` (augmented metric spaces), ``pset``
(persistent sets as leveled merge forests), ``rooted`` (rooted generators and
the peel loop), ``linalg`` (exact desk-scale oracle), ``experiment`` (Monte
Carlo harness and limit constants), and ``cli``.
"""

from .space import AugmentedMetricSpace, attach_density, canonical_order, load_points
from .pset import LeveledMergeForest, PeelView, fresh_view
from .rooted import (
    IntervalSupport,
    NNGraph,
    PeelRecord,
    PeelTrace,
    constant_conqueror,
    elder_barcode_1d,
    interval_support,
    is_rooted_generator,
    is_rooted_subset,
    neighborly_rooted,
    nn_graph,
    peel_all,
    replay,
    staircode,
)
from .linalg import (
    GridModule,
    ModuleMorphism,
    betti0_total,
    endomorphism_space,
    idempotent_from_peel,
    is_indecomposable,
    linearize,
    split,
)
from .experiment import (
    SamplerConfig,
    TrialResult,
    b_constant,
    c_constant,
    run_trials,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedMetricSpace",
    "GridModule",
    "IntervalSupport",
    "LeveledMergeForest",
    "ModuleMorphism",
    "NNGraph",
    "PeelRecord",
    "PeelTrace",
    "PeelView",
    "SamplerConfig",
    "TrialResult",
    "attach_density",
    "b_constant",
    "betti0_total",
    "c_constant",
    "canonical_order",
    "constant_conqueror",
    "elder_barcode_1d",
    "endomorphism_space",
    "fresh_view",
    "idempotent_from_peel",
    "interval_support",
    "is_indecomposable",
    "is_rooted_generator",
    "is_rooted_subset",
    "linearize",
    "load_points",
    "neighborly_rooted",
    "nn_graph",
    "peel_all",
    "replay",
    "sample",
    "split",
    "staircode",
    "run_trials",
]
