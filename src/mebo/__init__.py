"""Outlier recognition via randomized enclosing-ball candidate trees."""

from .core import (
    Ball,
    Candidate,
    Dataset,
    DegenerateDatasetError,
    DerivedParams,
    EmptySubsetError,
    InstanceTooLargeError,
    InvalidParamsError,
    MeboError,
    Params,
    RecognitionResult,
    SpecInfeasibleError,
    derive_params,
)
from .meb import approx_meb_center, enclosing_radius, exact_meb_oracle
from .metrics import f1
from .multiclass import ClassSpec, peel
from .recognition import (
    boost_forest,
    boost_sequential,
    grow_tree,
    make_node_rng,
    recognize,
    score_candidate,
)
from .selection import k_smallest_distance, top_k_farthest
from .synth import gen_highdim, gen_multiclass, gen_toy_2d

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "Candidate",
    "ClassSpec",
    "Dataset",
    "DegenerateDatasetError",
    "DerivedParams",
    "EmptySubsetError",
    "InstanceTooLargeError",
    "InvalidParamsError",
    "MeboError",
    "Params",
    "RecognitionResult",
    "SpecInfeasibleError",
    "approx_meb_center",
    "boost_forest",
    "boost_sequential",
    "derive_params",
    "enclosing_radius",
    "exact_meb_oracle",
    "f1",
    "gen_highdim",
    "gen_multiclass",
    "gen_toy_2d",
    "grow_tree",
    "k_smallest_distance",
    "make_node_rng",
    "peel",
    "recognize",
    "score_candidate",
    "top_k_farthest",
]
