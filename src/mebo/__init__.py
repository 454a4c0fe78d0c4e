"""Outlier recognition via randomized enclosing-ball candidate trees."""

from .core import (
    Ball,
    Candidate,
    Dataset,
    DegenerateDatasetError,
    DerivedParams,
    EmptySubsetError,
    InvalidParamsError,
    MeboError,
    Params,
    RecognitionResult,
    SpecInfeasibleError,
    derive_params,
)
from .meb import approx_meb_center
from .metrics import f1
from .multiclass import ClassSpec, peel
from .recognition import (
    boost_forest,
    boost_sequential,
    grow_tree,
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
    "InvalidParamsError",
    "MeboError",
    "Params",
    "RecognitionResult",
    "SpecInfeasibleError",
    "approx_meb_center",
    "boost_forest",
    "boost_sequential",
    "derive_params",
    "f1",
    "gen_highdim",
    "gen_multiclass",
    "gen_toy_2d",
    "grow_tree",
    "k_smallest_distance",
    "peel",
    "recognize",
    "score_candidate",
    "top_k_farthest",
]
