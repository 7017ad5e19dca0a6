"""Adaptive differential evolution with success-history parameter control,
plus a discrete-continuous architecture-search pipeline built on top of it."""

from .de_core import Bounds, Individual, ObjectiveSpec, init_population
from .discrete_codec import Axis, DiscreteSpace, Genotype, decode, encode, perturb
from .nas_search import (
    BiObjectiveConfig,
    NasConfig,
    brute_force_optimum,
    nas_evolve,
    pids_space,
    score,
)
from .objectives import BenchmarkFunction, TabularSurrogate, make_benchmark
from .shsade import ShsadeConfig, ShsadeState, Termination, run
from .trace import SearchTrace

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "BenchmarkFunction",
    "BiObjectiveConfig",
    "Bounds",
    "DiscreteSpace",
    "Genotype",
    "Individual",
    "NasConfig",
    "ObjectiveSpec",
    "SearchTrace",
    "ShsadeConfig",
    "ShsadeState",
    "TabularSurrogate",
    "Termination",
    "brute_force_optimum",
    "decode",
    "encode",
    "init_population",
    "make_benchmark",
    "nas_evolve",
    "perturb",
    "pids_space",
    "run",
    "score",
]
