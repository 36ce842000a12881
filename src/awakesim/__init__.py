"""Round-synchronous simulation of sleeping-model graph algorithms.

The package bundles a message-passing engine that charges nodes only for
rounds they spend awake, three-stage MIS with constant node-averaged awake
cost, fractional matching with vertex cover extraction and randomized
rounding, black-box matching amplification, and a seeded experiment CLI.
"""

from .engine import AwakeLedger, Protocol, RunMetrics, run
from .errors import (InvalidAssignment, InvalidPath, OracleTooLarge,
                     PreconditionViolated, RoundCapExceeded)
from .graphs import (Graph, Matching, canon, complete_graph, cycle_graph,
                     gen_bipartite, gen_gnp, path_graph, petersen_graph,
                     star_graph)
from .rng import coin_threshold, node_rng, node_rng_array, uniform01
from .oracles import (exact_max_matching, exact_min_vertex_cover,
                      find_short_augmenting_path, greedy_maximal_matching,
                      max_bipartite_matching, verify_matching, verify_mis,
                      verify_vertex_cover)
from .mis import MisParams, awake_mis, greedy_partial_mis, luby_mis, part2_reduce
from .fractional import (FractionalAssignment, SampleSchedule, extract_vertex_cover,
                         iterated_log, round_matching, sampled_fractional,
                         vanilla_fractional)
from .augmentation import (LayerGraph, MatchBox, augment,
                           bipartite_one_plus_eps, build_layer_graph,
                           delta_maximal, find_maximal_paths,
                           full_matching_pipeline, general_one_plus_eps)
from .bench import ExperimentConfig, run_experiment, sweep

__version__ = "0.1.0"

__all__ = [
    "AwakeLedger", "ExperimentConfig", "FractionalAssignment",
    "Graph", "InvalidAssignment", "InvalidPath", "LayerGraph", "MatchBox",
    "Matching", "MisParams", "OracleTooLarge", "PreconditionViolated", "Protocol", "RoundCapExceeded", "RunMetrics",
    "SampleSchedule", "augment", "awake_mis", "bipartite_one_plus_eps",
    "build_layer_graph", "canon", "coin_threshold", "complete_graph",
    "cycle_graph", "delta_maximal", "exact_max_matching",
    "exact_min_vertex_cover", "extract_vertex_cover",
    "find_maximal_paths", "find_short_augmenting_path",
    "full_matching_pipeline", "gen_bipartite", "gen_gnp",
    "general_one_plus_eps", "greedy_maximal_matching", "greedy_partial_mis",
    "iterated_log", "luby_mis", "max_bipartite_matching", "node_rng",
    "node_rng_array", "part2_reduce", "path_graph",
    "petersen_graph", "round_matching", "run", "run_experiment",
    "sampled_fractional", "star_graph", "sweep", "uniform01",
    "vanilla_fractional", "verify_matching", "verify_mis",
    "verify_vertex_cover",
]
