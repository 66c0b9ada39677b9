"""Complementary edge ideals of simple graphs.

For a graph G on {1..n}, the complementary edge ideal has one squarefree
generator per edge {i,j}: the product of all variables except x_i and x_j.
This package classifies such ideals (licci, Cohen-Macaulay, resolution shape),
computes their graded Betti numbers exactly via reduced simplicial homology,
and estimates licci frequency in Erdos-Renyi random graphs.

The Monte Carlo names (the `experiments` module and its seven exports) are
resolved on first use, so only code that samples graphs imports numpy.
"""
from .graphs import (SimpleGraph, GraphFormatError, parse_graph, is_forest, is_complete,
                     is_tree, connected_components, max_subgraph_density, enumerate_graphs,
                     complete_graph, path_graph, cycle_graph)
from .ideals import (SquarefreeIdeal, complementary_edge_ideal, complementary_edge_dual,
                     minimalize, minimal_vertex_covers, height, alexander_dual,
                     has_linear_quotients, squarefree_component, QuotientSearchResult)
from .homology import (Field, SimplicialComplex, simplicial_complex, stanley_reisner,
                       reduced_homology_dims, hochster_betti, BettiTable, reg_pd,
                       is_cohen_macaulay, has_linear_resolution, is_componentwise_linear,
                       is_sequentially_cm)
from .invariants import (InvariantReport, LicciVerdict, DiscrepancyReport, OracleInvariants,
                         ImplicationSuite, predict_invariants, is_licci, huneke_ulrich_check,
                         implication_suite, cross_validate, oracle_invariants)

__version__ = "0.1.0"

_EXPERIMENT_NAMES = frozenset({"ExperimentConfig", "ExperimentSummary", "SweepResult",
                               "sample_gnp", "estimate_licci_probability", "threshold_sweep",
                               "summaries_to_csv"})


def __getattr__(name: str):
    """Import `experiments`, and with it numpy, when one of its names is first asked for."""
    if name == "experiments" or name in _EXPERIMENT_NAMES:
        import importlib
        # not `from . import experiments`: that asks this hook for "experiments" again
        module = importlib.import_module(".experiments", __name__)
        return module if name == "experiments" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EXPERIMENT_NAMES | {"experiments"})


__all__ = [name for name in __dir__() if not name.startswith("_")]
