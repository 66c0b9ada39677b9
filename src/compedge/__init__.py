"""Complementary edge ideals of simple graphs.

For a graph G on {1..n}, the complementary edge ideal has one squarefree
generator per edge {i,j}: the product of all variables except x_i and x_j.
This package classifies such ideals (licci, Cohen-Macaulay, resolution shape),
computes their graded Betti numbers exactly via reduced simplicial homology,
and estimates licci frequency in Erdos-Renyi random graphs.

`import compedge` loads no submodule. Each public name, and each layer
module (graphs, tables, ideals, homology, invariants, experiments), is
imported from its home module on first use, so a caller loads only the
layers it asks for; only the `experiments` names import numpy.
"""
__version__ = "0.1.0"

_EXPORTS = {
    "graphs": ("SimpleGraph", "GraphFormatError", "parse_graph", "is_forest", "is_complete",
               "is_tree", "connected_components", "max_subgraph_density", "enumerate_graphs",
               "complete_graph", "path_graph", "cycle_graph"),
    "tables": ("Field", "BettiTable"),
    "ideals": ("SquarefreeIdeal", "complementary_edge_ideal", "complementary_edge_dual",
               "minimalize", "minimal_vertex_covers", "height", "alexander_dual",
               "has_linear_quotients", "squarefree_component", "QuotientSearchResult"),
    "homology": ("SimplicialComplex", "simplicial_complex", "stanley_reisner",
                 "reduced_homology_dims", "hochster_betti", "reg_pd", "is_cohen_macaulay",
                 "has_linear_resolution", "is_componentwise_linear", "is_sequentially_cm"),
    "invariants": ("InvariantReport", "LicciVerdict", "DiscrepancyReport", "OracleInvariants",
                   "ImplicationSuite", "predict_invariants", "is_licci", "huneke_ulrich_check",
                   "implication_suite", "cross_validate", "oracle_invariants"),
    "experiments": ("ExperimentConfig", "ExperimentSummary", "SweepResult", "sample_gnp",
                    "estimate_licci_probability", "threshold_sweep", "summaries_to_csv"),
}
# each public name and each layer module, mapped to the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the home module of a public name when the name is first asked for."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    # not `from . import <home>`: that asks this hook for the module again
    module = import_module(f".{home}", __name__)
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({name for name in globals() if name.startswith("_")} | set(__all__))
