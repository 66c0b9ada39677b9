"""Closed-form predictions for complementary edge ideals, checked against the oracle.

The formula layer classifies a graph (tree, disconnected forest, complete,
other) and predicts height, Cohen-Macaulayness, projective dimension and
regularity of I_c(G) from the classification alone. The licci verdict is a
pure graph predicate: forests and the triangle are licci, nothing else is.

Two known tensions are flagged rather than silently resolved:

* complete graphs: the literal exact-characterization statement would put
  K_n in the pd = 1 class, but height 3 together with Cohen-Macaulayness
  forces pd(I) = 2; the prediction uses 2 and carries a note.
* isolated vertices: every generator of I_c(G) is divisible by the variables
  of the isolated vertices, so height drops to 1 and the closed forms above
  stop applying; predictions carry a note and the oracle adjudicates.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb
from typing import NamedTuple

from .graphs import SimpleGraph, _is_chordal, _plain_int, is_forest
from .tables import Field, _count_invariants, _require_edge_ambient, _require_field

NOTE_COMPLETE_PD = "complete_pd_adjusted"
NOTE_ISOLATED = "isolated_vertices_outside_hypotheses"

REASON_FOREST = "forest"
REASON_K3 = "K3"
REASON_COMPLETE = "complete_n_ge_4"
REASON_CYCLE = "contains_cycle_not_complete"

_ISOLATED_NOTES = (NOTE_ISOLATED,)
_COMPLETE_NOTES = (NOTE_COMPLETE_PD,)

# _record(Report, values) is Report(*values) built as a NamedTuple's _make builds it,
# with no Python frame for its __new__: the reports built once per call use it
_record = tuple.__new__


def _provenance(height: str, pd: str, reg: str) -> tuple[tuple[str, str], ...]:
    """The rule behind each invariant predicted for one graph class."""
    return (("height", height), ("cohen_macaulay", "cm_iff_complete_or_forest"),
            ("pd_ideal", pd), ("reg_ideal", reg), ("licci", "licci_iff_forest_or_triangle"))


_PROVENANCE_COMPLETE = _provenance("complete_height_rule", "complete_pd_from_height_and_cm",
                                   "complete_reg_rule")
_PROVENANCE_TREE = _provenance("non_complete_height_rule", "forest_pd_rule", "tree_reg_rule")
_PROVENANCE_DISCONNECTED_FOREST = _provenance("non_complete_height_rule", "forest_pd_rule",
                                              "disconnected_forest_reg_rule")
_PROVENANCE_OTHER = _provenance("non_complete_height_rule", "non_cm_pd_rule", "reg_bounds_rule")


class LicciVerdict(NamedTuple):
    """Whether the localized ideal is in the linkage class of a complete intersection."""

    licci: bool
    reason: str

    def to_json_dict(self) -> dict:
        return self._asdict()


# the four verdicts, shared by every graph of their class
_LICCI_K3 = LicciVerdict(True, REASON_K3)
_NOT_LICCI_COMPLETE = LicciVerdict(False, REASON_COMPLETE)
_LICCI_FOREST = LicciVerdict(True, REASON_FOREST)
_NOT_LICCI_CYCLE = LicciVerdict(False, REASON_CYCLE)


class InvariantReport(NamedTuple):
    """Formula-layer predictions for one graph."""

    graph_class: str
    height: int
    cohen_macaulay: bool
    pd_ideal: int
    reg_ideal: tuple[int, int]
    indeg: int
    verdict: LicciVerdict
    notes: tuple[str, ...]
    provenance: tuple[tuple[str, str], ...]

    def to_json_dict(self) -> dict:
        lo, hi = self.reg_ideal
        return {
            "graph_class": self.graph_class,
            "height": self.height,
            "cohen_macaulay": self.cohen_macaulay,
            "pd_ideal": self.pd_ideal,
            "reg_ideal": lo if lo == hi else [lo, hi],
            "indeg": self.indeg,
            "licci": self.verdict.licci,
            "notes": list(self.notes),
            "provenance": {k: v for k, v in self.provenance},
        }


class OracleInvariants(NamedTuple):
    """Measured values of I_c(G) from the oracle, read off the graph's counts."""

    field: Field
    height: int
    reg_s_mod_i: int
    pd_s_mod_i: int
    reg_ideal: int
    pd_ideal: int
    cohen_macaulay: bool

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "field": self.field.value}


class DiscrepancyReport(NamedTuple):
    """Prediction-vs-oracle mismatches for one graph; empty means full agreement.

    Keeps the prediction and the oracle values it compared (not in the JSON).
    """

    graph: SimpleGraph
    field: Field
    mismatches: tuple[tuple[str, object, object], ...]
    predicted: InvariantReport
    oracle: OracleInvariants

    @property
    def clean(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "field": self.field.value,
            "mismatches": [
                # a predicted regularity is an interval; every oracle value is a number
                {"invariant": name, "predicted": list(pred) if isinstance(pred, tuple) else pred,
                 "oracle": orc}
                for name, pred, orc in self.mismatches
            ],
        }


def _require_admissible(graph: SimpleGraph) -> None:
    _require_edge_ambient(graph.n)
    if not graph.edges:
        raise ValueError("edgeless graph: the complementary edge ideal is zero")


def is_licci(graph: SimpleGraph) -> LicciVerdict:
    """Licci verdict for the localized complementary edge ideal.

    Complete graphs are decided before forests so the triangle gets its own
    reason; beyond K_3, completeness rules licci out, as does any cycle.
    """
    _require_admissible(graph)
    return _licci(graph.n, graph.m, is_forest(graph))


def _licci(n: int, m: int, forest: bool) -> LicciVerdict:
    """is_licci for m edges on n vertices that form a forest or not: one of the four verdicts."""
    if m == n * (n - 1) // 2:
        return _LICCI_K3 if n == 3 else _NOT_LICCI_COMPLETE
    return _LICCI_FOREST if forest else _NOT_LICCI_CYCLE


def huneke_ulrich_check(reg_s_mod_i: int, height_: int, indeg: int) -> bool:
    """Necessary licci condition: reg(S/I) >= (height - 1) * (indeg - 1).

    Each argument is read as a plain int, so a float or a string is a
    ValueError that names it.
    """
    reg_s_mod_i = _plain_int(reg_s_mod_i, "reg_s_mod_i")
    height_ = _plain_int(height_, "height")
    indeg = _plain_int(indeg, "indeg")
    return reg_s_mod_i >= (height_ - 1) * (indeg - 1)


def predict_invariants(graph: SimpleGraph) -> InvariantReport:
    """Classification-driven predictions for height, CM, pd and reg of I_c(G)."""
    _require_admissible(graph)
    return _predict(graph)


def _predict(graph: SimpleGraph) -> InvariantReport:
    """predict_invariants off the counts the graph took when it was built.

    graph._met vertices lie on an edge, and graph._joins of the edges join
    two components: the edges form a forest exactly when every one of them
    does. The report is the shared record of the class on n vertices and the
    isolated-vertex flag.
    """
    n, m = graph.n, len(graph.edges)
    verdict = _licci(n, m, graph._joins == m)
    # a forest with c components has n - c edges
    return _class_report(n, verdict, verdict is _LICCI_FOREST and m == n - 1, graph._met < n)


# The records below are shared by every graph that asks for the same values, and
# bounded at any n: verify --max-n 7 over either field or both fills 27 of the 256
# predictions, 62 oracle records and 39 entries of _checked.
@lru_cache(maxsize=256)
def _class_report(n: int, verdict: LicciVerdict, tree: bool, isolated: bool) -> InvariantReport:
    """The prediction for every graph of one class on n vertices.

    Notes and provenance are per-class constants; a complete G has no isolated vertex.
    """
    notes = _ISOLATED_NOTES if isolated else ()
    if verdict is _LICCI_FOREST:
        if tree:
            return InvariantReport("tree", 2, True, 1, (n - 2, n - 2), n - 2, verdict,
                                   notes, _PROVENANCE_TREE)
        return InvariantReport("disconnected_forest", 2, True, 1, (n - 1, n - 1), n - 2,
                               verdict, notes, _PROVENANCE_DISCONNECTED_FOREST)
    if verdict is _NOT_LICCI_CYCLE:
        return InvariantReport("other", 2, False, 2, (n - 2, n - 1), n - 2, verdict,
                               notes, _PROVENANCE_OTHER)
    return InvariantReport("complete", 3, True, 2, (n - 2, n - 2), n - 2, verdict,
                           _COMPLETE_NOTES, _PROVENANCE_COMPLETE)


def oracle_invariants(graph: SimpleGraph, field: Field = Field.GF2) -> OracleInvariants:
    """Measure height, reg, pd and Cohen-Macaulayness with the exact oracle.

    They are read off the graph's counts (the edges, the vertices on an edge
    and the components holding one) by tables._count_invariants, which
    builds no ideal and no Betti table, so it answers at any n. A field that
    is no Field member is refused before any record is built.
    """
    _require_admissible(graph)
    _require_field(field)
    return _oracle_record(field, *_count_invariants(graph.n, len(graph.edges), graph._met,
                                                    graph._joins))


@lru_cache(maxsize=256)
def _oracle_record(field: Field, ht: int, reg: int, pd: int) -> OracleInvariants:
    """The oracle values of every graph with this height, reg(S/I) and pd(S/I) over field."""
    return OracleInvariants(field, ht, reg, pd, reg + 1, pd - 1, pd == ht)


def cross_validate(graph: SimpleGraph, field: Field = Field.GF2) -> DiscrepancyReport:
    """Compare the formula layer against the oracle; reg uses interval containment.

    The prediction is _predict's, and the oracle values are read off the
    counts the graph took when it was built; the refusals are those of
    predict_invariants, then those of oracle_invariants. One lookup keyed by
    the prediction and the oracle values gives the shared oracle record of
    each field and the shared tuple of mismatches, which no field changes.
    """
    _require_admissible(graph)
    _require_field(field)
    predicted = _predict(graph)
    oracles, mismatches = _checked(predicted, *_count_invariants(
        graph.n, len(graph.edges), graph._met, graph._joins))
    return _record(DiscrepancyReport, (graph, field, mismatches, predicted, oracles[field]))


@lru_cache(maxsize=256)
def _checked(predicted: InvariantReport, ht: int, reg: int, pd: int
             ) -> tuple[dict[Field, OracleInvariants], tuple[tuple[str, object, object], ...]]:
    """The oracle record of these values over each field, and what the prediction and
    the values disagree on; reg by interval containment. The key holds no field: the
    values, and so the mismatches, are the same over every field."""
    oracle = _oracle_record(Field.GF2, ht, reg, pd)
    oracles = {Field.GF2: oracle, Field.RATIONALS: _oracle_record(Field.RATIONALS, ht, reg, pd)}
    mismatches: list[tuple[str, object, object]] = []
    if predicted.height != oracle.height:
        mismatches.append(("height", predicted.height, oracle.height))
    if predicted.cohen_macaulay != oracle.cohen_macaulay:
        mismatches.append(("cohen_macaulay", predicted.cohen_macaulay, oracle.cohen_macaulay))
    if predicted.pd_ideal != oracle.pd_ideal:
        mismatches.append(("pd_ideal", predicted.pd_ideal, oracle.pd_ideal))
    lo, hi = predicted.reg_ideal
    if not (lo <= oracle.reg_ideal <= hi):
        mismatches.append(("reg_ideal", predicted.reg_ideal, oracle.reg_ideal))
    return oracles, tuple(mismatches)


class ImplicationSuite(NamedTuple):
    """The five resolution-shape claims, read off one graph's counts and chordality.

    For a licci graph all five are asserted by the classification layer. A
    forest breaks the last one, primal_linear_resolution, exactly when two or
    more of its components carry an edge: the primal ideal is generated in
    degree n-2 but has regularity n-1. A tree plus isolated vertices keeps
    it (1,206 of the 1,824 disconnected forests on n <= 6).
    """

    graph: SimpleGraph
    field: Field
    licci: LicciVerdict
    sequentially_cm: bool
    dual_componentwise_linear: bool
    dual_linear_quotients: str
    dual_linear_resolution: bool
    primal_linear_resolution: bool
    failed_claims: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "graph": self.graph.to_json_dict(),
                "field": self.field.value, "licci": self.licci.to_json_dict(),
                "failed_claims": list(self.failed_claims)}


def implication_suite(graph: SimpleGraph, field: Field = Field.GF2) -> ImplicationSuite:
    """Evaluate the five claims; failed_claims lists false ones on licci inputs.

    The four dual claims are read off the graph's counts and its
    chordality, with neither the Alexander dual J of I_c(G) nor a search
    built. J's generators are the isolated vertices, the non-edges between
    vertices that carry an edge, and the triangles.
    sequentially_cm is J's componentwise linearity, which is equivalent
    (Herzog-Hibi, Nagoya Math. J. 153, 1999). The graph names J's squarefree
    components: J_[1] holds the isolated vertices, a variable ideal; J_[2]
    every non-adjacent pair on all n vertices, the edge ideal of the
    complement of G; and J_[3] every triple, so from degree 3 on each
    component is a squarefree Veronese ideal. Variable and Veronese ideals
    are linear over every field, so J is componentwise linear exactly when
    J_[2] is, and J_[2] is linear exactly when G is chordal (Froberg, Banach
    Center Publ. 26, 1990). A forest is chordal, so only a graph with a
    cycle goes to the chordality kernel (graphs._is_chordal). The same
    Herzog-Hibi paper gives dual_linear_resolution: J has a linear
    resolution exactly when it is componentwise linear and generated in one
    degree. Its degrees are counts: 1 when an isolated vertex exists
    (n' < n for the n' vertices on an edge), 2 when a pair of those is no
    edge (m < C(n', 2)), 3 when a triangle exists. The degrees matter only
    for a chordal G, and a chordal G has a triangle exactly when it is no
    forest. A triangle is a cycle. A shortest cycle has no chord, as a chord
    would split it into two shorter cycles; in a chordal G every cycle of
    length 4 or more has a chord, so a shortest cycle is a triangle.

    dual_linear_quotients is "yes" exactly when G is chordal, with no
    ordering built. "No" holds past chordality: linear quotients in a
    degree-increasing order imply componentwise linearity (Jahan-Zheng, J.
    Combin. Theory Ser. A 117, 2010). "Yes" holds for a chordal G by a
    perfect elimination ordering (PEO): an order of the vertices in which
    the later neighbours of each vertex form a clique (Dirac 1961;
    Rose-Tarjan-Lueker, SIAM J. Comput. 5, 1976). Write u < v when u comes
    first. Order J's generators by degree, and within a degree
    lexicographically by their vertices sorted in the PEO. The colon of the
    earlier generators by the next one, g, is generated by variables when
    every earlier h has some earlier h' with h' - g = {x} inside h - g. An h
    with one vertex outside g is its own h', and so is every variable, as
    no later generator holds an isolated vertex. The other cases:
    - a non-edge {a < b} after a disjoint non-edge {c < d}: then c < a.
      Were c adjacent to both a and b, these later neighbours of c would be
      adjacent. So {c, a} or {c, b} is a non-edge; it comes earlier and has
      the difference x_c;
    - a triangle T = {a < b < c} after a non-edge {i, j} outside T: x_i is
      in the colon when i misses a vertex of T (that non-edge comes
      earlier), or when i is adjacent to all of T and i < c (then {i, a, b},
      {a, i, b} or {a, b, i} is a triangle that comes earlier). If neither
      holds for i nor for j, both are later neighbours of a, so adjacent;
    - a triangle T after a triangle T' with |T' - T| >= 2: were every l in
      T' - T adjacent to all of T and after c, T' would come after T. So
      some l misses a vertex of T or comes before c, and x_l is in the
      colon as above.
    The tests check this order against the colon ideals written out per
    difference, and has_linear_quotients on the dual against the suite.
    primal_linear_resolution: I_c(G) is generated in degree n - 2, so its
    resolution is linear exactly when reg(I) = n - 2, that is when at most
    one component holds an edge (tables._count_invariants). The counts the
    graph took when it was built serve the licci verdict, the forest test,
    that component count and the degree count (met, the vertices on an
    edge). The chordality kernel reads only the vertices on an edge, so the
    suite answers at any n in O(m log m). A field that is no Field member is
    refused.
    """
    _require_admissible(graph)
    _require_field(field)
    n, m, met, joins = graph.n, len(graph.edges), graph._met, graph._joins
    forest = joins == m
    verdict = _licci(n, m, forest)
    dual_cl = forest or _is_chordal(graph)
    # J's generator degrees: 1 past the met vertices on an edge, 2 below
    # C(met, 2) edges, 3 with a triangle, which a chordal G has iff it has a cycle
    degrees = (met < n) + (m < comb(met, 2)) + (not forest)
    dual_lin = dual_cl and degrees == 1
    primal_lin = met - joins <= 1
    failed = _FAILED_CLAIMS[dual_cl, dual_lin, primal_lin] if verdict.licci else ()
    return _record(ImplicationSuite, (graph, field, verdict, dual_cl, dual_cl,
                                      "yes" if dual_cl else "no", dual_lin, primal_lin, failed))


# the claims a licci graph fails, one tuple per (dual_cl, dual_lin, primal_lin) in payload
# order: sequential CM-ness and the dual's linear quotients are its componentwise linearity
_FAILED_CLAIMS = {
    (cl, lin, primal): (("sequentially_cm", "dual_componentwise_linear", "dual_linear_quotients")
                        * (not cl) + ("dual_linear_resolution",) * (not lin)
                        + ("primal_linear_resolution",) * (not primal))
    for cl, lin, primal in product((False, True), repeat=3)}
