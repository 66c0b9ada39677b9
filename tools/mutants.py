"""Mutation checks: each named mutant of src/compedge must fail its pytest selection.

    python3 tools/mutants.py             # every mutant
    python3 tools/mutants.py NAME ...    # the named ones

A mutant is one exact-string replacement in one module. For each, the script
copies src/, tests/ and pyproject.toml to a fresh temporary directory, applies
the replacement there and runs the mutant's pytest selection on the copy with
a fixed hypothesis seed, so the tree it is run from is never written. A
failing selection prints "caught", a passing one "survived". Equivalent
mutants, which cannot change any result, are listed with the reason and not
run. A last line gives the totals, "N caught, M equivalent, K survived".
The exit status is 0 when every mutant is caught, 1 when one survives,
and 2 when a mutant's text is no longer found exactly once in its module or
its selection does not run. Standard library only; not part of tier-1, as it
runs pytest once per mutant. tests/test_mutants.py, which is, checks without
running a mutant that each text is found once and each selection exists.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    selection: tuple[str, ...]


class Equivalent(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    reason: str


HOMOLOGY = "tests/test_homology.py::TestBettiTables::"

MUTANTS = [
    # the primal engine's filter and the one face cap on the dual complex
    Mutant("primal-filter-inside-the-complement", "homology.py",
           "f & ~sigma == 0", "f & sigma == 0",
           (HOMOLOGY + "test_every_ideal_on_at_most_four_variables",)),
    Mutant("face-cap-64", "ideals.py",
           "_DUAL_FACE_CAP = 4096", "_DUAL_FACE_CAP = 64",
           (HOMOLOGY + "test_the_face_cap_never_moves_the_engine_choice",)),
    # the graph kernel: the dual formula on a dual complex of dimension <= 1,
    # its table built from counts by the helper the graph-level entry shares
    # (tables._count_betti)
    Mutant("graph-drop-facet-vertex-term", "tables.py",
           "((1, n - 1), points), ", "",
           (HOMOLOGY + "test_graph_kernel_on_every_one_dimensional_dual",)),
    Mutant("graph-components-without-facet-vertices", "tables.py",
           "met + points - joins - 1", "met - joins - 1",
           (HOMOLOGY + "test_graph_kernel_on_every_one_dimensional_dual",)),
    Mutant("graph-route-on-indeg-n-3", "homology.py",
           "if indeg >= n - 2:", "if indeg >= n - 3:",
           (HOMOLOGY + "test_every_ideal_on_at_most_four_variables",)),
    Mutant("graph-never-route", "homology.py",
           "if indeg >= n - 2:", "if False:",
           (HOMOLOGY + "test_complementary_edge_ideals_skip_the_subset_walk",)),
    # the graph-level entry: the table and height of I_c(G) off m, n' and c',
    # through the shared count helper with no isolated facet vertex
    Mutant("entry-components-without-the-minus-one", "tables.py",
           "((2, n), met + points - joins - 1)", "((2, n), met + points - joins)",
           ("tests/test_homology.py::TestGraphOracle::"
            "test_count_step_matches_the_graph_kernel_on_raw_masks",)),
    Mutant("entry-height-one-without-an-isolated-vertex", "tables.py",
           "1 if met < n", "1 if met <= n",
           ("tests/test_homology.py::TestGraphOracle::"
            "test_atlas_classes_to_seven_against_both_engines_and_the_cover_search",)),
    # the count table is listed in key order, and reg_pd reads pd off its
    # last entry
    Mutant("count-entries-out-of-key-order", "tables.py",
           "((2, n - 1), 2 * m - met),\n               ((2, n), met + points - joins - 1)",
           "((2, n), met + points - joins - 1),\n               ((2, n - 1), 2 * m - met)",
           ("tests/test_homology.py::TestTableKeyOrder::"
            "test_count_table_equals_the_dict_table_on_every_feasible_count",)),
    Mutant("reg-pd-off-the-first-entry", "tables.py",
           "pd = self.entries[-1][0][0]", "pd = self.entries[0][0][0]",
           ("tests/test_homology.py::TestRegPd::test_conversions",)),
    # the component chain's tables, read without building an ideal
    Mutant("chain-regularity-off-by-one", "homology.py",
           ".reg_ideal != d:", ".reg_s_mod_i != d:",
           ("tests/test_homology.py::TestRingPredicates::"
            "test_veronese_exit_agrees_with_every_degree_on_every_ideal_to_four",)),
    # the implication suite reads the dual's linear resolution off its
    # componentwise linearity, for one generator degree only, and counts the
    # degrees off the graph: isolated vertices, non-edges, triangles; a
    # forest, read off the one union-find count, is chordal with no triangle
    Mutant("suite-linear-without-one-degree", "invariants.py",
           "dual_lin = dual_cl and degrees == 1", "dual_lin = dual_cl",
           ("tests/test_invariants.py::TestImplicationSuite::"
            "test_payload_digest_over_every_graph_to_five_and_forest_on_six",)),
    Mutant("suite-degrees-without-isolated-vertices", "invariants.py",
           "degrees = (met < n) + ", "degrees = ",
           ("tests/test_invariants.py::TestImplicationSuite::"
            "test_payload_digest_over_every_graph_to_five_and_forest_on_six",)),
    Mutant("suite-degrees-without-triangles", "invariants.py",
           " + (not forest)", "",
           ("tests/test_invariants.py::TestImplicationSuite::"
            "test_payload_digest_over_every_graph_to_five_and_forest_on_six",)),
    Mutant("suite-every-graph-a-forest", "invariants.py",
           "forest = joins == graph.m", "forest = True",
           ("tests/test_invariants.py::TestImplicationSuite::"
            "test_payload_digest_over_every_graph_to_five_and_forest_on_six",)),
    # the chordality kernel that decides the dual's componentwise linearity
    # and its linear quotients
    Mutant("chordal-skip-the-clique-test", "graphs.py",
           "if near & ~neighbours[w.bit_length()] != w:", "if False:",
           ("tests/test_graphs.py::TestChordalityKernel",)),
    Mutant("chordal-true-with-no-simplicial-vertex-left", "graphs.py",
           "if left == before:\n            return False",
           "if left == before:\n            return True",
           ("tests/test_graphs.py::TestChordalityKernel",)),
    Mutant("suite-quotients-yes-past-a-non-linear-dual", "invariants.py",
           'lq_status = "yes" if dual_cl else "no"', 'lq_status = "yes"',
           ("tests/test_invariants.py::TestImplicationSuite::"
            "test_payload_digest_over_every_graph_to_five_and_forest_on_six",)),
    # verify over isomorphism classes: the class generator's canonical code,
    # orbit sizes and levels grown in one pass, and the labeled sweep that
    # lists a mismatch
    Mutant("class-orbit-weight-one", "graphs.py",
           "factorial(n) // automorphisms)", "1)",
           ("tests/test_cli.py::TestVerify::test_classes_give_the_labeled_sweep_byte_for_byte",)),
    Mutant("class-automorphisms-fixed-at-one", "graphs.py",
           "return best[0], best[1]", "return best[0], 1",
           ("tests/test_graphs.py::TestGraphClasses::"
            "test_orbit_sizes_sum_to_the_labeled_graphs",)),
    Mutant("class-code-of-the-first-order", "graphs.py",
           "if best[0] < 0 or code < best[0]:", "if best[0] < 0:",
           ("tests/test_graphs.py::TestGraphClasses::test_class_counts_are_oeis_a000088",)),
    Mutant("class-augment-below-the-largest-degree", "graphs.py",
           "> s.bit_count() for u, d", ">= s.bit_count() for u, d",
           ("tests/test_graphs.py::TestGraphClasses::test_class_counts_are_oeis_a000088",)),
    Mutant("class-level-handed-out-stale", "graphs.py",
           "levels.append(grown)", "levels.append(levels[-1])",
           ("tests/test_graphs.py::TestGraphClasses::test_class_counts_are_oeis_a000088",)),
    Mutant("verify-reads-the-level-below", "cli.py",
           "_graph_classes(args.max_n)[3:], 3)", "_graph_classes(args.max_n)[2:], 3)",
           ("tests/test_cli.py::TestVerify::test_classes_give_the_labeled_sweep_byte_for_byte",)),
    Mutant("verify-expand-lists-isolated", "cli.py",
           " and NOTE_ISOLATED not in report.predicted.notes]", "]",
           ("tests/test_cli.py::TestVerify::"
            "test_a_class_mismatch_lists_its_labeled_orbit_in_enumeration_order",)),
    # the one Alexander dual, the cover search, against the cover rule of
    # I_c(G); the component chain and the quotient search
    Mutant("dual-branch-on-the-lowest-vertex-only", "ideals.py",
           "bits = first\n", "bits = first & -first\n",
           ("tests/test_ideals.py::TestComplementaryEdgeDual::"
            "test_follows_the_cover_rule_on_every_small_graph_and_forest",)),
    Mutant("dual-skip-the-first-generator", "ideals.py",
           "extend(0, ideal.masks)", "extend(0, ideal.masks[1:])",
           ("tests/test_ideals.py::TestComplementaryEdgeDual::test_follows_the_cover_rule",)),
    Mutant("chain-skip-generators-of-degree-3-up", "ideals.py",
           "component.update(by_degree[d])", "component.update(by_degree[d] if d < 3 else [])",
           ("tests/test_ideals.py",)),
    Mutant("quotients-pairs-as-singletons", "ideals.py",
           "if not d & (d - 1):", "if d.bit_count() <= 2:",
           ("tests/test_ideals.py",)),
    Mutant("quotients-keep-a-choice-on-backtrack", "ideals.py",
           "            chosen.pop()\n            continue\n", "            continue\n",
           ("tests/test_ideals.py",)),
    # each command imports the layers it runs inside its handler
    Mutant("cli-eager-invariants-import", "cli.py",
           "from .graphs import (DEFAULT_ENUMERATION_LIMIT",
           "from .invariants import cross_validate, predict_invariants\n"
           "from .graphs import (DEFAULT_ENUMERATION_LIMIT",
           ("tests/test_cli.py::TestNumpyLoadsLazily::"
            "test_a_fresh_command_loads_only_the_layers_it_runs",)),
    # no layer loads dataclasses: the validating types share graphs._Frozen,
    # which hashes as the tuple of their fields
    Mutant("graphs-eager-dataclasses-import", "graphs.py",
           "import json\n", "import dataclasses\nimport json\n",
           ("tests/test_cli.py::TestNumpyLoadsLazily::"
            "test_a_fresh_command_loads_only_the_layers_it_runs",)),
    Mutant("record-hash-over-edges-only", "graphs.py",
           "return hash(self._values(self))", "return hash(self._values(self)[1:])",
           ("tests/test_graphs.py::TestRecords",)),
]

EQUIVALENT = [
    Equivalent("primal-every-sigma", "homology.py",
               "        if u != sigma:\n            continue\n", "",
               "a sigma off the lcm lattice has a vertex in no generator inside it, so its "
               "restriction is a cone on that vertex, with no reduced homology"),
    Equivalent("class-orders-ignore-degrees", "graphs.py",
               "allowed = [sum(1 << v for v in range(n) if degrees[v] == d) "
               "for d in sorted(degrees)]", "allowed = [(1 << n) - 1] * n",
               "the trivial partition is also kept by every isomorphism, so the least code "
               "is still canonical and |Aut| still the number of orders reaching it; only "
               "the search grows"),
    Equivalent("suite-chordality-kernel-on-forests", "invariants.py",
               "dual_cl = forest or _is_chordal(graph)", "dual_cl = _is_chordal(graph)",
               "every forest is chordal"),
]


def source(module: str) -> str:
    return (ROOT / "src" / "compedge" / module).read_text()


def located(module: str, old: str) -> bool:
    return source(module).count(old) == 1


def run(selection: tuple[str, ...], mutant: Mutant | None = None) -> int:
    """The pytest exit status of the selection on a copy, mutated when a mutant is given."""
    with tempfile.TemporaryDirectory(prefix="compedge-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant:
            target = copy / "src" / "compedge" / mutant.module
            target.write_text(source(mutant.module).replace(mutant.old, mutant.new))
        env = os.environ | {"PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *selection],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names: list[str]) -> int:
    known = {m.name for m in MUTANTS} | {e.name for e in EQUIVALENT}
    unknown = sorted(set(names) - known)
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    # a selection that fails unmutated would call every mutant caught
    selections = tuple(dict.fromkeys(t for m in chosen for t in m.selection))
    if selections and run(selections):
        print("the unmutated tree fails the selections", file=sys.stderr)
        return 2
    equivalent = [e for e in EQUIVALENT if not names or e.name in names]
    for e in equivalent:
        if not located(e.module, e.old):
            print(f"{e.name}: text not found once in {e.module}", file=sys.stderr)
            return 2
        print(f"equivalent {e.name}: {e.reason}")
    survived = 0
    for m in chosen:
        if not located(m.module, m.old):
            print(f"{m.name}: text not found once in {m.module}", file=sys.stderr)
            return 2
        code = run(m.selection, m)
        if code not in (0, 1):
            print(f"{m.name}: pytest exited {code} on {' '.join(m.selection)}",
                  file=sys.stderr)
            return 2
        print(f"{'caught' if code else 'survived'} {m.name}", flush=True)
        survived += not code
    print(f"{len(chosen) - survived} caught, {len(equivalent)} equivalent, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
