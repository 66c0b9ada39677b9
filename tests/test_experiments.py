"""Monte Carlo sampling: configuration, determinism, regimes, CSV rendering."""
from __future__ import annotations

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compedge import (ExperimentConfig, estimate_licci_probability, sample_gnp,
                      summaries_to_csv, threshold_sweep)
from compedge import experiments
from compedge.experiments import (CSV_HEADER, MONTECARLO_LIMIT, _fraction_6dp, _pairs,
                                  _row_starts, _trial_generator, summary_csv_line)
from compedge.graphs import is_complete, is_forest
from compedge.invariants import is_licci


class TestConfig:
    def test_requires_exactly_one_probability_knob(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(n=10, trials=5, seed=0)
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(n=10, trials=5, seed=0, p=0.5, c=1.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="n >= 3"):
            ExperimentConfig(n=2, trials=5, seed=0, p=0.5)
        with pytest.raises(ValueError, match="at least one trial"):
            ExperimentConfig(n=10, trials=0, seed=0, p=0.5)
        with pytest.raises(ValueError, match="64 bits"):
            ExperimentConfig(n=10, trials=5, seed=2 ** 64, p=0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            ExperimentConfig(n=10, trials=5, seed=0, p=-0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            ExperimentConfig(n=10, trials=5, seed=0, c=-1.0)

    @pytest.mark.parametrize("field, value", [("n", 10.5), ("trials", 2.5), ("seed", 1.5),
                                              ("n", np.int64(10)), ("trials", np.int32(2)),
                                              ("seed", np.uint64(7))])
    def test_integer_fields_are_plain_ints_or_refused_by_name(self, field, value):
        kwargs = {"n": 10, "trials": 2, "seed": 0, field: value}
        if isinstance(value, float):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
                ExperimentConfig(**kwargs, c=1.0)
            return
        config = ExperimentConfig(**kwargs, c=1.0)
        assert type(getattr(config, field)) is int and getattr(config, field) == value
        assert config == ExperimentConfig(**{**kwargs, field: int(value)}, c=1.0)

    def test_rejects_nan_probabilities(self):
        with pytest.raises(ValueError, match="p must be nonnegative, got nan"):
            ExperimentConfig(n=10, trials=5, seed=0, p=float("nan"))
        with pytest.raises(ValueError, match="c must be nonnegative, got nan"):
            ExperimentConfig(n=10, trials=5, seed=0, c=float("nan"))

    def test_refuses_n_above_the_limit(self):
        with pytest.raises(ValueError, match="exceeds the Monte Carlo limit of 100000"):
            ExperimentConfig(n=MONTECARLO_LIMIT + 1, trials=1, seed=0, c=1.0)
        assert ExperimentConfig(n=MONTECARLO_LIMIT, trials=1, seed=0, c=1.0).n == MONTECARLO_LIMIT

    def test_edge_probability(self):
        assert ExperimentConfig(n=10, trials=1, seed=0, p=0.3).edge_probability == 0.3
        assert ExperimentConfig(n=10, trials=1, seed=0, p=7.0).edge_probability == 1.0
        assert ExperimentConfig(n=10, trials=1, seed=0, c=2.0).edge_probability == 0.2
        # c above n clamps at probability one
        assert ExperimentConfig(n=10, trials=1, seed=0, c=40.0).edge_probability == 1.0


class TestSampling:
    def test_extreme_probabilities(self):
        rng = _trial_generator(1, 0)
        assert sample_gnp(6, 1.0, rng).m == 15
        assert is_complete(sample_gnp(6, 1.0, rng))
        assert sample_gnp(6, 0.0, rng).m == 0

    def test_same_stream_same_graph(self):
        a = sample_gnp(12, 0.4, _trial_generator(9, 3))
        b = sample_gnp(12, 0.4, _trial_generator(9, 3))
        assert a == b

    def test_different_trials_decorrelate(self):
        draws = {sample_gnp(12, 0.5, _trial_generator(7, t)) for t in range(8)}
        assert len(draws) > 1

    def test_edge_count_concentrates(self):
        # C(100,2) = 4950 pairs at p = 1/2: five sigmas is about 175
        g = sample_gnp(100, 0.5, _trial_generator(123, 0))
        assert abs(g.m - 2475) < 175


class TestChunkedStream:
    def test_offsets_map_to_the_triu_indices_pairs(self):
        for n in range(2, 81):
            us, vs = _pairs(_row_starts(n), np.arange(n * (n - 1) // 2))
            want_us, want_vs = np.triu_indices(n, k=1)
            assert np.array_equal(us, want_us) and np.array_equal(vs, want_vs)
        # the first and last pair at the limit, where C(n, 2) is about 5 * 10^9
        n = MONTECARLO_LIMIT
        us, vs = _pairs(_row_starts(n), np.array([0, n * (n - 1) // 2 - 1]))
        assert us.tolist() == [0, n - 2] and vs.tolist() == [1, n - 1]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 40), st.lists(st.floats(0, 45), min_size=1, max_size=3),
           st.integers(1, 8), st.integers(0, 2 ** 32))
    def test_rows_do_not_depend_on_the_chunk_size(self, n, cs, trials, seed):
        want = threshold_sweep(n, cs, trials=trials, seed=seed).rows
        for chunk in (1, 7, 64):
            with mock.patch.object(experiments, "CHUNK", chunk):
                assert threshold_sweep(n, cs, trials=trials, seed=seed).rows == want

    def test_golden_line_at_a_small_chunk(self, monkeypatch):
        monkeypatch.setattr(experiments, "CHUNK", 7)
        summary = estimate_licci_probability(ExperimentConfig(n=50, trials=20, seed=7, c=0.5))
        assert summary_csv_line(summary) == "50,0.5,0.01,20,7,18,0.900000"

    def test_memory_follows_the_sampled_graph_not_the_pair_count(self):
        # C(3000, 2) pairs would take 36 MB of draws alone, 108 MB with their indices
        tracemalloc.start()
        try:
            estimate_licci_probability(ExperimentConfig(n=3000, trials=2, seed=0, c=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_memory_stays_flat_at_a_dense_p(self):
        # every pair below p = 1/2 would be 2.25 million pairs, hundreds of MB
        tracemalloc.start()
        try:
            estimate_licci_probability(ExperimentConfig(n=3000, trials=1, seed=0, p=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("n, p", [(3, 1.0), (12, 0.5), (30, 0.03), (200, 0.02)])
    def test_spot_checks_see_at_most_n_edges_and_the_full_verdict(self, monkeypatch, n, p):
        seen = []
        monkeypatch.setattr(experiments, "is_licci", lambda g: seen.append(g) or is_licci(g))
        estimate_licci_probability(ExperimentConfig(n=n, trials=30, seed=9, p=p))
        full = [g for g in (sample_gnp(n, p, _trial_generator(9, t)) for t in range(30)) if g.m]
        assert len(seen) == len(full)
        for spot, graph in zip(seen, full):
            assert set(spot.edges) <= set(graph.edges) and spot.m == min(graph.m, n)
            assert is_licci(spot).licci == is_licci(graph).licci


class TestEstimates:
    def test_empty_graphs_always_count_as_licci(self):
        summary = estimate_licci_probability(ExperimentConfig(n=8, trials=50, seed=1, p=0.0))
        assert summary.licci_count == 50
        assert summary.forest_count == 50
        assert summary.fraction_licci == 1

    def test_full_triangle_counts_via_the_special_case(self):
        summary = estimate_licci_probability(ExperimentConfig(n=3, trials=40, seed=2, p=1.0))
        assert summary.licci_count == 40
        assert summary.forest_count == 0
        assert summary.cycle_count == 40

    def test_complete_graph_on_four_never_licci(self):
        summary = estimate_licci_probability(ExperimentConfig(n=4, trials=40, seed=2, p=1.0))
        assert summary.licci_count == 0

    def test_reruns_are_identical(self):
        config = ExperimentConfig(n=30, trials=200, seed=77, c=1.5)
        first = estimate_licci_probability(config)
        second = estimate_licci_probability(config)
        assert first == second
        assert summaries_to_csv([first]) == summaries_to_csv([second])

    def test_fraction_is_exact(self):
        summary = estimate_licci_probability(ExperimentConfig(n=25, trials=64, seed=5, c=2.0))
        assert summary.fraction_licci == Fraction(summary.licci_count, 64)

    def test_spot_check_catches_a_broken_fast_path(self, monkeypatch):
        import compedge.experiments as exp

        class Wrong:
            licci = None
        monkeypatch.setattr(exp, "is_licci", lambda graph: Wrong)
        with pytest.raises(RuntimeError, match="disagrees"):
            estimate_licci_probability(ExperimentConfig(n=12, trials=5, seed=3, p=0.5))


class TestSweep:
    def test_rows_keep_request_order_and_share_draws(self):
        result = threshold_sweep(20, [5.0, 0.5, 2.0], trials=60, seed=11)
        assert [row.config.c for row in result.rows] == [5.0, 0.5, 2.0]
        # same seed, same trial index: the c = 0.5 panel is a subsample of c = 5
        assert result.monotone_violations == ()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_coupled_fractions_never_increase_in_c(self, seed: int):
        result = threshold_sweep(15, [0.3, 1.0, 3.0, 9.0], trials=40, seed=seed)
        fractions = [row.fraction_licci for row in result.rows]
        assert fractions == sorted(fractions, reverse=True)
        assert result.monotone_violations == ()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 12), st.lists(st.floats(0, 15), min_size=1, max_size=3),
           st.floats(0, 10), st.integers(1, 25), st.integers(0, 2 ** 32))
    def test_rows_match_an_independent_recount(self, n, cs, above, trials, seed):
        # 0, a repeated c and a c >= n (probability one) ride along
        c_values = [0.0, *cs, cs[0], n + above]
        result = threshold_sweep(n, c_values, trials=trials, seed=seed)
        for row in result.rows:
            graphs = [sample_gnp(n, row.config.edge_probability, _trial_generator(seed, t))
                      for t in range(trials)]
            assert row.licci_count == sum(g.m == 0 or is_licci(g).licci for g in graphs)
            assert row.forest_count == sum(is_forest(g) for g in graphs)

    def test_a_sweep_draws_each_trial_once(self, monkeypatch):
        import compedge.experiments as exp
        drawn = []
        real = exp._trial_generator

        def counting(seed, trial):
            drawn.append(trial)
            return real(seed, trial)
        monkeypatch.setattr(exp, "_trial_generator", counting)
        threshold_sweep(10, [0.5, 1.0, 2.0, 4.0], trials=7, seed=3)
        assert drawn == list(range(7))

    def test_estimate_equals_the_matching_sweep_row(self):
        result = threshold_sweep(20, [0.5, 1.0, 3.0, 1.0], trials=80, seed=9)
        for row in result.rows:
            assert estimate_licci_probability(row.config) == row


class TestCsv:
    def test_header(self):
        assert CSV_HEADER == "n,c,p,trials,seed,licci_count,fraction_licci"

    def test_line_for_a_c_configuration(self):
        summary = estimate_licci_probability(ExperimentConfig(n=50, trials=20, seed=7, c=0.5))
        assert summary_csv_line(summary) == "50,0.5,0.01,20,7,18,0.900000"

    def test_line_for_a_p_configuration_leaves_c_blank(self):
        summary = estimate_licci_probability(ExperimentConfig(n=8, trials=10, seed=1, p=0.0))
        assert summary_csv_line(summary) == "8,,0,10,1,10,1.000000"

    def test_document_assembly(self):
        summary = estimate_licci_probability(ExperimentConfig(n=8, trials=10, seed=1, p=0.0))
        text = summaries_to_csv([summary])
        assert text.splitlines() == [CSV_HEADER, summary_csv_line(summary)]
        assert text.endswith("\n")

    def test_fraction_rendering_is_exact_half_even(self):
        assert _fraction_6dp(Fraction(1, 3)) == "0.333333"
        assert _fraction_6dp(Fraction(2, 3)) == "0.666667"
        assert _fraction_6dp(Fraction(5, 8)) == "0.625000"
        assert _fraction_6dp(Fraction(1)) == "1.000000"
        # ties round to even in both directions
        assert _fraction_6dp(Fraction(1, 2 * 10 ** 6)) == "0.000000"
        assert _fraction_6dp(Fraction(3, 2 * 10 ** 6)) == "0.000002"

    @settings(max_examples=60)
    @given(st.fractions(min_value=0, max_value=1))
    def test_fraction_rendering_matches_decimal_quantize(self, value: Fraction):
        import decimal
        want = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        want = want.quantize(decimal.Decimal("0.000001"), rounding=decimal.ROUND_HALF_EVEN)
        assert _fraction_6dp(value) == f"{want:.6f}"
