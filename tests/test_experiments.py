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
from compedge.graphs import SimpleGraph, is_complete, is_forest
from compedge.invariants import is_licci


def counting_generator(fills: list[int]):
    """A stand-in for experiments._trial_generator that appends, per trial, its fill count."""
    def make(seed, trial):
        fills.append(0)
        rng = _trial_generator(seed, trial)

        class Counting:
            def random(self, *args, **kwargs):
                fills[-1] += 1
                return rng.random(*args, **kwargs)
        return Counting()
    return make


def stream_recount(n, p, seed, trial, chunk):
    """The graph of a one-p trial, what its spot check sees and its fill count, off the
    one-shot draw of sample_gnp.

    A forest streams every chunk and is seen whole. A graph with a cycle stops
    at the chunk whose pairs, in stream order (np.triu_indices order, which
    is the sorted edge order), close the first cycle; it is seen as its pairs
    in the chunks drawn, capped at the n with the smallest draws.
    """
    total = n * (n - 1) // 2
    chunks = -(-total // chunk)
    graph = sample_gnp(n, p, _trial_generator(seed, trial))
    if is_forest(graph):
        return graph, graph, chunks
    draws = _trial_generator(seed, trial).random(total)
    pairs = zip(*np.triu_indices(n, k=1))
    offset = {(int(u) + 1, int(v) + 1): k for k, (u, v) in enumerate(pairs)}
    closing = next(e for k, e in enumerate(graph.edges, 1)
                   if not is_forest(SimpleGraph(n, graph.edges[:k])))
    drawn = min(offset[closing] // chunk + 1, chunks)
    held = [e for e in graph.edges if offset[e] < drawn * chunk]
    held.sort(key=lambda e: draws[offset[e]])
    return graph, SimpleGraph(n, held[:n]), drawn


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

    @pytest.mark.parametrize("knob, value", [("p", "0.5"), ("c", "1"), ("p", 1j), ("c", [2.0]),
                                             ("p", True), ("c", True), ("p", False)])
    def test_probabilities_are_real_numbers_or_refused_by_name(self, knob, value):
        with pytest.raises(ValueError) as caught:
            ExperimentConfig(n=10, trials=2, seed=1, **{knob: value})
        assert str(caught.value) == f"{knob} must be a real number, got {value!r}"
        # a real number of any numeric type but bool is kept as given
        for real in (Fraction(1, 2), np.float32(0.5), np.int64(2), 0):
            assert getattr(ExperimentConfig(n=10, trials=2, seed=1, **{knob: real}), knob) is real

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

    @pytest.mark.parametrize("n, p, chunk", [
        (3, 1.0, None), (12, 0.5, None), (30, 0.03, None), (200, 0.02, None),
        (12, 0.5, 7), (30, 0.1, 16), (30, 0.9, 64), (200, 0.02, 1024)])
    def test_spot_checks_see_the_chunks_drawn_and_the_full_verdict(self, monkeypatch,
                                                                    n, p, chunk):
        if chunk:
            monkeypatch.setattr(experiments, "CHUNK", chunk)
        seen, fills = [], []
        monkeypatch.setattr(experiments, "is_licci", lambda g: seen.append(g) or is_licci(g))
        monkeypatch.setattr(experiments, "_trial_generator", counting_generator(fills))
        estimate_licci_probability(ExperimentConfig(n=n, trials=30, seed=9, p=p))
        want = [stream_recount(n, p, 9, t, experiments.CHUNK) for t in range(30)]
        assert fills == [drawn for _, _, drawn in want]
        assert seen == [spot for graph, spot, _ in want if graph.m]
        for graph, spot, _ in want:
            assert is_licci(spot).licci == is_licci(graph).licci


class TestStreamStop:
    """A trial stops drawing once the pairs drawn below the smallest p close a cycle."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 12), st.lists(st.floats(0.05, 15), min_size=1, max_size=3),
           st.integers(1, 12), st.integers(0, 2 ** 32))
    def test_counts_match_an_independent_recount(self, n, cs, trials, seed):
        # no c is zero, so the smallest p is positive and a stream can stop
        configs = [ExperimentConfig(n=n, trials=trials, seed=seed, c=c) for c in cs]
        want = []
        for config in configs:
            graphs = [sample_gnp(n, config.edge_probability, _trial_generator(seed, t))
                      for t in range(trials)]
            want.append((sum(g.m == 0 or is_licci(g).licci for g in graphs),
                         sum(is_forest(g) for g in graphs)))
        for chunk in (1, 7, 64, experiments.CHUNK):
            with mock.patch.object(experiments, "CHUNK", chunk):
                rows = [*map(estimate_licci_probability, configs),
                        *threshold_sweep(n, cs, trials=trials, seed=seed).rows]
            assert [(row.licci_count, row.forest_count) for row in rows] == want * 2

    def test_a_cycle_in_the_first_chunk_makes_one_fill(self, monkeypatch):
        # C(50, 2) = 1225 pairs are 20 chunks of 64; at p = 1 the first chunk
        # holds row 1's 49 pairs and then (2, 3), which closes the triangle 123
        fills = []
        monkeypatch.setattr(experiments, "CHUNK", 64)
        monkeypatch.setattr(experiments, "_trial_generator", counting_generator(fills))
        summary = estimate_licci_probability(ExperimentConfig(n=50, trials=3, seed=0, p=1.0))
        assert summary.forest_count == 0 and fills == [1, 1, 1]

    @pytest.mark.parametrize("n, seed", [(6, 1), (20, 2), (60, 3)])
    def test_a_pair_drawn_exactly_at_p_is_absent(self, n, seed):
        def graph(p):
            return sample_gnp(n, p, _trial_generator(seed, 0))

        def forests(*ps):
            configs = [ExperimentConfig(n=n, trials=1, seed=seed, p=float(p)) for p in ps]
            return [row.forest_count for row in experiments._run_trials(configs)]
        # tau, the draw of the pair that closes the first cycle in draw order
        draws = np.sort(_trial_generator(seed, 0).random(n * (n - 1) // 2))
        tau = next(d for d in draws if not is_forest(graph(np.nextafter(d, 2))))
        assert is_forest(graph(tau))
        # the stream joins the pairs drawn strictly below the smallest p, and a
        # sweep whose stream closed no cycle counts a forest at every p <= tau
        assert forests(tau) == [1] and forests(np.nextafter(tau, 2)) == [0]
        assert forests(tau, 1.0) == [1, 0] and forests(tau / 2, tau, 1.0) == [1, 1, 0]


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
