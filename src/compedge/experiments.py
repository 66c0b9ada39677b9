"""Monte Carlo licci frequency in Erdos-Renyi random graphs.

A sampled graph is licci iff it is a forest, or it is the triangle K_3 (only
possible when n = 3). No homology runs here: the decision is a cheap cycle
check, so n in the thousands is fine.

Reproducibility: trial t draws its randomness from a generator seeded by
counter-based splitting of the master seed (spawn key = (t,)), so a summary
depends only on the configuration, not on scheduling or trial order.

One pass per trial answers every edge probability: a pair is present iff its
uniform draw is below p, so adding pairs in increasing draw order (union-find)
gives tau, the draw of the first pair that closes a cycle, and the graph at p
is a forest exactly when p <= tau. A sweep draws and sorts each trial once and
reads every row from the same tau, so the licci fraction is non-increasing in
c by construction, not just on average.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import SimpleGraph
from .invariants import is_licci

SPOT_CHECK_TRIALS = 100

CSV_HEADER = "n,c,p,trials,seed,licci_count,fraction_licci"


@dataclass(frozen=True)
class ExperimentConfig:
    """One G(n,p) experiment; give the edge probability as p or scaled as c/n."""

    n: int
    trials: int
    seed: int
    p: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need n >= 3, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if (self.p is None) == (self.c is None):
            raise ValueError("give exactly one of p and c, not both or neither")
        if self.p is not None and not self.p >= 0:
            raise ValueError(f"p must be nonnegative, got {self.p}")
        if self.c is not None and not self.c >= 0:
            raise ValueError(f"c must be nonnegative, got {self.c}")

    @property
    def edge_probability(self) -> float:
        if self.p is not None:
            return min(self.p, 1.0)
        return min(self.c / self.n, 1.0)


@dataclass(frozen=True)
class ExperimentSummary:
    """Counts from one experiment; fraction_licci is the exact count ratio."""

    config: ExperimentConfig
    licci_count: int
    forest_count: int
    cycle_count: int
    fraction_licci: Fraction


def _trial_generator(seed: int, trial: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.PCG64(ss))


def sample_gnp(n: int, p: float, rng: np.random.Generator) -> SimpleGraph:
    """One Erdos-Renyi draw: each pair independently with probability min(p, 1)."""
    us, vs = np.triu_indices(n, k=1)
    keep = rng.random(us.shape[0]) < min(p, 1.0)
    edges = tuple((int(u) + 1, int(v) + 1) for u, v in zip(us[keep], vs[keep]))
    return SimpleGraph(n, edges)


def _run_trials(configs: Sequence[ExperimentConfig]) -> tuple[ExperimentSummary, ...]:
    """One pass over the shared trials of configs that differ only in p.

    Each trial records tau, the draw of the first pair, in increasing draw
    order, that closes a cycle (inf if none below the largest p does). A pair
    is present at p iff its draw is below p, so the graph at p is a forest
    exactly when p <= tau. Spot checks rebuild each graph from the raw draws,
    independently of tau, and compare is_licci with the fast verdict.
    """
    n, trials, seed = configs[0].n, configs[0].trials, configs[0].seed
    ps = [cfg.edge_probability for cfg in configs]
    top = max(ps)
    us_all, vs_all = np.triu_indices(n, k=1)
    # int32 halves the resident pair indices; one at a time keeps the copy small
    us_all = us_all.astype(np.int32)
    vs_all = vs_all.astype(np.int32)
    # one buffer for every trial: the spot checks keep draws alive to the end
    # of a trial, so a fresh array per trial would coexist with the last one
    draws = np.empty(us_all.shape[0])
    licci = [0] * len(ps)
    forest = [0] * len(ps)
    for trial in range(trials):
        _trial_generator(seed, trial).random(out=draws)
        below = np.flatnonzero(draws < top)
        order = below[np.argsort(draws[below])]
        parent = list(range(n))
        tau = math.inf
        for u, v, d in zip(us_all[order].tolist(), vs_all[order].tolist(), draws[order].tolist()):
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                tau = d
                break
            parent[u] = v
        for k, p in enumerate(ps):
            forest_trial = p <= tau
            # on three vertices the only cycle is the triangle K_3, which is licci
            licci_trial = forest_trial or n == 3
            if trial < SPOT_CHECK_TRIALS:
                keep = below if p == top else draws < p
                graph = SimpleGraph(n, tuple(
                    (int(u) + 1, int(v) + 1) for u, v in zip(us_all[keep], vs_all[keep])))
                if graph.m and is_licci(graph).licci != licci_trial:
                    raise RuntimeError(
                        f"licci fast path disagrees with the graph predicate on trial {trial}")
            licci[k] += licci_trial
            forest[k] += forest_trial
    return tuple(
        ExperimentSummary(config=cfg, licci_count=lc, forest_count=fc,
                          cycle_count=trials - fc, fraction_licci=Fraction(lc, trials))
        for cfg, lc, fc in zip(configs, licci, forest))


def estimate_licci_probability(config: ExperimentConfig) -> ExperimentSummary:
    """Run the trials; licci means forest, or the full triangle when n = 3."""
    return _run_trials([config])[0]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[ExperimentSummary, ...]
    monotone_violations: tuple[tuple[float, float], ...]


def threshold_sweep(n: int, c_values: Sequence[float], trials: int, seed: int) -> SweepResult:
    """One row per c, all read from one pass over the shared per-trial draws.

    The monotone_violations diagnostic lists consecutive c pairs where the
    licci fraction increased; every row reads the same tau per trial, so it
    stays empty by construction.
    """
    configs = [ExperimentConfig(n=n, trials=trials, seed=seed, c=float(c)) for c in c_values]
    rows = _run_trials(configs) if configs else ()
    violations = []
    ordered = sorted(rows, key=lambda s: s.config.c)
    for a, b in zip(ordered, ordered[1:]):
        if b.fraction_licci > a.fraction_licci:
            violations.append((a.config.c, b.config.c))
    return SweepResult(rows, tuple(violations))


def _fraction_6dp(value: Fraction) -> str:
    """Exact half-even decimal rendering with six digits, no float round trip."""
    scaled = round(value * 10 ** 6)
    whole, rest = divmod(scaled, 10 ** 6)
    return f"{whole}.{rest:06d}"


def summary_csv_line(summary: ExperimentSummary) -> str:
    cfg = summary.config
    c_text = "" if cfg.c is None else f"{cfg.c:g}"
    p_text = f"{cfg.edge_probability:.10g}"
    return (f"{cfg.n},{c_text},{p_text},{cfg.trials},{cfg.seed},"
            f"{summary.licci_count},{_fraction_6dp(summary.fraction_licci)}")


def summaries_to_csv(summaries: Sequence[ExperimentSummary]) -> str:
    lines = [CSV_HEADER]
    lines.extend(summary_csv_line(s) for s in summaries)
    return "\n".join(lines) + "\n"
