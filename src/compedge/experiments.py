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

Memory is O(CHUNK + n) per trial, whatever C(n, 2) and p are. Each trial
streams its C(n, 2) draws through one buffer of CHUNK doubles and keeps the
flat offsets (pair positions in np.triu_indices(n, k=1) order) of only the n
smallest draws below the largest p: n pairs on n vertices always close a
cycle, so tau never lies past them. The cut-off falls to the n-th smallest
draw whenever more than 2n are held, so each partition is paid for by at
least n new hits. A PCG64 double takes one 64-bit output, so the chunked
stream equals a one-shot draw bit for bit. The kept offsets map to pairs
(u, v) arithmetically, so no O(n^2) index array is built.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import SimpleGraph, _clip, _Frozen, _plain_int
from .invariants import is_licci

SPOT_CHECK_TRIALS = 100

# Doubles drawn per fill of a trial's buffer (2 MiB). Per-fill Python work (a
# call, a mask, two appends) is a fixed cost: at n = 5000, three one-trial
# estimates took the same time for 2^14 to 2^20, 30 % longer at 2^12, and
# 2^22 only grew the traced peak (2.8 MiB at 2^18, 36 MiB at 2^22).
CHUNK = 2 ** 18

# Each trial draws all C(n, 2) uniforms: n = 100,000 is 5 * 10^9 draws, tens of
# seconds per trial, and n beyond it would run for hours without failing.
MONTECARLO_LIMIT = 100_000

CSV_HEADER = "n,c,p,trials,seed,licci_count,fraction_licci"


class ExperimentConfig(_Frozen):
    """One G(n,p) experiment; give the edge probability as p or scaled as c/n."""

    __slots__ = ("n", "trials", "seed", "p", "c")

    def __init__(self, n: int, trials: int, seed: int, p: float | None = None,
                 c: float | None = None):
        """n, trials and seed are stored as plain ints (graphs._plain_int), so a numpy
        integer or a bool is normalised and a float or a string refused by name."""
        for name, value in (("n", n), ("trials", trials), ("seed", seed)):
            object.__setattr__(self, name, _plain_int(value, name))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "c", c)
        if self.n < 3:
            raise ValueError(f"need n >= 3, got {_clip(self.n)}")
        if self.n > MONTECARLO_LIMIT:
            raise ValueError(f"n = {_clip(self.n)} exceeds the Monte Carlo limit of "
                             f"{MONTECARLO_LIMIT}")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {_clip(self.trials)}")
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


class ExperimentSummary(NamedTuple):
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
    """One Erdos-Renyi draw: each pair independently with probability min(p, 1).

    This is the one-shot reference: it builds np.triu_indices and draws every
    pair at once, sharing no code with the chunked stream of _run_trials, so
    tests and the benchmark recount trials through it independently.
    """
    us, vs = np.triu_indices(n, k=1)
    keep = rng.random(us.shape[0]) < min(p, 1.0)
    edges = tuple((int(u) + 1, int(v) + 1) for u, v in zip(us[keep], vs[keep]))
    return SimpleGraph(n, edges)


def _pairs(n: int, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v), 0-based, of each flat offset into the pairs in np.triu_indices(n, k=1) order.

    Row u starts at offset starts[u] = u(2n - u - 1)/2, so u is the last row
    starting at or before k and v = k - starts[u] + u + 1; int64 holds C(n, 2)
    for every n up to MONTECARLO_LIMIT.
    """
    u = np.arange(n, dtype=np.int64)
    starts = u * (2 * n - u - 1) // 2
    us = np.searchsorted(starts, offsets, side="right") - 1
    return us, offsets - starts[us] + us + 1


def _smallest(offsets: list[np.ndarray], draws: list[np.ndarray],
              n: int) -> tuple[np.ndarray, np.ndarray]:
    """The offsets and draws of the (at most) n smallest of the listed draws."""
    offsets, draws = np.concatenate(offsets), np.concatenate(draws)
    if draws.size > n:
        small = np.argpartition(draws, n - 1)[:n]
        offsets, draws = offsets[small], draws[small]
    return offsets, draws


def _run_trials(configs: Sequence[ExperimentConfig]) -> tuple[ExperimentSummary, ...]:
    """One pass over the shared trials of configs that differ only in p.

    Each trial records tau, the draw of the first pair, in increasing draw
    order, that closes a cycle (inf if none below the largest p does). A pair
    is present at p iff its draw is below p, so the graph at p is a forest
    exactly when p <= tau; tau lies among the n smallest draws, the only ones
    kept. Spot checks rebuild each graph from those raw draws, independently
    of tau, and compare is_licci with the fast verdict. A graph at p with more
    than n pairs is seen as its n smallest, which hold a cycle too (K_3 itself
    when n = 3), so the verdict is the same.
    """
    n, trials, seed = configs[0].n, configs[0].trials, configs[0].seed
    ps = [cfg.edge_probability for cfg in configs]
    top = max(ps)
    total = n * (n - 1) // 2
    chunk = np.empty(min(CHUNK, total))
    licci = [0] * len(ps)
    forest = [0] * len(ps)
    for trial in range(trials):
        rng = _trial_generator(seed, trial)
        cut, offsets, kept, size = top, [], [], 0
        for lo in range(0, total, CHUNK):
            draws = chunk[:total - lo]
            rng.random(out=draws)
            hits = np.flatnonzero(draws < cut)
            offsets.append(hits + lo)
            kept.append(draws[hits])
            size += hits.size
            if size > 2 * n:
                below, bdraws = _smallest(offsets, kept, n)
                offsets, kept, cut, size = [below], [bdraws], bdraws.max(), n
        below, bdraws = _smallest(offsets, kept, n)
        us, vs = _pairs(n, below)
        order = np.argsort(bdraws)
        # not graphs._join_count: tau needs the first pair that closes a cycle,
        # which a count cannot give, and the spot check below would compare
        # _join_count (under is_licci -> is_forest) with itself
        parent = list(range(n))
        tau = math.inf
        for u, v, d in zip(us[order].tolist(), vs[order].tolist(), bdraws[order].tolist()):
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
                keep = bdraws < p
                edges = zip((us[keep] + 1).tolist(), (vs[keep] + 1).tolist())
                graph = SimpleGraph(n, tuple(edges))
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


class SweepResult(NamedTuple):
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
