"""Monte Carlo licci frequency in Erdos-Renyi random graphs.

A sampled graph is licci iff it is a forest, or it is the triangle K_3 (only
possible when n = 3). No homology runs here: the decision is a cheap cycle
check, so n in the thousands is fine.

Reproducibility: trial t draws its randomness from a generator seeded by
counter-based splitting of the master seed (spawn key = (t,)), so a summary
depends only on the configuration, not on scheduling or trial order.

One pass per trial answers every edge probability: a pair is present iff its
uniform draw is below p, so the pairs drawn below the smallest p are present
at every p. A union-find joins those pairs in stream order as the draws
arrive, and the trial stops drawing at the chunk where one of them closes a
cycle: every p then has a cycle. Once p * n is past about 1 a cycle closes
early in the stream (Erdos and Renyi, 1960), so such a trial draws a fraction
of its C(n, 2) uniforms; a forest draws them all. Only when the ps differ and
the stream closed no cycle does the trial compute tau, the draw of the first
pair that closes a cycle when pairs are added in increasing draw order; the
graph at p is a forest exactly when p <= tau. A sweep draws each trial once
and reads every row from the same stream and tau, so the licci fraction is
non-increasing in c by construction, not just on average.

Memory is O(CHUNK + n) per trial, whatever C(n, 2) and p are. Each trial
streams up to its C(n, 2) draws through one buffer of CHUNK doubles and keeps
the flat offsets (pair positions in np.triu_indices(n, k=1) order) of only
the n smallest draws below the largest p: n pairs on n vertices always close
a cycle, so tau never lies past them. The cut-off falls to the n-th smallest
draw whenever more than 2n are held, so each partition is paid for by at
least n new hits. A PCG64 double takes one 64-bit output, so the chunked
stream equals a one-shot draw bit for bit, up to where a trial stops. The
kept offsets map to pairs (u, v) arithmetically, so no O(n^2) index array is
built.
"""
from __future__ import annotations

import math
from fractions import Fraction
from numbers import Real
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import SimpleGraph, _clip, _Frozen, _iterate, _plain_int
from .invariants import is_licci

SPOT_CHECK_TRIALS = 100

# Doubles drawn per fill of a trial's buffer (512 KiB). A trial stops at the
# end of the chunk whose pairs below the smallest p close a cycle, so a smaller
# chunk stops sooner, while per-fill Python work (a call, two masks, a
# union-find call, two appends) is a fixed cost. One-p estimates in ms per trial
# at 2^14 / 2^16 / 2^18, medians of 9 on one CPU of a shared 2-vCPU VM (Python
# 3.11.7, numpy 2.4.6): n = 1000, c = 2, 1.0 / 1.1 / 1.5; n = 5000, c = 0.5
# (mostly forests, which draw every pair), 46 / 41 / 42; n = 5000, c = 2,
# 16.6 / 13.7 / 14.7. 2^15 and 2^17 were within about 10 % of 2^16. The traced
# peak at n = 5000 was 0.9 / 1.1 / 2.6 MiB.
CHUNK = 2 ** 16

# A forest trial draws all C(n, 2) uniforms: n = 100,000 is 5 * 10^9 draws,
# tens of seconds per trial, and n beyond it would run for hours without failing.
MONTECARLO_LIMIT = 100_000

CSV_HEADER = "n,c,p,trials,seed,licci_count,fraction_licci"


class ExperimentConfig(_Frozen):
    """One G(n,p) experiment; give the edge probability as p or scaled as c/n."""

    __slots__ = ("n", "trials", "seed", "p", "c")

    def __init__(self, n: int, trials: int, seed: int, p: float | None = None,
                 c: float | None = None):
        """n, trials and seed are stored as plain ints (graphs._plain_int), so a numpy
        integer or a bool is normalised and a float or a string refused by name; p
        and c are kept as given, and refused by name unless a real number other
        than a bool, which is more likely a mistake than a probability of 0 or 1."""
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
        for name, value in (("p", self.p), ("c", self.c)):
            if value is None:
                continue
            if not isinstance(value, Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {_clip(repr(value))}")
            if not value >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")

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


def _row_starts(n: int) -> np.ndarray:
    """The flat offset of the first pair of each row u in np.triu_indices(n, k=1) order.

    starts[u] = u(2n - u - 1)/2; int64 holds C(n, 2) for every n up to
    MONTECARLO_LIMIT.
    """
    u = np.arange(n, dtype=np.int64)
    return u * (2 * n - u - 1) // 2


def _pairs(starts: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v), 0-based, of each flat offset, off the row starts of _row_starts(n).

    u is the last row starting at or before k and v = k - starts[u] + u + 1.
    """
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


def _closing(parent: list[int], us: list[int], vs: list[int]) -> int:
    """The index of the first pair (us[k], vs[k]), in this order, that closes a cycle.

    parent is a union-find forest over the vertices, updated in place: the
    pairs before the one returned, or all of them when none closes a cycle
    (-1), are joined into it, so a later call carries on from them.
    """
    for k, (u, v) in enumerate(zip(us, vs)):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            return k
        parent[u] = v
    return -1


def _run_trials(configs: Sequence[ExperimentConfig]) -> tuple[ExperimentSummary, ...]:
    """One pass over the shared trials of configs that differ only in p.

    A pair is present at p iff its draw is below p, so the pairs drawn below
    the smallest p, low, are present at every p. While a trial streams its
    chunks, a union-find joins those pairs in stream order; the moment one
    closes a cycle, every p has a cycle and the trial stops drawing.
    Otherwise, and only when the ps differ, the trial records tau, the draw
    of the first pair, in increasing draw order, that closes a cycle (inf if
    none below the largest p does): the graph at p is a forest exactly when
    p <= tau, and tau lies among the n smallest draws, the only ones kept.
    With one p, a stream that closes no cycle is a forest. Spot checks
    rebuild each graph from the kept raw draws, independently of the stream
    and of tau, and compare is_licci with the fast verdict. A graph at p with
    more than n kept pairs is seen as its n smallest, which hold a cycle too
    (K_3 itself when n = 3); a trial that stopped early is seen as its pairs
    in the chunks drawn, which hold the stream's cycle or n pairs below low.
    Either way the verdict is the same.
    """
    n, trials, seed = configs[0].n, configs[0].trials, configs[0].seed
    ps = [cfg.edge_probability for cfg in configs]
    low, top = min(ps), max(ps)
    total = n * (n - 1) // 2
    starts = _row_starts(n)
    chunk = np.empty(min(CHUNK, total))
    licci = [0] * len(ps)
    forest = [0] * len(ps)
    for trial in range(trials):
        rng = _trial_generator(seed, trial)
        cut, offsets, kept, size, closed = top, [], [], 0, False
        parent = list(range(n))
        for lo in range(0, total, CHUNK):
            draws = chunk[:total - lo]
            rng.random(out=draws)
            hits = np.flatnonzero(draws < cut)
            hoffs, hdraws = hits + lo, draws[hits]
            # not graphs._join_count: the stream needs the pair that closes a
            # cycle, which a count cannot give, and the spot check below would
            # compare _join_count (which SimpleGraph runs when it is built, for
            # is_licci -> is_forest to read) with itself.
            # Until a cycle closes, fewer than n pairs lie below low, so the
            # cut (the n-th smallest draw held) stays at or above low.
            us, vs = _pairs(starts, hoffs[hdraws < low])
            closed = _closing(parent, us.tolist(), vs.tolist()) >= 0
            offsets.append(hoffs)
            kept.append(hdraws)
            size += hits.size
            if closed:
                break
            if size > 2 * n:
                below, bdraws = _smallest(offsets, kept, n)
                offsets, kept, cut, size = [below], [bdraws], bdraws.max(), n
        spot = trial < SPOT_CHECK_TRIALS
        needs_tau = low < top and not closed
        # a cycle closed by the stream is drawn below every p, and so is its tau
        tau = -math.inf if closed else math.inf
        if spot or needs_tau:
            below, bdraws = _smallest(offsets, kept, n)
            # offsets in increasing order give the spot checks their edges
            # sorted; tau does not depend on the order of tied draws, as the
            # pairs drawn at or below any one value close a cycle or not as a set
            ranked = np.argsort(below)
            us, vs = _pairs(starts, below[ranked])
            bdraws = bdraws[ranked]
        if needs_tau:
            order = np.argsort(bdraws)
            first = _closing(list(range(n)), us[order].tolist(), vs[order].tolist())
            if first >= 0:
                tau = float(bdraws[order[first]])
        for k, p in enumerate(ps):
            forest_trial = p <= tau
            # on three vertices the only cycle is the triangle K_3, which is licci
            licci_trial = forest_trial or n == 3
            if spot:
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
    stays empty by construction. Each c is kept as given, and ExperimentConfig
    refuses one that is no real number, or a bool, by name.
    """
    configs = [ExperimentConfig(n=n, trials=trials, seed=seed, c=c)
               for c in _iterate(c_values, "c values")]
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
