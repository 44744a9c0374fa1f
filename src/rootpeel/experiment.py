"""Monte Carlo experiments on mutual nearest neighbors and peeled intervals.

For i.i.d. samples in R^d the probability that a point is its nearest
neighbor's nearest neighbor tends to b(d), the ratio of the volume of one unit
ball to the volume of the union of two unit balls at center distance one. Half
of that, c(d) = b(d)/2, lower-bounds the expected fraction of interval
summands. b(d) comes from a closed form in the incomplete beta function
I_{3/4}((d+1)/2, 1/2), summed as its positive series in the first parameter.
The trial harness estimates both fractions on seeded samples and compares
them against b(d) and c(d).

Reports are byte-stable for a fixed master seed: trials own independent
spawned RNG streams, aggregation folds in trial order no matter how trials
were scheduled, and wall-clock timings stay out of the rendered output.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .rooted import peel_all
from .space import AugmentedMetricSpace, attach_density


def b_constant(d: int) -> float:
    """Limit probability that a point is mutual nearest neighbor, dimension d.

    The intersection of two unit balls at center distance one consists of two
    caps of height one half, each a fraction I_{3/4}((d+1)/2, 1/2) / 2 of the
    ball, so ball/union = 1 / (2 - I_{3/4}((d+1)/2, 1/2)). That I is the
    positive series sum_{k>=0} t(a + k) with t(a + 1) = t(a) (3/4)(a + 1/2)/(a + 1)
    (the recurrence in a of DLMF 8.17(iv)), from t(1) = 3/16 and t(1/2) = sqrt(3)/(2 pi).
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError("dimension must be a positive integer")
    d = int(d)
    a, t = (1.0, 3 / 16) if d % 2 else (0.5, math.sqrt(3) / (2 * math.pi))
    while 2 * a < d + 1 and t >= 2.0**-60:  # below that, b rounds to 1/2
        t *= 0.75 * (a + 0.5) / (a + 1.0)
        a += 1.0
    terms = [t]
    while t >= terms[0] * 2.0**-60:
        t *= 0.75 * (a + 0.5) / (a + 1.0)
        a += 1.0
        terms.append(t)
    return 1.0 / (2.0 - math.fsum(terms))


def c_constant(d: int) -> float:
    """Lower bound on the limiting interval fraction: half of b(d)."""
    return b_constant(d) / 2.0


# -- samplers ------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerConfig:
    """Point sampler: "uniform" in the unit cube, or a "mixture" of Gaussians
    around peaks drawn uniformly in the cube."""

    kind: str
    dim: int
    peaks: int = 5
    spread: float = 0.05

    def __post_init__(self):
        if self.kind not in ("uniform", "mixture"):
            raise ValueError(f"unknown sampler kind: {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if self.kind == "mixture" and (self.peaks < 1 or self.spread <= 0):
            raise ValueError("mixture needs at least one peak and positive spread")


def sample(config: SamplerConfig, n: int, seed) -> np.ndarray:
    """Seed-deterministic point sample; ``seed`` may be a Generator, drawn from."""
    if n < 1:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    if config.kind == "uniform":
        return rng.random((n, config.dim))
    centers = rng.random((config.peaks, config.dim))
    which = rng.integers(0, config.peaks, size=n)
    return centers[which] + rng.normal(0.0, config.spread, size=(n, config.dim))


# -- trials ---------------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    trial: int
    n: int
    dim: int
    sampler: str
    density_mode: str
    mutual_pair_count: int
    peeled_interval_count: int
    elapsed_s: float

    @property
    def mutual_fraction(self) -> float:
        return 2.0 * self.mutual_pair_count / self.n

    @property
    def peeled_fraction(self) -> float:
        return self.peeled_interval_count / self.n


def _run_one_trial(args) -> TrialResult:
    (trial, config, density_mode, n, seed_seq, bandwidth) = args
    rng = np.random.default_rng(seed_seq)
    pts = sample(config, n, rng)
    # explicit mode is the sampling model's analog of a known flat density
    flat = np.zeros(n) if density_mode == "explicit" else None
    space = attach_density(AugmentedMetricSpace(points=pts), density_mode,
                           bandwidth=bandwidth, seed=rng, values=flat)
    t0 = time.perf_counter()
    trace = peel_all(space)
    elapsed = time.perf_counter() - t0
    return TrialResult(
        trial=trial,
        n=n,
        dim=config.dim,
        sampler=config.kind,
        density_mode=density_mode,
        mutual_pair_count=len(trace.nn.mutual_pairs) if trace.nn is not None else 0,
        peeled_interval_count=len(trace),
        elapsed_s=elapsed,
    )


def _job_count(trials: int, n_jobs: Optional[int]) -> int:
    """Worker processes for ``trials`` trials: ``n_jobs`` (>= 1; default: all),
    at most ``ROOTPEEL_THREADS`` (an integer >= 1; unset or empty: the CPU count)."""
    if n_jobs is not None and n_jobs < 1:
        raise ValueError(f"--jobs must be an integer >= 1, got {n_jobs}")
    raw = os.environ.get("ROOTPEEL_THREADS", "")
    try:
        cap = int(raw) if raw else (os.cpu_count() or 1)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"ROOTPEEL_THREADS must be an integer >= 1, got {raw!r}")
    if n_jobs is None:
        n_jobs = cap
    return min(n_jobs, cap, trials)


@dataclass
class ExperimentReport:
    config: dict
    trials: List[TrialResult]

    @property
    def mean_mutual_fraction(self) -> float:
        return float(np.mean([t.mutual_fraction for t in self.trials]))

    @property
    def se_mutual_fraction(self) -> float:
        vals = [t.mutual_fraction for t in self.trials]
        if len(vals) < 2:
            return 0.0
        return float(np.std(vals, ddof=1) / math.sqrt(len(vals)))

    @property
    def mean_peeled_fraction(self) -> float:
        return float(np.mean([t.peeled_fraction for t in self.trials]))

    @property
    def min_peeled_fraction(self) -> float:
        return float(np.min([t.peeled_fraction for t in self.trials]))

    def to_csv(self) -> str:
        lines = [
            "trial,n,d,sampler,density_mode,mutual_pairs,mutual_fraction,"
            "peeled_intervals,peeled_fraction,decomposable_certificate"
        ]
        for t in self.trials:
            cert = "yes" if t.peeled_interval_count == t.n else "no"
            lines.append(
                f"{t.trial},{t.n},{t.dim},{t.sampler},{t.density_mode},"
                f"{t.mutual_pair_count},{t.mutual_fraction!r},"
                f"{t.peeled_interval_count},{t.peeled_fraction!r},{cert}"
            )
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        d = self.config["dim"]
        return {
            "config": self.config,
            "trials": len(self.trials),
            "mean_mutual_fraction": self.mean_mutual_fraction,
            "se_mutual_fraction": self.se_mutual_fraction,
            "mean_peeled_fraction": self.mean_peeled_fraction,
            "min_peeled_fraction": self.min_peeled_fraction,
            "b_reference": b_constant(d),
            "c_reference": c_constant(d),
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2)


def run_trials(
    config: SamplerConfig,
    density_mode: str,
    n: int,
    trials: int,
    seed: int,
    n_jobs: Optional[int] = None,
    kde_bandwidth=None,
) -> ExperimentReport:
    """Run seeded independent trials; aggregation is order-deterministic.

    The peeled-interval counts are certified lower bounds for the number of
    intervals in the full decomposition, not the full decomposition itself;
    the CSV's certificate column fires exactly when a count reaches n, which
    proves that trial's module interval-decomposable.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    seqs = np.random.SeedSequence(seed).spawn(trials)
    jobs = [(k, config, density_mode, n, seqs[k], kde_bandwidth) for k in range(trials)]
    workers = _job_count(trials, n_jobs)
    if workers == 1:
        results = [_run_one_trial(j) for j in jobs]
    else:
        # a pool's imports cost every CLI start
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_one_trial, jobs))
        except BrokenProcessPool:  # a worker was killed, by the OOM killer or a signal
            raise MemoryError("a trial worker process died before it returned its result") from None
    cfg = {
        "sampler": config.kind,
        "dim": config.dim,
        "peaks": config.peaks,
        "spread": config.spread,
        "density_mode": density_mode,
        "n": n,
        "trials": trials,
        "seed": seed,
    }
    return ExperimentReport(config=cfg, trials=results)

