"""The benchmark's workloads: seeded inputs, the CLI ops of one round, checks.

A round is the list of ``rootpeel`` commands one closed-loop client issues
back to back; the benchmark repeats rounds on the same inputs. Inputs depend
only on the workload seed and are written as text files, so the program
never sees anything but its documented input format.

CPU speed on the shared 2-vCPU machine this was tuned on drifts by up to 2x
for minutes at a time, so a run is long (40 s of rounds of 11-19 s)
and there are only two workloads to keep the total time bounded. The second
one bundles the commands that skip the general peel phase and the trace JSON,
so a change there should move ``peel`` and leave ``sim-oracle-barcode`` alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

import checks

# 5-peak Gaussian mixture; n stays below the CLI's 512 MiB forest budget,
# which one level per point exhausts near n = 590
KDE_N, KDE_PEAKS, KDE_SPREAD = 560, 5, 0.05
TIES_N, TIES_LEVELS = 2000, 10
# criterion 7's d=2 row with half its 20 trials, so that a run holds several rounds
SIM_N, SIM_TRIALS, SIM_JOBS = 2000, 10, 2
ORACLE_N, ORACLE_SPACES = 8, 8
BARCODE_N, BARCODE_INPUTS = 400, 1


@dataclass
class Op:
    """One CLI invocation; ``check(stdout, output_text)`` returns '' when correct."""

    args: List[str]
    check: Callable[[str, str], str]
    units: int
    output: Optional[Path] = None


@dataclass
class Inputs:
    ops: List[Op]  # one round
    unit: str  # what ``Op.units`` counts


def write_points(path: Path, points: np.ndarray, density=None) -> None:
    """CSV with a header; floats as ``repr(float(v))``, which the loader parses."""
    cols = [f"x{k}" for k in range(points.shape[1])] + (["f"] if density is not None else [])
    rows = [",".join(cols)]
    for i, p in enumerate(points):
        cells = [repr(float(v)) for v in p]
        if density is not None:
            cells.append(repr(float(density[i])))
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _mixture(rng: np.random.Generator, n: int) -> np.ndarray:
    centers = rng.random((KDE_PEAKS, 2))
    which = rng.integers(0, KDE_PEAKS, size=n)
    return centers[which] + rng.normal(0.0, KDE_SPREAD, size=(n, 2))


def _peel_op(work: Path, k: int, points: np.ndarray, density=None, density_args=()) -> Op:
    src, out = work / f"points{k}.csv", work / f"trace{k}.json"
    write_points(src, points, density)
    pairs = checks.mutual_nn_pairs(points)
    n = len(points)
    return Op(
        ["peel", "--input", str(src), *density_args, "--output", str(out)],
        lambda stdout, trace: checks.check_peel(stdout, trace, n, pairs),
        n,
        out,
    )


def peel(work: Path, rng: np.random.Generator, run_cli) -> Inputs:
    """One peel per density regime: KDE gives every point its own level,
    tied integer densities give a few large levels."""
    kde = _peel_op(work, 0, _mixture(rng, KDE_N), density_args=["--density-mode", "kde"])
    points = rng.random((TIES_N, 2))
    f = rng.integers(0, TIES_LEVELS, size=TIES_N)
    ties = _peel_op(work, 1, points, f, ["--density-column", "f"])
    return Inputs([kde, ties], "points")


def _simulate_op(rng: np.random.Generator) -> Op:
    seed = int(rng.integers(0, 2**31))
    args = [
        "simulate", "--sampler", "uniform", "--d", "2", "--n", str(SIM_N),
        "--trials", str(SIM_TRIALS), "--density-mode", "explicit", "--jobs", str(SIM_JOBS),
        "--format", "json", "--seed", str(seed),
    ]
    return Op(args, lambda stdout, _: checks.check_simulate(stdout, SIM_TRIALS), 1)


def _oracle_op(work: Path, k: int, rng: np.random.Generator, run_cli) -> Op:
    """The trace comes from ``rootpeel peel`` here, before any op is timed."""
    src, trace = work / f"space{k}.csv", work / f"trace{k}.json"
    write_points(src, rng.random((ORACLE_N, 2)), rng.random(ORACLE_N))
    run_cli(["peel", "--input", str(src), "--density-column", "f", "--output", str(trace)])
    records = len(json.loads(trace.read_text())["records"])
    return Op(["oracle-check", str(trace), "--input", str(src), "--density-column", "f"],
              lambda stdout, _: checks.check_oracle(stdout, records), 1)


def _barcode_op(work: Path, k: int, points: np.ndarray) -> Op:
    src = work / f"points{k}.csv"
    write_points(src, points)
    heights = checks.single_linkage_heights(points)
    return Op(["barcode", "--input", str(src)],
              lambda stdout, _: checks.check_barcode(stdout, heights), 1)


def sim_oracle_barcode(work: Path, rng: np.random.Generator, run_cli) -> Inputs:
    """The commands that skip the general peel phase: the Monte Carlo
    experiment (one flat level, a process pool), exact oracle replays of
    n=8 traces and the elder-rule barcode."""
    ops = [_simulate_op(rng)]
    ops += [_oracle_op(work, k, rng, run_cli) for k in range(ORACLE_SPACES)]
    ops += [_barcode_op(work, k, rng.random((BARCODE_N, 2))) for k in range(BARCODE_INPUTS)]
    return Inputs(ops, "commands")


WORKLOADS = {
    "peel": peel,
    "sim-oracle-barcode": sim_oracle_barcode,
}
