"""Output checks that do not trust the program under test.

Each check takes what one CLI op printed or wrote and returns an empty string
when the output is correct, or a one-line reason when it is not. The
reference values (mutual nearest-neighbour pairs, single-linkage heights,
the b(2) constant) are computed here from the generated inputs alone.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

# b(2) = area(disk) / area(union of two unit disks at distance 1)
B2 = math.pi / (4.0 * math.pi / 3.0 + math.sqrt(3.0) / 2.0)
C2 = B2 / 2.0
MUTUAL_TOL = 0.02


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def mutual_nn_pairs(points: np.ndarray) -> int:
    """Brute-force count of mutual nearest-neighbour pairs."""
    d = pairwise_distances(points)
    np.fill_diagonal(d, np.inf)
    nn = np.argmin(d, axis=1)
    idx = np.arange(len(points))
    return int(np.sum((nn[nn] == idx) & (idx < nn)))


def single_linkage_heights(points: np.ndarray) -> np.ndarray:
    from scipy.cluster.hierarchy import linkage
    from scipy.spatial.distance import squareform

    cond = squareform(pairwise_distances(points), checks=False)
    return np.sort(linkage(cond, method="single")[:, 2])


def check_peel(stdout: str, trace_text: str, n: int, mutual_pairs: int) -> str:
    try:
        trace = json.loads(trace_text)
        records = trace["records"]
        reasons = [r["reason"] for r in records]
    except (ValueError, KeyError, TypeError) as e:
        return f"trace is not a peel trace: {e}"
    k = len(records)
    if trace.get("n") != n:
        return f"trace n={trace.get('n')} but the input has {n} points"
    if not mutual_pairs + 1 <= k <= n:
        return f"{k} records outside the sandwich [{mutual_pairs + 1}, {n}]"
    if reasons.count("bottom") != 1 or reasons[-1] != "bottom":
        return "trace must hold exactly one bottom record, last"
    m = re.search(r"^peeled (\d+) of (\d+) generators$", stdout, re.M)
    if m is None or (int(m.group(1)), int(m.group(2))) != (k, n):
        return f"summary line does not report {k} of {n}"
    return ""


def check_simulate(stdout: str, trials: int) -> str:
    try:
        summary = json.loads(stdout)
        mean_mutual = float(summary["mean_mutual_fraction"])
        min_peeled = float(summary["min_peeled_fraction"])
        got_trials = summary["trials"]
    except (ValueError, KeyError, TypeError) as e:
        return f"simulate output is not a summary: {e}"
    if got_trials != trials:
        return f"summary covers {got_trials} trials, asked for {trials}"
    if abs(mean_mutual - B2) > MUTUAL_TOL:
        return f"mean mutual fraction {mean_mutual} is not within {MUTUAL_TOL} of b(2)={B2}"
    if min_peeled < C2:
        return f"min peeled fraction {min_peeled} is below c(2)={C2}"
    return ""


def check_oracle(stdout: str, records: int) -> str:
    lines = stdout.splitlines()
    if len(lines) != records:
        return f"{len(lines)} oracle lines for {records} records"
    for k, line in enumerate(lines):
        if not line.startswith(f"PASS record {k}:"):
            return f"line {k} is not a PASS: {line!r}"
    return ""


def check_barcode(stdout: str, heights: np.ndarray) -> str:
    lines = stdout.splitlines()
    if not lines or lines[0] != "birth,death":
        return "barcode output lacks its header"
    try:
        bars = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    except ValueError as e:
        return f"barcode row is not numeric: {e}"
    if any(len(b) != 2 or b[0] != 0.0 for b in bars):
        return "every bar must be born at 0"
    deaths = np.array([d for _, d in bars])
    finite = np.sort(deaths[np.isfinite(deaths)])
    if len(deaths) - len(finite) != 1:
        return f"{len(deaths) - len(finite)} infinite bars, expected one"
    if len(finite) != len(heights):
        return f"{len(finite)} finite bars, expected {len(heights)}"
    close = np.isclose(finite, heights, rtol=1e-12, atol=0.0)
    if not close.all():
        k = int(np.argmin(close))
        return f"death {finite[k]!r} differs from single-linkage height {heights[k]!r}"
    return ""
