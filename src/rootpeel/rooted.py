"""Rooted generators, interval peeling, and nearest-neighbor machinery.

A surviving generator x of a peel view is *rooted* when some surviving y that
precedes it in the canonical order sits in x's cluster at every grade where
that cluster holds more than one survivor. Peeling such an x off splits an
interval summand from the linearized module; iterating yields a certified
lower bound on the number of intervals in the full decomposition.

The peel loop prefers the nearest-neighbor fast path: if x's global nearest
neighbor precedes it and still survives, the neighbor roots x at every level,
and the interval's scale threshold is simply their distance. The general
criterion is evaluated level by level on the forest's ultrametric matrices.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .pset import LeveledMergeForest, PeelView, QueryError, fresh_view
from .space import AugmentedMetricSpace


# -- interval supports ---------------------------------------------------------


@dataclass(frozen=True)
class IntervalSupport:
    """Staircase support: grade (eps, sigma) is inside iff sigma >= birth_sigma
    and eps < theta(sigma). Thresholds are stored as runs (sigma_from, theta)
    with sigma_from ascending and theta nonincreasing."""

    birth_sigma: float
    breaks: Tuple[Tuple[float, float], ...]
    zero: bool = False

    def __post_init__(self):
        if not self.breaks:
            raise ValueError("support needs at least one threshold run")
        if self.breaks[0][0] != self.birth_sigma:
            raise ValueError("first run must start at the birth density")
        sigmas = [s for s, _ in self.breaks]
        thetas = [t for _, t in self.breaks]
        if any(a >= b for a, b in zip(sigmas, sigmas[1:])):
            raise ValueError("run starts must be strictly increasing")
        if any(a < b for a, b in zip(thetas, thetas[1:])):
            raise ValueError("thresholds must be nonincreasing in sigma")

    def theta_at(self, sigma: float) -> float:
        """Exclusive eps-threshold at this density; 0 below the birth density."""
        if sigma < self.birth_sigma:
            return 0.0
        k = bisect.bisect_right([s for s, _ in self.breaks], sigma) - 1
        return self.breaks[k][1]

    def contains(self, eps: float, sigma: float) -> bool:
        return sigma >= self.birth_sigma and eps < self.theta_at(sigma)

    def pairs(self, sigma_values: Sequence[float]) -> List[Tuple[float, float]]:
        return [(float(s), self.theta_at(float(s))) for s in sigma_values if s >= self.birth_sigma]

    def is_empty(self) -> bool:
        return all(t <= 0.0 for _, t in self.breaks)


# -- nearest neighbors ---------------------------------------------------------


@dataclass(frozen=True)
class NNGraph:
    """All-nearest-neighbor map plus its mutual (reflexive) pairs."""

    nn: np.ndarray
    mutual_pairs: List[Tuple[int, int]]

    def __post_init__(self):
        self.nn.setflags(write=False)


def _tie_rank(space: AugmentedMetricSpace) -> np.ndarray:
    """Rank of each point in the order used to break distance ties: canonical
    order when densities exist, plain index order otherwise."""
    n = space.n
    if space.has_density():
        rank = np.empty(n, dtype=np.intp)
        rank[space.canonical_order()] = np.arange(n)
        return rank
    return np.arange(n, dtype=np.intp)


def _nearest_other(dist: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Column of the nearest other point for each row of ``dist``.

    The columns of ``dist`` list all points in tie-break order, and row k
    belongs to the point in column ``own[k]``; distance ties go to the lowest
    column. Rows are copied in chunks, so ``dist`` is never copied whole.
    """
    out = np.empty(len(own), dtype=np.intp)
    step = max(1, 4_000_000 // dist.shape[1])
    for k in range(0, len(own), step):
        block = dist[k : k + step].copy()
        block[np.arange(len(block)), own[k : k + step]] = np.inf
        out[k : k + step] = np.argmin(block, axis=1)
    return out


def _nn_kdtree(space: AugmentedMetricSpace, rank: np.ndarray, order: np.ndarray) -> np.ndarray:
    from scipy.spatial import cKDTree

    pts = space.points
    n = space.n
    tree = cKDTree(pts)
    k = min(8, n)
    _, iq = tree.query(pts, k=k)
    iq = iq.reshape(n, k)
    # re-evaluate candidates with our own metric so that grid equality and
    # rank tie-breaking agree exactly with the brute-force path
    diff = pts[iq] - pts[:, None, :]
    de = np.sqrt(np.sum(diff * diff, axis=2))
    de[iq == np.arange(n)[:, None]] = np.inf
    dmin = de.min(axis=1, keepdims=True)
    ranks = np.where(de == dmin, rank[iq], n)
    nn = iq[np.arange(n), np.argmin(ranks, axis=1)].astype(np.intp)
    # if the farthest returned candidate still ties the minimum, the true
    # rank-minimal neighbor may have been truncated away; recheck those rows
    suspect = np.flatnonzero(de[:, -1] <= dmin[:, 0])
    if suspect.size:
        rows = space.distance_matrix()[np.ix_(suspect, order)]
        nn[suspect] = order[_nearest_other(rows, rank[suspect])]
    return nn


def nn_graph(space: AugmentedMetricSpace) -> NNGraph:
    """Nearest-neighbor graph; kd-tree accelerated for coordinate input."""
    if space.n < 2:
        raise ValueError("nearest neighbors need at least two points")
    rank = _tie_rank(space)
    order = np.argsort(rank)
    if space.points is not None:
        nn = _nn_kdtree(space, rank, order)
    else:
        nn = order[_nearest_other(space.distance_matrix()[:, order], rank)]
    mutual = sorted(
        (min(i, int(nn[i])), max(i, int(nn[i])))
        for i in range(space.n)
        if int(nn[int(nn[i])]) == i and i < int(nn[i])
    )
    return NNGraph(nn=nn, mutual_pairs=mutual)


def neighborly_rooted(space: AugmentedMetricSpace) -> Set[int]:
    """Points whose nearest neighbor precedes them in the canonical order."""
    if space.n < 2:
        raise ValueError("neighborly rootedness needs at least two points")
    rank = _tie_rank(space)
    space.require_density()
    nn = nn_graph(space).nn
    return {i for i in range(space.n) if rank[nn[i]] < rank[i]}


# -- rootedness ----------------------------------------------------------------


def is_rooted_generator(view: PeelView, x: int) -> Optional[int]:
    """First canonical candidate that roots x on this view, or None.

    A candidate y precedes x canonically and lies in x's surviving cluster at
    its first merge scale on every level from x's birth upward.
    """
    fo = view.forest
    if not (0 <= x < fo.n):
        raise QueryError(f"point index out of range: {x}")
    px = int(fo.pos_of[x])
    if not view._alive[px]:
        raise QueryError(f"point {x} was removed from this view")
    cand, _ = fo.root_candidates(view._alive, px)
    return None if cand is None else int(fo.perm[np.argmax(cand)])


def is_rooted_subset(view: PeelView, subset: Sequence[int]) -> Optional[int]:
    """Root witness for a whole subset, or None.

    The witness y survives outside the subset, is at least as dense as all of
    it, and at every grade each member's cluster either reaches y or contains
    no survivors beyond the subset.
    """
    fo = view.forest
    members = sorted(set(int(a) for a in subset))
    if not members:
        raise QueryError("rooted-subset check needs a nonempty subset")
    alive = view._alive
    pos = np.array([fo.pos_of[a] for a in members], dtype=np.intp)
    if not alive[pos].all():
        raise QueryError("all subset members must survive")
    in_a = np.zeros(fo.n, dtype=bool)
    in_a[pos] = True

    f_min = float(np.min(fo.f_by_pos[pos]))
    limit = int(np.searchsorted(fo.f_by_pos, f_min, side="right"))
    cand = alive[:limit] & ~in_a[:limit]
    if not cand.any():
        return None

    j0 = fo.level_index(f_min)
    for j in range(j0, fo.num_levels):
        m = int(fo.level_sizes[j])
        outside = alive[:m] & ~in_a[:m]
        if not outside.any():
            continue
        for px in pos:
            if px >= m:
                continue
            row = fo.levels[j][px, :m]
            bound = np.min(row[outside])
            cand &= row[:limit] <= bound
        if not cand.any():
            return None
    return int(fo.perm[int(np.argmax(cand))])


def interval_support(view: PeelView, x: int, root: int) -> IntervalSupport:
    """Support of the interval split off by peeling x toward root.

    The threshold at each level is the merge scale of x and root there,
    evaluated in the full space (removed points keep providing connectivity).
    An empty support (duplicate points already merged at birth) is flagged.
    """
    if not view.rooted_pair_ok(x, root):
        raise QueryError(f"({x}, {root}) is not a valid rooted pair on this view")
    return _support_unchecked(view.forest, int(view.forest.pos_of[x]), int(view.forest.pos_of[root]))


def _support_unchecked(fo: LeveledMergeForest, px: int, proot: int) -> IntervalSupport:
    j0 = fo.level_index(fo.f_by_pos[px])
    breaks: List[Tuple[float, float]] = []
    prev = None
    for j in range(j0, fo.num_levels):
        theta = float(fo.levels[j][px, proot])
        if theta != prev:
            breaks.append((float(fo.sigma_levels[j]), theta))
            prev = theta
    birth = float(fo.sigma_levels[j0])
    return IntervalSupport(birth, tuple(breaks), zero=(breaks[0][1] == 0.0))


def _bottom_support(fo: LeveledMergeForest) -> IntervalSupport:
    birth = float(fo.sigma_levels[0])
    return IntervalSupport(birth, ((birth, math.inf),))


# -- the peel loop ---------------------------------------------------------------


@dataclass(frozen=True)
class PeelRecord:
    generator: int
    root: Optional[int]
    reason: str  # "neighborly" | "general-rooted" | "bottom"
    support: IntervalSupport
    zero_interval: bool = False


@dataclass
class PeelTrace:
    records: List[PeelRecord]
    final_view: PeelView
    n: int

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_json(self) -> str:
        fo = self.final_view.forest
        sigmas = [float(s) for s in fo.sigma_levels]
        recs = []
        for r in self.records:
            recs.append(
                {
                    "generator": r.generator,
                    "root": r.root,
                    "reason": r.reason,
                    "zero_interval": r.zero_interval,
                    "support": [
                        [s, None if math.isinf(t) else t]
                        for s, t in r.support.pairs(sigmas)
                    ],
                }
            )
        return json.dumps({"n": self.n, "records": recs}, indent=2)

def barcode_csv(bars: Sequence[Tuple[float, float]]) -> str:
    """Render one-parameter bars as birth,death rows; infinite deaths print as inf."""
    lines = ["birth,death"]
    for b, d in bars:
        lines.append(f"{b!r},{'inf' if math.isinf(d) else repr(d)}")
    return "\n".join(lines) + "\n"


def _general_rounds(fo: LeveledMergeForest, alive: np.ndarray, emit) -> None:
    """Repeat: peel the canonically first generator passing the general
    criterion, until none passes.

    Unrooted verdicts are cached between rounds. Removing z can only flip the
    verdict of x when z's full-space merge scale with x is at most x's stored
    first-merge scale (first-merge clusters grow exactly at levels where the
    removed point achieved the minimum), so only those entries are rechecked.
    """
    n = fo.n
    utop = fo.levels[-1]
    no_root_eps = np.full(n, -1.0)  # stored eps_first for still-valid verdicts
    while True:
        found = None
        for px in np.flatnonzero(alive):
            if px == 0 or no_root_eps[px] >= 0:
                continue
            cand, eps_first = fo.root_candidates(alive, int(px))
            if cand is not None:
                found = (int(px), int(np.argmax(cand)))
                break
            no_root_eps[px] = eps_first if math.isfinite(eps_first) else np.inf
        if found is None:
            return
        px, proot = found
        emit(px, proot, "general-rooted", _support_unchecked(fo, px, proot))
        alive[px] = False
        cached = np.flatnonzero(no_root_eps >= 0)
        stale = cached[utop[cached, px] <= no_root_eps[cached]]
        no_root_eps[stale] = -1.0


class _SingleLevelScanner:
    """Pointer-per-row scanner for one-level forests.

    Row pointers walk each point's neighbors in (merge scale, position) order
    and only ever advance past removed points, so repeated scans stay cheap.
    """

    def __init__(self, u: np.ndarray):
        self.n = u.shape[0]
        self.order = np.argsort(u, axis=1, kind="stable")
        self.ptr = np.zeros(self.n, dtype=np.intp)

    def first_achiever(self, x: int, alive: np.ndarray) -> int:
        o = self.order[x]
        p = int(self.ptr[x])
        while p < self.n and (o[p] == x or not alive[o[p]]):
            p += 1
        self.ptr[x] = p
        return int(o[p]) if p < self.n else -1

    def peels(self, alive: np.ndarray):
        """Repeatedly remove the first survivor whose first achiever precedes
        it, until none does; yields each (position, achiever position)."""
        while True:
            for px in np.flatnonzero(alive[1:]) + 1:
                z = self.first_achiever(int(px), alive)
                if 0 <= z < px:
                    alive[px] = False
                    yield int(px), z
                    break
            else:
                return


def peel_all(space: AugmentedMetricSpace, forest: Optional[LeveledMergeForest] = None) -> PeelTrace:
    """Greedily peel interval summands until no surviving generator is rooted.

    Each round takes the canonically first peelable generator, preferring the
    nearest-neighbor fast path over the general level scan. The density-minimal
    generator is never removed; it is reported last as a whole-module interval.

    For n >= 2 the trace always holds at least mutual-pair count + 1 records
    (while both members of a mutual pair survive, the later one stays
    peelable, so termination forces one removal per pair; the final record
    never removes anything) and at least 2, and never more than n.
    """
    if forest is None:
        forest = LeveledMergeForest(space)
    fo = forest
    n = fo.n
    alive = np.ones(n, dtype=bool)
    removed: Dict[int, int] = {}
    records: List[PeelRecord] = []

    def emit(px: int, proot: int, reason: str, support: IntervalSupport):
        gen, root = int(fo.perm[px]), int(fo.perm[proot])
        records.append(PeelRecord(gen, root, reason, support, support.zero))
        alive[px] = False
        removed[gen] = root

    if n >= 2:
        idx = np.arange(n)
        nn_pos = _nearest_other(fo.dist, idx)
        while True:
            cand = alive & (nn_pos < idx) & alive[nn_pos]
            cand[0] = False
            if not cand.any():
                break
            px = int(np.argmax(cand))
            proot = int(nn_pos[px])
            d = float(fo.dist[px, proot])
            birth = float(fo.f_by_pos[px])
            support = IntervalSupport(birth, ((birth, d),), zero=(d == 0.0))
            emit(px, proot, "neighborly", support)

        if fo.num_levels == 1:
            for px, proot in _SingleLevelScanner(fo.levels[0]).peels(alive):
                emit(px, proot, "general-rooted", _support_unchecked(fo, px, proot))
        else:
            _general_rounds(fo, alive, emit)

    records.append(PeelRecord(int(fo.perm[0]), None, "bottom", _bottom_support(fo)))
    final = PeelView(fo, alive, removed)
    return PeelTrace(records=records, final_view=final, n=n)


def replay(records: Sequence[PeelRecord], forest: LeveledMergeForest) -> PeelView:
    """Re-apply a trace on a fresh view, re-checking every peel; returns the
    final view or raises QueryError on the first invalid record."""
    view = fresh_view(forest)
    bottom_seen = False
    for r in records:
        if r.reason == "bottom":
            if bottom_seen:
                raise QueryError("trace has more than one bottom record")
            bottom_seen = True
            continue
        if r.root is None:
            raise QueryError(f"non-bottom record for {r.generator} lacks a root")
        view = view.restrict(r.generator, r.root)
    return view


_REASONS = ("neighborly", "general-rooted", "bottom")


def _is_point(v, n: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


def _is_grade_pair(p) -> bool:
    return isinstance(p, list) and len(p) == 2 and all(
        v is None or isinstance(v, (int, float)) for v in p
    )


def trace_records_from_json(payload: str, n: int) -> List[dict]:
    """Decode a serialized trace of an n-point space into plain record dicts
    (for replay tools); raises ValueError when the document is malformed or
    was computed on a different number of points."""
    data = json.loads(payload)
    if not isinstance(data, dict) or not isinstance(data.get("records"), list):
        raise ValueError("not a peel trace document")
    if data.get("n") != n:
        raise ValueError(f"trace is for n = {data.get('n')!r} points, the input has {n}")
    for k, rec in enumerate(data["records"]):
        if not isinstance(rec, dict):
            raise ValueError(f"trace record {k} is not an object")
        if not _is_point(rec.get("generator"), n):
            raise ValueError(f"trace record {k}: generator must be a point index below {n}")
        if rec.get("root") is not None and not _is_point(rec["root"], n):
            raise ValueError(f"trace record {k}: root must be null or a point index below {n}")
        if rec.get("reason") not in _REASONS:
            raise ValueError(f"trace record {k}: reason must be one of {', '.join(_REASONS)}")
        support = rec.get("support")
        if not isinstance(support, list) or not all(_is_grade_pair(p) for p in support):
            raise ValueError(f"trace record {k}: support must be a list of [sigma, theta] pairs")
    return data["records"]


# -- one-parameter specialization ------------------------------------------------


def elder_barcode_1d(
    births: Sequence[float], merges: Sequence[Tuple[float, int, int]]
) -> List[Tuple[float, float]]:
    """Barcode of a one-parameter persistent set via rooted peeling.

    ``births[i]`` is the grade where point i enters; ``merges`` lists
    (grade, i, j) cluster joins with nondecreasing grades. Peeling the first
    rooted survivor repeatedly reproduces the elder rule: each peel emits
    (birth, first merge grade with an older surviving cluster), and the oldest
    point of each component gets an infinite bar.

    The merges become an ultrametric over positions in (birth, index) order,
    peeled by the same one-level scanner that ``peel_all`` runs on a
    single-density forest: O(n^2) memory, O(n^2 log n) time to sort its rows.
    """
    births = [float(b) for b in births]
    n = len(births)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda i: (births[i], i))
    pos_of = {x: p for p, x in enumerate(order)}

    u = np.full((n, n), np.inf)
    np.fill_diagonal(u, 0.0)
    parent = list(range(n))
    members: Dict[int, List[int]] = {i: [i] for i in range(n)}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    last = -math.inf
    for scale, i, j in merges:
        scale = float(scale)
        if scale < last:
            raise ValueError("merge grades must be nondecreasing")
        if scale < max(births[i], births[j]):
            raise ValueError(f"merge ({scale}, {i}, {j}) precedes a birth")
        last = scale
        a, b = find(pos_of[i]), find(pos_of[j])
        if a == b:
            continue
        ma, mb = members[a], members[b]
        u[np.ix_(ma, mb)] = scale
        u[np.ix_(mb, ma)] = scale
        parent[b] = a
        members[a] = ma + mb
        del members[b]

    alive = np.ones(n, dtype=bool)
    bars = [(births[order[px]], float(u[px, z])) for px, z in _SingleLevelScanner(u).peels(alive)]
    bars.append((births[order[0]], math.inf))
    return sorted(bars)


# -- staircodes and conquerors -----------------------------------------------------


def staircode(
    space: AugmentedMetricSpace, x: int, forest: Optional[LeveledMergeForest] = None
) -> IntervalSupport:
    """Grades at which x is strictly the densest member of its cluster.

    Only defined for injective density functions; thresholds are the merge
    scales of x with the nearest strictly-denser point per level.
    """
    f = space.require_density()
    if len(np.unique(f)) != space.n:
        raise ValueError("staircodes need an injective density function")
    if forest is None:
        forest = LeveledMergeForest(space)
    fo = forest
    px = int(fo.pos_of[x])
    j0 = fo.level_index(fo.f_by_pos[px])
    breaks: List[Tuple[float, float]] = []
    prev = None
    for j in range(j0, fo.num_levels):
        row = fo.levels[j][px]
        theta = float(np.min(row[:px])) if px > 0 else math.inf
        if theta != prev:
            breaks.append((float(fo.sigma_levels[j]), theta))
            prev = theta
    return IntervalSupport(float(fo.f_by_pos[px]), tuple(breaks), zero=(breaks[0][1] == 0.0))


def constant_conqueror(
    space: AugmentedMetricSpace, x: int, forest: Optional[LeveledMergeForest] = None
) -> Optional[int]:
    """A canonical predecessor of x that is a closest predecessor at every
    level simultaneously; the canonically minimal point conquers itself."""
    space.require_density()
    if forest is None:
        forest = LeveledMergeForest(space)
    fo = forest
    px = int(fo.pos_of[x])
    if px == 0:
        return int(x)
    j0 = fo.level_index(fo.f_by_pos[px])
    js = range(j0, fo.num_levels)
    mins = [float(np.min(fo.levels[j][px, :px])) for j in js]
    for py in range(px):
        if all(float(fo.levels[j][px, py]) <= mn for j, mn in zip(js, mins)):
            return int(fo.perm[py])
    return None
