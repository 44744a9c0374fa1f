"""Rooted generators, interval peeling, and nearest-neighbor machinery.

A surviving generator x of a peel view is *rooted* when some surviving y that
precedes it in the canonical order sits in x's cluster at every grade where
that cluster holds more than one survivor. Peeling such an x off splits an
interval summand from the linearized module; iterating yields a certified
lower bound on the number of intervals in the full decomposition.

The peel loop prefers the nearest-neighbor fast path: if x's global nearest
neighbor precedes it and still survives, the neighbor roots x at every level,
and the interval's scale threshold is simply their distance. The general
criterion is evaluated on the forest's per-level chains, only at the levels
where a point's first-merge scale drops.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .pset import ChainLevels, LeveledMergeForest, PeelView, QueryError, fresh_view, is_point
from .space import AugmentedMetricSpace


# -- interval supports ---------------------------------------------------------


@dataclass(frozen=True)
class IntervalSupport:
    """Staircase support: grade (eps, sigma) is inside iff sigma >= birth_sigma
    and eps < theta(sigma). Thresholds are stored as runs (sigma_from, theta)
    with sigma_from ascending and theta nonincreasing."""

    birth_sigma: float
    breaks: Tuple[Tuple[float, float], ...]

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

    @property
    def zero(self) -> bool:
        """Whether the support is empty: the points merge at birth (duplicates)."""
        return self.breaks[0][1] == 0.0

    def theta_at(self, sigma: float) -> float:
        """Exclusive eps-threshold at this density; 0 below the birth density."""
        if sigma < self.birth_sigma:
            return 0.0
        k = bisect.bisect_right([s for s, _ in self.breaks], sigma) - 1
        return self.breaks[k][1]

    def contains(self, eps: float, sigma: float) -> bool:
        return sigma >= self.birth_sigma and eps < self.theta_at(sigma)

    def pairs(self, sigma_values: Sequence[float]) -> List[Tuple[float, float]]:
        """(sigma, theta) for each of the ascending ``sigma_values`` from the
        birth density up, in one pass over them and the runs."""
        out = []
        k = 0
        for s in sigma_values:
            s = float(s)
            if s < self.birth_sigma:
                continue
            while k + 1 < len(self.breaks) and self.breaks[k + 1][0] <= s:
                k += 1
            out.append((s, self.breaks[k][1]))
        return out


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


def _nearest_other(dist: np.ndarray, rows: np.ndarray, cols: np.ndarray, own: np.ndarray) -> np.ndarray:
    """For each point ``rows[k]``, the index into ``cols`` of its nearest
    other point.

    ``cols`` lists all points in tie-break order and ``own[k]`` is the index
    of ``rows[k]`` in it; distance ties go to the lowest index. Rows of
    ``dist`` are gathered in chunks, so it is never copied whole.
    """
    out = np.empty(len(own), dtype=np.intp)
    step = max(1, 1_000_000 // len(cols))
    for k in range(0, len(own), step):
        block = dist[np.ix_(rows[k : k + step], cols)]
        block[np.arange(len(block)), own[k : k + step]] = np.inf
        out[k : k + step] = np.argmin(block, axis=1)
    return out


def _nn_kdtree(space: AugmentedMetricSpace, rank: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Neighbor map from k kd-tree candidates per row, and the rows to recheck."""
    from scipy.spatial import cKDTree

    pts = space.points
    n = space.n
    k = min(8, n)
    _, iq = cKDTree(pts).query(pts, k=k)
    iq = iq.reshape(n, k)
    # re-evaluate candidates with our own metric so that grid equality and
    # rank tie-breaking agree exactly with the brute-force path
    diff = pts[iq] - pts[:, None, :]
    de = np.sqrt(np.sum(diff * diff, axis=2))
    itself = iq == np.arange(n)[:, None]
    de[itself] = np.inf
    dmin = de.min(axis=1, keepdims=True)
    ranks = np.where(de == dmin, rank[iq], n)
    nn = iq[np.arange(n), np.argmin(ranks, axis=1)].astype(np.intp)
    # when every candidate other than the point itself ties the minimum, a
    # tied neighbor of lower rank may lie beyond the k returned
    return nn, np.flatnonzero(np.all((de == dmin) | itself, axis=1))


def nn_graph(space: AugmentedMetricSpace) -> NNGraph:
    """Nearest-neighbor graph, distance ties going to the lower tie rank: a
    brute argmin over the distance matrix when the space holds it (matrix
    input, or a forest was built on it), else a kd-tree on the coordinates."""
    if space.n < 2:
        raise ValueError("nearest neighbors need at least two points")
    rank = _tie_rank(space)
    order = np.argsort(rank)
    if space.points is not None and space._dist is None:
        nn, rows = _nn_kdtree(space, rank)
    else:
        nn, rows = np.empty(space.n, dtype=np.intp), np.arange(space.n)
    if rows.size:
        nn[rows] = order[_nearest_other(space.distance_matrix(), rows, order, rank[rows])]
    mutual = [(i, int(j)) for i, j in enumerate(nn) if i < j and nn[j] == i]
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
    px = fo.position(x)
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
    pos = np.array(sorted({fo.position(a) for a in subset}), dtype=np.intp)
    if pos.size == 0:
        raise QueryError("rooted-subset check needs a nonempty subset")
    alive = view._alive
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
            row = fo.scale_row(j, int(px))
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
    breaks = fo.threshold_runs(px, lambda j: fo.merge_scale(j, px, proot))
    return IntervalSupport(breaks[0][0], breaks)


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

    @property
    def zero_interval(self) -> bool:
        return self.support.zero


@dataclass
class PeelTrace:
    """The peel records in order, the view they leave, and the space's
    nearest-neighbor graph (None for one point; not serialized)."""

    records: List[PeelRecord]
    final_view: PeelView
    n: int
    nn: Optional[NNGraph] = None

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_json(self) -> str:
        """The trace as ``json.dumps(indent=2)`` writes ``{"n", "records"}``:
        per record its generator, root, reason, zero flag and support pairs."""
        support = staircase_json(self.final_view.forest.sigma_levels, 3)
        recs = [
            f'    {{\n      "generator": {r.generator},\n'
            f'      "root": {"null" if r.root is None else r.root},\n'
            f'      "reason": "{r.reason}",\n'
            f'      "zero_interval": {"true" if r.zero_interval else "false"},\n'
            f'      "support": {support(r.support)}\n    }}'
            for r in self.records
        ]
        return f'{{\n  "n": {self.n},\n  "records": {json_list(recs, 1)}\n}}'


def json_list(items: Sequence[str], depth: int) -> str:
    """A list of already indented JSON items as ``json.dumps(indent=2)`` lays
    it out at nesting ``depth``."""
    return "[\n" + ",\n".join(items) + "\n" + "  " * depth + "]" if items else "[]"


def staircase_json(sigma_levels: Sequence[float], depth: int) -> Callable[[IntervalSupport], str]:
    """Renderer of a support's ``pairs(sigma_levels)`` as the JSON list of
    ``[sigma, theta]`` pairs at nesting ``depth``, an infinite theta as null.

    The text of each level up to its theta is made once; a run of the
    support is then one ``str.join`` of its levels' heads with the run's
    theta as the separator, so the work per support grows with its runs.
    """
    sigmas = [float(s) for s in sigma_levels]
    pad = "  " * (depth + 1)
    heads = [f"{pad}[\n{pad}  {s!r},\n{pad}  " for s in sigmas]

    def render(support: IntervalSupport) -> str:
        starts = [bisect.bisect_left(sigmas, s) for s, _ in support.breaks] + [len(sigmas)]
        runs = []
        for (_, theta), lo, hi in zip(support.breaks, starts, starts[1:]):
            if lo < hi:
                tail = ("null" if math.isinf(theta) else repr(float(theta))) + f"\n{pad}]"
                runs.append((tail + ",\n").join(heads[lo:hi]) + tail)
        return json_list(runs, depth)

    return render


def barcode_csv(bars: Sequence[Tuple[float, float]]) -> str:
    """Render one-parameter bars as birth,death rows; infinite deaths print as inf."""
    lines = ["birth,death"]
    for b, d in bars:
        lines.append(f"{b!r},{'inf' if math.isinf(d) else repr(d)}")
    return "\n".join(lines) + "\n"


def _general_rounds(levels: ChainLevels, alive: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Repeat: peel the canonically first survivor passing the general
    criterion, until none passes; marks it removed and yields
    (position, root position).

    Unrooted verdicts are cached between rounds. A removal can only flip the
    verdict of x when the removed point attained x's first-merge scale at one
    of the levels x's scan visited, so only those entries are rechecked.
    """
    cached = np.zeros(levels.n, dtype=bool)
    cached[0] = True
    watchers: Dict[int, List[int]] = {}
    while True:
        found = None
        for px in np.flatnonzero(alive & ~cached):
            cand, _, watch = levels.root_scan(alive, int(px))
            if cand is not None:
                found = (int(px), int(np.argmax(cand)))
                break
            cached[px] = True
            for z in watch:
                watchers.setdefault(z, []).append(int(px))
        if found is None:
            return
        px, proot = found
        alive[px] = False
        cached[watchers.pop(px, [])] = False
        yield px, proot


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
        records.append(PeelRecord(gen, root, reason, support))
        alive[px] = False
        removed[gen] = root

    graph = nn_graph(fo.space) if n >= 2 else None
    if graph is not None:
        idx = np.arange(n)
        dist = fo.space.distance_matrix()
        nn_pos = fo.pos_of[graph.nn[fo.perm]]
        while True:
            cand = alive & (nn_pos < idx) & alive[nn_pos]
            cand[0] = False
            if not cand.any():
                break
            px = int(np.argmax(cand))
            proot = int(nn_pos[px])
            d = float(dist[fo.perm[px], fo.perm[proot]])
            birth = float(fo.f_by_pos[px])
            support = IntervalSupport(birth, ((birth, d),))
            emit(px, proot, "neighborly", support)

        for px, proot in _general_rounds(fo, alive):
            emit(px, proot, "general-rooted", _support_unchecked(fo, px, proot))

    records.append(PeelRecord(int(fo.perm[0]), None, "bottom", _bottom_support(fo)))
    final = PeelView(fo, alive, removed)
    return PeelTrace(records=records, final_view=final, n=n, nn=graph)


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


def _is_grade_pair(p) -> bool:
    return isinstance(p, list) and len(p) == 2 and all(
        v is None or isinstance(v, (int, float)) for v in p
    )


def trace_records_from_json(payload: str, n: int) -> List[dict]:
    """Decode a serialized trace of an n-point space into plain record dicts
    (for replay tools); raises ValueError when the document is malformed or
    was computed on a different number of points."""
    try:
        data = json.loads(payload)
    except RecursionError:
        raise ValueError("trace document is nested too deeply") from None
    if not isinstance(data, dict) or not isinstance(data.get("records"), list):
        raise ValueError("not a peel trace document")
    if data.get("n") != n:
        raise ValueError(f"trace is for n = {data.get('n')!r} points, the input has {n}")
    for k, rec in enumerate(data["records"]):
        if not isinstance(rec, dict):
            raise ValueError(f"trace record {k} is not an object")
        if not is_point(rec.get("generator"), n):
            raise ValueError(f"trace record {k}: generator must be a point index below {n}")
        if rec.get("root") is not None and not is_point(rec["root"], n):
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

    The merges become a chain over positions in (birth, index) order, peeled
    by the same general rounds that ``peel_all`` runs: O(n) memory.
    """
    births = [float(b) for b in births]
    n = len(births)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda i: (births[i], i))
    pos_of = {x: p for p, x in enumerate(order)}

    # clusters as linked runs of positions; a merge appends one run to another
    parent = list(range(n))
    tail = list(range(n))
    after = [-1] * n
    gap_before = [math.inf] * n

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    last = -math.inf
    for scale, i, j in merges:
        scale = float(scale)
        if not (is_point(i, n) and is_point(j, n)):
            raise ValueError(f"merge ({scale}, {i}, {j}) names a point outside 0..{n - 1}")
        if scale < last:
            raise ValueError("merge grades must be nondecreasing")
        if scale < max(births[i], births[j]):
            raise ValueError(f"merge ({scale}, {i}, {j}) precedes a birth")
        last = scale
        a, b = find(pos_of[i]), find(pos_of[j])
        if a == b:
            continue
        after[tail[a]] = b
        gap_before[b] = scale
        tail[a] = tail[b]
        parent[b] = a

    chain = []
    for head in (p for p in range(n) if parent[p] == p):
        while head >= 0:
            chain.append(head)
            head = after[head]
    gaps = np.array([gap_before[p] for p in chain])  # a run's head has inf
    levels = ChainLevels([(np.array(chain), gaps)], np.zeros(n, dtype=np.intp))
    alive = np.ones(n, dtype=bool)
    bars = [(births[order[px]], levels.merge_scale(0, px, z)) for px, z in _general_rounds(levels, alive)]
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
    fo = forest if forest is not None else LeveledMergeForest(space)
    px = fo.position(x)
    before = np.arange(fo.n) < px
    breaks = fo.threshold_runs(px, lambda j: fo.first_merge_at(j, before, px))
    return IntervalSupport(breaks[0][0], breaks)


def constant_conqueror(
    space: AugmentedMetricSpace, x: int, forest: Optional[LeveledMergeForest] = None
) -> Optional[int]:
    """A canonical predecessor of x that is a closest predecessor at every
    level simultaneously; the canonically minimal point conquers itself."""
    space.require_density()
    fo = forest if forest is not None else LeveledMergeForest(space)
    px = fo.position(x)
    if px == 0:
        return int(x)
    cand, _ = fo.root_candidates(np.arange(fo.n) <= px, px)
    return None if cand is None else int(fo.perm[np.argmax(cand)])
