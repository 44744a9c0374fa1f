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
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .pset import ChainLevels, LeveledMergeForest, PeelView, QueryError, chain_of_merges, fresh_view, steps
from .space import AugmentedMetricSpace, is_point


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
        birth density up."""
        sigmas = [float(s) for s in sigma_values]
        return [(s, theta) for lo, hi, theta in self._spans(sigmas) for s in sigmas[lo:hi]]

    def _spans(self, sigmas: List[float]) -> List[Tuple[int, int, float]]:
        """(lo, hi, theta) per run: the ascending ``sigmas[lo:hi]`` are the
        levels where the run's theta holds."""
        starts = [bisect.bisect_left(sigmas, s) for s, _ in self.breaks] + [len(sigmas)]
        return [(lo, hi, theta) for (_, theta), lo, hi in zip(self.breaks, starts, starts[1:])]


# -- nearest neighbors ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NNGraph:
    """All-nearest-neighbor map plus its mutual (reflexive) pairs."""

    nn: np.ndarray
    mutual_pairs: List[Tuple[int, int]]

    def __post_init__(self):
        self.nn.setflags(write=False)


def _graph(nn: np.ndarray) -> NNGraph:
    return NNGraph(nn=nn, mutual_pairs=[(i, int(j)) for i, j in enumerate(nn) if i < j and nn[j] == i])


def nn_graph(space: AugmentedMetricSpace) -> NNGraph:
    """Nearest-neighbor graph, distance ties going to the point first in the
    canonical order (index order without densities), from the forest build's
    ``nearest_sweep`` in that order: matrix entries for ``#matrix`` input, else
    rows computed from the coordinates, so no matrix is built. O(n^2) time and
    O(n) memory."""
    if space.n < 2:
        raise ValueError("nearest neighbors need at least two points")
    order = space.canonical_order() if space.has_density() else np.arange(space.n)
    nn_pos = np.zeros(space.n, dtype=np.intp)
    for _ in space.nearest_sweep(order, nn_pos, np.full(space.n, np.inf)):
        pass
    nn = np.empty_like(order)
    nn[order] = order[nn_pos]
    return _graph(nn)


def neighborly_rooted(space: AugmentedMetricSpace) -> Set[int]:
    """Points whose nearest neighbor precedes them in the canonical order."""
    if space.n < 2:
        raise ValueError("neighborly rootedness needs at least two points")
    rank = np.argsort(space.canonical_order())
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
    cand, _, _ = fo.root_scan(view._alive, px)
    return None if cand is None else int(fo.perm[cand[0]])


def is_rooted_subset(view: PeelView, subset: Sequence[int]) -> Optional[int]:
    """Root witness for a whole subset, or None.

    The witness y survives outside the subset, is at least as dense as all of
    it, and at every grade each member's cluster either reaches y or contains
    no survivors beyond the subset. So y is, for every member, a candidate of
    ``root_scan`` with the survivors outside the subset marked and the
    candidates limited to the positions at least as dense as the subset; the
    witness is the canonically first candidate common to all members.
    """
    fo = view.forest
    pos = sorted({fo.position(a) for a in subset})
    if not pos:
        raise QueryError("rooted-subset check needs a nonempty subset")
    if not view._alive[pos].all():
        raise QueryError("all subset members must survive")
    others = view._alive.copy()
    others[pos] = False
    limit = int(np.searchsorted(fo.f_by_pos, fo.f_by_pos[pos[0]], side="right"))
    common = None
    for px in pos:
        cand, _, _ = fo.root_scan(others, px, limit)
        if cand is None:
            return None
        common = cand if common is None else np.intersect1d(common, cand, assume_unique=True)
        if not len(common):
            return None
    return int(fo.perm[common[0]])


def interval_support(view: PeelView, x: int, root: int) -> IntervalSupport:
    """Support of the interval split off by peeling x toward root.

    The threshold at each level is the merge scale of x and root there in
    the full space (removed points keep providing connectivity), read off the
    scan that certifies the pair. An empty support (duplicates) is flagged.
    """
    runs = view.root_runs(x, root)
    if runs is None:
        raise QueryError(f"({x}, {root}) is not a valid rooted pair on this view")
    return _support(view.forest, runs)


def _support(fo: LeveledMergeForest, runs: Iterable[Tuple[int, float]]) -> IntervalSupport:
    """The support whose thresholds are the (level, theta) runs."""
    breaks = tuple((float(fo.sigma_levels[j]), theta) for j, theta in runs)
    return IntervalSupport(breaks[0][0], breaks)


_BOTTOM_RUNS = ((0, math.inf),)  # the densest point's whole-module interval


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
    nearest-neighbor graph from the forest's build (None for one point; not
    serialized)."""

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
        per record its generator, root, reason, zero flag and support pairs,
        each behind its separator in one list of pieces that is joined once."""
        support = staircase_json(self.final_view.forest.sigma_levels, 3)
        parts = [f'{{\n  "n": {self.n},\n  "records": [']
        for k, r in enumerate(self.records):
            parts += [",\n" if k else "\n", f'    {{\n      "generator": {r.generator},\n'
                      f'      "root": {"null" if r.root is None else r.root},\n'
                      f'      "reason": "{r.reason}",\n'
                      f'      "zero_interval": {"true" if r.zero_interval else "false"},\n'
                      f'      "support": {support(r.support)}\n    }}']
        parts.append("\n  ]\n}" if self.records else "]\n}")
        return "".join(parts)


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
        runs = []
        for lo, hi, theta in support._spans(sigmas):
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


def _general_rounds(levels: ChainLevels, alive: np.ndarray) -> Iterator[tuple]:
    """Repeat: peel the canonically first survivor passing the general
    criterion, until none passes; marks it removed and yields (position,
    root position, its scan's (level, theta) runs of their merge scale).

    Unrooted verdicts are cached between rounds. A removal can only flip the
    verdict of x when the removed point attained x's first-merge scale at one
    of the levels x's scan visited, so only those entries are rechecked. A
    min-heap holds the survivors whose verdict is not cached (position 0 is
    never peeled), and a removal pushes its watchers back onto it.
    """
    import heapq  # here, so that starting the CLI imports nothing more

    heap = (np.flatnonzero(alive[1:]) + 1).tolist()  # ascending, so already a heap
    queued = alive.copy()
    queued[0] = False
    watchers: Dict[int, List[int]] = {}
    while heap:
        px = heapq.heappop(heap)
        queued[px] = False
        cand, runs, watch = levels.root_scan(alive, px)
        if cand is None:
            for z in watch:
                watchers.setdefault(z, []).append(px)
            continue
        alive[px] = False
        for w in watchers.pop(px, []):
            if alive[w] and not queued[w]:
                queued[w] = True
                heapq.heappush(heap, w)
        yield px, int(cand[0]), runs


def peel_all(space: AugmentedMetricSpace, forest: Optional[LeveledMergeForest] = None) -> PeelTrace:
    """Greedily peel interval summands until no surviving generator is rooted.

    Each round takes the canonically first peelable generator, preferring the
    nearest-neighbor fast path (neighbors and distances from the forest's
    build: no distance matrix) over the general level scan. The density-minimal
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
    records: List[PeelRecord] = []

    def emit(px: int, proot: int, reason: str, support: IntervalSupport):
        records.append(PeelRecord(int(fo.perm[px]), int(fo.perm[proot]), reason, support))
        alive[px] = False

    graph = _graph(fo.perm[fo.nn_pos[fo.pos_of]]) if n >= 2 else None
    if graph is not None:
        # a peel here only makes later points unpeelable, so one ascending
        # pass meets the canonically first candidate of every round
        for px in np.flatnonzero(fo.nn_pos < np.arange(n)).tolist():
            proot = int(fo.nn_pos[px])
            if alive[proot]:
                emit(px, proot, "neighborly", _support(fo, [(fo.birth_level[px], float(fo.nn_dist[px]))]))

        for px, proot, runs in _general_rounds(fo, alive):
            emit(px, proot, "general-rooted", _support(fo, runs))

    records.append(PeelRecord(int(fo.perm[0]), None, "bottom", _support(fo, _BOTTOM_RUNS)))
    return PeelTrace(records=records, final_view=PeelView(fo, alive), n=n, nn=graph)


def replay_steps(forest: LeveledMergeForest, records: Iterable[PeelRecord]) -> Iterator[tuple]:
    """Re-apply trace records to a fresh view of ``forest``. Yields per record
    the views before and after it, the support the peel engine writes for it
    and the first check it fails ('' if none), and stops after a failure
    (after is None).

    A record passes when it is the first bottom record, names the first
    canonical point and has no root; or no bottom record came before it and
    its root roots its generator on the view; and its support is the one the
    peel engine writes. So nothing follows the bottom record, and a prefix of
    a trace passes (``trace_records_from_json`` checks that a document holds
    its bottom record).
    """
    view = fresh_view(forest)
    bottom_seen = False
    for rec in records:
        gen, root = rec.generator, rec.root
        after, support, why = view, None, ""
        if rec.reason == "bottom":
            if bottom_seen:
                why = "trace has more than one bottom record"
            elif gen != int(forest.perm[0]):
                why = f"bottom generator should be {int(forest.perm[0])}"
            elif root is not None:
                why = "bottom record has a root"
            bottom_seen = True
            support = _support(forest, _BOTTOM_RUNS)
        elif bottom_seen:
            why = "record follows the bottom record"
        elif root is None:
            why = "missing root"
        elif (runs := view.root_runs(gen, root)) is None:
            why = "pair fails the rootedness criterion"
        else:
            support = _support(forest, runs)
            after = view._without(gen)
        if not why and rec.support != support:
            why = "recorded support differs from the recomputed one"
        yield view, None if why else after, support, why
        if why:
            return
        view = after


def replay(records: Sequence[PeelRecord], forest: LeveledMergeForest) -> PeelView:
    """Re-apply a trace, or a prefix of one, on a fresh view through
    ``replay_steps``, which runs every record check ``oracle-check`` makes
    short of the exact one; returns the final view or raises QueryError
    naming the first record that fails."""
    view = fresh_view(forest)
    for k, (r, (_, after, _, why)) in enumerate(zip(records, replay_steps(forest, records))):
        if why:
            raise QueryError(f"record {k}: generator {r.generator} ({r.reason}) - {why}")
        view = after
    return view


_REASONS = ("neighborly", "general-rooted", "bottom")


def _is_grade_pair(p) -> bool:
    return isinstance(p, list) and len(p) == 2 and all(v is None or type(v) in (int, float) for v in p)


def _theta(v) -> float:
    """A support pair's theta, null as inf; a ValueError unless it is null or
    a finite number that a double holds exactly."""
    try:
        t = math.inf if v is None else float(v)
    except OverflowError:  # an integer beyond every double
        t = math.nan
    if v is not None and not (math.isfinite(t) and t == v):
        raise ValueError("support thetas must be finite numbers or null")
    return t


def trace_records_from_json(payload: str, forest: LeveledMergeForest) -> List[PeelRecord]:
    """Decode a serialized trace of ``forest``'s space into its records; raises
    ValueError when the document is malformed, has no bottom record or was
    computed on a different number of points, or naming a record that
    ``PeelTrace.to_json`` cannot write on this forest."""
    n = forest.n
    sigmas = [float(s) for s in forest.sigma_levels]
    try:
        data = json.loads(payload)
    except RecursionError:
        raise ValueError("trace document is nested too deeply") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"trace is not JSON: {e}") from None
    if not isinstance(data, dict) or not isinstance(data.get("records"), list):
        raise ValueError("not a peel trace document")
    if type(data.get("n")) is not int or data["n"] != n:
        raise ValueError(f"trace is for n = {data.get('n')!r} points, the input has {n}")
    records = []
    for k, rec in enumerate(data["records"]):
        try:
            if not isinstance(rec, dict):
                raise ValueError("not an object")
            if not is_point(rec.get("generator"), n):
                raise ValueError(f"generator must be a point index below {n}")
            if rec.get("root") is not None and not is_point(rec["root"], n):
                raise ValueError(f"root must be null or a point index below {n}")
            if rec.get("reason") not in _REASONS:
                raise ValueError(f"reason must be one of {', '.join(_REASONS)}")
            pairs = rec.get("support")
            if not isinstance(pairs, list) or not pairs or not all(_is_grade_pair(p) for p in pairs):
                raise ValueError("support must be a nonempty list of [sigma, theta] pairs")
            birth = len(sigmas) - len(pairs)
            if birth < 0 or [s for s, _ in pairs] != sigmas[birth:]:
                raise ValueError("support sigmas must be the density levels from the birth level up")
            thetas = [_theta(t) for _, t in pairs]
            runs = [(birth + j, t) for j, t in enumerate(thetas) if j == 0 or t != thetas[j - 1]]
            support = _support(forest, runs)
            if rec.get("zero_interval") is not support.zero:
                raise ValueError(f"zero_interval must be {str(support.zero).lower()} for this support")
        except ValueError as e:
            raise ValueError(f"trace record {k}: {e}") from None
        records.append(PeelRecord(rec["generator"], rec.get("root"), rec["reason"], support))
    if not any(r.reason == "bottom" for r in records):
        raise ValueError("trace has no bottom record")
    return records


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

    The merges become a chain over positions in (birth, index) order
    (``pset.chain_of_merges``), peeled by the same general rounds that
    ``peel_all`` runs: O(n) memory.
    """
    births = [float(b) for b in births]
    n = len(births)
    if any(math.isnan(b) for b in births):
        raise ValueError("births must not be NaN")
    if n == 0:
        return []
    order = sorted(range(n), key=lambda i: (births[i], i))
    pos_of = {x: p for p, x in enumerate(order)}

    by_pos = []
    last = -math.inf
    for scale, i, j in merges:
        scale = float(scale)
        if not (is_point(i, n) and is_point(j, n)):
            raise ValueError(f"merge ({scale}, {i}, {j}) names a point outside 0..{n - 1}")
        if math.isnan(scale):
            raise ValueError(f"merge ({scale}, {i}, {j}) has a NaN grade")
        if scale < last:
            raise ValueError("merge grades must be nondecreasing")
        if scale < max(births[i], births[j]):
            raise ValueError(f"merge ({scale}, {i}, {j}) precedes a birth")
        last = scale
        by_pos.append((scale, pos_of[i], pos_of[j]))
    levels = ChainLevels([chain_of_merges(n, by_pos)], np.zeros(n, dtype=np.intp))
    alive = np.ones(n, dtype=bool)
    bars = [(births[order[px]], runs[0][1]) for px, _, runs in _general_rounds(levels, alive)]
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
    fo = forest if forest is not None else LeveledMergeForest(space)
    if fo.num_levels != fo.n:
        raise ValueError("staircodes need an injective density function")
    px = fo.position(x)
    before = np.arange(fo.n) < px
    return _support(fo, steps(int(fo.birth_level[px]), fo.num_levels - 1,
                              lambda j: fo.first_merge_at(j, before, px)))


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
    cand, _, _ = fo.root_scan(np.arange(fo.n) <= px, px)
    return None if cand is None else int(fo.perm[cand[0]])
