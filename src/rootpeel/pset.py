"""Density-Rips persistent sets as one single-linkage chain per density level.

For an augmented metric space the persistent set assigns to each grade
(scale eps, density sigma) the partition of the sub-level set
``{x : f(x) <= sigma}`` into connected components of the geometric graph at
``eps``. Only the exact oracle (``linalg``) materializes the grade grid.
Points are relabeled into canonical order (density ascending, index
ascending on ties), so every density level's active set is a prefix, and the
single-linkage hierarchy of each level determines the whole bifiltration.

Queries read a level through its *chain*: the level's points in an order
where every cluster is contiguous, plus the merge scale between neighbors.
Two points merge at the largest gap between them, and the cluster of a point
at eps is the run around it with gaps <= eps. The first level's chain is
Prim's visiting order (``space.spanning_tree``), each gap the length its point
joins the tree by: Prim finishes each cluster before it leaves it. The
build inserts only the later points, one at a time in canonical order, each
with its distances to those before it, and keeps the chain of every level as
the insertion passes its last point.

A ``PeelView`` is the immutable forest and a survivor mask. Removed points
still provide connectivity (the underlying graphs never change); they are
only filtered out of reported clusters. This is precisely the persistent set
obtained by restricting to the image of the idempotent endomorphism that
sends each removed generator to its root, whatever that root was, so a view
keeps no roots: they are on the trace's records.
"""

from __future__ import annotations

import math
from typing import Callable, FrozenSet, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .space import AugmentedMetricSpace, is_point


class QueryError(ValueError):
    """Raised when a grade/point query violates its preconditions."""


# -- chains --------------------------------------------------------------------
#
# A chain of m points is (order, gaps): ``order`` lists the points so that
# every single-linkage cluster is a contiguous run, ``gaps[k]`` is the merge
# scale of order[k - 1] and order[k], and ``gaps[0]`` is inf. The merge scale
# of the points at chain indices a < b is max(gaps[a + 1 : b + 1]).


def _scales_from(gaps: np.ndarray, k: int) -> np.ndarray:
    """Merge scales of the point at chain index k with every chain index."""
    row = np.empty(len(gaps))
    row[k] = 0.0
    np.maximum.accumulate(gaps[k + 1 :], out=row[k + 1 :])
    if k:
        np.maximum.accumulate(gaps[k:0:-1], out=row[k - 1 :: -1])
    return row


def _attach(gaps: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Merge scales of a new point q with every chain index, given q's
    distances ``d`` to the chain indices.

    The shortest distance always counts; after that, a distance only matters
    if it is shorter than q's merge scale with its endpoint through the ones
    that counted. Min and max only, so the order of the picks does not change
    a double.
    """
    i = int(np.argmin(d))
    r = _scales_from(gaps, i)
    np.maximum(r, d[i], out=r)
    while True:
        shorter = np.flatnonzero(d < r)
        if not len(shorter):
            return r
        i = shorter[np.argmin(d[shorter])]
        via = _scales_from(gaps, i)
        np.minimum(r, np.maximum(via, d[i], out=via), out=r)


def _insert(order: np.ndarray, gaps: np.ndarray, q: int, r: np.ndarray):
    """Chain of the old points plus q, from q's merge scales r with them.

    Put q first and the old points after it by r, stably. Points within eps of
    q form a prefix, and an old cluster that q does not reach has one r value
    and stays contiguous. Each point merges with the one before it at its own
    r, or at their old gap if they were old neighbors and that is smaller,
    which by the ultrametric inequality needs equal r.
    """
    idx = np.argsort(r, kind="stable")
    rs = r[idx]
    tail = rs[1:]
    new_gaps = np.empty(len(r) + 1)
    new_gaps[0] = np.inf
    new_gaps[1] = rs[0]
    new_gaps[2:] = np.where(idx[1:] == idx[:-1] + 1, np.minimum(gaps[idx[1:]], tail), tail)
    return np.concatenate(([q], order[idx])), new_gaps


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending, as ``np.unique`` gives them (the first
    of each run of the same sort), without its import of ``numpy.ma``."""
    s = np.sort(values, axis=None)
    return s[np.concatenate(([True], s[1:] != s[:-1]))] if len(s) else s


def find_set(parent: List[int], a: int) -> int:
    """Representative of a's set in the union-find forest ``parent``; halves
    the path on the way."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def chain_of_merges(n: int, merges: Iterable[Tuple[float, int, int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Chain of positions ``0..n-1`` from merges (scale, a, b) of positions in
    nondecreasing scale, for ``rooted.elder_barcode_1d``: a merge of two
    clusters appends one's run to the other's at that scale, one inside a
    cluster changes nothing, and clusters that never merge follow at gap inf."""
    parent = list(range(n))  # a run's representative is its head
    tail = list(range(n))
    after = [-1] * n
    gap_before = [math.inf] * n
    for scale, a, b in merges:
        a, b = find_set(parent, a), find_set(parent, b)
        if a == b:
            continue
        after[tail[a]] = b
        gap_before[b] = scale
        tail[a] = tail[b]
        parent[b] = a
    order = []
    for head in (p for p in range(n) if parent[p] == p):
        while head >= 0:
            order.append(head)
            head = after[head]
    return np.array(order, dtype=np.intp), np.array([gap_before[p] for p in order])


def _level_chains(
    order: np.ndarray, gaps: np.ndarray, rows: Iterator[np.ndarray], level_sizes: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Insert points len(order), len(order) + 1, ... one at a time into the
    chain (order, gaps) of the points before them, each with its row of
    distances to those points, drawn from ``rows``; yields the chain of each
    level, the first ``level_sizes[j]`` points, as the insertion passes it."""
    for size in level_sizes:
        for q in range(len(order), int(size)):
            order, gaps = _insert(order, gaps, q, _attach(gaps, next(rows)[order]))
        yield order, gaps


def _packed(order: np.ndarray, gaps: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A chain as stored: order, gaps and each position's chain index."""
    index = np.empty(len(order), dtype=np.int32)
    index[order] = np.arange(len(order))
    return order.astype(np.int32), gaps, index


_PEEK = 4  # chain steps read one at a time before the walk reads windows
_WINDOW = 16  # the first window's width; each next one is twice as wide


def _walk(order: np.ndarray, gaps: np.ndarray, k: int, step: int, eps: float,
          alive: Optional[np.ndarray] = None) -> Tuple[int, float, bool]:
    """Walk the chain from index k in direction ``step`` (+1 or -1) until
    the next gap exceeds eps, the chain ends, or the walk reaches a position
    marked in ``alive``: (the index it stops at, the largest gap it crossed,
    whether that index is marked). The nearest survivor and a run's bound are
    usually a step or two away, so the first ``_PEEK`` steps are scalar reads,
    and windows of doubling width follow."""
    # the chain's last index that way, and gaps[t + cross] lies between t and t + step
    end, cross = (len(order) - 1, 1) if step > 0 else (0, 0)
    g, t = -math.inf, k
    for _ in range(_PEEK):
        if t == end:
            return t, g, False
        gap = gaps.item(t + cross)
        if gap > eps:
            return t, g, False
        if gap > g:
            g = gap
        t += step
        if alive is not None and alive[order[t]]:
            return t, g, True
    width = _WINDOW
    while t != end:
        # the next steps in walk order: the gaps they cross and the points they reach
        if step > 0:
            b = min(end, t + width)
            gs, pts = gaps[t + 1 : b + 1], order[t + 1 : b + 1]
        else:
            b = max(0, t - width)
            gs, pts = gaps[b + 1 : t + 1][::-1], order[b:t][::-1]
        over = gs > eps
        stop = int(over.argmax())  # argmax, not any(): one call that stops at the first hit
        if not over[stop]:
            stop = len(gs)
        if alive is not None and stop:
            hit = alive[pts[:stop]]
            i = int(hit.argmax())
            if hit[i]:
                return t + step * (i + 1), max(g, float(np.maximum.reduce(gs[: i + 1]))), True
        if stop:
            g = max(g, float(np.maximum.reduce(gs[:stop])))
        t += step * stop
        if stop < len(gs):
            return t, g, False
        width *= 2
    return t, g, False


def steps(lo: int, hi: int, f: Callable[[int], float]) -> Iterator[Tuple[int, float]]:
    """(lo, f(lo)), then (j, f(j)) for each j in (lo, hi] where a nonincreasing
    f changes, in increasing j; bisection evaluates f O(changes * log) times."""
    seen = {lo: f(lo)}
    yield lo, seen[lo]
    if hi not in seen:
        seen[hi] = f(hi)
    todo = [(lo, hi)]  # spans whose inner changes are not yet reported, leftmost last
    while todo:
        a, b = todo.pop()
        if seen[a] == seen[b]:
            continue
        if b == a + 1:
            yield b, seen[b]
            continue
        mid = (a + b) // 2
        seen[mid] = f(mid)
        todo += [(mid, b), (a, mid)]


class ChainLevels:
    """Per-level chains over positions ``0..n-1`` and the queries they answer.

    ``chains`` gives each level's (order, gaps), level j holding the
    positions ``[0, level_sizes[j])``; position p is born at level
    ``birth_level[p]``.
    """

    def __init__(self, chains: Iterable[Tuple[np.ndarray, np.ndarray]], birth_level: np.ndarray):
        self._chains = [_packed(order, gaps) for order, gaps in chains]
        self.level_sizes = np.array([len(order) for order, _, _ in self._chains], dtype=np.intp)
        self.num_levels = len(self._chains)
        self.n = int(self.level_sizes[-1]) if self.num_levels else 0
        self.birth_level = birth_level

    def chain(self, j: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, gaps, index): level j's chain and each position's chain index."""
        return self._chains[j]

    def critical_scales(self) -> np.ndarray:
        """0 and the distinct finite merge scales of every level: the scales
        where some level's clusters change. On them a linearization is the full
        grid's with its repeated grades dropped."""
        gaps = np.concatenate([[0.0]] + [g for _, g, _ in self._chains])
        return distinct(gaps[np.isfinite(gaps)])

    def cluster_run(self, j: int, px: int, eps: float) -> np.ndarray:
        """Positions in px's cluster at scale eps and level j, in chain order."""
        order, gaps, index = self.chain(j)
        k = int(index[px])
        return order[_walk(order, gaps, k, -1, eps)[0] : _walk(order, gaps, k, 1, eps)[0] + 1]

    def first_merge_at(self, j: int, alive: np.ndarray, px: int) -> float:
        """Smallest scale at which px's cluster at level j holds another
        position marked in ``alive``; inf when none does. The right walk is
        bounded by the left one's scale."""
        order, gaps, index = self.chain(j)
        k = int(index[px])
        _, g, hit = _walk(order, gaps, k, -1, math.inf, alive)
        eps = g if hit else math.inf
        _, g, hit = _walk(order, gaps, k, 1, eps, alive)
        return g if hit else eps

    def cluster_labels(self, j: int, scales: np.ndarray, alive: np.ndarray) -> np.ndarray:
        """(len(scales), m) array: for each scale, and each of the m positions
        active at level j, the first position marked in ``alive`` in its
        cluster at that scale (0 when the cluster has none)."""
        order, gaps, _ = self.chain(j)
        starts = gaps > np.asarray(scales, dtype=float)[:, None]  # a new run per scale and gap
        starts[:, 0] = True
        key = np.where(alive[order], order, self.n)
        first = np.minimum.reduceat(np.tile(key, len(starts)), np.flatnonzero(starts))
        first[first == self.n] = 0
        labels = np.empty(starts.shape, dtype=np.intp)
        labels[:, order] = first[np.cumsum(starts) - 1].reshape(starts.shape)
        return labels

    def root_scan(self, alive: np.ndarray, px: int, limit: Optional[int] = None
                  ) -> Tuple[Optional[np.ndarray], List[Tuple[int, float]], List[int]]:
        """Sorted positions below ``limit`` (``limit`` defaults to px) that
        are marked in ``alive`` and root px (None when there is none); the
        (level, eps) pairs of px's first-merge scale with a marked position
        (inf when none) at the levels the scan visited, up to where the
        candidates ran out; and marked positions whose unmarking must trigger
        a rescan: the first marked position other than px, in chain order, in
        px's cluster at its first-merge scale at each finite level visited.

        A candidate lies in px's marked cluster at its first merge scale on
        every level from px's birth upward. For a fixed mask that scale cannot
        grow with the level, and while it stays put the cluster only grows,
        so only the birth level and the levels where it drops can exclude a
        candidate; bisection on ``first_merge_at`` finds them, and they are
        the runs of each candidate's merge scale with px. At each level it
        visits, the scan walks px's cluster from px at that level's scale; it
        keeps nothing between levels. While each of these levels keeps one
        marked position at its scale, every level's scale stays as it was and
        the candidates can only shrink, so an empty verdict stands until a
        watched position goes. px itself may be marked or not. With no level
        scanned, every marked position below ``limit`` roots px.
        """
        limit = px if limit is None else limit
        runs: List[Tuple[int, float]] = []
        watch: List[int] = []
        if not limit or not alive[int(alive[:limit].argmax())]:  # nothing marked below limit
            return None, runs, watch
        cand = None
        for j, eps in steps(int(self.birth_level[px]), self.num_levels - 1,
                            lambda j: self.first_merge_at(j, alive, px)):
            runs.append((j, eps))
            if math.isinf(eps):
                continue
            run = self.cluster_run(j, px, eps)
            members = run[alive[run]]  # px and at least one other
            watch.append(int(members[1] if members[0] == px else members[0]))
            if cand is None:
                cand = np.sort(members.astype(np.intp))
                cand = cand[: cand.searchsorted(limit)]
            else:  # the run is contiguous in level j's chain
                index = self.chain(j)[2]
                at = index[cand]
                cand = cand[(at >= index[run[0]]) & (at <= index[run[-1]])]
            if not len(cand):
                return None, runs, watch
        if cand is None:
            cand = np.flatnonzero(alive[:limit])
        return cand, runs, watch


class LeveledMergeForest(ChainLevels):
    """Immutable merge structure of an augmented metric space, one level per
    density: level ``j`` holds the canonical prefix of size ``level_sizes[j]``
    and its chain. The build's ``space.spanning_tree`` over level 0 and
    ``space.nearest_sweep`` over the later positions make no distance matrix
    and leave each position's nearest other position ``nn_pos`` (distance
    ties to the lower position) and its distance ``nn_dist``."""

    def __init__(self, space: AugmentedMetricSpace):
        f = space.require_density()
        self.space = space
        self.perm = space.canonical_order()
        self.pos_of = np.empty(space.n, dtype=np.intp)
        self.pos_of[self.perm] = np.arange(space.n)
        self.f_by_pos = f[self.perm]

        self.sigma_levels = distinct(f)
        level_sizes = np.searchsorted(self.f_by_pos, self.sigma_levels, side="right")
        self.nn_pos = np.zeros(space.n, dtype=np.intp)
        self.nn_dist = np.full(space.n, np.inf)
        m = int(level_sizes[0])
        try:
            order, w = space.spanning_tree(self.perm[:m], self.nn_pos, self.nn_dist)
            rows = space.nearest_sweep(self.perm, self.nn_pos, self.nn_dist, start=m)
            super().__init__(
                _level_chains(order, np.concatenate(([np.inf], w)), rows, level_sizes),
                np.searchsorted(self.sigma_levels, self.f_by_pos),
            )
        except MemoryError:
            raise MemoryError(f"out of memory building the merge forest of n = {space.n} points"
                              f" on {len(level_sizes)} density levels") from None

    # -- basic lookups -------------------------------------------------------

    def level_index(self, sigma: float) -> int:
        """Largest level with density value <= sigma."""
        j = int(np.searchsorted(self.sigma_levels, sigma, side="right")) - 1
        if j < 0 or math.isnan(sigma):
            raise QueryError(f"no point has density <= {sigma}")
        return j

    def position(self, x: int) -> int:
        """Canonical position of point x; QueryError unless x is an int in [0, n)."""
        if not is_point(x, self.n):
            raise QueryError(f"point index out of range: {x}")
        return int(self.pos_of[x])

    # -- merge events ----------------------------------------------------------

    def merge_events(self, level: int) -> List[Tuple[float, int, int]]:
        """Sorted merge events (eps, a, b) of one level; a, b are the merging
        clusters' canonically first points, and the events of one scale are
        sorted by (a, b) in canonical order."""
        order, gaps, _ = self.chain(level)
        parent = list(range(len(order)))
        by_scale = np.argsort(gaps[1:], kind="stable") + 1
        events = []
        start = 0
        while start < len(by_scale):
            eps = gaps[by_scale[start]]
            stop = start
            while stop < len(by_scale) and gaps[by_scale[stop]] == eps:
                stop += 1
            pairs = [(find_set(parent, int(order[k - 1])), find_set(parent, int(order[k])))
                     for k in by_scale[start:stop]]
            for p, q in pairs:
                p, q = find_set(parent, p), find_set(parent, q)
                parent[max(p, q)] = min(p, q)
            ends = {p for pair in pairs for p in pair}
            joined = sorted((find_set(parent, p), p) for p in ends if find_set(parent, p) != p)
            events += [(float(eps), int(self.perm[a]), int(self.perm[b])) for a, b in joined]
            start = stop
        return events


# -- peel views ---------------------------------------------------------------


class PeelView:
    """A merge forest restricted to the surviving generators: the forest and
    a survivor mask over its positions, nothing else.

    Cheap value type: ``restrict`` copies one boolean array. Connectivity is
    always evaluated in the full space, so clusters of survivors may be held
    together by removed points. Where each removed point went is the trace's
    record, not the view's.
    """

    def __init__(self, forest: LeveledMergeForest, alive: Optional[np.ndarray] = None):
        self.forest = forest
        self._alive = np.ones(forest.n, dtype=bool) if alive is None else alive

    def survives(self, x: int) -> bool:
        return bool(self._alive[self.forest.position(x)])

    def survivors(self) -> List[int]:
        """Surviving original indices, in canonical order."""
        return [int(v) for v in self.forest.perm[self._alive]]

    def _check_present(self, sigma: float, x: int) -> Tuple[int, int]:
        fo = self.forest
        px = fo.position(x)
        if not self._alive[px]:
            raise QueryError(f"point {x} was removed from this view")
        if fo.f_by_pos[px] > sigma:
            raise QueryError(f"point {x} has density {fo.f_by_pos[px]} > sigma {sigma}")
        return px, fo.level_index(sigma)

    def cluster_at(self, eps: float, sigma: float, x: int) -> FrozenSet[int]:
        """Surviving points in the same component as x at grade (eps, sigma)."""
        if not eps >= 0:
            raise QueryError(f"negative scale: {eps}")
        px, j = self._check_present(sigma, x)
        fo = self.forest
        members = fo.cluster_run(j, px, eps)
        return frozenset(int(v) for v in fo.perm[members[self._alive[members]]])

    def first_merge_scale(self, sigma: float, x: int) -> Tuple[float, FrozenSet[int]]:
        """Smallest scale at which x's surviving cluster at density sigma
        exceeds one point, and that cluster; (inf, {x}) when none does."""
        px, j = self._check_present(sigma, x)
        fo = self.forest
        eps = fo.first_merge_at(j, self._alive, px)
        if math.isinf(eps):
            return math.inf, frozenset((int(x),))
        members = fo.cluster_run(j, px, eps)
        return eps, frozenset(int(v) for v in fo.perm[members[self._alive[members]]])

    def root_runs(self, x: int, root: int) -> Optional[List[Tuple[int, float]]]:
        """(level, theta) runs of x's merge scale with ``root`` from x's birth
        level up if ``root`` witnesses x as a rooted generator here, else None."""
        fo = self.forest
        px, proot = fo.position(x), fo.position(root)
        if not (self._alive[px] and self._alive[proot]) or proot >= px:
            return None
        cand, runs, _ = fo.root_scan(self._alive, px)
        return runs if cand is not None and proot in cand else None

    def restrict(self, x: int, root: int) -> "PeelView":
        """New view with x removed and sent to root; QueryError unless
        ``root_runs(x, root)`` certifies the pair."""
        if self.root_runs(x, root) is None:
            raise QueryError(f"({x}, {root}) is not a valid rooted pair on this view")
        return self._without(x)

    def _without(self, x: int) -> "PeelView":
        """New view with x removed; the caller has certified the peel."""
        alive = self._alive.copy()
        alive[self.forest.position(x)] = False
        return PeelView(self.forest, alive)

    def __repr__(self):
        return f"PeelView(n={self.forest.n}, survivors={int(self._alive.sum())})"


def fresh_view(forest: LeveledMergeForest) -> PeelView:
    return PeelView(forest)
