"""Density-Rips persistent sets as one single-linkage chain per density level.

For an augmented metric space the persistent set assigns to each grade
(scale eps, density sigma) the partition of the sub-level set
``{x : f(x) <= sigma}`` into connected components of the geometric graph at
``eps``. We never materialize the grade grid. Points are relabeled into
canonical order (density ascending, index ascending on ties), so every
density level's active set is a prefix, and the single-linkage hierarchy of
each level determines the whole bifiltration.

Queries read a level through its *chain*: the level's points in an order
where every cluster is contiguous, plus the merge scale between neighbors.
Two points merge at the largest gap between them, and the cluster of a point
at eps is the run around it with gaps <= eps. The build inserts the points
one at a time in canonical order, each with its distance row, and keeps the
chain of every level as the insertion passes the level's last point.

A ``PeelView`` layers a set of removed generators over the immutable forest.
Removed points still provide connectivity (the underlying graphs never
change); they are only filtered out of reported clusters. This is precisely
the persistent set obtained by restricting to the image of the idempotent
endomorphism that sends each removed generator to its recorded root.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .space import AugmentedMetricSpace


class QueryError(ValueError):
    """Raised when a grade/point query violates its preconditions."""


def is_point(v, n: int) -> bool:
    """Whether v is a point index of an n-point space: an int in [0, n)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < n


@dataclass(frozen=True)
class GradeGrid:
    """The finite grade grid: distinct pairwise distances times distinct densities."""

    eps_values: np.ndarray
    sigma_values: np.ndarray

    def __post_init__(self):
        self.eps_values.setflags(write=False)
        self.sigma_values.setflags(write=False)


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
    row[k + 1 :] = np.maximum.accumulate(gaps[k + 1 :])
    row[:k] = np.maximum.accumulate(gaps[k:0:-1])[::-1]
    return row


def _attach(gaps: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Merge scales of a new point q with every chain index, given q's
    distances ``d`` to the chain indices.

    The shortest distance always counts; after that, a distance only matters
    if it is shorter than q's merge scale with its endpoint through the ones
    that counted.
    """
    r = np.full(len(gaps), np.inf)
    while True:
        gain = np.where(d < r, d, np.inf)
        i = int(np.argmin(gain))
        if math.isinf(gain[i]):
            return r
        np.minimum(r, np.maximum(d[i], _scales_from(gaps, i)), out=r)


def _insert(order: np.ndarray, gaps: np.ndarray, q: int, r: np.ndarray):
    """Chain of the old points plus q, from q's merge scales r with them.

    Put q first and the old points after it by r, stably. Points within eps of
    q form a prefix, and an old cluster that q does not reach has one r value
    and stays contiguous. Neighbors with different r merge at the larger one
    (it is also at most their old scale); neighbors with equal r merge at that
    r, or below it if they were old neighbors with a smaller gap.
    """
    idx = np.argsort(r, kind="stable")
    rs = r[idx]
    tail = rs[1:]
    same = np.where(idx[1:] == idx[:-1] + 1, np.minimum(gaps[idx[1:]], tail), tail)
    new_gaps = np.empty(len(r) + 1)
    new_gaps[0] = np.inf
    new_gaps[1] = rs[0]
    new_gaps[2:] = np.where(rs[:-1] < tail, tail, same)
    return np.concatenate(([q], order[idx])), new_gaps


def _level_chains(
    dist: np.ndarray, perm: np.ndarray, level_sizes: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Insert the points ``perm[0], perm[1], ...`` of a distance matrix one at
    a time, chains over their positions in ``perm``; yields the chain of each
    level, the first ``level_sizes[j]`` points, as the insertion passes it."""
    order = np.zeros(1, dtype=np.intp)
    gaps = np.full(1, np.inf)
    for size in level_sizes:
        for q in range(len(order), int(size)):
            order, gaps = _insert(order, gaps, q, _attach(gaps, dist[perm[q], perm[order]]))
        yield order, gaps


def _packed(order: np.ndarray, gaps: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A chain as stored: order, gaps and each position's chain index."""
    index = np.empty(len(order), dtype=np.int32)
    index[order] = np.arange(len(order))
    return order.astype(np.int32), gaps, index


def _nearest_marked(order: np.ndarray, alive: np.ndarray, k: int, step: int) -> int:
    """Chain index of the first position marked in ``alive`` beyond chain
    index k in direction ``step`` (+1 or -1), or -1; looks in windows of
    doubling width, since survivors are usually close."""
    width = 8
    t = k + step
    while 0 <= t < len(order):
        if step > 0:
            hit = alive[order[t : t + width]]
            if hit.any():
                return t + int(np.argmax(hit))
        else:
            lo = max(0, t - width + 1)
            hit = alive[order[lo : t + 1]]
            if hit.any():
                return t - int(np.argmax(hit[::-1]))
        t += step * width
        width *= 2
    return -1


def _steps(lo: int, hi: int, f: Callable[[int], float]) -> Iterator[Tuple[int, float]]:
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

    def merge_scale(self, j: int, px: int, py: int) -> float:
        """Merge scale of positions px and py at level j."""
        _, gaps, index = self.chain(j)
        a, b = sorted((int(index[px]), int(index[py])))
        return float(gaps[a + 1 : b + 1].max()) if a < b else 0.0

    def cluster_run(self, j: int, px: int, eps: float) -> np.ndarray:
        """Positions in px's cluster at scale eps and level j, in chain order."""
        order, gaps, index = self.chain(j)
        k = int(index[px])
        lo = k - int(np.argmax(gaps[k::-1] > eps))
        out = gaps[k + 1 :] > eps
        hi = k + int(np.argmax(out)) if out.any() else len(order) - 1
        return order[lo : hi + 1]

    def first_merge_at(self, j: int, alive: np.ndarray, px: int) -> float:
        """Smallest scale at which px's cluster at level j holds another
        position marked in ``alive``; inf when none does."""
        order, gaps, index = self.chain(j)
        k = int(index[px])
        eps = math.inf
        left = _nearest_marked(order, alive, k, -1)
        if left >= 0:
            eps = float(gaps[left + 1 : k + 1].max())
        right = _nearest_marked(order, alive, k, 1)
        if right >= 0:
            eps = min(eps, float(gaps[k + 1 : right + 1].max()))
        return eps

    def scale_row(self, j: int, px: int) -> np.ndarray:
        """Merge scales of position px with every position active at level j."""
        order, gaps, index = self.chain(j)
        row = np.empty(len(order))
        row[order] = _scales_from(gaps, int(index[px]))
        return row

    def cluster_labels(self, j: int, eps: float, alive: np.ndarray) -> np.ndarray:
        """For each position active at level j, the first position marked in
        ``alive`` in its cluster at scale eps (0 when the cluster has none)."""
        order, gaps, _ = self.chain(j)
        run = np.cumsum(gaps > eps) - 1
        first = np.full(run[-1] + 1, self.n)
        np.minimum.at(first, run, np.where(alive[order], order, self.n))
        first[first == self.n] = 0
        labels = np.empty(len(order), dtype=np.intp)
        labels[order] = first[run]
        return labels

    def root_scan(self, alive: np.ndarray, px: int) -> Tuple[Optional[np.ndarray], float, List[int]]:
        """Mask over positions ``[0, px)`` of the survivors that root the
        survivor at px (None when there is none); px's first-merge scale at
        the lowest level holding another survivor (inf when none was scanned);
        and survivors whose removal must trigger a rescan: one that attains the
        first-merge scale at each level the scan visited.

        A candidate lies in px's surviving cluster at its first merge scale on
        every level from px's birth upward. That scale cannot grow with the
        level, and while it stays put the cluster only grows, so only the
        birth level and the levels where it drops can exclude a candidate;
        bisection finds them. While each of these levels keeps one survivor
        at its scale, every level's scale stays as it was and the candidates
        can only shrink, so an empty verdict stands until a watched survivor
        goes.
        """
        cand = alive[:px].copy()
        eps_first = math.inf
        watch: List[int] = []
        if not cand.any():
            return None, eps_first, watch
        levels = _steps(int(self.birth_level[px]), self.num_levels - 1,
                        lambda j: self.first_merge_at(j, alive, px))
        for j, eps in levels:
            if math.isinf(eps):
                continue
            if math.isinf(eps_first):
                eps_first = eps
            members = self.cluster_run(j, px, eps)
            members = members[alive[members]]
            watch.append(int(members[members != px][0]))
            inside = np.zeros(px, dtype=bool)
            inside[members[members < px]] = True
            cand &= inside
            if not cand.any():
                return None, eps_first, watch
        return cand, eps_first, watch

    def root_candidates(self, alive: np.ndarray, px: int) -> Tuple[Optional[np.ndarray], float]:
        """The candidate mask and first-merge scale of ``root_scan``."""
        cand, eps_first, _ = self.root_scan(alive, px)
        return cand, eps_first


class LeveledMergeForest(ChainLevels):
    """Immutable merge structure of an augmented metric space, one level per
    density: level ``j`` holds the canonical prefix of size ``level_sizes[j]``
    and its chain."""

    def __init__(self, space: AugmentedMetricSpace):
        f = space.require_density()
        self.space = space
        self.perm = space.canonical_order()
        self.pos_of = np.empty(space.n, dtype=np.intp)
        self.pos_of[self.perm] = np.arange(space.n)
        self.f_by_pos = f[self.perm]

        self.sigma_levels = np.unique(f)
        level_sizes = np.searchsorted(self.f_by_pos, self.sigma_levels, side="right")
        super().__init__(
            _level_chains(space.distance_matrix(), self.perm, level_sizes),
            np.searchsorted(self.sigma_levels, self.f_by_pos),
        )
        self._grid: Optional[GradeGrid] = None

    # -- basic lookups -------------------------------------------------------

    @property
    def grid(self) -> GradeGrid:
        if self._grid is None:
            self._grid = GradeGrid(np.unique(self.space.distance_matrix()), self.sigma_levels.copy())
        return self._grid

    def level_index(self, sigma: float) -> int:
        """Largest level with density value <= sigma."""
        j = int(np.searchsorted(self.sigma_levels, sigma, side="right")) - 1
        if j < 0:
            raise QueryError(f"no point has density <= {sigma}")
        return j

    def position(self, x: int) -> int:
        """Canonical position of point x; QueryError unless x is an int in [0, n)."""
        if not is_point(x, self.n):
            raise QueryError(f"point index out of range: {x}")
        return int(self.pos_of[x])

    def ultrametric(self, sigma: float, x: int, y: int) -> float:
        """Merge scale of x and y in the single-linkage hierarchy at level sigma."""
        px, py = self.position(x), self.position(y)
        j = self.level_index(sigma)
        m = self.level_sizes[j]
        if px >= m or py >= m:
            absent = x if px >= m else y
            raise QueryError(f"point {absent} is absent at density level {sigma}")
        return self.merge_scale(j, px, py)

    def threshold_runs(self, px: int, f: Callable[[int], float]) -> Tuple[Tuple[float, float], ...]:
        """(sigma, theta) runs of a threshold ``f(level)`` that cannot grow with
        the level, from px's birth level up: one run per change."""
        return tuple(
            (float(self.sigma_levels[j]), theta)
            for j, theta in _steps(int(self.birth_level[px]), self.num_levels - 1, f)
        )

    # -- serialization ---------------------------------------------------------

    def merge_events(self, level: int) -> List[Tuple[float, int, int]]:
        """Sorted merge events (eps, a, b) of one level; a, b are the merging
        clusters' canonically first points, and the events of one scale are
        sorted by (a, b) in canonical order."""
        order, gaps, _ = self.chain(level)
        parent = list(range(len(order)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        by_scale = np.argsort(gaps[1:], kind="stable") + 1
        events = []
        start = 0
        while start < len(by_scale):
            eps = gaps[by_scale[start]]
            stop = start
            while stop < len(by_scale) and gaps[by_scale[stop]] == eps:
                stop += 1
            pairs = [(find(int(order[k - 1])), find(int(order[k]))) for k in by_scale[start:stop]]
            for p, q in pairs:
                p, q = find(p), find(q)
                parent[max(p, q)] = min(p, q)
            joined = sorted((find(p), p) for p in {p for pair in pairs for p in pair} if find(p) != p)
            events += [(float(eps), int(self.perm[a]), int(self.perm[b])) for a, b in joined]
            start = stop
        return events

    def to_json(self) -> str:
        payload = {
            "n": int(self.n),
            "levels": [
                {
                    "sigma": float(self.sigma_levels[j]),
                    "active": int(self.level_sizes[j]),
                    "merges": self.merge_events(j),
                }
                for j in range(self.num_levels)
            ],
        }
        return json.dumps(payload)


def build(space: AugmentedMetricSpace) -> Tuple[GradeGrid, LeveledMergeForest]:
    """Construct the grade grid and merge forest of a space with densities."""
    forest = LeveledMergeForest(space)
    return forest.grid, forest


# -- peel views ---------------------------------------------------------------


class PeelView:
    """A merge forest restricted to the surviving generators.

    Cheap value type: ``restrict`` copies one boolean array. Connectivity is
    always evaluated in the full space, so clusters of survivors may be held
    together by removed points.
    """

    def __init__(self, forest: LeveledMergeForest, alive: Optional[np.ndarray] = None,
                 removed: Optional[Dict[int, int]] = None):
        self.forest = forest
        self._alive = np.ones(forest.n, dtype=bool) if alive is None else alive
        self.removed: Dict[int, int] = {} if removed is None else removed

    @property
    def root_of(self) -> Dict[int, int]:
        return dict(self.removed)

    def survives(self, x: int) -> bool:
        return bool(self._alive[self.forest.position(x)])

    def survivors(self) -> List[int]:
        """Surviving original indices, in canonical order."""
        return [int(v) for v in self.forest.perm[self._alive]]

    def survivor_count(self) -> int:
        return int(np.count_nonzero(self._alive))

    def _check_present(self, sigma: float, x: int) -> Tuple[int, int, int]:
        fo = self.forest
        px = fo.position(x)
        if not self._alive[px]:
            raise QueryError(f"point {x} was removed from this view")
        if fo.f_by_pos[px] > sigma:
            raise QueryError(f"point {x} has density {fo.f_by_pos[px]} > sigma {sigma}")
        j = fo.level_index(sigma)
        return px, j, int(fo.level_sizes[j])

    def cluster_at(self, eps: float, sigma: float, x: int) -> FrozenSet[int]:
        """Surviving points in the same component as x at grade (eps, sigma)."""
        if eps < 0:
            raise QueryError(f"negative scale: {eps}")
        px, j, _ = self._check_present(sigma, x)
        fo = self.forest
        members = fo.cluster_run(j, px, eps)
        return frozenset(int(v) for v in fo.perm[members[self._alive[members]]])

    def first_merge_scale(self, sigma: float, x: int) -> Tuple[float, FrozenSet[int]]:
        """Smallest grid scale at which x's surviving cluster exceeds one point."""
        px, j, _ = self._check_present(sigma, x)
        fo = self.forest
        eps = fo.first_merge_at(j, self._alive, px)
        if math.isinf(eps):
            return math.inf, frozenset((int(x),))
        members = fo.cluster_run(j, px, eps)
        return eps, frozenset(int(v) for v in fo.perm[members[self._alive[members]]])

    def rooted_pair_ok(self, x: int, root: int) -> bool:
        """Whether ``root`` witnesses x as a rooted generator of this view."""
        fo = self.forest
        px, proot = fo.position(x), fo.position(root)
        if not (self._alive[px] and self._alive[proot]) or proot >= px:
            return False
        cand, _ = fo.root_candidates(self._alive, px)
        return cand is not None and bool(cand[proot])

    def restrict(self, x: int, root: int) -> "PeelView":
        """New view with x removed and sent to root; validates rootedness."""
        if not self.rooted_pair_ok(x, root):
            raise QueryError(f"({x}, {root}) is not a valid rooted pair on this view")
        return self._restrict_unchecked(x, root)

    def _restrict_unchecked(self, x: int, root: int) -> "PeelView":
        if not self.survives(x):
            raise QueryError(f"point {x} already removed")
        if not self.survives(root):
            raise QueryError(f"root {root} does not survive")
        alive = self._alive.copy()
        alive[self.forest.position(x)] = False
        removed = dict(self.removed)
        removed[int(x)] = int(root)
        return PeelView(self.forest, alive, removed)

    def __repr__(self):
        return f"PeelView(n={self.forest.n}, removed={len(self.removed)})"


def fresh_view(forest: LeveledMergeForest) -> PeelView:
    return PeelView(forest)
