"""Density-Rips persistent sets as per-level single-linkage hierarchies.

For an augmented metric space the persistent set assigns to each grade
(scale eps, density sigma) the partition of the sub-level set
``{x : f(x) <= sigma}`` into connected components of the geometric graph at
``eps``. We never materialize the grade grid. Instead, one ultrametric matrix
per density level stores every merge scale: two points lie in the same
component at (eps, sigma) exactly when their merge scale at sigma's level is
at most eps. All partition queries reduce to row comparisons on these
matrices, which keeps them vectorizable.

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
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .space import AugmentedMetricSpace

# Levels whose point count grows by more than this in one step are built
# directly by SLINK instead of one-point-at-a-time minimax updates.
_DIRECT_BUILD_DELTA = 64

# default memory budget for the per-level matrices of one forest
FOREST_BUDGET_BYTES = 512 * 1024 * 1024


class QueryError(ValueError):
    """Raised when a grade/point query violates its preconditions."""


class ForestMemoryError(MemoryError):
    """Raised when the per-level matrices would exceed the memory budget."""


@dataclass(frozen=True)
class GradeGrid:
    """The finite grade grid: distinct pairwise distances times distinct densities."""

    eps_values: np.ndarray
    sigma_values: np.ndarray

    def __post_init__(self):
        self.eps_values.setflags(write=False)
        self.sigma_values.setflags(write=False)


class LeveledMergeForest:
    """Immutable merge structure of an augmented metric space, one level per density.

    Internally points are relabeled into canonical order (density ascending,
    index ascending on ties), so the active set of every level is a prefix.
    ``levels[j]`` is the ultrametric (single-linkage merge scale) matrix of the
    prefix of size ``level_sizes[j]``.
    """

    def __init__(self, space: AugmentedMetricSpace, max_bytes: int = FOREST_BUDGET_BYTES):
        f = space.require_density()
        self.space = space
        self.n = space.n
        self.perm = space.canonical_order()
        self.pos_of = np.empty(self.n, dtype=np.intp)
        self.pos_of[self.perm] = np.arange(self.n)
        self.f_by_pos = f[self.perm]

        self.sigma_levels = np.unique(f)
        self.level_sizes = np.searchsorted(self.f_by_pos, self.sigma_levels, side="right")
        self.num_levels = len(self.sigma_levels)
        self.birth_level = np.searchsorted(self.sigma_levels, self.f_by_pos)

        total = int(np.sum(self.level_sizes.astype(np.int64) ** 2)) * 8
        if total > max_bytes:
            raise ForestMemoryError(
                f"per-level matrices need {total // (1024 * 1024)} MiB, "
                f"budget is {max_bytes // (1024 * 1024)} MiB; raise max_bytes to proceed"
            )
        dm = space.distance_matrix()
        self.dist = dm[np.ix_(self.perm, self.perm)]
        self.dist.setflags(write=False)

        self.levels = _build_level_ultrametrics(self.dist, self.level_sizes)
        self._grid: Optional[GradeGrid] = None

    # -- basic lookups -------------------------------------------------------

    @property
    def grid(self) -> GradeGrid:
        if self._grid is None:
            self._grid = GradeGrid(np.unique(self.dist), self.sigma_levels.copy())
        return self._grid

    def level_index(self, sigma: float) -> int:
        """Largest level with density value <= sigma."""
        j = int(np.searchsorted(self.sigma_levels, sigma, side="right")) - 1
        if j < 0:
            raise QueryError(f"no point has density <= {sigma}")
        return j

    def ultrametric(self, sigma: float, x: int, y: int) -> float:
        """Merge scale of x and y in the single-linkage hierarchy at level sigma."""
        j = self.level_index(sigma)
        m = self.level_sizes[j]
        px, py = self.pos_of[x], self.pos_of[y]
        if px >= m or py >= m:
            absent = x if px >= m else y
            raise QueryError(f"point {absent} is absent at density level {sigma}")
        return float(self.levels[j][px, py])

    def root_candidates(self, alive: np.ndarray, px: int) -> Tuple[Optional[np.ndarray], float]:
        """Mask over positions ``[0, px)`` of the survivors that root the
        survivor at px (None when there is none), plus px's first-merge scale
        at the lowest level holding another survivor (inf when none was
        scanned).

        A candidate lies in px's surviving cluster at its first merge scale on
        every level from px's birth upward. The first-merge scale bounds every
        level's first-merge scale from above, so a later removal can only change
        this verdict when its top-level merge distance to px stays below it.
        """
        cand = alive[:px].copy()
        eps_first = math.inf
        if not cand.any():
            return None, eps_first
        any_ = np.logical_or.reduce
        minr = np.minimum.reduce
        for j in range(int(self.birth_level[px]), self.num_levels):
            m = int(self.level_sizes[j])
            row = self.levels[j][px]
            alive[px] = False
            others = row[alive[:m]]
            alive[px] = True
            if not others.size:
                continue
            mstar = minr(others)
            if math.isinf(eps_first):
                eps_first = float(mstar)
            cand &= row[:px] <= mstar
            if not any_(cand):
                return None, eps_first
        return cand, eps_first

    # -- serialization ---------------------------------------------------------

    def merge_events(self, level: int) -> List[Tuple[float, int, int]]:
        """Sorted merge events (eps, a, b) of one level; a, b are the merging
        clusters' smallest original indices."""
        m = int(self.level_sizes[level])
        u = self.levels[level]
        iu, ju = np.triu_indices(m, k=1)
        order = np.lexsort((ju, iu, u[iu, ju]))
        parent = list(range(m))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        events = []
        for k in order:
            p, q = find(int(iu[k])), find(int(ju[k]))
            if p == q:
                continue
            lo, hi = min(p, q), max(p, q)
            events.append((float(u[iu[k], ju[k]]), int(self.perm[lo]), int(self.perm[hi])))
            parent[hi] = lo
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


def build(
    space: AugmentedMetricSpace, max_bytes: int = FOREST_BUDGET_BYTES
) -> Tuple[GradeGrid, LeveledMergeForest]:
    """Construct the grade grid and merge forest of a space with densities."""
    forest = LeveledMergeForest(space, max_bytes=max_bytes)
    return forest.grid, forest


def _build_level_ultrametrics(dist: np.ndarray, level_sizes: np.ndarray):
    n = int(level_sizes[-1])
    work = np.zeros((n, n))
    levels = []
    cur = 0
    for m in (int(s) for s in level_sizes):
        if m - cur > _DIRECT_BUILD_DELTA and m >= 2:
            work[:m, :m] = _slink_ultrametric(dist[:m, :m])
        else:
            for q in range(cur, m):
                _add_point(work, dist, q)
        cur = m
        snap = work[:m, :m].copy()
        snap.setflags(write=False)
        levels.append(snap)
    return tuple(levels)


def _add_point(work: np.ndarray, dist: np.ndarray, q: int) -> None:
    """Extend the minimax matrix of prefix q to include point q, in place."""
    if q == 0:
        work[0, 0] = 0.0
        return
    u = work[:q, :q]
    drow = dist[q, :q]
    # best access scale from q to each old point: one hop out of q, then the
    # cheapest continuation inside the old prefix
    row = np.min(np.maximum(drow[:, None], u), axis=0)
    # routes through q may lower old pairs
    np.minimum(u, np.maximum.outer(row, row), out=u)
    work[q, :q] = row
    work[:q, q] = row
    work[q, q] = 0.0


def _slink_ultrametric(sub: np.ndarray) -> np.ndarray:
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform

    cond = squareform(sub, checks=False)
    z = linkage(cond, method="single")
    return squareform(cophenet(z))


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
        return bool(self._alive[self.forest.pos_of[x]])

    def survivors(self) -> List[int]:
        """Surviving original indices, in canonical order."""
        return [int(v) for v in self.forest.perm[self._alive]]

    def survivor_count(self) -> int:
        return int(np.count_nonzero(self._alive))

    def _check_present(self, sigma: float, x: int) -> Tuple[int, int, int]:
        fo = self.forest
        if not (0 <= x < fo.n):
            raise QueryError(f"point index out of range: {x}")
        px = int(fo.pos_of[x])
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
        px, j, m = self._check_present(sigma, x)
        row = self.forest.levels[j][px, :m]
        mask = (row <= eps) & self._alive[:m]
        return frozenset(int(v) for v in self.forest.perm[:m][mask])

    def first_merge_scale(self, sigma: float, x: int) -> Tuple[float, FrozenSet[int]]:
        """Smallest grid scale at which x's surviving cluster exceeds one point."""
        px, j, m = self._check_present(sigma, x)
        row = self.forest.levels[j][px, :m]
        mask = self._alive[:m].copy()
        mask[px] = False
        if not mask.any():
            return math.inf, frozenset((int(x),))
        eps = float(np.min(row[mask]))
        mask[px] = True
        members = mask & (row <= eps)
        return eps, frozenset(int(v) for v in self.forest.perm[:m][members])

    def rooted_pair_ok(self, x: int, root: int) -> bool:
        """Whether ``root`` witnesses x as a rooted generator of this view."""
        fo = self.forest
        px, proot = int(fo.pos_of[x]), int(fo.pos_of[root])
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
        alive[self.forest.pos_of[x]] = False
        removed = dict(self.removed)
        removed[int(x)] = int(root)
        return PeelView(self.forest, alive, removed)

    def __repr__(self):
        return f"PeelView(n={self.forest.n}, removed={len(self.removed)})"


def fresh_view(forest: LeveledMergeForest) -> PeelView:
    return PeelView(forest)
