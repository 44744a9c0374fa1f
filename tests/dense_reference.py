"""Dense reference engine: one ultrametric matrix per density level.

This is the engine the graded edge list replaced, kept for differential
tests at n <= 200. ``levels[j]`` is the single-linkage merge-scale matrix of
the canonical prefix of size ``level_sizes[j]``, built one point at a time by
minimax updates. Every query scans every level, so it serves as an
independent check of the level-skipping queries of ``rootpeel.pset``.

``reference_trace_json`` is the trace writer the staircase writer of
``PeelTrace.to_json`` replaced: one ``[sigma, theta]`` list per record and
density level, encoded by ``json.dumps(indent=2)``.
"""

import json
import math

import numpy as np

from rootpeel.pset import _scales_from
from rootpeel.rooted import IntervalSupport, PeelRecord


def add_point(work, dist, q):
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


def position_distances(fo):
    """The forest's distance matrix with rows and columns in canonical order."""
    dm = fo.space.distance_matrix()
    return dm[np.ix_(fo.perm, fo.perm)]


def dense_levels(dist, level_sizes):
    """Merge-scale matrix of every level's prefix."""
    n = int(level_sizes[-1])
    work = np.zeros((n, n))
    levels = []
    cur = 0
    for m in (int(s) for s in level_sizes):
        for q in range(cur, m):
            add_point(work, dist, q)
        cur = m
        levels.append(work[:m, :m].copy())
    return levels


def scale_row(fo, j, px):
    """Merge scales of position px with every position active at level j,
    read off the forest's chain of that level."""
    order, gaps, index = fo.chain(j)
    row = np.empty(len(order))
    row[order] = _scales_from(gaps, int(index[px]))
    return row


def merge_scale(fo, j, px, py):
    """Merge scale of positions px and py at level j, off the same chain."""
    return float(scale_row(fo, j, px)[py])


class DenseForest:
    """The queries of the old engine over a forest's positions and levels."""

    def __init__(self, fo):
        self.fo = fo
        self.levels = dense_levels(position_distances(fo), fo.level_sizes)

    def root_candidates(self, alive, px):
        fo = self.fo
        cand = alive[:px].copy()
        eps_first = math.inf
        if not cand.any():
            return None, eps_first
        marked = bool(alive[px])
        for j in range(int(fo.birth_level[px]), fo.num_levels):
            m = int(fo.level_sizes[j])
            row = self.levels[j][px]
            alive[px] = False
            others = row[alive[:m]]
            alive[px] = marked
            if not others.size:
                continue
            mstar = float(others.min())
            if math.isinf(eps_first):
                eps_first = mstar
            cand &= row[:px] <= mstar
            if not cand.any():
                return None, eps_first
        return cand, eps_first

    def support(self, px, proot):
        fo = self.fo
        j0 = int(fo.birth_level[px])
        breaks = []
        prev = None
        for j in range(j0, fo.num_levels):
            theta = float(self.levels[j][px, proot])
            if theta != prev:
                breaks.append((float(fo.sigma_levels[j]), theta))
                prev = theta
        return IntervalSupport(float(fo.sigma_levels[j0]), tuple(breaks))

    def merge_events(self, level):
        fo = self.fo
        m = int(fo.level_sizes[level])
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
            events.append((float(u[iu[k], ju[k]]), int(fo.perm[lo]), int(fo.perm[hi])))
            parent[hi] = lo
        return events

    def staircode(self, x):
        fo = self.fo
        px = int(fo.pos_of[x])
        j0 = int(fo.birth_level[px])
        breaks = []
        prev = None
        for j in range(j0, fo.num_levels):
            row = self.levels[j][px]
            theta = float(np.min(row[:px])) if px > 0 else math.inf
            if theta != prev:
                breaks.append((float(fo.sigma_levels[j]), theta))
                prev = theta
        return IntervalSupport(float(fo.f_by_pos[px]), tuple(breaks))

    def constant_conqueror(self, x):
        fo = self.fo
        px = int(fo.pos_of[x])
        if px == 0:
            return int(x)
        js = range(int(fo.birth_level[px]), fo.num_levels)
        mins = [float(np.min(self.levels[j][px, :px])) for j in js]
        for py in range(px):
            if all(float(self.levels[j][px, py]) <= mn for j, mn in zip(js, mins)):
                return int(fo.perm[py])
        return None

    def is_rooted_subset(self, alive, subset):
        fo = self.fo
        members = sorted(set(int(a) for a in subset))
        pos = np.array([fo.pos_of[a] for a in members], dtype=np.intp)
        in_a = np.zeros(fo.n, dtype=bool)
        in_a[pos] = True
        f_min = float(np.min(fo.f_by_pos[pos]))
        limit = int(np.searchsorted(fo.f_by_pos, f_min, side="right"))
        cand = alive[:limit] & ~in_a[:limit]
        if not cand.any():
            return None
        for j in range(fo.level_index(f_min), fo.num_levels):
            m = int(fo.level_sizes[j])
            outside = alive[:m] & ~in_a[:m]
            if not outside.any():
                continue
            for px in pos:
                if px >= m:
                    continue
                row = self.levels[j][px, :m]
                cand &= row[:limit] <= np.min(row[outside])
            if not cand.any():
                return None
        return int(fo.perm[int(np.argmax(cand))])

    def peel(self, on_step=None):
        """The old peel loop: neighborly phase, then general rounds that
        recheck a cached verdict when the removed point's top-level merge
        scale with it is at most its first-merge scale. ``on_step(alive)``
        sees every state the general rounds start from."""
        fo = self.fo
        n = fo.n
        alive = np.ones(n, dtype=bool)
        records = []

        def emit(px, proot, reason, support):
            records.append(PeelRecord(int(fo.perm[px]), int(fo.perm[proot]), reason, support))
            alive[px] = False

        if n >= 2:
            idx = np.arange(n)
            dist = position_distances(fo)
            nn_pos = np.argmin(np.where(np.eye(n, dtype=bool), np.inf, dist), axis=1)
            while True:
                cand = alive & (nn_pos < idx) & alive[nn_pos]
                cand[0] = False
                if not cand.any():
                    break
                px = int(np.argmax(cand))
                proot = int(nn_pos[px])
                d = float(dist[px, proot])
                birth = float(fo.f_by_pos[px])
                emit(px, proot, "neighborly", IntervalSupport(birth, ((birth, d),)))

            utop = self.levels[-1]
            no_root_eps = np.full(n, -1.0)
            while True:
                if on_step is not None:
                    on_step(alive)
                found = None
                for px in np.flatnonzero(alive):
                    if px == 0 or no_root_eps[px] >= 0:
                        continue
                    cand, eps_first = self.root_candidates(alive, int(px))
                    if cand is not None:
                        found = (int(px), int(np.argmax(cand)))
                        break
                    no_root_eps[px] = eps_first if math.isfinite(eps_first) else np.inf
                if found is None:
                    break
                px, proot = found
                emit(px, proot, "general-rooted", self.support(px, proot))
                cached = np.flatnonzero(no_root_eps >= 0)
                stale = cached[utop[cached, px] <= no_root_eps[cached]]
                no_root_eps[stale] = -1.0

        birth = float(fo.sigma_levels[0])
        records.append(PeelRecord(int(fo.perm[0]), None, "bottom", IntervalSupport(birth, ((birth, math.inf),))))
        return records


def reference_trace_json(trace):
    """The peel trace as ``json.dumps(indent=2)`` writes it."""
    fo = trace.final_view.forest
    sigmas = [float(s) for s in fo.sigma_levels]
    recs = []
    for r in trace.records:
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
    return json.dumps({"n": trace.n, "records": recs}, indent=2)
