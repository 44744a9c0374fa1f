"""Differential test: the graded edge list against the dense reference engine.

Every query of ``LeveledMergeForest`` and the full peel must agree exactly
with ``dense_reference.DenseForest``, which keeps one merge-scale matrix per
level and scans every level.
"""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import bfs_components
from dense_reference import DenseForest
from rootpeel import pset, rooted
from rootpeel.experiment import SamplerConfig, sample
from rootpeel.space import AugmentedMetricSpace, attach_density

KINDS = ("random", "kde", "ties", "constant", "duplicates", "matrix")


def seeded_space(seed):
    """A space of one of six kinds; n <= 200, mostly small."""
    rng = np.random.default_rng(seed)
    kind = KINDS[seed % len(KINDS)]
    n = int(rng.integers(60, 201)) if seed % 25 == 0 else int(rng.integers(2, 41))
    d = int(rng.integers(1, 4))
    pts = rng.random((n, d))
    if kind == "kde":
        return kind, attach_density(AugmentedMetricSpace(points=pts), "kde")
    if kind == "ties":
        dens = rng.integers(0, max(2, n // 8), n).astype(float)
    elif kind == "constant":
        dens = np.zeros(n)
    else:
        dens = rng.random(n)
    if kind == "duplicates":
        k = int(rng.integers(1, max(2, n // 2)))
        pts[rng.integers(0, n, k)] = pts[rng.integers(0, n, k)]
        dens = rng.integers(0, 4, n).astype(float)
    if kind == "matrix":
        dist = np.round(AugmentedMetricSpace(points=pts).distance_matrix() * 8)
        return kind, AugmentedMetricSpace(dist=dist, density=dens)
    return kind, AugmentedMetricSpace(points=pts, density=dens)


def check_levels(fo, ref):
    small = fo.n <= 12
    for j, sigma in enumerate(fo.sigma_levels):
        m = int(fo.level_sizes[j])
        for px in range(m):
            assert np.array_equal(fo.scale_row(j, px), ref.levels[j][px]), (j, px)
        if small:
            for px in range(m):
                for py in range(m):
                    got = fo.ultrametric(sigma, int(fo.perm[px]), int(fo.perm[py]))
                    assert got == ref.levels[j][px, py]
        assert fo.merge_events(j) == ref.merge_events(j), j


def check_clusters(sp, fo):
    grid = fo.grid
    view = pset.fresh_view(fo)
    f = sp.density
    for sigma in grid.sigma_values:
        active = [i for i in range(sp.n) if f[i] <= sigma]
        for eps in grid.eps_values:
            comp = bfs_components(sp.distance_matrix(), active, eps)
            for x in active:
                assert view.cluster_at(eps, sigma, x) == comp[x]


def check_peel(sp, fo, ref, rng):
    steps = []

    def on_step(alive):
        alive = alive.copy()
        survivors = np.flatnonzero(alive)
        if len(survivors) > 12:
            survivors = rng.choice(survivors, 12, replace=False)
        for px in survivors:
            got, got_eps = fo.root_candidates(alive, int(px))
            want, want_eps = ref.root_candidates(alive, int(px))
            assert (got is None) == (want is None), px
            if got is not None:
                assert np.array_equal(got, want), px
            assert got_eps == want_eps or (math.isinf(got_eps) and math.isinf(want_eps))
        steps.append(len(survivors))

    trace = rooted.peel_all(sp, forest=fo)
    records = ref.peel(on_step)
    want = rooted.PeelTrace(records, trace.final_view, fo.n)
    assert trace.to_json() == want.to_json()
    assert steps
    return trace


@pytest.mark.parametrize("block", range(8))
def test_graded_edge_list_matches_dense_engine(block):
    # 8 blocks of 27 seeds: 216 spaces in all, 36 of each kind
    for seed in range(block * 27, (block + 1) * 27):
        kind, sp = seeded_space(seed)
        fo = pset.LeveledMergeForest(sp)
        ref = DenseForest(fo)
        rng = np.random.default_rng(seed)
        check_levels(fo, ref)
        if sp.n <= 10:
            check_clusters(sp, fo)
        trace = check_peel(sp, fo, ref, rng)
        for x in range(sp.n):
            assert rooted.constant_conqueror(sp, x, fo) == ref.constant_conqueror(x)
        if fo.num_levels == sp.n:
            for x in range(sp.n):
                assert rooted.staircode(sp, x, fo) == ref.staircode(x), (kind, seed, x)
        for view in (pset.fresh_view(fo), trace.final_view):
            survivors = view.survivors()
            for _ in range(4):
                size = int(rng.integers(1, len(survivors) + 1))
                subset = [int(v) for v in rng.choice(survivors, size, replace=False)]
                assert rooted.is_rooted_subset(view, subset) == ref.is_rooted_subset(view._alive, subset)


def test_kde_mixture_at_n1000_fits_in_memory():
    # one level per point: the dense engine needed n^3 / 3 * 8 bytes (2.5 GiB)
    seq = np.random.SeedSequence(1000)
    points = sample(SamplerConfig("mixture", 2, peaks=5, spread=0.05), 1000, seq)
    sp = attach_density(AugmentedMetricSpace(points=points), "kde")
    sp.distance_matrix()
    tracemalloc.start()
    try:
        fo = pset.LeveledMergeForest(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fo.num_levels == 1000
    assert peak < 64 * 2**20
    trace = rooted.peel_all(sp, forest=fo)
    pairs = rooted.nn_graph(sp).mutual_pairs
    assert len(pairs) + 1 <= len(trace) <= sp.n


def test_peel_leaves_no_reference_cycle_on_the_forest():
    # a forest that lives on until the cyclic collector runs holds its n^2
    # distance matrix; pool workers running trial after trial pile them up
    rng = np.random.default_rng(12)
    sp = AugmentedMetricSpace(points=rng.random((60, 2)), density=rng.integers(0, 6, 60).astype(float))
    gc.disable()
    try:
        fo = pset.LeveledMergeForest(sp)
        alive = weakref.ref(fo)
        trace = rooted.peel_all(sp, forest=fo)
        rooted.staircode(AugmentedMetricSpace(points=rng.random((9, 1)), density=rng.random(9)), 3)
        del fo, trace
        assert alive() is None
    finally:
        gc.enable()
