"""Differential test: the per-level chains against the dense reference engine.

Every query of ``LeveledMergeForest`` and the full peel must agree exactly
with ``dense_reference.DenseForest``, which keeps one merge-scale matrix per
level and scans every level.
"""

import copy
import gc
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import bfs_components, elder_oracle, eps_grid, random_one_param
from dense_reference import DenseForest, merge_scale, scale_row
from rootpeel import pset, rooted, space
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
    for j in range(fo.num_levels):
        for px in range(int(fo.level_sizes[j])):
            assert np.array_equal(scale_row(fo, j, px), ref.levels[j][px]), (j, px)
        assert fo.merge_events(j) == ref.merge_events(j), j


def check_clusters(sp, fo):
    view = pset.fresh_view(fo)
    f = sp.density
    dm, es = sp.distance_matrix(), eps_grid(fo)
    for sigma in fo.sigma_levels:
        active = [i for i in range(sp.n) if f[i] <= sigma]
        for eps in es:
            comp = bfs_components(dm, active, eps)
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
            got, runs = fo.root_scan(alive, int(px))[:2]
            want, _ = ref.root_candidates(alive, int(px))
            assert (got is None) == (want is None), px
            if got is not None:
                assert got.tolist() == np.flatnonzero(want).tolist(), px
            check_runs(runs, got, first_merge_scales(fo, ref, alive, int(px)), alive[:px].any())
        steps.append(len(survivors))

    trace = rooted.peel_all(sp, forest=fo)
    records = ref.peel(on_step)
    want = rooted.PeelTrace(records, trace.final_view, fo.n)
    assert trace.to_json() == want.to_json()
    assert steps
    return trace


@pytest.mark.parametrize("block", range(8))
def test_level_chains_match_dense_engine(block):
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
        # the mid-trace view comes last, so the other two draw the same subsets
        middle = rooted.replay(trace.records[: len(trace.records) // 2], fo)
        for view in (pset.fresh_view(fo), trace.final_view, middle):
            survivors = view.survivors()
            for _ in range(4):
                size = int(rng.integers(1, len(survivors) + 1))
                subset = [int(v) for v in rng.choice(survivors, size, replace=False)]
                assert rooted.is_rooted_subset(view, subset) == ref.is_rooted_subset(view._alive, subset)


def check_runs(runs, cand, scales, marked_below):
    """A scan's runs are the change points of the first-merge scales from px's
    birth level up: all of them when it found candidates, else a prefix that
    holds the birth level whenever a position below px is marked."""
    want = []
    for j, eps in scales.items():
        if not want or eps != want[-1][1]:
            want.append((j, eps))
    if cand is not None:
        assert runs == want
    else:
        assert runs == want[: len(runs)] and bool(runs) == bool(marked_below)


def first_merge_scales(fo, ref, alive, px):
    """px's first-merge scale with a position marked in ``alive`` at every
    level from its birth up, from the dense reference's rows (inf when the
    level holds no other marked position)."""
    out = {}
    for j in range(int(fo.birth_level[px]), fo.num_levels):
        m = int(fo.level_sizes[j])
        others = alive[:m].copy()
        others[px] = False
        out[j] = float(ref.levels[j][px][others].min()) if others.any() else math.inf
    return out


@pytest.mark.parametrize("block", range(4))
def test_root_scan_matches_dense_engine_on_random_masks(block):
    # any marked set and any px, marked or not, on the 216 generator spaces,
    # not only the masks along the peel path: 20 scans per space
    for seed in range(block * 54, (block + 1) * 54):
        kind, sp = seeded_space(seed)
        fo = pset.LeveledMergeForest(sp)
        ref = DenseForest(fo)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            alive = rng.random(fo.n) < rng.uniform(0.05, 0.95)
            px = int(rng.integers(fo.n))
            got, runs, watch = fo.root_scan(alive, px)
            want, _ = ref.root_candidates(alive.copy(), px)
            where = (kind, seed, px)
            assert (got is None) == (want is None), where
            if got is not None:
                assert got.dtype == np.intp
                assert got.tolist() == np.flatnonzero(want).tolist(), where
            scales = first_merge_scales(fo, ref, alive, px)
            check_runs(runs, got, scales, alive[:px].any())
            # one watched position per level the scan visited: the birth level
            # and each level where the first-merge scale drops, while finite
            visited = [j for j, eps in scales.items()
                       if math.isfinite(eps) and (j == fo.birth_level[px] or eps != scales[j - 1])]
            assert len(watch) <= len(visited), where
            if got is not None:
                assert len(watch) == len(visited), where
            for j, z in zip(visited, watch):
                assert alive[z] and z != px, where
                assert ref.levels[j][px, z] == scales[j], where


def line_space(seed, n=40):
    """n points on a line, some coincident, with one level or a few tied
    levels: chains long enough that runs and walks pass the scalar peek."""
    rng = np.random.default_rng(seed)
    pts = np.sort(rng.random(n))[:, None] * 10
    pts[rng.integers(0, n, 3)] = pts[rng.integers(0, n, 3)]
    dens = np.zeros(n) if seed % 2 else rng.integers(0, 3, n).astype(float)
    return AugmentedMetricSpace(points=pts, density=dens)


@pytest.mark.parametrize("seed", range(4))
def test_walks_past_the_peek_match_bfs(seed):
    # clusters of up to 40 points and survivors up to 40 chain steps away: the
    # walk's windows as well as its scalar steps
    sp = line_space(seed)
    fo = pset.LeveledMergeForest(sp)
    ref = DenseForest(fo)
    dm = sp.distance_matrix()
    for j, sigma in enumerate(fo.sigma_levels):
        active = [i for i in range(sp.n) if sp.density[i] <= sigma]
        for eps in eps_grid(fo):
            comp = bfs_components(dm, active, eps)
            for x in active:
                run = fo.cluster_run(j, fo.position(x), eps)
                assert frozenset(fo.perm[run].tolist()) == comp[x], (seed, j, eps, x)
    rng = np.random.default_rng(seed)
    for _ in range(200):
        alive = np.zeros(fo.n, dtype=bool)
        alive[rng.integers(0, fo.n, int(rng.integers(1, 4)))] = True
        px = int(rng.integers(fo.n))
        scales = first_merge_scales(fo, ref, alive, px)
        for j, eps in scales.items():
            assert fo.first_merge_at(j, alive, px) == eps, (seed, j, px)
        got, runs, _ = fo.root_scan(alive, px)
        want, _ = ref.root_candidates(alive.copy(), px)
        assert (got is None) == (want is None), (seed, px)
        if got is not None:
            assert got.tolist() == np.flatnonzero(want).tolist(), (seed, px)
        check_runs(runs, got, scales, alive[:px].any())


def lattice_space(seed):
    """Points of {0, 1, 2}^d, d up to 13, many of them coincident, with tied
    densities: duplicate distances and ties in every row."""
    rng = np.random.default_rng(seed)
    d = (1, 2, 3, 5, 8, 9, 13)[seed % 7]
    n = int(rng.integers(2, 81))
    pts = rng.integers(0, 3, (n, d)).astype(float)
    k = int(rng.integers(0, n // 2 + 1))
    pts[rng.integers(0, n, k)] = pts[rng.integers(0, n, k)]
    return AugmentedMetricSpace(points=pts, density=rng.integers(0, 4, n).astype(float))


@pytest.mark.parametrize("block", range(4))
def test_build_sweep_matches_the_matrix(block):
    # the 216 spaces of the dense-engine test, 54 per block, and 35 lattices
    spaces = [seeded_space(seed)[1] for seed in range(block * 54, (block + 1) * 54)]
    spaces += [lattice_space(seed) for seed in range(block * 35, (block + 1) * 35)]
    for sp in spaces:
        n = sp.n
        dm = (sp if sp.points is None else AugmentedMetricSpace(points=sp.points)).distance_matrix()
        fo = pset.LeveledMergeForest(sp)
        trace = rooted.peel_all(sp, forest=fo)
        if sp.points is not None:
            assert sp._dist is None
        perm = fo.perm
        rows = sp.nearest_sweep(perm, np.zeros(n, dtype=np.intp), np.full(n, np.inf))
        for k, row in enumerate(rows):
            assert row.tobytes() == dm[perm[k], perm[:k]].tobytes(), k
        # the map nn_graph gives on the #matrix copy, and a plain argmin over
        # positions (ties to the lower position)
        by_matrix = rooted.nn_graph(AugmentedMetricSpace(dist=dm, density=sp.density))
        assert trace.nn.nn.tolist() == by_matrix.nn.tolist()
        assert trace.nn.mutual_pairs == by_matrix.mutual_pairs
        square = dm[np.ix_(perm, perm)]
        np.fill_diagonal(square, np.inf)
        assert fo.nn_pos.tolist() == np.argmin(square, axis=1).tolist()
        assert fo.nn_dist.tobytes() == square[np.arange(n), fo.nn_pos].tobytes()


def sweep_block_starts(n):
    """The first rows of the blocks the sweep over n points computes at once."""
    return range(0, n, max(1, space._BLOCK // n))


def block_edge_points(kind):
    """3,000 points that the sweep in index order reads in many blocks; each
    block's first point copies the point before it and its second a point of
    an earlier block. Uniform points, or 36 lattice sites, where every row is
    full of ties."""
    n = 3000
    rng = np.random.default_rng(3000)
    pts = rng.random((n, 2)) if kind == "uniform" else rng.integers(0, 6, (n, 2)).astype(float)
    for k0 in sweep_block_starts(n):
        if k0:
            pts[k0] = pts[k0 - 1]
            pts[k0 + 1] = pts[rng.integers(0, k0 - 1)]
    return pts


@pytest.mark.parametrize("kind", ["uniform", "lattice", "#matrix"])
def test_sweep_across_many_blocks_matches_the_matrix(kind):
    # the #matrix kind gives the lattice points' distance matrix as input
    pts = block_edge_points("lattice" if kind == "#matrix" else kind)
    n = len(pts)
    assert len(sweep_block_starts(n)) > 10
    sp = AugmentedMetricSpace(points=pts)
    if kind == "#matrix":
        sp = AugmentedMetricSpace(dist=sp.distance_matrix())
    tracemalloc.start()
    try:
        graph = rooted.nn_graph(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # the matrix of 3,000 points is 69 MiB
    nn, nn_dist = np.zeros(n, dtype=np.intp), np.full(n, np.inf)
    rows = sp.nearest_sweep(np.arange(n), nn, nn_dist)
    dm = AugmentedMetricSpace(points=pts).distance_matrix()
    for k, row in enumerate(rows):
        assert row.tobytes() == dm[k, :k].tobytes(), k
    # an argmin over each matrix row without its diagonal: ties to the lower index
    want = np.empty(n, dtype=np.intp)
    for i0 in range(0, n, 500):
        block = dm[i0 : i0 + 500].copy()
        block[np.arange(len(block)), np.arange(i0, i0 + len(block))] = np.inf
        want[i0 : i0 + 500] = np.argmin(block, axis=1)
    assert nn.tolist() == want.tolist()
    assert graph.nn.tolist() == want.tolist()
    # the build stops pulling rows after the last point
    assert pset.LeveledMergeForest(sp.with_density(np.zeros(n))).nn_pos.tolist() == want.tolist()
    assert nn_dist.tobytes() == dm[np.arange(n), want].tobytes()


def insertion_forest(fo):
    """``fo`` rebuilt with every point but the first inserted (``_attach`` and
    ``_insert``), level 0 included, and its NN map from the sweep from
    position 1."""
    n = fo.n
    nn, nn_dist = np.zeros(n, dtype=np.intp), np.full(n, np.inf)
    rows = fo.space.nearest_sweep(fo.perm, nn, nn_dist, start=1)
    start = np.zeros(1, dtype=np.intp), np.full(1, np.inf)
    ins = copy.copy(fo)
    pset.ChainLevels.__init__(ins, pset._level_chains(*start, rows, fo.level_sizes), fo.birth_level)
    ins.nn_pos, ins.nn_dist = nn, nn_dist
    return ins


def flat_lattice_space(seed, as_matrix=False):
    """A lattice space of ``lattice_space`` with one density level, as
    coordinates or as a ``#matrix`` input."""
    sp = lattice_space(seed)
    if as_matrix:
        return AugmentedMetricSpace(dist=sp.distance_matrix(), density=np.zeros(sp.n))
    return sp.with_density(np.zeros(sp.n))


def tied_matrix_space(seed, flat):
    """A #matrix space of 2 to 59 points with symmetric integer distances
    1-4, ties in every row and the triangle inequality broken, with one
    density level or three tied ones."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    d = np.triu(rng.integers(1, 5, (n, n)), 1).astype(float)
    dens = np.zeros(n) if flat else rng.integers(0, 3, n).astype(float)
    return AugmentedMetricSpace(dist=d + d.T, density=dens)


@pytest.mark.parametrize("block", range(4))
def test_spanning_tree_level_zero_matches_insertion(block):
    # the 216 generator spaces, 54 per block, and 35 lattices per block with
    # their tied densities, flat, and flat as #matrix input; and 20 non-metric
    # integer #matrix spaces per block, flat and with tied densities, where
    # the flat ones' level 0 must also give scipy's single-linkage heights
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform

    spaces = [seeded_space(seed)[1] for seed in range(block * 54, (block + 1) * 54)]
    for seed in range(block * 35, (block + 1) * 35):
        spaces += [lattice_space(seed), flat_lattice_space(seed), flat_lattice_space(seed, True)]
    flat = []
    for seed in range(block * 20, (block + 1) * 20):
        flat.append(len(spaces))
        spaces += [tied_matrix_space(seed, True), tied_matrix_space(seed, False)]
    for k, sp in enumerate(spaces):
        fo = pset.LeveledMergeForest(sp)
        if k in flat:
            heights = squareform(cophenet(linkage(squareform(sp.distance_matrix(), checks=False), "single")))
            got = np.array([scale_row(fo, 0, px) for px in range(fo.n)])
            assert got.tobytes() == heights[np.ix_(fo.perm, fo.perm)].tobytes(), k
        ins = insertion_forest(fo)
        assert fo.nn_pos.tolist() == ins.nn_pos.tolist(), k
        assert fo.nn_dist.tobytes() == ins.nn_dist.tobytes(), k
        if sp.n <= 60:
            for j in range(fo.num_levels):
                for px in range(int(fo.level_sizes[j])):
                    assert scale_row(fo, j, px).tobytes() == scale_row(ins, j, px).tobytes(), (k, j, px)
        else:
            rng = np.random.default_rng(k)
            for _ in range(2000):
                j = int(rng.integers(fo.num_levels))
                px, py = rng.integers(0, fo.level_sizes[j], 2)
                assert merge_scale(fo, j, px, py) == merge_scale(ins, j, px, py), (k, j, px, py)
        assert rooted.peel_all(sp, forest=fo).to_json() == rooted.peel_all(sp, forest=ins).to_json(), k


def test_spanning_tree_of_a_flat_space_at_n1500():
    # uniform points and points on a 1/30 lattice, where ties are everywhere
    rng = np.random.default_rng(1500)
    pts = rng.random((1500, 2))
    for p in (pts, np.round(pts * 30) / 30):
        sp = AugmentedMetricSpace(points=p, density=np.zeros(len(p)))
        fo = pset.LeveledMergeForest(sp)
        assert fo.num_levels == 1
        ins = insertion_forest(fo)
        assert fo.nn_pos.tolist() == ins.nn_pos.tolist()
        assert fo.nn_dist.tobytes() == ins.nn_dist.tobytes()
        for px, py in rng.integers(0, sp.n, (2000, 2)):
            assert merge_scale(fo, 0, px, py) == merge_scale(ins, 0, px, py)
        assert rooted.peel_all(sp, forest=fo).to_json() == rooted.peel_all(sp, forest=ins).to_json()


def test_chain_of_merges_gives_the_merge_grades():
    # two positions merge at the grade of the merge that first joins their
    # clusters, or never (inf)
    rng = np.random.default_rng(77)
    for _ in range(60):
        births, merges = random_one_param(rng, max_n=30)
        n = len(births)
        want = np.full((n, n), np.inf)
        np.fill_diagonal(want, 0.0)
        parent = list(range(n))
        for scale, i, j in merges:
            a, b = pset.find_set(parent, i), pset.find_set(parent, j)
            if a != b:
                for x in range(n):
                    for y in range(n):
                        if pset.find_set(parent, x) == a and pset.find_set(parent, y) == b:
                            want[x, y] = want[y, x] = scale
                parent[b] = a
        levels = pset.ChainLevels([pset.chain_of_merges(n, merges)], np.zeros(n, dtype=np.intp))
        got = np.array([scale_row(levels, 0, x) for x in range(n)])
        assert np.array_equal(got, want)


def test_elder_barcode_bars_are_those_of_the_inline_linked_runs():
    # bars pinned from the builder that lived inline in elder_barcode_1d: 200
    # random one-parameter sets and the flat forest of 300 lattice points
    rng = np.random.default_rng(2024)
    cases = [random_one_param(rng) for _ in range(200)]
    pts = np.random.default_rng(7).integers(0, 8, (300, 2)).astype(float)
    fo = pset.LeveledMergeForest(AugmentedMetricSpace(points=pts, density=np.zeros(300)))
    cases.append(([0.0] * 300, fo.merge_events(0)))
    bars = [rooted.elder_barcode_1d(births, merges) for births, merges in cases]
    assert all(b == elder_oracle(*case) for b, case in zip(bars, cases))
    digest = hashlib.sha256(repr(bars).encode()).hexdigest()
    assert digest == "9e4be0d8d14bb624ba880810dfe12d0b68dc33b364a564a7f9ee8d9641b82ddb"


def merge_scale_runs(fo, px, proot):
    """(sigma, theta) runs of px's merge scale with proot, read level by level
    from px's birth up, equal consecutive thetas merged."""
    runs = []
    for j in range(int(fo.birth_level[px]), fo.num_levels):
        theta = merge_scale(fo, j, px, proot)
        if not runs or theta != runs[-1][1]:
            runs.append((float(fo.sigma_levels[j]), theta))
    return tuple(runs)


@pytest.mark.parametrize("block", range(4))
def test_rooted_supports_are_the_merge_scale_runs(block):
    # every general peel's support, from peel_all and from interval_support on
    # the view replayed to its record, against the level-by-level merge scales
    # of generator and root, on the 216 generator spaces; a neighborly peel's
    # support is one run from its birth level at its neighbour's distance, the
    # bottom record's one infinite run from level 0
    for seed in range(block * 54, (block + 1) * 54):
        kind, sp = seeded_space(seed)
        fo = pset.LeveledMergeForest(sp)
        records = rooted.peel_all(sp, forest=fo).records
        for rec, (before, _, _, why) in zip(records, rooted.replay_steps(fo, records)):
            assert not why, (kind, seed, rec)
            px = fo.position(rec.generator)
            where = (kind, seed, rec.generator, rec.root)
            if rec.reason == "neighborly":
                want = ((float(fo.sigma_levels[fo.birth_level[px]]), float(fo.nn_dist[px])),)
            elif rec.reason == "bottom":
                want = ((float(fo.sigma_levels[0]), math.inf),)
            else:
                want = merge_scale_runs(fo, px, fo.position(rec.root))
                assert rooted.interval_support(before, rec.generator, rec.root).breaks == want, where
            assert rec.support.breaks == want, where


def test_elder_deaths_are_merge_scales_on_its_chain():
    # each bar's death is the merge scale of the peeled point and its root on
    # the chain elder_barcode_1d builds; sets whose clusters never all merge
    # give infinite deaths beyond the oldest point's
    rng = np.random.default_rng(77)
    for _ in range(200):
        births, merges = random_one_param(rng, max_n=30)
        n = len(births)
        order = sorted(range(n), key=lambda i: (births[i], i))
        pos_of = {x: p for p, x in enumerate(order)}
        chain = pset.chain_of_merges(n, [(float(s), pos_of[i], pos_of[j]) for s, i, j in merges])
        levels = pset.ChainLevels([chain], np.zeros(n, dtype=np.intp))
        alive = np.ones(n, dtype=bool)
        want = [(births[order[px]], merge_scale(levels, 0, px, z))
                for px, z, *_ in rooted._general_rounds(levels, alive)]
        want.append((births[order[0]], math.inf))
        assert rooted.elder_barcode_1d(births, merges) == sorted(want)


@pytest.mark.parametrize("block", range(2))
def test_attach_is_the_least_scale_through_any_chain_point(block):
    # q reaches chain index b at min over a of max(d[a], scale(a, b)); _attach
    # picks only some a, and with min and max alone it must give the same doubles
    for seed in range(block * 35, (block + 1) * 35):
        for sp in (lattice_space(seed), seeded_space(seed)[1]):
            n = sp.n
            rows = sp.nearest_sweep(sp.canonical_order(), np.zeros(n, dtype=np.intp), np.full(n, np.inf))
            next(rows)
            order, gaps = np.zeros(1, dtype=np.intp), np.full(1, np.inf)
            for q, row in enumerate(rows, start=1):
                if q <= 12:  # merge scales by their definition: the largest gap between
                    for a in range(q):
                        want = [max(gaps[min(a, b) + 1 : max(a, b) + 1], default=0.0) for b in range(q)]
                        assert pset._scales_from(gaps, a).tolist() == want
                d = row[order]
                brute = np.min([np.maximum(d[a], pset._scales_from(gaps, a)) for a in range(q)], axis=0)
                r = pset._attach(gaps, d)
                assert r.tobytes() == brute.tobytes(), (seed, q)
                order, gaps = pset._insert(order, gaps, q, r)


def test_flat_peel_at_n3000_makes_no_distance_matrix():
    # the matrix of 3,000 points is 69 MiB
    rng = np.random.default_rng(3000)
    sp = AugmentedMetricSpace(points=rng.random((3000, 2)), density=np.zeros(3000))
    tracemalloc.start()
    try:
        trace = rooted.peel_all(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp._dist is None
    assert peak < 16 * 2**20
    assert len(trace.nn.mutual_pairs) + 1 <= len(trace) <= sp.n


def test_kde_mixture_at_n1000_fits_in_memory():
    # one level per point: the dense engine needed n^3 / 3 * 8 bytes (2.5 GiB)
    seq = np.random.SeedSequence(1000)
    points = sample(SamplerConfig("mixture", 2, peaks=5, spread=0.05), 1000, seq)
    sp = attach_density(AugmentedMetricSpace(points=points), "kde")
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
    # a forest that lives on until the cyclic collector runs holds a chain
    # per level, n^2 entries with a level per point; pool workers running
    # trial after trial pile them up
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
