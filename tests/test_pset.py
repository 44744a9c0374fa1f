import math

import numpy as np
import pytest

from conftest import bfs_components, eps_grid, random_space
from dense_reference import dense_levels, merge_scale, position_distances, scale_row
from rootpeel import linalg, pset, rooted
from rootpeel.space import AugmentedMetricSpace


@pytest.fixture
def forest4(line4):
    return pset.LeveledMergeForest(line4)


class TestBuild:
    def test_distinct_is_np_unique(self):
        # the same values, signed zeros as np.unique keeps them, and none
        # from an empty array; np.unique itself imports numpy.ma
        rng = np.random.default_rng(5)
        for size in (0, 1, 2, 7, 300):
            values = rng.integers(-3, 4, size) * rng.choice([0.5, -0.0, 0.0], size)
            for a in (values, values.reshape(-1, 1), np.abs(values)):
                got, want = pset.distinct(a), np.unique(a)
                assert got.tobytes() == want.tobytes() and got.shape == want.shape

    def test_grid_of_line_example(self, forest4):
        # the default grid is the critical scales; the full grid adds 5, the
        # distance of points 1 and 3, which is no merge scale
        module = linalg.linearize(pset.fresh_view(forest4))
        assert list(module.eps_values) == [0, 2, 2.5, 3, 4.5, 7.5]
        assert list(module.sigma_values) == [0, 1, 2, 3]
        assert list(eps_grid(forest4)) == [0, 2, 2.5, 3, 4.5, 5, 7.5]

    def test_level_rows_match_hand_clustering(self, forest4):
        fo = forest4
        v = pset.fresh_view(fo)
        # densest level: only the first point, alone at every scale
        assert v.cluster_at(100.0, 0.0, 0) == {0}
        # top level at scale 2: exactly the two closest points are merged
        assert v.cluster_at(2.0, 3.0, 3) == {2, 3}
        assert v.cluster_at(2.0, 3.0, 0) == {0}
        assert v.cluster_at(2.0, 3.0, 1) == {1}
        # at 2.5 the chain x1-x3-x2 is connected but x0 is not
        assert v.cluster_at(2.5, 3.0, 1) == {1, 2, 3}
        assert v.cluster_at(3.0, 3.0, 0) == {0, 1, 2, 3}

    def test_singleton_space(self):
        sp = AugmentedMetricSpace(points=[[1.0]], density=[0.5])
        fo = pset.LeveledMergeForest(sp)
        assert fo.num_levels == 1
        assert eps_grid(fo).tolist() == [0.0]
        assert fo.merge_events(0) == []

    def test_equal_densities_collapse_to_one_level(self):
        sp = AugmentedMetricSpace(points=[[0.0], [1.0], [5.0]], density=[2, 2, 2])
        fo = pset.LeveledMergeForest(sp)
        assert fo.num_levels == 1
        assert fo.level_sizes.tolist() == [3]

    def test_direct_and_incremental_builders_agree(self):
        # one big level: every merge scale matches the dense minimax reference
        rng = np.random.default_rng(8)
        pts = rng.random((90, 2))
        sp = AugmentedMetricSpace(points=pts, density=np.zeros(90))
        fo = pset.LeveledMergeForest(sp)
        (u,) = dense_levels(position_distances(fo), fo.level_sizes)
        for px in range(90):
            assert np.array_equal(scale_row(fo, 0, px), u[px])

    def test_mixed_builder_paths_agree(self):
        # a small first level, then a big jump; both levels must match the
        # dense reference
        rng = np.random.default_rng(9)
        pts = rng.random((100, 2))
        dens = np.concatenate([np.zeros(10), np.ones(90)])
        sp = AugmentedMetricSpace(points=pts, density=dens)
        fo = pset.LeveledMergeForest(sp)
        assert fo.level_sizes.tolist() == [10, 100]
        levels = dense_levels(position_distances(fo), fo.level_sizes)
        for j, m in enumerate(fo.level_sizes):
            for px in range(m):
                assert np.array_equal(scale_row(fo, j, px), levels[j][px])


class TestUltrametric:
    def test_line_example_values(self, forest4):
        fo = forest4

        def u(sigma, x, y):
            return merge_scale(fo, fo.level_index(sigma), fo.position(x), fo.position(y))

        assert u(3.0, 0, 3) == 3.0
        assert u(1.0, 0, 1) == 7.5
        assert u(3.0, 2, 2) == 0.0

    def test_strong_triangle_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            sp = random_space(rng, mode="random", duplicates=True)
            fo = pset.LeveledMergeForest(sp)
            for j in range(fo.num_levels):
                u = np.array([scale_row(fo, j, px) for px in range(int(fo.level_sizes[j]))])
                # u[x, z] <= max(u[x, y], u[y, z]) for every x, y, z
                assert np.all(u[:, None, :] <= np.maximum(u[:, :, None], u[None, :, :]))


class TestClusterOracle:
    def test_matches_bfs_on_random_spaces(self):
        rng = np.random.default_rng(4)
        for t in range(30):
            sp = random_space(rng, n=int(rng.integers(2, 13)), duplicates=(t % 3 == 0))
            fo = pset.LeveledMergeForest(sp)
            v = pset.fresh_view(fo)
            f = sp.density
            dm, es = sp.distance_matrix(), [*eps_grid(fo), math.inf]
            for sigma in fo.sigma_levels:
                active = [i for i in range(sp.n) if f[i] <= sigma]
                for eps in es:
                    comp = bfs_components(dm, active, eps)
                    for x in active:
                        assert v.cluster_at(eps, sigma, x) == comp[x]

    @pytest.mark.parametrize("query, match", [
        (lambda v: v.cluster_at(math.nan, 3.0, 0), "negative scale: nan"),
        (lambda v: v.cluster_at(1.0, math.nan, 0), "no point has density <= nan"),
        (lambda v: v.first_merge_scale(math.nan, 0), "no point has density <= nan"),
        (lambda v: v.forest.level_index(math.nan), "no point has density <= nan"),
    ], ids=["cluster_at-eps", "cluster_at-sigma", "first_merge_scale", "level_index"])
    def test_nan_query_rejected(self, forest4, query, match):
        # a NaN sigma read the top level and a NaN eps gave a singleton
        with pytest.raises(pset.QueryError, match=match):
            query(pset.fresh_view(forest4))

    def test_restricted_view_matches_filtered_bfs(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            sp = random_space(rng, n=int(rng.integers(3, 11)))
            fo = pset.LeveledMergeForest(sp)
            from rootpeel.rooted import peel_all

            trace = peel_all(sp, forest=fo)
            view = trace.final_view
            f = sp.density
            survivors = set(view.survivors())
            dm, es = sp.distance_matrix(), eps_grid(fo)
            for sigma in fo.sigma_levels:
                active = [i for i in range(sp.n) if f[i] <= sigma]
                for eps in es:
                    comp = bfs_components(dm, active, eps)
                    for x in active:
                        if x not in survivors:
                            continue
                        assert view.cluster_at(eps, sigma, x) == comp[x] & survivors


class TestMonotonicity:
    def test_clusters_nested_in_both_parameters(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            sp = random_space(rng, n=int(rng.integers(2, 10)))
            fo = pset.LeveledMergeForest(sp)
            v = pset.fresh_view(fo)
            f = sp.density
            es = eps_grid(fo)
            ss = fo.sigma_levels
            for x in range(sp.n):
                for si, sigma in enumerate(ss):
                    if f[x] > sigma:
                        continue
                    for ei, eps in enumerate(es):
                        c = v.cluster_at(eps, sigma, x)
                        if ei + 1 < len(es):
                            assert c <= v.cluster_at(es[ei + 1], sigma, x)
                        if si + 1 < len(ss):
                            assert c <= v.cluster_at(eps, ss[si + 1], x)

    def test_cross_level_ultrametrics_shrink(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            sp = random_space(rng, n=int(rng.integers(2, 12)))
            fo = pset.LeveledMergeForest(sp)
            for j in range(fo.num_levels - 1):
                m = int(fo.level_sizes[j])
                for px in range(m):
                    assert np.all(scale_row(fo, j + 1, px)[:m] <= scale_row(fo, j, px))


class TestFirstMergeScale:
    def test_line_example(self, forest4):
        fo = forest4
        v = pset.fresh_view(fo)
        assert v.first_merge_scale(3.0, 3) == (2.0, frozenset({2, 3}))
        assert v.first_merge_scale(1.0, 1) == (7.5, frozenset({0, 1}))

    def test_singleton_stays_alone(self):
        sp = AugmentedMetricSpace(points=[[0.0]], density=[0.0])
        fo = pset.LeveledMergeForest(sp)
        v = pset.fresh_view(fo)
        eps, cluster = v.first_merge_scale(0.0, 0)
        assert math.isinf(eps) and cluster == {0}

    def test_birth_grade_cluster_is_singleton(self, forest4):
        fo = forest4
        v = pset.fresh_view(fo)
        for x in range(4):
            assert v.cluster_at(0.0, float(x), x) == {x}


class TestRestrict:
    def test_valid_peel(self, forest4):
        fo = forest4
        v = pset.fresh_view(fo)
        v2 = v.restrict(3, 2)
        assert not v2.survives(3)
        # connectivity through the removed point is preserved
        assert v2.cluster_at(2.5, 3.0, 1) == {1, 2}

    def test_invalid_pair_rejected(self, forest4):
        fo = forest4
        v = pset.fresh_view(fo)
        with pytest.raises(pset.QueryError):
            v.restrict(1, 0)

    def test_double_removal_rejected(self, forest4):
        fo = forest4
        v = pset.fresh_view(fo).restrict(3, 2)
        with pytest.raises(pset.QueryError):
            v.restrict(3, 2)

    def test_queries_on_removed_point_fail(self, forest4):
        fo = forest4
        v = pset.fresh_view(fo).restrict(3, 2)
        with pytest.raises(pset.QueryError, match="removed"):
            v.cluster_at(2.0, 3.0, 3)

    def test_views_are_independent(self, forest4):
        fo = forest4
        v = pset.fresh_view(fo)
        v.restrict(3, 2)
        assert v.survives(3)

    def test_survivor_connectivity_unchanged_by_peels(self):
        rng = np.random.default_rng(31)
        from rootpeel.rooted import peel_all

        for _ in range(10):
            sp = random_space(rng, n=int(rng.integers(3, 10)))
            fo = pset.LeveledMergeForest(sp)
            trace = peel_all(sp, forest=fo)
            views = [pset.fresh_view(fo)]
            for r in trace.records:
                if r.reason != "bottom":
                    views.append(views[-1]._without(r.generator))
            final = views[-1]
            keep = final.survivors()
            f = sp.density
            for eps in eps_grid(fo):
                for sigma in fo.sigma_levels:
                    for a in keep:
                        if f[a] > sigma:
                            continue
                        expect = None
                        for v in views:
                            got = {b for b in v.cluster_at(eps, sigma, a) if b in keep}
                            if expect is None:
                                expect = got
                            assert got == expect



@pytest.mark.parametrize("call", [
    lambda fo, v: v.survives(-1),
    lambda fo, v: rooted.is_rooted_subset(v, [-1]),
    lambda fo, v: v.restrict(fo.n, 0),
    lambda fo, v: rooted.is_rooted_subset(v, [fo.n]),
], ids=["survives(-1)", "is_rooted_subset(-1)", "restrict(n)", "is_rooted_subset(n)"])
def test_point_index_out_of_range_is_a_query_error(forest4, call):
    fo = forest4
    with pytest.raises(pset.QueryError, match="out of range"):
        call(fo, pset.fresh_view(fo))


class TestSerialization:
    def test_merge_events_sorted_and_complete(self, forest4):
        fo = forest4
        top = fo.merge_events(3)
        assert top == [(2.0, 2, 3), (2.5, 1, 2), (3.0, 0, 1)]

    def test_duplicates_merge_at_zero(self):
        sp = AugmentedMetricSpace(points=[[1.0], [1.0]], density=[0, 1])
        fo = pset.LeveledMergeForest(sp)
        assert fo.merge_events(1) == [(0.0, 0, 1)]


def test_merge_event_count_matches_component_count():
    # events per level = active points minus components at the largest scale
    rng = np.random.default_rng(55)
    for t in range(20):
        sp = random_space(rng, n=int(rng.integers(2, 12)), duplicates=(t % 3 == 0))
        fo = pset.LeveledMergeForest(sp)
        top = float(eps_grid(fo)[-1])
        f = sp.density
        dm = sp.distance_matrix()
        for j, sigma in enumerate(fo.sigma_levels):
            active = [i for i in range(sp.n) if f[i] <= sigma]
            comp = bfs_components(dm, active, top)
            n_comp = len({comp[i] for i in active})
            assert len(fo.merge_events(j)) == len(active) - n_comp
