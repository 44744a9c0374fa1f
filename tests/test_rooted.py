import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elder_oracle, eps_grid, random_one_param, random_space
from dense_reference import DenseForest
from test_sparse_forest import lattice_space
from rootpeel import pset, rooted
from rootpeel.experiment import SamplerConfig, sample
from rootpeel.space import AugmentedMetricSpace, attach_density


@pytest.fixture
def view4(line4):
    fo = pset.LeveledMergeForest(line4)
    return pset.fresh_view(fo)


class TestRootedGenerator:
    def test_line_example(self, view4):
        assert rooted.is_rooted_generator(view4, 3) == 2
        assert rooted.is_rooted_generator(view4, 1) is None
        assert rooted.is_rooted_generator(view4, 2) is None
        assert rooted.is_rooted_generator(view4, 0) is None

    def test_still_unrooted_after_peel(self, view4):
        v = view4.restrict(3, 2)
        assert rooted.is_rooted_generator(v, 1) is None
        assert rooted.is_rooted_generator(v, 2) is None

    def test_removed_point_rejected(self, view4):
        v = view4.restrict(3, 2)
        with pytest.raises(pset.QueryError):
            rooted.is_rooted_generator(v, 3)

    def test_agrees_with_subset_checker_on_singletons(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            sp = random_space(rng)
            fo = pset.LeveledMergeForest(sp)
            v = pset.fresh_view(fo)
            for x in range(sp.n):
                single = rooted.is_rooted_subset(v, [x])
                gen = rooted.is_rooted_generator(v, x)
                assert (single is None) == (gen is None)


class TestRootedSubset:
    def test_all_but_bottom_is_rooted_by_bottom(self, view4):
        assert rooted.is_rooted_subset(view4, [1, 2, 3]) == 0

    def test_single_unrooted(self, view4):
        assert rooted.is_rooted_subset(view4, [1]) is None

    def test_empty_subset_rejected(self, view4):
        with pytest.raises(pset.QueryError):
            rooted.is_rooted_subset(view4, [])

    def test_witness_is_validated_by_definition(self):
        # whenever a witness comes back, no member's cluster may leak survivors
        # outside the subset without reaching the witness
        rng = np.random.default_rng(15)
        for _ in range(25):
            sp = random_space(rng, n=int(rng.integers(3, 9)))
            fo = pset.LeveledMergeForest(sp)
            v = pset.fresh_view(fo)
            members = list(
                rng.choice(sp.n, size=int(rng.integers(1, sp.n)), replace=False)
            )
            y = rooted.is_rooted_subset(v, members)
            if y is None:
                continue
            assert y not in members
            assert sp.density[y] <= min(sp.density[m] for m in members)
            es = eps_grid(fo)
            for sigma in fo.sigma_levels:
                for eps in es:
                    for x in members:
                        if sp.density[x] > sigma:
                            continue
                        cluster = v.cluster_at(eps, sigma, x)
                        assert (y in cluster) or cluster <= set(members)


class TestNeighborly:
    def test_line_example(self, line4):
        assert rooted.neighborly_rooted(line4) == {3}

    def test_two_points_order_larger_one(self):
        sp = AugmentedMetricSpace(points=[[0.0], [1.0]], density=[5, 5])
        assert rooted.neighborly_rooted(sp) == {1}
        sp = AugmentedMetricSpace(points=[[0.0], [1.0]], density=[7, 2])
        assert rooted.neighborly_rooted(sp) == {0}

    def test_density_maximal_point_always_included(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            sp = random_space(rng, n=int(rng.integers(2, 12)))
            order = sp.canonical_order()
            assert int(order[-1]) in rooted.neighborly_rooted(sp)

    def test_needs_two_points(self):
        sp = AugmentedMetricSpace(points=[[0.0]], density=[0.0])
        with pytest.raises(ValueError):
            rooted.neighborly_rooted(sp)

    def test_neighborly_implies_rooted(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            sp = random_space(rng, duplicates=True)
            fo = pset.LeveledMergeForest(sp)
            v = pset.fresh_view(fo)
            for x in rooted.neighborly_rooted(sp):
                assert rooted.is_rooted_generator(v, x) is not None


class TestNNGraph:
    def test_line_example(self, line4):
        g = rooted.nn_graph(line4)
        assert g.nn.tolist() == [2, 3, 3, 2]
        assert g.mutual_pairs == [(2, 3)]

    def test_two_points(self):
        sp = AugmentedMetricSpace(points=[[0.0], [3.0]])
        assert rooted.nn_graph(sp).mutual_pairs == [(0, 1)]

    def test_rectangle_corners_give_two_pairs(self):
        sp = AugmentedMetricSpace(points=[[0, 0], [1, 0], [0, 2], [1, 2]])
        assert rooted.nn_graph(sp).mutual_pairs == [(0, 1), (2, 3)]

    def test_coordinate_and_matrix_paths_agree(self):
        def duplicate_heavy(rng, t):
            # grid-rounded coordinates, 8 or more coincident points in every
            # other space, tied densities or none at all
            n, d = int(rng.integers(10, 120)), int(rng.integers(1, 4))
            pts = np.round(rng.random((n, d)) * 3) / 3
            if t % 2 == 0:
                pts[rng.choice(n, int(rng.integers(8, min(n, 20) + 1)), replace=False)] = pts[0]
            dens = np.round(3 * rng.random(n)) if t % 3 else None
            return AugmentedMetricSpace(points=pts, density=dens)

        def argmin_nn(sp):
            # columns in tie-rank order: canonical with densities, else by index
            order = sp.canonical_order() if sp.has_density() else np.arange(sp.n)
            square = sp.distance_matrix()[:, order]
            square[order, np.arange(sp.n)] = np.inf
            return order[np.argmin(square, axis=1)].tolist()

        rng = np.random.default_rng(33)
        spaces = [random_space(rng, n=int(rng.integers(2, 30)), duplicates=(t % 2 == 0))
                  for t in range(60)]
        spaces += [duplicate_heavy(rng, t) for t in range(60)]
        for seed in range(35):
            sp = lattice_space(seed)
            spaces += [sp, AugmentedMetricSpace(points=sp.points)]
        for sp in spaces:
            # fresh copies: the coordinate copy must not build its matrix
            coords = AugmentedMetricSpace(points=sp.points, density=sp.density)
            by_coords = rooted.nn_graph(coords)
            assert coords._dist is None
            by_matrix = rooted.nn_graph(AugmentedMetricSpace(dist=sp.distance_matrix(),
                                                             density=sp.density))
            assert by_coords.nn.tolist() == by_matrix.nn.tolist()
            assert by_coords.mutual_pairs == by_matrix.mutual_pairs
            assert by_coords.nn.tolist() == argmin_nn(sp)
            if sp.has_density():
                trace = rooted.peel_all(sp)
                assert trace.nn.nn.tolist() == by_coords.nn.tolist()
                assert trace.nn.mutual_pairs == by_coords.mutual_pairs

    def test_lattice_ties_without_building_the_matrix(self):
        # 6^4 lattice: an inner point has 8 neighbors at distance 1, all tied
        axis = np.arange(6.0)
        pts = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), -1).reshape(-1, 4)
        sp = AugmentedMetricSpace(points=pts)
        g = rooted.nn_graph(sp)
        assert sp._dist is None
        matrix = AugmentedMetricSpace(points=pts).distance_matrix()
        by_matrix = rooted.nn_graph(AugmentedMetricSpace(dist=matrix))
        assert g.nn.tolist() == by_matrix.nn.tolist()
        assert g.mutual_pairs == by_matrix.mutual_pairs

    def test_one_mutual_pair_per_weak_component(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            sp = random_space(rng, n=int(rng.integers(2, 40)))
            g = rooted.nn_graph(sp)
            parent = list(range(sp.n))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for i, v in enumerate(g.nn):
                parent[find(i)] = find(int(v))
            per_comp = {}
            for a, b in g.mutual_pairs:
                per_comp[find(a)] = per_comp.get(find(a), 0) + 1
            comps = {find(i) for i in range(sp.n)}
            assert len(g.mutual_pairs) >= 1
            assert per_comp == {c: 1 for c in comps}


class TestIntervalSupport:
    def test_line_example_peel(self, view4, line4):
        sup = rooted.interval_support(view4, 3, 2)
        assert sup.birth_sigma == 3.0
        assert sup.theta_at(3.0) == 2.0
        assert sup.contains(0.0, 3.0)
        assert not sup.contains(2.0, 3.0)
        assert not sup.contains(0.0, 2.0)
        fo = pset.LeveledMergeForest(line4)
        assert sup.pairs(fo.sigma_levels) == [(3.0, 2.0)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True),
           st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, math.inf]), min_size=5, max_size=5),
           st.lists(st.integers(-2, 26), max_size=30))
    def test_pairs_read_theta_at_each_level(self, starts, thetas, halves):
        # levels below the birth density, between run starts, on them and repeated
        starts = sorted(float(s) for s in starts)
        thetas = sorted(thetas, reverse=True)[: len(starts)]
        sup = rooted.IntervalSupport(starts[0], tuple(zip(starts, thetas)))
        levels = sorted(h / 2 for h in halves)
        want = [(s, sup.theta_at(s)) for s in levels if s >= sup.birth_sigma]
        assert sup.pairs(levels) == want
        assert sup.pairs(np.array(levels)) == want

    def test_invalid_pair_rejected(self, view4):
        with pytest.raises(pset.QueryError):
            rooted.interval_support(view4, 1, 0)

    def test_duplicate_point_gives_flagged_empty_support(self):
        sp = AugmentedMetricSpace(points=[[0.0], [0.0]], density=[0, 1])
        fo = pset.LeveledMergeForest(sp)
        v = pset.fresh_view(fo)
        sup = rooted.interval_support(v, 1, 0)
        assert sup.zero and all(t == 0.0 for _, t in sup.breaks)
        trace = rooted.peel_all(sp, forest=fo)
        assert trace.records[0].zero_interval
        assert trace.records[0].reason == "neighborly"

    def test_thresholds_nonincreasing_across_levels(self):
        rng = np.random.default_rng(52)
        for _ in range(40):
            sp = random_space(rng, n=int(rng.integers(2, 30)), duplicates=True)
            trace = rooted.peel_all(sp)
            for r in trace.records:
                thetas = [t for _, t in r.support.breaks]
                assert all(a >= b for a, b in zip(thetas, thetas[1:]))
                if not r.zero_interval:
                    assert r.support.theta_at(r.support.birth_sigma) > 0


class TestPeelAll:
    def test_line_example_trace(self, line4):
        trace = rooted.peel_all(line4)
        assert [(r.generator, r.root, r.reason) for r in trace] == [
            (3, 2, "neighborly"),
            (0, None, "bottom"),
        ]
        assert trace.records[0].support.pairs([0.0, 1.0, 2.0, 3.0]) == [(3.0, 2.0)]
        assert trace.records[1].support.theta_at(0.0) == math.inf
        assert set(trace.final_view.survivors()) == {0, 1, 2}

    def test_single_point(self):
        sp = AugmentedMetricSpace(points=[[5.0]], density=[1.0])
        trace = rooted.peel_all(sp)
        assert len(trace) == 1
        assert trace.records[0].reason == "bottom"

    def test_two_points(self):
        sp = AugmentedMetricSpace(points=[[0.0], [1.0]], density=[0.3, 0.1])
        trace = rooted.peel_all(sp)
        assert len(trace) == 2
        assert trace.records[0].generator == 0
        assert trace.records[0].root == 1

    def test_geometric_chain_fully_peels(self):
        sp = AugmentedMetricSpace(points=[[1.0], [2.0], [4.0], [8.0]], density=[0, 1, 2, 3])
        trace = rooted.peel_all(sp)
        assert len(trace) == 4
        fo = pset.LeveledMergeForest(sp)
        assert rooted.replay(trace.records, fo).survivors() == [0]

    def test_trace_bounds_on_random_spaces(self):
        rng = np.random.default_rng(61)
        for t in range(60):
            sp = random_space(
                rng,
                n=int(rng.integers(2, 40)),
                mode=("random", "constant", "ties")[t % 3],
                duplicates=(t % 4 == 0),
            )
            trace = rooted.peel_all(sp)
            pairs = rooted.nn_graph(sp).mutual_pairs
            assert len(pairs) + 1 <= len(trace) <= sp.n
            assert len(trace) >= 2
            assert sum(r.reason == "bottom" for r in trace) == 1
            assert trace.records[-1].reason == "bottom"

    def test_deterministic(self):
        rng = np.random.default_rng(71)
        sp = random_space(rng, n=25)
        a = rooted.peel_all(sp)
        b = rooted.peel_all(sp)
        assert a.to_json() == b.to_json()

    def test_single_level_engine_matches_general_engine(self):
        rng = np.random.default_rng(81)
        for _ in range(25):
            sp = random_space(rng, n=int(rng.integers(2, 30)), mode="constant")
            fo = pset.LeveledMergeForest(sp)
            assert fo.num_levels == 1
            got = [(r.generator, r.root) for r in rooted.peel_all(sp, forest=fo)]

            want = [(r.generator, r.root) for r in DenseForest(fo).peel()]
            assert got == want

    def test_replay_and_tampered_trace(self, line4):
        fo = pset.LeveledMergeForest(line4)
        trace = rooted.peel_all(line4, forest=fo)
        assert rooted.replay(trace.records, fo).removed == {3: 2}
        bad = [
            rooted.PeelRecord(1, 0, "general-rooted", trace.records[0].support),
            trace.records[1],
        ]
        with pytest.raises(pset.QueryError):
            rooted.replay(bad, fo)

    def test_replay_checks_supports_and_the_bottom_generator(self, line4):
        # both records used to replay: replay checked only rootedness and the bottom count
        fo = pset.LeveledMergeForest(line4)
        peel, bottom = rooted.peel_all(line4, forest=fo).records
        wide = replace(peel, support=rooted.IntervalSupport(3.0, ((3.0, 99.0),)))
        with pytest.raises(pset.QueryError, match=r"^record 0: generator 3 \(neighborly\) - recorded support"):
            rooted.replay([wide, bottom], fo)
        with pytest.raises(pset.QueryError, match=r"^record 1: generator 1 \(bottom\) - bottom generator should be 0"):
            rooted.replay([peel, replace(bottom, generator=1)], fo)

    def test_json_round_trip_fields(self, line4):
        fo = pset.LeveledMergeForest(line4)
        trace = rooted.peel_all(line4, forest=fo)
        recs = rooted.trace_records_from_json(trace.to_json(), fo)
        assert recs[0].generator == 3
        assert recs[0].root == 2
        assert recs[0].support == rooted.IntervalSupport(3.0, ((3.0, 2.0),))
        # the bottom record's four [sigma, null] pairs are one run
        assert recs[1].support == rooted.IntervalSupport(0.0, ((0.0, math.inf),))

    def test_supports_carry_the_levels_own_sigmas(self):
        # 0.0 and -0.0 are one level: every support, and the reader's decoding
        # of the trace, carries that level's double, signed zero included
        sp = AugmentedMetricSpace(points=[[0.0], [1.0], [3.0], [3.5], [7.0]], density=[0.0, -0.0, 1.0, 0.0, -0.0])
        fo = pset.LeveledMergeForest(sp)
        trace = rooted.peel_all(sp, forest=fo)
        assert [r.reason for r in trace] == ["neighborly"] * 3 + ["general-rooted", "bottom"]
        for rec in trace:
            for s, _ in rec.support.breaks:
                assert repr(s) == repr(float(fo.sigma_levels[np.searchsorted(fo.sigma_levels, s)])), rec
        back = rooted.trace_records_from_json(trace.to_json(), fo)
        assert [repr(r.support) for r in back] == [repr(r.support) for r in trace]

    def test_trace_json_holds_its_text_about_twice(self):
        # the document is one join of its pieces, so at its peak to_json holds
        # the pieces and the text, not the text a few times over
        pts = sample(SamplerConfig("mixture", 2, peaks=5, spread=0.05), 300, 1)
        trace = rooted.peel_all(attach_density(AugmentedMetricSpace(points=pts), "kde"))
        tracemalloc.start()
        try:
            text = trace.to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * len(text)


class TestElderBarcode:
    def test_line_example_top_row(self):
        bars = rooted.elder_barcode_1d(
            [0, 0, 0, 0], [(2.0, 2, 3), (2.5, 1, 3), (3.0, 0, 2)]
        )
        assert bars == [(0.0, 2.0), (0.0, 2.5), (0.0, 3.0), (0.0, math.inf)]

    def test_single_point(self):
        assert rooted.elder_barcode_1d([1.5], []) == [(1.5, math.inf)]

    def test_empty(self):
        assert rooted.elder_barcode_1d([], []) == []

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(91)
        for _ in range(100):
            births, merges = random_one_param(rng)
            assert rooted.elder_barcode_1d(births, merges) == elder_oracle(births, merges)

    def test_points_on_line_via_forest(self):
        rng = np.random.default_rng(95)
        line = np.sort(rng.random(50))[:, None]
        for pts in (line, rng.random((400, 2))):
            n = len(pts)
            sp = AugmentedMetricSpace(points=pts, density=np.zeros(n))
            fo = pset.LeveledMergeForest(sp)
            merges = fo.merge_events(0)
            births = [0.0] * n
            assert rooted.elder_barcode_1d(births, merges) == elder_oracle(births, merges)

    def test_decreasing_scales_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            rooted.elder_barcode_1d([0, 0, 0], [(2.0, 0, 1), (1.0, 1, 2)])

    def test_merge_before_birth_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            rooted.elder_barcode_1d([0, 5], [(1.0, 0, 1)])

    def test_nan_merge_grade_rejected(self):
        # the rounds' level bisection never ended on a NaN merge scale
        with pytest.raises(ValueError, match="NaN grade"):
            rooted.elder_barcode_1d([0, 0], [(math.nan, 0, 1)])
        with pytest.raises(ValueError, match="NaN grade"):
            rooted.elder_barcode_1d([0, 0, 0], [(1.0, 0, 1), (math.nan, 1, 2)])

    def test_nan_birth_rejected(self):
        # it gave the bar (nan, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            rooted.elder_barcode_1d([0, math.nan], [(1.0, 0, 1)])

    @pytest.mark.parametrize("i, j", [(0, 5), (-1, 1), (2, 0)])
    def test_merge_index_out_of_range_rejected(self, i, j):
        with pytest.raises(ValueError, match="outside"):
            rooted.elder_barcode_1d([0.0, 0.0], [(1.0, i, j)])


class TestConquerorAndStaircodeIndices:
    @pytest.mark.parametrize("x", [-1, 4, 99])
    def test_out_of_range_point_rejected(self, line4, x):
        fo = pset.LeveledMergeForest(line4)
        with pytest.raises(pset.QueryError, match="out of range"):
            rooted.staircode(line4, x, fo)
        with pytest.raises(pset.QueryError, match="out of range"):
            rooted.constant_conqueror(line4, x, fo)


class TestStaircode:
    def test_line_example(self, line4):
        fo = pset.LeveledMergeForest(line4)
        assert rooted.staircode(line4, 0, fo).breaks == ((0.0, math.inf),)
        assert rooted.staircode(line4, 1, fo).theta_at(1.0) == 7.5
        assert rooted.staircode(line4, 3, fo).theta_at(3.0) == 2.0

    def test_needs_injective_density(self):
        sp = AugmentedMetricSpace(points=[[0.0], [1.0]], density=[1, 1])
        with pytest.raises(ValueError, match="injective"):
            rooted.staircode(sp, 0)

    def test_thresholds_nonincreasing(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            sp = AugmentedMetricSpace(points=rng.random((n, 2)), density=rng.permutation(n))
            fo = pset.LeveledMergeForest(sp)
            for x in range(n):
                thetas = [t for _, t in rooted.staircode(sp, x, fo).breaks]
                assert all(a >= b for a, b in zip(thetas, thetas[1:]))


class TestConstantConqueror:
    def test_counterexample_pair(self, line4, view4):
        # this point has a constant conqueror yet is not a rooted generator
        assert rooted.constant_conqueror(line4, 1) == 0
        assert rooted.is_rooted_generator(view4, 1) is None

    def test_bottom_conquers_itself(self, line4):
        assert rooted.constant_conqueror(line4, 0) == 0

    def test_no_constant_conqueror(self, line4):
        assert rooted.constant_conqueror(line4, 2) is None

    def test_rooted_generator_has_constant_conqueror(self):
        # with an injective density, rootedness forces a level-uniform closest
        # predecessor, which is exactly a constant conqueror
        rng = np.random.default_rng(111)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            sp = AugmentedMetricSpace(points=rng.random((n, 2)), density=rng.permutation(n))
            fo = pset.LeveledMergeForest(sp)
            v = pset.fresh_view(fo)
            for x in range(n):
                if rooted.is_rooted_generator(v, x) is not None:
                    assert rooted.constant_conqueror(sp, x, fo) is not None


def brute_is_witness(view, eps_values, x, y):
    """Definitional check of one witness: y precedes x canonically, and a scan
    of every grade (``eps_values`` times the density levels) with cluster_at
    finds y wherever x's surviving cluster is not a singleton."""
    fo = view.forest
    f = fo.space.density
    rank = {int(p): k for k, p in enumerate(fo.perm)}
    if rank[y] >= rank[x]:
        return False
    for sigma in fo.sigma_levels:
        if f[x] > sigma:
            continue
        for eps in eps_values:
            cluster = view.cluster_at(float(eps), float(sigma), x)
            if len(cluster) >= 2 and y not in cluster:
                return False
    return True


def brute_rooted_generator(view, eps_values, x):
    """The canonically first surviving witness of x, or None."""
    return next((y for y in view.survivors() if brute_is_witness(view, eps_values, x, y)), None)


def brute_rooted_subset(view, eps_values, members):
    fo = view.forest
    f = fo.space.density
    fmin = min(f[m] for m in members)
    rank = {int(p): k for k, p in enumerate(fo.perm)}
    candidates = sorted(
        (y for y in view.survivors() if y not in members and f[y] <= fmin),
        key=lambda y: rank[y],
    )
    mset = set(members)
    for y in candidates:
        ok = True
        for sigma in fo.sigma_levels:
            for eps in eps_values:
                for x in members:
                    if f[x] > sigma:
                        continue
                    cluster = view.cluster_at(float(eps), float(sigma), x)
                    if y not in cluster and not cluster <= mset:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return y
    return None


class TestBruteForceCrossChecks:
    def test_rooted_generator_matches_definition(self):
        rng = np.random.default_rng(1234)
        for t in range(40):
            sp = random_space(
                rng, n=int(rng.integers(2, 8)),
                mode=("random", "ties")[t % 2], duplicates=(t % 3 == 0),
            )
            fo = pset.LeveledMergeForest(sp)
            view, eps_values = pset.fresh_view(fo), eps_grid(fo)
            for _ in range(2):
                for x in view.survivors():
                    got = rooted.is_rooted_generator(view, x)
                    want = brute_rooted_generator(view, eps_values, x)
                    assert got == want, (t, x, got, want)
                    for y in view.survivors():
                        want = brute_is_witness(view, eps_values, x, y)
                        assert view.rooted_pair_ok(x, y) == want, (t, x, y, want)
                # advance to a peeled view and check there as well
                peelable = [
                    (x, rooted.is_rooted_generator(view, x))
                    for x in view.survivors()
                ]
                peelable = [(x, r) for x, r in peelable if r is not None]
                if not peelable:
                    break
                view = view.restrict(*peelable[0])

    def test_rooted_subset_matches_definition(self):
        rng = np.random.default_rng(4321)
        for t in range(40):
            sp = random_space(rng, n=int(rng.integers(2, 8)), duplicates=(t % 4 == 0))
            fo = pset.LeveledMergeForest(sp)
            view = pset.fresh_view(fo)
            members = list(
                rng.choice(sp.n, size=int(rng.integers(1, sp.n)), replace=False)
            )
            got = rooted.is_rooted_subset(view, members)
            want = brute_rooted_subset(view, eps_grid(fo), members)
            assert got == want, (t, members, got, want)


def test_single_level_engine_matches_at_medium_scale():
    # large constant-density runs peel down to one point; check them against
    # the dense reference engine at a few hundred points as well
    rng = np.random.default_rng(424242)
    for d in (1, 2):
        pts = rng.random((300, d))
        sp = AugmentedMetricSpace(points=pts, density=np.zeros(300))
        fo = pset.LeveledMergeForest(sp)
        got = [(r.generator, r.root) for r in rooted.peel_all(sp, forest=fo)]

        want = [(r.generator, r.root) for r in DenseForest(fo).peel()]
        assert got == want
        assert len(got) == 300  # a single level always peels down to one point
