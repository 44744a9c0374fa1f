import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import reference_load_points
from rootpeel.space import (
    AugmentedMetricSpace,
    DensityError,
    ParseError,
    attach_density,
    canonical_order,
    gaussian_kde_values,
    is_point,
    load_points,
)
from test_exit_codes import table_bytes


class TestLoadPoints:
    def test_line_example_rows(self):
        sp = load_points("0\n7.5\n3\n5\n")
        assert sp.n == 4 and sp.dim == 1
        assert not sp.has_density()

    def test_semicolon_rows_with_density_column(self):
        sp = load_points("0;0\n7.5;1\n3;2\n5;3\n", density_column=1)
        assert sp.n == 4
        assert sp.density.tolist() == [0, 1, 2, 3]

    def test_header_and_named_density(self):
        sp = load_points("x,y,f\n0,0,0.5\n1,0,0.2\n", density_column="f")
        assert sp.dim == 2
        assert sp.density.tolist() == [0.5, 0.2]

    def test_single_row(self):
        sp = load_points("0.0")
        assert sp.n == 1
        assert not sp.has_density()

    def test_empty_stream_fails(self):
        with pytest.raises(ParseError, match="empty input"):
            load_points("")

    def test_ragged_row_names_index(self):
        with pytest.raises(ParseError, match="row 2"):
            load_points("1,2\n3,4\n5\n")

    def test_non_numeric_field(self):
        with pytest.raises(ParseError, match="oops"):
            load_points("1,2\n3,oops\n")

    def test_file_object(self):
        sp = load_points(io.StringIO("1\n2\n"))
        assert sp.n == 2

    def test_matrix_input(self):
        sp = load_points("#matrix 3\n0,1,2\n1,0,1\n2,1,0\n")
        assert sp.points is None
        assert sp.distances([0], [2])[0, 0] == 2.0

    def test_matrix_wrong_row_count(self):
        with pytest.raises(ParseError, match="expected 3 rows"):
            load_points("#matrix 3\n0,1,2\n1,0,1\n")

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            load_points("#matrix 2\n0,1\n2,0\n")


def outcome(loader, text, density_column):
    """What a loader makes of a table: the bytes of the space's arrays, or the
    type and message of the error it raises."""
    try:
        sp = loader(text, density_column=density_column)
    except ValueError as e:
        return type(e), str(e)
    return tuple(None if a is None else (a.shape, a.tobytes()) for a in (sp.points, sp._dist, sp.density))


# the reader words these errors as point rows do; the reference, as it did
CHANGED_MESSAGES = [
    (r"ragged matrix row (\d+): expected (\d+) entries", r"ragged row {0}: expected {1} fields, got \d+"),
    (r"non-numeric entry in matrix row (\d+)", r"non-numeric field '.*' in row {0}"),
    # a lone column that is the density column: checked before the cells
    (r"non-numeric field '.*' in row (\d+)", r"row {0} has no coordinate fields"),
]


def assert_reads_as_reference(text, density_column=None):
    got = outcome(load_points, text, density_column)
    want = outcome(reference_load_points, text, density_column)
    if got == want:
        return
    assert isinstance(got[1], str) and got[0] is want[0] is ParseError, (got, want)
    for old, new in CHANGED_MESSAGES:
        m = re.fullmatch(old, want[1])
        if m and re.fullmatch(new.format(*m.groups()), got[1]):
            return
    pytest.fail(f"{got[1]!r} against the reference's {want[1]!r}")


class TestReaderMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(table=table_bytes(), density_column=st.sampled_from([None, 0, 1, 2, "0", "1", "f", "x", "z"]))
    def test_generated_tables(self, table, density_column):
        assert_reads_as_reference(table.decode("utf-8", "replace"), density_column)

    @pytest.mark.parametrize("cell", ["1_0", "١٢", "+1", " 1 ", "-0.0", "1e-300", "inf", "nan", "-inf", "1 0"])
    def test_cells_float_accepts(self, cell):
        for delim in (",", ";", " "):
            for table in (f"{cell}\n2\n", f"2{delim}{cell}\n{cell}{delim}-0.0\n",
                          f"x{delim}f\n{cell}{delim}1\n3{delim}4\n"):
                for density_column in (None, 0, 1, "f"):
                    assert_reads_as_reference(table, density_column)
            assert_reads_as_reference(f"#matrix 2\n0{delim}{cell}\n{cell}{delim}0\n")

    @pytest.mark.parametrize("table", [
        "x y f\n0 0 1\n1 0 2\n", "x;y;f\n0;0;1\n1;0;2\n", "0 0 1\n1 0 2\n", "0;0;1\n1;0;2\n",
        "1,2\n3,4\n5\n", "1,2\n3\n", "1\n2,3\n", "1,2\n3,4,5\n", "x\n1\n", "x\nx\n", "x\n1\ny\n",
        "f\n1\n", "1\noops\n", "oops,1\n", "1,2\n3,oops\n", "x,f\n1,2\n", "\n\n1,2\n\n3,4\n",
        "#matrix 2\n0,1\n1,0\n", "#matrix 2\n0,1\n", "#matrix 2\n0,1\n1,0\n0,0\n", "#matrix 2\n0\n1,0\n",
        "#matrix 2\n0,1,2\n1,0\n", "#matrix 2\n0,x\nx,0\n", "#matrix 1\n0\n", "#matrix 0\n",
        "#matrix x\n0\n", "#matrix 2 3\n0,1\n1,0\n", "#matrix -1\n", "#matrix\n", "#matrix 2\n0 1\n1 0\n",
        "#matrix 1_0\n", "#matrix 2\n0,1\n2,0\n", "#matrix 2\n0,-1\n-1,0\n", "#matrix 2\n1,1\n1,1\n",
    ])
    def test_tables(self, table):
        for density_column in (None, 0, 1, 2, "1", "f", "y"):
            assert_reads_as_reference(table, density_column)

    def test_file_object(self):
        table = "x,y,f\n0,1,2\n3,4,5\n"
        assert outcome(load_points, io.StringIO(table), "f") == outcome(reference_load_points, table, "f")


class TestDistances:
    def test_line_example_values(self, line4):
        assert line4.distances([2, 0, 1], [3, 1, 1]).diagonal().tolist() == [2.0, 7.5, 0.0]

    def test_out_of_range(self, line4):
        with pytest.raises(IndexError):
            line4.distances([0], [4])

    @pytest.mark.parametrize("i, j", [(True, 2), (2, False), (1.0, 2)])
    def test_non_int_index_is_out_of_range(self, line4, i, j):
        # the one point-index check: a bool or a float is no point, whatever its value
        assert not (is_point(i, line4.n) and is_point(j, line4.n))

    def test_duplicates_are_exactly_zero(self):
        p = np.array([[0.3234, 0.77], [0.3234, 0.77]])
        sp = AugmentedMetricSpace(points=p)
        assert sp.distances([0], [1])[0, 0] == 0.0

    def test_one_distance_builds_no_matrix(self):
        # the matrix of 3,000 points is 69 MiB
        rng = np.random.default_rng(3000)
        sp = AugmentedMetricSpace(points=rng.random((3000, 2)))
        got = [sp.distances([0], [1])[0, 0], sp.distances([1], [0])[0, 0]]
        assert sp._dist is None
        dm = sp.distance_matrix()
        assert np.array(got).tobytes() == np.array([dm[0, 1], dm[1, 0]]).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 9, 20])
    def test_half_matrix_equals_full_formula_bitwise(self, d):
        # n is large enough for the rows to be computed in several blocks
        n = int(math.sqrt(2_500_000 / d)) + 1
        rng = np.random.default_rng(d)
        p = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        p[rng.integers(0, n, n // 5)] = p[rng.integers(0, n, n // 5)]
        diff = p[:, None, :] - p[None, :, :]
        full = np.sqrt(np.sum(diff * diff, axis=2))
        assert np.array_equal(AugmentedMetricSpace(points=p).distance_matrix(), full)

    @pytest.mark.parametrize("d", [*range(1, 10), 13, 16, 17, 127, 128, 129, 300])
    def test_kernel_adds_in_the_order_of_numpy_sum(self, d):
        # np.sum over a contiguous last axis adds fewer than 8 terms in
        # sequence and more pairwise; the kernel reads coordinate columns and
        # must give the doubles of the (n, n, d) formula
        n = 40
        rng = np.random.default_rng(d)
        p = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
        p[rng.integers(0, n, 8)] = p[rng.integers(0, n, 8)]
        diff = p[:, None, :] - p[None, :, :]
        full = np.sqrt(np.sum(diff * diff, axis=-1))
        sp = AugmentedMetricSpace(points=p)
        rows, cols = rng.permutation(n)[:15], rng.permutation(n)
        assert sp.distances(rows, cols).tobytes() == full[np.ix_(rows, cols)].tobytes()
        order = rng.permutation(n)
        sweep = sp.nearest_sweep(order, np.zeros(n, dtype=np.intp), np.full(n, np.inf))
        for k, row in enumerate(sweep):
            assert row.tobytes() == full[order[k], order[:k]].tobytes(), k
        assert sp.distance_matrix().tobytes() == full.tobytes()
        # KDE terms all count when the squared sums are about 1: coordinates
        # of spread 10^u / sqrt(d), bandwidths sqrt(d) times their spread
        q = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-1, 1, size=d) / math.sqrt(d)
        h = np.std(q, axis=0) * math.sqrt(d)
        z = (q[:, None, :] - q[None, :, :]) / h
        norm = n * np.prod(h) * np.float64(2.0 * math.pi) ** (d / 2.0)
        kde = np.sum(np.exp(-0.5 * np.sum(z * z, axis=-1)), axis=1) / norm
        assert gaussian_kde_values(q, bandwidth=h).tobytes() == kde.tobytes()

    @given(
        st.lists(
            st.tuples(*[st.floats(-50, 50) for _ in range(2)]), min_size=1, max_size=12
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_zero_diagonal(self, pts):
        sp = AugmentedMetricSpace(points=pts)
        dm = sp.distance_matrix()
        assert np.array_equal(dm, dm.T)
        assert np.all(np.diag(dm) == 0.0)
        assert np.all(dm >= 0.0)


class TestDensity:
    def test_explicit(self, line4):
        assert line4.density.tolist() == [0, 1, 2, 3]

    def test_random_is_reproducible(self):
        sp = AugmentedMetricSpace(points=np.arange(6.0)[:, None])
        a = attach_density(sp, "random", seed=99)
        b = attach_density(sp, "random", seed=99)
        assert np.array_equal(a.density, b.density)

    def test_kde_middle_of_three_collinear_is_densest(self):
        # bandwidths span two orders of magnitude around the gap; far smaller
        # ones underflow the kernel weights entirely
        for gap in (0.1, 1.0, 17.0):
            sp = AugmentedMetricSpace(points=[[0.0], [gap], [2 * gap]])
            for bw in (None, gap / 4, 4 * gap):
                est = attach_density(sp, "kde", bandwidth=bw)
                f = est.density
                assert f[1] < f[0] and f[1] < f[2]

    def test_kde_matches_direct_sum(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [0.2, 0.9]])
        h = 0.7
        vals = gaussian_kde_values(pts, bandwidth=h)
        for i in range(3):
            s = sum(
                math.exp(-np.sum((pts[i] - pts[k]) ** 2) / (2 * h * h)) for k in range(3)
            )
            expect = s / (3 * h * h * 2 * math.pi)
            assert vals[i] == pytest.approx(expect, rel=1e-12)

    def test_kde_needs_coordinates(self):
        sp = load_points("#matrix 2\n0,1\n1,0\n")
        with pytest.raises(DensityError):
            attach_density(sp, "kde")

    def test_density_length_checked(self, line4):
        with pytest.raises(ValueError):
            line4.with_density([1.0])

    def test_points_are_copied(self):
        # the space neither freezes the caller's array nor follows later
        # writes to it, also through a view
        pts = np.array([[0.0], [1.0], [3.0]])
        AugmentedMetricSpace(points=pts)
        assert pts.flags.writeable
        sp = AugmentedMetricSpace(points=pts[::1])
        kde = attach_density(sp, "kde").density
        pts[:] = 5.0
        assert sp.points.tolist() == [[0.0], [1.0], [3.0]]
        assert attach_density(sp, "kde").density.tobytes() == kde.tobytes()


class TestCanonicalOrder:
    def test_line_example(self, line4):
        assert canonical_order(line4).tolist() == [0, 1, 2, 3]

    def test_ties_break_by_index(self):
        sp = AugmentedMetricSpace(points=np.zeros((4, 1)), density=[1, 1, 0, 1])
        assert canonical_order(sp).tolist() == [2, 0, 1, 3]

    def test_two_points_swapped(self):
        sp = AugmentedMetricSpace(points=[[0.0], [1.0]], density=[2, 1])
        assert canonical_order(sp).tolist() == [1, 0]

    def test_sorted_input_gives_identity(self):
        rng = np.random.default_rng(3)
        f = np.sort(rng.random(9))
        sp = AugmentedMetricSpace(points=rng.random((9, 2)), density=f)
        assert canonical_order(sp).tolist() == list(range(9))

    def test_requires_density(self):
        sp = AugmentedMetricSpace(points=[[0.0]])
        with pytest.raises(DensityError):
            canonical_order(sp)


def test_matrix_input_rejects_density_column():
    with pytest.raises(ParseError, match="density column"):
        load_points("#matrix 2\n0,1\n1,0\n", density_column=0)
