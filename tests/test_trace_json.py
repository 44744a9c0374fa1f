"""Differential test of the peel trace writer: ``PeelTrace.to_json`` must give
the bytes of ``json.dumps(indent=2)`` over the trace's records
(``dense_reference.reference_trace_json``) on every kind of input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import reference_trace_json
from rootpeel import rooted
from rootpeel.space import AugmentedMetricSpace, attach_density, load_points

KINDS = ("random", "kde", "ties", "constant", "duplicates", "matrix")


def _space(seed):
    """A seeded space of kind ``KINDS[seed % 6]`` with 1 to 60 points."""
    rng = np.random.default_rng(7000 + seed)
    kind = KINDS[seed % len(KINDS)]
    n = 1 + (seed * 7) % 60
    d = 1 + seed % 3
    pts = rng.random((n, d))
    if kind == "matrix":
        dist = np.triu(rng.integers(1, 10, (n, n)), 1)
        rows = "\n".join(",".join(str(int(v)) for v in row) for row in dist + dist.T)
        space = load_points(f"#matrix {n}\n{rows}")
        return space.with_density(rng.integers(0, 6, n).astype(float))
    if kind == "kde":
        return attach_density(AugmentedMetricSpace(points=pts), "kde")
    if kind == "random":
        return AugmentedMetricSpace(points=pts, density=rng.random(n))
    if kind == "constant":
        return AugmentedMetricSpace(points=pts, density=np.zeros(n))
    if kind == "duplicates":
        k = max(1, n // 3)
        pts[rng.integers(0, n, k)] = pts[rng.integers(0, n, k)]
    return AugmentedMetricSpace(points=pts, density=rng.integers(0, max(2, n // 4), n).astype(float))


def _agree(space):
    trace = rooted.peel_all(space)
    assert trace.to_json() == reference_trace_json(trace)
    return trace


@pytest.mark.parametrize("seed", range(120))
def test_writer_matches_json_dumps(seed):
    _agree(_space(seed))


def test_single_point_writes_the_bottom_record_only():
    trace = _agree(AugmentedMetricSpace(points=[[0.5, 0.5]], density=[1.0]))
    assert [r.reason for r in trace] == ["bottom"]


@pytest.mark.parametrize("density", [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
def test_two_points(density):
    _agree(AugmentedMetricSpace(points=[[0.0], [2.0]], density=density))


def test_duplicate_points_give_zero_intervals():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [3.0, 1.0]])
    trace = _agree(AugmentedMetricSpace(points=pts, density=[0.0, 1.0, 2.0, 3.0, 1.0]))
    assert any(r.zero_interval for r in trace)


def test_supports_with_runs_that_cover_no_level():
    # runs that start between the trace's levels or above all of them, and a
    # support born above every level, which writes as []
    trace = rooted.peel_all(AugmentedMetricSpace(points=[[0.0], [1.0], [3.0]], density=[0.0, 1.0, 2.0]))
    support = rooted.IntervalSupport(0.5, ((0.5, 4.0), (0.75, 2.0), (1.5, 1.0), (9.0, 0.5)))
    trace.records[0] = rooted.PeelRecord(1, 0, "general-rooted", support)
    trace.records[1] = rooted.PeelRecord(2, 0, "general-rooted", rooted.IntervalSupport(9.0, ((9.0, 1.0),)))
    assert trace.to_json() == reference_trace_json(trace)


_coords = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=32)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 2),
    data=st.data(),
)
def test_writer_matches_json_dumps_on_small_point_sets(d, data):
    n = data.draw(st.integers(1, 9))
    pts = data.draw(st.lists(st.lists(_coords, min_size=d, max_size=d), min_size=n, max_size=n))
    dens = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25]) | st.floats(0, 1), min_size=n,
                              max_size=n))
    _agree(AugmentedMetricSpace(points=pts, density=dens))
