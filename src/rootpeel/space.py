"""Augmented metric spaces: points or distance matrices plus a density value per point.

The density convention throughout is "lower value = denser point". All ties
(equal densities, equal distances) are broken by the original point index, so
every derived object is deterministic.
"""

from __future__ import annotations

import io
import math
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np


class ParseError(ValueError):
    """Raised on malformed tabular input; message names the offending row."""


class DensityError(ValueError):
    """Raised when an operation needs densities that are absent or invalid."""


def is_point(v, n: int) -> bool:
    """Whether v is a point index of an n-point space: an int in [0, n)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < n


class AugmentedMetricSpace:
    """A finite metric space together with an optional density function.

    Points may be given as coordinates in R^d (Euclidean distances are used)
    or as an explicit symmetric distance matrix with zero diagonal. The
    triangle inequality is never assumed. Instances are immutable; density
    attachment returns a new space.
    """

    def __init__(self, points=None, dist=None, density=None):
        if (points is None) == (dist is None):
            raise ValueError("exactly one of points / dist must be given")
        if points is not None:
            pts = np.array(points, dtype=np.float64)  # a copy: the caller keeps its array
            if pts.ndim == 1:
                pts = pts[:, None]
            if pts.ndim != 2 or pts.shape[0] < 1:
                raise ValueError("points must be a nonempty (n, d) array")
            if not np.all(np.isfinite(pts)):
                raise ValueError("points must be finite")
            with np.errstate(over="ignore"):
                span = np.sum(np.square(pts.max(axis=0) - pts.min(axis=0)))
            if not np.isfinite(span):
                raise ValueError("points lie too far apart: their distances overflow")
            pts.setflags(write=False)
            self.points: Optional[np.ndarray] = pts
            self._cols: Optional[np.ndarray] = np.ascontiguousarray(pts.T)  # the kernel reads columns
            self._dist: Optional[np.ndarray] = None  # only a matrix given as input
            self.n = pts.shape[0]
            self.dim = pts.shape[1]
        else:
            d = np.asarray(dist, dtype=np.float64)
            if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] < 1:
                raise ValueError("distance matrix must be square and nonempty")
            if not np.all(np.isfinite(d)):
                raise ValueError("distances must be finite")
            if np.any(d < 0):
                raise ValueError("distances must be nonnegative")
            if np.any(np.diag(d) != 0.0):
                raise ValueError("distance matrix must have zero diagonal")
            if not np.array_equal(d, d.T):
                raise ValueError("distance matrix must be symmetric")
            d = d.copy()
            d.setflags(write=False)
            self.points = None
            self._cols = None
            self._dist = d
            self.n = d.shape[0]
            self.dim = None

        if density is not None:
            f = np.asarray(density, dtype=np.float64)
            if f.shape != (self.n,):
                raise ValueError(
                    f"density must have one value per point ({self.n}), got shape {f.shape}"
                )
            if not np.all(np.isfinite(f)):
                raise ValueError("density values must be finite")
            f = f.copy()
            f.setflags(write=False)
            self.density: Optional[np.ndarray] = f
        else:
            self.density = None

    # -- distances ---------------------------------------------------------

    def distance_matrix(self) -> np.ndarray:
        """Full symmetric distance matrix, read-only: the input matrix, or for
        coordinates a new matrix on every call, which the space does not keep.

        Uses the elementwise difference formula, not the Gram expansion, so
        coincident points give exactly zero and any other code path computing
        the same pair distance gets the bit-identical double. Each block of
        rows is computed against the columns from its first row on and
        mirrored: ``(a - b)**2 == (b - a)**2`` exactly, so the lower triangle
        is the one the full formula gives.
        """
        if self.points is None:
            return self._dist
        n = self.n
        out = np.empty((n, n))
        step = max(1, _BLOCK // n)
        for i0 in range(0, n, step):
            rows = slice(i0, i0 + step)
            block = self.distances(rows, slice(i0, None))
            out[rows, i0:] = block
            out[i0:, rows] = block.T
        out.setflags(write=False)
        return out

    def distances(self, rows, cols) -> np.ndarray:
        """Distances from the points ``rows`` to the points ``cols``: read from
        the input matrix (index arrays), else computed from the coordinates
        (index arrays or slices) by the formula that fills the full matrix, so
        both give the same doubles."""
        if self.points is None:
            return self._dist[np.ix_(rows, cols)]
        return _distances(self._cols[:, rows], self._cols[:, cols])

    def nearest_sweep(self, order: np.ndarray, nn: np.ndarray, nn_dist: np.ndarray,
                      start: int = 0) -> Iterator[np.ndarray]:
        """For k = start, start + 1, ..., the distances from ``order[k]`` to
        ``order[:k]``, the matrix's doubles as ``distances`` gives them;
        ``nn[k]``, ``nn_dist[k]`` (``nn_dist`` given as inf from ``start`` on,
        and the map of ``order[:start]`` among themselves before it) end as
        the sweep index of order[k]'s nearest other point (distance ties to
        the lower index) and its distance.

        Rows are computed in blocks of about ``_BLOCK`` distances and settle
        the map one row at a time: before row k is yielded, it takes its
        argmin over the earlier points, and each earlier point strictly closer
        to order[k] than to its nearest so far moves to k. So the map is
        complete once the last row is handed out, even if the caller stops
        pulling there."""
        n = len(order)
        step = max(1, _BLOCK // max(n, 1))
        for k0 in range(start, n, step):
            block = self.distances(order[k0 : k0 + step], order[: k0 + step])
            for k, row in enumerate(block, k0):
                row = row[:k]
                if k:
                    nn[k] = row.argmin()
                    nn_dist[k] = row[nn[k]]
                    closer = np.flatnonzero(row < nn_dist[:k])
                    nn[closer] = k
                    nn_dist[closer] = row[closer]
                yield row

    def spanning_tree(self, order: np.ndarray, nn: np.ndarray,
                      nn_dist: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Prim's minimum spanning tree of the points ``order`` (one or more)
        as the order it visits them in (indices into ``order``, from 0) and the
        length each later one joins the tree by. ``nn[k]``, ``nn_dist[k]`` for
        k < len(order) become the index of order[k]'s nearest other point
        among them (distance ties to the lower index) and its distance (0 and
        inf for one point).

        Each step computes one row, the distances from the new tree vertex to
        the points not yet in the tree, as ``nearest_sweep`` computes them, so
        each unordered pair is computed once. The points outside the tree,
        ``order[rest]``, are kept compacted: a joining point's slot takes the
        last one's, and so do their coordinate columns. A point's
        nearest neighbor is the nearer of its nearest tree vertex when it
        joins (``near``, which moves on a tie only to a lower index) and the
        nearest point of its own row.
        """
        m = len(order)
        rest = np.arange(1, m)  # indices outside the tree, compacted
        best = np.full(m - 1, np.inf)  # each one's distance to the tree
        near = np.zeros(m - 1, dtype=np.intp)  # and its nearest tree vertex
        if self.points is not None:
            cols = self._cols[:, order[1:]]
            col = self._cols[:, order[:1]]
        visit = np.zeros(m, dtype=np.intp)  # the tree's vertices as they join, index 0 first
        w = np.empty(m - 1)
        v, v_near, v_best = 0, 0, math.inf
        for r in range(m - 1, 0, -1):
            if self.points is None:
                row = self._dist[order[v], order[rest[:r]]]
            else:
                row = _distances(col, cols[:, :r])[0]
            k = int(row.argmin())
            if row[k] <= v_best:
                t = int(rest[:r][row == row[k]].min())
                if row[k] < v_best or t < v_near:
                    v_near, v_best = t, float(row[k])
            nn[v], nn_dist[v] = v_near, v_best
            hit = (row <= best[:r]).nonzero()[0]
            hit = hit[(row[hit] < best[hit]) | (near[hit] > v)]
            best[hit] = row[hit]
            near[hit] = v
            i = int(best[:r].argmin())
            v, v_near, v_best = int(rest[i]), int(near[i]), float(best[i])
            visit[m - r], w[m - 1 - r] = v, v_best
            last = r - 1
            if self.points is not None:
                col = cols[:, i : i + 1].copy()
                cols[:, i] = cols[:, last]
            rest[i], best[i], near[i] = rest[last], best[last], near[last]
        nn[v], nn_dist[v] = v_near, v_best
        return visit, w

    # -- densities and order -----------------------------------------------

    def has_density(self) -> bool:
        return self.density is not None

    def require_density(self) -> np.ndarray:
        if self.density is None:
            raise DensityError("space has no density values; attach one first")
        return self.density

    def canonical_order(self) -> np.ndarray:
        """Permutation of indices sorted by (density, index), stably."""
        f = self.require_density()
        return np.lexsort((np.arange(self.n), f))

    def with_density(self, values) -> "AugmentedMetricSpace":
        return AugmentedMetricSpace(points=self.points, dist=self._dist, density=values)

    def __repr__(self):
        kind = "points" if self.points is not None else "matrix"
        dens = "with density" if self.density is not None else "no density"
        return f"AugmentedMetricSpace(n={self.n}, {kind}, {dens})"


def canonical_order(space: AugmentedMetricSpace) -> np.ndarray:
    return space.canonical_order()


_BLOCK = 1 << 18  # distances per block of rows computed at once


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(r, m) Euclidean distances between the columns of a (d, r) and b (d, m)."""
    out = _square_sums(a, b)
    return np.sqrt(out, out=out)


def _square_sums(a: np.ndarray, b: np.ndarray, scale: Optional[np.ndarray] = None) -> np.ndarray:
    """(r, m) sums over the coordinates of the squared differences between the
    columns of ``a`` (d, r) and ``b`` (d, m), each difference divided by
    ``scale`` (d,) when given: the one distance kernel.

    The coordinates are added in the order ``np.sum(sq, axis=-1)`` adds a
    contiguous last axis (numpy's pairwise sum), so the doubles equal those of
    the (r, m, d) formula: fewer than 8 in sequence; up to 128 in eight
    accumulators, accumulator j taking the coordinates c = j mod 8 up to the
    last multiple of 8, combined as ((0+1)+(2+3))+((4+5)+(6+7)), then the rest
    in sequence; more split in two at a multiple of 8. ``(a - b)**2 ==
    (b - a)**2`` exactly, so either argument order gives the same doubles.
    """

    def square(c):
        z = np.subtract.outer(a[c], b[c])
        if scale is not None:
            z /= scale[c]
        return np.multiply(z, z, out=z)

    def run(lo, hi, step=1):
        acc = square(lo)
        for c in range(lo + step, hi, step):
            acc += square(c)
        return acc

    def pairwise(lo, n):
        if n < 8:
            return run(lo, lo + n)
        if n > 128:
            half = n // 2 - n // 2 % 8
            acc = pairwise(lo, half)
            acc += pairwise(lo + half, n - half)
            return acc
        end = lo + n - n % 8

        def pair(j):  # accumulators j and j + 1
            acc = run(lo + j, end, 8)
            acc += run(lo + j + 1, end, 8)
            return acc

        acc = pair(0)
        acc += pair(2)
        rest = pair(4)
        rest += pair(6)
        acc += rest
        for c in range(end, lo + n):
            acc += square(c)
        return acc

    return pairwise(0, len(a)) if len(a) else np.zeros((a.shape[1], b.shape[1]))


# -- density attachment ------------------------------------------------------


def scott_bandwidths(points: np.ndarray) -> np.ndarray:
    """Per-dimension Scott's-rule bandwidths n^(-1/(d+4)) * std_j.

    Dimensions with zero spread fall back to bandwidth 1 so that degenerate
    inputs (repeated coordinates) still evaluate.
    """
    n, d = points.shape
    factor = n ** (-1.0 / (d + 4))
    std = np.std(points, axis=0, ddof=1) if n > 1 else np.ones(d)
    std = np.where(std > 0, std, 1.0)
    return factor * std


def gaussian_kde_values(points: np.ndarray, bandwidth=None) -> np.ndarray:
    """Gaussian product-kernel density estimate evaluated at the sample points.
    Terms that overflow take their limits; an estimate that does is an error."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, d = pts.shape
    with np.errstate(over="ignore", divide="ignore"):
        if bandwidth is None:
            h = scott_bandwidths(pts)
        else:
            h = np.broadcast_to(np.asarray(bandwidth, dtype=np.float64), (d,)).copy()
            if not np.all(h > 0):
                raise ValueError("bandwidth must be positive")
        norm = n * np.prod(h) * np.float64(2.0 * math.pi) ** (d / 2.0)
        cols = np.ascontiguousarray(pts.T)
        out = np.empty(n)
        step = max(1, _BLOCK // max(1, n))
        for i0 in range(0, n, step):
            sq = _square_sums(cols[:, i0 : i0 + step], cols, h)
            out[i0 : i0 + step] = np.sum(np.exp(-0.5 * sq), axis=1)
        est = out / norm
    if not np.all(np.isfinite(est)):
        raise DensityError("the density estimate overflows; use a larger bandwidth")
    return est


def attach_density(
    space: AugmentedMetricSpace,
    mode: str,
    *,
    bandwidth=None,
    seed: Union[int, np.random.Generator, None] = None,
    values: Optional[Sequence[float]] = None,
) -> AugmentedMetricSpace:
    """Return a copy of ``space`` with densities filled in.

    mode "kde": negated Gaussian kernel density estimate, so denser points get
    lower values. Needs coordinates. mode "random": i.i.d. uniform [0, 1)
    draws from ``np.random.default_rng(seed)``, so a Generator passed as
    ``seed`` is drawn from directly. mode "explicit": caller-supplied values.
    """
    if mode == "kde":
        if space.points is None:
            raise DensityError("kde density needs point coordinates, not a distance matrix")
        est = gaussian_kde_values(space.points, bandwidth=bandwidth)
        return space.with_density(-est)
    if mode == "random":
        rng = np.random.default_rng(seed)
        return space.with_density(rng.random(space.n))
    if mode == "explicit":
        if values is None:
            raise ValueError("explicit mode needs values")
        return space.with_density(values)
    raise ValueError(f"unknown density mode: {mode!r}")


# -- tabular input -----------------------------------------------------------


def _split_row(line: str) -> list:
    delim = ";" if ";" in line else ","
    if delim not in line and " " in line.strip():
        return line.split()
    return [c.strip() for c in line.split(delim)]


def load_points(
    source: Union[str, io.TextIOBase, Iterable[str]],
    density_column: Union[str, int, None] = None,
) -> AugmentedMetricSpace:
    """Parse delimiter-separated text (comma or semicolon) into a space.

    One point per row; an optional header row names the columns; an optional
    density column is selected by name or index. A leading ``#matrix n`` line
    switches to explicit distance-matrix input (n rows of n entries). Both
    kinds of rows go through one reader into one float array.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in source]
    rows = [(i, ln) for i, ln in enumerate(lines) if ln.strip() != ""]
    if not rows:
        raise ParseError("empty input")

    first = rows[0][1].strip()
    if first.startswith("#matrix"):
        if density_column is not None:
            raise ParseError("matrix input has no density column; attach densities instead")
        try:
            _, n = first.split()
            n = int(n)
        except ValueError:
            raise ParseError("matrix header must be '#matrix n'") from None
        if len(rows) - 1 != n:  # before the header can size an allocation
            raise ParseError(f"matrix input: expected {n} rows, got {len(rows) - 1}")
        return AugmentedMetricSpace(dist=_table(rows[1:], n))

    header: Optional[list] = None
    cells0 = _split_row(rows[0][1])
    if any(not _is_number(c) for c in cells0):
        header = cells0
        rows = rows[1:]
        if not rows:
            raise ParseError("empty input (header only)")

    dens_idx: Optional[int] = None
    if density_column is not None:
        if isinstance(density_column, int):
            dens_idx = density_column
        elif header is not None and density_column in header:
            dens_idx = header.index(density_column)
        elif density_column.isdecimal():  # a string that names no column may be its index
            dens_idx = int(density_column)
        else:
            raise ParseError(f"density column {density_column!r} not found in header")

    rowno, width = rows[0][0], len(_split_row(rows[0][1]))
    if dens_idx is not None and not (0 <= dens_idx < width):
        raise ParseError(f"density column index {dens_idx} out of range (row {rowno})")
    if dens_idx is not None and width == 1:
        raise ParseError(f"row {rowno} has no coordinate fields")
    table = _table(rows, width)
    if dens_idx is None:
        return AugmentedMetricSpace(points=table)
    return AugmentedMetricSpace(points=np.delete(table, dens_idx, axis=1), density=table[:, dens_idx])


def _table(rows, width: int) -> np.ndarray:
    """The cells of the (row number, line) pairs ``rows`` as one (len(rows),
    width) float64 array, each converted by ``float()``."""
    out = np.empty((len(rows), width))
    for k, (rowno, line) in enumerate(rows):
        cells = _split_row(line)
        if len(cells) != width:  # first: numpy would spread one cell across the row
            raise ParseError(f"ragged row {rowno}: expected {width} fields, got {len(cells)}")
        try:
            out[k] = list(map(float, cells))
        except ValueError:
            bad = next(c for c in cells if not _is_number(c))
            raise ParseError(f"non-numeric field {bad!r} in row {rowno}") from None
    return out


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
