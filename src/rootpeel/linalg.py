"""Desk-scale exact oracle for grid persistence modules.

Persistent sets linearize to modules over the grade grid: one vector space per
grade (free on the surviving clusters) and 0/1 inclusion-induced maps along
both axes. Everything here is exact, over the rationals. One field suffices:
the structure maps and the idempotents a peel induces send each basis class
to the class of one position (one builder, ``_class_map``), so they are set
maps, and a split along a set map is the same over every field. A peel's
split dimensions are the traces of its idempotent: its builder checks
naturality, ``split_dims`` checks idempotency before it reads a trace, and
over QQ an idempotent's rank is its trace.

Matrices are numpy arrays: plain int64 for the 0/1 structure maps and
idempotents, dtype object holding ``Fraction`` once fractions can appear. One
kernel serves every caller: ``compose``, ``mats_equal`` and one elimination,
``_rref``, behind rank, solve, nullspace and the minimal polynomial.
``GridModule.covering_maps`` is the one walk over the structure maps.
The grade grid is ``ChainLevels.critical_scales`` (where clusters change)
times the density levels unless a caller passes other scales; no distance
matrix is made. ``linearize`` records its view and grade bases on the
module; ``idempotent_from_peel``, one builder for every trace record
(generator, root or None for the bottom), and ``check_peel_split`` take that
module alone and read them back.
A morphism is an endomorphism of one module, which ``split`` and
``split_dims`` read off it.
Sizes are guarded by an explicit total-dimension budget, checked on lower
bounds, cheapest first; exceeding it is an error, not a fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .pset import PeelView


class BudgetError(RuntimeError):
    """Raised when a module exceeds the oracle's dimension budget."""


class ConsistencyError(ValueError):
    """Raised when a would-be morphism fails idempotency or naturality."""


def _check_budget(total: int, dim_budget: int, bound: str = "") -> None:
    if total > dim_budget:
        raise BudgetError(f"module has total dimension {bound}{total}, over the budget {dim_budget}")


# -- matrix kernel ----------------------------------------------------------------
# A "matrix" is a 2-d numpy array; int64 for integral data, dtype=object with
# ``Fraction`` entries otherwise. Object arrays keep their shape through every
# degenerate (zero rows/columns) case, which plain nested tuples do not.


def _integral(m: np.ndarray) -> Tuple[np.ndarray, int]:
    """(ints, den) with m == ints / den, for an object array of rationals."""
    flat = m.ravel().tolist()
    den = math.lcm(*(v.denominator for v in flat))
    ints = np.empty(m.shape, dtype=object)
    ints.ravel()[:] = [v.numerator * (den // v.denominator) for v in flat]
    return ints, den


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # over a common denominator per factor the products are of ints, many
    # times cheaper than products of Fractions
    (ia, da), (ib, db) = _integral(a), _integral(b)
    prod = ia @ ib
    out = np.empty(prod.shape, dtype=object)
    out.ravel()[:] = [Fraction(v, da * db) for v in prod.ravel().tolist()]
    return out


def as_field_matrix(m: np.ndarray) -> np.ndarray:
    if m.dtype == object:
        return m
    out = np.empty(m.shape, dtype=object)
    out.ravel()[:] = [Fraction(v) for v in m.ravel().tolist()]
    return out


def mat_identity(n: int) -> np.ndarray:
    return as_field_matrix(np.eye(n, dtype=np.int64))


def mat_zero(r: int, c: int) -> np.ndarray:
    return as_field_matrix(np.zeros((r, c), dtype=np.int64))


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product; stays in int64 when both factors are integral."""
    if a.dtype != object and b.dtype != object:
        return a @ b
    return _matmul(as_field_matrix(a), as_field_matrix(b))


def mats_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.count_nonzero(a - b) == 0


def _rref(m: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form and pivot column indices."""
    rows = as_field_matrix(m).copy()
    nr, nc = rows.shape
    pivots: List[int] = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        nonzero = np.flatnonzero(rows[r:, c])
        if not len(nonzero):
            continue
        pr = r + int(nonzero[0])
        rows[[r, pr]] = rows[[pr, r]]
        rows[r] = rows[r] / Fraction(rows[r, c])
        col = rows[:, c].copy()
        col[r] = 0
        # only the pivot row's nonzero columns change, and the matrices are sparse
        hit, cols = np.flatnonzero(col), np.flatnonzero(rows[r])
        block = np.ix_(hit, cols)
        rows[block] = rows[block] - np.outer(col[hit], rows[r, cols])
        pivots.append(c)
    return rows, pivots


def mat_rank(m: np.ndarray) -> int:
    """Exact rank over QQ."""
    return len(_rref(m)[1])


def mat_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b where a has full column rank; raises if inconsistent."""
    if a.shape[0] != b.shape[0]:
        raise ValueError("incompatible shapes in solve")
    ca = a.shape[1]
    rows, pivots = _rref(np.concatenate([as_field_matrix(a), as_field_matrix(b)], axis=1))
    if any(p >= ca for p in pivots):
        raise ConsistencyError("linear system is inconsistent")
    if len(pivots) < ca:
        raise ValueError("coefficient matrix does not have full column rank")
    # the pivots are exactly the columns of a, so the top rows hold x
    return rows[:ca, ca:]


def mat_nullspace(m: np.ndarray) -> np.ndarray:
    """Basis of {v : m @ v = 0}, one vector per row."""
    rows, pivots = _rref(m)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    basis = mat_zero(len(free), m.shape[1])
    basis[np.arange(len(free)), free] = Fraction(1)
    basis[:, pivots] = -rows[: len(pivots)][:, free].T
    return basis


# -- grid modules -----------------------------------------------------------------


def _covering_steps(ne: int, ns: int):
    """(axis, source, target) of every covering map of an ne x ns grid: the
    scale steps ("right_maps"), then the density steps ("up_maps"), each
    with the sigma index outer and the eps index inner."""
    for j in range(ns):
        for i in range(ne - 1):
            yield "right_maps", (i, j), (i + 1, j)
    for j in range(ns - 1):
        for i in range(ne):
            yield "up_maps", (i, j), (i, j + 1)


@dataclass
class GridModule:
    """Functor from the grade grid to vector spaces over the rationals.

    ``dims[i, j]`` is the fiber dimension at (eps_values[i], sigma_values[j]);
    ``right_maps[i, j]`` maps grade (i, j) to (i+1, j) and ``up_maps[i, j]``
    to (i, j+1). Composite maps are determined by these covering maps, and
    every unit square is checked to commute on construction.
    """

    eps_values: Tuple[float, ...]
    sigma_values: Tuple[float, ...]
    dims: Dict[Tuple[int, int], int]
    right_maps: Dict[Tuple[int, int], np.ndarray]
    up_maps: Dict[Tuple[int, int], np.ndarray]
    # set by linearize: the (peel view, grade bases) the module comes from
    _linearized = None

    def grades(self):
        for j in range(len(self.sigma_values)):
            for i in range(len(self.eps_values)):
                yield (i, j)

    def covering_maps(self):
        """(axis, source grade, target grade, matrix) for every covering map,
        in the order of ``_covering_steps``; the matrix is None where missing."""
        for axis, src, dst in _covering_steps(len(self.eps_values), len(self.sigma_values)):
            yield axis, src, dst, getattr(self, axis).get(src)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __post_init__(self):
        ne, ns = len(self.eps_values), len(self.sigma_values)
        for (i, j), d in self.dims.items():
            if not (0 <= i < ne and 0 <= j < ns) or d < 0:
                raise ValueError(f"bad dimension entry at {(i, j)}: {d}")
        for g in self.grades():
            if g not in self.dims:
                raise ValueError(f"missing dimension at grade {g}")
        for axis, src, dst, m in self.covering_maps():
            if m is None:
                raise ValueError(f"missing {axis} entry at grade {src}")
            if m.shape != (self.dims[dst], self.dims[src]):
                raise ValueError(f"structure map {src} -> {dst} has wrong shape")
        for j in range(ns - 1):
            for i in range(ne - 1):
                a = compose(self.up_maps[(i + 1, j)], self.right_maps[(i, j)])
                b = compose(self.right_maps[(i, j + 1)], self.up_maps[(i, j)])
                if not mats_equal(a, b):
                    raise ValueError(
                        f"structure square at eps index {i}, sigma index {j} does not commute"
                    )


@dataclass
class ModuleMorphism:
    """Endomorphism of ``module``: one square matrix per grade, in the
    module's grade order."""

    module: GridModule
    mats: Mapping[Tuple[int, int], np.ndarray]

    def check_natural(self) -> None:
        mod = self.module
        for axis, g, h, step in mod.covering_maps():
            if not mats_equal(compose(self.mats[h], step), compose(step, self.mats[g])):
                raise ConsistencyError(
                    f"naturality fails on the {'scale' if axis == 'right_maps' else 'density'} "
                    f"step into grade ({mod.eps_values[h[0]]}, {mod.sigma_values[h[1]]})"
                )

    def check_idempotent(self) -> None:
        """Raise ConsistencyError unless every map squares to itself."""
        for g, m in self.mats.items():
            if not mats_equal(compose(m, m), m):
                raise ConsistencyError(f"morphism is not idempotent at grade index {g}")


# -- linearization -----------------------------------------------------------------


GradeBases = Dict[Tuple[int, int], Tuple[np.ndarray, Dict[int, int]]]


def _grade_bases(view: PeelView, eps_values) -> GradeBases:
    """Survivor labels and basis at every grade (eps index, sigma index), over
    the scales ``eps_values``.

    The labels give each position active at the grade's level the position of
    its cluster's canonically first survivor, from one label pass per level.
    The basis maps each survivor that labels itself, in increasing order, to
    its column: one basis vector per surviving cluster.
    """
    fo = view.forest
    out: GradeBases = {}
    for j in range(fo.num_levels):
        live = np.flatnonzero(view._alive[: int(fo.level_sizes[j])])
        for i, labels in enumerate(fo.cluster_labels(j, eps_values, view._alive)):
            out[(i, j)] = labels, {int(b): k for k, b in enumerate(live[labels[live] == live])}
    return out


def _class_map(points: Sequence[int], labels: np.ndarray, basis: Dict[int, int]) -> np.ndarray:
    """The 0/1 matrix, into a grade with these labels and basis, whose column
    k holds its one 1 in the row of the class of position ``points[k]``."""
    mat = np.zeros((len(basis), len(points)), dtype=np.int64)
    labels = labels.tolist()  # list lookups beat numpy scalar and fancy indexing at these sizes
    for k, p in enumerate(points):
        mat[basis[labels[p]], k] = 1
    return mat


def grade_dims(view: PeelView) -> Dict[Tuple[int, int], int]:
    """Fiber dimensions of the linearized view at every grade: the critical
    scales times the density levels."""
    return {g: len(basis) for g, (_, basis) in _grade_bases(view, view.forest.critical_scales()).items()}


def linearize(view: PeelView, dim_budget: int = 64,
              scales: Optional[Sequence[float]] = None) -> GridModule:
    """Free module on the surviving clusters of a peel view, over the given
    ascending ``scales`` (the forest's critical scales when None) and every
    density level.

    The module records the view and its grade bases, which the idempotents
    built on it read back.
    """
    fo = view.forest
    # every grade from the densest survivor's birth level up holds its class,
    # and the critical scales include 0: refuse on the cheapest bound first
    lowest = fo.num_levels - int(fo.birth_level[np.argmax(view._alive)])
    _check_budget(lowest, dim_budget, "at least ")
    eps_values = fo.critical_scales() if scales is None else np.asarray(scales, dtype=float)
    _check_budget(len(eps_values) * lowest, dim_budget, "at least ")
    bases = _grade_bases(view, eps_values)
    dims = {g: len(basis) for g, (_, basis) in bases.items()}
    _check_budget(sum(dims.values()), dim_budget)

    maps: Dict[str, Dict[Tuple[int, int], np.ndarray]] = {"right_maps": {}, "up_maps": {}}
    for axis, src, dst in _covering_steps(len(eps_values), len(fo.sigma_levels)):
        maps[axis][src] = _class_map(list(bases[src][1]), *bases[dst])
    module = GridModule(
        eps_values=tuple(float(e) for e in eps_values),
        sigma_values=tuple(float(s) for s in fo.sigma_levels),
        dims=dims,
        **maps,
    )
    module._linearized = (view, bases)
    return module


def idempotent_from_peel(module: GridModule, x: int, root: Optional[int],
                         check_rooted: bool = True) -> ModuleMorphism:
    """Matrix realization, on the linearization ``module`` of a peel view, of
    the idempotent of the trace record (x, root).

    With root None, the bottom record's: x must be the canonically first
    point and survive, and every class maps to x's class. Otherwise the class
    whose canonically first surviving member is x maps to root's class at
    each grade, every other class stays put, and ``root_runs`` must certify
    the pair unless ``check_rooted`` is False: naturality does not, as with
    duplicate points an unrooted pair can give a natural map.
    """
    if module._linearized is None:
        raise ConsistencyError("the module was not linearized from a peel view")
    view, bases = module._linearized
    fo = view.forest
    px = fo.position(x)
    if root is None:
        if px != 0 or not view.survives(x):
            raise ConsistencyError(f"bottom generator {x} is not the surviving point {int(fo.perm[0])}")
    elif check_rooted and view.root_runs(x, root) is None:
        raise ConsistencyError(f"({x}, {root}) is not a rooted pair on this view")
    proot = None if root is None else fo.position(root)
    # each target class's representative stays put, so the map is idempotent
    # by construction; ``split_dims`` and ``split`` check
    mats = {}
    for g, (labels, basis) in bases.items():
        points = ([0] * len(basis) if root is None else  # x's class moves where root is active
                  [proot if rep == px and proot < len(labels) else rep for rep in basis])
        mats[g] = _class_map(points, labels, basis)
    phi = ModuleMorphism(module, mats)
    phi.check_natural()
    return phi


# -- splitting ----------------------------------------------------------------------


def split_dims(phi: ModuleMorphism) -> Tuple[Dict[Tuple[int, int], int], Dict[Tuple[int, int], int]]:
    """Grade-wise dimensions of (img(id - phi), img(phi)) for an idempotent
    phi of its module, in the module's grade order; raises ConsistencyError
    unless phi is one. An idempotent's rank is its trace over QQ."""
    phi.check_idempotent()
    da, db = {}, {}
    for g, m in phi.mats.items():
        db[g] = int(np.trace(m))
        da[g] = len(m) - db[g]
    return da, db


def check_peel_split(module: GridModule, after: PeelView, x: int, root: Optional[int], support,
                     dim_budget: int = 64) -> Tuple[str, GridModule]:
    """Certify the peel of x toward root, a pair the caller has found rooted
    on the view ``module`` was linearized from, in exact arithmetic: split
    ``module`` along the record's idempotent, whose builder reads the view
    off it, check the split-off factor against ``support`` and the residual
    against ``after``, on the module's scales. A finite threshold of
    ``support`` must be one of them, as one between two scales is invisible.
    With root None, x is the bottom generator and the image of the bottom
    idempotent is checked against ``support``. Returns the first failure (''
    if none) and the next peel's module: ``after``'s linearization on the
    same scales."""
    eps, sig = module.eps_values, module.sigma_values
    for _, theta in support.breaks:
        if math.isfinite(theta) and theta not in eps:
            return f"support threshold {theta!r} is not a scale of the module's grid", module
    da, db = split_dims(idempotent_from_peel(module, x, root, check_rooted=False))
    what, dims = ("bottom", db) if root is None else ("split", da)
    for (i, j), d in dims.items():
        if d != (1 if support.contains(eps[i], sig[j]) else 0):
            return f"{what} dimension {d} at grade ({eps[i]}, {sig[j]}) contradicts the support", module
    if root is None:
        return "", module
    residual = linearize(after, dim_budget, eps)
    if any(db[g] != residual.dims[g] for g in db):
        return "residual factor dimensions differ from the restricted view", residual
    return "", residual


def split(phi: ModuleMorphism) -> Tuple[GridModule, GridModule]:
    """Decompose phi's module along the idempotent phi: (img(id - phi),
    img(phi)).

    Bases are pivot columns of the two projections; induced structure maps are
    solved exactly, which certifies that each factor is closed under the
    module's maps.
    """
    phi.check_idempotent()
    phi.check_natural()
    module = phi.module

    bases_a: Dict[Tuple[int, int], np.ndarray] = {}
    bases_b: Dict[Tuple[int, int], np.ndarray] = {}
    for g in module.grades():
        m = as_field_matrix(phi.mats[g])
        comp = mat_identity(len(m)) - m
        bases_a[g] = comp[:, _rref(comp)[1]]
        bases_b[g] = m[:, _rref(m)[1]]
        if bases_a[g].shape[1] + bases_b[g].shape[1] != module.dims[g]:
            raise ConsistencyError(f"factor dimensions do not add up at grade {g}")

    def induced(bases) -> GridModule:
        dims = {g: b.shape[1] for g, b in bases.items()}
        maps: Dict[str, Dict[Tuple[int, int], np.ndarray]] = {"right_maps": {}, "up_maps": {}}
        for axis, src, dst, step in module.covering_maps():
            maps[axis][src] = mat_solve(bases[dst], compose(step, bases[src]))
        return GridModule(module.eps_values, module.sigma_values, dims, **maps)

    return induced(bases_a), induced(bases_b)


# -- endomorphisms and indecomposability ----------------------------------------------


def endomorphism_space(module: GridModule, dim_budget: int = 64) -> List[ModuleMorphism]:
    """Basis of all grade-wise maps commuting with the structure maps."""
    _check_budget(module.total_dim(), dim_budget)

    # unknowns: the entries of each grade's d x d block, row-major, grade by grade
    offsets: Dict[Tuple[int, int], int] = {}
    off = 0
    for g in module.grades():
        offsets[g] = off
        off += module.dims[g] ** 2
    nunk = off
    if nunk == 0:
        return []

    # one equation per entry of step @ X_src - X_dst @ step along each covering
    # map; the empty first block keeps the stack defined on a one-grade grid
    blocks = [mat_zero(0, nunk)]
    for _, src, dst, step_raw in module.covering_maps():
        step = as_field_matrix(step_raw)
        ds, dd = module.dims[src], module.dims[dst]
        block = mat_zero(dd * ds, nunk)
        block[:, offsets[src]: offsets[src] + ds * ds] = np.kron(step, mat_identity(ds))
        block[:, offsets[dst]: offsets[dst] + dd * dd] = -np.kron(mat_identity(dd), step.T)
        blocks.append(block[np.count_nonzero(block, axis=1) > 0])

    out = []
    for vec in mat_nullspace(np.concatenate(blocks)):
        mats = {}
        for g in module.grades():
            d = module.dims[g]
            mats[g] = vec[offsets[g]: offsets[g] + d * d].reshape(d, d)
        out.append(ModuleMorphism(module, mats))
    return out


def _block_matrix(morphism: ModuleMorphism) -> np.ndarray:
    """Faithful block-diagonal matrix of an endomorphism over all grades."""
    module = morphism.module
    total = module.total_dim()
    big = mat_zero(total, total)
    off = 0
    for g in module.grades():
        d = module.dims[g]
        big[off: off + d, off: off + d] = as_field_matrix(morphism.mats[g])
        off += d
    return big


def _min_poly(big: np.ndarray) -> List[Fraction]:
    """Monic minimal polynomial over QQ (coefficients low-degree first). The
    flattened powers I, A, ..., A^k are the columns of one matrix; at the
    first k whose column is no pivot of its ``_rref``, A^k = sum_i rref[i, k]
    A^i, so the polynomial is t^k - sum_i rref[i, k] t^i."""
    power, cols = mat_identity(len(big)), []
    while True:
        cols.append(power.reshape(-1))
        rows, pivots = _rref(np.stack(cols, axis=1))
        k = len(pivots)
        if k < len(cols):
            return list(-rows[:k, k]) + [Fraction(1)]
        power = compose(power, big)


def is_indecomposable(module: GridModule, dim_budget: int = 64) -> Optional[bool]:
    """Indecomposability over the rationals, with honest uncertainty.

    Returns False with a certificate (an endomorphism whose minimal polynomial
    has coprime factors yields a nontrivial idempotent), True when the
    endomorphism algebra is provably local (its trace-form radical has
    codimension one), and None when neither certificate was found. Besides
    the basis itself, 24 seeded random combinations of it are tried for a
    splitting minimal polynomial.
    """
    total = module.total_dim()
    basis = endomorphism_space(module, dim_budget=dim_budget)  # checks the budget
    if total == 0:
        return False
    m = len(basis)
    if m == 1:
        return True

    bigs = [_block_matrix(b) for b in basis]
    rng = np.random.default_rng(0)

    import sympy

    tsym = sympy.Symbol("t")

    def splits(big) -> bool:
        coeffs = _min_poly(big)
        poly = sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], tsym, domain="QQ")
        factors = poly.factor_list()[1]
        if len(factors) < 2:
            return False
        p1 = factors[0][0] ** factors[0][1]
        rest = sympy.prod(f**e for f, e in factors[1:])
        s, w, h = sympy.gcdex(p1, rest)
        # s*p1 + w*rest = 1, so e := (w*rest)(A) is 1 on ker p1(A), 0 elsewhere
        ident = mat_identity(total)
        e = mat_zero(total, total)
        for q in (w * rest).all_coeffs():  # Horner, top degree first
            e = compose(e, big) + Fraction(int(q.p), int(q.q)) * ident
        if mats_equal(e, ident) or np.count_nonzero(e) == 0:
            return False
        if not mats_equal(compose(e, e), e):
            raise RuntimeError("idempotent construction failed")
        return True

    for big in bigs:
        if splits(big):
            return False
    for _ in range(24):
        coefs = rng.integers(-3, 4, size=m)
        if not np.any(coefs):
            continue
        if splits(sum(Fraction(int(c)) * big for c, big in zip(coefs, bigs))):
            return False

    # char 0 and a faithful representation: the radical is the kernel of the
    # trace form tr(ab) on the algebra
    gram = mat_zero(m, m)
    for k in range(m):
        for l in range(m):
            gram[k, l] = np.sum(bigs[k] * bigs[l].T)
    rad_dim = m - mat_rank(gram)
    if m - rad_dim == 1:
        return True
    return None


def betti0_total(module: GridModule, dim_budget: int = 64) -> int:
    """Sum over grades of the cokernel dimension of all incoming maps."""
    _check_budget(module.total_dim(), dim_budget)
    out = 0
    for (i, j) in module.grades():
        incoming = [mat_zero(module.dims[(i, j)], 0)]  # a grade with none: the whole space
        if i > 0:
            incoming.append(as_field_matrix(module.right_maps[(i - 1, j)]))
        if j > 0:
            incoming.append(as_field_matrix(module.up_maps[(i, j - 1)]))
        out += module.dims[(i, j)] - mat_rank(np.concatenate(incoming, axis=1))
    return out
