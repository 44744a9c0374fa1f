"""Desk-scale exact oracle for grid persistence modules.

Persistent sets linearize to modules over the grade grid: one vector space per
grade (free on the surviving clusters) and 0/1 inclusion-induced maps along
both axes. Everything here is exact: rationals by default, an odd prime field
on request. The oracle exists to validate peels independently, so ranks and
splits go through honest Gaussian elimination rather than exploiting the
special shape of cluster maps.

Matrices are numpy arrays: plain int64 for the 0/1 structure maps and
idempotents, dtype object holding field elements (``Fraction``, or ints mod p)
once fractions can appear. One kernel serves every caller: ``compose``,
``mats_equal`` and the elimination ``_rref`` behind rank, solve and
nullspace; integral matrices over QQ take fraction-free rank. What differs
between QQ and GF(p) (division, reduction mod p, products) is a method of the
field class. ``GridModule.covering_maps`` is the one walk over the structure
maps. ``linearize`` records its view and grade bases on the module, and the
idempotents built on that module read them back. Sizes are guarded by an
explicit total-dimension budget; exceeding it is an error, not a silent
fallback.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .pset import PeelView

FieldSpec = Union[str, int]  # "QQ" or an odd prime


class BudgetError(RuntimeError):
    """Raised when a module exceeds the oracle's dimension budget."""


class ConsistencyError(ValueError):
    """Raised when a would-be morphism fails idempotency or naturality."""


# -- exact fields ---------------------------------------------------------------
# Elements are Python objects (``Fraction``, or ints in [0, p)); ``reduce``
# brings a scalar or an integer/object array back to canonical form.


class _QQ:
    characteristic = 0

    def from_int(self, v):
        return Fraction(v)

    def div(self, a, b):
        return a / Fraction(b)

    def reduce(self, a):
        return a

    def matmul(self, a, b):
        # over a common denominator per factor the products are of ints,
        # many times cheaper than products of Fractions
        (ia, da), (ib, db) = _integral(a), _integral(b)
        prod = ia @ ib
        out = np.empty(prod.shape, dtype=object)
        out.ravel()[:] = [Fraction(v, da * db) for v in prod.ravel().tolist()]
        return out


def _integral(m: np.ndarray) -> Tuple[np.ndarray, int]:
    """(ints, den) with m == ints / den, for an object array of rationals."""
    flat = m.ravel().tolist()
    den = math.lcm(*(v.denominator for v in flat))
    ints = np.empty(m.shape, dtype=object)
    ints.ravel()[:] = [v.numerator * (den // v.denominator) for v in flat]
    return ints, den


class _GFp:
    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"field characteristic must be prime, got {p}")
        self.p = self.characteristic = p

    def from_int(self, v):
        return int(v) % self.p

    def div(self, a, b):
        return (a * pow(int(b), -1, self.p)) % self.p

    def reduce(self, a):
        return a % self.p

    def matmul(self, a, b):
        return (a @ b) % self.p


def _field_of(spec: FieldSpec):
    return _QQ() if spec == "QQ" else _GFp(int(spec))


# -- matrix kernel ----------------------------------------------------------------
# A "matrix" is a 2-d numpy array; int64 for integral data, dtype=object with
# field elements otherwise. Object arrays keep their shape through every
# degenerate (zero rows/columns) case, which plain nested tuples do not.


def as_field_matrix(m: np.ndarray, fld) -> np.ndarray:
    if m.dtype == object:
        return fld.reduce(m)
    out = np.empty(m.shape, dtype=object)
    out.ravel()[:] = [fld.from_int(v) for v in m.ravel().tolist()]
    return out


def mat_identity(n: int, fld) -> np.ndarray:
    return as_field_matrix(np.eye(n, dtype=np.int64), fld)


def mat_zero(r: int, c: int, fld) -> np.ndarray:
    return as_field_matrix(np.zeros((r, c), dtype=np.int64), fld)


def compose(a: np.ndarray, b: np.ndarray, fld) -> np.ndarray:
    """Matrix product; stays in int64 when both factors are integral."""
    if a.dtype != object and b.dtype != object:
        return fld.reduce(a @ b)
    return fld.matmul(as_field_matrix(a, fld), as_field_matrix(b, fld))


def mats_equal(a: np.ndarray, b: np.ndarray, fld) -> bool:
    return a.shape == b.shape and np.count_nonzero(fld.reduce(a - b)) == 0


def _rref(m: np.ndarray, fld) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form and pivot column indices."""
    rows = as_field_matrix(m, fld).copy()
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
        rows[r] = fld.div(rows[r], rows[r, c])
        col = rows[:, c].copy()
        col[r] = 0
        # only the pivot row's nonzero columns change, and the matrices are sparse
        hit, cols = np.flatnonzero(col), np.flatnonzero(rows[r])
        block = np.ix_(hit, cols)
        rows[block] = fld.reduce(rows[block] - np.outer(col[hit], rows[r, cols]))
        pivots.append(c)
    return rows, pivots


def mat_rank(m: np.ndarray, fld=None) -> int:
    """Exact rank (over QQ by default); integral matrices over QQ go through
    fraction-free elimination."""
    if m.dtype != object and (fld is None or fld.characteristic == 0):
        return _rank_bareiss(m.tolist())
    return len(_rref(m, fld or _QQ())[1])


def _rank_bareiss(rows: List[List[int]]) -> int:
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    rows = [list(map(int, r)) for r in rows]
    rank = 0
    prev = 1
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nr):
            fi = rows[i][c]
            rows[i] = [(piv * rows[i][j] - fi * rows[r][j]) // prev for j in range(nc)]
        prev = piv
        rank += 1
        r += 1
        if r == nr:
            break
    return rank


def mat_solve(a: np.ndarray, b: np.ndarray, fld) -> np.ndarray:
    """Solve a @ x = b where a has full column rank; raises if inconsistent."""
    if a.shape[0] != b.shape[0]:
        raise ValueError("incompatible shapes in solve")
    ca = a.shape[1]
    rows, pivots = _rref(np.concatenate([as_field_matrix(a, fld), as_field_matrix(b, fld)], axis=1), fld)
    if any(p >= ca for p in pivots):
        raise ConsistencyError("linear system is inconsistent")
    if len(pivots) < ca:
        raise ValueError("coefficient matrix does not have full column rank")
    # the pivots are exactly the columns of a, so the top rows hold x
    return rows[:ca, ca:]


def mat_nullspace(m: np.ndarray, fld) -> np.ndarray:
    """Basis of {v : m @ v = 0}, one vector per row."""
    rows, pivots = _rref(m, fld)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    basis = mat_zero(len(free), m.shape[1], fld)
    basis[np.arange(len(free)), free] = fld.from_int(1)
    basis[:, pivots] = fld.reduce(-rows[: len(pivots)][:, free].T)
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


def _require_dims(dims, ne: int, ns: int) -> None:
    for j in range(ns):
        for i in range(ne):
            if (i, j) not in dims:
                raise ValueError(f"missing dimension at grade {(i, j)}")


@dataclass
class GridModule:
    """Functor from the grade grid to vector spaces, over an exact field.

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
    field: FieldSpec = "QQ"
    # set by linearize: the (peel view, grade bases) the module comes from
    _linearized = None

    def __post_init__(self):
        self._fld = _field_of(self.field)
        self._validate()

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

    @property
    def basis_reps(self) -> Optional[Dict[Tuple[int, int], Tuple[int, ...]]]:
        """Original index of each basis vector's cluster representative, per
        grade; None unless the module was linearized from a peel view."""
        if self._linearized is None:
            return None
        view, bases = self._linearized
        perm = view.forest.perm
        return {g: tuple(int(perm[p]) for p in basis) for g, (_, basis) in bases.items()}

    def _validate(self):
        ne, ns = len(self.eps_values), len(self.sigma_values)
        for (i, j), d in self.dims.items():
            if not (0 <= i < ne and 0 <= j < ns) or d < 0:
                raise ValueError(f"bad dimension entry at {(i, j)}: {d}")
        _require_dims(self.dims, ne, ns)
        for axis, src, dst, m in self.covering_maps():
            if m is None:
                raise ValueError(f"missing {axis} entry at grade {src}")
            if m.shape != (self.dims[dst], self.dims[src]):
                raise ValueError(f"structure map {src} -> {dst} has wrong shape")
        for j in range(ns - 1):
            for i in range(ne - 1):
                a = compose(self.up_maps[(i + 1, j)], self.right_maps[(i, j)], self._fld)
                b = compose(self.right_maps[(i, j + 1)], self.up_maps[(i, j)], self._fld)
                if not mats_equal(a, b, self._fld):
                    raise ValueError(
                        f"structure square at eps index {i}, sigma index {j} does not commute"
                    )

    def map_between(self, src: Tuple[int, int], dst: Tuple[int, int]) -> np.ndarray:
        """Composite structure map src -> dst for comparable grades."""
        (i0, j0), (i1, j1) = src, dst
        if i1 < i0 or j1 < j0:
            raise ValueError("map_between needs src <= dst")
        m: Optional[np.ndarray] = None
        for i in range(i0, i1):
            step = self.right_maps[(i, j0)]
            m = step if m is None else compose(step, m, self._fld)
        for j in range(j0, j1):
            step = self.up_maps[(i1, j)]
            m = step if m is None else compose(step, m, self._fld)
        if m is None:
            return mat_identity(self.dims[src], self._fld)
        return m

    def to_json(self) -> str:
        def enc(m):
            mo = as_field_matrix(m, self._fld)
            return [[_enc_scalar(v) for v in row] for row in mo]

        payload = {
            "field": self.field,
            "eps_values": list(self.eps_values),
            "sigma_values": list(self.sigma_values),
            "dims": {f"{i},{j}": d for (i, j), d in sorted(self.dims.items())},
            "right_maps": {f"{i},{j}": enc(m) for (i, j), m in sorted(self.right_maps.items())},
            "up_maps": {f"{i},{j}": enc(m) for (i, j), m in sorted(self.up_maps.items())},
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(payload: str) -> "GridModule":
        data = json.loads(payload)
        fld = _field_of(data["field"])
        dims = {}
        for k, v in data["dims"].items():
            i, j = k.split(",")
            dims[(int(i), int(j))] = int(v)

        ne, ns = len(data["eps_values"]), len(data["sigma_values"])
        _require_dims(dims, ne, ns)
        maps: Dict[str, Dict[Tuple[int, int], np.ndarray]] = {"right_maps": {}, "up_maps": {}}
        for axis, src, dst in _covering_steps(ne, ns):
            rows = data[axis].get(f"{src[0]},{src[1]}")
            if rows is None:
                continue  # the constructor names the missing map
            out = mat_zero(dims[dst], dims[src], fld)
            for r, row in enumerate(rows):
                out[r] = [_dec_scalar(v, fld) for v in row]
            maps[axis][src] = out
        return GridModule(
            eps_values=tuple(data["eps_values"]),
            sigma_values=tuple(data["sigma_values"]),
            dims=dims,
            right_maps=maps["right_maps"],
            up_maps=maps["up_maps"],
            field=data["field"],
        )

    @staticmethod
    def zero(eps_values, sigma_values, field: FieldSpec = "QQ") -> "GridModule":
        ne, ns = len(eps_values), len(sigma_values)
        dims = {(i, j): 0 for j in range(ns) for i in range(ne)}
        right = {(i, j): np.zeros((0, 0), dtype=np.int64) for j in range(ns) for i in range(ne - 1)}
        up = {(i, j): np.zeros((0, 0), dtype=np.int64) for j in range(ns - 1) for i in range(ne)}
        return GridModule(tuple(eps_values), tuple(sigma_values), dims, right, up, field)


def _enc_scalar(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(int(v))


def _dec_scalar(s: str, fld):
    num, _, den = s.partition("/")
    return fld.div(fld.from_int(int(num)), fld.from_int(int(den or 1)))


@dataclass
class ModuleMorphism:
    """Grade-wise linear maps between two modules over the same grid."""

    source: GridModule
    target: GridModule
    mats: Dict[Tuple[int, int], np.ndarray]

    def check_natural(self) -> None:
        src, dst = self.source, self.target
        fld = _field_of(src.field)
        for axis, g, h, step in src.covering_maps():
            lhs = compose(self.mats[h], step, fld)
            rhs = compose(getattr(dst, axis)[g], self.mats[g], fld)
            if not mats_equal(lhs, rhs, fld):
                raise ConsistencyError(
                    f"naturality fails on the {'scale' if axis == 'right_maps' else 'density'} "
                    f"step into grade ({src.eps_values[h[0]]}, {src.sigma_values[h[1]]})"
                )

    def check_idempotent(self) -> None:
        if self.source.dims != self.target.dims:
            raise ConsistencyError("idempotency only makes sense for endomorphisms")
        fld = _field_of(self.source.field)
        for g, m in self.mats.items():
            if not mats_equal(compose(m, m, fld), m, fld):
                raise ConsistencyError(f"morphism is not idempotent at grade index {g}")


# -- linearization -----------------------------------------------------------------


GradeBases = Dict[Tuple[int, int], Tuple[np.ndarray, Dict[int, int]]]


def _grade_bases(view: PeelView) -> GradeBases:
    """Survivor labels and basis at every grade (eps index, sigma index).

    The labels give each position active at the grade's level the position of
    its cluster's canonically first survivor. The basis maps each label that a
    survivor carries, in increasing order, to its column: one basis vector per
    surviving cluster.
    """
    fo = view.forest
    out: GradeBases = {}
    for j in range(fo.num_levels):
        live = np.flatnonzero(view._alive[: int(fo.level_sizes[j])])
        for i, eps in enumerate(fo.grid.eps_values):
            labels = fo.cluster_labels(j, eps, view._alive)
            out[(i, j)] = labels, {int(b): k for k, b in enumerate(np.unique(labels[live]))}
    return out


def grade_dims(view: PeelView) -> Dict[Tuple[int, int], int]:
    """Fiber dimensions of the linearized view at every grade of the full grid."""
    return {g: len(basis) for g, (_, basis) in _grade_bases(view).items()}


def linearize(view: PeelView, dim_budget: int = 64) -> GridModule:
    """Free module on the surviving clusters of a peel view, over the full grid.

    The module records the view and its grade bases, which the idempotents
    built on it read back.
    """
    grid = view.forest.grid
    bases = _grade_bases(view)
    dims = {g: len(basis) for g, (_, basis) in bases.items()}
    total = sum(dims.values())
    if total > dim_budget:
        raise BudgetError(f"module has total dimension {total}, over the budget {dim_budget}")

    maps: Dict[str, Dict[Tuple[int, int], np.ndarray]] = {"right_maps": {}, "up_maps": {}}
    for axis, src, dst in _covering_steps(len(grid.eps_values), len(grid.sigma_values)):
        dst_labels, dst_basis = bases[dst]
        mat = np.zeros((dims[dst], dims[src]), dtype=np.int64)
        for col, rep in enumerate(bases[src][1]):
            mat[dst_basis[int(dst_labels[rep])], col] = 1
        maps[axis][src] = mat
    module = GridModule(
        eps_values=tuple(float(e) for e in grid.eps_values),
        sigma_values=tuple(float(s) for s in grid.sigma_values),
        dims=dims,
        right_maps=maps["right_maps"],
        up_maps=maps["up_maps"],
        field="QQ",
    )
    module._linearized = (view, bases)
    return module


def _peel_module(view: PeelView, module: Optional[GridModule], dim_budget: int):
    """``module`` (linearized from ``view`` when None) and its grade bases;
    raises ConsistencyError when it was not linearized from this view."""
    if module is None:
        module = linearize(view, dim_budget=dim_budget)
    source = module._linearized
    if source is None or source[0].forest is not view.forest or not np.array_equal(
        source[0]._alive, view._alive
    ):
        raise ConsistencyError("the module was not linearized from this peel view")
    return module, source[1]


def idempotent_from_peel(
    view: PeelView,
    x: int,
    root: int,
    module: Optional[GridModule] = None,
    dim_budget: int = 64,
    check_rooted: bool = True,
) -> ModuleMorphism:
    """Matrix realization of the idempotent that sends x's class to root's.

    At each grade, the class whose canonically first surviving member is x
    maps to root's class; every other class stays put. With
    ``check_rooted=False`` the construction is attempted for arbitrary pairs,
    and naturality fails precisely when the pair is not rooted. A given
    ``module`` must be ``linearize(view)``'s.
    """
    if check_rooted and not view.rooted_pair_ok(x, root):
        raise ConsistencyError(f"({x}, {root}) is not a rooted pair on this view")
    module, bases = _peel_module(view, module, dim_budget)
    fo = view.forest
    px, proot = fo.position(x), fo.position(root)
    mats: Dict[Tuple[int, int], np.ndarray] = {}
    for (i, j), (labels, basis) in bases.items():
        m = int(fo.level_sizes[j])
        mat = np.zeros((len(basis), len(basis)), dtype=np.int64)
        for col, rep in enumerate(basis):
            if rep == px and proot < m:
                rep = int(labels[proot])
            mat[basis[rep], col] = 1
        mats[(i, j)] = mat
    phi = ModuleMorphism(module, module, mats)
    phi.check_natural()
    phi.check_idempotent()
    return phi


def bottom_idempotent(view: PeelView, module: Optional[GridModule] = None,
                      dim_budget: int = 64) -> ModuleMorphism:
    """The idempotent collapsing every class onto the densest generator's class."""
    if not view.survives(int(view.forest.perm[0])):
        raise ConsistencyError("the densest generator was removed from this view")
    module, bases = _peel_module(view, module, dim_budget)
    mats: Dict[Tuple[int, int], np.ndarray] = {}
    for g, (labels, basis) in bases.items():
        mat = np.zeros((len(basis), len(basis)), dtype=np.int64)
        if basis:
            mat[basis[int(labels[0])], :] = 1
        mats[g] = mat
    phi = ModuleMorphism(module, module, mats)
    phi.check_natural()
    phi.check_idempotent()
    return phi


# -- splitting ----------------------------------------------------------------------


def split_dims(
    module: GridModule, phi: ModuleMorphism
) -> Tuple[Dict[Tuple[int, int], int], Dict[Tuple[int, int], int]]:
    """Grade-wise dimensions of (img(id - phi), img(phi)) by exact rank."""
    fld = _field_of(module.field)
    da, db = {}, {}
    for g in module.grades():
        m = phi.mats[g]
        da[g] = mat_rank(fld.reduce(np.eye(len(m), dtype=m.dtype) - m), fld)
        db[g] = mat_rank(m, fld)
    return da, db


def split(module: GridModule, phi: ModuleMorphism) -> Tuple[GridModule, GridModule]:
    """Decompose along an idempotent: (img(id - phi), img(phi)).

    Bases are pivot columns of the two projections; induced structure maps are
    solved exactly, which certifies that each factor is closed under the
    module's maps.
    """
    phi.check_idempotent()
    phi.check_natural()
    fld = _field_of(module.field)

    bases_a: Dict[Tuple[int, int], np.ndarray] = {}
    bases_b: Dict[Tuple[int, int], np.ndarray] = {}
    for g in module.grades():
        m = as_field_matrix(phi.mats[g], fld)
        comp = fld.reduce(mat_identity(len(m), fld) - m)
        bases_a[g] = comp[:, _rref(comp, fld)[1]]
        bases_b[g] = m[:, _rref(m, fld)[1]]
        if bases_a[g].shape[1] + bases_b[g].shape[1] != module.dims[g]:
            raise ConsistencyError(f"factor dimensions do not add up at grade {g}")

    def induced(bases) -> GridModule:
        dims = {g: b.shape[1] for g, b in bases.items()}
        maps: Dict[str, Dict[Tuple[int, int], np.ndarray]] = {"right_maps": {}, "up_maps": {}}
        for axis, src, dst, step in module.covering_maps():
            img = compose(step, bases[src], fld)
            if dims[dst] == 0:
                if np.count_nonzero(img):
                    raise ConsistencyError(f"factor is not closed under the map {src} -> {dst}")
                maps[axis][src] = np.zeros((0, dims[src]), dtype=np.int64)
            else:
                maps[axis][src] = mat_solve(bases[dst], img, fld)
        return GridModule(module.eps_values, module.sigma_values, dims,
                          maps["right_maps"], maps["up_maps"], module.field)

    return induced(bases_a), induced(bases_b)


# -- endomorphisms and indecomposability ----------------------------------------------


def endomorphism_space(module: GridModule, dim_budget: int = 64) -> List[ModuleMorphism]:
    """Basis of all grade-wise maps commuting with the structure maps."""
    total = module.total_dim()
    if total > dim_budget:
        raise BudgetError(f"total dimension {total} over budget {dim_budget}")
    fld = _field_of(module.field)

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
    blocks = [mat_zero(0, nunk, fld)]
    for _, src, dst, step_raw in module.covering_maps():
        step = as_field_matrix(step_raw, fld)
        ds, dd = module.dims[src], module.dims[dst]
        block = mat_zero(dd * ds, nunk, fld)
        block[:, offsets[src]: offsets[src] + ds * ds] = np.kron(step, mat_identity(ds, fld))
        block[:, offsets[dst]: offsets[dst] + dd * dd] = -np.kron(mat_identity(dd, fld), step.T)
        block = fld.reduce(block)
        blocks.append(block[np.count_nonzero(block, axis=1) > 0])

    out = []
    for vec in mat_nullspace(np.concatenate(blocks), fld):
        mats = {}
        for g in module.grades():
            d = module.dims[g]
            mats[g] = vec[offsets[g]: offsets[g] + d * d].reshape(d, d)
        out.append(ModuleMorphism(module, module, mats))
    return out


def _block_matrix(morphism: ModuleMorphism, fld) -> np.ndarray:
    """Faithful block-diagonal matrix of an endomorphism over all grades."""
    module = morphism.source
    total = module.total_dim()
    big = mat_zero(total, total, fld)
    off = 0
    for g in module.grades():
        d = module.dims[g]
        big[off: off + d, off: off + d] = as_field_matrix(morphism.mats[g], fld)
        off += d
    return big


def _min_poly(big: np.ndarray) -> List[Fraction]:
    """Monic minimal polynomial over QQ (coefficients low-degree first), found
    as the first linear dependence among flattened powers."""
    fld = _QQ()
    n = len(big)
    power = mat_identity(n, fld)
    ech = []  # (lead index, echelon row, its coefficients in the powers)
    for k in range(n + 2):
        vec = power.reshape(-1)
        coeffs = mat_zero(1, n + 2, fld)[0]
        coeffs[k] = fld.from_int(1)
        for lead, erow, ecoef in ech:
            if vec[lead] != 0:
                f = vec[lead] / erow[lead]
                vec = vec - f * erow
                coeffs = coeffs - f * ecoef
        nonzero = np.flatnonzero(vec)
        if not len(nonzero):
            return list(coeffs[: k + 1])
        ech.append((int(nonzero[0]), vec, coeffs))
        power = compose(power, big, fld)
    raise RuntimeError("minimal polynomial search did not terminate")


def is_indecomposable(
    module: GridModule,
    dim_budget: int = 64,
    trials: int = 24,
    seed: int = 0,
) -> Optional[bool]:
    """Indecomposability over the rationals, with honest uncertainty.

    Returns False with a certificate (an endomorphism whose minimal polynomial
    has coprime factors yields a nontrivial idempotent), True when the
    endomorphism algebra is provably local (its trace-form radical has
    codimension one), and None when neither certificate was found.
    """
    if module.field != "QQ":
        raise ValueError("indecomposability test is defined over the rationals")
    total = module.total_dim()
    if total > dim_budget:
        raise BudgetError(f"total dimension {total} over budget {dim_budget}")
    if total == 0:
        return False

    basis = endomorphism_space(module, dim_budget=dim_budget)
    m = len(basis)
    if m == 1:
        return True

    fld = _QQ()
    bigs = [_block_matrix(b, fld) for b in basis]
    rng = np.random.default_rng(seed)

    import sympy

    tsym = sympy.Symbol("t")

    def splits(big) -> bool:
        coeffs = _min_poly(big)
        poly = sympy.Poly(
            sum(sympy.Rational(c.numerator, c.denominator) * tsym**k for k, c in enumerate(coeffs)),
            tsym,
            domain="QQ",
        )
        factors = poly.factor_list()[1]
        if len(factors) < 2:
            return False
        p1 = sympy.Poly(factors[0][0] ** factors[0][1], tsym)
        rest = sympy.Poly(sympy.prod(f**e for f, e in factors[1:]), tsym)
        s, w, h = sympy.gcdex(p1, rest)
        # s*p1 + w*rest = 1, so e := (w*rest)(A) is 1 on ker p1(A), 0 elsewhere
        ident = mat_identity(total, fld)
        e = mat_zero(total, total, fld)
        for c in (sympy.Poly(w, tsym) * rest).all_coeffs():  # Horner, top degree first
            q = sympy.Rational(c)
            e = compose(e, big, fld) + Fraction(int(q.p), int(q.q)) * ident
        if mats_equal(e, ident, fld) or np.count_nonzero(e) == 0:
            return False
        if not mats_equal(compose(e, e, fld), e, fld):
            raise RuntimeError("idempotent construction failed")
        return True

    for big in bigs:
        if splits(big):
            return False
    for _ in range(trials):
        coefs = rng.integers(-3, 4, size=m)
        if not np.any(coefs):
            continue
        if splits(sum(Fraction(int(c)) * big for c, big in zip(coefs, bigs))):
            return False

    # char 0 and a faithful representation: the radical is the kernel of the
    # trace form tr(ab) on the algebra
    gram = mat_zero(m, m, fld)
    for k in range(m):
        for l in range(m):
            gram[k, l] = np.sum(bigs[k] * bigs[l].T)
    rad_dim = m - mat_rank(gram, fld)
    if m - rad_dim == 1:
        return True
    return None


def betti0_total(module: GridModule, dim_budget: int = 64) -> int:
    """Sum over grades of the cokernel dimension of all incoming maps."""
    total = module.total_dim()
    if total > dim_budget:
        raise BudgetError(f"total dimension {total} over budget {dim_budget}")
    fld = _field_of(module.field)
    out = 0
    for (i, j) in module.grades():
        d = module.dims[(i, j)]
        if d == 0:
            continue
        incoming = []
        if i > 0:
            incoming.append(as_field_matrix(module.right_maps[(i - 1, j)], fld))
        if j > 0:
            incoming.append(as_field_matrix(module.up_maps[(i, j - 1)], fld))
        incoming = [m for m in incoming if m.shape[1] > 0]
        if not incoming:
            out += d
            continue
        stacked = np.concatenate(incoming, axis=1)
        out += d - mat_rank(stacked, fld)
    return out
