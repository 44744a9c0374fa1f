"""Desk-scale exact oracle for grid persistence modules.

Persistent sets linearize to modules over the grade grid: one vector space per
grade (free on the surviving clusters) and 0/1 inclusion-induced maps along
both axes. Everything here is exact: rationals by default, an odd prime field
on request. The oracle exists to validate peels independently, so ranks and
splits go through honest Gaussian elimination rather than exploiting the
special shape of cluster maps.

Matrices are numpy arrays: plain int64 for the 0/1 structure maps, dtype
object holding ``Fraction`` (or ints mod p) once fractions can appear. Sizes
are guarded by an explicit total-dimension budget; exceeding it is an error,
not a silent fallback.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .pset import PeelView

FieldSpec = Union[str, int]  # "QQ" or an odd prime


class BudgetError(RuntimeError):
    """Raised when a module exceeds the oracle's dimension budget."""


class ConsistencyError(ValueError):
    """Raised when a would-be morphism fails idempotency or naturality."""


# -- exact fields ---------------------------------------------------------------


class _QQ:
    name = "QQ"

    def from_int(self, v):
        return Fraction(v)

    def is_zero(self, v):
        return v == 0

    def div(self, a, b):
        return Fraction(a) / b

    def normalize(self, arr):
        return arr


class _GFp:
    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"field characteristic must be prime, got {p}")
        self.p = p
        self.name = f"GF({p})"

    def from_int(self, v):
        return int(v) % self.p

    def is_zero(self, v):
        return v % self.p == 0

    def div(self, a, b):
        return (a * pow(int(b), -1, self.p)) % self.p

    def normalize(self, arr):
        for idx in np.ndindex(arr.shape):
            arr[idx] = arr[idx] % self.p
        return arr


def _field_of(spec: FieldSpec):
    return _QQ() if spec == "QQ" else _GFp(int(spec))


# -- matrix kernel ----------------------------------------------------------------
# A "matrix" is a 2-d numpy array; int64 for integral data, dtype=object with
# field elements otherwise. Object arrays keep their shape through every
# degenerate (zero rows/columns) case, which plain nested tuples do not.


def as_field_matrix(m: np.ndarray, fld) -> np.ndarray:
    if m.dtype == object:
        return m
    out = np.empty(m.shape, dtype=object)
    for idx in np.ndindex(m.shape):
        out[idx] = fld.from_int(int(m[idx]))
    return out


def mat_identity(n: int, fld) -> np.ndarray:
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = fld.from_int(1 if i == j else 0)
    return out


def mat_zero(r: int, c: int, fld) -> np.ndarray:
    out = np.empty((r, c), dtype=object)
    z = fld.from_int(0)
    for idx in np.ndindex(out.shape):
        out[idx] = z
    return out


def compose(a: np.ndarray, b: np.ndarray, fld) -> np.ndarray:
    """Matrix product; stays in int64 when both factors are integral."""
    if a.dtype != object and b.dtype != object:
        return a @ b
    ao = as_field_matrix(a, fld)
    bo = as_field_matrix(b, fld)
    if ao.shape[0] == 0 or bo.shape[1] == 0 or ao.shape[1] == 0:
        return mat_zero(ao.shape[0], bo.shape[1], fld)
    return fld.normalize(np.dot(ao, bo))


def mats_equal(a: np.ndarray, b: np.ndarray, fld) -> bool:
    if a.shape != b.shape:
        return False
    if a.dtype != object and b.dtype != object:
        return bool(np.array_equal(a, b))
    ao, bo = as_field_matrix(a, fld), as_field_matrix(b, fld)
    return all(fld.is_zero(ao[idx] - bo[idx]) for idx in np.ndindex(ao.shape))


def mat_is_zero(a: np.ndarray, fld) -> bool:
    return all(fld.is_zero(as_field_matrix(a, fld)[idx]) for idx in np.ndindex(a.shape))


def _rref(m: np.ndarray, fld) -> Tuple[List[List[object]], List[int]]:
    """Reduced row echelon form (as lists) and pivot column indices."""
    rows = [list(r) for r in as_field_matrix(m, fld)]
    nr = len(rows)
    nc = m.shape[1]
    pivots: List[int] = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if not fld.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        rows[r] = [fld.div(v, inv) for v in rows[r]]
        for i in range(nr):
            if i != r and not fld.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
                if isinstance(fld, _GFp):
                    rows[i] = [v % fld.p for v in rows[i]]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def mat_rank(m: np.ndarray, fld=None) -> int:
    """Exact rank; integral matrices go through fraction-free elimination."""
    if m.dtype != object:
        return _rank_bareiss(m.tolist())
    if fld is None:
        fld = _QQ()
    return len(_rref(m, fld)[1])


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


def mat_pivot_columns(m: np.ndarray, fld) -> List[int]:
    return _rref(m, fld)[1]


def mat_solve(a: np.ndarray, b: np.ndarray, fld) -> np.ndarray:
    """Solve a @ x = b where a has full column rank; raises if inconsistent."""
    if a.shape[0] != b.shape[0]:
        raise ValueError("incompatible shapes in solve")
    ca, cb = a.shape[1], b.shape[1]
    aug = np.concatenate([as_field_matrix(a, fld), as_field_matrix(b, fld)], axis=1)
    rows, pivots = _rref(aug, fld)
    if any(p >= ca for p in pivots):
        raise ConsistencyError("linear system is inconsistent")
    if len(pivots) < ca:
        raise ValueError("coefficient matrix does not have full column rank")
    x = mat_zero(ca, cb, fld)
    for r, c in enumerate(pivots):
        for k in range(cb):
            x[c, k] = rows[r][ca + k]
    return x


def mat_nullspace(m: np.ndarray, fld) -> List[List[object]]:
    rows, pivots = _rref(m, fld)
    nc = m.shape[1]
    free = [c for c in range(nc) if c not in pivots]
    zero, one = fld.from_int(0), fld.from_int(1)
    basis = []
    for fc in free:
        v = [zero] * nc
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = zero - rows[r][fc]
            if isinstance(fld, _GFp):
                v[pc] = v[pc] % fld.p
        basis.append(v)
    return basis


# -- grid modules -----------------------------------------------------------------


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
    basis_reps: Optional[Dict[Tuple[int, int], Tuple[int, ...]]] = None

    def __post_init__(self):
        self._fld = _field_of(self.field)
        self._validate()

    def grades(self):
        for j in range(len(self.sigma_values)):
            for i in range(len(self.eps_values)):
                yield (i, j)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim(self, i: int, j: int) -> int:
        return self.dims[(i, j)]

    def right(self, i: int, j: int) -> np.ndarray:
        return self.right_maps[(i, j)]

    def up(self, i: int, j: int) -> np.ndarray:
        return self.up_maps[(i, j)]

    def _validate(self):
        ne, ns = len(self.eps_values), len(self.sigma_values)
        for (i, j), d in self.dims.items():
            if not (0 <= i < ne and 0 <= j < ns) or d < 0:
                raise ValueError(f"bad dimension entry at {(i, j)}: {d}")
        for (i, j), m in self.right_maps.items():
            if m.shape != (self.dims[(i + 1, j)], self.dims[(i, j)]):
                raise ValueError(f"right map at {(i, j)} has wrong shape")
        for (i, j), m in self.up_maps.items():
            if m.shape != (self.dims[(i, j + 1)], self.dims[(i, j)]):
                raise ValueError(f"up map at {(i, j)} has wrong shape")
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

        def key(s):
            i, j = s.split(",")
            return (int(i), int(j))

        dims = {key(k): int(v) for k, v in data["dims"].items()}

        def dec(k, m, shape):
            out = np.empty(shape, dtype=object)
            for i, row in enumerate(m):
                for j, v in enumerate(row):
                    out[i, j] = _dec_scalar(v, fld)
            return out

        right = {}
        for k, m in data["right_maps"].items():
            (i, j) = key(k)
            right[(i, j)] = dec(k, m, (dims[(i + 1, j)], dims[(i, j)]))
        up = {}
        for k, m in data["up_maps"].items():
            (i, j) = key(k)
            up[(i, j)] = dec(k, m, (dims[(i, j + 1)], dims[(i, j)]))
        return GridModule(
            eps_values=tuple(data["eps_values"]),
            sigma_values=tuple(data["sigma_values"]),
            dims=dims,
            right_maps=right,
            up_maps=up,
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
    if "/" in s:
        n, d = s.split("/")
        f = Fraction(int(n), int(d))
        return f if isinstance(fld, _QQ) else fld.div(fld.from_int(f.numerator), fld.from_int(f.denominator))
    return fld.from_int(int(s))


@dataclass
class ModuleMorphism:
    """Grade-wise linear maps between two modules over the same grid."""

    source: GridModule
    target: GridModule
    mats: Dict[Tuple[int, int], np.ndarray]

    def mat(self, i: int, j: int) -> np.ndarray:
        return self.mats[(i, j)]

    def check_natural(self) -> None:
        src, dst = self.source, self.target
        fld = _field_of(src.field)
        ne, ns = len(src.eps_values), len(src.sigma_values)
        for j in range(ns):
            for i in range(ne - 1):
                lhs = compose(self.mats[(i + 1, j)], src.right_maps[(i, j)], fld)
                rhs = compose(dst.right_maps[(i, j)], self.mats[(i, j)], fld)
                if not mats_equal(lhs, rhs, fld):
                    raise ConsistencyError(
                        f"naturality fails on the scale step into grade "
                        f"({src.eps_values[i + 1]}, {src.sigma_values[j]})"
                    )
        for j in range(ns - 1):
            for i in range(ne):
                lhs = compose(self.mats[(i, j + 1)], src.up_maps[(i, j)], fld)
                rhs = compose(dst.up_maps[(i, j)], self.mats[(i, j)], fld)
                if not mats_equal(lhs, rhs, fld):
                    raise ConsistencyError(
                        f"naturality fails on the density step into grade "
                        f"({src.eps_values[i]}, {src.sigma_values[j + 1]})"
                    )

    def check_idempotent(self) -> None:
        if self.source.dims != self.target.dims:
            raise ConsistencyError("idempotency only makes sense for endomorphisms")
        fld = _field_of(self.source.field)
        for g, m in self.mats.items():
            if not mats_equal(compose(m, m, fld), m, fld):
                raise ConsistencyError(f"morphism is not idempotent at grade index {g}")


# -- linearization -----------------------------------------------------------------


def _grade_bases(view: PeelView) -> Dict[Tuple[int, int], Tuple[np.ndarray, Dict[int, int]]]:
    """Survivor labels and basis at every grade (eps index, sigma index).

    The labels give each position active at the grade's level the position of
    its cluster's canonically first survivor. The basis maps each label that a
    survivor carries, in increasing order, to its column: one basis vector per
    surviving cluster.
    """
    fo = view.forest
    out: Dict[Tuple[int, int], Tuple[np.ndarray, Dict[int, int]]] = {}
    for j in range(fo.num_levels):
        m = int(fo.level_sizes[j])
        alive = view._alive[:m]
        live = np.flatnonzero(alive)
        for i, eps in enumerate(fo.grid.eps_values):
            labels = np.argmax((fo.levels[j] <= eps) & alive[None, :], axis=1)
            out[(i, j)] = labels, {int(b): k for k, b in enumerate(np.unique(labels[live]))}
    return out


def grade_dims(view: PeelView) -> Dict[Tuple[int, int], int]:
    """Fiber dimensions of the linearized view at every grade of the full grid."""
    return {g: len(basis) for g, (_, basis) in _grade_bases(view).items()}


def linearize(view: PeelView, dim_budget: int = 64) -> GridModule:
    """Free module on the surviving clusters of a peel view, over the full grid."""
    fo = view.forest
    grid = fo.grid
    ne, ns = len(grid.eps_values), len(grid.sigma_values)

    bases = _grade_bases(view)
    dims = {g: len(basis) for g, (_, basis) in bases.items()}
    total = sum(dims.values())
    if total > dim_budget:
        raise BudgetError(f"module has total dimension {total}, over the budget {dim_budget}")

    def functional(src_key, dst_key) -> np.ndarray:
        dst_labels, dst_basis = bases[dst_key]
        mat = np.zeros((dims[dst_key], dims[src_key]), dtype=np.int64)
        for col, rep in enumerate(bases[src_key][1]):
            mat[dst_basis[int(dst_labels[rep])], col] = 1
        return mat

    right = {(i, j): functional((i, j), (i + 1, j)) for j in range(ns) for i in range(ne - 1)}
    up = {(i, j): functional((i, j), (i, j + 1)) for j in range(ns - 1) for i in range(ne)}
    basis_reps = {g: tuple(int(fo.perm[p]) for p in basis) for g, (_, basis) in bases.items()}
    return GridModule(
        eps_values=tuple(float(e) for e in grid.eps_values),
        sigma_values=tuple(float(s) for s in grid.sigma_values),
        dims=dims,
        right_maps=right,
        up_maps=up,
        field="QQ",
        basis_reps=basis_reps,
    )


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
    and naturality fails precisely when the pair is not rooted.
    """
    if check_rooted and not view.rooted_pair_ok(x, root):
        raise ConsistencyError(f"({x}, {root}) is not a rooted pair on this view")
    if module is None:
        module = linearize(view, dim_budget=dim_budget)
    fo = view.forest
    px, proot = int(fo.pos_of[x]), int(fo.pos_of[root])
    mats: Dict[Tuple[int, int], np.ndarray] = {}
    for (i, j), (labels, basis) in _grade_bases(view).items():
        m = int(fo.level_sizes[j])
        d = module.dims[(i, j)]
        mat = np.zeros((d, d), dtype=np.int64)
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
    fo = view.forest
    bottom = int(fo.perm[0])
    if not view.survives(bottom):
        raise ConsistencyError("the densest generator was removed from this view")
    if module is None:
        module = linearize(view, dim_budget=dim_budget)
    mats: Dict[Tuple[int, int], np.ndarray] = {}
    for g, (labels, basis) in _grade_bases(view).items():
        d = module.dims[g]
        mat = np.zeros((d, d), dtype=np.int64)
        if d:
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
        if m.dtype != object:
            comp = np.eye(m.shape[0], dtype=np.int64) - m
            da[g] = mat_rank(comp)
            db[g] = mat_rank(m)
        else:
            comp = mat_identity(m.shape[0], fld) - m
            da[g] = mat_rank(comp, fld)
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
    dims_a: Dict[Tuple[int, int], int] = {}
    dims_b: Dict[Tuple[int, int], int] = {}
    for g in module.grades():
        m = as_field_matrix(phi.mats[g], fld)
        comp = mat_identity(m.shape[0], fld) - m
        pa = mat_pivot_columns(comp, fld)
        pb = mat_pivot_columns(m, fld)
        bases_a[g] = comp[:, pa] if pa else comp[:, :0]
        bases_b[g] = m[:, pb] if pb else m[:, :0]
        dims_a[g], dims_b[g] = len(pa), len(pb)
        if dims_a[g] + dims_b[g] != module.dims[g]:
            raise ConsistencyError(f"factor dimensions do not add up at grade {g}")

    def induced(bases, dims):
        right, up = {}, {}
        ne, ns = len(module.eps_values), len(module.sigma_values)

        def step(src, dst, structure):
            img = compose(structure, bases[src], fld)
            if dims[dst] == 0:
                if not mat_is_zero(img, fld):
                    raise ConsistencyError(f"factor is not closed under the map {src} -> {dst}")
                return np.zeros((0, dims[src]), dtype=np.int64)
            return mat_solve(bases[dst], img, fld)

        for j in range(ns):
            for i in range(ne - 1):
                right[(i, j)] = step((i, j), (i + 1, j), module.right_maps[(i, j)])
        for j in range(ns - 1):
            for i in range(ne):
                up[(i, j)] = step((i, j), (i, j + 1), module.up_maps[(i, j)])
        return right, up

    ra, ua = induced(bases_a, dims_a)
    rb, ub = induced(bases_b, dims_b)
    fa = GridModule(module.eps_values, module.sigma_values, dims_a, ra, ua, module.field)
    fb = GridModule(module.eps_values, module.sigma_values, dims_b, rb, ub, module.field)
    return fa, fb


# -- endomorphisms and indecomposability ----------------------------------------------


def endomorphism_space(module: GridModule, dim_budget: int = 64) -> List[ModuleMorphism]:
    """Basis of all grade-wise maps commuting with the structure maps."""
    total = module.total_dim()
    if total > dim_budget:
        raise BudgetError(f"total dimension {total} over budget {dim_budget}")
    fld = _field_of(module.field)

    offsets: Dict[Tuple[int, int], int] = {}
    off = 0
    for g in module.grades():
        offsets[g] = off
        off += module.dims[g] ** 2
    nunk = off
    if nunk == 0:
        return []

    def unk(g, r, c):
        return offsets[g] + r * module.dims[g] + c

    zero = fld.from_int(0)
    rows: List[List[object]] = []

    def add_edge_constraints(src, dst, step_raw):
        step = as_field_matrix(step_raw, fld)
        ds, dd = module.dims[src], module.dims[dst]
        for r in range(dd):
            for c in range(ds):
                row = [zero] * nunk
                for k in range(ds):
                    v = step[r, k]
                    if not fld.is_zero(v):
                        u = unk(src, k, c)
                        row[u] = row[u] + v
                for k in range(dd):
                    v = step[k, c]
                    if not fld.is_zero(v):
                        u = unk(dst, r, k)
                        row[u] = row[u] - v
                if any(not fld.is_zero(v) for v in row):
                    rows.append(row)

    ne, ns = len(module.eps_values), len(module.sigma_values)
    for j in range(ns):
        for i in range(ne - 1):
            add_edge_constraints((i, j), (i + 1, j), module.right_maps[(i, j)])
    for j in range(ns - 1):
        for i in range(ne):
            add_edge_constraints((i, j), (i, j + 1), module.up_maps[(i, j)])

    if rows:
        cmat = np.empty((len(rows), nunk), dtype=object)
        for i, r in enumerate(rows):
            for j, v in enumerate(r):
                cmat[i, j] = v
        basis_vecs = mat_nullspace(cmat, fld)
    else:
        one = fld.from_int(1)
        basis_vecs = [
            [one if k == t else zero for k in range(nunk)] for t in range(nunk)
        ]

    out = []
    for vec in basis_vecs:
        mats = {}
        for g in module.grades():
            d = module.dims[g]
            o = offsets[g]
            m = np.empty((d, d), dtype=object)
            for r in range(d):
                for c in range(d):
                    m[r, c] = vec[o + r * d + c]
            mats[g] = m
        out.append(ModuleMorphism(module, module, mats))
    return out


def _block_matrix(morphism: ModuleMorphism) -> List[List[Fraction]]:
    """Faithful block-diagonal matrix of an endomorphism over all grades."""
    module = morphism.source
    total = module.total_dim()
    big = [[Fraction(0)] * total for _ in range(total)]
    off = 0
    for g in module.grades():
        d = module.dims[g]
        m = morphism.mats[g]
        for r in range(d):
            for c in range(d):
                big[off + r][off + c] = Fraction(m[r, c])
        off += d
    return big


def _mat_list_mul(a: List[List[Fraction]], b: List[List[Fraction]]) -> List[List[Fraction]]:
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rowi = a[i]
        oi = out[i]
        for t in range(n):
            v = rowi[t]
            if v:
                rowt = b[t]
                for j in range(n):
                    if rowt[j]:
                        oi[j] += v * rowt[j]
    return out


def _min_poly(big: List[List[Fraction]]) -> List[Fraction]:
    """Monic minimal polynomial (coefficients low-degree first), found as the
    first linear dependence among flattened powers."""
    n = len(big)
    cur = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    ech: List[Tuple[List[Fraction], List[Fraction]]] = []
    k = 0
    while True:
        vec = [cur[i][j] for i in range(n) for j in range(n)]
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        for erow, ecoef in ech:
            lead = next(idx for idx, v in enumerate(erow) if v != 0)
            if vec[lead] != 0:
                f = vec[lead] / erow[lead]
                vec = [a - f * b for a, b in zip(vec, erow)]
                for t, c in enumerate(ecoef):
                    coeffs[t] -= f * c
        if all(v == 0 for v in vec):
            return coeffs
        ech.append((vec, coeffs))
        cur = _mat_list_mul(cur, big)
        k += 1
        if k > n + 1:
            raise RuntimeError("minimal polynomial search did not terminate")


def _poly_eval_matrix(coeffs: Sequence[Fraction], big: List[List[Fraction]]):
    n = len(big)
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(list(coeffs)):
        out = _mat_list_mul(out, big)
        for i in range(n):
            out[i][i] += Fraction(c)
    return out


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

    bigs = [_block_matrix(b) for b in basis]
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
        e_coeffs = [
            Fraction(sympy.Rational(c).p, sympy.Rational(c).q)
            for c in (sympy.Poly(w, tsym) * rest).all_coeffs()[::-1]
        ]
        e = _poly_eval_matrix(e_coeffs, big)
        ident = [[Fraction(1 if i == j else 0) for j in range(len(big))] for i in range(len(big))]
        if e == ident or all(v == 0 for row in e for v in row):
            return False
        ee = _mat_list_mul(e, e)
        if ee != e:
            raise RuntimeError("idempotent construction failed")
        return True

    for big in bigs:
        if splits(big):
            return False
    for _ in range(trials):
        coefs = rng.integers(-3, 4, size=m)
        if not np.any(coefs):
            continue
        combo = [
            [sum(Fraction(int(c)) * bigs[k][i][j] for k, c in enumerate(coefs)) for j in range(total)]
            for i in range(total)
        ]
        if splits(combo):
            return False

    # char 0 and a faithful representation: the radical is the kernel of the
    # trace form tr(ab) on the algebra
    gram = np.empty((m, m), dtype=object)
    for k in range(m):
        for l in range(m):
            gram[k, l] = sum(
                sum(bigs[k][i][t] * bigs[l][t][i] for t in range(total)) for i in range(total)
            )
    rad_dim = m - mat_rank(gram, _QQ())
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
