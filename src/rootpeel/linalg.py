"""Desk-scale exact oracle for grid persistence modules.

Persistent sets linearize to modules over the grade grid: one vector space per
grade (free on the surviving clusters) and 0/1 inclusion-induced maps along
both axes. Everything here is exact, over the rationals. One field suffices:
the structure maps and the idempotents a peel induces send basis classes to
basis classes, so they are set maps, and a split along a set map is the same
over every field. A peel's split dimensions are the traces of its
idempotent: its builder checks naturality, ``split_dims`` checks idempotency
before it reads a trace, and over QQ an idempotent's rank is its trace.

Matrices are numpy arrays: plain int64 for the 0/1 structure maps and
idempotents, dtype object holding ``Fraction`` once fractions can appear. One
kernel serves every caller: ``compose``, ``mats_equal`` and one elimination,
``_rref``, behind rank, solve, nullspace and the minimal polynomial.
``GridModule.covering_maps`` is the one walk over the structure maps.
``_grade_grid`` alone makes the full grade grid, from a distance matrix that
no one keeps; the exact check runs on ``ChainLevels.critical_scales``, where
clusters change. ``linearize`` records its view and grade bases on the
module, and the idempotents built on that module read them back.
Sizes are guarded by an explicit total-dimension budget, checked on a lower
bound before any grade is built; exceeding it is an error, not a fallback.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .pset import LeveledMergeForest, PeelView, distinct


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


def _require_dims(dims, ne: int, ns: int) -> None:
    for j in range(ns):
        for i in range(ne):
            if (i, j) not in dims:
                raise ValueError(f"missing dimension at grade {(i, j)}")


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

    @property
    def basis_reps(self) -> Optional[Dict[Tuple[int, int], Tuple[int, ...]]]:
        """Original index of each basis vector's cluster representative, per
        grade; None unless the module was linearized from a peel view."""
        if self._linearized is None:
            return None
        view, bases = self._linearized
        perm = view.forest.perm
        return {g: tuple(int(perm[p]) for p in basis) for g, (_, basis) in bases.items()}

    def __post_init__(self):
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
                a = compose(self.up_maps[(i + 1, j)], self.right_maps[(i, j)])
                b = compose(self.right_maps[(i, j + 1)], self.up_maps[(i, j)])
                if not mats_equal(a, b):
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
            m = step if m is None else compose(step, m)
        for j in range(j0, j1):
            step = self.up_maps[(i1, j)]
            m = step if m is None else compose(step, m)
        if m is None:
            return mat_identity(self.dims[src])
        return m

    def to_json(self) -> str:
        def enc(m):
            mo = as_field_matrix(m)
            return [[_enc_scalar(v) for v in row] for row in mo]

        payload = {
            "field": "QQ",
            "eps_values": list(self.eps_values),
            "sigma_values": list(self.sigma_values),
            "dims": {f"{i},{j}": d for (i, j), d in sorted(self.dims.items())},
            "right_maps": {f"{i},{j}": enc(m) for (i, j), m in sorted(self.right_maps.items())},
            "up_maps": {f"{i},{j}": enc(m) for (i, j), m in sorted(self.up_maps.items())},
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(payload: str) -> "GridModule":
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as e:
            raise ValueError(f"module document is not JSON: {e}") from None
        if not isinstance(data, dict):
            raise ValueError("a module document must be a JSON object")
        if data.get("field") != "QQ":
            raise ValueError(f"module field must be \"QQ\", got {data.get('field')!r}")
        for key in ("eps_values", "sigma_values"):
            vals = data.get(key)
            if not (isinstance(vals, list) and all(type(v) in (int, float) for v in vals)
                    and all(a < b for a, b in zip(vals, vals[1:]))):
                raise ValueError(f"{key} must be an increasing list of numbers")
        ne, ns = len(data["eps_values"]), len(data["sigma_values"])
        grid = {f"{i},{j}": (i, j) for j in range(ns) for i in range(ne)}
        keys = {"dims": set(grid), "right_maps": set(), "up_maps": set()}
        for axis, (i, j), _ in _covering_steps(ne, ns):
            keys[axis].add(f"{i},{j}")
        for key, known in keys.items():
            if not isinstance(data.get(key), dict):
                raise ValueError(f"{key} must be a JSON object")
            outside = sorted(set(data[key]) - known)
            if outside:
                raise ValueError(f"{key} has no grade {outside[0]!r} on the {ne} x {ns} grid")
        for k, v in data["dims"].items():
            if type(v) is not int:
                raise ValueError(f"dims at {k!r} is not an integer: {v!r}")
        dims = {grid[k]: v for k, v in data["dims"].items()}
        _require_dims(dims, ne, ns)
        maps: Dict[str, Dict[Tuple[int, int], np.ndarray]] = {"right_maps": {}, "up_maps": {}}
        for axis, src, dst in _covering_steps(ne, ns):
            rows = data[axis].get(f"{src[0]},{src[1]}")
            if rows is None:
                continue  # the constructor names the missing map
            where = f"{axis} at grade {src}"
            shape = (dims[dst], dims[src])
            if not isinstance(rows, list) or len(rows) != shape[0] or any(
                    not isinstance(row, list) or len(row) != shape[1] for row in rows):
                raise ValueError(f"{where} is not a {shape[0]} x {shape[1]} matrix")
            out = np.empty(shape, dtype=object)
            out.ravel()[:] = [_dec_scalar(v, where) for row in rows for v in row]
            maps[axis][src] = out
        return GridModule(tuple(data["eps_values"]), tuple(data["sigma_values"]), dims,
                          maps["right_maps"], maps["up_maps"])

    @staticmethod
    def zero(eps_values, sigma_values) -> "GridModule":
        ne, ns = len(eps_values), len(sigma_values)
        dims = {(i, j): 0 for j in range(ns) for i in range(ne)}
        right = {(i, j): np.zeros((0, 0), dtype=np.int64) for j in range(ns) for i in range(ne - 1)}
        up = {(i, j): np.zeros((0, 0), dtype=np.int64) for j in range(ns - 1) for i in range(ne)}
        return GridModule(tuple(eps_values), tuple(sigma_values), dims, right, up)


def _enc_scalar(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(int(v))


def _dec_scalar(s: str, where: str) -> Fraction:
    """An ``"num/den"`` or ``"num"`` entry of the matrix ``where``."""
    try:
        num, _, den = s.partition("/")
        return Fraction(int(num), int(den or 1))
    except (AttributeError, ValueError, ZeroDivisionError):
        raise ValueError(f"bad entry {s!r} in {where}") from None


@dataclass
class ModuleMorphism:
    """Grade-wise linear maps between two modules over the same grid."""

    source: GridModule
    target: GridModule
    mats: Mapping[Tuple[int, int], np.ndarray]

    def check_natural(self) -> None:
        src, dst = self.source, self.target
        for axis, g, h, step in src.covering_maps():
            lhs = compose(self.mats[h], step)
            rhs = compose(getattr(dst, axis)[g], self.mats[g])
            if not mats_equal(lhs, rhs):
                raise ConsistencyError(
                    f"naturality fails on the {'scale' if axis == 'right_maps' else 'density'} "
                    f"step into grade ({src.eps_values[h[0]]}, {src.sigma_values[h[1]]})"
                )

    def check_idempotent(self) -> None:
        """Raise ConsistencyError unless every map squares to itself."""
        if self.source.dims != self.target.dims:
            raise ConsistencyError("idempotency only makes sense for endomorphisms")
        for g, m in self.mats.items():
            if not mats_equal(compose(m, m), m):
                raise ConsistencyError(f"morphism is not idempotent at grade index {g}")


# -- linearization -----------------------------------------------------------------


GradeBases = Dict[Tuple[int, int], Tuple[np.ndarray, Dict[int, int]]]


def _grade_grid(forest: LeveledMergeForest) -> np.ndarray:
    """The full grid's scales: every distinct pairwise distance, from a
    distance matrix made for this call and not kept."""
    return distinct(forest.space.distance_matrix())


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


def grade_dims(view: PeelView) -> Dict[Tuple[int, int], int]:
    """Fiber dimensions of the linearized view at every grade of the full grid."""
    return {g: len(basis) for g, (_, basis) in _grade_bases(view, _grade_grid(view.forest)).items()}


def linearize(view: PeelView, dim_budget: int = 64,
              scales: Optional[Sequence[float]] = None) -> GridModule:
    """Free module on the surviving clusters of a peel view, over the given
    ascending ``scales`` (the full grid's distances when None) and every
    density level.

    The module records the view and its grade bases, which the idempotents
    built on it read back.
    """
    fo = view.forest
    eps_values = _grade_grid(fo) if scales is None else np.asarray(scales, dtype=float)
    sigma_values = fo.sigma_levels
    # every grade from the densest survivor's birth level up holds its class
    lowest = fo.num_levels - int(fo.birth_level[np.argmax(view._alive)])
    _check_budget(len(eps_values) * lowest, dim_budget, "at least ")
    bases = _grade_bases(view, eps_values)
    dims = {g: len(basis) for g, (_, basis) in bases.items()}
    _check_budget(sum(dims.values()), dim_budget)

    maps: Dict[str, Dict[Tuple[int, int], np.ndarray]] = {"right_maps": {}, "up_maps": {}}
    for axis, src, dst in _covering_steps(len(eps_values), len(sigma_values)):
        dst_labels, dst_basis = bases[dst]
        mat = np.zeros((dims[dst], dims[src]), dtype=np.int64)
        for col, rep in enumerate(bases[src][1]):
            mat[dst_basis[int(dst_labels[rep])], col] = 1
        maps[axis][src] = mat
    module = GridModule(
        eps_values=tuple(float(e) for e in eps_values),
        sigma_values=tuple(float(s) for s in sigma_values),
        dims=dims,
        right_maps=maps["right_maps"],
        up_maps=maps["up_maps"],
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
    fo = view.forest
    px, proot = fo.position(x), fo.position(root)
    return _idempotent(view, module, dim_budget, lambda j, labels, rep: (
        int(labels[proot]) if rep == px and proot < fo.level_sizes[j] else rep))


def bottom_idempotent(view: PeelView, module: Optional[GridModule] = None,
                      dim_budget: int = 64) -> ModuleMorphism:
    """The idempotent collapsing every class onto the densest generator's class."""
    if not view.survives(int(view.forest.perm[0])):
        raise ConsistencyError("the densest generator was removed from this view")
    return _idempotent(view, module, dim_budget, lambda j, labels, rep: int(labels[0]))


def _idempotent(view: PeelView, module: Optional[GridModule], dim_budget: int, target) -> ModuleMorphism:
    """The endomorphism of ``view``'s linearization that sends, at each grade
    of level j, the class of each basis representative ``rep`` to the class of
    ``target(j, labels, rep)``; raises ConsistencyError unless it is natural,
    the rootedness certificate. Each target class's representative stays put,
    so it is idempotent by construction; ``split_dims`` and ``split`` check."""
    module, bases = _peel_module(view, module, dim_budget)
    mats: Dict[Tuple[int, int], np.ndarray] = {}
    for (i, j), (labels, basis) in bases.items():
        mat = np.zeros((len(basis), len(basis)), dtype=np.int64)
        for col, rep in enumerate(basis):
            mat[basis[target(j, labels, rep)], col] = 1
        mats[(i, j)] = mat
    phi = ModuleMorphism(module, module, mats)
    phi.check_natural()
    return phi


# -- splitting ----------------------------------------------------------------------


def split_dims(
    module: GridModule, phi: ModuleMorphism
) -> Tuple[Dict[Tuple[int, int], int], Dict[Tuple[int, int], int]]:
    """Grade-wise dimensions of (img(id - phi), img(phi)) for an idempotent
    phi; raises ConsistencyError unless phi is one. An idempotent's rank is its
    trace over QQ."""
    phi.check_idempotent()
    da, db = {}, {}
    for g in module.grades():
        m = phi.mats[g]
        db[g] = int(np.trace(m))
        da[g] = len(m) - db[g]
    return da, db


def check_peel_split(before: PeelView, after: PeelView, x: int, root: Optional[int], support,
                     module: Optional[GridModule] = None, dim_budget: int = 64) -> Tuple[str, GridModule]:
    """Certify the peel of x toward root, a rooted pair on ``before`` (whose
    linearization ``module`` is, when given; else one on the critical scales),
    in exact arithmetic: split along its idempotent, check the split-off factor
    against ``support`` and the residual against ``after``, on the module's
    scales. A finite threshold of ``support`` must be one of them, as one
    between two scales is invisible. With root None, x is the bottom generator
    and the image of the bottom idempotent is checked against ``support``.
    Returns the first failure ('' if none) and the next peel's module."""
    if module is None:
        module = linearize(before, dim_budget, before.forest.critical_scales())
    eps, sig = module.eps_values, module.sigma_values
    for _, theta in support.breaks:
        if math.isfinite(theta) and theta not in eps:
            return f"support threshold {theta!r} is not a scale of the module's grid", module
    if root is None:
        phi = bottom_idempotent(before, module, dim_budget)
    else:
        phi = idempotent_from_peel(before, x, root, module, dim_budget, check_rooted=False)
    da, db = split_dims(module, phi)
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


def split(module: GridModule, phi: ModuleMorphism) -> Tuple[GridModule, GridModule]:
    """Decompose along an idempotent: (img(id - phi), img(phi)).

    Bases are pivot columns of the two projections; induced structure maps are
    solved exactly, which certifies that each factor is closed under the
    module's maps.
    """
    phi.check_idempotent()
    phi.check_natural()

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
            img = compose(step, bases[src])
            if dims[dst] == 0:
                if np.count_nonzero(img):
                    raise ConsistencyError(f"factor is not closed under the map {src} -> {dst}")
                maps[axis][src] = np.zeros((0, dims[src]), dtype=np.int64)
            else:
                maps[axis][src] = mat_solve(bases[dst], img)
        return GridModule(module.eps_values, module.sigma_values, dims,
                          maps["right_maps"], maps["up_maps"])

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
        out.append(ModuleMorphism(module, module, mats))
    return out


def _block_matrix(morphism: ModuleMorphism) -> np.ndarray:
    """Faithful block-diagonal matrix of an endomorphism over all grades."""
    module = morphism.source
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
        ident = mat_identity(total)
        e = mat_zero(total, total)
        for c in (sympy.Poly(w, tsym) * rest).all_coeffs():  # Horner, top degree first
            q = sympy.Rational(c)
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
