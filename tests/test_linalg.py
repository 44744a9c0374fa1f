import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import eps_grid, random_space
from test_golden import module_json
from rootpeel import linalg, pset, rooted
from rootpeel.space import AugmentedMetricSpace
BUDGET = 100000


@pytest.fixture
def full4(line4):
    fo = pset.LeveledMergeForest(line4)
    view = pset.fresh_view(fo)
    return view, linalg.linearize(view, dim_budget=BUDGET)


@pytest.fixture
def residual4(line4):
    """The indecomposable leftover: peel the only rooted generator, then split
    off the whole-module interval induced by the densest point."""
    fo = pset.LeveledMergeForest(line4)
    view = pset.fresh_view(fo).restrict(3, 2)
    module = linalg.linearize(view, dim_budget=BUDGET, scales=eps_grid(fo))
    psi = linalg.idempotent_from_peel(module, int(fo.perm[0]), None)
    resid, bottom = linalg.split(psi)
    return resid, bottom


def chain_module(dims, maps):
    """Module over a 1 x len(dims) grid with given right maps."""
    eps = tuple(float(i) for i in range(len(dims)))
    return linalg.GridModule(
        eps_values=eps,
        sigma_values=(0.0,),
        dims={(i, 0): d for i, d in enumerate(dims)},
        right_maps={(i, 0): np.asarray(m, dtype=np.int64) for i, m in enumerate(maps)},
        up_maps={},
    )


def zero_module(ne):
    """The zero module over a 1 x ne grid."""
    return chain_module([0] * ne, [np.zeros((0, 0))] * (ne - 1))


class TestLinearize:
    def test_line_example_dims(self, full4):
        _, m = full4
        eps = list(m.eps_values)
        sig = list(m.sigma_values)
        assert m.dims[(eps.index(0.0), sig.index(3.0))] == 4
        assert m.dims[(eps.index(7.5), sig.index(3.0))] == 1
        assert m.dims[(eps.index(0.0), sig.index(0.0))] == 1

    def test_budget_enforced(self, line4):
        fo = pset.LeveledMergeForest(line4)
        with pytest.raises(linalg.BudgetError):
            linalg.linearize(pset.fresh_view(fo), dim_budget=10)

    def test_budget_refused_before_the_label_pass(self, monkeypatch):
        # n = 160 with random densities has a level per point: building every
        # grade's labels took seconds and gigabytes before the budget was read
        sp = random_space(np.random.default_rng(160), n=160, d=2)
        view = pset.fresh_view(pset.LeveledMergeForest(sp))

        def no_labels(*_):
            raise AssertionError("grade bases built for an over-budget view")

        monkeypatch.setattr(linalg, "_grade_bases", no_labels)
        with pytest.raises(linalg.BudgetError, match="at least"):
            linalg.linearize(view)

    def test_budget_refused_before_the_critical_scales(self, monkeypatch):
        # the critical scales include 0, so the levels alone bound the total
        # dimension: at n = 3000 gathering every level's gaps first took
        # 0.1 s and 112 MiB only to raise
        sp = random_space(np.random.default_rng(160), n=160, d=2)
        view = pset.fresh_view(pset.LeveledMergeForest(sp))

        def no_scales(*_):
            raise AssertionError("critical scales computed for an over-budget view")

        monkeypatch.setattr(pset.ChainLevels, "critical_scales", no_scales)
        with pytest.raises(linalg.BudgetError, match="at least 160,"):
            linalg.linearize(view)

    def test_dims_match_grade_dims_helper(self, line4):
        fo = pset.LeveledMergeForest(line4)
        view = pset.fresh_view(fo).restrict(3, 2)
        module = linalg.linearize(view, dim_budget=BUDGET)
        assert module.dims == linalg.grade_dims(view)


    def test_linearize_makes_no_distance_matrix(self, line4, monkeypatch):
        # the default grid was every pairwise distance, off a distance matrix;
        # it is now the critical scales, read off the chains
        view = pset.fresh_view(pset.LeveledMergeForest(line4))
        asked = []
        make = type(line4).distance_matrix
        monkeypatch.setattr(type(line4), "distance_matrix",
                            lambda self: asked.append(self) or make(self))
        linalg.linearize(view, dim_budget=BUDGET)
        linalg.grade_dims(view)
        assert asked == []


@pytest.mark.parametrize("levels", [1, 10], ids=["flat", "ties"])
def test_default_grid_refuses_without_a_distance_matrix(levels):
    # the full grid's matrix of 3,000 points is 69 MiB, and linearize made it
    # before it read the budget; the critical scales come off the chains
    rng = np.random.default_rng(3000)
    sp = AugmentedMetricSpace(points=rng.random((3000, 2)),
                              density=rng.integers(0, levels, 3000).astype(float))
    view = pset.fresh_view(pset.LeveledMergeForest(sp))
    tracemalloc.start()
    try:
        with pytest.raises(linalg.BudgetError):
            linalg.linearize(view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


class TestGridModule:
    def test_noncommuting_square_rejected(self):
        with pytest.raises(ValueError, match="commute"):
            linalg.GridModule(
                eps_values=(0.0, 1.0),
                sigma_values=(0.0, 1.0),
                dims={(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                right_maps={
                    (0, 0): np.array([[1]], dtype=np.int64),
                    (0, 1): np.array([[0]], dtype=np.int64),
                },
                up_maps={
                    (0, 0): np.array([[1]], dtype=np.int64),
                    (1, 0): np.array([[1]], dtype=np.int64),
                },
            )

    def test_missing_covering_map_rejected(self):
        one = np.array([[1]], dtype=np.int64)
        with pytest.raises(ValueError, match=r"missing right_maps entry at grade \(0, 1\)"):
            linalg.GridModule(
                eps_values=(0.0, 1.0),
                sigma_values=(0.0, 1.0),
                dims={(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                right_maps={(0, 0): one},
                up_maps={(0, 0): one, (1, 0): one},
            )

    def test_missing_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"missing dimension at grade \(1, 0\)"):
            linalg.GridModule(eps_values=(0.0, 1.0), sigma_values=(0.0,), dims={(0, 0): 1},
                              right_maps={(0, 0): np.array([[1]], dtype=np.int64)}, up_maps={})

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            chain_module([1, 2], [np.array([[1]])])


class TestIdempotent:
    def test_matrix_at_birth_grade(self, full4):
        _, m = full4
        phi = linalg.idempotent_from_peel(m, 3, 2)
        eps = list(m.eps_values)
        sig = list(m.sigma_values)
        g = (eps.index(0.0), sig.index(3.0))
        # basis [x0],[x1],[x2],[x3]: the last basis vector maps onto [x2]
        expect = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0]], dtype=np.int64
        )
        assert np.array_equal(phi.mats[g], expect)

    def test_identity_morphism_is_idempotent(self, full4):
        _, m = full4
        ident = linalg.ModuleMorphism(m, {g: np.eye(m.dims[g], dtype=np.int64) for g in m.grades()})
        ident.check_natural()
        ident.check_idempotent()

    def test_unrooted_pair_rejected(self, full4):
        _, m = full4
        with pytest.raises(linalg.ConsistencyError, match="rooted"):
            linalg.idempotent_from_peel(m, 1, 0)

    @pytest.mark.parametrize("made", [
        lambda m: chain_module([1, 1], [np.array([[1]])]),
        lambda m: replace(m),  # a copy drops the view
        lambda m: linalg.split(linalg.idempotent_from_peel(m, 3, 2))[0],
    ], ids=["by-hand", "copy", "split-factor"])
    def test_a_module_linearize_did_not_make_is_refused(self, full4, made):
        other = made(full4[1])
        with pytest.raises(linalg.ConsistencyError, match="not linearized from a peel view"):
            linalg.idempotent_from_peel(other, 3, 2)
        with pytest.raises(linalg.ConsistencyError, match="not linearized from a peel view"):
            linalg.idempotent_from_peel(other, int(full4[0].forest.perm[0]), None)

    def test_bottom_record_of_another_generator_is_refused(self, full4):
        view, m = full4
        first = int(view.forest.perm[0])
        bottom = linalg.split_dims(linalg.idempotent_from_peel(m, first, None))[1]
        assert bottom == {g: min(d, 1) for g, d in m.dims.items()}
        for x in view.survivors()[1:]:
            with pytest.raises(linalg.ConsistencyError, match=f"bottom generator {x} is not"):
                linalg.idempotent_from_peel(m, x, None)

    def test_forced_unrooted_pair_breaks_naturality(self, full4):
        _, m = full4
        with pytest.raises(linalg.ConsistencyError, match=r"naturality.*2\.5, 3\.0"):
            linalg.idempotent_from_peel(m, 1, 0, check_rooted=False)


class TestSplit:
    def test_peel_factor_is_the_support_interval(self, full4, line4):
        view, m = full4
        phi = linalg.idempotent_from_peel(m, 3, 2)
        fa, fb = linalg.split(phi)
        sup = rooted.interval_support(view, 3, 2)
        for (i, j), d in fa.dims.items():
            inside = sup.contains(m.eps_values[i], m.sigma_values[j])
            assert d == (1 if inside else 0)
            assert d + fb.dims[(i, j)] == m.dims[(i, j)]
        after = view.restrict(3, 2)
        assert fb.dims == linalg.grade_dims(after)

    def test_residual_of_another_view_fails_the_check(self, full4):
        # the peel of 3 toward 2 checked against the unpeeled view, and
        # against the view with 1 peeled instead
        view, module = full4
        support = rooted.interval_support(view, 3, 2)
        for after in (view, view._without(1)):
            why, _ = linalg.check_peel_split(module, after, 3, 2, support, dim_budget=BUDGET)
            assert why == "residual factor dimensions differ from the restricted view"
        assert linalg.check_peel_split(module, view.restrict(3, 2), 3, 2, support, dim_budget=BUDGET)[0] == ""

    def test_identity_splits_off_everything(self, full4):
        _, m = full4
        ident = linalg.ModuleMorphism(m, {g: np.eye(m.dims[g], dtype=np.int64) for g in m.grades()})
        fa, fb = linalg.split(ident)
        assert all(d == 0 for d in fa.dims.values())
        assert fb.dims == m.dims

    def test_zero_splits_off_nothing(self, full4):
        _, m = full4
        zero = linalg.ModuleMorphism(
            m, {g: np.zeros((m.dims[g], m.dims[g]), dtype=np.int64) for g in m.grades()}
        )
        fa, fb = linalg.split(zero)
        assert fa.dims == m.dims
        assert all(d == 0 for d in fb.dims.values())

    def test_non_idempotent_rejected(self):
        m = chain_module([2, 2], [np.eye(2, dtype=int)])
        bad = linalg.ModuleMorphism(
            m, {(0, 0): np.array([[0, 1], [0, 0]]), (1, 0): np.array([[0, 1], [0, 0]])}
        )
        with pytest.raises(linalg.ConsistencyError, match="idempotent"):
            linalg.split(bad)

    def test_split_dims_equal_full_split(self, full4):
        _, m = full4
        phi = linalg.idempotent_from_peel(m, 3, 2)
        da, db = linalg.split_dims(phi)
        fa, fb = linalg.split(phi)
        assert da == fa.dims and db == fb.dims

    def test_split_dims_are_ranks_on_random_peels(self):
        # every peel's idempotent and the last view's bottom idempotent: the
        # split dimensions are the exact ranks of id - phi and phi per grade
        rng = np.random.default_rng(31)
        checked = 0
        for t in range(12):
            sp = random_space(rng, n=int(rng.integers(2, 9)), mode=("random", "ties")[t % 2],
                              duplicates=(t % 3 == 0))
            fo = pset.LeveledMergeForest(sp)
            view = pset.fresh_view(fo)
            phis = []
            for r in rooted.peel_all(sp, forest=fo).records:
                if r.root is not None:
                    module = linalg.linearize(view, dim_budget=BUDGET, scales=eps_grid(fo))
                    phis.append(linalg.idempotent_from_peel(module, r.generator, r.root))
                    view = view.restrict(r.generator, r.root)
            phis.append(linalg.idempotent_from_peel(
                linalg.linearize(view, dim_budget=BUDGET, scales=eps_grid(fo)), int(fo.perm[0]), None))
            for phi in phis:
                da, db = linalg.split_dims(phi)
                for g, m in phi.mats.items():
                    assert da[g] == linalg.mat_rank(np.eye(len(m), dtype=np.int64) - m), (t, g)
                    assert db[g] == linalg.mat_rank(m), (t, g)
                    checked += 1
        assert checked > 4000

    def test_split_dims_rejects_a_non_idempotent(self):
        m = chain_module([2], [])
        twice = linalg.ModuleMorphism(m, {(0, 0): 2 * np.eye(2, dtype=np.int64)})
        with pytest.raises(linalg.ConsistencyError, match="idempotent"):
            linalg.split_dims(twice)

    def test_each_record_checks_its_idempotent_once(self, monkeypatch):
        # one compose(m, m) per grade of the record's module: the builder
        # checks naturality only, and split_dims checks idempotency once
        squares = []
        compose = linalg.compose

        def counting(a, b):
            squares.append(a is b)
            return compose(a, b)

        monkeypatch.setattr(linalg, "compose", counting)
        rng = np.random.default_rng(101)
        records = 0
        for t in range(4):
            sp = random_space(rng, n=8, mode=("random", "ties")[t % 2], duplicates=(t == 3))
            fo = pset.LeveledMergeForest(sp)
            view = pset.fresh_view(fo)
            for r in rooted.peel_all(sp, forest=fo).records:
                after = view if r.root is None else view._without(r.generator)
                module = linalg.linearize(view, dim_budget=BUDGET)
                squares.clear()
                why, _ = linalg.check_peel_split(module, after, r.generator, r.root, r.support,
                                                 BUDGET)
                assert why == ""
                assert sum(squares) == len(module.dims), (t, r.generator)
                view, records = after, records + 1
        assert records >= 16

    def test_a_writable_morphism_is_checked_again(self):
        # no verdict is kept on the morphism: each check squares the maps again
        m = chain_module([2], [])
        phi = linalg.ModuleMorphism(m, {(0, 0): np.eye(2, dtype=np.int64)})
        phi.check_idempotent()
        phi.mats[(0, 0)][0, 0] = 2
        with pytest.raises(linalg.ConsistencyError, match="idempotent"):
            phi.check_idempotent()


class TestEndomorphisms:
    def test_interval_has_scalar_endomorphisms_only(self):
        m = chain_module([1, 1], [np.array([[1]])])
        assert len(linalg.endomorphism_space(m, dim_budget=BUDGET)) == 1

    def test_two_distinct_intervals(self):
        m = chain_module([2, 1], [np.array([[1, 0]])])
        assert len(linalg.endomorphism_space(m, dim_budget=BUDGET)) == 3

    def test_residual_module_is_endo_simple(self, residual4):
        resid, _ = residual4
        basis = linalg.endomorphism_space(resid, dim_budget=BUDGET)
        assert len(basis) == 1
        for b in basis:
            b.check_natural()

    def test_budget_enforced(self, residual4):
        resid, _ = residual4
        with pytest.raises(linalg.BudgetError):
            linalg.endomorphism_space(resid, dim_budget=3)


class TestIndecomposability:
    def test_interval_true(self):
        m = chain_module([1, 1], [np.array([[1]])])
        assert linalg.is_indecomposable(m, dim_budget=BUDGET) is True

    def test_repeated_interval_false(self):
        m = chain_module([2, 2], [np.eye(2, dtype=int)])
        assert linalg.is_indecomposable(m, dim_budget=BUDGET) is False

    def test_two_distinct_intervals_false(self):
        m = chain_module([2, 1], [np.array([[1, 0]])])
        assert linalg.is_indecomposable(m, dim_budget=BUDGET) is False

    def test_residual_module_true(self, residual4):
        resid, _ = residual4
        assert linalg.is_indecomposable(resid, dim_budget=BUDGET) is True

    def test_zero_module_false(self):
        z = zero_module(1)
        assert linalg.is_indecomposable(z, dim_budget=BUDGET) is False


class TestBetti:
    def test_full_view_counts_generators(self, full4):
        _, m = full4
        assert linalg.betti0_total(m, dim_budget=BUDGET) == 4

    def test_zero_module(self):
        z = zero_module(2)
        assert linalg.betti0_total(z) == 0

    def test_residual_module(self, residual4):
        resid, _ = residual4
        assert linalg.betti0_total(resid, dim_budget=BUDGET) == 2

    def test_always_counts_survivors(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            sp = random_space(rng, n=int(rng.integers(2, 7)))
            fo = pset.LeveledMergeForest(sp)
            view = pset.fresh_view(fo)
            m = linalg.linearize(view, dim_budget=BUDGET)
            assert linalg.betti0_total(m, dim_budget=BUDGET) == sp.n
            trace = rooted.peel_all(sp, forest=fo)
            final = trace.final_view
            mf = linalg.linearize(final, dim_budget=BUDGET)
            assert linalg.betti0_total(mf, dim_budget=BUDGET) == len(final.survivors())


class TestExactKernel:
    def test_rank_matches_fraction_path(self):
        import sympy

        rng = np.random.default_rng(13)
        for _ in range(40):
            a = rng.integers(-3, 4, size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            assert linalg.mat_rank(a.astype(np.int64)) == sympy.Matrix(a.tolist()).rank()

    def test_nullspace(self):
        full = np.array([[1, 2], [3, 1]], dtype=np.int64)
        assert linalg.mat_rank(full) == 2
        assert linalg.mat_nullspace(full).shape == (0, 2)
        a = np.array([[1, 2], [3, 6]], dtype=np.int64)
        assert linalg.mat_rank(a) == 1
        null = linalg.mat_nullspace(a)
        assert null.shape == (1, 2)
        assert linalg.mats_equal(linalg.compose(a, null.T), linalg.mat_zero(2, 1))

    def test_solve_round_trip(self):
        a = linalg.as_field_matrix(np.array([[1, 0], [1, 2], [0, 1]], dtype=np.int64))
        x = linalg.as_field_matrix(np.array([[2], [3]], dtype=np.int64))
        b = linalg.compose(a, x)
        got = linalg.mat_solve(a, b)
        assert linalg.mats_equal(got, x)

    def test_solve_detects_inconsistency(self):
        a = linalg.as_field_matrix(np.array([[1], [0]], dtype=np.int64))
        b = linalg.as_field_matrix(np.array([[0], [1]], dtype=np.int64))
        with pytest.raises(linalg.ConsistencyError):
            linalg.mat_solve(a, b)

    def test_min_poly_of_projection(self):
        big = np.array([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]], dtype=object)
        coeffs = linalg._min_poly(big)
        # t^2 - t, low degree first
        assert coeffs == [Fraction(0), Fraction(-1), Fraction(1)]

    @staticmethod
    def min_poly_cases():
        """(name, matrix, its minimal polynomial or None) for seeded rational
        matrices, each conjugated by a random invertible one: an idempotent, a
        nilpotent, J with J^2 = 2I, a companion matrix, and block-diagonal
        matrices of endomorphisms as ``is_indecomposable`` builds them."""
        rng = np.random.default_rng(59)
        F = Fraction

        def conjugate(a):
            n = len(a)
            while True:
                p = linalg.as_field_matrix(rng.integers(-3, 4, size=(n, n)))
                if linalg.mat_rank(p) == n:
                    break
            return linalg.compose(linalg.compose(p, a), linalg.mat_solve(p, linalg.mat_identity(n)))

        def diag(*blocks):
            n = sum(len(b) for b in blocks)
            out, off = linalg.mat_zero(n, n), 0
            for b in blocks:
                out[off: off + len(b), off: off + len(b)] = linalg.as_field_matrix(np.asarray(b))
                off += len(b)
            return out

        shift = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        j2 = [[0, 2], [1, 0]]
        lead = [F(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(4)]
        companion = linalg.mat_zero(4, 4)
        companion[np.arange(1, 4), np.arange(3)] = F(1)
        companion[:, 3] = [-c for c in lead]
        yield "idempotent", conjugate(diag([[1]], [[1]], [[0]], [[0]])), [F(0), F(-1), F(1)]
        yield "nilpotent", conjugate(diag(shift, [[0]])), [F(0), F(0), F(0), F(1)]
        yield "j2", conjugate(diag(j2, j2)), [F(-2), F(0), F(1)]
        yield "companion", conjugate(companion), lead + [F(1)]
        yield "identity", linalg.mat_identity(3), [F(-1), F(1)]
        yield "zero", linalg.mat_zero(3, 3), [F(0), F(1)]
        yield "mixed-blocks", conjugate(diag(shift, j2, [[F(1, 2)]])), None
        module = chain_module([2, 1, 2], [np.array([[1, 0]]), np.array([[1], [0]])])
        bigs = [linalg._block_matrix(b) for b in linalg.endomorphism_space(module, BUDGET)]
        for k in range(4):
            coefs = rng.integers(-3, 4, size=len(bigs))
            yield f"endomorphism-{k}", sum(F(int(c)) * b for c, b in zip(coefs, bigs)), None

    def test_min_poly_annihilates_and_is_least(self):
        for name, big, want in self.min_poly_cases():
            coeffs = linalg._min_poly(big)
            assert coeffs[-1] == 1, name
            if want is not None:
                assert coeffs == want, name
            n, deg = len(big), len(coeffs) - 1
            value = linalg.mat_zero(n, n)
            for c in reversed(coeffs):  # Horner
                value = linalg.compose(value, big) + c * linalg.mat_identity(n)
            assert np.count_nonzero(value) == 0, name
            powers = [linalg.mat_identity(n)]
            for _ in range(deg - 1):
                powers.append(linalg.compose(powers[-1], big))
            flat = np.stack([p.reshape(-1) for p in powers[:deg]])
            assert linalg.mat_rank(flat) == deg, name


def endomorphism_basis(monkeypatch, *mats):
    """A one-grade module of dimension 2 whose endomorphism space is made to
    be the span of the given 2 x 2 matrices; counts the minimal polynomials
    ``is_indecomposable`` then computes."""
    module = chain_module([2], [])
    basis = [linalg.ModuleMorphism(module, {(0, 0): np.asarray(m, dtype=np.int64)})
             for m in mats]
    monkeypatch.setattr(linalg, "endomorphism_space", lambda m, dim_budget: basis)
    polys = []
    min_poly = linalg._min_poly
    monkeypatch.setattr(linalg, "_min_poly", lambda big: polys.append(big) or min_poly(big))
    return module, polys


class TestIndecomposabilityTail:
    # neither span splits: each tries its basis and the 24 random combinations,
    # then the trace form's radical decides

    def test_local_algebra_is_certified_by_the_radical(self, monkeypatch):
        # span{I, N} with N^2 = 0: the radical is span{N}, of codimension one
        module, polys = endomorphism_basis(monkeypatch, np.eye(2), [[0, 1], [0, 0]])
        assert linalg.is_indecomposable(module, dim_budget=BUDGET) is True
        assert len(polys) > 2 + 16

    def test_a_field_extension_is_left_undecided(self, monkeypatch):
        # span{I, J} with J^2 = 2I is QQ(sqrt 2): no idempotent, zero radical
        module, polys = endomorphism_basis(monkeypatch, np.eye(2), [[0, 2], [1, 0]])
        assert linalg.is_indecomposable(module, dim_budget=BUDGET) is None
        assert len(polys) > 2 + 16


class TestSubsetIdempotents:
    @staticmethod
    def subset_morphism(view, module, members, witness):
        """Matrix realization of the endomorphism sending the subset's
        generators to the witness: a class moves to the witness's class
        exactly when its canonically first surviving member lies in the
        subset."""
        fo = view.forest
        mset = {int(m) for m in members}
        pw = int(fo.pos_of[witness])
        mats = {}
        for g, (labels, basis) in linalg._grade_bases(view, module.eps_values).items():
            points = [pw if int(fo.perm[rep]) in mset and pw < len(labels) else rep for rep in basis]
            mats[g] = linalg._class_map(points, labels, basis)
        return linalg.ModuleMorphism(module, mats)

    def test_found_subsets_induce_valid_idempotents(self):
        from conftest import random_space as rspace

        rng = np.random.default_rng(777)
        confirmed = 0
        for t in range(60):
            sp = rspace(rng, n=int(rng.integers(2, 8)), duplicates=(t % 4 == 0))
            fo = pset.LeveledMergeForest(sp)
            view = pset.fresh_view(fo)
            members = list(rng.choice(sp.n, size=int(rng.integers(1, sp.n)), replace=False))
            witness = rooted.is_rooted_subset(view, members)
            if witness is None:
                continue
            module = linalg.linearize(view, dim_budget=BUDGET)
            phi = self.subset_morphism(view, module, members, witness)
            phi.check_natural()
            phi.check_idempotent()
            da, db = linalg.split_dims(phi)
            assert all(
                da[g] + db[g] == module.dims[g] for g in module.grades()
            )
            confirmed += 1
        assert confirmed >= 10

    def test_unrooted_full_complement_has_no_valid_idempotent(self, line4):
        # sending an unrooted generator anywhere denser must break naturality
        fo = pset.LeveledMergeForest(line4)
        view = pset.fresh_view(fo)
        module = linalg.linearize(view, dim_budget=BUDGET)
        for x, y in ((1, 0), (2, 0), (2, 1)):
            phi = self.subset_morphism(view, module, [x], y)
            with pytest.raises(linalg.ConsistencyError):
                phi.check_natural()


def test_residual_fixture_file_round_trips(residual4):
    import pathlib

    resid, _ = residual4
    raw = pathlib.Path(__file__).parent / "data" / "residual_module.json"
    assert (module_json(resid) + "\n").encode() == raw.read_bytes()
    assert linalg.is_indecomposable(resid, dim_budget=100000) is True


# -- the critical grid ------------------------------------------------------------


def exact_verdicts(fo, records, full):
    """``check_peel_split``'s verdict on each record in turn, with the first
    module linearized on the full grid or on the critical scales, up to the
    first failure or the bottom record; a ConsistencyError or a record the
    view cannot apply is a verdict too."""
    view = pset.fresh_view(fo)
    module = linalg.linearize(view, dim_budget=BUDGET, scales=eps_grid(fo) if full else None)
    out = []
    for r in records:
        try:
            after = view if r.root is None else view._without(r.generator)
            why, module = linalg.check_peel_split(module, after, r.generator, r.root, r.support,
                                                  BUDGET)
        except (linalg.ConsistencyError, pset.QueryError) as e:
            why = f"raises {e}"
        out.append(why)
        if why or r.root is None:
            return out
        view = after
    return out


def oracle_spaces(n, kinds):
    """Seeded n-point spaces: random or tied densities, duplicate points, or
    ``#matrix`` input (rounded distances, so with ties)."""
    rng = np.random.default_rng(n)
    for kind in kinds:
        sp = random_space(rng, n=n, d=2, mode="ties" if kind == "ties" else "random",
                          duplicates=kind == "duplicates")
        if kind == "matrix":
            sp = AugmentedMetricSpace(dist=np.round(sp.distance_matrix() * 8), density=sp.density)
        yield kind, sp


def with_theta(r, theta):
    """Record r with its first threshold run moved to ``theta``."""
    (birth, _), *rest = r.support.breaks
    rest = [(s, min(t, theta)) for s, t in rest]
    return replace(r, support=rooted.IntervalSupport(birth, ((birth, theta), *rest)))


def tamperings(fo, records, rng):
    """(name, records) pairs: the trace with a record given another survivor
    as root, two records swapped, one dropped or repeated, and a theta moved
    to another critical scale; each at a drawn record before the bottom one."""
    k = int(rng.integers(len(records) - 1))
    r = records[k]
    others = [int(p) for p in fo.perm if int(p) not in (r.generator, r.root)]
    scales = fo.critical_scales()
    yield "root", records[:k] + [replace(r, root=int(rng.choice(others)))] + records[k + 1:]
    yield "swap", records[:k] + records[k + 1 : k + 2] + [r] + records[k + 2:]
    yield "drop", records[:k] + records[k + 1:]
    yield "repeat", records[: k + 1] + records[k:]
    yield "theta", records[:k] + [with_theta(r, float(rng.choice(scales)))] + records[k + 1:]


@pytest.mark.parametrize("n, kinds", [
    (8, ("random", "ties", "duplicates", "matrix") * 2),
    (12, ("ties", "duplicates")),
    (20, ("random", "matrix")),
])
def test_critical_grid_verdicts_equal_the_full_grid(n, kinds):
    rng = np.random.default_rng(n)
    for kind, sp in oracle_spaces(n, kinds):
        fo = pset.LeveledMergeForest(sp)
        records = rooted.peel_all(sp, forest=fo).records
        assert exact_verdicts(fo, records, full=False) == [""] * len(records), kind
        if n == 20:  # the full grid at n = 20 takes seconds a trace: a prefix
            records = records[:3]
        assert exact_verdicts(fo, records, full=True) == [""] * len(records), kind
        for name, tampered in tamperings(fo, records, rng) if n < 20 else ():
            want = exact_verdicts(fo, tampered, full=True)
            assert exact_verdicts(fo, tampered, full=False) == want, (kind, name)


def test_critical_grid_verdicts_on_the_replay_tamperings():
    # the records test_cli's replay test tampers with, handed to the exact
    # check as they are
    from test_cli import SEVEN, TAMPERINGS

    from rootpeel.space import load_points

    sp = load_points(SEVEN, density_column="f")
    fo = pset.LeveledMergeForest(sp)
    for name, tamper in TAMPERINGS.items():
        records = tamper(rooted.peel_all(sp, forest=fo).records)
        want = exact_verdicts(fo, records, full=True)
        assert exact_verdicts(fo, records, full=False) == want, name


def test_a_threshold_between_critical_scales_fails():
    # a full grid's distance that is no merge scale, or a point between two
    # merge scales, looks like its lower scale on the critical grid: the
    # check names it instead of passing it. The full grid fails it too.
    rng = np.random.default_rng(5)
    checked = 0
    for kind, sp in oracle_spaces(8, ("random", "ties", "duplicates", "matrix") * 2):
        fo = pset.LeveledMergeForest(sp)
        records = rooted.peel_all(sp, forest=fo).records
        scales = fo.critical_scales()
        distances = np.setdiff1d(np.unique(sp.distance_matrix()), scales)
        k = int(rng.integers(len(records) - 1))
        first = records[k].support.breaks[0][1]
        for theta in {float(rng.choice(distances)) if len(distances) else None,
                      float(scales[-2] + scales[-1]) / 2, first / 2 if first else None} - {None}:
            if theta in scales:
                continue
            tampered = records[:k] + [with_theta(records[k], theta)] + records[k + 1:]
            got = exact_verdicts(fo, tampered, full=False)
            assert got == [""] * k + [f"support threshold {theta!r} is not a scale of the module's grid"]
            checked += 1
    assert checked >= 16


def test_readme_library_tour_runs(capsys):
    # the README's python block, as a reader would paste it
    import pathlib
    import re

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (tour,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    exec(compile(tour, "README.md", "exec"), {"__name__": "readme"})
    assert "intervals certified" in capsys.readouterr().out
