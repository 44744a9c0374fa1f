from fractions import Fraction

import numpy as np
import pytest

from conftest import random_space
from rootpeel import linalg, pset, rooted
BUDGET = 100000


@pytest.fixture
def full4(line4):
    _, fo = pset.build(line4)
    view = pset.fresh_view(fo)
    return view, linalg.linearize(view, dim_budget=BUDGET)


@pytest.fixture
def residual4(line4):
    """The indecomposable leftover: peel the only rooted generator, then split
    off the whole-module interval induced by the densest point."""
    _, fo = pset.build(line4)
    view = pset.fresh_view(fo).restrict(3, 2)
    module = linalg.linearize(view, dim_budget=BUDGET)
    psi = linalg.bottom_idempotent(view, module=module, dim_budget=BUDGET)
    resid, bottom = linalg.split(module, psi)
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


class TestLinearize:
    def test_line_example_dims(self, full4):
        _, m = full4
        eps = list(m.eps_values)
        sig = list(m.sigma_values)
        assert m.dims[(eps.index(0.0), sig.index(3.0))] == 4
        assert m.dims[(eps.index(7.5), sig.index(3.0))] == 1
        assert m.dims[(eps.index(0.0), sig.index(0.0))] == 1

    def test_budget_enforced(self, line4):
        _, fo = pset.build(line4)
        with pytest.raises(linalg.BudgetError):
            linalg.linearize(pset.fresh_view(fo), dim_budget=10)

    def test_basis_reps_are_cluster_minima(self, full4):
        _, m = full4
        eps = list(m.eps_values)
        sig = list(m.sigma_values)
        assert m.basis_reps[(eps.index(2.0), sig.index(3.0))] == (0, 1, 2)

    def test_dims_match_grade_dims_helper(self, line4):
        _, fo = pset.build(line4)
        view = pset.fresh_view(fo).restrict(3, 2)
        module = linalg.linearize(view, dim_budget=BUDGET)
        assert module.dims == linalg.grade_dims(view)


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

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            chain_module([1, 2], [np.array([[1]])])

    def test_json_round_trip(self, residual4):
        resid, _ = residual4
        back = linalg.GridModule.from_json(resid.to_json())
        assert back.dims == resid.dims
        fld = linalg._field_of("QQ")
        for key, m in resid.right_maps.items():
            assert linalg.mats_equal(back.right_maps[key], m, fld)

    def test_map_between_composes(self, full4):
        _, m = full4
        comp = m.map_between((0, 0), (2, 1))
        step = linalg.compose(
            m.up_maps[(2, 0)], linalg.compose(m.right_maps[(1, 0)], m.right_maps[(0, 0)], m._fld), m._fld
        )
        assert linalg.mats_equal(comp, step, m._fld)


class TestIdempotent:
    def test_matrix_at_birth_grade(self, full4):
        view, m = full4
        phi = linalg.idempotent_from_peel(view, 3, 2, module=m, dim_budget=BUDGET)
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
        ident = linalg.ModuleMorphism(
            m, m, {g: np.eye(m.dims[g], dtype=np.int64) for g in m.grades()}
        )
        ident.check_natural()
        ident.check_idempotent()

    def test_unrooted_pair_rejected(self, full4):
        view, m = full4
        with pytest.raises(linalg.ConsistencyError, match="rooted"):
            linalg.idempotent_from_peel(view, 1, 0, module=m, dim_budget=BUDGET)

    def test_module_of_another_view_rejected(self, full4):
        view, _ = full4
        others = [
            linalg.linearize(view.restrict(3, 2), dim_budget=BUDGET),
            chain_module([1, 1], [np.array([[1]])]),
        ]
        for other in others:
            with pytest.raises(linalg.ConsistencyError, match="not linearized from this peel view"):
                linalg.idempotent_from_peel(view, 3, 2, module=other, dim_budget=BUDGET)
            with pytest.raises(linalg.ConsistencyError, match="not linearized from this peel view"):
                linalg.bottom_idempotent(view, module=other, dim_budget=BUDGET)

    def test_forced_unrooted_pair_breaks_naturality(self, full4):
        view, m = full4
        with pytest.raises(linalg.ConsistencyError, match=r"naturality.*2\.5, 3\.0"):
            linalg.idempotent_from_peel(
                view, 1, 0, module=m, dim_budget=BUDGET, check_rooted=False
            )


class TestSplit:
    def test_peel_factor_is_the_support_interval(self, full4, line4):
        view, m = full4
        phi = linalg.idempotent_from_peel(view, 3, 2, module=m, dim_budget=BUDGET)
        fa, fb = linalg.split(m, phi)
        sup = rooted.interval_support(view, 3, 2)
        for (i, j), d in fa.dims.items():
            inside = sup.contains(m.eps_values[i], m.sigma_values[j])
            assert d == (1 if inside else 0)
            assert d + fb.dims[(i, j)] == m.dims[(i, j)]
        after = view.restrict(3, 2)
        assert fb.dims == linalg.grade_dims(after)

    def test_identity_splits_off_everything(self, full4):
        _, m = full4
        ident = linalg.ModuleMorphism(
            m, m, {g: np.eye(m.dims[g], dtype=np.int64) for g in m.grades()}
        )
        fa, fb = linalg.split(m, ident)
        assert all(d == 0 for d in fa.dims.values())
        assert fb.dims == m.dims

    def test_zero_splits_off_nothing(self, full4):
        _, m = full4
        zero = linalg.ModuleMorphism(
            m, m, {g: np.zeros((m.dims[g], m.dims[g]), dtype=np.int64) for g in m.grades()}
        )
        fa, fb = linalg.split(m, zero)
        assert fa.dims == m.dims
        assert all(d == 0 for d in fb.dims.values())

    def test_non_idempotent_rejected(self):
        m = chain_module([2, 2], [np.eye(2, dtype=int)])
        bad = linalg.ModuleMorphism(
            m, m, {(0, 0): np.array([[0, 1], [0, 0]]), (1, 0): np.array([[0, 1], [0, 0]])}
        )
        with pytest.raises(linalg.ConsistencyError, match="idempotent"):
            linalg.split(m, bad)

    def test_split_over_prime_field(self):
        # idempotent mod 5 only: 6 * 6 = 36 = 6 mod 5
        e = np.array([[6, 0], [0, 0]], dtype=np.int64)
        m = linalg.GridModule(
            eps_values=(0.0, 1.0),
            sigma_values=(0.0,),
            dims={(0, 0): 2, (1, 0): 2},
            right_maps={(0, 0): np.eye(2, dtype=np.int64)},
            up_maps={},
            field=5,
        )
        phi = linalg.ModuleMorphism(m, m, {(0, 0): e, (1, 0): e})
        fa, fb = linalg.split(m, phi)
        assert fa.dims == fb.dims == {(0, 0): 1, (1, 0): 1}
        assert linalg.split_dims(m, phi) == (fa.dims, fb.dims)

    def test_split_dims_equal_full_split(self, full4):
        view, m = full4
        phi = linalg.idempotent_from_peel(view, 3, 2, module=m, dim_budget=BUDGET)
        da, db = linalg.split_dims(m, phi)
        fa, fb = linalg.split(m, phi)
        assert da == fa.dims and db == fb.dims


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

    def test_prime_field_variant(self):
        m = linalg.GridModule(
            eps_values=(0.0, 1.0),
            sigma_values=(0.0,),
            dims={(0, 0): 2, (1, 0): 1},
            right_maps={(0, 0): np.array([[1, 0]], dtype=np.int64)},
            up_maps={},
            field=5,
        )
        assert len(linalg.endomorphism_space(m, dim_budget=BUDGET)) == 3


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
        z = linalg.GridModule.zero((0.0,), (0.0,))
        assert linalg.is_indecomposable(z, dim_budget=BUDGET) is False

    def test_rationals_only(self):
        m = linalg.GridModule(
            eps_values=(0.0,),
            sigma_values=(0.0,),
            dims={(0, 0): 1},
            right_maps={},
            up_maps={},
            field=5,
        )
        with pytest.raises(ValueError, match="rationals"):
            linalg.is_indecomposable(m, dim_budget=BUDGET)


class TestBetti:
    def test_full_view_counts_generators(self, full4):
        _, m = full4
        assert linalg.betti0_total(m, dim_budget=BUDGET) == 4

    def test_zero_module(self):
        z = linalg.GridModule.zero((0.0, 1.0), (0.0,))
        assert linalg.betti0_total(z) == 0

    def test_residual_module(self, residual4):
        resid, _ = residual4
        assert linalg.betti0_total(resid, dim_budget=BUDGET) == 2

    def test_always_counts_survivors(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            sp = random_space(rng, n=int(rng.integers(2, 7)))
            _, fo = pset.build(sp)
            view = pset.fresh_view(fo)
            m = linalg.linearize(view, dim_budget=BUDGET)
            assert linalg.betti0_total(m, dim_budget=BUDGET) == sp.n
            trace = rooted.peel_all(sp, forest=fo)
            final = trace.final_view
            mf = linalg.linearize(final, dim_budget=BUDGET)
            assert linalg.betti0_total(mf, dim_budget=BUDGET) == final.survivor_count()


class TestExactKernel:
    def test_rank_matches_fraction_path(self):
        rng = np.random.default_rng(13)
        fld = linalg._field_of("QQ")
        for _ in range(40):
            a = rng.integers(-3, 4, size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            ia = a.astype(np.int64)
            assert linalg.mat_rank(ia) == linalg.mat_rank(linalg.as_field_matrix(ia, fld), fld)

    def test_prime_field_elimination(self):
        a = np.array([[1, 2], [3, 1]], dtype=np.int64)
        gf5 = linalg._field_of(5)
        assert linalg.mat_rank(a) == 2
        assert linalg.mat_rank(a, gf5) == 1
        assert linalg.mat_rank(linalg.as_field_matrix(a, gf5), gf5) == 1
        null = linalg.mat_nullspace(a, gf5)
        assert null.shape == (1, 2)
        assert linalg.mats_equal(linalg.compose(a, null.T, gf5), linalg.mat_zero(2, 1, gf5), gf5)
        assert linalg.mat_nullspace(a, linalg._field_of("QQ")).shape == (0, 2)

    def test_solve_round_trip(self):
        fld = linalg._field_of("QQ")
        a = linalg.as_field_matrix(np.array([[1, 0], [1, 2], [0, 1]], dtype=np.int64), fld)
        x = linalg.as_field_matrix(np.array([[2], [3]], dtype=np.int64), fld)
        b = linalg.compose(a, x, fld)
        got = linalg.mat_solve(a, b, fld)
        assert linalg.mats_equal(got, x, fld)

    def test_solve_detects_inconsistency(self):
        fld = linalg._field_of("QQ")
        a = linalg.as_field_matrix(np.array([[1], [0]], dtype=np.int64), fld)
        b = linalg.as_field_matrix(np.array([[0], [1]], dtype=np.int64), fld)
        with pytest.raises(linalg.ConsistencyError):
            linalg.mat_solve(a, b, fld)

    def test_min_poly_of_projection(self):
        big = np.array([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]], dtype=object)
        coeffs = linalg._min_poly(big)
        # t^2 - t, low degree first
        assert coeffs == [Fraction(0), Fraction(-1), Fraction(1)]


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
        for (i, j), (labels, basis) in linalg._grade_bases(view).items():
            d = module.dims[(i, j)]
            mat = np.zeros((d, d), dtype=np.int64)
            for col, rep in enumerate(basis):
                if int(fo.perm[rep]) in mset and pw < int(fo.level_sizes[j]):
                    rep = int(labels[pw])
                mat[basis[rep], col] = 1
            mats[(i, j)] = mat
        return linalg.ModuleMorphism(module, module, mats)

    def test_found_subsets_induce_valid_idempotents(self):
        from conftest import random_space as rspace

        rng = np.random.default_rng(777)
        confirmed = 0
        for t in range(60):
            sp = rspace(rng, n=int(rng.integers(2, 8)), duplicates=(t % 4 == 0))
            _, fo = pset.build(sp)
            view = pset.fresh_view(fo)
            members = list(rng.choice(sp.n, size=int(rng.integers(1, sp.n)), replace=False))
            witness = rooted.is_rooted_subset(view, members)
            if witness is None:
                continue
            module = linalg.linearize(view, dim_budget=BUDGET)
            phi = self.subset_morphism(view, module, members, witness)
            phi.check_natural()
            phi.check_idempotent()
            da, db = linalg.split_dims(module, phi)
            assert all(
                da[g] + db[g] == module.dims[g] for g in module.grades()
            )
            confirmed += 1
        assert confirmed >= 10

    def test_unrooted_full_complement_has_no_valid_idempotent(self, line4):
        # sending an unrooted generator anywhere denser must break naturality
        _, fo = pset.build(line4)
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
    loaded = linalg.GridModule.from_json(raw.read_text())
    assert loaded.dims == resid.dims
    assert loaded.eps_values == resid.eps_values
    fld = linalg._field_of("QQ")
    for key in resid.right_maps:
        assert linalg.mats_equal(loaded.right_maps[key], resid.right_maps[key], fld)
    for key in resid.up_maps:
        assert linalg.mats_equal(loaded.up_maps[key], resid.up_maps[key], fld)
    assert linalg.is_indecomposable(loaded, dim_budget=100000) is True
