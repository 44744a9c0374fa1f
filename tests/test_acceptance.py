"""Acceptance gate: every shipped claim, checked at its stated tolerance.

Each test prints one PASS line when its criterion holds; a failed assertion is
the FAIL. Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see
the lines on passing runs).
"""

import math
import subprocess
import sys
import time

import numpy as np

from conftest import cli_env, elder_oracle, eps_grid, random_one_param, random_space
from rootpeel import experiment as ex
from rootpeel import linalg, pset, rooted
from rootpeel.space import AugmentedMetricSpace

BUDGET = 200_000


def _line4():
    return AugmentedMetricSpace(points=[[0.0], [7.5], [3.0], [5.0]], density=[0, 1, 2, 3])


def test_criterion_1_line_example_end_to_end():
    sp = _line4()
    trace = rooted.peel_all(sp)
    assert [(r.generator, r.root, r.reason) for r in trace.records] == [
        (3, 2, "neighborly"),
        (0, None, "bottom"),
    ]
    fo = pset.LeveledMergeForest(sp)
    sup = trace.records[0].support
    grid_eps = eps_grid(fo)
    inside = [
        (float(e), float(s))
        for s in fo.sigma_levels
        for e in grid_eps
        if sup.contains(float(e), float(s))
    ]
    assert inside == [(0.0, 3.0)]

    view = pset.fresh_view(fo)
    assert rooted.is_rooted_generator(view, 1) is None
    assert rooted.is_rooted_generator(view, 2) is None
    assert rooted.constant_conqueror(sp, 1, fo) == 0

    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        rooted.peel_all(sp)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"end-to-end peel took {best * 1e3:.3f} ms"
    print(f"ACCEPTANCE 1: four-point counterexample end-to-end ({best * 1e6:.0f} us): PASS")


def test_criterion_2_residual_module_oracle():
    sp = _line4()
    fo = pset.LeveledMergeForest(sp)
    view = pset.fresh_view(fo).restrict(3, 2)
    module = linalg.linearize(view, dim_budget=BUDGET)
    psi = linalg.bottom_idempotent(view, module=module, dim_budget=BUDGET)
    resid, bottom = linalg.split(module, psi)

    eps = list(module.eps_values)
    sig = list(module.sigma_values)
    assert eps == [0.0, 2.0, 2.5, 3.0, 4.5, 5.0, 7.5]
    assert sig == [0.0, 1.0, 2.0, 3.0]
    expected_rows = {
        3.0: [2, 2, 1, 0, 0, 0, 0],
        2.0: [2, 2, 2, 1, 0, 0, 0],
        1.0: [1, 1, 1, 1, 1, 1, 0],
        0.0: [0, 0, 0, 0, 0, 0, 0],
    }
    for s, row in expected_rows.items():
        got = [resid.dims[(i, sig.index(s))] for i in range(len(eps))]
        assert got == row, f"sigma={s}: {got} != {row}"
    # the split-off factor is the whole-module interval of the densest point
    assert all(d == 1 for d in bottom.dims.values())
    assert linalg.is_indecomposable(resid, dim_budget=BUDGET) is True
    assert linalg.betti0_total(resid, dim_budget=BUDGET) == 2
    print("ACCEPTANCE 2: residual module dimensions and indecomposability: PASS")


def test_criterion_3_split_replay_on_random_spaces():
    rng = np.random.default_rng(2024)
    checked = 0
    full_splits = 0
    for t in range(200):
        sp = random_space(
            rng,
            n=int(rng.integers(2, 9)),
            mode=("random", "ties")[t % 2],
            duplicates=(t % 3 == 0),
            collinear=(t % 5 == 0),
        )
        fo = pset.LeveledMergeForest(sp)
        trace = rooted.peel_all(sp, forest=fo)
        view = pset.fresh_view(fo)
        for r in trace.records:
            if r.reason == "bottom":
                continue
            module = linalg.linearize(view, dim_budget=BUDGET)
            phi = linalg.idempotent_from_peel(
                view, r.generator, r.root, module=module, dim_budget=BUDGET
            )
            da, db = linalg.split_dims(module, phi)
            after = view._restrict_unchecked(r.generator, r.root)
            resid_dims = linalg.grade_dims(after)
            for (i, j), d in da.items():
                inside = r.support.contains(module.eps_values[i], module.sigma_values[j])
                assert d == (1 if inside else 0), (t, r.generator, i, j)
                assert db[(i, j)] == resid_dims[(i, j)], (t, r.generator, i, j)
            if checked % 25 == 0:
                fa, fb = linalg.split(module, phi)
                assert fa.dims == da and fb.dims == db
                full_splits += 1
            checked += 1
            view = after
    assert checked > 200 and full_splits > 5
    print(f"ACCEPTANCE 3: split-vs-support replay on {checked} peels: PASS")


def test_criterion_4_count_invariants_on_1000_spaces():
    rng = np.random.default_rng(31415)
    t0 = time.perf_counter()
    sizes = []
    for k in range(1000):
        if k == 0:
            n = 2
        elif k == 1:
            n = 200
        else:
            n = int(round(math.exp(rng.uniform(math.log(2), math.log(200)))))
            n = max(2, min(200, n))
        sizes.append(n)
        sp = random_space(
            rng,
            n=n,
            d=int(rng.integers(1, 4)),
            mode=("random", "constant", "ties")[k % 3],
            duplicates=(k % 7 == 0),
        )
        pairs = rooted.nn_graph(sp).mutual_pairs
        trace = rooted.peel_all(sp)
        assert len(pairs) + 1 <= len(trace) <= n
        assert len(trace) >= 2
        bottoms = [r for r in trace.records if r.reason == "bottom"]
        assert len(bottoms) == 1 and bottoms[0].root is None
        assert bottoms[0].generator not in trace.final_view.removed
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    assert min(sizes) == 2 and max(sizes) == 200
    print(f"ACCEPTANCE 4: summand-count invariants on 1000 spaces ({elapsed:.1f}s): PASS")


def test_criterion_5_elder_rule_equivalence():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        births, merges = random_one_param(rng, max_n=50)
        assert rooted.elder_barcode_1d(births, merges) == elder_oracle(births, merges)
    print("ACCEPTANCE 5: elder-rule equivalence on 100 instances: PASS")


def test_criterion_6_limit_constants():
    assert abs(ex.b_constant(1) - 2.0 / 3.0) <= 1e-12
    assert abs(ex.b_constant(2) - 0.6215) <= 1e-3
    values = [ex.b_constant(d) for d in range(1, 201)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert 0.5 < values[-1] < 0.505
    assert abs(ex.c_constant(1) - 1.0 / 3.0) <= 1e-12
    assert abs(ex.c_constant(2) - 0.31) <= 1e-3
    print("ACCEPTANCE 6: limit constants b(d), c(d): PASS")


def test_criterion_7_monte_carlo_convergence():
    t0 = time.perf_counter()
    for d, target in ((1, 0.67), (2, 0.62)):
        cfg = ex.SamplerConfig("uniform", d)
        rep = ex.run_trials(cfg, "explicit", n=2000, trials=20, seed=97 + d)
        assert abs(rep.mean_mutual_fraction - target) <= 0.02, (
            d,
            rep.mean_mutual_fraction,
        )
        c = ex.c_constant(d)
        assert all(t.peeled_fraction >= c for t in rep.trials)
        # one density level: the greedy peel is the elder rule and peels every point
        assert [t.peeled_interval_count for t in rep.trials] == [t.n for t in rep.trials]
        assert all(t.mutual_pair_count + 1 <= t.peeled_interval_count for t in rep.trials)

    # a level per point; the count sits far above c(d), so the sandwich is the check
    for d in (1, 2, 3):
        rep = ex.run_trials(ex.SamplerConfig("uniform", d), "kde", n=2000, trials=4, seed=97 + d)
        for t in rep.trials:
            assert t.mutual_pair_count + 1 <= t.peeled_interval_count <= t.n, (d, t)

    # peeled counts are certified lower bounds; check the reported properties
    # instead of the instance-dependent published counts
    for mode in ("kde", "random"):
        row = ex.run_trials(ex.SamplerConfig("mixture", 2), mode, n=100, trials=5, seed=5)
        for t in row.trials:
            assert 2 <= t.peeled_interval_count <= t.n
            assert t.mutual_pair_count + 1 <= t.peeled_interval_count
            cert = t.peeled_interval_count == t.n
            assert (",yes" in row.to_csv().splitlines()[1 + t.trial]) == cert
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 7: Monte Carlo convergence ({elapsed:.1f}s): PASS")


def test_criterion_8_cli_determinism(tmp_path):
    data = tmp_path / "line4.csv"
    data.write_text("x,f\n0,0\n7.5,1\n3,2\n5,3\n")
    env = cli_env(ROOTPEEL_THREADS="2")
    invocations = [
        ["peel", "--input", str(data), "--density-column", "f"],
        ["nn", "--input", str(data), "--density-column", "f", "--format", "csv"],
        ["barcode", "--input", str(data), "--density-column", "f"],
        ["staircode", "--input", str(data), "--density-column", "f"],
        ["b-constant", "2"],
        ["simulate", "--d", "1", "--n", "50", "--trials", "4", "--seed", "13",
         "--density-mode", "random"],
        ["simulate", "--d", "2", "--n", "40", "--trials", "3", "--seed", "13",
         "--density-mode", "kde", "--format", "json"],
    ]
    for args in invocations:
        runs = [
            subprocess.run([sys.executable, "-m", "rootpeel.cli"] + args,
                           capture_output=True, env=env)
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, runs[0].stderr
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout, args
    print("ACCEPTANCE 8: byte-identical CLI reruns: PASS")
