import math
import warnings

import numpy as np
import pytest
from scipy.special import betainc as scipy_betainc

from rootpeel import experiment as ex


class TestBConstantSeries:
    def test_against_scipy_betainc(self):
        for d in range(1, 2001):
            ref = 1.0 / (2.0 - float(scipy_betainc((d + 1) / 2.0, 0.5, 0.75)))
            assert abs(ex.b_constant(d) - ref) <= 2 * math.ulp(ref), d

    def test_closed_forms(self):
        # I_{3/4}(1, 1/2) = 1/2 and I_{3/4}(2, 1/2) = 1/2 - t(1) = 5/16
        assert ex.b_constant(1) == 2.0 / 3.0
        assert ex.b_constant(3) == 16.0 / 27.0

    def test_nonincreasing_and_at_least_half(self):
        values = [ex.b_constant(d) for d in range(1, 5001)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert min(values) >= 0.5

    def test_largest_int64_dimension(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ex.b_constant(np.int64(2**63 - 1)) == 0.5


class TestLimitConstants:
    def test_dimension_one_exact(self):
        assert abs(ex.b_constant(1) - 2.0 / 3.0) < 1e-12
        assert abs(ex.c_constant(1) - 1.0 / 3.0) < 1e-12

    def test_dimension_two(self):
        assert abs(ex.b_constant(2) - 0.6215) < 1e-3
        assert abs(ex.c_constant(2) - 0.31) < 1e-3

    def test_strictly_decreasing_to_half(self):
        values = [ex.b_constant(d) for d in range(1, 201)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert 0.5 < values[-1] < 0.505

    def test_validation(self):
        for bad in (0, -3, 1.5, "2"):
            with pytest.raises(ValueError):
                ex.b_constant(bad)


class TestSamplers:
    def test_uniform_deterministic_and_in_cube(self):
        cfg = ex.SamplerConfig("uniform", 2)
        a = ex.sample(cfg, 100, seed=7)
        b = ex.sample(cfg, 100, seed=7)
        assert np.array_equal(a, b)
        assert a.shape == (100, 2)
        assert np.all((a >= 0) & (a < 1))

    def test_mixture_shape(self):
        cfg = ex.SamplerConfig("mixture", 2, peaks=5, spread=0.02)
        pts = ex.sample(cfg, 500, seed=3)
        assert pts.shape == (500, 2)

    def test_single_point(self):
        assert ex.sample(ex.SamplerConfig("uniform", 3), 1, seed=1).shape == (1, 3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ex.SamplerConfig("weird", 2)
        with pytest.raises(ValueError):
            ex.SamplerConfig("uniform", 0)
        with pytest.raises(ValueError):
            ex.SamplerConfig("mixture", 2, peaks=0)


class TestTrials:
    def test_result_invariants_hold_for_many_configs(self):
        # one seeded trial per config, mixing samplers, dims, and density modes
        rng = np.random.default_rng(42)
        for k in range(500):
            kind = ("uniform", "mixture")[k % 2]
            d = int(rng.integers(1, 4))
            mode = ("random", "explicit", "kde")[k % 3]
            n = int(rng.integers(2, 36))
            cfg = ex.SamplerConfig(kind, d)
            rep = ex.run_trials(cfg, mode, n=n, trials=1, seed=int(rng.integers(2**31)), n_jobs=1)
            t = rep.trials[0]
            assert t.peeled_interval_count >= t.mutual_pair_count + 1
            assert t.peeled_interval_count <= t.n
            assert t.peeled_fraction >= t.mutual_fraction / 2

    def test_reports_are_reproducible(self):
        cfg = ex.SamplerConfig("mixture", 2)
        a = ex.run_trials(cfg, "kde", n=40, trials=4, seed=11, n_jobs=1)
        b = ex.run_trials(cfg, "kde", n=40, trials=4, seed=11, n_jobs=1)
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    def test_parallel_equals_serial(self):
        cfg = ex.SamplerConfig("uniform", 1)
        a = ex.run_trials(cfg, "random", n=30, trials=4, seed=5, n_jobs=1)
        b = ex.run_trials(cfg, "random", n=30, trials=4, seed=5, n_jobs=2)
        assert a.to_csv() == b.to_csv()

    def test_trial_count_validated(self):
        with pytest.raises(ValueError):
            ex.run_trials(ex.SamplerConfig("uniform", 1), "random", n=5, trials=0, seed=0)

    def test_csv_shape(self):
        rep = ex.run_trials(ex.SamplerConfig("uniform", 1), "random", n=8, trials=3, seed=0, n_jobs=1)
        lines = rep.to_csv().strip().split("\n")
        assert lines[0].startswith("trial,n,d,sampler,density_mode")
        assert len(lines) == 4

    def test_summary_fields(self):
        rep = ex.run_trials(ex.SamplerConfig("uniform", 2), "explicit", n=12, trials=2, seed=1, n_jobs=1)
        s = rep.summary()
        assert s["config"]["n"] == 12
        assert s["b_reference"] == ex.b_constant(2)
        assert 0 <= s["mean_mutual_fraction"] <= 1


class TestTableReplica:
    def test_row_of_runs(self):
        rep = ex.run_trials(ex.SamplerConfig("mixture", 2), "kde", n=30, trials=5, seed=9, n_jobs=1)
        assert len(rep.trials) == 5
        for t in rep.trials:
            assert 2 <= t.peeled_interval_count <= t.n

    def test_certificate_fires_exactly_at_full_count(self):
        rep = ex.run_trials(ex.SamplerConfig("uniform", 1), "random", n=2, trials=3, seed=2, n_jobs=1)
        # two points always decompose fully into two intervals
        for line in rep.to_csv().strip().split("\n")[1:]:
            assert line.endswith(",yes")
            assert int(line.split(",")[7]) == 2
