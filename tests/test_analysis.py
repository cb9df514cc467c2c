import numpy as np
import pytest

from steanedec import analysis
from steanedec.analysis import (CorrelationReport, HookSignatureSet,
                                MonitorRow, attribution_correlations,
                                derive_hook_signatures, fit_infidelity,
                                fit_scaling, ft_contract, ft_monitor,
                                hook_excess, infidelity_model,
                                logical_error_rate, prepare_monitor,
                                wilson_interval)
from steanedec.circuits import FX, FZ, SX, SZ
from steanedec.seqlut import SeqLutDecoder
from steanedec.sim import (AlwaysFlipDecoder, IdentityDecoder, NoiseModel,
                           dep_failure_fraction, sample_memory_batch)
from steanedec.steane import steane_code


@pytest.fixture(scope="module")
def code():
    return steane_code()


class TestWilson:
    def test_zero_successes_of_ten(self):
        w = wilson_interval(0, 10)
        assert w.p_hat == 0.0
        assert w.p_min == 0.0
        assert abs(w.p_max - (0.05 + 0.05) / 1.1) < 1e-9

    def test_all_successes_mirrored(self):
        w = wilson_interval(10, 10)
        assert w.p_max == 1.0
        assert abs(w.p_min - (1 - (0.05 + 0.05) / 1.1)) < 1e-9

    def test_symmetrized_sigma(self):
        w = wilson_interval(0, 10)
        assert abs(w.sigma - 2 * w.p_max) < 1e-9

    def test_asymptotic_half_width(self):
        n = 10 ** 6
        w = wilson_interval(n // 2, n)
        assert abs((w.p_max - w.p_min) / 2 - 0.5 / np.sqrt(n)) < 1e-8

    def test_contains_estimate_and_shrinks(self):
        widths = []
        for n in (100, 1000, 10000):
            w = wilson_interval(int(0.3 * n), n)
            assert w.p_min <= w.p_hat <= w.p_max
            widths.append(w.p_max - w.p_min)
        assert widths[0] > widths[1] > widths[2]

    def test_cutoff_extends_above_40(self):
        assert wilson_interval(3, 41).p_min == 0.0
        assert wilson_interval(3, 40).p_min > 0.0

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)


class TestFits:
    def test_infidelity_planted_recovery(self):
        t = np.arange(1, 11)
        y = infidelity_model(t, 0.01, 0.5)
        fit = fit_infidelity(t, y)
        assert abs(fit.params[0] - 0.01) < 1e-6
        assert abs(fit.params[1] - 0.5) < 1e-6

    def test_infidelity_zero(self):
        fit = fit_infidelity([1, 2, 3], [0.0, 0.0, 0.0])
        assert fit.params[0] == 0.0

    def test_infidelity_noisy_within_error(self):
        rng = np.random.default_rng(3)
        t = np.arange(1, 9)
        p_true = 0.02
        shots = 10 ** 5
        y = rng.binomial(shots, infidelity_model(t, p_true, 0.3)) / shots
        fit = fit_infidelity(t, y)
        sigma = max(wilson_interval(int(y[0] * shots), shots).sigma, 1e-4)
        assert abs(fit.params[0] - p_true) < 5 * sigma

    def test_scaling_exact_quadratic(self):
        p = np.array([1e-3, 2e-3, 5e-3])
        fit = fit_scaling(p, 7.0 * p ** 2)
        assert abs(fit.params[1] - 2.0) < 1e-9
        assert abs(fit.params[0] - 7.0) < 1e-6

    def test_scaling_linear(self):
        p = np.array([1e-3, 4e-3])
        fit = fit_scaling(p, 0.5 * p)
        assert abs(fit.params[1] - 1.0) < 1e-9

    def test_scaling_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_scaling([1e-3, 2e-3], [0.0, 1e-5])


class TestCorrelations:
    def test_duplicated_channel(self):
        rng = np.random.default_rng(0)
        attr = rng.normal(size=(500, 4, 12))
        attr[:, :, 5] = attr[:, :, 3]
        rep = attribution_correlations(attr, lag=0)
        assert rep.matrix[3, 5] == pytest.approx(1.0)
        assert np.allclose(np.diag(rep.matrix), 1.0)

    def test_independent_channels_small(self):
        rng = np.random.default_rng(1)
        attr = rng.normal(size=(10 ** 4, 2, 12))
        rep = attribution_correlations(attr, lag=0)
        off = rep.matrix[~np.eye(12, dtype=bool)]
        assert np.abs(off).max() < 0.05

    def test_symmetry_at_lag_zero(self):
        rng = np.random.default_rng(2)
        attr = rng.normal(size=(200, 3, 12))
        rep = attribution_correlations(attr, lag=0)
        assert np.allclose(rep.matrix, rep.matrix.T)

    def test_lagged_shift_detected(self):
        rng = np.random.default_rng(3)
        attr = rng.normal(size=(2000, 5, 12))
        attr[:, 1:, 7] = attr[:, :-1, 2]  # channel 7 copies channel 2, lagged
        rep = attribution_correlations(attr, lag=1)
        assert rep.matrix[2, 7] == pytest.approx(1.0)

    def test_zero_variance_flagged(self):
        rng = np.random.default_rng(4)
        attr = rng.normal(size=(100, 2, 12))
        attr[:, :, 9] = 0.0
        rep = attribution_correlations(attr, lag=0)
        assert rep.zero_variance[9]
        assert np.all(rep.matrix[9] == 0.0)


class TestHookSignatures:
    def test_bit_flip_pairs(self, code):
        sig = derive_hook_signatures(code, basis="Z")
        assert set(sig.hook) == {(FX[0], SZ[1], 0), (FX[1], SZ[2], 0),
                                 (FX[2], SZ[1], 0)}

    def test_phase_flip_pairs(self, code):
        sig = derive_hook_signatures(code, basis="X")
        assert set(sig.hook) == {(FZ[0], SX[1], 1), (FZ[1], SX[2], 1),
                                 (FZ[2], SX[1], 1)}

    def test_disjoint_and_partition(self, code):
        sig = derive_hook_signatures(code, basis="Z")
        assert not set(sig.hook) & set(sig.baseline)
        assert len(sig.hook) + len(sig.baseline) == 9

    def test_hook_excess_on_synthetic(self, code):
        sig = derive_hook_signatures(code, basis="Z")
        rng = np.random.default_rng(5)
        attr = rng.normal(size=(3000, 3, 12)) * 0.1
        for cf, cs, lag in sig.hook:
            attr[:, :, cs] += attr[:, :, cf]
        rep = attribution_correlations(attr, lag=0)
        hook_mean, base_mean = hook_excess(rep, sig)
        assert hook_mean > 2 * base_mean
        assert hook_mean > 0.15


class TestLogicalErrorRate:
    def test_seqlut_noiseless(self, code):
        dec = SeqLutDecoder(code)
        res = logical_error_rate(dec, code, NoiseModel(0.0), "Z",
                                 rounds=range(1, 3 + 1),
                                 shots_per_point=200, seed=0)
        assert res.p_l == 0.0
        assert not res.infidelity.any()

    def test_seqlut_small_sweep_positive(self, code):
        dec = SeqLutDecoder(code)
        res = logical_error_rate(dec, code, NoiseModel(0.01), "Z",
                                 rounds=range(1, 4 + 1),
                                 shots_per_point=4000, seed=1)
        assert 0.0 < res.p_l < 0.1

    def test_one_round_is_failure_rate(self, code):
        dec = IdentityDecoder()
        res = logical_error_rate(dec, code, NoiseModel(0.03), "Z",
                                 rounds=[2], shots_per_point=500, seed=3)
        batch = sample_memory_batch(code, NoiseModel(0.03), T=2, basis="Z",
                                    shots=500, seed=3 + 2000)
        k = int((dec.predict_flips_batch(batch) ^ batch.m_L).sum())
        assert k > 0
        assert res.fit is None
        assert list(res.rounds) == [2]
        assert res.p_l == wilson_interval(k, 500).p_hat


def per_epoch_monitor_rows(decoders, code, sweep, basis, rounds, shots,
                           seed):
    """(epoch, DEP, p_L per point, b) with every epoch sampling its own
    volumes, as the monitor did before it sampled them once."""
    rows = []
    for epoch, decoder in decoders:
        dep = dep_failure_fraction(decoder, code, basis, cycles=2)
        p_ls = {}
        for p in sweep:
            if len(rounds) > 1:
                p_ls[p] = logical_error_rate(decoder, code, NoiseModel(p),
                                             basis, rounds, shots, seed).p_l
                continue
            t, = rounds
            batch = sample_memory_batch(code, NoiseModel(p), T=t,
                                        basis=basis, shots=shots,
                                        seed=seed + 1000 * t)
            p_ls[p] = float((decoder.predict_flips_batch(batch)
                             ^ batch.m_L).mean())
        b = fit_scaling(list(p_ls), list(p_ls.values())).params[1] \
            if all(v > 0 for v in p_ls.values()) else float("nan")
        rows.append((epoch, dep, p_ls, b))
    return rows


class TestFtMonitor:
    @pytest.mark.parametrize("rounds", [(1, 2, 3), (2,)])
    def test_rows_equal_per_epoch_sampling(self, code, rounds, monkeypatch):
        sweep, shots, seed = (0.01, 0.03), 600, 5
        decoders = [(0, IdentityDecoder()), (1, SeqLutDecoder(code)),
                    (2, AlwaysFlipDecoder()), (3, SeqLutDecoder(code))]
        expect = per_epoch_monitor_rows(decoders, code, sweep, "Z", rounds,
                                        shots, seed)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["T"])
            return sample_memory_batch(*args, **kwargs)
        monkeypatch.setattr(analysis, "sample_memory_batch", counted)
        rows = ft_monitor(iter(decoders), code, sweep, "Z", rounds, shots,
                          seed)
        # sampled once for all epochs: one batch per point and round
        assert len(calls) == len(sweep) * len(rounds)
        got = [(r.epoch, r.dep_failure, r.p_l, r.scaling_b) for r in rows]
        assert len(got) == len(expect)
        for g, e in zip(got, expect):
            assert g[:3] == e[:3]
            assert g[3] == e[3] or (np.isnan(g[3]) and np.isnan(e[3]))

    def test_prepared_monitor_scores_like_ft_monitor(self, code,
                                                     monkeypatch):
        sweep, rounds, shots, seed = (0.01, 0.03), (1, 2, 3), 400, 9
        decoders = [(0, IdentityDecoder()), (1, SeqLutDecoder(code)),
                    (2, AlwaysFlipDecoder())]

        def attribution_fn(decoder):
            # a fixed attribution array per decoder type
            rng = np.random.default_rng(len(type(decoder).__name__))
            return rng.normal(size=(50, 3, 12))

        expect = ft_monitor(iter(decoders), code, sweep, "Z", rounds, shots,
                            seed, attribution_fn=attribution_fn)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["T"])
            return sample_memory_batch(*args, **kwargs)
        monkeypatch.setattr(analysis, "sample_memory_batch", counted)
        monitor = prepare_monitor(code, sweep, "Z", rounds, shots, seed,
                                  attribution_fn=attribution_fn)
        # one decoder a call, as a per-epoch callback scores them
        got = [monitor.score(epoch, decoder) for epoch, decoder in decoders]
        assert len(calls) == len(sweep) * len(rounds)
        # repr round-trips every float and prints NaN tracks equal
        assert repr(got) == repr(expect)
        assert not np.isnan(got[0].hook_mean)


# DEP reaches zero at epoch 5 and b settles from epoch 4; the hook gap
# over the 0.1 baseline rises from 0 to 0.4 before epoch 5
LEARNS = dict(dep=[0.3, 0.2, 0.1, 0.05, 0.01, 0.0, 0.0, 0.0],
              b=[1.0, 1.2, 1.5, 1.7, 1.9, 2.0, 2.05, 1.95],
              hook=[0.1, 0.1, 0.15, 0.3, 0.5, 0.6, 0.6, 0.6])


def planted_rows(**change):
    """Monitor rows for epochs 0..7: LEARNS with ``change`` applied."""
    run = dict(LEARNS, **change)
    return [MonitorRow(epoch, d, {}, b, h, 0.1) for epoch, (d, b, h)
            in enumerate(zip(run["dep"], run["b"], run["hook"]))]


@pytest.mark.filterwarnings("error")
class TestFtContract:
    def test_held(self):
        c = ft_contract(planted_rows())
        assert (c.verdict, c.reasons) == ("HELD", [])
        assert (c.dep_zero_epoch, c.settled_b_epoch) == (5, 4)
        assert c.gap_early == 0.0  # the first third of epochs 0..4
        # the largest gap before FT, not the mean (0.13)
        assert c.gap_max == pytest.approx(0.4)

    def test_onsets_three_epochs_apart_hold(self):
        c = ft_contract(planted_rows(b=[1.0, 1.2] + [2.0] * 6))
        assert (c.verdict, c.dep_zero_epoch, c.settled_b_epoch) == \
            ("HELD", 5, 2)

    @pytest.mark.parametrize("change,reason", [
        (dict(dep=[0.01] * 8), "DEP failure never reached zero"),
        (dict(b=[2.0] * 7 + [2.5]), "b never settled in [1.8, 2.2]"),
        (dict(b=[2.0] * 7 + [float("nan")]),
         "b never settled in [1.8, 2.2]"),
        (dict(b=[2.0] * 8, dep=[0.01] * 7 + [0.0]),
         "FT and scaling onsets do not co-occur"),
        (dict(dep=[0.0] * 8, b=[2.0] * 8),
         "DEP failure was zero at the first scored epoch: no earlier "
         "epoch to compare the attribution curves against"),
        (dict(hook=[0.2] * 8),
         "hook/baseline curves did not diverge before the FT epoch"),
        (dict(hook=[float("nan")] * 8),
         "hook/baseline curves did not diverge before the FT epoch"),
    ])
    def test_each_failed_branch(self, change, reason):
        c = ft_contract(planted_rows(**change))
        assert (c.verdict, c.reasons) == ("FAILED", [reason])
        if c.dep_zero_epoch == 0:
            assert (c.gap_early, c.gap_max) == (None, None)

    def test_divergence_threshold_scales_with_early_gap(self):
        # early gap 0.1 needs a max above 2 * 0.1 + 0.05 = 0.25
        hook = [0.2, 0.3, 0.3, 0.3, 0.34, 0.6, 0.6, 0.6]
        c = ft_contract(planted_rows(hook=hook))
        assert (c.gap_early, c.gap_max) == pytest.approx((0.1, 0.24))
        assert c.verdict == "FAILED"
        hook[3] = 0.36
        assert ft_contract(planted_rows(hook=hook)).verdict == "HELD"
