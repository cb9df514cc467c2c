"""Statistics layer: Wilson intervals, infidelity and scaling fits,
attribution correlation matrices, hook-signature excess, and the
fault-tolerance learning monitor."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import curve_fit

from .circuits import ANC, FX, FZ, SX, SZ, FaultInjection, build_qec_cycle
from .sim import (MemoryBatch, NoiseModel, _fault_batch, sample_memory_batch,
                  single_fault_batch)
from .steane import CodeDefinition


# --- Wilson interval --------------------------------------------------------


@dataclass(frozen=True)
class WilsonResult:
    p_hat: float
    p_min: float
    p_max: float
    sigma: float


def wilson_interval(k: int, n: int, z2: float = 1.0) -> WilsonResult:
    """Wilson score interval with fringe cutoffs and symmetrized sigma.

    Bounds within 2 counts of the edge (3 for n > 40) are pinned to
    0 resp. 1; sigma is twice the larger deviation of the bounds from
    the point estimate.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, n >= 1; got k={k}, n={n}")
    p_hat = k / n
    z = np.sqrt(z2)
    denom = 1.0 + z2 / n
    center = p_hat + z2 / (2 * n)
    half = z * np.sqrt(p_hat * (1 - p_hat) / n + z2 / (4 * n * n))
    p_min = (center - half) / denom
    p_max = (center + half) / denom
    edge = 3 if n > 40 else 2
    if k <= edge:
        p_min = 0.0
    if n - k <= edge:
        p_max = 1.0
    sigma = 2.0 * max(abs(p_hat - p_max), abs(p_hat - p_min))
    return WilsonResult(p_hat, p_min, p_max, sigma)


# --- fits -------------------------------------------------------------------


@dataclass
class FitResult:
    params: tuple[float, ...]
    residual: float


def infidelity_model(t, p_l, t0):
    return 0.5 - 0.5 * (1.0 - 2.0 * p_l) ** (np.asarray(t, dtype=float) - t0)


def fit_infidelity(t, infid) -> FitResult:
    """Least-squares fit of the per-round logical flip model.

    Returns (p_L, t0). A flat-zero series short-circuits to p_L = 0.
    """
    t = np.asarray(t, dtype=float)
    infid = np.asarray(infid, dtype=float)
    if len(t) < 2:
        raise ValueError("need at least 2 points")
    if not infid.any():
        return FitResult((0.0, 0.0), 0.0)
    slope = max((infid[-1] - infid[0]) / (t[-1] - t[0]), 1e-9)
    p0 = (min(slope, 0.49), 0.0)
    popt, _ = curve_fit(infidelity_model, t, infid, p0=p0,
                        bounds=([0.0, -10.0], [0.5, 10.0]), maxfev=20000,
                        xtol=1e-14, ftol=1e-14, gtol=1e-14)
    resid = float(np.sqrt(np.mean((infidelity_model(t, *popt) - infid) ** 2)))
    return FitResult(tuple(popt), resid)


def fit_scaling(p_ph, p_l) -> FitResult:
    """Log-log least-squares fit of p_L = a * p_ph**b; returns (a, b)."""
    p_ph = np.asarray(p_ph, dtype=float)
    p_l = np.asarray(p_l, dtype=float)
    if len(p_ph) < 2:
        raise ValueError("need at least 2 points")
    if (p_ph <= 0).any() or (p_l <= 0).any():
        raise ValueError("scaling fit needs positive rates")
    b, log_a = np.polyfit(np.log(p_ph), np.log(p_l), 1)
    pred = np.exp(log_a) * p_ph ** b
    resid = float(np.sqrt(np.mean((np.log(pred) - np.log(p_l)) ** 2)))
    return FitResult((float(np.exp(log_a)), float(b)), resid)


# --- Monte-Carlo logical error rate ----------------------------------------


@dataclass
class ErrorRateResult:
    rounds: np.ndarray
    infidelity: np.ndarray
    sigma: np.ndarray
    fit: FitResult | None  # None when there is only one round

    @property
    def p_l(self) -> float:
        """The fitted per-round rate, or the failure rate of a single
        round."""
        if self.fit is None:
            return float(self.infidelity[0])
        return self.fit.params[0]


def logical_error_rate(decoder, code: CodeDefinition, noise, basis: str,
                       rounds, shots_per_point: int,
                       seed: int) -> ErrorRateResult:
    """Failure probability after each round count in ``rounds``. Over two
    or more rounds p_L is the per-round rate of the infidelity fit; over
    one it is the failure rate at that round count. The decoder exposes
    predict_flips_batch."""
    return _score_rounds(decoder, _sample_rounds(code, noise, basis, rounds,
                                                 shots_per_point, seed))


def _sample_rounds(code: CodeDefinition, noise, basis: str, rounds,
                   shots_per_point: int, seed: int) -> list[MemoryBatch]:
    """The batches `logical_error_rate` scores, one per round count t in
    ``rounds``, from stream ``seed + 1000 * t``."""
    return [sample_memory_batch(code, noise, T=int(t), basis=basis,
                                shots=shots_per_point, seed=seed + 1000 * t)
            for t in np.asarray(rounds)]


def _score_rounds(decoder, batches: list[MemoryBatch]) -> ErrorRateResult:
    """Decode the batches of `_sample_rounds`: Wilson points per round
    count, and the infidelity fit when there are two or more."""
    rounds = np.array([b.volumes.shape[1] for b in batches])
    infid = np.zeros(len(batches))
    sig = np.zeros(len(batches))
    for i, batch in enumerate(batches):
        pred = decoder.predict_flips_batch(batch)
        k = int((pred ^ batch.m_L).sum())
        w = wilson_interval(k, len(batch))
        infid[i] = w.p_hat
        sig[i] = max(w.sigma, 1e-12)
    fit = fit_infidelity(rounds, infid) if len(batches) >= 2 else None
    return ErrorRateResult(rounds, infid, sig, fit)


# --- attribution correlations ----------------------------------------------


@dataclass
class CorrelationReport:
    lag: int
    matrix: np.ndarray          # (12, 12), row = channel at t, col at t+lag
    n_samples: int
    zero_variance: np.ndarray   # (12,) bool flags per leading channel


def attribution_correlations(attributions: np.ndarray,
                             lag: int = 0) -> CorrelationReport:
    """Pearson correlation of channel a at round t with channel b at
    round t + lag, pooled over samples and all valid t.

    ``attributions``: array (n_samples, T, 12). Zero-variance channels
    yield correlation 0 and are flagged.
    """
    attributions = np.asarray(attributions, dtype=float)
    if attributions.ndim != 3 or attributions.shape[2] != 12:
        raise ValueError("expected shape (n, T, 12)")
    n, T, _ = attributions.shape
    if n < 2 or T <= lag:
        raise ValueError("need >= 2 samples and T > lag")
    X = attributions[:, :T - lag, :].reshape(-1, 12)
    Y = attributions[:, lag:, :].reshape(-1, 12)
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    sx = np.sqrt((Xc ** 2).sum(axis=0))
    sy = np.sqrt((Yc ** 2).sum(axis=0))
    zero_x = sx < 1e-300
    zero_y = sy < 1e-300
    sx[zero_x] = 1.0
    sy[zero_y] = 1.0
    corr = (Xc / sx).T @ (Yc / sy)
    corr[zero_x, :] = 0.0
    corr[:, zero_y] = 0.0
    np.clip(corr, -1.0, 1.0, out=corr)
    return CorrelationReport(lag=lag, matrix=corr, n_samples=X.shape[0],
                             zero_variance=zero_x | zero_y)


# --- hook signatures --------------------------------------------------------


@dataclass
class HookSignatureSet:
    hook: list[tuple[int, int, int]]      # (flag channel, syndrome channel, lag)
    baseline: list[tuple[int, int, int]]


def derive_hook_signatures(code: CodeDefinition, basis: str) -> HookSignatureSet:
    """Derive the dangerous flag/syndrome channel pairings by injecting the
    weight-two hook class into each plaquette readout and recording which
    flag and which later syndrome increment it raises."""
    ptype = "X" if basis == "Z" else "Z"
    flag_family = FX if ptype == "X" else FZ
    syn_family = SZ if ptype == "X" else SX
    gates = build_qec_cycle(code, cycles=3)
    ent = [g for g in gates if g.cycle == 1 and g.kind in ("cnot", "cz")
           and (g.qubits[0] == ANC or g.qubits[1] == ANC)]
    faults = []
    for k in range(code.n_stabilizers):
        group = ent[6 * k: 6 * k + 6] if ptype == "X" \
            else ent[18 + 6 * k: 18 + 6 * k + 6]
        g = group[2]  # the gate whose trailing ancilla X leaves a weight-2 tail
        paulis = ("X", "I") if g.qubits[0] == ANC else ("I", "X")
        faults.append(FaultInjection(g.loc, paulis))
    # one run of the hook class per plaquette, as one noiseless batch
    hook = []
    for vol in _fault_batch(code, faults, basis, T=3).volumes:
        flag_hits = [(t, c) for t in range(3) for c in flag_family if vol[t, c]]
        syn_hits = [(t, c) for t in range(3) for c in syn_family if vol[t, c]]
        assert len(flag_hits) == 1 and len(syn_hits) >= 1
        t_f, c_f = flag_hits[0]
        t_s, c_s = syn_hits[0]
        hook.append((c_f, c_s, t_s - t_f))
    lag = hook[0][2]
    assert all(h[2] == lag for h in hook)
    baseline = [(cf, cs, lag)
                for cf in flag_family for cs in syn_family
                if (cf, cs, lag) not in hook]
    return HookSignatureSet(hook=hook, baseline=baseline)


def hook_excess(report: CorrelationReport,
                signatures: HookSignatureSet) -> tuple[float, float]:
    """Mean absolute correlation over the hook pairs vs the remaining
    flag/syndrome pairs of the same families, at the signature lag."""
    def mean_abs(pairs):
        vals = []
        for cf, cs, lag in pairs:
            if lag != report.lag:
                raise ValueError("report lag does not match signature lag")
            # leading channel is the one observed earlier
            vals.append(abs(report.matrix[cf, cs]))
        return float(np.mean(vals))

    return mean_abs(signatures.hook), mean_abs(signatures.baseline)


# --- FT-learning monitor ----------------------------------------------------


@dataclass
class MonitorRow:
    epoch: int
    dep_failure: float
    p_l: dict[float, float]
    scaling_b: float
    hook_mean: float
    baseline_mean: float


@dataclass
class PreparedMonitor:
    """Everything the FT monitor scores a decoder against, built once by
    `prepare_monitor`: the single-fault batch of two QEC cycles, the
    sampled batches of every noise point, the hook signatures and the
    optional attribution function."""

    faults: MemoryBatch
    points: dict[float, list[MemoryBatch]]
    signatures: HookSignatureSet
    attribution_fn: Callable | None = None

    def score(self, epoch: int, decoder) -> MonitorRow:
        """One FT-learning row for ``decoder``: DEP failure fraction, p_L
        per noise point as `logical_error_rate` scores it, scaling
        exponent, and hook vs baseline attribution correlation (NaN
        without an attribution function)."""
        # the DEP failure fraction, as in sim.dep_failure_fraction
        dep = int((decoder.predict_flips_batch(self.faults)
                   ^ self.faults.m_L).sum()) / len(self.faults)
        p_ls = {p_ph: _score_rounds(decoder, batches).p_l
                for p_ph, batches in self.points.items()}
        if len(p_ls) >= 2 and all(v > 0 for v in p_ls.values()):
            b = fit_scaling(list(p_ls), list(p_ls.values())).params[1]
        else:
            b = float("nan")
        hook_mean = baseline_mean = float("nan")
        if self.attribution_fn is not None:
            attr = self.attribution_fn(decoder)
            lag = self.signatures.hook[0][2]
            report = attribution_correlations(attr, lag=lag)
            hook_mean, baseline_mean = hook_excess(report, self.signatures)
        return MonitorRow(epoch, dep, p_ls, b, hook_mean, baseline_mean)


def prepare_monitor(code: CodeDefinition, noise_sweep, basis: str, rounds,
                    shots_per_point: int, seed: int,
                    attribution_fn=None) -> PreparedMonitor:
    """Sample the volumes every epoch is scored on, once. The batches of
    each noise point are those `logical_error_rate` draws for ``rounds``
    and ``seed``. ``attribution_fn`` maps a decoder to an (n, T, 12)
    attribution array."""
    points = {p_ph: _sample_rounds(code, NoiseModel(p_ph), basis, rounds,
                                   shots_per_point, seed)
              for p_ph in noise_sweep}
    return PreparedMonitor(single_fault_batch(code, basis), points,
                           derive_hook_signatures(code, basis),
                           attribution_fn)


def ft_monitor(epoch_decoders, code: CodeDefinition, noise_sweep, basis: str,
               rounds, shots_per_point: int, seed: int,
               attribution_fn=None) -> list[MonitorRow]:
    """Per-epoch FT tracks (see `PreparedMonitor.score`) for an iterable
    of (epoch, decoder), all scored on one `prepare_monitor` sample."""
    monitor = prepare_monitor(code, noise_sweep, basis, rounds,
                              shots_per_point, seed, attribution_fn)
    return [monitor.score(epoch, decoder)
            for epoch, decoder in epoch_decoders]


# --- FT-learning contract ---------------------------------------------------

# windows of the FT-learning contract (see ft_contract)
CONTRACT_B = 2.0
CONTRACT_B_WINDOW = 0.2
CONTRACT_EPOCH_WINDOW = 3
CONTRACT_DIVERGENCE = 2.0
CONTRACT_MARGIN = 0.05


@dataclass
class ContractResult:
    verdict: str                    # "HELD" or "FAILED"
    reasons: list[str]              # one line per failed clause
    dep_zero_epoch: int | None
    settled_b_epoch: int | None
    gap_early: float | None         # mean hook-baseline gap, early epochs
    gap_max: float | None           # max hook-baseline gap before DEP zero


def ft_contract(rows: list[MonitorRow]) -> ContractResult:
    """The co-occurrence contract on monitor rows in epoch order: the
    first DEP-zero epoch lies within CONTRACT_EPOCH_WINDOW epochs of the
    first epoch from which b stays in CONTRACT_B +/- CONTRACT_B_WINDOW,
    and before the DEP-zero epoch the hook-baseline gap rose above
    CONTRACT_DIVERGENCE * max(early gap, 0) + CONTRACT_MARGIN, the early
    gap being the mean over the first third (at least one) of the
    epochs before it."""
    reasons = []
    lo, hi = CONTRACT_B - CONTRACT_B_WINDOW, CONTRACT_B + CONTRACT_B_WINDOW
    dep_zero = next((r.epoch for r in rows if r.dep_failure == 0.0), None)
    # NaN b is outside the window
    settled = [lo <= r.scaling_b <= hi for r in rows]
    settled_b = next((r.epoch for i, r in enumerate(rows)
                      if all(settled[i:])), None)
    if dep_zero is None:
        reasons.append("DEP failure never reached zero")
    if settled_b is None:
        reasons.append(f"b never settled in [{lo:g}, {hi:g}]")
    if dep_zero is not None and settled_b is not None \
            and abs(dep_zero - settled_b) > CONTRACT_EPOCH_WINDOW:
        reasons.append("FT and scaling onsets do not co-occur")
    gap_early = gap_max = None
    if dep_zero is not None:
        pre = [r.hook_mean - r.baseline_mean for r in rows
               if r.epoch < dep_zero]
        if not pre:
            reasons.append("DEP failure was zero at the first scored "
                           "epoch: no earlier epoch to compare the "
                           "attribution curves against")
        else:
            gap_early = float(np.mean(pre[:max(1, len(pre) // 3)]))
            gap_max = float(np.max(pre))
            # a NaN gap (no attributions) is no divergence
            if not gap_max > (CONTRACT_DIVERGENCE * max(gap_early, 0.0)
                              + CONTRACT_MARGIN):
                reasons.append("hook/baseline curves did not diverge "
                               "before the FT epoch")
    return ContractResult("FAILED" if reasons else "HELD", reasons,
                          dep_zero, settled_b, gap_early, gap_max)
