"""Acceptance suite: one test per top-level claim, each printing a
single PASS/FAIL line.

The expensive artifacts (the trained two-cycle dense decoder and its
attribution matrices) are built once per session and shared.
"""

import sys

import numpy as np
import pytest

from steanedec.analysis import (attribution_correlations,
                                derive_hook_signatures, fit_infidelity,
                                fit_scaling, infidelity_model,
                                logical_error_rate, wilson_interval)
from steanedec.circuits import ANC
from steanedec.decoders import NnDecoder
from steanedec.nn import (NetworkSpec, TrainConfig, bce_loss, bce_loss_grad,
                          build_model, dnn2_spec, srnn_spec, train)
from steanedec.seqlut import SeqLutDecoder, hook_correction_table
from steanedec.sim import (IdentityDecoder, NoiseModel, dep_failure_fraction,
                           run_memory_experiment, run_with_fault,
                           sample_memory_batch, single_fault_batch)
from steanedec.steane import steane_code
from steanedec.xai import (Game, deepshap_batch, exact_shapley,
                           exact_shapley_batch, feature_exclusion_game,
                           relevance_conservation_check)


_capman = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(num: int, desc: str, ok: bool):
    line = f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}\n"
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
        sys.stdout.flush()
    assert ok, line.strip()


@pytest.fixture(scope="session")
def code():
    return steane_code()


@pytest.fixture(scope="session")
def trained_dnn(code):
    """Two-cycle dense decoder trained at p_ph = 5e-3 on 100k samples.

    Returns the model, the epoch at which it first passed the full
    single-fault benchmark, the training inputs, and the fault set. One
    retry with a fresh seed is allowed before giving up.
    """
    layout = NnDecoder(build_model(dnn2_spec()), basis="Z")
    faults = single_fault_batch(code, "Z", 2)
    dep_x = layout.inputs(faults.volumes)
    dep_y = faults.m_L

    batch = sample_memory_batch(code, NoiseModel(5e-3), T=2, basis="Z",
                                shots=100_000, seed=123)
    x = layout.inputs(batch.volumes)
    y = batch.m_L.astype(float)

    def dep_fails(m):
        q = m.forward(dep_x)[:, 0]
        return int(np.sum((q > 0.5).astype(int) != dep_y))

    first_pass = None
    model = None
    for attempt, seed in enumerate((0, 1)):
        model = build_model(dnn2_spec(), seed=seed)
        passes = []

        def eval_fn(m, epoch):
            fails = dep_fails(m)
            passes.append(fails == 0)
            return {"dep_fails": fails}

        # a well-converged model for the attribution criteria; keep
        # going to the certification bound only if needed
        train(model, x, y, TrainConfig(epochs=30, batch_size=64, lr=1e-3,
                                       seed=seed), eval_fn=eval_fn)
        if not any(passes):
            train(model, x, y,
                  TrainConfig(epochs=350, batch_size=64, lr=1e-3, seed=seed),
                  start_epoch=30, eval_fn=eval_fn,
                  stop_fn=lambda r: r["dep_fails"] == 0)
        if any(passes):
            first_pass = passes.index(True)
            break
    return {"model": model, "first_pass": first_pass, "train_x": x,
            "dep_x": dep_x, "dep_y": dep_y}


@pytest.fixture(scope="session")
def dnn_attributions(code, trained_dnn):
    """Backpropagated and exact attribution values on 14k validation
    samples, against a 1000-sample training background."""
    model = trained_dnn["model"]
    decoder = NnDecoder(model, basis="Z")
    val = sample_memory_batch(code, NoiseModel(5e-3), T=2, basis="Z",
                              shots=14_000, seed=777)
    xv = decoder.inputs(val.volumes)
    bg = trained_dnn["train_x"][:1000]
    phi_ds, _ = deepshap_batch(model, xv, bg, max_rows=200_000)
    phi_ex = exact_shapley_batch(model, xv, bg, chunk=256)
    return {"ds": attribution_correlations(decoder.grid(phi_ds),
                                           lag=0).matrix,
            "ex": attribution_correlations(decoder.grid(phi_ex),
                                           lag=0).matrix,
            "sig": derive_hook_signatures(code, "Z")}


def test_criterion_1_seqlut_fault_tolerant(code):
    decoder = SeqLutDecoder(code)
    fracs = [dep_failure_fraction(decoder, code, basis, cycles=2)
             for basis in ("Z", "X")]
    report(1, "sequential look-up decoder survives every single fault "
           f"in 2 cycles, both bases (fractions {fracs})",
           fracs == [0.0, 0.0])


def test_criterion_2_identity_baseline(code):
    fracs = [dep_failure_fraction(IdentityDecoder(), code, basis, cycles=2)
             for basis in ("Z", "X")]
    report(2, f"undecoded baseline fails 2-6% of single faults {fracs}",
           all(0.02 <= f <= 0.06 for f in fracs))


def test_criterion_3_hook_table_rows(code):
    """Inject the dangerous ancilla fault after each gate that follows
    the first flag coupling and check the observed (plaquette, syndrome)
    against the decoder's correction table."""
    from steanedec.circuits import FX, FZ, FaultInjection, build_qec_cycle
    from steanedec.steane import parity

    table = hook_correction_table(code)
    decoder = SeqLutDecoder(code)
    gates = build_qec_cycle(code, cycles=2)
    ent = [g for g in gates if g.cycle == 1 and g.kind in ("cnot", "cz")]
    ok = len(table) == 9
    derived_keys = set()
    for plaq in range(6):
        group = ent[6 * plaq: 6 * plaq + 6]
        basis = "Z" if plaq < 3 else "X"
        flag_family = FX if plaq < 3 else FZ
        for idx in (1, 2, 3):
            g = group[idx]
            paulis = ("X", "I") if g.qubits[0] == ANC else ("I", "X")
            s = run_memory_experiment(
                code, noise=None, T=2, basis=basis, m_in=0,
                fault=FaultInjection(g.loc, paulis))
            # the injected hook must raise exactly its plaquette's flag
            ok = ok and s.volume[:, flag_family].sum() == 1
            ok = ok and s.volume[0, flag_family[plaq % 3]] == 1
            syn = s.final_syndrome
            key = (plaq % 3, syn)
            derived_keys.add(key)
            ok = ok and key in table
            if key in table:
                # table row equals the true residual modulo stabilizers:
                # syndromes agree by construction, so equivalence means
                # equal logical parity; the run's m_out pins the truth
                tail = table[key]
                truth = s.m_out ^ parity(code.pure_error_mask(syn)
                                         & code.logical_mask)
                ok = ok and parity(tail & code.logical_mask) == truth
            ok = ok and run_with_fault(code, FaultInjection(g.loc, paulis),
                                       basis, decoder) == 0
    ok = ok and derived_keys == set(table)
    report(3, "all nine flagged-circuit correction rows reproduced by "
           "fault injection and propagation", ok)


def test_criterion_4_seqlut_scaling(code):
    decoder = SeqLutDecoder(code)
    sweep = [1e-3, 2e-3, 5e-3]
    p_ls = []
    for p in sweep:
        res = logical_error_rate(decoder, code, NoiseModel(p), "Z",
                                 rounds=range(1, 8 + 1),
                                 shots_per_point=200_000, seed=42)
        p_ls.append(res.p_l)
    b = fit_scaling(sweep, p_ls).params[1]
    report(4, f"look-up decoder logical rate scales as p^b with "
           f"b = {b:.3f} in 2.0 +/- 0.3 (rates {p_ls})",
           1.7 <= b <= 2.3)


def test_criterion_5_shapley_axioms():
    rng = np.random.default_rng(2024)
    tol = 1e-9
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 9))
        t1 = rng.normal(size=1 << n)
        t1[0] = 0.0
        t2 = rng.normal(size=1 << n)
        t2[0] = 0.0

        def tv(table):
            return lambda s: table[sum(1 << i for i in s)]
        p1 = exact_shapley(Game(n, tv(t1)))
        p2 = exact_shapley(Game(n, tv(t2)))
        # efficiency
        ok = ok and abs(p1.sum() - t1[-1]) < tol
        # linearity
        a, c = rng.normal(size=2)
        combo = exact_shapley(Game(n, tv(a * t1 + c * t2)))
        ok = ok and np.max(np.abs(combo - (a * p1 + c * p2))) < tol
        # null player: an added player that never changes the payoff
        ext = Game(n + 1, lambda s: t1[sum(1 << i for i in s if i < n)])
        ok = ok and abs(exact_shapley(ext)[n]) < tol
        # symmetry: payoff depending only on coalition size
        by_size = rng.normal(size=n + 1)
        sym = exact_shapley(Game(n, lambda s: by_size[len(s)] if s else 0.0))
        ok = ok and np.max(np.abs(sym - sym[0])) < tol
        if not ok:
            break
    report(5, "efficiency, linearity, null-player, and symmetry hold to "
           "1e-9 on 100 random games with up to 8 players", ok)


def test_criterion_6_deepshap_exact_on_affine():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 7))
        spec = NetworkSpec("lin", d, False, (
            {"kind": "dense", "units": 1, "input_dim": d,
             "activation": "linear"},))
        model = build_model(spec, seed=int(rng.integers(1000)))
        model.layers[0].weights["b"][:] = rng.normal()
        x = rng.normal(size=(1, d))
        bg = rng.normal(size=(int(rng.integers(5, 40)), d))
        phi_ds, _ = deepshap_batch(model, x, bg)
        phi_ex = exact_shapley(feature_exclusion_game(model, x[0], bg))
        worst = max(worst, float(np.max(np.abs(phi_ds[0] - phi_ex))))
    report(6, "multiplier backprop equals exact Shapley values on 50 "
           f"random affine models (max gap {worst:.2e})", worst < 1e-6)


def test_criterion_7_sum_to_delta():
    model = build_model(srnn_spec("Z"), seed=9)
    rng = np.random.default_rng(7)
    xs = rng.integers(0, 2, size=(1000, 8, 12)).astype(float)
    bg = rng.integers(0, 2, size=(25, 8, 12)).astype(float)
    res = relevance_conservation_check(model, xs, bg)
    worst = float(np.max(res))
    report(7, "attribution sums match the output shift against the "
           f"background mean on 1000 inputs (max residual {worst:.2e})",
           worst < 1e-5)


def test_criterion_8_gradients_finite_difference():
    spec = NetworkSpec("w4", 12, True, (
        {"kind": "masking", "mask_value": -1.0},
        {"kind": "lstm", "units": 4, "input_dim": 12,
         "return_sequences": True, "output_gate_activation": "sigmoid"},
        {"kind": "lstm", "units": 4, "input_dim": 4,
         "return_sequences": False, "output_gate_activation": "sigmoid"},
        {"kind": "dense", "units": 1, "input_dim": 4,
         "activation": "sigmoid"},
    ))
    model = build_model(spec, seed=4)
    rng = np.random.default_rng(8)
    x = rng.integers(0, 2, size=(6, 5, 12)).astype(float)
    x[0, 3:] = -1.0
    y = rng.integers(0, 2, size=(6, 1)).astype(float)
    q = model.forward(x, trace=True)
    model.zero_grads()
    model.backward(bce_loss_grad(y, q))
    grads = {k: v.copy() for k, v in model.grads_flat().items()}
    h = 1e-5
    worst = 0.0
    for name, w in model.weights_flat().items():
        flat = w.reshape(-1)
        gflat = grads[name].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            lp = bce_loss(y, model.forward(x))
            flat[j] = orig - h
            lm = bce_loss(y, model.forward(x))
            flat[j] = orig
            fd = (lp - lm) / (2 * h)
            scale = max(abs(fd), abs(gflat[j]), 1e-8)
            worst = max(worst, abs(fd - gflat[j]) / scale)
    report(8, "every weight gradient of a width-4 two-LSTM + dense "
           f"network matches central differences (worst {worst:.2e})",
           worst < 1e-4)


def test_criterion_9_dnn_training_certifies(trained_dnn):
    first = trained_dnn["first_pass"]
    report(9, "two-cycle dense decoder trained on 100k samples passes "
           f"the single-fault benchmark at epoch {first} (limit 350)",
           first is not None and first <= 350)


def test_criterion_10_hook_signature_excess(dnn_attributions):
    M = dnn_attributions["ds"]
    sig = dnn_attributions["sig"]
    hook = float(np.mean([abs(M[f, s]) for f, s, _ in sig.hook]))
    base = float(np.mean([abs(M[f, s]) for f, s, _ in sig.baseline]))
    report(10, f"hook-pair attribution correlation {hook:.3f} exceeds "
           f"2x the baseline {base:.3f} and 0.15",
           hook > 2 * base and hook > 0.15)


def test_criterion_11_matrix_agreement(dnn_attributions):
    Mds = dnn_attributions["ds"]
    Mex = dnn_attributions["ex"]
    sig = dnn_attributions["sig"]
    hooks = {(f, s) for f, s, _ in sig.hook}
    iu = np.triu_indices(12, 1)

    def top5(M):
        vals = np.abs(M[iu])
        order = np.argsort(-vals)[:5]
        return {(min(int(iu[0][k]), int(iu[1][k])),
                 max(int(iu[0][k]), int(iu[1][k]))) for k in order}

    canon_hooks = {(min(a, b), max(a, b)) for a, b in hooks}
    in_both = canon_hooks <= top5(Mds) and canon_hooks <= top5(Mex)
    sel = (np.abs(Mds) > 0.1) & (np.abs(Mex) > 0.1)
    signs_ok = bool(np.all(np.sign(Mds[sel]) == np.sign(Mex[sel])))
    report(11, "three hook pairs rank in the top-5 off-diagonal entries "
           "of both attribution-correlation matrices and shared strong "
           "entries agree in sign", in_both and signs_ok)


def test_criterion_12_interval_and_fits():
    ok = True
    w = wilson_interval(0, 10)
    ok = ok and abs(w.p_min) < 1e-9 and abs(w.p_max - 0.1 / 1.1) < 1e-9
    w = wilson_interval(10, 10)
    ok = ok and abs(w.p_max - 1.0) < 1e-9
    t = np.arange(1, 9)
    fit = fit_infidelity(t, infidelity_model(t, 0.01, 0.5))
    ok = ok and abs(fit.params[0] - 0.01) < 1e-6 \
        and abs(fit.params[1] - 0.5) < 1e-6
    p = np.array([1e-3, 2e-3, 5e-3])
    fit = fit_scaling(p, 3.0 * p ** 2)
    ok = ok and abs(fit.params[1] - 2.0) < 1e-6
    report(12, "interval worked examples hold to 1e-9 and both fits "
           "recover planted parameters to 1e-6", ok)
