"""Tests for the attribution engine: exact Shapley values against the
defining axioms and hand-worked games, multiplier backpropagation
against the exact values and its conservation property, and the
forward traces it reads from ``Model.forward``."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steanedec.circuits import pack_rounds
from steanedec.decoders import NnDecoder
from steanedec.nn import (Lstm, Model, NetworkSpec, build_model, dnn2_spec,
                          drnn_spec, srnn_spec)
from steanedec.nn.model import ROW_BLOCK, row_blocks
from steanedec.xai import (Game, deepshap, deepshap_batch, exact_shapley,
                           exact_shapley_batch, feature_exclusion_game,
                           relevance_conservation_check)
from steanedec.xai.deepshap import (GUARD, _forward_trace,
                                    _multiplier_backward, _padding)
from steanedec.xai.shapley import _coalition_sizes, _coalition_weights


def linear_model(beta, beta0=0.0):
    spec = NetworkSpec("lin", len(beta), False, (
        {"kind": "dense", "units": 1, "input_dim": len(beta),
         "activation": "linear"},
    ))
    m = build_model(spec, seed=0)
    m.layers[0].weights["W"][:] = np.asarray(beta)[:, None]
    m.layers[0].weights["b"][:] = beta0
    return m


def small_recurrent_model(seed=0, units=5, input_dim=4, gate="sigmoid"):
    spec = NetworkSpec("small", input_dim, True, (
        {"kind": "masking", "mask_value": -1.0},
        {"kind": "lstm", "units": units, "input_dim": input_dim,
         "return_sequences": True, "output_gate_activation": gate},
        {"kind": "lstm", "units": units, "input_dim": units,
         "return_sequences": False, "output_gate_activation": gate},
        {"kind": "dense", "units": 8, "input_dim": units,
         "activation": "relu"},
        {"kind": "dropout", "rate": 0.2},
        {"kind": "dense", "units": 1, "input_dim": 8,
         "activation": "sigmoid"},
    ))
    return build_model(spec, seed=seed)


def repeated_bits(rng, n, shape, distinct):
    """``n`` rows of sparse bits drawn from ``distinct`` patterns, so
    most rows repeat."""
    patterns = (rng.random((distinct,) + shape) < 0.2).astype(float)
    return patterns[rng.integers(0, distinct, size=n)]


def all_pairs_deepshap(model, xs, bg, head=0):
    """Reference: each input on its own against every background row,
    with no deduplication, averaged with a plain mean over the
    background. The input's padded rounds are dropped from both before
    tracing; an input with no unpadded round scores 0 against f(x)."""
    phi = np.zeros_like(xs)
    phi0 = np.empty(xs.shape[0])
    masks = _padding(model, xs)
    for i, x in enumerate(xs):
        keep = slice(None) if masks is None else masks[i].astype(bool)
        xk, rk = x[None][:, keep], bg[:, keep]
        if xk.shape[1] == 0:
            phi0[i] = model.forward(x[None])[0, head]
            continue
        out_x, tx = _forward_trace(model, xk)
        out_r, tr = _forward_trace(model, rk)
        m_out = np.zeros((1, len(bg), out_x.shape[1]))
        m_out[..., head] = 1.0
        mult = _multiplier_backward(model, tx, tr, m_out)[0]
        phi[i][keep] = (mult * (xk - rk)).mean(axis=0)
        phi0[i] = out_r[:, head].mean()
    return phi, phi0


def full_table_shapley(model, xs, background, head=0, chunk=256):
    """Reference: each chunk's whole (chunk * 2^n, n) coalition table
    built at once from a (2^n, n) membership table and run through one
    `Model.forward`, which splits it into its own row blocks; the gains
    read from n index arrays of the coalitions without each player."""
    xs = np.asarray(xs, dtype=float)
    means = np.asarray(background, dtype=float).mean(axis=0).reshape(-1)
    n = means.size
    masks = np.arange(1 << n)
    member = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    sizes = np.array([bin(m).count("1") for m in masks])
    weights = _coalition_weights(n)
    distinct, inverse = np.unique(xs, axis=0, return_inverse=True)
    flat = distinct.reshape(len(distinct), -1)
    phi = np.empty((len(flat), n))
    without = [masks[~member[:, i]] for i in range(n)]
    for lo in range(0, len(flat), chunk):
        xb = flat[lo:lo + chunk]
        z = np.where(member[None, :, :], xb[:, None, :], means)
        out = model.forward(z.reshape((len(xb) << n,) + xs.shape[1:]))
        v = out[:, head].reshape(len(xb), 1 << n)
        for i in range(n):
            wo = without[i]
            gain = v[:, wo | (1 << i)] - v[:, wo]
            phi[lo:lo + len(xb), i] = gain @ weights[sizes[wo]]
    return phi[inverse.reshape(-1)]


def random_game(rng, n):
    table = rng.normal(size=1 << n)
    table[0] = 0.0
    return Game(n=n, v=lambda s: table[sum(1 << i for i in s)]), table


class TestExactShapley:
    def test_worked_two_player_game(self):
        vals = {frozenset(): 0.0, frozenset({0}): 1.0,
                frozenset({1}): 2.0, frozenset({0, 1}): 4.0}
        phi = exact_shapley(Game(2, vals.__getitem__))
        assert np.allclose(phi, [1.5, 2.5])
        assert abs(phi.sum() - 4.0) < 1e-12

    def test_null_player(self):
        # player 2 never changes the payoff
        def v(s):
            return float(len(s - {2}))
        phi = exact_shapley(Game(3, v))
        assert abs(phi[2]) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        by_size = rng.normal(size=5)

        def v(s):
            return by_size[len(s)] if s else 0.0
        phi = exact_shapley(Game(4, v))
        assert np.allclose(phi, phi[0])

    def test_efficiency_and_linearity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            g1, t1 = random_game(rng, n)
            g2, t2 = random_game(rng, n)
            p1 = exact_shapley(g1)
            p2 = exact_shapley(g2)
            assert abs(p1.sum() - g1.v(frozenset(range(n)))) < 1e-9
            combo = Game(n, lambda s, a=g1, b=g2: 2.0 * a.v(s) - 0.5 * b.v(s))
            assert np.allclose(exact_shapley(combo), 2.0 * p1 - 0.5 * p2,
                               atol=1e-9)

    def test_rejects_large_player_set(self):
        with pytest.raises(ValueError):
            exact_shapley(Game(21, lambda s: 0.0))

    def test_empty_background_raises(self):
        # an empty background has no mean: no NaN values, no warning
        model = build_model(dnn2_spec(), seed=0)
        xs, empty = np.ones((2, 12)), np.zeros((0, 12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty background"):
                exact_shapley_batch(model, xs, empty)
            with pytest.raises(ValueError, match="empty background"):
                feature_exclusion_game(model, xs[0], empty)

    def test_matches_per_player_sums(self):
        # the single-game solver shares the batch solver's gain sums
        # (a dot product); a plain per-player sum differs by rounding only
        rng = np.random.default_rng(3)
        for n in range(1, 9):
            game, table = random_game(rng, n)
            weights = _coalition_weights(n)
            ref = np.empty(n)
            for i in range(n):
                wo = [m for m in range(1 << n) if not m >> i & 1]
                ref[i] = sum(weights[bin(m).count("1")]
                             * (table[m | 1 << i] - table[m]) for m in wo)
            assert np.max(np.abs(exact_shapley(game) - ref)) < 1e-12

    def test_coalition_sizes(self):
        for n in range(11):
            assert np.array_equal(_coalition_sizes(n),
                                  [bin(m).count("1") for m in range(1 << n)])


class TestFeatureExclusionGame:
    def test_endpoints(self):
        model = build_model(dnn2_spec(input_dim=4), seed=3)
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, size=4).astype(float)
        bg = rng.integers(0, 2, size=(20, 4)).astype(float)
        game = feature_exclusion_game(model, x, bg)
        full = game.v(frozenset(range(4)))
        empty = game.v(frozenset())
        assert abs(full - model.forward(x[None])[0, 0]) < 1e-12
        assert abs(empty - model.forward(bg.mean(axis=0)[None])[0, 0]) < 1e-12

    def test_linear_model_closed_form(self):
        beta = np.array([0.7, -1.2, 0.4])
        model = linear_model(beta, beta0=0.3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=3)
        bg = rng.normal(size=(50, 3))
        phi = exact_shapley(feature_exclusion_game(model, x, bg))
        assert np.allclose(phi, beta * (x - bg.mean(axis=0)), atol=1e-9)

    def test_batch_matches_single(self):
        model = build_model(dnn2_spec(input_dim=5), seed=7)
        rng = np.random.default_rng(5)
        xs = rng.integers(0, 2, size=(6, 5)).astype(float)
        bg = rng.integers(0, 2, size=(30, 5)).astype(float)
        batch = exact_shapley_batch(model, xs, bg)
        for i in range(6):
            single = exact_shapley(feature_exclusion_game(model, xs[i], bg))
            assert np.allclose(batch[i], single, atol=1e-9)

    def test_batch_with_repeated_rows_matches_single(self):
        # each distinct row is solved once and copied back in input order
        model = build_model(dnn2_spec(input_dim=6), seed=8)
        rng = np.random.default_rng(15)
        xs = repeated_bits(rng, 40, (6,), distinct=5)
        bg = repeated_bits(rng, 30, (6,), distinct=4)
        batch = exact_shapley_batch(model, xs, bg, chunk=2)
        assert batch.shape == (40, 6)
        assert len(np.unique(xs, axis=0)) < 40
        for i in range(40):
            single = exact_shapley(feature_exclusion_game(model, xs[i], bg))
            assert np.max(np.abs(batch[i] - single)) < 1e-9


class TestExactShapleyBlocks:
    """`exact_shapley_batch` builds the coalition table one forward
    block at a time; its values equal those of the whole table run at
    once, bit for bit, at every chunk size."""

    def perturbed_model(self, spec, seed):
        model = build_model(spec, seed=seed)
        rng = np.random.default_rng(seed)
        for w in model.weights_flat().values():
            w += rng.normal(0.0, 0.3, w.shape)
        return model

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_dnn2_matches_full_table(self, chunk):
        model = self.perturbed_model(dnn2_spec(), 61)
        rng = np.random.default_rng(62)
        # 70 distinct rows, so that chunk 64 ends on a short chunk
        patterns = np.unique(rng.integers(0, 2, size=(200, 12)),
                             axis=0)[:70].astype(float)
        xs = rng.permutation(np.concatenate(
            [patterns, patterns[rng.integers(0, 70, 80)]]))
        bg = repeated_bits(rng, 90, (12,), distinct=30)
        phi = exact_shapley_batch(model, xs, bg, chunk=chunk)
        assert np.array_equal(phi, full_table_shapley(model, xs, bg,
                                                      chunk=chunk))

    def test_srnn_single_round_matches_full_table(self):
        model = self.perturbed_model(srnn_spec("Z"), 63)
        rng = np.random.default_rng(64)
        xs = repeated_bits(rng, 12, (1, 12), distinct=6)
        bg = repeated_bits(rng, 40, (1, 12), distinct=20)
        for chunk in (1, 4):
            phi = exact_shapley_batch(model, xs, bg, chunk=chunk)
            assert np.array_equal(phi, full_table_shapley(model, xs, bg,
                                                          chunk=chunk))

    @pytest.mark.parametrize("players,chunk", [(5, 17), (7, 5), (9, 2)])
    def test_blocks_straddle_inputs(self, players, chunk):
        # blocks that cover the end of one input and the start of the
        # next, and a table that no whole number of ROW_BLOCKs fills
        rows = chunk << players
        edges = row_blocks(rows)
        assert rows % ROW_BLOCK and len(edges) > 2
        assert any(e % (1 << players) for e in edges[1:-1])
        model = self.perturbed_model(dnn2_spec(input_dim=players), 65)
        rng = np.random.default_rng(66)
        xs = rng.integers(0, 2, size=(3 * chunk, players)).astype(float)
        bg = rng.normal(size=(20, players))
        phi = exact_shapley_batch(model, xs, bg, head=0, chunk=chunk)
        assert np.array_equal(phi, full_table_shapley(model, xs, bg,
                                                      chunk=chunk))

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_rejects_chunk_below_one(self, chunk):
        model = build_model(dnn2_spec(input_dim=4), seed=0)
        xs = np.ones((3, 4))
        with pytest.raises(ValueError, match="chunk"):
            exact_shapley_batch(model, xs, xs, chunk=chunk)

    def test_empty_inputs(self):
        # (0, players), as deepshap_batch returns for a dense model
        model = build_model(dnn2_spec(), seed=0)
        bg = np.zeros((5, 12))
        phi = exact_shapley_batch(model, np.zeros((0, 12)), bg)
        assert phi.shape == (0, 12)
        assert deepshap_batch(model, np.zeros((0, 12)), bg)[0].shape \
            == (0, 12)
        model = build_model(srnn_spec("Z"), seed=0)
        phi = exact_shapley_batch(model, np.zeros((0, 1, 12)),
                                  np.zeros((5, 1, 12)))
        assert phi.shape == (0, 12)

    @pytest.mark.parametrize("players,distinct,chunk,bound", [
        # value table 256 x 2^12 x 8 B = 8.4 MB and the two gain gathers
        # of one player, 8.4 MB; built whole, the (256 x 2^12, 12)
        # coalition table alone took 100 MB, and the call peaked at 126 MB
        (12, 260, 256, 25e6),
        # value table 4 x 2^16 x 8 B = 2.1 MB, its gains 2.1 MB and the
        # 2^16-long index arrays; built whole, the coalition table took
        # 34 MB, and the call peaked at 60 MB
        (16, 6, 4, 10e6),
    ])
    def test_memory_is_bounded_by_the_value_table(self, players, distinct,
                                                  chunk, bound):
        model = build_model(dnn2_spec(input_dim=players), seed=67)
        rng = np.random.default_rng(68)
        xs = np.unique(rng.integers(0, 2, size=(2 * distinct, players)),
                       axis=0)[:distinct].astype(float)
        assert len(xs) == distinct
        bg = rng.integers(0, 2, size=(50, players)).astype(float)
        tracemalloc.start()
        try:
            exact_shapley_batch(model, xs, bg, chunk=chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestDeepShap:
    def test_affine_matches_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            beta = rng.normal(size=d)
            model = linear_model(beta, beta0=float(rng.normal()))
            x = rng.normal(size=d)
            bg = rng.normal(size=(25, d))
            phi, phi0 = deepshap_batch(model, x[None], bg)
            exact = beta * (x - bg.mean(axis=0))
            assert np.max(np.abs(phi[0] - exact)) < 1e-9
            assert abs(phi0[0] - model.forward(bg)[:, 0].mean()) < 1e-12

    def test_sum_to_delta_recurrent(self):
        model = small_recurrent_model(seed=11)
        rng = np.random.default_rng(7)
        xs = rng.integers(0, 2, size=(30, 5, 4)).astype(float)
        bg = rng.integers(0, 2, size=(8, 5, 4)).astype(float)
        res = relevance_conservation_check(model, xs, bg)
        assert np.max(res) < 1e-10

    def test_sum_to_delta_recurrent_relu_output_gate(self):
        model = small_recurrent_model(seed=12, gate="relu")
        rng = np.random.default_rng(10)
        xs, _ = padded_lengths(rng, 30, (5, 4), distinct=20)
        bg = rng.integers(0, 2, size=(8, 5, 4)).astype(float)
        res = relevance_conservation_check(model, xs, bg)
        assert np.max(res) < 1e-10

    def test_sum_to_delta_dense(self):
        model = build_model(dnn2_spec(input_dim=6), seed=9)
        rng = np.random.default_rng(8)
        xs = rng.integers(0, 2, size=(40, 6)).astype(float)
        bg = rng.integers(0, 2, size=(12, 6)).astype(float)
        res = relevance_conservation_check(model, xs, bg)
        assert np.max(res) < 1e-10

    def test_masked_rounds_get_zero(self):
        model = small_recurrent_model(seed=13)
        rng = np.random.default_rng(9)
        x = rng.integers(0, 2, size=(1, 6, 4)).astype(float)
        x[0, 4:] = -1.0
        bg = rng.integers(0, 2, size=(5, 6, 4)).astype(float)
        phi, _ = deepshap_batch(model, x, bg)
        assert np.all(phi[0, 4:] == 0.0)
        assert np.any(phi[0, :4] != 0.0)

    def test_dense_close_to_exact_shapley(self):
        # not an identity for nonlinear nets, but the approximation
        # should track the exact values closely on a small stack
        model = build_model(dnn2_spec(input_dim=5), seed=15)
        rng = np.random.default_rng(10)
        xs = rng.integers(0, 2, size=(10, 5)).astype(float)
        bg = rng.integers(0, 2, size=(40, 5)).astype(float)
        phi_ds, _ = deepshap_batch(model, xs, bg)
        phi_ex = exact_shapley_batch(model, xs, bg)
        corr = np.corrcoef(phi_ds.ravel(), phi_ex.ravel())[0, 1]
        assert corr > 0.95


class TestDeepShapDistinctRows:
    """Attributing distinct rows against the count-weighted distinct
    background equals the all-pairs plain mean, row for row."""

    def check(self, model, xs, bg, max_rows):
        phi, phi0 = deepshap_batch(model, xs, bg, max_rows=max_rows)
        ref_phi, ref_phi0 = all_pairs_deepshap(model, xs, bg)
        assert phi.shape == xs.shape and phi0.shape == (xs.shape[0],)
        assert np.max(np.abs(phi - ref_phi)) < 1e-12
        assert np.max(np.abs(phi0 - ref_phi0)) < 1e-12

    def test_dense_many_duplicates(self):
        model = build_model(dnn2_spec(input_dim=8), seed=25)
        rng = np.random.default_rng(16)
        xs = repeated_bits(rng, 60, (8,), distinct=7)
        bg = repeated_bits(rng, 25, (8,), distinct=5)
        # several chunks of distinct inputs
        self.check(model, xs, bg, max_rows=11)

    def test_recurrent_mixed_padding(self):
        model = small_recurrent_model(seed=27)
        rng = np.random.default_rng(17)
        xs = repeated_bits(rng, 30, (5, 4), distinct=4)
        # three padded lengths, so rows carry different masks
        xs[::3, 3:] = -1.0
        xs[1::3, 4:] = -1.0
        bg = repeated_bits(rng, 12, (5, 4), distinct=3)
        self.check(model, xs, bg, max_rows=7)

    def test_single_distinct_background_row(self):
        model = small_recurrent_model(seed=29)
        rng = np.random.default_rng(18)
        xs = repeated_bits(rng, 10, (4, 4), distinct=3)
        bg = np.repeat(repeated_bits(rng, 1, (4, 4), distinct=1), 9, axis=0)
        self.check(model, xs, bg, max_rows=2)

    def test_single_input(self):
        model = build_model(dnn2_spec(input_dim=6), seed=31)
        rng = np.random.default_rng(19)
        xs = repeated_bits(rng, 1, (6,), distinct=1)
        bg = repeated_bits(rng, 20, (6,), distinct=6)
        self.check(model, xs, bg, max_rows=3)

    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_row_permutations(self, seed):
        model = build_model(dnn2_spec(input_dim=4), seed=33)
        rng = np.random.default_rng(seed)
        xs = repeated_bits(rng, 12, (4,), distinct=4)
        bg = repeated_bits(rng, 8, (4,), distinct=3)
        phi, phi0 = deepshap_batch(model, xs, bg, max_rows=5)
        perm = rng.permutation(12)
        phi_p, phi0_p = deepshap_batch(model, xs[perm], bg, max_rows=5)
        assert np.max(np.abs(phi_p - phi[perm])) < 1e-12
        assert np.max(np.abs(phi0_p - phi0[perm])) < 1e-12
        phi_b, phi0_b = deepshap_batch(model, xs, bg[rng.permutation(8)],
                                       max_rows=5)
        assert np.max(np.abs(phi_b - phi)) < 1e-12
        assert np.max(np.abs(phi0_b - phi0)) < 1e-12


def padded_lengths(rng, n, shape, distinct):
    """``n`` sparse-bit rows of (T, d) ``shape`` from ``distinct``
    patterns, each padded with -1 after a random length in 1..T."""
    xs = repeated_bits(rng, n, shape, distinct)
    lengths = rng.integers(1, shape[0] + 1, size=n)
    xs[np.arange(shape[0])[None, :] >= lengths[:, None]] = -1.0
    return xs, lengths


class TestDeepShapBackgroundTrace:
    """The background pass depends only on the padding pattern, so each
    pattern traces the distinct background rows once and broadcasts them
    against every chunk of its inputs."""

    def test_background_traced_once_per_pattern(self, monkeypatch):
        model = small_recurrent_model(seed=35)
        first = model.layers[1]
        rows = []
        real_forward = Lstm.forward

        def counting_forward(layer, x, *args, **kwargs):
            if layer is first:
                rows.append(x.shape[0])
            return real_forward(layer, x, *args, **kwargs)

        monkeypatch.setattr(Lstm, "forward", counting_forward)
        rng = np.random.default_rng(20)
        xs, lengths = padded_lengths(rng, 40, (5, 4), distinct=30)
        bg = (rng.random((9, 5, 4)) < 0.3).astype(float)
        nb = len(np.unique(bg.reshape(9, -1), axis=0))
        n = len(np.unique(xs.reshape(40, -1), axis=0))
        assert nb > 3
        deepshap_batch(model, xs, bg, max_rows=3 * nb)
        # one background pass of nb rows per pattern, never c * nb rows;
        # every distinct input enters once, in chunks of at most 3
        assert rows.count(nb) == len(np.unique(lengths))
        inputs = [r for r in rows if r != nb]
        assert max(inputs) <= 3 and sum(inputs) == n

    def test_mixed_lengths_across_chunks_match_all_pairs(self):
        model = small_recurrent_model(seed=37)
        rng = np.random.default_rng(21)
        xs, _ = padded_lengths(rng, 50, (6, 4), distinct=20)
        bg, _ = padded_lengths(rng, 15, (6, 4), distinct=8)
        phi, phi0 = deepshap_batch(model, xs, bg, max_rows=10)
        ref_phi, ref_phi0 = all_pairs_deepshap(model, xs, bg)
        assert np.max(np.abs(phi - ref_phi)) < 1e-12
        assert np.max(np.abs(phi0 - ref_phi0)) < 1e-12
        assert np.all(phi[xs == -1.0] == 0.0)


class TestDeepShapRoundDropping:
    """Each padding group's padded rounds are dropped before tracing;
    the background keeps its own -1 rounds as inputs on the rounds that
    stay."""

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        xs, _ = padded_lengths(rng, 24, (6, 4), distinct=16)
        xs[0] = -1.0          # all padding
        xs[1, 2] = -1.0       # an interior padded round
        xs[2, :3] = -1.0      # leading padding
        bg, _ = padded_lengths(rng, 10, (6, 4), distinct=7)
        return xs, bg

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tail_interior_and_all_padded_match_reference(self, seed):
        model = small_recurrent_model(seed=41 + seed)
        xs, bg = self.inputs(seed)
        phi, phi0 = deepshap_batch(model, xs, bg, max_rows=20)
        ref_phi, ref_phi0 = all_pairs_deepshap(model, xs, bg)
        assert np.max(np.abs(phi - ref_phi)) < 1e-12
        assert np.max(np.abs(phi0 - ref_phi0)) < 1e-12
        assert np.all(phi[xs == -1.0] == 0.0)
        assert np.max(relevance_conservation_check(model, xs, bg)) < 1e-10

    def test_all_padded_input(self):
        model = small_recurrent_model(seed=43)
        xs, bg = self.inputs(3)
        phi, phi0 = deepshap_batch(model, xs[:1], bg)
        assert np.all(phi == 0.0)
        # f(x) against every background row, under the weighted mean
        assert model.forward(xs[:1])[0, 0] == 0.5
        assert abs(phi0[0] - 0.5) < 1e-15


def per_round_rescale(d_out, d_in, local):
    tiny = np.abs(d_in) < GUARD
    return np.where(tiny, local, d_out / (d_in + tiny))


def per_round_lstm_multipliers(layer, cx, cr, m_out, lx, lr):
    """Oracle: the LSTM multiplier pass that allocates every grid anew in
    every round and recomputes the per-trace quantities from the
    forward caches; the tiled pass must give its values bit for bit."""
    n = layer.n
    wx, wh, b = (layer.weights[k] for k in ("W_x", "W_h", "b"))
    T = cx["T"]
    lead = m_out.shape[:2]
    mx_in = np.empty(lead + (T, layer.d))
    mh = np.zeros(lead + (n,)) if layer.return_sequences else m_out
    mc = np.zeros(lead + (n,))
    for t in reversed(range(T)):
        sx, sr = cx["steps"][t], cr["steps"][t]
        if layer.return_sequences:
            mh = mh + m_out[:, :, t]
        ax, ar = lx(sx["a"]), lr(sr["a"])
        ox, fx, ix, ccx = layer.gates(ax)
        or_, fr, ir, ccr = layer.gates(ar)
        tcx, tcr = lx(sx["tc"]), lr(sr["tc"])
        mz = np.empty(lead + (4 * n,))
        mo, mf, mi, mcc = layer.gates(mz)
        half = mh * 0.5
        np.multiply(half, tcx + tcr, out=mo)
        mtc = half * (ox + or_)
        mc_cand = mtc * per_round_rescale(
            tcx - tcr, lx(sx["c"]) - lr(sr["c"]), 1.0 - tcx ** 2)
        mc_cand += mc
        half = mc_cand * 0.5
        np.multiply(half, lx(sx["c_prev"]) + lr(sr["c_prev"]), out=mf)
        np.multiply(half, ccx + ccr, out=mi)
        np.multiply(half, ix + ir, out=mcc)
        mc = half * (fx + fr)
        zx = lx((sx["x"] @ wx + sx["h_prev"] @ wh) + b)
        zr = lr((sr["x"] @ wx + sr["h_prev"] @ wh) + b)
        mz *= per_round_rescale(ax - ar, zx - zr, layer.slopes(ax))
        mx_in[:, :, t] = (mz.reshape(-1, 4 * n) @ wx.T).reshape(
            lead + (layer.d,))
        mh = (mz.reshape(-1, 4 * n) @ wh.T).reshape(lead + (n,))
    return mx_in


# (model, head): srnn, drnn on both heads, and a small LSTM stack with
# a relu output gate
ORACLE_CASES = [
    pytest.param(lambda: build_model(srnn_spec("Z"), seed=3), 0, id="srnn"),
    pytest.param(lambda: build_model(drnn_spec(), seed=4), 0, id="drnn-z"),
    pytest.param(lambda: build_model(drnn_spec(), seed=4), 1, id="drnn-x"),
    pytest.param(lambda: small_recurrent_model(seed=45, input_dim=12,
                                               gate="relu"), 0,
                 id="relu-gate"),
]


def mixed_padding(seed, n, nb, t=5):
    rng = np.random.default_rng(seed)
    xs, _ = padded_lengths(rng, n, (t, 12), distinct=n // 2)
    xs[1, 2] = -1.0       # an interior padded round
    xs[2] = -1.0          # all padding
    bg, _ = padded_lengths(rng, nb, (t, 12), distinct=nb - 2)
    return xs, bg


class TestDeepShapTiles:
    """The tiled pass with reused work grids equals the allocate-per-round
    oracle bit for bit at equal tiles, and any tiling agrees to rounding."""

    @pytest.mark.parametrize("make, head", ORACLE_CASES)
    @pytest.mark.parametrize("max_rows", [1, 40, 512])
    def test_matches_per_round_oracle(self, make, head, max_rows,
                                      monkeypatch):
        model = make()
        xs, bg = mixed_padding(23, 30, 14)
        phi, phi0 = deepshap_batch(model, xs, bg, head=head,
                                   max_rows=max_rows)
        monkeypatch.setattr(deepshap, "_lstm_multipliers",
                            per_round_lstm_multipliers)
        ref_phi, ref_phi0 = deepshap_batch(model, xs, bg, head=head,
                                           max_rows=max_rows)
        assert np.array_equal(phi, ref_phi)
        assert np.array_equal(phi0, ref_phi0)
        assert np.any(phi != 0.0)

    @pytest.mark.parametrize("make, head", ORACLE_CASES)
    def test_tile_size_invariance(self, make, head):
        model = make()
        xs, bg = mixed_padding(24, 40, 16)
        nb = len(np.unique(bg.reshape(len(bg), -1), axis=0))
        out = model.forward(xs)[:, head]
        runs = [deepshap_batch(model, xs, bg, head=head, max_rows=rows)
                for rows in (1, nb - 1, nb, 3 * nb, 100_000)]
        phi_ref, phi0_ref = runs[0]
        scale = np.max(np.abs(phi_ref))
        for phi, phi0 in runs:
            assert np.max(np.abs(phi - phi_ref)) <= 1e-12 * scale
            assert np.max(np.abs(phi0 - phi0_ref)) <= 1e-12
            resid = np.abs(phi.reshape(len(xs), -1).sum(axis=1)
                           - (out - phi0))
            assert np.max(resid) <= 1e-12

    def test_srnn_attributions_memory(self):
        # one tile of work grids at a time, not every pair at once; the
        # bound fails the 512-pair tiles of the former default
        rng = np.random.default_rng(26)
        decoder = NnDecoder(build_model(srnn_spec("Z"), seed=0))
        xs = pack_rounds(rng.random((60, 8, 12)) < 0.1)
        bg = pack_rounds(rng.random((100, 8, 12)) < 0.1)
        tracemalloc.start()
        try:
            decoder.attributions(xs, bg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_progress_counts_distinct_pairs(self):
        model = small_recurrent_model(seed=47, input_dim=12)
        xs, bg = mixed_padding(25, 30, 14)
        n = len(np.unique(xs.reshape(len(xs), -1), axis=0))
        nb = len(np.unique(bg.reshape(len(bg), -1), axis=0))
        calls = []
        phi, phi0 = deepshap_batch(model, xs, bg, max_rows=2 * nb,
                                   progress=lambda *a: calls.append(a))
        done = [d for d, _ in calls]
        assert {total for _, total in calls} == {n * nb}
        assert done == sorted(done) and done[-1] == n * nb
        # one call per tile of at most two inputs, or per all-padded group
        assert len(calls) >= n / 2
        ref_phi, ref_phi0 = deepshap_batch(model, xs, bg, max_rows=2 * nb)
        assert np.array_equal(phi, ref_phi)
        assert np.array_equal(phi0, ref_phi0)

    def test_empty_background_raises(self, monkeypatch):
        model = small_recurrent_model(seed=49)

        def no_forward(*args, **kwargs):
            raise AssertionError("forward before the background check")

        monkeypatch.setattr(model, "forward", no_forward)
        with pytest.raises(ValueError, match="empty background"):
            deepshap_batch(model, np.zeros((3, 4, 4)), np.zeros((0, 4, 4)))
