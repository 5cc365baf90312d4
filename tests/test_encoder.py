import dataclasses

import numpy as np
import pytest

from mhssm import tensor as T
from mhssm.checkpoint import load_checkpoint, save_checkpoint
from mhssm.encoder import (BLOCK_KINDS, EncoderConfig, EncoderLayer, MultiScaleFrontend,
                           SelfAttentionBlock, build_encoder, param_count,
                           time_reduction)
from mhssm.errors import ConfigError
from mhssm.seq import SeqBatch
from mhssm.tensor import GradTape, Tensor

from hooks import attention_weights, dtype_leaks, packed_call
from oracles import loop_attention_weights


def seq(rng, length, dim, batch=1, lengths=None):
    data = rng.standard_normal((batch, length, dim))
    if lengths is not None:
        mask = np.arange(length)[None, :, None] < np.asarray(lengths)[:, None, None]
        data = data * mask
    else:
        lengths = np.full(batch, length)
    return SeqBatch(Tensor(data), lengths)


def splice_padded(x: SeqBatch) -> np.ndarray:
    """Frame pairs of a zero-padded batch, a zero frame past an odd horizon."""
    data = x.data.data
    if x.length % 2:
        data = np.concatenate([data, np.zeros_like(data[:, :1])], axis=1)
    return data.reshape(x.batch, -(-x.length // 2), 2 * x.dim)


class TestConfigValidation:
    """Every block kind has a feed-forward block and dropout, so each checks
    both when an encoder is built, not only when a CLI config is loaded."""

    SMALL = dict(input_dim=4, model_dim=8, num_layers=1, attn_heads=2, ffn_dim=16, heads=2,
                 stack=1, state_dim=4, dropout=0.0)

    @pytest.mark.parametrize("ffn_dim", [0, -3])
    @pytest.mark.parametrize("block_kind", BLOCK_KINDS)
    def test_ffn_dim_below_one_is_refused(self, block_kind, ffn_dim):
        cfg = EncoderConfig(frontend="linear", block_kind=block_kind,
                            **{**self.SMALL, "ffn_dim": ffn_dim})
        with pytest.raises(ConfigError, match="ffn_dim"):
            build_encoder(cfg)

    @pytest.mark.parametrize("dropout", [1.0, float("nan"), 1.5, -0.1])
    @pytest.mark.parametrize("frontend", ["linear", "tr"])
    @pytest.mark.parametrize("block_kind", BLOCK_KINDS)
    def test_dropout_outside_unit_interval_is_refused(self, block_kind, frontend, dropout):
        cfg = EncoderConfig(frontend=frontend, block_kind=block_kind,
                            **{**self.SMALL, "dropout": dropout})
        with pytest.raises(ConfigError, match="dropout"):
            build_encoder(cfg)


class TestTimeReduction:
    def test_splices_pairs(self):
        frames = np.arange(8.0).reshape(1, 4, 2)
        out = packed_call(time_reduction, SeqBatch(Tensor(frames), np.array([4])))
        assert out.data.shape == (1, 2, 4)
        np.testing.assert_array_equal(out.data.data[0, 0], [0, 1, 2, 3])
        np.testing.assert_array_equal(out.data.data[0, 1], [4, 5, 6, 7])

    def test_odd_length_zero_padded(self):
        frames = np.arange(5.0).reshape(1, 5, 1)
        out = packed_call(time_reduction, SeqBatch(Tensor(frames), np.array([5])))
        assert out.lengths[0] == 3
        np.testing.assert_array_equal(out.data.data[0, 2], [4.0, 0.0])

    def test_double_application_reaches_512(self):
        rng = np.random.default_rng(0)
        x = seq(rng, 40, 128)
        out = time_reduction(time_reduction(x.packed())).unpacked()
        assert out.data.shape == (1, 10, 512)
        assert out.lengths[0] == 10

    @pytest.mark.parametrize("lengths", [[5, 2, 3, 0], [4, 2, 4, 1], [7, 7, 7, 7]])
    def test_packed_rows_splice_as_the_padded_batch(self, lengths):
        # one node, a zero frame after each odd row and none after an even one
        x = seq(np.random.default_rng(1), max(lengths), 3, batch=4, lengths=lengths)
        packed = x.packed()
        with GradTape() as tape:
            out = time_reduction(packed)
        assert len(tape.nodes) == 1
        assert out.length == -(-x.length // 2)
        np.testing.assert_array_equal(out.lengths, -(-np.array(lengths) // 2))
        np.testing.assert_array_equal(out.unpacked().data.data, splice_padded(x))


class TestTrFrontend:
    def make(self):
        cfg = EncoderConfig(frontend="tr", input_dim=80, model_dim=512, num_layers=0)
        return MultiScaleFrontend(cfg, np.random.default_rng(1))

    def test_length_100(self):
        out = packed_call(self.make(), seq(np.random.default_rng(2), 100, 80))
        assert out.data.shape == (1, 25, 512)

    def test_length_101_two_ceilings(self):
        out = packed_call(self.make(), seq(np.random.default_rng(3), 101, 80))
        assert out.data.shape == (1, 26, 512)
        assert out.lengths[0] == 26

    def test_wrong_input_dim(self):
        with pytest.raises(ConfigError, match="80"):
            packed_call(self.make(), seq(np.random.default_rng(4), 10, 64))

    def test_locality(self):
        frontend = self.make()
        rng = np.random.default_rng(5)
        base = rng.standard_normal((1, 32, 80))
        ref = packed_call(frontend, SeqBatch(Tensor(base), np.array([32]))).data.data
        for j in (0, 9, 18, 31):
            bumped = base.copy()
            bumped[0, j] += 1.0
            out = packed_call(frontend, SeqBatch(Tensor(bumped), np.array([32]))).data.data
            changed = np.where(np.abs(out - ref).max(axis=-1)[0] > 0)[0]
            np.testing.assert_array_equal(changed, [j // 4])


class TestMsFrontend:
    def test_shape_contract(self):
        cfg = EncoderConfig(frontend="ms", input_dim=80, model_dim=512, num_layers=0)
        frontend = MultiScaleFrontend(cfg, np.random.default_rng(6))
        out = packed_call(frontend, seq(np.random.default_rng(7), 200, 80))
        assert out.data.shape == (1, 50, 512)

    def test_reduces_to_tr_without_blocks(self):
        cfg = EncoderConfig(frontend="ms", input_dim=80, model_dim=128, num_layers=0,
                            fe_heads=2, fe_stack=1, fe_state_dim=4)
        ms = MultiScaleFrontend(cfg, np.random.default_rng(8))
        tr = MultiScaleFrontend(dataclasses.replace(cfg, frontend="tr"),
                                np.random.default_rng(9))
        tr.proj.w = Tensor(ms.proj.w.data.copy(), requires_grad=True)
        tr.proj.b = Tensor(ms.proj.b.data.copy(), requires_grad=True)
        ms.blocks_lo = ms.blocks_hi = []
        x = seq(np.random.default_rng(10), 37, 80, batch=2, lengths=[37, 20])
        np.testing.assert_array_equal(packed_call(ms, x).data.data, packed_call(tr, x).data.data)

    def test_parameter_overhead_plausible(self):
        # at full scale the multi-scale frontend should add ~4.5M parameters
        # over plain time reduction; its head/state sizes are free knobs, so
        # this audits the budget with a state size (128) in the sane range
        kwargs = dict(input_dim=80, model_dim=512, num_layers=16,
                      block_kind="mh_ssm", heads=4, stack=2, state_dim=64,
                      fe_heads=4, fe_stack=2, fe_state_dim=128, fe_gating="ihg")
        tr_total = param_count(EncoderConfig(frontend="tr", **kwargs))["frontend"]
        ms_total = param_count(EncoderConfig(frontend="ms", **kwargs))["frontend"]
        overhead = ms_total - tr_total
        assert 0.8 * 4.5e6 <= overhead <= 1.2 * 4.5e6


class TestAttention:
    def make(self, dim=8, heads=2, seed=11):
        return SelfAttentionBlock(dim, heads, np.random.default_rng(seed))

    def test_single_position_returns_value_projection(self):
        # the one key takes all the weight, so the branch is wo(wv(norm(x)))
        attn = self.make()
        x = seq(np.random.default_rng(12), 1, 8)
        np.testing.assert_allclose(attention_weights(attn, x), np.ones((1, 2, 1, 1)),
                                   atol=1e-15)
        want = attn.wo(attn.wv(attn.norm(x.data))).data
        np.testing.assert_allclose(attn.attend(x.packed()).data, want, atol=1e-15)

    def test_permutation_equivariance(self):
        attn = self.make()
        rng = np.random.default_rng(13)
        x = rng.standard_normal((1, 6, 8))
        perm = rng.permutation(6)
        out = packed_call(attn, SeqBatch(Tensor(x), np.array([6]))).data.data
        out_perm = packed_call(attn, SeqBatch(Tensor(x[:, perm]), np.array([6]))).data.data
        np.testing.assert_allclose(out_perm, out[:, perm], atol=1e-12)

    def test_weights_match_loop_oracle(self):
        attn = self.make()
        rng = np.random.default_rng(14)
        x = seq(rng, 7, 8, batch=2, lengths=[7, 4])
        got = attention_weights(attn, x)
        h = attn.norm(x.data).data
        q = (h @ attn.wq.w.data + attn.wq.b.data).reshape(2, 7, 2, 4).transpose(0, 2, 1, 3)
        k = (h @ attn.wk.w.data + attn.wk.b.data).reshape(2, 7, 2, 4).transpose(0, 2, 1, 3)
        ref = loop_attention_weights(q, k, x.lengths)
        # the oracle weighs padded queries too; the node leaves them zero
        for b, n in enumerate(x.lengths):
            assert np.abs(got[b, :, :n] - ref[b, :, :n]).max() <= 1e-10
            assert (got[b, :, n:] == 0.0).all()

    def test_fully_padded_sequence_rejected(self):
        attn = self.make()
        x = SeqBatch(Tensor(np.zeros((2, 4, 8))), np.array([4, 0]))
        with pytest.raises(ValueError, match="padded"):
            packed_call(attn, x)

    def test_block_is_three_nodes(self):
        # the attention node (norm, q, k and v maps and attention), wo and
        # the residual sum: on packed frames no padded position is left to
        # re-zero
        attn = self.make()
        x = seq(np.random.default_rng(16), 5, 8, batch=2, lengths=[5, 3]).packed()
        with GradTape() as tape:
            attn(x)
        assert len(tape.nodes) == 3

    def test_masked_keys_get_zero_weight(self):
        attn = self.make()
        x = seq(np.random.default_rng(15), 6, 8, batch=1, lengths=[4])
        w = attention_weights(attn, x)
        assert np.abs(w[..., 4:]).max() == 0.0


class TestLayers:
    def enc_cfg(self, kind, layers=1, dim=16):
        return EncoderConfig(frontend="linear", input_dim=8, model_dim=dim,
                             num_layers=layers, block_kind=kind, attn_heads=2,
                             ffn_dim=32, heads=2, stack=1, state_dim=4,
                             gating="ihg", dropout=0.0)

    def test_stateformer_with_zeroed_branch_is_transformer(self):
        layer = EncoderLayer(self.enc_cfg("stateformer"), np.random.default_rng(16))
        layer.ssm_block = lambda h, train_rng=None: h
        x = seq(np.random.default_rng(17), 9, 16, batch=2, lengths=[9, 5]).packed()
        np.testing.assert_array_equal(layer(x).data.data,
                                      layer.ffn(layer.attn(x)).data.data)

    def test_shape_through_sixteen_layers(self):
        cfg = self.enc_cfg("stateformer", layers=16)
        enc = build_encoder(cfg, seed=18)
        x = seq(np.random.default_rng(19), 12, 8, batch=2, lengths=[12, 7])
        out = enc(x)
        assert out.data.shape == (2, 12, 16)
        assert np.isfinite(out.data.data).all()

    def test_blocks_preserve_padding_zeros(self):
        for kind in ("mh_ssm", "transformer", "stateformer"):
            enc = build_encoder(self.enc_cfg(kind, layers=2), seed=20)
            x = seq(np.random.default_rng(21), 10, 8, batch=2, lengths=[10, 4])
            out = enc(x)
            assert np.abs(out.data.data[1, 4:]).max() == 0.0


class TestPaddedBatch:
    """A padded batch through the ASR model's kinds: an ``ms`` frontend and
    glu stateformer layers, at width 16."""

    CFG = dict(frontend="ms", input_dim=80, model_dim=16, num_layers=2,
               block_kind="stateformer", attn_heads=2, ffn_dim=32, heads=2, stack=2,
               state_dim=4, gating="glu", dropout=0.0, fe_heads=2, fe_stack=2,
               fe_state_dim=4)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_each_utterance_alone_matches_its_row(self, dtype):
        # utterances of 310-800 frames, as the ASR benchmark draws them. The
        # encoder runs on the packed valid frames, so no GEMM reads a padded
        # row, and each utterance alone gives its batch row's bits. (One of
        # at most 64 steps at some frame rate would not: alone, a GEMM in
        # the chunked node then has a single row, which numpy runs as a
        # matrix-vector product.)
        enc = build_encoder(EncoderConfig(**self.CFG, dtype=dtype), seed=0)
        rng = np.random.default_rng(0)
        lengths = np.array([800, 640, 470, 310])
        x = seq(rng, 800, 80, batch=4, lengths=lengths)
        x = x.with_data(Tensor(x.data.data, dtype=dtype))
        out = enc(x)
        data = out.data.data
        for b, (n, m) in enumerate(zip(lengths, out.lengths)):
            assert (data[b, m:] == 0.0).all()
            alone = enc(SeqBatch(Tensor(x.data.data[b:b + 1, :n]), [n])).data.data[0]
            assert alone.shape[0] == m
            np.testing.assert_array_equal(alone, data[b, :m], err_msg=str(b))


class TestEncoder:
    def test_deterministic_given_seed(self):
        cfg = EncoderConfig(frontend="linear", input_dim=8, model_dim=16,
                            num_layers=2, block_kind="mh_ssm", heads=2, stack=1,
                            state_dim=4, ffn_dim=32, dropout=0.0)
        x = seq(np.random.default_rng(22), 9, 8)
        a = build_encoder(cfg, seed=7)(x).data.data
        b = build_encoder(cfg, seed=7)(x).data.data
        np.testing.assert_array_equal(a, b)

    def test_positional_sensitivity_probe(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((1, 12, 8))
        rev = x[:, ::-1].copy()

        ssm_cfg = EncoderConfig(frontend="linear", input_dim=8, model_dim=16,
                                num_layers=1, block_kind="mh_ssm", heads=2,
                                stack=1, state_dim=4, ffn_dim=32, dropout=0.0)
        enc = build_encoder(ssm_cfg, seed=1)
        out = enc(SeqBatch(Tensor(x), np.array([12]))).data.data
        out_rev = enc(SeqBatch(Tensor(rev), np.array([12]))).data.data
        assert np.abs(out_rev[:, ::-1] - out).max() > 1e-3

        attn_cfg = EncoderConfig(frontend="linear", input_dim=8, model_dim=16,
                                 num_layers=1, block_kind="transformer",
                                 attn_heads=2, ffn_dim=32, dropout=0.0,
                                 positional=False)
        enc = build_encoder(attn_cfg, seed=1)
        out = enc(SeqBatch(Tensor(x), np.array([12]))).data.data
        out_rev = enc(SeqBatch(Tensor(rev), np.array([12]))).data.data
        np.testing.assert_allclose(out_rev[:, ::-1], out, atol=1e-12)

    def test_transformer_defaults_to_positional(self):
        assert EncoderConfig(block_kind="transformer").use_positional
        assert not EncoderConfig(block_kind="mh_ssm").use_positional
        assert not EncoderConfig(block_kind="stateformer").use_positional


class TestParamCount:
    def test_single_linear(self):
        cfg = EncoderConfig(frontend="tr", input_dim=80, model_dim=512, num_layers=0)
        assert param_count(cfg)["frontend"] == 80 * 128 + 128 == 10368

    @pytest.mark.parametrize("kind", ["mh_ssm", "transformer", "stateformer"])
    @pytest.mark.parametrize("gating", ["ihg", "glu", "gelu"])
    def test_count_matches_built_encoder(self, kind, gating):
        cfg = EncoderConfig(frontend="linear", input_dim=8, model_dim=16,
                            num_layers=2, block_kind=kind, attn_heads=2,
                            ffn_dim=32, heads=2, stack=2, state_dim=4,
                            gating=gating)
        assert param_count(cfg)["total"] == build_encoder(cfg, seed=0).num_params()

    def test_ms_frontend_count_matches_built(self):
        cfg = EncoderConfig(frontend="ms", input_dim=80, model_dim=128,
                            num_layers=1, block_kind="mh_ssm", heads=2,
                            stack=1, state_dim=4, fe_heads=2, fe_stack=1,
                            fe_state_dim=4)
        assert param_count(cfg)["total"] == build_encoder(cfg, seed=0).num_params()

    @pytest.mark.parametrize("model_dim,fe_heads", [(8, 4), (16, 3)])
    def test_tr_ignores_frontend_block_settings(self, model_dim, fe_heads):
        # tr runs no frontend blocks, so fe_* settings no block of that width
        # could take are not its concern
        cfg = EncoderConfig(frontend="tr", input_dim=6, model_dim=model_dim,
                            num_layers=1, heads=2, stack=1, state_dim=4,
                            ffn_dim=16, fe_heads=fe_heads)
        enc = build_encoder(cfg, seed=0)
        out = enc(seq(np.random.default_rng(1), 9, 6))
        assert out.data.shape == (1, 3, model_dim)
        assert param_count(cfg)["total"] == enc.num_params()

    def test_desk_scale_closed_form(self):
        # hand-derived: linear frontend 8->16, one two-head single-stack block
        # (state 4, ihg), ffn 16->32->16, norms
        cfg = EncoderConfig(frontend="linear", input_dim=8, model_dim=16,
                            num_layers=1, block_kind="mh_ssm", heads=2, stack=1,
                            state_dim=4, ffn_dim=32, gating="ihg")
        frontend = 8 * 16 + 16
        stage = (16 * 16 + 16) + (6 * 16 * 4 + 2 * 16) + (8 * 16 + 16)
        bidir = 2 * 16 + 2 * stage + (32 * 16 + 16)
        ffn = 2 * 16 + (16 * 32 + 32) + (32 * 16 + 16)
        total = frontend + bidir + ffn + 2 * 16
        assert param_count(cfg)["total"] == total


class TestDeadParameters:
    def test_every_parameter_receives_gradient(self):
        cfg = EncoderConfig(frontend="linear", input_dim=8, model_dim=16,
                            num_layers=2, block_kind="stateformer", attn_heads=2,
                            ffn_dim=32, heads=2, stack=1, state_dim=4, dropout=0.0)
        for seed in range(3):
            enc = build_encoder(cfg, seed=seed)
            x = seq(np.random.default_rng(seed), 10, 8, batch=2)
            with GradTape() as tape:
                out = enc(x)
                loss = T.tsum(T.mul(out.data, out.data))
            grads = tape.gradients(loss)
            params = enc.named_params()
            assert len(grads) == len(params)
            for name, t in params.items():
                g = grads[t]
                assert np.abs(g).max() > 0.0, f"dead parameter {name} at seed {seed}"


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(24)
        arrays = {
            "weights.a": rng.standard_normal((3, 4)),
            "scalar": np.array(3.25),
            "ints32": rng.standard_normal((2, 2)).astype(np.float32),
        }
        meta = {"config": {"steps": 5}, "note": "round trip"}
        path = tmp_path / "state.bin"
        save_checkpoint(path, arrays, meta)
        loaded, meta2 = load_checkpoint(path)
        assert meta2 == meta
        for name, arr in arrays.items():
            assert loaded[name].dtype == arr.dtype
            np.testing.assert_array_equal(loaded[name], arr)
        second = tmp_path / "second.bin"
        save_checkpoint(second, loaded, meta2)
        assert path.read_bytes() == second.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)


class TestFloat32:
    """A float32 encoder computes in float32 end to end, backward included."""

    SMALL = dict(input_dim=6, model_dim=8, num_layers=1, attn_heads=2, ffn_dim=16,
                 heads=2, stack=1, state_dim=4, fe_heads=2, fe_stack=1,
                 fe_state_dim=4, dropout=0.0, dtype="float32")

    @pytest.mark.parametrize("block_kind,gating,frontend,length", [
        ("mh_ssm", "ihg", "linear", 24),
        ("mh_ssm", "glu", "linear", 24),
        ("mh_ssm", "gelu", "linear", 24),
        ("stateformer", "ihg", "linear", 24),
        ("stateformer", "glu", "ms", 48),
        # nine whole chunks of the convolution node and a ragged tenth
        ("mh_ssm", "ihg", "linear", 293),
    ])
    def test_every_node_and_gradient_is_float32(self, block_kind, gating, frontend, length):
        cfg = EncoderConfig(frontend=frontend, block_kind=block_kind, gating=gating,
                            **self.SMALL)
        enc = build_encoder(cfg, seed=3)
        rng = np.random.default_rng(8)
        x = seq(rng, length, cfg.input_dim, batch=2, lengths=[length, length - 5])
        x = x.with_data(Tensor(x.data.data, dtype=np.float32))
        with dtype_leaks(np.float32) as leaks:
            with GradTape() as tape:
                out = enc(x).data
                weights = Tensor(rng.standard_normal(out.shape), dtype=np.float32)
                loss = T.tsum(T.mul(out, weights))
            grads = tape.gradients(loss)
        assert leaks == []
        assert out.dtype == np.float32 and loss.dtype == np.float32
        assert grads and all(g.dtype == np.float32 for g in grads.values())
