import tracemalloc

import numpy as np
import pytest

from mhssm import tensor as T
from mhssm.blocks import BidirMhSsmBlock, DirectionalMhSsm, MhSsmBlockConfig, MhSsmStage
from mhssm.encoder import EncoderConfig, build_encoder
from mhssm.errors import ConfigError
from mhssm.nn import Linear
from mhssm.seq import SeqBatch
from mhssm.ssm import init_ssm_rng
from mhssm.tasks import IGNORE_INDEX, generate_task
from mhssm.tensor import GradTape, Tensor
from mhssm.training import TaskModel, load_config

from hooks import (identity_linear, node_kind, packed_call, saved_bytes_by_kind,
                   set_identity_ssm, tie_directions)
from oracles import loop_reverse


def cfg_for(dim, heads, stack=1, gating="ihg", state_dim=4):
    return MhSsmBlockConfig(model_dim=dim, heads=heads, stack=stack,
                            state_dim=state_dim, gating=gating, dropout=0.0)


def batch_from(rng, dim, length=10, batch=2, lengths=None):
    data = rng.standard_normal((batch, length, dim))
    if lengths is None:
        lengths = np.full(batch, length)
    else:
        mask = np.arange(length)[None, :, None] < np.asarray(lengths)[:, None, None]
        data = data * mask
    return SeqBatch(Tensor(data), lengths)


def run(module, data, lengths):
    """``module`` on the packed valid frames of ``data``, unpacked."""
    return packed_call(module, SeqBatch(Tensor(data), lengths)).data


def held_after(forward) -> int:
    """Bytes tracemalloc sees held while ``forward()``'s output and tape live."""
    tracemalloc.start()
    try:
        with GradTape():
            out = forward()  # noqa: F841  (held through the measurement)
            return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def padded_asr_step(horizon: int):
    """The loss of the asr_stateformer benchmark model on a padded batch of 8
    rows of 80-dim frames, as a function to record on a tape."""
    cfg = EncoderConfig(frontend="ms", input_dim=80, model_dim=64, num_layers=2,
                        block_kind="stateformer", attn_heads=4, ffn_dim=256, heads=4,
                        stack=2, state_dim=16, gating="glu", dropout=0.0)
    encoder, readout = build_encoder(cfg, seed=0), Linear(64, 32, np.random.default_rng(1))
    lengths = [645, 584, 468, 539, 392, horizon, 348, 688]
    x = SeqBatch(Tensor(np.random.default_rng(2).standard_normal((8, horizon, 80))), lengths)
    labels = np.zeros((8, -(-horizon // 4)), dtype=np.int64)
    return lambda: T.cross_entropy(readout(encoder(x).data), labels, IGNORE_INDEX)


class TestConfig:
    def test_odd_heads_with_gating(self):
        with pytest.raises(ConfigError, match="even"):
            cfg_for(9, 3, gating="ihg").validate()

    def test_indivisible_width(self):
        with pytest.raises(ConfigError, match="divisible"):
            cfg_for(10, 4).validate()

    def test_unknown_gating(self):
        with pytest.raises(ConfigError, match="gating"):
            cfg_for(8, 2, gating="swish").validate()

    def test_bad_stack(self):
        with pytest.raises(ConfigError, match="stack"):
            cfg_for(8, 2, stack=0).validate()


class TestHeadSplit:
    def test_wide_model_partition(self):
        # one 512-channel system; each head owns a contiguous 128-channel slice
        stage = MhSsmStage(cfg_for(512, 4, gating="glu"), np.random.default_rng(2))
        assert stage.ssm.channels == 512
        assert stage.ssm.c_re.shape == (512, 4)
        assert stage.glu_w.shape == (4, 128, 256)
        assert stage.glu_b.shape == (4, 256)

    def test_indivisible(self):
        with pytest.raises(ConfigError, match="divisible"):
            MhSsmStage(cfg_for(10, 4, gating="gelu"), np.random.default_rng(0))


def ihg_gate(dim, heads):
    """The gate of an inter-head gated stage of width ``dim``: its gate and
    out_proj node, with an identity out_proj that passes the gate's output
    through exactly."""
    stage = MhSsmStage(cfg_for(dim, heads), np.random.default_rng(0))
    stage.out_proj = identity_linear(dim // 2)
    return stage.merge


class TestInterHeadGate:
    def test_zero_gates_halve(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((2, 3, 4))
        gated = ihg_gate(8, 2)(Tensor(np.concatenate([values, np.zeros((2, 3, 4))], -1)))
        np.testing.assert_array_equal(gated.data, 0.5 * values)

    def test_saturated_gates_identity(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((1, 2, 3))
        gated = ihg_gate(6, 2)(Tensor(np.concatenate([values, np.full((1, 2, 3), 20.0)], -1)))
        assert np.abs(gated.data - values).max() <= 1e-8

    def test_two_head_example(self):
        # head 0 = [1, 2] gated by head 1 = [0, 20]
        gated = ihg_gate(4, 2)(Tensor([[[1.0, 2.0, 0.0, 20.0]]]))
        np.testing.assert_allclose(gated.data[0, 0], [0.5, 2.0], atol=1e-8)


class TestStage:
    def test_identity_hook_with_saturated_gates_is_linear_of_linear(self):
        dim = 8
        stage = MhSsmStage(cfg_for(dim, 2), np.random.default_rng(6))
        set_identity_ssm(stage)
        stage.in_proj = identity_linear(dim)
        rng = np.random.default_rng(7)
        value = rng.standard_normal((1, 5, dim // 2))
        x = np.concatenate([value, np.full((1, 5, dim // 2), 30.0)], axis=-1)
        out = run(stage, x, [5])
        expected = value @ stage.out_proj.w.data + stage.out_proj.b.data
        assert np.abs(out.data - expected).max() <= 1e-10

    @pytest.mark.parametrize("gating", ["ihg", "glu", "gelu"])
    def test_shape_preserved(self, gating):
        rng = np.random.default_rng(8)
        stage = MhSsmStage(cfg_for(12, 2, gating=gating), np.random.default_rng(9))
        x = rng.standard_normal((3, 7, 12))
        out = run(stage, x, [7, 7, 7])
        assert out.shape == (3, 7, 12)

    def test_gated_width_by_mode(self):
        assert MhSsmStage(cfg_for(8, 2), np.random.default_rng(0)).gated_width() == 4
        assert MhSsmStage(cfg_for(8, 2, gating="glu"), np.random.default_rng(0)).gated_width() == 8
        assert MhSsmStage(cfg_for(8, 2, gating="gelu"), np.random.default_rng(0)).gated_width() == 8

    def test_causal(self):
        stage = MhSsmStage(cfg_for(8, 2), np.random.default_rng(10))
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 20, 8))
        base = run(stage, x, [20]).data
        bumped = x.copy()
        bumped[0, 12:] += 3.0
        alt = run(stage, bumped, [20]).data
        assert np.abs(alt[0, :12] - base[0, :12]).max() <= 1e-12
        assert np.abs(alt[0, 12:] - base[0, 12:]).max() > 1e-3

    def test_anticausal(self):
        # the backward-in-time stage: an output reads only its own and later
        # valid steps, never the padding that lies after them
        stage = MhSsmStage(cfg_for(8, 2), np.random.default_rng(10), reverse=True)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 20, 8))
        base = run(stage, x, [20]).data
        bumped = x.copy()
        bumped[0, :8] += 3.0
        alt = run(stage, bumped, [20]).data
        assert np.abs(alt[0, 8:] - base[0, 8:]).max() <= 1e-12
        assert np.abs(alt[0, :8] - base[0, :8]).max() > 1e-3
        base = run(stage, x, [15]).data
        bumped = x.copy()
        bumped[0, 15:] += 3.0
        alt = run(stage, bumped, [15]).data
        np.testing.assert_array_equal(alt[0, :15], base[0, :15])


class TestWholeWidthStage:
    @pytest.mark.parametrize("gating,nodes", [("ihg", 3), ("gelu", 3), ("glu", 5)])
    def test_tape_nodes_per_stage(self, gating, nodes):
        # discretization 1, input projection and chunked convolution with
        # skip 1, gate and output projection 1; the per-head glu adds its
        # grouped linear and the reshape to (..., heads, 2 * head_dim)
        stage = MhSsmStage(cfg_for(8, 2, gating=gating), np.random.default_rng(0))
        with GradTape() as tape:
            stage(SeqBatch(Tensor(np.ones((2, 5, 8))), [5, 5]).packed())
        assert len(tape.nodes) == nodes

    @pytest.mark.parametrize("block,gating,nodes", [
        pytest.param("mh_ssm", "ihg", 41, id="mh_ssm"),
        pytest.param("stateformer", "ihg", 47, id="stateformer"),
        pytest.param("mh_ssm", "glu", 57, id="mh_ssm-glu"),
        pytest.param("stateformer", "glu", 63, id="stateformer-glu"),
        pytest.param("transformer", "ihg", 16, id="transformer"),
    ])
    def test_tape_nodes_per_default_step(self, block, gating, nodes):
        # the count does not depend on the batch size, so a batch of 2 will do;
        # each layer's feed-forward branch is two nodes (the net and the
        # residual sum) and its attention branch three (with wo); the
        # unpadded batch enters by a reshape that records nothing, since no
        # gradient reaches the input, and leaves by one reshape node
        cfg = load_config({"block": block, "gating": gating})
        model = TaskModel(cfg)
        x, targets = generate_task(model.spec, 2, 0)
        with GradTape() as tape:
            T.cross_entropy(model(x), targets, IGNORE_INDEX)
        assert len(tape.nodes) == nodes

    @pytest.mark.parametrize("horizon", [742, 741])
    def test_tape_nodes_per_padded_asr_step(self, horizon):
        # one unpack node, one splice node per frontend round at either
        # parity of the horizon, and no node that re-zeroes padding; no
        # gradient reaches the input frames, so packing them records none;
        # each layer's attention and feed-forward nets are one node each
        with GradTape() as tape:
            padded_asr_step(horizon)()
        kinds = [node_kind(node) for node in tape.nodes]
        assert len(kinds) == 129
        assert kinds.count("attention") == kinds.count("feed_forward") == 2
        assert kinds.count("mul") == 0 and kinds.count("concat") == 6
        assert kinds.count("time_reduction") == 2
        assert kinds.count("SeqBatch.packed") == 0 and kinds.count("PackedBatch.unpacked") == 1

    def test_padded_asr_step_holds_little_more_than_its_activations(self):
        # each chunked node keeps its input and (channels, state, CHUNK + 1)
        # powers and rebuilds its GEMM weights in the backward, each gelu
        # keeps its output and slope, and the attention and feed-forward
        # branches keep no norm output, q, k or v: 72.4 MiB held, against
        # 77.8 MiB when the pre-norms and input projections were nodes of
        # their own and 101.2 MiB when the chunked nodes also kept their
        # weights and gelu kept its input; the 24 chunked nodes keep
        # 17.6 MiB, against 40.8 MiB
        step = padded_asr_step(742)
        held = held_after(step)
        assert held <= 74 * 2**20, f"{held / 2**20:.1f} MiB held after the forward pass"
        with GradTape() as tape:
            step()
        kept = saved_bytes_by_kind(tape)["_chunked_conv"]
        assert kept <= 19 * 2**20, f"{kept / 2**20:.1f} MiB kept by the chunked nodes"

    @pytest.mark.parametrize("gating", ["ihg", "glu"])
    def test_ssm_is_consecutive_head_draws(self, gating):
        # the init order every seeded run rests on: input projection, then
        # one init_ssm_rng draw per head, then the per-head glu maps
        cfg = cfg_for(12, 4, gating=gating, state_dim=3)
        stage = MhSsmStage(cfg, np.random.Generator(np.random.PCG64(40)))
        rng = np.random.Generator(np.random.PCG64(40))
        Linear(12, 12, rng)
        heads = [init_ssm_rng(3, 3, rng) for _ in range(4)]
        for name, t in stage.ssm.named_params().items():
            want = np.concatenate([h.named_params()[name].data for h in heads])
            np.testing.assert_array_equal(t.data, want, err_msg=name)
        if gating == "glu":
            w = np.stack([Linear(3, 6, rng).w.data for _ in range(4)])
            np.testing.assert_array_equal(stage.glu_w.data, w)
            np.testing.assert_array_equal(stage.glu_b.data, np.zeros((4, 6)))
        np.testing.assert_array_equal(stage.out_proj.w.data,
                                      Linear(stage.gated_width(), 12, rng).w.data)

    def test_glu_matches_per_head_loop(self):
        stage = MhSsmStage(cfg_for(12, 3, gating="glu"), np.random.default_rng(41))
        rng = np.random.default_rng(42)
        stage.glu_b = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        y = rng.standard_normal((2, 5, 12))
        want = []
        for h in range(3):
            vg = y[..., 4 * h:4 * h + 4] @ stage.glu_w.data[h] + stage.glu_b.data[h]
            want.append(vg[..., :4] / (1.0 + np.exp(-vg[..., 4:])))
        stage.out_proj = identity_linear(12)
        got = stage.merge(Tensor(y)).data
        assert np.abs(got - np.concatenate(want, axis=-1)).max() <= 1e-14


class TestDirectional:
    def test_single_stack_equals_stage(self):
        cfg = cfg_for(8, 2, stack=1)
        directional = DirectionalMhSsm(cfg, np.random.Generator(np.random.PCG64(12)))
        stage = directional.stages[0]
        rng = np.random.default_rng(13)
        x = SeqBatch(Tensor(rng.standard_normal((2, 6, 8))), [6, 6]).packed()
        np.testing.assert_array_equal(directional(x).data.data, stage(x).data.data)

    def test_stack_two_shape(self):
        directional = DirectionalMhSsm(cfg_for(8, 2, stack=2),
                                       np.random.Generator(np.random.PCG64(14)))
        x = np.random.default_rng(15).standard_normal((1, 9, 8))
        assert run(directional, x, [9]).shape == (1, 9, 8)

    def test_param_ratio_matches_closed_form(self):
        def stage_params(d, n, h):
            in_proj = d * d + d
            ssm = 6 * d * n + 2 * d
            out_proj = (d // 2) * d + d
            return in_proj + ssm + out_proj

        d, n, h = 16, 4, 2
        one = DirectionalMhSsm(cfg_for(d, h, stack=1, state_dim=n),
                               np.random.Generator(np.random.PCG64(16)))
        two = DirectionalMhSsm(cfg_for(d, h, stack=2, state_dim=n),
                               np.random.Generator(np.random.PCG64(16)))
        assert one.num_params() == stage_params(d, n, h)
        assert two.num_params() == 2 * stage_params(d, n, h)


class TestBidirBlock:
    def make(self, seed=19, dim=8, stack=2):
        return BidirMhSsmBlock(cfg_for(dim, 2, stack=stack),
                               np.random.Generator(np.random.PCG64(seed)))

    def test_shape_contract(self):
        block = self.make()
        x = batch_from(np.random.default_rng(20), 8, length=11, lengths=[11, 6])
        assert packed_call(block, x).data.shape == (2, 11, 8)

    def test_tied_identity_halves_equal(self):
        block = self.make()
        tie_directions(block)
        set_identity_ssm(*block.fwd.stages, *block.bwd.stages)
        rng = np.random.default_rng(21)
        half = rng.standard_normal((1, 3, 8))
        palindrome = np.concatenate([half, half[:, ::-1]], axis=1)
        x = SeqBatch(Tensor(palindrome), np.array([6])).packed()
        halves = block.concat_halves(x).data
        np.testing.assert_allclose(halves[..., :8], halves[..., 8:], atol=1e-12)

    def test_reversal_swaps_concatenated_halves(self):
        block = self.make()
        tie_directions(block)
        rng = np.random.default_rng(22)
        x = batch_from(rng, 8, length=10, batch=1)
        halves = block.concat_halves(x.packed()).data
        flipped = x.with_data(Tensor(loop_reverse(x.data.data, x.lengths)))
        halves_rev = block.concat_halves(flipped.packed()).data
        swapped = np.concatenate([halves[..., 8:], halves[..., :8]], axis=-1)
        np.testing.assert_allclose(halves_rev, swapped[::-1], atol=1e-12)

    def test_backward_stack_keeps_no_reversed_copy(self):
        # the block holds what its norm holds plus, twice, what one stack on
        # the norm's output h holds: the backward stack reads h itself, not a
        # time-reversed copy of it (which held one activation more)
        block = BidirMhSsmBlock(cfg_for(64, 4, stack=2), np.random.Generator(np.random.PCG64(32)))
        x = batch_from(np.random.default_rng(33), 64, length=256, batch=4,
                       lengths=[256, 100, 1, 0]).packed()
        block.concat_halves(x)      # module-level caches are made on the first call
        norm = held_after(lambda: block.norm(x.data))
        one_stack = held_after(lambda: block.fwd(x.with_data(block.norm(x.data))))
        both = held_after(lambda: block.concat_halves(x))
        # one_stack counts its output, and both counts the concatenated pair
        activation = x.data.data.nbytes
        assert both <= norm + 2 * (one_stack - norm) + activation / 2

    def test_padding_invariance(self):
        block = self.make()
        rng = np.random.default_rng(23)
        core = rng.standard_normal((1, 12, 8))
        base = run(block, core, [12]).data
        for pad in (1, 7, 64):
            padded = np.concatenate([core, np.zeros((1, pad, 8))], axis=1)
            out = run(block, padded, [12]).data
            assert np.abs(out[0, :12] - base[0]).max() <= 1e-8
            assert np.abs(out[0, 12:]).max() == 0.0

    def test_gradients_match_finite_differences(self):
        from mhssm.verify import max_grad_error, module_apply
        block = self.make(seed=24)
        x = batch_from(np.random.default_rng(25), 8, length=12, batch=1).packed()
        weight = np.random.default_rng(26).standard_normal((1, 12, 8))

        def forward():
            return T.tsum(T.mul(block(x).data, Tensor(weight)))

        apply, params = module_apply(block, forward)
        assert max_grad_error(apply, params) <= 1.0

    @pytest.mark.parametrize("gating", ["glu", "gelu"])
    def test_alternative_gating_gradients(self, gating):
        from mhssm.verify import max_grad_error, module_apply
        stage = MhSsmStage(cfg_for(8, 2, gating=gating),
                           np.random.Generator(np.random.PCG64(30)))
        rng = np.random.default_rng(31)
        x = SeqBatch(Tensor(rng.standard_normal((1, 10, 8))), [10]).packed()
        weight = rng.standard_normal((1, 10, 8))

        def forward():
            return T.tsum(T.mul(stage(x).data, Tensor(weight)))

        apply, params = module_apply(stage, forward)
        assert max_grad_error(apply, params) <= 1.0

    def test_dropout_only_in_training_mode(self):
        block = BidirMhSsmBlock(
            MhSsmBlockConfig(model_dim=8, heads=2, stack=1, state_dim=4,
                             gating="ihg", dropout=0.5),
            np.random.Generator(np.random.PCG64(27)))
        x = batch_from(np.random.default_rng(28), 8, length=6, batch=1).packed()
        a = block(x).data.data
        b = block(x).data.data
        np.testing.assert_array_equal(a, b)
        c = block(x, train_rng=np.random.default_rng(1)).data.data
        assert np.abs(c - a).max() > 1e-9
