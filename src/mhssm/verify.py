"""End-to-end invariant suite behind the ``selftest`` CLI command.

Each criterion function returns (passed, detail). The gradient checks compare
analytic tape gradients against central finite differences; the dual-path
check compares the chunked convolution node against the sequential
recurrence, which never touches the convolution code path.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from pathlib import Path

import numpy as np

from . import tensor as T
from .blocks import BidirMhSsmBlock, MhSsmBlockConfig, MhSsmStage
from .encoder import (EncoderConfig, EncoderLayer, MultiScaleFrontend, build_encoder,
                      time_reduction)
from .nn import Module
from .optim import Adam
from .seq import PackedBatch, SeqBatch
from .ssm import (DiagonalSsm, discretize, init_ssm_rng,
                  kernel_sum_bound, materialize_kernel, ssm_conv, ssm_conv_projected, ssm_scan,
                  stack_systems)
from .tensor import GradTape, Tensor
from .training import evaluate, train

RTOL = 1e-4
ATOL = 1e-8
FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# gradient checking harness


def taped_gradients(apply, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    with GradTape() as tape:
        loss = apply(params)
    grads = tape.gradients(loss)
    return {name: grads.get(p, np.zeros_like(p.data)) for name, p in params.items()}


def fd_gradients(apply, params: dict[str, Tensor], step: float = FD_STEP) -> dict[str, np.ndarray]:
    out = {}
    for name, p in params.items():
        g = np.zeros(p.size)
        for i in range(p.size):
            vals = []
            for sign in (1.0, -1.0):
                arr = p.data.copy()
                arr.flat[i] += sign * step
                shifted = dict(params)
                shifted[name] = Tensor(arr, dtype=p.dtype)
                vals.append(apply(shifted).item())
            g[i] = (vals[0] - vals[1]) / (2.0 * step)
        out[name] = g.reshape(p.shape)
    return out


def max_grad_error(apply, params: dict[str, Tensor], step: float = FD_STEP,
                   rtol: float = RTOL, atol: float = ATOL) -> float:
    """Worst |analytic - numeric| / (atol + rtol * scale) over all parameters."""
    analytic = taped_gradients(apply, params)
    numeric = fd_gradients(apply, params, step)
    worst = 0.0
    for name in params:
        a, n = analytic[name], numeric[name]
        denom = atol + rtol * np.maximum(np.abs(a), np.abs(n))
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def module_apply(module: Module, forward):
    """(apply, params) pair for checking a module's parameter gradients."""
    params = module.named_params()

    def apply(ps):
        module.set_params(ps)
        return forward()

    return apply, params


def _scalarize(t: Tensor, rng: np.random.Generator) -> Tensor:
    w = Tensor._wrap(rng.standard_normal(t.shape))
    return T.tsum(T.mul(t, w))


def tensor_op_cases(seed: int):
    """(name, apply, params) triples covering every differentiable operation."""
    rng = np.random.default_rng(seed)

    def leaf(shape, offset=0.0, scale_=1.0):
        return Tensor(rng.standard_normal(shape) * scale_ + offset, requires_grad=True)

    cases = []

    def case(name, params, build):
        cases.append((name,
                      lambda ps: _scalarize(build(ps), np.random.default_rng([seed, 99])),
                      params))

    a = leaf((3, 4))
    b = leaf((3, 4))
    case("add", {"a": a, "b": b}, lambda ps: T.add(ps["a"], ps["b"]))
    case("sub", {"a": a, "b": b}, lambda ps: T.sub(ps["a"], ps["b"]))
    case("mul", {"a": a, "b": b}, lambda ps: T.mul(ps["a"], ps["b"]))
    case("scale", {"a": a}, lambda ps: T.scale(ps["a"], 1.7))
    case("shift", {"a": a}, lambda ps: T.shift(ps["a"], -0.3))

    # the retired matmul case's draw stays, so later cases draw the same values
    leaf((3, 4))
    m2 = leaf((4, 2))
    mb = leaf((2, 3, 4))
    case("add_broadcast", {"a": mb, "b": leaf((4,))}, lambda ps: T.add(ps["a"], ps["b"]))
    case("linear", {"x": mb, "w": m2, "b": leaf((2,))},
         lambda ps: T.linear(ps["x"], ps["w"], ps["b"]))
    case("reshape", {"a": a}, lambda ps: T.reshape(ps["a"], (4, 3)))
    case("narrow", {"a": mb}, lambda ps: T.narrow(ps["a"], 2, 1, 2))
    case("concat", {"a": a, "b": b}, lambda ps: T.concat([ps["a"], ps["b"]], axis=1))
    case("sum_axis", {"a": mb}, lambda ps: T.tsum(ps["a"], axis=1))

    leaf((2, 5, 3))  # the retired time-reversal case's draw, likewise

    ln_x = leaf((2, 6))
    ln_g = leaf((6,), offset=1.0, scale_=0.1)
    ln_b = leaf((6,), scale_=0.1)
    case("layer_norm", {"x": ln_x, "g": ln_g, "b": ln_b},
         lambda ps: T.layer_norm(ps["x"], ps["g"], ps["b"], 1e-5))

    leaf((3, 5))  # the retired softmax cases' draw, likewise

    ce_logits = leaf((2, 4, 5))
    ce_targets = np.array([[0, 2, -1, 4], [1, -1, 3, 0]])
    cases.append(("cross_entropy",
                  lambda ps: T.cross_entropy(ps["x"], ce_targets, -1),
                  {"x": ce_logits}))

    drop_x = leaf((3, 4))
    cases.append(("dropout",
                  lambda ps: _scalarize(
                      T.dropout(ps["x"], 0.4, np.random.default_rng(77)),
                      np.random.default_rng([seed, 98])),
                  {"x": drop_x}))

    cu = leaf((2, 6, 3))
    ck = leaf((3, 6), scale_=0.5)
    case("causal_conv_fft", {"u": cu, "k": ck, "d": leaf((3,))},
         lambda ps: T.causal_conv_fft(ps["u"], ps["k"], ps["d"]))

    # 37 taps split into 6 blocks of 7, the last one partial
    system = init_ssm_rng(3, 2, rng, "random_stable")
    case("materialize_kernel", system.named_params(),
         lambda ps: materialize_kernel(discretize(DiagonalSsm(3, 2, **ps)), 37))

    # ssm_conv's chunked node: 8 whole chunks and a ragged ninth of 5 steps,
    # then a single ragged chunk, the short inputs training sends through it
    for name, steps in (("chunked_conv", 261), ("chunked_conv_short", 5)):
        chunked = init_ssm_rng(3, 2, rng, "random_stable")
        case(name, {**chunked.named_params(), "u": leaf((1, steps, 2))},
             lambda ps, steps=steps: ssm_conv(
                 discretize(DiagonalSsm(3, 2, **{k: v for k, v in ps.items() if k != "u"})),
                 SeqBatch(ps["u"], [steps])).data)

    # the zero-order hold itself; b_im != 0, so every input's gradient is too
    held = init_ssm_rng(3, 2, rng, "random_stable")
    held.b_im = leaf((2, 3), scale_=0.5)
    case("discretize", {k: v for k, v in held.named_params().items() if k != "d"},
         lambda ps: discretize(DiagonalSsm(3, 2, d=held.d, **ps)).zoh)

    # three groups, each mapping its own 2-wide slice of the last axis to 3
    case("linear_grouped", {"x": leaf((2, 3, 6)), "w": leaf((3, 2, 3)), "b": leaf((3, 3))},
         lambda ps: T.linear(ps["x"], ps["w"], ps["b"]))

    # each activation, then the affine map, as one node: gelu, glu across
    # the last axis, and the per-head glu, two heads of width 2 on a
    # (..., heads, 4) view
    case("gelu_linear", {"x": leaf((2, 3, 4)), "w": leaf((4, 2)), "b": leaf((2,))},
         lambda ps: T.gelu_linear(ps["x"], ps["w"], ps["b"]))
    case("glu_linear", {"y": leaf((2, 3, 8)), "w": leaf((4, 2)), "b": leaf((2,))},
         lambda ps: T.glu_linear(ps["y"], ps["w"], ps["b"]))
    case("glu_linear_per_head", {"y": leaf((2, 3, 2, 4)), "w": leaf((4, 2)), "b": leaf((2,))},
         lambda ps: T.glu_linear(ps["y"], ps["w"], ps["b"], in_axes=2))

    # the chunked node with the input projection folded in, as a stage runs
    # it: 3 features to 2 channels over two whole chunks and a ragged third
    projected = init_ssm_rng(3, 2, rng, "random_stable")
    ssm_leaves = projected.named_params()
    case("chunked_conv_projected",
         {**ssm_leaves, "x": leaf((2, 69, 3)), "w": leaf((3, 2)), "b": leaf((2,))},
         lambda ps: ssm_conv_projected(
             discretize(DiagonalSsm(3, 2, **{k: ps[k] for k in ssm_leaves})),
             SeqBatch(ps["x"], [69, 69]).packed(), ps["w"], ps["b"]).data)

    # the retired q, k and v leaves' draws stay, so later cases draw the same
    # values
    for _ in range(3):
        leaf((2, 5, 6))

    # the same node backward in time, on rows of 69 and 40 valid steps
    rev_leaves = init_ssm_rng(3, 2, rng, "random_stable").named_params()
    case("chunked_conv_projected_reversed",
         {**rev_leaves, "x": leaf((2, 69, 3)), "w": leaf((3, 2)), "b": leaf((2,))},
         lambda ps: ssm_conv_projected(
             discretize(DiagonalSsm(3, 2, **{k: ps[k] for k in rev_leaves})),
             SeqBatch(ps["x"], [69, 40]).packed(), ps["w"], ps["b"], reverse=True).data)

    # and causally on the packed frames of rows of 69, 40 and 7 valid
    # steps: the node skips the chunks past each length
    pad_leaves = init_ssm_rng(3, 2, rng, "random_stable").named_params()
    case("chunked_conv_projected_padded",
         {**pad_leaves, "x": leaf((3, 69, 3)), "w": leaf((3, 2)), "b": leaf((2,))},
         lambda ps: ssm_conv_projected(
             discretize(DiagonalSsm(3, 2, **{k: ps[k] for k in pad_leaves})),
             SeqBatch(ps["x"], [69, 40, 7]).packed(), ps["w"], ps["b"]).data)

    # packing a padded batch's valid frames (rows of 5, 2 and 0), unpacking
    # 7 packed frames into rows of 5 and 2, and splicing frame pairs of
    # rows of 5, 2 and 3: a zero frame follows each odd row
    case("pack", {"x": leaf((3, 5, 2))}, lambda ps: SeqBatch(ps["x"], [5, 2, 0]).packed().data)
    case("unpack", {"x": leaf((7, 2))},
         lambda ps: PackedBatch(ps["x"], np.array([5, 2]), 5).unpacked().data)
    case("splice", {"x": leaf((10, 2))},
         lambda ps: time_reduction(PackedBatch(ps["x"], np.array([5, 2, 3]), 5)).data)

    # the pre-norm branches, each one node: the feed-forward net, 4 features
    # to 5 hidden and back, and attention, two heads of width 3 over the
    # packed frames of rows of 5 and 3
    def pre_norm(x_shape):
        dim = x_shape[-1]
        return {"x": leaf(x_shape), "gain": leaf((dim,), offset=1.0, scale_=0.1),
                "bias": leaf((dim,), scale_=0.1)}

    ffn = {**pre_norm((2, 3, 4)), "w1": leaf((4, 5)), "b1": leaf((5,)),
           "w2": leaf((5, 4)), "b2": leaf((4,))}
    case("feed_forward", ffn, lambda ps: T.feed_forward(*(ps[k] for k in ffn)))
    attn = {**pre_norm((8, 6)), **{f"{kind}{m}": leaf(shape, scale_=0.5)
                                   for m in "qkv" for kind, shape in (("w", (6, 6)),
                                                                      ("b", (6,)))}}
    case("attention", attn, lambda ps: T.attention(*(ps[k] for k in attn), 2, [0, 5, 8]))

    return cases


# ---------------------------------------------------------------------------
# shared construction helpers


def toy_bidir_block(seed: int, dim=8, heads=2, stack=2, state_dim=4) -> BidirMhSsmBlock:
    cfg = MhSsmBlockConfig(model_dim=dim, heads=heads, stack=stack,
                           state_dim=state_dim, gating="ihg", dropout=0.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    return BidirMhSsmBlock(cfg, rng)


def toy_stateformer_layer(seed: int, dim=8) -> EncoderLayer:
    cfg = EncoderConfig(frontend="linear", input_dim=dim, model_dim=dim,
                        num_layers=1, block_kind="stateformer", attn_heads=2,
                        ffn_dim=16, heads=2, stack=2, state_dim=4, gating="ihg",
                        dropout=0.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    return EncoderLayer(cfg, rng)


# ---------------------------------------------------------------------------
# criteria


def criterion_scan_conv(n_systems: int = 100, state_dim: int = 64, channels: int = 8,
                        lengths=(8, 100, 1024), tol: float = 1e-8):
    """Recurrence and chunked convolution agree on random systems."""
    rng = np.random.default_rng(20240)
    systems = [
        init_ssm_rng(state_dim, channels, rng,
                     "s4d_lin" if i % 2 == 0 else "random_stable")
        for i in range(n_systems)
    ]
    big = stack_systems(systems)
    disc = discretize(big)
    worst = 0.0
    start = time.perf_counter()
    for horizon in lengths:
        u = SeqBatch(Tensor(rng.standard_normal((1, horizon, big.channels))),
                     np.array([horizon]))
        y_scan = ssm_scan(disc, u).data.data
        y_conv = ssm_conv(disc, u).data.data
        rel = np.abs(y_conv - y_scan).max() / np.abs(y_scan).max()
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - start
    ok = worst <= tol and elapsed < 30.0
    return ok, f"max rel diff {worst:.2e} (tol {tol:.0e}), {elapsed:.1f}s"


def criterion_gradients(seeds=range(5)):
    """Finite differences vs tape for every op, a bidirectional block, and a
    stateformer block."""
    worst_ops = 0.0
    for name, apply, params in tensor_op_cases(1234):
        err = max_grad_error(apply, params)
        worst_ops = max(worst_ops, err)
        if err > 1.0:
            return False, f"tensor op {name!r} gradient error {err:.2f}x tolerance"

    worst_block = 0.0
    for seed in seeds:
        rng = np.random.default_rng([seed, 5])
        x = SeqBatch(Tensor(rng.standard_normal((1, 12, 8))), np.array([12])).packed()
        block = toy_bidir_block(seed)
        apply, params = module_apply(block, lambda: _scalarize(block(x).data, np.random.default_rng(3)))
        worst_block = max(worst_block, max_grad_error(apply, params))

    worst_sf = 0.0
    for seed in seeds:
        rng = np.random.default_rng([seed, 6])
        x = SeqBatch(Tensor(rng.standard_normal((1, 12, 8))), np.array([12])).packed()
        layer = toy_stateformer_layer(seed)
        apply, params = module_apply(layer, lambda: _scalarize(layer(x).data, np.random.default_rng(4)))
        worst_sf = max(worst_sf, max_grad_error(apply, params))

    ok = max(worst_ops, worst_block, worst_sf) <= 1.0
    return ok, (f"worst error vs tolerance: ops {worst_ops:.3f}, "
                f"bidir block {worst_block:.3f}, stateformer {worst_sf:.3f}")


def criterion_stability(n_inits: int = 50, adam_steps: int = 100,
                        long_horizon: int = 16384):
    """Transition magnitudes stay below one through training; long outputs
    respect the kernel-sum bound."""
    rng = np.random.default_rng(777)
    for i in range(n_inits):
        scheme = "s4d_lin" if i % 2 == 0 else "random_stable"
        system = init_ssm_rng(8, 2, rng, scheme)
        if discretize(system).spectral_radius() >= 1.0:
            return False, f"init {i} starts with transition magnitude >= 1"
        u = SeqBatch(Tensor(rng.standard_normal((1, 32, 2))), np.array([32]))
        target = rng.standard_normal((1, 32, 2))
        opt = Adam()
        for _ in range(adam_steps):
            params = system.named_params()
            with GradTape() as tape:
                y = ssm_conv(discretize(system), u).data
                err = T.sub(y, Tensor._wrap(target))
                loss = T.tsum(T.mul(err, err))
            by_tensor = tape.gradients(loss)
            grads = {name: by_tensor[t] for name, t in params.items() if t in by_tensor}
            system.set_params(opt.step(params, grads, lr=1e-2))
        disc = discretize(system)
        radius = disc.spectral_radius()
        if radius >= 1.0:
            return False, f"init {i} escaped: transition magnitude {radius} after training"
        bounded = rng.uniform(-1.0, 1.0, (1, long_horizon, 2))
        ub = SeqBatch(Tensor(bounded), np.array([long_horizon]))
        y = ssm_conv(disc, ub).data.data
        if not np.isfinite(y).all():
            return False, f"init {i} produced non-finite long-horizon output"
        bound = kernel_sum_bound(disc, long_horizon)
        peak = np.abs(y[0]).max(axis=0)
        if (peak > bound).any():
            return False, f"init {i} violated the kernel-sum bound"
        kernel = np.abs(materialize_kernel(disc, long_horizon).data)
        _, _, _, _, cb_re, cb_im = disc.zoh.data
        envelope = 2.0 * np.hypot(cb_re, cb_im).sum(axis=1) * radius ** (long_horizon - 1)
        if (kernel[:, -1] > envelope + 1e-300).any():
            return False, f"init {i} kernel tail exceeded its decay envelope"
    return True, f"{n_inits} inits stable through {adam_steps} optimizer steps"


def criterion_gating(head_counts=(2, 4, 8), dim_per_head: int = 6):
    """Zero-gate half scaling, saturated-gate identity, and gated width."""
    rng = np.random.default_rng(4242)
    for heads in head_counts:
        dim = heads * dim_per_head
        cfg = MhSsmBlockConfig(model_dim=dim, heads=heads, stack=1, state_dim=4,
                               gating="ihg", dropout=0.0)
        stage = MhSsmStage(cfg, np.random.default_rng(1))
        # an identity out_proj: merge() then returns the gate's output exactly
        stage.out_proj.set_params({
            "w": Tensor(np.eye(dim // 2), requires_grad=True),
            "b": Tensor(np.zeros(dim // 2), requires_grad=True),
        })
        values = rng.standard_normal((2, 5, dim // 2))
        gated = stage.merge(Tensor(np.concatenate([values, np.zeros_like(values)], -1)))
        if np.abs(gated.data - 0.5 * values).max() > 1e-12:
            return False, f"zero-gate half scaling violated at H={heads}"
        gated = stage.merge(Tensor(np.concatenate([values, np.full_like(values, 20.0)], -1)))
        if np.abs(gated.data - values).max() > 1e-8:
            return False, f"saturated-gate identity violated at H={heads}"
        if stage.gated_width() != dim // 2:
            return False, f"gated width {stage.gated_width()} != {dim // 2} at H={heads}"
        gated = stage.merge(Tensor(rng.standard_normal((1, 4, dim))))
        if gated.shape[-1] != dim // 2:
            return False, f"runtime gated width {gated.shape[-1]} != {dim // 2}"
    return True, f"identities hold for H in {tuple(head_counts)}"


def criterion_frontends(lengths=(99, 100, 101, 102)):
    """Both frontends subsample 4x to the model width; splicing is local."""
    cfg = EncoderConfig(frontend="tr", input_dim=80, model_dim=512, num_layers=0)
    rng = np.random.default_rng(31)
    tr = MultiScaleFrontend(cfg, np.random.default_rng(5))
    ms = MultiScaleFrontend(dataclasses.replace(cfg, frontend="ms"), np.random.default_rng(6))
    for horizon in lengths:
        x = SeqBatch(Tensor(rng.standard_normal((2, horizon, 80))),
                     np.array([horizon, max(1, horizon - 7)]))
        for frontend in (tr, ms):
            out = frontend(x.packed()).unpacked()
            want = -(-np.asarray(x.lengths) // 4)
            if out.dim != 512 or not np.array_equal(out.lengths, want):
                return False, f"frontend contract violated at L={horizon}"
            if out.length != -(-horizon // 4):
                return False, f"buffer length {out.length} != ceil({horizon}/4)"

    horizon = 64
    base = np.random.default_rng(7).standard_normal((1, horizon, 80))
    ref = tr(SeqBatch(Tensor(base), np.array([horizon])).packed()).unpacked().data.data
    for j in (0, 5, 30, 62, 63):
        bumped = base.copy()
        bumped[0, j] += 1.0
        out = tr(SeqBatch(Tensor(bumped), np.array([horizon])).packed()).unpacked().data.data
        changed = np.where(np.abs(out - ref).max(axis=-1)[0] > 0)[0]
        if not np.array_equal(changed, [j // 4]):
            return False, f"splice locality violated: frame {j} touched {changed.tolist()}"
    return True, "shape contract and splice locality hold"


def criterion_reductions():
    """Removing the SSM pieces recovers the plain architectures bitwise."""
    layer = toy_stateformer_layer(3)
    rng = np.random.default_rng(8)
    x = SeqBatch(Tensor(rng.standard_normal((2, 10, 8))), np.array([10, 7])).packed()
    layer.ssm_block = lambda h, train_rng=None: h
    a = layer(x).data.data
    b = layer.ffn(layer.attn(x)).data.data
    if not np.array_equal(a, b):
        return False, "stateformer with skipped SSM branch differs from its transformer core"

    cfg = EncoderConfig(frontend="ms", input_dim=80, model_dim=64, num_layers=0,
                        fe_heads=2, fe_stack=1, fe_state_dim=4)
    ms = MultiScaleFrontend(cfg, np.random.default_rng(9))
    tr = MultiScaleFrontend(dataclasses.replace(cfg, frontend="tr"), np.random.default_rng(10))
    tr.proj.w = Tensor(ms.proj.w.data.copy(), requires_grad=True)
    tr.proj.b = Tensor(ms.proj.b.data.copy(), requires_grad=True)
    ms.blocks_lo = ms.blocks_hi = []
    x = SeqBatch(Tensor(rng.standard_normal((2, 21, 80))), np.array([21, 13])).packed()
    if not np.array_equal(ms(x).unpacked().data.data, tr(x).unpacked().data.data):
        return False, "multi-scale frontend with blocks removed differs from time reduction"
    return True, "both structural reductions are bitwise exact"


_DET_CONFIG = {
    "task": "delayed_echo", "seq_len": 32, "vocab": 4, "lag": 4,
    "model_dim": 16, "num_layers": 1, "heads": 2, "stack": 1, "state_dim": 4,
    "ffn_dim": 32, "attn_heads": 2, "batch": 4, "steps": 21,
    "steps_per_epoch": 10, "warmup_steps": 10, "checkpoint_every": 20,
    "eval_every": 0, "eval_batches": 2, "seed": 11,
}


def _metric_rows(path) -> list[str]:
    rows = Path(path).read_text().strip().splitlines()
    # drop the wall-clock column; it is not a metric
    return [",".join(r.split(",")[:-1]) for r in rows]


def criterion_determinism(workdir=None):
    """Bitwise-identical metrics across reruns; checkpoints round-trip."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        r1 = train(dict(_DET_CONFIG), out_dir=tmp / "a")
        r2 = train(dict(_DET_CONFIG), out_dir=tmp / "b")
        if _metric_rows(r1["metrics_path"]) != _metric_rows(r2["metrics_path"]):
            return False, "two identically seeded runs produced different metrics"

        cfg_short = dict(_DET_CONFIG)
        cfg_short["steps"] = 20
        r3 = train(cfg_short, out_dir=tmp / "c")
        cfg_more = dict(_DET_CONFIG)
        r4 = train(cfg_more, out_dir=tmp / "c2", resume=r3["checkpoint_path"])
        full_last = _metric_rows(r1["metrics_path"])[-1]
        resumed_last = _metric_rows(r4["metrics_path"])[-1]
        if full_last != resumed_last:
            return False, (f"resumed step differs: {resumed_last!r} vs {full_last!r}")

        e1 = evaluate(r1["checkpoint_path"], batches=2)
        e2 = evaluate(r1["checkpoint_path"], batches=2)
        if e1["loss"] != e2["loss"] or e1["accuracy"] != e2["accuracy"]:
            return False, "checkpoint evaluation is not reproducible"
        from .checkpoint import load_checkpoint, save_checkpoint
        arrays, meta = load_checkpoint(r1["checkpoint_path"])
        copy_path = tmp / "copy.bin"
        save_checkpoint(copy_path, arrays, meta)
        if Path(r1["checkpoint_path"]).read_bytes() != copy_path.read_bytes():
            return False, "checkpoint is not byte-stable through a load/save cycle"
    return True, "reruns, resume, and checkpoint round-trips are bitwise stable"


CRITERIA = [
    ("scan/conv duality", criterion_scan_conv),
    ("gradient correctness", criterion_gradients),
    ("stability", criterion_stability),
    ("inter-head gating identities", criterion_gating),
    ("frontend contract", criterion_frontends),
    ("structural reductions", criterion_reductions),
    ("determinism & persistence", criterion_determinism),
]


def run_selftest(verbose: bool = True) -> bool:
    all_ok = True
    for name, fn in CRITERIA:
        start = time.perf_counter()
        ok, detail = fn()
        all_ok = all_ok and ok
        if verbose:
            status = "PASS" if ok else "FAIL"
            print(f"{status}  {name}: {detail} [{time.perf_counter() - start:.1f}s]")
    return all_ok
