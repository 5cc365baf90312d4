"""End-to-end invariant suite behind the ``selftest`` CLI command.

Each criterion function returns (passed, detail). The gradient checks compare
analytic tape gradients against central finite differences; the dual-path
check compares the FFT convolution against the sequential recurrence, which
never touches the convolution code path.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from . import tensor as T
from .blocks import BidirMhSsmBlock, MhSsmBlockConfig, MhSsmStage, inter_head_gate
from .encoder import (EncoderConfig, MultiScaleFrontend, StateformerLayer,
                      TimeReductionFrontend, build_encoder)
from .nn import Module
from .optim import Adam
from .seq import SeqBatch
from .ssm import (DiagonalSsm, discretize, init_ssm_rng, kernel_sum_bound,
                  materialize_kernel, ssm_conv, ssm_scan)
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
    pos = leaf((3, 4), offset=3.0)
    case("add", {"a": a, "b": b}, lambda ps: T.add(ps["a"], ps["b"]))
    case("sub", {"a": a, "b": b}, lambda ps: T.sub(ps["a"], ps["b"]))
    case("mul", {"a": a, "b": b}, lambda ps: T.mul(ps["a"], ps["b"]))
    case("div", {"a": a, "b": pos}, lambda ps: T.div(ps["a"], ps["b"]))
    case("neg", {"a": a}, lambda ps: T.neg(ps["a"]))
    case("scale", {"a": a}, lambda ps: T.scale(ps["a"], 1.7))
    case("shift", {"a": a}, lambda ps: T.shift(ps["a"], -0.3))
    case("exp", {"a": a}, lambda ps: T.exp(ps["a"]))
    case("log", {"a": pos}, lambda ps: T.log(ps["a"]))
    case("sin", {"a": a}, lambda ps: T.sin(ps["a"]))
    case("cos", {"a": a}, lambda ps: T.cos(ps["a"]))
    case("atan2", {"a": leaf((3, 4), offset=2.0), "b": leaf((3, 4), offset=3.0)},
         lambda ps: T.atan2(ps["a"], ps["b"]))
    case("sigmoid", {"a": a}, lambda ps: T.sigmoid(ps["a"]))
    case("relu", {"a": pos}, lambda ps: T.relu(ps["a"]))
    case("gelu", {"a": a}, lambda ps: T.gelu(ps["a"]))

    m1 = leaf((3, 4))
    m2 = leaf((4, 2))
    case("matmul", {"a": m1, "b": m2}, lambda ps: T.matmul(ps["a"], ps["b"]))
    mb = leaf((2, 3, 4))
    case("matmul_batched", {"a": mb, "b": m2}, lambda ps: T.matmul(ps["a"], ps["b"]))
    case("add_broadcast", {"a": mb, "b": leaf((4,))}, lambda ps: T.add(ps["a"], ps["b"]))

    case("reshape", {"a": a}, lambda ps: T.reshape(ps["a"], (4, 3)))
    case("transpose", {"a": mb}, lambda ps: T.transpose(ps["a"], (2, 0, 1)))
    case("narrow", {"a": mb}, lambda ps: T.narrow(ps["a"], 2, 1, 2))
    case("concat", {"a": a, "b": b}, lambda ps: T.concat([ps["a"], ps["b"]], axis=1))
    case("sum_axis", {"a": mb}, lambda ps: T.tsum(ps["a"], axis=1))
    case("mean", {"a": mb}, lambda ps: T.tmean(ps["a"], axis=-1, keepdims=True))

    seq = leaf((2, 5, 3))
    lengths = np.array([5, 3])
    case("reverse_within", {"a": seq}, lambda ps: T.reverse_within(ps["a"], lengths))

    ln_x = leaf((2, 6))
    ln_g = leaf((6,), offset=1.0, scale_=0.1)
    ln_b = leaf((6,), scale_=0.1)
    case("layer_norm", {"x": ln_x, "g": ln_g, "b": ln_b},
         lambda ps: T.layer_norm(ps["x"], ps["g"], ps["b"], 1e-5))

    sm = leaf((3, 5))
    mask = np.array([[1, 1, 1, 0, 1], [1, 1, 1, 1, 1], [0, 1, 1, 1, 0]], dtype=bool)
    case("softmax", {"x": sm}, lambda ps: T.softmax(ps["x"]))
    case("softmax_masked", {"x": sm}, lambda ps: T.softmax(ps["x"], mask))

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

    fx = leaf((2, 8))
    case("fft_real", {"x": fx}, lambda ps: T.fft_real(ps["x"]))
    fz = leaf((2, 8, 2))
    case("ifft_real", {"x": fz}, lambda ps: T.ifft_real(ps["x"]))

    cu = leaf((2, 6, 3))
    ck = leaf((3, 6), scale_=0.5)
    case("causal_conv_fft", {"u": cu, "k": ck},
         lambda ps: T.causal_conv_fft(ps["u"], ps["k"]))

    # 37 taps split into 6 blocks of 7, the last one partial
    system = init_ssm_rng(3, 2, rng, "random_stable")
    case("materialize_kernel", system.named_params(),
         lambda ps: materialize_kernel(discretize(DiagonalSsm(3, 2, **ps)), 37))

    return cases


# ---------------------------------------------------------------------------
# shared construction helpers


def stack_ssms(systems: list[DiagonalSsm]) -> DiagonalSsm:
    """Merge independent systems along the channel axis (channels are SISO)."""
    n = systems[0].state_dim
    fields = ("log_neg_re", "lam_im", "b_re", "b_im", "c_re", "c_im", "d", "log_dt")
    merged = {
        f: Tensor(np.concatenate([getattr(s, f).data for s in systems], axis=0),
                  requires_grad=True)
        for f in fields
    }
    channels = sum(s.channels for s in systems)
    return DiagonalSsm(n, channels, **merged)


def toy_bidir_block(seed: int, dim=8, heads=2, stack=2, state_dim=4) -> BidirMhSsmBlock:
    cfg = MhSsmBlockConfig(model_dim=dim, heads=heads, stack=stack,
                           state_dim=state_dim, gating="ihg", dropout=0.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    return BidirMhSsmBlock(cfg, rng)


def toy_stateformer_layer(seed: int, dim=8) -> StateformerLayer:
    cfg = EncoderConfig(frontend="linear", input_dim=dim, model_dim=dim,
                        num_layers=1, block_kind="stateformer", attn_heads=2,
                        ffn_dim=16, heads=2, stack=2, state_dim=4, gating="ihg",
                        dropout=0.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    return StateformerLayer(cfg, rng)


# ---------------------------------------------------------------------------
# criteria


def criterion_scan_conv(n_systems: int = 100, state_dim: int = 64, channels: int = 8,
                        lengths=(8, 100, 1024), tol: float = 1e-8):
    """Recurrence and FFT convolution agree on random systems."""
    rng = np.random.default_rng(20240)
    systems = [
        init_ssm_rng(state_dim, channels, rng,
                     "s4d_lin" if i % 2 == 0 else "random_stable")
        for i in range(n_systems)
    ]
    big = stack_ssms(systems)
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
        x = SeqBatch(Tensor(rng.standard_normal((1, 12, 8))), np.array([12]))
        block = toy_bidir_block(seed)
        apply, params = module_apply(block, lambda: _scalarize(block(x).data, np.random.default_rng(3)))
        worst_block = max(worst_block, max_grad_error(apply, params))

    worst_sf = 0.0
    for seed in seeds:
        rng = np.random.default_rng([seed, 6])
        x = SeqBatch(Tensor(rng.standard_normal((1, 12, 8))), np.array([12]))
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
            grads = tape.gradients(loss)
            names = {id(t): k for k, t in params.items()}
            gd = {names[id(t)]: g for t, g in grads.items()}
            system.set_params(opt.step(params, gd, lr=1e-2))
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
        cb = np.hypot(disc.c_re.data * disc.bbar_re.data - disc.c_im.data * disc.bbar_im.data,
                      disc.c_re.data * disc.bbar_im.data + disc.c_im.data * disc.bbar_re.data)
        envelope = 2.0 * cb.sum(axis=1) * radius ** (long_horizon - 1)
        if (kernel[:, -1] > envelope + 1e-300).any():
            return False, f"init {i} kernel tail exceeded its decay envelope"
    return True, f"{n_inits} inits stable through {adam_steps} optimizer steps"


def criterion_gating(head_counts=(2, 4, 8), dim_per_head: int = 6):
    """Zero-gate half scaling, saturated-gate identity, and gated width."""
    rng = np.random.default_rng(4242)
    for heads in head_counts:
        ys = [Tensor(rng.standard_normal((2, 5, dim_per_head))) for _ in range(heads)]
        zero_gates = ys[: heads // 2] + [Tensor(np.zeros((2, 5, dim_per_head)))] * (heads // 2)
        gated = inter_head_gate(zero_gates)
        for a, y in zip(gated, ys):
            if np.abs(a.data - 0.5 * y.data).max() > 1e-12:
                return False, f"zero-gate half scaling violated at H={heads}"
        sat_gates = ys[: heads // 2] + [Tensor(np.full((2, 5, dim_per_head), 20.0))] * (heads // 2)
        gated = inter_head_gate(sat_gates)
        for a, y in zip(gated, ys):
            if np.abs(a.data - y.data).max() > 1e-8:
                return False, f"saturated-gate identity violated at H={heads}"
        dim = heads * dim_per_head
        cfg = MhSsmBlockConfig(model_dim=dim, heads=heads, stack=1, state_dim=4,
                               gating="ihg", dropout=0.0)
        stage = MhSsmStage(cfg, np.random.default_rng(1))
        if stage.gated_width() != dim // 2:
            return False, f"gated width {stage.gated_width()} != {dim // 2} at H={heads}"
        x = Tensor(rng.standard_normal((1, 4, dim)))
        concat = T.concat(stage._gate(stage._run_heads(x, np.array([4]))), axis=-1)
        if concat.shape[-1] != dim // 2:
            return False, f"runtime gated width {concat.shape[-1]} != {dim // 2}"
    return True, f"identities hold for H in {tuple(head_counts)}"


def criterion_frontends(lengths=(99, 100, 101, 102)):
    """Both frontends subsample 4x to the model width; splicing is local."""
    cfg = EncoderConfig(frontend="tr", input_dim=80, model_dim=512, num_layers=0)
    rng = np.random.default_rng(31)
    tr = TimeReductionFrontend(cfg, np.random.default_rng(5))
    ms = MultiScaleFrontend(cfg, np.random.default_rng(6))
    for horizon in lengths:
        x = SeqBatch(Tensor(rng.standard_normal((2, horizon, 80))),
                     np.array([horizon, max(1, horizon - 7)]))
        for frontend in (tr, ms):
            out = frontend(x)
            want = -(-np.asarray(x.lengths) // 4)
            if out.dim != 512 or not np.array_equal(out.lengths, want):
                return False, f"frontend contract violated at L={horizon}"
            if out.length != -(-horizon // 4):
                return False, f"buffer length {out.length} != ceil({horizon}/4)"

    horizon = 64
    base = np.random.default_rng(7).standard_normal((1, horizon, 80))
    ref = tr(SeqBatch(Tensor(base), np.array([horizon]))).data.data
    for j in (0, 5, 30, 62, 63):
        bumped = base.copy()
        bumped[0, j] += 1.0
        out = tr(SeqBatch(Tensor(bumped), np.array([horizon]))).data.data
        changed = np.where(np.abs(out - ref).max(axis=-1)[0] > 0)[0]
        if not np.array_equal(changed, [j // 4]):
            return False, f"splice locality violated: frame {j} touched {changed.tolist()}"
    return True, "shape contract and splice locality hold"


def criterion_reductions():
    """Removing the SSM pieces recovers the plain architectures bitwise."""
    layer = toy_stateformer_layer(3)
    rng = np.random.default_rng(8)
    x = SeqBatch(Tensor(rng.standard_normal((2, 10, 8))), np.array([10, 7]))
    layer.skip_ssm = True
    a = layer(x).data.data
    b = layer.inner(x).data.data
    if not np.array_equal(a, b):
        return False, "stateformer with skipped SSM branch differs from its transformer core"

    cfg = EncoderConfig(frontend="ms", input_dim=80, model_dim=64, num_layers=0,
                        fe_heads=2, fe_stack=1, fe_state_dim=4)
    ms = MultiScaleFrontend(cfg, np.random.default_rng(9))
    tr = TimeReductionFrontend(cfg, np.random.default_rng(10))
    tr.proj.w = Tensor(ms.proj.w.data.copy(), requires_grad=True)
    tr.proj.b = Tensor(ms.proj.b.data.copy(), requires_grad=True)
    ms.skip_blocks = True
    x = SeqBatch(Tensor(rng.standard_normal((2, 21, 80))), np.array([21, 13]))
    if not np.array_equal(ms(x).data.data, tr(x).data.data):
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
