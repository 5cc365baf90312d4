import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import erf, expit

from mhssm import tensor as T
from mhssm.errors import ShapeError
from mhssm.tasks import IGNORE_INDEX, generate_task
from mhssm.tensor import GradTape, Tensor
from mhssm.training import TaskModel, load_config

from hooks import node_kind, saved_arrays
from oracles import direct_linear_conv, mp_sigmoid, mp_softmax, naive_matmul

# frozen high-precision sigmoid values at x = -2, -1, 0, 1, 2
SIGMOID_TABLE = {
    -2.0: 0.11920292202211755,
    -1.0: 0.2689414213699951,
    0.0: 0.5,
    1.0: 0.7310585786300049,
    2.0: 0.8807970779778823,
}


class TestMatmul:
    """The affine map's product: ``T.linear`` with a zero bias."""

    @staticmethod
    def _product(a, b):
        return T.linear(Tensor(a), Tensor(b), Tensor(np.zeros(np.shape(b)[-1])))

    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = self._product(np.eye(2), a)
        np.testing.assert_array_equal(out.data, a)

    def test_hand_checked(self):
        out = self._product([[1.0, 2.0]], [[3.0], [4.0]])
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((5, 7)), rng.standard_normal((7, 3))
        got = self._product(a, b).data
        assert np.abs(got - naive_matmul(a, b)).max() <= 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            self._product(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((4, 2, 3)), rng.standard_normal((3, 5))
        got = self._product(a, b).data
        np.testing.assert_allclose(got, a @ b, atol=1e-15)


def _identity_map(width):
    """(w, b) of an affine map that passes ``width`` features through exactly."""
    return Tensor(np.eye(width)), Tensor(np.zeros(width))


def _attention_inputs(x):
    """``T.attention``'s inputs for frames ``x``: a unit norm gain, a zero
    norm bias and identity q, k and v maps, as tensors."""
    dim = np.shape(x)[-1]
    maps = [t for _ in range(3) for t in _identity_map(dim)]
    return [Tensor(x), Tensor(np.ones(dim)), Tensor(np.zeros(dim)), *maps]


def _sigmoid(xs):
    """sigmoid(xs) through glu_linear: a unit value gated by ``xs``."""
    y = np.stack([np.ones_like(xs), xs], axis=-1)
    return T.glu_linear(Tensor(y), *_identity_map(1)).data[..., 0]


class TestPointwise:
    def test_sigmoid_symmetry(self):
        assert _sigmoid(np.array([0.0]))[0] == 0.5

    def test_gelu_at_zero(self):
        assert T.gelu_linear(Tensor([[0.0]]), *_identity_map(1)).data[0, 0] == 0.0

    def test_sigmoid_matches_high_precision(self):
        xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        got = _sigmoid(xs)
        for x, g in zip(xs, got):
            assert abs(g - SIGMOID_TABLE[x]) <= 1e-12
            assert abs(g - mp_sigmoid(x)) <= 1e-12

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_scalar_broadcast(self):
        out = T.add(Tensor([[1.0, 2.0]]), Tensor(3.0))
        np.testing.assert_array_equal(out.data, [[4.0, 5.0]])


class TestLayerNorm:
    def test_constant_vector_gives_zero(self):
        x = Tensor(np.full((3, 5), 2.7))
        out = T.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)), 1e-5)
        assert np.abs(out.data).max() < 1e-6

    def test_already_normalized(self):
        out = T.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)),
                           Tensor(np.zeros(2)), 0.0)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-15)

    def test_output_statistics(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((4, 6, 32)) * 3 + 1)
        out = T.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)), 1e-5).data
        assert np.abs(out.mean(axis=-1)).max() <= 1e-10
        assert np.abs(out.var(axis=-1) - 1.0).max() <= 1e-4


def _softmax(x, lengths=None):
    """Softmax over the last axis of 2-d ``x`` through the attention node's
    per-tile weights helper: each row is a one-query tile whose keys are
    the identity, at scale 1, so its scores are the row itself. With
    ``lengths``, row i's tile holds only its first lengths[i] keys, as a
    padded row's tile does, and the rest of the row is zero."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i, row in enumerate(x):
        n = x.shape[-1] if lengths is None else lengths[i]
        out[i, :n] = T._attention_probs(row[None, :n], np.eye(n), 1.0)
    return out


class TestSoftmax:
    """The attention node's weights: the softmax over keys."""

    def test_uniform(self):
        np.testing.assert_allclose(_softmax([[0.0, 0.0, 0.0]]), np.full((1, 3), 1 / 3),
                                   atol=1e-15)

    def test_large_logit_no_overflow(self):
        out = _softmax([[1000.0, 0.0]])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-300)

    def test_against_high_precision(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 9)) * 4
        got = _softmax(x)
        for row, ref in zip(x, got):
            assert np.abs(ref - mp_softmax(row)).max() <= 1e-12

    def test_rows_sum_to_one(self):
        # each row's weights cover a prefix of its keys, as a padded row's do
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10, 7)) * 5
        lengths = rng.integers(1, 8, size=10)
        out = _softmax(x, lengths)
        assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-12
        assert (out[np.arange(7) >= lengths[:, None]] == 0.0).all()

    def test_fully_masked_row_raises(self):
        # a row of length 0 has no key to attend to
        with pytest.raises(ValueError, match="frame"):
            T.attention(*_attention_inputs(np.zeros((3, 4))), 1, [0, 3, 3])


class TestFft:
    @pytest.mark.parametrize("n", [16, 256, 1024])
    def test_fft_convolution_matches_direct(self, n):
        # n taps over n steps: the FFT size next_pow2(2n) = 2n leaves no
        # slack, so any circular wrap would reach the returned prefix
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        got = T.causal_conv_fft(Tensor(a.reshape(1, n, 1)), Tensor(b.reshape(1, n)),
                                Tensor(np.zeros(1))).data[0, :, 0]
        ref = direct_linear_conv(a, b)[:n]
        assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-9


class TestCausalConvFft:
    def test_matches_direct_causal(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal((2, 20, 3))
        k = rng.standard_normal((3, 20))
        got = T.causal_conv_fft(Tensor(u), Tensor(k), Tensor(np.zeros(3))).data
        for b in range(2):
            for c in range(3):
                from oracles import direct_causal_conv
                ref = direct_causal_conv(u[b, :, c], k[c])
                assert np.abs(got[b, :, c] - ref).max() <= 1e-12

    def test_skip_is_per_channel_feedthrough(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal((2, 20, 3))
        k = rng.standard_normal((3, 20))
        skip = rng.standard_normal(3)
        base = T.causal_conv_fft(Tensor(u), Tensor(k), Tensor(np.zeros(3))).data
        got = T.causal_conv_fft(Tensor(u), Tensor(k), Tensor(skip)).data
        np.testing.assert_array_equal(got, base + skip * u)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channels"):
            T.causal_conv_fft(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((3, 4))),
                              Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match="skip"):
            T.causal_conv_fft(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((2, 4))),
                              Tensor(np.zeros(3)))


def _sigmoid_node(a):
    """The logistic function as its own tape node, for the composition that
    glu_linear replaces."""
    s = expit(a.data)
    out = Tensor(s)
    key = a.key
    T.record_op(out, (a,), lambda g, acc: acc(key, g * s * (1.0 - s)))
    return out


def _taped(build, leaves):
    """Output data and leaf gradients of sum(build(*leaves) * w) for a fixed w."""
    with GradTape() as tape:
        out = build(*leaves)
        w = Tensor(np.random.default_rng(5).standard_normal(out.shape))
        loss = T.tsum(T.mul(out, w))
    grads = tape.gradients(loss)
    return out.data, [grads[t] for t in leaves]


def _matmul_add_reference(x, w, b):
    """x @ w + b by numpy's stacked product, and its gradients for the
    upstream gradient ``_taped`` applies: (output, [dx, dw, db])."""
    out = np.matmul(x, w) + b
    g = np.random.default_rng(5).standard_normal(out.shape)
    lead = tuple(range(g.ndim - 1))
    gw = np.matmul(np.swapaxes(x, -1, -2), g)
    return out, [np.matmul(g, w.T), gw.sum(axis=lead[:-1]), g.sum(axis=lead)]


class TestFusedOps:
    """Each single-node op against the composition of primitives it replaces."""

    @pytest.mark.parametrize("lead", [(7,), (3, 5), (2, 3, 4)])
    def test_linear_matches_add_matmul(self, lead):
        rng = np.random.default_rng(20)
        leaves = [Tensor(rng.standard_normal(lead + (6,)), requires_grad=True),
                  Tensor(rng.standard_normal((6, 4)), requires_grad=True),
                  Tensor(rng.standard_normal(4), requires_grad=True)]
        got, got_g = _taped(T.linear, leaves)
        want, want_g = _matmul_add_reference(*(t.data for t in leaves))
        np.testing.assert_array_equal(got, want)
        for g, r in zip(got_g, want_g):
            assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()

    def test_linear_shape_errors(self):
        with pytest.raises(ShapeError, match="width"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match="bias"):
            T.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(3)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_grouped_linear_matches_per_group_products(self, dtype):
        # three groups: slice h of width 4 maps through w[h] and b[h] to
        # output slice h of width 6, bit for bit as its own contiguous product
        rng = np.random.default_rng(23)
        x, w, b, g = (rng.standard_normal(shape).astype(dtype)
                      for shape in ((2, 5, 12), (3, 4, 6), (3, 6), (2, 5, 18)))
        leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        with GradTape() as tape:
            out = T.linear(*leaves)
            loss = T.tsum(T.mul(out, Tensor(g)))
        grads = tape.gradients(loss)
        gx, gw, gb = (grads[t] for t in leaves)
        assert out.dtype == gx.dtype == gw.dtype == gb.dtype == dtype
        for h in range(3):
            xs = np.ascontiguousarray(x[..., 4 * h:4 * h + 4]).reshape(10, 4)
            gs = np.ascontiguousarray(g[..., 6 * h:6 * h + 6]).reshape(10, 6)
            want = xs @ w[h]
            want += b[h]
            assert np.array_equal(out.data[..., 6 * h:6 * h + 6].reshape(10, 6), want)
            assert np.array_equal(gx[..., 4 * h:4 * h + 4].reshape(10, 4), gs @ w[h].T)
            assert np.array_equal(gw[h], xs.T @ gs)
            assert np.array_equal(gb[h], gs.sum(axis=0))

    def test_grouped_linear_shape_errors(self):
        w, b = Tensor(np.zeros((3, 2, 4))), Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError, match="width"):
            T.linear(Tensor(np.zeros((5, 7))), w, b)
        for bias in ((4,), (3, 5), (4, 3)):
            with pytest.raises(ShapeError, match="bias"):
                T.linear(Tensor(np.zeros((5, 6))), w, Tensor(np.zeros(bias)))
        for weight in ((6,), (1, 3, 2, 4)):
            with pytest.raises(ShapeError, match="groups"):
                T.linear(Tensor(np.zeros((5, 6))), Tensor(np.zeros(weight)), b)

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 8)])
    def test_glu_matches_mul_narrow_sigmoid(self, shape):
        rng = np.random.default_rng(21)
        half = shape[-1] // 2
        leaves = [Tensor(rng.standard_normal(shape) * 3.0, requires_grad=True),
                  Tensor(rng.standard_normal((half, 5)), requires_grad=True),
                  Tensor(rng.standard_normal(5), requires_grad=True)]
        got, got_g = _taped(T.glu_linear, leaves)
        want, want_g = _taped(
            lambda y, w, b: T.linear(
                T.mul(T.narrow(y, -1, 0, half), _sigmoid_node(T.narrow(y, -1, half, half))),
                w, b),
            leaves)
        np.testing.assert_array_equal(got, want)
        for g, r in zip(got_g, want_g):
            np.testing.assert_array_equal(g, r)

    def test_glu_odd_width(self):
        with pytest.raises(ShapeError, match="even"):
            T.glu_linear(Tensor(np.ones((2, 3))), *_identity_map(1))

    def test_activation_linear_shape_errors(self):
        w, b = _identity_map(4)
        with pytest.raises(ShapeError, match="width"):
            T.gelu_linear(Tensor(np.zeros((2, 3))), w, b)
        with pytest.raises(ShapeError, match="width"):
            T.glu_linear(Tensor(np.zeros((2, 6))), w, b)
        with pytest.raises(ShapeError, match="width"):
            T.glu_linear(Tensor(np.zeros((2, 2, 4))), w, b)
        with pytest.raises(ShapeError, match="bias"):
            T.gelu_linear(Tensor(np.zeros((2, 4))), w, Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match="bias"):
            T.glu_linear(Tensor(np.zeros((2, 8))), Tensor(np.zeros((2, 4, 4))), b)
        with pytest.raises(ShapeError, match="in_axes"):
            T.glu_linear(Tensor(np.zeros((2, 8))), w, b, in_axes=3)
        # heads * width read as one input only when asked for
        assert T.glu_linear(Tensor(np.zeros((3, 2, 4))), w, b, in_axes=2).shape == (3, 4)

    def test_conv_skip_matches_conv_plus_mul(self):
        rng = np.random.default_rng(22)
        leaves = [Tensor(rng.standard_normal((2, 9, 3)), requires_grad=True),
                  Tensor(rng.standard_normal((3, 9)), requires_grad=True),
                  Tensor(rng.standard_normal(3), requires_grad=True)]
        got, got_g = _taped(T.causal_conv_fft, leaves)

        def composed(u, k, d):
            y = T.causal_conv_fft(u, k, Tensor(np.zeros(3)))
            return T.add(y, T.mul(T.reshape(d, (1, 1, 3)), u))
        want, want_g = _taped(composed, leaves)
        np.testing.assert_array_equal(got, want)
        for g, r in zip(got_g, want_g):
            np.testing.assert_array_equal(g, r)


# gelu and glu followed by an affine map, softmax and layer_norm as plain
# numpy expressions, and attention as the chain of numpy calls it replaced,
# the operation order the buffered rules must keep; (output, input
# gradients) for upstream g
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _affine_reference(a, w, b, g):
    """a @ w + b over the trailing axes of ``a`` that hold w's input width;
    (output, [gradient of a, dw, db])."""
    a2, g2 = a.reshape(-1, w.shape[0]), g.reshape(-1, w.shape[1])
    return (a2 @ w + b).reshape(g.shape), [(g2 @ w.T).reshape(a.shape), a2.T @ g2,
                                           g2.sum(axis=0)]


def _gelu_linear_reference(x, w, b, g):
    phi_cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    out, (ga, gw, gb) = _affine_reference(x * phi_cdf, w, b, g)
    return out, [ga * (phi_cdf + x * pdf), gw, gb]


def _glu_linear_reference(y, w, b, g):
    half = y.shape[-1] // 2
    value, s = y[..., :half], expit(y[..., half:])
    out, (ga, gw, gb) = _affine_reference(value * s, w, b, g)
    gy = np.empty(y.shape, dtype=np.result_type(ga, s))
    gy[..., :half] = ga * s
    gy[..., half:] = ga * value * s * (1.0 - s)
    return out, [gy, gw, gb]


def _softmax_reference(x, g):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    return s, [s * (g - (g * s).sum(axis=-1, keepdims=True))]


def _attention_reference(q, k, v, heads, g):
    """Scores, scale, softmax and weighted sum over (batch, heads, length, dh)
    views, each product one stacked ``np.matmul``, as separate nodes ran
    them; (output, [dq, dk, dv])."""
    bsz, length, dim = q.shape
    dh = dim // heads
    factor = 1.0 / math.sqrt(dh)

    def split(a):
        return a.reshape(bsz, length, heads, dh).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(bsz, length, dim)

    q4, k4, v4, g4 = (split(a) for a in (q, k, v, g))
    kt = k4.transpose(0, 1, 3, 2)
    scores = np.matmul(q4, kt) * factor
    gp = np.matmul(g4, np.swapaxes(v4, -1, -2))
    p, (gs,) = _softmax_reference(scores, gp)
    gv = np.matmul(np.swapaxes(p, -1, -2), g4)
    gs = gs * factor
    gq = np.matmul(gs, np.swapaxes(kt, -1, -2))
    gk = np.matmul(np.swapaxes(q4, -1, -2), gs).transpose(0, 1, 3, 2)
    return merge(np.matmul(p, v4)), [merge(gq), merge(gk), merge(gv)]


def _layer_norm_reference(x, gain, bias, g, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.mean(xc * xc, axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    lead = tuple(range(g.ndim - 1))
    gh = g * gain
    gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    return xhat * gain + bias, [gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)]


def _attention_block_reference(x, gain, bias, maps, heads, starts, g):
    """``_attention_reference`` behind a layer norm and the q, k and v affine
    maps, on each row's frames of ``x`` (rows ``starts[b]:starts[b+1]``), or
    on a (batch, length, dim) ``x`` without ``starts``; h's gradient sums
    v's part, then k's, then q's, as the tape sums three linear nodes'.
    (output, [dx, dgain, dbias, dwq, dbq, dwk, dbk, dwv, dbv])."""
    h, _ = _layer_norm_reference(x, gain, bias, np.zeros_like(x))
    h2 = h.reshape(-1, x.shape[-1])
    qkv = [(h2 @ w + b).reshape(x.shape) for w, b in maps]
    if starts is None:
        out, grads = _attention_reference(*qkv, heads, g)
    else:
        out, grads = np.empty_like(x), [np.empty_like(x) for _ in range(3)]
        for lo, hi in zip(starts, starts[1:]):
            row_out, row_grads = _attention_reference(*(a[None, lo:hi] for a in qkv), heads,
                                                      g[None, lo:hi])
            out[lo:hi] = row_out[0]
            for full, part in zip(grads, row_grads):
                full[lo:hi] = part[0]
    gh, map_grads = None, []
    for (w, b), g_map in reversed(list(zip(maps, grads))):
        g_part, gw, gb = _affine_reference(h, w, b, g_map)[1]
        gh = g_part if gh is None else gh + g_part
        map_grads = [gw, gb] + map_grads
    return out, _layer_norm_reference(x, gain, bias, gh)[1] + map_grads


def _feed_forward_reference(x, gain, bias, w1, b1, w2, b2, g):
    """layer_norm, an affine map, then gelu and an affine map, each rule as
    its own reference; (output, [dx, dgain, dbias, dw1, db1, dw2, db2])."""
    h, _ = _layer_norm_reference(x, gain, bias, np.zeros_like(x))
    pre = h.reshape(-1, x.shape[-1]) @ w1 + b1
    out, (g_pre, gw2, gb2) = _gelu_linear_reference(pre, w2, b2, g)
    gh, gw1, gb1 = _affine_reference(h, w1, b1, g_pre)[1]
    return out, _layer_norm_reference(x, gain, bias, gh)[1] + [gw1, gb1, gw2, gb2]


class TestBufferedRulesKeepBits:
    """gelu and glu followed by an affine map and layer_norm against their
    plain numpy expressions, and the feed-forward and attention nodes
    against those rules and the chain of numpy calls attention replaced,
    behind the norm and affine maps they fold in, bit for bit."""

    @staticmethod
    def _run(op, arrays, out_shape, dtype):
        rng = np.random.default_rng(31)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        g = rng.standard_normal(out_shape).astype(dtype)
        with GradTape() as tape:
            out = op(*leaves)
            # d loss / d out is exactly g: ones from the sum, times g
            loss = T.tsum(T.mul(out, Tensor(g)))
        grads = tape.gradients(loss)
        return out.data, [grads[t] for t in leaves], g

    def _check(self, got, got_grads, want, want_grads, dtype):
        assert got.dtype == dtype
        assert np.array_equal(got, want)
        for a, b in zip(got_grads, want_grads):
            assert a.dtype == dtype
            assert np.array_equal(a, b)

    @staticmethod
    def _affine(rng, d_in, d_out, dtype):
        return (rng.standard_normal((d_in, d_out)).astype(dtype),
                rng.standard_normal(d_out).astype(dtype))

    @staticmethod
    def _norm(rng, dim, dtype):
        return ((1.0 + 0.1 * rng.standard_normal(dim)).astype(dtype),
                (0.1 * rng.standard_normal(dim)).astype(dtype))

    def _check_attention(self, rng, x, heads, lengths, dtype):
        """The node, given its norm and q, k and v maps, against the
        reference bit for bit: on the (batch, length, dim) ``x``, or, with
        ``lengths``, on the packed valid frames of rows of those lengths."""
        dim = x.shape[-1]
        params = [*self._norm(rng, dim, dtype),
                  *(a for _ in range(3) for a in self._affine(rng, dim, dim, dtype))]
        starts = None
        if lengths is not None:
            x = np.concatenate([x[b, :n] for b, n in enumerate(lengths)])
            starts = np.concatenate([[0], np.cumsum(lengths)])
        got, got_grads, g = self._run(lambda *t: T.attention(*t, heads, starts),
                                      [x, *params], x.shape, dtype)
        maps = [params[i:i + 2] for i in (2, 4, 6)]
        want, want_grads = _attention_block_reference(x, *params[:2], maps, heads, starts, g)
        self._check(got, got_grads, want, want_grads, dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gelu(self, dtype):
        # 900 rows of 24: the forward makes the slope in two blocks, the
        # second one partial
        rng = np.random.default_rng(32)
        x = (rng.standard_normal((3, 300, 24)) * 3.0).astype(dtype)
        w, b = self._affine(rng, 24, 10, dtype)
        got, got_grads, g = self._run(T.gelu_linear, [x, w, b], (3, 300, 10), dtype)
        self._check(got, got_grads, *_gelu_linear_reference(x, w, b, g), dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_feed_forward(self, dtype):
        # the pre-norm two-layer net as one node against its three nodes'
        # rules; 900 frames of 24 hidden values: two blocks of slope, the
        # second one partial
        rng = np.random.default_rng(38)
        x = (rng.standard_normal((3, 300, 8)) * 3.0 + 1.0).astype(dtype)
        params = [*self._norm(rng, 8, dtype), *self._affine(rng, 8, 24, dtype),
                  *self._affine(rng, 24, 6, dtype)]
        got, got_grads, g = self._run(T.feed_forward, [x, *params], (3, 300, 6), dtype)
        self._check(got, got_grads, *_feed_forward_reference(x, *params, g), dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_glu(self, dtype):
        rng = np.random.default_rng(33)
        y = (rng.standard_normal((3, 16, 24)) * 3.0).astype(dtype)
        w, b = self._affine(rng, 12, 10, dtype)
        got, got_grads, g = self._run(T.glu_linear, [y, w, b], (3, 16, 10), dtype)
        self._check(got, got_grads, *_glu_linear_reference(y, w, b, g), dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_glu_per_head(self, dtype):
        # four heads of width 3 on a (..., heads, 6) view; the map reads all 12
        rng = np.random.default_rng(36)
        y = (rng.standard_normal((3, 16, 4, 6)) * 3.0).astype(dtype)
        w, b = self._affine(rng, 12, 10, dtype)
        got, got_grads, g = self._run(lambda *t: T.glu_linear(*t, in_axes=2), [y, w, b],
                                      (3, 16, 10), dtype)
        self._check(got, got_grads, *_glu_linear_reference(y, w, b, g), dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_layer_norm(self, dtype):
        rng = np.random.default_rng(34)
        x = (rng.standard_normal((3, 16, 24)) * 3.0 + 1.0).astype(dtype)
        gain = (1.0 + 0.1 * rng.standard_normal(24)).astype(dtype)
        bias = (0.1 * rng.standard_normal(24)).astype(dtype)
        got, got_grads, g = self._run(lambda a, b, c: T.layer_norm(a, b, c, 1e-5),
                                      [x, gain, bias], x.shape, dtype)
        self._check(got, got_grads, *_layer_norm_reference(x, gain, bias, g), dtype)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_softmax(self, dtype, masked):
        # softmax's rule inside the attention node: two heads of width 4 over
        # 7 positions, or over the packed frames of rows of 7, 4 and 1
        rng = np.random.default_rng(35)
        x = (rng.standard_normal((3, 7, 8)) * 3.0).astype(dtype)
        self._check_attention(rng, x, 2, [7, 4, 1] if masked else None, dtype)

    @pytest.mark.parametrize("masked", [False, True], ids=["full", "padded"])
    @pytest.mark.parametrize("length", [1, 37])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_attention(self, dtype, heads, length, masked):
        # packed rows: one of full length, one half as long, one of a
        # single position
        rng = np.random.default_rng(37)
        x = (rng.standard_normal((3, length, 8)) * 2.0).astype(dtype)
        lengths = [length, -(-length // 2), 1] if masked else None
        self._check_attention(rng, x, heads, lengths, dtype)


class TestAttention:
    """The attention node's input checks and what it keeps on a tape."""

    def test_shape_errors(self):
        inputs = _attention_inputs(np.ones((2, 4, 6)))
        with pytest.raises(ShapeError, match="divisible"):
            T.attention(*inputs, 4)
        narrow_v = [Tensor(np.ones((6, 3))), Tensor(np.ones(3))]
        with pytest.raises(ShapeError, match="equal"):
            T.attention(*inputs[:7], *narrow_v, 2)
        with pytest.raises(ShapeError, match="affine shapes"):
            T.attention(inputs[0], Tensor(np.ones(4)), *inputs[2:], 2)
        with pytest.raises(ShapeError, match="cover"):
            T.attention(*inputs, 2, [0, 4, 8, 12])
        with pytest.raises(ShapeError, match="row starts"):
            T.attention(*_attention_inputs(np.ones((8, 6))), 2)

    def test_tape_keeps_no_weights(self):
        # 4 heads over 128 positions: the weights would be 1 MiB, q, k and v
        # 96 KiB each; the node keeps only xhat (96 KiB) and the per-frame
        # 1/sigma beside its output
        rng = np.random.default_rng(38)
        inputs = [Tensor(t.data, requires_grad=True)
                  for t in _attention_inputs(rng.standard_normal((2, 128, 48)))]
        tracemalloc.start()
        try:
            with GradTape():
                out = T.attention(*inputs, 4)
                held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 2 * out.data.nbytes + 16 * 2**10, f"{held} bytes held"


class TestSavedArrays:
    """What a node's backward closure keeps (`hooks.saved_arrays`)."""

    def test_gelu_linear_keeps_its_output_and_slope(self):
        # the gelu output x * Phi(x) and its slope, both input-shaped, and no
        # view of the input, which is then freed with the tensor
        rng = np.random.default_rng(50)
        x = Tensor(rng.standard_normal((3, 7, 8)), requires_grad=True)
        with GradTape() as tape:
            T.gelu_linear(x, *_identity_map(8))
        kept = saved_arrays(tape.nodes[-1])
        assert sum(a.shape == (21, 8) or a.shape == x.shape for a in kept) == 2
        assert not any(np.shares_memory(a, x.data) for a in kept)

    @staticmethod
    def _kept_activations(node, params):
        """What ``node`` keeps besides the arrays of ``params``."""
        ids = {id(p.data) for p in params}
        return [a for a in saved_arrays(node) if id(a) not in ids]

    def test_feed_forward_keeps_xhat_its_output_and_slope(self):
        # xhat and 1/sigma of the norm, and the gelu output and slope, both
        # (frames, hidden): no h, no view of x and no pre-activation
        rng = np.random.default_rng(53)
        x = Tensor(rng.standard_normal((3, 7, 8)) * 2.0 + 1.0, requires_grad=True)
        params = [Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in ((8,), (8,), (8, 12), (12,), (12, 5), (5,))]
        with GradTape() as tape:
            T.feed_forward(x, *params)
        kept = self._kept_activations(tape.nodes[-1], params)
        assert sorted(a.shape for a in kept) == [(3, 7, 1), (3, 7, 8), (21, 12), (21, 12)]
        assert not any(np.shares_memory(a, x.data) for a in kept)
        h, _ = _layer_norm_reference(x.data, params[0].data, params[1].data, x.data)
        xhat = (h - params[1].data) / params[0].data
        pre = h.reshape(21, 8) @ params[2].data + params[3].data
        for a in kept:
            if a.shape == x.shape:
                np.testing.assert_allclose(a, xhat, rtol=1e-10, atol=1e-12)
            if a.shape == pre.shape:
                assert not np.allclose(a, pre)

    def test_attention_keeps_xhat_and_inv_only(self):
        # no h, q, k or v: the backward rebuilds them
        rng = np.random.default_rng(54)
        x = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
        params = [Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in ((8,), (8,)) + ((8, 8), (8,)) * 3]
        with GradTape() as tape:
            T.attention(x, *params, 2)
        kept = self._kept_activations(tape.nodes[-1], params)
        assert sorted(a.shape for a in kept) == [(2, 5, 1), (2, 5, 8)]
        assert not any(np.shares_memory(a, x.data) for a in kept)

    def test_dropout_keeps_a_bool_mask(self):
        # one byte a value; the backward rebuilds the scaled mask with the
        # forward's expression, so the gradient of a sum over ones is the
        # output itself
        x = Tensor(np.ones((6, 50)), requires_grad=True)
        with GradTape() as tape:
            out = T.dropout(x, 0.3, np.random.default_rng(51))
            loss = T.tsum(out)
        assert [a.dtype for a in saved_arrays(tape.nodes[0])] == [np.bool_]
        np.testing.assert_array_equal(tape.gradients(loss)[x], out.data)

    @pytest.mark.parametrize("groups", [1, 2])
    def test_linear_sends_a_constant_input_no_gradient(self, groups):
        # a model's input frames: no gradient can reach them, so the
        # backward makes dw and db only
        rng = np.random.default_rng(52)
        x = Tensor(rng.standard_normal((3, 5, 4 * groups)))
        shape = (groups, 4, 2) if groups > 1 else (4, 2)
        w = Tensor(rng.standard_normal(shape), requires_grad=True)
        b = Tensor(rng.standard_normal(shape[:-2] + (2,)), requires_grad=True)
        with GradTape() as tape:
            out = T.linear(x, w, b)
        sent = []
        tape.nodes[0].backward(np.ones(out.shape), lambda key, g: sent.append(key))
        assert sent == [w.key, b.key]


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with GradTape() as tape:
            loss = T.tsum(x)
        np.testing.assert_array_equal(tape.gradients(loss)[x], np.ones((2, 3)))

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            loss = T.tsum(T.mul(x, x))
        np.testing.assert_allclose(tape.gradients(loss)[x], [2.0, 4.0], atol=1e-15)

    def test_additive_accumulation(self):
        x = Tensor([3.0], requires_grad=True)
        with GradTape() as tape:
            loss = T.tsum(T.add(T.mul(x, x), T.scale(x, 5.0)))
        np.testing.assert_allclose(tape.gradients(loss)[x], [11.0], atol=1e-15)

    def test_loss_not_on_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with GradTape() as tape:
            T.tsum(x)
        stray = Tensor(1.0)
        with pytest.raises(ValueError, match="not recorded"):
            tape.gradients(stray)

    def test_non_scalar_loss(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ShapeError, match="scalar"):
            tape.gradients(y)

    def test_gradients_are_keyed_by_trainable_leaves(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([1.0])
        with GradTape() as tape:
            loss = T.tsum(T.add(x, y))
        assert list(tape.gradients(loss)) == [x]

    def test_shared_intermediate_accumulates_before_replay(self):
        # h feeds two later nodes; its gradient must be complete when the node
        # that made it replays, even though it is dropped right after
        x = Tensor([1.5, -2.0], requires_grad=True)
        with GradTape() as tape:
            h = T.mul(x, x)
            loss = T.tsum(T.add(T.mul(h, h), T.scale(h, 3.0)))
        want = (2.0 * x.data ** 2 + 3.0) * 2.0 * x.data
        np.testing.assert_allclose(tape.gradients(loss)[x], want, rtol=1e-15)

    @pytest.mark.parametrize("block", ["mh_ssm", "stateformer"])
    def test_backward_peak_stays_near_forward_memory(self, block):
        # the reverse sweep drops each intermediate gradient once replayed,
        # so its peak stays close to what the forward pass left on the tape
        held, _, peak = _step_memory({"block": block}, batch=4)
        assert peak <= 1.25 * held, f"backward peak {peak / held:.2f}x the forward's memory"


def _step_memory(overrides: dict, batch: int) -> tuple[int, int, int]:
    """Bytes held after a training step's forward pass, the peak of that
    forward pass and the peak of its reverse sweep, as tracemalloc sees
    numpy's buffers."""
    model = TaskModel(load_config(overrides))
    x, targets = generate_task(model.spec, batch, 0)
    tracemalloc.start()
    try:
        with GradTape() as tape:
            loss = T.cross_entropy(model(x), targets, IGNORE_INDEX)
        held, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        tape.gradients(loss)
        sweep_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return held, forward_peak, sweep_peak


# the configs whose peaks are pinned against their held memory
_PEAK_CONFIGS = [
    pytest.param("mh_ssm", "ihg", id="ihg"),
    pytest.param("mh_ssm", "glu", id="glu"),
    pytest.param("stateformer", "ihg", id="stateformer"),
]


class TestTapeRelease:
    """The tape keeps only what backward rules read, and the sweep frees it
    as it replays."""

    def test_second_sweep_is_refused(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            loss = T.tsum(T.mul(x, x))
        tape.gradients(loss)
        with pytest.raises(ValueError, match="already swept"):
            tape.gradients(loss)

    def test_gradients_exact_when_ids_are_reused(self):
        # each round drops a recorded intermediate and a constant, so CPython
        # hands their memory, and with it their id()s, to the next tensors
        x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
        ids = []
        with GradTape() as tape:
            total = T.tsum(T.mul(x, x))
            for k in range(1, 200):
                h = T.scale(x, float(k))
                half = Tensor(np.full(3, 0.5))
                ids += [id(h), id(half)]
                total = T.add(total, T.tsum(T.mul(h, half)))
        assert len(set(ids)) < len(ids)
        want = 2.0 * x.data + 0.5 * sum(range(1, 200))
        np.testing.assert_array_equal(tape.gradients(total)[x], want)

    def test_residual_sums_are_freed_while_the_tape_lives(self, monkeypatch):
        # the default mh_ssm forward adds only residual branches: two blocks
        # per layer, two layers; no backward rule reads a sum
        model = TaskModel(load_config({}))
        x, targets = generate_task(model.spec, 2, 0)
        sums = []
        add = T.add

        def watched_add(a, b):
            out = add(a, b)
            sums.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, "add", watched_add)
        with GradTape() as tape:
            loss = T.cross_entropy(model(x), targets, IGNORE_INDEX)
        gc.collect()
        assert len(sums) == 4
        assert [r() is None for r in sums] == [True] * 4
        assert tape.gradients(loss)

    def test_mul_by_a_constant_keeps_no_other_operand(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        with GradTape() as tape:
            h = T.scale(x, 2.0)
            kept = weakref.ref(h.data)
            out = T.mul(h, Tensor(np.array([[1.0], [1.0], [0.0], [0.0]])))
            del h
            gc.collect()
            assert kept() is None
            loss = T.tsum(out)
        want = np.array([[2.0] * 3] * 2 + [[0.0] * 3] * 2)
        np.testing.assert_array_equal(tape.gradients(loss)[x], want)

    @pytest.mark.parametrize("gating,mib", [pytest.param("ihg", 29, id="ihg"),
                                            pytest.param("glu", 37, id="glu")])
    def test_forward_keeps_no_activation_output(self, gating, mib):
        # each gelu or glu runs with the affine map that reads it as one node,
        # which keeps the activation's inputs (gelu: its output and slope)
        # but not its output; each stage's chunked convolution runs with
        # its input projection, keeping the stage input and its powers but
        # not the projection, its chunked copy, the chunk states or its GEMM
        # weights; and each feed-forward branch is one node that keeps xhat
        # but not the norm's output h: 27.0 MiB (ihg) and 35.0 MiB (glu)
        # held, against 28.0 and 36.0 when the norm and lin1 were nodes of
        # their own
        held, _, _ = _step_memory({"block": "mh_ssm", "gating": gating}, batch=4)
        assert held <= mib * 2**20, f"{held / 2**20:.1f} MiB held after the forward pass"

    def test_attention_keeps_no_weights(self):
        # each attention branch keeps xhat only, and rebuilds h, q, k and
        # v, then its weights tile by tile, in the backward: a stateformer
        # step holds 29.0 MiB (34.0 when it kept h, q, k and v), to which
        # every layer's (batch, heads, length, length) weights would add
        # 16.1 MiB
        held, _, _ = _step_memory({"block": "stateformer"}, batch=4)
        assert held <= 31 * 2**20, f"{held / 2**20:.1f} MiB held after the forward pass"

    @pytest.mark.parametrize("block,gating", _PEAK_CONFIGS)
    def test_forward_peak_stays_within_five_percent_of_held_memory(self, block, gating):
        # the feed-forward node writes the gelu output over its
        # pre-activation, so no branch holds its input, pre-activation,
        # output and slope at once (1.034 for ihg, against 1.095 when lin1
        # was a node of its own)
        held, peak, _ = _step_memory({"block": block, "gating": gating}, batch=4)
        assert peak <= 1.05 * held, f"forward peak {peak / held:.3f}x the held memory"

    @pytest.mark.parametrize("block,gating", _PEAK_CONFIGS)
    def test_sweep_peak_stays_within_five_percent_of_held_memory(self, block, gating):
        # each node's activations go when it replays, so the sweep's
        # gradients mostly reuse what it frees; attention's backward makes
        # its weight and score gradients one tile at a time (1.035 for
        # stateformer, against 1.161 with whole-batch softmax gradients)
        held, _, peak = _step_memory({"block": block, "gating": gating}, batch=4)
        assert peak <= 1.05 * held, f"sweep peak {peak / held:.3f}x the held memory"


@pytest.mark.parametrize("seed", range(10))
def test_every_op_matches_finite_differences(seed):
    from mhssm.verify import max_grad_error, tensor_op_cases
    for name, apply, params in tensor_op_cases(seed):
        err = max_grad_error(apply, params)
        assert err <= 1.0, f"{name} gradient error {err:.3f}x tolerance at seed {seed}"



def _node_kinds(record) -> set[str]:
    """The kinds (`hooks.node_kind`) of the nodes ``record()`` puts on a tape."""
    with GradTape() as tape:
        record()
    return {node_kind(node) for node in tape.nodes}


def test_finite_differences_cover_every_node_kind_of_a_step():
    # the self-check's op cases must record every kind of node a default
    # training step records, so each backward rule has its own FD check
    from mhssm.verify import tensor_op_cases
    covered = set()
    for _, apply, params in tensor_op_cases(0):
        covered |= _node_kinds(lambda: apply(params))
    for block, gating in [("mh_ssm", "ihg"), ("mh_ssm", "glu"), ("mh_ssm", "gelu"),
                          ("stateformer", "ihg"), ("stateformer", "glu"),
                          ("stateformer", "gelu"), ("transformer", "ihg")]:
        model = TaskModel(load_config({"block": block, "gating": gating}))
        x, targets = generate_task(model.spec, 2, 0)
        kinds = _node_kinds(lambda: T.cross_entropy(model(x), targets, IGNORE_INDEX))
        assert kinds <= covered, f"{block}/{gating}: no FD case records {sorted(kinds - covered)}"

class TestDropout:
    def test_identity_when_disabled(self):
        x = Tensor([1.0, 2.0])
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x
        assert T.dropout(x, 0.5, None) is x

    def test_deterministic_given_generator(self):
        x = Tensor(np.ones(1000))
        a = T.dropout(x, 0.3, np.random.default_rng(9)).data
        b = T.dropout(x, 0.3, np.random.default_rng(9)).data
        np.testing.assert_array_equal(a, b)
        assert abs(a.mean() - 1.0) < 0.1


class TestCrossEntropy:
    def test_matches_manual(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((2, 3, 4))
        targets = np.array([[0, -1, 2], [3, 1, -1]])
        loss = T.cross_entropy(Tensor(logits), targets).item()
        ref = []
        for b in range(2):
            for t in range(3):
                if targets[b, t] < 0:
                    continue
                z = logits[b, t]
                ref.append(-(z[targets[b, t]] - np.log(np.exp(z - z.max()).sum()) - z.max()))
        assert loss == pytest.approx(np.mean(ref), abs=1e-12)

    def test_accuracy_ignores_invalid(self):
        logits = np.zeros((1, 3, 2))
        logits[0, :, 1] = 1.0
        targets = np.array([[1, 0, -1]])
        assert T.accuracy(logits, targets) == 0.5


class TestTensorType:
    def test_immutable(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            x.data[0] = 5.0

    def test_shape_data_consistency(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.size == np.prod(x.shape) == x.data.size

    def test_dtype_coercion(self):
        assert Tensor([1, 2]).dtype == np.float64
        assert Tensor(np.zeros(2, dtype=np.float32)).dtype == np.float32

    def test_finite_outputs_for_finite_inputs(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((4, 8)) * 10)
        for out in (T.gelu_linear(x, *_identity_map(8)), T.glu_linear(x, *_identity_map(4))):
            assert np.isfinite(out.data).all()
