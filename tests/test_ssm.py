import numpy as np
import pytest

from mhssm import ssm as ssm_module
from mhssm import tensor as T
from mhssm.errors import ConfigError, ShapeError
from mhssm.seq import SeqBatch
from mhssm.blocks import BidirMhSsmBlock, MhSsmBlockConfig
from mhssm.ssm import (CHUNK, DiagonalSsm, DiscreteSsm,
                       _chunked_conv, discretize,
                       init_ssm_rng, kernel_sum_bound, materialize_kernel,
                       ssm_conv, ssm_conv_projected, ssm_scan, stack_systems)
from mhssm.tensor import GradTape, Tensor

from hooks import eigenvalues, init_ssm, node_kind, packed_call, saved_arrays
from oracles import loop_reverse, mp_kernel_tap, mp_zoh, power_sum_kernel


def make_batch(rng, length, channels, batch=1, lengths=None):
    data = rng.standard_normal((batch, length, channels))
    if lengths is None:
        lengths = np.full(batch, length)
    return SeqBatch(Tensor(data), lengths)


def readout_weights(d):
    """cb = c * bbar per mode, as a complex array."""
    _, _, _, _, cb_re, cb_im = d.zoh.data
    return cb_re + 1j * cb_im


def transition(d):
    """abar per mode, as a complex array."""
    _, _, abar_re, abar_im, _, _ = d.zoh.data
    return abar_re + 1j * abar_im


def zoh_rows(logmag, angle, abar, cb):
    """The (6, channels, states) rows `discretize` packs, from complex abar and cb."""
    return np.stack([logmag, angle, abar.real, abar.imag, cb.real, cb.imag])


def polar_rows(logmag, angle, cb):
    """The packed rows of a system given by log|abar|, arg(abar) and cb."""
    return zoh_rows(logmag, angle, np.exp(logmag + 1j * angle), cb)


def manual_discrete(abar, bbar, c, d_skip):
    """Build a DiscreteSsm from complex arrays of shape (channels, states)."""
    abar, bbar, c = (np.atleast_2d(np.asarray(v, dtype=complex)) for v in (abar, bbar, c))
    with np.errstate(divide="ignore"):      # abar = 0 has log|abar| = -inf
        logmag = np.log(np.abs(abar))
    return DiscreteSsm(Tensor(zoh_rows(logmag, np.angle(abar), abar, c * bbar)),
                       Tensor(np.atleast_1d(np.asarray(d_skip, dtype=float))))


class TestInit:
    def test_s4d_lin_eigenvalues(self):
        ssm = init_ssm(2, 1, seed=0, scheme="s4d_lin")
        lam = eigenvalues(ssm)[0]
        np.testing.assert_allclose(lam, [-0.5 + 0j, -0.5 + 1j * np.pi], atol=1e-15)

    def test_same_seed_identical(self):
        a = init_ssm(8, 3, seed=42, scheme="random_stable")
        b = init_ssm(8, 3, seed=42, scheme="random_stable")
        for name, t in a.named_params().items():
            np.testing.assert_array_equal(t.data, b.named_params()[name].data)

    def test_random_stable_always_contractive(self):
        for seed in range(1000):
            ssm = init_ssm(4, 1, seed=seed, scheme="random_stable")
            assert discretize(ssm).spectral_radius() < 1.0

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            init_ssm(0, 1)
        with pytest.raises(ConfigError):
            init_ssm(1, 0)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            init_ssm(2, 1, scheme="hippo")

    def test_step_size_range(self):
        ssm = init_ssm(4, 64, seed=7)
        dt = np.exp(ssm.log_dt.data)
        assert (dt >= 0.001 - 1e-12).all() and (dt <= 0.1 + 1e-12).all()


class TestDiscretize:
    def test_hand_checked_half(self):
        # eigenvalue -1, step ln 2: abar = 1/2, bbar = (1/2 - 1)/(-1) = 1/2
        ssm = DiagonalSsm(
            1, 1,
            Tensor(np.zeros((1, 1)), requires_grad=True),     # Re = -exp(0) = -1
            Tensor(np.zeros((1, 1)), requires_grad=True),
            Tensor(np.ones((1, 1)), requires_grad=True),
            Tensor(np.zeros((1, 1)), requires_grad=True),
            Tensor(np.ones((1, 1)), requires_grad=True),
            Tensor(np.zeros((1, 1)), requires_grad=True),
            Tensor(np.zeros(1), requires_grad=True),
            Tensor(np.full(1, np.log(np.log(2.0))), requires_grad=True),
        )
        d = discretize(ssm)
        # c = 1, so cb = bbar
        assert transition(d)[0, 0].real == pytest.approx(0.5, abs=1e-15)
        assert transition(d)[0, 0].imag == pytest.approx(0.0, abs=1e-15)
        assert readout_weights(d)[0, 0].real == pytest.approx(0.5, abs=1e-15)

    def test_small_step_taylor_limit(self):
        rng = np.random.Generator(np.random.PCG64(1))
        ssm = init_ssm_rng(4, 2, rng, "random_stable")
        ssm.log_dt = Tensor(np.full(2, np.log(1e-8)), requires_grad=True)
        d = discretize(ssm)
        lam = eigenvalues(ssm)
        c = ssm.c_re.data + 1j * ssm.c_im.data
        # second-order remainders scale with |lam|^2 * dt^2 ~ 1e-15; bbar ~ dt
        # (b = 1) is checked through cb = c * bbar, with the bound times |c|
        assert np.abs(transition(d) - (1.0 + lam * 1e-8)).max() < 1e-14
        assert (np.abs(readout_weights(d) - c * 1e-8) < 1e-14 * np.abs(c)).all()

    def test_against_high_precision(self):
        rng = np.random.Generator(np.random.PCG64(2))
        ssm = init_ssm_rng(8, 2, rng, "random_stable")
        d = discretize(ssm)
        lam = eigenvalues(ssm)
        dt = np.exp(ssm.log_dt.data)
        b = ssm.b_re.data + 1j * ssm.b_im.data
        c = ssm.c_re.data + 1j * ssm.c_im.data
        abar, cb = transition(d), readout_weights(d)
        for p in range(2):
            for n in range(8):
                abar_ref, bbar_ref = mp_zoh(lam[p, n], float(dt[p]), b[p, n])
                assert abs(abar[p, n] - abar_ref) <= 1e-12
                # the 1e-12 bound on bbar, carried through cb = c * bbar
                assert abs(cb[p, n] - c[p, n] * bbar_ref) <= 1e-12 * abs(c[p, n])

    def test_magnitudes_below_one(self):
        for seed in range(20):
            d = discretize(init_ssm(8, 4, seed=seed))
            assert d.spectral_radius() < 1.0


def composed_zoh(ssm):
    """The rows of `discretize` by the per-op composition it replaced: the
    same real operations in the same order, written out in numpy."""
    lam_re = -np.exp(ssm.log_neg_re.data)
    lam_im = ssm.lam_im.data
    dt = np.exp(ssm.log_dt.data).reshape(ssm.channels, 1)
    logmag = lam_re * dt
    angle = lam_im * dt
    mag = np.exp(logmag)
    abar_re = mag * np.cos(angle)
    abar_im = mag * np.sin(angle)
    num_re = abar_re + -1.0
    num_im = abar_im
    den = lam_re * lam_re + lam_im * lam_im
    inv_re = lam_re / den
    inv_im = -(lam_im / den)
    t_re = num_re * inv_re - num_im * inv_im
    t_im = num_re * inv_im + num_im * inv_re
    bbar_re = t_re * ssm.b_re.data - t_im * ssm.b_im.data
    bbar_im = t_re * ssm.b_im.data + t_im * ssm.b_re.data
    c_re, c_im = ssm.c_re.data, ssm.c_im.data
    return [logmag, angle, abar_re, abar_im,
            c_re * bbar_re - c_im * bbar_im, c_re * bbar_im + c_im * bbar_re]


class TestZohKeepsBits:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rows_match_composed_formulas(self, dtype):
        rng = np.random.Generator(np.random.PCG64(30))
        ssm = init_ssm_rng(16, 8, rng, "random_stable", dtype=dtype)
        ssm.b_re = Tensor(rng.standard_normal((8, 16)), requires_grad=True, dtype=dtype)
        ssm.b_im = Tensor(rng.standard_normal((8, 16)), requires_grad=True, dtype=dtype)
        with GradTape() as tape:
            zoh = discretize(ssm).zoh
            loss = T.tsum(T.mul(zoh, Tensor(rng.standard_normal(zoh.shape), dtype=dtype)))
        grads = tape.gradients(loss)
        assert zoh.dtype == dtype and zoh.shape == (6, 8, 16)
        for row, want in zip(zoh.data, composed_zoh(ssm)):
            assert want.dtype == dtype
            assert np.array_equal(row, want)
        stored = [t for name, t in ssm.named_params().items() if name != "d"]
        assert all(grads[t].dtype == dtype and grads[t].shape == t.shape for t in stored)


class TestScan:
    def test_zero_input_zero_output(self):
        d = discretize(init_ssm(4, 3, seed=1))
        u = SeqBatch(Tensor(np.zeros((2, 10, 3))), np.array([10, 10]))
        assert np.abs(ssm_scan(d, u).data.data).max() == 0.0

    def test_degenerate_transition_is_memoryless(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        bbar = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        d_skip = rng.standard_normal(2)
        d = manual_discrete(np.zeros((2, 4)), bbar, c, d_skip)
        u = make_batch(rng, 12, 2, batch=2)
        gain = 2.0 * (c * bbar).sum(axis=1).real + d_skip
        # abar = 0: the convolution's kernel sees log|abar| = -inf
        for path in (ssm_scan, ssm_conv):
            y = path(d, u).data.data
            np.testing.assert_allclose(y, u.data.data * gain, atol=1e-12)

    def test_channel_mismatch(self):
        d = discretize(init_ssm(4, 3, seed=1))
        u = make_batch(np.random.default_rng(0), 10, 5)
        with pytest.raises(ShapeError, match="channels"):
            ssm_scan(d, u)

    def test_matches_conv_at_length_64(self):
        rng = np.random.default_rng(4)
        d = discretize(init_ssm(8, 4, seed=9))
        u = make_batch(rng, 64, 4, batch=2)
        ys = ssm_scan(d, u).data.data
        yc = ssm_conv(d, u).data.data
        assert np.abs(ys - yc).max() <= 1e-10


class TestKernel:
    def test_first_tap(self):
        d = discretize(init_ssm(8, 4, seed=5))
        k = materialize_kernel(d, 6).data
        cb = readout_weights(d)
        np.testing.assert_allclose(k[:, 0], 2.0 * cb.sum(axis=1).real, atol=1e-13)

    def test_single_mode_geometric(self):
        d = manual_discrete([[0.5]], [[1.0]], [[1.0]], [0.0])
        k = materialize_kernel(d, 6).data[0]
        np.testing.assert_allclose(k, 2.0 * 0.5 ** np.arange(6), atol=1e-14)

    def test_matches_impulse_response(self):
        d = discretize(init_ssm(16, 3, seed=6))
        d.d = Tensor(np.zeros(3))
        length = 40
        impulse = np.zeros((1, length, 3))
        impulse[0, 0, :] = 1.0
        y = ssm_scan(d, SeqBatch(Tensor(impulse), np.array([length]))).data.data
        k = materialize_kernel(d, length).data
        assert np.abs(y[0].T - k).max() <= 1e-10

    def test_invalid_length(self):
        d = discretize(init_ssm(2, 1, seed=0))
        with pytest.raises(ShapeError):
            materialize_kernel(d, 0)

    @pytest.mark.parametrize("length", [1, 2, 255, 256, 257, 4096, 4097, 16384])
    def test_matches_power_sum_oracle(self, length):
        # perfect squares and partial last blocks of the sqrt(L) tap split
        rng = np.random.Generator(np.random.PCG64(length))
        for scheme in ("s4d_lin", "random_stable"):
            d = discretize(init_ssm_rng(8, 2, rng, scheme))
            logmag, angle, _, _, _, _ = d.zoh.data
            cb = readout_weights(d)
            k = materialize_kernel(d, length).data
            ref = power_sum_kernel(logmag, angle, cb, length)
            scale = np.abs(ref).max(axis=1)
            assert (np.abs(k - ref).max(axis=1) <= 1e-10 * scale).all(), scheme
            last = [float(v) for v in mp_kernel_tap(logmag, angle, cb, length - 1)]
            assert (np.abs(k[:, -1] - last) <= 1e-10 * scale).all(), scheme

    def test_heavily_damped_tail_is_finite_zero(self):
        # |abar| ~ e^-5: taps past ~150 are below the float64 range
        rng = np.random.default_rng(21)
        logmag = rng.uniform(-5.5, -4.5, (2, 4))
        angle = rng.uniform(-np.pi, np.pi, (2, 4))
        cb = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        d = DiscreteSsm(Tensor(polar_rows(logmag, angle, cb)), Tensor(np.zeros(2)))
        length = 4097
        k = materialize_kernel(d, length).data
        assert np.isfinite(k).all()
        ref = power_sum_kernel(logmag, angle, cb, 100)
        scale = np.abs(ref).max(axis=1)
        assert (np.abs(k[:, :100] - ref).max(axis=1) <= 1e-10 * scale).all()
        assert np.abs(k[:, 200:]).max() <= 1e-300
        for tap in (50, 140, 149, 150, 151, 1000, length - 1):
            exact = np.array([float(v) for v in mp_kernel_tap(logmag, angle, cb, tap)])
            assert (np.abs(k[:, tap] - exact) <= 1e-10 * np.abs(exact) + 1e-300).all(), tap

    def test_long_kernel_log_space_path(self):
        d = discretize(init_ssm(4, 2, seed=8))
        k = materialize_kernel(d, 8192).data
        assert np.isfinite(k).all()
        short = materialize_kernel(d, 64).data
        np.testing.assert_allclose(k[:, :64], short, atol=1e-12)


class TestConv:
    def test_impulse_reproduces_kernel(self):
        d = discretize(init_ssm(8, 2, seed=10))
        d.d = Tensor(np.zeros(2))
        length = 32
        impulse = np.zeros((1, length, 2))
        impulse[0, 0, :] = 1.0
        y = ssm_conv(d, SeqBatch(Tensor(impulse), np.array([length]))).data.data
        k = materialize_kernel(d, length).data
        assert np.abs(y[0].T - k).max() <= 1e-12

    def test_zero_input(self):
        d = discretize(init_ssm(4, 2, seed=11))
        u = SeqBatch(Tensor(np.zeros((1, 16, 2))), np.array([16]))
        assert np.abs(ssm_conv(d, u).data.data).max() == 0.0

    @pytest.mark.parametrize("length", [8, 100, 1024])
    def test_matches_scan_on_random_systems(self, length):
        rng = np.random.default_rng(length)
        systems = [init_ssm_rng(16, 2, np.random.Generator(np.random.PCG64(s)),
                                "s4d_lin" if s % 2 else "random_stable")
                   for s in range(10)]
        fused = stack_systems(systems)
        d = discretize(fused)
        u = make_batch(rng, length, fused.channels)
        ys = ssm_scan(d, u).data.data
        yc = ssm_conv(d, u).data.data
        rel = np.abs(ys - yc).max() / np.abs(ys).max()
        assert rel <= 1e-8

    def test_causality(self):
        rng = np.random.default_rng(12)
        d = discretize(init_ssm(8, 2, seed=13))
        u = rng.standard_normal((1, 30, 2))
        base_scan = ssm_scan(d, SeqBatch(Tensor(u), np.array([30]))).data.data
        base_conv = ssm_conv(d, SeqBatch(Tensor(u), np.array([30]))).data.data
        bumped = u.copy()
        bumped[0, 20:] += 5.0
        alt_scan = ssm_scan(d, SeqBatch(Tensor(bumped), np.array([30]))).data.data
        alt_conv = ssm_conv(d, SeqBatch(Tensor(bumped), np.array([30]))).data.data
        np.testing.assert_array_equal(alt_scan[0, :20], base_scan[0, :20])
        assert np.abs(alt_conv[0, :20] - base_conv[0, :20]).max() <= 1e-12


class TestGradients:
    def test_scan_and_conv_paths_agree(self):
        ssm = init_ssm(4, 2, seed=14)
        rng = np.random.default_rng(15)
        u = make_batch(rng, 12, 2)
        w = rng.standard_normal((1, 12, 2))

        def loss_through(path):
            with GradTape() as tape:
                y = path(discretize(ssm), u).data
                loss = T.tsum(T.mul(y, Tensor(w)))
            grads = tape.gradients(loss)
            return {name: grads[t] for name, t in ssm.named_params().items()}

        g_scan = loss_through(ssm_scan)
        g_conv = loss_through(ssm_conv)
        for name in g_scan:
            scale = max(np.abs(g_scan[name]).max(), 1e-12)
            assert np.abs(g_scan[name] - g_conv[name]).max() / scale <= 1e-6, name

    def test_radius_below_one_after_updates(self):
        # the parameterization cannot express an unstable transition
        ssm = init_ssm(4, 2, seed=16)
        rng = np.random.default_rng(17)
        for _ in range(50):
            updates = {
                name: Tensor(t.data + rng.standard_normal(t.shape), requires_grad=True)
                for name, t in ssm.named_params().items()
            }
            ssm.set_params(updates)
            assert discretize(ssm).spectral_radius() < 1.0


class TestBound:
    def test_kernel_sum_bound_holds(self):
        rng = np.random.default_rng(18)
        d = discretize(init_ssm(8, 3, seed=19))
        length = 2048
        u = rng.uniform(-1.0, 1.0, (1, length, 3))
        y = ssm_conv(d, SeqBatch(Tensor(u), np.array([length]))).data.data
        bound = kernel_sum_bound(d, length)
        assert (np.abs(y[0]).max(axis=0) <= bound).all()

    def test_sign_input_attains_kernel_sum_bound(self):
        # u_(L-1-k) = sign(K[k]), with d added at k = 0, drives the last
        # output to sum_(k>=1) |K[k]| + |K[0] + d|: the bound is the supremum
        d = discretize(init_ssm(8, 3, seed=5, scheme="random_stable"))
        length = 200
        kernel = materialize_kernel(d, length).data.copy()
        kernel[:, 0] += d.d.data
        u = np.sign(kernel[:, ::-1]).T[None]
        y = ssm_conv(d, SeqBatch(Tensor(u), np.array([length]))).data.data
        bound = kernel_sum_bound(d, length)
        assert np.abs(y[0, -1] - bound).max() <= 1e-12 * bound.max()


class TestFuse:
    def test_fused_equals_individual(self):
        systems = [init_ssm(4, 2, seed=s) for s in range(3)]
        fused = discretize(stack_systems(systems))
        rng = np.random.default_rng(20)
        u = make_batch(rng, 16, 6)
        y = ssm_conv(fused, u).data.data
        for i, s in enumerate(systems):
            part = SeqBatch(Tensor(u.data.data[:, :, 2 * i:2 * i + 2]), u.lengths)
            y_i = ssm_conv(discretize(s), part).data.data
            assert np.abs(y[:, :, 2 * i:2 * i + 2] - y_i).max() <= 1e-12

    def test_state_dim_mismatch(self):
        with pytest.raises(ShapeError):
            stack_systems([init_ssm(4, 1, seed=0), init_ssm(8, 1, seed=1)])


def fft_conv(d, u):
    return T.causal_conv_fft(u, materialize_kernel(d, u.shape[1]), d.d)


def chunked_conv(d, u):
    return _chunked_conv(u, d.zoh, d.d, (u.shape[1],) * u.shape[0])


def output_and_grads(conv, make_discrete, leaves, u, weights):
    """conv's output and the gradient of sum(y * weights) for every leaf."""
    with GradTape() as tape:
        y = conv(make_discrete(), u)
        loss = T.tsum(T.mul(y, Tensor(weights)))
    grads = tape.gradients(loss)
    return y.data, {name: grads[t] for name, t in leaves.items()}


def assert_paths_agree(make_discrete, leaves, u, weights, out_rtol=1e-13, grad_rtol=1e-12):
    """The chunked node matches the FFT path: output relative to its peak,
    every gradient relative to the global gradient norm."""
    y_ref, g_ref = output_and_grads(fft_conv, make_discrete, leaves, u, weights)
    y, g = output_and_grads(chunked_conv, make_discrete, leaves, u, weights)
    assert y.dtype == y_ref.dtype and y.shape == y_ref.shape
    assert np.abs(y - y_ref).max() <= out_rtol * np.abs(y_ref).max()
    norm = np.sqrt(sum(float((a ** 2).sum()) for a in g_ref.values()))
    for name in g_ref:
        assert np.isfinite(g[name]).all(), name
        assert np.abs(g[name] - g_ref[name]).max() <= grad_rtol * norm, name


def polar_system(logmag, angle, cb, d_skip):
    """Leaves of a discrete system given in polar form, and a builder for it."""
    leaves = {"zoh": polar_rows(logmag, angle, cb), "d": d_skip}
    leaves = {k: Tensor(v, requires_grad=True) for k, v in leaves.items()}
    return lambda: DiscreteSsm(leaves["zoh"], leaves["d"]), leaves


def projected_and_separate(rng, x, lengths, dtype):
    """Output and the gradients for x, w, b, zoh and skip of ``sum(y * weights)``,
    with y from `ssm_conv_projected`, then from `T.linear` and `ssm_conv`."""
    d_src = discretize(init_ssm(4, 6, seed=31, scheme="random_stable", dtype=dtype))
    leaves = {"x": x, "w": rng.standard_normal((x.shape[-1], 6)), "b": rng.standard_normal(6),
              "zoh": d_src.zoh.data, "skip": d_src.d.data}
    leaves = {k: Tensor(v, requires_grad=True, dtype=dtype) for k, v in leaves.items()}
    # the gradient past each row's length is zero, as the encoder never
    # computes padding, so both paths read the same upstream gradient
    valid = np.arange(x.shape[1])[:, None] < np.asarray(lengths)[:, None, None]
    weights = Tensor(rng.standard_normal(x.shape[:2] + (6,)) * valid, dtype=dtype)

    def run(conv):
        with GradTape() as tape:
            y = conv(DiscreteSsm(leaves["zoh"], leaves["skip"]), SeqBatch(leaves["x"], lengths))
            loss = T.tsum(T.mul(y.data, weights))
        grads = tape.gradients(loss)
        return y.data.data, {name: grads[t] for name, t in leaves.items()}

    w, b = leaves["w"], leaves["b"]
    return (run(lambda d, xb: ssm_conv_projected(d, xb.packed(), w, b).unpacked()),
            run(lambda d, xb: ssm_conv(d, xb.with_data(T.linear(xb.data, w, b)))))


def assert_same_bits(got, want):
    (y, grads), (y_ref, grads_ref) = got, want
    assert y.dtype == y_ref.dtype
    np.testing.assert_array_equal(y, y_ref)
    assert grads.keys() == grads_ref.keys() == {"x", "w", "b", "zoh", "skip"}
    for name, g in grads.items():
        assert g.dtype == grads_ref[name].dtype, name
        np.testing.assert_array_equal(g, grads_ref[name], err_msg=name)


class TestChunkedConv:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("length", [1, 5, CHUNK - 1, CHUNK, CHUNK + 1, 261, 4097])
    def test_projection_keeps_the_bits_of_linear_then_conv(self, length, dtype):
        # the one node against the input projection and the convolution as
        # two nodes: output and all five gradients, bit for bit
        rng = np.random.default_rng(length)
        batch = 2 if length < 4097 else 1
        x = rng.standard_normal((batch, length, 5))
        got, want = projected_and_separate(rng, x, [length] * batch, dtype)
        assert got[0].dtype == dtype
        assert_same_bits(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_projection_keeps_the_bits_on_a_padded_batch(self, dtype):
        # the two nodes compute every step; the one node runs on the packed
        # valid steps and skips each row's padded chunks, so its valid
        # outputs keep their bits, the unpacked output is exact zeros past
        # each length, and its gradients sum fewer terms
        rng = np.random.default_rng(32)
        lengths = np.array([70, 41, 9])
        valid = np.arange(70)[None, :, None] < lengths[:, None, None]
        x = rng.standard_normal((3, 70, 5)) * valid
        (y, grads), (y_ref, grads_ref) = projected_and_separate(rng, x, lengths, dtype)
        np.testing.assert_array_equal(y[valid[..., 0]], y_ref[valid[..., 0]])
        assert (y[~valid[..., 0]] == 0.0).all()
        rtol = 1e-12 if dtype == np.float64 else 1e-5
        for name, g in grads.items():
            assert g.dtype == dtype, name
            scale = np.abs(grads_ref[name]).max()
            assert np.abs(g - grads_ref[name]).max() <= rtol * scale, name

    @pytest.mark.parametrize("reverse", [False, True])
    def test_node_keeps_its_input_and_powers_only(self, reverse):
        # besides x, w and b: the (p, n, CHUNK + 1) powers, the (p, CHUNK)
        # taps and the (p, n) readout weights; no (p, Q, Q), (p, Q, 2n) or
        # (p, 2n, Q) GEMM weight, no (p, rows, n) z^Q and no product base of
        # the powers, which the backward rebuilds
        p, n = 6, 4
        d = discretize(init_ssm(n, p, seed=37, scheme="random_stable"))
        rng = np.random.default_rng(38)
        x = make_batch(rng, 70, 5, batch=3, lengths=[70, 41, 9]).packed()
        w = Tensor(rng.standard_normal((5, p)), requires_grad=True)
        b = Tensor(rng.standard_normal(p), requires_grad=True)
        with GradTape() as tape:
            ssm_conv_projected(d, x, w, b, reverse)
        node, = (node for node in tape.nodes if node_kind(node) == "_chunked_conv")
        kept = saved_arrays(node)
        inputs = [a for a in kept if any(a is t.data for t in (x.data, w, b))]
        assert len(inputs) == 3
        rest = {(a.shape, a.dtype.kind) for a in kept if not any(a is i for i in inputs)}
        assert rest == {((p, CHUNK), "f"), ((p, n), "c"), ((p, n, CHUNK + 1), "c")}

    def test_projection_shape_errors(self):
        d = discretize(init_ssm(4, 6, seed=33))
        x = make_batch(np.random.default_rng(34), 8, 5)
        w, b = Tensor(np.ones((5, 6))), Tensor(np.ones(6))
        for bad_w, bad_b in [(Tensor(np.ones((6, 6))), b), (Tensor(np.ones((5, 4))), b),
                             (w, Tensor(np.ones(5)))]:
            with pytest.raises(ShapeError, match="weight"):
                ssm_conv_projected(d, x.packed(), bad_w, bad_b)
        with pytest.raises(ShapeError, match="length"):
            ssm_conv_projected(d, make_batch(np.random.default_rng(35), 0, 5).packed(), w, b)

    @pytest.mark.parametrize("length", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3,
                                        255, 256, 257, 4097, 8192, 16384])
    def test_matches_fft_path(self, length):
        rng = np.random.Generator(np.random.PCG64(length))
        ssm = stack_systems([init_ssm_rng(8, 2, rng, scheme)
                             for scheme in ("s4d_lin", "random_stable")])
        batch = 2 if length <= 4097 else 1
        u = Tensor(rng.standard_normal((batch, length, 4)), requires_grad=True)
        weights = rng.standard_normal(u.shape)
        assert_paths_agree(lambda: discretize(ssm), {**ssm.named_params(), "u": u},
                           u, weights)

    def test_heavily_damped_system(self):
        # |abar| ~ e^-5: every power past the first chunk is below 1e-69
        rng = np.random.default_rng(22)
        logmag = rng.uniform(-5.5, -4.5, (3, 4))
        make, leaves = polar_system(logmag, rng.uniform(-np.pi, np.pi, (3, 4)),
                                    rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)),
                                    rng.standard_normal(3))
        u = Tensor(rng.standard_normal((2, 301, 3)), requires_grad=True)
        assert_paths_agree(make, {**leaves, "u": u}, u, rng.standard_normal(u.shape))

    def test_degenerate_transition_is_memoryless(self):
        # abar = 0 (log|abar| = -inf): y = (2 Re sum cb + d) * u, exactly memoryless
        rng = np.random.default_rng(23)
        cb = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        d_skip = rng.standard_normal(2)
        make, leaves = polar_system(np.full((2, 4), -np.inf), rng.uniform(-3, 3, (2, 4)),
                                    cb, d_skip)
        u = Tensor(rng.standard_normal((2, 265, 2)), requires_grad=True)
        weights = rng.standard_normal(u.shape)
        y, grads = output_and_grads(chunked_conv, make, {**leaves, "u": u}, u, weights)
        gain = 2.0 * cb.sum(axis=1).real + d_skip
        np.testing.assert_allclose(y, u.data * gain, atol=1e-12)
        np.testing.assert_allclose(grads["u"], weights * gain, atol=1e-12)
        assert (grads["zoh"][0] == 0.0).all()      # the log|abar| row
        assert_paths_agree(make, {**leaves, "u": u}, u, weights)

    def test_matches_scan_with_gradients(self):
        ssm = init_ssm(4, 2, seed=24, scheme="random_stable")
        rng = np.random.default_rng(25)
        u = Tensor(rng.standard_normal((2, 2 * CHUNK + 3, 2)), requires_grad=True)
        weights = rng.standard_normal(u.shape)
        leaves = {**ssm.named_params(), "u": u}

        def scan(d, x):
            return ssm_scan(d, SeqBatch(x, [x.shape[1]] * x.shape[0])).data

        y_scan, g_scan = output_and_grads(scan, lambda: discretize(ssm), leaves, u, weights)
        y, g = output_and_grads(chunked_conv, lambda: discretize(ssm), leaves, u, weights)
        assert np.abs(y - y_scan).max() <= 1e-12 * np.abs(y_scan).max()
        for name in g_scan:
            scale = max(np.abs(g_scan[name]).max(), 1e-12)
            assert np.abs(g[name] - g_scan[name]).max() <= 1e-10 * scale, name

    def test_every_length_runs_the_chunked_node(self, monkeypatch):
        d = discretize(init_ssm(4, 2, seed=26))
        rng = np.random.default_rng(27)
        batches = [make_batch(rng, length, 2, batch=2)
                   for length in (1, 5, 31, 32, 33, 255, 256, 257)]
        expected = [chunked_conv(d, u.data).data for u in batches]

        def no_kernel(*args):
            raise AssertionError("kernel or FFT path used")

        monkeypatch.setattr(T, "causal_conv_fft", no_kernel)
        monkeypatch.setattr(ssm_module, "materialize_kernel", no_kernel)
        for u, want in zip(batches, expected):
            np.testing.assert_array_equal(ssm_conv(d, u).data.data, want)

    def test_empty_input_rejected(self):
        d = discretize(init_ssm(4, 2, seed=26))
        with pytest.raises(ShapeError, match="length"):
            ssm_conv(d, make_batch(np.random.default_rng(27), 0, 2))

    def test_padded_batch_through_bidirectional_block(self):
        # ragged lengths over many chunks: each row alone matches its padded
        # row, padding stays zero, through both directions of the block
        cfg = MhSsmBlockConfig(model_dim=8, heads=2, stack=2, state_dim=4, dropout=0.0)
        block = BidirMhSsmBlock(cfg, np.random.Generator(np.random.PCG64(28)))
        rng = np.random.default_rng(29)
        lengths = np.array([300, 263, 286])
        width = int(lengths.max())
        valid = np.arange(width)[None, :, None] < lengths[:, None, None]
        frames = rng.standard_normal((3, width, 8)) * valid
        out = packed_call(block, SeqBatch(Tensor(frames), lengths)).data.data
        assert (out[~valid[..., 0]] == 0.0).all()
        for b, n in enumerate(lengths):
            alone = packed_call(block, SeqBatch(Tensor(frames[b:b + 1, :n]), [n])).data.data[0]
            assert np.abs(alone - out[b, :n]).max() <= 1e-12 * np.abs(alone).max()


def reversed_and_causal(rng, x, lengths, dtype):
    """Output and the gradients for x, w, b, zoh and skip of ``sum(y * weights)``,
    with y from the anti-causal `ssm_conv_projected`, then from the causal
    one between two `loop_reverse` calls."""
    d_src = discretize(init_ssm(4, 6, seed=36, scheme="random_stable", dtype=dtype))
    leaves = {"w": rng.standard_normal((x.shape[-1], 6)), "b": rng.standard_normal(6),
              "zoh": d_src.zoh.data, "skip": d_src.d.data}
    leaves = {k: Tensor(v, requires_grad=True, dtype=dtype) for k, v in leaves.items()}
    weights = rng.standard_normal(x.shape[:2] + (6,))

    def run(x_in, weights_in, reverse):
        x_leaf = Tensor(x_in, requires_grad=True, dtype=dtype)
        with GradTape() as tape:
            y = ssm_conv_projected(DiscreteSsm(leaves["zoh"], leaves["skip"]),
                                   SeqBatch(x_leaf, lengths).packed(), leaves["w"], leaves["b"],
                                   reverse).unpacked()
            loss = T.tsum(T.mul(y.data, Tensor(weights_in, dtype=dtype)))
        grads = tape.gradients(loss)
        return y.data.data, {"x": grads[x_leaf], **{k: grads[t] for k, t in leaves.items()}}

    y, grads = run(x, weights, True)
    y_ref, grads_ref = run(loop_reverse(x, lengths), loop_reverse(weights, lengths), False)
    grads_ref["x"] = loop_reverse(grads_ref["x"], lengths)
    return (y, grads), (loop_reverse(y_ref, lengths), grads_ref)


class TestAntiCausalConv:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("length,lengths", [
        (70, [70, 0, 1, 31, 32, 33]), (33, [33, 32]), (64, [64, 64]), (261, [261, 200])])
    def test_equals_causal_node_between_reversals(self, length, lengths, dtype):
        # y and the gradients of x, zoh and skip keep every bit at every
        # step, padding included; dw and db sum over rows in another order
        rng = np.random.default_rng(length)
        x = rng.standard_normal((len(lengths), length, 5))
        (y, grads), (y_ref, grads_ref) = reversed_and_causal(rng, x, np.array(lengths), dtype)
        assert y.dtype == dtype
        np.testing.assert_array_equal(y, y_ref)
        for name in ("x", "zoh", "skip"):
            np.testing.assert_array_equal(grads[name], grads_ref[name], err_msg=name)
        rtol = 1e-12 if dtype == np.float64 else 1e-5
        for name in ("w", "b"):
            scale = np.abs(grads_ref[name]).max()
            assert np.abs(grads[name] - grads_ref[name]).max() <= rtol * scale, name

    @pytest.mark.parametrize("length,lengths", [(261, [261, 0, 33, 200]),
                                                (8192, [8192, 5001, 1])])
    def test_matches_scan_on_reversed_input(self, length, lengths):
        # the exact recurrence run over each row reversed within its length,
        # reversed back; an identity projection passes x through bit for bit
        rng = np.random.Generator(np.random.PCG64(length))
        d = discretize(stack_systems([init_ssm_rng(8, 2, rng, scheme)
                                      for scheme in ("s4d_lin", "random_stable")]))
        x = rng.standard_normal((len(lengths), length, 4))
        eye = Tensor(np.eye(4))
        y = ssm_conv_projected(d, SeqBatch(Tensor(x), lengths).packed(), eye,
                               Tensor(np.zeros(4)), reverse=True).unpacked().data.data
        want = loop_reverse(ssm_scan(d, SeqBatch(Tensor(loop_reverse(x, lengths)), lengths))
                            .data.data, lengths)
        valid = np.arange(length)[None, :] < np.array(lengths)[:, None]
        assert np.abs(y[valid] - want[valid]).max() <= 1e-8 * np.abs(want[valid]).max()
        assert (y[~valid] == 0.0).all()
