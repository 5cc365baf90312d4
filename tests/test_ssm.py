import numpy as np
import pytest

from mhssm import tensor as T
from mhssm.errors import ConfigError, ShapeError
from mhssm.seq import SeqBatch
from mhssm.ssm import (DiagonalSsm, DiscreteSsm, discretize, fuse_diagonal,
                       init_ssm, init_ssm_rng, kernel_sum_bound,
                       materialize_kernel, ssm_conv, ssm_scan)
from mhssm.tensor import GradTape, Tensor

from oracles import mp_kernel_tap, mp_zoh, power_sum_kernel


def make_batch(rng, length, channels, batch=1, lengths=None):
    data = rng.standard_normal((batch, length, channels))
    if lengths is None:
        lengths = np.full(batch, length)
    return SeqBatch(Tensor(data), lengths)


def readout_weights(d):
    """cb = c * bbar per mode, as a complex array."""
    return (d.c_re.data + 1j * d.c_im.data) * (d.bbar_re.data + 1j * d.bbar_im.data)


def manual_discrete(abar, bbar, c, d_skip):
    """Build a DiscreteSsm from complex arrays of shape (channels, states)."""
    abar, bbar, c = (np.atleast_2d(np.asarray(v, dtype=complex)) for v in (abar, bbar, c))
    return DiscreteSsm(
        abar.shape[1], abar.shape[0],
        Tensor(abar.real), Tensor(abar.imag),
        Tensor(bbar.real), Tensor(bbar.imag),
        Tensor(c.real), Tensor(c.imag),
        Tensor(np.atleast_1d(np.asarray(d_skip, dtype=float))),
    )


class TestInit:
    def test_s4d_lin_eigenvalues(self):
        ssm = init_ssm(2, 1, seed=0, scheme="s4d_lin")
        lam = ssm.lam()[0]
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
        assert d.abar_re.data[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert d.abar_im.data[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert d.bbar_re.data[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_small_step_taylor_limit(self):
        rng = np.random.Generator(np.random.PCG64(1))
        ssm = init_ssm_rng(4, 2, rng, "random_stable")
        ssm.log_dt = Tensor(np.full(2, np.log(1e-8)), requires_grad=True)
        d = discretize(ssm)
        lam = ssm.lam()
        abar = d.abar_re.data + 1j * d.abar_im.data
        bbar = d.bbar_re.data + 1j * d.bbar_im.data
        # second-order remainders scale with |lam|^2 * dt^2 ~ 1e-15
        assert np.abs(abar - (1.0 + lam * 1e-8)).max() < 1e-14
        assert np.abs(bbar - 1e-8).max() < 1e-14

    def test_against_high_precision(self):
        rng = np.random.Generator(np.random.PCG64(2))
        ssm = init_ssm_rng(8, 2, rng, "random_stable")
        d = discretize(ssm)
        lam = ssm.lam()
        dt = np.exp(ssm.log_dt.data)
        b = ssm.b_re.data + 1j * ssm.b_im.data
        for p in range(2):
            for n in range(8):
                abar_ref, bbar_ref = mp_zoh(lam[p, n], float(dt[p]), b[p, n])
                got_a = d.abar_re.data[p, n] + 1j * d.abar_im.data[p, n]
                got_b = d.bbar_re.data[p, n] + 1j * d.bbar_im.data[p, n]
                assert abs(got_a - abar_ref) <= 1e-12
                assert abs(got_b - bbar_ref) <= 1e-12

    def test_magnitudes_below_one(self):
        for seed in range(20):
            d = discretize(init_ssm(8, 4, seed=seed))
            assert d.spectral_radius() < 1.0


class TestScan:
    def test_zero_input_zero_output(self):
        d = discretize(init_ssm(4, 3, seed=1))
        u = SeqBatch(Tensor(np.zeros((2, 10, 3))), np.array([10, 10]))
        assert np.abs(ssm_scan(d, u).data.data).max() == 0.0

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
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
        cb = (d.c_re.data + 1j * d.c_im.data) * (d.bbar_re.data + 1j * d.bbar_im.data)
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
            logmag, angle, cb = d.logmag.data, d.angle.data, readout_weights(d)
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
        abar = np.exp(logmag + 1j * angle)
        d = DiscreteSsm(4, 2, Tensor(abar.real), Tensor(abar.imag),
                        Tensor(np.ones((2, 4))), Tensor(np.zeros((2, 4))),
                        Tensor(cb.real), Tensor(cb.imag), Tensor(np.zeros(2)),
                        logmag=Tensor(logmag), angle=Tensor(angle))
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
        fused = fuse_diagonal(systems)
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


class TestFuse:
    def test_fused_equals_individual(self):
        systems = [init_ssm(4, 2, seed=s) for s in range(3)]
        fused = discretize(fuse_diagonal(systems))
        rng = np.random.default_rng(20)
        u = make_batch(rng, 16, 6)
        y = ssm_conv(fused, u).data.data
        for i, s in enumerate(systems):
            part = SeqBatch(Tensor(u.data.data[:, :, 2 * i:2 * i + 2]), u.lengths)
            y_i = ssm_conv(discretize(s), part).data.data
            assert np.abs(y[:, :, 2 * i:2 * i + 2] - y_i).max() <= 1e-12

    def test_state_dim_mismatch(self):
        with pytest.raises(ShapeError):
            fuse_diagonal([init_ssm(4, 1, seed=0), init_ssm(8, 1, seed=1)])
