import numpy as np
import pytest

from mhssm import tensor as T
from mhssm.errors import ShapeError
from mhssm.seq import PackedBatch, SeqBatch, row_starts
from mhssm.tensor import GradTape, Tensor


def padded(rng, lengths, length, dim=3):
    valid = np.arange(length)[None, :, None] < np.asarray(lengths)[:, None, None]
    return SeqBatch(Tensor(rng.standard_normal((len(lengths), length, dim)) * valid), lengths)


class TestLengths:
    @pytest.mark.parametrize("lengths,named", [
        ([3.7, 2], "3.7"), ([True, 2], "True"), ([float("nan"), 2], "nan"), ([3.0, 2], "3.0"),
        (np.array([3.0, 2.0]), "3.0"), (np.array([True, True]), "True"),
        ([2, np.float64(1.0)], "1.0"), (["3", 2], "3")])
    def test_non_integer_lengths_rejected(self, lengths, named):
        # a length is never truncated or cast: the error names the entry
        with pytest.raises(ShapeError, match=f"integers, got {named}"):
            SeqBatch(Tensor(np.zeros((2, 4, 1))), lengths)

    @pytest.mark.parametrize("lengths", [[3, 2], (4, 0), np.array([3, 2], dtype=np.int32),
                                         [np.int64(4), np.uint8(1)]])
    def test_integer_lengths_accepted(self, lengths):
        x = SeqBatch(Tensor(np.zeros((2, 4, 1))), lengths)
        assert x.lengths.dtype == np.int64
        np.testing.assert_array_equal(x.lengths, np.asarray(lengths))


class TestPacking:
    @pytest.mark.parametrize("differentiable", [False, True], ids=["constant", "differentiable"])
    def test_unpadded_batch_packs_and_unpacks_to_itself(self, differentiable):
        # every echo batch: the encoder's interior then runs on a (frames,
        # dim) view of the input's own array, with no copy; a batch that a
        # gradient can reach records one reshape node each way, a model's
        # input none
        data = np.random.default_rng(0).standard_normal((3, 5, 4))
        x = SeqBatch(Tensor(data, requires_grad=differentiable), [5, 5, 5])
        with GradTape() as tape:
            packed = x.packed()
            packing_nodes = len(tape.nodes)
            out = packed.unpacked()
        assert (packing_nodes, len(tape.nodes)) == ((1, 2) if differentiable else (0, 0))
        assert packed.data.shape == (15, 4)
        assert np.shares_memory(packed.data.data, x.data.data)
        assert np.shares_memory(out.data.data, packed.data.data)
        np.testing.assert_array_equal(out.data.data, data)
        assert packed.starts == [0, 5, 10, 15]

    def test_padded_batch_packs_its_valid_frames(self):
        # a batch that a gradient can reach, as every module's input inside
        # the encoder is
        x = padded(np.random.default_rng(1), [5, 2, 0, 3], 5)
        x = x.with_data(Tensor(x.data.data, requires_grad=True))
        with GradTape() as tape:
            packed = x.packed()
            out = packed.unpacked()
        assert len(tape.nodes) == 2
        assert packed.data.shape == (10, 3) and packed.starts == [0, 5, 7, 7, 10]
        for b, n in enumerate(x.lengths):
            rows = slice(packed.starts[b], packed.starts[b + 1])
            np.testing.assert_array_equal(packed.data.data[rows], x.data.data[b, :n])
        np.testing.assert_array_equal(out.data.data, x.data.data)
        np.testing.assert_array_equal(packed.positions(), [0, 1, 2, 3, 4, 0, 1, 0, 1, 2])

    def test_constant_batch_packs_without_a_node(self):
        # a model's input frames: no gradient can reach them, so packing
        # copies the valid frames and records nothing
        x = padded(np.random.default_rng(5), [5, 2, 0, 3], 5)
        with GradTape() as tape:
            packed = x.packed()
        assert len(tape.nodes) == 0
        assert packed.starts == [0, 5, 7, 7, 10]
        np.testing.assert_array_equal(packed.data.data, x.data.data[x.mask()[..., 0] > 0])

    def test_padding_is_dropped_and_unpacked_as_zeros(self):
        x = padded(np.random.default_rng(2), [4, 1], 4)
        noisy = x.with_data(Tensor(x.data.data + 5.0))
        out = noisy.packed().unpacked().data.data
        np.testing.assert_array_equal(out, (x.data.data + 5.0) * x.mask())

    @pytest.mark.parametrize("lengths", [[4, 1], [4, 4]], ids=["padded", "full"])
    def test_gradients_route_to_the_valid_frames(self, lengths):
        x = Tensor(np.random.default_rng(3).standard_normal((2, 4, 3)), requires_grad=True)
        g = np.random.default_rng(4).standard_normal((sum(lengths), 3))
        with GradTape() as tape:
            loss = T.tsum(T.mul(SeqBatch(x, lengths).packed().data, Tensor(g)))
        grad = tape.gradients(loss)[x]
        np.testing.assert_array_equal(grad[0], g[:4])
        np.testing.assert_array_equal(grad[1], np.vstack([g[4:], np.zeros((4 - lengths[1], 3))]))

    @pytest.mark.parametrize("shape", [(6, 2), (1, 7, 2), (7,)], ids=["short", "3-d", "1-d"])
    def test_packed_data_must_hold_every_valid_frame(self, shape):
        # (frames, dim) only: a batch that holds the same frames on more
        # leading axes is refused too
        with pytest.raises(ShapeError, match="valid frames"):
            PackedBatch(Tensor(np.zeros(shape)), np.array([5, 2]), 5)
        assert row_starts(np.array([5, 2])) == [0, 5, 7]
