"""Padded sequence batches, and the packed valid frames the encoder runs on."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor


def row_starts(lengths) -> list[int]:
    """Where each row's valid frames begin when the rows are packed one after
    another, then the total: row b is frames ``starts[b]:starts[b+1]``."""
    return np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)]).tolist()


def _int_lengths(lengths) -> np.ndarray:
    """``lengths`` as int64, refusing any entry that is not an integer
    (booleans and integral floats included) instead of truncating it."""
    for value in np.asarray(lengths, dtype=object).ravel():
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
            raise ShapeError(f"lengths must be integers, got {value}")
    return np.asarray(lengths, dtype=np.int64)


def _gather(padded: np.ndarray, lengths) -> np.ndarray:
    """The valid frames of (batch, length, dim) ``padded``, row after row."""
    return np.concatenate([padded[b, :n] for b, n in enumerate(lengths)])


def _scatter(frames: np.ndarray, lengths, starts, shape) -> np.ndarray:
    """The inverse of `_gather`: (batch, length, dim) with zeros at the padding."""
    out = np.zeros(shape, frames.dtype)
    for b, n in enumerate(lengths):
        out[b, :n] = frames[starts[b]:starts[b + 1]]
    return out


def _reshaped(data: Tensor, shape) -> Tensor:
    """A view of ``data`` in ``shape``: a `T.reshape` node when a gradient
    can reach ``data``, a plain tensor when none can."""
    if T._differentiable(data):
        return T.reshape(data, shape)
    return Tensor._wrap(data.data.reshape(shape))


class SeqBatch:
    """A (batch, length, dim) tensor plus the valid length of each row.

    Positions at t >= length are padding. The encoder packs the valid
    frames once on entry (`packed`), runs every module on that
    (frames, dim) `PackedBatch`, and unpacks its output once, with exact
    zeros at the padding, so no node inside it computes a padded frame.
    `packed` and `PackedBatch.unpacked` are the only code that asks whether
    a batch has padding. `mask` and `rezero` stay for callers outside the
    encoder, such as the benchmark's padding checks.
    """

    __slots__ = ("data", "lengths")

    def __init__(self, data: Tensor, lengths):
        if data.ndim != 3:
            raise ShapeError(f"SeqBatch data must be (batch, length, dim), got {data.shape}")
        lengths = _int_lengths(lengths)
        if lengths.shape != (data.shape[0],):
            raise ShapeError(
                f"lengths shape {lengths.shape} does not match batch size {data.shape[0]}"
            )
        if (lengths < 0).any() or (lengths > data.shape[1]).any():
            raise ShapeError("lengths must lie in [0, max_length]")
        self.data = data
        self.lengths = lengths

    @property
    def batch(self) -> int:
        return self.data.shape[0]

    @property
    def length(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]

    def mask(self) -> np.ndarray:
        """(batch, length, 1) float mask, 1 at valid positions."""
        t = np.arange(self.length)[None, :]
        return (t < self.lengths[:, None]).astype(self.data.dtype)[..., None]

    def rezero(self) -> "SeqBatch":
        """Force padded positions back to zero (taped)."""
        if (self.lengths == self.length).all():
            return self
        masked = T.mul(self.data, Tensor._wrap(self.mask()))
        return SeqBatch(masked, self.lengths)

    def with_data(self, data: Tensor) -> "SeqBatch":
        return SeqBatch(data, self.lengths)

    def packed(self) -> "PackedBatch":
        """The valid frames, row after row, as (frames, dim): one tape node,
        or a plain copy when no gradient can reach the data (a model's
        input). With no frame of padding, a view of the batch's own data,
        recorded as one `T.reshape` node only when a gradient can reach it."""
        if (self.lengths == self.length).all():
            frames = (self.batch * self.length, self.dim)
            return PackedBatch(_reshaped(self.data, frames), self.lengths, self.length)
        lengths, key, shape = self.lengths, self.data.key, self.data.shape
        starts = row_starts(lengths)
        out = Tensor._wrap(_gather(self.data.data, lengths))
        if T._differentiable(self.data):
            T.record_op(out, (self.data,),
                        lambda g, acc: acc(key, _scatter(g, lengths, starts, shape)))
        return PackedBatch(out, lengths, self.length)


class PackedBatch:
    """The valid frames of a padded batch, row after row, with each row's length.

    ``data`` is (frames, dim); row b's frames are ``starts[b]:starts[b+1]``.
    A row-wise node (affine map, norm, activation, residual sum) acts on it
    as it is; the chunked SSM node and attention read each row through
    ``starts``. ``length`` is the padded length that `unpacked` restores.
    """

    __slots__ = ("data", "lengths", "length", "starts")

    def __init__(self, data: Tensor, lengths: np.ndarray, length: int):
        self.starts = row_starts(lengths)
        if data.ndim != 2 or data.shape[0] != self.starts[-1]:
            raise ShapeError(f"packed data {data.shape} does not hold the "
                             f"{self.starts[-1]} valid frames of lengths {lengths.tolist()}")
        self.data = data
        self.lengths = lengths
        self.length = length

    @property
    def batch(self) -> int:
        return len(self.lengths)

    @property
    def dim(self) -> int:
        return self.data.shape[-1]

    def with_data(self, data: Tensor) -> "PackedBatch":
        return PackedBatch(data, self.lengths, self.length)

    def positions(self) -> np.ndarray:
        """Each frame's step within its row."""
        return np.arange(self.starts[-1]) - np.repeat(self.starts[:-1], self.lengths)

    def unpacked(self) -> SeqBatch:
        """The (batch, length, dim) batch with exact zeros at the padding, as
        one tape node. With no frame of padding, a view of the data,
        recorded as one `T.reshape` node only when a gradient can reach it."""
        shape = (self.batch, self.length, self.dim)
        if (self.lengths == self.length).all():
            return SeqBatch(_reshaped(self.data, shape), self.lengths)
        lengths, starts, key = self.lengths, self.starts, self.data.key
        out = Tensor._wrap(_scatter(self.data.data, lengths, starts, shape))
        T.record_op(out, (self.data,), lambda g, acc: acc(key, _gather(g, lengths)))
        return SeqBatch(out, lengths)
