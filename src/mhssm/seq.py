"""Padded sequence batches with per-sequence valid lengths."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor


class SeqBatch:
    """A (batch, length, dim) tensor plus the valid length of each row.

    Positions at t >= length are padding. Blocks expect padding to hold
    zeros on entry and re-zero it on exit via :meth:`rezero`. The chunked
    SSM node and attention read only each row's valid steps and write
    exact zeros past its length; the row-wise nodes compute the padding,
    which ``rezero`` then zeroes.
    """

    __slots__ = ("data", "lengths")

    def __init__(self, data: Tensor, lengths):
        if data.ndim != 3:
            raise ShapeError(f"SeqBatch data must be (batch, length, dim), got {data.shape}")
        lengths = np.asarray(lengths, dtype=np.int64)
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
