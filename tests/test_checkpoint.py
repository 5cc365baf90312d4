"""The checkpoint container under hostile input: truncation, corruption, a crash mid-write."""

import os
import struct

import numpy as np
import pytest

from mhssm.checkpoint import load_checkpoint, save_checkpoint

ARRAYS = {
    "model.w": np.arange(6.0).reshape(2, 3),
    "model.b": np.array([1.5, -2.0], dtype=np.float32),
    "adam.m.scalar": np.array(0.25),
    "steps": np.array([3, 4, 5], dtype=np.int64),
}
META = {"kind": "test", "step": 3, "config": {"lag": 4}}


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.bin"
    save_checkpoint(path, ARRAYS, META)
    return path, path.read_bytes()


def _load_or_value_error(path, blob):
    path.write_bytes(blob)
    try:
        arrays, meta = load_checkpoint(path)
    except ValueError:
        return None
    return arrays, meta


def test_round_trip(tiny):
    path, blob = tiny
    arrays, meta = load_checkpoint(path)
    assert meta == META
    assert list(arrays) == list(ARRAYS)
    for name, want in ARRAYS.items():
        assert arrays[name].dtype == want.dtype
        np.testing.assert_array_equal(arrays[name], want)
    save_checkpoint(path, arrays, meta)
    assert path.read_bytes() == blob


def test_every_truncation_raises_value_error(tiny, tmp_path):
    _, blob = tiny
    cut = tmp_path / "cut.bin"
    for n in range(len(blob)):
        assert _load_or_value_error(cut, blob[:n]) is None, f"{n}-byte prefix loaded"


def test_byte_flips_load_or_raise_value_error(tiny, tmp_path):
    _, blob = tiny
    bad = tmp_path / "bad.bin"
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        flipped = bytearray(blob)
        flipped[rng.integers(len(blob))] ^= 1 << int(rng.integers(8))
        _load_or_value_error(bad, bytes(flipped))
    for _ in range(500):
        garbled = bytearray(blob)
        garbled[rng.integers(len(blob))] = int(rng.integers(256))
        _load_or_value_error(bad, bytes(garbled))


@pytest.mark.parametrize("dtype_str", [b"O", b"<U4", b"V8", b"\xff\xfe", b"(2)f8"])
def test_non_numeric_dtype_is_value_error(tiny, tmp_path, dtype_str):
    _, blob = tiny
    pos = blob.index(b"<f8")
    # rewrite the first entry's dtype field, length byte included
    forged = blob[:pos - 1] + struct.pack("<B", len(dtype_str)) + dtype_str + blob[pos + 3:]
    assert _load_or_value_error(tmp_path / "forged.bin", forged) is None


def test_offset_past_the_data_is_value_error(tmp_path):
    path = tmp_path / "one.bin"
    save_checkpoint(path, {"x": np.ones(2)})
    blob = path.read_bytes()
    forged = blob[:-24] + struct.pack("<Q", 9) + blob[-16:]
    assert _load_or_value_error(path, forged) is None


def test_meta_must_be_an_object(tmp_path):
    path = tmp_path / "meta.bin"
    save_checkpoint(path, {}, None)
    path.write_bytes(path.read_bytes().replace(b"{}", b"[]"))
    with pytest.raises(ValueError, match="metadata"):
        load_checkpoint(path)


def _fail_on_call(monkeypatch, owner, name, n):
    real = getattr(owner, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == n:
            raise OSError("No space left on device")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)


@pytest.mark.parametrize("owner,name,n", [(struct, "pack", 7),
                                          (os, "fsync", 1)])
def test_failed_save_keeps_previous_file(tiny, monkeypatch, owner, name, n):
    path, blob = tiny
    _fail_on_call(monkeypatch, owner, name, n)
    newer = {k: v + 1 for k, v in ARRAYS.items()}
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, newer, META)
    assert path.read_bytes() == blob
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_save_leaves_only_the_target(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, ARRAYS, META)
    save_checkpoint(path, ARRAYS, META)
    assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]
