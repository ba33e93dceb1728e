import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skdistill.checkpoint import (
    Checkpoint,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    load_checkpoint,
    save_checkpoint,
)
from skdistill.errors import (
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    SkdError,
)
from skdistill.models import ModelConfig, build_net
from skdistill.trainer import load_net


def sample_checkpoint():
    g = np.random.default_rng(0)
    return Checkpoint(
        step=1234,
        meta={"kind": "teacher", "model": {"base_channels": 8}},
        tensors={
            "net.w": g.normal(size=(3, 4, 5)),
            "net.b": g.normal(size=7),
            "scalar": np.array(2.5),
        },
    )


class TestRoundtrip:
    def test_bitwise_lossless(self, tmp_path):
        ckpt = sample_checkpoint()
        path = tmp_path / "x.skdc"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.step == ckpt.step
        assert back.meta == ckpt.meta
        assert list(back.tensors) == list(ckpt.tensors)
        for name in ckpt.tensors:
            assert back.tensors[name].tobytes() == \
                np.asarray(ckpt.tensors[name], dtype=np.float64).tobytes()
            assert back.tensors[name].shape == np.asarray(ckpt.tensors[name]).shape

    def test_net_parameters_roundtrip(self, tmp_path):
        net = build_net(ModelConfig([1, 1], 4, 1), 5)
        ckpt = Checkpoint(step=0, meta={"model": net.cfg.to_dict()},
                          tensors={f"net.{k}": v for k, v in net.state_arrays().items()})
        save_checkpoint(ckpt, tmp_path / "n.skdc")
        back = load_checkpoint(tmp_path / "n.skdc")
        for name, arr in net.state_arrays().items():
            assert back.tensors[f"net.{name}"].tobytes() == arr.tobytes()

    def test_tensors_do_not_alias_the_blob(self):
        blob = bytearray(checkpoint_to_bytes(sample_checkpoint()))
        back = checkpoint_from_bytes(blob)
        blob[:] = bytes(len(blob))
        for name, arr in sample_checkpoint().tensors.items():
            assert back.tensors[name].tobytes() == arr.tobytes()
            assert back.tensors[name].flags.writeable

    def test_payloads_are_slices_of_one_buffer(self):
        back = checkpoint_from_bytes(checkpoint_to_bytes(sample_checkpoint()))
        arrays = list(back.tensors.values())
        base = arrays[0].base
        assert base is not None and all(arr.base is base for arr in arrays)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 0, 4), (0, 0)])
    def test_zero_extent_roundtrips(self, shape, tmp_path):
        ckpt = Checkpoint(step=2, meta={}, tensors={"empty": np.zeros(shape),
                                                    "after": np.arange(3.0)})
        path = tmp_path / "empty.skdc"
        save_checkpoint(ckpt, path)
        for got in (load_checkpoint(path), checkpoint_from_bytes(checkpoint_to_bytes(ckpt))):
            assert got.tensors["empty"].shape == shape
            assert got.tensors["after"].tobytes() == ckpt.tensors["after"].tobytes()
            assert checkpoint_to_bytes(got) == checkpoint_to_bytes(ckpt)
        # an empty last payload leaves nothing for the payload buffer
        alone = checkpoint_to_bytes(Checkpoint(tensors={"empty": np.zeros(shape)}))
        assert checkpoint_to_bytes(checkpoint_from_bytes(alone)) == alone

    def test_file_and_bytes_give_the_same_checkpoint(self, tmp_path):
        blob = net_blob()
        (tmp_path / "n.skdc").write_bytes(blob)
        from_file, from_bytes = load_checkpoint(tmp_path / "n.skdc"), checkpoint_from_bytes(blob)
        assert (from_file.step, from_file.meta) == (from_bytes.step, from_bytes.meta)
        assert list(from_file.tensors) == list(from_bytes.tensors)
        for name, arr in from_bytes.tensors.items():
            assert from_file.tensors[name].shape == arr.shape
            assert from_file.tensors[name].tobytes() == arr.tobytes()

    def test_serialization_is_deterministic(self):
        a = checkpoint_to_bytes(sample_checkpoint())
        b = checkpoint_to_bytes(sample_checkpoint())
        assert a == b


def assert_both_raise(tmp_path, blob, error, match):
    """Decoding `blob` from bytes and from a file raises `error`, with one message."""
    with pytest.raises(error, match=match) as from_bytes:
        checkpoint_from_bytes(blob)
    path = tmp_path / "c.skdc"
    path.write_bytes(blob)
    with pytest.raises(error, match=match) as from_file:
        load_checkpoint(path)
    assert str(from_file.value) == str(from_bytes.value)


class TestSave:
    def test_payloads_are_written_without_a_copy(self, tmp_path):
        g = np.random.default_rng(1)
        ckpt = Checkpoint(step=7, meta={"kind": "big"},
                          tensors={f"net.w{i}": g.normal(size=(256, 1024)) for i in range(5)})
        assert sum(arr.nbytes for arr in ckpt.tensors.values()) >= 8 * 2**20
        tracemalloc.start()
        try:
            save_checkpoint(ckpt, tmp_path / "big.skdc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert (tmp_path / "big.skdc").read_bytes() == checkpoint_to_bytes(ckpt)

    def test_failed_save_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "x.skdc"
        save_checkpoint(sample_checkpoint(), path)
        before = path.read_bytes()
        # the first tensor is written before the lone surrogate fails to encode
        bad = Checkpoint(step=1, tensors={"ok": np.arange(1000.0), "\ud800": np.zeros(2)})
        with pytest.raises(UnicodeEncodeError):
            save_checkpoint(bad, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["x.skdc"]

    @pytest.mark.parametrize("target", ["", "sub/"])
    def test_unwritable_path_is_an_os_error(self, target, tmp_path, monkeypatch):
        # the CLI turns an OSError into exit 1; any other error would escape
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        with pytest.raises(OSError):
            save_checkpoint(sample_checkpoint(), target)
        assert os.listdir(tmp_path) == ["sub"] and os.listdir(tmp_path / "sub") == []

    def test_save_replaces_the_file_with_umask_permissions(self, tmp_path):
        path = tmp_path / "x.skdc"
        path.write_bytes(b"old")
        path.chmod(0o600)
        old_umask = os.umask(0o022)
        try:
            save_checkpoint(sample_checkpoint(), path)
        finally:
            os.umask(old_umask)
        assert path.read_bytes() == checkpoint_to_bytes(sample_checkpoint())
        assert path.stat().st_mode & 0o777 == 0o644
        assert os.listdir(tmp_path) == ["x.skdc"]


class TestErrors:
    def test_bad_magic(self, tmp_path):
        blob = bytearray(checkpoint_to_bytes(sample_checkpoint()))
        blob[:4] = b"XKDC"
        assert_both_raise(tmp_path, bytes(blob), CheckpointFormatError, "offset 0")

    def test_bad_version(self, tmp_path):
        # version 1 held an RNG-state block and a dtype byte per tensor
        for version in (99, 1):
            blob = bytearray(checkpoint_to_bytes(sample_checkpoint()))
            blob[4:8] = version.to_bytes(4, "little")
            assert_both_raise(tmp_path, bytes(blob), CheckpointVersionError,
                              f"version {version} at offset 4, expected 2")

    @pytest.mark.parametrize("cut", [2, 7, 15, 40, -9, -1])
    def test_truncation(self, cut, tmp_path):
        blob = checkpoint_to_bytes(sample_checkpoint())
        assert_both_raise(tmp_path, blob[:cut] if cut > 0 else blob[:len(blob) + cut],
                          CheckpointTruncatedError, "offset")

    def test_trailing_garbage(self, tmp_path):
        blob = checkpoint_to_bytes(sample_checkpoint()) + b"\x00\x01"
        assert_both_raise(tmp_path, blob, CheckpointFormatError, "trailing")

    def test_non_utf8_tensor_name(self, tmp_path):
        blob = checkpoint_to_bytes(Checkpoint(step=0, tensors={"x": np.zeros(2)}))
        name_at = blob.index(b"x\x01")   # the name, then its rank byte
        bad = blob[:name_at] + b"\xff" + blob[name_at + 1:]
        assert_both_raise(tmp_path, bad, CheckpointFormatError, "tensor name")

    def test_failed_load_leaves_no_file_side_effects(self, tmp_path):
        path = tmp_path / "bad.skdc"
        path.write_bytes(b"SKDC" + b"\x02\x00\x00\x00" + b"\x01")
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)


def raw_blob(meta=b"{}", tensors=()):
    """A version-2 checkpoint assembled by hand, so layouts the writer never
    makes can be tried; `tensors` holds (name, dims, payload bytes)."""
    parts = [b"SKDC", struct.pack("<IQ", 2, 0), struct.pack("<I", len(meta)), meta,
             struct.pack("<I", len(tensors))]
    for name, dims, payload in tensors:
        parts += [struct.pack("<I", len(name)), name, struct.pack("<B", len(dims)),
                  struct.pack(f"<{len(dims)}I", *dims), payload]
    return b"".join(parts)


class TestStructuralErrors:
    def test_raw_blob_matches_the_writer(self):
        ckpt = Checkpoint(step=0, tensors={"x": np.array([1.0, 2.0])})
        assert raw_blob(tensors=[(b"x", (2,), np.array([1.0, 2.0]).tobytes())]) == \
            checkpoint_to_bytes(ckpt)

    def test_writer_converts_to_c_ordered_little_endian_float64(self, tmp_path):
        g = np.random.default_rng(4)
        values = g.normal(size=(3, 4))
        tensors = {"scalar": np.array(2.5), "fortran": np.asfortranarray(values),
                   "f32": values[:2].astype(np.float32), "big": values[2].astype(">f8")}
        expected = raw_blob(tensors=[
            (b"scalar", (), struct.pack("<d", 2.5)),
            (b"fortran", (3, 4), struct.pack("<12d", *values.ravel().tolist())),
            (b"f32", (2, 4), struct.pack("<8d", *values[:2].astype(np.float32).ravel().tolist())),
            (b"big", (4,), struct.pack("<4d", *values[2].tolist())),
        ])
        ckpt = Checkpoint(step=0, tensors=tensors)
        assert checkpoint_to_bytes(ckpt) == expected
        save_checkpoint(ckpt, tmp_path / "x.skdc")
        assert (tmp_path / "x.skdc").read_bytes() == expected

    def test_duplicate_tensor_name(self, tmp_path):
        x = (b"x", (1,), struct.pack("<d", 1.0))
        blob = raw_blob(tensors=[x, x])
        second_name_at = len(raw_blob(tensors=[x])) + 4
        assert_both_raise(tmp_path, blob, CheckpointFormatError,
                          f"duplicate tensor 'x' at offset {second_name_at}")

    @pytest.mark.parametrize("meta", [b"[]", b"1.5", b"true"])
    def test_meta_block_must_be_an_object(self, meta, tmp_path):
        assert_both_raise(tmp_path, raw_blob(meta=meta), CheckpointFormatError,
                          "metadata at offset 20")

    def test_deeply_nested_json(self, tmp_path):
        assert_both_raise(tmp_path, raw_blob(meta=b"[" * 100_000), CheckpointFormatError,
                          "bad metadata JSON at offset 20")

    @pytest.mark.parametrize("dims", [(2**32 - 1,) * 8, (2**16,) * 4, (2**31, 2**31, 4)])
    def test_element_count_past_int64_is_truncation(self, dims, tmp_path):
        # dims whose product wraps a 64-bit integer must not shrink the payload
        assert_both_raise(tmp_path, raw_blob(tensors=[(b"x", dims, b"")]),
                          CheckpointTruncatedError, "offset")

    def test_payload_past_the_end_is_refused_before_allocating(self, tmp_path):
        # 16 PiB: a reader that allocated the array before checking the
        # bytes left would end in a raw MemoryError
        assert_both_raise(tmp_path, raw_blob(tensors=[(b"x", (2**31, 2**20), b"")]),
                          CheckpointTruncatedError, f"offset 40: needed {8 * 2**51} bytes")

    @pytest.mark.parametrize("dims, payload", [
        ((0, 2**32 - 1, 2**32 - 1, 2**32 - 1), b""),
        ((1,) * 70, struct.pack("<d", 1.0)),
    ])
    def test_dims_numpy_cannot_shape(self, dims, payload, tmp_path):
        assert_both_raise(tmp_path, raw_blob(tensors=[(b"x", dims, payload)]),
                          CheckpointFormatError, "bad dims for tensor 'x' at offset 32")


def net_blob():
    net = build_net(ModelConfig([1, 1], 4, 1), 5)
    return checkpoint_to_bytes(Checkpoint(
        step=3, meta={"kind": "teacher", "model": net.cfg.to_dict()},
        tensors={f"net.{k}": v for k, v in net.state_arrays().items()}))


NET_BLOB = net_blob()


def decode_and_load(blob):
    """Decode, then rebuild the net when there is one; anything but an
    SkdError escapes to fail the test."""
    try:
        ckpt = checkpoint_from_bytes(blob)
    except SkdError:
        return
    try:
        load_net(ckpt)
    except SkdError:
        pass


class TestDecoderFuzz:
    def test_valid_blob_loads(self):
        net = load_net(checkpoint_from_bytes(NET_BLOB))
        assert sum(p.size for p in net.params().values()) > 0

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200) | st.binary(max_size=60).map(lambda b: b"SKDC\x02\0\0\0" + b))
    def test_random_bytes(self, blob):
        decode_and_load(blob)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, len(NET_BLOB) - 1))
    def test_truncations(self, cut):
        with pytest.raises(CheckpointTruncatedError):
            checkpoint_from_bytes(NET_BLOB[:cut])

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, len(NET_BLOB) - 1), st.integers(1, 255))
    @example(at=130, mask=1)  # a dims byte flipped to 0: a zero-extent tensor of rank 4
    def test_single_byte_flips(self, at, mask):
        blob = bytearray(NET_BLOB)
        blob[at] ^= mask
        decode_and_load(bytes(blob))
