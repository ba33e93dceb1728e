import struct

import numpy as np
import pytest
from hypothesis import given, settings
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
        net = build_net(ModelConfig([1, 1], 4, 4, 1), 5)
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

    def test_serialization_is_deterministic(self):
        a = checkpoint_to_bytes(sample_checkpoint())
        b = checkpoint_to_bytes(sample_checkpoint())
        assert a == b


class TestErrors:
    def test_bad_magic(self):
        blob = bytearray(checkpoint_to_bytes(sample_checkpoint()))
        blob[:4] = b"XKDC"
        with pytest.raises(CheckpointFormatError, match="offset 0"):
            checkpoint_from_bytes(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(checkpoint_to_bytes(sample_checkpoint()))
        blob[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(CheckpointVersionError, match="99"):
            checkpoint_from_bytes(bytes(blob))

    @pytest.mark.parametrize("cut", [2, 7, 15, 40, -9, -1])
    def test_truncation(self, cut):
        blob = checkpoint_to_bytes(sample_checkpoint())
        with pytest.raises(CheckpointTruncatedError, match="offset"):
            checkpoint_from_bytes(blob[:cut] if cut > 0 else blob[:len(blob) + cut])

    def test_trailing_garbage(self):
        blob = checkpoint_to_bytes(sample_checkpoint()) + b"\x00\x01"
        with pytest.raises(CheckpointFormatError, match="trailing"):
            checkpoint_from_bytes(blob)

    def test_unknown_dtype_code(self):
        ckpt = Checkpoint(step=0, tensors={"x": np.zeros(2)})
        blob = bytearray(checkpoint_to_bytes(ckpt))
        # dtype byte follows magic(4) version(4) step(8) rng(4+2) meta(4+2)
        # count(4) name_len(4) name(1)
        dtype_at = 4 + 4 + 8 + 4 + 2 + 4 + 2 + 4 + 4 + 1
        assert blob[dtype_at] == 0
        blob[dtype_at] = 7
        with pytest.raises(CheckpointFormatError, match="dtype"):
            checkpoint_from_bytes(bytes(blob))

    def test_non_utf8_tensor_name(self):
        blob = checkpoint_to_bytes(Checkpoint(step=0, tensors={"x": np.zeros(2)}))
        name_at = blob.index(b"x\x00")   # the name, then its dtype byte
        bad = blob[:name_at] + b"\xff" + blob[name_at + 1:]
        with pytest.raises(CheckpointFormatError, match="tensor name"):
            checkpoint_from_bytes(bad)

    def test_failed_load_leaves_no_file_side_effects(self, tmp_path):
        path = tmp_path / "bad.skdc"
        path.write_bytes(b"SKDC" + b"\x01\x00\x00\x00" + b"\x01")
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)


def raw_blob(rng=b"{}", meta=b"{}", tensors=()):
    """A checkpoint assembled by hand, so layouts the writer never makes
    can be tried; `tensors` holds (name, dims, payload bytes)."""
    parts = [b"SKDC", struct.pack("<IQ", 1, 0),
             struct.pack("<I", len(rng)), rng, struct.pack("<I", len(meta)), meta,
             struct.pack("<I", len(tensors))]
    for name, dims, payload in tensors:
        parts += [struct.pack("<I", len(name)), name, struct.pack("<BB", 0, len(dims)),
                  struct.pack(f"<{len(dims)}I", *dims), payload]
    return b"".join(parts)


class TestStructuralErrors:
    def test_raw_blob_matches_the_writer(self):
        ckpt = Checkpoint(step=0, tensors={"x": np.array([1.0, 2.0])})
        assert raw_blob(tensors=[(b"x", (2,), np.array([1.0, 2.0]).tobytes())]) == \
            checkpoint_to_bytes(ckpt)

    def test_duplicate_tensor_name(self):
        x = (b"x", (1,), struct.pack("<d", 1.0))
        blob = raw_blob(tensors=[x, x])
        second_name_at = len(raw_blob(tensors=[x])) + 4
        with pytest.raises(CheckpointFormatError,
                           match=f"duplicate tensor 'x' at offset {second_name_at}"):
            checkpoint_from_bytes(blob)

    @pytest.mark.parametrize("rng", [b"5", b"[]", b'"x"', b"null"])
    def test_rng_block_must_be_an_object(self, rng):
        with pytest.raises(CheckpointFormatError, match="RNG state at offset 20"):
            checkpoint_from_bytes(raw_blob(rng=rng))

    def test_rng_block_content_is_discarded(self):
        # files that stored an RNG state still load; the block is rewritten as {}
        blob = raw_blob(rng=b'{"bit_generator": "PCG64"}')
        assert checkpoint_to_bytes(checkpoint_from_bytes(blob)) == raw_blob()

    @pytest.mark.parametrize("meta", [b"[]", b"1.5", b"true"])
    def test_meta_block_must_be_an_object(self, meta):
        with pytest.raises(CheckpointFormatError, match="metadata at offset 26"):
            checkpoint_from_bytes(raw_blob(meta=meta))

    def test_deeply_nested_json(self):
        with pytest.raises(CheckpointFormatError, match="bad RNG state JSON at offset 20"):
            checkpoint_from_bytes(raw_blob(rng=b"[" * 100_000))

    @pytest.mark.parametrize("dims", [(2**32 - 1,) * 8, (2**16,) * 4, (2**31, 2**31, 4)])
    def test_element_count_past_int64_is_truncation(self, dims):
        # dims whose product wraps a 64-bit integer must not shrink the payload
        with pytest.raises(CheckpointTruncatedError, match="offset"):
            checkpoint_from_bytes(raw_blob(tensors=[(b"x", dims, b"")]))

    @pytest.mark.parametrize("dims, payload", [
        ((0, 2**32 - 1, 2**32 - 1, 2**32 - 1), b""),
        ((1,) * 70, struct.pack("<d", 1.0)),
    ])
    def test_dims_numpy_cannot_shape(self, dims, payload):
        with pytest.raises(CheckpointFormatError, match="bad dims for tensor 'x' at offset 39"):
            checkpoint_from_bytes(raw_blob(tensors=[(b"x", dims, payload)]))


def net_blob():
    net = build_net(ModelConfig([1, 1], 4, 4, 1), 5)
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
        assert load_net(checkpoint_from_bytes(NET_BLOB)).param_count() > 0

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200) | st.binary(max_size=60).map(lambda b: b"SKDC\x01\0\0\0" + b))
    def test_random_bytes(self, blob):
        decode_and_load(blob)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, len(NET_BLOB) - 1))
    def test_truncations(self, cut):
        with pytest.raises(CheckpointTruncatedError):
            checkpoint_from_bytes(NET_BLOB[:cut])

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, len(NET_BLOB) - 1), st.integers(1, 255))
    def test_single_byte_flips(self, at, mask):
        blob = bytearray(NET_BLOB)
        blob[at] ^= mask
        decode_and_load(bytes(blob))
