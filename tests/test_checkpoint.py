import numpy as np
import pytest

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
)
from skdistill.models import ModelConfig, build_net
from skdistill.seeding import rng_for


def sample_checkpoint():
    g = np.random.default_rng(0)
    rng = rng_for(3, "train")
    rng.random(5)
    return Checkpoint(
        step=1234,
        rng_state=rng.bit_generator.state,
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

    def test_rng_state_restores_stream(self, tmp_path):
        rng = rng_for(9, "loop")
        rng.random(3)
        ckpt = Checkpoint(step=1, rng_state=rng.bit_generator.state)
        expected = rng.random(4)
        path = tmp_path / "r.skdc"
        save_checkpoint(ckpt, path)
        state = load_checkpoint(path).rng_state
        fresh = rng_for(0, "other")
        fresh.bit_generator.state = state
        assert np.array_equal(fresh.random(4), expected)

    def test_net_parameters_roundtrip(self, tmp_path):
        net = build_net(ModelConfig([1, 1], 4, 4, 1), 5)
        ckpt = Checkpoint(step=0, meta={"model": net.cfg.to_dict()},
                          tensors={f"net.{k}": v for k, v in net.state_arrays().items()})
        save_checkpoint(ckpt, tmp_path / "n.skdc")
        back = load_checkpoint(tmp_path / "n.skdc")
        for name, arr in net.state_arrays().items():
            assert back.tensors[f"net.{name}"].tobytes() == arr.tobytes()

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
