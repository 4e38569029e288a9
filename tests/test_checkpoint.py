"""Checkpoint serialization round-trips and corruption handling."""

import struct

import numpy as np
import pytest

import spikelane as sl
from spikelane.checkpoint import MAGIC, VERSION


def params_equal(a, b):
    return all((pa == pb).all() for pa, pb in zip(sl.model_params(a), sl.model_params(b)))


class TestRoundTrip:
    def test_save_load_save_is_identical(self):
        model = sl.new_model(seed=42)
        blob = sl.model_to_bytes(model)
        again = sl.model_to_bytes(sl.model_from_bytes(blob))
        assert blob == again

    def test_parameters_bit_exact(self):
        model = sl.new_model(seed=1)
        loaded = sl.model_from_bytes(sl.model_to_bytes(model))
        assert params_equal(model, loaded)
        assert loaded.lif == model.lif
        assert loaded.input_steps == model.input_steps

    def test_nondefault_config_survives(self):
        lif = sl.LifConfig(beta=0.75, v_threshold=1.25, surrogate_slope=10.0,
                           reset_mode="subtract")
        model = sl.new_model(seed=2, hidden_dim=7, lif=lif)
        loaded = sl.model_from_bytes(sl.model_to_bytes(model))
        assert loaded.lif == lif
        assert loaded.hidden_dim == 7
        assert params_equal(model, loaded)

    def test_file_round_trip(self, tmp_path):
        model = sl.new_model(seed=3)
        path = tmp_path / "model.spkl"
        written = sl.save_model(model, path)
        assert path.read_bytes() == written
        assert params_equal(model, sl.load_model(path))


class TestSizeAndLayout:
    def test_default_checkpoint_under_ten_kib(self):
        blob = sl.model_to_bytes(sl.new_model())
        assert len(blob) < 10_240

    def test_size_is_header_plus_params(self):
        model = sl.new_model()
        blob = sl.model_to_bytes(model)
        header = struct.calcsize("<4sB4IB3d")
        assert len(blob) == header + 8 * sl.param_count(model)

    def test_header_fields(self):
        blob = sl.model_to_bytes(sl.new_model())
        assert blob[:4] == MAGIC
        assert blob[4] == VERSION
        dims = struct.unpack_from("<4I", blob, 5)
        assert dims == (12, 5, 24, 3)


class TestCorruption:
    def test_truncated_blob(self):
        blob = sl.model_to_bytes(sl.new_model())
        with pytest.raises(sl.CheckpointError):
            sl.model_from_bytes(blob[: len(blob) // 2])
        with pytest.raises(sl.CheckpointError):
            sl.model_from_bytes(blob[:3])

    def test_bad_magic(self):
        blob = bytearray(sl.model_to_bytes(sl.new_model()))
        blob[:4] = b"NOPE"
        with pytest.raises(sl.CheckpointError, match="magic"):
            sl.model_from_bytes(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(sl.model_to_bytes(sl.new_model()))
        blob[4] = 9
        with pytest.raises(sl.CheckpointError, match="version"):
            sl.model_from_bytes(bytes(blob))

    def test_trailing_garbage(self):
        blob = sl.model_to_bytes(sl.new_model())
        with pytest.raises(sl.CheckpointError):
            sl.model_from_bytes(blob + b"\x00" * 8)

    def test_nonfinite_parameter(self):
        model = sl.new_model()
        blob = bytearray(sl.model_to_bytes(model))
        blob[-8:] = struct.pack("<d", float("nan"))
        with pytest.raises(sl.CheckpointError):
            sl.model_from_bytes(bytes(blob))

    def test_implausible_dims(self):
        blob = bytearray(sl.model_to_bytes(sl.new_model()))
        struct.pack_into("<I", blob, 5 + 8, 2_000_000)  # hidden_dim slot
        with pytest.raises(sl.CheckpointError):
            sl.model_from_bytes(bytes(blob))

    @pytest.mark.parametrize("slot,value", [(0, 11), (4, 4), (12, 4)],
                             ids=["input_steps=11", "input_dim=4", "classes=4"])
    def test_dims_off_the_schema_rejected(self, slot, value):
        blob = bytearray(sl.model_to_bytes(sl.new_model()))
        struct.pack_into("<I", blob, 5 + slot, value)
        with pytest.raises(sl.CheckpointError, match="schema"):
            sl.model_from_bytes(bytes(blob))

    def test_unknown_reset_byte(self):
        blob = bytearray(sl.model_to_bytes(sl.new_model()))
        blob[21] = 7
        with pytest.raises(sl.CheckpointError):
            sl.model_from_bytes(bytes(blob))

    @pytest.mark.parametrize("offset,name", [(30, "v_threshold"), (38, "surrogate_slope")])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_lif_setting(self, offset, name, value):
        blob = bytearray(sl.model_to_bytes(sl.new_model()))
        struct.pack_into("<d", blob, offset, value)
        with pytest.raises(sl.CheckpointError, match=f"{name} must be finite"):
            sl.model_from_bytes(bytes(blob))

    @pytest.mark.parametrize("blob", ["x" * 100, None, 100], ids=["str", "None", "int"])
    def test_blob_that_is_not_bytes_like(self, blob):
        with pytest.raises(sl.CheckpointError, match="bytes-like"):
            sl.model_from_bytes(blob)

    def test_any_bytes_like_blob_loads(self):
        model = sl.new_model(seed=3)
        blob = sl.model_to_bytes(model)
        for like in (bytearray(blob), memoryview(blob), np.frombuffer(blob, dtype=np.uint8)):
            assert params_equal(sl.model_from_bytes(like), model)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            sl.load_model(tmp_path / "absent.spkl")
