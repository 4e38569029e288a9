"""Binary checkpoint format for trained models.

Layout, all little-endian:

    bytes 0..3   magic "SPKL"
    byte  4      format version (currently 1)
    bytes 5..20  four u32 dims: input_steps, input_dim, hidden_dim, classes
    byte  21     reset mode (0 = to_zero, 1 = subtract)
    bytes 22..45 three f64: beta, v_threshold, surrogate_slope
    rest         f64 parameters in model.flatten_params order: feature weights
                 (row-major in x hidden), feature bias, classifier weights
                 (row-major hidden x classes), classifier bias

Every header dim but hidden_dim must equal the dataset schema: 12 steps,
5 features, 3 classes; a checkpoint for another window shape or class count
is rejected.  The format is fixed-size given hidden_dim, so truncation and
trailing garbage are both detectable.  Save/load round-trips are bit-exact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ._atomic import atomic_open
from .dataset import FEATURE_NAMES, LABEL_NAMES, WINDOW_STEPS
from .errors import CheckpointError, ShapeError
from .model import (
    MAX_HIDDEN_DIM, LifConfig, LinearLayer, Model, RESET_MODES, flatten_params, model_params,
    split_params,
)

MAGIC = b"SPKL"
VERSION = 1

_HEADER = struct.Struct("<4sB4IB3d")


def model_to_bytes(model: Model) -> bytes:
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        model.input_steps,
        model.input_dim,
        model.hidden_dim,
        model.classes,
        RESET_MODES.index(model.lif.reset_mode),
        model.lif.beta,
        model.lif.v_threshold,
        model.lif.surrogate_slope,
    )
    return header + flatten_params(model_params(model)).astype("<f8").tobytes()


def model_from_bytes(blob: bytes) -> Model:
    if len(blob) < _HEADER.size:
        raise CheckpointError(
            f"checkpoint truncated: {len(blob)} bytes, header needs {_HEADER.size}"
        )
    magic, version, steps, in_dim, hidden, classes, reset, beta, v_th, slope = (
        _HEADER.unpack_from(blob)
    )
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    schema = (WINDOW_STEPS, len(FEATURE_NAMES), len(LABEL_NAMES))
    if (steps, in_dim, classes) != schema:
        raise CheckpointError(
            f"checkpoint (input_steps, input_dim, classes) = {(steps, in_dim, classes)}; "
            f"the dataset schema needs {schema}"
        )
    if not 1 <= hidden <= MAX_HIDDEN_DIM:
        raise CheckpointError(f"implausible hidden_dim={hidden} in checkpoint header")
    if reset >= len(RESET_MODES):
        raise CheckpointError(f"unknown reset mode byte {reset}")

    try:  # ValueError: the parameter bytes are not whole f64 values
        flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).astype(np.float64)
        w1, b1, w2, b2 = split_params(flat, hidden)
    except (ValueError, ShapeError) as exc:
        raise CheckpointError(f"{len(blob)} bytes do not fit the header dims: {exc}") from None
    try:  # LinearLayer rejects non-finite parameters, LifConfig bad settings
        return Model(
            feature_layer=LinearLayer(w1, b1),
            classifier=LinearLayer(w2, b2),
            lif=LifConfig(
                beta=beta,
                v_threshold=v_th,
                surrogate_slope=slope,
                reset_mode=RESET_MODES[reset],
            ),
        )
    except Exception as exc:
        raise CheckpointError(f"checkpoint rejected: {exc}") from exc


def save_model(model: Model, destination: str | Path) -> bytes:
    """Write the checkpoint to a file and return its bytes."""
    blob = model_to_bytes(model)
    with atomic_open(destination, "wb") as handle:
        handle.write(blob)
    return blob


def load_model(source: str | Path) -> Model:
    """Read a checkpoint file back into a Model."""
    return model_from_bytes(Path(source).read_bytes())
