"""Model artifact container: a versioned JSON file with bit-exact weights.

Arrays are stored as base64-encoded little-endian float64 bytes, so a
save/load round trip reproduces every parameter and standardization
statistic exactly. The file embeds the training configuration (including the
evidential coefficient) alongside the layer shapes and the feature pipeline.
Every artifact holds the model's feature standardizer and its one-column
target scale (pass-through ones when the model was trained without
scaling); a file without either is refused.
"""

from __future__ import annotations

import base64
from dataclasses import fields

import numpy as np

from .data import Standardizer
from .errors import UsageError
from .evidential import EvidentialModel
from .fileio import read_json, write_json
from .nncore import MLP, Layer, TrainConfig

FORMAT_NAME = "gustuq-evidential-model"
FORMAT_VERSION = 1

# The MLP settings an artifact stores under "network", beside its layers.
_NETWORK_KEYS = ("dropout", "l1", "l2", "leaky_slope")


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "shape": list(data.shape),
        "dtype": "<f8",
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _decode_array(parent, key: str, where: str) -> np.ndarray:
    try:
        obj = parent[key]
        raw = base64.b64decode(obj["data"])
        arr = np.frombuffer(raw, dtype=obj["dtype"]).reshape(obj["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"artifact field {where} is not an encoded array ({exc!r})") from None
    return arr.astype(float)  # writable copy in native order


# JSON types an artifact field may hold; bool is never a number here
_KINDS = {
    float: ((int, float), "a number"),
    int: ((int,), "an integer"),
    list: ((list,), "a list"),
    dict: ((dict,), "an object"),
}


def _field(payload: dict, where: str, kind):
    """The value at dotted path ``where``, which must be of ``kind``."""
    value = payload
    for name in where.split("."):
        if not isinstance(value, dict) or name not in value:
            raise UsageError(f"artifact field {where} is missing")
        value = value[name]
    types, label = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise UsageError(f"artifact field {where} must be {label}, got {type(value).__name__}")
    return value


def _encode_standardizer(standardizer: Standardizer) -> dict:
    return {
        "offset": _encode_array(standardizer.offset),
        "scale": _encode_array(standardizer.scale),
        "passthrough": standardizer.passthrough.astype(bool).tolist(),
    }


def _decode_standardizer(payload: dict, key: str, width: int, columns: str) -> Standardizer:
    """The standardizer at ``key``. Each of its fields must hold ``width``
    entries, one per column of ``columns``, and its offsets and scales must
    be finite with positive scales."""
    std = _field(payload, key, dict)
    passthrough = _field(payload, f"{key}.passthrough", list)
    if not all(isinstance(p, bool) for p in passthrough):
        raise UsageError(f"artifact field {key}.passthrough must hold only true or false")
    standardizer = Standardizer(
        offset=_decode_array(std, "offset", f"{key}.offset"),
        scale=_decode_array(std, "scale", f"{key}.scale"),
        passthrough=np.array(passthrough, dtype=bool),
    )
    for name in ("offset", "scale", "passthrough"):
        shape = getattr(standardizer, name).shape
        if shape != (width,):
            raise UsageError(f"artifact field {key}.{name} has shape {shape}, but {columns}")
    if not np.all(np.isfinite(standardizer.offset)):
        raise UsageError(f"artifact field {key}.offset must be finite")
    if not np.all(np.isfinite(standardizer.scale) & (standardizer.scale > 0)):
        raise UsageError(f"artifact field {key}.scale must be finite and > 0")
    return standardizer


def save_model(model: EvidentialModel, path) -> None:
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "train_config": {
            f.name: getattr(model.train_config, f.name) for f in fields(TrainConfig)
        },
        "network": {
            **{k: getattr(model.mlp, k) for k in _NETWORK_KEYS},
            "layers": [
                {"weights": _encode_array(l.weights), "bias": _encode_array(l.bias)}
                for l in model.mlp.layers
            ],
        },
        "feature_names": model.feature_names,
        "standardizer": _encode_standardizer(model.standardizer),
        "target_scale": _encode_standardizer(model.target_scale),
    }
    write_json(path, payload)


def load_model(path) -> EvidentialModel:
    """Read an artifact; a missing or mistyped field, or a repeated key, is a
    usage error that names it. Each ``train_config`` field must have the
    JSON type of its ``TrainConfig`` default."""
    payload = read_json(path, f"artifact {path}")
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise UsageError(f"{path}: not a {FORMAT_NAME} artifact")
    if payload.get("version") != FORMAT_VERSION:
        raise UsageError(
            f"{path}: unsupported artifact version {payload.get('version')}"
        )
    try:
        layers = [
            Layer(
                weights=_decode_array(layer, "weights", f"network.layers[{i}].weights"),
                bias=_decode_array(layer, "bias", f"network.layers[{i}].bias"),
            )
            for i, layer in enumerate(_field(payload, "network.layers", list))
        ]
        network = {k: _field(payload, f"network.{k}", float) for k in _NETWORK_KEYS}
        mlp = MLP(layers=layers, **network)
        config = TrainConfig(**{
            f.name: _field(payload, f"train_config.{f.name}", type(f.default))
            for f in fields(TrainConfig)
        })
        standardizer = _decode_standardizer(
            payload, "standardizer", mlp.input_dim,
            f"the first layer takes {mlp.input_dim} inputs")
        target_scale = _decode_standardizer(payload, "target_scale", 1, "the target is 1 column")
        names = payload.get("feature_names")
        if names is not None and not (
            isinstance(names, list) and all(isinstance(n, str) for n in names)
        ):
            raise UsageError("artifact field feature_names must be a list of strings")
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from None
    return EvidentialModel(
        mlp=mlp,
        train_config=config,
        feature_names=names,
        standardizer=standardizer,
        target_scale=target_scale,
    )
