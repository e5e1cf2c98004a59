"""Model artifact container: a versioned JSON file with bit-exact weights.

Arrays are stored as base64-encoded little-endian float64 bytes, so a
save/load round trip reproduces every parameter and standardization
statistic exactly. The file embeds the training configuration (including the
evidential coefficient) alongside the layer shapes and the feature pipeline.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .data import Standardizer
from .errors import UsageError
from .evidential import EvidentialModel
from .fileio import atomic_open
from .nncore import MLP, Layer, TrainConfig

FORMAT_NAME = "gustuq-evidential-model"
FORMAT_VERSION = 1


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


def save_model(model: EvidentialModel, path) -> None:
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "train_config": {
            "learning_rate": model.train_config.learning_rate,
            "batch_size": model.train_config.batch_size,
            "max_epochs": model.train_config.max_epochs,
            "patience": model.train_config.patience,
            "evidential_coef": model.train_config.evidential_coef,
            "seed": model.train_config.seed,
        },
        "network": {
            "dropout": model.mlp.dropout,
            "l1": model.mlp.l1,
            "l2": model.mlp.l2,
            "leaky_slope": model.mlp.leaky_slope,
            "layers": [
                {"weights": _encode_array(l.weights), "bias": _encode_array(l.bias)}
                for l in model.mlp.layers
            ],
        },
        "feature_names": model.feature_names,
        "standardizer": None
        if model.standardizer is None
        else {
            "offset": _encode_array(model.standardizer.offset),
            "scale": _encode_array(model.standardizer.scale),
            "passthrough": model.standardizer.passthrough.astype(bool).tolist(),
        },
    }
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_model(path) -> EvidentialModel:
    """Read an artifact; a missing or mistyped field is a usage error that
    names it."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: artifact is not valid JSON ({exc})") from None
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
        network = {
            k: _field(payload, f"network.{k}", float)
            for k in ("dropout", "l1", "l2", "leaky_slope")
        }
        config = TrainConfig(
            **{k: _field(payload, f"train_config.{k}", float)
               for k in ("learning_rate", "evidential_coef")},
            **{k: _field(payload, f"train_config.{k}", int)
               for k in ("batch_size", "max_epochs", "patience", "seed")},
        )
        std = payload.get("standardizer")
        standardizer = None
        if std is not None:
            standardizer = Standardizer(
                offset=_decode_array(std, "offset", "standardizer.offset"),
                scale=_decode_array(std, "scale", "standardizer.scale"),
                passthrough=np.asarray(
                    _field(payload, "standardizer.passthrough", list), dtype=bool
                ),
            )
        names = payload.get("feature_names")
        if names is not None and not (
            isinstance(names, list) and all(isinstance(n, str) for n in names)
        ):
            raise UsageError("artifact field feature_names must be a list of strings")
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from None
    return EvidentialModel(
        mlp=MLP(layers=layers, **network),
        train_config=config,
        feature_names=names,
        standardizer=standardizer,
    )
