"""JSON-shaped dict form of the config dataclasses, derived from their fields.

The writer is `dataclasses.asdict`. The reader walks `dataclasses.fields`
and the resolved annotations, recursing into nested dataclass fields, and
turns every unknown key, wrongly typed value or non-finite float into a `ConfigError` that
names the dotted field path. Value ranges stay with each `__post_init__`.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing

from .errors import ConfigError


class DictConfig:
    """Mixin for config dataclasses: `to_dict` and `from_dict` round-trip."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        return from_dict(cls, data)


def from_dict(cls, data, path: str = ""):
    """Build dataclass `cls` from `data`, checking each value against the
    field's annotation; absent fields keep their defaults."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or cls.__name__} must be an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        where = f" at {path}" if path else ""
        raise ConfigError(f"unknown {cls.__name__} fields{where}: {sorted(unknown, key=str)}")
    return cls(**{name: _value(hints[name], value, f"{path}.{name}" if path else name)
                  for name, value in data.items()})


def _value(hint, value, path: str):
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value, path)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        # the only unions in the configs are `X | None`
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _value(hint, value, path)
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {type(value).__name__}")
        return [_value(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    # no config field is a bool, and bool is an int subclass; an int is a valid
    # float and is kept as written, so the dict form round-trips unchanged
    accepted = (int, float) if hint is float else hint
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path} must be {hint.__name__}, got {type(value).__name__}")
    # json reads NaN/Infinity, and a NaN passes every range check after this
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path} must be finite, got {value}")
    return value
