"""The one type check behind every config surface: experiment configs,
policy params and ``build-model``'s dataset config."""

from __future__ import annotations

import numbers
import sys
import types
import typing
from dataclasses import MISSING, fields


class ConfigError(ValueError):
    """Invalid configuration."""


def check_type(name: str, value, annotation):
    """``value`` if it has the type ``annotation``, else ConfigError: ``int``
    takes an integral number, ``float`` any finite real number (as a float),
    ``Optional[X]`` or ``X | None`` also None; a bool is never a number."""
    is_union = typing.get_origin(annotation) in (typing.Union, types.UnionType)
    for option in typing.get_args(annotation) if is_union else (annotation,):
        number = {int: numbers.Integral, float: numbers.Real}.get(option)
        if number and isinstance(value, number) and not isinstance(value, bool):
            # NaN, the infinities and ints beyond the float range are not floats
            if option is int or abs(value) <= sys.float_info.max:
                return option(value)
        if not number and isinstance(value, typing.get_origin(option) or option):
            return value
    raise ConfigError(f"{name} must be {getattr(annotation, '__name__', annotation)}, got {value!r}")


class TypedConfig:
    """Base of a frozen config dataclass: each field is checked against its
    annotation when the instance is built."""

    def __post_init__(self):
        cls = type(self)
        # resolving postponed annotations evaluates their strings: once per
        # class, kept on the class itself so it goes when the class goes
        hints = cls.__dict__.get("_type_hints")
        if hints is None:
            hints = typing.get_type_hints(cls)
            cls._type_hints = hints
        for name, annotation in hints.items():
            object.__setattr__(self, name, check_type(name, getattr(self, name), annotation))

    def to_dict(self) -> dict:
        """The JSON object ``from_dict`` reads back, a copy with every
        nested config and mapping an object and every sequence a list."""

        def plain(value):
            if isinstance(value, TypedConfig):
                return value.to_dict()
            if isinstance(value, dict):
                return {key: plain(item) for key, item in value.items()}
            return [plain(item) for item in value] if isinstance(value, (list, tuple)) else value

        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc, **convert):
        """An instance from the JSON object ``doc``, with its arrays as
        tuples and ``convert[key]`` applied to entry ``key``; ConfigError
        on an unknown or a missing key."""
        names = {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
        unknown, missing = sorted(set(check_type(cls.__name__, doc, dict)) - names), sorted(required - set(doc))
        if unknown or missing:
            raise ConfigError(f"{cls.__name__}: unknown keys {unknown}, missing keys {missing}")
        doc = {key: tuple(value) if isinstance(value, list) else value for key, value in doc.items()}
        return cls(**{key: convert[key](value) if key in convert else value for key, value in doc.items()})
