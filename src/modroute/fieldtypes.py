"""The one type table of the configuration dataclasses' fields.

``TaskSpec``, ``NetworkSizes``, ``TrainSettings`` and ``RunConfig`` run
``check_types`` in ``__post_init__``, so a value of the wrong type is
refused alike from YAML and from library use.
"""

from __future__ import annotations

from dataclasses import fields


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# per field annotation: the values it accepts and how an error names them
_TYPE_CHECKS = {
    "bool": (lambda v: isinstance(v, bool), "true/false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "tuple": (lambda v: isinstance(v, (list, tuple)), "a list"),
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a number"),
    "float | None": (lambda v: v is None or _is_number(v), "a number or null"),
}


def check_types(obj, cls=None) -> None:
    """Check the fields of dataclass ``cls`` (default: ``obj``'s own) on
    ``obj`` by their annotations: a value of another type raises
    ``ValueError`` naming the field; a number in a float field becomes a
    float."""
    for f in fields(cls or obj):
        value = getattr(obj, f.name)
        accepts, expected = _TYPE_CHECKS[f.type]
        if not accepts(value):
            raise ValueError(f"{f.name}: expected {expected}, got {value!r}")
        if f.type.startswith("float") and value is not None:
            object.__setattr__(obj, f.name, float(value))
