"""The one rule table of the configuration dataclasses' fields.

Each field's whole rule is on its own line: its annotation gives the type,
and ``rule`` adds the allowed choices or range, e.g.
``gamma: float = rule(0.99, within=(0, 1))``. ``TaskSpec``,
``NetworkSizes`` (so ``PolicyConfig``), ``TrainSettings`` and ``RunConfig``
run ``check_fields`` in ``__post_init__``, so a value that breaks its rule
is refused alike from YAML and from library use.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields


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


def rule(default=MISSING, *, one_of=None, at_least=None, above=None, within=None,
         finite=None, positive_items=None):
    """A dataclass field with ``default`` (none: required) whose value
    ``check_fields`` holds to: one of ``one_of``, ``>= at_least``,
    ``> above``, in the closed range ``within``, ``finite``, or (a list)
    only positive integers."""
    checks = {"one_of": one_of, "at_least": at_least, "above": above,
              "within": within, "finite": finite, "positive_items": positive_items}
    return field(default=default, metadata={k: v for k, v in checks.items() if v is not None})


def check_fields(obj) -> None:
    """Check every field of dataclass ``obj``, in order: its choices, its
    type by annotation, then its range; the first broken rule raises
    ``ValueError`` naming the field. Every comparison fails on NaN; a null
    in a ``float | None`` field has no range. A number in a float field
    becomes a float, a list in a tuple field a tuple."""
    for f in fields(obj):
        value, r = getattr(obj, f.name), f.metadata
        if "one_of" in r and value not in r["one_of"]:
            raise ValueError(f"{f.name}: {value!r} is not one of {sorted(r['one_of'])}")
        accepts, expected = _TYPE_CHECKS[f.type]
        if not accepts(value):
            raise ValueError(f"{f.name}: expected {expected}, got {value!r}")
        if f.type.startswith("float") and value is not None:
            value = float(value)
        elif f.type == "tuple":
            value = tuple(value)
        object.__setattr__(obj, f.name, value)
        if value is None:
            continue
        if "at_least" in r and not value >= r["at_least"]:
            raise ValueError(f"{f.name}: must be >= {r['at_least']}")
        if "above" in r and not value > r["above"]:
            raise ValueError(f"{f.name}: must be > {r['above']}")
        if "within" in r and not r["within"][0] <= value <= r["within"][1]:
            raise ValueError(f"{f.name}: must be in [{r['within'][0]}, {r['within'][1]}]")
        if "finite" in r and not math.isfinite(value):
            raise ValueError(f"{f.name}: must be finite")
        if "positive_items" in r:
            for i, item in enumerate(value):
                if not _is_int(item) or item < 1:
                    raise ValueError(
                        f"{f.name}[{i}]: expected a positive integer, got {item!r}")
