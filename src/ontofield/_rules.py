"""Argument rules: a rule maps an argument's value to the reason it is refused, or ``None``.

Each module keeps its arguments' rules in a ``_RULES`` table.  Its predicates
return ``(argument, message)`` pairs, which its entry points raise through
:func:`refuse` and ``ontofield validate`` reports under the config key.
"""

from __future__ import annotations

import cmath
from typing import Callable

import numpy as np

Rule = Callable[[object], "str | None"]
Problems = list[tuple[str, str]]


def is_integer(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def positive_finite(value) -> str | None:
    return None if 0.0 < value < np.inf else f"must be positive and finite, got {value!r}"


def finite(value) -> str | None:
    entries = (value,) if np.isscalar(value) else np.ravel(value)  # cmath, as numpy is slow on a few numbers
    return None if all(map(cmath.isfinite, entries)) else f"must be finite, got {value!r}"


def integer_at_least(lo: int) -> Rule:
    return lambda value: None if is_integer(value) and value >= lo else f"must be an integer >= {lo}, got {value!r}"


def one_of(*options: str) -> Rule:
    return lambda value: None if value in options else f"must be one of {options}, got {value!r}"


def problems(rules: dict[str, Rule], **arguments) -> Problems:
    """The ``(argument, message)`` pairs of the ``arguments`` their ``rules`` refuse."""
    return [(name, message) for name, value in arguments.items() if (message := rules[name](value)) is not None]


def refuse(found: Problems, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming each pair of ``found``, if there is one: ``"mass must ..."``, or ``"k: ..."``."""
    if found:
        parts = (f"{name} {message}" if message.startswith("must") else f"{name}: {message}" for name, message in found)
        raise error("; ".join(parts))
