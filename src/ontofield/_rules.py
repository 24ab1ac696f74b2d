"""Argument rules: a rule maps an argument's value to the reason it is refused, or ``None``.

Each module keeps its arguments' rules in a ``_RULES`` table.  Its predicates
return ``(argument, message)`` pairs, which its entry points raise through
:func:`refuse` and ``ontofield validate`` reports under the config key.  A
rule refuses every value outside its argument's type too, so ``validate``
passes each config value, whatever its JSON type, to one rule: a scalar rule
refuses a list or a string, and only :func:`nullable` rules accept ``None``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

Rule = Callable[[object], "str | None"]
Problems = list[tuple[str, str]]

_REALS = (int, float, np.integer, np.floating)


def as_tuple(value: object) -> tuple:
    """A scalar-or-list argument's entries: a 0-d value (a number, numpy scalar or 0-d array) is one entry."""
    if isinstance(value, (int, float)):  # 0-d, told apart without np.ndim's conversion
        return (value,)
    return tuple(value) if isinstance(value, (list, tuple)) or np.ndim(value) else (value,)


def is_integer(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value: object) -> bool:
    """Whether ``value`` is a real number, not a bool, finite as a double; numpy scalars and 0-d arrays count."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    try:
        return isinstance(value, _REALS) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a double
        return False


def positive_finite(value) -> str | None:
    return None if is_real(value) and value > 0.0 else f"must be positive and finite, got {value!r}"


def nonnegative_finite(value) -> str | None:
    return None if is_real(value) and value >= 0.0 else f"must be nonnegative and finite, got {value!r}"


def finite(value) -> str | None:
    """One finite real number."""
    return None if is_real(value) else f"must be finite, got {value!r}"


def finite_entries(value) -> str | None:
    """A finite real number, or a list or 1-D array of any number of them."""
    return None if all(map(is_real, as_tuple(value))) else f"must be finite, got {value!r}"


def per_axis(entry: Rule) -> Rule:
    """A scalar or a list of 1 to 3 entries, one per lattice axis, each passing ``entry``."""
    def check(value: object) -> str | None:
        entries = as_tuple(value)
        if not 1 <= len(entries) <= 3:
            return f"must be a scalar or a list of 1 to 3 entries, got {value!r}"
        return next(filter(None, map(entry, entries)), None)  # the first entry's message

    return check


def nullable(inner: Rule) -> Rule:
    """``None``, or a value ``inner`` accepts."""
    return lambda value: None if value is None else inner(value)


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
