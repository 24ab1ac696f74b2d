"""Truncated oscillator ladder and its deterministic beable counterpart.

A single field mode of frequency ``omega`` lives in an ``N``-level
truncation.  Alongside the usual lowering operator ``a`` (matrix elements
``sqrt(n)`` on the first superdiagonal) the module builds the cyclic shift
``b`` obtained by stripping the ``sqrt(n)`` weights and closing the ladder
periodically: the backward hop of the mode's automaton (:mod:`ontofield.cyclic`).
``b`` is unitary, commutes with itself at unequal times, and the automaton's
energy basis diagonalizes it; ``a`` and ``b`` convert into each other through
the number operator, exactly except for a single wrap-around column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ontofield._rules import finite, integer_at_least, is_real, one_of, positive_finite, problems, refuse
from ontofield.cyclic import CycleConfig, basis_change, evolution_matrix

__all__ = [
    "CommutatorReport",
    "ModeOperators",
    "TimedOperator",
    "b_eigensystem",
    "build_mode",
    "commutator_defect",
    "evolve_operator",
    "reconstruct_a",
    "truncate_from_a",
]


_RULES = {
    "n_levels": integer_at_least(2),
    # omega sets the automaton's period 2*pi/omega (_automaton), which must be finite too.
    "omega": lambda omega: positive_finite(omega)
    or (None if is_real(2.0 * np.pi / omega) else f"must leave a finite period 2*pi/omega, got {omega!r}"),
    "kind": one_of("lowering", "raising"),
    "t": finite,
}


@dataclass(frozen=True)
class ModeOperators:
    """Dense operator set for one truncated mode.

    ``a`` and ``a_dag`` are the weighted ladder pair, ``q``/``p`` the
    quadratures built from them, and ``b``/``b_dag`` the unweighted cyclic
    shift pair.
    """

    n_levels: int
    omega: float
    a: np.ndarray = field(repr=False)
    a_dag: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    b_dag: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class TimedOperator:
    """Heisenberg-picture ladder operator: one ladder step at frequency ``omega``."""

    base: np.ndarray
    omega: float
    kind: str

    def __post_init__(self) -> None:
        refuse(problems(_RULES, omega=self.omega, kind=self.kind))


@dataclass(frozen=True)
class CommutatorReport:
    """Deviation of truncated commutators from their infinite-ladder values.

    The shift/number commutator equals ``b`` except in its wrap column and
    ``[q, p]`` equals ``i`` except in the top level; the report separates the
    interior defect (should be roundoff) from the expected boundary entries.
    """

    n_levels: int
    shift_defect: float
    shift_wrap_entry: complex
    qp_defect: float
    qp_top_entry: complex


def _automaton(n: int, omega: float) -> CycleConfig:
    """The mode's automaton: ``n`` hops per period ``2*pi/omega`` (dividing twice keeps the hop above 0)."""
    return CycleConfig(n, 2.0 * np.pi / n / omega)


def build_mode(n_levels: int, omega: float) -> ModeOperators:
    """Construct the dense operator set for an ``n_levels`` truncation."""
    refuse(problems(_RULES, n_levels=n_levels, omega=omega))
    n = int(n_levels)
    a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), k=1).astype(complex)
    a_dag = a.conj().T
    q = (a_dag - a) / (1j * np.sqrt(2.0 * omega))
    p = np.sqrt(omega / 2.0) * (a + a_dag)
    b = evolution_matrix(_automaton(n, omega), steps=-1)
    return ModeOperators(n_levels=n, omega=float(omega), a=a, a_dag=a_dag, q=q, p=p, b=b, b_dag=b.conj().T)


def evolve_operator(op: TimedOperator, t: float) -> np.ndarray:
    """Heisenberg evolution: a pure phase, since the spectrum is equidistant.

    Lowering operators pick up ``exp(-1j * omega * t)``; raising operators
    the conjugate phase.  A non-finite ``t`` is refused.
    """
    refuse(problems(_RULES, t=t))
    sign = -1.0 if op.kind == "lowering" else 1.0
    return op.base * np.exp(sign * 1j * op.omega * t)


def truncate_from_a(ops: ModeOperators) -> np.ndarray:
    """Strip ladder weights: ``(1 + a_dag a)^(-1/2) a``.

    Matches ``b`` on every column except column 0, where ``b`` wraps to the
    top level but this product stays zero.
    """
    scale = 1.0 / np.sqrt(1.0 + np.arange(ops.n_levels, dtype=float))
    return scale[:, None] * ops.a


def reconstruct_a(ops: ModeOperators) -> np.ndarray:
    """Reweight the cyclic shift: ``(1 + a_dag a)^(1/2) b``.

    Recovers ``a`` exactly on columns 1 .. N-1; column 0 keeps the wrap
    entry, scaled to ``sqrt(N)`` at the bottom-left corner.
    """
    scale = np.sqrt(1.0 + np.arange(ops.n_levels, dtype=float))
    return scale[:, None] * ops.b


def b_eigensystem(ops: ModeOperators) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form spectrum of the cyclic shift.

    Returns ``(values, vectors)`` with ``values[k] = exp(-2j*pi*k/N)`` (the
    N-th roots of unity) and ``vectors[:, k]`` the unit eigenvector with
    components ``exp(-2j*pi*k*n/N) / sqrt(N)``: the conjugate of the
    automaton's energy basis, since ``b`` runs the automaton backward.
    """
    n = ops.n_levels
    values = np.exp(-2j * np.pi * np.arange(n) / n)
    return values, basis_change(_automaton(n, ops.omega)).conj()


def commutator_defect(ops: ModeOperators) -> CommutatorReport:
    """Measure where truncation breaks the infinite-ladder commutators.

    ``[b, n_hat] = b`` holds on columns 1 .. N-1; the wrap column instead
    carries ``-(N-1)`` at the bottom-left corner.  ``[q, p] = i`` holds on
    levels below the top; the top diagonal entry is ``i * (1 - N)``.
    """
    n = ops.n_levels
    number_op = np.diag(np.arange(n, dtype=float)).astype(complex)
    shift_comm = ops.b @ number_op - number_op @ ops.b
    shift_wrap_entry = complex(shift_comm[n - 1, 0])
    interior = (shift_comm - ops.b)[:, 1:]
    shift_defect = float(np.max(np.abs(interior))) if interior.size else 0.0
    qp = ops.q @ ops.p - ops.p @ ops.q
    qp_top_entry = complex(qp[n - 1, n - 1])
    trimmed = qp - 1j * np.eye(n)
    trimmed = trimmed[: n - 1, : n - 1]
    qp_defect = float(np.max(np.abs(trimmed))) if trimmed.size else 0.0
    return CommutatorReport(
        n_levels=n,
        shift_defect=shift_defect,
        shift_wrap_entry=shift_wrap_entry,
        qp_defect=qp_defect,
        qp_top_entry=qp_top_entry,
    )
