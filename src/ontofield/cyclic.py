"""Finite periodic automaton and its energy eigenbasis.

The elementary deterministic system is a register that hops through ``N``
states, ``x -> x + 1 (mod N)``, once every time step ``delta_t``.  One full
revolution takes ``N * delta_t``, so the evolution operator is a cyclic
permutation whose eigenphases form an equidistant ladder ``E_n = n * omega``
with ``omega = 2*pi / (N * delta_t)``.  The eigenbasis is reached by a
discrete Fourier transform; in that basis the dynamics looks like a quantum
system with a linear spectrum even though nothing ever superposes in the
state basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ontofield._rules import integer_at_least, positive_finite, problems, refuse

__all__ = [
    "CycleConfig",
    "OntState",
    "basis_change",
    "energy_levels",
    "evolution_matrix",
    "evolve_step",
]


_RULES = {"n_states": integer_at_least(1), "delta_t": positive_finite, "index": integer_at_least(0)}


@dataclass(frozen=True)
class CycleConfig:
    """Size and time step of one periodic register.

    ``n_states`` is the period of the automaton and ``delta_t`` the duration
    of a single hop.  The derived angular frequency ``omega`` sets the
    spacing of the energy ladder.
    """

    n_states: int
    delta_t: float

    def __post_init__(self) -> None:
        refuse(problems(_RULES, n_states=self.n_states, delta_t=self.delta_t))

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / (self.n_states * self.delta_t)

    @property
    def period(self) -> float:
        return self.n_states * self.delta_t


@dataclass(frozen=True)
class OntState:
    """Classical register value: which of the N states the automaton occupies."""

    index: int

    def __post_init__(self) -> None:
        refuse(problems(_RULES, index=self.index))


def evolve_step(state: OntState, config: CycleConfig, steps: int = 1) -> OntState:
    """Advance the register by ``steps`` hops of the deterministic law."""
    if state.index >= config.n_states:
        raise ValueError(
            f"state index {state.index} outside register of size {config.n_states}"
        )
    return OntState((state.index + steps) % config.n_states)


def evolution_matrix(config: CycleConfig, steps: int = 1) -> np.ndarray:
    """Permutation matrix for ``steps`` hops: column x maps to row (x+steps) mod N.

    Entries are exactly 0 or 1, so powers and periodicity hold without
    roundoff.
    """
    n = config.n_states
    u = np.zeros((n, n), dtype=complex)
    cols = np.arange(n)
    u[(cols + steps) % n, cols] = 1.0
    return u


def energy_levels(config: CycleConfig) -> np.ndarray:
    """Equidistant spectrum ``E_n = n * omega`` for n = 0 .. N-1, with E_0 = 0."""
    return config.omega * np.arange(config.n_states)


def basis_change(config: CycleConfig) -> np.ndarray:
    """Symmetric DFT matrix diagonalizing the hop operator.

    The matrix is unitary: it maps the state basis to the energy basis, and
    its conjugate transpose maps back.  With ``M[n, x] = exp(2j*pi*n*x/N) /
    sqrt(N)`` the columns of ``M`` are eigenvectors of the hop matrix ``U``
    and the conjugated evolution ``M^dagger U M`` is diagonal with entries
    ``exp(-1j * E_n * delta_t)``.
    """
    n = config.n_states
    grid = np.outer(np.arange(n), np.arange(n))
    return np.exp(2j * np.pi * grid / n) / np.sqrt(n)
