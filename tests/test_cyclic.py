"""Tests for the cyclic automaton and its energy-basis diagonalization."""

import numpy as np
import pytest

from ontofield.cyclic import (
    CycleConfig,
    OntState,
    basis_change,
    energy_levels,
    evolution_matrix,
    evolve_step,
)


def test_config_derived_quantities():
    config = CycleConfig(n_states=4, delta_t=0.5)
    assert config.omega == pytest.approx(np.pi)
    assert config.period == pytest.approx(2.0)


@pytest.mark.parametrize(
    "bad",
    [
        dict(n_states=0, delta_t=1.0),
        dict(n_states=4, delta_t=-1.0),
        dict(n_states=4, delta_t=0.0),
        # A zero omega, and an energy ladder of zeros.
        dict(n_states=4, delta_t=float("inf")),
    ],
)
def test_config_rejects_bad_parameters(bad):
    with pytest.raises(ValueError):
        CycleConfig(**bad)


def test_state_index_must_be_nonnegative():
    with pytest.raises(ValueError):
        OntState(-1)


def test_a_step_refuses_a_state_outside_the_register():
    with pytest.raises(ValueError, match="outside register of size 4"):
        evolve_step(OntState(5), CycleConfig(4, 1.0))


def test_single_step_cycles_through_all_states():
    config = CycleConfig(n_states=5, delta_t=1.0)
    state = OntState(0)
    visited = [state.index]
    for _ in range(5):
        state = evolve_step(state, config)
        visited.append(state.index)
    assert visited == [0, 1, 2, 3, 4, 0]


def test_multi_step_wraps_modulo_cycle_length():
    config = CycleConfig(n_states=4, delta_t=1.0)
    assert evolve_step(OntState(2), config, steps=7).index == 1
    assert evolve_step(OntState(0), config, steps=-1).index == 3


def test_evolution_matrix_is_the_cyclic_shift():
    config = CycleConfig(n_states=3, delta_t=1.0)
    expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    assert np.array_equal(evolution_matrix(config), expected)


def test_evolution_matrix_power_matches_steps_argument():
    config = CycleConfig(n_states=6, delta_t=0.3)
    hop = evolution_matrix(config)
    for k in range(7):
        assert np.array_equal(evolution_matrix(config, steps=k), np.linalg.matrix_power(hop, k))


def test_full_period_returns_exactly_to_identity():
    # Entries are 0/1 integers in complex storage, so the match is exact.
    for n in (2, 3, 4, 7, 16):
        config = CycleConfig(n_states=n, delta_t=0.1)
        assert np.array_equal(evolution_matrix(config, steps=n), np.eye(n, dtype=complex))


def test_energy_levels_are_integer_multiples_of_omega():
    config = CycleConfig(n_states=9, delta_t=0.25)
    levels = energy_levels(config)
    assert levels.shape == (9,)
    assert levels[0] == 0.0
    ratios = levels[1:] / config.omega
    assert np.max(np.abs(ratios - np.arange(1, 9))) < 1e-14


def test_basis_change_is_unitary():
    config = CycleConfig(n_states=8, delta_t=1.0)
    m = basis_change(config)
    assert np.max(np.abs(m @ m.conj().T - np.eye(8))) < 1e-14


def test_basis_columns_are_evolution_eigenvectors():
    config = CycleConfig(n_states=5, delta_t=0.7)
    hop = evolution_matrix(config)
    m = basis_change(config)
    phases = np.exp(-1j * energy_levels(config) * config.delta_t)
    assert np.max(np.abs(hop @ m - m * phases)) < 1e-14


def test_diagonalization_gives_the_energy_phases():
    config = CycleConfig(n_states=12, delta_t=0.4)
    hop = evolution_matrix(config)
    m = basis_change(config)
    diag = m.conj().T @ hop @ m
    off = diag - np.diag(np.diag(diag))
    assert np.max(np.abs(off)) < 1e-13
    expected = np.exp(-1j * energy_levels(config) * config.delta_t)
    assert np.max(np.abs(np.diag(diag) - expected)) < 1e-13


def test_four_state_eigenphases_are_the_fourth_roots_of_unity():
    config = CycleConfig(n_states=4, delta_t=1.0)
    m = basis_change(config)
    diag = np.diag(m.conj().T @ evolution_matrix(config) @ m)
    assert np.allclose(diag, [1.0, -1.0j, -1.0, 1.0j], atol=1e-14)
