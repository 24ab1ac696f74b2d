"""Tests for the single-mode ladder operators and their unitary replacement."""

import numpy as np
import pytest

from ontofield.ladder import (
    TimedOperator,
    b_eigensystem,
    build_mode,
    commutator_defect,
    evolve_operator,
    reconstruct_a,
    truncate_from_a,
)


@pytest.mark.parametrize(
    "n_levels, omega",
    [(1, 1.0), (0, 1.0), (2, 0.0), (2, -1.0), (2, float("inf"))],
)
def test_build_mode_rejects_bad_parameters(n_levels, omega):
    with pytest.raises(ValueError):
        build_mode(n_levels, omega)


def test_lowering_operator_matrix_elements():
    ops = build_mode(3, 1.0)
    expected = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex)
    assert np.allclose(ops.a, expected, atol=1e-15)
    assert np.array_equal(ops.a_dag, ops.a.conj().T)


def test_position_and_momentum_are_hermitian():
    ops = build_mode(6, 1.3)
    assert np.max(np.abs(ops.q - ops.q.conj().T)) < 1e-15
    assert np.max(np.abs(ops.p - ops.p.conj().T)) < 1e-15


def test_canonical_commutator_away_from_the_top_level():
    # Truncation pushes the entire defect into the highest level.
    n = 7
    ops = build_mode(n, 0.8)
    comm = ops.q @ ops.p - ops.p @ ops.q
    interior = comm[: n - 1, : n - 1] - 1j * np.eye(n - 1)
    assert np.max(np.abs(interior)) < 1e-14
    assert comm[n - 1, n - 1] == pytest.approx(1j * (1 - n), abs=1e-13)


def test_replacement_operator_is_the_cyclic_shift():
    ops = build_mode(3, 1.0)
    expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    assert np.array_equal(ops.b, expected)
    assert np.array_equal(ops.b_dag, ops.b.conj().T)


@pytest.mark.parametrize("omega", [0.3, 1.0, 1e300])
def test_shift_and_eigenvectors_equal_the_closed_forms(omega):
    # b comes from the automaton's hop, bit for bit, and the eigenvectors
    # from its energy basis.  Those equal the closed form in value; only the
    # zero-phase entries (row and column 0) differ in bits, where the
    # conjugated basis carries an imaginary part of -0 instead of +0.
    for n in range(2, 65):
        ops = build_mode(n, omega)
        cols = np.arange(n)
        b = np.zeros((n, n), dtype=complex)
        b[(cols - 1) % n, cols] = 1.0
        vectors = np.exp(-2j * np.pi * np.outer(cols, cols) / n) / np.sqrt(n)
        assert ops.b.tobytes() == b.tobytes(), n
        assert ops.b_dag.tobytes() == b.conj().T.tobytes(), n
        got = b_eigensystem(ops)[1]
        assert np.array_equal(got, vectors), n
        assert np.array_equal(got[1:, 1:].view(np.uint64), vectors[1:, 1:].view(np.uint64)), n


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_replacement_operator_is_unitary(n):
    ops = build_mode(n, 1.0)
    eye = np.eye(n)
    assert np.max(np.abs(ops.b @ ops.b_dag - eye)) < 1e-15
    assert np.max(np.abs(ops.b_dag @ ops.b - eye)) < 1e-15


def test_truncation_map_agrees_with_the_shift_off_the_wrap_column():
    for n in (2, 4, 9):
        ops = build_mode(n, 1.0)
        truncated = truncate_from_a(ops)
        assert np.max(np.abs((truncated - ops.b)[:, 1:])) < 1e-14
        # The vacuum column is annihilated by a, so truncation cannot recover
        # the shift's wrap entry there.
        assert np.max(np.abs(truncated[:, 0])) == 0.0


def test_truncation_map_two_level_values():
    ops = build_mode(2, 1.0)
    assert np.allclose(truncate_from_a(ops), [[0, 1], [0, 0]], atol=1e-15)


def test_reconstruction_recovers_a_except_the_wrap_entry():
    for n in (2, 5, 16):
        ops = build_mode(n, 1.0)
        rebuilt = reconstruct_a(ops)
        diff = rebuilt - ops.a
        diff[n - 1, 0] = 0.0
        assert np.max(np.abs(diff)) < 1e-13
        assert rebuilt[n - 1, 0] == pytest.approx(np.sqrt(n), abs=1e-13)


def test_eigensystem_gives_roots_of_unity():
    n = 12
    ops = build_mode(n, 1.0)
    values, vectors = b_eigensystem(ops)
    expected = np.exp(-2j * np.pi * np.arange(n) / n)
    assert np.max(np.abs(values - expected)) < 1e-14
    assert np.max(np.abs(ops.b @ vectors - vectors * values)) < 1e-13
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(n))) < 1e-13


def test_commutator_report_locates_every_defect():
    n = 8
    report = commutator_defect(build_mode(n, 1.0))
    assert report.n_levels == n
    assert report.shift_defect < 1e-14
    assert report.shift_wrap_entry == pytest.approx(-(n - 1), abs=1e-13)
    assert report.qp_defect < 1e-14
    assert report.qp_top_entry == pytest.approx(1j * (1 - n), abs=1e-13)


def test_timed_operator_validation():
    ops = build_mode(4, 1.0)
    with pytest.raises(ValueError):
        TimedOperator(ops.b, 1.0, "weird")
    with pytest.raises(ValueError, match="^omega must be positive and finite"):
        TimedOperator(ops.b, float("inf"), "lowering")
    # A NaN time would make every entry NaN.
    with pytest.raises(ValueError, match="^t must be finite"):
        evolve_operator(TimedOperator(ops.b, 1.0, "lowering"), float("nan"))


def test_evolved_operator_carries_the_mode_phase():
    omega = 1.7
    ops = build_mode(5, omega)
    t = 0.63
    lower = evolve_operator(TimedOperator(ops.b, omega, "lowering"), t)
    raise_ = evolve_operator(TimedOperator(ops.b_dag, omega, "raising"), t)
    assert np.allclose(lower, ops.b * np.exp(-1j * omega * t), atol=1e-15)
    assert np.allclose(raise_, ops.b_dag * np.exp(1j * omega * t), atol=1e-15)


def test_unequal_time_operators_commute():
    # Unitarity makes b(t1) and b_dag(t2) commute for every pair of times,
    # which is the whole point of the replacement.
    omega = 2.0
    ops = build_mode(6, omega)
    rng = np.random.default_rng(11)
    for t1, t2 in rng.uniform(0.0, 4 * np.pi / omega, size=(10, 2)):
        bt1 = evolve_operator(TimedOperator(ops.b, omega, "lowering"), t1)
        bdag_t2 = evolve_operator(TimedOperator(ops.b_dag, omega, "raising"), t2)
        assert np.max(np.abs(bt1 @ bdag_t2 - bdag_t2 @ bt1)) < 1e-14
