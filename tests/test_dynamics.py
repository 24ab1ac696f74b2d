"""Tests for packet evolution, the residual checks, and the leapfrog integrator."""

import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ontofield.dynamics import (
    EvolutionRun,
    FrontTrackingError,
    InstabilityError,
    ResidualReport,
    evolve_convolution,
    gaussian_packet,
    kg_residual,
    leapfrog_interact,
    refinement_study,
    spectral_run,
    stability_bound,
    time_derivative_check,
    wavefront_measure,
    _energy,
    _force,
    _halo_copy,
    _run,
    _schedule,
)
from ontofield.lattice import (
    ComplexField,
    _workspace,
    build_lattice,
    position_axes,
    save_field,
    spectral_evolve,
    to_momentum,
    to_position,
)
from fresh_interpreter import peak_bytes, run_script


def real_packet(lattice, k0=1.0, center=8.0, width=3.0):
    packet = gaussian_packet(lattice, k0, center, width)
    return ComplexField("position", packet.values.real.astype(complex), time=packet.time)


def zero_field(lattice):
    return ComplexField("position", np.zeros(lattice.grid_points, dtype=complex))


def stencil_frequency(lattice):
    """``W_k = sqrt(sum_a 4/dx_a^2 sin^2(k_a dx_a / 2) + M^2)`` on the mode grid: each mode's frequency under the leapfrog's stencil."""
    terms = (4.0 * np.sin(k * dx / 2.0) ** 2 / dx**2 for k, dx in zip(np.ix_(*lattice.k_axes), lattice.spacings))
    return np.sqrt(sum(terms) + lattice.mass**2)


def chebyshev_free_record(b0, v0, lattice, dt, n):
    """The free leapfrog's exact field after ``n`` steps from the real arrays ``b0`` and ``v0``.

    At zero coupling a step is ``b_{n+1} = 2 b_n - b_{n-1} - dt^2 W^2 b_n`` per
    mode, solved by ``b_n = cos(n th) b_0 + dt sin(n th)/sin(th) v_0`` with
    ``cos th = 1 - dt^2 W^2 / 2``; ``th = 2 arcsin(dt W / 2)`` is that angle
    without the loss of ``arccos`` near 1.
    """
    theta = 2.0 * np.arcsin(0.5 * dt * stencil_frequency(lattice))
    modes = np.cos(n * theta) * np.fft.fftn(b0) + dt * np.sin(n * theta) / np.sin(theta) * np.fft.fftn(v0)
    return np.fft.ifftn(modes).real


def flawed_field(lattice, value):
    values = np.zeros(lattice.grid_points, dtype=complex)
    values[3] = value
    return ComplexField("position", values)


# --- initial data ---------------------------------------------------------------


def test_packet_peaks_at_its_center():
    lat = build_lattice(32.0, 64, 1.0)
    packet = gaussian_packet(lat, 0.0, 12.0, 2.0)
    x = position_axes(lat)[0]
    assert x[int(np.argmax(np.abs(packet.values)))] == pytest.approx(12.0)
    assert np.max(np.abs(packet.values)) == pytest.approx(1.0)


def test_packet_amplitude_scales_linearly():
    lat = build_lattice(32.0, 64, 1.0)
    unit = gaussian_packet(lat, 1.0, 8.0, 2.0)
    scaled = gaussian_packet(lat, 1.0, 8.0, 2.0, amplitude=2.5)
    assert np.allclose(scaled.values, 2.5 * unit.values, atol=1e-15)


def test_packet_wraps_smoothly_around_the_seam():
    # A center on the boundary must produce the same profile as a center in
    # the middle, shifted; the minimum-image rule guarantees it.
    lat = build_lattice(32.0, 64, 1.0)
    at_edge = gaussian_packet(lat, 0.0, 0.0, 3.0)
    mid = gaussian_packet(lat, 0.0, 16.0, 3.0)
    assert np.allclose(at_edge.values, np.roll(mid.values, -32), atol=1e-15)


def test_packet_momentum_content_sits_at_k0():
    lat = build_lattice(32.0, 128, 1.0)
    packet = gaussian_packet(lat, 2.0, 16.0, 4.0)
    spectrum = to_momentum(packet, lat)
    k_peak = lat.k_axes[0][int(np.argmax(np.abs(spectrum.values)))]
    assert k_peak == pytest.approx(2.0, abs=2 * np.pi / 32.0)


def test_packet_rejects_a_width_whose_square_underflows(recwarn):
    # exp(-d^2 / (4 w^2)) is 0/0 at the center once w^2 rounds to 0; the
    # error names the key, and no numpy division warning comes first.
    lat = build_lattice(32.0, 64, 1.0)
    with pytest.raises(ValueError, match="^width must have a square that does not underflow"):
        gaussian_packet(lat, 1.0, 8.0, 1e-300)
    assert len(recwarn) == 0
    assert np.all(np.isfinite(gaussian_packet(lat, 1.0, 8.0, 1e-160).values))


def test_packet_takes_vector_arguments_in_two_dimensions():
    lat = build_lattice([16.0, 16.0], [32, 32], 1.0)
    packet = gaussian_packet(lat, [1.0, -0.5], [4.0, 8.0], 2.0)
    assert packet.values.shape == (32, 32)
    idx = np.unravel_index(int(np.argmax(np.abs(packet.values))), packet.values.shape)
    x, y = position_axes(lat)
    assert (x[idx[0]], y[idx[1]]) == (4.0, 8.0)


# --- free evolution ---------------------------------------------------------------


def test_spectral_run_records_requested_snapshots():
    lat = build_lattice(32.0, 64, 1.0)
    run = spectral_run(gaussian_packet(lat, 1.0, 8.0, 3.0), lat, 0.1, 5, record_every=2)
    assert [s.time for s in run.snapshots] == pytest.approx([0.0, 0.2, 0.4, 0.5])
    assert run.final.time == pytest.approx(0.5)


def test_spectral_run_preserves_the_norm():
    lat = build_lattice(32.0, 64, 0.5)
    packet = gaussian_packet(lat, 1.0, 8.0, 3.0)
    run = spectral_run(packet, lat, 0.3, 10, record_every=10)
    assert np.linalg.norm(run.final.values) == pytest.approx(
        np.linalg.norm(packet.values), rel=1e-13
    )


def transform_route(field, lat, t):
    """Free evolution as transform, phase multiply and inverse transform."""
    return to_position(spectral_evolve(to_momentum(field, lat), lat, t), lat)


def test_convolution_transform_path_matches_spectral_evolution():
    lat = build_lattice(16.0, 32, 1.0)
    packet = gaussian_packet(lat, 1.0, 4.0, 2.0)
    run = spectral_run(packet, lat, 0.7, 1)
    conv = transform_route(packet, lat, 0.7)
    assert np.max(np.abs(conv.values - run.final.values)) < 1e-13


def test_literal_convolution_matches_the_transform_path():
    # Same kernel applied as an explicit sum over lattice shifts.
    lat = build_lattice(16.0, 32, 1.0)
    packet = gaussian_packet(lat, 1.0, 4.0, 2.0)
    fast = transform_route(packet, lat, 0.9)
    slow = evolve_convolution(packet, lat, 0.9)
    assert np.max(np.abs(fast.values - slow.values)) < 1e-12


def test_literal_convolution_matches_in_two_dimensions():
    lat = build_lattice([8.0, 8.0], [8, 8], 1.0)
    packet = gaussian_packet(lat, [1.0, 0.0], [2.0, 4.0], 1.5)
    fast = transform_route(packet, lat, 0.5)
    slow = evolve_convolution(packet, lat, 0.5)
    assert np.max(np.abs(fast.values - slow.values)) < 1e-12


def test_run_rejects_non_increasing_snapshot_times():
    lat = build_lattice(16.0, 32, 1.0)
    f0 = gaussian_packet(lat, 1.0, 4.0, 2.0)
    f_bad = ComplexField("position", f0.values, time=-1.0)
    with pytest.raises(ValueError):
        EvolutionRun(lattice=lat, steps=1, snapshots=(f0, f_bad))


# --- field guards ----------------------------------------------------------------

# Entry point -> (the space it takes, a call on one bad field).  The good
# companion fields are zero, so only the bad field can trip a check.
FIELD_ENTRY_POINTS = {
    "spectral_evolve": ("momentum", lambda f, lat, path: spectral_evolve(f, lat, 0.1)),
    "save_field": ("position", lambda f, lat, path: save_field(f, lat, path)),
    "spectral_run": ("position", lambda f, lat, path: spectral_run(f, lat, 0.1, 2)),
    "leapfrog_interact_b0": (
        "position", lambda f, lat, path: leapfrog_interact(f, zero_field(lat), lat, 0.0, 0.1, 2)
    ),
    "leapfrog_interact_bdot0": (
        "position", lambda f, lat, path: leapfrog_interact(zero_field(lat), f, lat, 0.0, 0.1, 2)
    ),
    "evolve_convolution": ("position", lambda f, lat, path: evolve_convolution(f, lat, 0.1)),
    "time_derivative_check": ("position", lambda f, lat, path: time_derivative_check(f, lat, 0.1)),
    "to_momentum": ("position", lambda f, lat, path: to_momentum(f, lat)),
    "to_position": ("momentum", lambda f, lat, path: to_position(f, lat)),
}
# The two that take a stack of fields on the grid's trailing axes.
STACK_ENTRY_POINTS = {"spectral_evolve", "to_position"}


@pytest.mark.parametrize("flaw", ["space", "shape", "stack"])
@pytest.mark.parametrize("entry", sorted(FIELD_ENTRY_POINTS))
def test_field_entry_points_reject_the_wrong_space_and_shape(tmp_path, entry, flaw):
    space, call = FIELD_ENTRY_POINTS[entry]
    lat = build_lattice(8.0, 8, 1.0)
    path = tmp_path / "field.csv"
    if flaw == "stack" and entry in STACK_ENTRY_POINTS:
        assert call(ComplexField(space, np.ones((2, 8), dtype=complex)), lat, path).values.shape == (2, 8)
        return
    if flaw == "space":
        other = "momentum" if space == "position" else "position"
        field, message = ComplexField(other, np.zeros(8, dtype=complex)), f"expected a {space}-space"
    elif flaw == "shape":
        field, message = ComplexField(space, np.zeros(4, dtype=complex)), "does not match lattice grid"
    else:
        field, message = ComplexField(space, np.zeros((2, 8), dtype=complex)), "does not match lattice grid"
    with pytest.raises(ValueError, match=message):
        call(field, lat, path)
    assert not path.exists()


# Library entry points that would otherwise return a non-finite lattice or
# field, or run until the NaN trips the instability check.
NON_FINITE_INPUTS = {
    "box_length": lambda lat: build_lattice(np.inf, 8, 1.0),
    "mass": lambda lat: build_lattice(8.0, 8, np.inf),
    "k0": lambda lat: gaussian_packet(lat, np.nan, 2.0, 1.0),
    "center": lambda lat: gaussian_packet(lat, 1.0, np.inf, 1.0),
    "amplitude": lambda lat: gaussian_packet(lat, 1.0, 2.0, 1.0, amplitude=np.nan),
    "coupling": lambda lat: leapfrog_interact(
        real_packet(lat, center=2.0), zero_field(lat), lat, np.nan, 0.1, 2
    ),
    "cutoff": lambda lat: build_lattice(8.0, 8, 1.0, np.inf),
    "width": lambda lat: gaussian_packet(lat, 1.0, 2.0, np.inf),
    "leapfrog_b0": lambda lat: leapfrog_interact(
        flawed_field(lat, np.nan), zero_field(lat), lat, 0.0, 0.1, 2
    ),
    "leapfrog_bdot0": lambda lat: leapfrog_interact(
        real_packet(lat, center=2.0), flawed_field(lat, -np.inf), lat, 0.0, 0.1, 2
    ),
    "spectral_run": lambda lat: spectral_run(flawed_field(lat, np.nan), lat, 0.1, 2),
    "evolve_convolution": lambda lat: evolve_convolution(flawed_field(lat, np.inf), lat, 0.1),
    "evolve_convolution_literal": lambda lat: evolve_convolution(
        flawed_field(lat, complex(0.0, np.nan)), lat, 0.1
    ),
    "time_derivative_check": lambda lat: time_derivative_check(flawed_field(lat, np.nan), lat, 0.1),
    "spectral_evolve": lambda lat: spectral_evolve(
        ComplexField("momentum", flawed_field(lat, np.inf).values), lat, 0.1
    ),
    # A finite time whose phase omega * t is not.
    "phase_spectral_evolve": lambda lat: spectral_evolve(to_momentum(zero_field(lat), lat), lat, 1e308),
    "phase_spectral_run": lambda lat: spectral_run(zero_field(lat), lat, 1e308, 1),
    "phase_evolve_convolution": lambda lat: evolve_convolution(zero_field(lat), lat, 1e308),
    "phase_time_derivative_check": lambda lat: time_derivative_check(zero_field(lat), lat, 1e308),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_INPUTS))
def test_entry_points_reject_non_finite_input(name):
    lat = build_lattice(8.0, 8, 1.0)
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_INPUTS[name](lat)


# --- residual diagnostics ---------------------------------------------------------


def test_derivative_defect_shrinks_quadratically_in_dt():
    lat = build_lattice(32.0, 128, 1.0)
    packet = gaussian_packet(lat, 1.0, 8.0, 2.0)
    coarse = time_derivative_check(packet, lat, 1e-2)
    fine = time_derivative_check(packet, lat, 5e-3)
    assert coarse / fine == pytest.approx(4.0, abs=0.05)


def test_derivative_defect_of_the_uniform_mode_is_the_sine_error():
    # Only k=0 survives, so the defect reduces to M - sin(M dt)/dt.
    lat = build_lattice(32.0, 64, 1.0)
    flat = ComplexField("position", np.ones(64, dtype=complex))
    dt = 1e-3
    expected = lat.mass - np.sin(lat.mass * dt) / dt
    assert time_derivative_check(flat, lat, dt) == pytest.approx(expected, rel=1e-6)


def test_field_equation_residual_is_small_for_smooth_data():
    lat = build_lattice(32.0, 64, 1.0)
    run = spectral_run(gaussian_packet(lat, 1.0, 8.0, 3.0), lat, 0.05, 4)
    report = kg_residual(run)
    assert report.max_residual < 0.05
    assert report.l2_residual < report.max_residual
    assert report.dt == pytest.approx(0.05)


def test_field_equation_residual_needs_three_uniform_snapshots():
    lat = build_lattice(32.0, 64, 1.0)
    packet = gaussian_packet(lat, 1.0, 8.0, 3.0)
    short = spectral_run(packet, lat, 0.1, 1)
    with pytest.raises(ValueError):
        kg_residual(short)
    uneven = spectral_run(packet, lat, 0.1, 5, record_every=2)
    with pytest.raises(ValueError):
        kg_residual(uneven)


@pytest.mark.parametrize("max_residual, l2_residual", [(-1e-3, 0.0), (0.0, -1e-3)])
def test_residual_report_refuses_a_negative_residual(max_residual, l2_residual):
    with pytest.raises(ValueError, match="residuals must be nonnegative"):
        ResidualReport((0.5,), 0.1, max_residual, l2_residual)


def test_refinement_halves_the_residual_twice_per_level():
    profile = lambda x: np.exp(-((x - 16.0) ** 2) / 8.0) * np.exp(1j * x)
    report = refinement_study(
        profile, box_length=32.0, base_points=128, base_dt=0.1, mass=1.0, levels=2
    )
    assert len(report.ratios) == 1
    assert report.ratios[0] == pytest.approx(4.0, abs=0.5)


# --- interacting integrator -------------------------------------------------------


def _roll_laplacian(state, spacings):
    """Reference Laplacian by np.roll and fresh arrays, which ``_fd_laplacian`` must match bit for bit."""
    laplacian = np.zeros_like(state)
    for axis, dx in enumerate(spacings):
        laplacian = laplacian + (
            np.roll(state, -1, axis) - 2.0 * state + np.roll(state, 1, axis)
        ) / dx**2
    return laplacian


def _roll_force(state, spacings, mass_sq, coupling):
    """Reference force by np.roll and fresh arrays, which ``_force`` must match bit for bit.

    The cube is ``(state * state) * state``, as ``_force`` forms it.
    """
    return _roll_laplacian(state, spacings) - mass_sq * state - (coupling / 6.0) * ((state * state) * state)


# Signed zeros are drawn often: the stencil's leading add to zero is what turns
# a -0.0 Laplacian into +0.0, as the roll form does.
_ENTRIES = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)
# Powers of two are drawn often: the stencil divides by them as a multiply by
# the exact reciprocal.
_SPACINGS = st.sampled_from([0.25, 0.5, 1.0, 2.0]) | st.floats(0.05, 5.0)


@st.composite
def _force_cases(draw):
    dims = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=dims, max_size=dims)))
    spacings = tuple(draw(st.lists(_SPACINGS, min_size=dims, max_size=dims)))
    state = draw(arrays(np.float64, shape, elements=_ENTRIES))
    return state, spacings, draw(st.floats(0.0, 10.0)), draw(st.floats(-5.0, 5.0))


def _seam_case(shape):
    """A state with distinct entries and a signed zero, on spacings that differ per axis."""
    state = np.linspace(-1.7, 2.3, int(np.prod(shape))).reshape(shape)
    state.flat[0] = -0.0
    spacings = tuple(0.5 + 0.75 * axis for axis in range(len(shape)))
    return state, spacings, 0.8, -2.5


def _signed_zero_wraps(shape, spacings):
    """A state whose first and last planes along axis 0 hold ``-0.0``."""
    state = np.full(shape, -0.0)
    state[1:-1] = np.linspace(-1.5, 2.0, state[1:-1].size).reshape(state[1:-1].shape)
    return state, spacings, 0.8, -2.5


def _buffers(state, count):
    """``count`` work buffers shaped like ``state``, NaN-filled so that a read before a write shows."""
    return [np.full_like(state, np.nan) for _ in range(count)]


def _haloed(state):
    """``state`` as ``ext[1:-1]`` of a C-contiguous buffer whose halo planes are NaN, so that a read before their refresh shows."""
    ext = np.full((state.shape[0] + 2, *state.shape[1:]), np.nan, dtype=state.dtype)
    ext[1:-1] = state
    return ext


@settings(max_examples=25, deadline=None)
@given(_force_cases())
@example((np.array([-0.0, 0.0, -0.0]), (0.5,), 1.0, 0.1))
# The cube dominates these forces, and np.power(1.3, 3.0) != 1.3 * 1.3 * 1.3:
# a reference that cubes a real state the other way fails here.
@example((np.array([1.3, -1.3, 0.0]), (2.0,), 0.0, 6.0))
@example((np.array([[1.3, -1.3, 0.0], [0.0, 1.3, -1.3]]), (4.0, 5.0), 0.0, 6.0))
# Axes of length 1 and 2 first, in the middle and last: there the flat shift
# of one axis runs across every seam of the others, and the wrap plane is
# the whole axis or half of it.
@example(_seam_case((1, 3, 4)))
@example(_seam_case((3, 1, 4)))
@example(_seam_case((3, 4, 1)))
@example(_seam_case((2, 3, 5)))
@example(_seam_case((3, 2, 5)))
@example(_seam_case((3, 5, 2)))
@example(_seam_case((1, 2)))
@example(_seam_case((2, 1)))
# Axis 0 of length 1 and 2, where the halo planes are copies of the one
# state plane or of each other, and states whose wrap planes hold signed
# zeros.  The sums absorb a zero's sign, so the copy's exactness is pinned
# by test_halo_copy_moves_the_wrap_planes_bit_for_bit.
@example((np.array([-0.0]), (0.5,), 1.0, 0.1))
@example((np.array([-0.0, -0.0]), (0.75,), 1.0, 0.1))
@example(_signed_zero_wraps((3, 2), (0.5, 0.75)))
@example(_signed_zero_wraps((2,), (0.75,)))
# Quotients by a power of two that round in the subnormal range or overflow,
# where a multiply by a reciprocal that is not exact would differ.
@example((np.array([5e-324, -1e-310, 3e-308, -0.0, 7e-322]), (2.0,), 0.0, 0.0))
@example((np.array([[1e308, -1.5e308], [4e307, 0.0]]), (0.5, 0.25), 0.0, 0.0))
def test_buffered_force_is_bitwise_the_roll_force(case):
    state, spacings, mass_sq, coupling = case
    out, *work = _buffers(state, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        _force(_haloed(state), spacings, mass_sq, coupling, out, *work)()
        expected = _roll_force(state, spacings, mass_sq, coupling)
    assert out.dtype == expected.dtype
    assert out.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()


def test_complex_residual_is_the_roll_laplacian_of_each_part_bit_for_bit():
    # Three equal snapshots, so the time difference is 0 and the residual is
    # the Laplacian less the mass term.  Spacing 0.75 is no power of two, so
    # the stencil divides; a complex divide there is not the real one of
    # each part, which the leapfrog's stencil forms.
    lattice = build_lattice([9.0, 4.5], [12, 6], 1.3)
    differ = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
        snapshots = tuple(ComplexField("position", b.copy(), time=0.1 * j) for j in range(3))
        report = kg_residual(EvolutionRun(lattice=lattice, steps=2, snapshots=snapshots))
        laplacian = np.empty_like(b)
        laplacian.real, laplacian.imag = (_roll_laplacian(part, lattice.spacings) for part in (b.real, b.imag))
        residual = laplacian - (b - 2.0 * b + b) / report.dt**2 - lattice.mass**2 * b
        expected = (float(np.max(np.abs(residual))), float(np.sqrt(np.sum(np.abs(residual) ** 2) / residual.size)))
        if (report.max_residual, report.l2_residual) != expected:
            differ.append(seed)
    assert lattice.spacings == (0.75, 0.75) and differ == []


@pytest.mark.parametrize("layout", ["transposed", "sliced"])
def test_stencils_reject_or_copy_a_non_contiguous_state(layout):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((4, 6, 8))
    view = values.transpose(1, 0, 2) if layout == "transposed" else values[:, :, ::2]
    assert not view.flags.c_contiguous
    state = np.ascontiguousarray(view)
    out, scratch, plane = _buffers(state, 3)
    with pytest.raises(ValueError, match="C-contiguous"):
        _force(view, (0.5, 0.7, 0.9), 1.0, 2.0, out, scratch, plane)
    # The scratch buffer is read through its flat view as well.
    with pytest.raises(ValueError, match="C-contiguous"):
        _force(_haloed(state), (0.5, 0.7, 0.9), 1.0, 2.0, out, np.asfortranarray(scratch), plane)

    # kg_residual binds the stencil to a contiguous copy of each snapshot.
    lattice = build_lattice([3.0, 4.0, 5.0], state.shape, 1.0)

    def residual(snapshot_values):
        snapshots = tuple(
            ComplexField("position", values, time=0.1 * j) for j, values in enumerate(snapshot_values)
        )
        return kg_residual(EvolutionRun(lattice=lattice, steps=2, snapshots=snapshots))

    fields = [(1.0 + 0.5j) * view, (1.0 - 0.25j) * np.ones_like(view) + view**2, view**3]
    views = [field.transpose(1, 0, 2).copy().transpose(1, 0, 2) for field in fields]
    assert not any(field.flags.c_contiguous for field in views)
    assert residual(views) == residual([np.ascontiguousarray(field) for field in views])


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.int64])
@pytest.mark.parametrize("shape", [(1,), (2,), (5,), (1, 3), (2, 3, 2), (4, 1, 3)])
def test_halo_copy_moves_the_wrap_planes_bit_for_bit(shape, dtype):
    # Raw 64-bit patterns: signed zeros, NaN payloads, infinities and
    # subnormals among them.  The stencils' sums absorb the sign of a zero,
    # so only this test sees a copy that is not exact.
    words = np.random.default_rng(sum(shape)).integers(0, 2**64, size=4 * math.prod(shape), dtype=np.uint64)
    words[:4] = [1 << 63, 0x7FF8000000000001, 0xFFF0000000000000, 1]
    ext = np.empty((shape[0] + 2, *shape[1:]), dtype=dtype)
    ext.view(np.uint8).fill(0xFF)  # a NaN or -1 in the halo planes until the copy
    ext[1:-1] = words.view(dtype)[: math.prod(shape)].reshape(shape)
    _run([_halo_copy(ext)])
    assert ext[0].tobytes() == ext[-2].tobytes() and ext[-1].tobytes() == ext[1].tobytes()


@pytest.mark.parametrize("layout", [
    [((1,), np.float64)],
    [((66,), np.complex128), ((3,), np.uint8), ((3, 2, 5), np.int64), ((1,), np.float64)],
    [((34, 32, 32), np.float64), *[((32, 32, 32), np.float64)] * 5],
    [((7, 3), np.float64), ((1, 1), np.complex128), ((5,), np.bool_)],
])
def test_stencil_buffers_start_on_a_64_byte_boundary(layout):
    for _ in range(8):  # successive allocations land at different offsets
        arrays = _workspace(*layout)
        assert len(arrays) == len(layout)
        for array, (shape, dtype) in zip(arrays, layout):
            assert array.ctypes.data % 64 == 0 and array.flags.c_contiguous and array.flags.writeable
            assert array.shape == shape and array.dtype == dtype
        spans = sorted((a.ctypes.data, a.ctypes.data + a.nbytes) for a in arrays)
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
    lat = build_lattice(32.0, 64, 1.0)
    run = leapfrog_interact(real_packet(lat), zero_field(lat), lat, 0.1, 0.2, 2)
    assert run.velocity.ctypes.data % 64 == 0


def test_a_returned_velocity_keeps_only_its_own_field_alive():
    # The leapfrog's six work fields share one allocation; the velocity's
    # holds its field and the padding that aligns it.
    lat = build_lattice(32.0, 64, 1.0)
    velocity = leapfrog_interact(real_packet(lat), zero_field(lat), lat, 0.1, 0.2, 2).velocity
    owner = velocity
    while owner.base is not None:
        owner = owner.base
    assert velocity.nbytes <= owner.nbytes < 2 * velocity.nbytes


def test_force_reads_axis_0_through_the_halo_without_seam_calls():
    # Axis 0 is the halo copy and five calls, and the mass and cubic terms
    # six more; each inner axis keeps its nine calls with the seam rewrites.
    # A stencil that brings back axis 0's seam calls fails the count.
    for shape, calls in (((64,), 12), ((4, 6, 8), 30)):
        state = np.zeros(shape)
        force = _force(_haloed(state), (0.5,) * len(shape), 1.0, 0.1, *_buffers(state, 3))
        assert len(force.args[0]) == calls


def _roll_energy(state, vel, acc, spacings, mass_sq, coupling, dt, cell_volume):
    """Reference energy by np.roll and fresh arrays, which ``_energy`` must match bit for bit."""
    gradient_sq = np.zeros_like(state)
    for axis, dx in enumerate(spacings):
        gradient_sq = gradient_sq + ((np.roll(state, -1, axis) - state) / dx) ** 2
    density = (
        0.5 * vel**2
        - 0.125 * dt**2 * acc**2
        + 0.5 * gradient_sq
        + 0.5 * mass_sq * state**2
        + (coupling / 24.0) * np.square(np.square(state))
    )
    return float(np.sum(density) * cell_volume)


@st.composite
def _energy_cases(draw):
    dims = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=dims, max_size=dims)))
    spacings = tuple(draw(st.lists(_SPACINGS, min_size=dims, max_size=dims)))
    state, vel, acc = (draw(arrays(np.float64, shape, elements=_ENTRIES)) for _ in range(3))
    constants = (draw(st.floats(0.0, 10.0)), draw(st.floats(-5.0, 5.0)), draw(st.floats(0.01, 1.0)))
    return state, vel, acc, spacings, *constants


@settings(max_examples=25, deadline=None)
@given(_energy_cases())
@example((np.array([-0.0, 0.0]), np.array([0.0, -0.0]), np.array([-0.0, -0.0]), (0.5,), 1.0, 0.1, 0.2))
# Axis 0 of length 1 and 2 holding signed zeros, read through the halo planes.
@example((np.array([-0.0]), np.array([-0.0]), np.array([-0.0]), (0.5,), 1.0, 0.1, 0.2))
@example((np.array([-0.0, -0.0]), np.array([0.0, -0.0]), np.array([-0.0, 0.0]), (0.75,), 1.0, 0.1, 0.2))
@example((*(np.linspace(-3.0, 4.0, 24).reshape(3, 1, 8) * f for f in (1.0, -0.5, 2.0)), (0.3, 0.6, 0.9), 0.7, 1.5, 0.25))
@example((*(np.linspace(-3.0, 4.0, 24).reshape(4, 3, 2) * f for f in (1.0, -0.5, 2.0)), (0.3, 0.6, 0.9), 0.7, 1.5, 0.25))
def test_buffered_energy_is_bitwise_the_roll_energy(case):
    state, vel, acc, spacings, mass_sq, coupling, dt = case
    cell_volume = float(np.prod(spacings))
    energy = _energy(_haloed(state), vel, acc, spacings, mass_sq, coupling, dt, cell_volume, *_buffers(state, 3))
    expected = _roll_energy(state, vel, acc, spacings, mass_sq, coupling, dt, cell_volume)
    assert energy().hex() == expected.hex()


_FORCE_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from ontofield.dynamics import _energy, _force, _with_halo
rng = np.random.default_rng(13)
state, out, *work = _with_halo((32, 32, 32), 4)
state[1:-1] = 2.0 * rng.standard_normal((32, 32, 32))
vel = rng.standard_normal((32, 32, 32))
_force(state, (0.5, 0.5, 0.5), 1.0, 3.0, out, *work[:2])()
print(hashlib.sha256(out.tobytes()).hexdigest())
print(_energy(state, vel, out, (0.5, 0.5, 0.5), 1.0, 3.0, 0.1, 0.125, *work)().hex())
"""


def _force_digest(env):
    return run_script(_FORCE_DIGEST_SCRIPT, env=env).strip()


def test_real_force_bytes_do_not_depend_on_the_simd_dispatch():
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    # Turning off a feature this CPU lacks would change nothing.
    features = getattr(umath, "__cpu_features__", {})
    dispatch = [name for name in getattr(umath, "__cpu_dispatch__", []) if features.get(name)]
    if not dispatch:
        pytest.skip("this numpy build and CPU have no SIMD dispatch level to turn off")
    baseline = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(dispatch)}
    assert _force_digest(baseline) == _force_digest(dict(os.environ))


def test_stability_bound_matches_the_spectral_radius():
    lat = build_lattice(32.0, 64, 1.0)
    dx = lat.spacings[0]
    expected = 2.0 / np.sqrt(4.0 / dx**2 + lat.mass**2)
    assert stability_bound(lat) == pytest.approx(expected, rel=1e-14)


def test_leapfrog_rejects_steps_at_or_beyond_the_bound():
    lat = build_lattice(32.0, 64, 1.0)
    with pytest.raises(ValueError):
        leapfrog_interact(real_packet(lat), zero_field(lat), lat, 0.0, stability_bound(lat), 2)


def test_stability_errors_print_the_bound_as_a_plain_float():
    lat = build_lattice(32.0, 64, 1.0)
    bound = stability_bound(lat)
    with pytest.raises(ValueError) as info:
        leapfrog_interact(real_packet(lat), zero_field(lat), lat, 0.0, 0.6, 2)
    message = str(info.value)
    assert "np.float64" not in message
    assert repr(bound) in message


def test_leapfrog_free_run_conserves_energy_to_roundoff():
    lat = build_lattice(32.0, 64, 1.0)
    run = leapfrog_interact(
        real_packet(lat), zero_field(lat), lat, 0.0, 0.2, 400, record_every=40
    )
    drift = np.max(np.abs(run.energy - run.energy[0])) / abs(run.energy[0])
    assert drift < 1e-12
    assert len(run.energy) == len(run.snapshots)


def test_interacting_energy_drift_falls_fourfold_per_halving_of_dt():
    # The recorded energy's quadratic part is an exact leapfrog invariant, so
    # its drift is the quartic term's O(dt^2) error.  Measured ratios: 3.90,
    # 4.02 and 4.00; an energy whose quartic term is coupling/20 b^4 instead
    # of coupling/24 b^4 stalls at 0.86, 0.96 and 0.99.
    lat = build_lattice(32.0, 64, 1.0)
    b0 = ComplexField("position", 0.5 * real_packet(lat).values)
    dt = stability_bound(lat) / 2
    drifts = []
    for level in range(4):
        run = leapfrog_interact(b0, zero_field(lat), lat, 0.1, dt / 2**level, 200 * 2**level)
        drifts.append(np.max(np.abs(run.energy - run.energy[0])) / abs(run.energy[0]))
    ratios = [coarse / fine for coarse, fine in zip(drifts, drifts[1:])]
    assert all(3.5 <= ratio <= 4.5 for ratio in ratios), ratios


def test_leapfrog_converges_to_the_discrete_free_solution():
    # Reference: the exact propagator of the same spatial discretization,
    # so the measured error is purely the O(dt^2) time-stepping error.
    lat = build_lattice(32.0, 64, 1.0)
    b0 = real_packet(lat)
    omega_fd = stencil_frequency(lat)
    horizon = 2.0
    exact = np.fft.ifft(np.cos(omega_fd * horizon) * np.fft.fft(b0.values.real)).real
    errors = []
    for steps in (100, 200):
        run = leapfrog_interact(
            b0, zero_field(lat), lat, 0.0, horizon / steps, steps, record_every=steps
        )
        errors.append(float(np.max(np.abs(run.final.values.real - exact))))
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.5)


@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
@pytest.mark.parametrize(
    "lengths, points, mass",
    [([32.0], [64], 1.0), ([8.0, 6.0], [16, 12], 0.7), ([6.0, 5.0, 4.0], [12, 10, 8], 1.3)],
)
def test_free_leapfrog_is_its_chebyshev_solution_to_roundoff(lengths, points, mass, fraction):
    # The exact solution of the discrete recurrence, not an O(dt^2) limit:
    # every record matches it to c * n * eps * scale, the roundoff of n
    # steps.  Over these lattices and dt fractions, with seeds 0-5 and every
    # step from 1 to 300, c read at most 2.98 (3D at 0.9 of the bound).
    lat = build_lattice(lengths, points, mass)
    dt = fraction * stability_bound(lat)
    rng = np.random.default_rng(7)
    b0, v0 = rng.standard_normal(lat.grid_points), rng.standard_normal(lat.grid_points)
    run = leapfrog_interact(ComplexField("position", b0), ComplexField("position", v0), lat, 0.0, dt, 200)
    eps = np.finfo(float).eps
    for n, snap in enumerate(run.snapshots[1:], start=1):
        exact = chebyshev_free_record(b0, v0, lat, dt, n)
        assert np.max(np.abs(snap.values - exact)) <= 6.0 * n * eps * np.max(np.abs(exact)), n


def test_quartic_force_response_is_linear_in_the_coupling():
    lat = build_lattice(32.0, 64, 1.0)
    b0 = real_packet(lat)
    free = leapfrog_interact(b0, zero_field(lat), lat, 0.0, 0.1, 200, record_every=200)
    couplings = np.array([1e-3, 2e-3, 4e-3])
    shifts = [
        float(
            np.linalg.norm(
                leapfrog_interact(b0, zero_field(lat), lat, lam, 0.1, 200, record_every=200)
                .final.values
                - free.final.values
            )
        )
        for lam in couplings
    ]
    slope = np.polyfit(np.log(couplings), np.log(shifts), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_leapfrog_is_time_reversible():
    lat = build_lattice(32.0, 64, 1.0)
    b0 = real_packet(lat)
    fwd = leapfrog_interact(b0, zero_field(lat), lat, 0.1, 0.2, 200, record_every=200)
    flipped = ComplexField("position", -fwd.velocity.astype(complex), time=0.0)
    restart = ComplexField("position", fwd.final.values, time=0.0)
    back = leapfrog_interact(restart, flipped, lat, 0.1, 0.2, 200, record_every=200)
    assert np.max(np.abs(back.final.values - b0.values)) < 1e-12


def test_leapfrog_keeps_the_last_velocity():
    lat = build_lattice(32.0, 64, 1.0)
    run = leapfrog_interact(real_packet(lat), zero_field(lat), lat, 0.1, 0.2, 20, record_every=5)
    assert run.velocity.dtype == float and run.velocity.shape == lat.grid_points
    assert np.any(run.velocity != 0.0)
    assert spectral_run(real_packet(lat), lat, 0.2, 2).velocity is None


def test_leapfrog_records_float_fields():
    # A record is a float64 copy of the field, 8 bytes a site.
    lat = build_lattice(32.0, 64, 1.0)
    run = leapfrog_interact(real_packet(lat), zero_field(lat), lat, 0.1, 0.2, 20, record_every=5)
    assert [snap.values.dtype for snap in run.snapshots] == [np.float64] * 5
    assert not any(np.shares_memory(a.values, b.values) for a, b in zip(run.snapshots, run.snapshots[1:]))


def _roll_leapfrog(b, v, lattice, coupling, dt, steps, record_every):
    """Reference run by np.roll and fresh arrays: ``(snapshots, last velocity, energies)``.

    Each step is ``leapfrog_interact``'s kick-drift-kick in its order:
    ``v + (dt/2) acc``, ``b + dt v``, ``acc`` of the new ``b``, ``v + (dt/2)
    acc``.  The energy is recorded with each snapshot.
    """
    spacings, mass_sq = lattice.spacings, lattice.mass**2
    half_dt, full_dt = (np.array(c, dtype=b.dtype) for c in (0.5 * dt, dt))
    acc = _roll_force(b, spacings, mass_sq, coupling)

    def energy():
        return _roll_energy(b, v, acc, spacings, mass_sq, coupling, dt, lattice.cell_volume)

    snapshots, energies = [b], [energy()]
    for n in range(1, steps + 1):
        v = v + half_dt * acc
        b = b + full_dt * v
        acc = _roll_force(b, spacings, mass_sq, coupling)
        v = v + half_dt * acc
        if n % record_every == 0 or n == steps:
            snapshots.append(b)
            energies.append(energy())
    return snapshots, v, energies


@pytest.mark.parametrize(
    "lengths, points",
    [
        (1.5, 2),
        ([2.0, 3.0], [2, 4]),
        # 0.75**2 is not a power of two, so the stencil divides.
        ([3.0, 1.5, 4.5], [4, 2, 6]),
    ],
    ids=["real-1d-2-sites", "real-2d-axis-0-of-2", "real-3d-divide"],
)
def test_leapfrog_run_is_bitwise_the_roll_form_run(lengths, points):
    lattice = build_lattice(lengths, points, 1.0)
    rng = np.random.default_rng(29)
    b0, v0 = (rng.standard_normal(lattice.grid_points) for _ in range(2))
    b0[(0,) * lattice.dims] = -0.0
    run = leapfrog_interact(
        ComplexField("position", b0.astype(complex)), ComplexField("position", v0.astype(complex)), lattice, 0.3, 0.1, 60,
        record_every=7,
    )
    snapshots, velocity, energies = _roll_leapfrog(b0, v0, lattice, 0.3, 0.1, 60, 7)
    assert len(run.snapshots) == len(snapshots) == 10
    assert [snap.values.tobytes() for snap in run.snapshots] == [b.tobytes() for b in snapshots]
    assert run.velocity.tobytes() == velocity.tobytes()
    assert [e.hex() for e in run.energy] == [e.hex() for e in energies]


def _periodic_l1(shape, site):
    """Periodic L1 distance of every site of a grid of ``shape`` from ``site``."""
    distance = np.zeros(shape, dtype=int)
    for axis, (n, s) in enumerate(zip(shape, site)):
        offset = np.abs(np.arange(n) - s)
        distance = distance + np.minimum(offset, n - offset).reshape([n if a == axis else 1 for a in range(len(shape))])
    return distance


@st.composite
def _cone_cases(draw):
    # The cubic term can push a run past the linear bound that dt is drawn
    # under, and the instability monitor then stops it: on 4 sites, box 8,
    # M = 0.5, lambda = 1 and dt = 0.9 x bound, from b = 0 and v = 2, the
    # energy reads -5377 at step 2.  Spacings of at least 1.5 and masses from 1 to 1.5 keep
    # every frequency squared between 1 and 8, and fields of at most 0.5
    # keep the cube a small part of the force.
    dims = draw(st.integers(1, 3))
    points = draw(st.lists(st.sampled_from([2, 4, 6, 8, 10]), min_size=dims, max_size=dims))
    spacings = draw(st.lists(st.sampled_from([1.5, 2.0]) | st.floats(1.5, 2.0), min_size=dims, max_size=dims))
    lattice = build_lattice([n * dx for n, dx in zip(points, spacings)], points, draw(st.floats(1.0, 1.5)))
    b0, v0 = (draw(arrays(np.float64, points, elements=st.floats(-0.5, 0.5))) for _ in range(2))
    site = tuple(draw(st.integers(0, n - 1)) for n in points)
    delta = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.25, 0.5))
    coupling = draw(st.floats(0.1, 1.0))
    dt = draw(st.floats(0.3, 0.9)) * stability_bound(lattice)
    # Up to the farthest periodic distance, so that the cone's edge exists.
    steps = draw(st.integers(1, min(6, sum(n // 2 for n in points))))
    return lattice, b0, v0, site, delta, coupling, dt, steps


@settings(max_examples=25, deadline=None)
@given(_cone_cases())
# Unit deltas at rest on a zero field, with dt/dx = 1/2 and 1/4: the edge of
# the cone holds (dt/dx)^(2n)/2 bit for bit after n steps, whatever M and
# lambda.
@example((build_lattice(16.0, 32, 1.0), np.zeros(32), np.zeros(32), (5,), 1.0, 0.7, 0.25, 8))
@example((build_lattice(16.0, 32, 0.3), np.zeros(32), np.zeros(32), (30,), 1.0, 0.1, 0.125, 6))
def test_a_one_site_change_stays_inside_the_leapfrog_light_cone(case):
    # Each step reads nearest neighbours only, so a change of b at one site
    # reaches periodic L1 distance n after n steps and no farther: outside
    # that distance every record is equal bit for bit, at any coupling.
    lattice, b0, v0, site, delta, coupling, dt, steps = case
    changed = b0.copy()
    changed[site] += delta

    def records(b):
        run = leapfrog_interact(
            ComplexField("position", b.astype(complex)), ComplexField("position", v0.astype(complex)), lattice,
            coupling, dt, steps,
        )
        return [snap.values for snap in run.snapshots]

    distance = _periodic_l1(lattice.grid_points, site)
    # In 1D, from a delta at rest on a zero field, the edge holds
    # delta (dt/dx)^(2n)/2 from the first step until its two sides meet:
    # exactly when dt/dx and delta are powers of two, to roundoff otherwise.
    delta_at_rest = lattice.dims == 1 and not b0.any() and not v0.any()
    exact = math.frexp(dt / lattice.spacings[0])[0] == 0.5 and math.frexp(delta)[0] == 0.5
    for n, (base, moved) in enumerate(zip(records(b0), records(changed), strict=True)):
        differs = base.view(np.uint64) != moved.view(np.uint64)
        assert not np.any(differs[distance > n]), n
        assert distance[differs].max() == n
        if delta_at_rest and 0 < 2 * n < lattice.grid_points[0]:
            edge = delta * (dt / lattice.spacings[0]) ** (2 * n) / 2.0
            if exact:
                assert np.all(moved[distance == n] == edge), n
            else:
                assert moved[distance == n] == pytest.approx(edge, rel=1e-13), n


def test_schedule_keeps_the_multiples_of_record_every_and_the_last_step():
    # The rule the schedule's range replaced, over counts below, at and above record_every.
    for steps in range(1, 41):
        for record_every in range(1, 45):
            expected = [n for n in range(1, steps + 1) if n % record_every == 0 or n == steps]
            assert _schedule(0.1, steps, record_every) == expected


# A small run warms the process, so one-time imports and tables are not counted.
_RECORD_PEAK_SCRIPT = """
import sys
import numpy as np
from ontofield.dynamics import leapfrog_interact
from ontofield.lattice import ComplexField, build_lattice

def inputs(points):
    lattice = build_lattice([32.0] * 3, [points] * 3, 1.0)
    noise = np.random.default_rng(5).standard_normal(lattice.grid_points)
    return ComplexField("position", 0.05 * noise + 0j), ComplexField("position", 0j * noise), lattice

b0, bdot0, lattice = inputs(32)

def warm():
    leapfrog_interact(*inputs(8), 0.1, 0.2, 2)

def run():
    leapfrog_interact(b0, bdot0, lattice, 0.1, 0.2, 200, record_every=int(sys.argv[1]))
"""


def test_a_sink_receives_the_records_a_run_collects_bit_for_bit():
    # 7 steps recorded every 3rd: records at steps 0, 3, 6 and 7.
    def both_routes(run, *args, **kwargs):
        received = []
        return run(*args, **kwargs), run(*args, **kwargs, sink=received.append), received

    plane = build_lattice([8.0, 6.0], [16, 12], 1.0)
    packet = gaussian_packet(plane, [1.0, 0.5], [3.0, 2.0], 1.5)
    assert np.iscomplexobj(packet.values)
    spectral = both_routes(spectral_run, packet, plane, 0.3, 7, 3)
    box = build_lattice([6.0, 5.0, 4.0], [12, 10, 8], 1.0)
    rng = np.random.default_rng(9)
    b0, v0 = (ComplexField("position", 0.5 * rng.standard_normal(box.grid_points)) for _ in range(2))
    leapfrog = both_routes(leapfrog_interact, b0, v0, box, 0.1, 0.1, 7, record_every=3)
    for collected, sunk, received in (spectral, leapfrog):
        assert sunk.snapshots == ()
        assert [snap.time for snap in received] == list(collected.times)
        assert len(received) == 4
        for kept, sent in zip(collected.snapshots, received):
            assert sent.values.dtype == kept.values.dtype
            assert sent.values.tobytes() == kept.values.tobytes()
        assert (sunk.lattice, sunk.steps) == (collected.lattice, collected.steps)
    collected, sunk, _ = leapfrog
    assert sunk.energy.tobytes() == collected.energy.tobytes()
    assert sunk.velocity.tobytes() == collected.velocity.tobytes()
    assert spectral[1].energy is spectral[1].velocity is None


def _record_peak(record_every: int) -> int:
    return peak_bytes(_RECORD_PEAK_SCRIPT, record_every)


def test_each_leapfrog_record_holds_one_snapshot_and_no_velocity():
    # 200 steps on 32^3 sites, recorded at 3 and at 21 steps (step 0 included).
    per_record = (_record_peak(10) - _record_peak(100)) / (18 * 32**3)
    # A record's float snapshot takes 8 bytes per site; a complex one took 16
    # (measured 16.1 to 16.4), and a copy of the velocity with each record 8 more.
    assert per_record < 12.0


def test_runaway_coupling_aborts_with_context():
    lat = build_lattice(32.0, 64, 1.0)
    big = gaussian_packet(lat, 0.0, 8.0, 3.0, amplitude=5.0)
    b0 = ComplexField("position", big.values.real.astype(complex))
    with pytest.raises(InstabilityError) as info:
        leapfrog_interact(b0, zero_field(lat), lat, -1.0, 0.2, 500)
    err = info.value
    assert err.step > 0
    assert not np.isfinite(err.energy) or abs(err.energy) > 10 * abs(err.initial_energy)
    assert "energy" in str(err)


def test_overflow_between_records_aborts_with_a_nan_energy():
    # The only record is the last step, and the field overflows well before
    # it: the finiteness check names the step with a NaN energy.
    lat = build_lattice(16.0, 16, 1.0)
    b0 = gaussian_packet(lat, 0.0, 8.0, 2.0, amplitude=10.0)
    with pytest.raises(InstabilityError) as info:
        leapfrog_interact(b0, zero_field(lat), lat, -1000.0, 0.1, 200, record_every=200)
    err = info.value
    assert err.step == 200 and np.isnan(err.energy) and np.isfinite(err.initial_energy)


def test_leapfrog_rejects_complex_initial_data():
    lat = build_lattice(32.0, 64, 1.0)
    with pytest.raises(ValueError, match="requires real initial data"):
        leapfrog_interact(gaussian_packet(lat, 1.0, 8.0, 3.0), zero_field(lat), lat, 0.0, 0.1, 2)


def test_leapfrog_rejects_a_complex_initial_velocity():
    lat = build_lattice(32.0, 64, 1.0)
    with pytest.raises(ValueError, match="requires real initial data"):
        leapfrog_interact(real_packet(lat), gaussian_packet(lat, 1.0, 8.0, 3.0), lat, 0.0, 0.1, 2)


def test_free_run_of_a_uniform_velocity_keeps_its_energy_to_the_end():
    # b = 0 and v = 1 on 8 sites, box 8, M = 0.25, dt = 0.74 (bound 0.99):
    # the zero mode's amplitude grows to v/M = 4, a swing that stopped the
    # deleted complex mode's norm monitor at step 5.  The energy monitor
    # reads the invariant, so the run goes to its last step.
    lat = build_lattice(8.0, 8, 0.25)
    run = leapfrog_interact(
        zero_field(lat), ComplexField("position", np.ones(8, complex)), lat, 0.0, 0.74, 40, record_every=5
    )
    assert run.steps == 40 and len(run.snapshots) == 9
    assert np.max(np.abs(run.snapshots[-1].values)) > 3.0
    assert np.max(np.abs(run.energy - run.energy[0])) <= 1e-12 * run.energy[0]


# --- front tracking ---------------------------------------------------------------


def test_front_speed_matches_the_group_velocity():
    lat = build_lattice(128.0, 512, 1.0)
    packet = gaussian_packet(lat, 1.0, 32.0, 8.0)
    run = spectral_run(packet, lat, 2.0, 15)
    measured = wavefront_measure(run, 1.0)
    assert measured.trackable
    assert measured.expected_speed == pytest.approx(1.0 / np.sqrt(2.0))
    assert abs(measured.speed - measured.expected_speed) / measured.expected_speed < 0.02


def test_stationary_packet_does_not_drift():
    lat = build_lattice(64.0, 256, 1.0)
    packet = gaussian_packet(lat, 0.0, 16.0, 4.0)
    run = spectral_run(packet, lat, 1.0, 10)
    measured = wavefront_measure(run, 0.0)
    assert measured.max_displacement < 1e-8


def test_front_tracking_requires_usable_intensity():
    lat = build_lattice(64.0, 256, 1.0)
    flat = ComplexField("position", np.zeros(256, dtype=complex))
    run = spectral_run(flat, lat, 1.0, 3)
    with pytest.raises(FrontTrackingError):
        wavefront_measure(run, 1.0)


def test_front_tracking_refuses_an_intensity_whose_mean_underflows():
    # One site of subnormal intensity passes the peak test, but the mean of the profile underflows to 0.
    lat = build_lattice(16.0, 16, 1.0)
    values = np.zeros(16, dtype=complex)
    values[5] = 3e-162
    snapshots = tuple(ComplexField("position", values, time=t) for t in (0.0, 1.0))
    with pytest.raises(FrontTrackingError, match="intensity vanished"):
        wavefront_measure(EvolutionRun(lat, 1, snapshots), 1.0)


def test_front_tracking_needs_two_snapshots():
    lat = build_lattice(32.0, 64, 1.0)
    run = EvolutionRun(lat, 0, (gaussian_packet(lat, 1.0, 8.0, 3.0),))
    with pytest.raises(ValueError, match="need at least 2 snapshots"):
        wavefront_measure(run, 1.0)


def test_front_tracking_is_one_dimensional_only():
    lat = build_lattice([16.0, 16.0], [32, 32], 1.0)
    packet = gaussian_packet(lat, [1.0, 0.0], [4.0, 4.0], 2.0)
    run = spectral_run(packet, lat, 0.5, 3)
    with pytest.raises(ValueError):
        wavefront_measure(run, 1.0)
