"""Tests for packet evolution, the residual checks, and the leapfrog integrator."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ontofield
from ontofield.dynamics import (
    EvolutionRun,
    FrontTrackingError,
    InstabilityError,
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
)
from ontofield.lattice import (
    ComplexField,
    build_lattice,
    position_axes,
    save_field,
    spectral_evolve,
    to_momentum,
)


def real_packet(lattice, k0=1.0, center=8.0, width=3.0):
    packet = gaussian_packet(lattice, k0, center, width)
    return ComplexField("position", packet.values.real.astype(complex), time=packet.time)


def zero_field(lattice):
    return ComplexField("position", np.zeros(lattice.grid_points, dtype=complex))


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


def test_convolution_transform_path_matches_spectral_evolution():
    lat = build_lattice(16.0, 32, 1.0)
    packet = gaussian_packet(lat, 1.0, 4.0, 2.0)
    run = spectral_run(packet, lat, 0.7, 1)
    conv = evolve_convolution(packet, lat, 0.7)
    assert np.max(np.abs(conv.values - run.final.values)) < 1e-13


def test_literal_convolution_matches_the_transform_path():
    # Same kernel applied as an explicit sum over lattice shifts.
    lat = build_lattice(16.0, 32, 1.0)
    packet = gaussian_packet(lat, 1.0, 4.0, 2.0)
    fast = evolve_convolution(packet, lat, 0.9, path="transform")
    slow = evolve_convolution(packet, lat, 0.9, path="literal")
    assert np.max(np.abs(fast.values - slow.values)) < 1e-12


def test_literal_convolution_matches_in_two_dimensions():
    lat = build_lattice([8.0, 8.0], [8, 8], 1.0)
    packet = gaussian_packet(lat, [1.0, 0.0], [2.0, 4.0], 1.5)
    fast = evolve_convolution(packet, lat, 0.5, path="transform")
    slow = evolve_convolution(packet, lat, 0.5, path="literal")
    assert np.max(np.abs(fast.values - slow.values)) < 1e-12


def test_convolution_is_free_theory_only():
    lat = build_lattice(16.0, 32, 1.0)
    packet = gaussian_packet(lat, 1.0, 4.0, 2.0)
    with pytest.raises(ValueError):
        evolve_convolution(packet, lat, 1.0, path="magic")


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
}


@pytest.mark.parametrize("flaw", ["space", "shape"])
@pytest.mark.parametrize("entry", sorted(FIELD_ENTRY_POINTS))
def test_field_entry_points_reject_the_wrong_space_and_shape(tmp_path, entry, flaw):
    space, call = FIELD_ENTRY_POINTS[entry]
    lat = build_lattice(8.0, 8, 1.0)
    if flaw == "space":
        other = "momentum" if space == "position" else "position"
        field, message = ComplexField(other, np.zeros(8, dtype=complex)), f"expected a {space}-space"
    else:
        field, message = ComplexField(space, np.zeros(4, dtype=complex)), "does not match lattice grid"
    path = tmp_path / "field.csv"
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
        flawed_field(lat, complex(0.0, np.nan)), lat, 0.1, path="literal"
    ),
    "time_derivative_check": lambda lat: time_derivative_check(flawed_field(lat, np.nan), lat, 0.1),
    "spectral_evolve": lambda lat: spectral_evolve(
        ComplexField("momentum", flawed_field(lat, np.inf).values), lat, 0.1
    ),
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


def test_refinement_halves_the_residual_twice_per_level():
    profile = lambda x: np.exp(-((x - 16.0) ** 2) / 8.0) * np.exp(1j * x)
    report = refinement_study(
        profile, box_length=32.0, base_points=128, base_dt=0.1, mass=1.0, levels=2
    )
    assert len(report.ratios) == 1
    assert report.ratios[0] == pytest.approx(4.0, abs=0.5)


# --- interacting integrator -------------------------------------------------------


def _roll_force(state, spacings, mass_sq, coupling):
    """Reference force by np.roll and fresh arrays, which ``_force`` must match bit for bit.

    The cube of a real state is ``(state * state) * state``, of a complex one
    ``state**3``, as ``_force`` forms them.
    """
    laplacian = np.zeros_like(state)
    for axis, dx in enumerate(spacings):
        laplacian = laplacian + (
            np.roll(state, -1, axis) - 2.0 * state + np.roll(state, 1, axis)
        ) / dx**2
    cube = (state * state) * state if state.dtype == np.float64 else state**3
    return laplacian - mass_sq * state - (coupling / 6.0) * cube


# Signed zeros are drawn often: the stencil's leading add to zero is what turns
# a -0.0 Laplacian into +0.0, as the roll form does.
_ENTRIES = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)
# Powers of two are drawn often: a real field divides by them as a multiply by
# the exact reciprocal.
_SPACINGS = st.sampled_from([0.25, 0.5, 1.0, 2.0]) | st.floats(0.05, 5.0)


@st.composite
def _force_cases(draw):
    dims = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=dims, max_size=dims)))
    spacings = tuple(draw(st.lists(_SPACINGS, min_size=dims, max_size=dims)))
    pairs = draw(arrays(np.float64, (*shape, 2), elements=_ENTRIES))
    state = pairs[..., 0].copy() if draw(st.booleans()) else pairs.view(complex)[..., 0]
    return state, spacings, draw(st.floats(0.0, 10.0)), draw(st.floats(-5.0, 5.0))


def _seam_case(shape, dtype=float):
    """A state with distinct entries and a signed zero, on spacings that differ per axis."""
    values = np.linspace(-1.7, 2.3, int(np.prod(shape))).reshape(shape)
    values.flat[0] = -0.0
    state = values.astype(dtype) * (1.0 - 0.5j if dtype is complex else 1.0)
    spacings = tuple(0.5 + 0.75 * axis for axis in range(len(shape)))
    return state, spacings, 0.8, -2.5


def _buffers(state, count):
    """``count`` work buffers shaped like ``state``, NaN-filled so that a read before a write shows."""
    return [np.full_like(state, np.nan) for _ in range(count)]


@settings(max_examples=25, deadline=None)
@given(_force_cases())
@example((np.array([-0.0, 0.0, -0.0]), (0.5,), 1.0, 0.1))
@example((np.array([[-0.0j, 1.0 - 0.0j], [0.0, -0.0]]), (0.5, 2.0), 0.0, -0.3))
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
@example(_seam_case((3, 2, 5), complex))
@example(_seam_case((3, 5, 2)))
@example(_seam_case((1, 2), complex))
@example(_seam_case((2, 1)))
# Quotients by a power of two that round in the subnormal range or overflow,
# where a multiply by a reciprocal that is not exact would differ.
@example((np.array([5e-324, -1e-310, 3e-308, -0.0, 7e-322]), (2.0,), 0.0, 0.0))
@example((np.array([[1e308, -1.5e308], [4e307, 0.0]]), (0.5, 0.25), 0.0, 0.0))
def test_buffered_force_is_bitwise_the_roll_force(case):
    state, spacings, mass_sq, coupling = case
    out, *work = _buffers(state, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        _force(state, spacings, mass_sq, coupling, out, *work)()
        expected = _roll_force(state, spacings, mass_sq, coupling)
    assert out.dtype == expected.dtype
    assert out.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()


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
        _force(state, (0.5, 0.7, 0.9), 1.0, 2.0, out, np.asfortranarray(scratch), plane)

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
@example((*(np.linspace(-3.0, 4.0, 24).reshape(3, 1, 8) * f for f in (1.0, -0.5, 2.0)), (0.3, 0.6, 0.9), 0.7, 1.5, 0.25))
@example((*(np.linspace(-3.0, 4.0, 24).reshape(4, 3, 2) * f for f in (1.0, -0.5, 2.0)), (0.3, 0.6, 0.9), 0.7, 1.5, 0.25))
def test_buffered_energy_is_bitwise_the_roll_energy(case):
    state, vel, acc, spacings, mass_sq, coupling, dt = case
    cell_volume = float(np.prod(spacings))
    energy = _energy(state, vel, acc, spacings, mass_sq, coupling, dt, cell_volume, *_buffers(state, 3))
    expected = _roll_energy(state, vel, acc, spacings, mass_sq, coupling, dt, cell_volume)
    assert energy().hex() == expected.hex()


_FORCE_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from ontofield.dynamics import _energy, _force
rng = np.random.default_rng(13)
state = 2.0 * rng.standard_normal((32, 32, 32))
vel = rng.standard_normal((32, 32, 32))
out, *work = (np.empty_like(state) for _ in range(4))
_force(state, (0.5, 0.5, 0.5), 1.0, 3.0, out, *work[:2])()
print(hashlib.sha256(out.tobytes()).hexdigest())
print(_energy(state, vel, out, (0.5, 0.5, 0.5), 1.0, 3.0, 0.1, 0.125, *work)().hex())
"""


def _force_digest(env):
    src = str(Path(ontofield.__file__).resolve().parents[1])
    env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _FORCE_DIGEST_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


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
    assert len(run.velocities) == len(run.snapshots)


def test_leapfrog_converges_to_the_discrete_free_solution():
    # Reference: the exact propagator of the same spatial discretization,
    # so the measured error is purely the O(dt^2) time-stepping error.
    lat = build_lattice(32.0, 64, 1.0)
    b0 = real_packet(lat)
    k = lat.k_axes[0]
    dx = lat.spacings[0]
    omega_fd = np.sqrt(4.0 * np.sin(k * dx / 2.0) ** 2 / dx**2 + lat.mass**2)
    horizon = 2.0
    exact = np.fft.ifft(np.cos(omega_fd * horizon) * np.fft.fft(b0.values.real)).real
    errors = []
    for steps in (100, 200):
        run = leapfrog_interact(
            b0, zero_field(lat), lat, 0.0, horizon / steps, steps, record_every=steps
        )
        errors.append(float(np.max(np.abs(run.final.values.real - exact))))
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.5)


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
    flipped = ComplexField("position", -fwd.velocities[-1].astype(complex), time=0.0)
    restart = ComplexField("position", fwd.final.values, time=0.0)
    back = leapfrog_interact(restart, flipped, lat, 0.1, 0.2, 200, record_every=200)
    assert np.max(np.abs(back.final.values - b0.values)) < 1e-12


def test_runaway_coupling_aborts_with_context():
    lat = build_lattice(32.0, 64, 1.0)
    big = gaussian_packet(lat, 0.0, 8.0, 3.0, amplitude=5.0)
    b0 = ComplexField("position", big.values.real.astype(complex))
    with pytest.raises(InstabilityError) as info:
        leapfrog_interact(b0, zero_field(lat), lat, -1.0, 0.2, 500)
    err = info.value
    assert err.step > 0
    assert not np.isfinite(err.energy) or abs(err.energy) > 10 * abs(err.initial_energy)
    assert err.quantity == "energy" and "energy" in str(err)


def test_complex_mode_instability_names_the_norm():
    lat = build_lattice(8.0, 8, 1.0)
    packet = gaussian_packet(lat, 1.0, 4.0, 1.0, amplitude=30.0)
    with pytest.raises(InstabilityError, match="norm") as info:
        leapfrog_interact(packet, zero_field(lat), lat, -5.0, 0.1, 50, field_mode="complex")
    err = info.value
    assert err.quantity == "norm" and "energy" not in str(err)
    assert err.step == 1 and err.energy > 10 * err.initial_energy


def test_real_mode_rejects_complex_initial_data():
    lat = build_lattice(32.0, 64, 1.0)
    with pytest.raises(ValueError):
        leapfrog_interact(gaussian_packet(lat, 1.0, 8.0, 3.0), zero_field(lat), lat, 0.0, 0.1, 2)


def test_complex_mode_runs_without_an_energy_record():
    lat = build_lattice(32.0, 64, 1.0)
    packet = gaussian_packet(lat, 1.0, 8.0, 3.0)
    run = leapfrog_interact(
        packet, zero_field(lat), lat, 0.05, 0.1, 20, field_mode="complex", record_every=20
    )
    assert run.energy is None
    assert np.iscomplexobj(run.final.values)


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


def test_front_tracking_is_one_dimensional_only():
    lat = build_lattice([16.0, 16.0], [32, 32], 1.0)
    packet = gaussian_packet(lat, [1.0, 0.0], [4.0, 4.0], 2.0)
    run = spectral_run(packet, lat, 0.5, 3)
    with pytest.raises(ValueError):
        wavefront_measure(run, 1.0)
