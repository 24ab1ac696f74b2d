"""Library entry points test numbers, counts and scalar-or-list geometry by the rules of ``ontofield._rules``."""

import re

import numpy as np
import pytest

from ontofield._rules import as_tuple, finite, finite_entries, is_integer, is_real, nullable, per_axis
from ontofield.cyclic import CycleConfig, OntState
from ontofield.dynamics import gaussian_packet, leapfrog_interact, refinement_study, spectral_run, wavefront_measure
from ontofield.kernels import KernelSpec, group_velocity, spacelike_suppression_scan
from ontofield.ladder import TimedOperator, build_mode, evolve_operator
from ontofield.lattice import ComplexField, build_lattice, evolution_phase, spectral_evolve
from ontofield.vacuum import EnsembleSpec, sample_vacuum

_LAT = build_lattice(16.0, 16, 1.0)
_LAT_2D = build_lattice([8.0, 8.0], [8, 8], 1.0)
_HUGE = 10**400  # an int too large for a double


def _zero(n=16):
    return ComplexField("position", np.zeros(n, dtype=complex))


def _refinement(levels):
    return refinement_study(
        lambda x: np.exp(-((x - 4.0) ** 2)), box_length=8.0, base_points=16, base_dt=0.1, mass=1.0, levels=levels
    )


def _packet():
    return gaussian_packet(_LAT, 1.0, 4.0, 2.0)


@pytest.mark.parametrize(
    "argument, call",
    [
        ("box_lengths", lambda: build_lattice(_HUGE, 8, 1.0)),
        ("mass", lambda: build_lattice(1.0, 4, True)),
        ("k0", lambda: gaussian_packet(_LAT, _HUGE, 1.0, 1.0)),
        ("k0", lambda: gaussian_packet(_LAT_2D, [[1.0, 0.5]], [1.0, 1.0], 1.0)),
        ("width", lambda: gaussian_packet(_LAT, 1.0, 4.0, "2")),
        ("amplitude", lambda: gaussian_packet(_LAT, 1.0, 4.0, 2.0, amplitude=None)),
        ("t", lambda: evolution_phase(_LAT, _HUGE)),
        ("space", lambda: ComplexField("spin", np.zeros(4))),
        ("dt", lambda: spectral_run(_packet(), _LAT, "0.1", 2)),
        ("delta_t", lambda: CycleConfig(4, _HUGE)),
        ("index", lambda: OntState(True)),
        ("count", lambda: EnsembleSpec(_LAT, True, 0)),
        ("seed", lambda: EnsembleSpec(_LAT, 100, False)),
        ("sample_index", lambda: sample_vacuum(EnsembleSpec(_LAT, 100, 0), 1.5)),
        ("levels", lambda: _refinement(2.5)),
        ("omega", lambda: build_mode(4, _HUGE)),
        ("t", lambda: spacelike_suppression_scan(1.0, -1.0, [2.0, 3.0])),
        ("taper_frac", lambda: KernelSpec("F1", 1.0, 100.0, taper_frac="x")),
        ("box_lengths", lambda: build_lattice(1e300, 16, 1.0)),
        ("box_lengths", lambda: build_lattice(1e-300, 16, 1.0)),
        ("box_lengths", lambda: build_lattice(2e-153, 16, 1.0)),
        ("grid_points", lambda: build_lattice(32.0, _HUGE, 1.0)),
    ],
)
def test_entry_points_refuse_bools_huge_ints_and_strings_naming_the_argument(argument, call):
    with pytest.raises(ValueError, match=rf"^{re.escape(argument)}[ :]"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: gaussian_packet(_LAT, np.array(1.0), np.array(2.0), 1.0),
        lambda: gaussian_packet(_LAT, 1.0, 2.0, np.array(1.0), amplitude=np.float32(2.0)),
        lambda: build_lattice(np.float64(16.0), np.int64(16), np.float32(1.0), np.array(3.0)),
        lambda: build_lattice([np.float32(8.0), np.array(8.0)], np.array([8, 8]), np.array(1.0)),
        lambda: spectral_run(_packet(), _LAT, np.float32(0.1), np.int64(2), np.int64(1)),
        lambda: spectral_run(_packet(), _LAT, np.array(0.1), 2),
        lambda: CycleConfig(np.int64(4), np.float32(0.5)),
        lambda: CycleConfig(4, np.array(0.5)),
        lambda: OntState(np.int64(2)),
        lambda: sample_vacuum(EnsembleSpec(_LAT, np.int64(100), np.int64(3)), np.int64(3)),
        lambda: evolution_phase(_LAT, np.float32(0.5)),
        lambda: evolution_phase(_LAT, np.array(0.5)),
        lambda: build_mode(np.int64(4), np.float64(2.0)),
        lambda: build_mode(4, np.array(2.0)),
        lambda: evolve_operator(TimedOperator(np.eye(2), np.float32(1.0), "lowering"), np.array(0.5)),
        lambda: KernelSpec("F2", np.float64(1.0), np.array(100.0), t=np.float32(0.5), taper_frac=np.array(0.2)),
        lambda: group_velocity(np.array([1.0, 0.5]), np.float32(1.0)),
        lambda: group_velocity(np.array(1.0), np.array(1.0)),
        lambda: spacelike_suppression_scan(np.float64(1.0), np.array(0.5), [2.0, 3.0]),
        lambda: _refinement(np.int64(2)),
        lambda: leapfrog_interact(_zero(), _zero(), _LAT, np.float32(0.1), np.array(0.1), np.int64(2)),
        lambda: wavefront_measure(spectral_run(_packet(), _LAT, 0.5, 2), np.array(1.0)),
        lambda: wavefront_measure(spectral_run(_packet(), _LAT, 0.5, 2), [np.float32(1.0)]),
    ],
)
def test_numpy_scalars_and_zero_dimensional_arrays_are_accepted(call):
    call()


def test_the_number_test_and_the_scalar_or_list_rule():
    for value in (1, 0.5, -2.0, np.float32(1.5), np.int64(3), np.array(2.0), 2**1000):
        assert is_real(value), value
    for value in (True, np.bool_(False), _HUGE, float("nan"), np.inf, "1", None, [1.0], np.array([1.0]), 1j):
        assert not is_real(value), value
    assert is_integer(np.int64(2)) and not is_integer(True) and not is_integer(2.0)
    assert as_tuple(1.0) == (1.0,) and as_tuple([1.0, 2.0]) == (1.0, 2.0) and as_tuple("ab") == ("ab",)
    assert len(as_tuple(np.array(1.0))) == 1 and len(as_tuple(np.array([1.0, 2.0]))) == 2
    assert len(as_tuple([1, [2, 3]])) == 2  # a ragged list is its entries, not an error
    assert finite_entries([np.array(1.0), 2]) is None and finite_entries([[1.0]]) is not None
    assert finite_entries(np.array([1.0, 2.0, 3.0, 4.0])) is None and finite_entries([1.0, "x"]) is not None
    assert group_velocity([1.0, 0.5, 0.5, 0.5], 1.0).shape == (4,)  # a wave vector of any length


def test_scalar_rules_take_one_number_and_the_per_axis_rule_one_to_three():
    for value in (0.5, -2, np.float32(1.5), np.array(2.0)):
        assert finite(value) is None, value
    for value in ([0.5], [0.5, 1.0], np.array([1.0]), (1.0,), "1", None, True, _HUGE):
        assert finite(value) == f"must be finite, got {value!r}", value
    axes = per_axis(finite)
    for value in (1.0, [1.0], [1.0, 2.0, 3.0], np.array([1.0, 2.0])):
        assert axes(value) is None, value
    for value in ([], [1.0] * 4):
        assert axes(value) == f"must be a scalar or a list of 1 to 3 entries, got {value!r}"
    assert axes([1.0, [2.0]]) == "must be finite, got [2.0]"  # the first refused entry's message
    assert axes(None) is not None and nullable(axes)(None) is None and nullable(axes)("x") is not None


_LAT_2 = build_lattice(4.0, 2, 1.0)
_PAIR = [0.5, 1.0]


# A list where one number belongs: on a 2-point lattice numpy would broadcast it site by site.
@pytest.mark.parametrize(
    "argument, call",
    [
        ("t", lambda: evolution_phase(_LAT_2, _PAIR)),
        ("t", lambda: spectral_evolve(ComplexField("momentum", np.zeros(2, dtype=complex)), _LAT_2, _PAIR)),
        ("amplitude", lambda: gaussian_packet(_LAT_2, 1.0, 1.0, 1.0, amplitude=_PAIR)),
        ("coupling", lambda: leapfrog_interact(_zero(2), _zero(2), _LAT_2, _PAIR, 0.1, 2)),
        ("t", lambda: KernelSpec("F2", 1.0, t=_PAIR, method="contour")),
        ("t", lambda: evolve_operator(TimedOperator(np.eye(2), 1.0, "lowering"), _PAIR)),
    ],
)
def test_scalar_arguments_refuse_a_list_naming_the_argument(argument, call):
    with pytest.raises(ValueError, match=rf"^{re.escape(argument)}[ :]"):
        call()
