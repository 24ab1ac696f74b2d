"""Golden digests of the artifacts of every README config.

Each ```json block in README.md is run through the CLI and the sha256 of
every data file it writes is compared with the digest recorded below.
``manifest.json`` is skipped because its ``timing`` block changes per run.
A refactor that moves one byte of one artifact fails here.  One more digest
covers a 3D snapshot of 6144 sites, large enough that the snapshot writer
formats it in more than one block.  Three F2 ``kernel.csv`` digests cover
the columns the README's F1 config leaves empty: a radial table with a
cutoff at ``t != 0``, a radial table with the ``septic`` window down to
``z = 0`` (which the CLI's grid cannot reach), and a contour
table at negative ``t``.  Two more runs end off their ``record_every``
grid: a literal-convolution ``evolve`` and an ``interact``.  Two ``vacuum``
runs of 512 and 600 sites cover correlators wider than one 256-site
accumulation strip, the second with a partial last strip.  A ``vacuum`` run of the ``scaled3d`` benchmark's shape (8x8x4 sites,
2000 samples) fills exactly one strip with full-width products over eight
sample blocks.  Two ``interact`` runs leave one dimension: a 3D and a 2D
field, each on anisotropic spacings with a 2-point axis (the last and the
first), so that the stencil's wrap planes are also its bulk.

The digests were taken with numpy 2.4.6 and scipy 1.17.1 (OpenBLAS, x86-64)
on a CPU with AVX-512, where numpy dispatches to its AVX-512 loops; a
different numpy, scipy or BLAS build, or the same build at another SIMD
dispatch level, may legitimately change the last bits of some floats and
needs the digests re-recorded after checking the acceptance suite still
passes.  With ``NPY_DISABLE_CPU_FEATURES`` set to every feature numpy
dispatches on (``X86_V3 X86_V4 AVX512_ICL AVX512_SPR`` on that CPU), 12 of
these 20 cases fail: the README ``decay``, ``evolve``, ``front``,
``identities``, ``interact`` and ``vacuum`` configs, the multi-block
snapshot, ``evolve_literal``, ``sites_512``, ``sites_600``, the
``scaled3d``-shape vacuum and ``real_3d``.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from ontofield.cli import main
from ontofield.dynamics import gaussian_packet
from ontofield.kernels import KernelSpec, kernel_table
from ontofield.lattice import build_lattice, save_field, spectral_evolve, to_momentum, to_position

README = Path(__file__).resolve().parents[1] / "README.md"

GOLDEN = {
    "identities": {
        "identities.json": "3df5feafcf9b2d4e2bfbc04553fbb901039288c197218504e218f0485d35e802",
    },
    "spectrum": {
        "spectrum.csv": "02bfe983b3165f95143c3c789f18f92ad669e829dfeddbc58e6c31741e7c13e9",
    },
    "kernel": {
        "kernel.csv": "3ca0c7faf62cfd872b11555fc057d33cb6a04908b402096a593bef60b128dae1",
    },
    "decay": {
        "decay.csv": "e3c5b5999570000e233cf4fa7327edaf83a35b946c7d8175e4d97abe82fe2d8b",
    },
    "front": {
        "front.csv": "89fcc7ef4a4d4ddfe017d1a4efaac89fe27d43fa58dde2505b3fc92c2a25548c",
    },
    "evolve": {
        "snapshot_0000.csv": "e9f9ca8993131015469c5b54b07d3d62b77c84d95c3d6233661e8576c19314d1",
        "snapshot_0001.csv": "203293afb4a88163f35c6bd997009f9a625e028d74c57552dff82e81310d2577",
        "snapshot_0002.csv": "c7b48bcf49ebe28af1cf3a198278d23f75c60ba8596426f7fae00a37d24f61ce",
    },
    "interact": {
        "energy.csv": "8be58aa186fbdd584e47f62717d1749b716628fb53e78e921def459823fc508b",
        "final_field.csv": "e9e9233952a14dd3796958f1a1e728e9148677034200c45a038140ccf580e015",
    },
    "vacuum": {
        "correlator.csv": "0f48ec6f9550cb7ed723f9e23434c10f0338410b7b5daba3113050e8d9171466",
        "correlator_evolved.csv": "a5f93f3ae951f6104db98efa7627d5a4630938e442c4bd2ac76e5e61f85d5818",
    },
}


def readme_configs() -> dict[str, str]:
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    return {json.loads(block)["experiment"]: block for block in blocks}


def run_digests(tmp_path, config_text: str) -> dict[str, str]:
    """sha256 of every data file one CLI run writes, by file name."""
    config = tmp_path / "config.json"
    config.write_text(config_text)
    out = tmp_path / "out"
    assert main(["run", str(config), "--output-dir", str(out)]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
        if path.name != "manifest.json"
    }


def test_readme_has_one_config_per_experiment():
    assert sorted(readme_configs()) == sorted(GOLDEN)


@pytest.mark.parametrize("experiment", sorted(GOLDEN))
def test_readme_config_artifacts_match_the_golden_digests(tmp_path, experiment):
    assert run_digests(tmp_path, readme_configs()[experiment]) == GOLDEN[experiment]


MULTI_BLOCK_SNAPSHOT = "471bd01e63607851b1dae10b881499f8ef2da58ac76018cd22a6456a1d704a2b"


def test_multi_block_snapshot_matches_the_golden_digest(tmp_path):
    lattice = build_lattice([8.0, 8.0, 12.0], [16, 16, 24], 1.0)
    packet = gaussian_packet(lattice, [1.0, -0.5, 0.25], [4.0, 4.0, 6.0], 1.5)
    field = to_position(spectral_evolve(to_momentum(packet, lattice), lattice, 0.75), lattice)
    path = tmp_path / "snapshot.csv"
    save_field(field, lattice, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MULTI_BLOCK_SNAPSHOT


F2_KERNEL_CONFIGS = {
    "radial_cutoff": (
        {
            "experiment": "kernel", "kind": "F2", "mass": 0.9, "cutoff": 30.1,
            "method": "radial_reduced", "window": "quintic", "taper_frac": 0.3,
            "t": 0.75, "z_start": 0.5, "z_stop": 3.0, "z_count": 6,
        },
        "acb45faa8f93353880fdc11df1c97201b4782996d3077de371c833b3f6a289f2",
    ),
    "contour": (
        {
            "experiment": "kernel", "kind": "F2", "mass": 0.5, "cutoff": None,
            "method": "contour", "t": -0.4, "z_start": 0.5, "z_stop": 4.0, "z_count": 8,
        },
        "28d09ea08d5eb43f8504f1c72b584133816330fea0bef615ac279e2b39fbe082",
    ),
}


@pytest.mark.parametrize("case", sorted(F2_KERNEL_CONFIGS))
def test_f2_kernel_csv_matches_the_golden_digest(tmp_path, case):
    config, digest = F2_KERNEL_CONFIGS[case]
    assert run_digests(tmp_path, json.dumps(config)) == {"kernel.csv": digest}


F2_SEPTIC_AT_ORIGIN = "dbb371bb6aef348d79e5b7455fbbc9211a7d63d12c2b4f9eac3d7ee76cccc469"


def test_f2_septic_table_at_the_origin_matches_the_golden_digest(tmp_path):
    spec = KernelSpec("F2", 1.0, 25.3, 0.5, "radial_reduced", "septic", 0.3)
    path = tmp_path / "kernel.csv"
    kernel_table(spec, [0.0, 0.4, 1.2]).write_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == F2_SEPTIC_AT_ORIGIN


# Runs whose last step is off the ``record_every`` grid: the literal
# convolution, which the README configs leave out, and an interaction.
# File name -> digest per case.
OFF_GRID_CONFIGS = {
    "evolve_literal": (
        {
            "experiment": "evolve", "mass": 1.0, "box_length": 8.0, "points": 16,
            "cutoff": 3.0, "k0": 1.0, "center": 2.0, "width": 1.0, "dt": 0.3,
            "steps": 5, "record_every": 2, "method": "convolution_literal",
        },
        {
            "snapshot_0000.csv": "b35e5c6080f799182c5a21392455d5b46d0a13be752077e706fe736ec6bedf32",
            "snapshot_0001.csv": "ae4f299565b586ec65852e206f14ebeea9e19557cdd51f6d1dd1f2838dc3ad1d",
            "snapshot_0002.csv": "eae43720f45ab869da117f3ba9f554b720045131fc5f09adcf0176c267b00b95",
            "snapshot_0003.csv": "db3cd1bf66cdc7e74737a161c9b962c208f142495a0e0e9471ba92bb28fed448",
        },
    ),
    "interact_real": (
        {
            "experiment": "interact", "mass": 1.0, "box_length": 16.0, "points": 32,
            "cutoff": None, "k0": 1.0, "center": 4.0, "width": 1.5, "amplitude": 1.2,
            "lambda": 0.5, "dt": 0.1, "steps": 50, "record_every": 7,
        },
        {
            "energy.csv": "6e9874863feadd13ad16e3d6b74e613f6577e7cb7ad14701cfbf1cc54edac8e6",
            "final_field.csv": "e6f585bb88e496f8875c4365e65e77a324b6eafb9e1087e9d133bd4729d19965",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(OFF_GRID_CONFIGS))
def test_off_grid_run_artifacts_match_the_golden_digests(tmp_path, case):
    config, golden = OFF_GRID_CONFIGS[case]
    assert run_digests(tmp_path, json.dumps(config)) == golden


# Vacuum runs whose correlators span more than one 256-site strip: 512 sites
# in two full strips, and 600 sites in two full strips and a partial third.
VACUUM_STRIP_CONFIGS = {
    "sites_512": (
        {
            "experiment": "vacuum", "mass": 1.0, "box_length": [8.0, 6.0, 4.0],
            "points": [16, 8, 4], "cutoff": None, "samples": 300, "evolve_time": 0.7,
            "seed": 2**63 + 5,
        },
        {
            "correlator.csv": "bd3185921eb30b25a011222974b12f3e911fbc77cee0d42bcd1ea0c201f9f1e2",
            "correlator_evolved.csv": "419548f0cf09d9eefbe29f30b7b32816db53ff1e8ec16d97b56eebe6fea00c79",
        },
    ),
    "sites_600": (
        {
            "experiment": "vacuum", "mass": 1.0, "box_length": [5.0, 5.0, 3.0],
            "points": [10, 10, 6], "cutoff": 2.5, "samples": 100, "evolve_time": -1.3,
            "seed": 3,
        },
        {
            "correlator.csv": "97b76c903a219d421b99ad656f5a37596feac50808811cc4016ad417ab7bdad3",
            "correlator_evolved.csv": "b8542a439a59657e2653b182224df9c27acdce75d9511063b83a066b7d13ba4b",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(VACUUM_STRIP_CONFIGS))
def test_multi_strip_vacuum_artifacts_match_the_golden_digests(tmp_path, case):
    config, golden = VACUUM_STRIP_CONFIGS[case]
    assert run_digests(tmp_path, json.dumps(config)) == golden


# The vacuum config of the scaled3d benchmark workload at a fixed seed: 256
# sites, so one strip whose products span the whole correlator width, and
# 2000 samples, seven full blocks and a partial eighth.
SCALED3D_VACUUM = (
    {
        "experiment": "vacuum", "mass": 1.0,
        "box_length": [6.283185307179586, 6.283185307179586, 3.141592653589793],
        "points": [8, 8, 4], "cutoff": None, "samples": 2000, "evolve_time": 1.0, "seed": 6,
    },
    {
        "correlator.csv": "b3ab00aad794565743704e79fe5d5d00aed91ede1e55abf3c20c5e2f12ff379c",
        "correlator_evolved.csv": "720847cd4a7e7494339677631dcd221e660c21008fe0e3e47374d909b4b412f4",
    },
)


def test_scaled3d_shape_vacuum_artifacts_match_the_golden_digests(tmp_path):
    config, golden = SCALED3D_VACUUM
    assert run_digests(tmp_path, json.dumps(config)) == golden


# Interacting runs in more than one dimension, on anisotropic spacings with a
# 2-point axis: the 3D field's last axis, the 2D field's first.
MULTI_DIM_INTERACT_CONFIGS = {
    "real_3d": (
        {
            "experiment": "interact", "mass": 0.8, "box_length": [6.0, 5.0, 3.0],
            "points": [8, 6, 2], "cutoff": None, "k0": [1.0, -0.5, 0.0],
            "center": [2.0, 3.0, 1.0], "width": 1.2, "amplitude": 1.5, "lambda": 0.7,
            "dt": 0.1, "steps": 30, "record_every": 7,
        },
        {
            "energy.csv": "bccfa69263bb8ee06b0588bbc5392ab03808989fa592f7b7e5516a805747f2d6",
            "final_field.csv": "a604b777336606388ef531e65ededd8075b23c0f918953310b0fe69b92118714",
        },
    ),
    "real_2d": (
        {
            "experiment": "interact", "mass": 1.1, "box_length": [4.0, 7.0], "points": [2, 10],
            "cutoff": None, "k0": [0.0, 1.0], "center": [1.0, 2.5], "width": 1.4,
            "amplitude": 1.3, "lambda": -0.4, "dt": 0.1, "steps": 25, "record_every": 6,
        },
        {
            "energy.csv": "be0f7202cac15c16f67fb092f596e9be1a86cf272fcc215f00e888dbfa6cb08f",
            "final_field.csv": "f996ba8e1f7642693a3796f08efcb1b605c216a2260dbd0fb0b9a524239ebb8c",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(MULTI_DIM_INTERACT_CONFIGS))
def test_multi_dim_interact_artifacts_match_the_golden_digests(tmp_path, case):
    config, golden = MULTI_DIM_INTERACT_CONFIGS[case]
    assert run_digests(tmp_path, json.dumps(config)) == golden
