"""Golden digests of the artifacts of every README config.

Each ```json block in README.md is run through the CLI and the sha256 of
every data file it writes is compared with the digest recorded below.
``manifest.json`` is skipped because its ``timing`` block changes per run.
A refactor that moves one byte of one artifact fails here.

The digests were taken with numpy 2.4.6 and scipy 1.17.1 (OpenBLAS, x86-64);
a different numpy, scipy or BLAS build may legitimately change the last bits
of some floats and needs the digests re-recorded after checking the
acceptance suite still passes.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from ontofield.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

GOLDEN = {
    "identities": {
        "identities.json": "3df5feafcf9b2d4e2bfbc04553fbb901039288c197218504e218f0485d35e802",
    },
    "spectrum": {
        "spectrum.csv": "02bfe983b3165f95143c3c789f18f92ad669e829dfeddbc58e6c31741e7c13e9",
    },
    "kernel": {
        "kernel.csv": "1686032c60b243c408aed92c785d23cda116dcaa8956136b53b01e0c521412b4",
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
        "correlator.csv": "73acbe15727f94903e636b2479b5099d707cf52b14498b054ba939806d69edf5",
        "correlator_evolved.csv": "63edc64baac8f8859faecc269ade959966b5532c4d1a111941907e044a0b4c30",
    },
}


def readme_configs() -> dict[str, str]:
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    return {json.loads(block)["experiment"]: block for block in blocks}


def test_readme_has_one_config_per_experiment():
    assert sorted(readme_configs()) == sorted(GOLDEN)


@pytest.mark.parametrize("experiment", sorted(GOLDEN))
def test_readme_config_artifacts_match_the_golden_digests(tmp_path, experiment):
    config = tmp_path / "config.json"
    config.write_text(readme_configs()[experiment])
    out = tmp_path / "out"
    assert main(["run", str(config), "--output-dir", str(out)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
        if path.name != "manifest.json"
    }
    assert digests == GOLDEN[experiment]
