"""The package namespace re-exports every module's public names."""

import importlib
import json
import re
from pathlib import Path

import pytest

import ontofield
from fresh_interpreter import run_script

MODULES = ["cyclic", "ladder", "lattice", "kernels", "dynamics", "vacuum"]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_re_exported_by_the_package(name):
    module = importlib.import_module(f"ontofield.{name}")
    for attr in module.__all__:
        assert attr in ontofield.__all__, attr
        assert getattr(ontofield, attr) is getattr(module, attr), attr


def test_package_exports_are_the_modules_exports_and_the_version():
    names = [attr for name in MODULES for attr in importlib.import_module(f"ontofield.{name}").__all__]
    assert len(ontofield.__all__) == len(set(ontofield.__all__))
    assert set(ontofield.__all__) == set(names) | {"__version__"}


# Run in a fresh interpreter: the suite itself imports scipy.  Argument 1 is
# a directory of README configs named <experiment>.json.
NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path

import ontofield
import ontofield.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

configs = Path(sys.argv[1])

def run(name):
    return cli.main(["run", str(configs / f"{name}.json"), "--output-dir", str(configs / f"out_{name}")])

codes = {}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for path in sorted(configs.glob("*.json")):
        codes["validate " + path.stem] = cli.main(["validate", str(path)])
    for name in ("identities", "evolve", "vacuum"):
        codes["run " + name] = run(name)
    before_kernel = scipy_modules()
    codes["run kernel"] = run("kernel")
print(json.dumps({"codes": codes, "before_kernel": before_kernel, "after_kernel": scipy_modules()}))
"""


def test_only_quadrature_loads_scipy(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for block in re.findall(r"```json\n(.*?)```", readme, re.S):
        (tmp_path / f"{json.loads(block)['experiment']}.json").write_text(block)
    report = json.loads(run_script(NO_SCIPY_SCRIPT, tmp_path, timeout=300))
    assert len(report["codes"]) == 8 + 4
    assert set(report["codes"].values()) == {0}, report["codes"]
    assert report["before_kernel"] == []
    assert "scipy.integrate" in report["after_kernel"]
