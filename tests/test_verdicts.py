"""Golden digest of ``validate`` verdicts over generated edits of the README configs.

A seeded generator edits each ```json block of README.md: every single-key
edit (each key set to each value, or deleted), then random two- and
three-key edits.  Each config is checked by ``validate_config``, and one
line per config goes into a sha256:

    <config as sorted-key JSON> TAB <valid> TAB <sorted keys its violations name>

so the digest moves when any config changes its verdict or the keys it
blames, and not when a message is reworded.  This is differential testing
against the tree's own past: a change that means to move a verdict
re-records the digest in a commit of its own and lists the configs whose
line changed.
"""

import hashlib
import json
import random
import re
from pathlib import Path

from ontofield.cli import validate_config

README = Path(__file__).resolve().parents[1] / "README.md"

# Every key some experiment takes, ``field_mode``, which none takes any more
# but which keeps the set of generated configs, and four keys it does not
# know or treats apart.
_KEYS = [
    "amplitude", "box_length", "center", "cutoff", "delta_t", "dt", "evolve_time", "field_mode", "k0", "kind",
    "lambda", "mass", "method", "n_levels", "n_states", "omega", "points", "record_every", "samples", "steps", "t",
    "taper_frac", "time_pairs", "width", "window", "z_count", "z_start", "z_stop",
    "experiment", "seed", "output_dir", "bogus",
]
# The validate/run property test's values, then values at the edges of a
# double and of an index, and ragged, nested and over-long lists.
_VALUES = [
    -1, 0, 0.5, 1, 2, 3, 8, 100, "x", None, True, [1], [2, 2], [4, 2, 2], "F2", "contour", "complex", "cosine",
    1e300, 1e-300, 5e-308, 2e154, 10**400, 1e-320, [], [[1.0, 0.5]], [2, [2, 2]], [4, 4, 4, 4],
]
_DELETE = object()
_MULTI_EDITS = 3000
_SEED = 17

VERDICTS = "633f4a6e98860c9279412123dfb92ace43dc489775ad4f41406ccc5e60329c0e"


def readme_configs() -> list[dict]:
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", README.read_text(), re.S)]


def _edited(config: dict, edits) -> dict:
    config = dict(config)
    for key, value in edits:
        if value is _DELETE:
            config.pop(key, None)
        else:
            config[key] = value
    return config


def generated_configs() -> list[dict]:
    """Every single-key edit of each README config, then the seeded two- and three-key edits."""
    bases = readme_configs()
    values = _VALUES + [_DELETE]
    configs = [_edited(base, [(key, value)]) for base in bases for key in _KEYS for value in values]
    rng = random.Random(_SEED)
    for _ in range(_MULTI_EDITS):
        edits = [(rng.choice(_KEYS), rng.choice(values)) for _ in range(rng.choice((2, 3)))]
        configs.append(_edited(rng.choice(bases), edits))
    return configs


def verdict_line(config: dict) -> str:
    violations = validate_config(config)
    keys = sorted({violation.split(":", 1)[0] for violation in violations})
    return f"{json.dumps(config, sort_keys=True)}\t{not violations}\t{keys}\n"


def test_generated_configs_keep_their_validate_verdicts():
    configs = generated_configs()
    assert len(configs) == 8 * len(_KEYS) * (len(_VALUES) + 1) + _MULTI_EDITS
    digest = hashlib.sha256()
    for config in configs:
        digest.update(verdict_line(config).encode())
    assert digest.hexdigest() == VERDICTS
