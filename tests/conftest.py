import os
import sys
from pathlib import Path

import numpy as np
import pytest

import regmarket
from regmarket import DesignMatrix

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

# CLI tests run `python -m regmarket` in a child process; let it import the
# same package as this process, whether installed or taken from src/.
_package_root = str(Path(regmarket.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_package_root, os.environ.get("PYTHONPATH")))
)


def make_design(rng, n_rows, n_features, agent="A", intercept=True):
    """Random standard-normal design with an intercept and one fake agent."""
    columns = []
    column_map = []
    if intercept:
        columns.append(np.ones(n_rows))
        column_map.append(None)
    for j in range(n_features):
        columns.append(rng.normal(size=n_rows))
        column_map.append((agent, j + 1))
    return DesignMatrix(np.column_stack(columns), tuple(column_map))


def random_instance(rng, n_rows, n_features, penalty_scale=1.0):
    """Design, target and a random nonnegative penalty vector (intercept free)."""
    design = make_design(rng, n_rows, n_features)
    truth = rng.normal(size=n_features + 1)
    y = design.values @ truth + 0.1 * rng.normal(size=n_rows)
    penalties = np.concatenate(
        [[0.0], penalty_scale * rng.uniform(0.0, n_rows / 4.0, n_features)]
    )
    return design, y, penalties


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
