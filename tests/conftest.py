import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metastable.potentials import (
    chain_potential,
    double_well_1d,
    rotated_two_particle,
)


@pytest.fixture(scope="session")
def dw():
    return double_well_1d()


@pytest.fixture(scope="session")
def rotated_quadratic():
    """Two-particle chain in rotated coordinates, quadratic saddle regime."""
    return rotated_two_particle(0.75)


@pytest.fixture(scope="session")
def rotated_flat():
    """Two-particle chain at the critical coupling: quartic transverse direction."""
    return rotated_two_particle(0.5)


@pytest.fixture(scope="session")
def chain3_critical():
    """Three-particle chain at its critical coupling: codimension-two saddle."""
    return chain_potential(3, 2.0 / 3.0)


@pytest.fixture(scope="session")
def origin2():
    return np.zeros(2)


@pytest.fixture(scope="session")
def fresh_interpreter():
    """Run Python ``code`` in a fresh interpreter, with the package and the test
    modules importable and one BLAS thread (as the benchmark pins it), and
    return what it prints, read as JSON."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})

    def run(code: str):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    return run
