import os
from pathlib import Path

import numpy as np
import pytest

from qbound import (Domain, affine_model, bloch_equatorial, bloch_full,
                    pure_qubit, pure_state_model)
from qbound.linalg import haar_unitary, random_hermitian


SRC = str(Path(__file__).resolve().parents[1] / "src")


def cli_env():
    """Environment for ``python -m qbound`` subprocesses: this checkout's
    ``src`` first on PYTHONPATH, as pytest's ``pythonpath`` setting does
    for the test process itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def all_models():
    return {
        "bloch_full": bloch_full(),
        "bloch_equatorial": bloch_equatorial(),
        "pure_qubit": pure_qubit(),
        "pure_dim_3": pure_state_model(3),
    }


def interior_points(model, n, rng, radius=0.6):
    """Random parameter points well inside the model domain."""
    p = model.num_params
    pts = []
    while len(pts) < n:
        x = rng.uniform(-1.0, 1.0, p)
        if np.linalg.norm(x) <= 1.0:
            pts.append(radius * x)
    return pts


def random_mixed_model(rng, d, p):
    """Random affine family around a random full-rank state."""
    w = rng.random(d) + 0.3
    w /= w.sum()
    u = haar_unitary(d, rng)
    rho0 = (u * w) @ u.conj().T
    basis = []
    for _ in range(p):
        b = random_hermitian(d, rng, traceless=True)
        basis.append(0.25 * b / np.linalg.norm(b))
    return affine_model(rho0, basis, Domain("ball", radius=0.2, dim=p))


def fd_jacobian(fn, theta, step=1e-6):
    theta = np.asarray(theta, dtype=float)
    cols = []
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        cols.append((np.asarray(fn(theta + e)) - np.asarray(fn(theta - e))) / (2 * step))
    return np.stack(cols, axis=-1)
