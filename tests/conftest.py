import math
import os
from pathlib import Path

import numpy as np
import pytest

from qbound import (Domain, affine_model, bloch_equatorial, bloch_full,
                    model_to_spec, pure_qubit, pure_state_model)
from qbound.information import sld_from_state
from qbound.linalg import PAULI_X, PAULI_Y, haar_unitary, random_hermitian


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


# malformed changes of a valid affine spec (see malformed_spec): the entry at
# a path of keys, and the value it is set to
MALFORMED_SPECS = {
    "rho0 not an array": (("rho0",), "abc"),
    "rho0 not square": (("rho0",), [[[0.5, 0.0], [0.0, 0.0]]]),
    "entry a string": (("rho0", 0, 0), "a"),
    "entry not a pair": (("rho0", 0, 0), [0.5]),
    "entry NaN": (("basis", 0, 0, 1), ["NaN", 0]),
    "basis not a list": (("basis",), 5),
    "basis empty": (("basis",), []),
    "dim not an integer": (("dim",), [3]),
    "domain not an object": (("domain",), 3),
    "box without bounds": (("domain",), {"kind": "box"}),
    "box bounds ragged": (("domain",), {"kind": "box", "bounds": [[0], [1, 2]]}),
    "box bounds too few": (("domain",), {"kind": "box", "bounds": [[-1, 1]]}),
    "box lo above hi": (("domain",), {"kind": "box", "bounds": [[0.5, 0.1], [-1, 1]]}),
    "box bound infinite": (("domain",), {"kind": "box", "bounds": [[-math.inf, 1], [-1, 1]]}),
    "ball radius negative": (("domain", "radius"), -1),
    "ball radius infinite": (("domain", "radius"), math.inf),
}


def malformed_spec(name):
    """The spec of affine_model(1/2, [X/2, Y/2]) with MALFORMED_SPECS[name] made."""
    spec = model_to_spec(affine_model(0.5 * np.eye(2), [0.5 * PAULI_X, 0.5 * PAULI_Y]))
    (*keys, last), value = MALFORMED_SPECS[name]
    entry = spec
    for key in keys:
        entry = entry[key]
    entry[last] = value
    return spec


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


def random_qubit_pair_model(rng, scale, radius):
    """Random affine two-parameter qubit family: rho0 of spectrum w + 0.2
    (normalized) in a Haar basis, directions scale * random traceless."""
    w = rng.random(2) + 0.2
    u = haar_unitary(2, rng)
    return affine_model((u * (w / w.sum())) @ u.conj().T,
                        [scale * random_hermitian(2, rng, traceless=True) for _ in range(2)],
                        Domain("ball", radius=radius, dim=2))


def suzuki_bound(model, thetas, g):
    """Holevo bound C_G of a two-parameter qubit model at each point of a
    stack (n, 2), closed form (Suzuki, J. Math. Phys. 57, 042201 (2016)):
    C_R if C_R >= (C_Z + C_S)/2, else C_R + ((C_Z + C_S)/2 - C_R)^2 /
    (C_Z - C_R), with the SLD bound C_S, C_Z at the SLD collection
    X = J_S^-1 L and the RLD bound C_R at J_R^-1, (J_R)_ij =
    tr(d_i rho rho^-1 d_j rho).  For p = 2, trace abs Im(G^1/2 Z G^1/2) is
    2 sqrt(det G) |Im Z_12|."""
    rho, drho = model.state(thetas), model.derivs(thetas)
    lams = sld_from_state(rho, drho)
    jinv = np.linalg.inv(np.einsum("nab,nibc,njca->nij", rho, lams, lams).real)
    xs = np.einsum("njk,nkab->njab", jinv, lams)

    def bound(z):
        return (np.einsum("ij,nji->n", g, z.real)
                + 2.0 * np.sqrt(np.linalg.det(g)) * np.abs(z[:, 0, 1].imag))

    c_s = np.einsum("ij,nji->n", g, jinv)
    c_z = bound(np.einsum("nab,nibc,njca->nij", rho, xs, xs))
    c_r = bound(np.linalg.inv(np.einsum("niab,nbc,njca->nij", drho, np.linalg.inv(rho), drho)))
    mid = 0.5 * (c_z + c_s)
    second = c_r < mid
    return np.where(second, c_r + (mid - c_r) ** 2 / np.where(second, c_z - c_r, 1.0), c_r)


def fd_jacobian(fn, theta, step=1e-6):
    theta = np.asarray(theta, dtype=float)
    cols = []
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        cols.append((np.asarray(fn(theta + e)) - np.asarray(fn(theta - e))) / (2 * step))
    return np.stack(cols, axis=-1)
