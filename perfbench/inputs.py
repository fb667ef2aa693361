"""Seeded benchmark inputs: synthetic electronic FCIDUMP files.

Each instance is a random spatial-orbital Hamiltonian with one-body
integrals h_ij ~ N(0, 0.3^2) and two-body integrals (ij|kl) ~ N(0, 0.05^2),
one draw per 8-fold symmetry class, stored through
`ElectronicIntegrals.set_two_body` and written with `write_fcidump`. Every
integral is nonzero, so the Jordan-Wigner term count depends only on norb.
The program under test sees only the written files and its argv.
"""

from __future__ import annotations

import numpy as np

from hampart.operators import ElectronicIntegrals, write_fcidump


def electronic_integrals(norb: int, seed: int) -> ElectronicIntegrals:
    rng = np.random.default_rng([seed, norb])
    ints = ElectronicIntegrals(norb=norb)
    for i in range(norb):
        for j in range(i, norb):
            ints.set_one_body(i, j, float(rng.normal(0.0, 0.3)))
    pairs = [(i, j) for i in range(norb) for j in range(i + 1)]
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[: a + 1]:
            ints.set_two_body(i, j, k, l, float(rng.normal(0.0, 0.05)))
    return ints


def write_electronic(path, norb: int, seed: int) -> None:
    write_fcidump(path, electronic_integrals(norb, seed))
