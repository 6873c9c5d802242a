"""Seeded inputs of the benchmark workloads, as plain JSON-able data.

Every input comes from the workload name and the ``--seed`` argument through
``zlib.crc32`` and ``random.Random(int)``, never through ``hash()``, so one
seed names the same inputs under every ``PYTHONHASHSEED``.  This module
imports nothing from ``latticesum``: ``run.py`` regenerates a run's inputs in
two fresh interpreters with different hash seeds and compares digests.

    python3 bench/inputs.py WORKLOAD SEED COUNT   # digest of the first COUNT inputs
"""

import hashlib
import json
import random
import sys
import zlib

# The polytope corpus of the test suite (tests/conftest.py), copied so that
# the benchmark does not import the tests.  name -> (normals, offsets)
SWEEP_POLYTOPES = {
    "unit_square": ([[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, 1, 1]),
    "simplex2_1x": ([[1, 0], [0, 1], [-1, -1]], [0, 0, 1]),
    "simplex2_2x": ([[1, 0], [0, 1], [-1, -1]], [0, 0, 2]),
    "simplex2_3x": ([[1, 0], [0, 1], [-1, -1]], [0, 0, 3]),
    "simplex2_4x": ([[1, 0], [0, 1], [-1, -1]], [0, 0, 4]),
    "unit_cube": (
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [0, 0, 0, 1, 1, 1],
    ),
    "nonregular_triangle": ([[1, 0], [0, 1], [-2, -1]], [0, 0, 2]),
    "nonregular_simplex3": (
        [[0, 0, 1], [0, 2, -1], [2, 0, -1], [-2, -2, 1]], [0, 0, 0, 2]
    ),
}
SWEEP_DEGREE = 4

# Non-unimodular simplices whose vertex groups are large and coprime, so
# that operator assembly and cyclotomic arithmetic dominate the exact path.
GROUP_POLYTOPES = {
    "tri_7_11": ([[1, 0], [0, 1], [-7, -11]], [0, 0, 77]),
    "tri_11_13": ([[1, 0], [0, 1], [-11, -13]], [0, 0, 143]),
    "s3_1_3_4": ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-12, -4, -3]], [0, 0, 0, 12]),
    "s3_2_3_5": ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-15, -10, -6]], [0, 0, 0, 30]),
}
GROUPS_DEGREE = 2

# Acceptance 8: the x3 triangle and a Gaussian bump around (1, 2).
SMOOTH_TRIANGLE = ([[1, 0], [0, 1], [-2, -1]], [0, 0, 6])
SMOOTH_CENTER = (1.0, 2.0)
# Offsets are multiples of 1/OFFSET_DENOM in [-OFFSET_STEPS, OFFSET_STEPS]:
# distinct bumps, which sympy cannot serve from its cache, whose integrands
# differ too little to change the quadrature levels a call reaches.
OFFSET_DENOM = 2**20
OFFSET_STEPS = 64

# The README triangle and the CLI answers known for it.
README_TRIANGLE = '{"dim": 2, "normals": [[1,0],[0,1],[-2,-1]], "offsets": [0,0,2]}'
QVALUES_7 = {
    "linear": "CyclotomicNumber(order=7, coeffs=['5/14', '5/7', '4/7', '3/7', '2/7', '1/7'])",
    "Q_2(0)": "CyclotomicNumber(order=7, coeffs=['3/7', '0', '-2/7', '-3/7', '-3/7', '-2/7'])",
    "Q_3(0)": "CyclotomicNumber(order=7, coeffs=['-5/14', '-5/7', '-5/7', '-1/2', '-3/14', '0'])",
    "Q_4(0)": "CyclotomicNumber(order=7, coeffs=['-3/14', '0', '8/21', '9/14', '9/14', '8/21'])",
    "Q_5(0)": "CyclotomicNumber(order=7, coeffs=['67/168', '67/84', '73/84', '101/168', '11/56', '-1/14'])",
    "Q_6(0)": "CyclotomicNumber(order=7, coeffs=['61/280', '0', '-7/15', '-33/40', '-33/40', '-7/15'])",
    "Q_7(0)": "CyclotomicNumber(order=7, coeffs=['-3391/7056', '-3391/3528', '-3781/3528', '-26149/35280', '-2587/11760', '65/588'])",
    "Q_8(0)": "CyclotomicNumber(order=7, coeffs=['-3043/11760', '0', '2537/4410', '4043/3920', '4043/3920', '2537/4410'])",
}
# name -> (arguments after "python -m latticesum.cli", expected JSON fields)
CLI_COMMANDS = {
    "sum": (
        ["sum", "--polytope", README_TRIANGLE, "--poly", "x1^2 + 3/2*x2"],
        {"sum": "7/4"},
    ),
    "count": (
        ["count", "--polytope", README_TRIANGLE],
        {"weighted": "5/4", "unweighted": 4},
    ),
    "validate": (["validate", "--polytope", README_TRIANGLE], {"valid": True}),
    "qvalues": (["tables", "qvalues", "--order", "7", "--max", "8"], QVALUES_7),
}
# Untimed process of the cli-cold set-up: compiles and caches the modules.
CLI_WARMUP = ["tables", "bernoulli", "--max", "2"]

WORKLOADS = ("exact-sweep", "exact-groups", "smooth-verify", "cli-cold")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(zlib.crc32(f"{workload}:{seed}".encode()))


def _polynomial(rng: random.Random, dim: int, degree: int) -> list:
    """One monomial of each degree 0..degree, with a random nonzero coefficient.

    The coefficients are random, the monomials are not: the degree is spread
    evenly over the variables (x1^2*x2*x3 for degree 4 in three variables).
    The cost of a sum depends on the monomials, so fixing them keeps a call's
    cost nearly constant; with the test suite's 1-6 random terms of random
    degree it varies over an order of magnitude, and one run's median would
    depend on the seed.  The exact path still sees fresh polynomials, whose
    I(h) is not cached.
    """
    return [
        [[d // dim + (1 if j < d % dim else 0) for j in range(dim)],
         rng.choice([c for c in range(-9, 10) if c])]
        for d in range(degree + 1)
    ]


def stream(workload: str, seed: int):
    """Endless stream of per-call inputs; the exact workloads warm up on the first."""
    rng = _rng(workload, seed)
    if workload in ("exact-sweep", "exact-groups"):
        polytopes, degree = (
            (SWEEP_POLYTOPES, SWEEP_DEGREE) if workload == "exact-sweep"
            else (GROUP_POLYTOPES, GROUPS_DEGREE)
        )
        while True:
            yield {
                name: _polynomial(rng, len(normals[0]), degree)
                for name, (normals, _) in polytopes.items()
            }
    elif workload == "smooth-verify":
        seen = set()
        while True:
            off = (rng.randint(-OFFSET_STEPS, OFFSET_STEPS),
                   rng.randint(-OFFSET_STEPS, OFFSET_STEPS))
            if off in seen:  # bumps must differ: sympy caches repeated ones
                continue
            seen.add(off)
            yield [c + o / OFFSET_DENOM for c, o in zip(SMOOTH_CENTER, off)]
    elif workload == "cli-cold":
        while True:
            order = sorted(CLI_COMMANDS)
            rng.shuffle(order)
            yield order
    else:
        raise ValueError(f"unknown workload {workload!r}")


class Digest:
    """SHA-256 over the canonical JSON of each input drawn."""

    def __init__(self):
        self._h = hashlib.sha256()
        self.count = 0

    def add(self, item) -> None:
        self._h.update(json.dumps(item, sort_keys=True).encode())
        self._h.update(b"\n")
        self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def digest(workload: str, seed: int, count: int) -> str:
    d = Digest()
    for _, item in zip(range(count), stream(workload, seed)):
        d.add(item)
    return d.hexdigest()


if __name__ == "__main__":
    print(digest(sys.argv[1], int(sys.argv[2]), int(sys.argv[3])))
