"""Recompute the Monte Carlo reference value of S_3(0.2+0.3i).

The Vandermonde-form S_3 integral is sampled with numpy's Beta sampler
(Generator.beta, a ratio of gamma variates), independent of the squared
uniforms of ising_lab.integrals._mc_core: x_i ~ Beta(1/2, 3/2) absorbs the
x^(-1/2) (1-x)^(1/2) part of Lambda_1(x), y_i ~ Beta(3/2, 1/2) the
y^(1/2) (1-y)^(-1/2) part of 1/Lambda_1(y), each with normalizer pi/2.
What remains per point is

    u/(1 - kappa^n u) Delta(x)^2 Delta(y)^2 / prod_(i,j) (1 - kappa x_i y_j)^2
    * prod_i sqrt(1 - kappa x_i) / sqrt(1 - kappa y_i),   u = prod x_i y_i,

principal roots.  The value is the mean of `batches` independent batch
means times (pi/2)^(2n) and the prefactor kappa^(n(n+1)) / (n!^2 pi^(2n));
its standard error is the spread of the batch means over sqrt(batches).

Run from the root of a checkout (about 20 s on one core):

    python3 scripts/s3_reference.py                  # 40 x 500 000 samples
    python3 scripts/s3_reference.py --batches 4 --samples 100000
"""
from __future__ import annotations

import argparse
import math

import numpy as np

KAPPA = 0.2 + 0.3j
N = 3
CHUNK = 100_000


def _points(rng, m: int, n: int, kappa: complex) -> np.ndarray:
    """The integrand over the Beta proposals at m points, prefactor and the
    normalizers excluded."""
    X = rng.beta(0.5, 1.5, size=(n, m))
    Y = rng.beta(1.5, 0.5, size=(n, m))
    u = np.prod(X, axis=0) * np.prod(Y, axis=0)
    vals = u / (1.0 - kappa**n * u)
    for i in range(n):
        vals = vals * np.sqrt(1.0 - kappa * X[i]) / np.sqrt(1.0 - kappa * Y[i])
        for j in range(n):
            c = 1.0 - kappa * X[i] * Y[j]
            vals = vals / (c * c)
            if i < j:
                vals = vals * ((X[j] - X[i]) * (Y[j] - Y[i])) ** 2
    return vals


def reference(batches: int, samples: int, seed: int, kappa: complex = KAPPA, n: int = N):
    """(value, standard error) of S_n(kappa) from batches x samples points."""
    rng = np.random.default_rng(seed)
    scale = (math.pi / 2.0) ** (2 * n) * kappa ** (n * (n + 1)) / (
        math.factorial(n) ** 2 * math.pi ** (2 * n))
    means = []
    for _ in range(batches):
        total, done = 0j, 0
        while done < samples:
            c = min(CHUNK, samples - done)
            total += _points(rng, c, n, kappa).sum()
            done += c
        means.append(scale * total / samples)
    means = np.array(means)
    value = complex(means.mean())
    se = math.sqrt(np.sum(np.abs(means - value) ** 2) / (batches - 1) / batches)
    return value, se


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--batches", type=int, default=40)
    ap.add_argument("--samples", type=int, default=500_000, help="samples per batch")
    ap.add_argument("--seed", type=int, default=20240814)
    args = ap.parse_args()
    value, se = reference(args.batches, args.samples, args.seed)
    print(f"S_3(0.2+0.3i) = complex({value.real!r}, {value.imag!r})  SE {se:.3g}")


if __name__ == "__main__":
    main()
