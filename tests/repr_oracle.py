"""`float.__repr__` as the oracle for the digits that `cli._shortest_digits`
finds for the outcomes.csv coordinates.

Run as a script, it compares the kernel with `repr` on N seeded draws of
each of three kinds and prints the disagreements and fallbacks (values the
kernel leaves to `repr`) per kind; the exit status is 1 on any disagreement:

    PYTHONPATH=src python tests/repr_oracle.py [N]

The kinds are uniform draws in [0, 1), as the sampler makes them; uniform
bit patterns of the doubles in [1e-4, 1); and uniform draws in [1e-4, 1)
rounded to 1-15 significant digits, kept where they stay in that range.
"""

import sys

import numpy as np

from qfoundations.cli import _shortest_digits

_CHUNK = 100_000


def uniform(rng, n):
    return rng.random(n)


def bit_patterns(rng, n):
    low, high = np.array([1e-4, 1.0]).view(np.int64)
    return rng.integers(low, high, n).view(np.float64)


def short_decimals(rng, n):
    x = 1e-4 + (1 - 1e-4) * rng.random(n)
    places = rng.integers(1, 16, n)
    short = np.array([float(f"{v:.{p}g}") for v, p in zip(x.tolist(), places.tolist())])
    return short[(short >= 1e-4) & (short < 1.0)]


def compare(x):
    """(disagreements, fallbacks) of the kernel against repr on x."""
    digits, zeros, ok = _shortest_digits(x)
    wrong = sum(
        "0." + "0" * z + str(d) != repr(v)
        for v, d, z in zip(x[ok].tolist(), digits[ok].tolist(), zeros[ok].tolist())
    )
    return wrong, int((~ok).sum())


def main(n: int) -> int:
    print(f"values per kind: {n} (chunks of {_CHUNK}, seed 0)")
    failed = False
    for kind in (uniform, bit_patterns, short_decimals):
        rng = np.random.default_rng(0)
        checked = wrong = fallback = 0
        for start in range(0, n, _CHUNK):
            x = kind(rng, min(_CHUNK, n - start))
            w, f = compare(x)
            checked, wrong, fallback = checked + x.size, wrong + w, fallback + f
        print(f"{kind.__name__:<15} values={checked} disagreements={wrong} fallbacks={fallback}")
        failed |= wrong > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000))
