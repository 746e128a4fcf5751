"""`float.__repr__` as the oracle for the digits that `cli._shortest_digits`
finds for the outcomes.csv and trajectories.csv coordinates.

Run as a script, it compares the kernel with `repr` on N seeded draws of
each of five kinds and prints the disagreements and fallbacks (values the
kernel leaves to `repr`) per kind; the exit status is 1 on any disagreement:

    PYTHONPATH=src python tests/repr_oracle.py [N]

The kinds are uniform draws in [0, 1), as the eraser's sampler makes them;
uniform bit patterns of the doubles in [1e-4, 1); uniform draws in
[1e-4, 1) rounded to 1-15 significant digits, kept where they stay in that
range; and, as trajectories.csv coordinates can be, signed values: uniform
draws within a uniformly drawn decade from 1e-4 to 1e15, and uniform bit
patterns of the doubles in [1e-4, 1e15), each with a random sign.  A value
agrees when the kernel's digits, placed as its contract says, and the
pieces that `cli._fixed_parts` gives the trajectory writer both spell
`repr(x)`.
"""

import sys

import numpy as np

from qfoundations.cli import _fixed_parts, _shortest_digits

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


def signed_decades(rng, n):
    decades = np.array([float(f"1e{j}") for j in range(-4, 16)])
    j = rng.integers(0, decades.size - 1, n)
    x = decades[j] + (decades[j + 1] - decades[j]) * rng.random(n)
    x = np.minimum(x, np.nextafter(decades[j + 1], 0.0))
    return np.where(rng.random(n) < 0.5, -x, x)


def signed_bit_patterns(rng, n):
    low, high = np.array([1e-4, 1e15]).view(np.int64)
    x = rng.integers(low, high, n).view(np.float64)
    return np.where(rng.random(n) < 0.5, -x, x)


def spelled(v, d, z):
    """|v| == d * 10^-(z + len(str(d))), spelled as repr spells it."""
    s = str(d)
    places = z + len(s)
    if places <= 0:
        text = s + "0" * -places + ".0"
    elif places >= len(s):
        text = "0." + "0" * (places - len(s)) + s
    else:
        text = s[:-places] + "." + s[-places:]
    return ("-" if np.signbit(v) else "") + text


def compare(x):
    """(disagreements, fallbacks) of the kernel against repr on x."""
    digits, zeros, ok = _shortest_digits(x)
    wrong = sum(
        spelled(v, d, z) != repr(v)
        for v, d, z in zip(x[ok].tolist(), digits[ok].tolist(), zeros[ok].tolist())
    )
    wrong += sum(f"{s}{w}{p}{f}" != repr(v) for v, s, w, p, f in zip(x.tolist(), *_fixed_parts(x)))
    return wrong, int((~ok).sum())


def main(n: int) -> int:
    print(f"values per kind: {n} (chunks of {_CHUNK}, seed 0)")
    failed = False
    for kind in (uniform, bit_patterns, short_decimals, signed_decades, signed_bit_patterns):
        rng = np.random.default_rng(0)
        checked = wrong = fallback = 0
        for start in range(0, n, _CHUNK):
            x = kind(rng, min(_CHUNK, n - start))
            w, f = compare(x)
            checked, wrong, fallback = checked + x.size, wrong + w, fallback + f
        print(f"{kind.__name__:<19} values={checked} disagreements={wrong} fallbacks={fallback}")
        failed |= wrong > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000))
