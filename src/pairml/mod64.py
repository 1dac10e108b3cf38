"""Exact modular arithmetic on uint64 numpy arrays, for any modulus m < 2^62:
the host's R_q arithmetic (`ring`) and products mod p (`vecmat`), and the
enclaves' 3PC mod p (`shares3`).  Residues are < m, so a sum of two stays
below 2^64 and a wrapped difference is larger than the unwrapped one.

Every product is Shoup's: x * w mod m for a residue w estimates x w / m
from 32-bit halves of w' = floor(w 2^64 / m), then corrects.  Constants
known ahead get w' from Python ints (`shoup`), and residues that vary get
it in uint64 (`prepare`) as (w 2^64 mod m)(-m^-1) mod 2^64, w < m: one
Shoup product by 2^64 mod m and one wrapping multiply.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_LO32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def add(a, b, m):
    s = a + b
    return np.minimum(s, s - m)


def sub(a, b, m):
    d = a - b
    return np.minimum(d, d + m)


def shoup(w, m):
    """Constants for multiplying by w mod m: w and the 32-bit halves of
    floor(w 2^64 / m), as uint64 arrays shaped like w (ints or nested lists),
    computed with Python ints."""
    w = np.array(w, dtype=object)
    ws = np.array((w << 64) // np.array(m, dtype=object), dtype=object)
    return tuple(np.array(x, dtype=object).astype(np.uint64)
                 for x in (w, ws & 0xFFFFFFFF, ws >> 32))


def mul_shoup(x, w, w_lo, w_hi, m):
    """x * w mod m for any uint64 x and a constant w < m.

    The quotient estimate drops the carries of the low partial products, so
    it is at most 3 short: r lies in [0, 4m) before the two subtractions.
    """
    x_lo, x_hi = x & _LO32, x >> _32
    q = x_hi * w_hi + ((x_lo * w_hi) >> _32) + ((x_hi * w_lo) >> _32)
    r = x * w - q * m
    r = np.minimum(r, r - (m + m))
    return np.minimum(r, r - m)


def reciprocal(m):
    """What `prepare` needs of the moduli m (ints, shaped like the arrays
    they reduce): the constants of 2^64 mod m, and -m^-1 mod 2^64."""
    m = np.array(m, dtype=object)
    neg_inv = np.frompyfunc(lambda v: -pow(v, -1, 1 << 64) % (1 << 64), 1, 1)
    return shoup((1 << 64) % m, m), neg_inv(m).astype(np.uint64)


def prepare(w, recip, m):
    """`shoup(w, m)` for residues w < m, in uint64, from `reciprocal(m)`."""
    r64, neg_inv = recip
    q = mul_shoup(w, *r64, m) * neg_inv
    return w, q & _LO32, q >> _32


@cache
def _reciprocal(m: int):
    return reciprocal([m])


def vecmat(x, w, m):
    """x @ w mod m for a vector x and an (n, k) matrix w of residues < m: row
    i of w times the Shoup constant of x[i], the rows then summed pairwise,
    each sum reduced, so the product is exact at any row count."""
    x, w = np.asarray(x, dtype=np.uint64), np.asarray(w, dtype=np.uint64)
    if x.shape != w.shape[:1]:
        raise ValueError(f"a vector of {x.shape} times a matrix of {w.shape}")
    prods = mul_shoup(w, *(c[:, None] for c in prepare(x, _reciprocal(m), m)), m)
    while len(prods) > 1:  # row i plus row i + ceil(n/2); an odd middle row waits
        n, h = len(prods), len(prods) // 2
        prods = np.concatenate([add(prods[:h], prods[n - h:], m), prods[h:n - h]])
    return prods.sum(axis=0)  # the one row left, or zeros for none
