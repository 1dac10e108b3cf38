"""Negacyclic ring arithmetic: NTT slot packing over Z_p, RNS polys over Z_q.

Polynomials live in R_m = Z_m[x]/(x^N + 1).  Since every modulus here is
1 mod 2N, x^N + 1 splits into N linear factors and the negacyclic NTT gives
a slot (CRT) representation in which multiplication is component-wise.
Multiplication in coefficient form uses an exact limb-split FFT so that it
works for any 62-bit modulus without a per-modulus NTT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codec import Reader, Writer
from .params import ProtocolParams


class DimensionError(ValueError):
    pass


class ModulusError(ValueError):
    pass


# -- number theoretic transform ----------------------------------------------


def _modexp(x: int, e: int, m: int) -> int:
    return pow(x, e, m)


def _bitrev(x: int, bits: int) -> int:
    y = 0
    for _ in range(bits):
        y = (y << 1) | (x & 1)
        x >>= 1
    return y


def _find_root_2n(n: int, p: int) -> int:
    """Generator of order 2n in Z_p* (exists since p = 1 mod 2n)."""
    r = (p - 1) // (2 * n)
    for x in range(2, p - 1):
        h = _modexp(x, r, p)
        if _modexp(h, n, p) == p - 1:
            return h
    raise ModulusError(f"no element of order {2 * n} mod {p}")


class NttContext:
    """Precomputed twiddle tables for the negacyclic NTT mod one prime.

    Built once per (p, n) and read-only afterwards, so instances are safe
    to share between threads.
    """

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        logn = n.bit_length() - 1
        h = _find_root_2n(n, p)
        # bit-reversed powers of h; the inverse pass walks the same table
        # backwards with the sign folded into the butterfly
        self.w = [_modexp(h, _bitrev(i, logn), p) for i in range(n)]
        self.n_inv = pow(n, p - 2, p)

    def ntt(self, f: np.ndarray) -> np.ndarray:
        """Forward negacyclic NTT; output order defines the slot order."""
        return self._ntt_py(f, forward=True)

    def intt(self, f: np.ndarray) -> np.ndarray:
        return self._ntt_py(f, forward=False)

    def _ntt_py(self, arr: np.ndarray, forward: bool) -> np.ndarray:
        p, n = self.p, self.n
        f = [int(v) for v in arr]
        if forward:
            w = self.w
            l, wi = n // 2, 0
            while l > 0:
                for i in range(0, n, 2 * l):
                    wi += 1
                    z = w[wi]
                    for j in range(i, i + l):
                        x = f[j]
                        y = f[j + l] * z % p
                        f[j] = (x + y) % p
                        f[j + l] = (x - y) % p
                l >>= 1
        else:
            w = self.w
            l, wi = 1, n
            while l < n:
                for i in range(0, n, 2 * l):
                    wi -= 1
                    z = w[wi]
                    for j in range(i, i + l):
                        x = f[j]
                        y = f[j + l]
                        f[j] = (x + y) % p
                        f[j + l] = (y - x) * z % p
                l <<= 1
            ninv = self.n_inv
            f = [v * ninv % p for v in f]
        return np.array(f, dtype=np.int64)


@lru_cache(maxsize=32)
def ntt_context(p: int, n: int) -> NttContext:
    return NttContext(p, n)


# -- exact coefficient-form multiplication -----------------------------------

_LIMB_BITS = 15
_LIMB_MASK = (1 << _LIMB_BITS) - 1


def negacyclic_mul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Exact a*b mod (x^N + 1, m) via limb-split real FFT.

    Limbs are 15 bits so every diagonal accumulation stays well inside the
    53-bit float mantissa (max ~2^43 at N=8192 plus FFT roundoff).
    """
    n = len(a)
    n_limbs = (max(int(a.max()), int(b.max()), 1).bit_length()
               + _LIMB_BITS - 1) // _LIMB_BITS
    fa = np.empty((n_limbs, 2 * n))
    fb = np.empty((n_limbs, 2 * n))
    aa, bb = a.astype(np.int64), b.astype(np.int64)
    for k in range(n_limbs):
        fa[k, :n] = (aa >> (_LIMB_BITS * k)) & _LIMB_MASK
        fa[k, n:] = 0.0
        fb[k, :n] = (bb >> (_LIMB_BITS * k)) & _LIMB_MASK
        fb[k, n:] = 0.0
    FA = np.fft.rfft(fa, axis=1)
    FB = np.fft.rfft(fb, axis=1)
    n_diag = 2 * n_limbs - 1
    diag = np.zeros((n_diag, FA.shape[1]), dtype=complex)
    for i in range(n_limbs):
        for j in range(n_limbs):
            diag[i + j] += FA[i] * FB[j]
    conv = np.fft.irfft(diag, n=2 * n, axis=1)
    folded = np.rint(conv[:, :n] - conv[:, n:]).astype(np.int64).astype(object)
    out = folded[0]
    for d in range(1, n_diag):
        out = out + (folded[d] << (_LIMB_BITS * d))
    return np.array([int(v) % m for v in out], dtype=object if m >> 62 else np.int64)


def schoolbook_negacyclic(a, b, m: int) -> list[int]:
    """Quadratic reference for the FFT/NTT paths (tests only)."""
    n = len(a)
    t = [0] * (2 * n)
    for i in range(n):
        for j in range(n):
            t[i + j] += int(a[i]) * int(b[j])
    return [(t[i] - t[i + n]) % m for i in range(n)]


# -- RNS / CRT helpers ---------------------------------------------------------


class RnsContext:
    """CRT basis for reconstructing big integers from per-prime residues."""

    def __init__(self, primes: tuple[int, ...]):
        self.primes = primes
        self.q = 1
        for qi in primes:
            self.q *= qi
        self.basis = []
        for qi in primes:
            mi = self.q // qi
            self.basis.append(mi * pow(mi, -1, qi) % self.q)

    def combine(self, residues: tuple[int, ...]) -> int:
        acc = 0
        for r, b in zip(residues, self.basis):
            acc += int(r) * b
        return acc % self.q


@lru_cache(maxsize=16)
def rns_context(primes: tuple[int, ...]) -> RnsContext:
    return RnsContext(primes)


# -- ring elements --------------------------------------------------------------

COEFF = "coeff"
SLOT = "slot"


@dataclass
class RingPoly:
    """Element of R_p (coeff or slot form) or R_q (RNS residues, coeff form).

    Instances are treated as immutable; every operation returns a new poly.
    """

    params: ProtocolParams
    tag: str  # "p" | "q"
    form: str  # COEFF | SLOT
    data: object  # np.ndarray for p, tuple[np.ndarray, ...] for q

    # construction ----------------------------------------------------------

    @classmethod
    def zero(cls, params: ProtocolParams, tag: str = "p") -> "RingPoly":
        n = params.n_ring
        if tag == "p":
            return cls(params, "p", COEFF, np.zeros(n, dtype=np.int64))
        return cls(params, "q", COEFF,
                   tuple(np.zeros(n, dtype=np.int64) for _ in params.q_primes))

    @classmethod
    def from_coeffs(cls, params: ProtocolParams, coeffs, tag: str = "p") -> "RingPoly":
        n = params.n_ring
        if len(coeffs) != n:
            raise DimensionError(f"expected {n} coefficients, got {len(coeffs)}")
        if tag == "p":
            arr = np.array([int(c) % params.p for c in coeffs], dtype=np.int64)
            return cls(params, "p", COEFF, arr)
        res = tuple(
            np.array([int(c) % qi for c in coeffs], dtype=np.int64)
            for qi in params.q_primes
        )
        return cls(params, "q", COEFF, res)

    @classmethod
    def random(cls, params: ProtocolParams, rng, tag: str = "p") -> "RingPoly":
        n = params.n_ring
        if tag == "p":
            arr = np.array([rng.randrange(params.p) for _ in range(n)], dtype=np.int64)
            return cls(params, "p", COEFF, arr)
        res = tuple(
            np.array([rng.randrange(qi) for _ in range(n)], dtype=np.int64)
            for qi in params.q_primes
        )
        return cls(params, "q", COEFF, res)

    # representation ----------------------------------------------------------

    def to_slots(self) -> "RingPoly":
        if self.tag != "p":
            raise ModulusError("slot form exists only for mod-p polynomials")
        if self.form == SLOT:
            return self
        ctx = ntt_context(self.params.p, self.params.n_ring)
        return RingPoly(self.params, "p", SLOT, ctx.ntt(self.data))

    def to_coeffs(self) -> "RingPoly":
        if self.form == COEFF:
            return self
        ctx = ntt_context(self.params.p, self.params.n_ring)
        return RingPoly(self.params, "p", COEFF, ctx.intt(self.data))

    def lift_to_q(self, centered: bool = True) -> "RingPoly":
        """Embed a mod-p coefficient poly into R_q (centered lift keeps noise small)."""
        if self.tag != "p" or self.form != COEFF:
            raise ModulusError("lift_to_q needs a mod-p coefficient poly")
        p = self.params.p
        vals = self.data.astype(object)
        if centered:
            vals = np.where(vals > p // 2, vals - p, vals)
        res = tuple(
            np.array([int(v) % qi for v in vals], dtype=np.int64)
            for qi in self.params.q_primes
        )
        return RingPoly(self.params, "q", COEFF, res)

    # arithmetic ---------------------------------------------------------------

    def _check(self, other: "RingPoly"):
        if self.tag != other.tag:
            raise ModulusError(f"modulus mismatch: {self.tag} vs {other.tag}")
        if self.tag == "p" and self.form != other.form:
            raise ModulusError(f"representation mismatch: {self.form} vs {other.form}")

    def __add__(self, other: "RingPoly") -> "RingPoly":
        self._check(other)
        if self.tag == "p":
            return RingPoly(self.params, "p", self.form,
                            (self.data + other.data) % self.params.p)
        res = tuple((a + b) % qi for a, b, qi in
                    zip(self.data, other.data, self.params.q_primes))
        return RingPoly(self.params, "q", COEFF, res)

    def __sub__(self, other: "RingPoly") -> "RingPoly":
        self._check(other)
        if self.tag == "p":
            return RingPoly(self.params, "p", self.form,
                            (self.data - other.data) % self.params.p)
        res = tuple((a - b) % qi for a, b, qi in
                    zip(self.data, other.data, self.params.q_primes))
        return RingPoly(self.params, "q", COEFF, res)

    def __neg__(self) -> "RingPoly":
        return RingPoly.zero(self.params, self.tag) - self if self.tag == "q" else \
            RingPoly(self.params, "p", self.form, (-self.data) % self.params.p)

    def __mul__(self, other: "RingPoly") -> "RingPoly":
        self._check(other)
        if self.tag == "p":
            if self.form == SLOT:
                prod = np.array(
                    [int(a) * int(b) % self.params.p
                     for a, b in zip(self.data, other.data)], dtype=np.int64)
                return RingPoly(self.params, "p", SLOT, prod)
            return RingPoly(self.params, "p", COEFF,
                            negacyclic_mul(self.data, other.data, self.params.p))
        res = tuple(negacyclic_mul(a, b, qi) for a, b, qi in
                    zip(self.data, other.data, self.params.q_primes))
        return RingPoly(self.params, "q", COEFF, res)

    def scale(self, c: int) -> "RingPoly":
        if self.tag == "p":
            c %= self.params.p
            out = np.array([int(v) * c % self.params.p for v in self.data],
                           dtype=np.int64)
            return RingPoly(self.params, "p", self.form, out)
        res = tuple(
            np.array([int(v) * (c % qi) % qi for v in arr], dtype=np.int64)
            for arr, qi in zip(self.data, self.params.q_primes))
        return RingPoly(self.params, "q", COEFF, res)

    def coeff_ints(self) -> list[int]:
        """Coefficients as big ints (CRT-combined for mod-q polys)."""
        if self.tag == "p":
            return [int(v) for v in self.to_coeffs().data]
        ctx = rns_context(self.params.q_primes)
        n = self.params.n_ring
        return [ctx.combine(tuple(int(arr[i]) for arr in self.data))
                for i in range(n)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingPoly) or self.tag != other.tag:
            return False
        if self.tag == "p":
            a = self.to_coeffs().data
            b = other.to_coeffs().data
            return bool(np.array_equal(a, b))
        return all(np.array_equal(a, b) for a, b in zip(self.data, other.data))

    # serialization ---------------------------------------------------------------
    # magic, tag, form, n_primes (u16), N (u64): 16 bytes, then the u64 words

    @staticmethod
    def wire_size(params: ProtocolParams, tag: str) -> int:
        """Serialized length of one poly of this tag."""
        return 16 + 8 * params.n_ring * (len(params.q_primes) if tag == "q" else 1)

    def serialize(self) -> bytes:
        arrays = [self.data] if self.tag == "p" else list(self.data)
        w = Writer().raw(b"RPL1").u8(0 if self.tag == "p" else 1)
        w.u8(0 if self.form == COEFF else 1).u16(len(arrays)).u64(self.params.n_ring)
        for arr in arrays:
            w.raw(arr.astype("<u8").tobytes())
        return w.getvalue()

    @classmethod
    def deserialize(cls, params: ProtocolParams, buf: bytes) -> "RingPoly":
        with Reader(buf) as r:
            magic, tag_code, form_code, n_primes, n = (r.raw(4), r.u8(), r.u8(),
                                                       r.u16(), r.u64())
            if magic != b"RPL1" or tag_code > 1:
                raise ValueError("bad polynomial header")
            if n != params.n_ring:
                raise DimensionError(f"serialized N={n} != params N={params.n_ring}")
            if n_primes != (len(params.q_primes) if tag_code else 1):
                raise ValueError(f"bad prime count {n_primes}")
            words = np.frombuffer(r.raw(8 * n * n_primes), dtype="<u8").astype(np.int64)
        if tag_code == 0:
            return cls(params, "p", SLOT if form_code else COEFF, words)
        return cls(params, "q", COEFF, tuple(words.reshape(n_primes, n)))


# -- vector <-> slot packing ------------------------------------------------------


def vec_to_poly(params: ProtocolParams, v) -> RingPoly:
    """Unique polynomial whose leading CRT slots equal v (rest zero)."""
    n = params.n_ring
    if len(v) > n:
        raise DimensionError(f"vector length {len(v)} exceeds ring dimension {n}")
    slots = np.zeros(n, dtype=np.int64)
    for i, x in enumerate(v):
        slots[i] = int(x) % params.p
    return RingPoly(params, "p", SLOT, slots).to_coeffs()


def poly_to_vec(poly: RingPoly) -> np.ndarray:
    """All N slot values of a mod-p polynomial."""
    if poly.tag != "p":
        raise ModulusError("poly_to_vec requires a mod-p polynomial")
    return poly.to_slots().data.copy()
