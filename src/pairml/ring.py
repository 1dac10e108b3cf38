"""Negacyclic ring arithmetic: R_q polys as RNS residues in NTT form, and
vectors packed into the slots of R_p.

Polynomials live in R_m = Z_m[x]/(x^N + 1).  Every modulus here is a prime
1 mod 2N, so x^N + 1 splits into N linear factors and the negacyclic NTT maps
a poly to its N evaluations, where multiplication is pointwise.

* An R_q poly (`RingPoly`) is held only as its NTT residues: a (primes, N)
  uint64 stack with one row per prime of q.  `+`, `-` and `*` are
  pointwise; `from_coeffs` transforms on the way in and `coeffs` on the way
  out.  The residues are also its wire form, so a poly is made, sent,
  received and multiplied with no transform.
* An R_p plaintext is a plain vector of N mod-p coefficients.  Its NTT mod p
  is the vector of its slots, and `slots_to_coeffs` packs a vector into them.

`NttContext` transforms every row of a stack in one numpy pass, each row mod
its own prime, multiplying by twiddles with Shoup's method.  Both directions
can stop short when only the sums of aligned slot blocks matter: the slots
of an aligned block of b slots are the roots of x^b = zeta, so their sum is
b * g(zeta), where g holds the coefficients at multiples of b.  The inverse
of a row of block sums over b (`block_sums`) therefore returns just those
coefficients, and the forward transform of a row of N/b of them gives the
block sums over b.

Every modular product is Shoup's, by the exact uint64 kernels of `mod64`.
Twiddles are prepared once per context, and `NttContext.shoup(w)` prepares
a variable w, once for all of its products.

`scale_round` computes round(t * p / q) mod p from the residues of t alone
(exact RNS scale-and-round, which needs p | q), with no big integers, for a
poly's coefficients (`RingPoly.round_to_p`) or a stack of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import mod64
from .codec import Reader, Writer
from .params import ProtocolParams


class DimensionError(ValueError):
    pass


class ModulusError(ValueError):
    pass


# -- number theoretic transform -------------------------------------------------


def _find_root_2n(n: int, p: int) -> int:
    """Generator of order 2n in Z_p* (exists since p = 1 mod 2n)."""
    r = (p - 1) // (2 * n)
    for x in range(2, p - 1):
        h = pow(x, r, p)
        if pow(h, n, p) == p - 1:
            return h
    raise ModulusError(f"no element of order {2 * n} mod {p}")


class NttContext:
    """Negacyclic NTT and modular arithmetic on stacks of residue rows.

    Row i of every (rows, N) uint64 array is taken mod primes[i].  Built once
    per (primes, N) and read-only afterwards, so instances are safe to share
    between threads.

    The stage with k blocks pairs positions t and t + N/2k within each block
    and uses one twiddle per block.  So in the first log2(N/b) forward stages
    and the last log2(N/b) inverse stages, positions 0 mod b pair only with
    each other, under the twiddles a row of width N/b sees in the same stages.
    """

    def __init__(self, primes: tuple[int, ...], n: int):
        if any(m >> 62 for m in primes):
            raise ModulusError("NTT primes must be below 2^62")
        self.primes = primes
        self.n = n
        logn = n.bit_length() - 1
        rev = [int(f"{i:0{logn}b}"[::-1], 2) for i in range(n)]
        # per prime: bit-reversed powers of a 2N-th root h; the inverse pass
        # walks the same table backwards with the sign folded into the butterfly
        tables = []
        for m in primes:
            h, powers, x = _find_root_2n(n, m), [], 1
            for _ in range(n):
                powers.append(x)
                x = x * h % m
            tables.append([powers[r] for r in rev])
        col = [[m] for m in primes]
        w = mod64.shoup(tables, col)
        self.mods = np.array(col, dtype=np.uint64)  # (rows, 1)
        # stage with k blocks: forward uses w[k:2k], inverse w[2k-1] .. w[k];
        # the inverse runs its stages from k = N/2 down to k = 1
        self._fwd, self._inv = [], []
        k = 1
        while k < n:
            self._fwd.append(tuple(np.ascontiguousarray(t[:, k:2 * k, None]) for t in w))
            self._inv.insert(0, tuple(np.ascontiguousarray(t[:, 2 * k - 1:k - 1:-1, None])
                                      for t in w))
            k *= 2
        # the inverse's 1/N is folded into its last stage, the one block with
        # twiddle w[1]: its sum is scaled by 1/N and its difference by w[1]/N
        n_inv = [pow(n, -1, m) for m in primes]
        col3 = [[[m]] for m in primes]
        self._n_inv = mod64.shoup([[[v]] for v in n_inv], col3)
        self._inv[-1] = mod64.shoup(
            [[[v * t[1] % m]] for v, t, m in zip(n_inv, tables, primes)], col3)
        self._recip = mod64.reciprocal(col)  # for the quotients of variable w

    def _check_width(self, width: int, least: int):
        if not least <= width <= self.n or width & (width - 1):
            raise DimensionError(f"row width {width} is not a power of two "
                                 f"from {least} to N={self.n}")

    def ntt(self, f: np.ndarray) -> np.ndarray:
        """Forward negacyclic NTT of every row of a (..., rows, width) stack;
        output order defines the slot order.

        Rows of width N/b (b a power of two) run only the first log2(N/b)
        stages.  Given the coefficients at multiples of b of some f, b times
        the result is the sums of the aligned b-slot blocks of f's slots.
        """
        *lead, rows, width = f.shape
        self._check_width(width, 1)
        a = np.array(f, dtype=np.uint64)
        m = self.mods[:, :, None]
        for w in self._fwd[:width.bit_length() - 1]:
            v = a.reshape(*lead, rows, w[0].shape[1], 2, -1)
            x, y = v[..., 0, :], v[..., 1, :]
            t = mod64.mul_shoup(y, *w, m)
            d = x - t
            x += t
            np.minimum(x, x - m, out=x)
            np.minimum(d, d + m, out=y)
        return a

    def intt(self, f: np.ndarray) -> np.ndarray:
        """Inverse NTT of every row of a (..., rows, width) stack.

        Rows of width N/b (b a power of two below N) run only the last
        log2(N/b) stages.  Given the sums of f's aligned b-slot blocks
        (`block_sums`), the result is f's coefficients at multiples of b:
        at those positions the first log2(b) stages only sum each block.
        """
        *lead, rows, width = f.shape
        self._check_width(width, 2)
        m = self.mods[:, :, None]
        a = np.array(f, dtype=np.uint64)
        stages = self._inv[len(self._inv) - width.bit_length() + 1:]
        last = len(stages) - 1
        for i, w in enumerate(stages):
            v = a.reshape(*lead, rows, w[0].shape[1], 2, -1)
            x, y = v[..., 0, :], v[..., 1, :]
            s, d = mod64.add(x, y, m), mod64.sub(y, x, m)
            x[...] = mod64.mul_shoup(s, *self._n_inv, m) if i == last else s
            y[...] = mod64.mul_shoup(d, *w, m)
        return a

    def block_sums(self, f: np.ndarray, stride: int) -> np.ndarray:
        """Sums of the aligned blocks of `stride` entries, a power of two
        below N, along the last axis of a (..., rows, N) stack."""
        if not 0 < stride < self.n or stride & (stride - 1):
            raise DimensionError(f"stride {stride} is not a power of two below N={self.n}")
        m = self.mods[:, :, None]
        a = f.reshape(*f.shape[:-1], -1, stride)
        while a.shape[-1] > 1:
            half = a.shape[-1] // 2
            a = mod64.add(a[..., :half], a[..., half:], m)
        return a[..., 0]

    def shoup(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Constants for multiplying by the residues w < m (`mod64.prepare`)."""
        return mod64.prepare(w, self._recip, self.mods)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pointwise a + b mod m for residues a, b < m."""
        return mod64.add(a, b, self.mods)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pointwise a - b mod m for residues a, b < m."""
        return mod64.sub(a, b, self.mods)

    def mul(self, a: np.ndarray, b: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        """Pointwise a * b mod m for any uint64 a, by the constants b =
        `shoup(w)` of residues w: prepared once, b serves every product by w."""
        return mod64.mul_shoup(a, *b, self.mods)

    def scale(self, a: np.ndarray, c: int) -> np.ndarray:
        return self.mul(a, self.shoup(np.array([[c % m] for m in self.primes],
                                               dtype=np.uint64)))


@lru_cache(maxsize=32)
def ntt_context(primes: tuple[int, ...], n: int) -> NttContext:
    return NttContext(primes, n)


# -- RNS helpers -------------------------------------------------------------------


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
def _rounding_constants(primes: tuple[int, ...]):
    p, aux = primes[0], primes[1:]
    delta = 1
    for qj in aux:
        delta *= qj
    half = [np.uint64(delta // 2 % m) for m in primes]
    garner = [[(mod64.shoup(1, qj), mod64.shoup(pow(qi, -1, qj), qj)) for qi in aux[:j]]
              for j, qj in enumerate(aux)]
    radix, radices = 1, []
    for qj in aux:
        radices.append(mod64.shoup(radix % p, p))
        radix *= qj
    return half, garner, radices, mod64.shoup(pow(delta, -1, p), p)


def scale_round(primes: tuple[int, ...], t: np.ndarray) -> np.ndarray:
    """round(t p / q) mod p per column of a (..., primes, width) stack of
    coefficient residues t, p = primes[0].

    With delta = q / p and t' = t + floor(delta / 2), the result is
    floor(t' / delta) = (t' - r) / delta mod p for r = t' mod delta.  Garner's
    mixed-radix digits give r from the residues of t' mod the other primes,
    and r mod p from those digits, so no value ever exceeds 64 bits.
    """
    half, garner, radices, delta_inv = _rounding_constants(primes)
    p, aux = np.uint64(primes[0]), [np.uint64(m) for m in primes[1:]]
    tp = [mod64.add(row, h, np.uint64(m))
          for row, h, m in zip(np.moveaxis(t, -2, 0), half, primes)]
    digits = []
    for j, qj in enumerate(aux):
        x = tp[j + 1]
        for d, (one, inv) in zip(digits, garner[j]):
            x = mod64.mul_shoup(mod64.sub(x, mod64.mul_shoup(d, *one, qj), qj), *inv, qj)
        digits.append(x)
    r = np.zeros_like(tp[0])
    for d, radix in zip(digits, radices):
        r = mod64.add(r, mod64.mul_shoup(d, *radix, p), p)
    return mod64.mul_shoup(mod64.sub(tp[0], r, p), *delta_inv, p)


# -- sampling ---------------------------------------------------------------------


def draw_below(rng, bound: int, count: int) -> np.ndarray:
    """`count` values of `rng.randrange(bound)` as uint64, drawn in bulk.

    randrange takes k = bound.bit_length() bits from ceil(k / 32) 32-bit
    outputs (low word first, the last one shifted down) and draws again while
    the value is >= bound.  Drawing exactly the shortfall in each round keeps
    the accepted values in order and leaves rng where `count` randrange calls
    would; the last few values are drawn with randrange itself.
    """
    k = bound.bit_length()
    words = (k + 31) // 32
    if words > 2:
        raise ValueError("draw_below supports bounds below 2^64")
    out = np.empty(count, dtype=np.uint64)
    filled = 0
    while count - filled > 16:
        need = count - filled
        raw = np.frombuffer(rng.getrandbits(32 * words * need).to_bytes(
            4 * words * need, "little"), dtype="<u4").reshape(need, words)
        cand = raw[:, -1].astype(np.uint64) >> np.uint64(32 * words - k)
        if words == 2:
            cand = (cand << np.uint64(32)) | raw[:, 0]
        cand = cand[cand < bound]
        out[filled:filled + len(cand)] = cand
        filled += len(cand)
    out[filled:] = [rng.randrange(bound) for _ in range(count - filled)]
    return out


def residues(values, primes: tuple[int, ...]) -> np.ndarray:
    """(primes, N) uint64 residues of integer coefficients."""
    try:
        v = np.asarray(values, dtype=np.int64)
    except OverflowError:
        big = [int(x) for x in values]
        return np.array([[x % m for x in big] for m in primes], dtype=np.uint64)
    return (v % np.array(primes, dtype=np.int64)[:, None]).astype(np.uint64)


# -- ring elements --------------------------------------------------------------


@dataclass(eq=False)
class RingPoly:
    """Element of R_q, held as its NTT residues: a (len(q_primes), N) uint64
    stack whose row i holds the poly's N evaluations mod q_primes[i].

    Instances are treated as immutable; every operation returns a new poly.
    """

    params: ProtocolParams
    data: np.ndarray

    @classmethod
    def zero(cls, params: ProtocolParams, tag: str = "q") -> "RingPoly":
        """Zero; `tag` names the ring, which can only be R_q."""
        if tag != "q":
            raise ModulusError(f"a RingPoly is an element of R_q, not R_{tag}")
        return cls(params, np.zeros((len(params.q_primes), params.n_ring), dtype=np.uint64))

    @classmethod
    def from_coeffs(cls, params: ProtocolParams, coeffs) -> "RingPoly":
        """The poly with these N integer coefficients."""
        n = params.n_ring
        if len(coeffs) != n:
            raise DimensionError(f"expected {n} coefficients, got {len(coeffs)}")
        primes = params.q_primes
        return cls(params, ntt_context(primes, n).ntt(residues(coeffs, primes)))

    @classmethod
    def random(cls, params: ProtocolParams, rng) -> "RingPoly":
        """Uniform, with its NTT residues drawn directly."""
        return cls(params, np.stack([draw_below(rng, m, params.n_ring)
                                     for m in params.q_primes]))

    @property
    def _ctx(self) -> NttContext:
        return ntt_context(self.params.q_primes, self.params.n_ring)

    def coeffs(self) -> np.ndarray:
        """The (primes, N) residues of the coefficients."""
        return self._ctx.intt(self.data)

    def round_to_p(self) -> np.ndarray:
        """round(t * p / q) mod p for every coefficient t: the N mod-p coefficients."""
        return scale_round(self.params.q_primes, self.coeffs())

    def __add__(self, other: "RingPoly") -> "RingPoly":
        return RingPoly(self.params, self._ctx.add(self.data, other.data))

    def __sub__(self, other: "RingPoly") -> "RingPoly":
        return RingPoly(self.params, self._ctx.sub(self.data, other.data))

    def __neg__(self) -> "RingPoly":
        return RingPoly(self.params, self._ctx.sub(np.uint64(0), self.data))

    def __mul__(self, other: "RingPoly") -> "RingPoly":
        return RingPoly(self.params, self._ctx.mul(self.data, self._ctx.shoup(other.data)))

    # serialization ---------------------------------------------------------------
    # magic, R_q tag 1, NTT form 1, n_primes (u16), N (u64): 16 bytes, then
    # the u64 residues row by row

    @staticmethod
    def wire_size(params: ProtocolParams) -> int:
        """Serialized length of one poly."""
        return 16 + 8 * params.n_ring * len(params.q_primes)

    def serialize(self) -> bytes:
        w = Writer().raw(b"RPL1").u8(1).u8(1).u16(len(self.data)).u64(self.params.n_ring)
        return w.raw(self.data.astype("<u8").tobytes()).getvalue()

    @classmethod
    def deserialize(cls, params: ProtocolParams, buf: bytes) -> "RingPoly":
        primes = params.q_primes
        with Reader(buf) as r:
            magic, tag, form, n_primes, n = r.raw(4), r.u8(), r.u8(), r.u16(), r.u64()
            if (magic, tag, form) != (b"RPL1", 1, 1):
                raise ValueError("bad polynomial header")
            if n != params.n_ring:
                raise DimensionError(f"serialized N={n} != params N={params.n_ring}")
            if n_primes != len(primes):
                raise ValueError(f"bad prime count {n_primes}")
            rows = np.frombuffer(r.raw(8 * n * n_primes), dtype="<u8").reshape(n_primes, n)
        if (rows >= np.array(primes, dtype=np.uint64)[:, None]).any():
            raise ValueError("polynomial residue out of range")
        return cls(params, rows)


# -- slot packing ------------------------------------------------------------------


def slots_to_coeffs(params: ProtocolParams, v) -> np.ndarray:
    """The mod-p coefficients of the unique R_p poly whose leading slots are
    v and whose other slots are zero."""
    n = params.n_ring
    if len(v) > n:
        raise DimensionError(f"vector length {len(v)} exceeds ring dimension {n}")
    slots = np.zeros((1, n), dtype=np.uint64)
    slots[0, :len(v)] = residues(v, (params.p,))[0]
    return ntt_context((params.p,), n).intt(slots)[0]
