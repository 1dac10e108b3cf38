"""Negacyclic ring arithmetic: slot packing over Z_p, RNS polys in NTT form over Z_q.

Polynomials live in R_m = Z_m[x]/(x^N + 1).  Every modulus here is a prime
1 mod 2N, so x^N + 1 splits into N linear factors and the negacyclic NTT maps
a poly to its N evaluations, where multiplication is pointwise.

* An R_p poly is in COEFF or SLOT form; SLOT is the NTT form, whose entries
  are the packed vector.
* An R_q poly is a (primes, N) uint64 stack with one residue row per prime of
  q, in COEFF or NTT form.  `*` is pointwise in NTT form; `+` and `-` keep the
  operands' form when they share one and work on coefficients otherwise.  A
  poly remembers the other form once it has been converted.  NTT is its only
  wire form, so an R_q poly made in NTT form is sent, received and multiplied
  with no transform.

`NttContext` transforms every row of a stack in one numpy pass, each row mod
its own prime, multiplying by twiddles with Shoup's method.  Both directions
can stop short when only the sums of aligned slot blocks matter: the slots
of an aligned block of b slots are the roots of x^b = zeta, so their sum is
b * g(zeta), where g holds the coefficients at multiples of b.  The inverse
of a row of block sums over b (`block_sums`) therefore returns just those
coefficients, and the forward transform of a row of N/b of them gives the
block sums over b.

Every modular product is Shoup's: x * w mod m for a residue w takes the
quotient w' = floor(w 2^64 / m) and splits the 64-bit words into 32-bit
halves to estimate x w / m, which it then corrects, so every result is exact
in uint64.  For w < m, w' m = w 2^64 - (w 2^64 mod m), so
w' = (w 2^64 mod m)(-m^-1) mod 2^64: one Shoup product by the constant
2^64 mod m and one wrapping multiply give w' with no big integers.  Twiddles
are prepared once per context, and `NttContext.shoup(w)` prepares a variable
w, once for all of its products; preparing w for a single product still
costs less than a Montgomery product.

`scale_round` computes round(t * p / q) mod p from the residues of t alone
(exact RNS scale-and-round, which needs p | q), with no big integers, for a
poly's coefficients (`RingPoly.round_to_p`) or a stack of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .codec import Reader, Writer
from .params import ProtocolParams


class DimensionError(ValueError):
    pass


class ModulusError(ValueError):
    pass


# -- exact uint64 modular arithmetic -------------------------------------------
# Residues are < m < 2^62, so a sum of two stays below 2^64 and a wrapped
# difference is recognised by being larger than the unwrapped one.

_LO32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def _add(a, b, m):
    s = a + b
    return np.minimum(s, s - m)


def _sub(a, b, m):
    d = a - b
    return np.minimum(d, d + m)


def _shoup(w, m):
    """Constants for multiplying by w mod m: w and the 32-bit halves of
    floor(w 2^64 / m), as uint64 arrays shaped like w (ints or nested lists),
    computed with Python ints."""
    w = np.array(w, dtype=object)
    ws = np.array((w << 64) // np.array(m, dtype=object), dtype=object)
    return tuple(np.array(x, dtype=object).astype(np.uint64)
                 for x in (w, ws & 0xFFFFFFFF, ws >> 32))


def _mul_shoup(x, w, w_lo, w_hi, m):
    """x * w mod m for any uint64 x and a constant w < m.

    The quotient estimate drops the carries of the low partial products, so
    it is at most 3 short: r lies in [0, 4m) before the two subtractions.
    """
    x_lo, x_hi = x & _LO32, x >> _32
    q = x_hi * w_hi + ((x_lo * w_hi) >> _32) + ((x_hi * w_lo) >> _32)
    r = x * w - q * m
    r = np.minimum(r, r - (m + m))
    return np.minimum(r, r - m)


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
        w = _shoup(tables, col)
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
        self._n_inv = _shoup([[[v]] for v in n_inv], col3)
        self._inv[-1] = _shoup([[[v * t[1] % m]] for v, t, m in zip(n_inv, tables, primes)],
                               col3)
        # for the Shoup quotient of a variable w: 2^64 mod m and -m^-1 mod 2^64
        self._r64 = _shoup([[(1 << 64) % m] for m in primes], col)
        self._neg_minv = np.array([[-pow(m, -1, 1 << 64) % (1 << 64)] for m in primes],
                                  dtype=np.uint64)

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
            t = _mul_shoup(y, *w, m)
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
            s, d = _add(x, y, m), _sub(y, x, m)
            x[...] = _mul_shoup(s, *self._n_inv, m) if i == last else s
            y[...] = _mul_shoup(d, *w, m)
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
            a = _add(a[..., :half], a[..., half:], m)
        return a[..., 0]

    def shoup(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Constants for multiplying by the residues w < m: w and the 32-bit
        halves of w' = floor(w 2^64 / m) = (w 2^64 mod m)(-m^-1) mod 2^64."""
        q = _mul_shoup(w, *self._r64, self.mods) * self._neg_minv
        return w, q & _LO32, q >> _32

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pointwise a + b mod m for residues a, b < m."""
        return _add(a, b, self.mods)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pointwise a - b mod m for residues a, b < m."""
        return _sub(a, b, self.mods)

    def mul(self, a: np.ndarray, b: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        """Pointwise a * b mod m for any uint64 a, by the constants b =
        `shoup(w)` of residues w: prepared once, b serves every product by w."""
        return _mul_shoup(a, *b, self.mods)

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
    garner = [[(_shoup(1, qj), _shoup(pow(qi, -1, qj), qj)) for qi in aux[:j]]
              for j, qj in enumerate(aux)]
    radix, radices = 1, []
    for qj in aux:
        radices.append(_shoup(radix % p, p))
        radix *= qj
    return half, garner, radices, _shoup(pow(delta, -1, p), p)


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
    tp = [_add(row, h, np.uint64(m))
          for row, h, m in zip(np.moveaxis(t, -2, 0), half, primes)]
    digits = []
    for j, qj in enumerate(aux):
        x = tp[j + 1]
        for d, (one, inv) in zip(digits, garner[j]):
            x = _mul_shoup(_sub(x, _mul_shoup(d, *one, qj), qj), *inv, qj)
        digits.append(x)
    r = np.zeros_like(tp[0])
    for d, radix in zip(digits, radices):
        r = _add(r, _mul_shoup(d, *radix, p), p)
    return _mul_shoup(_sub(tp[0], r, p), *delta_inv, p)


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
            cand = (cand << _32) | raw[:, 0]
        cand = cand[cand < bound]
        out[filled:filled + len(cand)] = cand
        filled += len(cand)
    out[filled:] = [rng.randrange(bound) for _ in range(count - filled)]
    return out


def _residues(values, primes: tuple[int, ...]) -> np.ndarray:
    """(primes, N) uint64 residues of integer coefficients."""
    try:
        v = np.asarray(values, dtype=np.int64)
    except OverflowError:
        big = [int(x) for x in values]
        return np.array([[x % m for x in big] for m in primes], dtype=np.uint64)
    return (v % np.array(primes, dtype=np.int64)[:, None]).astype(np.uint64)


# -- ring elements --------------------------------------------------------------

COEFF = "coeff"
SLOT = "slot"  # R_p in NTT form: the entries are the packed vector
NTT = "ntt"    # R_q in NTT form


@dataclass
class RingPoly:
    """Element of R_p (COEFF or SLOT form) or R_q (RNS residues, COEFF or NTT form).

    Instances are treated as immutable; every operation returns a new poly.
    The only state that changes is `_alt`, the same poly in its other form,
    kept once a conversion has computed it.
    """

    params: ProtocolParams
    tag: str  # "p" | "q"
    form: str  # COEFF | SLOT (p) | NTT (q)
    data: np.ndarray  # uint64: (N,) for p, (len(q_primes), N) for q
    _alt: RingPoly | None = field(default=None, repr=False)

    # construction ----------------------------------------------------------

    @staticmethod
    def _primes(params: ProtocolParams, tag: str) -> tuple[int, ...]:
        return (params.p,) if tag == "p" else params.q_primes

    @classmethod
    def _of(cls, params: ProtocolParams, tag: str, form: str,
            rows: np.ndarray) -> "RingPoly":
        return cls(params, tag, form, rows[0] if tag == "p" else rows)

    @classmethod
    def zero(cls, params: ProtocolParams, tag: str = "p") -> "RingPoly":
        """Zero in every form; an R_q zero is made in NTT form, its wire form."""
        rows = np.zeros((len(cls._primes(params, tag)), params.n_ring), dtype=np.uint64)
        return cls._of(params, tag, COEFF if tag == "p" else NTT, rows)

    @classmethod
    def from_coeffs(cls, params: ProtocolParams, coeffs, tag: str = "p") -> "RingPoly":
        n = params.n_ring
        if len(coeffs) != n:
            raise DimensionError(f"expected {n} coefficients, got {len(coeffs)}")
        return cls._of(params, tag, COEFF, _residues(coeffs, cls._primes(params, tag)))

    @classmethod
    def random(cls, params: ProtocolParams, rng, tag: str = "p",
               form: str = COEFF) -> "RingPoly":
        """Uniform in every form, since the transform is a bijection."""
        rows = np.stack([draw_below(rng, m, params.n_ring)
                         for m in cls._primes(params, tag)])
        return cls._of(params, tag, form, rows)

    # representation ----------------------------------------------------------

    @property
    def _ctx(self) -> NttContext:
        return ntt_context(self._primes(self.params, self.tag), self.params.n_ring)

    @property
    def _rows(self) -> np.ndarray:
        return self.data.reshape(-1, self.params.n_ring)

    def _in(self, form: str) -> "RingPoly":
        if self.form == form:
            return self
        if self._alt is None:
            ctx = self._ctx
            rows = ctx.intt(self._rows) if form == COEFF else ctx.ntt(self._rows)
            self._alt = RingPoly._of(self.params, self.tag, form, rows)
        return self._alt

    def to_slots(self) -> "RingPoly":
        if self.tag != "p":
            raise ModulusError("slot form exists only for mod-p polynomials")
        return self._in(SLOT)

    def to_ntt(self) -> "RingPoly":
        if self.tag != "q":
            raise ModulusError("NTT form is for mod-q polynomials; use to_slots")
        return self._in(NTT)

    def to_coeffs(self) -> "RingPoly":
        return self._in(COEFF)

    def lift_to_q(self, centered: bool = True) -> "RingPoly":
        """Embed a mod-p coefficient poly into R_q (centered lift keeps noise small)."""
        if self.tag != "p" or self.form != COEFF:
            raise ModulusError("lift_to_q needs a mod-p coefficient poly")
        p = self.params.p
        vals = self.data.astype(np.int64)
        if centered:
            vals = np.where(vals > p // 2, vals - p, vals)
        return RingPoly(self.params, "q", COEFF, _residues(vals, self.params.q_primes))

    def round_to_p(self) -> "RingPoly":
        """round(t * p / q) mod p for every coefficient t, as a mod-p coefficient poly."""
        if self.tag != "q":
            raise ModulusError("rounding to p needs a mod-q polynomial")
        return RingPoly(self.params, "p", COEFF,
                        scale_round(self.params.q_primes, self.to_coeffs()._rows))

    # arithmetic ---------------------------------------------------------------

    def _check(self, other: "RingPoly"):
        if self.tag != other.tag:
            raise ModulusError(f"modulus mismatch: {self.tag} vs {other.tag}")
        if self.tag == "p" and self.form != other.form:
            raise ModulusError(f"representation mismatch: {self.form} vs {other.form}")

    def _operands(self, other: "RingPoly") -> tuple[str, np.ndarray, np.ndarray]:
        """The form both operands share, else COEFF, and their rows in it."""
        self._check(other)
        if self.form == other.form:
            return self.form, self._rows, other._rows
        return COEFF, self.to_coeffs()._rows, other.to_coeffs()._rows

    def __add__(self, other: "RingPoly") -> "RingPoly":
        form, a, b = self._operands(other)
        return RingPoly._of(self.params, self.tag, form, self._ctx.add(a, b))

    def __sub__(self, other: "RingPoly") -> "RingPoly":
        form, a, b = self._operands(other)
        return RingPoly._of(self.params, self.tag, form, self._ctx.sub(a, b))

    def __neg__(self) -> "RingPoly":
        return RingPoly._of(self.params, self.tag, self.form,
                            self._ctx.sub(np.uint64(0), self._rows))

    def __mul__(self, other: "RingPoly") -> "RingPoly":
        self._check(other)
        form = SLOT if self.tag == "p" else NTT
        a, b = self._in(form), other._in(form)
        return RingPoly._of(self.params, self.tag, form,
                            self._ctx.mul(a._rows, self._ctx.shoup(b._rows)))

    def scale(self, c: int) -> "RingPoly":
        return RingPoly._of(self.params, self.tag, self.form,
                            self._ctx.scale(self._rows, c))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingPoly) or self.tag != other.tag:
            return False
        a, b = (self, other) if self.form == other.form else \
            (self.to_coeffs(), other.to_coeffs())
        return bool(np.array_equal(a.data, b.data))

    # serialization ---------------------------------------------------------------
    # magic, tag, form, n_primes (u16), N (u64): 16 bytes, then the u64 words;
    # form byte 0 is COEFF and 1 SLOT (R_p) or NTT (R_q, its only wire form)

    @staticmethod
    def wire_size(params: ProtocolParams, tag: str) -> int:
        """Serialized length of one poly of this tag."""
        return 16 + 8 * params.n_ring * (len(params.q_primes) if tag == "q" else 1)

    def serialize(self) -> bytes:
        poly = self if self.tag == "p" else self.to_ntt()
        rows = poly._rows
        w = Writer().raw(b"RPL1").u8(0 if self.tag == "p" else 1)
        w.u8(0 if poly.form == COEFF else 1).u16(len(rows)).u64(self.params.n_ring)
        return w.raw(rows.astype("<u8").tobytes()).getvalue()

    @classmethod
    def deserialize(cls, params: ProtocolParams, buf: bytes) -> "RingPoly":
        with Reader(buf) as r:
            magic, tag_code, form_code, n_primes, n = (r.raw(4), r.u8(), r.u8(),
                                                       r.u16(), r.u64())
            if magic != b"RPL1" or tag_code > 1 or not tag_code <= form_code <= 1:
                raise ValueError("bad polynomial header")
            if n != params.n_ring:
                raise DimensionError(f"serialized N={n} != params N={params.n_ring}")
            tag = "q" if tag_code else "p"
            primes = cls._primes(params, tag)
            if n_primes != len(primes):
                raise ValueError(f"bad prime count {n_primes}")
            rows = np.frombuffer(r.raw(8 * n * n_primes), dtype="<u8").reshape(n_primes, n)
        if (rows >= np.array(primes, dtype=np.uint64)[:, None]).any():
            raise ValueError("polynomial residue out of range")
        return cls._of(params, tag, (NTT if tag_code else SLOT) if form_code else COEFF,
                       rows)


# -- vector <-> slot packing ------------------------------------------------------


def vec_to_poly(params: ProtocolParams, v) -> RingPoly:
    """Unique polynomial whose leading CRT slots equal v (rest zero)."""
    n = params.n_ring
    if len(v) > n:
        raise DimensionError(f"vector length {len(v)} exceeds ring dimension {n}")
    slots = np.zeros(n, dtype=np.uint64)
    slots[:len(v)] = _residues(v, (params.p,))[0]
    return RingPoly(params, "p", SLOT, slots).to_coeffs()

