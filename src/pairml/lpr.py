"""LPR ring-LWE encryption with plaintext space R_p, additively homomorphic.

The ciphertext modulus chain satisfies p | q, so the plaintext scaling
factor delta = q/p is exact and multiples of delta*p vanish mod q; the HSS
rounding conversion depends on this.  Every ciphertext carries an analytic
noise bound that homomorphic operations update; the tests measure true
noise against it with the secret key.

A plaintext is a vector of N mod-p coefficients (`ring.slots_to_coeffs`
packs one); keys and ciphertexts are `RingPoly`s, held and sent as NTT
residues.  `keygen` transforms a, s and e once each, and `encrypt`
transforms u, e0 + delta*m and e1, so a ciphertext is ready to serialize or
to sum with a received one.  `decrypt` rounds with the exact RNS
scale-and-round of `RingPoly.round_to_p` and returns mod-p coefficients.
Secrets and noise are sampled in bulk with `ring.draw_below`, which
reproduces per-coefficient `randrange`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .codec import Reader, Writer
from .params import ProtocolParams
from .ring import RingPoly, draw_below, ntt_context, residues

NOISE_ETA = 8  # centered-binomial width, sigma = 2


def params_digest(params: ProtocolParams) -> bytes:
    return hashlib.blake2b(params.dump().encode(), digest_size=8).digest()


def ternary_poly(params: ProtocolParams, rng) -> RingPoly:
    coeffs = draw_below(rng, 3, params.n_ring).astype(np.int64) - 1
    return RingPoly.from_coeffs(params, coeffs)


def cbd_coeffs(params: ProtocolParams, rng, eta: int = NOISE_ETA) -> np.ndarray:
    """N centered-binomial noise coefficients in [-eta, eta]."""
    bits = draw_below(rng, 1 << (2 * eta), params.n_ring)
    a = np.bitwise_count(bits & np.uint64((1 << eta) - 1))
    b = np.bitwise_count(bits >> np.uint64(eta))
    return a.astype(np.int64) - b


@dataclass
class LprKeys:
    pk: tuple[RingPoly, RingPoly]  # (b, a) with b = -(a*s + e)
    s: RingPoly                    # ternary secret over R_q


def keygen(params: ProtocolParams, rng) -> LprKeys:
    s = ternary_poly(params, rng)
    # a is uniform either way; reading its drawn residues as coefficients
    # keeps every seed's keys
    a = RingPoly(params, ntt_context(params.q_primes, params.n_ring).ntt(
        RingPoly.random(params, rng).data))
    e = RingPoly.from_coeffs(params, cbd_coeffs(params, rng))
    return LprKeys(pk=(-(a * s + e), a), s=s)


@dataclass
class LprCiphertext:
    params: ProtocolParams
    c0: RingPoly
    c1: RingPoly
    noise_bound: int

    def __add__(self, other: "LprCiphertext") -> "LprCiphertext":
        return LprCiphertext(self.params, self.c0 + other.c0, self.c1 + other.c1,
                             self.noise_bound + other.noise_bound)

    def serialize(self) -> bytes:
        # magic, params digest, poly count (u16), noise bound (u64), c0, c1
        return (Writer().raw(b"LPR1").raw(params_digest(self.params)).u16(2)
                .u64(self.noise_bound).raw(self.c0.serialize())
                .raw(self.c1.serialize()).getvalue())

    @classmethod
    def deserialize(cls, params: ProtocolParams, buf: bytes) -> "LprCiphertext":
        size = RingPoly.wire_size(params)
        with Reader(buf) as r:
            magic, digest, count, noise = r.raw(4), r.raw(8), r.u16(), r.u64()
            if magic != b"LPR1":
                raise ValueError("bad ciphertext magic")
            if digest != params_digest(params):
                raise ValueError("ciphertext was produced under different parameters")
            if count != 2:
                raise ValueError(f"ciphertext has {count} polys, not 2")
            c0, c1 = r.raw(size), r.raw(size)
        return cls(params, RingPoly.deserialize(params, c0),
                   RingPoly.deserialize(params, c1), noise)


def encrypt(params: ProtocolParams, pk: tuple[RingPoly, RingPoly], m,
            rng) -> LprCiphertext:
    """Encrypt the N mod-p coefficients m as (u*b + e0 + delta*m, u*a + e1)."""
    m = np.asarray(m)
    if m.shape != (params.n_ring,) or ((m < 0) | (m >= params.p)).any():
        raise ValueError(f"a plaintext is {params.n_ring} coefficients mod p")
    u = ternary_poly(params, rng)
    # e0 + delta*m is summed in coefficients, so it takes one transform
    primes = params.q_primes
    ctx = ntt_context(primes, params.n_ring)
    e0_dm = ctx.add(residues(cbd_coeffs(params, rng), primes),
                    ctx.scale(residues(m, primes), params.delta))
    c0 = pk[0] * u + RingPoly(params, ctx.ntt(e0_dm))
    c1 = pk[1] * u + RingPoly.from_coeffs(params, cbd_coeffs(params, rng))
    bound = NOISE_ETA * (2 * params.n_ring + 1)
    return LprCiphertext(params, c0, c1, bound)


def decrypt(params: ProtocolParams, s: RingPoly, ct: LprCiphertext) -> np.ndarray:
    """Round (c0 + c1*s)/delta coefficient-wise to the N mod-p coefficients
    of the plaintext; exact while noise < delta/2."""
    return (ct.c0 + ct.c1 * s).round_to_p()
