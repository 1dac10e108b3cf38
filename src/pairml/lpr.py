"""LPR ring-LWE encryption with plaintext space R_p, additively homomorphic.

The ciphertext modulus chain satisfies p | q, so the plaintext scaling
factor delta = q/p is exact and multiples of delta*p vanish mod q; the HSS
rounding conversion depends on this.  Every ciphertext carries an analytic
noise bound that homomorphic operations update, and trusted-test mode can
measure true noise against it with the secret key.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .params import ProtocolParams
from .ring import RingPoly, rns_context

NOISE_ETA = 8  # centered-binomial width, sigma = 2


class NoiseBudgetError(ArithmeticError):
    pass


def params_digest(params: ProtocolParams) -> bytes:
    return hashlib.blake2b(params.dump().encode(), digest_size=8).digest()


def ternary_poly(params: ProtocolParams, rng) -> RingPoly:
    coeffs = [rng.randrange(3) - 1 for _ in range(params.n_ring)]
    return RingPoly.from_coeffs(params, coeffs, tag="q")


def cbd_poly(params: ProtocolParams, rng, eta: int = NOISE_ETA) -> RingPoly:
    coeffs = []
    for _ in range(params.n_ring):
        bits = rng.randrange(1 << (2 * eta))
        a = bin(bits & ((1 << eta) - 1)).count("1")
        b = bin(bits >> eta).count("1")
        coeffs.append(a - b)
    return RingPoly.from_coeffs(params, coeffs, tag="q")


@dataclass
class LprKeys:
    params: ProtocolParams
    pk: tuple[RingPoly, RingPoly]  # (b, a) with b = -(a*s + e)
    s: RingPoly                    # ternary secret over R_q


def keygen(params: ProtocolParams, rng) -> LprKeys:
    s = ternary_poly(params, rng)
    a = RingPoly.random(params, rng, tag="q")
    e = cbd_poly(params, rng)
    b = -(a * s + e)
    return LprKeys(params=params, pk=(b, a), s=s)


@dataclass
class LprCiphertext:
    params: ProtocolParams
    c0: RingPoly
    c1: RingPoly
    noise_bound: int

    _HDR = struct.Struct("<4s8sHQ")  # magic, params hash, poly count, noise bound

    def __add__(self, other: "LprCiphertext") -> "LprCiphertext":
        return LprCiphertext(self.params, self.c0 + other.c0, self.c1 + other.c1,
                             self.noise_bound + other.noise_bound)

    def serialize(self) -> bytes:
        head = self._HDR.pack(b"LPR1", params_digest(self.params), 2,
                              self.noise_bound)
        return head + self.c0.serialize() + self.c1.serialize()

    @classmethod
    def deserialize(cls, params: ProtocolParams, buf: bytes) -> "LprCiphertext":
        magic, digest, count, noise = cls._HDR.unpack_from(buf, 0)
        if magic != b"LPR1":
            raise ValueError("bad ciphertext magic")
        if digest != params_digest(params):
            raise ValueError("ciphertext was produced under different parameters")
        off = cls._HDR.size
        poly_len = len(RingPoly.zero(params, tag="q").serialize())
        c0 = RingPoly.deserialize(params, buf[off:off + poly_len])
        c1 = RingPoly.deserialize(params, buf[off + poly_len:off + 2 * poly_len])
        return cls(params, c0, c1, noise)


def encrypt(params: ProtocolParams, pk: tuple[RingPoly, RingPoly], m: RingPoly,
            rng) -> LprCiphertext:
    """Encrypt m in R_p as (u*b + e0 + delta*m, u*a + e1)."""
    if m.tag != "p":
        raise ValueError("plaintext must be a mod-p polynomial")
    u = ternary_poly(params, rng)
    e0 = cbd_poly(params, rng)
    e1 = cbd_poly(params, rng)
    delta_m = m.to_coeffs().lift_to_q(centered=False).scale(params.delta)
    c0 = pk[0] * u + e0 + delta_m
    c1 = pk[1] * u + e1
    bound = NOISE_ETA * (2 * params.n_ring + 1)
    return LprCiphertext(params, c0, c1, bound)


def decrypt(params: ProtocolParams, s: RingPoly, ct: LprCiphertext) -> RingPoly:
    """Round (c0 + c1*s)/delta coefficient-wise; exact while noise < delta/2."""
    phase = ct.c0 + ct.c1 * s
    delta = params.delta
    coeffs = [(v + delta // 2) // delta % params.p for v in phase.coeff_ints()]
    return RingPoly.from_coeffs(params, coeffs, tag="p")


def measure_noise(params: ProtocolParams, s: RingPoly, ct: LprCiphertext,
                  m: RingPoly) -> int:
    """Max |c0 + c1*s - delta*m| (centered); trusted-test mode only."""
    phase = ct.c0 + ct.c1 * s
    delta_m = m.to_coeffs().lift_to_q(centered=False).scale(params.delta)
    resid = phase - delta_m
    q = params.q
    worst = 0
    for v in resid.coeff_ints():
        c = v if v <= q // 2 else v - q
        worst = max(worst, abs(c))
    return worst
