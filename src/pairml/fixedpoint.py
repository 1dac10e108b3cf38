"""Fixed-point encoding of reals into Z_p and local probabilistic truncation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mod64
from .params import ProtocolParams


class RangeError(ValueError):
    pass


def to_signed(v: int, p: int) -> int:
    """Map [0, p) to the signed interpretation: [0, p/2) >= 0, [p/2, p) < 0."""
    v = int(v) % p
    return v if v <= (p - 1) // 2 else v - p


@dataclass(frozen=True)
class FixedPointCodec:
    params: ProtocolParams
    scale_bits: int | None = None

    @property
    def fbits(self) -> int:
        return self.params.fp_scale if self.scale_bits is None else self.scale_bits

    @property
    def scale(self) -> int:
        return 1 << self.fbits

    @property
    def magnitude_bound(self) -> int:
        return self.params.magnitude_bound

    def encode(self, x: float) -> int:
        e = round(x * self.scale)
        if abs(e) > self.magnitude_bound:
            raise RangeError(f"{x} out of representable range")
        return e % self.params.p

    def decode(self, v: int) -> float:
        return to_signed(v, self.params.p) / self.scale


def truncate_share(share: int, f: int, party: int, p: int) -> int:
    """Local share of floor(secret / 2^f), correct to +-1.

    Party 0 shifts its share down; party 1 shifts the complement.  For a
    secret z with |z| <= 2^k the reconstruction is floor(z / 2^f) +- 1
    except with probability ~2^(k+1)/p (the share-wraparound event).
    """
    share = int(share) % p
    if party == 0:
        return (share >> f) % p
    return (p - ((p - share) >> f)) % p


def truncate_share_vec(shares, f: int, party: int, p: int) -> np.ndarray:
    """`truncate_share` of each share (a uint64 vector, or ints below 2^64),
    as a uint64 vector."""
    share = np.asarray(shares, dtype=np.uint64) % p
    if party == 0:
        return share >> np.uint64(f)
    return mod64.sub(np.uint64(0), (p - share) >> np.uint64(f), p)


def exact_truncate(v: int, f: int, p: int) -> int:
    """Reference truncation: signed floor division by 2^f (oracle for tests)."""
    return (to_signed(v, p) >> f) % p
