"""Protocol parameter sets: plaintext prime, ring dimension, ciphertext modulus chain.

The security parameter is not one of them: every party takes the one
`prg.LAM`, and a parameter set's text form records it."""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import prg

_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic below 3.3e24, randomized above."""
    if n < 2:
        return False
    for sp in _MR_BASES_64:
        if n % sp == 0:
            return n == sp
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES_64 if n < 3317044064679887385961981 else tuple(
        random.Random(n).randrange(2, n - 1) for _ in range(24)
    )
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ntt_prime(bits: int, two_n: int, offset: int = 0) -> int:
    """Smallest prime >= 2^(bits-1) with p = 1 (mod two_n), skipping `offset` hits."""
    k = ((1 << (bits - 1)) - 1) // two_n + 1
    hits = 0
    while True:
        p = k * two_n + 1
        if is_prime(p):
            if hits == offset:
                return p
            hits += 1
        k += 1


class ParameterError(ValueError):
    pass


@dataclass(frozen=True)
class ProtocolParams:
    """Fixed algebraic context shared by every party in a deployment.

    p:         plaintext prime, p = 1 (mod 2N) so x^N+1 splits fully mod p
    n_ring:    ring dimension N (power of two)
    q_primes:  ciphertext modulus chain; q = prod(q_primes) and q_primes[0] == p
               so that p | q and the HSS rounding conversion is exact
    fp_scale:  fixed-point fractional bits
    """

    p: int
    n_ring: int
    q_primes: tuple[int, ...]
    fp_scale: int = 12
    noise_margin: int = 40
    test_mode: bool = False

    def __post_init__(self):
        n = self.n_ring
        if n < 8 or n & (n - 1):
            raise ParameterError(f"ring dimension {n} is not a power of two >= 8")
        if not is_prime(self.p):
            raise ParameterError("p is not prime")
        if self.p % (2 * n) != 1:
            raise ParameterError("p != 1 mod 2N; ring does not split into slots")
        if self.q_primes[0] != self.p:
            raise ParameterError("q_primes[0] must equal p (p | q required)")
        for qi in self.q_primes:
            if not is_prime(qi) or qi % (2 * n) != 1:
                raise ParameterError(f"ciphertext prime {qi} not NTT friendly")
        if len(set(self.q_primes)) != len(self.q_primes):
            raise ParameterError("q_primes must be distinct")
        # Sizing rule for the rounding share conversion: q/p >= 2^margin * N * p.
        if self.delta < (1 << self.noise_margin) * n * self.p:
            raise ParameterError("q/p too small for the configured noise margin")

    @property
    def q(self) -> int:
        out = 1
        for qi in self.q_primes:
            out *= qi
        return out

    @property
    def delta(self) -> int:
        """Plaintext scaling factor q/p (exact, since p | q)."""
        return self.q // self.p

    @property
    def magnitude_bound(self) -> int:
        return self.p // 4

    @classmethod
    def generate(cls, n_ring: int, p_bits: int, aux_bits: tuple[int, ...] = (60, 60),
                 fp_scale: int = 12, noise_margin: int = 40,
                 test_mode: bool = False) -> "ProtocolParams":
        two_n = 2 * n_ring
        p = ntt_prime(p_bits, two_n)
        aux = []
        for i, b in enumerate(aux_bits):
            off = sum(1 for bb in aux_bits[:i] if bb == b)
            q = ntt_prime(b, two_n, offset=off)
            while q == p or q in aux:
                off += 1
                q = ntt_prime(b, two_n, offset=off)
            aux.append(q)
        return cls(p=p, n_ring=n_ring, q_primes=(p, *aux), fp_scale=fp_scale,
                   noise_margin=noise_margin, test_mode=test_mode)

    @classmethod
    def production(cls) -> "ProtocolParams":
        """8192-dim ring, 52-bit plaintext prime."""
        return cls.generate(n_ring=8192, p_bits=52)

    @classmethod
    def testing(cls, n_ring: int = 256, p_bits: int = 30, fp_scale: int = 8) -> "ProtocolParams":
        """Small, INSECURE parameters for fast tests."""
        return cls.generate(n_ring=n_ring, p_bits=p_bits, fp_scale=fp_scale,
                            noise_margin=30, test_mode=True)

    def dump(self) -> str:
        """The parameters as key=value text lines, which `lpr.params_digest`
        hashes into every ciphertext header."""
        lines = [
            f"p={self.p}",
            f"N={self.n_ring}",
            "q_primes=" + ",".join(str(q) for q in self.q_primes),
            f"lambda={prg.LAM}",
            f"fp_scale={self.fp_scale}",
            f"noise_margin={self.noise_margin}",
            f"test_mode={int(self.test_mode)}",
        ]
        return "\n".join(lines) + "\n"
