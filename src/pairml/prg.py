"""Block-structured PRG and keyed PRF.

Seeds are 3*lam bits, viewed as three lam-bit blocks x[0] || x[1] || x[2].
The tree expander is G'(x) = g(x[0]) ^ g(x[1]) ^ g(x[2]), and the payload
converter is likewise a block-wise sum mod p.  This structure lets three
parties who each hold one block in the clear compute their share of the
expansion with a purely local PRG call; revealing any two blocks leaves a
full lam bits of seed entropy.
"""

from __future__ import annotations

import hashlib
import hmac

BLOCKS = 3

_G_TAG = b"pairml.prg.g.v1:"
_CV_TAG = b"pairml.prg.cv.v1:"

# global expansion counters so tests can assert PRG-call budgets
calls = 0
bytes_expanded = 0


def reset_call_counter() -> int:
    global calls, bytes_expanded
    prev = calls
    calls = 0
    bytes_expanded = 0
    return prev


def g_expand(block: bytes, out_len: int) -> bytes:
    """The local expander g: lam bits -> out_len bytes (SHAKE-256 XOF)."""
    global calls, bytes_expanded
    calls += 1
    bytes_expanded += out_len
    return hashlib.shake_256(_G_TAG + block).digest(out_len)


def block_convert(block: bytes, payload_len: int, p: int) -> list[int]:
    """The local payload converter cv: lam bits -> Z_p^L."""
    global calls, bytes_expanded
    calls += 1
    bytes_expanded += 16 * payload_len
    raw = hashlib.shake_256(_CV_TAG + block).digest(16 * payload_len)
    return [int.from_bytes(raw[16 * i:16 * i + 16], "little") % p
            for i in range(payload_len)]


_shake = hashlib.shake_256


def expand_seed(seed: bytes, out_len: int) -> bytes:
    """G'(seed): XOR of the three independent block expansions."""
    global calls, bytes_expanded
    calls += 3
    bytes_expanded += 3 * out_len
    w = len(seed) // BLOCKS
    acc = int.from_bytes(_shake(_G_TAG + seed[:w]).digest(out_len), "little")
    acc ^= int.from_bytes(_shake(_G_TAG + seed[w:2 * w]).digest(out_len), "little")
    acc ^= int.from_bytes(_shake(_G_TAG + seed[2 * w:]).digest(out_len), "little")
    return acc.to_bytes(out_len, "little")


def convert_seed(seed: bytes, payload_len: int, p: int) -> list[int]:
    """Convert(seed): component-wise sum mod p of the block conversions."""
    global calls, bytes_expanded
    calls += 3
    bytes_expanded += 48 * payload_len
    w = len(seed) // BLOCKS
    nb = 16 * payload_len
    r0 = _shake(_CV_TAG + seed[:w]).digest(nb)
    r1 = _shake(_CV_TAG + seed[w:2 * w]).digest(nb)
    r2 = _shake(_CV_TAG + seed[2 * w:]).digest(nb)
    out = []
    for i in range(0, nb, 16):
        j = i + 16
        out.append((int.from_bytes(r0[i:j], "little")
                    + int.from_bytes(r1[i:j], "little")
                    + int.from_bytes(r2[i:j], "little")) % p)
    return out


class Prf:
    """Keyed PRF (BLAKE2b-MAC) with an explicit counter discipline.

    Every derivation consumes distinct (counter, tag) input; callers own the
    counter monotonicity.
    """

    def __init__(self, seed: bytes):
        self.seed = seed

    def raw(self, counter: int, tag: bytes, out_len: int) -> bytes:
        msg = counter.to_bytes(16, "little") + tag
        out = b""
        block = 0
        while len(out) < out_len:
            h = hmac.new(self.seed, msg + block.to_bytes(4, "little"),
                         hashlib.blake2b)
            out += h.digest()
            block += 1
        return out[:out_len]

    def field_element(self, counter: int, p: int, tag: bytes = b"") -> int:
        return int.from_bytes(self.raw(counter, tag, 32), "little") % p

    def rand_bytes(self, counter: int, n: int, tag: bytes = b"") -> bytes:
        return self.raw(counter, tag, n)


class PrfStream:
    """Stateful wrapper over Prf that auto-advances the counter.

    Provides the randbytes/randrange subset that key generation needs, so a
    PrfStream can stand in wherever a random.Random would.
    """

    def __init__(self, seed: bytes, tag: bytes = b"", start: int = 0):
        self._prf = Prf(seed)
        self._tag = tag
        self.counter = start

    def randbytes(self, n: int) -> bytes:
        out = self._prf.rand_bytes(self.counter, n, self._tag)
        self.counter += 1
        return out

    def randrange(self, bound: int) -> int:
        v = self._prf.field_element(self.counter, bound, self._tag)
        self.counter += 1
        return v
