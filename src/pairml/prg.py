"""Block-structured tree PRG and keyed PRF.

Seeds are 3*lam bits, viewed as three lam-bit blocks x[0] || x[1] || x[2],
and each block has its own local expansion g(x[j]) (SHAKE-128).  A tree node
is expanded once.  Its seed area (left seed, right seed, control-bit byte) is
G'(x) = g(x[0]) ^ g(x[1]) ^ g(x[2]); after that area every block expansion
carries L 128-bit payload words per side, and the node's payload words are
their block-wise sums mod p, so the PRG output itself carries the payload
group elements (Boyle-Gilboa-Ishai, CCS'16).  A leaf converts its seed
likewise, as a block-wise sum under its own tag.  Three parties who each hold
one block in the clear thus get an XOR share of the seed area and an additive
share of every payload word from one local PRG call; revealing any two blocks
leaves a full lam bits of seed entropy.
"""

from __future__ import annotations

import hashlib
from functools import cache

BLOCKS = 3
WORD = 16  # bytes per payload word, before its reduction mod p

_G_TAG = b"pairml.prg.node.v2:"
_CV_TAG = b"pairml.prg.leaf.v2:"
_shake = hashlib.shake_128

# global expansion counters so tests can assert PRG-call budgets
calls = 0
bytes_expanded = 0


def reset_call_counter() -> int:
    global calls, bytes_expanded
    prev = calls
    calls = 0
    bytes_expanded = 0
    return prev


def node_bytes(lam: int, L: int) -> int:
    """One block's node expansion: sL | sR | flags byte (bit0 = tL,
    bit1 = tR) | L payload words of the left side | L of the right."""
    return 2 * BLOCKS * lam // 8 + 1 + 2 * WORD * L


def words(raw: bytes, start: int, count: int) -> list[int]:
    """The `count` payload words of an expansion from byte `start` on."""
    return [int.from_bytes(raw[i:i + WORD], "little")
            for i in range(start, start + WORD * count, WORD)]


def g_expand(block: bytes, out_len: int) -> bytes:
    """The local node expander g of one lam-bit block."""
    global calls, bytes_expanded
    calls += 1
    bytes_expanded += out_len
    return _shake(_G_TAG + block).digest(out_len)


def block_convert(block: bytes, payload_len: int, p: int) -> list[int]:
    """The local leaf converter of one lam-bit block: lam bits -> Z_p^L."""
    global calls, bytes_expanded
    calls += 1
    bytes_expanded += WORD * payload_len
    raw = _shake(_CV_TAG + block).digest(WORD * payload_len)
    return [w % p for w in words(raw, 0, payload_len)]


_M2W = (1 << 16 * WORD) - 1


@cache
def _evens(count: int) -> int:
    """A mask over the even words of `count` packed words."""
    return sum(((1 << 8 * WORD) - 1) << 8 * WORD * k for k in range(0, count, 2))


def _word_sums(y0: int, y1: int, y2: int, count: int, p: int) -> list[int]:
    """Word-wise sums mod p of three packed `count`-word ints.  Even and odd
    words are summed apart, so each sum's carry lands in an empty word."""
    ev = _evens(count)
    e = (y0 & ev) + (y1 & ev) + (y2 & ev)
    o = ((y0 >> 8 * WORD) & ev) + ((y1 >> 8 * WORD) & ev) + ((y2 >> 8 * WORD) & ev)
    return [(((o if k & 1 else e) >> 8 * WORD * (k & ~1)) & _M2W) % p
            for k in range(count)]


def expand_node(seed: int, lam: int, L: int, p: int) -> tuple[int, list[int]]:
    """One node expansion of a 3*lam-bit seed: its seed area as an int
    (sL | sR | flags, the XOR of the block expansions) and its 2L payload
    words (left side, then right; block-wise sums mod p)."""
    global calls, bytes_expanded
    w = lam // 8
    area = 2 * BLOCKS * w + 1
    n = area + 2 * WORD * L
    calls += BLOCKS
    bytes_expanded += BLOCKS * n
    s = seed.to_bytes(BLOCKS * w, "little")
    x0 = int.from_bytes(_shake(_G_TAG + s[:w]).digest(n), "little")
    x1 = int.from_bytes(_shake(_G_TAG + s[w:2 * w]).digest(n), "little")
    x2 = int.from_bytes(_shake(_G_TAG + s[2 * w:]).digest(n), "little")
    if not L:
        return x0 ^ x1 ^ x2, []
    bits = 8 * area
    return ((x0 ^ x1 ^ x2) & ((1 << bits) - 1),
            _word_sums(x0 >> bits, x1 >> bits, x2 >> bits, 2 * L, p))


def convert_leaf(seed: int, lam: int, L: int, p: int) -> list[int]:
    """A leaf's payload: the block-wise sum mod p of the leaf conversions."""
    w = lam // 8
    s = seed.to_bytes(BLOCKS * w, "little")
    return [sum(v) % p for v in zip(*(block_convert(s[i:i + w], L, p)
                                      for i in range(0, BLOCKS * w, w)))]


class Prf:
    """Keyed PRF (keyed BLAKE2b) with an explicit counter discipline.

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
            out += hashlib.blake2b(msg + block.to_bytes(4, "little"),
                                   key=self.seed).digest()
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

    def expand(self, n: int) -> bytes:
        """n bytes from one PRF draw: its 32-byte output keys SHAKE-256."""
        return hashlib.shake_256(self.randbytes(32)).digest(n)
