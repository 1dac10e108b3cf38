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

`Tree` holds this layout for one seed size and payload length, and the node
kernel that every tree walk and key generator runs.  A node's three block
expansions are read into ints once.  Its payload words are summed one side
at a time, only for a child that needs them, and stay unreduced and packed:
the even words of a side in one int and the odd words in another, each word
in a 256-bit lane, so a sum's carries stay in its lane.  A walk reduces each
payload word once, at its leaf.
"""

from __future__ import annotations

import hashlib
from functools import cache

BLOCKS = 3
WORD = 16  # bytes per payload word, before its reduction mod p
_LANE = 16 * WORD  # bits per lane of a packed sum: a word and room for carries
_LANE_MASK = (1 << _LANE) - 1

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
    return [int.from_bytes(raw[i:i + WORD], "little") % p
            for i in range(0, WORD * payload_len, WORD)]


def _expand3(tag: bytes, seed: int, w: int, n: int) -> tuple[int, int, int]:
    """n bytes from each of the three w-byte blocks of a seed, as ints."""
    global calls, bytes_expanded
    calls += BLOCKS
    bytes_expanded += BLOCKS * n
    s = seed.to_bytes(BLOCKS * w, "little")
    return (int.from_bytes(_shake(tag + s[:w]).digest(n), "little"),
            int.from_bytes(_shake(tag + s[w:2 * w]).digest(n), "little"),
            int.from_bytes(_shake(tag + s[2 * w:]).digest(n), "little"))


def _spread(count: int, first: int) -> int:
    """A mask over words first, first + 2, ... of `count` packed words: the
    words it keeps sit in 256-bit lanes."""
    return sum(((1 << 8 * WORD) - 1) << 8 * WORD * k for k in range(first, count, 2))


def _unpack(acc: tuple[int, int], count: int) -> list[int]:
    return [(acc[k & 1] >> _LANE * (k >> 1)) & _LANE_MASK for k in range(count)]


_BOTH, _LEAF = 2, 3  # the parts `Tree.add` sums besides side 0 and side 1


class Tree:
    """Node and leaf layout of a tree with 3*lam-bit seeds and L payload
    words per leaf and, unless `node_words` is off (a DPF), per node side.

    A packed sum is a pair (even words, odd words) of ints, word 2m (resp.
    2m + 1) in lane m; `pack` and `unpack` convert from and to L words.
    """

    def __init__(self, lam: int, L: int, node_words: bool = True):
        self.L = L
        self.block = lam // 8
        self.seed_bits = BLOCKS * lam
        self.area = node_bytes(lam, 0)  # bytes of the seed area
        self.nbytes = node_bytes(lam, L if node_words else 0)
        self._area_mask = (1 << 8 * self.area) - 1
        self._seed_mask = (1 << self.seed_bits) - 1
        # per part: the masks of its even and odd words, and the shifts that
        # bring both down to lane 0
        base = 8 * self.area
        self._parts = [
            (_spread(count, 0) << at, at, _spread(count, 1) << at, at + 8 * WORD)
            for count, at in ((L, base), (L, base + 8 * WORD * L), (2 * L, base),
                              (L, 0))]

    def expand(self, seed: int) -> tuple[int, int, int, int]:
        """One node expansion: its seed area, the XOR of the three block
        expansions there, and the three block expansions as ints."""
        x0, x1, x2 = _expand3(_G_TAG, seed, self.block, self.nbytes)
        return (x0 ^ x1 ^ x2) & self._area_mask, x0, x1, x2

    def child(self, area: int, side: int) -> tuple[int, int]:
        """The seed and control bit of one side of a seed area."""
        W = self.seed_bits
        return (area >> side * W) & self._seed_mask, (area >> 2 * W + side) & 1

    def cw_area(self, s_cw: int, t_cw: tuple[int, int]) -> int:
        """A level's correction word laid out as a seed area: XORed into a
        node's seed area, it corrects both children."""
        W = self.seed_bits
        return s_cw | s_cw << W | (t_cw[0] | t_cw[1] << 1) << 2 * W

    def add(self, acc: tuple[int, int], x0: int, x1: int, x2: int,
            side: int) -> tuple[int, int]:
        """acc plus the block-wise sums of one side's payload words, from a
        node's three block expansions."""
        em, es, om, os = self._parts[side]
        return (acc[0] + (((x0 & em) + (x1 & em) + (x2 & em)) >> es),
                acc[1] + (((x0 & om) + (x1 & om) + (x2 & om)) >> os))

    def sums(self, x0: int, x1: int, x2: int) -> list[int]:
        """Both sides' payload words, block-wise summed: the left side's L,
        then the right side's."""
        return _unpack(self.add((0, 0), x0, x1, x2, _BOTH), 2 * self.L)

    def leaf(self, seed: int, acc: tuple[int, int]) -> tuple[int, int]:
        """acc plus a leaf's payload: the block-wise sums of its leaf
        conversions."""
        return self.add(acc, *_expand3(_CV_TAG, seed, self.block, WORD * self.L), _LEAF)

    def words(self, raw: bytes, side: int) -> list[int]:
        """One block expansion's payload words of one side."""
        start = self.area + WORD * self.L * side
        return [int.from_bytes(raw[i:i + WORD], "little")
                for i in range(start, start + WORD * self.L, WORD)]

    def pack(self, words: list[int]) -> tuple[int, int]:
        e = o = 0
        for k in range(len(words) - 1, -1, -1):
            if k & 1:
                o = o << _LANE | words[k]
            else:
                e = e << _LANE | words[k]
        return e, o

    def unpack(self, acc: tuple[int, int]) -> list[int]:
        return _unpack(acc, self.L)


@cache
def tree(lam: int, L: int, node_words: bool = True) -> Tree:
    """The shared `Tree` of one shape."""
    return Tree(lam, L, node_words)


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


class PrfStream:
    """Stateful wrapper over Prf that auto-advances the counter.

    Provides the randbytes/randrange subset that key generation needs, so a
    PrfStream can stand in wherever a random.Random would.
    """

    def __init__(self, seed: bytes, tag: bytes = b""):
        self._prf = Prf(seed)
        self._tag = tag
        self.counter = 0

    def randbytes(self, n: int) -> bytes:
        out = self._prf.raw(self.counter, self._tag, n)
        self.counter += 1
        return out

    def randrange(self, bound: int) -> int:
        v = self._prf.field_element(self.counter, bound, self._tag)
        self.counter += 1
        return v

    def expand(self, n: int) -> bytes:
        """n bytes from one PRF draw: its 32-byte output keys SHAKE-256."""
        return hashlib.shake_256(self.randbytes(32)).digest(n)
