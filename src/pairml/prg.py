"""Tree PRG and keyed PRF.

`LAM` is the security parameter, in bits: the one λ of the package, which
every key, key generator and enclave takes from here.  A tree seed is one
or three LAM-bit blocks of `BLOCK` bytes, and a tree node is expanded
once.  The expansion starts with a seed area (left seed, right seed,
control-bit byte); after it come L 128-bit payload words per side, so the
PRG output itself carries the payload group elements (Boyle-Gilboa-Ishai,
CCS'16).  A leaf converts its seed to L payload words under its own tag.
The local expansion g of one block is SHAKE-128.

A one-block seed is a plain GGM seed: a node is one pass of g over it, and
its payload words are read straight off that pass.  A key generator that
holds every seed whole, as a single enclave does, needs nothing more.

A three-block seed x[0] || x[1] || x[2] serves three enclaves that each
hold one block in the clear.  Every block has its own expansion g(x[j]).
The node's seed area is G'(x) = g(x[0]) ^ g(x[1]) ^ g(x[2]), and its
payload words are the block-wise sums of theirs mod p; a leaf converts
likewise, as a block-wise sum.  So each enclave gets an XOR share of the
seed area and an additive share of every payload word from one local PRG
call, and revealing any two blocks leaves a full LAM bits of seed entropy.

Every pass of g hashes from `NODE` and every leaf conversion from `LEAF`,
SHAKE-128 states that have absorbed their tag once: `copy()`,
`update(block)` and `digest(n)` give the bytes of shake_128(tag + block).
The enclaves' 3PC in `tee` expands one block at a time with `g_expand` and
`block_convert`, and reads a level's seed areas, every lane's at once, with
`children`.  Every other node is expanded inline by one of two loops in
`fss`, the host's walk `_walk` and the single enclave's one-block key
generator `_tree_gen`, which add their PRG work to `calls` and
`bytes_expanded` once per walk or key pair.

`Tree` is the layout those loops read, and the leaf conversion.  A node is
read into one int x: the pass of g for a one-block seed; for a three-block
seed, the passes' XOR on the seed area and, above it, the block-wise sums
of the payload words, each with room for its carries.  A walk keeps its
payload sums unreduced and packed, and reduces each word once, at its leaf.
A plain reference generator and walker, written from the per-block
primitives, live with the tests (`tests/oracles.py`).
"""

from __future__ import annotations

import hashlib
from functools import cache

import numpy as np

LAM = 128  # the security parameter, in bits
BLOCK = LAM // 8  # bytes per seed block
WORD = 16  # bytes per payload word, before its reduction mod p
_LANE = 16 * WORD  # bits per lane of a packed sum: a word and room for carries
_LANE_MASK = (1 << _LANE) - 1

# the states of g and of the leaf converter, each with its tag absorbed
NODE = hashlib.shake_128(b"pairml.prg.node.v2:")
LEAF = hashlib.shake_128(b"pairml.prg.leaf.v2:")

# global expansion counters so tests can assert PRG-call budgets
calls = 0
bytes_expanded = 0


def g_expand(block: bytes, out_len: int) -> bytes:
    """The local node expander g of one block."""
    global calls, bytes_expanded
    calls += 1
    bytes_expanded += out_len
    h = NODE.copy()
    h.update(block)
    return h.digest(out_len)


def block_convert(block: bytes, payload_len: int, p: int) -> list[int]:
    """The local leaf converter of one block: LAM bits -> Z_p^L."""
    global calls, bytes_expanded
    calls += 1
    bytes_expanded += WORD * payload_len
    h = LEAF.copy()
    h.update(block)
    raw = h.digest(WORD * payload_len)
    return [int.from_bytes(raw[i:i + WORD], "little") % p
            for i in range(0, WORD * payload_len, WORD)]


# per control bit: a flags byte to the ASCII digit of that bit
_FLAG_BIT = [bytes(ord("0") + (f >> i & 1) for f in range(256)) for i in (0, 1)]


class Tree:
    """The layout of a tree with seeds of `blocks` blocks, one or three,
    and L payload words per leaf and, unless `node_words` is off (a DPF),
    per node side.

    In a node's x, side s's seed sits at bit s * seed_bits and its control
    bit at bit 2 * seed_bits + s.  A three-block x is the passes' XOR under
    `area_mask`, plus (x0 & even) + (x1 & even) + (x2 & even) and the same
    sum of the odd words shifted up by `odd_shift`.  `parts[s]` moves side
    s's even and odd words from x to lane 0 of a packed sum, and `parts[2]`
    a leaf conversion's; `at[b][k]` is the place in a one-block x of word k
    of the lose side and of the keep side when the path bit is b.

    A packed sum is a pair (even words, odd words) of ints, word 2m (resp.
    2m + 1) in 256-bit lane m, so a sum's carries stay in its lane; `pack`
    converts runs of L words to packed sums, and `unpack` one back to words.
    """

    def __init__(self, blocks: int, L: int, node_words: bool = True):
        if blocks not in (1, 3):
            raise ValueError(f"a tree seed is 1 or 3 blocks, not {blocks}")
        self.L = L
        self.seed_bits = blocks * LAM
        self.seed_mask = (1 << self.seed_bits) - 1
        self.area, self.nbytes = layout(blocks, L, node_words)
        self.area_mask = (1 << 8 * self.area) - 1
        base, w = 8 * self.area, 8 * WORD
        self.even = _mask(w, range(base, base + 2 * w * L, 2 * w))
        self.odd = self.even << w
        self.odd_shift = 2 * w * L
        # the place in x of payload word k (side k // L), and the bits that
        # hold its sum
        S, width = (0, w) if blocks == 1 else (self.odd_shift, _LANE)
        at = [base + w * k + (S if k & 1 else 0) for k in range(2 * L + 2)]
        self.parts = [(_mask(width, at[s * L:s * L + L:2]), at[s * L],
                       _mask(width, at[s * L + 1:s * L + L:2]), at[s * L + 1]) for s in (0, 1)]
        self.parts.append((_mask(w, range(0, w * L, 2 * w)), 0,
                           _mask(w, range(w, w * L, 2 * w)), w))
        self.at = [[(at[(1 - b) * L + k], at[b * L + k]) for k in range(L)] for b in (0, 1)]

    def leaf(self, seed: int, acc: tuple[int, int]) -> tuple[int, int]:
        """acc plus a leaf's payload words, unreduced: its leaf conversion,
        block-wise summed for a three-block seed; its caller counts it."""
        em, _, om, os = self.parts[2]
        y, (a0, a1) = seed.to_bytes(self.seed_bits // 8, "little"), acc
        for j in range(0, len(y), BLOCK):
            h = LEAF.copy()
            h.update(y[j:j + BLOCK])
            x = int.from_bytes(h.digest(WORD * self.L), "little")
            a0, a1 = a0 + (x & em), a1 + ((x & om) >> os)
        return a0, a1

    def pack(self, words: list[int], rows: int) -> list[tuple[int, int]]:
        """The packed sums of `rows` runs of L words, laid end to end in `words`."""
        L, halves = self.L, [[0] * rows, [0] * rows]
        for k in range(L - 1, -1, -1):  # the top word of each half starts it
            col = words[k::L]
            halves[k & 1] = col if k >= L - 2 else [
                acc << _LANE | w for acc, w in zip(halves[k & 1], col)]
        return list(zip(*halves))

    def unpack(self, acc: tuple[int, int]) -> list[int]:
        return [(acc[k & 1] >> _LANE * (k >> 1)) & _LANE_MASK for k in range(self.L)]


def _mask(width: int, places) -> int:
    """A mask of `width` bits from each of `places`."""
    return sum(((1 << width) - 1) << at for at in places)


def layout(blocks: int, L: int, node_words: bool = True) -> tuple[int, int]:
    """Bytes of a node's seed area (sL | sR | flags) and of its expansion."""
    area = 2 * blocks * BLOCK + 1
    return area, area + (2 * WORD * L if node_words else 0)


def children(blocks: int, areas: bytes) -> tuple[int, int, int, int]:
    """The left seeds, right seeds, left control bits and right control bits
    of seed areas of `blocks` blocks laid end to end, one per lane, each as
    one int: lane l's seed at bit blocks * LAM * l, its control bit at bit l."""
    a = np.frombuffer(areas, np.uint8).reshape(-1, layout(blocks, 0)[0])
    sb, W = blocks * BLOCK, len(a) * blocks * LAM
    s = int.from_bytes(a[:, :2 * sb].reshape(-1, 2, sb).swapaxes(0, 1).tobytes(), "little")
    flags = b"0" + areas[2 * sb::a.shape[1]][::-1]  # lane 0's last, as in a numeral
    return (s & (1 << W) - 1, s >> W, int(flags.translate(_FLAG_BIT[0]), 2),
            int(flags.translate(_FLAG_BIT[1]), 2))


@cache
def tree(blocks: int, L: int, node_words: bool = True) -> Tree:
    """The shared `Tree` of one shape."""
    return Tree(blocks, L, node_words)


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
