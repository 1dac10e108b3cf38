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

`Tree` holds the layout for one block count and payload length, and the
node kernels that every tree walk and key generator runs.  A node's
expansions are read into ints once.  In a walk, its payload words are summed
one side at a time, only for a child that needs them, and stay unreduced and
packed: the even words of a side in one int and the odd words in another,
each word in a 256-bit lane, so a sum's carries stay in its lane.  A walk
reduces each payload word once, at its leaf.

The one key generator here, the single enclave's, makes one-block keys
only.  It runs a level, the two parties' nodes on the path, as one fused
call, `gen_level`: it expands both seeds, and one XOR of the two expansions
gives the level's seed and control correction words and both parties' next
seeds and control bits; the expansions carry the payload words, unreduced,
where `Tree.at` says.  Three-block keys come only from the enclaves' 3PC in
`tee`, which runs `g_expand` and `block_convert` one block at a time and
reads a level's seed areas, every lane's at once, with `children`.  A
plain reference generator for any block count and domain, written from
those per-block primitives, lives with the tests (`tests/oracles.py`).
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

_G_TAG = b"pairml.prg.node.v2:"
_CV_TAG = b"pairml.prg.leaf.v2:"
_shake = hashlib.shake_128

# global expansion counters so tests can assert PRG-call budgets
calls = 0
bytes_expanded = 0


def g_expand(block: bytes, out_len: int) -> bytes:
    """The local node expander g of one block."""
    global calls, bytes_expanded
    calls += 1
    bytes_expanded += out_len
    return _shake(_G_TAG + block).digest(out_len)


def block_convert(block: bytes, payload_len: int, p: int) -> list[int]:
    """The local leaf converter of one block: LAM bits -> Z_p^L."""
    global calls, bytes_expanded
    calls += 1
    bytes_expanded += WORD * payload_len
    raw = _shake(_CV_TAG + block).digest(WORD * payload_len)
    return [int.from_bytes(raw[i:i + WORD], "little") % p
            for i in range(0, WORD * payload_len, WORD)]


def _expand1(tag: bytes, seed: int, n: int) -> int:
    """n bytes from a one-block seed, as an int."""
    global calls, bytes_expanded
    calls += 1
    bytes_expanded += n
    return int.from_bytes(_shake(tag + seed.to_bytes(BLOCK, "little")).digest(n),
                          "little")


def _expand3(tag: bytes, seed: int, n: int) -> tuple[int, int, int]:
    """n bytes from each of the three blocks of a seed, as ints."""
    global calls, bytes_expanded
    calls += 3
    bytes_expanded += 3 * n
    s = seed.to_bytes(3 * BLOCK, "little")
    return (int.from_bytes(_shake(tag + s[:BLOCK]).digest(n), "little"),
            int.from_bytes(_shake(tag + s[BLOCK:2 * BLOCK]).digest(n), "little"),
            int.from_bytes(_shake(tag + s[2 * BLOCK:]).digest(n), "little"))


def _spread(count: int, first: int) -> int:
    """A mask over words first, first + 2, ... of `count` packed words: the
    words it keeps sit in 256-bit lanes."""
    return sum(((1 << 8 * WORD) - 1) << 8 * WORD * k for k in range(first, count, 2))


_LEAF = 2  # the part `Tree.add` sums besides side 0 and side 1
# per control bit: a flags byte to the ASCII digit of that bit
_FLAG_BIT = [bytes(ord("0") + (f >> i & 1) for f in range(256)) for i in (0, 1)]


class Tree:
    """Node and leaf layout of a tree with seeds of `blocks` blocks,
    one or three, and L payload words per leaf and, unless `node_words` is
    off (a DPF), per node side.

    `expand` gives a node's seed area and its expansion x: one int for a
    one-block seed, the three block expansions for a three-block seed.
    `add` and `leaf` read payload words off such an x; each block count's
    kernel is bound once, here.  `gen_level` is one level of key generation
    on one-block seeds, the only seeds one party generates.

    A packed sum is a pair (even words, odd words) of ints, word 2m (resp.
    2m + 1) in lane m; `pack` converts runs of L words to packed sums, and
    `unpack` one packed sum back to L words.
    """

    def __init__(self, blocks: int, L: int, node_words: bool = True):
        if blocks not in (1, 3):
            raise ValueError(f"a tree seed is 1 or 3 blocks, not {blocks}")
        self.L = L
        self.seed_bits = blocks * LAM
        # a node: sL | sR | flags byte (bit0 = tL, bit1 = tR), the seed area;
        # then L payload words of the left side and L of the right
        self.area = 2 * blocks * BLOCK + 1
        self.nbytes = self.area + (2 * WORD * L if node_words else 0)
        self._area_mask = (1 << 8 * self.area) - 1
        self._seed_mask = (1 << self.seed_bits) - 1
        # per part: the masks of its even and odd words, and the shifts that
        # bring both down to lane 0
        base = 8 * self.area
        self._parts = [
            (_spread(count, 0) << at, at, _spread(count, 1) << at, at + 8 * WORD)
            for count, at in ((L, base), (L, base + 8 * WORD * L), (L, 0))]
        if blocks == 1:
            self.expand, self.add, self._draw = self._node1, self._add1, _expand1
            # an expansion holds side s's word k at bit base + 8 WORD (s L + k);
            # at[b][k] is word k's (lose, keep) places when the path bit is b
            self.at = [[(base + 8 * WORD * ((1 - b) * L + k),
                         base + 8 * WORD * (b * L + k)) for k in range(L)] for b in (0, 1)]
        else:
            self.expand, self.add, self._draw = self._node3, self._add3, _expand3

    def _node1(self, seed: int) -> tuple[int, int]:
        """One node expansion: its seed area, and the one pass of g."""
        x = _expand1(_G_TAG, seed, self.nbytes)
        return x & self._area_mask, x

    def _node3(self, seed: int) -> tuple[int, tuple[int, int, int]]:
        """One node expansion: its seed area, the XOR of the three block
        expansions there, and the three block expansions."""
        x0, x1, x2 = x = _expand3(_G_TAG, seed, self.nbytes)
        return (x0 ^ x1 ^ x2) & self._area_mask, x

    def _add1(self, acc: tuple[int, int], x: int, side: int) -> tuple[int, int]:
        """acc plus one side's payload words of a one-block expansion."""
        em, es, om, os = self._parts[side]
        return acc[0] + ((x & em) >> es), acc[1] + ((x & om) >> os)

    def _add3(self, acc: tuple[int, int], x: tuple[int, int, int],
              side: int) -> tuple[int, int]:
        """acc plus the block-wise sums of one side's payload words, from a
        node's three block expansions."""
        x0, x1, x2 = x
        em, es, om, os = self._parts[side]
        return (acc[0] + (((x0 & em) + (x1 & em) + (x2 & em)) >> es),
                acc[1] + (((x0 & om) + (x1 & om) + (x2 & om)) >> os))

    def gen_level(self, s0: int, t0: int, s1: int, t1: int, bit: int) -> tuple:
        """One key generation level on one-block seeds, path side `bit`: both
        parties' next seeds and control bits, then the seed and control
        correction words, from one XOR of the expansions; then x0, x1."""
        x0 = _expand1(_G_TAG, s0, self.nbytes)
        x1 = _expand1(_G_TAG, s1, self.nbytes)
        W, m, d = self.seed_bits, self._seed_mask, x0 ^ x1
        s_cw = (d >> (1 - bit) * W) & m  # the lose side's seeds' XOR
        t_cw = ((d >> 2 * W) & 1 ^ bit ^ 1, (d >> 2 * W + 1) & 1 ^ bit)
        sh, tk, tc = bit * W, 2 * W + bit, t_cw[bit]
        return ((x0 >> sh) & m ^ (s_cw if t0 else 0), (x0 >> tk) & 1 ^ (tc & t0),
                (x1 >> sh) & m ^ (s_cw if t1 else 0), (x1 >> tk) & 1 ^ (tc & t1),
                s_cw, t_cw, x0, x1)

    def child(self, area: int, side: int) -> tuple[int, int]:
        """The seed and control bit of one side of a seed area."""
        W = self.seed_bits
        return (area >> side * W) & self._seed_mask, (area >> 2 * W + side) & 1

    def cw_area(self, cw: int) -> int:
        """A level's correction word, s_cw | (tL | tR << 1) << seed_bits,
        laid out as a seed area: XORed into a node's seed area, it corrects
        both children."""
        return cw & self._seed_mask | cw << self.seed_bits

    def leaf(self, seed: int, acc: tuple[int, int]) -> tuple[int, int]:
        """acc plus a leaf's payload: its leaf conversion, block-wise summed
        for a three-block seed."""
        return self.add(acc, self._draw(_CV_TAG, seed, WORD * self.L), _LEAF)

    def pack(self, words: list[int], rows: int) -> list[tuple[int, int]]:
        """The packed sums of `rows` runs of L words, laid end to end in `words`."""
        halves = [[0] * rows, [0] * rows]
        for k in range(self.L - 1, -1, -1):
            halves[k & 1] = [acc << _LANE | w
                             for acc, w in zip(halves[k & 1], words[k::self.L])]
        return list(zip(*halves))

    def unpack(self, acc: tuple[int, int]) -> list[int]:
        return [(acc[k & 1] >> _LANE * (k >> 1)) & _LANE_MASK for k in range(self.L)]


def children(tree: Tree, areas: bytes) -> tuple[int, int, int, int]:
    """The left seeds, right seeds, left control bits and right control bits
    of `tree`'s seed areas laid end to end, one per lane, each as one int:
    lane l's seed at bit seed_bits * l, its control bit at bit l."""
    a = np.frombuffer(areas, np.uint8).reshape(-1, tree.area)
    sb, W = tree.seed_bits // 8, len(a) * tree.seed_bits
    s = int.from_bytes(a[:, :2 * sb].reshape(-1, 2, sb).swapaxes(0, 1).tobytes(), "little")
    flags = b"0" + areas[2 * sb::tree.area][::-1]  # lane 0's last, as in a numeral
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
