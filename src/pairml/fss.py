"""Two-key function secret sharing: point functions (DPF) and one-sided
comparisons (DCF), after Boyle-Gilboa-Ishai, "Function Secret Sharing:
Improvements and Extensions" (CCS'16).

Keys are GGM-style trees: a root seed plus one correction word per domain
bit.  The two keys of a pair share every correction word and differ only in
the root seed and root control bit.  Outputs are additive shares over Z_p,
vector payloads of length L.

A DCF is a DPF walk plus a payload correction at each level, so both kinds
come from one key generator, `_tree_gen`, and one evaluator, `_walk`.  The
generator is the single enclave's: it makes keys with one-block seeds over
the whole (p - 1).bit_length()-bit domain of Z_p, and nothing else.  The
generator follows the path to the special point; the walker takes a set of
points down the tree depth first and expands each node on their shared
prefixes once, so one point costs one node per level and the whole domain
costs one node per tree node.  Below the level where one point is left, it
follows that point's bits.  A node costs one PRG pass of the node kernel,
`prg.Tree`: its seed area holds both children's seeds and control bits, and
a DCF node's payload words are both children's payload shares.  The walker
adds only the words of a side that holds points, unreduced, and reduces each
payload word once, at its leaf.  The generator makes each level in one fused
kernel call, `prg.Tree.gen_level`, which expands both parties' nodes on the
path and returns the next seeds, the seed and control correction words and
both expansions, which hold the payload words; it then forms a DCF level's
payload correction word by word, reducing only there.  Seeds are ints while
a tree is generated or walked.

A key is its wire bytes.  `make_key` writes them, for this generator and
for the enclaves' distributed one in `tee`; `deserialize` checks received
bytes once and keeps them; `_walk` reads the correction words straight off
them.  Only this module knows the layout.

A key's seeds are one or three blocks of `prg.LAM` bits, the one security
parameter: one when a single party generates the pair, three when three
enclaves generate it together, each expanding its own block.  Three-block
keys come only from that 3PC (`tee.TeeTriple`); the walker reads both.  A
plain reference generator for either block count and any domain lives with
the tests (`tests/oracles.py`).  A key's variant byte names its block
count.  Its root control bit is its party: the header restates it, and
`deserialize` refuses a header that differs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import ClassVar

from . import prg
from .codec import Reader, Writer


class FssParameterError(ValueError):
    pass


@dataclass(frozen=True)
class DpfKey:
    """Key for f(x) = beta * [x == alpha] over an n-bit domain, with seeds
    of `blocks` blocks: its wire bytes `buf`, and the header fields a walk
    needs.  `party`, 0 or 1, is also the root control bit."""

    _variants: ClassVar[dict[int, int]] = {3: 0x01, 1: 0x03}  # blocks -> byte
    party: int
    domain_bits: int
    p: int
    blocks: int
    payload_len: int
    buf: bytes

    def serialize(self) -> bytes:
        return self.buf

    @classmethod
    def deserialize(cls, buf: bytes) -> "DpfKey":
        """The key that `buf` is, checked once; `buf` must be exactly one key."""
        buf = bytes(buf)
        with Reader(buf) as r:
            variant, party, n, L, p = r.u8(), r.u8(), r.u8(), r.u16(), r.u64()
            blocks = {v: k for k, v in cls._variants.items()}.get(variant)
            if blocks is None:
                raise ValueError(f"not a {cls.__name__}: variant {variant:#04x}")
            lam, root_t = r.u16(), r.u8()
            if lam != prg.LAM:
                raise ValueError(f"malformed {cls.__name__}: lam {lam}, not {prg.LAM}")
            if party > 1 or root_t != party:  # the root control bit is the party
                raise ValueError(f"malformed {cls.__name__}: party {party}, "
                                 f"root control bit {root_t}")
            if n > (p - 1).bit_length():
                raise ValueError(f"malformed {cls.__name__}: {n}-bit domain over p {p}")
            sb = blocks * prg.BLOCK
            flags = r.raw(sb + n * (sb + 1))[2 * sb::sb + 1]
            if flags and max(flags) > 3:
                raise ValueError(f"malformed {cls.__name__}: control flags "
                                 f"{max(flags):#04x}")
            words = r.u64s(L * (1 + n * (cls is DcfKey)))
            if words and max(words) >= p:
                raise ValueError(f"malformed {cls.__name__}: correction word "
                                 f"{max(words)} not below p {p}")
        return cls(party, n, p, blocks, L, buf)


class DcfKey(DpfKey):
    """Key for f(x) = beta * [x < threshold] over an n-bit domain: a DPF key
    plus one payload correction word per level."""

    _variants = {3: 0x02, 1: 0x04}


# -- the key generator and the walker ---------------------------------------------


def _tree_gen(p: int, alpha: int, beta: list[int], rng, cmp: bool):
    """Key pair for beta * [x < alpha] (cmp) or beta * [x == alpha] over
    Z_p's (p - 1).bit_length()-bit domain, with one-block seeds."""
    n = (p - 1).bit_length()
    if alpha >> n:
        raise FssParameterError(f"point {alpha} outside {n}-bit domain")
    beta = [int(v) % p for v in beta]
    L = len(beta)
    tree = prg.tree(1, L, cmp)
    level, at, M = tree.gen_level, tree.at, (1 << 8 * prg.WORD) - 1
    roots = (rng.randbytes(prg.BLOCK), rng.randbytes(prg.BLOCK))
    s0, s1 = (int.from_bytes(r, "little") for r in roots)
    t0, t1 = 0, 1
    # what the leaf correction must still pay out: a DPF pays all of beta
    # there, a DCF whatever its last level correction left over
    v_alpha = [0] * L if cmp else [-v for v in beta]
    levels: list[tuple[int, tuple[int, int]]] = []
    v_cws: list[int] = []
    for i in range(n - 1, -1, -1):
        bit = (alpha >> i) & 1
        sign = -1 if t1 else 1
        s0, t0, s1, t1, s_cw, t_cw, y0, y1 = level(s0, t0, s1, t1, bit)
        levels.append((s_cw, t_cw))
        if cmp:  # u: the lose side's difference, plus beta left of alpha
            for k, (lo, ke) in enumerate(at[bit]):
                u = ((y1 >> lo) & M) - ((y0 >> lo) & M) + bit * beta[k]
                v_cws.append(sign * (u - v_alpha[k]) % p)
                v_alpha[k] = u - ((y1 >> ke) & M) + ((y0 >> ke) & M)
    c0, c1 = (tree.unpack(tree.leaf(sc, (0, 0))) for sc in (s0, s1))
    sign = -1 if t1 else 1
    final_cw = [sign * (b1 - b0 - va) % p for b1, b0, va in zip(c1, c0, v_alpha)]
    return tuple(make_key(b, p, roots[b], levels, final_cw, v_cws if cmp else None)
                 for b in (0, 1))


def _walk(b: int, key: DpfKey | DcfKey, xs) -> list[list[int]]:
    """Party b's output shares at each point of xs, in the order given."""
    n, p, L = key.domain_bits, key.p, key.payload_len
    cmp = isinstance(key, DcfKey)
    tree = prg.tree(key.blocks, L, cmp)
    expand, child, add = tree.expand, tree.child, tree.add
    pts = sorted(set(xs))
    if pts and (pts[0] < 0 or pts[-1] >> n):
        raise FssParameterError(
            f"inputs {pts[0]}..{pts[-1]} outside {n}-bit domain")
    # the key's body, as `make_key` lays it out after the header
    sb, buf = key.blocks * prg.BLOCK, key.buf
    body, rec = _HEAD + sb, sb + 1
    cws = [tree.cw_area(int.from_bytes(buf[at:at + rec], "little"))
           for at in range(body, body + n * rec, rec)]
    rows = 1 + n * cmp  # final_cw, then a DCF's v_cw per level
    final_cw, *v_cws = tree.pack(Reader(buf[body + n * rec:]).u64s(L * rows), rows)
    # a node still to expand: its level, seed and control bit, the payload
    # words summed so far (party b's share up to its sign, packed and
    # unreduced), and the slice pts[lo:hi] of the points below it.  A node
    # with points on both sides pushes its right child and descends to its
    # left; with one point below it, a node descends along the point's bits.
    todo = [(0, int.from_bytes(buf[_HEAD:body], "little"), key.party, (0, 0),
             0, len(pts))] if pts else []
    out = {}
    while todo:
        i, s, t, acc, lo, hi = todo.pop()
        pt = pts[lo]
        for i in range(i, n):
            a, x = expand(s)
            if t:
                a ^= cws[i]
                if cmp:
                    acc = (acc[0] + v_cws[i][0], acc[1] + v_cws[i][1])
            shift = n - 1 - i
            side = (pt >> shift) & 1
            if not side and hi - lo > 1:
                mid = bisect_left(pts, (pt >> shift | 1) << shift, lo, hi)
                if mid < hi:
                    todo.append((i + 1, *child(a, 1),
                                 add(acc, x, 1) if cmp else acc, mid, hi))
                    hi = mid
            s, t = child(a, side)
            if cmp:
                acc = add(acc, x, side)
        acc = tree.leaf(s, acc)
        if t:
            acc = (acc[0] + final_cw[0], acc[1] + final_cw[1])
        out[pt] = [-v % p if b else v % p for v in tree.unpack(acc)]
    return [out[x] for x in xs]


def dpf_gen(p: int, alpha: int, beta: list[int], rng) -> tuple[DpfKey, DpfKey]:
    """Keys k0, k1 with eval0(x) + eval1(x) = beta * [x == alpha] (mod p)."""
    return _tree_gen(p, alpha, beta, rng, False)


def dpf_eval(b: int, key: DpfKey, x: int) -> list[int]:
    """Party b's share of f_{alpha,beta}(x); O(domain_bits) PRG calls."""
    return _walk(b, key, [x])[0]


def dcf_gen(p: int, threshold: int, beta: list[int], rng) -> tuple[DcfKey, DcfKey]:
    """Comparison keys: share sums equal beta * [x < threshold]."""
    return _tree_gen(p, threshold, beta, rng, True)


def dcf_eval(b: int, key: DcfKey, x: int) -> list[int]:
    return _walk(b, key, [x])[0]


def dcf_eval_many(b: int, key: DcfKey, xs) -> list[list[int]]:
    """Shares at each point of xs from one tree walk, in the order given."""
    return _walk(b, key, xs)


# -- the key layout ------------------------------------------------------------------

# A key is its wire bytes, in this layout: variant u8 (the key class and its
# block count: 0x01 DPF and 0x02 DCF with three-block seeds, 0x03 DPF and
# 0x04 DCF with one-block seeds), party u8, domain_bits u8, L u16, p u64,
# prg.LAM u16, root control bit u8 (the party); the root seed; per level its
# seed correction word and a flags byte (bit0 = tL, bit1 = tR); then one run
# of u64 words: final_cw (L words) and, for a DCF, per level its v_cw (L
# words).  `make_key` writes it, `DpfKey.deserialize` checks it and `_walk`
# reads it; nothing else knows it.

_HEAD = 16  # header bytes


def make_key(party: int, p: int, root: bytes, levels: list[tuple[int, tuple[int, int]]],
             final_cw: list[int], v_cws: list[int] | None = None) -> DpfKey | DcfKey:
    """Party `party`'s key: its root seed, per level the seed correction
    word and control correction bits (s_cw, (tL, tR)), and the final
    correction word; a DCF key when `v_cws`, every level's payload
    correction words in level order, is given."""
    cls = DpfKey if v_cws is None else DcfKey
    sb, n, L = len(root), len(levels), len(final_cw)
    w = Writer().u8(cls._variants[sb // prg.BLOCK]).u8(party).u8(n).u16(L).u64(p)
    w.u16(prg.LAM).u8(party).raw(root)
    w.raw(b"".join((s_cw | (tl | tr << 1) << 8 * sb).to_bytes(sb + 1, "little")
                   for s_cw, (tl, tr) in levels))
    w.u64s([*final_cw, *(v_cws or ())])
    return cls(party, n, p, sb // prg.BLOCK, L, w.getvalue())
