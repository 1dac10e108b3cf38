"""Two-key function secret sharing: point functions (DPF) and one-sided
comparisons (DCF), after Boyle-Gilboa-Ishai, "Function Secret Sharing:
Improvements and Extensions" (CCS'16).

Keys are GGM-style trees: a root seed plus one correction word per domain
bit.  The two keys of a pair share every correction word and differ only in
the root seed and root control bit.  Outputs are additive shares over Z_p,
vector payloads of length L.

A DCF is a DPF walk plus a payload correction at each level, so both kinds
come from one key generator, `_tree_gen`, and one evaluator, `_walk`.  The
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
each party's payload words as one int; it then forms a DCF level's payload
correction word by word, reducing only there.  Seeds are ints while a tree
is generated or walked, and bytes in a key.

A key's seeds are one or three blocks of `prg.LAM` bits, the one security
parameter: one when a single party generates the pair, three when three
enclaves generate it together, each expanding its own block.  A key carries
its block count, and its variant byte names it.  It does not carry what
the rest of it fixes: its root control bit is its party, and its payload
length is that of its final correction word.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import ClassVar

from . import prg
from .codec import Reader, Writer


class FssParameterError(ValueError):
    pass


@dataclass
class DpfKey:
    """Key for f(x) = beta * [x == alpha] over an n-bit domain, with seeds
    of `blocks` blocks.  `party`, 0 or 1, is also the root control bit."""

    _variants: ClassVar[dict[int, int]] = {3: 0x01, 1: 0x03}  # blocks -> byte
    party: int
    domain_bits: int
    p: int
    blocks: int
    root_seed: bytes
    seed_cws: list[bytes]
    t_cws: list[tuple[int, int]]
    final_cw: list[int]

    def serialize(self) -> bytes:
        return _serialize_tree(self)

    @classmethod
    def deserialize(cls, buf: bytes) -> "DpfKey":
        return cls(**_deserialize_tree(buf, cls))


@dataclass
class DcfKey(DpfKey):
    """Key for f(x) = beta * [x < threshold] over an n-bit domain: the DPF
    fields plus one payload correction word per level."""

    _variants: ClassVar[dict[int, int]] = {3: 0x02, 1: 0x04}
    v_cws: list[list[int]]


# -- the key generator and the walker ---------------------------------------------


def _tree_gen(p: int, alpha: int, beta: list[int], rng, n: int, cmp: bool,
              blocks: int = 3):
    """Key pair for beta * [x < alpha] (cmp) or beta * [x == alpha], with
    seeds of `blocks` blocks."""
    if alpha >> n:
        raise FssParameterError(f"point {alpha} outside {n}-bit domain")
    beta = [int(v) % p for v in beta]
    L = len(beta)
    tree = prg.tree(blocks, L, cmp)
    level, at, M = tree.gen_level, tree.at, tree.word_mask
    sb = blocks * prg.BLOCK
    roots = (rng.randbytes(sb), rng.randbytes(sb))
    s0, s1 = (int.from_bytes(r, "little") for r in roots)
    t0, t1 = 0, 1
    # what the leaf correction must still pay out: a DPF pays all of beta
    # there, a DCF whatever its last level correction left over
    v_alpha = [0] * L if cmp else [-v for v in beta]
    seed_cws: list[bytes] = []
    v_cws: list[list[int]] = []
    t_cws: list[tuple[int, int]] = []
    for i in range(n - 1, -1, -1):
        bit = (alpha >> i) & 1
        sign = -1 if t1 else 1
        s0, t0, s1, t1, s_cw, t_cw, y0, y1 = level(s0, t0, s1, t1, bit)
        seed_cws.append(s_cw.to_bytes(sb, "little"))
        t_cws.append(t_cw)
        if cmp:  # u: the lose side's difference, plus beta left of alpha
            v_cw = []
            for k, (lo, ke) in enumerate(at[bit]):
                u = ((y1 >> lo) & M) - ((y0 >> lo) & M) + bit * beta[k]
                v_cw.append(sign * (u - v_alpha[k]) % p)
                v_alpha[k] = u - ((y1 >> ke) & M) + ((y0 >> ke) & M)
            v_cws.append(v_cw)
    c0, c1 = (tree.unpack(tree.leaf(sc, (0, 0))) for sc in (s0, s1))
    sign = -1 if t1 else 1
    final_cw = [sign * (b1 - b0 - va) % p for b1, b0, va in zip(c1, c0, v_alpha)]
    cls = DcfKey if cmp else DpfKey
    keys = []
    for b in (0, 1):
        extra = dict(v_cws=[list(v) for v in v_cws]) if cmp else {}
        keys.append(cls(party=b, domain_bits=n, p=p, blocks=blocks,
                        root_seed=roots[b], seed_cws=list(seed_cws),
                        t_cws=list(t_cws), final_cw=list(final_cw), **extra))
    return keys[0], keys[1]


def _walk(b: int, key: DpfKey | DcfKey, xs) -> list[list[int]]:
    """Party b's output shares at each point of xs, in the order given."""
    n, p = key.domain_bits, key.p
    cmp = isinstance(key, DcfKey)
    tree = prg.tree(key.blocks, len(key.final_cw), cmp)
    expand, child, add = tree.expand, tree.child, tree.add
    pts = sorted(set(xs))
    if pts and (pts[0] < 0 or pts[-1] >> n):
        raise FssParameterError(
            f"inputs {pts[0]}..{pts[-1]} outside {n}-bit domain")
    cws = [tree.cw_area(int.from_bytes(s_cw, "little"), t_cw)
           for s_cw, t_cw in zip(key.seed_cws, key.t_cws)]
    v_cws = [tree.pack(v) for v in key.v_cws] if cmp else None
    final_cw = tree.pack(key.final_cw)
    # a node still to expand: its level, seed and control bit, the payload
    # words summed so far (party b's share up to its sign, packed and
    # unreduced), and the slice pts[lo:hi] of the points below it.  A node
    # with points on both sides pushes its right child and descends to its
    # left; with one point below it, a node descends along the point's bits.
    todo = [(0, int.from_bytes(key.root_seed, "little"), key.party, (0, 0),
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


def dpf_gen(p: int, alpha: int, beta: list[int], rng, domain_bits: int | None = None,
            blocks: int = 3) -> tuple[DpfKey, DpfKey]:
    """Keys k0, k1 with eval0(x) + eval1(x) = beta * [x == alpha] (mod p)."""
    n = domain_bits if domain_bits is not None else (p - 1).bit_length()
    return _tree_gen(p, alpha, beta, rng, n, False, blocks)


def dpf_eval(b: int, key: DpfKey, x: int) -> list[int]:
    """Party b's share of f_{alpha,beta}(x); O(domain_bits) PRG calls."""
    return _walk(b, key, [x])[0]


def dcf_gen(p: int, threshold: int, beta: list[int], rng,
            domain_bits: int | None = None, blocks: int = 3) -> tuple[DcfKey, DcfKey]:
    """Comparison keys: share sums equal beta * [x < threshold]."""
    n = domain_bits if domain_bits is not None else (p - 1).bit_length()
    return _tree_gen(p, threshold, beta, rng, n, True, blocks)


def dcf_eval(b: int, key: DcfKey, x: int) -> list[int]:
    return _walk(b, key, [x])[0]


def dcf_eval_many(b: int, key: DcfKey, xs) -> list[list[int]]:
    """Shares at each point of xs from one tree walk, in the order given."""
    return _walk(b, key, xs)


# -- serialization ------------------------------------------------------------------

# variant u8 (the key class and its block count: 0x01 DPF and 0x02 DCF with
# three-block seeds, 0x03 DPF and 0x04 DCF with one-block seeds), party u8,
# domain_bits u8, L u16, p u64, prg.LAM u16, root control bit u8 (the
# party); root seed; per level its seed correction word and a flags byte
# (bit0 = tL, bit1 = tR); final_cw (L words); DCF only: per level v_cw (L
# words).  All levels' seed correction words and flags go as one raw field,
# and final_cw and the v_cws as one run of words.


def _serialize_tree(key: DpfKey | DcfKey) -> bytes:
    if key.blocks not in key._variants or key.party not in (0, 1):
        raise ValueError(f"inconsistent FSS key: {key.blocks} seed blocks, "
                         f"party {key.party}")
    sb, n, L = key.blocks * prg.BLOCK, key.domain_bits, len(key.final_cw)
    cmp = isinstance(key, DcfKey)
    v_cws = key.v_cws if cmp else []
    if not (len(key.root_seed) == sb
            and len(key.seed_cws) == len(key.t_cws) == n
            and all(len(s) == sb for s in key.seed_cws)
            and len(v_cws) == n * cmp and all(len(v) == L for v in v_cws)):
        raise ValueError("inconsistent FSS key: field sizes do not match its header")
    w = Writer().u8(key._variants[key.blocks]).u8(key.party).u8(n).u16(L).u64(key.p)
    w.u16(prg.LAM).u8(key.party).raw(key.root_seed)
    w.raw(b"".join(s_cw + bytes((tl | tr << 1,))
                   for s_cw, (tl, tr) in zip(key.seed_cws, key.t_cws)))
    w.u64s([*key.final_cw, *(v for vc in v_cws for v in vc)])
    return w.getvalue()


def _deserialize_tree(buf: bytes, cls) -> dict:
    """Constructor fields of a `cls` key; the buffer must be exactly one key."""
    with Reader(buf) as r:
        variant, party, n, pl, p = r.u8(), r.u8(), r.u8(), r.u16(), r.u64()
        blocks = {v: k for k, v in cls._variants.items()}.get(variant)
        if blocks is None:
            raise ValueError(f"not a {cls.__name__}: variant {variant:#04x}")
        lam, root_t = r.u16(), r.u8()
        if lam != prg.LAM:
            raise ValueError(f"malformed {cls.__name__}: lam {lam}, not {prg.LAM}")
        if party > 1 or root_t != party:  # the root control bit is the party
            raise ValueError(f"malformed {cls.__name__}: party {party}, "
                             f"root control bit {root_t}")
        sb = blocks * prg.BLOCK
        root_seed, levels = r.raw(sb), r.raw(n * (sb + 1))
        flags = levels[sb::sb + 1]
        if flags and max(flags) > 3:
            raise ValueError(f"malformed {cls.__name__}: control flags "
                             f"{max(flags):#04x}")
        fields = dict(party=party, domain_bits=n, p=p, blocks=blocks, root_seed=root_seed,
                      seed_cws=[levels[i:i + sb] for i in range(0, n * (sb + 1), sb + 1)],
                      t_cws=[(f & 1, f >> 1) for f in flags])
        words = r.u64s(pl * (1 + n * (cls is DcfKey)))
        fields["final_cw"] = words[:pl]
        if cls is DcfKey:
            fields["v_cws"] = [words[pl * (i + 1):pl * (i + 2)] for i in range(n)]
    return fields
