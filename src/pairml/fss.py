"""Two-key function secret sharing: point functions (DPF) and one-sided
comparisons (DCF), after Boyle-Gilboa-Ishai, "Function Secret Sharing:
Improvements and Extensions" (CCS'16).

Keys are GGM-style trees: a root seed plus one correction word per domain
bit.  The two keys of a pair share every correction word and differ only in
the root seed and root control bit.  Outputs are additive shares over Z_p,
vector payloads of length L.

A DCF is a DPF walk plus a payload correction at each level, so both kinds
come from one key generator, `_tree_gen`, and one evaluator, `_walk`: two
loops that expand every node inline from `prg.NODE`, read its seeds, control
bits and payload words off one int with `prg.Tree`'s masks and shifts, and
add their PRG work to `prg`'s counters once.  Seeds are ints meanwhile.

The generator is the single enclave's: it makes keys with one-block seeds
over the whole (p - 1).bit_length()-bit domain of Z_p, and nothing else.  It
follows the path to the special point.  At each level one XOR of both
parties' expansions gives the seed and control correction words and both
parties' next seeds; a DCF level's payload correction is formed word by
word, reduced only there.  The two keys share one body.

The walker takes a set of points down the tree depth first and expands each
node on their shared prefixes once, so one point costs one node per level
and the whole domain costs one node per tree node.  Below the level where
one point is left, it follows that point's bits.  A node whose control bit
is set XORs its level's correction word into its seed area, which the walker
reads off the key the first time it needs it.  It adds only the payload
words of a side that holds points, unreduced and packed, and reduces each
payload word once, at its leaf.

A key is its wire bytes.  `_key` writes them, for this generator and, by
way of `make_key`, for the enclaves' distributed one in `tee`; `deserialize` checks received
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
    W, m, nb, at = tree.seed_bits, tree.seed_mask, tree.nbytes, tree.at
    M, rec, node, frm = (1 << 8 * prg.WORD) - 1, prg.BLOCK + 1, prg.NODE.copy, int.from_bytes
    roots = (rng.randbytes(prg.BLOCK), rng.randbytes(prg.BLOCK))
    s0, s1 = (frm(r, "little") for r in roots)
    t0, t1 = 0, 1
    # what the leaf correction must still pay out: a DPF pays all of beta
    # there, a DCF whatever its last level correction left over
    v_alpha = [0] * L if cmp else [-v for v in beta]
    cws, v_cws = [], []  # the level correction words, laid out; a DCF's payload ones
    for i in range(n - 1, -1, -1):
        bit = (alpha >> i) & 1
        sign = -1 if t1 else 1
        # both parties' nodes: one XOR of their expansions gives the seed
        # correction word (the lose side's seeds' XOR) and the control ones
        h0, h1 = node(), node()
        h0.update(s0.to_bytes(prg.BLOCK, "little"))
        h1.update(s1.to_bytes(prg.BLOCK, "little"))
        y0, y1 = frm(h0.digest(nb), "little"), frm(h1.digest(nb), "little")
        d = y0 ^ y1
        s_cw = (d >> (1 - bit) * W) & m
        t_cw = ((d >> 2 * W) & 1 ^ bit ^ 1, (d >> 2 * W + 1) & 1 ^ bit)
        cws.append((s_cw | (t_cw[0] | t_cw[1] << 1) << W).to_bytes(rec, "little"))
        # each party's next seed and control bit: its keep child, corrected
        # where its control bit is set
        sh, tk, tc = bit * W, 2 * W + bit, t_cw[bit]
        s0, t0, s1, t1 = ((y0 >> sh) & m ^ (s_cw if t0 else 0), (y0 >> tk) & 1 ^ (tc & t0),
                          (y1 >> sh) & m ^ (s_cw if t1 else 0), (y1 >> tk) & 1 ^ (tc & t1))
        if cmp:  # u: the lose side's difference, plus beta left of alpha
            for k, (lo, ke) in enumerate(at[bit]):
                u = ((y1 >> lo) & M) - ((y0 >> lo) & M) + bit * beta[k]
                v_cws.append(sign * (u - v_alpha[k]) % p)
                v_alpha[k] = u - ((y1 >> ke) & M) + ((y0 >> ke) & M)
    c0, c1 = (tree.unpack(tree.leaf(sc, (0, 0))) for sc in (s0, s1))
    prg.calls += 2 * n + 2
    prg.bytes_expanded += 2 * (n * nb + prg.WORD * L)
    sign = -1 if t1 else 1
    final_cw = [sign * (b1 - b0 - va) % p for b1, b0, va in zip(c1, c0, v_alpha)]
    body = b"".join(cws) + Writer().u64s(final_cw + v_cws).getvalue()  # both keys'
    return tuple(_key(b, p, roots[b], n, L, cmp, body) for b in (0, 1))


def _walk(b: int, key: DpfKey | DcfKey, xs) -> list[list[int]]:
    """Party b's output shares at each point of xs, in the order given."""
    n, p, L = key.domain_bits, key.p, key.payload_len
    cmp, three = isinstance(key, DcfKey), key.blocks == 3
    tree = prg.tree(key.blocks, L, cmp)
    pts = sorted(set(xs))
    if pts and (pts[0] < 0 or pts[-1] >> n):
        raise FssParameterError(f"inputs {pts[0]}..{pts[-1]} outside {n}-bit domain")
    # the key's body, as `_key` lays it out after the header
    B, sb, buf = prg.BLOCK, key.blocks * prg.BLOCK, key.buf
    body, rec = _HEAD + sb, sb + 1
    rows = 1 + n * cmp  # final_cw, then a DCF's v_cw per level
    final_cw, *v_cws = tree.pack(Reader(buf[body + n * rec:]).u64s(L * rows), rows)
    v_cws.reverse()  # indexed, like every per-level list here, by n - 1 - level
    W, m, nb, am = tree.seed_bits, tree.seed_mask, tree.nbytes, tree.area_mask
    tl, tr, E, O, S = 2 * W, 2 * W + 1, tree.even, tree.odd, tree.odd_shift
    node, frm = prg.NODE.copy, int.from_bytes
    (e0, f0, o0, g0), (e1, f1, o1, g1) = tree.parts[:2]
    # each level's correction word, read off the key when first used
    last, cws = body + (n - 1) * rec, [None] * n
    # a node still to expand: the shift n - 1 - level of its point bit, its
    # seed and control bit, the payload words summed so far (party b's
    # share up to its sign, packed and unreduced: even words, odd words),
    # and the slice pts[lo:hi] of the points below it.  A node with points
    # on both sides pushes its right child and descends to its left; with
    # one point below it, a node descends along the point's bits.
    todo = [(n - 1, frm(buf[_HEAD:body], "little"), key.party, 0, 0, 0, len(pts))] if pts else []
    out, nodes = {}, 0
    while todo:
        top, s, t, a0, a1, lo, hi = todo.pop()
        pt = pts[lo]
        nodes += top + 1
        for shift in range(top, -1, -1):
            y = s.to_bytes(sb, "little")
            h = node()
            h.update(y[:B])
            x = frm(h.digest(nb), "little")
            if three:  # the passes' XOR on the seed area, their sums above it
                h, h2 = node(), node()
                h.update(y[B:2 * B])
                h2.update(y[2 * B:])
                x0, x1, x2 = x, frm(h.digest(nb), "little"), frm(h2.digest(nb), "little")
                x = (x ^ x1 ^ x2) & am
                if cmp:
                    x |= (x0 & E) + (x1 & E) + (x2 & E) | ((x0 & O) + (x1 & O) + (x2 & O)) << S
            if t:
                c = cws[shift]
                if c is None:
                    c = frm(buf[last - shift * rec:last - shift * rec + rec], "little")
                    c = cws[shift] = c & m | c << W  # laid out as a seed area
                x ^= c
                if cmp:
                    a0, a1 = a0 + v_cws[shift][0], a1 + v_cws[shift][1]
            if (pt >> shift) & 1:
                s, t = (x >> W) & m, (x >> tr) & 1
                if cmp:
                    a0, a1 = a0 + ((x & e1) >> f1), a1 + ((x & o1) >> g1)
                continue
            if hi - lo > 1:
                mid = bisect_left(pts, (pt >> shift | 1) << shift, lo, hi)
                if mid < hi:
                    todo.append((shift - 1, (x >> W) & m, (x >> tr) & 1,
                                 a0 + ((x & e1) >> f1) if cmp else a0,
                                 a1 + ((x & o1) >> g1) if cmp else a1, mid, hi))
                    hi = mid
            s, t = x & m, (x >> tl) & 1
            if cmp:
                a0, a1 = a0 + ((x & e0) >> f0), a1 + ((x & o0) >> g0)
        a0, a1 = tree.leaf(s, (a0, a1))
        if t:
            a0, a1 = a0 + final_cw[0], a1 + final_cw[1]
        out[pt] = [-v % p if b else v % p for v in tree.unpack((a0, a1))]
    prg.calls += key.blocks * (nodes + len(pts))
    prg.bytes_expanded += key.blocks * (nodes * nb + prg.WORD * L * len(pts))
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
# words).  `_key` writes it, for `make_key` and `_tree_gen`,
# `DpfKey.deserialize` checks it and `_walk` reads it; nothing else knows it.

_HEAD = 16  # header bytes


def make_key(party: int, p: int, root: bytes, levels: list[tuple[int, tuple[int, int]]],
             final_cw: list[int], v_cws: list[int] | None = None) -> DpfKey | DcfKey:
    """Party `party`'s key: its root seed, per level the seed correction
    word and control correction bits (s_cw, (tL, tR)), and the final
    correction word; a DCF key when `v_cws`, every level's payload
    correction words in level order, is given."""
    sb = len(root)
    return _key(party, p, root, len(levels), len(final_cw), v_cws is not None, b"".join(
        (s_cw | (tl | tr << 1) << 8 * sb).to_bytes(sb + 1, "little") for s_cw, (tl, tr) in levels)
        + Writer().u64s([*final_cw, *(v_cws or ())]).getvalue())


def _key(party: int, p: int, root: bytes, n: int, L: int, cmp: bool,
         body: bytes) -> DpfKey | DcfKey:
    """Party `party`'s key with this root and body: the level correction
    words, laid out, then the payload correction words."""
    cls, blocks = DcfKey if cmp else DpfKey, len(root) // prg.BLOCK
    w = Writer().u8(cls._variants[blocks]).u8(party).u8(n).u16(L).u64(p)
    return cls(party, n, p, blocks, L, w.u16(prg.LAM).u8(party).raw(root).raw(body).getvalue())
