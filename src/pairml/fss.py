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
points down the tree level by level and expands each node on their shared
prefixes once, so one point costs one node per level and the whole domain
costs one node per tree node.  A node costs one PRG pass, `prg.expand_node`:
its seed area holds both children's seeds and control bits, and a DCF
node's payload words are both children's payload shares.  Seeds are ints
while a tree is generated or walked, and bytes in a key.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import ClassVar

from . import prg
from .codec import Reader, Writer


class FssParameterError(ValueError):
    pass


def _seed_bytes(lam: int) -> int:
    return prg.BLOCKS * lam // 8


@dataclass
class DpfKey:
    """Key for f(x) = beta * [x == alpha] over an n-bit domain."""

    _variant: ClassVar[int] = 0x01
    party: int
    domain_bits: int
    p: int
    payload_len: int
    lam: int
    root_seed: bytes
    root_t: int
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

    _variant: ClassVar[int] = 0x02
    v_cws: list[list[int]]


# -- the key generator and the walker ---------------------------------------------


def _tree_gen(p: int, alpha: int, beta: list[int], rng, n: int, lam: int,
              cmp: bool):
    """Key pair for beta * [x < alpha] (cmp) or beta * [x == alpha]."""
    if alpha >> n:
        raise FssParameterError(f"point {alpha} outside {n}-bit domain")
    beta = [int(v) % p for v in beta]
    L = len(beta)
    sb = _seed_bytes(lam)
    W, mask = 8 * sb, (1 << 8 * sb) - 1
    roots = (rng.randbytes(sb), rng.randbytes(sb))
    s, t = [int.from_bytes(r, "little") for r in roots], [0, 1]
    # what the leaf correction must still pay out: a DPF pays all of beta
    # there, a DCF whatever its level corrections left over
    v_alpha = [0] * L if cmp else [-v for v in beta]
    seed_cws: list[bytes] = []
    v_cws: list[list[int]] = []
    t_cws: list[tuple[int, int]] = []
    for i in range(n - 1, -1, -1):
        bit = (alpha >> i) & 1
        (x0, w0), (x1, w1) = (prg.expand_node(sc, lam, L if cmp else 0, p)
                              for sc in s)
        keep, lose = bit, 1 - bit
        s_cw = ((x0 ^ x1) >> (lose * W)) & mask
        flags = (x0 ^ x1) >> 2 * W
        t_cw = ((flags ^ bit ^ 1) & 1, ((flags >> 1) ^ bit) & 1)
        if cmp:
            sign = -1 if t[1] else 1
            cl0, cl1 = w0[lose * L:(lose + 1) * L], w1[lose * L:(lose + 1) * L]
            v_cw = [sign * (b1 - b0 - va) % p for b1, b0, va in zip(cl1, cl0, v_alpha)]
            if bit:  # lose side is L: everything left of the path is below alpha
                v_cw = [(v + sign * bv) % p for v, bv in zip(v_cw, beta)]
            ck0, ck1 = w0[keep * L:(keep + 1) * L], w1[keep * L:(keep + 1) * L]
            v_alpha = [(va - b1 + b0 + sign * v) % p
                       for va, b1, b0, v in zip(v_alpha, ck1, ck0, v_cw)]
            v_cws.append(v_cw)
        seed_cws.append(s_cw.to_bytes(sb, "little"))
        t_cws.append(t_cw)
        for c, x in ((0, x0), (1, x1)):
            s_keep = (x >> (keep * W)) & mask
            t_keep = (x >> (2 * W + bit)) & 1
            s[c] = s_keep ^ s_cw if t[c] else s_keep
            t[c] = t_keep ^ (t[c] & t_cw[bit])
    c0, c1 = (prg.convert_leaf(sc, lam, L, p) for sc in s)
    sign = -1 if t[1] else 1
    final_cw = [sign * (b1 - b0 - va) % p for b1, b0, va in zip(c1, c0, v_alpha)]
    cls = DcfKey if cmp else DpfKey
    keys = []
    for b in (0, 1):
        extra = dict(v_cws=[list(v) for v in v_cws]) if cmp else {}
        keys.append(cls(party=b, domain_bits=n, p=p, payload_len=L, lam=lam,
                        root_seed=roots[b], root_t=b, seed_cws=list(seed_cws),
                        t_cws=list(t_cws), final_cw=list(final_cw), **extra))
    return keys[0], keys[1]


def _walk(b: int, key: DpfKey | DcfKey, xs) -> list[list[int]]:
    """Party b's output shares at each point of xs, in the order given."""
    n, p, L, lam = key.domain_bits, key.p, key.payload_len, key.lam
    cmp = isinstance(key, DcfKey)
    W = 8 * _seed_bytes(lam)
    mask = (1 << W) - 1
    pts = sorted(set(xs))
    if pts and (pts[0] < 0 or pts[-1] >> n):
        raise FssParameterError(
            f"inputs {pts[0]}..{pts[-1]} outside {n}-bit domain")
    # a node: seed, control bit, the payload words summed so far (party b's
    # share up to its sign, reduced at the leaf), and the slice pts[lo:hi]
    # of the points below it
    zero = [0] * L
    root = int.from_bytes(key.root_seed, "little")
    level = [(root, key.root_t, zero, 0, len(pts))] if pts else []
    for i in range(n):
        shift = n - 1 - i
        s_cw = int.from_bytes(key.seed_cws[i], "little")
        t_cw = key.t_cws[i]
        v_cw = key.v_cws[i] if cmp else None
        nxt = []
        for s, t, acc, lo, hi in level:
            x, pay = prg.expand_node(s, lam, L if cmp else 0, p)
            mid = bisect_left(pts, (pts[lo] >> shift | 1) << shift, lo, hi)
            for side, a, z in ((0, lo, mid), (1, mid, hi)):
                if a == z:
                    continue
                s_c = (x >> (side * W)) & mask
                t_c = (x >> (2 * W + side)) & 1
                if cmp:
                    acc_c = [u + c + w for u, c, w in
                             zip(acc, pay[side * L:(side + 1) * L], v_cw if t else zero)]
                else:
                    acc_c = acc
                if t:
                    s_c ^= s_cw
                    t_c ^= t_cw[side]
                nxt.append((s_c, t_c, acc_c, a, z))
        level = nxt
    sign = -1 if b else 1
    out = {}
    for s, t, acc, lo, _ in level:
        conv = prg.convert_leaf(s, lam, L, p)
        out[pts[lo]] = [sign * (u + c + f) % p for u, c, f in
                        zip(acc, conv, key.final_cw if t else zero)]
    return [out[x] for x in xs]


def dpf_gen(p: int, alpha: int, beta: list[int], rng, domain_bits: int | None = None,
            lam: int = 128) -> tuple[DpfKey, DpfKey]:
    """Keys k0, k1 with eval0(x) + eval1(x) = beta * [x == alpha] (mod p)."""
    n = domain_bits if domain_bits is not None else (p - 1).bit_length()
    return _tree_gen(p, alpha, beta, rng, n, lam, cmp=False)


def dpf_eval(b: int, key: DpfKey, x: int) -> list[int]:
    """Party b's share of f_{alpha,beta}(x); O(domain_bits) PRG calls."""
    return _walk(b, key, [x])[0]


def dpf_eval_all(b: int, key: DpfKey) -> list[list[int]]:
    """Shares at every domain point via one tree walk (exhaustive tests)."""
    return _walk(b, key, range(1 << key.domain_bits))


def dcf_gen(p: int, threshold: int, beta: list[int], rng,
            domain_bits: int | None = None, lam: int = 128) -> tuple[DcfKey, DcfKey]:
    """Comparison keys: share sums equal beta * [x < threshold]."""
    n = domain_bits if domain_bits is not None else (p - 1).bit_length()
    return _tree_gen(p, threshold, beta, rng, n, lam, cmp=True)


def dcf_eval(b: int, key: DcfKey, x: int) -> list[int]:
    return _walk(b, key, [x])[0]


def dcf_eval_many(b: int, key: DcfKey, xs) -> list[list[int]]:
    """Shares at each point of xs from one tree walk, in the order given."""
    return _walk(b, key, xs)


def dcf_eval_all(b: int, key: DcfKey) -> list[list[int]]:
    """Comparison shares at every domain point via one tree walk."""
    return _walk(b, key, range(1 << key.domain_bits))


# -- serialization ------------------------------------------------------------------

# variant u8, party u8, domain_bits u8, L u16, p u64, lam u16, root_t u8; root
# seed; per level its seed correction word and a flags byte (bit0 = tL,
# bit1 = tR); final_cw (L words); DCF only: per level v_cw (L words)


def _serialize_tree(key: DpfKey | DcfKey) -> bytes:
    sb, n, L = _seed_bytes(key.lam), key.domain_bits, key.payload_len
    cmp = isinstance(key, DcfKey)
    v_cws = key.v_cws if cmp else []
    if not (len(key.root_seed) == sb and len(key.final_cw) == L
            and len(key.seed_cws) == len(key.t_cws) == n
            and all(len(s) == sb for s in key.seed_cws)
            and len(v_cws) == n * cmp and all(len(v) == L for v in v_cws)):
        raise ValueError("inconsistent FSS key: field sizes do not match its header")
    w = Writer().u8(key._variant).u8(key.party).u8(n).u16(L).u64(key.p)
    w.u16(key.lam).u8(key.root_t).raw(key.root_seed)
    for s_cw, (tl, tr) in zip(key.seed_cws, key.t_cws):
        w.raw(s_cw).u8(tl | (tr << 1))
    w.u64s(key.final_cw)
    for vc in v_cws:
        w.u64s(vc)
    return w.getvalue()


def _deserialize_tree(buf: bytes, cls) -> dict:
    """Constructor fields of a `cls` key; the buffer must be exactly one key."""
    with Reader(buf) as r:
        variant, party, n, pl, p = r.u8(), r.u8(), r.u8(), r.u16(), r.u64()
        if variant != cls._variant:
            raise ValueError(f"not a {cls.__name__}: variant {variant:#04x}")
        lam, root_t = r.u16(), r.u8()
        sb = _seed_bytes(lam)
        fields = dict(party=party, domain_bits=n, p=p, payload_len=pl, lam=lam,
                      root_seed=r.raw(sb), root_t=root_t, seed_cws=[], t_cws=[])
        for _ in range(n):
            fields["seed_cws"].append(r.raw(sb))
            flags = r.u8()
            if flags > 3:
                raise ValueError(f"malformed {cls.__name__}: control flags {flags:#04x}")
            fields["t_cws"].append((flags & 1, flags >> 1))
        fields["final_cw"] = r.u64s(pl)
        if cls is DcfKey:
            fields["v_cws"] = [r.u64s(pl) for _ in range(n)]
    return fields
