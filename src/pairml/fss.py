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
costs one node per tree node.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import ClassVar

from . import prg


class FssParameterError(ValueError):
    pass


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little")


def _seed_bytes(lam: int) -> int:
    return prg.BLOCKS * lam // 8


def _expand_lens(lam: int, with_v: bool) -> tuple[int, int, int]:
    sb = _seed_bytes(lam)
    vb = sb if with_v else 0
    # layout: sL | vL | sR | vR | flags byte (bit0 = tL, bit1 = tR)
    return sb, vb, 2 * (sb + vb) + 1


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
class DcfKey:
    """Key for f(x) = beta * [x < threshold] over an n-bit domain."""

    _variant: ClassVar[int] = 0x02
    party: int
    domain_bits: int
    p: int
    payload_len: int
    lam: int
    root_seed: bytes
    root_t: int
    seed_cws: list[bytes]
    v_cws: list[list[int]]
    t_cws: list[tuple[int, int]]
    final_cw: list[int]

    def serialize(self) -> bytes:
        return _serialize_tree(self)

    @classmethod
    def deserialize(cls, buf: bytes) -> "DcfKey":
        return cls(**_deserialize_tree(buf, cls))


# -- the key generator and the walker ---------------------------------------------


def _tree_gen(p: int, alpha: int, beta: list[int], rng, n: int, lam: int,
              cmp: bool):
    """Key pair for beta * [x < alpha] (cmp) or beta * [x == alpha]."""
    if alpha >> n:
        raise FssParameterError(f"point {alpha} outside {n}-bit domain")
    beta = [int(v) % p for v in beta]
    L = len(beta)
    sb, vb, out_len = _expand_lens(lam, with_v=cmp)
    roots = (rng.randbytes(sb), rng.randbytes(sb))
    s, t = list(roots), [0, 1]
    # what the leaf correction must still pay out: a DPF pays all of beta
    # there, a DCF whatever its level corrections left over
    v_alpha = [0] * L if cmp else [-v for v in beta]
    seed_cws: list[bytes] = []
    v_cws: list[list[int]] = []
    t_cws: list[tuple[int, int]] = []
    for i in range(n - 1, -1, -1):
        bit = (alpha >> i) & 1
        raw = [prg.expand_seed(s[0], out_len), prg.expand_seed(s[1], out_len)]
        keep, lose = bit * (sb + vb), (1 - bit) * (sb + vb)
        s_cw = _xor(raw[0][lose:lose + sb], raw[1][lose:lose + sb])
        flags = raw[0][-1] ^ raw[1][-1]
        t_cw = ((flags ^ bit ^ 1) & 1, ((flags >> 1) ^ bit) & 1)
        if cmp:
            sign = -1 if t[1] else 1
            cl0, cl1 = (prg.convert_seed(r[lose + sb:lose + sb + vb], L, p)
                        for r in raw)
            v_cw = [sign * (b1 - b0 - va) % p for b1, b0, va in zip(cl1, cl0, v_alpha)]
            if bit:  # lose side is L: everything left of the path is below alpha
                v_cw = [(v + sign * bv) % p for v, bv in zip(v_cw, beta)]
            ck0, ck1 = (prg.convert_seed(r[keep + sb:keep + sb + vb], L, p)
                        for r in raw)
            v_alpha = [(va - b1 + b0 + sign * v) % p
                       for va, b1, b0, v in zip(v_alpha, ck1, ck0, v_cw)]
            v_cws.append(v_cw)
        seed_cws.append(s_cw)
        t_cws.append(t_cw)
        for c in (0, 1):
            s_keep = raw[c][keep:keep + sb]
            t_keep = (raw[c][-1] >> bit) & 1
            s[c] = _xor(s_keep, s_cw) if t[c] else s_keep
            t[c] = t_keep ^ (t[c] & t_cw[bit])
    c0, c1 = prg.convert_seed(s[0], L, p), prg.convert_seed(s[1], L, p)
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
    n, p, L = key.domain_bits, key.p, key.payload_len
    cmp = isinstance(key, DcfKey)
    sb, vb, out_len = _expand_lens(key.lam, with_v=cmp)
    pts = sorted(set(xs))
    if pts and (pts[0] < 0 or pts[-1] >> n):
        raise FssParameterError(
            f"inputs {pts[0]}..{pts[-1]} outside {n}-bit domain")
    sign = -1 if b else 1
    # a node: seed, control bit, payload share so far, and the slice
    # pts[lo:hi] of the points below it
    zero = [0] * L
    level = [(key.root_seed, key.root_t, zero, 0, len(pts))] if pts else []
    for i in range(n):
        shift = n - 1 - i
        s_cw = key.seed_cws[i]
        t_cw = key.t_cws[i]
        v_cw = key.v_cws[i] if cmp else None
        nxt = []
        for s, t, acc, lo, hi in level:
            raw = prg.expand_seed(s, out_len)
            mid = bisect_left(pts, (pts[lo] >> shift | 1) << shift, lo, hi)
            for side, a, z in ((0, lo, mid), (1, mid, hi)):
                if a == z:
                    continue
                off = side * (sb + vb)
                s_c = raw[off:off + sb]
                t_c = (raw[-1] >> side) & 1
                if cmp:
                    conv = prg.convert_seed(raw[off + sb:off + sb + vb], L, p)
                    acc_c = [(u + sign * (c + w)) % p
                             for u, c, w in zip(acc, conv, v_cw if t else zero)]
                else:
                    acc_c = acc
                if t:
                    s_c = _xor(s_c, s_cw)
                    t_c ^= t_cw[side]
                nxt.append((s_c, t_c, acc_c, a, z))
        level = nxt
    out = {}
    for s, t, acc, lo, _ in level:
        conv = prg.convert_seed(s, L, p)
        out[pts[lo]] = [(u + sign * (c + f)) % p for u, c, f in
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


def dcf_eval_all(b: int, key: DcfKey) -> list[list[int]]:
    """Comparison shares at every domain point via one tree walk."""
    return _walk(b, key, range(1 << key.domain_bits))


# -- serialization ------------------------------------------------------------------

_TREE_HDR = struct.Struct("<BBBHQHB")  # variant, party, domain_bits, L, p, lam, root_t


def _serialize_tree(key: DpfKey | DcfKey) -> bytes:
    sb, n, L = _seed_bytes(key.lam), key.domain_bits, key.payload_len
    cmp = isinstance(key, DcfKey)
    v_cws = key.v_cws if cmp else []
    if not (len(key.root_seed) == sb and len(key.final_cw) == L
            and len(key.seed_cws) == len(key.t_cws) == n
            and all(len(s) == sb for s in key.seed_cws)
            and len(v_cws) == n * cmp and all(len(v) == L for v in v_cws)):
        raise ValueError("inconsistent FSS key: field sizes do not match its header")
    parts = [_TREE_HDR.pack(key._variant, key.party, n, L, key.p, key.lam,
                            key.root_t), key.root_seed]
    for s_cw, (tl, tr) in zip(key.seed_cws, key.t_cws):
        parts.append(s_cw)
        parts.append(bytes([tl | (tr << 1)]))
    parts.append(b"".join(int(v).to_bytes(8, "little") for v in key.final_cw))
    for vc in v_cws:
        parts.append(b"".join(int(v).to_bytes(8, "little") for v in vc))
    return b"".join(parts)


def _deserialize_tree(buf: bytes, cls) -> dict:
    """Constructor fields of a `cls` key; the buffer must be exactly one key."""
    if len(buf) < _TREE_HDR.size:
        raise ValueError(f"truncated FSS key: {len(buf)} bytes")
    variant, party, n, pl, p, lam, root_t = _TREE_HDR.unpack_from(buf, 0)
    if variant != cls._variant:
        raise ValueError(f"not a {cls.__name__}: variant {variant:#04x}")
    sb = _seed_bytes(lam)
    cmp = cls is DcfKey
    size = _TREE_HDR.size + sb + n * (sb + 1) + 8 * pl * (1 + n * cmp)
    if len(buf) != size:
        raise ValueError(f"malformed {cls.__name__}: {len(buf)} bytes, expected {size}")

    def words(off: int) -> list[int]:
        return [int.from_bytes(buf[off + 8 * i:off + 8 * i + 8], "little")
                for i in range(pl)]

    off = _TREE_HDR.size
    root = buf[off:off + sb]
    off += sb
    seed_cws, t_cws = [], []
    for _ in range(n):
        seed_cws.append(buf[off:off + sb])
        flags = buf[off + sb]
        if flags > 3:
            raise ValueError(f"malformed {cls.__name__}: control flags {flags:#04x}")
        t_cws.append((flags & 1, flags >> 1))
        off += sb + 1
    fields = dict(party=party, domain_bits=n, p=p, payload_len=pl, lam=lam,
                  root_seed=root, root_t=root_t, seed_cws=seed_cws, t_cws=t_cws,
                  final_cw=words(off))
    if cmp:
        fields["v_cws"] = [words(off + 8 * pl * (1 + i)) for i in range(n)]
    return fields
