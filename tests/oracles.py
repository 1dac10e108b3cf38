"""Oracles that only tests use: a plain FSS key generator for any block
count and domain, a plain walker of one point, full-domain FSS tables, a
reset of the PRG expansion counters, both parties' sessions run in one
process, the uniform spline tables that the fitted ones replaced, the slots
of a mod-p poly, the schoolbook negacyclic product, a direct convolution,
the HSS Mult noise bound, the measured noise of an LPR ciphertext and
seeded mutations of an encoding."""

import math
import random

import numpy as np

from pairml import prg
from pairml.engine import ConvLayer, _conv_out_shape
from pairml.fss import DcfKey, DpfKey, FssParameterError, _walk, make_key
from pairml.gadgets import (GadgetParameterError, SplineTable, _half, drive,
                            make_session)
from pairml.lpr import LprCiphertext
from pairml.params import ProtocolParams
from pairml.ring import RingPoly, RnsContext, ntt_context


def block_words(tree: prg.Tree, raw: bytes, side: int) -> list[int]:
    """One block expansion's payload words of one side, unreduced."""
    start = tree.area + prg.WORD * tree.L * side
    return [int.from_bytes(raw[i:i + prg.WORD], "little")
            for i in range(start, start + prg.WORD * tree.L, prg.WORD)]


def child(tree: prg.Tree, area: int, side: int) -> tuple[int, int]:
    """The seed and control bit of one side of a seed area."""
    W = tree.seed_bits
    return (area >> side * W) & (1 << W) - 1, (area >> 2 * W + side) & 1


def tree_gen(p: int, alpha: int, beta: list[int], rng, cmp: bool,
             domain_bits: int | None = None, blocks: int = 3):
    """Key pair for beta * [x < alpha] (cmp) or beta * [x == alpha] over an
    n-bit domain (Z_p's by default), with seeds of `blocks` blocks, drawn
    from rng as `fss.dpf_gen`/`dcf_gen` draw them.  It follows the path one
    block at a time, with the per-block primitives the enclaves' 3PC runs:
    a node's seed area is the XOR of its blocks' expansions there, its
    payload words the block-wise sums, and a leaf the block-wise sum of the
    block conversions."""
    n = (p - 1).bit_length() if domain_bits is None else domain_bits
    if alpha >> n:
        raise FssParameterError(f"point {alpha} outside {n}-bit domain")
    beta = [v % p for v in beta]
    L, B = len(beta), prg.BLOCK
    tree = prg.tree(blocks, L, cmp)
    roots = [rng.randbytes(blocks * B) for _ in (0, 1)]
    seeds, ts = list(roots), [0, 1]
    # what the leaf correction must still pay out: a DPF pays all of beta
    # there, a DCF whatever its last level correction left over
    v_alpha = [0] * L if cmp else [-v for v in beta]
    levels, v_cws = [], []
    for i in range(n - 1, -1, -1):
        bit, sign = (alpha >> i) & 1, -1 if ts[1] else 1
        areas, words = [0, 0], [[0] * 2 * L, [0] * 2 * L]
        for c in (0, 1):
            for j in range(blocks):
                raw = prg.g_expand(seeds[c][j * B:(j + 1) * B], tree.nbytes)
                areas[c] ^= int.from_bytes(raw[:tree.area], "little")
                words[c] = [a + w for a, w in zip(
                    words[c], block_words(tree, raw, 0) + block_words(tree, raw, 1))]
        d = areas[0] ^ areas[1]
        (sl, tl), (sr, tr) = child(tree, d, 0), child(tree, d, 1)
        s_cw, t_cw = (sl if bit else sr), (tl ^ bit ^ 1, tr ^ bit)
        levels.append((s_cw, t_cw))
        for c in (0, 1):  # the keep child, corrected where the control bit is set
            s, t = child(tree, areas[c], bit)
            seeds[c] = (s ^ (s_cw if ts[c] else 0)).to_bytes(blocks * B, "little")
            ts[c] = t ^ (t_cw[bit] & ts[c])
        if cmp:  # u: the lose side's difference, plus beta left of alpha
            for k in range(L):
                lose, keep = (1 - bit) * L + k, bit * L + k
                u = words[1][lose] - words[0][lose] + bit * beta[k]
                v_cws.append(sign * (u - v_alpha[k]) % p)
                v_alpha[k] = u - words[1][keep] + words[0][keep]
    c0, c1 = ([sum(ws) for ws in zip(*(prg.block_convert(seed[j * B:(j + 1) * B], L, p)
                                        for j in range(blocks)))] for seed in seeds)
    sign = -1 if ts[1] else 1
    final_cw = [sign * (b1 - b0 - va) % p for b1, b0, va in zip(c1, c0, v_alpha)]
    return tuple(make_key(b, p, roots[b], levels, final_cw, v_cws if cmp else None)
                 for b in (0, 1))


def walk(p: int, root: bytes, party: int, levels: list, final_cw: list[int],
         v_cws: list[int] | None, x: int) -> list[int]:
    """Party `party`'s share at x of the key that `fss.make_key` makes from
    these fields, walked one block at a time with the per-block primitives:
    a node's seed area is the XOR of its blocks' expansions there, its
    payload words the block-wise sums, and a leaf the block-wise sum of the
    block conversions."""
    B, L, n, cmp = prg.BLOCK, len(final_cw), len(levels), v_cws is not None
    blocks = len(root) // B
    tree = prg.tree(blocks, L, cmp)
    seed, t, acc = root, party, [0] * L
    for i, (s_cw, t_cw) in enumerate(levels):
        side = (x >> (n - 1 - i)) & 1
        area, words = 0, [0] * L
        for j in range(blocks):
            raw = prg.g_expand(seed[j * B:(j + 1) * B], tree.nbytes)
            area ^= int.from_bytes(raw[:tree.area], "little")
            if cmp:
                words = [a + w for a, w in zip(words, block_words(tree, raw, side))]
        s, t_next = child(tree, area, side)
        if t:  # the correction word, and a DCF's payload correction
            s, t_next = s ^ s_cw, t_next ^ t_cw[side]
            words = [w + v for w, v in zip(words, v_cws[i * L:(i + 1) * L])] if cmp else words
        acc = [a + w for a, w in zip(acc, words)]
        seed, t = s.to_bytes(blocks * B, "little"), t_next
    for j in range(blocks):
        acc = [a + c for a, c in zip(acc, prg.block_convert(seed[j * B:(j + 1) * B], L, p))]
    if t:
        acc = [a + c for a, c in zip(acc, final_cw)]
    return [(-a if party else a) % p for a in acc]


def dpf_gen(p: int, alpha: int, beta: list[int], rng, domain_bits: int | None = None,
            blocks: int = 3) -> tuple[DpfKey, DpfKey]:
    """`tree_gen`'s point-function keys."""
    return tree_gen(p, alpha, beta, rng, False, domain_bits, blocks)


def dcf_gen(p: int, threshold: int, beta: list[int], rng,
            domain_bits: int | None = None, blocks: int = 3) -> tuple[DcfKey, DcfKey]:
    """`tree_gen`'s comparison keys."""
    return tree_gen(p, threshold, beta, rng, True, domain_bits, blocks)


def dpf_eval_all(b: int, key: DpfKey) -> list[list[int]]:
    """Shares at every domain point via one tree walk (exhaustive tests)."""
    return _walk(b, key, range(1 << key.domain_bits))


def dcf_eval_all(b: int, key: DcfKey) -> list[list[int]]:
    """Comparison shares at every domain point via one tree walk."""
    return _walk(b, key, range(1 << key.domain_bits))


def reset_call_counter() -> int:
    """Zero the PRG counters; return the calls counted since the last reset."""
    prev = prg.calls
    prg.calls = prg.bytes_expanded = 0
    return prev


def run_pair(mat0, mat1, shares0, shares1, p: int, reveal_log: list | None = None):
    """Drive both parties' sessions side by side in one process."""
    sessions = [make_session(mat0, shares0), make_session(mat1, shares1)]

    def reveal(flat):
        half = len(flat) // 2
        revealed = [(a + b) % p for a, b in zip(flat[:half], flat[half:])]
        if reveal_log is not None:
            reveal_log.append(revealed)
        return revealed * 2
        yield  # a generator that waits on nothing: both halves are at hand

    for _ in drive(sessions, reveal):
        pass
    return sessions[0], sessions[1]


def _build_table(kind: str, fn, knot_step: float, span: float, in_scale: int,
                 p: int, lo_val: float, hi_val: float) -> SplineTable:
    """Knots every `knot_step` over [-span, span], flat outside them."""
    s = 1 << in_scale
    half = _half(p)
    knots = [round(-span + i * knot_step, 6)
             for i in range(int(2 * span / knot_step) + 1)]
    enc = [round(k * s) for k in knots]
    if enc[-1] >= half:
        raise GadgetParameterError("spline knots exceed the signed field range")
    segs: list[tuple[int, int, int, int]] = []
    segs.append((-half, enc[0] - 1, 0, round(lo_val * s * s)))
    for k0, k1 in zip(enc, enc[1:]):
        x0, x1 = k0 / s, k1 / s
        y0, y1 = fn(x0), fn(x1)
        slope = (y1 - y0) / (x1 - x0)
        a = round(slope * s)
        c = round((y0 - slope * x0) * s * s)
        segs.append((k0, k1 - 1, a, c))
    segs.append((enc[-1], half, 0, round(hi_val * s * s)))
    return SplineTable(kind=kind, in_scale=in_scale, segments=tuple(segs))


def uniform_table(kind: str, in_scale: int, p: int) -> SplineTable:
    """The uniform-knot table: tanh knots every 1/4 on [-4, 4], sigmoid knots
    every 1/2 on [-8, 8], each segment the chord from its left knot with the
    slope rounded after."""
    if kind == "sigmoid":
        return _build_table("sigmoid", lambda x: 1.0 / (1.0 + math.exp(-x)),
                            0.5, 8.0, in_scale, p, lo_val=0.0, hi_val=1.0)
    return _build_table("tanh", math.tanh, 0.25, 4.0, in_scale, p,
                        lo_val=-1.0, hi_val=1.0)


def coeffs_to_slots(params: ProtocolParams, coeffs) -> np.ndarray:
    """All N slot values of the mod-p poly with these coefficients."""
    rows = (np.array([coeffs], dtype=object) % params.p).astype(np.uint64)
    return ntt_context((params.p,), params.n_ring).ntt(rows)[0].astype(np.int64)


def schoolbook_negacyclic(a, b, m: int) -> list[int]:
    """Quadratic reference for the NTT paths."""
    n = len(a)
    t = [0] * (2 * n)
    for i in range(n):
        for j in range(n):
            t[i + j] += int(a[i]) * int(b[j])
    return [(t[i] - t[i + n]) % m for i in range(n)]


def direct_conv(layer: ConvLayer, x_flat, p: int) -> list[int]:
    """Reference convolution for the im2col oracle."""
    h, w, c = layer.in_shape
    kh, kw, _, cout = layer.filters.shape
    oh, ow, _ = _conv_out_shape(layer)
    out = []
    for oy in range(oh):
        for ox in range(ow):
            for co in range(cout):
                acc = 0
                for fy in range(kh):
                    for fx in range(kw):
                        iy = oy * layer.stride + fy - layer.padding
                        ix = ox * layer.stride + fx - layer.padding
                        if not (0 <= iy < h and 0 <= ix < w):
                            continue
                        for ci in range(c):
                            acc += int(x_flat[(iy * w + ix) * c + ci]) * \
                                int(layer.filters[fy, fx, ci, co])
                out.append(acc % p)
    return out


def mult_noise_bound(params: ProtocolParams, ct: LprCiphertext) -> int:
    """Analytic |y * e_ct| bound used to validate the rounding margin."""
    return params.n_ring * (params.p // 2) * ct.noise_bound


def coeff_ints(poly: RingPoly) -> list[int]:
    """Coefficients as CRT-combined big ints."""
    ctx = RnsContext(poly.params.q_primes)
    return [ctx.combine(tuple(int(r) for r in col)) for col in poly.coeffs().T]


def measure_noise(params: ProtocolParams, s: RingPoly, ct: LprCiphertext, m) -> int:
    """Max |c0 + c1*s - delta*m| (centered), measured with the secret key,
    for the mod-p plaintext coefficients m."""
    q, worst = params.q, 0
    for v, mv in zip(coeff_ints(ct.c0 + ct.c1 * s), m):
        c = (v - params.delta * int(mv)) % q
        worst = max(worst, min(c, q - c))
    return worst


def mutations(buf: bytes, seed: int, count: int):
    """`count` seeded mutations of buf, each a cut, an append, a bit flip or
    a byte set at a random place."""
    rng = random.Random(seed)
    for _ in range(count):
        op, at = rng.randrange(4), rng.randrange(len(buf))
        if op == 0:
            yield buf[:at]
        elif op == 1:
            yield buf + rng.randbytes(rng.randrange(1, 9))
        else:
            byte = buf[at] ^ 1 << rng.randrange(8) if op == 2 else rng.randrange(256)
            yield buf[:at] + bytes([byte]) + buf[at + 1:]


def check_mutations(decode, encode, buf: bytes, seed: int, count: int) -> int:
    """Every mutation of buf either raises ValueError or decodes to a value
    that encodes to the same bytes; returns how many were rejected."""
    rejected = 0
    for bad in mutations(buf, seed, count):
        try:
            value = decode(bad)
        except ValueError:
            rejected += 1
            continue
        assert encode(value) == bad
    return rejected
