"""Non-linear gadgets over masked reveals: ReLU, sigmoid/tanh splines,
two-input max, MaxPool trees, and Argmax.

Every gadget follows the same offset-function pattern: preprocessing
material embeds a one-time mask r inside FSS keys, the online phase reveals
w = z + r, and key evaluations plus public linear postprocessing turn w into
additive output shares.  Interval membership on the masked wire reduces to a
single comparison key at threshold r evaluated at two public points:

    [ (u - r) mod p in [0, M] ] = D(u - M - 1 mod p) - D(u) + [u <= M]

with D(y) = [y < r], M the public segment length, and the bracketed term a
public constant.  Payload vectors carry (1, r) so that products ind*z =
w*ind - ind*r stay linear in revealed values.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from .fss import (DcfKey, DpfKey, dcf_eval, dcf_eval_all, dcf_gen, dpf_eval,
                  dpf_eval_all, dpf_gen)


class GadgetReuseError(RuntimeError):
    pass


class GadgetParameterError(ValueError):
    pass


def _half(p: int) -> int:
    return (p - 1) // 2


def _signed(v: int, p: int) -> int:
    v %= p
    return v if v <= _half(p) else v - p


# -- plaintext references (the oracles' ground truth) ---------------------------


def plain_relu(z: int, p: int) -> int:
    return z % p if _signed(z, p) >= 0 else 0


def plain_max2(x: int, y: int, p: int) -> int:
    return x % p if _signed(x, p) >= _signed(y, p) else y % p


def plain_max(values, p: int) -> int:
    out = values[0] % p
    for v in values[1:]:
        out = plain_max2(out, v, p)
    return out


def plain_argmax(values, p: int) -> list[int]:
    """1-based index at each maximal entry, zero elsewhere (multi-hot on ties)."""
    mu = _signed(plain_max(values, p), p)
    return [(i + 1) if _signed(v, p) == mu else 0 for i, v in enumerate(values)]


# -- spline tables ----------------------------------------------------------------


@dataclass(frozen=True)
class SplineTable:
    """Public piecewise-linear table in field encoding.

    segments: (lo, hi, slope, intercept) with lo/hi signed field values at
    the input scale, slope scaled by 2^in_scale, intercept scaled by
    2^(2*in_scale).  Segments partition the full signed range, so exactly
    one indicator fires for any input; gadget output is at twice the input
    scale and the engine truncates afterwards.
    """

    kind: str
    in_scale: int
    segments: tuple[tuple[int, int, int, int], ...]

    def reference(self, z: int, p: int) -> int:
        """Exact field value the gadget must produce (scale 2*in_scale)."""
        zs = _signed(z, p)
        for lo, hi, a, c in self.segments:
            if lo <= zs <= hi:
                return (a * zs + c) % p
        raise GadgetParameterError("spline segments do not cover input")


def _build_table(kind: str, fn, knots: list[float], in_scale: int, p: int,
                 lo_val: float, hi_val: float) -> SplineTable:
    s = 1 << in_scale
    half = _half(p)
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


def sigmoid_table(in_scale: int, p: int, knot_step: float = 0.5,
                  span: float = 8.0) -> SplineTable:
    knots = [round(-span + i * knot_step, 6)
             for i in range(int(2 * span / knot_step) + 1)]
    return _build_table("sigmoid", lambda x: 1.0 / (1.0 + math.exp(-x)),
                        knots, in_scale, p, lo_val=0.0, hi_val=1.0)


def tanh_table(in_scale: int, p: int, knot_step: float = 0.25,
               span: float = 4.0) -> SplineTable:
    knots = [round(-span + i * knot_step, 6)
             for i in range(int(2 * span / knot_step) + 1)]
    return _build_table("tanh", math.tanh, knots, in_scale, p,
                        lo_val=-1.0, hi_val=1.0)


# -- materials ---------------------------------------------------------------------


def _split(rng, p: int, v: int) -> tuple[int, int]:
    s0 = rng.randrange(p)
    return s0, (v - s0) % p


_PRECOMPUTE_LIMIT = 1 << 14  # full-table eval only for small test domains


@dataclass
class WireMaterial:
    """Offset material for one relu/sigmoid/tanh wire: mask share + one
    comparison key at threshold r with payload (1, r)."""

    kind: str
    party: int
    p: int
    mask_share: int
    cmp_key: DcfKey
    table: SplineTable | None = None
    consumed: bool = False
    _cmp_table: list | None = field(default=None, repr=False, compare=False)

    def consume(self):
        if self.consumed:
            raise GadgetReuseError(f"{self.kind} material used twice")
        self.consumed = True

    def precompute(self):
        if (1 << self.cmp_key.domain_bits) <= _PRECOMPUTE_LIMIT:
            self._cmp_table = dcf_eval_all(self.party, self.cmp_key)


@dataclass
class Max2Material:
    party: int
    p: int
    relu_xy: WireMaterial
    relu_x: WireMaterial
    relu_y: WireMaterial
    r3_share: int
    r4_share: int
    r5_share: int
    r6_share: int
    pf3: DpfKey  # point at r3, payload (1, r5, r6)
    pf4: DpfKey  # point at r4, payload (1, r5, r6)
    consumed: bool = False
    _pf3_table: list | None = field(default=None, repr=False, compare=False)
    _pf4_table: list | None = field(default=None, repr=False, compare=False)

    def consume(self):
        if self.consumed:
            raise GadgetReuseError("max2 material used twice")
        self.consumed = True

    def precompute(self):
        for sub in (self.relu_xy, self.relu_x, self.relu_y):
            sub.precompute()
        if (1 << self.pf3.domain_bits) <= _PRECOMPUTE_LIMIT:
            self._pf3_table = dpf_eval_all(self.party, self.pf3)
            self._pf4_table = dpf_eval_all(self.party, self.pf4)


@dataclass
class MaxPoolMaterial:
    party: int
    p: int
    k: int
    nodes: list[Max2Material]

    def consume(self):
        pass  # per-node materials track their own consumption

    def precompute(self):
        for n in self.nodes:
            n.precompute()


@dataclass
class ArgmaxMaterial:
    party: int
    p: int
    k: int
    pool: MaxPoolMaterial
    rho_shares: list[int]
    pf_keys: list[DpfKey]  # point at rho_i, payload (i,) 1-based
    consumed: bool = False
    _pf_tables: list | None = field(default=None, repr=False, compare=False)

    def consume(self):
        if self.consumed:
            raise GadgetReuseError("argmax material used twice")
        self.consumed = True

    def precompute(self):
        self.pool.precompute()
        if self.pf_keys and (1 << self.pf_keys[0].domain_bits) <= _PRECOMPUTE_LIMIT:
            self._pf_tables = [dpf_eval_all(self.party, k) for k in self.pf_keys]


def wire_material(kind: str, p: int, rng, table: SplineTable | None = None,
                  lam: int = 128) -> tuple[WireMaterial, WireMaterial]:
    if kind not in ("relu", "sigmoid", "tanh"):
        raise GadgetParameterError(f"not a single-wire gadget: {kind}")
    if kind != "relu" and table is None:
        raise GadgetParameterError(f"{kind} needs a spline table")
    r = rng.randrange(p)
    k0, k1 = dcf_gen(p, r, [1, r], rng, lam=lam)
    sh0, sh1 = _split(rng, p, r)
    return (WireMaterial(kind, 0, p, sh0, k0, table),
            WireMaterial(kind, 1, p, sh1, k1, table))


def max2_material(p: int, rng, lam: int = 128) -> tuple[Max2Material, Max2Material]:
    rel = [wire_material("relu", p, rng, lam=lam) for _ in range(3)]
    r3, r4, r5, r6 = (rng.randrange(p) for _ in range(4))
    pf3 = dpf_gen(p, r3, [1, r5, r6], rng, lam=lam)
    pf4 = dpf_gen(p, r4, [1, r5, r6], rng, lam=lam)
    shares = [_split(rng, p, v) for v in (r3, r4, r5, r6)]
    out = []
    for b in range(2):
        out.append(Max2Material(
            party=b, p=p,
            relu_xy=rel[0][b], relu_x=rel[1][b], relu_y=rel[2][b],
            r3_share=shares[0][b], r4_share=shares[1][b],
            r5_share=shares[2][b], r6_share=shares[3][b],
            pf3=pf3[b], pf4=pf4[b]))
    return out[0], out[1]


def _tournament(k: int) -> list[list[tuple[int, int]]]:
    """Pairing schedule: per level, (i, j) index pairs; byes carry through."""
    levels = []
    idx = list(range(k))
    while len(idx) > 1:
        pairs = [(idx[i], idx[i + 1]) for i in range(0, len(idx) - 1, 2)]
        carry = [idx[-1]] if len(idx) % 2 else []
        levels.append(pairs)
        idx = [a for a, _ in pairs] + carry  # winner stored at slot a
    return levels


def maxpool_material(p: int, k: int, rng, lam: int = 128
                     ) -> tuple[MaxPoolMaterial, MaxPoolMaterial]:
    if k < 1:
        raise GadgetParameterError("maxpool needs k >= 1")
    n_nodes = sum(len(lvl) for lvl in _tournament(k))
    pairs = [max2_material(p, rng, lam=lam) for _ in range(n_nodes)]
    return (MaxPoolMaterial(0, p, k, [a for a, _ in pairs]),
            MaxPoolMaterial(1, p, k, [b for _, b in pairs]))


def argmax_material(p: int, k: int, rng, lam: int = 128
                    ) -> tuple[ArgmaxMaterial, ArgmaxMaterial]:
    if k < 1:
        raise GadgetParameterError("argmax needs k >= 1")
    pool = maxpool_material(p, k, rng, lam=lam)
    rhos = [rng.randrange(p) for _ in range(k)]
    keys = [dpf_gen(p, rho, [i + 1], rng, lam=lam) for i, rho in enumerate(rhos)]
    shares = [_split(rng, p, rho) for rho in rhos]
    out = []
    for b in range(2):
        out.append(ArgmaxMaterial(
            party=b, p=p, k=k, pool=pool[b],
            rho_shares=[s[b] for s in shares],
            pf_keys=[kk[b] for kk in keys]))
    return out[0], out[1]


# -- interval membership from one comparison key -----------------------------------


def _interval_shares(mat: WireMaterial, w: int, lo: int, hi: int,
                     cache: dict[int, list[int]]) -> tuple[int, int]:
    """Shares of (ind, ind*r) for z in [lo, hi] (signed bounds), given w = z+r.

    `cache` maps each point where the comparison key was evaluated to its
    shares, so that intervals sharing an endpoint evaluate it once.
    """
    p = mat.p
    b = mat.party
    m_seg = (hi - lo) % p
    u = (w - lo) % p
    y1 = (u - m_seg - 1) % p
    tab = mat._cmp_table
    for y in (y1, u):
        if y not in cache:
            cache[y] = tab[y] if tab is not None else dcf_eval(b, mat.cmp_key, y)
    hi_ev, lo_ev = cache[y1], cache[u]
    pub = 1 if u <= m_seg else 0
    s_ind = (hi_ev[0] - lo_ev[0] + (pub if b else 0)) % p
    s_ind_r = (hi_ev[1] - lo_ev[1] + pub * mat.mask_share) % p
    return s_ind, s_ind_r


# -- evaluation sessions -------------------------------------------------------------
#
# Every session exposes the same drive loop:
#     pending = sess.start()
#     while pending is not None:
#         pending = sess.feed(engine_reveal(pending))
#     shares = sess.output
# Each batch returned by start/feed is one masked-reveal round.


class ReluSession:
    def __init__(self, mat: WireMaterial, in_share: int):
        mat.consume()
        self.mat = mat
        self.in_share = int(in_share) % mat.p
        self.output: list[int] | None = None
        self.rounds = 0

    def start(self):
        self.rounds += 1
        return [(self.in_share + self.mat.mask_share) % self.mat.p]

    def feed(self, revealed):
        (w,) = revealed
        p = self.mat.p
        s_ind, s_ind_r = _interval_shares(self.mat, w, 0, _half(p), {})
        self.output = [(w * s_ind - s_ind_r) % p]
        return None


class SplineSession:
    def __init__(self, mat: WireMaterial, in_share: int):
        mat.consume()
        if mat.table is None:
            raise GadgetParameterError("spline session without table")
        self.mat = mat
        self.in_share = int(in_share) % mat.p
        self.output: list[int] | None = None
        self.rounds = 0

    def start(self):
        self.rounds += 1
        return [(self.in_share + self.mat.mask_share) % self.mat.p]

    def feed(self, revealed):
        (w,) = revealed
        mat = self.mat
        p = mat.p
        cache: dict[int, list[int]] = {}  # adjacent segments share endpoints
        acc = 0
        for lo, hi, a, c in mat.table.segments:
            s_ind, s_ind_r = _interval_shares(mat, w, lo, hi, cache)
            # ind*z = w*ind - ind*r, all mod p; output lands at scale 2s
            acc += a * ((w * s_ind - s_ind_r) % p) + c * s_ind
        self.output = [acc % p]
        return None


class Max2Session:
    def __init__(self, mat: Max2Material, x_share: int, y_share: int):
        mat.consume()
        self.mat = mat
        p = mat.p
        self.x = int(x_share) % p
        self.y = int(y_share) % p
        self.stage = 0
        self.output: list[int] | None = None
        self.rounds = 0

    def start(self):
        m = self.mat
        p = m.p
        for sub in (m.relu_xy, m.relu_x, m.relu_y):
            sub.consume()
        self.rounds += 1
        return [((self.x - self.y) % p + m.relu_xy.mask_share) % p,
                (self.x + m.relu_x.mask_share) % p,
                (self.y + m.relu_y.mask_share) % p]

    def feed(self, revealed):
        m = self.mat
        p = m.p
        if self.stage == 0:
            wa, wb, wc = revealed
            sh = []
            for sub, w in ((m.relu_xy, wa), (m.relu_x, wb), (m.relu_y, wc)):
                s_ind, s_ind_r = _interval_shares(sub, w, 0, _half(p), {})
                sh.append((w * s_ind - s_ind_r) % p)
            relu_xy, relu_x, relu_y = sh
            self.u1 = (relu_xy + self.y) % p
            self.u2 = (relu_x + relu_y) % p
            self.u3 = (self.u2 - self.x - self.y) % p
            self.stage = 1
            self.rounds += 1
            return [(self.u2 + m.r3_share) % p,
                    (self.u3 + m.r4_share) % p,
                    (self.u1 + m.r5_share) % p,
                    (self.u2 + m.r6_share) % p]
        w3, w4, w5, w6 = revealed
        e3 = m._pf3_table[w3] if m._pf3_table else dpf_eval(m.party, m.pf3, w3)
        e4 = m._pf4_table[w4] if m._pf4_table else dpf_eval(m.party, m.pf4, w4)
        s_b = (e3[0] + e4[0]) % p
        s_br5 = (e3[1] + e4[1]) % p
        s_br6 = (e3[2] + e4[2]) % p
        # max = b*u1 + (1-b)*u2, with u1, u2 only available masked
        out = (w5 * s_b - s_br5 + self.u2 - w6 * s_b + s_br6) % p
        self.output = [out]
        return None


class MaxPoolSession:
    """Tournament of max2 nodes; one max share out.  2*ceil(log2 k) rounds."""

    def __init__(self, mat: MaxPoolMaterial, in_shares):
        if len(in_shares) != mat.k:
            raise GadgetParameterError("maxpool input width mismatch")
        self.mat = mat
        self.values = [int(v) % mat.p for v in in_shares]
        self.levels = _tournament(mat.k)
        self.level_idx = 0
        self.node_idx = 0
        self.sessions: list[Max2Session] = []
        self.output: list[int] | None = None
        self.rounds = 0

    def start(self):
        if not self.levels:
            self.output = [self.values[0]]
            return None
        return self._open_level()

    def _open_level(self):
        pairs = self.levels[self.level_idx]
        self.sessions = []
        batch = []
        self._splits = []
        for (i, j) in pairs:
            sess = Max2Session(self.mat.nodes[self.node_idx],
                               self.values[i], self.values[j])
            self.node_idx += 1
            part = sess.start()
            self._splits.append(len(part))
            batch.extend(part)
            self.sessions.append(sess)
        self.rounds += 1
        self._stage = 0
        return batch

    def feed(self, revealed):
        batch = []
        off = 0
        splits = []
        for sess, ln in zip(self.sessions, self._splits):
            part = sess.feed(revealed[off:off + ln])
            off += ln
            if part is not None:
                splits.append(len(part))
                batch.extend(part)
        if batch:
            self._splits = splits
            self.rounds += 1
            return batch
        # level finished: collect winners into slot a of each pair
        for sess, (i, _) in zip(self.sessions, self.levels[self.level_idx]):
            self.values[i] = sess.output[0]
        self.level_idx += 1
        if self.level_idx < len(self.levels):
            return self._open_level()
        self.output = [self.values[0]]
        return None


class ArgmaxSession:
    def __init__(self, mat: ArgmaxMaterial, in_shares):
        mat.consume()
        if len(in_shares) != mat.k:
            raise GadgetParameterError("argmax input width mismatch")
        self.mat = mat
        self.shares = [int(v) % mat.p for v in in_shares]
        self.pool = MaxPoolSession(mat.pool, in_shares)
        self.in_pool = True
        self.output: list[int] | None = None
        self.rounds = 0

    def start(self):
        batch = self.pool.start()
        if batch is None:
            return self._final_round()
        self.rounds += 1
        return batch

    def _final_round(self):
        p = self.mat.p
        mu = self.pool.output[0]
        self.in_pool = False
        self.rounds += 1
        return [(x - mu + rho) % p
                for x, rho in zip(self.shares, self.mat.rho_shares)]

    def feed(self, revealed):
        if self.in_pool:
            batch = self.pool.feed(revealed)
            if batch is not None:
                self.rounds += 1
                return batch
            return self._final_round()
        p = self.mat.p
        if self.mat._pf_tables is not None:
            self.output = [tab[d][0] % p
                           for tab, d in zip(self.mat._pf_tables, revealed)]
        else:
            self.output = [dpf_eval(self.mat.party, key, d)[0] % p
                           for key, d in zip(self.mat.pf_keys, revealed)]
        return None


def make_session(mat, in_shares):
    if isinstance(mat, WireMaterial):
        if mat.kind == "relu":
            return ReluSession(mat, in_shares[0])
        return SplineSession(mat, in_shares[0])
    if isinstance(mat, Max2Material):
        return Max2Session(mat, in_shares[0], in_shares[1])
    if isinstance(mat, MaxPoolMaterial):
        return MaxPoolSession(mat, in_shares)
    if isinstance(mat, ArgmaxMaterial):
        return ArgmaxSession(mat, in_shares)
    raise GadgetParameterError(f"unknown material {type(mat)!r}")


def run_pair(mat0, mat1, shares0, shares1, p: int, reveal_log: list | None = None):
    """Drive both parties' sessions in lockstep (tests and trusted mode)."""
    s0 = make_session(mat0, shares0)
    s1 = make_session(mat1, shares1)
    b0, b1 = s0.start(), s1.start()
    while b0 is not None:
        assert len(b0) == len(b1)
        revealed = [(a + b) % p for a, b in zip(b0, b1)]
        if reveal_log is not None:
            reveal_log.append(revealed)
        b0, b1 = s0.feed(revealed), s1.feed(revealed)
    assert b1 is None
    return s0, s1


# -- material serialization -----------------------------------------------------------

_MAT_VERSION = 1


def serialize_material(mat) -> bytes:
    kind_map = {WireMaterial: "wire", Max2Material: "max2",
                MaxPoolMaterial: "maxpool", ArgmaxMaterial: "argmax"}
    kind = kind_map[type(mat)]
    body = _mat_body(mat)
    head = struct.pack("<BB12sBQ", _MAT_VERSION, len(kind), kind.encode().ljust(12),
                       mat.party, mat.p)
    return head + body


def _pack_chunks(*chunks: bytes) -> bytes:
    return b"".join(struct.pack("<I", len(c)) + c for c in chunks)


def _unpack_chunks(buf: bytes, n: int):
    out, off = [], 0
    for _ in range(n):
        (ln,) = struct.unpack_from("<I", buf, off)
        off += 4
        out.append(buf[off:off + ln])
        off += ln
    return out, off


def _mat_body(mat) -> bytes:
    if isinstance(mat, WireMaterial):
        tbl = b""
        if mat.table is not None:
            t = mat.table
            tbl = struct.pack("<B12sB", 1, t.kind.encode().ljust(12), t.in_scale)
            tbl += struct.pack("<I", len(t.segments))
            for seg in t.segments:
                tbl += struct.pack("<4q", *seg)
        return _pack_chunks(mat.kind.encode(),
                            struct.pack("<Q", mat.mask_share),
                            mat.cmp_key.serialize(), tbl)
    if isinstance(mat, Max2Material):
        return _pack_chunks(
            serialize_material(mat.relu_xy), serialize_material(mat.relu_x),
            serialize_material(mat.relu_y),
            struct.pack("<4Q", mat.r3_share, mat.r4_share, mat.r5_share,
                        mat.r6_share),
            mat.pf3.serialize(), mat.pf4.serialize())
    if isinstance(mat, MaxPoolMaterial):
        return struct.pack("<I", mat.k) + _pack_chunks(
            *[serialize_material(n) for n in mat.nodes])
    if isinstance(mat, ArgmaxMaterial):
        body = struct.pack("<I", mat.k)
        body += _pack_chunks(serialize_material(mat.pool))
        body += b"".join(struct.pack("<Q", s) for s in mat.rho_shares)
        body += _pack_chunks(*[k.serialize() for k in mat.pf_keys])
        return body
    raise GadgetParameterError(f"unknown material {type(mat)!r}")


def deserialize_material(buf: bytes):
    ver, klen, kind_raw, party, p = struct.unpack_from("<BB12sBQ", buf, 0)
    if ver != _MAT_VERSION:
        raise ValueError(f"unsupported material version {ver}")
    kind = kind_raw[:klen].decode()
    body = buf[struct.calcsize("<BB12sBQ"):]
    if kind == "wire":
        chunks, _ = _unpack_chunks(body, 4)
        wkind = chunks[0].decode()
        (mask,) = struct.unpack("<Q", chunks[1])
        key = DcfKey.deserialize(chunks[2])
        table = None
        if chunks[3]:
            flag, tkind_raw, scale = struct.unpack_from("<B12sB", chunks[3], 0)
            off = struct.calcsize("<B12sB")
            (nseg,) = struct.unpack_from("<I", chunks[3], off)
            off += 4
            segs = []
            for _ in range(nseg):
                segs.append(struct.unpack_from("<4q", chunks[3], off))
                off += 32
            table = SplineTable(kind=tkind_raw.decode().strip("\x00").strip(),
                                in_scale=scale, segments=tuple(segs))
        return WireMaterial(wkind, party, p, mask, key, table)
    if kind == "max2":
        chunks, _ = _unpack_chunks(body, 6)
        r3, r4, r5, r6 = struct.unpack("<4Q", chunks[3])
        return Max2Material(
            party, p,
            deserialize_material(chunks[0]), deserialize_material(chunks[1]),
            deserialize_material(chunks[2]), r3, r4, r5, r6,
            DpfKey.deserialize(chunks[4]), DpfKey.deserialize(chunks[5]))
    if kind == "maxpool":
        (k,) = struct.unpack_from("<I", body, 0)
        n_nodes = sum(len(lvl) for lvl in _tournament(k))
        chunks, _ = _unpack_chunks(body[4:], n_nodes)
        return MaxPoolMaterial(party, p, k, [deserialize_material(c) for c in chunks])
    if kind == "argmax":
        (k,) = struct.unpack_from("<I", body, 0)
        chunks, used = _unpack_chunks(body[4:], 1)
        pool = deserialize_material(chunks[0])
        off = 4 + used
        rho = [struct.unpack_from("<Q", body, off + 8 * i)[0] for i in range(k)]
        off += 8 * k
        keys, _ = _unpack_chunks(body[off:], k)
        return ArgmaxMaterial(party, p, k, pool, rho,
                              [DpfKey.deserialize(c) for c in keys])
    raise ValueError(f"unknown material kind {kind}")
