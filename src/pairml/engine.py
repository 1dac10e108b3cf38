"""Two-server inference engine: model loading and masking, preprocessing
material scheduling, and the online Beaver + gadget evaluation per layer.

Both servers run the same code with their own shares; every cross-server
message is a masked reveal, a ciphertext, or owner share delivery, tagged
with its protocol phase so the meters can audit phase separation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import FixedPointCodec, exact_truncate, to_signed, truncate_share_vec
from .gadgets import (
    ArgmaxMaterial,
    MaxPoolMaterial,
    SplineTable,
    WireMaterial,
    make_session,
    plain_argmax,
    plain_max,
    plain_relu,
    sigmoid_table,
    tanh_table,
)
from .hss import (
    BeaverShare,
    ConvertedColumn,
    PackPlan,
    TripleGenSession,
    dealer_convert_column,
    dealer_setup,
    plan_packing,
)
from .lpr import LprKeys
from .params import ProtocolParams
from .ring import RingPoly
from .tee import SeedBundle, build_single_tee, build_tee_triple
from .transport import (
    Channel,
    KIND_CIPHERTEXT,
    KIND_DEALER,
    KIND_HELLO,
    KIND_MASKED_REVEAL,
    KIND_SHARE_DELIVERY,
    PHASE_LOAD,
    PHASE_ONLINE,
    PHASE_PREPROCESS,
    PHASE_SETUP,
)


class EngineError(RuntimeError):
    pass


class ShapeError(ValueError):
    pass


# -- model manifest -----------------------------------------------------------------


@dataclass
class DenseLayer:
    weights: np.ndarray  # (n, m) field elements, dtype object
    activation: str | None = None


@dataclass
class ConvLayer:
    filters: np.ndarray  # (kh, kw, cin, cout) field elements
    in_shape: tuple[int, int, int]  # (H, W, C)
    stride: int = 1
    padding: int = 0
    activation: str | None = None


@dataclass
class AvgPoolLayer:
    in_shape: tuple[int, int, int]
    pool: tuple[int, int] = (2, 2)


@dataclass
class MaxPoolVecLayer:
    k: int  # group width over the flat vector


@dataclass
class ArgmaxLayer:
    pass


@dataclass
class ModelManifest:
    name: str
    fp_scale: int
    input_dim: int
    layers: list

    def output_dim(self) -> int:
        dim = self.input_dim
        for layer in self.layers:
            dim = _layer_out_dim(layer, dim)
        return dim


def _conv_out_shape(layer: ConvLayer) -> tuple[int, int, int]:
    h, w, _ = layer.in_shape
    kh, kw, _, cout = layer.filters.shape
    oh = (h + 2 * layer.padding - kh) // layer.stride + 1
    ow = (w + 2 * layer.padding - kw) // layer.stride + 1
    return oh, ow, cout


def _layer_out_dim(layer, in_dim: int) -> int:
    if isinstance(layer, DenseLayer):
        return layer.weights.shape[1]
    if isinstance(layer, ConvLayer):
        oh, ow, cout = _conv_out_shape(layer)
        return oh * ow * cout
    if isinstance(layer, AvgPoolLayer):
        h, w, c = layer.in_shape
        ph, pw = layer.pool
        return (h // ph) * (w // pw) * c
    if isinstance(layer, MaxPoolVecLayer):
        if in_dim % layer.k:
            raise ShapeError("maxpool width must divide the input dim")
        return in_dim // layer.k
    if isinstance(layer, ArgmaxLayer):
        return in_dim
    raise ShapeError(f"unknown layer {type(layer)!r}")


# -- convolution lowering (im2col) ------------------------------------------------------


def im2col_matrix(layer: ConvLayer, p: int) -> np.ndarray:
    """Lower a convolution to the matrix T with flat(x) @ T = flat(conv)."""
    h, w, c = layer.in_shape
    kh, kw, cin, cout = layer.filters.shape
    if cin != c:
        raise ShapeError("filter channel mismatch")
    oh, ow, _ = _conv_out_shape(layer)
    t = np.zeros((h * w * c, oh * ow * cout), dtype=object)
    for oy in range(oh):
        for ox in range(ow):
            for fy in range(kh):
                for fx in range(kw):
                    iy = oy * layer.stride + fy - layer.padding
                    ix = ox * layer.stride + fx - layer.padding
                    if not (0 <= iy < h and 0 <= ix < w):
                        continue
                    for ci in range(c):
                        row = (iy * w + ix) * c + ci
                        for co in range(cout):
                            col = (oy * ow + ox) * cout + co
                            t[row, col] = int(layer.filters[fy, fx, ci, co]) % p
    return t


def direct_conv(layer: ConvLayer, x_flat, p: int) -> list[int]:
    """Reference convolution for the im2col oracle (tests)."""
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


def avgpool_matrix(layer: AvgPoolLayer, params: ProtocolParams,
                   scale_bits: int) -> np.ndarray:
    """Public linear map: averaging entries are fp_encode(1/pool_size)."""
    h, w, c = layer.in_shape
    ph, pw = layer.pool
    oh, ow = h // ph, w // pw
    codec = FixedPointCodec(params, scale_bits=scale_bits)
    inv = codec.encode(1.0 / (ph * pw))
    t = np.zeros((h * w * c, oh * ow * c), dtype=object)
    for oy in range(oh):
        for ox in range(ow):
            for dy in range(ph):
                for dx in range(pw):
                    iy, ix = oy * ph + dy, ox * pw + dx
                    for ci in range(c):
                        t[(iy * w + ix) * c + ci, (oy * ow + ox) * c + ci] = inv
    return t


# -- lowered layers ----------------------------------------------------------------------


@dataclass
class LinearSecret:
    y: np.ndarray  # secret matrix share/matrix (n, m)
    n: int
    m: int
    job_id: int = -1


@dataclass
class LinearPublic:
    mat: np.ndarray  # public matrix (n, m); output needs truncation


@dataclass
class GadgetLayer:
    kind: str  # relu | sigmoid | tanh | maxpool | argmax
    width: int
    k: int = 1
    table: SplineTable | None = None

    @property
    def out_width(self) -> int:
        return self.width // self.k if self.kind == "maxpool" else self.width


def lower_manifest(manifest: ModelManifest, params: ProtocolParams) -> list:
    """Lower manifest layers to linear + gadget steps."""
    lowered = []
    dim = manifest.input_dim
    scale = manifest.fp_scale
    job = 0
    for idx, layer in enumerate(manifest.layers):
        if isinstance(layer, (DenseLayer, ConvLayer)):
            if isinstance(layer, DenseLayer):
                y = layer.weights
            else:
                y = im2col_matrix(layer, params.p)
            if y.shape[0] != dim:
                raise ShapeError(
                    f"layer {idx}: expects input {y.shape[0]}, got {dim}")
            lowered.append(LinearSecret(y=np.array(y, dtype=object) % params.p,
                                        n=y.shape[0], m=y.shape[1], job_id=job))
            job += 1
            dim = y.shape[1]
            if layer.activation:
                table = _spline_for(layer.activation, scale, params)
                lowered.append(GadgetLayer(layer.activation, width=dim,
                                           table=table))
        elif isinstance(layer, AvgPoolLayer):
            mat = avgpool_matrix(layer, params, scale)
            if mat.shape[0] != dim:
                raise ShapeError(f"layer {idx}: avgpool shape mismatch")
            lowered.append(LinearPublic(mat=mat))
            dim = mat.shape[1]
        elif isinstance(layer, MaxPoolVecLayer):
            lowered.append(GadgetLayer("maxpool", width=dim, k=layer.k))
            dim = dim // layer.k
        elif isinstance(layer, ArgmaxLayer):
            lowered.append(GadgetLayer("argmax", width=dim, k=dim))
        else:
            raise ShapeError(f"unknown layer {type(layer)!r}")
    return lowered


def _spline_for(kind: str, scale: int, params: ProtocolParams) -> SplineTable | None:
    if kind == "sigmoid":
        return sigmoid_table(scale, params.p)
    if kind == "tanh":
        return tanh_table(scale, params.p)
    return None


# -- plaintext reference oracle -----------------------------------------------------------


def reference_infer(manifest: ModelManifest, params: ProtocolParams,
                    x_field) -> list[int]:
    """Fixed-point plaintext mirror of the protocol; the correctness oracle."""
    p = params.p
    scale = manifest.fp_scale
    lowered = lower_manifest(manifest, params)
    x = [int(v) % p for v in x_field]
    for step in lowered:
        if isinstance(step, (LinearSecret, LinearPublic)):
            mat = step.y if isinstance(step, LinearSecret) else step.mat
            z = (np.array(x, dtype=object) @ mat) % p
            x = [exact_truncate(int(v), scale, p) for v in z]
        else:
            x = _reference_gadget(step, x, p, scale)
    return x


def _reference_gadget(step: GadgetLayer, x: list[int], p: int,
                      scale: int) -> list[int]:
    if step.kind == "relu":
        return [plain_relu(v, p) for v in x]
    if step.kind in ("sigmoid", "tanh"):
        return [exact_truncate(step.table.reference(v, p), scale, p) for v in x]
    if step.kind == "maxpool":
        k = step.k
        return [plain_max(x[i:i + k], p) for i in range(0, len(x), k)]
    if step.kind == "argmax":
        return plain_argmax(x, p)
    raise ShapeError(f"unknown gadget {step.kind}")


# -- wire encoding helpers ------------------------------------------------------------------


def encode_vec(v) -> bytes:
    return b"".join(int(x).to_bytes(8, "little") for x in v)


def decode_vec(buf: bytes) -> list[int]:
    return [int.from_bytes(buf[i:i + 8], "little") for i in range(0, len(buf), 8)]


def encode_mat(m: np.ndarray) -> bytes:
    r, c = m.shape
    return struct.pack("<II", r, c) + encode_vec(m.reshape(-1))


def decode_mat(buf: bytes) -> np.ndarray:
    r, c = struct.unpack_from("<II", buf, 0)
    vals = decode_vec(buf[8:])
    return np.array(vals, dtype=object).reshape(r, c)


# -- manifest file format ---------------------------------------------------------------------

_WB = struct.Struct("<4sQ")


def serialize_manifest(manifest: ModelManifest) -> bytes:
    lines = [f"pairml-model v1",
             f"name={manifest.name}",
             f"fp_scale={manifest.fp_scale}",
             f"input_dim={manifest.input_dim}"]
    blobs = []
    for layer in manifest.layers:
        if isinstance(layer, DenseLayer):
            n, m = layer.weights.shape
            lines.append(f"layer dense in={n} out={m} act={layer.activation or '-'}")
            blobs.append(layer.weights.reshape(-1))
        elif isinstance(layer, ConvLayer):
            kh, kw, ci, co = layer.filters.shape
            h, w, c = layer.in_shape
            lines.append(f"layer conv h={h} w={w} c={c} kh={kh} kw={kw} cout={co} "
                         f"stride={layer.stride} pad={layer.padding} "
                         f"act={layer.activation or '-'}")
            blobs.append(layer.filters.reshape(-1))
        elif isinstance(layer, AvgPoolLayer):
            h, w, c = layer.in_shape
            lines.append(f"layer avgpool h={h} w={w} c={c} "
                         f"ph={layer.pool[0]} pw={layer.pool[1]}")
        elif isinstance(layer, MaxPoolVecLayer):
            lines.append(f"layer maxpool k={layer.k}")
        elif isinstance(layer, ArgmaxLayer):
            lines.append("layer argmax")
    head = ("\n".join(lines) + "\n\n").encode()
    body = b""
    for blob in blobs:
        body += _WB.pack(b"WTS1", len(blob)) + encode_vec(blob)
    return head + body


def parse_manifest(buf: bytes) -> ModelManifest:
    head, _, body = buf.partition(b"\n\n")
    lines = head.decode().splitlines()
    if lines[0] != "pairml-model v1":
        raise ValueError("bad manifest header")
    kv = dict(line.split("=", 1) for line in lines[1:4])
    layers = []
    specs = [line for line in lines[4:] if line.startswith("layer ")]
    off = 0

    def next_blob():
        nonlocal off
        magic, count = _WB.unpack_from(body, off)
        if magic != b"WTS1":
            raise ValueError("bad weight block")
        start = off + _WB.size
        vals = decode_vec(body[start:start + 8 * count])
        off = start + 8 * count
        return np.array(vals, dtype=object)

    for spec in specs:
        parts = spec.split()
        kind = parts[1]
        opts = dict(p.split("=", 1) for p in parts[2:])
        if kind == "dense":
            n, m = int(opts["in"]), int(opts["out"])
            act = None if opts["act"] == "-" else opts["act"]
            layers.append(DenseLayer(next_blob().reshape(n, m), act))
        elif kind == "conv":
            shape = (int(opts["kh"]), int(opts["kw"]), int(opts["c"]),
                     int(opts["cout"]))
            act = None if opts["act"] == "-" else opts["act"]
            layers.append(ConvLayer(next_blob().reshape(shape),
                                    (int(opts["h"]), int(opts["w"]),
                                     int(opts["c"])),
                                    int(opts["stride"]), int(opts["pad"]), act))
        elif kind == "avgpool":
            layers.append(AvgPoolLayer((int(opts["h"]), int(opts["w"]),
                                        int(opts["c"])),
                                       (int(opts["ph"]), int(opts["pw"]))))
        elif kind == "maxpool":
            layers.append(MaxPoolVecLayer(int(opts["k"])))
        elif kind == "argmax":
            layers.append(ArgmaxLayer())
        else:
            raise ValueError(f"unknown layer kind {kind}")
    return ModelManifest(name=kv["name"], fp_scale=int(kv["fp_scale"]),
                         input_dim=int(kv["input_dim"]), layers=layers)


# -- the server role ---------------------------------------------------------------------------


@dataclass
class SessionMaterial:
    triples: dict[int, BeaverShare]
    gadgets: list  # one material (or list of wire materials) per gadget layer
    consumed: bool = False


class ServerRole:
    """One server's protocol endpoint; both servers run identical call
    sequences against their own shares."""

    def __init__(self, b: int, params: ProtocolParams, peer: Channel,
                 dealer: Channel, owner: Channel, mode: str = "single-tee",
                 rng=None):
        self.b = b
        self.params = params
        self.peer = peer
        self.dealer = dealer
        self.owner = owner
        self.mode = mode
        self.rng = rng
        self.tee = None
        self.tee_channels: list[Channel] = []
        self.setup_msg = None
        self.manifest: ModelManifest | None = None
        self.lowered: list | None = None
        self.f_public: dict[int, np.ndarray] = {}
        self.b_shares: dict[int, np.ndarray] = {}
        self.converted: dict[tuple[int, int], ConvertedColumn] = {}
        self.plan: PackPlan | None = None
        self.sessions: dict[int, SessionMaterial] = {}
        self.label_shares: dict[int, list[int]] = {}

    # ---- setup -------------------------------------------------------------

    def run_setup(self):
        self.peer.send(KIND_HELLO, PHASE_SETUP, b"")
        self.peer.recv()
        frame = self.dealer.recv()
        bundle_len, = struct.unpack_from("<I", frame.payload, 0)
        off = 4
        seeds = []
        for _ in range(6):
            seeds.append(frame.payload[off:off + 32])
            off += 32
        bundle = SeedBundle(pair_seeds=seeds[:3], intra_seeds=seeds[3:])
        pk0 = RingPoly.deserialize(self.params, frame.payload[off:])
        off += len(pk0.serialize())
        pk1 = RingPoly.deserialize(self.params, frame.payload[off:])
        off += len(pk1.serialize())
        s_share = RingPoly.deserialize(self.params, frame.payload[off:])
        self.setup_msg = ((pk0, pk1), s_share)
        if self.mode == "single-tee":
            self.tee, self.tee_channels = build_single_tee(
                self.b, self.params, bundle)
        else:
            self.tee, self.tee_channels = build_tee_triple(
                self.b, self.params, bundle)

    # ---- model loading -----------------------------------------------------

    def run_load(self):
        frame = self.owner.recv()
        head_len, = struct.unpack_from("<I", frame.payload, 0)
        manifest_blob = frame.payload[4:4 + head_len]
        self.manifest = parse_manifest(manifest_blob)
        self.lowered = lower_manifest(self.manifest, self.params)
        p = self.params.p
        # replace manifest weights (they arrived as this server's shares)
        jobs = []
        for step in self.lowered:
            if isinstance(step, LinearSecret):
                jobs.append((step.n, step.m))
        self.plan = plan_packing(self.params, jobs)
        # sample B shares, reveal F = Y - B per linear layer
        for step in self.lowered:
            if not isinstance(step, LinearSecret):
                continue
            y_share = step.y
            b_share = np.array(
                [[self.rng.randrange(p) for _ in range(step.m)]
                 for _ in range(step.n)], dtype=object)
            f_share = (y_share - b_share) % p
            peer_f = decode_mat(self.peer.exchange(
                KIND_MASKED_REVEAL, PHASE_LOAD, encode_mat(f_share)).payload)
            self.f_public[step.job_id] = (f_share + peer_f) % p
            self.b_shares[step.job_id] = b_share
        # dealer conversion of every packed column of B
        req = bytearray()
        s_share_blob = self.setup_msg[1].serialize()
        req += struct.pack("<I", len(s_share_blob))
        req += s_share_blob
        cols = []
        for job in self.plan.jobs:
            bmat = self.b_shares[job.job_id]
            for t in range(job.m):
                cols.append(((job.job_id, t), bmat[:, t]))
        req += struct.pack("<I", len(cols))
        for (jid, t), col in cols:
            req += struct.pack("<III", jid, t, len(col))
            req += encode_vec(col)
        reply = self.dealer.exchange(KIND_DEALER, PHASE_LOAD, bytes(req))
        off = 0
        payload = reply.payload
        n_cols, = struct.unpack_from("<I", payload, off)
        off += 4
        poly_len = len(RingPoly.zero(self.params, tag="q").serialize())
        for _ in range(n_cols):
            jid, t = struct.unpack_from("<II", payload, off)
            off += 8
            y_sh = RingPoly.deserialize(self.params, payload[off:off + poly_len])
            off += poly_len
            ys_sh = RingPoly.deserialize(self.params, payload[off:off + poly_len])
            off += poly_len
            self.converted[(jid, t)] = ConvertedColumn(y_sh, ys_sh)

    # ---- preprocessing -----------------------------------------------------

    def run_preprocess(self, session_id: int):
        from .hss import DealerSetup
        setup = DealerSetup(self.setup_msg[0], self.setup_msg[1])
        triple_sess = TripleGenSession(self.params, self.plan, self.b, setup,
                                       self.b_shares, self.converted, self.rng)
        blobs = triple_sess.start()
        payload = struct.pack("<I", len(blobs)) + b"".join(
            struct.pack("<I", len(bl)) + bl for bl in blobs)
        reply = self.peer.exchange(KIND_CIPHERTEXT, PHASE_PREPROCESS, payload)
        off = 4
        peer_blobs = []
        n_blobs, = struct.unpack_from("<I", reply.payload, 0)
        for _ in range(n_blobs):
            ln, = struct.unpack_from("<I", reply.payload, off)
            off += 4
            peer_blobs.append(reply.payload[off:off + ln])
            off += ln
        triple_sess.feed(peer_blobs)
        triples = {t.job_id: t for t in triple_sess.output}
        gadget_mats = []
        for step in self.lowered:
            if not isinstance(step, GadgetLayer):
                continue
            gadget_mats.append(self._gadget_material(step))
        self.sessions[session_id] = SessionMaterial(triples=triples,
                                                    gadgets=gadget_mats)

    def _gadget_material(self, step: GadgetLayer):
        if step.kind in ("relu", "sigmoid", "tanh"):
            return [self.tee.gadget_material(step.kind, table=step.table)
                    for _ in range(step.width)]
        if step.kind == "maxpool":
            return [self.tee.gadget_material("maxpool", k=step.k)
                    for _ in range(step.width // step.k)]
        if step.kind == "argmax":
            return self.tee.gadget_material("argmax", k=step.width)
        raise EngineError(f"unknown gadget {step.kind}")

    # ---- online -------------------------------------------------------------

    def run_infer(self, session_id: int):
        mat = self.sessions[session_id]
        if mat.consumed:
            raise EngineError("session material consumed twice")
        mat.consumed = True
        p = self.params.p
        scale = self.manifest.fp_scale
        frame = self.owner.recv()
        x = decode_vec(frame.payload)
        gadget_idx = 0
        for step in self.lowered:
            if isinstance(step, LinearSecret):
                triple = mat.triples[step.job_id]
                triple.consume()
                e_share = [(int(xv) - int(av)) % p
                           for xv, av in zip(x, triple.a)]
                peer_e = decode_vec(self.peer.exchange(
                    KIND_MASKED_REVEAL, PHASE_ONLINE,
                    encode_vec(e_share)).payload)
                e = np.array([(a + b) % p for a, b in zip(e_share, peer_e)],
                             dtype=object)
                xs = np.array(x, dtype=object)
                z = (xs @ self.f_public[step.job_id]
                     + e @ triple.b_mat
                     + triple.c.astype(object)) % p
                x = list(truncate_share_vec([int(v) for v in z], scale, self.b, p))
            elif isinstance(step, LinearPublic):
                z = (np.array(x, dtype=object) @ step.mat) % p
                x = list(truncate_share_vec([int(v) for v in z], scale, self.b, p))
            else:
                x = self._run_gadget(step, mat.gadgets[gadget_idx], x)
                gadget_idx += 1
                if step.kind in ("sigmoid", "tanh"):
                    x = list(truncate_share_vec(x, scale, self.b, p))
        self.owner.send(KIND_SHARE_DELIVERY, PHASE_ONLINE, encode_vec(x))
        self.label_shares[session_id] = x

    def _run_gadget(self, step: GadgetLayer, material, x: list[int]) -> list[int]:
        p = self.params.p
        if step.kind in ("relu", "sigmoid", "tanh"):
            sessions = [make_session(m, [v]) for m, v in zip(material, x)]
        elif step.kind == "maxpool":
            k = step.k
            sessions = [make_session(m, x[i * k:(i + 1) * k])
                        for i, m in enumerate(material)]
        else:  # argmax
            sessions = [make_session(material, x)]
        pending = [s.start() for s in sessions]
        while any(b is not None for b in pending):
            flat = []
            for b in pending:
                if b is not None:
                    flat.extend(b)
            peer = decode_vec(self.peer.exchange(
                KIND_MASKED_REVEAL, PHASE_ONLINE, encode_vec(flat)).payload)
            revealed = [(a + b) % p for a, b in zip(flat, peer)]
            off = 0
            nxt = []
            for s, b in zip(sessions, pending):
                if b is None:
                    nxt.append(None)
                    continue
                part = revealed[off:off + len(b)]
                off += len(b)
                nxt.append(s.feed(part))
            pending = nxt
        out: list[int] = []
        for s in sessions:
            out.extend(s.output)
        return out

    # ---- closed-form online budget -------------------------------------------

    def online_budget_elements(self) -> int:
        """Masked-reveal field elements per direction for one inference."""
        total = 0
        for step in self.lowered:
            if isinstance(step, LinearSecret):
                total += step.n
            elif isinstance(step, GadgetLayer):
                total += gadget_reveal_elements(step)
        return total


def gadget_reveal_elements(step: GadgetLayer) -> int:
    if step.kind in ("relu", "sigmoid", "tanh"):
        return step.width
    if step.kind == "maxpool":
        groups = step.width // step.k
        return groups * max2_count(step.k) * 7  # 3 + 4 reveals per max2 node
    if step.kind == "argmax":
        return max2_count(step.k) * 7 + step.k
    raise ShapeError(step.kind)


def max2_count(k: int) -> int:
    return k - 1


# -- dealer role ------------------------------------------------------------------------------


class DealerRole:
    """Ideal-functionality stand-in for the garbled-circuit steps: brokers
    seeds and keys at setup, converts masked-matrix columns at load."""

    def __init__(self, params: ProtocolParams, chan0: Channel, chan1: Channel,
                 rng):
        self.params = params
        self.chans = (chan0, chan1)
        self.rng = rng
        self.keys: LprKeys | None = None

    def run_setup(self):
        keys, d0, d1 = dealer_setup(self.params, self.rng)
        self.keys = keys  # retained only for trusted-test assertions
        bundle = SeedBundle.from_rng(self.rng)
        for b, d in enumerate((d0, d1)):
            payload = struct.pack("<I", 6)
            for s in bundle.pair_seeds + bundle.intra_seeds:
                payload += s
            payload += d.pk[0].serialize() + d.pk[1].serialize()
            payload += d.s_share.serialize()
            self.chans[b].send(KIND_DEALER, PHASE_SETUP, payload)

    def run_convert(self):
        reqs = [self._parse_req(ch.recv().payload) for ch in self.chans]
        (s0, cols0), (s1, cols1) = reqs
        replies = [bytearray(), bytearray()]
        for r in replies:
            r += struct.pack("<I", len(cols0))
        if sorted(cols0) != sorted(cols1):
            raise EngineError("servers disagree on conversion requests")
        n_ring = self.params.n_ring
        for key in sorted(cols0):
            c0, c1 = cols0[key], cols1[key]
            jid, t = key
            conv0, conv1 = dealer_convert_column(
                self.params, s0, s1, c0, c1, self.rng)
            for r, conv in zip(replies, (conv0, conv1)):
                r += struct.pack("<II", jid, t)
                r += conv.y_share.serialize() + conv.ys_share.serialize()
        for ch, r in zip(self.chans, replies):
            ch.send(KIND_DEALER, PHASE_LOAD, bytes(r))

    def _parse_req(self, payload: bytes):
        ln, = struct.unpack_from("<I", payload, 0)
        off = 4
        s_share = RingPoly.deserialize(self.params, payload[off:off + ln])
        off += ln
        n_cols, = struct.unpack_from("<I", payload, off)
        off += 4
        cols = {}
        for _ in range(n_cols):
            jid, t, cl = struct.unpack_from("<III", payload, off)
            off += 12
            cols[(jid, t)] = decode_vec(payload[off:off + 8 * cl])
            off += 8 * cl
        return s_share, cols


def place_column(params: ProtocolParams, plan: PackPlan, job_id: int,
                 col: list[int]) -> np.ndarray:
    job = next(j for j in plan.jobs if j.job_id == job_id)
    lo, hi = plan.slot_range(job)
    slots = np.zeros(params.n_ring, dtype=np.int64)
    slots[lo:hi] = np.array(col, dtype=np.int64)
    return slots
