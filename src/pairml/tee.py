"""Simulated trusted-hardware parties.

Single-TEE mode: one enclave per server holds a cross-server pairwise PRF
seed; both enclaves derive identical randomness, so each can centrally run
FSS key generation and hand its server exactly one half of every key pair.

Multiple-TEE mode: three enclaves per server run replicated-sharing 3PC to
generate the same material without any single enclave learning the masks or
assembling a full key.  The tree PRG is never evaluated inside the 3PC:
node seeds are three lam-bit blocks, each enclave learns exactly one block
in the clear and expands it locally; the XOR of the three local expansions
is the node expansion, and the block-wise payload converter likewise yields
one additive share per enclave.  Only the cheap correction-word logic runs
as boolean/arithmetic 3PC gates.

Both servers' triples execute the identical deterministic protocol from the
shared pair seeds, so server b ends up with key half k_b of a consistent
pair without any cross-server traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import prg
from .fss import DcfKey, DpfKey, _expand_lens
from .gadgets import (
    ArgmaxMaterial,
    Max2Material,
    MaxPoolMaterial,
    SplineTable,
    WireMaterial,
    argmax_material,
    deserialize_material,
    max2_material,
    maxpool_material,
    serialize_material,
    sigmoid_table,
    tanh_table,
    wire_material,
    _tournament,
)
from .params import ProtocolParams
from .prg import Prf, PrfStream
from .shares3 import A3, B3, Arith3Engine, Bool3Engine, TriadNet
from .transport import Channel, KIND_TEE_MATERIAL, PHASE_PREPROCESS


class CounterOverflowError(RuntimeError):
    pass


class ViewViolation(AssertionError):
    pass


_COUNTER_LIMIT = 1 << 62


@dataclass
class SeedBundle:
    """Dealer-brokered seeds: pair_seeds[i] is shared by the two enclaves of
    pair i across servers; intra_seeds feed the 3PC zero-sharing streams and
    are identical on both servers so runs replay deterministically."""

    pair_seeds: list[bytes]
    intra_seeds: list[bytes]

    @classmethod
    def from_rng(cls, rng, n_enclaves: int = 3) -> "SeedBundle":
        return cls(pair_seeds=[rng.randbytes(32) for _ in range(n_enclaves)],
                   intra_seeds=[rng.randbytes(32) for _ in range(3)])


@dataclass
class GenRandPiece:
    r: int
    sh0: int
    sh1: int

    def share(self, b: int) -> int:
        return self.sh0 if b == 0 else self.sh1


class TeeParty:
    """One simulated enclave: pairwise seed, PRF, strictly monotone counter."""

    def __init__(self, server: int, idx: int, seed: bytes):
        self.server = server
        self.idx = idx
        self.prf = Prf(seed)
        self.counter = 0

    def _tick(self, n: int = 1) -> int:
        if self.counter + n >= _COUNTER_LIMIT:
            raise CounterOverflowError("epoch rotation required")
        c = self.counter
        self.counter += n
        return c

    def draw_bytes(self, n: int, tag: bytes = b"") -> bytes:
        return self.prf.rand_bytes(self._tick(), n, tag)

    def draw_field(self, p: int, tag: bytes = b"") -> int:
        return self.prf.field_element(self._tick(), p, tag)

    def genrand(self, p: int) -> GenRandPiece:
        """Fig-style PRF-counter draw: both servers' enclaves of this pair
        derive byte-identical (r_i, share split); counter advances by two."""
        c = self._tick(2)
        r = self.prf.field_element(c, p, b"genrand")
        sh0 = self.prf.field_element(c + 1, p, b"genrand")
        return GenRandPiece(r=r, sh0=sh0, sh1=(r - sh0) % p)


def _gadget_request_material(kind: str, p: int, rng, lam: int, k: int = 1,
                             table: SplineTable | None = None):
    """Centralized material-pair construction shared by single-TEE mode."""
    if kind in ("relu", "sigmoid", "tanh"):
        return wire_material(kind, p, rng, table=table, lam=lam)
    if kind == "max2":
        return max2_material(p, rng, lam=lam)
    if kind == "maxpool":
        return maxpool_material(p, k, rng, lam=lam)
    if kind == "argmax":
        return argmax_material(p, k, rng, lam=lam)
    raise ValueError(f"unknown gadget kind {kind}")


class SingleTee:
    """Single enclave per server: centralized FSS.Gen from the shared seed."""

    def __init__(self, server: int, params: ProtocolParams, bundle: SeedBundle,
                 to_host: Channel, host_end: Channel):
        self.server = server
        self.params = params
        self.stream = PrfStream(bundle.pair_seeds[0], tag=b"fssgen-single")
        self.to_host = to_host
        self.host_end = host_end

    def gadget_material(self, kind: str, k: int = 1,
                        table: SplineTable | None = None):
        """Build the key pair deterministically; deliver this server's half."""
        pair = _gadget_request_material(kind, self.params.p, self.stream,
                                        self.params.lam, k=k, table=table)
        blob = serialize_material(pair[self.server])
        self.to_host.send(KIND_TEE_MATERIAL, PHASE_PREPROCESS, blob)
        return deserialize_material(self.host_end.recv().payload)


class TeeTriple:
    """Three enclaves per server with distributed FSS key generation."""

    def __init__(self, server: int, params: ProtocolParams, bundle: SeedBundle,
                 net: TriadNet, to_host: list[Channel], host_ends: list[Channel]):
        self.server = server
        self.params = params
        self.parties = [TeeParty(server, i, bundle.pair_seeds[i])
                        for i in range(3)]
        self.net = net
        self.to_host = to_host
        self.host_ends = host_ends
        zero_streams = [PrfStream(s, tag=b"zero3") for s in bundle.intra_seeds]
        self.bool3 = Bool3Engine(net, zero_streams)
        self.arith = Arith3Engine(
            net, [PrfStream(s, tag=b"zero3a") for s in bundle.intra_seeds],
            params.p)
        self.views: dict[int, list[tuple]] = {0: [], 1: [], 2: []}
        self.prg_calls_outside = 0
        self.prg_calls_total_at_start = prg.calls

    # -- view ledger --------------------------------------------------------

    def _see(self, enclave: int, tag: tuple):
        self.views[enclave].append(tag)

    def check_view_discipline(self) -> list[str]:
        """No enclave may see two distinct blocks of one seed."""
        bad = []
        for enclave, tags in self.views.items():
            seen: dict[tuple, set[int]] = {}
            for tag in tags:
                if tag[0] != "block":
                    continue
                _, node, party, blk = tag
                seen.setdefault((node, party), set()).add(blk)
            for key, blocks in seen.items():
                if len(blocks) > 1:
                    bad.append(f"enclave {enclave} saw blocks {sorted(blocks)} "
                               f"of seed {key}")
                if blocks - {enclave}:
                    bad.append(f"enclave {enclave} saw foreign block of {key}")
        return bad

    # -- randomness ----------------------------------------------------------

    def genrand_pieces(self, tag: str = "") -> tuple[list[GenRandPiece], int]:
        """All three pair-derived pieces plus this server's combined share."""
        pieces = [pt.genrand(self.params.p) for pt in self.parties]
        share = sum(pc.share(self.server) for pc in pieces) % self.params.p
        return pieces, share

    def _beta_a3(self, spec: list) -> A3:
        """Payload sharing from a spec of 'const'/'mask' components; mask
        pieces get replicated to their co-holders by input_additive."""
        p = self.params.p
        pieces = [[], [], []]
        for comp in spec:
            if comp[0] == "const":
                pieces[0].append(comp[1] % p)
                pieces[1].append(0)
                pieces[2].append(0)
            else:  # ("mask", genrand pieces)
                for j in range(3):
                    pieces[j].append(comp[1][j].r % p)
        return self.arith.input_additive(pieces)

    # -- distributed key generation -------------------------------------------

    def _local_expand(self, blocks: dict[int, dict[int, bytes]], party: int,
                      out_len: int) -> list[bytes]:
        """Each enclave expands its clear block of the party's node seed."""
        before = prg.calls
        pieces = [prg.g_expand(blocks[j][party], out_len) for j in range(3)]
        self.prg_calls_outside += prg.calls - before
        return pieces

    def _reshare_bool(self, pieces: list[int], width: int) -> B3:
        payloads = [p_.to_bytes((width + 7) // 8, "little")
                    for p_ in pieces]
        self.net.pass_ring(payloads, step=2)
        return B3(list(pieces), width)

    def _v_blocks_convert(self, v_pieces: list[bytes], node: tuple, L: int) -> A3:
        """Blockwise payload conversion: redistribute share-blocks so enclave
        k holds clear block k, convert locally, lift to replicated arith."""
        lamb = self.params.lam // 8
        # enclave j sends block k of its piece to enclave k (two sends each)
        for step in (1, 2):
            payloads = []
            for j in range(3):
                k = (j + step) % 3
                payloads.append(v_pieces[j][k * lamb:(k + 1) * lamb])
            self.net.pass_ring(payloads, step=step)
        clear_blocks = []
        for k in range(3):
            blk = bytes(a ^ b ^ c for a, b, c in zip(
                v_pieces[0][k * lamb:(k + 1) * lamb],
                v_pieces[1][k * lamb:(k + 1) * lamb],
                v_pieces[2][k * lamb:(k + 1) * lamb]))
            clear_blocks.append(blk)
            self._see(k, ("block", node, "v", k))
        before = prg.calls
        pieces = [prg.block_convert(clear_blocks[k], L, self.params.p)
                  for k in range(3)]
        self.prg_calls_outside += prg.calls - before
        return self.arith.input_additive(pieces)

    def _seed_blocks_from_b3(self, seed_b3: B3, node: tuple) -> dict[int, bytes]:
        """Block redistribution: enclave k ends with clear block k of the seed."""
        lam_bits = self.params.lam
        mask = (1 << lam_bits) - 1
        lamb = lam_bits // 8
        # enclave j+1 holds share j+2 (its high share); it extracts block j
        payloads = []
        for j in range(3):
            src = (j + 1) % 3  # sender
            missing_share = seed_b3.shares[(j + 2) % 3]
            payloads_entry = ((missing_share >> (j * lam_bits)) & mask)
            payloads.append((src, j, payloads_entry.to_bytes(lamb, "little")))
        ring = [b""] * 3
        for src, dst, data in payloads:
            ring[src] = data
        self.net.pass_ring(ring, step=2)  # src = dst+1 sends to dst
        out = {}
        full = seed_b3.value()
        for k in range(3):
            out[k] = ((full >> (k * lam_bits)) & mask).to_bytes(lamb, "little")
            self._see(k, ("block", node, "seed", k))
        return out

    def dist_tree_gen(self, kind: str, alpha_pieces: list[GenRandPiece],
                      beta_spec: list, domain_bits: int | None = None
                      ) -> DcfKey | DpfKey:
        """Distributed DPF/DCF key generation; returns this server's half.

        alpha_pieces: the three GenRand pieces whose mod-p sum is the secret
        threshold/point.  beta_spec: payload component spec (const or mask).
        """
        params = self.params
        p, lam = params.p, params.lam
        n = domain_bits if domain_bits is not None else params.domain_bits
        with_v = kind == "dcf"
        L = len(beta_spec)
        sb, vb, out_len = _expand_lens(lam, with_v=with_v)
        lamb = lam // 8
        bool3, arith = self.bool3, self.arith

        alpha_bits = bool3.a2b([pc.r for pc in alpha_pieces], p)
        beta = self._beta_a3(beta_spec)

        # root seeds: enclave j draws block j of both parties' roots
        blocks: dict[int, dict[int, bytes]] = {j: {} for j in range(3)}
        keygen_id = ("kg", self.parties[0].counter)
        for j in range(3):
            for party in (0, 1):
                blk = self.parties[j].draw_bytes(lamb, tag=b"root")
                blocks[j][party] = blk
                self._see(j, ("block", (keygen_id, "root"), party, j))
        root_blocks_mine = [blocks[j][self.server] for j in range(3)]

        t_b3 = {0: B3([0, 0, 0], 1), 1: bool3.xor_const(B3([0, 0, 0], 1), 1)}
        v_alpha = arith.const([0] * L)
        seed_cws: list[bytes] = []
        v_cws: list[list[int]] = []
        t_cws: list[tuple[int, int]] = []

        for level in range(n):
            node = (keygen_id, level)
            a_bit = bool3.bit_at(alpha_bits, n - 1 - level)
            exp = {}
            for party in (0, 1):
                pieces = self._local_expand(blocks, party, out_len)
                ints = [int.from_bytes(x, "little") for x in pieces]
                exp[party] = self._reshare_bool(ints, out_len * 8)
            # field offsets in bits within the expansion
            off_sl, off_vl = 0, 8 * sb
            off_sr, off_vr = 8 * (sb + vb), 8 * (2 * sb + vb)
            off_flags = 8 * (2 * sb + 2 * vb)

            def fld(party, bitoff, width):
                return B3([(exp[party].shares[j] >> bitoff)
                           & ((1 << width) - 1) for j in range(3)], width)

            s_l = {c: fld(c, off_sl, 8 * sb) for c in (0, 1)}
            s_r = {c: fld(c, off_sr, 8 * sb) for c in (0, 1)}
            t_l = {c: fld(c, off_flags, 1) for c in (0, 1)}
            t_r = {c: B3([(exp[c].shares[j] >> (off_flags + 1)) & 1
                          for j in range(3)], 1) for c in (0, 1)}

            # s_cw = xor of the two lose-side seeds, lose = L iff alpha bit set
            xl = bool3.xor(s_l[0], s_l[1])
            xr = bool3.xor(s_r[0], s_r[1])
            s_cw_b3 = bool3.xor(xr, bool3.and_bit(a_bit, bool3.xor(xl, xr)))
            t_cw_l_b3 = bool3.xor(bool3.xor(t_l[0], t_l[1]),
                                  bool3.xor_const(a_bit, 1))
            t_cw_r_b3 = bool3.xor(bool3.xor(t_r[0], t_r[1]), a_bit)
            s_cw = bool3.reveal(s_cw_b3)
            t_cw_l = bool3.reveal(t_cw_l_b3) & 1
            t_cw_r = bool3.reveal(t_cw_r_b3) & 1
            seed_cws.append(s_cw.to_bytes(sb, "little"))
            t_cws.append((t_cw_l, t_cw_r))

            if with_v:
                a_ar = arith.bit2a(a_bit)
                t1_ar = arith.bit2a(t_b3[1])
                cv = {}
                for party in (0, 1):
                    for side, off in (("l", off_vl), ("r", off_vr)):
                        pieces = [((exp[party].shares[j] >> off)
                                   & ((1 << (8 * vb)) - 1)).to_bytes(vb, "little")
                                  for j in range(3)]
                        cv[(party, side)] = self._v_blocks_convert(
                            pieces, (node, party, side), L)
                c_lose = {c: arith.mux(a_ar, cv[(c, "l")], cv[(c, "r")])
                          for c in (0, 1)}
                c_keep = {c: arith.mux(a_ar, cv[(c, "r")], cv[(c, "l")])
                          for c in (0, 1)}
                bracket = arith.sub(arith.sub(c_lose[1], c_lose[0]), v_alpha)
                bracket = arith.add(
                    bracket,
                    arith.mult(arith.broadcast_scalar(a_ar, L), beta))
                sgn_term = arith.mult(arith.broadcast_scalar(t1_ar, L), bracket)
                v_cw_a3 = arith.sub(bracket, arith.scale(sgn_term, 2))
                v_cws.append(arith.reveal(v_cw_a3))
                v_alpha = arith.add(
                    arith.sub(arith.add(v_alpha, c_keep[0]), c_keep[1]),
                    bracket)

            # next-level seeds and control bits
            new_t = {}
            cl, cr = t_cw_l, t_cw_r
            for party in (0, 1):
                s_keep = bool3.xor(
                    s_l[party],
                    bool3.and_bit(a_bit, bool3.xor(s_l[party], s_r[party])))
                # t_b * s_cw with public s_cw: local bit-broadcast AND
                t_mask = B3([(0 - (t_b3[party].shares[j] & 1)) & s_cw
                             for j in range(3)], 8 * sb)
                s_next_b3 = bool3.xor(s_keep, t_mask)
                new_blocks_party = self._seed_blocks_from_b3(
                    s_next_b3, (node, "next", party))
                for j in range(3):
                    blocks[j][party] = new_blocks_party[j]
                t_keep = bool3.xor(
                    t_l[party],
                    bool3.and_(a_bit, bool3.xor(t_l[party], t_r[party])))
                # t_cw_keep = cl ^ alpha*(cl^cr): public constants times alpha
                t_alpha = bool3.and_(t_b3[party], a_bit)
                term = B3([0, 0, 0], 1)
                if cl:
                    term = bool3.xor(term, t_b3[party])
                if cl ^ cr:
                    term = bool3.xor(term, t_alpha)
                new_t[party] = bool3.xor(t_keep, term)
            t_b3 = new_t

        # leaf conversion and final payload correction
        leaf_cv = {}
        for party in (0, 1):
            pieces = [blocks[j][party] for j in range(3)]
            before = prg.calls
            conv = [prg.block_convert(pieces[j], L, p) for j in range(3)]
            self.prg_calls_outside += prg.calls - before
            leaf_cv[party] = self.arith.input_additive(conv)
        t1_ar = arith.bit2a(t_b3[1])
        if with_v:
            base = arith.sub(arith.sub(leaf_cv[1], leaf_cv[0]), v_alpha)
        else:
            base = arith.add(arith.sub(beta, leaf_cv[0]), leaf_cv[1])
        sgn_term = arith.mult(arith.broadcast_scalar(t1_ar, L), base)
        final_a3 = arith.sub(base, arith.scale(sgn_term, 2))
        final_cw = arith.reveal(final_a3)

        root_seed = b"".join(root_blocks_mine)
        common = dict(party=self.server, domain_bits=n, p=p, payload_len=L,
                      lam=lam, root_seed=root_seed, root_t=self.server,
                      seed_cws=seed_cws, t_cws=t_cws, final_cw=final_cw)
        if with_v:
            return DcfKey(v_cws=v_cws, **common)
        return DpfKey(**common)

    # -- gadget material assembly ----------------------------------------------

    def _wire_material(self, kind: str, table: SplineTable | None) -> WireMaterial:
        pieces, mask_share = self.genrand_pieces()
        key = self.dist_tree_gen(
            "dcf", pieces, [("const", 1), ("mask", pieces)])
        return WireMaterial(kind, self.server, self.params.p, mask_share, key,
                            table)

    def _max2_material(self) -> Max2Material:
        subs = [self._wire_material("relu", None) for _ in range(3)]
        masks = [self.genrand_pieces() for _ in range(4)]  # r3..r6
        (p3, s3), (p4, s4), (p5, s5), (p6, s6) = masks
        pf3 = self.dist_tree_gen(
            "dpf", p3, [("const", 1), ("mask", p5), ("mask", p6)])
        pf4 = self.dist_tree_gen(
            "dpf", p4, [("const", 1), ("mask", p5), ("mask", p6)])
        return Max2Material(self.server, self.params.p, subs[0], subs[1],
                            subs[2], s3, s4, s5, s6, pf3, pf4)

    def gadget_material(self, kind: str, k: int = 1,
                        table: SplineTable | None = None):
        p = self.params.p
        if kind in ("relu", "sigmoid", "tanh"):
            mat = self._wire_material(kind, table)
        elif kind == "max2":
            mat = self._max2_material()
        elif kind == "maxpool":
            nodes = [self._max2_material()
                     for _ in range(sum(len(l) for l in _tournament(k)))]
            mat = MaxPoolMaterial(self.server, p, k, nodes)
        elif kind == "argmax":
            pool_nodes = [self._max2_material()
                          for _ in range(sum(len(l) for l in _tournament(k)))]
            pool = MaxPoolMaterial(self.server, p, k, pool_nodes)
            rho = [self.genrand_pieces() for _ in range(k)]
            keys = [self.dist_tree_gen("dpf", pieces, [("const", i + 1)])
                    for i, (pieces, _) in enumerate(rho)]
            mat = ArgmaxMaterial(self.server, p, k, pool,
                                 [s for _, s in rho], keys)
        else:
            raise ValueError(f"unknown gadget kind {kind}")
        blob = serialize_material(mat)
        self.to_host[0].send(KIND_TEE_MATERIAL, PHASE_PREPROCESS, blob)
        return deserialize_material(self.host_ends[0].recv().payload)


def build_single_tee(server: int, params: ProtocolParams, bundle: SeedBundle):
    """SingleTee plus the channels the engine should keep for metering."""
    from .transport import LOCAL, inproc_pair
    enc_end, host_end = inproc_pair(f"tee{server}-enclave", f"tee{server}-host",
                                    LOCAL)
    tee = SingleTee(server, params, bundle, to_host=enc_end, host_end=host_end)
    return tee, [enc_end, host_end]


def build_tee_triple(server: int, params: ProtocolParams, bundle: SeedBundle):
    from .transport import ENCLAVE, LOCAL, PHASE_PREPROCESS, inproc_pair
    chans = {}
    all_channels = []
    for i in range(3):
        for j in range(i + 1, 3):
            a, b = inproc_pair(f"s{server}-enc{i}->{j}", f"s{server}-enc{j}->{i}",
                               ENCLAVE)
            chans[(i, j)] = a
            chans[(j, i)] = b
            all_channels += [a, b]
    net = TriadNet(chans, PHASE_PREPROCESS)
    to_host, host_ends = [], []
    for i in range(3):
        enc_end, host_end = inproc_pair(f"s{server}-enc{i}-host",
                                        f"s{server}-host-enc{i}", LOCAL)
        to_host.append(enc_end)
        host_ends.append(host_end)
        all_channels += [enc_end, host_end]
    tee = TeeTriple(server, params, bundle, net, to_host, host_ends)
    return tee, all_channels
