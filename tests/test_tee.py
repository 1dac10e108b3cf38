import dataclasses
import hashlib
import random

import numpy as np
import pytest

from pairml import prg
from pairml import tee as tee_module
from oracles import dcf_eval_all, dpf_eval_all, run_pair, tree_gen
from pairml.fss import DpfKey
from pairml.gadgets import (plain_argmax, plain_max, plain_max2, plain_relu,
                            serialize_material, tanh_table)
from pairml.params import ProtocolParams, is_prime
from pairml.prg import PrfStream
from pairml.shares3 import B3, Arith3Engine, TriadNet, lane_bits, spread
from pairml.tee import (
    CounterOverflowError,
    SeedBundle,
    TeeParty,
    TeeTriple,
    build_single_tee,
    build_tee_triple,
)
from pairml.transport import Channel


@pytest.fixture(scope="module")
def small_params():
    # 10-bit field so exhaustive table comparisons are cheap
    return ProtocolParams.generate(n_ring=8, p_bits=10, aux_bits=(40,),
                                   noise_margin=16, test_mode=True)


def _bundle(seed=7):
    return SeedBundle.from_rng(random.Random(seed))


def _triples(params, seed=7):
    bundle = _bundle(seed)
    t0, ch0 = build_tee_triple(0, params, bundle)
    t1, ch1 = build_tee_triple(1, params, bundle)
    return t0, t1, ch0 + ch1


# -- TeeParty / GenRand ------------------------------------------------------------


def test_genrand_share_identity(small_params):
    p = small_params.p
    a = TeeParty(b"seed-a" * 6)
    for _ in range(1000):
        piece = a.genrand(p)
        assert (piece.sh0 + piece.sh1) % p == piece.r


def test_genrand_cross_server_determinism(small_params):
    p = small_params.p
    t0 = TeeParty(b"shared-pair-seed")
    t1 = TeeParty(b"shared-pair-seed")
    for _ in range(50):
        a, b = t0.genrand(p), t1.genrand(p)
        assert (a.r, a.sh0, a.sh1) == (b.r, b.sh0, b.sh1)
    assert t0.counter == t1.counter == 100


def test_counter_monotone_and_overflow():
    t = TeeParty(b"x")
    c0 = t.counter
    t.draw_bytes(4)
    assert t.counter == c0 + 1
    t.counter = (1 << 62) - 1
    with pytest.raises(CounterOverflowError):
        t.draw_bytes(4)


# -- 3PC substrate ------------------------------------------------------------------


def test_b3pc_and_truth_table(small_params):
    t0, _, _ = _triples(small_params)
    eng = t0.bool3
    rng = random.Random(1)
    for x in (0, 1):
        for y in (0, 1):
            for _ in range(5):
                sx = [rng.randrange(2) for _ in range(2)]
                sx.append(x ^ sx[0] ^ sx[1])
                sy = [rng.randrange(2) for _ in range(2)]
                sy.append(y ^ sy[0] ^ sy[1])
                got = eng.and_(B3(sx, 1), B3(sy, 1))
                assert got.value() == (x & y)


def test_b3pc_and_absorbing_idempotent(small_params):
    t0, _, _ = _triples(small_params)
    eng = t0.bool3
    x = eng.input_known(1, 0b1011, 4)
    zero = eng.input_known(0, 0, 4)
    assert eng.and_(x, zero).value() == 0
    assert eng.and_(x, x).value() == 0b1011


def test_b3pc_xor_is_free(small_params):
    t0, _, _ = _triples(small_params)
    eng = t0.bool3
    sent_before = sum(c.meter.msgs_sent for c in t0.net.channels.values())
    x = eng.input_known(0, 0b0110, 4)
    y = eng.input_known(2, 0b0011, 4)
    z = eng.xor(x, y)
    sent_after = sum(c.meter.msgs_sent for c in t0.net.channels.values())
    assert z.value() == 0b0101
    assert sent_after == sent_before


def test_b3pc_and_message_budget(small_params):
    t0, _, _ = _triples(small_params)
    eng = t0.bool3
    before = {k: c.meter.msgs_sent for k, c in t0.net.channels.items()}
    eng.and_(eng.input_known(0, 1, 1), eng.input_known(1, 1, 1))
    sends = sum(c.meter.msgs_sent - before[k]
                for k, c in t0.net.channels.items())
    assert sends == 3  # exactly one message per enclave per AND


def test_a2b_exhaustive_6bit():
    params = ProtocolParams.generate(n_ring=8, p_bits=6, aux_bits=(40,),
                                     noise_margin=16, test_mode=True)
    t0, _, _ = _triples(params)
    p = params.p
    rng = random.Random(2)
    for r in range(p):
        r0 = rng.randrange(p)
        r1 = rng.randrange(p)
        r2 = (r - r0 - r1) % p
        bits = t0.bool3.a2b([r0, r1, r2], p)
        assert bits.value() == r, r


def test_a2b_random_16bit():
    params = ProtocolParams.generate(n_ring=8, p_bits=16, aux_bits=(40,),
                                     noise_margin=12, test_mode=True)
    t0, _, _ = _triples(params)
    p = params.p
    rng = random.Random(3)
    for _ in range(20):
        r = rng.randrange(p)
        r0, r1 = rng.randrange(p), rng.randrange(p)
        r2 = (r - r0 - r1) % p
        assert t0.bool3.a2b([r0, r1, r2], p).value() == r


def test_a2b_zero(small_params):
    t0, _, _ = _triples(small_params)
    assert t0.bool3.a2b([0, 0, 0], small_params.p).value() == 0


def test_bit2a(small_params):
    t0, _, _ = _triples(small_params)
    rng = random.Random(4)
    for bit in (0, 1):
        for _ in range(5):
            s = [rng.randrange(2), rng.randrange(2)]
            s.append(bit ^ s[0] ^ s[1])
            got = t0.arith.reveal(t0.arith.bit2a(B3(s, 1)))
            assert got == [bit]


def test_lane_helpers_match_their_loops():
    # the numpy bit passes of lane_bits and spread against the per-lane
    # loops they replaced, on every share
    rng = random.Random(5)
    for lanes, stride in ((0, 3), (1, 30), (7, 32), (43, 30)):
        x = B3([rng.getrandbits(lanes * stride) for _ in range(3)], lanes * stride)
        for k in (0, stride // 2, stride - 1):
            got = lane_bits(x, stride, [k])[0]
            assert got.width == lanes and got.shares == [
                sum((s >> (l * stride + k) & 1) << l for l in range(lanes)) for s in x.shares]
        got = spread(x, stride)
        assert got.width == x.width * stride and got.shares == [
            sum(((1 << stride) - 1) << (l * stride) for l in range(x.width) if s >> l & 1)
            for s in x.shares]


P61 = (1 << 61) - (1 << 21) + 1  # a 61-bit prime, 1 mod 2^21


@pytest.mark.parametrize("p", [ProtocolParams.testing().p, ProtocolParams.production().p,
                               P61], ids=["testing", "production", "61-bit"])
def test_arith3_engine_is_exact_mod_p(small_params, p):
    # every operation on uint64 share arrays reconstructs to what Python
    # ints give mod p, at the extremes 0 and p - 1 too, and every share
    # stays below p
    assert is_prime(p) and p.bit_length() <= 61
    t0, _, _ = _triples(small_params)
    eng = Arith3Engine(t0.net, [PrfStream(bytes([j]) * 32, tag=b"zero3a")
                                for j in range(3)], p)
    rng = random.Random(p)
    xs = [0, 0, 1, p - 1, p - 1, p - 2] + [rng.randrange(p) for _ in range(10)]
    ys = [0, p - 1, p - 1, 0, p - 1, p - 1] + [rng.randrange(p) for _ in range(10)]

    def share(vals):
        s0, s1 = ([rng.randrange(p) for _ in vals] for _ in range(2))
        return np.array([s0, s1, [(v - a - b) % p for v, a, b in zip(vals, s0, s1)]],
                        dtype=np.uint64)

    def opened(x):
        assert x.dtype == np.uint64 and (x < p).all()
        return [sum(int(v) for v in col) % p for col in x.T]

    a, b = share(xs), share(ys)
    assert opened(eng.add(a, b)) == [(x + y) % p for x, y in zip(xs, ys)]
    assert opened(eng.sub(a, b)) == [(x - y) % p for x, y in zip(xs, ys)]
    for c in (2, p - 1, rng.randrange(p)):
        assert opened(eng.scale(a, c)) == [x * c % p for x in xs]
    assert opened(eng.mult(a, b)) == [x * y % p for x, y in zip(xs, ys)]
    assert eng.reveal(a) == xs
    assert opened(eng._zeros((20,))) == [0] * 20
    bits = [rng.randrange(2) for _ in range(40)]
    s = [rng.getrandbits(40), rng.getrandbits(40)]
    shared = B3(s + [s[0] ^ s[1] ^ sum(v << i for i, v in enumerate(bits))], 40)
    assert opened(eng.bit2a(shared)) == bits


# -- single-TEE key generation --------------------------------------------------------


def _root_and_cws(key):
    """A key's root seed, after its 16-byte header, and the correction words
    after that."""
    buf, end = key.serialize(), 16 + 16 * key.blocks
    return buf[16:end], buf[end:]


def test_single_tee_material_identical_across_servers(small_params):
    bundle = _bundle(11)
    s0, _ = build_single_tee(0, small_params, bundle)
    s1, _ = build_single_tee(1, small_params, bundle)
    m0 = s0.gadget_material("relu")
    m1 = s1.gadget_material("relu")
    assert m0.party == 0 and m1.party == 1
    # correction words byte-identical, root seeds distinct
    (r0, cw0), (r1, cw1) = (_root_and_cws(m.cmp_key) for m in (m0, m1))
    assert cw0 == cw1 and r0 != r1
    # and the pair is functionally a relu gadget
    p = small_params.p
    for z in (0, 5, p - 5, p // 2):
        s0_, s1_ = run_pair(m0, m1, [z], [0], p)
        m0.consumed = m1.consumed = False
        assert (s0_.output[0] + s1_.output[0]) % p == plain_relu(z, p)


def test_single_tee_distinct_counters_distinct_keys(small_params):
    bundle = _bundle(12)
    s0, _ = build_single_tee(0, small_params, bundle)
    a = s0.gadget_material("relu")
    b = s0.gadget_material("relu")
    assert _root_and_cws(a.cmp_key)[0] != _root_and_cws(b.cmp_key)[0]


# -- distributed key generation ---------------------------------------------------------


def _dist_key_pair(params, kind, alpha, beta_spec_builder, seed=21):
    """Run both servers' triples; returns (key0, key1, triples)."""
    t0, t1, chans = _triples(params, seed)
    keys = []
    for t in (t0, t1):
        rng = random.Random(99)  # piece split fixed so alpha matches
        p = params.p
        r0, r1 = rng.randrange(p), rng.randrange(p)
        pieces = [_FakePiece(r0), _FakePiece(r1),
                  _FakePiece((alpha - r0 - r1) % p)]
        keys.append(t.dist_tree_gen(kind, pieces, beta_spec_builder(pieces)))
    return keys[0], keys[1], (t0, t1)


class _FakePiece:
    def __init__(self, r):
        self.r = r
        self.sh0 = 0
        self.sh1 = r


def test_dist_dpf_matches_central_table(small_params):
    p = small_params.p
    alpha = 417 % p
    k0, k1, (t0, t1) = _dist_key_pair(
        small_params, "dpf", alpha, lambda pieces: [("const", 5)])
    full0 = dpf_eval_all(0, k0)
    full1 = dpf_eval_all(1, k1)
    for x in range(p):
        got = (full0[x][0] + full1[x][0]) % p
        assert got == (5 if x == alpha else 0), x
    assert t0.check_view_discipline() == []
    assert t1.check_view_discipline() == []


def test_dist_dcf_matches_central_table(small_params):
    p = small_params.p
    alpha = 300 % p
    k0, k1, _ = _dist_key_pair(
        small_params, "dcf", alpha,
        lambda pieces: [("const", 1), ("mask", pieces)])
    full0 = dcf_eval_all(0, k0)
    full1 = dcf_eval_all(1, k1)
    for x in range(p):
        got0 = (full0[x][0] + full1[x][0]) % p
        got1 = (full0[x][1] + full1[x][1]) % p
        assert got0 == (1 if x < alpha else 0), x
        assert got1 == (alpha if x < alpha else 0), x


def test_dist_zero_payload(small_params):
    p = small_params.p
    k0, k1, _ = _dist_key_pair(small_params, "dpf", 100,
                               lambda pieces: [("const", 0)])
    full0, full1 = dpf_eval_all(0, k0), dpf_eval_all(1, k1)
    assert all((a[0] + b[0]) % p == 0 for a, b in zip(full0, full1))


def test_dist_gadget_matches_single_tee_function(small_params):
    # materials from both modes realize the same gadget semantics
    p = small_params.p
    t0, t1, _ = _triples(small_params, seed=31)
    m0 = t0.gadget_material("relu")
    m1 = t1.gadget_material("relu")
    for z in range(0, p, 7):
        m0.consumed = m1.consumed = False
        s0, s1 = run_pair(m0, m1, [z], [0], p)
        assert (s0.output[0] + s1.output[0]) % p == plain_relu(z, p), z


def test_dist_max2_gadget(small_params):
    p = small_params.p
    t0, t1, _ = _triples(small_params, seed=32)
    m0 = t0.gadget_material("max2")
    m1 = t1.gadget_material("max2")
    rng = random.Random(5)
    for _ in range(8):
        x, y = rng.randrange(p), rng.randrange(p)
        _reset(m0), _reset(m1)
        sx, sy = rng.randrange(p), rng.randrange(p)
        s0, s1 = run_pair(m0, m1, [sx, sy], [(x - sx) % p, (y - sy) % p], p)
        assert (s0.output[0] + s1.output[0]) % p == plain_max2(x, y, p)


def _reset(m):
    m.consumed = False
    for sub in (m.relu_xy, m.relu_x, m.relu_y):
        sub.consumed = False


def test_prg_calls_all_outside_3pc(small_params):
    # the only PRG calls of a one-key batch are the enclaves' local
    # expansions: each of the three expands its block of both parties' seeds
    # once per level and once more at the leaves
    t0, _, _ = _triples(small_params, seed=33)
    before = prg.calls
    t0.dist_tree_gen("dcf", [_FakePiece(3), _FakePiece(9), _FakePiece(20)],
                     [("const", 1)])
    n = (small_params.p - 1).bit_length()
    assert prg.calls - before == 2 * 3 * (n + 1) == 66


def test_and_count_independent_of_payload_width(small_params):
    # criterion: boolean AND-gate count must not vary with PRG output width
    counts = []
    prg_work = []
    for spec in ([("const", 1)], [("const", 1), ("const", 2), ("const", 3)]):
        t0, _, _ = _triples(small_params, seed=34)
        before = prg.bytes_expanded
        t0.dist_tree_gen("dcf", [_FakePiece(3), _FakePiece(9), _FakePiece(20)],
                         spec)
        counts.append(t0.bool3.and_gates)
        prg_work.append(prg.bytes_expanded - before)
    assert counts[0] == counts[1]
    assert prg_work[0] != prg_work[1]  # wider payload expands more PRG bytes


def test_dist_keygen_enclave_comm_budget(small_params):
    # per-level enclave traffic stays within a documented budget:
    #   - 2 expansion reshares of out_len bytes across 3 enclaves
    #   - 8 lam-bit block redistributions (4 v-fields, 2 ring passes)
    #   - ~30 mult/AND reshare messages of at most 8L+header bytes
    # plus a one-off a2b (6 single-bit ANDs per sum bit) and leaf conversion
    t0, t1, chans = _triples(small_params, seed=35)
    L = 2
    t0.dist_tree_gen("dcf", [_FakePiece(1), _FakePiece(2), _FakePiece(3)],
                     [("const", 1)] * L)
    n = (small_params.p - 1).bit_length()
    lam_b = prg.BLOCK
    sb = 3 * lam_b
    out_len = 2 * (2 * sb) + 1
    hdr = 16
    per_level = (3 * 2 * (out_len + hdr)          # expansion resharing
                 + 3 * 10 * (lam_b + hdr)         # block redistributions
                 + 3 * 14 * (8 * L + hdr)         # arith mult/reveal traffic
                 + 3 * 8 * (sb + hdr))            # seed AND/reveal traffic
    a2b_cost = 3 * 8 * (n + 2) * (1 + hdr) + 3 * 4 * (n + 8)
    budget = n * per_level + a2b_cost + 3 * 20 * (8 * L + hdr)
    enclave_bytes = sum(c.meter.sent_bytes for c in t0.net.channels.values())
    assert enclave_bytes <= budget, (enclave_bytes, budget)


@pytest.mark.parametrize("kind, passes", [("dcf", 57), ("dpf", 56)])
def test_bit2a_starts_in_the_leaf_input_round(small_params, kind, passes):
    # a one-key batch at n = 10 levels: 12 ring passes of the a2b, 4 per
    # level, then the final rounds: the leaf and payload input with bit2a's
    # first multiply, its second, the muxes (DCF only), the signs and the
    # reveal; 3 messages a pass.  meter.rounds counts direction flips, not
    # passes, and every final round but the reveal goes the same way, so a
    # final round more or less leaves it at 63.
    t0, _, _ = _triples(small_params, seed=38)
    t0.dist_tree_gen(kind, [_FakePiece(3), _FakePiece(9), _FakePiece(20)],
                     [("const", 1)])
    meters = [c.meter for c in t0.net.channels.values()]
    assert sum(m.msgs_sent for m in meters) == 3 * passes
    assert sum(m.rounds for m in meters) == 63


def test_dist_dcf_payload_blocks_stay_in_their_enclave(small_params):
    # A payload word's additive share comes from its enclave's own block
    # expansion, so no payload block crosses an enclave boundary and only
    # the seed area of an expansion is reshared.  This call sent 30,675
    # bytes when every level still passed its four v fields block-wise
    # around the ring twice (the sum of meter.sent_bytes over server 0's six
    # enclave channels; seed 35, L = 2, n = 10).
    t0, _, _ = _triples(small_params, seed=35)
    t0.dist_tree_gen("dcf", [_FakePiece(1), _FakePiece(2), _FakePiece(3)],
                     [("const", 1)] * 2)
    n, lam_b = (small_params.p - 1).bit_length(), prg.BLOCK
    v_block_sends = n * 2 * 3 * 4 * lam_b  # per level: 2 passes, 3 enclaves, 4 fields
    sent = sum(c.meter.sent_bytes for c in t0.net.channels.values())
    assert sent <= 30675 - v_block_sends, sent
    assert t0.check_view_discipline() == []


# -- batched key generation: one 3PC per gadget material ------------------------------

# sha256 prefixes of serialize_material for (server 0, server 1), recorded
# when the tree PRG became one SHAKE-128 pass per node and the PRF a keyed
# BLAKE2b; every key in them is the central generator's key
# (test_batched_keys_equal_central_keys)
PINNED = {
    ("relu", 1, 41): ("39d65d904e7b8927afbd688247ab3b34",
                      "02dfeeffdf73803fe207ceb353b24178"),
    ("tanh", 1, 42): ("00f896d9af248b82c55d59100dfc5bc7",
                      "febad24edf7bb1b514918480881c3bd0"),
    ("max2", 1, 43): ("3d7cc08b5d8844640ff823218de45bc6",
                      "b7ca99ab277175920be350a33d252477"),
    ("maxpool", 4, 44): ("46413304a91e1af5a7a602bbc17411e3",
                         "69316f5e139840a36616408beaff25fd"),
    ("argmax", 8, 45): ("50294a0999ca5c54d1092fef951ec0e5",
                        "acfbc4ba4c561e9fa6edcdcb4bc892c0"),
}


@pytest.fixture(scope="module")
def testing_params():
    return ProtocolParams.testing()


@pytest.mark.parametrize("kind, k, seed", list(PINNED))
def test_batched_materials_are_pinned(testing_params, kind, k, seed):
    table = (tanh_table(testing_params.fp_scale, testing_params.p)
             if kind == "tanh" else None)
    got = []
    for server in (0, 1):
        tee, _ = build_tee_triple(server, testing_params, _bundle(seed))
        mat = tee.gadget_material(kind, k=k, table=table)
        got.append(hashlib.sha256(serialize_material(mat)).hexdigest()[:32])
    assert tuple(got) == PINNED[(kind, k, seed)]


# the same digests for single-TEE materials, each made centrally by one
# enclave from the pair seed's PRF stream (recorded when its keys' seeds
# became one block)
PINNED_SINGLE = {
    ("relu", 1, 61): ("27cd41e1e9d93347e81ce271d041adcd",
                      "ab0b75077f1162934f02d4126a448925"),
    ("tanh", 1, 62): ("77f60abeda5717318821caa098c7ba2a",
                      "9d67a7bf431fc3a18b8ee3534c331e18"),
    ("maxpool", 4, 64): ("459824ed987d517023b9799b5de8ff5b",
                         "e44358aefae375d68461cfc80c2e96c7"),
    ("argmax", 8, 65): ("509f9a9f3e131cf9aec75f90ac53c4f1",
                        "4ca1ba330ee19b93ef969e57e951d827"),
}


@pytest.mark.parametrize("kind, k, seed", list(PINNED_SINGLE))
def test_single_tee_materials_are_pinned(testing_params, kind, k, seed):
    table = (tanh_table(testing_params.fp_scale, testing_params.p)
             if kind == "tanh" else None)
    got = []
    for server in (0, 1):
        tee, _ = build_single_tee(server, testing_params, _bundle(seed))
        mat = tee.gadget_material(kind, k=k, table=table)
        got.append(hashlib.sha256(serialize_material(mat)).hexdigest()[:32])
    assert tuple(got) == PINNED_SINGLE[(kind, k, seed)]


# the same digests at production() for the materials of the mfnn model
# (recorded before key generation became one fused kernel call per level)
PINNED_SINGLE_PROD = {
    ("relu", 1, 66): ("6a4f5bda969b92f7f36557baf5339c04",
                      "24b2ca1f8290e49e2407c7e5bf1093a8"),
    ("argmax", 10, 67): ("36673cf5f44694d29840a356fc76b19e",
                         "ae52687333409d30e95c4ac92391c67d"),
}


@pytest.mark.parametrize("kind, k, seed", list(PINNED_SINGLE_PROD))
def test_single_tee_production_materials_are_pinned(kind, k, seed):
    got = []
    for server in (0, 1):
        tee, _ = build_single_tee(server, ProtocolParams.production(), _bundle(seed))
        mat = tee.gadget_material(kind, k=k)
        got.append(hashlib.sha256(serialize_material(mat)).hexdigest()[:32])
    assert tuple(got) == PINNED_SINGLE_PROD[(kind, k, seed)]


# the batched materials' digests at production(), whose 52-bit p is where a
# 3PC product that is not exact in uint64 would first show (recorded before
# the arithmetic sharings became numpy arrays)
PINNED_PROD = {
    ("relu", 1, 81): ("2ee77973b84765184c0383836654d4c4",
                      "06ac952459a9b442e8c8b95ca5cc3f61"),
    ("tanh", 1, 82): ("4c1603937a3cd6d13c996f121c24c2cd",
                      "dce1232ffdfb21d21b2a464f006c44b3"),
    ("max2", 1, 83): ("74d9ad3e05768b8e3acaa98803ab07b7",
                      "bf82c993fb5acf869abefae65c1cd2ad"),
    ("maxpool", 4, 84): ("f1fce7a86dd131508870810eba5be7df",
                         "200abfbd98a9c818168c74b1b17c5f59"),
    ("argmax", 10, 85): ("013c8e2cb5c1d65b57e3174d9a6894bf",
                         "d67a575673e2ad8ef8fea44f9a6e4dda"),
}


@pytest.mark.parametrize("kind, k, seed", list(PINNED_PROD))
def test_batched_production_materials_are_pinned(kind, k, seed):
    params = ProtocolParams.production()
    table = tanh_table(params.fp_scale, params.p) if kind == "tanh" else None
    got = []
    for server in (0, 1):
        tee, _ = build_tee_triple(server, params, _bundle(seed))
        mat = tee.gadget_material(kind, k=k, table=table)
        assert tee.check_view_discipline() == []
        got.append(hashlib.sha256(serialize_material(mat)).hexdigest()[:32])
    assert tuple(got) == PINNED_PROD[(kind, k, seed)]


def test_enclave_byte_streams_are_pinned(monkeypatch):
    # what each enclave sends each other enclave, as one byte stream per
    # channel: a change may merge messages of one round, but not change a
    # byte (recorded before the arithmetic sharings became numpy arrays)
    streams = {}
    send = Channel.send

    def spy(self, kind, phase, payload):
        streams.setdefault(self.name, hashlib.sha256()).update(payload)
        send(self, kind, phase, payload)

    monkeypatch.setattr(Channel, "send", spy)
    for params, kind, k in ((ProtocolParams.testing(), "tanh", 1),
                            (ProtocolParams.production(), "argmax", 4)):
        table = tanh_table(params.fp_scale, params.p) if kind == "tanh" else None
        tee, _ = build_tee_triple(1, params, _bundle(39))
        tee.gadget_material(kind, k=k, table=table)
    digest = hashlib.sha256(b"".join(streams[name].digest() for name in sorted(streams)))
    assert digest.hexdigest()[:32] == "7d37e9aa38dfe0603b86a3a664898507"


def _keys(mat):
    """Every FSS key a material holds, its sub-materials' included."""
    if isinstance(mat, DpfKey):
        return [mat]
    if isinstance(mat, list):
        return [key for item in mat for key in _keys(item)]
    if dataclasses.is_dataclass(mat):
        return [key for f in dataclasses.fields(mat)
                for key in _keys(getattr(mat, f.name))]
    return []


@pytest.mark.parametrize("kind, k", [("relu", 1), ("tanh", 1), ("maxpool", 3),
                                     ("argmax", 3)])
def test_key_seeds_are_one_block_in_single_tee_and_three_in_triples(
        testing_params, kind, k):
    # a single enclave holds every seed whole, so one block per seed; three
    # enclaves each expand their own block of a three-block seed
    table = (tanh_table(testing_params.fp_scale, testing_params.p)
             if kind == "tanh" else None)
    for build, blocks in ((build_single_tee, 1), (build_tee_triple, 3)):
        tee, _ = build(0, testing_params, _bundle(71))
        keys = _keys(tee.gadget_material(kind, k=k, table=table))
        assert keys and {key.blocks for key in keys} == {blocks}, build.__name__


class _Roots:
    """Hands out given root seeds in place of a random generator."""

    def __init__(self, roots):
        self._roots = iter(roots)

    def randbytes(self, n):
        return next(self._roots)


def test_batched_keys_equal_central_keys(testing_params, monkeypatch):
    # every key of a batched material (DCF and DPF lanes, payloads of 1 to 3
    # words) is the one the reference generator makes from the same point,
    # payload and three-block root seeds
    p = testing_params.p
    planned = []
    gen_keys = TeeTriple._gen_keys

    def spy(self, plans):
        planned.extend(plans)
        gen_keys(self, plans)

    monkeypatch.setattr(TeeTriple, "_gen_keys", spy)
    tee, _ = build_tee_triple(1, testing_params, _bundle(45))
    tee.gadget_material("argmax", k=8)
    assert {plan.kind for plan in planned} == {"dcf", "dpf"}
    for plan in planned:
        alpha = sum(pc.r for pc in plan.alpha) % p
        beta = [c[1] if c[0] == "const" else sum(pc.r for pc in c[1])
                for c in plan.beta_spec]
        roots = [b"".join(r[party] for r in plan.roots) for party in (0, 1)]
        central = tree_gen(p, alpha, beta, _Roots(roots), plan.kind == "dcf")
        assert plan.key == central[1]


def _batched_pair(params, kind, k=1, table=None, seed=51):
    t0, t1, _ = _triples(params, seed)
    m0 = t0.gadget_material(kind, k=k, table=table)
    m1 = t1.gadget_material(kind, k=k, table=table)
    assert t0.check_view_discipline() == []
    assert t1.check_view_discipline() == []
    return m0, m1


def _reset_pool(pool):
    for node in pool.nodes:
        _reset(node)


def test_batched_tanh_material_follows_the_spline(testing_params):
    p = testing_params.p
    table = tanh_table(testing_params.fp_scale, p)
    m0, m1 = _batched_pair(testing_params, "tanh", table=table)
    rng = random.Random(52)
    for z in [0, 1, p - 1, 5 << 8, p - (5 << 8)] + [rng.randrange(p) for _ in range(5)]:
        m0.consumed = m1.consumed = False
        sh0 = rng.randrange(p)
        s0, s1 = run_pair(m0, m1, [sh0], [(z - sh0) % p], p)
        assert (s0.output[0] + s1.output[0]) % p == table.reference(z, p), z


def test_batched_maxpool_material(testing_params):
    p = testing_params.p
    m0, m1 = _batched_pair(testing_params, "maxpool", k=4, seed=53)
    rng = random.Random(54)
    for _ in range(3):
        _reset_pool(m0), _reset_pool(m1)
        vals = [rng.randrange(-1000, 1000) % p for _ in range(4)]
        sh0 = [rng.randrange(p) for _ in vals]
        s0, s1 = run_pair(m0, m1, sh0, [(v - s) % p for v, s in zip(vals, sh0)], p)
        assert (s0.output[0] + s1.output[0]) % p == plain_max(vals, p)


def test_a_batch_of_no_keys(testing_params):
    # a maxpool over one input holds no key, so its batch runs no 3PC and
    # the enclaves send one another nothing
    t0, _ = build_tee_triple(0, testing_params, _bundle(46))
    mat = t0.gadget_material("maxpool", k=1)
    assert _keys(mat) == [] and t0.check_view_discipline() == []
    assert sum(c.meter.msgs_sent for c in t0.net.channels.values()) == 0


def test_a_material_of_another_kind_is_rejected(testing_params, monkeypatch):
    # the host checks a delivered material against its request: a relu
    # material delivered for a tanh wire would have the wire compute ReLU,
    # and a maxpool over another number of inputs would misread its shares
    table = tanh_table(testing_params.fp_scale, testing_params.p)
    recipe = tee_module.recipe
    for build in (build_single_tee, build_tee_triple):
        monkeypatch.setattr(tee_module, "recipe",
                            lambda kind, src, k=1, table=None: recipe("relu", src))
        t0, _ = build(0, testing_params, _bundle(47))
        with pytest.raises(ValueError, match=r"a tanh material, got a relu one"):
            t0.gadget_material("tanh", table=table)
        monkeypatch.setattr(tee_module, "recipe",
                            lambda kind, src, k=1, table=None: recipe(kind, src, k + 1))
        with pytest.raises(ValueError, match=r"maxpool \(k=2\) material, got a "
                                             r"maxpool \(k=3\) one"):
            t0.gadget_material("maxpool", k=2)


def test_batched_argmax_material(testing_params):
    p = testing_params.p
    m0, m1 = _batched_pair(testing_params, "argmax", k=8, seed=55)
    rng = random.Random(56)
    for _ in range(2):
        for m in (m0, m1):
            m.consumed = False
            _reset_pool(m.pool)
        vals = [rng.randrange(-1000, 1000) % p for _ in range(8)]
        sh0 = [rng.randrange(p) for _ in vals]
        s0, s1 = run_pair(m0, m1, sh0, [(v - s) % p for v, s in zip(vals, sh0)], p)
        got = [(a + b) % p for a, b in zip(s0.output, s1.output)]
        assert got == plain_argmax(vals, p)


def test_enclave_messages_do_not_grow_with_key_count(small_params):
    # an argmax material over 8 inputs holds 43 keys, a relu wire's one
    sent = []
    for kind, k in (("relu", 1), ("argmax", 8)):
        t0, _, _ = _triples(small_params, seed=36)
        t0.gadget_material(kind, k=k)
        sent.append(sum(c.meter.msgs_sent for c in t0.net.channels.values()))
    assert sent[1] <= 2 * sent[0], sent


def test_view_ledger_does_not_grow(small_params):
    # each batch's tags are checked when it ends and dropped; only violations
    # are kept, so an injected second block of one seed is still reported
    t0, _, _ = _triples(small_params, seed=37)
    held = []
    for _ in range(3):
        t0.gadget_material("max2")
        held.append(sum(len(tags) for tags in t0.views.values()))
    assert held == [0, 0, 0]
    assert t0.check_view_discipline() == []
    seed = (("kg", -1), "root")
    t0._see(1, [seed], 0, 1)
    t0._see(1, [seed], 0, 2)
    t0.gadget_material("relu")
    assert sum(len(tags) for tags in t0.views.values()) == 0
    assert t0.check_view_discipline() == [
        f"enclave 1 saw blocks [1, 2] of seed {(seed, 0)}",
        f"enclave 1 saw foreign block of {(seed, 0)}"]
