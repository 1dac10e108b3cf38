import hashlib
import random

import pytest

import oracles
from oracles import dcf_eval_all, dpf_eval_all, reset_call_counter, uniform_table
from pairml import prg
from pairml.codec import Writer
from pairml.fss import (
    DcfKey,
    DpfKey,
    FssParameterError,
    _walk,
    dcf_eval,
    dcf_gen,
    dpf_eval,
    dpf_gen,
    make_key,
)
from pairml.gadgets import _interval_points

P_TEST = 1009  # > 2^8 so 8-bit-domain payloads stay faithful
P_WIDE = (1 << 30) - 35  # the width of the testing() modulus
P_BIG = 2148204587  # the smallest prime above 2^31 + 11 * 2^16
P_PROD = 2251799814045697  # the production() modulus


def _sum(p, a, b):
    return [(x + y) % p for x, y in zip(a, b)]


# -- tree PRG -----------------------------------------------------------------


def _random_key(rng, p: int, blocks: int, L: int, n: int, cmp: bool, party: int):
    """A key over an n-bit domain with random fields, and the fields:
    (root, party, levels, final_cw, v_cws), as `oracles.walk` takes them."""
    fields = (rng.randbytes(16 * blocks), party,
              [(rng.getrandbits(128 * blocks), (rng.randrange(2), rng.randrange(2)))
               for _ in range(n)],
              [rng.randrange(p) for _ in range(L)],
              [rng.randrange(p) for _ in range(n * L)] if cmp else None)
    root, _, levels, final_cw, v_cws = fields
    return make_key(party, p, root, levels, final_cw, v_cws), fields


def _walks_match_the_reference(rng, p: int, blocks: int, L: int, cmp: bool, n: int = 4):
    """Both parties' keys with random fields, walked over their whole n-bit
    domain, give what the per-block reference walker gives at each point."""
    for party in (0, 1):
        key, fields = _random_key(rng, p, blocks, L, n, cmp, party)
        xs = range(1 << n)
        assert _walk(party, key, xs) == [oracles.walk(p, *fields, x) for x in xs]


def _blocks(seed: int) -> list[bytes]:
    raw = seed.to_bytes(48, "little")
    return [raw[16 * j:16 * (j + 1)] for j in range(3)]


def test_blockprg_xor_of_three_reconstruction():
    # a node's seed area (sL | sR | flags) is the XOR of its three block
    # expansions there: a three-block walk follows the seeds and control
    # bits that the per-block expansions give, at every node of the tree
    rng = random.Random(1)
    for L in (1, 3):
        for _ in range(4):
            _walks_match_the_reference(rng, P_TEST, 3, L, False)


def test_blockprg_deterministic_and_avalanche():
    # a walk is a function of its key, and one flipped root bit changes the
    # output at every point
    rng = random.Random(27)
    for blocks in (1, 3):
        for cmp in (False, True):
            key, (root, party, levels, final_cw, v_cws) = _random_key(
                rng, P_WIDE, blocks, 2, 4, cmp, 0)
            flipped = make_key(party, P_WIDE, bytes([root[0] ^ 1]) + root[1:], levels,
                               final_cw, v_cws)
            xs = range(16)
            assert _walk(0, key, xs) == _walk(0, key, xs)
            assert all(a != b for a, b in zip(_walk(0, key, xs), _walk(0, flipped, xs)))


def test_block_convert_sums_match():
    # a node's payload words and a leaf's conversion are the block-wise sums
    # of the three block expansions' words: unreduced for a node, mod p for a
    # leaf, whose block conversions are reduced
    rng = random.Random(2)
    for p in (P_TEST, (1 << 61) - 1):
        for L in (1, 2, 3):
            _walks_match_the_reference(rng, p, 3, L, True)
            tree, seed = prg.tree(3, L), rng.getrandbits(384)
            leaf = [0] * L
            for blk in _blocks(seed):
                leaf = [a + w for a, w in zip(leaf, prg.block_convert(blk, L, p))]
            assert ([w % p for w in tree.unpack(tree.leaf(seed, (0, 0)))]
                    == [a % p for a in leaf])


def test_one_block_node_is_one_pass_of_g():
    # a one-block seed is a plain 128-bit GGM seed: its node is one pass of g,
    # with the seed area and both sides' payload words read straight off it,
    # and its leaf is one leaf conversion; a walk counts just those
    rng = random.Random(26)
    for p in (P_TEST, (1 << 61) - 1):
        for L in (1, 3):
            tree = prg.tree(1, L)
            assert tree.area == 2 * 16 + 1
            for cmp in (False, True):
                _walks_match_the_reference(rng, p, 1, L, cmp)
                key, _ = _random_key(rng, p, 1, L, 6, cmp, 1)
                reset_call_counter()
                _walk(1, key, [rng.randrange(64)])
                assert (prg.calls, prg.bytes_expanded) == (
                    7, 6 * prg.tree(1, L, cmp).nbytes + 16 * L)
            seed = rng.getrandbits(128)
            assert ([w % p for w in tree.unpack(tree.leaf(seed, (0, 0)))]
                    == prg.block_convert(seed.to_bytes(16, "little"), L, p))


def test_children_read_every_lane_of_a_run_of_seed_areas():
    # the 3PC reads all lanes' seeds and control bits at once: lane l's
    # seed at bit seed_bits * l and its control bit at bit l, each side as
    # one int, as a walk reads them from one area
    rng = random.Random(29)
    for blocks in (1, 3):
        tree = prg.tree(blocks, 2)
        for lanes in (0, 1, 2, 9):
            areas = [rng.getrandbits(8 * tree.area) for _ in range(lanes)]
            want = [0, 0, 0, 0]
            for l, area in enumerate(areas):
                for side in (0, 1):
                    s, t = oracles.child(tree, area, side)
                    want[side] |= s << tree.seed_bits * l
                    want[2 + side] |= t << l
            got = prg.children(blocks, b"".join(a.to_bytes(tree.area, "little")
                                                for a in areas))
            assert list(got) == want


def test_gen_level_is_two_node_expansions():
    # each level of the single enclave's generator is both parties' node
    # expansions: the lose side's seed XOR and the control bits' XOR (the
    # keep side's flipped) are the correction words, each party's next seed
    # is its keep child, corrected where its control bit is set, and a DCF
    # level's payload correction reads both expansions' words.  So its keys
    # are the reference's, made two node expansions per level, and it counts
    # two passes of g per level and two leaf conversions
    rng = random.Random(28)
    for L in (1, 2, 3):
        for _ in range(4):
            point, beta = rng.randrange(P_WIDE), [rng.randrange(P_WIDE) for _ in range(L)]
            seed = rng.getrandbits(32)
            for gen, ref, cmp in ((dpf_gen, oracles.dpf_gen, False),
                                  (dcf_gen, oracles.dcf_gen, True)):
                reset_call_counter()
                keys = gen(P_WIDE, point, beta, random.Random(seed))
                assert (prg.calls, prg.bytes_expanded) == (
                    2 * 30 + 2, 2 * (30 * prg.tree(1, L, cmp).nbytes + 16 * L))
                assert keys == ref(P_WIDE, point, beta, random.Random(seed), blocks=1)


# -- the key generator ---------------------------------------------------------


def test_one_block_generator_matches_the_reference():
    # the single enclave's fused generator makes, byte for byte, the keys
    # that the reference makes one block at a time from the same draws:
    # DPF and DCF, payloads of 1 to 3 words, both ends of the domain and
    # inside it, p from 15 to production()'s
    rng = random.Random(34)
    for p in (15, P_TEST, P_WIDE, P_BIG, P_PROD):
        for point in (0, p - 1, rng.randrange(p), rng.randrange(p)):
            beta = [rng.randrange(p) for _ in range(rng.randrange(1, 4))]
            seed = rng.getrandbits(32)
            for gen, ref in ((dpf_gen, oracles.dpf_gen), (dcf_gen, oracles.dcf_gen)):
                keys = gen(p, point, beta, random.Random(seed))
                assert keys == ref(p, point, beta, random.Random(seed), blocks=1)
                assert {key.blocks for key in keys} == {1}


# -- DPF ------------------------------------------------------------------------


def test_dpf_exhaustive_8bit():
    rng = random.Random(3)
    for blocks, trial in [(b, t) for b in (3, 1) for t in range(6)]:
        alpha = rng.randrange(256)
        beta = [rng.randrange(P_TEST), rng.randrange(P_TEST)]
        k0, k1 = oracles.dpf_gen(P_TEST, alpha, beta, rng, domain_bits=8, blocks=blocks)
        for x in range(256):
            got = _sum(P_TEST, dpf_eval(0, k0, x), dpf_eval(1, k1, x))
            expect = beta if x == alpha else [0, 0]
            assert got == expect, (blocks, trial, alpha, x)


def test_dpf_known_point_case():
    rng = random.Random(4)
    k0, k1 = oracles.dpf_gen(P_TEST, 3, [1], rng, domain_bits=8)
    hits = [x for x in range(256)
            if _sum(P_TEST, dpf_eval(0, k0, x), dpf_eval(1, k1, x)) != [0]]
    assert hits == [3]
    assert _sum(P_TEST, dpf_eval(0, k0, 3), dpf_eval(1, k1, 3)) == [1]


def test_dpf_payload_five():
    rng = random.Random(5)
    k0, k1 = oracles.dpf_gen(P_TEST, 77, [5], rng, domain_bits=8)
    assert _sum(P_TEST, dpf_eval(0, k0, 77), dpf_eval(1, k1, 77)) == [5]


def test_dpf_zero_payload():
    rng = random.Random(6)
    k0, k1 = oracles.dpf_gen(P_TEST, 9, [0], rng, domain_bits=8)
    for x in range(256):
        assert _sum(P_TEST, dpf_eval(0, k0, x), dpf_eval(1, k1, x)) == [0]


def test_dpf_key_symmetry():
    # the keys of a pair differ only in the party (header bytes 1 and 15)
    # and the root seed after the 16-byte header; every correction word
    # after it is shared
    rng = random.Random(7)
    k0, k1 = oracles.dpf_gen(P_TEST, 100, [7], rng, domain_bits=8)
    b0, b1 = k0.serialize(), k1.serialize()
    end = 16 + 48  # the header, then a three-block root seed
    assert (b0[1], b0[15], b1[1], b1[15]) == (0, 0, 1, 1)
    assert b0[:1] + b0[2:15] == b1[:1] + b1[2:15]
    assert b0[end:] == b1[end:]
    assert b0[16:end] != b1[16:end]


def test_dpf_equal_root_seeds_cancel():
    rng = random.Random(8)
    k0, _ = oracles.dpf_gen(P_TEST, 50, [9], rng, domain_bits=8)
    for x in range(0, 256, 7):  # one key evaluated as both parties
        assert _sum(P_TEST, dpf_eval(0, k0, x), dpf_eval(1, k0, x)) == [0]


def test_dpf_single_key_hides_alpha():
    # detector: argmax of |centered share| over the domain; should locate
    # alpha no better than chance across re-keyings
    alpha = 42
    hits = 0
    for trial in range(100):
        rng = random.Random(1000 + trial)
        k0, _ = oracles.dpf_gen(P_TEST, alpha, [1], rng, domain_bits=8)
        table = [dpf_eval(0, k0, x)[0] for x in range(256)]
        centered = [min(v, P_TEST - v) for v in table]
        guess = max(range(256), key=lambda i: centered[i])
        hits += guess == alpha
    assert hits <= 5  # chance level is 100/256 ~ 0.4 expected hits


def test_dpf_full_domain_sampled():
    rng = random.Random(9)
    p = (1 << 52) + 21  # stand-in large modulus; domain follows p
    n = (p - 1).bit_length()
    alpha = rng.randrange(p)
    k0, k1 = oracles.dpf_gen(p, alpha, [123], rng, domain_bits=n)
    assert _sum(p, dpf_eval(0, k0, alpha), dpf_eval(1, k1, alpha)) == [123]
    for _ in range(50):
        x = rng.randrange(p)
        if x != alpha:
            assert _sum(p, dpf_eval(0, k0, x), dpf_eval(1, k1, x)) == [0]


def test_dpf_eval_prg_budget():
    rng = random.Random(10)
    k0, _ = oracles.dpf_gen(P_TEST, 5, [1], rng, domain_bits=8)
    reset_call_counter()
    dpf_eval(0, k0, 123)
    calls = reset_call_counter()
    # 3 expansions per level plus 3 leaf conversions
    assert calls <= 4 * 8 + 3


def test_dcf_gen_prg_budget():
    # one node expansion (a block call per seed block) per party and level,
    # then one leaf conversion per party: blocks (2n + 2) block calls, for
    # the reference generator and for the single enclave's, whose keys have
    # one block over Z_p's domain
    rng = random.Random(24)
    for blocks in (1, 3):
        for p, n in ((P_TEST, 8), (P_WIDE, 30)):
            reset_call_counter()
            oracles.dcf_gen(p, 5, [1, 2], rng, domain_bits=n, blocks=blocks)
            assert reset_call_counter() == blocks * (2 * n + 2)
    for p in (P_TEST, P_WIDE):
        reset_call_counter()
        dcf_gen(p, 5, [1, 2], rng)
        assert reset_call_counter() == 2 * (p - 1).bit_length() + 2


def test_dcf_eval_prg_budget():
    # one node expansion per level and one leaf conversion: blocks (n + 1)
    rng = random.Random(25)
    for blocks in (1, 3):
        for p, n in ((P_TEST, 8), (P_WIDE, 30)):
            k0, _ = oracles.dcf_gen(p, 5, [1, 2], rng, domain_bits=n, blocks=blocks)
            reset_call_counter()
            dcf_eval(0, k0, 123)
            assert reset_call_counter() == blocks * (n + 1)


def test_dpf_domain_errors():
    rng = random.Random(11)
    with pytest.raises(FssParameterError):
        oracles.dpf_gen(P_TEST, 256, [1], rng, domain_bits=8)
    with pytest.raises(FssParameterError):
        dpf_gen(P_TEST, 1 << 10, [1], rng)  # Z_p's domain is 10 bits
    k0, _ = oracles.dpf_gen(P_TEST, 1, [1], rng, domain_bits=8)
    with pytest.raises(FssParameterError):
        dpf_eval(0, k0, 999)


# -- DCF ------------------------------------------------------------------------


def test_dcf_exhaustive_8bit():
    rng = random.Random(12)
    for blocks, trial in [(b, t) for b in (3, 1) for t in range(6)]:
        thr = rng.randrange(257)  # threshold range includes 2^n is excluded; [0,256]
        thr = min(thr, 255)
        beta = [rng.randrange(P_TEST)]
        k0, k1 = oracles.dcf_gen(P_TEST, thr, beta, rng, domain_bits=8, blocks=blocks)
        for x in range(256):
            got = _sum(P_TEST, dcf_eval(0, k0, x), dcf_eval(1, k1, x))
            expect = beta if x < thr else [0]
            assert got == expect, (blocks, trial, thr, x)


def test_dcf_threshold_zero_and_max():
    rng = random.Random(13)
    k0, k1 = oracles.dcf_gen(P_TEST, 0, [5], rng, domain_bits=8)
    for x in range(0, 256, 3):
        assert _sum(P_TEST, dcf_eval(0, k0, x), dcf_eval(1, k1, x)) == [0]
    k0, k1 = oracles.dcf_gen(P_TEST, 255, [5], rng, domain_bits=8)
    for x in range(0, 256, 3):
        expect = [5] if x < 255 else [0]
        assert _sum(P_TEST, dcf_eval(0, k0, x), dcf_eval(1, k1, x)) == expect


def test_dcf_vector_payload():
    rng = random.Random(14)
    beta = [3, 1, 4, 1, 5]
    k0, k1 = oracles.dcf_gen(P_TEST, 100, beta, rng, domain_bits=8)
    for x in (0, 99, 100, 101, 255):
        got = _sum(P_TEST, dcf_eval(0, k0, x), dcf_eval(1, k1, x))
        assert got == (beta if x < 100 else [0] * 5)


def test_eval_all_matches_pointwise():
    rng = random.Random(21)
    k0, k1 = oracles.dpf_gen(P_TEST, 200, [1, 9], rng, domain_bits=8)
    full0, full1 = dpf_eval_all(0, k0), dpf_eval_all(1, k1)
    for x in range(256):
        assert full0[x] == dpf_eval(0, k0, x)
        assert full1[x] == dpf_eval(1, k1, x)
    c0, c1 = oracles.dcf_gen(P_TEST, 77, [4], rng, domain_bits=8)
    fc0, fc1 = dcf_eval_all(0, c0), dcf_eval_all(1, c1)
    for x in range(256):
        assert fc0[x] == dcf_eval(0, c0, x)
        assert fc1[x] == dcf_eval(1, c1, x)


def test_walk_point_sets_match_pointwise():
    # sparse, clustered and repeated points share some tree prefixes only
    rng = random.Random(23)
    keys = [oracles.dpf_gen(P_TEST, 200, [1, 9], rng, domain_bits=8)[1],
            oracles.dcf_gen(P_TEST, 77, [4, 2], rng, domain_bits=8)[0]]
    for key, ev in zip(keys, (dpf_eval, dcf_eval)):
        for xs in ([5], [255, 0, 128], [76, 77, 78, 77, 76], rng.sample(range(256), 40)):
            assert _walk(key.party, key, xs) == [ev(key.party, key, x) for x in xs]
    with pytest.raises(FssParameterError):
        _walk(0, keys[1], [3, 256])


def _kernel_walks(dpf=oracles.dpf_gen, dcf=oracles.dcf_gen):
    """Multi-point walks on wide domains, the point sets the sessions walk:
    uniform tanh spline knots at P_BIG and P_PROD, ReLU point pairs at
    P_PROD, and single DPF points at both (party b's key, the points, the
    function), on keys from the given generators, by default the
    reference's three-block ones."""
    rng = random.Random(61)
    walks = []
    for p in (P_BIG, P_PROD):
        table = uniform_table("tanh", 8, p)
        for _ in range(3):
            r, w = rng.randrange(p), rng.randrange(p)
            keys = dcf(p, r, [1, r], rng)
            knots = [y for lo, hi, _, _ in table.segments
                     for y in _interval_points(w, lo, hi, p)]
            walks.append((keys, knots, lambda x, r=r: [1, r] if x < r else [0, 0]))
        for _ in range(3):
            alpha = rng.randrange(p)
            keys = dpf(p, alpha, [1, 2, 3], rng)
            walks.append((keys, [alpha if rng.randrange(2) else rng.randrange(p)],
                          lambda x, a=alpha: [1, 2, 3] if x == a else [0, 0, 0]))
    for _ in range(4):
        r, w = rng.randrange(P_PROD), rng.randrange(P_PROD)
        keys = dcf(P_PROD, r, [1, r], rng)
        walks.append((keys, list(_interval_points(w, 0, (P_PROD - 1) // 2, P_PROD)),
                      lambda x, r=r: [1, r] if x < r else [0, 0]))
    return walks


def test_multi_point_walks_match_pointwise_and_are_pinned():
    # one walk over many points equals the one-point evaluations, the two
    # parties' shares sum to the function, and keys and shares match a
    # digest recorded before the walk kept its payload sums packed
    h = hashlib.sha256()
    for keys, xs, f in _kernel_walks():
        p = keys[0].p
        ev = dcf_eval if isinstance(keys[0], DcfKey) else dpf_eval
        shares = [_walk(b, key, xs) for b, key in enumerate(keys)]
        for b, key in enumerate(keys):
            assert shares[b] == [ev(b, key, x) for x in xs]
            h.update(key.serialize())
        for x, s0, s1 in zip(xs, *shares):
            assert _sum(p, s0, s1) == f(x)
            h.update(b"".join(v.to_bytes(8, "little") for v in s0 + s1))
    assert h.hexdigest()[:16] == "a8f42eaf7499d944"


def test_one_block_walks_match_pointwise():
    for keys, xs, f in _kernel_walks(dpf_gen, dcf_gen):
        assert {key.blocks for key in keys} == {1}
        ev = dcf_eval if isinstance(keys[0], DcfKey) else dpf_eval
        shares = [_walk(b, key, xs) for b, key in enumerate(keys)]
        for b, key in enumerate(keys):
            assert shares[b] == [ev(b, key, x) for x in xs]
        for x, s0, s1 in zip(xs, *shares):
            assert _sum(keys[0].p, s0, s1) == f(x)


def test_walk_prg_calls_count_prefixes_and_points():
    # a walk expands each distinct prefix of its points once per level (a
    # block call per seed block) and converts each distinct point once
    for blocks, gens in ((1, (dpf_gen, dcf_gen)), (3, (oracles.dpf_gen, oracles.dcf_gen))):
        for keys, xs, _ in _kernel_walks(*gens):
            n = keys[0].domain_bits
            nodes = sum(len({x >> (n - i) for x in xs}) for i in range(n))
            reset_call_counter()
            _walk(1, keys[1], xs)
            assert reset_call_counter() == blocks * (nodes + len(set(xs)))


# -- serialization ----------------------------------------------------------------


# a key's variant byte names its class and its seeds' block count
VARIANTS = {(DpfKey, 3): 0x01, (DcfKey, 3): 0x02, (DpfKey, 1): 0x03, (DcfKey, 1): 0x04}


def test_key_serialization_round_trip():
    rng = random.Random(20)
    for blocks in (3, 1):
        k0, k1 = oracles.dpf_gen(P_TEST, 44, [1, 2], rng, domain_bits=8, blocks=blocks)
        for k in (k0, k1):
            buf = k.serialize()
            assert buf[0] == VARIANTS[(DpfKey, blocks)]
            again = DpfKey.deserialize(buf)
            assert again == k and again.blocks == blocks
            assert again.serialize() == buf
        c0, c1 = oracles.dcf_gen(P_TEST, 99, [1, 2, 3], rng, domain_bits=8, blocks=blocks)
        buf = c0.serialize()
        assert buf[0] == VARIANTS[(DcfKey, blocks)]
        assert DcfKey.deserialize(buf) == c0
        assert DcfKey.deserialize(buf).serialize() == buf


def test_malformed_keys_rejected():
    rng = random.Random(22)
    for blocks in (3, 1):
        k0, _ = oracles.dpf_gen(P_TEST, 44, [1, 2], rng, domain_bits=8, blocks=blocks)
        c0, _ = oracles.dcf_gen(P_TEST, 99, [1, 2, 3], rng, domain_bits=8, blocks=blocks)
        for cls, buf in ((DpfKey, k0.serialize()), (DcfKey, c0.serialize())):
            for bad in (buf[:-8], buf[:-1], buf + b"\0", buf + b"junk", buf[:5], b""):
                with pytest.raises(ValueError):
                    cls.deserialize(bad)
            # every variant byte but this one: another class's, the other
            # block count's (its seeds do not fit this body) and unknown ones
            for variant in set(range(256)) - {buf[0]}:
                with pytest.raises(ValueError):
                    cls.deserialize(bytes([variant]) + buf[1:])
        with pytest.raises(ValueError):
            DcfKey.deserialize(k0.serialize())  # a DPF key is not a DCF key
        # the party byte (byte 1) is 0 or 1, and the root control byte (byte
        # 15, after the lam field) is the party: no real key has other values
        for cls, key in ((DpfKey, k0), (DcfKey, c0)):
            buf = key.serialize()
            with pytest.raises(ValueError, match="party 2"):
                cls.deserialize(buf[:1] + b"\2" + buf[2:15] + b"\2" + buf[16:])
            with pytest.raises(ValueError, match="root control bit 1"):
                cls.deserialize(buf[:15] + b"\1" + buf[16:])


def test_keys_of_another_lam_rejected():
    # every deployed key has lam = 128; a header with another lam, and seeds
    # and correction words of that size, is not a key: a one-block DCF key
    # with lam = 0 (no seed bytes, 8 levels of flags and 18 zero words) used
    # to decode and evaluate
    zero = (Writer().u8(0x04).u8(0).u8(8).u16(2).u64(P_TEST).u16(0).u8(0)
            .raw(bytes(8)).u64s([0] * 18).getvalue())
    with pytest.raises(ValueError, match="lam 0"):
        DcfKey.deserialize(zero)
    rng = random.Random(30)
    for gen, cls in ((oracles.dpf_gen, DpfKey), (oracles.dcf_gen, DcfKey)):
        for blocks in (1, 3):
            buf = gen(P_TEST, 99, [1, 2], rng, domain_bits=8, blocks=blocks)[0].serialize()
            # the lam field follows the variant, party, n, L and p: bytes 13-14
            with pytest.raises(ValueError, match="lam 64"):
                cls.deserialize(buf[:13] + (64).to_bytes(2, "little") + buf[15:])


def test_payload_correction_word_not_below_p_rejected():
    # a payload correction word is an element of Z_p: a DCF v_cw of p + 1
    # used to decode
    rng = random.Random(32)
    for blocks in (1, 3):
        key = oracles.dcf_gen(P_TEST, 99, [1, 2], rng, domain_bits=8, blocks=blocks)[0]
        buf = key.serialize()
        sb = 16 * blocks
        at = 16 + sb + 8 * (sb + 1) + 8 * 2  # level 0's first v_cw word, after final_cw
        bad = buf[:at] + (P_TEST + 1).to_bytes(8, "little") + buf[at + 8:]
        with pytest.raises(ValueError, match=f"correction word {P_TEST + 1} not below p"):
            DcfKey.deserialize(bad)


def test_domain_wider_than_p_rejected():
    # a key's domain is Z_p, at most (p - 1).bit_length() bits: a key over a
    # 30-bit domain with p = 15, which only the reference can make, used to
    # decode and evaluate
    rng = random.Random(33)
    for gen, cls in ((oracles.dpf_gen, DpfKey), (oracles.dcf_gen, DcfKey)):
        for blocks in (1, 3):
            key = gen(15, 7, [1, 2], rng, domain_bits=30, blocks=blocks)[1]
            with pytest.raises(ValueError, match="30-bit domain over p 15"):
                cls.deserialize(key.serialize())


def test_key_length_closed_form():
    # a 16-byte header, the root seed, per level a seed correction word and
    # a flags byte, then final_cw and, for a DCF, a v_cw per level, 8 bytes
    # a word
    # the single enclave's keys have one-block seeds, the reference's three
    rng = random.Random(29)
    for blocks, gens in ((1, (dpf_gen, dcf_gen)), (3, (oracles.dpf_gen, oracles.dcf_gen))):
        sb = 16 * blocks
        for gen, cmp in zip(gens, (0, 1)):
            for p, L in ((P_TEST, 1), (P_WIDE, 3), (P_PROD, 2)):
                n = (p - 1).bit_length()
                key = gen(p, rng.randrange(p), [1] * L, rng)[0]
                assert len(key.serialize()) == (16 + sb + n * (sb + 1)
                                                + 8 * L * (1 + n * cmp))
    # a wire's comparison key at production(): payload (1, r), 52 levels
    assert [len(gen(P_PROD, 5, [1, 5], rng)[0].serialize())
            for gen in (dcf_gen, oracles.dcf_gen)] == [1764, 3460]


# -- pinned key bytes -----------------------------------------------------------------


def _table_digest(gen, eval_all, seed, blocks=3):
    rng = random.Random(seed)
    point = rng.randrange(256)
    beta = [rng.randrange(P_TEST) for _ in range(2)]
    keys = gen(P_TEST, point, beta, rng, domain_bits=8, blocks=blocks)
    h = hashlib.sha256()
    for b, key in enumerate(keys):
        h.update(key.serialize())
        for row in eval_all(b, key):
            h.update(b"".join(v.to_bytes(2, "little") for v in row))
    return h.hexdigest()[:16]


def _point_digest(gen, ev, seed):
    rng = random.Random(seed)
    point = rng.randrange(P_WIDE)
    keys = gen(P_WIDE, point, [1, point], rng)
    xs = [point - 1, point, point + 1] + [rng.randrange(P_WIDE) for _ in range(5)]
    h = hashlib.sha256()
    for b, key in enumerate(keys):
        h.update(key.serialize())
        for x in xs:
            h.update(b"".join(v.to_bytes(4, "little") for v in ev(b, key, x)))
    return h.hexdigest()[:16]


def test_key_bytes_and_tables_pinned():
    # key bytes, full tables and wide-domain point shares on fixed seeds must
    # not drift: deployed keys and the PRG budgets depend on them (recorded
    # when the tree PRG became one SHAKE-128 pass per node)
    assert [_table_digest(oracles.dpf_gen, dpf_eval_all, s) for s in (1, 2, 3)] == [
        "a59635982ab766f1", "2dbfb9a53aef5bd6", "d84862379ec0113b"]
    assert [_table_digest(oracles.dcf_gen, dcf_eval_all, s) for s in (1, 2, 3)] == [
        "cefd22722413d271", "da34b64a3e43027f", "156a19eb403bed36"]
    assert [_point_digest(oracles.dpf_gen, dpf_eval, s) for s in (4, 5)] == [
        "66a9badc626c190b", "eafc090c6b2824f3"]
    assert [_point_digest(oracles.dcf_gen, dcf_eval, s) for s in (4, 5)] == [
        "595e144d73dc98dc", "ea70a82036d7be4a"]


def test_one_block_key_bytes_and_tables_pinned():
    # the same digests for keys with one-block seeds, the keys a single
    # enclave makes (recorded when they were introduced): the 8-bit tables
    # from the reference, the wide-domain points from the enclave's generator
    assert [_table_digest(oracles.dpf_gen, dpf_eval_all, s, 1) for s in (1, 2, 3)] == [
        "d5cb7be8ea62eb17", "cd771a076556581b", "9547d69c7e4cabfc"]
    assert [_table_digest(oracles.dcf_gen, dcf_eval_all, s, 1) for s in (1, 2, 3)] == [
        "fcd6a8ee1dc8b668", "bd908a81a2a51e5f", "4894946a1425aba9"]
    assert [_point_digest(dpf_gen, dpf_eval, s) for s in (4, 5)] == [
        "7fb6b025d31d10b8", "88b17c5b5332077e"]
    assert [_point_digest(dcf_gen, dcf_eval, s) for s in (4, 5)] == [
        "518d3190eed853c7", "a49085c2041741ad"]


def _gen_digest(gen, blocks):
    # key bytes at an 8-bit domain and at production()'s 52-bit p, for every
    # payload length the recipes use, at both ends of the domain and inside
    rng = random.Random(31)
    h = hashlib.sha256()
    for p, n in ((P_TEST, 8), (P_PROD, 52)):
        for L in (1, 2, 3):
            for point in (0, rng.randrange(1 << n), (1 << n) - 1):
                point = min(point, p - 1)
                beta = [rng.randrange(p) for _ in range(L)]
                for key in gen(p, point, beta, rng, domain_bits=n, blocks=blocks):
                    h.update(key.serialize())
    return h.hexdigest()[:16]


def test_generated_key_bytes_pinned():
    # recorded before key generation became one fused kernel call per level;
    # the reference makes the same keys
    assert {(gen.__name__, blocks): _gen_digest(gen, blocks)
            for gen in (oracles.dpf_gen, oracles.dcf_gen) for blocks in (1, 3)} == {
        ("dpf_gen", 1): "a56e578492877bd4", ("dpf_gen", 3): "c8458dbec3ee81ce",
        ("dcf_gen", 1): "7d54468c072ee94f", ("dcf_gen", 3): "376427132d2b8d1f"}
