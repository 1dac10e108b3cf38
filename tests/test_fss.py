import hashlib
import random
from dataclasses import replace

import pytest

from pairml import prg
from pairml.fss import (
    DcfKey,
    DpfKey,
    FssParameterError,
    _walk,
    dcf_eval,
    dcf_eval_all,
    dcf_gen,
    dpf_eval,
    dpf_eval_all,
    dpf_gen,
)

P_TEST = 1009  # > 2^8 so 8-bit-domain payloads stay faithful


def _sum(p, a, b):
    return [(x + y) % p for x, y in zip(a, b)]


# -- block PRG ----------------------------------------------------------------


def test_blockprg_xor_of_three_reconstruction():
    rng = random.Random(1)
    for _ in range(100):
        seed = rng.randbytes(48)
        whole = prg.expand_seed(seed, 64)
        acc = 0
        for j in range(3):
            blk = seed[16 * j:16 * (j + 1)]
            acc ^= int.from_bytes(prg.g_expand(blk, 64), "little")
        assert acc.to_bytes(64, "little") == whole


def test_blockprg_deterministic_and_avalanche():
    seed = bytes(48)
    assert prg.expand_seed(seed, 32) == prg.expand_seed(seed, 32)
    flipped = bytes([1]) + bytes(47)
    assert prg.expand_seed(flipped, 32) != prg.expand_seed(seed, 32)


def test_block_convert_sums_match():
    rng = random.Random(2)
    seed = rng.randbytes(48)
    whole = prg.convert_seed(seed, 3, P_TEST)
    acc = [0, 0, 0]
    for j in range(3):
        blk = seed[16 * j:16 * (j + 1)]
        for i, v in enumerate(prg.block_convert(blk, 3, P_TEST)):
            acc[i] = (acc[i] + v) % P_TEST
    assert acc == whole


# -- DPF ------------------------------------------------------------------------


def test_dpf_exhaustive_8bit():
    rng = random.Random(3)
    for trial in range(6):
        alpha = rng.randrange(256)
        beta = [rng.randrange(P_TEST), rng.randrange(P_TEST)]
        k0, k1 = dpf_gen(P_TEST, alpha, beta, rng, domain_bits=8)
        for x in range(256):
            got = _sum(P_TEST, dpf_eval(0, k0, x), dpf_eval(1, k1, x))
            expect = beta if x == alpha else [0, 0]
            assert got == expect, (trial, alpha, x)


def test_dpf_known_point_case():
    rng = random.Random(4)
    k0, k1 = dpf_gen(P_TEST, 3, [1], rng, domain_bits=8)
    hits = [x for x in range(256)
            if _sum(P_TEST, dpf_eval(0, k0, x), dpf_eval(1, k1, x)) != [0]]
    assert hits == [3]
    assert _sum(P_TEST, dpf_eval(0, k0, 3), dpf_eval(1, k1, 3)) == [1]


def test_dpf_payload_five():
    rng = random.Random(5)
    k0, k1 = dpf_gen(P_TEST, 77, [5], rng, domain_bits=8)
    assert _sum(P_TEST, dpf_eval(0, k0, 77), dpf_eval(1, k1, 77)) == [5]


def test_dpf_zero_payload():
    rng = random.Random(6)
    k0, k1 = dpf_gen(P_TEST, 9, [0], rng, domain_bits=8)
    for x in range(256):
        assert _sum(P_TEST, dpf_eval(0, k0, x), dpf_eval(1, k1, x)) == [0]


def test_dpf_key_symmetry():
    rng = random.Random(7)
    k0, k1 = dpf_gen(P_TEST, 100, [7], rng, domain_bits=8)
    assert k0.seed_cws == k1.seed_cws
    assert k0.t_cws == k1.t_cws
    assert k0.final_cw == k1.final_cw
    assert k0.root_seed != k1.root_seed


def test_dpf_equal_root_seeds_cancel():
    rng = random.Random(8)
    k0, _ = dpf_gen(P_TEST, 50, [9], rng, domain_bits=8)
    k1_degenerate = replace(k0, party=1)
    for x in range(0, 256, 7):
        assert _sum(P_TEST, dpf_eval(0, k0, x), dpf_eval(1, k1_degenerate, x)) == [0]


def test_dpf_single_key_hides_alpha():
    # detector: argmax of |centered share| over the domain; should locate
    # alpha no better than chance across re-keyings
    alpha = 42
    hits = 0
    for trial in range(100):
        rng = random.Random(1000 + trial)
        k0, _ = dpf_gen(P_TEST, alpha, [1], rng, domain_bits=8)
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
    k0, k1 = dpf_gen(p, alpha, [123], rng, domain_bits=n)
    assert _sum(p, dpf_eval(0, k0, alpha), dpf_eval(1, k1, alpha)) == [123]
    for _ in range(50):
        x = rng.randrange(p)
        if x != alpha:
            assert _sum(p, dpf_eval(0, k0, x), dpf_eval(1, k1, x)) == [0]


def test_dpf_eval_prg_budget():
    rng = random.Random(10)
    k0, _ = dpf_gen(P_TEST, 5, [1], rng, domain_bits=8)
    prg.reset_call_counter()
    dpf_eval(0, k0, 123)
    calls = prg.reset_call_counter()
    # 3 expansions per level plus 3 leaf conversions
    assert calls <= 4 * 8 + 3


def test_dpf_domain_errors():
    rng = random.Random(11)
    with pytest.raises(FssParameterError):
        dpf_gen(P_TEST, 256, [1], rng, domain_bits=8)
    k0, _ = dpf_gen(P_TEST, 1, [1], rng, domain_bits=8)
    with pytest.raises(FssParameterError):
        dpf_eval(0, k0, 999)


# -- DCF ------------------------------------------------------------------------


def test_dcf_exhaustive_8bit():
    rng = random.Random(12)
    for trial in range(6):
        thr = rng.randrange(257)  # threshold range includes 2^n is excluded; [0,256]
        thr = min(thr, 255)
        beta = [rng.randrange(P_TEST)]
        k0, k1 = dcf_gen(P_TEST, thr, beta, rng, domain_bits=8)
        for x in range(256):
            got = _sum(P_TEST, dcf_eval(0, k0, x), dcf_eval(1, k1, x))
            expect = beta if x < thr else [0]
            assert got == expect, (trial, thr, x)


def test_dcf_threshold_zero_and_max():
    rng = random.Random(13)
    k0, k1 = dcf_gen(P_TEST, 0, [5], rng, domain_bits=8)
    for x in range(0, 256, 3):
        assert _sum(P_TEST, dcf_eval(0, k0, x), dcf_eval(1, k1, x)) == [0]
    k0, k1 = dcf_gen(P_TEST, 255, [5], rng, domain_bits=8)
    for x in range(0, 256, 3):
        expect = [5] if x < 255 else [0]
        assert _sum(P_TEST, dcf_eval(0, k0, x), dcf_eval(1, k1, x)) == expect


def test_dcf_vector_payload():
    rng = random.Random(14)
    beta = [3, 1, 4, 1, 5]
    k0, k1 = dcf_gen(P_TEST, 100, beta, rng, domain_bits=8)
    for x in (0, 99, 100, 101, 255):
        got = _sum(P_TEST, dcf_eval(0, k0, x), dcf_eval(1, k1, x))
        assert got == (beta if x < 100 else [0] * 5)


def test_eval_all_matches_pointwise():
    rng = random.Random(21)
    k0, k1 = dpf_gen(P_TEST, 200, [1, 9], rng, domain_bits=8)
    full0, full1 = dpf_eval_all(0, k0), dpf_eval_all(1, k1)
    for x in range(256):
        assert full0[x] == dpf_eval(0, k0, x)
        assert full1[x] == dpf_eval(1, k1, x)
    c0, c1 = dcf_gen(P_TEST, 77, [4], rng, domain_bits=8)
    fc0, fc1 = dcf_eval_all(0, c0), dcf_eval_all(1, c1)
    for x in range(256):
        assert fc0[x] == dcf_eval(0, c0, x)
        assert fc1[x] == dcf_eval(1, c1, x)


def test_walk_point_sets_match_pointwise():
    # sparse, clustered and repeated points share some tree prefixes only
    rng = random.Random(23)
    keys = [dpf_gen(P_TEST, 200, [1, 9], rng, domain_bits=8)[1],
            dcf_gen(P_TEST, 77, [4, 2], rng, domain_bits=8)[0]]
    for key, ev in zip(keys, (dpf_eval, dcf_eval)):
        for xs in ([5], [255, 0, 128], [76, 77, 78, 77, 76], rng.sample(range(256), 40)):
            assert _walk(key.party, key, xs) == [ev(key.party, key, x) for x in xs]
    with pytest.raises(FssParameterError):
        _walk(0, keys[1], [3, 256])


# -- serialization ----------------------------------------------------------------


def test_key_serialization_round_trip():
    rng = random.Random(20)
    k0, k1 = dpf_gen(P_TEST, 44, [1, 2], rng, domain_bits=8)
    for k in (k0, k1):
        buf = k.serialize()
        again = DpfKey.deserialize(buf)
        assert again == k
        assert again.serialize() == buf
    c0, c1 = dcf_gen(P_TEST, 99, [1, 2, 3], rng, domain_bits=8)
    buf = c0.serialize()
    assert DcfKey.deserialize(buf) == c0
    assert DcfKey.deserialize(buf).serialize() == buf


def test_malformed_keys_rejected():
    rng = random.Random(22)
    k0, _ = dpf_gen(P_TEST, 44, [1, 2], rng, domain_bits=8)
    c0, _ = dcf_gen(P_TEST, 99, [1, 2, 3], rng, domain_bits=8)
    for cls, buf in ((DpfKey, k0.serialize()), (DcfKey, c0.serialize())):
        for bad in (buf[:-8], buf[:-1], buf + b"junk", buf[:5], b""):
            with pytest.raises(ValueError):
                cls.deserialize(bad)
    with pytest.raises(ValueError):
        DcfKey.deserialize(k0.serialize())  # a DPF key is not a DCF key
    with pytest.raises(ValueError):
        replace(c0, v_cws=c0.v_cws[:-1]).serialize()
    with pytest.raises(ValueError):
        replace(k0, seed_cws=[s[:-1] for s in k0.seed_cws]).serialize()


# -- pinned key bytes -----------------------------------------------------------------

P_WIDE = (1 << 30) - 35  # the width of the testing() modulus


def _table_digest(gen, eval_all, seed):
    rng = random.Random(seed)
    point = rng.randrange(256)
    beta = [rng.randrange(P_TEST) for _ in range(2)]
    keys = gen(P_TEST, point, beta, rng, domain_bits=8)
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
    # not drift: deployed keys and the PRG budgets depend on them
    assert [_table_digest(dpf_gen, dpf_eval_all, s) for s in (1, 2, 3)] == [
        "3ef6b8fc45171a56", "29798a68e522af72", "afcac9190fc3c823"]
    assert [_table_digest(dcf_gen, dcf_eval_all, s) for s in (1, 2, 3)] == [
        "7a71f8e9e6cc17d6", "11a88480d8ccc871", "dbd3f1c0a718d12c"]
    assert [_point_digest(dpf_gen, dpf_eval, s) for s in (4, 5)] == [
        "b27543cc7ab13590", "599b42100d7c3184"]
    assert [_point_digest(dcf_gen, dcf_eval, s) for s in (4, 5)] == [
        "dd9197791ade5cff", "b7784ff4918321ec"]
