import math
import random
from dataclasses import replace

import pytest

from oracles import run_pair
from pairml.fixedpoint import to_signed
from pairml import prg
from pairml.gadgets import (
    ArgmaxMaterial,
    GadgetParameterError,
    GadgetReuseError,
    Max2Material,
    MaxPoolMaterial,
    WireMaterial,
    deserialize_material,
    make_session,
    material_pair,
    plain_argmax,
    plain_max,
    plain_max2,
    plain_relu,
    serialize_material,
    sigmoid_table,
    tanh_table,
    _half,
    _interval_shares,
)


def _share(rng, p, v):
    s0 = rng.randrange(p)
    return s0, (v - s0) % p


def _run(mat0, mat1, vals, p, rng):
    sh0, sh1 = [], []
    for v in vals:
        a, b = _share(rng, p, v)
        sh0.append(a)
        sh1.append(b)
    log = []  # one entry per round: the values it revealed
    s0, s1 = run_pair(mat0, mat1, sh0, sh1, p, reveal_log=log)
    return [(a + b) % p for a, b in zip(s0.output, s1.output)], log


P10 = 1009  # ~10-bit signed test field
P6 = 61     # 6-bit signed test field


def _find_prime(start: int) -> int:
    from pairml.params import is_prime
    p = start | 1
    while not is_prime(p):
        p += 2
    return p


P_BIG = _find_prime((1 << 31) + (11 << 16))  # roomy field for scale-2s splines


# -- ReLU -----------------------------------------------------------------------


def test_relu_named_cases():
    rng = random.Random(1)
    p = P10
    for z, expect in [((-2) % p, 0), (7, 7), (0, 0), ((p - 1) // 2, (p - 1) // 2)]:
        m0, m1 = material_pair("relu", p, rng)
        got, _ = _run(m0, m1, [z], p, rng)
        assert got[0] == expect


def test_relu_exhaustive_10bit_many_masks():
    p = P10
    for mask_trial in range(3):
        rng = random.Random(100 + mask_trial)
        m0, m1 = material_pair("relu", p, rng)
        for z in range(p):
            sh0 = rng.randrange(p)
            s0, s1 = run_pair(*_fresh(m0, m1), [sh0], [(z - sh0) % p], p)
            got = (s0.output[0] + s1.output[0]) % p
            assert got == plain_relu(z, p), (mask_trial, z)


def _fresh(m0, m1):
    # reset consumption for exhaustive reuse of one key pair (test only:
    # production material is one-shot, but the oracle sweeps inputs)
    m0.consumed = m1.consumed = False
    return m0, m1


def test_relu_round_count():
    rng = random.Random(2)
    m0, m1 = material_pair("relu", P10, rng)
    _, log = _run(m0, m1, [5], P10, rng)
    assert len(log) == 1


def test_relu_material_reuse_raises():
    rng = random.Random(3)
    m0, m1 = material_pair("relu", P10, rng)
    _run(m0, m1, [5], P10, rng)
    with pytest.raises(GadgetReuseError):
        make_session(m0, [1])


# -- sigmoid / tanh -------------------------------------------------------------


@pytest.mark.parametrize("kind", ["sigmoid", "tanh"])
def test_spline_dense_grid_error(kind):
    p = P_BIG  # field large enough to hold scale-2s spline outputs
    scale = 10
    rng = random.Random(4)
    table = sigmoid_table(scale, p) if kind == "sigmoid" else tanh_table(scale, p)
    fn = (lambda x: 1 / (1 + math.exp(-x))) if kind == "sigmoid" else math.tanh
    m0, m1 = material_pair(kind, p, rng, table=table)
    worst = 0.0
    for i in range(-200, 201):  # grid over [-8, 8]; the acceptance run is denser
        x = i / 25
        z = round(x * (1 << scale)) % p
        sh0 = rng.randrange(p)
        s0, s1 = run_pair(*_fresh(m0, m1), [sh0], [(z - sh0) % p], p)
        out = (s0.output[0] + s1.output[0]) % p
        got = to_signed(out, p) / (1 << (2 * scale))
        worst = max(worst, abs(got - fn(x)))
    assert worst <= 0.02, worst


def test_spline_matches_reference_exactly():
    # gadget output equals the integer spline reference bit-for-bit
    p = P_BIG
    scale = 8
    rng = random.Random(5)
    table = tanh_table(scale, p)
    m0, m1 = material_pair("tanh", p, rng, table=table)
    for trial in range(200):
        z = rng.randrange(-(1 << (scale + 4)), 1 << (scale + 4)) % p
        sh0 = rng.randrange(p)
        s0, s1 = run_pair(*_fresh(m0, m1), [sh0], [(z - sh0) % p], p)
        out = (s0.output[0] + s1.output[0]) % p
        assert out == table.reference(z, p)


def _per_point_output(mat, w):
    """A session's output share with each knot point walked on its own."""
    p = mat.p
    if mat.kind == "relu":
        s_ind, s_ind_r = _interval_shares(mat, w, 0, _half(p), {})
        return (w * s_ind - s_ind_r) % p
    acc = 0
    for lo, hi, a, c in mat.table.segments:
        s_ind, s_ind_r = _interval_shares(mat, w, lo, hi, {})
        acc += a * ((w * s_ind - s_ind_r) % p) + c * s_ind
    return acc % p


@pytest.mark.parametrize("kind", ["relu", "tanh"])
def test_one_walk_sessions_match_the_per_point_path(kind):
    p = P_BIG
    rng = random.Random(9)
    table = tanh_table(8, p) if kind == "tanh" else None
    walked = per_point = 0
    for _ in range(4):
        m0, m1 = material_pair(kind, p, rng, table=table)  # a fresh mask each
        z = rng.randrange(-(1 << 12), 1 << 12) % p
        sh0 = rng.randrange(p)
        before = prg.calls
        s0, s1 = run_pair(m0, m1, [sh0], [(z - sh0) % p], p)
        walked += prg.calls - before
        w = (z + m0.mask_share + m1.mask_share) % p
        before = prg.calls
        assert s0.output == [_per_point_output(m0, w)]
        assert s1.output == [_per_point_output(m1, w)]
        per_point += prg.calls - before
    assert walked < per_point  # knot points share their high tree levels


@pytest.mark.parametrize("scale", [0, 1, 2, 3])
def test_spline_tables_at_coarse_scales_build_or_name_the_scale(scale):
    # below scale 2 two knots round to one input: the builder says so,
    # naming the scale, and a table it does build covers every input
    for build in (sigmoid_table, tanh_table):
        try:
            table = build(scale, 1000003)
        except GadgetParameterError as e:
            assert scale < 2 and f"in_scale {scale}" in str(e)
            continue
        lows = [lo for lo, _, _, _ in table.segments]
        assert lows == sorted(set(lows))
        assert all(lo <= hi for lo, hi, _, _ in table.segments)
        for z in range(-(8 << scale), (8 << scale) + 1):
            table.reference(z % 1000003, 1000003)


def test_sigmoid_symmetry_point():
    p = P_BIG
    scale = 10
    rng = random.Random(6)
    m0, m1 = material_pair("sigmoid", p, rng, table=sigmoid_table(scale, p))
    got, _ = _run(m0, m1, [0], p, rng)
    val = to_signed(got[0], p) / (1 << (2 * scale))
    assert abs(val - 0.5) <= 2.0 ** -scale
    m0, m1 = material_pair("tanh", p, rng, table=tanh_table(scale, p))
    got, _ = _run(m0, m1, [0], p, rng)
    assert to_signed(got[0], p) == 0


# -- max over two ------------------------------------------------------------------


def test_max2_paper_case_p7():
    # x=5, y=3, p=7: x encodes -2, so the max is 3
    p = 7
    rng = random.Random(7)
    m0, m1 = material_pair("max2", p, rng)
    got, log = _run(m0, m1, [5, 3], p, rng)
    assert got[0] == 3
    assert len(log) == 2


def test_max2_tie():
    rng = random.Random(8)
    m0, m1 = material_pair("max2", P10, rng)
    got, _ = _run(m0, m1, [42, 42], P10, rng)
    assert got[0] == 42


def test_max2_exhaustive_6bit():
    p = P6
    for trial in range(2):
        rng = random.Random(200 + trial)
        m0, m1 = material_pair("max2", p, rng)
        for x in range(p):
            for y in range(p):
                _reset_max2(m0)
                _reset_max2(m1)
                sh0x = rng.randrange(p)
                sh0y = rng.randrange(p)
                s0, s1 = run_pair(m0, m1, [sh0x, sh0y],
                                  [(x - sh0x) % p, (y - sh0y) % p], p)
                got = (s0.output[0] + s1.output[0]) % p
                assert got == plain_max2(x, y, p), (trial, x, y)


def _reset_max2(m):
    m.consumed = False
    for sub in (m.relu_xy, m.relu_x, m.relu_y):
        sub.consumed = False


def _reset_pool(pool):
    for n in pool.nodes:
        _reset_max2(n)


def test_max2_mixed_signs():
    p = P10
    rng = random.Random(9)
    cases = [(5, p - 3), (p - 5, 3), (p - 5, p - 3), (5, 3), (0, p - 1), (p - 1, 0)]
    for x, y in cases:
        m0, m1 = material_pair("max2", p, rng)
        got, _ = _run(m0, m1, [x, y], p, rng)
        assert got[0] == plain_max2(x, y, p), (x, y)


# -- maxpool -------------------------------------------------------------------------


def test_maxpool_k1_identity():
    rng = random.Random(10)
    m0, m1 = material_pair("maxpool", P10, rng, k=1)
    got, log = _run(m0, m1, [123], P10, rng)
    assert got[0] == 123
    assert len(log) == 0


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
def test_maxpool_random_sets(k):
    p = P6
    rng = random.Random(300 + k)
    m0, m1 = material_pair("maxpool", p, rng, k=k)
    for trial in range(60):
        _reset_pool(m0)
        _reset_pool(m1)
        vals = [rng.randrange(p) for _ in range(k)]
        sh0 = [rng.randrange(p) for _ in range(k)]
        sh1 = [(v - s) % p for v, s in zip(vals, sh0)]
        log = []
        s0, s1 = run_pair(m0, m1, sh0, sh1, p, reveal_log=log)
        got = (s0.output[0] + s1.output[0]) % p
        assert got == plain_max(vals, p), (k, vals)
        assert len(log) == 2 * math.ceil(math.log2(k))


def test_maxpool_rejects_k0():
    rng = random.Random(11)
    with pytest.raises(GadgetParameterError):
        material_pair("maxpool", P10, rng, k=0)


# -- argmax --------------------------------------------------------------------------


def test_argmax_named_case():
    p = P10
    rng = random.Random(12)
    m0, m1 = material_pair("argmax", p, rng, k=3)
    got, log = _run(m0, m1, [2, 9, 4], p, rng)
    assert got == [0, 2, 0]
    assert len(log) == 2 * math.ceil(math.log2(3)) + 1


def test_argmax_k1():
    rng = random.Random(13)
    m0, m1 = material_pair("argmax", P10, rng, k=1)
    got, _ = _run(m0, m1, [77], P10, rng)
    assert got == [1]


def test_argmax_all_equal_multi_hot():
    p = P10
    rng = random.Random(14)
    m0, m1 = material_pair("argmax", p, rng, k=4)
    got, _ = _run(m0, m1, [5, 5, 5, 5], p, rng)
    assert got == [1, 2, 3, 4]  # every position reports its own index


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_argmax_random_sets(k):
    p = P6
    rng = random.Random(400 + k)
    m0, m1 = material_pair("argmax", p, rng, k=k)
    for trial in range(40):
        _reset_argmax(m0)
        _reset_argmax(m1)
        vals = [rng.randrange(p) for _ in range(k)]
        sh0 = [rng.randrange(p) for _ in range(k)]
        sh1 = [(v - s) % p for v, s in zip(vals, sh0)]
        s0, s1 = run_pair(m0, m1, sh0, sh1, p)
        got = [(a + b) % p for a, b in zip(s0.output, s1.output)]
        assert got == plain_argmax(vals, p), (k, vals)


def _reset_argmax(m):
    m.consumed = False
    _reset_pool(m.pool)


# -- structure ----------------------------------------------------------------------


def test_reveals_are_masked():
    # the values crossing the wire for a fixed input differ per mask draw
    p = P10
    seen = set()
    for trial in range(30):
        rng = random.Random(500 + trial)
        m0, m1 = material_pair("relu", p, rng)
        log = []
        run_pair(m0, m1, [3], [4], p, reveal_log=log)
        seen.add(log[0][0])
    assert len(seen) > 25


def test_material_serialization_round_trip():
    p = P10
    rng = random.Random(15)
    mats = [
        material_pair("relu", p, rng)[0],
        material_pair("sigmoid", P_BIG, rng, table=sigmoid_table(8, P_BIG))[0],
        material_pair("max2", p, rng)[1],
        material_pair("maxpool", p, rng, k=3)[0],
        material_pair("argmax", p, rng, k=4)[1],
    ]
    for mat in mats:
        buf = serialize_material(mat)
        again = deserialize_material(buf)
        assert serialize_material(again) == buf
        assert type(again) is type(mat)


def test_serialized_material_still_evaluates():
    p = P10
    rng = random.Random(16)
    m0, m1 = material_pair("max2", p, rng)
    m0b = deserialize_material(serialize_material(m0))
    got, _ = _run(m0b, m1, [9, p - 2], p, rng)
    assert got[0] == plain_max2(9, p - 2, p)


def test_material_holding_a_key_of_the_other_party_rejected():
    # a party-0 material that holds a party-1 comparison key used to decode
    m0, m1 = material_pair("relu", P10, random.Random(17))
    m0.cmp_key = m1.cmp_key
    with pytest.raises(ValueError, match="key of party 1 .* material of party 0"):
        deserialize_material(serialize_material(m0))


def test_material_header_party_above_one_rejected():
    # the header's party (byte 1) is 0 or 1 for every kind: a maxpool
    # material with k = 1, which holds no key to check it against, used to
    # decode with party 7
    rng = random.Random(20)
    for mat in (material_pair("maxpool", P10, rng, k=1)[0],
                material_pair("relu", P10, rng)[1]):
        buf = serialize_material(mat)
        with pytest.raises(ValueError, match="material of party 7"):
            deserialize_material(buf[:1] + b"\7" + buf[2:])


def test_material_over_another_p_than_its_keys_rejected():
    # the header's p (bytes 2-9) must be its keys' p: a material whose
    # header p differs from them used to decode
    buf = serialize_material(material_pair("max2", P10, random.Random(18))[1])
    bad = buf[:2] + (P10 + 2).to_bytes(8, "little") + buf[10:]
    with pytest.raises(ValueError, match=f"over p {P10} in a material of party 1 "
                                         f"over p {P10 + 2}"):
        deserialize_material(bad)


def test_material_share_not_below_p_rejected():
    # every mask, r3-r6 and rho share is an element of Z_p: a share of p used
    # to decode
    rng = random.Random(19)
    wire = material_pair("relu", P10, rng)[0]
    max2 = material_pair("max2", P10, rng)[1]
    argmax = material_pair("argmax", P10, rng, k=3)[0]
    bad = [replace(wire, mask_share=P10)]
    bad += [replace(max2, **{f"r{i}_share": P10}) for i in (3, 4, 5, 6)]
    bad += [replace(argmax, rho_shares=[*argmax.rho_shares[:i], P10,
                                         *argmax.rho_shares[i + 1:]]) for i in range(3)]
    for mat in bad:
        with pytest.raises(ValueError, match=f"share {P10} not below p"):
            deserialize_material(serialize_material(mat))
