import random

import numpy as np
import pytest

from oracles import coeffs_to_slots, schoolbook_negacyclic
from pairml import mod64
from pairml.params import ProtocolParams, ParameterError, is_prime, ntt_prime
from pairml.ring import (
    DimensionError,
    ModulusError,
    RingPoly,
    ntt_context,
    slots_to_coeffs,
)
from pairml.fixedpoint import (
    FixedPointCodec,
    RangeError,
    exact_truncate,
    to_signed,
    truncate_share,
    truncate_share_vec,
)


@pytest.fixture(scope="module")
def tiny():
    # N=8 ring with a small prime, small enough for schoolbook oracles
    return ProtocolParams.generate(n_ring=8, p_bits=10, aux_bits=(40,),
                                   noise_margin=16, test_mode=True)


@pytest.fixture(scope="module")
def small():
    return ProtocolParams.testing()


def test_param_generation():
    pr = ProtocolParams.testing()
    assert is_prime(pr.p) and pr.p % (2 * pr.n_ring) == 1
    for qi in pr.q_primes:
        assert is_prime(qi) and qi % (2 * pr.n_ring) == 1
    assert pr.q % pr.p == 0
    assert pr.q // pr.p > (1 << pr.noise_margin)


def test_param_production_shape():
    # 52-bit plaintext prime over an 8192-dim ring
    p = ntt_prime(52, 2 * 8192)
    assert p.bit_length() == 52 and p % 16384 == 1


def test_param_rejects_bad_modulus():
    with pytest.raises(ParameterError):
        ProtocolParams(p=17, n_ring=8, q_primes=(17, 97))


def _slot_product(p, a, b) -> list[int]:
    """The negacyclic product of two coefficient vectors mod p, taken
    pointwise in slots."""
    ctx = ntt_context((p,), len(a))
    fa, fb = (ctx.ntt(np.array([x], dtype=np.uint64)) for x in (a, b))
    return [int(v) for v in ctx.intt(ctx.mul(fa, ctx.shoup(fb)))[0]]


def test_ntt_matches_schoolbook(tiny):
    rng = random.Random(7)
    p, n = tiny.p, tiny.n_ring
    for _ in range(50):
        a = [rng.randrange(p) for _ in range(n)]
        b = [rng.randrange(p) for _ in range(n)]
        assert _slot_product(p, a, b) == schoolbook_negacyclic(a, b, p)


def test_rq_mul_matches_schoolbook(tiny):
    rng = random.Random(8)
    n = tiny.n_ring
    for _ in range(30):
        a = RingPoly.random(tiny, rng)
        b = RingPoly.random(tiny, rng)
        got = (a * b).coeffs()
        for row_a, row_b, row, m in zip(a.coeffs(), b.coeffs(), got, tiny.q_primes):
            assert list(row) == schoolbook_negacyclic(row_a, row_b, m)
    assert got.shape == (len(tiny.q_primes), n)


def test_rq_mul_large_modulus_stress(small):
    # 60-bit primes at a realistic dimension: identity and a negacyclic shift
    rng = random.Random(9)
    n = small.n_ring
    a = RingPoly.random(small, rng)
    one = [0] * n
    one[0] = 1
    assert np.array_equal((a * RingPoly.from_coeffs(small, one)).data, a.data)
    # x^k rotation: multiply by x^(n/2), coefficients shift negacyclically
    c = [0] * n
    c[n // 2] = 1
    got = (a * RingPoly.from_coeffs(small, c)).coeffs()
    for row, arow, m in zip(got, a.coeffs(), small.q_primes):
        expect = [(-int(arow[(i - n // 2) % n])) % m if i < n // 2
                  else int(arow[i - n // 2]) for i in range(n)]
        assert list(row) == expect


def test_vec_poly_round_trip_exhaustive_small(tiny):
    p, n = tiny.p, tiny.n_ring
    for trial in range(200):
        rng = random.Random(trial)
        ln = rng.randrange(n + 1)
        v = [rng.randrange(p) for _ in range(ln)]
        back = coeffs_to_slots(tiny, slots_to_coeffs(tiny, v))
        assert list(back[:ln]) == v
        assert all(x == 0 for x in back[ln:])


def test_vec_poly_round_trip_large(small):
    rng = random.Random(11)
    v = [rng.randrange(small.p) for _ in range(small.n_ring)]
    assert list(coeffs_to_slots(small, slots_to_coeffs(small, v))) == v


def test_slot_homomorphism(tiny):
    rng = random.Random(12)
    p, n = tiny.p, tiny.n_ring
    u = [rng.randrange(p) for _ in range(n)]
    v = [rng.randrange(p) for _ in range(n)]
    cu, cv = slots_to_coeffs(tiny, u), slots_to_coeffs(tiny, v)
    prod = schoolbook_negacyclic(cu, cv, p)
    assert list(coeffs_to_slots(tiny, prod)) == [a * b % p for a, b in zip(u, v)]
    assert _slot_product(p, cu, cv) == prod


def test_vec_to_poly_zero_and_ones(small):
    n = small.n_ring
    assert not slots_to_coeffs(small, [0] * n).any()
    # every slot 1 is the constant poly 1
    assert list(slots_to_coeffs(small, [1] * n)) == [1] + [0] * (n - 1)


def test_vec_to_poly_dimension_error(small):
    with pytest.raises(DimensionError):
        slots_to_coeffs(small, [0] * (small.n_ring + 1))


def test_modulus_mismatch_raises(small):
    # a RingPoly is an element of R_q; an R_p plaintext is a plain vector
    assert not RingPoly.zero(small, tag="q").data.any()
    with pytest.raises(ModulusError):
        RingPoly.zero(small, tag="p")


def test_serialization_round_trip(small):
    rng = random.Random(4)
    poly = RingPoly.random(small, rng)
    buf = poly.serialize()
    assert len(buf) == RingPoly.wire_size(small)
    again = RingPoly.deserialize(small, buf)
    assert np.array_equal(again.data, poly.data)
    assert again.serialize() == buf


def test_ntt_big_prime():
    pr = ProtocolParams.generate(n_ring=8, p_bits=40, aux_bits=(60,),
                                 noise_margin=16, test_mode=True)
    rng = random.Random(5)
    a = [rng.randrange(pr.p) for _ in range(8)]
    b = [rng.randrange(pr.p) for _ in range(8)]
    assert _slot_product(pr.p, a, b) == schoolbook_negacyclic(a, b, pr.p)


# -- partial transforms -----------------------------------------------------------


def _stride_cases():
    """Every stride from 1 to N/2 at testing(); 2, 16 and N/2 at production()."""
    cases = []
    for params in (ProtocolParams.testing(), ProtocolParams.production()):
        n = params.n_ring
        strides = [1 << i for i in range(n.bit_length() - 1)] if n <= 256 else \
            [2, 16, n // 2]
        for tag, primes in (("p", (params.p,)), ("q", params.q_primes)):
            cases.append(pytest.param(primes, n, strides, id=f"N{n}-{tag}"))
    return cases


def _residue_rows(primes, n, rng):
    """Random residues, with 0 and m - 1 at the front of every row."""
    rows = [[0, m - 1] + [rng.randrange(m) for _ in range(n - 2)] for m in primes]
    return np.array(rows, dtype=np.uint64)


@pytest.mark.parametrize("primes, n, strides", _stride_cases())
def test_strided_intt_is_every_stride_th_coefficient(primes, n, strides):
    # narrow rows of block sums, batched as a bank's columns are
    ctx = ntt_context(primes, n)
    rng = random.Random(16)
    evals = np.stack([_residue_rows(primes, n, rng) for _ in range(2)])
    full = ctx.intt(evals)
    for b in strides:
        assert np.array_equal(ctx.intt(ctx.block_sums(evals, b)), full[..., ::b]), b


@pytest.mark.parametrize("primes, n, strides", _stride_cases())
def test_short_ntt_gives_block_sums_of_the_full_one(primes, n, strides):
    ctx = ntt_context(primes, n)
    f = _residue_rows(primes, n, random.Random(17))
    full = ctx.ntt(f).astype(object)
    mods = np.array(primes, dtype=object)[:, None]
    for b in strides:
        sums = full.reshape(len(primes), n // b, b).sum(axis=2) % mods
        assert np.array_equal(ctx.ntt(f[:, ::b]).astype(object) * b % mods, sums), b


def test_partial_transform_shapes_checked(small):
    ctx = ntt_context(small.q_primes, small.n_ring)
    rows = np.zeros((len(small.q_primes), small.n_ring), dtype=np.uint64)
    for stride in (0, 3, small.n_ring, 2 * small.n_ring):
        with pytest.raises(DimensionError):
            ctx.block_sums(rows, stride)
    for width in (12, 2 * small.n_ring):
        with pytest.raises(DimensionError):
            ctx.ntt(np.zeros((1, width), dtype=np.uint64))
    for width in (1, 12, 2 * small.n_ring):  # a width-1 row has no 1/N stage
        with pytest.raises(DimensionError):
            ctx.intt(np.zeros((len(small.q_primes), width), dtype=np.uint64))


# -- Shoup products ------------------------------------------------------------

BOTH = pytest.mark.parametrize("params", [ProtocolParams.testing(),
                                          ProtocolParams.production()],
                               ids=["testing", "production"])


def _ints(rows) -> list[list[int]]:
    return [[int(v) for v in row] for row in rows]


@BOTH
def test_shoup_quotient_is_the_big_int_floor(params):
    # floor(w 2^64 / m) from uint64 alone, at 0, 1, m - 1 and random w, every prime
    ctx = ntt_context(params.q_primes, params.n_ring)
    w = _residue_rows(params.q_primes, params.n_ring, random.Random(18))
    w[:, 2] = 1
    same, lo, hi = ctx.shoup(w)
    assert same is w
    got = _ints(lo | (hi << np.uint64(32)))
    assert got == [[(v << 64) // m for v in row] for row, m in zip(_ints(w), params.q_primes)]


@BOTH
def test_mul_is_the_big_int_product(params):
    ctx = ntt_context(params.q_primes, params.n_ring)
    rng = random.Random(19)
    a = _residue_rows(params.q_primes, params.n_ring, rng)
    b = _residue_rows(params.q_primes, params.n_ring, rng)[:, ::-1].copy()
    expect = [[x * y % m for x, y in zip(ra, rb)]
              for ra, rb, m in zip(_ints(a), _ints(b), params.q_primes)]
    assert _ints(ctx.mul(a, ctx.shoup(b))) == expect


@BOTH
def test_mul_of_the_largest_uint64_is_exact(params):
    # a Shoup product takes any uint64 first operand, not only residues
    ctx = ntt_context(params.q_primes, params.n_ring)
    w = _residue_rows(params.q_primes, params.n_ring, random.Random(20))
    x = np.full_like(w, 2**64 - 1)
    assert _ints(ctx.mul(x, ctx.shoup(w))) == \
        [[(2**64 - 1) * v % m for v in row] for row, m in zip(_ints(w), params.q_primes)]


@BOTH
def test_batched_transforms_equal_row_by_row(params):
    # a (bank, primes, width) stack transforms as its (primes, width) stacks do,
    # at full width and at the narrow widths a bank uses
    primes, n = params.q_primes, params.n_ring
    ctx = ntt_context(primes, n)
    rng = random.Random(21)
    for width in (n, n // 16, 2):
        f = np.stack([_residue_rows(primes, width, rng) for _ in range(3)])
        assert np.array_equal(ctx.ntt(f), np.stack([ctx.ntt(x) for x in f])), width
        assert np.array_equal(ctx.intt(f), np.stack([ctx.intt(x) for x in f])), width


# -- fixed point ---------------------------------------------------------------


def test_fp_encode_known_values(small):
    codec = FixedPointCodec(small, scale_bits=12)
    assert codec.encode(0.0) == 0
    assert codec.encode(-1.0) == small.p - (1 << 12)
    assert codec.encode(1.5) == 6144  # 1.5 * 2^12


def test_fp_round_trip_random(small):
    codec = FixedPointCodec(small)
    rng = random.Random(13)
    bound = codec.magnitude_bound / codec.scale / 2
    tol = 2.0 ** -codec.fbits
    for _ in range(100_000):
        x = rng.uniform(-bound, bound)
        assert abs(codec.decode(codec.encode(x)) - x) <= tol


def test_fp_range_error(small):
    codec = FixedPointCodec(small)
    with pytest.raises(RangeError):
        codec.encode(float(small.p))


def test_signed_mapping(small):
    p = small.p
    assert to_signed(0, p) == 0
    assert to_signed(p - 1, p) == -1
    assert to_signed((p - 1) // 2, p) == (p - 1) // 2


def test_truncation_small_p_simulation():
    # exhaustive over a small prime: reconstructed truncation within +-1 of
    # signed floor division, for every secret and every share split
    p = 257
    f = 4
    fails = 0
    total = 0
    for z in list(range(0, 40)) + list(range(p - 40, p)):
        expect = exact_truncate(z, f, p)
        for s0 in range(p):
            s1 = (z - s0) % p
            got = (truncate_share(s0, f, 0, p) + truncate_share(s1, f, 1, p)) % p
            diff = to_signed(got - expect, p)
            total += 1
            if abs(diff) > 1:
                fails += 1
    # failure probability bounded by ~2*magnitude/p per element
    assert fails / total < 2 * 40 / p


def test_truncation_named_cases():
    p = ProtocolParams.testing().p
    f = 8
    rng = random.Random(14)
    for z in (1 << f, 0, p - (1 << f)):  # +1, 0, -1 after truncation
        expect = exact_truncate(z, f, p)
        for _ in range(200):
            s0 = rng.randrange(p)
            s1 = (z - s0) % p
            got = (truncate_share(s0, f, 0, p) + truncate_share(s1, f, 1, p)) % p
            assert abs(to_signed(got - expect, p)) <= 1


@pytest.mark.parametrize("p", [ProtocolParams.testing().p, ProtocolParams.production().p],
                         ids=["testing", "production"])
def test_truncate_share_vec_is_truncate_share_of_each(p):
    rng = random.Random(p)
    shares = [0, 1, p // 2, p - 2, p - 1] + [rng.randrange(p) for _ in range(64)]
    for f in (0, 12, 16):
        for party in (0, 1):
            want = [truncate_share(s, f, party, p) for s in shares]
            for given in (shares, np.array(shares, dtype=np.uint64)):
                got = truncate_share_vec(given, f, party, p)
                assert got.dtype == np.uint64 and got.tolist() == want


@pytest.mark.parametrize("p", [ProtocolParams.testing().p, ProtocolParams.production().p,
                               (1 << 61) - 1], ids=["testing", "production", "61-bit"])
@pytest.mark.parametrize("n", [1, 17, 64, 784])
def test_vecmat_matches_python_ints(p, n):
    # exact at any row count: all-(p - 1) rows sum far past 2^64
    assert is_prime(p)
    rng = random.Random(n)
    for k, fill in ((3, None), (17, p - 1)):
        x = [fill if fill is not None else rng.randrange(p) for _ in range(n)]
        w = [[fill if fill is not None else rng.randrange(p) for _ in range(k)]
             for _ in range(n)]
        got = mod64.vecmat(np.array(x, dtype=np.uint64), np.array(w, dtype=np.uint64), p)
        assert got.dtype == np.uint64
        assert got.tolist() == [sum(x[i] * w[i][j] for i in range(n)) % p for j in range(k)]


def test_vecmat_rejects_a_vector_of_another_length():
    with pytest.raises(ValueError):
        mod64.vecmat(np.zeros(1, dtype=np.uint64), np.zeros((3, 2), dtype=np.uint64), 1009)


@pytest.mark.parametrize("params", [ProtocolParams.testing(),
                                    ProtocolParams.production()],
                         ids=["testing", "production"])
def test_round_to_p_matches_big_int_rounding_at_the_edges(params):
    # exact RNS scale-and-round against round(t p / q) on big ints, including
    # 0, q - 1 and both sides of several rounding boundaries k*delta + delta/2
    q, delta, n = params.q, params.delta, params.n_ring
    rng = random.Random(15)
    edges = [0, 1, q - 1, delta - 1, delta, q - delta // 2]
    for k in (0, 1, params.p // 2, params.p - 1):
        edges += [k * delta + delta // 2 + e for e in (-1, 0, 1)]
    vals = [(edges[i] if i < len(edges) else rng.randrange(q)) % q for i in range(n)]
    got = RingPoly.from_coeffs(params, vals).round_to_p()
    assert list(got) == [(v + delta // 2) // delta % params.p for v in vals]
