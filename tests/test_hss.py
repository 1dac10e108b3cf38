import functools
import operator
import random

import numpy as np
import pytest

from oracles import coeffs_to_slots, measure_noise, mult_noise_bound
from pairml.lpr import (
    LprCiphertext,
    cbd_coeffs,
    decrypt,
    encrypt,
    keygen,
    NOISE_ETA,
)
from pairml.hss import (
    BeaverShare,
    PackingError,
    TripleGenSession,
    TripleStateError,
    dealer_convert_column,
    dealer_setup,
    hss_mult,
    plan_packing,
)
from pairml.params import ProtocolParams
from pairml.ring import DimensionError, RingPoly, draw_below, slots_to_coeffs


@pytest.fixture(scope="module")
def pr():
    return ProtocolParams.testing()  # N=256, ~30-bit p, q = p * two 60-bit primes


def _plaintext(params, rng) -> np.ndarray:
    """Uniform mod-p coefficients."""
    return draw_below(rng, params.p, params.n_ring)


def _sessions(params, dims, seed, b_override=None):
    """Both parties' triple sessions for `dims`, before start()."""
    rng_d = random.Random(seed)
    rng0 = random.Random(seed + 1)
    rng1 = random.Random(seed + 2)
    p = params.p
    keys, d0, d1 = dealer_setup(params, rng_d)
    plan = plan_packing(params, dims)
    b0s, b1s, conv0, conv1 = {}, {}, {}, {}
    for job in plan.jobs:
        if b_override is not None:
            b_true = b_override[job.job_id]
            b0 = np.array([[rng0.randrange(p) for _ in range(job.m)]
                           for _ in range(job.n)], dtype=object)
            b1 = (np.array(b_true, dtype=object) - b0) % p
        else:
            b0 = np.array([[rng0.randrange(p) for _ in range(job.m)]
                           for _ in range(job.n)], dtype=object)
            b1 = np.array([[rng1.randrange(p) for _ in range(job.m)]
                           for _ in range(job.n)], dtype=object)
        b0s[job.job_id], b1s[job.job_id] = b0, b1
        lo, hi = plan.slot_range(job)
        for t in range(job.m):
            s0 = np.zeros(params.n_ring, dtype=np.int64)
            s1 = np.zeros(params.n_ring, dtype=np.int64)
            s0[lo:hi] = b0[:, t].astype(np.int64)
            s1[lo:hi] = b1[:, t].astype(np.int64)
            c0, c1 = dealer_convert_column(params, d0.s_share, d1.s_share,
                                           s0, s1, rng_d)
            conv0[(job.job_id, t)] = c0
            conv1[(job.job_id, t)] = c1
    sess0 = TripleGenSession(params, plan, 0, d0, b0s, conv0, rng0)
    sess1 = TripleGenSession(params, plan, 1, d1, b1s, conv1, rng1)
    return plan, sess0, sess1, (b0s, b1s)


def _run_triples(params, dims, seed, b_override=None):
    """Full two-party triple run in one process; returns reconstruction data."""
    plan, sess0, sess1, b_shares = _sessions(params, dims, seed, b_override)
    blobs0, blobs1 = sess0.start(), sess1.start()
    sess0.feed(blobs1)
    sess1.feed(blobs0)
    return plan, sess0.output, sess1.output, b_shares


def _check_triple(p, t0: BeaverShare, t1: BeaverShare, b0, b1):
    a = (t0.a.astype(object) + t1.a.astype(object)) % p
    B = (b0 + b1) % p
    c = (t0.c.astype(object) + t1.c.astype(object)) % p
    expect = (a @ B) % p
    return list(c) == list(expect)


# -- LPR ------------------------------------------------------------------------


def test_keygen_secret_ternary(pr):
    rng = random.Random(1)
    keys = keygen(pr, rng)
    q0 = pr.q_primes[0]
    for v in keys.s.coeffs()[0]:
        assert int(v) in (0, 1, q0 - 1)


def test_encrypt_decrypt_round_trip(pr):
    rng = random.Random(2)
    keys = keygen(pr, rng)
    m = _plaintext(pr, rng)
    ct = encrypt(pr, keys.pk, m, rng)
    assert np.array_equal(decrypt(pr, keys.s, ct), m)


@pytest.mark.parametrize("bad", ["p", "negative", "short", "long"])
def test_encrypt_rejects_a_plaintext_not_mod_p(pr, bad):
    rng = random.Random(2)
    keys = keygen(pr, rng)
    m = _plaintext(pr, rng).astype(np.int64)
    if bad in ("p", "negative"):
        m[5] = pr.p if bad == "p" else -1
    else:
        m = m[:-1] if bad == "short" else np.append(m, 0)
    with pytest.raises(ValueError, match="coefficients mod p"):
        encrypt(pr, keys.pk, m, rng)


def test_fresh_noise_under_bound(pr):
    rng = random.Random(3)
    keys = keygen(pr, rng)
    m = _plaintext(pr, rng)
    ct = encrypt(pr, keys.pk, m, rng)
    assert measure_noise(pr, keys.s, ct, m) <= ct.noise_bound


def test_homomorphic_add(pr):
    rng = random.Random(4)
    keys = keygen(pr, rng)
    z = np.zeros(pr.n_ring, dtype=np.uint64)
    csum = encrypt(pr, keys.pk, z, rng) + encrypt(pr, keys.pk, z, rng)
    assert not decrypt(pr, keys.s, csum).any()
    ma, mb = _plaintext(pr, rng), _plaintext(pr, rng)
    ca, cb = encrypt(pr, keys.pk, ma, rng), encrypt(pr, keys.pk, mb, rng)
    csum = ca + cb
    m_sum = (ma + mb) % np.uint64(pr.p)
    assert np.array_equal(decrypt(pr, keys.s, csum), m_sum)
    assert measure_noise(pr, keys.s, csum, m_sum) <= ca.noise_bound + cb.noise_bound


def test_cbd_range(pr):
    rng = random.Random(5)
    e = cbd_coeffs(pr, rng)
    assert e.shape == (pr.n_ring,) and np.abs(e).max() <= NOISE_ETA


def test_ciphertext_serialization(pr):
    rng = random.Random(6)
    keys = keygen(pr, rng)
    ct = encrypt(pr, keys.pk, _plaintext(pr, rng), rng)
    buf = ct.serialize()
    again = LprCiphertext.deserialize(pr, buf)
    assert again.serialize() == buf
    assert np.array_equal(decrypt(pr, keys.s, again), decrypt(pr, keys.s, ct))
    other = ProtocolParams.testing(n_ring=512)
    with pytest.raises(ValueError):
        LprCiphertext.deserialize(other, buf)


# -- dealer ---------------------------------------------------------------------


def test_dealer_setup_share_identity(pr):
    rng = random.Random(7)
    keys, d0, d1 = dealer_setup(pr, rng)
    assert np.array_equal((d0.s_share + d1.s_share).data, keys.s.data)
    m = _plaintext(pr, rng)
    assert np.array_equal(decrypt(pr, keys.s, encrypt(pr, d0.pk, m, rng)), m)


def test_dealer_convert_column_zero(pr):
    rng = random.Random(8)
    keys, d0, d1 = dealer_setup(pr, rng)
    z = np.zeros(pr.n_ring, dtype=np.int64)
    c0, c1 = dealer_convert_column(pr, d0.s_share, d1.s_share, z, z, rng)
    assert not (c0.ys_share + c1.ys_share).data.any()
    assert not (c0.y_share + c1.y_share).data.any()


def test_dealer_convert_column_matches_direct(pr):
    rng = random.Random(9)
    keys, d0, d1 = dealer_setup(pr, rng)
    col = np.array([rng.randrange(pr.p) for _ in range(pr.n_ring)], dtype=np.int64)
    sh0 = np.array([rng.randrange(pr.p) for _ in range(pr.n_ring)], dtype=np.int64)
    sh1 = (col - sh0) % pr.p
    c0, c1 = dealer_convert_column(pr, d0.s_share, d1.s_share, sh0, sh1, rng)
    y = slots_to_coeffs(pr, col).astype(np.int64)
    y = RingPoly.from_coeffs(pr, np.where(y > pr.p // 2, y - pr.p, y))  # centered lift
    direct = (y * keys.s).data
    assert np.array_equal((c0.ys_share + c1.ys_share).data, direct)
    # rerandomization: same input, different shares, same sum
    c0b, c1b = dealer_convert_column(pr, d0.s_share, d1.s_share, sh0, sh1, rng)
    assert not np.array_equal(c0b.ys_share.data, c0.ys_share.data)
    assert np.array_equal((c0b.ys_share + c1b.ys_share).data, direct)


# -- Mult -----------------------------------------------------------------------


def test_hss_mult_zero_plaintext(pr):
    rng = random.Random(10)
    keys, d0, d1 = dealer_setup(pr, rng)
    ct = encrypt(pr, keys.pk, np.zeros(pr.n_ring, dtype=np.uint64), rng)
    col = np.array([rng.randrange(pr.p) for _ in range(pr.n_ring)], dtype=np.int64)
    sh0 = np.array([rng.randrange(pr.p) for _ in range(pr.n_ring)], dtype=np.int64)
    sh1 = (col - sh0) % pr.p
    c0, c1 = dealer_convert_column(pr, d0.s_share, d1.s_share, sh0, sh1, rng)
    o0 = hss_mult(pr, c0.y_share.data, c0.ys_share.data, ct)
    o1 = hss_mult(pr, c1.y_share.data, c1.ys_share.data, ct)
    got = (o0.astype(object) + o1.astype(object)) % pr.p
    assert not any(got)


def test_hss_mult_random_product(pr):
    rng = random.Random(11)
    keys, d0, d1 = dealer_setup(pr, rng)
    x = [rng.randrange(pr.p) for _ in range(pr.n_ring)]
    y = [rng.randrange(pr.p) for _ in range(pr.n_ring)]
    ct = encrypt(pr, keys.pk, slots_to_coeffs(pr, x), rng)
    sh0 = np.array([rng.randrange(pr.p) for _ in range(pr.n_ring)], dtype=np.int64)
    sh1 = (np.array(y, dtype=np.int64) - sh0) % pr.p
    c0, c1 = dealer_convert_column(pr, d0.s_share, d1.s_share, sh0, sh1, rng)
    o0 = hss_mult(pr, c0.y_share.data, c0.ys_share.data, ct)
    o1 = hss_mult(pr, c1.y_share.data, c1.ys_share.data, ct)
    got = coeffs_to_slots(pr, o0.astype(object) + o1.astype(object))
    assert list(got) == [a * b % pr.p for a, b in zip(x, y)]
    assert mult_noise_bound(pr, ct) * 4 < pr.delta


def test_hss_mult_checks_share_shapes(pr):
    # y and ys must be banks of the same (primes, N) columns
    rng = random.Random(12)
    keys, d0, d1 = dealer_setup(pr, rng)
    ct = encrypt(pr, keys.pk, slots_to_coeffs(pr, [1]), rng)
    col = RingPoly.random(pr, rng).data
    bank = np.stack([col, col])
    for y, ys in ((bank, col), (col, bank), (col[:, ::2], col[:, ::2]),
                  (col[1:], col[1:]), (col[0], col[0])):
        with pytest.raises(DimensionError):
            hss_mult(pr, y, ys, ct)
    assert hss_mult(pr, bank, bank, ct).shape == (2, pr.n_ring)


# -- packing ------------------------------------------------------------------------


def test_plan_two_jobs_one_poly(pr):
    plan = plan_packing(pr, [(128, 4), (128, 4)])
    assert plan.seg_len == 128 and plan.k == 2
    assert plan.n_polys == 1
    assert plan.jobs[0].seg != plan.jobs[1].seg


def test_plan_full_width_identity(pr):
    plan = plan_packing(pr, [(pr.n_ring, 2)])
    assert plan.k == 1 and plan.seg_len == pr.n_ring
    assert plan.n_polys == 1


def test_plan_ceiling_formula(pr):
    jobs = [(32, 3)] * 10  # 10 segments of 32 -> ceil(320/256) = 2 polys
    plan = plan_packing(pr, jobs)
    demand = sum(32 for _ in jobs)
    assert plan.n_polys == -(-demand // pr.n_ring)


def test_plan_oversized_rejected(pr):
    with pytest.raises(PackingError):
        plan_packing(pr, [(pr.n_ring + 1, 1)])


# -- end-to-end triples ----------------------------------------------------------------


def test_triples_identity_matrix(pr):
    n = 8
    eye = np.eye(n, dtype=object)
    plan, out0, out1, (b0s, b1s) = _run_triples(pr, [(n, n)], 100,
                                                b_override={0: eye})
    a = (out0[0].a.astype(object) + out1[0].a.astype(object)) % pr.p
    c = (out0[0].c.astype(object) + out1[0].c.astype(object)) % pr.p
    assert list(c) == list(a)


def test_triples_random_8x8(pr):
    for seed in range(200, 206):
        plan, out0, out1, (b0s, b1s) = _run_triples(pr, [(8, 8)], seed)
        assert _check_triple(pr.p, out0[0], out1[0], b0s[0], b1s[0])


def test_triples_packed_pair(pr):
    plan, out0, out1, (b0s, b1s) = _run_triples(pr, [(8, 8), (8, 8)], 300)
    assert plan.n_polys == 1  # both triples share one ciphertext
    for j in range(2):
        assert _check_triple(pr.p, out0[j], out1[j], b0s[j], b1s[j])


def test_triples_rectangular(pr):
    plan, out0, out1, (b0s, b1s) = _run_triples(pr, [(16, 5)], 400)
    assert _check_triple(pr.p, out0[0], out1[0], b0s[0], b1s[0])


def _reference_c(params, sess, peer_blobs):
    """A session's c shares as a Mult over the whole ring gives them: every
    coefficient rounded, every slot transformed, each job's slots summed."""
    plan = sess.plan
    c = {job.job_id: [] for job in plan.jobs}
    for poly in range(plan.n_polys):
        ct = sess.my_cts[poly] + LprCiphertext.deserialize(params, peer_blobs[poly])
        for t in range(plan.bank_columns(poly)):
            users = [j for j in plan.jobs if j.poly == poly and t < j.m]
            convs = [sess.converted[j.job_id, t] for j in users]
            y = functools.reduce(operator.add, (cv.y_share for cv in convs))
            ys = functools.reduce(operator.add, (cv.ys_share for cv in convs))
            prod = hss_mult(params, y.data, ys.data, ct)
            slots = coeffs_to_slots(params, prod)
            for j in users:
                lo, hi = plan.slot_range(j)
                c[j.job_id].append(int(np.sum(slots[lo:hi].astype(object))) % params.p)
    return c


N_TEST = ProtocolParams.testing().n_ring


@pytest.mark.parametrize("dims, stride", [
    ([(32, 16), (16, 8)], 16),
    ([(64, 3), (12, 2), (16, 2)], 4),  # the 12-wide job ends at slot 76
    ([(10, 3), (5, 2)], 1),
    ([(N_TEST, 2)], N_TEST // 2),  # a whole-ring job: capped at N/2
], ids=["b16", "b4", "b1", "cap"])
def test_session_c_shares_match_full_ring_reference(pr, dims, stride):
    plan, sess0, sess1, (b0s, b1s) = _sessions(pr, dims, 600)
    assert plan.sum_stride == stride
    blobs = sess0.start(), sess1.start()
    for sess, peer in ((sess0, blobs[1]), (sess1, blobs[0])):
        sess.feed(peer)
        assert {t.job_id: list(t.c) for t in sess.output} == _reference_c(pr, sess, peer)
    for t0, t1 in zip(sess0.output, sess1.output):
        assert _check_triple(pr.p, t0, t1, b0s[t0.job_id], b1s[t0.job_id])


def test_packed_vs_unpacked_ciphertext_economy(pr):
    # k jobs of width N/k share one ciphertext; unpacked they need one each
    k = 4
    n = pr.n_ring // k
    packed = plan_packing(pr, [(n, 2)] * k)
    assert packed.n_polys == 1
    unpacked = [plan_packing(pr, [(n, 2)]) for _ in range(k)]
    assert sum(pl.n_polys for pl in unpacked) == k


def test_session_double_start_raises(pr):
    rng = random.Random(12)
    keys, d0, d1 = dealer_setup(pr, rng)
    plan = plan_packing(pr, [(8, 1)])
    b = {0: np.zeros((8, 1), dtype=object)}
    conv = {}
    s0 = np.zeros(pr.n_ring, dtype=np.int64)
    c0, c1 = dealer_convert_column(pr, d0.s_share, d1.s_share, s0, s0, rng)
    conv[(0, 0)] = c0
    sess = TripleGenSession(pr, plan, 0, d0, b, conv, rng)
    sess.start()
    with pytest.raises(TripleStateError):
        sess.start()


def test_session_feed_before_start_raises(pr):
    _, sess0, sess1, _ = _sessions(pr, [(8, 2)], 13)
    with pytest.raises(TripleStateError):
        sess0.feed(sess1.start())
    assert sess0.output is None


def test_session_second_feed_raises(pr):
    # a second feed must not hand out the consumed triples again as new ones
    _, sess0, sess1, _ = _sessions(pr, [(8, 2)], 14)
    blobs0, blobs1 = sess0.start(), sess1.start()
    sess0.feed(blobs1)
    first = sess0.output
    first[0].consume()
    with pytest.raises(TripleStateError):
        sess0.feed(blobs1)
    assert sess0.output is first and first[0].consumed


def test_beaver_share_consume_once(pr):
    sh = BeaverShare(0, np.zeros(1, dtype=np.int64),
                     np.zeros((1, 1), dtype=object), np.zeros(1, dtype=np.int64))
    sh.consume()
    with pytest.raises(TripleStateError):
        sh.consume()


def test_rounding_failure_rate_sample(pr):
    # ~8 * 256 = 2048 coefficients; at the configured margin none may fail
    fails = total = 0
    for seed in range(500, 508):
        plan, out0, out1, (b0s, b1s) = _run_triples(pr, [(16, 16)], seed)
        p = pr.p
        a = (out0[0].a.astype(object) + out1[0].a.astype(object)) % p
        B = (b0s[0] + b1s[0]) % p
        c = (out0[0].c.astype(object) + out1[0].c.astype(object)) % p
        expect = (a @ B) % p
        total += len(c)
        fails += sum(int(x != y) for x, y in zip(c, expect))
    assert fails == 0
