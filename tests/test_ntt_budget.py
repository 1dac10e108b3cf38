"""Row-transform budget of the R_q paths, with NTT as the wire form.

Every `NttContext.ntt` / `intt` call is counted as (direction, primes of the
context) -> rows transformed, or points (rows times output width) where a
step transforms rows narrower than N, or calls where a test bounds how often
a step transforms.  A poly crosses the wire as `serialize` and `deserialize`
leave it, so each count below includes the (de)serialization around the
step.  Row counts do not depend on N; the
testing parameters keep the run short.
"""

import random
from collections import Counter

import numpy as np
import pytest

from pairml import ring
from pairml.hss import (
    ConvertedColumn,
    DealerSetup,
    TripleGenSession,
    dealer_convert_column,
    dealer_setup,
    plan_packing,
)
from pairml.lpr import encrypt
from pairml.params import ProtocolParams
from pairml.ring import RingPoly, slots_to_coeffs

PARAMS = ProtocolParams.testing()
P = (PARAMS.p,)
Q = PARAMS.q_primes
AUX = Q[1:]


def _counter(monkeypatch, size) -> Counter:
    """Counts size(output) per (direction, primes) of every transform."""
    counts = Counter()
    for name in ("ntt", "intt"):
        def counted(self, f, *stride, _name=name, _orig=getattr(ring.NttContext, name)):
            out = _orig(self, f, *stride)
            counts[_name, self.primes] += size(out)
            return out
        monkeypatch.setattr(ring.NttContext, name, counted)
    return counts


@pytest.fixture
def rows(monkeypatch) -> Counter:
    return _counter(monkeypatch, len)


@pytest.fixture
def points(monkeypatch) -> Counter:
    return _counter(monkeypatch, np.size)


def _wire(poly: RingPoly) -> RingPoly:
    return RingPoly.deserialize(PARAMS, poly.serialize())


def _column(rng, n=8):
    return np.array([rng.randrange(PARAMS.p) for _ in range(n)] +
                    [0] * (PARAMS.n_ring - n), dtype=np.int64)


def test_setup_is_three_forward_transforms(rows):
    _, d0, d1 = dealer_setup(PARAMS, random.Random(1))
    for d in (d0, d1):
        for poly in (*d.pk, d.s_share):
            poly.serialize()
    # a, s and e once each; pk and both s shares leave in NTT form
    assert rows == {("ntt", Q): 3 * len(Q)}


def test_dealer_conversion_transforms_one_p_row_and_the_aux_rows(rows):
    rng = random.Random(2)
    _, d0, d1 = dealer_setup(PARAMS, rng)
    s0, s1 = _wire(d0.s_share), _wire(d1.s_share)  # as the servers send them back
    rows.clear()
    for share in dealer_convert_column(PARAMS, s0, s1, _column(rng), _column(rng), rng):
        share.y_share.serialize()
        share.ys_share.serialize()
    assert rows == {("intt", P): 1, ("ntt", AUX): len(AUX)}


def test_received_column_is_stored_with_no_transform(rows):
    rng = random.Random(3)
    _, d0, d1 = dealer_setup(PARAMS, rng)
    shares = dealer_convert_column(PARAMS, d0.s_share, d1.s_share, _column(rng),
                                   _column(rng), rng)
    blobs = [(sh.y_share.serialize(), sh.ys_share.serialize()) for sh in shares]
    rows.clear()
    for y, ys in blobs:
        ConvertedColumn(RingPoly.deserialize(PARAMS, y), RingPoly.deserialize(PARAMS, ys))
    assert rows == {}


def test_encrypt_is_three_forward_transforms(rows):
    rng = random.Random(4)
    _, d0, _ = dealer_setup(PARAMS, rng)
    pk = tuple(_wire(poly) for poly in d0.pk)
    m = slots_to_coeffs(PARAMS, [rng.randrange(PARAMS.p) for _ in range(5)])
    rows.clear()
    encrypt(PARAMS, pk, m, rng).serialize()
    # u, e0 + delta*m and e1; the ciphertext leaves in NTT form
    assert rows == {("ntt", Q): 3 * len(Q)}


def _triple_sessions(rng, plan) -> list[TripleGenSession]:
    """Both servers' sessions for `plan`, with their setup and columns as received."""
    _, *setups = dealer_setup(PARAMS, rng)
    b_shares = ({}, {})
    converted = ({}, {})
    for job in plan.jobs:
        for b in (0, 1):
            b_shares[b][job.job_id] = np.array(
                [[rng.randrange(PARAMS.p) for _ in range(job.m)] for _ in range(job.n)],
                dtype=object)
        for t in range(job.m):
            shares = dealer_convert_column(PARAMS, *(d.s_share for d in setups),
                                           _column(rng, job.n), _column(rng, job.n), rng)
            for b, sh in enumerate(shares):
                converted[b][job.job_id, t] = ConvertedColumn(_wire(sh.y_share),
                                                              _wire(sh.ys_share))
    return [TripleGenSession(PARAMS, plan, b,
                             DealerSetup(tuple(_wire(x) for x in d.pk), _wire(d.s_share)),
                             b_shares[b], converted[b], random.Random(6 + b))
            for b, d in enumerate(setups)]


def test_triple_feed_does_no_forward_q_transform(points):
    plan = plan_packing(PARAMS, [(8, 3), (16, 2)])
    sessions = _triple_sessions(random.Random(5), plan)
    blobs = [s.start() for s in sessions]
    points.clear()
    sessions[0].feed(blobs[1])
    # every slot bound is a multiple of 8, so each Mult: one stacked inverse
    # of t to its coefficients at multiples of 8 for rounding, one p-row
    # forward of those into block sums, both at width N/8 = 32; the
    # ciphertext sum and the products need none
    assert plan.sum_stride == 8
    width = PARAMS.n_ring // 8
    mults = sum(plan.bank_columns(i) for i in range(plan.n_polys))
    assert points == {("intt", Q): len(Q) * width * mults, ("ntt", P): width * mults}


def test_triple_feed_transforms_each_bank_once(monkeypatch):
    # two polys of 3 and 2 columns: one inverse on Q and one p-row forward
    # per poly, each over all of its columns, not one per column
    calls = _counter(monkeypatch, lambda out: 1)
    plan = plan_packing(PARAMS, [(128, 3), (128, 2), (64, 2)])
    sessions = _triple_sessions(random.Random(7), plan)
    blobs = [s.start() for s in sessions]
    calls.clear()
    sessions[0].feed(blobs[1])
    assert [plan.bank_columns(i) for i in range(plan.n_polys)] == [3, 2]
    assert calls == {("intt", Q): plan.n_polys, ("ntt", P): plan.n_polys}
