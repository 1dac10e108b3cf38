"""Beaver triple generation from homomorphic secret sharing.

The servers hold additive shares of a random vector a and matrix B and want
shares of c = a*B without revealing either.  Each server encrypts its share
of a (packed into ring slots), the ciphertexts are exchanged and summed, and
the HSS Mult instruction applied per packed column turns the ciphertext of a
plus dealer-supplied shares of (B[i], B[i]*s) into additive shares of the
slot-wise products, whose segment sums are the c entries.

The dealer here is an ideal stand-in for the garbled-circuit steps of the
original setup/model-loading flow: stateless, takes both parties' inputs,
returns fresh random sharings.

Every R_q value is a `RingPoly`, held and sent as NTT residues (see
`ring`); a packed vector is a plain mod-p vector until `encrypt`.  Per
column the dealer transforms 3 rows, y's p row back and its other rows
forward, and draws the random shares as NTT residues.  A server stores a
received column with no transform, and a triple run sums its own and the
peer's ciphertexts with none.

A triple run reads only the sums of its jobs' slot ranges.  Every range
bound is a multiple of the plan's `sum_stride` b, so each sum is one of
whole aligned b-slot blocks, and a block's sum is b times one value of the
short forward NTT of the coefficients at multiples of b (see `ring`).

Mult runs on a bank: all the columns multiplied by one summed ciphertext
(c0, c1).  It prepares the Shoup constants of c0 and c1 once.  Per column it
makes two pointwise products, c0*sh(y) + c1*sh(y*s), and sums the result's
aligned b-slot blocks; then one stacked inverse NTT at width N/b turns every
column's block sums into its coefficients at multiples of b, and the exact
RNS scale-and-round of `ring.scale_round` rounds them.  The triple run
transforms the whole bank forward at width N/b in one p-row NTT.  These are
the same shares as rounding the CRT-combined big integers of the whole ring
and transforming them, computed without either.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import mod64
from .lpr import LprCiphertext, LprKeys, encrypt, keygen
from .params import ProtocolParams
from .ring import (DimensionError, RingPoly, draw_below, ntt_context, residues,
                   scale_round, slots_to_coeffs)


class PackingError(ValueError):
    pass


class TripleStateError(RuntimeError):
    pass


# -- packing ------------------------------------------------------------------------


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class PackJob:
    job_id: int
    n: int
    m: int
    poly: int  # which a-poly / ciphertext bank
    seg: int   # segment index within the poly


@dataclass(frozen=True)
class PackPlan:
    """Slot layout packing several (n, m) triple jobs into shared polynomials.

    Segment length is uniform (the largest padded n), so segments never
    overlap and ciphertext count is the slot-demand ceiling.
    """

    n_ring: int
    seg_len: int
    k: int  # segments per poly
    jobs: tuple[PackJob, ...]

    @property
    def n_polys(self) -> int:
        return max(j.poly for j in self.jobs) + 1

    def slot_range(self, job: PackJob) -> tuple[int, int]:
        start = job.seg * self.seg_len
        return start, start + job.n

    def bank_columns(self, poly: int) -> int:
        return max((j.m for j in self.jobs if j.poly == poly), default=0)

    @property
    def sum_stride(self) -> int:
        """The largest power of two, at most N/2, dividing every slot range
        bound: each job's slots are whole aligned blocks of this many."""
        return min([self.n_ring // 2] + [v & -v for job in self.jobs
                                         for v in self.slot_range(job) if v])


def plan_packing(params: ProtocolParams, jobs: list[tuple[int, int]]) -> PackPlan:
    """Greedy first-fit assignment of jobs to poly segments."""
    n_ring = params.n_ring
    if not jobs:
        raise PackingError("no jobs to pack")
    for n, m in jobs:
        if n < 1 or m < 1:
            raise PackingError(f"bad job dims ({n}, {m})")
        if n > n_ring:
            raise PackingError(
                f"job width {n} exceeds ring dimension {n_ring}; "
                "split oversized products upstream")
    seg_len = max(_next_pow2(n) for n, _ in jobs)
    k = n_ring // seg_len
    packed = []
    for jid, (n, m) in enumerate(jobs):
        packed.append(PackJob(job_id=jid, n=n, m=m, poly=jid // k, seg=jid % k))
    return PackPlan(n_ring=n_ring, seg_len=seg_len, k=k, jobs=tuple(packed))


# -- ideal dealer -------------------------------------------------------------------


@dataclass(frozen=True)
class DealerSetup:
    """Per-party output of the key-setup functionality."""

    pk: tuple[RingPoly, RingPoly]
    s_share: RingPoly  # additive share of s over R_q


class ConvertedColumn(NamedTuple):
    """Per-party output of the column conversion: shares of (y, y*s) over R_q,
    where y is the slot-placed polynomial encoding of one matrix column.  A
    server stores the shares it receives as they are: Mult consumes their
    NTT residues."""

    y_share: RingPoly
    ys_share: RingPoly


def dealer_setup(params: ProtocolParams, rng) -> tuple[LprKeys, DealerSetup, DealerSetup]:
    """Ideal key dealer: one keygen, fresh additive split of s.

    Returns the full keys only so trusted-test harnesses can measure noise;
    the protocol parties receive just their DealerSetup.
    """
    keys = keygen(params, rng)
    sh0 = RingPoly.random(params, rng)
    sh1 = keys.s - sh0
    return keys, DealerSetup(keys.pk, sh0), DealerSetup(keys.pk, sh1)


def dealer_convert_column(params: ProtocolParams, s0: RingPoly, s1: RingPoly,
                          col0: np.ndarray, col1: np.ndarray, rng
                          ) -> tuple[ConvertedColumn, ConvertedColumn]:
    """Ideal conversion: slot-placed column shares -> R_q shares of (y, y*s).

    col0/col1 are length-N slot vectors (already positioned per the pack
    plan).  The functionality is stateless: the secret is reconstructed from
    the callers' key shares for the duration of the call only.
    """
    s = s0 + s1
    p, aux = params.p, params.q_primes[1:]
    slots = (np.asarray(col0, dtype=np.int64) + np.asarray(col1, dtype=np.int64)) % p
    coeffs = slots_to_coeffs(params, slots).astype(np.int64)
    # y's NTT row mod p = q_primes[0] is the slot vector: lift the centered
    # coefficients to the other primes and transform those rows only
    centered = np.where(coeffs > p // 2, coeffs - p, coeffs)
    y = RingPoly(params, np.vstack([slots.astype(np.uint64), ntt_context(
        aux, params.n_ring).ntt(residues(centered, aux))]))
    ys = y * s
    y_sh0 = RingPoly.random(params, rng)
    ys_sh0 = RingPoly.random(params, rng)
    return ConvertedColumn(y_sh0, ys_sh0), ConvertedColumn(y - y_sh0, ys - ys_sh0)


# -- the Mult instruction -------------------------------------------------------------


def hss_mult(params: ProtocolParams, y_share: np.ndarray, ys_share: np.ndarray,
             ct: LprCiphertext, stride: int = 1) -> np.ndarray:
    """Additive mod-p shares of x*y for a bank of columns, from ct(x) and
    this party's shares of each column's (y, y*s).

    y_share and ys_share are (..., primes, N) stacks of NTT residues of
    q_primes, one (primes, N) stack per column: a share `RingPoly` passes
    its `.data`, a bank of one.  t = c0*sh(y) + c1*sh(y*s) over R_q;
    rounding each coefficient by p/q turns the parties' t into additive
    shares of the ring product x*y mod p, up to the configured failure
    probability.  Only the N/stride coefficients at multiples of `stride`
    are computed: (..., N/stride).
    """
    column = (len(params.q_primes), params.n_ring)
    if y_share.shape != ys_share.shape or y_share.shape[-2:] != column:
        raise DimensionError(f"share stacks {y_share.shape} and {ys_share.shape} "
                             f"are not banks of {column} columns")
    ctx = ntt_context(params.q_primes, params.n_ring)
    c0, c1 = ctx.shoup(ct.c0.data), ctx.shoup(ct.c1.data)
    bank = y_share.shape[:-2]
    sums = np.empty(y_share.shape[:-1] + (params.n_ring // stride,), dtype=np.uint64)
    for col in np.ndindex(bank):  # a column's temporaries stay in cache
        t = ctx.add(ctx.mul(y_share[col], c0), ctx.mul(ys_share[col], c1))
        sums[col] = ctx.block_sums(t, stride)
    return scale_round(params.q_primes, ctx.intt(sums)).astype(np.int64)


# -- triple generation protocol --------------------------------------------------------


@dataclass
class BeaverShare:
    """One server's share of (a, B, c = a*B) for one job; a and c are uint64."""

    job_id: int
    a: np.ndarray  # (n,) mod-p
    b_mat: np.ndarray  # (n, m) mod-p
    c: np.ndarray  # (m,) mod-p
    consumed: bool = False

    def consume(self):
        if self.consumed:
            raise TripleStateError("Beaver triple consumed twice")
        self.consumed = True


class TripleGenSession:
    """Party-side state machine for one generate_triples run.

    start() returns serialized ciphertexts of this party's packed a-shares
    (the only wide-area payload); feed() takes the peer's ciphertexts and
    completes the run locally via Mult.  Each runs once, in that order, so
    a run's triples are handed out once.
    """

    def __init__(self, params: ProtocolParams, plan: PackPlan, party: int,
                 setup: DealerSetup,
                 b_shares: dict[int, np.ndarray],
                 converted: dict[tuple[int, int], ConvertedColumn],
                 rng):
        self.params = params
        self.plan = plan
        self.party = party
        self.setup = setup
        self.b_shares = b_shares
        self.converted = converted
        self.rng = rng
        self.a_shares: dict[int, np.ndarray] = {}
        self.my_cts: list[LprCiphertext] = []
        self.output: list[BeaverShare] | None = None
        self._started = False

    def start(self) -> list[bytes]:
        if self._started:
            raise TripleStateError("triple session already started")
        self._started = True
        params, plan = self.params, self.plan
        slot_vecs = np.zeros((plan.n_polys, params.n_ring), dtype=np.uint64)
        for job in plan.jobs:
            lo, hi = plan.slot_range(job)
            slot_vecs[job.poly, lo:hi] = self.a_shares[job.job_id] = draw_below(
                self.rng, params.p, job.n)
        self.my_cts = [encrypt(params, self.setup.pk, slots_to_coeffs(params, vec), self.rng)
                       for vec in slot_vecs]
        return [ct.serialize() for ct in self.my_cts]

    def feed(self, peer_ct_blobs: list[bytes]) -> None:
        if not self._started:
            raise TripleStateError("triple session fed before start")
        if self.output is not None:
            raise TripleStateError("triple session already fed")
        params, plan = self.params, self.plan
        p = params.p
        if len(peer_ct_blobs) != plan.n_polys:
            raise TripleStateError("ciphertext count mismatch")
        cts = [mine + LprCiphertext.deserialize(params, blob)
               for mine, blob in zip(self.my_cts, peer_ct_blobs)]
        c_shares = {}
        b = plan.sum_stride
        p_ctx = ntt_context((p,), params.n_ring)
        q_ctx = ntt_context(params.q_primes, params.n_ring)
        shape = (len(params.q_primes), params.n_ring)
        for poly_idx in range(plan.n_polys):
            bank_jobs = [j for j in plan.jobs if j.poly == poly_idx]
            cols = plan.bank_columns(poly_idx)
            y, ys = (np.empty((cols, *shape), dtype=np.uint64) for _ in range(2))
            for t in range(cols):
                convs = [self.converted[(job.job_id, t)] for job in bank_jobs if t < job.m]
                y[t] = functools.reduce(q_ctx.add, (c.y_share.data for c in convs))
                ys[t] = functools.reduce(q_ctx.add, (c.ys_share.data for c in convs))
            prod = hss_mult(params, y, ys, cts[poly_idx], b)
            blocks = p_ctx.ntt(prod[:, None])[:, 0]  # block sums over b
            for job in bank_jobs:  # b times the sum of the job's blocks
                lo, hi = plan.slot_range(job)
                c_shares[job.job_id] = mod64.vecmat(np.full((hi - lo) // b, b),
                                                    blocks[:job.m, lo // b:hi // b].T, p)
        self.output = [
            BeaverShare(job_id=job.job_id, a=self.a_shares[job.job_id],
                        b_mat=self.b_shares[job.job_id],
                        c=c_shares[job.job_id])
            for job in plan.jobs
        ]
        return None
