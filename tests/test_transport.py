import random

import pytest

from pairml.params import ProtocolParams
from pairml.tee import SeedBundle, build_tee_triple
from pairml.transport import (
    ALLOWED_WIDE_AREA_KINDS,
    Channel,
    CostModel,
    ENCLAVE,
    HEADER,
    KIND_DEALER,
    KIND_HELLO,
    KIND_MASKED_REVEAL,
    KIND_B3PC,
    LOCAL,
    PHASE_ONLINE,
    PHASE_PREPROCESS,
    PHASE_SETUP,
    TransportError,
    WIDE_AREA,
    cost_report,
    inproc_pair,
    sweep_wide_area,
)


def test_empty_payload_is_header_only():
    a, b = inproc_pair("a", "b", WIDE_AREA)
    a.send(KIND_HELLO, PHASE_SETUP, b"")
    f = b.recv()
    assert f.payload == b""
    assert a.meter.sent_bytes == HEADER.size
    assert b.meter.recv_bytes == HEADER.size


def test_meter_arithmetic():
    a, b = inproc_pair("a", "b", WIDE_AREA)
    n, k = 7, 33
    for _ in range(n):
        a.send(KIND_MASKED_REVEAL, PHASE_ONLINE, bytes(k))
    for _ in range(n):
        b.recv()
    assert a.meter.sent_bytes == n * (k + HEADER.size)
    assert a.meter.sent_payload == n * k
    assert b.meter.recv_bytes == n * (k + HEADER.size)


def test_conservation():
    a, b = inproc_pair("a", "b", WIDE_AREA)
    for i in range(5):
        a.send(KIND_MASKED_REVEAL, PHASE_ONLINE, bytes(i * 11))
        b.recv()
        b.send(KIND_MASKED_REVEAL, PHASE_ONLINE, bytes(i * 3))
        a.recv()
    assert a.meter.sent_bytes == b.meter.recv_bytes
    assert b.meter.sent_bytes == a.meter.recv_bytes


def test_round_counting():
    a, b = inproc_pair("a", "b", WIDE_AREA)
    for _ in range(3):
        a.send(KIND_MASKED_REVEAL, PHASE_ONLINE, b"x")
        b.send(KIND_MASKED_REVEAL, PHASE_ONLINE, b"y")
        a.recv()
        b.recv()
    assert a.meter.rounds == 3
    assert b.meter.rounds == 3


def test_exchange_helper():
    a, b = inproc_pair("a", "b", WIDE_AREA)
    side_a = a.exchange(KIND_MASKED_REVEAL, PHASE_ONLINE, b"from-a")
    assert next(side_a) is a  # sent, and waits for b's frame
    assert not a.ready() and b.ready()
    side_b = b.exchange(KIND_MASKED_REVEAL, PHASE_ONLINE, b"from-b")
    with pytest.raises(StopIteration) as got_b:  # a's frame was already queued
        next(side_b)
    assert got_b.value.value.payload == b"from-a"
    with pytest.raises(StopIteration) as got_a:
        next(side_a)
    assert got_a.value.value.payload == b"from-b"


def test_short_frame_rejected():
    raw = [b"PF\x01"]
    chan = Channel("short", WIDE_AREA, None, raw.pop)
    with pytest.raises(TransportError, match="short frame"):
        chan.recv()


def test_sweep_flags_undeclared_kinds():
    a, b = inproc_pair("wan-a", "wan-b", WIDE_AREA)
    a.send(KIND_MASKED_REVEAL, PHASE_ONLINE, b"ok")
    a.send(KIND_B3PC, PHASE_ONLINE, b"leak?")
    a.send(KIND_DEALER, PHASE_PREPROCESS, b"late dealer")
    bad = sweep_wide_area([a])
    assert len(bad) == 2
    assert KIND_B3PC not in ALLOWED_WIDE_AREA_KINDS


def test_sweep_clean_channel():
    a, b = inproc_pair("wan-a", "wan-b", WIDE_AREA)
    a.send(KIND_HELLO, PHASE_SETUP, b"")
    a.send(KIND_DEALER, PHASE_SETUP, b"keys")
    a.send(KIND_MASKED_REVEAL, PHASE_ONLINE, b"w")
    assert sweep_wide_area([a]) == []
    local, _ = inproc_pair("l-a", "l-b", LOCAL)
    local.send(KIND_B3PC, PHASE_PREPROCESS, b"anything local is fine")
    assert sweep_wide_area([a, local]) == []


def test_only_wide_area_channels_keep_logs():
    # multi-TEE keygen sends many enclave and local messages; none is logged
    tee, chans = build_tee_triple(0, ProtocolParams.testing(),
                                  SeedBundle.from_rng(random.Random(3)))
    for _ in range(3):
        tee.gadget_material("relu")
    assert {ch.chan_class for ch in chans} == {ENCLAVE, LOCAL}
    assert all(ch.meter.msgs_sent for ch in chans if ch.chan_class == ENCLAVE)
    assert all(ch.log == [] for ch in chans)
    wan, _ = inproc_pair("wan-a", "wan-b", WIDE_AREA)
    wan.send(KIND_B3PC, PHASE_PREPROCESS, b"enclave traffic on the wide area")
    assert sweep_wide_area([wan, *chans]) == [
        f"wan-a: kind {KIND_B3PC} not declared for wide-area"]


def test_a_recv_with_nothing_queued_raises():
    a, b = inproc_pair("a", "b", WIDE_AREA)
    a.send(KIND_HELLO, PHASE_SETUP, b"")
    with pytest.raises(TransportError, match="^a: nothing to receive$"):
        a.recv()  # a's own frame waits at b, not at a
    b.recv()
    with pytest.raises(TransportError, match="^b: nothing to receive$"):
        b.recv()
    assert b.meter.recv_bytes == HEADER.size


# -- cost model ------------------------------------------------------------------


def test_cost_zero():
    rep = cost_report({})
    assert rep.total_dollars == 0.0


def test_cost_one_gb_outbound():
    snap = {"peer": {"class": WIDE_AREA, "sent_bytes": 10 ** 9, "sent_payload": 0,
                     "recv_bytes": 0, "recv_payload": 0, "msgs_sent": 0,
                     "msgs_recv": 0, "rounds": 0}}
    rep = cost_report(snap)
    assert abs(rep.total_dollars - 0.05) < 1e-12


def test_cost_mixed_hand_arithmetic():
    snap = {
        "peer": {"class": WIDE_AREA, "sent_bytes": 2 * 10 ** 9, "sent_payload": 0,
                 "recv_bytes": 0, "recv_payload": 0, "msgs_sent": 0,
                 "msgs_recv": 0, "rounds": 0},
        "tee": {"class": LOCAL, "sent_bytes": 5 * 10 ** 9, "sent_payload": 0,
                "recv_bytes": 0, "recv_payload": 0, "msgs_sent": 0,
                "msgs_recv": 0, "rounds": 0},
    }
    rep = cost_report(snap, cpu_hours={"general-aws": 2.0, "sgx": 1.0})
    # 2 GB * 0.05 + 2 * 0.015 + 1 * 0.079 = 0.1 + 0.030 + 0.079
    assert abs(rep.total_dollars - 0.209) < 1e-9


def test_cost_alternative_appendix_price():
    model = CostModel(wan_per_gb=0.5)
    snap = {"peer": {"class": WIDE_AREA, "sent_bytes": 10 ** 9, "sent_payload": 0,
                     "recv_bytes": 0, "recv_payload": 0, "msgs_sent": 0,
                     "msgs_recv": 0, "rounds": 0}}
    assert abs(cost_report(snap, model=model).total_dollars - 0.5) < 1e-12

