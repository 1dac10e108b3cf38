import socket
import threading

import pytest

from pairml.transport import (
    ALLOWED_WIDE_AREA_KINDS,
    Channel,
    CostModel,
    HEADER,
    KIND_CIPHERTEXT,
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
    connect_retry,
    cost_report,
    inproc_pair,
    listen_one,
    meters_snapshot,
    render_meters,
    socket_channel,
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
    out = {}

    def side_b():
        out["b"] = b.exchange(KIND_MASKED_REVEAL, PHASE_ONLINE, b"from-b")

    t = threading.Thread(target=side_b)
    t.start()
    fa = a.exchange(KIND_MASKED_REVEAL, PHASE_ONLINE, b"from-a")
    t.join()
    assert fa.payload == b"from-b"
    assert out["b"].payload == b"from-a"


def test_short_frame_rejected():
    raw = [b"PF\x01"]
    chan = Channel("short", WIDE_AREA, None, raw.pop)
    with pytest.raises(TransportError, match="short frame"):
        chan.recv()


def test_socket_transport_framing_matches_inproc():
    port = 28761
    got = {}

    def server():
        conn = listen_one("127.0.0.1", port)
        ch = socket_channel("srv", WIDE_AREA, conn)
        got["frame"] = ch.recv()
        ch.send(KIND_CIPHERTEXT, PHASE_PREPROCESS, b"reply")
        got["meter"] = ch.meter
        conn.close()

    t = threading.Thread(target=server)
    t.start()
    sock = connect_retry("127.0.0.1", port)
    ch = socket_channel("cli", WIDE_AREA, sock)
    ch.send(KIND_CIPHERTEXT, PHASE_PREPROCESS, b"hello-sock")
    f = ch.recv()
    t.join()
    sock.close()
    assert got["frame"].payload == b"hello-sock"
    assert f.payload == b"reply"
    # byte-identical framing across transports
    a, _ = inproc_pair("a", "b", WIDE_AREA)
    a.send(KIND_CIPHERTEXT, PHASE_PREPROCESS, b"hello-sock")
    assert a.meter.sent_bytes == got["meter"].recv_bytes


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


def test_transcript_recording():
    a, b = inproc_pair("a", "b", WIDE_AREA, record=True)
    a.send(KIND_MASKED_REVEAL, PHASE_ONLINE, b"abc")
    b.recv()
    assert a.log[0].payload == b"abc"
    assert b.log[0].payload == b"abc"


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
    assert "total_dollars=0.209000" in rep.render()


def test_cost_alternative_appendix_price():
    model = CostModel(wan_per_gb=0.5)
    snap = {"peer": {"class": WIDE_AREA, "sent_bytes": 10 ** 9, "sent_payload": 0,
                     "recv_bytes": 0, "recv_payload": 0, "msgs_sent": 0,
                     "msgs_recv": 0, "rounds": 0}}
    assert abs(cost_report(snap, model=model).total_dollars - 0.5) < 1e-12


def test_render_meters_stable_fields():
    a, b = inproc_pair("peer", "other", WIDE_AREA)
    a.send(KIND_MASKED_REVEAL, PHASE_ONLINE, b"xy")
    text = render_meters(meters_snapshot([a]))
    assert "meter channel=peer class=wide-area sent_bytes=18" in text
