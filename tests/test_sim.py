"""The library's own end-to-end run, `sim.Simulation`, in trusted-test mode.

These runs go through the whole protocol path (owner, dealer, both servers
and their enclaves) and let `Simulation._trusted_checks` verify F + B = Y for
every secret linear layer and c = a*B for every Beaver triple.  Only the
maxpool model's run checks its labels against `reference_infer`.  A party
that raises must stop the run with an error that names it.
"""

import itertools
import random
import re

import pytest

from pairml import models
from pairml.engine import ArgmaxLayer, MaxPoolVecLayer, ModelManifest, reference_infer
from pairml.fixedpoint import FixedPointCodec
from pairml.hss import TripleGenSession
from pairml.params import ProtocolParams
from pairml.sim import PartyError, RunConfig, Simulation, encode_inputs
from pairml.transport import (KIND_MASKED_REVEAL, KIND_SHARE_DELIVERY, PHASE_LOAD,
                              PHASE_ONLINE)

PARAMS = ProtocolParams.testing()


def _run(model: str, seed: int):
    manifest = models.GENERATORS[model](PARAMS, random.Random(seed))
    rng = random.Random(seed + 1)
    inputs = encode_inputs(manifest, PARAMS,
                           [models.random_input(manifest, rng) for _ in range(2)])
    config = RunConfig(mode="single-tee", trusted_test=True, seed=seed)
    return Simulation(PARAMS, manifest, config).run(inputs)


@pytest.mark.parametrize("model", ["mfnn", "ifnn", "mcnn"])
def test_trusted_run_verifies_every_triple(model):
    result = _run(model, 3)
    assert len(result.labels) == 2
    for role in result.roles:
        assert len(role.sessions) == 2


@pytest.mark.parametrize("model", ["mfnn", "ifnn", "mcnn"])
def test_online_reveals_match_the_closed_form_budget(model):
    result = _run(model, 3)
    for role in result.roles:
        # the peer log's online runs, one per session, split by preprocessing
        per_session = [
            sum(e.size for e in run
                if e.direction == "send" and e.kind == KIND_MASKED_REVEAL) // 8
            for phase, run in itertools.groupby(role.peer.log, lambda e: e.phase)
            if phase == PHASE_ONLINE]
        assert per_session == [role.online_budget_elements()] * 2


@pytest.mark.parametrize("mode", ["single-tee", "multi-tee"])
def test_a_maxpool_model_matches_the_reference(mode):
    # at seed 9 every pooled pair holds two distinct values and the logits
    # (66, 0, 57) pick one label; many seeds give all-zero logits, whose
    # multi-hot label a wrong max would not change
    rng = random.Random(9)
    codec = FixedPointCodec(PARAMS)
    manifest = ModelManifest("pool", PARAMS.fp_scale, 8, [
        models._dense(codec, rng, 8, 8, "relu"), MaxPoolVecLayer(2),
        models._dense(codec, rng, 4, 3, "relu"), ArgmaxLayer()])
    inputs = encode_inputs(manifest, PARAMS, [models.random_input(manifest, rng)])
    result = Simulation(PARAMS, manifest,
                        RunConfig(mode=mode, trusted_test=True, seed=9)).run(inputs)
    assert result.labels == [reference_infer(manifest, PARAMS, inputs[0])]
    for role in result.roles:
        sent = sum(e.size for e in role.peer.log if e.direction == "send"
                   and e.kind == KIND_MASKED_REVEAL and e.phase == PHASE_ONLINE)
        assert sent // 8 == role.online_budget_elements()


def _failed_run(model: str, patch) -> PartyError:
    """Run one inference with `patch(sim)` applied; the error it raised.  A
    deadlock raises at once (`sim.run_parties`), so the run cannot hang."""
    manifest = models.GENERATORS[model](PARAMS, random.Random(6))
    inputs = encode_inputs(manifest, PARAMS,
                           [models.random_input(manifest, random.Random(7))])
    sim = Simulation(PARAMS, manifest, RunConfig(seed=6))
    patch(sim)
    with pytest.raises(PartyError) as err:
        sim.run(inputs)
    return err.value


def _boom(*args):
    raise RuntimeError("injected")


def test_a_raising_server_stops_the_run(monkeypatch):
    err = _failed_run("mfnn", lambda sim: monkeypatch.setattr(
        sim.roles[1], "run_infer", _boom))
    assert (err.party, err.phase, err.layer) == ("server1", PHASE_ONLINE, None)
    assert str(err) == "server1 failed in online: RuntimeError('injected')"


def test_the_error_names_the_failing_layer(monkeypatch):
    # mfnn lowers to dense, relu, dense, relu, dense, relu, argmax
    err = _failed_run("mfnn", lambda sim: monkeypatch.setattr(
        sim.roles[0], "_run_gadget", _boom))
    assert (err.party, err.phase, err.layer) == ("server0", PHASE_ONLINE, 1)
    assert str(err).startswith("server0 failed in online at layer 1: ")


@pytest.mark.parametrize("nth, layer", [(0, 0), (1, 1)])
def test_a_peer_reveal_of_the_wrong_length_fails_the_run(monkeypatch, nth, layer):
    # server 1's nth online reveal carries one value too many: the e exchange
    # of mfnn's first dense layer, then the reveal of the relu after it
    def patch(sim):
        peer = sim.roles[1].peer
        send, reveals = peer.send, []

        def long_send(kind, phase, payload):
            if (kind, phase) == (KIND_MASKED_REVEAL, PHASE_ONLINE):
                if len(reveals) == nth:
                    payload += bytes(8)
                reveals.append(payload)
            send(kind, phase, payload)

        monkeypatch.setattr(peer, "send", long_send)

    err = _failed_run("mfnn", patch)
    assert (err.party, err.phase, err.layer) == ("server0", PHASE_ONLINE, layer)
    got, expected = map(int, re.search(
        r"the peer revealed (\d+) values, expected (\d+)", str(err)).groups())
    assert got == expected + 1


def test_an_output_share_of_the_wrong_length_fails_the_run(monkeypatch):
    # server 1 delivers one output share too many; the owner must not add
    # the two vectors by dropping the extra value
    def patch(sim):
        owner = sim.roles[1].owner
        send = owner.send

        def long_send(kind, phase, payload):
            if (kind, phase) == (KIND_SHARE_DELIVERY, PHASE_ONLINE):
                payload += bytes(8)
            send(kind, phase, payload)

        monkeypatch.setattr(owner, "send", long_send)

    err = _failed_run("mfnn", patch)
    assert (err.party, err.phase, err.layer) == ("owner", PHASE_ONLINE, None)
    assert "server 0 sent 10 output shares, server 1 sent 11" in str(err)


@pytest.mark.parametrize("sender, kind, phase, word, receiver, message", [
    ("peer", KIND_MASKED_REVEAL, PHASE_ONLINE, lambda buf: 0, "server0", "the peer's reveal"),
    ("peer", KIND_MASKED_REVEAL, PHASE_LOAD, lambda buf: 8, "server0",
     "the peer's F of job 0"),
    ("owner", KIND_SHARE_DELIVERY, PHASE_ONLINE, lambda buf: 0, "server0",
     "the owner's input shares"),
    ("owner", KIND_SHARE_DELIVERY, PHASE_LOAD, lambda buf: buf.index(b"WTS1") + 12,
     "server0", "the owner's weight shares of layer 0"),
    ("server", KIND_SHARE_DELIVERY, PHASE_ONLINE, lambda buf: 0, "owner",
     "server 1's output vector"),
], ids=["reveal", "F", "input", "weights", "output"])
def test_a_received_value_not_below_p_fails_the_run(monkeypatch, sender, kind, phase,
                                                    word, receiver, message):
    # the first value of the message the receiver gets is p: it rejects the
    # value rather than reduce it, naming the message
    def patch(sim):
        chan = {"peer": sim.roles[1].peer, "owner": sim.owner_chans[0],
                "server": sim.roles[1].owner}[sender]
        send = chan.send

        def bad_send(k, ph, payload):
            if (k, ph) == (kind, phase):
                at = word(payload)
                payload = payload[:at] + PARAMS.p.to_bytes(8, "little") + payload[at + 8:]
            send(k, ph, payload)

        monkeypatch.setattr(chan, "send", bad_send)

    err = _failed_run("mfnn", patch)
    assert (err.party, err.phase) == (receiver, phase)
    assert f"{message} holds a value not below p" in str(err)


def test_corrupted_beaver_share_fails_the_run(monkeypatch):
    feed = TripleGenSession.feed

    def corrupt_feed(self, blobs):
        feed(self, blobs)
        if self.party == 0:
            c = self.output[0].c
            c[0] = (int(c[0]) + 1) % self.params.p

    monkeypatch.setattr(TripleGenSession, "feed", corrupt_feed)
    with pytest.raises(RuntimeError, match="flagged triple"):
        _run("mfnn", 4)


def test_production_randomness_is_cryptographic():
    params = ProtocolParams.production()
    manifest = models.gen_mfnn(params, random.Random(5))
    sim = Simulation(params, manifest, RunConfig(seed=5))
    for rng in (*(role.rng for role in sim.roles), sim.dealer.rng, sim.owner_rng):
        assert type(rng) is random.SystemRandom
    test_sim = Simulation(PARAMS, models.gen_mfnn(PARAMS, random.Random(5)),
                          RunConfig(seed=5))
    for rng in (*(role.rng for role in test_sim.roles), test_sim.dealer.rng,
                test_sim.owner_rng):
        assert type(rng) is random.Random
