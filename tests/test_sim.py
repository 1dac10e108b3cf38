"""The library's own end-to-end run, `sim.Simulation`, in trusted-test mode.

These runs go through the whole protocol path (owner, dealer, both servers
and their enclaves) and let `Simulation._trusted_checks` verify F + B = Y for
every secret linear layer and c = a*B for every Beaver triple.  They check
no labels against `reference_infer`.
"""

import random

import pytest

from pairml import models
from pairml.hss import TripleGenSession
from pairml.params import ProtocolParams
from pairml.sim import RunConfig, Simulation, encode_inputs, run_inproc

PARAMS = ProtocolParams.testing()


def _run(model: str, seed: int):
    manifest = models.GENERATORS[model](PARAMS, random.Random(seed))
    rng = random.Random(seed + 1)
    inputs = encode_inputs(manifest, PARAMS,
                           [models.random_input(manifest, rng) for _ in range(2)])
    config = RunConfig(mode="single-tee", trusted_test=True, seed=seed)
    return run_inproc(PARAMS, manifest, inputs, config)


@pytest.mark.parametrize("model", ["mfnn", "ifnn", "mcnn"])
def test_trusted_run_verifies_every_triple(model):
    result = _run(model, 3)
    assert not result.errors
    assert len(result.labels) == 2
    for role in result.roles:
        assert len(role.sessions) == 2


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
