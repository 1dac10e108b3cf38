"""The fitted sigmoid and tanh tables against the uniform-knot tables they
replaced: fewer segments, no more error, no wider error bounds, and fewer
points on each wire's walk."""

import dataclasses
import math
import random
import sys
from pathlib import Path

import pytest

from oracles import reset_call_counter, run_pair, uniform_table
from pairml import models
from pairml.engine import lower_manifest
from pairml.gadgets import material_pair, sigmoid_table, tanh_table
from pairml.params import ProtocolParams

ROOT = str(Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.lockstep import error_bounds  # noqa: E402

PARAMS = ProtocolParams.testing()
P_BIG = 2148204587  # the smallest prime above 2^31 + 11 * 2^16
TABLES = {"sigmoid": (sigmoid_table, lambda x: 1 / (1 + math.exp(-x))),
          "tanh": (tanh_table, math.tanh)}


def _max_error(table, fn) -> float:
    """Largest |table - fn| over every integer input in [-8, 8]."""
    s = 1 << table.in_scale
    return max(abs((a * z + c) / (s * s) - fn(z / s))
               for lo, hi, a, c in table.segments
               for z in range(max(lo, -8 * s), min(hi, 8 * s) + 1))


@pytest.mark.parametrize("scale", [8, 10, 12])
@pytest.mark.parametrize("kind", ["sigmoid", "tanh"])
def test_fitted_tables_err_no_more_than_the_uniform_ones(kind, scale):
    build, fn = TABLES[kind]
    fitted, uniform = build(scale, P_BIG), uniform_table(kind, scale, P_BIG)
    assert len(fitted.segments) <= 16 < len(uniform.segments)
    assert _max_error(fitted, fn) <= _max_error(uniform, fn)


@pytest.mark.parametrize("scale", [8, 10, 12])
def test_knots_are_symmetric_and_tanh_0_is_0(scale):
    for build, _ in TABLES.values():
        table = build(scale, P_BIG)
        knots = [lo for lo, _, _, _ in table.segments[1:]]
        assert knots == [-k for k in reversed(knots)]
    assert tanh_table(scale, P_BIG).reference(0, P_BIG) == 0


@pytest.mark.parametrize("params", [PARAMS, ProtocolParams.production()],
                         ids=["testing", "production"])
def test_ifnn_error_bounds_do_not_rise(params):
    # a knot's jump between its two lines widens the bounds as a slope does
    p = params.p
    for seed in range(1, 11):
        manifest = models.GENERATORS["ifnn"](params, random.Random(f"{seed}/model"))
        lowered = lower_manifest(manifest, params)
        lowered_uniform = [dataclasses.replace(step, table=uniform_table(
                               step.kind, step.table.in_scale, p))
                           if getattr(step, "table", None) else step
                           for step in lowered]
        fitted = error_bounds(lowered, p, manifest.fp_scale)
        uniform = error_bounds(lowered_uniform, p, manifest.fp_scale)
        assert all(f <= u for f, u in zip(fitted, uniform)), (seed, fitted, uniform)


def test_a_tanh_wire_walks_at_most_200_prg_calls():
    # about 316 a walk with the uniform table's 34 points
    p = PARAMS.p
    rng = random.Random(24)
    table = tanh_table(PARAMS.fp_scale, p)
    wires, calls = 24, 0
    for _ in range(wires):
        m0, m1 = material_pair("tanh", p, rng, table=table)
        z = rng.randrange(-(1 << 11), 1 << 11) % p
        sh0 = rng.randrange(p)
        reset_call_counter()
        run_pair(m0, m1, [sh0], [(z - sh0) % p], p)
        calls += reset_call_counter()
    assert calls / (2 * wires) <= 200  # two walks a wire, one per party
