"""Desk-scale sample model generators with random weights.

The three shapes mirror the common small benchmark architectures: a
three-dense-layer ReLU net, a two-dense-layer Tanh net, and a small CNN with
one 5x5 convolution, 2x2 average pooling, and two dense ReLU layers.  All
end in an argmax head so the protocol output is a label vector.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import (
    ArgmaxLayer,
    AvgPoolLayer,
    ConvLayer,
    DenseLayer,
    ModelManifest,
)
from .fixedpoint import FixedPointCodec
from .params import ProtocolParams


def _uniform(codec: FixedPointCodec, rng, lim: float, *shape: int) -> np.ndarray:
    """Encoded weights uniform in [-lim, lim], drawn in row-major order."""
    return np.array([codec.encode(rng.uniform(-lim, lim)) for _ in range(math.prod(shape))],
                    dtype=np.uint64).reshape(shape)


def _dense(codec: FixedPointCodec, rng, n: int, m: int, act: str | None
           ) -> DenseLayer:
    return DenseLayer(_uniform(codec, rng, 1.0 / max(n, 1) ** 0.5, n, m), act)


def gen_mfnn(params: ProtocolParams, rng,
             dims: tuple[int, ...] = (64, 32, 16, 10)) -> ModelManifest:
    """Three dense layers with ReLU activations, argmax head."""
    codec = FixedPointCodec(params)
    layers = []
    for n, m in zip(dims, dims[1:]):
        layers.append(_dense(codec, rng, n, m, "relu"))
    layers.append(ArgmaxLayer())
    return ModelManifest(name="mfnn-scaled", fp_scale=params.fp_scale,
                         input_dim=dims[0], layers=layers)


def gen_ifnn(params: ProtocolParams, rng,
             dims: tuple[int, ...] = (32, 16, 8)) -> ModelManifest:
    """Two dense layers with Tanh activations, argmax head."""
    codec = FixedPointCodec(params)
    layers = [_dense(codec, rng, dims[0], dims[1], "tanh"),
              _dense(codec, rng, dims[1], dims[2], "tanh"),
              ArgmaxLayer()]
    return ModelManifest(name="ifnn-scaled", fp_scale=params.fp_scale,
                         input_dim=dims[0], layers=layers)


def gen_mcnn(params: ProtocolParams, rng, side: int = 8,
             filters: int = 3) -> ModelManifest:
    """One 5x5 convolution, 2x2 average pooling, two dense ReLU layers."""
    codec = FixedPointCodec(params)
    filt = _uniform(codec, rng, 0.2, 5, 5, 1, filters)
    conv = ConvLayer(filters=filt, in_shape=(side, side, 1), stride=1,
                     padding=0, activation="relu")
    conv_side = side - 4
    pool = AvgPoolLayer(in_shape=(conv_side, conv_side, filters), pool=(2, 2))
    pooled = (conv_side // 2) ** 2 * filters
    layers = [conv, pool,
              _dense(codec, rng, pooled, 16, "relu"),
              _dense(codec, rng, 16, 10, "relu"),
              ArgmaxLayer()]
    return ModelManifest(name="mcnn-scaled", fp_scale=params.fp_scale,
                         input_dim=side * side, layers=layers)


GENERATORS = {"mfnn": gen_mfnn, "ifnn": gen_ifnn, "mcnn": gen_mcnn}


def random_input(manifest: ModelManifest, rng) -> list[float]:
    return [rng.uniform(-1.0, 1.0) for _ in range(manifest.input_dim)]
