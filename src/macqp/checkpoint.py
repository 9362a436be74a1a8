"""Versioned binary model checkpoints ("MACN" format).

Layout, all little-endian:
  magic "MACN", format version u32, layer count u32,
  per layer: kind u8 (0=sigmoid-dense, 1=linear-dense, 2=gaussian-rbf),
             in_dim u32, out_dim u32,
             hyperparams as f64: rbf_width, ridge, bias flag (0.0/1.0),
             weights row-major f64,
  placement count u32, placement indices u32.
"""

import struct

import numpy as np

from .data import ExactReader
from .model import Layer, LayerKind, LayerSpec, LayerWeights, MacqpError, NestedNet

MACN_MAGIC = b"MACN"
FORMAT_VERSION = 1

_KIND_CODES = {
    LayerKind.SIGMOID_DENSE: 0,
    LayerKind.LINEAR_DENSE: 1,
    LayerKind.GAUSSIAN_RBF: 2,
}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}


def save_model(net, path):
    with open(path, "wb") as fh:
        fh.write(MACN_MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(net.layers)))
        for layer in net.layers:
            spec = layer.spec
            fh.write(
                struct.pack(
                    "<BIIddd",
                    _KIND_CODES[spec.kind],
                    spec.in_dim,
                    spec.out_dim,
                    spec.rbf_width,
                    spec.ridge,
                    1.0 if spec.bias else 0.0,
                )
            )
            fh.write(np.ascontiguousarray(layer.weights.matrix, dtype="<f8").tobytes())
        fh.write(struct.pack("<I", len(net.placement)))
        for p in net.placement:
            fh.write(struct.pack("<I", p))


def load_model(path):
    reader = ExactReader(path)
    if bytes(reader.take(4, "the magic")) != MACN_MAGIC:
        raise MacqpError(f"{path}: not a model checkpoint")
    version, n_layers = reader.unpack("<II", "the header")
    if version != FORMAT_VERSION:
        raise MacqpError(f"{path}: unsupported format version {version}")
    if n_layers == 0:
        raise MacqpError(f"{path}: the header gives 0 layers; a model needs at least one")
    layers = []
    for k in range(1, n_layers + 1):
        at = reader.pos
        code, in_dim, out_dim, width, ridge, bias = reader.unpack(
            "<BIIddd", f"layer {k}'s spec"
        )
        if code not in _CODE_KINDS:
            raise MacqpError(f"{path}: unknown layer kind code {code} at byte offset {at}")
        if bias not in (0.0, 1.0):
            raise MacqpError(f"{path}: layer {k}'s bias flag at byte offset "
                             f"{at + struct.calcsize('<BIIdd')} is {bias!r}, not 0.0 or 1.0")
        try:
            spec = LayerSpec(
                _CODE_KINDS[code], in_dim, out_dim,
                rbf_width=width, ridge=ridge, bias=bias != 0.0,
            )
        except (ValueError, MacqpError) as exc:
            raise MacqpError(f"{path}: layer {k}'s spec at byte offset {at}: {exc}") from None
        at = reader.pos
        mat = reader.f64_matrix(spec.weight_shape, f"layer {k}'s weights")
        try:
            layers.append(Layer(spec, LayerWeights(mat)))
        except MacqpError as exc:
            raise MacqpError(f"{path}: layer {k}'s weights at byte offset {at}: {exc}") from None
    (n_placed,) = reader.unpack("<I", "the placement count")
    placement = list(reader.unpack(f"<{n_placed}I", "the placement"))
    reader.finish()
    try:
        return NestedNet(layers, placement)
    except MacqpError as exc:
        raise MacqpError(f"{path}: {exc}") from None
