import hashlib
import random

import numpy as np
import pytest

import oracles
from oracles import check_mutations
from pairml import models
from pairml.codec import Reader, Writer
from pairml.engine import (ArgmaxLayer, AvgPoolLayer, ConvLayer, DealerRole, DenseLayer,
                           MaxPoolVecLayer, ModelManifest, decode_mat, decode_vec,
                           encode_mat, encode_vec, parse_manifest, serialize_manifest)
from pairml.fss import DcfKey, DpfKey, dcf_gen, dpf_gen
from pairml.gadgets import (deserialize_material, material_pair, serialize_material,
                            tanh_table)
from pairml.lpr import LprCiphertext, encrypt, keygen
from pairml.params import ProtocolParams
from pairml.ring import RingPoly, draw_below, ntt_context
from pairml.transport import WIDE_AREA, inproc_pair

PARAMS = ProtocolParams.testing()


def test_writer_reader_round_trip():
    buf = (Writer().u8(7).u16(513).u32(70000).u64(1 << 63).u64s([1, 2, 3])
           .raw(b"abc").blob(b"xy").blobs([b"", b"z"]).getvalue())
    r = Reader(buf)
    assert (r.u8(), r.u16(), r.u32(), r.u64()) == (7, 513, 70000, 1 << 63)
    assert r.u64s(3) == [1, 2, 3]
    assert (r.raw(3), r.blob(), r.blobs()) == (b"abc", b"xy", [b"", b"z"])
    r.end()


def test_reader_refuses_short_and_trailing_input():
    for read in (Reader.u8, Reader.u16, Reader.u32, Reader.u64, Reader.blob,
                 Reader.blobs, lambda r: r.u64s(1), lambda r: r.raw(1)):
        with pytest.raises(ValueError):
            read(Reader(b""))
    with pytest.raises(ValueError):
        Reader(Writer().u32(5).raw(b"1234").getvalue()).blob()
    r = Reader(b"\x01\x02")
    r.u8()
    with pytest.raises(ValueError):
        r.end()


# -- every decoder rejects a cut or padded buffer -------------------------------------


def _decoders():
    p = PARAMS.p
    rng = random.Random(50)
    wire = material_pair("tanh", p, rng, table=tanh_table(PARAMS.fp_scale, p))[0]
    keys = keygen(PARAMS, rng)
    ct = encrypt(PARAMS, keys.pk, draw_below(rng, p, PARAMS.n_ring), rng)
    mat = np.array([[rng.randrange(p) for _ in range(3)] for _ in range(4)],
                   dtype=object)
    manifest = models.gen_ifnn(PARAMS, random.Random(51))
    return [
        ("wire material", deserialize_material, serialize_material(wire)),
        ("max2 material", deserialize_material,
         serialize_material(material_pair("max2", p, rng)[0])),
        ("maxpool material", deserialize_material,
         serialize_material(material_pair("maxpool", p, rng, k=3)[1])),
        ("argmax material", deserialize_material,
         serialize_material(material_pair("argmax", p, rng, k=3)[0])),
        ("dpf key", DpfKey.deserialize, oracles.dpf_gen(p, 5, [1, 2], rng)[0].serialize()),
        ("dcf key", DcfKey.deserialize, oracles.dcf_gen(p, 5, [1, 2], rng)[1].serialize()),
        ("poly q", lambda b: RingPoly.deserialize(PARAMS, b), keys.s.serialize()),
        ("ciphertext", lambda b: LprCiphertext.deserialize(PARAMS, b), ct.serialize()),
        ("manifest", parse_manifest, serialize_manifest(manifest)),
        ("vector", decode_vec, encode_vec([rng.randrange(p) for _ in range(5)])),
        ("matrix", decode_mat, encode_mat(mat)),
    ]


DECODERS = _decoders()


@pytest.mark.parametrize("name,decode,buf", DECODERS, ids=[d[0] for d in DECODERS])
def test_decoder_rejects_cut_and_padded_input(name, decode, buf):
    decode(buf)
    for bad in (buf[:-1], buf[:-3], buf + b"junk"):
        with pytest.raises(ValueError):
            decode(bad)


def test_bad_poly_header_or_residue_rejected():
    # an R_q poly in NTT form (tag byte 1, form byte 1) is the only wire
    # form: an R_p header (tag byte 0) in either of its forms is rejected
    poly_q = next(buf for n, _, buf in DECODERS if n == "poly q")
    for tag_byte, form_byte in ((1, 0), (1, 2), (0, 0), (0, 1), (0, 2)):
        buf = bytearray(poly_q)
        buf[4:6] = bytes([tag_byte, form_byte])
        with pytest.raises(ValueError, match="header"):
            RingPoly.deserialize(PARAMS, bytes(buf))
    # a residue equal to its prime is not a canonical coefficient
    buf = bytearray(next(buf for n, _, buf in DECODERS if n == "poly q"))
    buf[16:24] = PARAMS.q_primes[0].to_bytes(8, "little")
    with pytest.raises(ValueError, match="out of range"):
        RingPoly.deserialize(PARAMS, bytes(buf))


def test_every_cut_of_a_manifest_header_is_rejected():
    buf = next(buf for name, _, buf in DECODERS if name == "manifest")
    for cut in range(buf.index(b"\n\n") + 2):
        with pytest.raises(ValueError):
            parse_manifest(buf[:cut])


def test_missing_or_malformed_manifest_header_field_named():
    # a header without its fp_scale line used to raise KeyError('fp_scale')
    lines = next(buf for name, _, buf in DECODERS if name == "manifest").split(b"\n")
    for i, field in enumerate(("name", "fp_scale", "input_dim"), start=1):
        assert lines[i].startswith(field.encode() + b"=")
        # a name may be any text; the other fields are ints
        bad = [[]] if field == "name" else [[], [field.encode() + b"=x"], [field.encode()]]
        for line in bad:
            with pytest.raises(ValueError, match=f"field {field} missing or malformed"):
                parse_manifest(b"\n".join(lines[:i] + line + lines[i + 1:]))


def _manifest_with(i: int, line: bytes) -> bytes:
    """The ifnn manifest of DECODERS with its line i replaced."""
    lines = next(buf for name, _, buf in DECODERS if name == "manifest").split(b"\n")
    return b"\n".join(lines[:i] + [line] + lines[i + 1:])


DENSE = b"layer dense in=32 out=16 act=tanh"  # the manifest's line 4


def test_manifest_layer_line_lacking_a_field_named():
    # `layer dense in=32 act=tanh` used to raise KeyError('out')
    assert _manifest_with(4, DENSE) == next(b for n, _, b in DECODERS if n == "manifest")
    for field, text in (("in", b" in=32"), ("out", b" out=16"), ("act", b" act=tanh")):
        with pytest.raises(ValueError, match=f"layer dense field {field} missing"):
            parse_manifest(_manifest_with(4, DENSE.replace(text, b"")))


def test_manifest_unknown_activation_rejected_naming_the_layer():
    # `act=tanx` used to parse, and lower to GadgetLayer('tanx')
    for act in (b"tanx", b"Relu", b"", b"argmax"):
        with pytest.raises(ValueError, match="layer 0 \\(dense\\) has unknown activation"):
            parse_manifest(_manifest_with(4, DENSE.replace(b"tanh", act)))
    for act in (b"relu", b"sigmoid", b"-"):
        parse_manifest(_manifest_with(4, DENSE.replace(b"tanh", act)))


def test_manifest_line_that_is_not_a_layer_rejected():
    # a line that did not start with "layer " was dropped: `dayer argmax`
    # decoded to a model with no argmax head
    for bad in (b"dayer argmax", b"layer argmux", b"layer", b" layer argmax"):
        with pytest.raises(ValueError, match="is not a layer"):
            parse_manifest(_manifest_with(6, bad))


def test_manifest_fields_are_separated_by_one_space():
    # any whitespace used to separate fields, and any line break lines:
    # \x1f or \x0b in place of a space decoded, or raised KeyError
    for sep in (b"\x1f", b"\x0b", b"\t", b"  "):
        for count in (1, -1):  # the first space, every space
            with pytest.raises(ValueError):
                parse_manifest(_manifest_with(4, DENSE.replace(b" ", sep, count)))
    with pytest.raises(ValueError, match="canonical"):  # a leading zero
        parse_manifest(_manifest_with(4, DENSE.replace(b"in=32", b"in=032")))


def test_short_and_miscounted_buffers_raise_value_error():
    with pytest.raises(ValueError):
        decode_vec(b"\x01" * 9)
    with pytest.raises(ValueError):
        RingPoly.deserialize(PARAMS, b"RPL1")
    with pytest.raises(ValueError):
        LprCiphertext.deserialize(PARAMS, b"LPR1" + bytes(6))
    ct = next(buf for name, _, buf in DECODERS if name == "ciphertext")
    three_polys = ct[:12] + (3).to_bytes(2, "little") + ct[14:]
    with pytest.raises(ValueError, match="3 polys"):
        LprCiphertext.deserialize(PARAMS, three_polys)


def test_mutated_keys_and_materials_decode_exactly_or_are_rejected():
    # a mutated key, material or wide-area frame either raises ValueError or
    # is one that encodes to exactly the mutated bytes: keys of both block
    # counts (one from the single enclave's generator, three from the
    # reference), one material of each kind, and every other decoder above
    p, rng = PARAMS.p, random.Random(53)
    cases = [(cls.deserialize, cls.serialize, gen(p, 5, [1, 2], rng)[b])
             for b, (cls, gens) in enumerate(((DpfKey, (dpf_gen, oracles.dpf_gen)),
                                              (DcfKey, (dcf_gen, oracles.dcf_gen))))
             for gen in gens]
    table = tanh_table(PARAMS.fp_scale, p)
    cases += [(deserialize_material, serialize_material,
               material_pair(kind, p, rng, k=k, table=table)[k % 2])
              for kind, k in (("relu", 1), ("tanh", 1), ("max2", 1), ("maxpool", 3),
                              ("argmax", 3))]
    encoders = {"poly q": RingPoly.serialize,
                "ciphertext": LprCiphertext.serialize, "manifest": serialize_manifest,
                "vector": encode_vec, "matrix": encode_mat}
    cases += [(decode, encoders[name], decode(buf)) for name, decode, buf in DECODERS
              if name in encoders]
    # a manifest with one layer of each kind and few weights, so that most
    # mutations land in its text
    w = lambda *shape: np.arange(np.prod(shape), dtype=object).reshape(shape)
    cases.append((parse_manifest, serialize_manifest, ModelManifest("every-kind", 8, 16, [
        ConvLayer(w(2, 2, 1, 2), (4, 4, 1), 2, 0, "relu"), AvgPoolLayer((2, 2, 2), (2, 2)),
        DenseLayer(w(2, 3), "tanh"), MaxPoolVecLayer(3), ArgmaxLayer()])))
    for seed, (decode, encode, value) in enumerate(cases):
        buf = encode(value)
        rejected = check_mutations(decode, encode, buf, seed, 1000)
        assert 0 < rejected < 1000


# -- pinned wide-area formats -------------------------------------------------------------
# SHA-256 prefixes of each format built from fixed seeds.  Every format here
# crosses a wide-area channel, and perfbench/lockstep.py builds the engine
# frames by hand, so the bytes must not change.  The `*_values` entries pin the
# coefficient-form values of the R_q poly and the ciphertext, recorded when
# R_q polys were still sent in coefficient form: the wire form may change, the
# values may not.

PINNED = {
    "vec": "368fd7dd02e2ba6f",
    "mat": "58ecd24f20b36517",
    "mfnn": "c0a87fed431b4942",
    "ifnn": "0e26a91386d59943",
    "mcnn": "da34e362c0b38111",
    "poly_q": "f5a8f1cb111da6db",
    "poly_q_values": "7a281905b9f5e6b1",
    "ct": "f7ad13ec13eeb4f9",
    "ct_values": "50a64db94223e6be",
    "setup0": "2361fcfea4190565",
    "setup1": "e246bf82f94c2ff9",
}


def _digest(buf: bytes) -> str:
    return hashlib.sha256(buf).hexdigest()[:16]


def _coeff_digest(*polys) -> str:
    """Digest of the polys' coefficient values, whatever their wire form."""
    return _digest(b"".join(p.coeffs().astype("<u8").tobytes() for p in polys))


def test_wide_area_formats_pinned():
    p = PARAMS.p
    got = {}
    rng = random.Random(41)
    got["vec"] = _digest(encode_vec([rng.randrange(p) for _ in range(37)]))
    mat = np.array([[rng.randrange(p) for _ in range(5)] for _ in range(7)],
                   dtype=object)
    got["mat"] = _digest(encode_mat(mat))
    for name in ("mfnn", "ifnn", "mcnn"):
        manifest = getattr(models, f"gen_{name}")(PARAMS, random.Random(f"pin/{name}"))
        got[name] = _digest(serialize_manifest(manifest))
    rng = random.Random(43)
    # replay the draws of the R_p poly pinned here before its format was
    # retired, and read poly_q's drawn residues as coefficients, so that the
    # pins below keep their values
    draw_below(rng, p, PARAMS.n_ring)
    coeffs = RingPoly.random(PARAMS, rng).data
    poly_q = RingPoly(PARAMS, ntt_context(PARAMS.q_primes, PARAMS.n_ring).ntt(coeffs))
    got["poly_q"] = _digest(poly_q.serialize())
    got["poly_q_values"] = _coeff_digest(poly_q)
    rng = random.Random(44)
    keys = keygen(PARAMS, rng)
    ct = encrypt(PARAMS, keys.pk, draw_below(rng, p, PARAMS.n_ring), rng)
    got["ct"] = _digest(ct.serialize())
    got["ct_values"] = _coeff_digest(ct.c0, ct.c1)
    (d0, s0), (d1, s1) = (inproc_pair("d0", "s0", WIDE_AREA),
                          inproc_pair("d1", "s1", WIDE_AREA))
    DealerRole(PARAMS, d0, d1, random.Random(45)).run_setup()
    got["setup0"], got["setup1"] = (_digest(c.recv().payload) for c in (s0, s1))
    assert got == PINNED
