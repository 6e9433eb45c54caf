"""Scaled-sign compressor: worked examples, error feedback, wire format."""
from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from decentsim import (
    CompressedTensor,
    ParseError,
    ShapeError,
    compress,
    decode,
    decompress,
    ef_step,
    encode,
    wire_size_bytes,
)


def test_worked_example_scale_and_signs():
    ct = compress(np.array([3.0, -1.0, 0.0, 2.0]))
    assert ct.scale == 1.5
    assert (decompress(ct) == [1.5, -1.5, 1.5, 1.5]).all()


def test_sign_of_zero_counts_as_positive():
    ct = compress(np.array([0.0, -0.0]))
    # numpy treats -0.0 >= 0 as True as well; both coordinates decode positive.
    assert (decompress(ct) == [0.0, 0.0]).all()
    assert ct.signs.all()


def test_error_feedback_worked_example():
    grad = np.array([3.0, -1.0, 0.0, 2.0])
    err = np.zeros(4)
    ct, err_next = ef_step(grad, err)
    assert ct.scale == 1.5
    assert (err_next == [1.5, 0.5, -1.5, 0.5]).all()


def test_error_feedback_identity_over_1000_random_calls():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 50))
        scale = 10.0 ** rng.integers(-6, 7)
        g = rng.standard_normal(d) * scale
        e = rng.standard_normal(d) * scale
        ct, e_next = ef_step(g, e)
        lhs = decompress(ct) + e_next
        ref = g + e
        denom = max(float(np.abs(ref).max()), 1e-300)
        worst = max(worst, float(np.abs(lhs - ref).max()) / denom)
    assert worst <= 1e-12


@given(hnp.arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
@example(np.array([5e-324, 0.0]))
@settings(max_examples=200, deadline=None)
def test_compress_magnitudes_are_uniform_and_scale_is_mean_abs(vec):
    ct = compress(vec)
    out = decompress(ct)
    assert ct.scale == pytest.approx(np.abs(vec).mean(), rel=1e-15, abs=0.0)
    assert (np.abs(out) == ct.scale).all()
    if ct.scale == 0.0:
        # mean |v| underflowed: the message is all zeros and error feedback
        # keeps the whole vector, so the EF identity still holds exactly.
        assert (out == 0.0).all()
        _, residual = ef_step(vec, np.zeros_like(vec))
        assert (residual == vec).all()
        return
    assert (np.sign(out[vec > 0]) > 0).all()
    assert (np.sign(out[vec < 0]) < 0).all()


@given(signs=hnp.arrays(np.bool_, st.integers(1, 64)),
       scale=st.floats(min_value=0.0, allow_nan=False))
@example(signs=np.array([True, False]), scale=0.0)
@example(signs=np.array([True, False]), scale=5e-324)
@example(signs=np.array([True, False]), scale=1e308)
@example(signs=np.array([True, False]), scale=float(np.finfo(float).max))
@example(signs=np.array([True, False]), scale=float("inf"))
@settings(max_examples=200, deadline=None)
def test_decompress_is_bitwise_the_signed_scale(signs, scale):
    # The product form scale * (2*signs - 1) must match the select form
    # bit for bit, signed zeros at scale 0.0 included.
    ct = CompressedTensor(signs, scale)
    assert decompress(ct).tobytes() == np.where(signs, scale, -scale).tobytes()
    # The engine decompresses straight into a row of its gradient table.
    row = np.full(signs.size, np.nan)
    assert decompress(ct, out=row) is row
    assert row.tobytes() == np.where(signs, scale, -scale).tobytes()


@pytest.mark.parametrize("scale", [0.37, 0.0, -0.0, 5e-324, 1.7e308, np.inf, -np.inf, np.nan,
                                   -np.nan], ids=repr)
def test_decompress_is_bitwise_the_elementwise_product(scale):
    # Each coordinate must carry the bits of scale * (2*sign - 1) itself,
    # NaN payload and sign included.
    signs = np.random.default_rng(3).random(1000) < 0.5
    want = signs * 2.0
    want -= 1.0
    want *= scale
    assert decompress(CompressedTensor(signs, scale)).tobytes() == want.tobytes()


def test_ef_step_leaves_its_inputs_unchanged_and_returns_a_fresh_residual():
    rng = np.random.default_rng(11)
    g = rng.standard_normal(257)
    e = rng.standard_normal(257)
    g_before, e_before = g.tobytes(), e.tobytes()
    _, residual = ef_step(g, e)
    assert g.tobytes() == g_before and e.tobytes() == e_before
    assert not np.shares_memory(residual, g)
    assert not np.shares_memory(residual, e)


@pytest.mark.parametrize("aliased", [False, True], ids=["separate", "aliased"])
def test_ef_step_writes_the_fresh_residual_into_out(aliased):
    # The engine keeps each stream's residual in one row: ef_step(g, err, out=err).
    rng = np.random.default_rng(12)
    g = rng.standard_normal(257)
    e = rng.standard_normal(257)
    g[:40], e[:40] = -0.0, rng.choice([0.0, -0.0, 5e-324], 40)
    want_ct, want = ef_step(g, e.copy())
    out = e if aliased else np.full(257, np.nan)
    ct, residual = ef_step(g, e, out=out)
    assert residual is out
    assert residual.tobytes() == want.tobytes()
    assert ct.signs.tobytes() == want_ct.signs.tobytes() and ct.scale == want_ct.scale


# Every float64 class the codec can meet: signed zeros, subnormals, infinities and NaN.
EDGE_FLOATS = st.one_of(st.floats(width=64),
                        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf,
                                         np.nan]))


@given(grad=hnp.arrays(np.float64, st.integers(1, 64), elements=EDGE_FLOATS), data=st.data())
@example(grad=np.array([5e-324, -0.0, 0.0]), data=None)
@example(grad=np.array([np.inf, -np.inf, 1.0]), data=None)
@example(grad=np.array([np.nan, -0.0, -5e-324]), data=None)
@settings(max_examples=200, deadline=None)
def test_ef_step_with_a_work_row_gives_the_bits_it_gives_without_one(grad, data):
    # The engine runs every ef_step in one idle scratch row; the message
    # and the residual must not depend on where the temporaries live.
    err = (np.zeros_like(grad) if data is None
           else data.draw(hnp.arrays(np.float64, grad.shape, elements=EDGE_FLOATS)))
    work = np.full(grad.size, 7.0)
    with np.errstate(all="ignore"):
        want, ct = compress(grad), compress(grad, work)
        want_ct, want_residual = ef_step(grad, err.copy())
        out = err.copy()
        ct_ef, residual = ef_step(grad, out, out=out, work=work)
    assert ct.signs.tobytes() == want.signs.tobytes()
    assert struct.pack("<d", ct.scale) == struct.pack("<d", want.scale)
    assert residual is out
    assert ct_ef.signs.tobytes() == want_ct.signs.tobytes()
    assert struct.pack("<d", ct_ef.scale) == struct.pack("<d", want_ct.scale)
    assert residual.tobytes() == want_residual.tobytes()


@pytest.mark.parametrize("case", ["short", "long", "grad", "err", "out", "out-reversed",
                                  "err-and-out", "grad-no-out"])
def test_ef_step_rejects_a_bad_work_row_before_writing(case):
    rng = np.random.default_rng(14)
    buf = rng.standard_normal((3, 16))
    flat = buf.reshape(-1)
    grad, err, out = buf
    work = {"short": np.zeros(15), "long": np.zeros(17), "grad": grad, "err": err, "out": out,
            "out-reversed": out[::-1], "err-and-out": flat[24:40],
            "grad-no-out": flat[:16]}[case]
    before, work_before = buf.tobytes(), work.tobytes()
    with pytest.raises(ShapeError):
        ef_step(grad, err, out=None if case == "grad-no-out" else out, work=work)
    assert buf.tobytes() == before and work.tobytes() == work_before


def test_constant_gradient_mean_of_deltas_tracks_the_gradient():
    # Telescoping: sum of emitted deltas equals K*g + e_first - e_last.
    rng = np.random.default_rng(7)
    g = rng.standard_normal(32)
    err = np.zeros(32)
    total = np.zeros(32)
    for _ in range(1000):
        ct, err = ef_step(g, err)
        total += decompress(ct)
    mean_delta = total / 1000
    # o(1) mean tracking: the compressor's running average recovers g.
    assert np.linalg.norm(mean_delta - g) <= 0.05 * np.linalg.norm(g)
    # Error buffer stays bounded rather than drifting.
    assert np.abs(err).max() < 100.0 * np.abs(g).max()


def test_shape_errors():
    with pytest.raises(ShapeError):
        compress(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        compress(np.array([]))
    with pytest.raises(ShapeError):
        ef_step(np.zeros(3), np.zeros(4))
    with pytest.raises(ShapeError):
        ef_step(np.zeros(3), np.zeros(3), out=np.zeros(4))
    with pytest.raises(ShapeError):
        wire_size_bytes(0)


# ----------------------------------------------------------------- wire format


def test_wire_size_formula():
    assert wire_size_bytes(1) == 1 + 12
    assert wire_size_bytes(8) == 1 + 12
    assert wire_size_bytes(9) == 2 + 12
    assert wire_size_bytes(76_000) == 9512
    assert wire_size_bytes(100_000) == 12_512


def test_wire_ratio_versus_raw_floats():
    d = 76_000
    assert 4 * d / wire_size_bytes(d) == pytest.approx(31.96, abs=0.01)
    d = 100_000
    assert 4 * d / wire_size_bytes(d) >= 31.5


def test_encode_layout_dimension_scale_then_lsb_first_bits():
    ct = compress(np.array([3.0, -1.0, 0.0, 2.0, -5.0, -6.0, -7.0, -8.0, 9.0]))
    blob = encode(ct)
    assert len(blob) == wire_size_bytes(9)
    dim, scale = struct.unpack_from("<Qf", blob)
    assert dim == 9
    assert scale == np.float32(ct.scale)
    # Signs + - + + - - - - | + : first byte 0b00001101, second byte 0b00000001.
    assert blob[12] == 0b00001101
    assert blob[13] == 0b00000001


def test_decode_inverts_encode_with_float32_scale():
    rng = np.random.default_rng(5)
    for d in (1, 7, 8, 9, 64, 1000):
        ct = compress(rng.standard_normal(d))
        back = decode(encode(ct))
        assert back.dim == d
        assert (back.signs == ct.signs).all()
        assert back.scale == float(np.float32(ct.scale))


def test_decode_rejects_corrupt_blobs():
    with pytest.raises(ParseError):
        decode(b"\x00" * 5)
    ct = compress(np.arange(1.0, 10.0))
    blob = encode(ct)
    with pytest.raises(ParseError):
        decode(blob + b"\x00")
    with pytest.raises(ParseError):
        decode(blob[:-1])
    zero_dim = struct.pack("<Qf", 0, 1.0)
    with pytest.raises(ParseError):
        decode(zero_dim)
