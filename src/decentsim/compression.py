"""Scaled-sign compression with error feedback.

A vector is reduced to one sign bit per coordinate plus a single scale,
the mean absolute value. On the wire that is an 8-byte little-endian
dimension, the scale as a 4-byte float, then ceil(d/8) sign bytes with
coordinate i at byte i//8 bit i%8 (bit set means positive). The scale is
kept at 64 bits in memory; only serialization narrows it.

If mean |v| underflows to 0 (e.g. v = [5e-324, 0.0]) the message is all
zeros and carries no signs; error feedback then keeps the whole vector as
its residual, so decompress(ct) + residual == v still holds exactly.

ef_step(grad, err, out=err, work=row) keeps a stream's residual in one
buffer for the whole run: the round engine passes each stream's row of
its error-feedback arrays as both err and out. The sum is elementwise, so
out may alias err (or grad). work, one idle row that overlaps none of
them, takes compress's |p| and then decompress's expansion, so a call
allocates only the message's d sign bytes. Without it both are fresh.

decompress gives each coordinate scale * (2*signs - 1). It forms the two
products -1.0*scale and 1.0*scale once and writes one per coordinate by
integer arithmetic on their bit patterns, modulo 2**64:
bits = signs * (bits(+) - bits(-)) + bits(-). So every coordinate holds
the bits of the very multiplication the elementwise form makes, NaN
scales included. Multiplying by +-1.0 is exact, so this equals
np.where(signs, scale, -scale) bit for bit at every non-NaN scale,
including 0.0 (+0.0 and -0.0 by sign), subnormals and inf. It makes two
passes over the output, the first reading only the sign bytes: at
d ~ 1e5 under numpy 2.4 about 100 us, against 120 us for the elementwise
form's three passes and 460 us for np.where (2-vCPU Xeon); at d = 874,
4.6 against 4.0 us.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeError

_HEADER_BYTES = 8 + 4


@dataclass(frozen=True)
class CompressedTensor:
    """Sign bits (bool array, True for nonnegative) and the l1/d scale."""

    signs: np.ndarray
    scale: float

    @property
    def dim(self) -> int:
        return self.signs.size


def compress(vec: np.ndarray, work: np.ndarray | None = None) -> CompressedTensor:
    """Scaled sign: sign(0) counts as positive, scale = mean |coordinate| (|vec| in work)."""
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise ShapeError("compress expects a non-empty 1-D vector")
    return CompressedTensor(vec >= 0.0, float(np.add.reduce(np.abs(vec, out=work)) / vec.size))


def decompress(ct: CompressedTensor, out: np.ndarray | None = None) -> np.ndarray:
    """Expand to +-scale per coordinate, into out (float64) if given."""
    neg, pos = struct.unpack("<2Q", struct.pack("<2d", -1.0 * ct.scale, 1.0 * ct.scale))
    out = np.empty(ct.signs.size) if out is None else out
    bits = out.view(np.uint64)
    # As bytes, the signs multiply without a cast from bool.
    flags = np.asarray(ct.signs, dtype=bool).view(np.uint8)
    np.multiply(flags, np.uint64((pos - neg) % 2**64), out=bits)
    bits += np.uint64(neg)
    return out


def ef_step(grad: np.ndarray, err: np.ndarray, out: np.ndarray | None = None,
            work: np.ndarray | None = None) -> tuple[CompressedTensor, np.ndarray]:
    """Compress grad + err and return the residual as the next error buffer.

    The residual is written into out if given, which may be err itself.
    work, if given, takes compress's |p| and then decompress's expansion;
    it must not overlap grad, err or out.
    """
    if any(b is not None and b.shape != grad.shape for b in (err, out, work)):
        raise ShapeError("gradient and buffer shapes differ")
    if work is not None and any(np.may_share_memory(work, b) for b in (grad, err, out)):
        raise ShapeError("ef_step's work row overlaps one of its operands")
    p = np.add(grad, err, out=out)
    ct = compress(p, work)
    p -= decompress(ct, work)
    return ct, p


def wire_size_bytes(dim: int) -> int:
    """Serialized size: ceil(d/8) sign bytes plus the 12-byte header."""
    if dim < 1:
        raise ShapeError("dimension must be positive")
    return (dim + 7) // 8 + _HEADER_BYTES


def encode(ct: CompressedTensor) -> bytes:
    """Wire format: u64 dim, f32 scale, packed sign bits (LSB first)."""
    header = struct.pack("<Qf", ct.dim, ct.scale)
    return header + np.packbits(ct.signs, bitorder="little").tobytes()


def decode(blob: bytes) -> CompressedTensor:
    """Inverse of encode; the scale comes back with float32 precision."""
    if len(blob) < _HEADER_BYTES:
        raise ParseError("compressed blob shorter than its header")
    dim, scale = struct.unpack_from("<Qf", blob)
    if dim < 1 or len(blob) != wire_size_bytes(dim):
        raise ParseError(f"blob length {len(blob)} inconsistent with dimension {dim}")
    bits = np.unpackbits(
        np.frombuffer(blob, dtype=np.uint8, offset=_HEADER_BYTES),
        count=dim, bitorder="little",
    )
    return CompressedTensor(bits.astype(bool), float(scale))
