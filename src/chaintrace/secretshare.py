"""k-of-n Shamir secret sharing over GF(2^8).

Byte-wise scheme: each secret byte gets its own random polynomial of
degree k-1 with that byte as constant term; share i holds the
evaluations at x=i. Field arithmetic uses the AES reduction polynomial
x^8 + x^4 + x^3 + x + 1 (0x11B).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .errors import BadParameters, DecodeError, InconsistentShares, InsufficientShares
from .events import TextLines

_POLY = 0x11B

# log/exp tables over generator 3
_EXP = [0] * 512
_LOG = [0] * 256


def gf_mul_slow(a: int, b: int) -> int:
    """Carry-less multiply with reduction; table-free reference."""
    res = 0
    for _ in range(8):
        if b & 1:
            res ^= a
        hi = a & 0x80
        a = (a << 1) & 0xFF
        if hi:
            a ^= _POLY & 0xFF
        b >>= 1
    return res


def _init_tables() -> None:
    x = 1
    for i in range(255):
        _EXP[i] = x
        _LOG[x] = i
        x = gf_mul_slow(x, 3)
    for i in range(255, 512):
        _EXP[i] = _EXP[i - 255]


_init_tables()


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(2^8)")
    return _EXP[255 - _LOG[a]]


def gf_div(a: int, b: int) -> int:
    return gf_mul(a, gf_inv(b))


@dataclass(frozen=True)
class ShamirShare:
    """One share: evaluation point x and one y byte per secret byte."""

    x: int
    y: bytes

    def __post_init__(self):
        if not 1 <= self.x <= 255:
            raise BadParameters(f"share x must be in 1..255, got {self.x}")


def split_secret(
    secret: bytes, k: int, n: int, rng: random.Random | None = None
) -> list[ShamirShare]:
    """Split a secret into n shares, any k of which reconstruct it."""
    if not secret:
        raise BadParameters("secret must be non-empty")
    if not (1 <= k <= n <= 255):
        raise BadParameters(f"require 1 <= k <= n <= 255, got k={k} n={n}")
    if rng is None:
        rng = random.SystemRandom()
    ys = [bytearray() for _ in range(n)]
    for byte in secret:
        coeffs = [byte] + [rng.randrange(256) for _ in range(k - 1)]
        for i in range(n):
            x = i + 1
            acc = 0
            xp = 1
            for c in coeffs:
                acc ^= gf_mul(c, xp)
                xp = gf_mul(xp, x)
            ys[i].append(acc)
    return [ShamirShare(x=i + 1, y=bytes(ys[i])) for i in range(n)]


def reconstruct_secret(
    shares: list[ShamirShare], threshold: int | None = None
) -> bytes:
    """Lagrange-interpolate at x=0, byte by byte."""
    if threshold is not None and len(shares) < threshold:
        raise InsufficientShares(
            f"need {threshold} shares, got {len(shares)}"
        )
    if not shares:
        raise InsufficientShares("no shares supplied")
    xs = [s.x for s in shares]
    if len(set(xs)) != len(xs):
        raise InconsistentShares("duplicate share x coordinates")
    length = len(shares[0].y)
    if any(len(s.y) != length for s in shares):
        raise InconsistentShares("shares have differing lengths")
    # Lagrange basis at x=0: L_i = prod_{j!=i} x_j / (x_j - x_i); over
    # GF(2^8) subtraction is XOR.
    basis = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = gf_mul(num, xj)
            den = gf_mul(den, xj ^ xi)
        basis.append(gf_div(num, den))
    out = bytearray()
    for pos in range(length):
        acc = 0
        for i, s in enumerate(shares):
            acc ^= gf_mul(basis[i], s.y[pos])
        out.append(acc)
    return bytes(out)


# --- share file armor ---

_SHARE_MAGIC = "CHAINTRACE-SHARE v1"


def write_share_file(path: str, share: ShamirShare) -> None:
    digest = hashlib.sha256(bytes([share.x]) + share.y).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_SHARE_MAGIC}\n")
        fh.write(f"x: {share.x:02x}\n")
        fh.write(f"y: {share.y.hex()}\n")
        fh.write(f"sha256: {digest}\n")


def read_share_file(path: str) -> ShamirShare:
    try:
        lines = list(TextLines(path, lambda ln: ln.rstrip("\n")))
    except DecodeError as exc:  # not UTF-8
        raise InconsistentShares(f"not a share file: {exc}") from None
    if not lines or lines[0] != _SHARE_MAGIC:
        raise InconsistentShares(f"{path}: not a share file")
    fields = dict(ln.split(": ", 1) for ln in lines[1:] if ": " in ln)
    try:
        x = int(fields["x"], 16)
        y = bytes.fromhex(fields["y"])
        digest = fields["sha256"]
        armored = bytes([x]) + y  # ValueError unless 0 <= x <= 255
    except (KeyError, ValueError) as exc:
        raise InconsistentShares(f"{path}: malformed share file") from exc
    if hashlib.sha256(armored).hexdigest() != digest:
        raise InconsistentShares(f"{path}: checksum mismatch")
    return ShamirShare(x=x, y=y)
