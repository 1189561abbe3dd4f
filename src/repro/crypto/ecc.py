"""Elliptic-curve cryptography on NIST P-256: ECDSA and ECDH.

The paper notes (§IV-B) that "the latest version of HIP supports also
elliptic-curve cryptography that can curb the processing costs without
hardware acceleration" — so the HIP stack here can be configured with ECDSA
host identities, and the crypto-cost ablation benchmark quantifies exactly
that claim.

Points use Jacobian projective coordinates internally to avoid a modular
inversion per addition; only scalar-mult entry/exit converts to affine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.numtheory import bytes_to_int, int_to_bytes, modinv
from repro.crypto.sha import HASHES


@dataclass(frozen=True)
class Curve:
    """Short Weierstrass curve y^2 = x^3 + a*x + b over GF(p)."""

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int  # order of the base point

    @property
    def byte_length(self) -> int:
        return (self.p.bit_length() + 7) // 8


P256 = Curve(
    name="P-256",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
)

# The point at infinity in Jacobian coordinates.
_INFINITY = (0, 1, 0)


def _jacobian_double(pt: tuple[int, int, int], curve: Curve) -> tuple[int, int, int]:
    x, y, z = pt
    if not y or not z:
        return _INFINITY
    p = curve.p
    ysq = (y * y) % p
    s = (4 * x * ysq) % p
    m = (3 * x * x + curve.a * pow(z, 4, p)) % p
    nx = (m * m - 2 * s) % p
    ny = (m * (s - nx) - 8 * ysq * ysq) % p
    nz = (2 * y * z) % p
    return nx, ny, nz


def _jacobian_add(
    p1: tuple[int, int, int], p2: tuple[int, int, int], curve: Curve
) -> tuple[int, int, int]:
    if not p1[2]:
        return p2
    if not p2[2]:
        return p1
    p = curve.p
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1sq = (z1 * z1) % p
    z2sq = (z2 * z2) % p
    u1 = (x1 * z2sq) % p
    u2 = (x2 * z1sq) % p
    s1 = (y1 * z2sq * z2) % p
    s2 = (y2 * z1sq * z1) % p
    if u1 == u2:
        if s1 != s2:
            return _INFINITY
        return _jacobian_double(p1, curve)
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    hsq = (h * h) % p
    hcu = (hsq * h) % p
    v = (u1 * hsq) % p
    nx = (r * r - hcu - 2 * v) % p
    ny = (r * (v - nx) - s1 * hcu) % p
    nz = (h * z1 * z2) % p
    return nx, ny, nz


def _to_affine(pt: tuple[int, int, int], curve: Curve) -> tuple[int, int] | None:
    x, y, z = pt
    if not z:
        return None
    p = curve.p
    zinv = modinv(z, p)
    zinv2 = (zinv * zinv) % p
    return (x * zinv2) % p, (y * zinv2 * zinv) % p


def scalar_mult(k: int, point: tuple[int, int] | None, curve: Curve) -> tuple[int, int] | None:
    """k * P via left-to-right double-and-add.  ``None`` is the point at infinity."""
    if point is None or k % curve.n == 0:
        return None
    k %= curve.n
    acc = _INFINITY
    base = (point[0], point[1], 1)
    for bit in bin(k)[2:]:
        acc = _jacobian_double(acc, curve)
        if bit == "1":
            acc = _jacobian_add(acc, base, curve)
    return _to_affine(acc, curve)


def point_add(
    p1: tuple[int, int] | None, p2: tuple[int, int] | None, curve: Curve
) -> tuple[int, int] | None:
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    j = _jacobian_add((p1[0], p1[1], 1), (p2[0], p2[1], 1), curve)
    return _to_affine(j, curve)


def is_on_curve(point: tuple[int, int] | None, curve: Curve) -> bool:
    if point is None:
        return True
    x, y = point
    return (y * y - (x * x * x + curve.a * x + curve.b)) % curve.p == 0


@dataclass(frozen=True)
class EcdsaKeyPair:
    """ECDSA key pair on a given curve (default P-256)."""

    curve: Curve
    private: int = field(repr=False)
    public: tuple[int, int]

    @classmethod
    def generate(cls, rng: random.Random, curve: Curve = P256) -> "EcdsaKeyPair":
        private = rng.randrange(1, curve.n)
        public = scalar_mult(private, (curve.gx, curve.gy), curve)
        assert public is not None
        return cls(curve=curve, private=private, public=public)

    def public_bytes(self) -> bytes:
        """Uncompressed SEC1 encoding: 0x04 || X || Y."""
        size = self.curve.byte_length
        return b"\x04" + int_to_bytes(self.public[0], size) + int_to_bytes(self.public[1], size)

    @staticmethod
    def public_from_bytes(data: bytes, curve: Curve = P256) -> tuple[int, int]:
        size = curve.byte_length
        if len(data) != 1 + 2 * size or data[0] != 0x04:
            raise ValueError("expected uncompressed SEC1 point encoding")
        x = bytes_to_int(data[1 : 1 + size])
        y = bytes_to_int(data[1 + size :])
        point = (x, y)
        if not is_on_curve(point, curve):
            raise ValueError("point is not on the curve")
        return point

    def sign(self, message: bytes, rng: random.Random, hash_name: str = "sha256") -> bytes:
        """ECDSA signature, encoded as fixed-width r || s."""
        curve = self.curve
        e = _hash_to_int(message, curve, hash_name)
        while True:
            k = rng.randrange(1, curve.n)
            pt = scalar_mult(k, (curve.gx, curve.gy), curve)
            assert pt is not None
            r = pt[0] % curve.n
            if r == 0:
                continue
            s = (modinv(k, curve.n) * (e + r * self.private)) % curve.n
            if s == 0:
                continue
            size = curve.byte_length
            return int_to_bytes(r, size) + int_to_bytes(s, size)

    def ecdh(self, peer_public: tuple[int, int]) -> bytes:
        """ECDH shared secret: x-coordinate of d * Q_peer."""
        if not is_on_curve(peer_public, self.curve):
            raise ValueError("peer public point is not on the curve")
        pt = scalar_mult(self.private, peer_public, self.curve)
        if pt is None:
            raise ValueError("degenerate ECDH result")
        return int_to_bytes(pt[0], self.curve.byte_length)


def ecdsa_verify(
    public: tuple[int, int],
    message: bytes,
    signature: bytes,
    curve: Curve = P256,
    hash_name: str = "sha256",
) -> bool:
    """Verify a fixed-width r || s ECDSA signature; False on any failure."""
    size = curve.byte_length
    if len(signature) != 2 * size:
        return False
    r = bytes_to_int(signature[:size])
    s = bytes_to_int(signature[size:])
    if not (1 <= r < curve.n and 1 <= s < curve.n):
        return False
    if not is_on_curve(public, curve):
        return False
    e = _hash_to_int(message, curve, hash_name)
    w = modinv(s, curve.n)
    u1 = (e * w) % curve.n
    u2 = (r * w) % curve.n
    pt = point_add(
        scalar_mult(u1, (curve.gx, curve.gy), curve),
        scalar_mult(u2, public, curve),
        curve,
    )
    if pt is None:
        return False
    return pt[0] % curve.n == r


def _hash_to_int(message: bytes, curve: Curve, hash_name: str) -> int:
    digest = HASHES[hash_name](message)
    e = bytes_to_int(digest)
    # Left-truncate to the order's bit length per FIPS 186-4 (counting the
    # full digest width, including leading zero bits).
    excess = 8 * len(digest) - curve.n.bit_length()
    if excess > 0:
        e >>= excess
    return e
