"""ESP data plane for HIP: BEET- and tunnel-mode security associations.

After a base exchange, each direction of an association has a
:class:`SecurityAssociation` holding an SPI, AES-128-CBC encryption key,
HMAC-SHA1 authentication key, sequence counter and a 64-entry anti-replay
window (RFC 4303 semantics).

**BEET mode** (RFC 5202's default, and the paper's): the inner IP header is
*not* transmitted — the HIT pair is bound to the SPI at SA creation, so the
wire carries only ESP fields + transport payload.  **Tunnel mode** carries
the full inner IP header, costing 20/40 extra bytes per packet; the
difference is exactly the bandwidth-efficiency claim of §II-B, quantified by
the ESP-mode ablation benchmark.

When the inner payload is real bytes and the SA is ``real`` (the default)
the transform genuinely authenticates them, and encrypts them too unless the
SA is auth-only (``encrypt=False``: an HMAC-SHA1-96 ICV over the plaintext).
Tamper tests flip ciphertext bits and watch decap fail.  Virtual payloads,
and every payload of a ``real=False`` SA, take the cost-only branch: same
``wire_len``, padding, ESP header sizes, SPI match and replay window, no
cipher work.  A body that arrives carrying ciphertext or an ICV is checked
whatever the receiving SA's flag.  A real SA accepts no real-byte body it
has not authenticated: an encrypting one refuses a body without ciphertext,
an auth-only one a body without a valid ICV.  What a real SA cannot
authenticate is a virtual payload: it has no bytes, so its inner packet is
taken as carried (the cost model's trust in its own simulation).
"""

from __future__ import annotations

import enum
import struct

from repro.crypto.aes import AES
from repro.crypto.hmac_kdf import HmacKey, ct_equal
from repro.crypto.modes import CbcSealer, Sealed, cbc_decrypt
from repro.crypto.secret import Secret
from repro.metrics import METRICS
from repro.net.addresses import IPAddress
from repro.net.packet import (
    ESPHeader,
    Header,
    ICMPHeader,
    IPHeader,
    Packet,
    TCPHeader,
    UDPHeader,
    VirtualPayload,
)
from repro.net.wire import WireValue

ICV_LEN = 12  # HMAC-SHA1-96
IV_LEN = 16
REPLAY_WINDOW = 64

# Per-SA attributes keep the same tallies for local inspection; the global
# counters aggregate across every SA in the process for the metrics report.
_PROTECTED = METRICS.counter("esp.packets_protected")
_VERIFIED = METRICS.counter("esp.packets_verified")
_REPLAY_DROPS = METRICS.counter("esp.replay_drops")
_AUTH_FAILURES = METRICS.counter("esp.auth_failures")


class EspError(Exception):
    """Authentication failure, replay, or malformed ESP payload."""


class EspMode(enum.Enum):
    BEET = "beet"
    TUNNEL = "tunnel"


#: Every TCP flag; flag ``_TCP_FLAGS[i]`` sets bit ``i`` of the encoding.
_TCP_FLAGS = ("SYN", "ACK", "FIN", "RST", "ECE", "CWR")


def canonical_header_bytes(header: Header) -> bytes:
    """Deterministic byte encoding of transport/IP headers for real encryption.

    It covers every field a receiver acts on (for TCP all six flags and the
    SACK blocks), so an authenticated body cannot carry altered headers.
    """
    if isinstance(header, IPHeader):
        return (
            b"IP" + struct.pack(">BB", header.family, header.ttl)
            + header.src.packed() + header.dst.packed() + header.proto.encode()
        )
    if isinstance(header, TCPHeader):
        flag_bits = sum(1 << i for i, f in enumerate(_TCP_FLAGS) if f in header.flags)
        out = b"TC" + struct.pack(
            ">HHIIBI", header.src_port, header.dst_port, header.seq,
            header.ack, flag_bits, header.window,
        )
        if header.sack:  # in-order segments carry none and end at the window
            out += struct.pack(">B", len(header.sack)) + b"".join(
                struct.pack(">II", start, end) for start, end in header.sack
            )
        return out
    if isinstance(header, UDPHeader):
        return b"UD" + struct.pack(">HH", header.src_port, header.dst_port)
    if isinstance(header, ICMPHeader):
        return b"IC" + header.kind.encode() + struct.pack(">HI", header.ident, header.seq)
    raise TypeError(f"no canonical encoding for {type(header).__name__}")


def canonical_packet_bytes(packet: Packet) -> bytes | None:
    """Byte-serialize a packet for encryption; None if payload is virtual."""
    if not isinstance(packet.payload, (bytes, bytearray)):
        return None
    out = struct.pack(">B", len(packet.headers))
    for header in packet.headers:
        encoded = canonical_header_bytes(header)
        out += struct.pack(">H", len(encoded)) + encoded
    return out + bytes(packet.payload)


class EspCiphertext(WireValue):
    """ESP payload: the protected inner packet.

    ``inner`` rides along for simulator delivery; ``ciphertext`` is the real
    AES-CBC output when the payload was real bytes (None on the virtual fast
    path).  ``wire_len`` is the encrypted-payload length contributing to the
    packet size (already including padding).
    A body from :meth:`SecurityAssociation.protect` holds a pending
    :class:`~repro.crypto.modes.Sealed` in both slots; every observation
    (the fields, ``==``, ``hash``, ``repr``, pickling) reads the eager bytes.
    """

    __slots__ = ()
    inner: Packet
    wire_len: int
    ciphertext: bytes | None = None
    icv: bytes | None = None
    iv: bytes | None = None

    def __len__(self) -> int:
        return self.wire_len

    def __getnewargs__(self) -> tuple:  # the fields, sealed ones read
        return (self[0], self[1], self.ciphertext, self.icv, self[4])

    def __eq__(self, other: object) -> bool:
        return self is other or (
            self.__class__ is other.__class__ and self.__getnewargs__() == other.__getnewargs__()
        )

    def __hash__(self) -> int:
        return hash(self.__getnewargs__())

    def __repr__(self) -> str:
        return WireValue.__repr__(EspCiphertext(*self.__getnewargs__()))


EspCiphertext.ciphertext = property(lambda s: s[2].ciphertext if s[2].__class__ is Sealed else s[2])
EspCiphertext.icv = property(lambda s: s[3].tag if s[3].__class__ is Sealed else s[3])


class SecurityAssociation:
    """One direction of an ESP association."""

    def __init__(
        self,
        spi: int,
        enc_key: bytes | Secret,
        auth_key: bytes | Secret,
        src_hit: IPAddress,
        dst_hit: IPAddress,
        mode: EspMode = EspMode.BEET,
        encrypt: bool = True,
        real: bool = True,
    ) -> None:
        if len(enc_key) != 16:
            raise ValueError("ESP encryption key must be 16 bytes (AES-128)")
        if len(auth_key) != 20:
            raise ValueError("ESP auth key must be 20 bytes (HMAC-SHA1)")
        self.spi = spi
        self.enc_key = enc_key
        self.auth_key = auth_key
        self.src_hit = src_hit
        self.dst_hit = dst_hit
        self.mode = mode
        self.encrypt = encrypt
        #: False = cost-model SA: ``protect`` never ciphers, whatever the payload.
        self.real = real
        self._aes = AES(enc_key)
        # Midstate-cached HMAC keys: the per-packet IV derivation and ICV
        # computation do zero key-schedule or pad work in steady state.
        self._iv_hmac = HmacKey(enc_key, "sha1")
        self._icv_hmac = HmacKey(auth_key, "sha1")
        self._sealer = CbcSealer(self._aes, self._icv_hmac, ICV_LEN)
        self.seq = 0
        # Anti-replay: highest seq seen + bitmask of the window below it.
        self._replay_top = 0
        self._replay_mask = 0
        self.packets_protected = 0
        self.packets_verified = 0
        self.replay_drops = 0
        self.auth_failures = 0

    # -- outbound ---------------------------------------------------------------
    def protect(self, inner: Packet, size: int = 0) -> tuple[ESPHeader, EspCiphertext]:
        """Protect ``inner``; returns (ESP header, ESP payload).

        ``size`` is ``len(inner)`` when the caller already measured it (0:
        measure here).
        """
        self.seq = seq = self.seq + 1
        self.packets_protected += 1
        _PROTECTED.value += 1
        base_len = (size or len(inner)) - self._stripped(inner.headers)
        # Pad plaintext + 2 trailer bytes to the AES block size.
        if self.encrypt:
            header = ESPHeader(self.spi, seq, IV_LEN, ICV_LEN, (-(base_len + 2)) % 16)
        else:
            header = ESPHeader(self.spi, seq, 0, ICV_LEN, 0)
        real = canonical_packet_bytes(self._plaintext_view(inner)) if self.real else None
        if real is None:
            return header, EspCiphertext(inner, base_len)
        if not self.encrypt:
            return header, EspCiphertext(inner, base_len, None, self._plain_icv(header, real))
        iv = self._iv_hmac.digest(struct.pack(">IQ", self.spi, seq))[:16]
        sealed = self._sealer.seal(iv, real, struct.pack(">II", self.spi, seq))
        # Padding/IV/ICV are accounted in ESPHeader.header_len, so the
        # ciphertext contributes exactly the plaintext length.
        return header, EspCiphertext(inner, base_len, sealed, sealed, iv)

    def _plain_icv(self, header: ESPHeader, plain: bytes) -> bytes:
        """An auth-only body's ICV: HMAC-SHA1-96 over SPI, sequence and plaintext."""
        return self._icv_hmac.digest(struct.pack(">II", header.spi, header.seq) + plain)[:ICV_LEN]

    def _stripped(self, headers: tuple) -> int:
        """Bytes of ``headers`` kept off the wire: BEET's inner IP header."""
        if self.mode is EspMode.BEET and headers and isinstance(headers[0], IPHeader):
            return headers[0].header_len
        return 0

    def _plaintext_view(self, inner: Packet) -> Packet:
        """What actually goes on the wire."""
        headers = inner.headers
        if self._stripped(headers):
            return Packet(headers[1:], inner.payload, inner.meta)
        return inner

    # -- inbound -----------------------------------------------------------------
    def verify(self, header: ESPHeader, payload: EspCiphertext) -> Packet:
        """Authenticate, decrypt and replay-check; returns the inner packet."""
        if header.spi != self.spi:
            raise EspError(f"SPI mismatch: packet {header.spi:#x}, SA {self.spi:#x}")
        self._check_replay(header.seq)
        if payload[2] is not None:  # the raw slot: a virtual body skips the sealed reads
            ciphertext, iv, icv = payload.ciphertext, payload.iv, payload.icv
            if not all(isinstance(field, bytes) for field in (ciphertext, iv, icv)):
                raise self._auth_failure("malformed ESP payload")
            expect_icv = self._icv_hmac.digest(
                struct.pack(">II", header.spi, header.seq) + iv + ciphertext
            )[:ICV_LEN]
            if not ct_equal(expect_icv, icv):
                raise self._auth_failure("ICV verification failed")
            try:
                plain = cbc_decrypt(self._aes, iv, ciphertext)
            except ValueError as exc:
                raise self._auth_failure(f"decryption failed: {exc}") from exc
            if plain != self._carried_bytes(payload.inner):
                raise self._auth_failure("decrypted plaintext does not match inner packet")
        elif payload[3] is not None or self.real and isinstance(
            getattr(payload.inner, "payload", None), (bytes, bytearray)
        ):
            # No ciphertext: an auth-only body, or real bytes nobody sealed.
            if self.real and self.encrypt:
                raise self._auth_failure("unencrypted body on an encrypting SA")
            icv, plain = payload.icv, self._carried_bytes(payload.inner)
            if not isinstance(icv, bytes) or plain is None:
                raise self._auth_failure("malformed ESP payload")
            if not ct_equal(self._plain_icv(header, plain), icv):
                raise self._auth_failure("ICV verification failed")
        self._accept_replay(header.seq)
        self.packets_verified += 1
        _VERIFIED.value += 1
        return payload.inner

    def _carried_bytes(self, inner: Packet) -> bytes | None:
        """The plaintext a body's carried inner packet stands for (None: none)."""
        try:
            return canonical_packet_bytes(self._plaintext_view(inner))
        except (struct.error, TypeError, ValueError, AttributeError):
            return None  # a carried inner that has no encoding matches nothing

    def _auth_failure(self, message: str) -> EspError:
        self.auth_failures += 1
        _AUTH_FAILURES.inc()
        return EspError(message)

    def _check_replay(self, seq: int) -> None:
        if seq <= 0:
            raise EspError("non-positive ESP sequence number")
        if seq > self._replay_top:
            return
        offset = self._replay_top - seq
        if offset >= REPLAY_WINDOW:
            self.replay_drops += 1
            _REPLAY_DROPS.inc()
            raise EspError(f"sequence {seq} below replay window")
        if self._replay_mask & (1 << offset):
            self.replay_drops += 1
            _REPLAY_DROPS.inc()
            raise EspError(f"replayed sequence {seq}")

    def _accept_replay(self, seq: int) -> None:
        if seq > self._replay_top:
            shift = seq - self._replay_top
            self._replay_mask = ((self._replay_mask << shift) | 1) & ((1 << REPLAY_WINDOW) - 1)
            self._replay_top = seq
        else:
            self._replay_mask |= 1 << (self._replay_top - seq)

    def overhead_bytes(self, inner: Packet) -> int:
        """Per-packet wire overhead vs sending ``inner`` unprotected."""
        plain_len = len(inner) - self._stripped(inner.headers)
        pad_len = (-(plain_len + 2)) % 16 if self.encrypt else 0
        esp = ESPHeader(spi=self.spi, seq=0, iv_len=IV_LEN if self.encrypt else 0,
                        icv_len=ICV_LEN, pad_len=pad_len)
        protected = esp.header_len + plain_len
        return protected - len(inner)


def derive_sa_pair(
    keymat: bytes | Secret,
    spi_out: int,
    spi_in: int,
    local_hit: IPAddress,
    peer_hit: IPAddress,
    is_initiator: bool,
    mode: EspMode = EspMode.BEET,
    encrypt: bool = True,
    real: bool = True,
) -> tuple[SecurityAssociation, SecurityAssociation]:
    """Split KEYMAT into the (outbound, inbound) SA pair.

    RFC 5202 draws initiator→responder keys first, then responder→initiator;
    both sides call this with their own role and get mirror-image keys.
    """
    if len(keymat) < 72:
        raise ValueError("KEYMAT too short: need 72 bytes for two AES+HMAC key sets")
    i2r_enc, i2r_auth = keymat[0:16], keymat[16:36]
    r2i_enc, r2i_auth = keymat[36:52], keymat[52:72]
    if is_initiator:
        out_keys, in_keys = (i2r_enc, i2r_auth), (r2i_enc, r2i_auth)
    else:
        out_keys, in_keys = (r2i_enc, r2i_auth), (i2r_enc, i2r_auth)
    outbound = SecurityAssociation(
        spi=spi_out, enc_key=out_keys[0], auth_key=out_keys[1],
        src_hit=local_hit, dst_hit=peer_hit, mode=mode, encrypt=encrypt, real=real,
    )
    inbound = SecurityAssociation(
        spi=spi_in, enc_key=in_keys[0], auth_key=in_keys[1],
        src_hit=peer_hit, dst_hit=local_hit, mode=mode, encrypt=encrypt, real=real,
    )
    return outbound, inbound
