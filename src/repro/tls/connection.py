"""TLS 1.2-style handshake and record layer over a TcpConnection.

Full handshake (RSA key transport)::

    C -> S  ClientHello(client_random [, session_id])
    S -> C  ServerHello(server_random, session_id), Certificate(RSA key),
            ServerHelloDone
    C -> S  ClientKeyExchange(RSA-encrypted premaster), Finished(verify_data)
    S -> C  Finished(verify_data)

The premaster really is RSA-encrypted/decrypted with :mod:`repro.crypto.rsa`;
master secret and record keys derive via the TLS 1.2 PRF; Finished carries
PRF(master, transcript-hash) and is checked on both sides.  Abbreviated
handshakes resume a cached master secret by session id, skipping all
asymmetric work (the §IV-B cost split ablation measures the difference).

Records are ``5-byte header + IV + payload + MAC + pad``; real-byte payloads
are genuinely AES-CBC encrypted and HMAC'd, virtual payloads charge the same
CPU cost with identical size accounting.  The API mirrors
:class:`~repro.net.tcp.TcpConnection` (``write`` / ``recv`` / ``recv_bytes``
/ ``close``) so HTTP and the database protocol run unmodified over either.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.crypto.aes import AES
from repro.crypto.costmodel import CryptoMeter
from repro.crypto.hmac_kdf import HmacKey, ct_equal, tls_prf, tls_verify_data
from repro.crypto.modes import cbc_decrypt, cbc_encrypt
from repro.crypto.rsa import RsaError, RsaKeyPair, RsaPublicKey
from repro.crypto.secret import Secret
from repro.crypto.sha import sha256
from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpConnection, TcpError
from repro.net.wire import U16, WireReader

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

RECORD_HEADER_LEN = 5
MAC_LEN = 20  # HMAC-SHA1
IV_LEN = 16
MAX_RECORD = 16384
CERT_OVERHEAD = 800  # DER wrapping + chain bytes beyond the raw key


class TlsError(Exception):
    """Handshake or record-layer failure."""


_RECORD_HEAD = struct.Struct(">BHH")  # RECORD_HEADER_LEN bytes
_RANDOM_LEN = 32


@dataclass
class TlsServerContext:
    """Server-side long-lived state: key pair + session cache."""

    keypair: RsaKeyPair
    session_cache: dict[bytes, Secret] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.session_cache is None:
            self.session_cache = {}


def _send_message(conn: TcpConnection, mtype: int, body: bytes) -> None:
    conn.write(struct.pack(">BHH", 22, mtype, len(body)) + body)


def _recv_message(conn: TcpConnection) -> Generator:
    header = yield from conn.recv_bytes(RECORD_HEADER_LEN)
    if isinstance(header, VirtualPayload):
        raise TlsError("handshake messages must be real bytes")
    rtype, mtype, length = WireReader(header, TlsError).read(
        _RECORD_HEAD, "handshake record header"
    )
    if rtype != 22:
        raise TlsError(f"expected handshake record, got type {rtype}")
    body = yield from conn.recv_bytes(length)
    if isinstance(body, VirtualPayload):
        raise TlsError("handshake messages must be real bytes")
    return mtype, body


# Handshake message type codes (mirroring TLS where it has them).
CLIENT_HELLO = 1
SERVER_HELLO = 2
CERTIFICATE = 11
SERVER_HELLO_DONE = 14
CLIENT_KEY_EXCHANGE = 16
FINISHED = 20


def parse_client_hello(body: bytes) -> tuple[bytes, bytes]:
    """ClientHello body -> (offered session id, client random)."""
    r = WireReader(body, TlsError)
    (sid_len,) = r.read(U16, "ClientHello session id length")
    if r.remaining != sid_len + _RANDOM_LEN:
        raise TlsError("ClientHello length mismatch")
    return r.take(sid_len, "session id"), r.take(_RANDOM_LEN, "client random")


def parse_server_hello(body: bytes) -> tuple[bytes, bytes, bool]:
    """ServerHello body -> (session id, server random, resumed?)."""
    r = WireReader(body, TlsError)
    (sid_len,) = r.read(U16, "ServerHello session id length")
    if r.remaining != sid_len + _RANDOM_LEN + 1:  # + the resumed flag
        raise TlsError("ServerHello length mismatch")
    session_id = r.take(sid_len, "session id")
    server_random = r.take(_RANDOM_LEN, "server random")
    return session_id, server_random, r.take(1, "resumed flag") == b"\x01"


def parse_certificate(cert: bytes) -> RsaPublicKey:
    """Certificate body -> the server key (the chain padding is not read)."""
    r = WireReader(cert, TlsError)
    (key_len,) = r.read(U16, "Certificate key length")
    try:
        return RsaPublicKey.from_bytes(r.take(key_len, "Certificate key"))
    except ValueError as exc:
        raise TlsError(f"bad Certificate key: {exc}") from exc


class TlsConnection:
    """Protected byte stream over an established TcpConnection."""

    def __init__(
        self,
        conn: TcpConnection,
        node: "Node",
        master_secret: Secret,
        is_client: bool,
        transcript: bytes,
        meter: CryptoMeter | None = None,
        session_id: bytes = b"",
        resumed: bool = False,
    ) -> None:
        self.conn = conn
        self.node = node
        self.meter = meter or CryptoMeter()
        self.master_secret = master_secret
        self.session_id = session_id
        self.resumed = resumed
        key_block = tls_prf(master_secret, b"key expansion", transcript, 2 * (20 + 16))
        client = key_block[0:20], key_block[40:56]  # (MAC key, cipher key)
        server = key_block[20:40], key_block[56:72]
        (mac_out, key_out), (mac_in, key_in) = (
            (client, server) if is_client else (server, client)
        )
        self._aes_out, self._aes_in = AES(key_out), AES(key_in)
        # Midstate-cached record MAC keys, one per direction for the
        # connection's lifetime (steady-state records skip all pad work).
        self._hmac_out = HmacKey(mac_out, "sha1")
        self._hmac_in = HmacKey(mac_in, "sha1")
        self._seq_out = 0
        self._seq_in = 0
        self._leftover = None  # partial plaintext from recv_bytes
        self.records_sent = 0
        self.records_received = 0

    # -- sending ----------------------------------------------------------------
    def write_record(self, payload) -> Generator:
        """Process-generator: protect and send one application-data record."""
        if len(payload) > MAX_RECORD:
            raise TlsError("record too large; use write() for arbitrary sizes")
        cost = self.node.cost_model.tls_record_cost(len(payload))
        self.meter.charge("tls.record.out", cost)
        yield from self.node.cpu_work(cost)
        self._seq_out += 1
        self.records_sent += 1
        if isinstance(payload, (bytes, bytearray)):
            iv = self._hmac_out.digest(struct.pack(">Q", self._seq_out))[:IV_LEN]
            mac = self._hmac_out.digest(
                struct.pack(">Q", self._seq_out) + bytes(payload)
            )
            ciphertext = cbc_encrypt(self._aes_out, iv, bytes(payload) + mac)
            self.conn.write(struct.pack(">BHH", 23, 0, len(ciphertext) + IV_LEN))
            self.conn.write(iv + ciphertext)
        else:
            # Virtual payload: identical wire accounting, no real ciphertext.
            # The pad length rides in the (otherwise unused) second header
            # field so the receiver can recover the exact plaintext length.
            pad = (-(len(payload) + MAC_LEN + 1)) % 16 + 1
            wire_len = IV_LEN + len(payload) + MAC_LEN + pad
            self.conn.write(struct.pack(">BHH", 23, pad, wire_len))
            self.conn.write(VirtualPayload(wire_len, tag="tls-record"))

    def write(self, payload) -> Generator:
        """Process-generator: send arbitrary-size data as a record sequence."""
        offset = 0
        total = len(payload)
        while offset < total or total == 0:
            take = min(MAX_RECORD, total - offset)
            if isinstance(payload, (bytes, bytearray)):
                chunk = bytes(payload[offset : offset + take])
            else:
                chunk = VirtualPayload(take, tag="tls")
            yield from self.write_record(chunk)
            offset += take
            if total == 0:
                break

    # -- receiving ---------------------------------------------------------------
    def recv_record(self) -> Generator:
        """Process-generator: receive and verify one record; returns payload."""
        header = yield from self.conn.recv_bytes(RECORD_HEADER_LEN)
        if isinstance(header, VirtualPayload):
            raise TlsError("record header must be real bytes")
        rtype, pad, length = WireReader(header, TlsError).read(
            _RECORD_HEAD, "record header"
        )
        if rtype != 23:
            raise TlsError(f"expected application-data record, got type {rtype}")
        body = yield from self.conn.recv_bytes(length)
        self._seq_in += 1
        self.records_received += 1
        if pad > 0 or isinstance(body, VirtualPayload):
            plain_len = max(0, length - IV_LEN - MAC_LEN - max(pad, 1))
            cost = self.node.cost_model.tls_record_cost(plain_len)
            self.meter.charge("tls.record.in", cost)
            yield from self.node.cpu_work(cost)
            return VirtualPayload(plain_len, tag="tls")
        if len(body) < IV_LEN + MAC_LEN:
            raise TlsError("record too short for IV and MAC")
        iv, ciphertext = bytes(body[:IV_LEN]), bytes(body[IV_LEN:])
        cost = self.node.cost_model.tls_record_cost(len(ciphertext))
        self.meter.charge("tls.record.in", cost)
        yield from self.node.cpu_work(cost)
        try:
            plain_mac = cbc_decrypt(self._aes_in, iv, ciphertext)
        except ValueError as exc:
            raise TlsError(f"record decryption failed: {exc}") from exc
        if len(plain_mac) < MAC_LEN:
            raise TlsError("record too short for MAC")
        plain, mac = plain_mac[:-MAC_LEN], plain_mac[-MAC_LEN:]
        expect = self._hmac_in.digest(struct.pack(">Q", self._seq_in) + plain)
        if not ct_equal(expect, mac):
            raise TlsError("record MAC verification failed")
        return plain

    def recv_bytes(self, n: int) -> Generator:
        """Process-generator: accumulate exactly ``n`` plaintext bytes.

        Partial records are buffered for the next read, mirroring
        :meth:`TcpConnection.recv_bytes`.
        """
        got = 0
        parts: list = []
        all_real = True
        while got < n:
            if self._leftover is not None:
                chunk, self._leftover = self._leftover, None
            else:
                chunk = yield from self.recv_record()
            take = min(len(chunk), n - got)
            if take < len(chunk):
                if isinstance(chunk, VirtualPayload):
                    self._leftover = VirtualPayload(len(chunk) - take, tag=chunk.tag)
                    chunk = VirtualPayload(take, tag=chunk.tag)
                else:
                    self._leftover = bytes(chunk[take:])
                    chunk = bytes(chunk[:take])
            got += take
            if isinstance(chunk, VirtualPayload):
                all_real = False
            else:
                parts.append(bytes(chunk))
        if all_real:
            return b"".join(parts)
        return VirtualPayload(n)

    def close(self) -> None:
        self.conn.close()


def tls_client_handshake(
    conn: TcpConnection,
    node: "Node",
    rng: random.Random,
    meter: CryptoMeter | None = None,
    session: tuple[bytes, Secret] | None = None,
) -> Generator:
    """Process-generator: run the client side; returns a TlsConnection.

    ``session`` is an optional ``(session_id, master_secret)`` pair from a
    previous connection; if the server still caches it, the handshake is
    abbreviated (no RSA operations).
    """
    meter = meter or CryptoMeter()
    cm = node.cost_model
    client_random = rng.getrandbits(256).to_bytes(32, "big")
    offered_id = session[0] if session else b""
    hello = struct.pack(">H", len(offered_id)) + offered_id + client_random
    _send_message(conn, CLIENT_HELLO, hello)

    mtype, body = yield from _recv_message(conn)
    if mtype != SERVER_HELLO:
        raise TlsError(f"expected ServerHello, got {mtype}")
    session_id, server_random, resumed = parse_server_hello(body)

    if resumed:
        if session is None or session_id != session[0]:
            raise TlsError("server resumed an unknown session")
        master = session[1]
        transcript = client_random + server_random
        cost = cm.hmac_cost(64) * 4  # PRF invocations only
        meter.charge("tls.resume", cost)
        yield from node.cpu_work(cost)
        tls = TlsConnection(conn, node, master, True, transcript, meter,
                            session_id=session_id, resumed=True)
        yield from _exchange_finished(tls, conn, node, master, transcript, client_first=True)
        return tls

    mtype, cert = yield from _recv_message(conn)
    if mtype != CERTIFICATE:
        raise TlsError(f"expected Certificate, got {mtype}")
    server_key = parse_certificate(cert)
    mtype, _ = yield from _recv_message(conn)
    if mtype != SERVER_HELLO_DONE:
        raise TlsError(f"expected ServerHelloDone, got {mtype}")

    # Certificate signature check (chain of 1).
    meter.charge("asym.verify.cert", cm.rsa_verify(server_key.bits))
    yield from node.cpu_work(cm.rsa_verify(server_key.bits))

    premaster = Secret(rng.getrandbits(48 * 8).to_bytes(48, "big"))
    meter.charge("asym.encrypt.premaster", cm.rsa_verify(server_key.bits))
    yield from node.cpu_work(cm.rsa_verify(server_key.bits))  # public-key op
    encrypted = server_key.encrypt(premaster, rng)
    _send_message(conn, CLIENT_KEY_EXCHANGE, encrypted)

    master = tls_prf(premaster, b"master secret", client_random + server_random, 48)
    transcript = client_random + server_random
    tls = TlsConnection(conn, node, master, True, transcript, meter, session_id=session_id)
    yield from _exchange_finished(tls, conn, node, master, transcript, client_first=True)
    return tls


def tls_server_handshake(
    conn: TcpConnection,
    node: "Node",
    ctx: TlsServerContext,
    rng: random.Random,
    meter: CryptoMeter | None = None,
) -> Generator:
    """Process-generator: run the server side; returns a TlsConnection."""
    meter = meter or CryptoMeter()
    cm = node.cost_model
    mtype, body = yield from _recv_message(conn)
    if mtype != CLIENT_HELLO:
        raise TlsError(f"expected ClientHello, got {mtype}")
    offered_id, client_random = parse_client_hello(body)
    server_random = rng.getrandbits(256).to_bytes(32, "big")

    cached = ctx.session_cache.get(offered_id) if offered_id else None
    if cached is not None:
        hello = struct.pack(">H", len(offered_id)) + offered_id + server_random + b"\x01"
        _send_message(conn, SERVER_HELLO, hello)
        transcript = client_random + server_random
        cost = cm.hmac_cost(64) * 4
        meter.charge("tls.resume", cost)
        yield from node.cpu_work(cost)
        tls = TlsConnection(conn, node, cached, False, transcript, meter,
                            session_id=offered_id, resumed=True)
        yield from _exchange_finished(tls, conn, node, cached, transcript, client_first=False)
        return tls

    session_id = rng.getrandbits(128).to_bytes(16, "big")
    hello = struct.pack(">H", len(session_id)) + session_id + server_random + b"\x00"
    _send_message(conn, SERVER_HELLO, hello)
    key_bytes = ctx.keypair.public.to_bytes()
    cert = struct.pack(">H", len(key_bytes)) + key_bytes + b"\x00" * CERT_OVERHEAD
    _send_message(conn, CERTIFICATE, cert)
    _send_message(conn, SERVER_HELLO_DONE, b"")

    mtype, encrypted = yield from _recv_message(conn)
    if mtype != CLIENT_KEY_EXCHANGE:
        raise TlsError(f"expected ClientKeyExchange, got {mtype}")
    meter.charge("asym.decrypt.premaster", cm.rsa_sign(ctx.keypair.public.bits))
    yield from node.cpu_work(cm.rsa_sign(ctx.keypair.public.bits))  # private-key op
    try:
        premaster = Secret(ctx.keypair.decrypt(bytes(encrypted)))
    except RsaError as exc:
        raise TlsError(f"bad ClientKeyExchange: {exc}") from exc

    master = tls_prf(premaster, b"master secret", client_random + server_random, 48)
    ctx.session_cache[session_id] = master
    transcript = client_random + server_random
    tls = TlsConnection(conn, node, master, False, transcript, meter, session_id=session_id)
    yield from _exchange_finished(tls, conn, node, master, transcript, client_first=False)
    return tls


def _exchange_finished(
    tls: TlsConnection,
    conn: TcpConnection,
    node: "Node",
    master: Secret,
    transcript: bytes,
    client_first: bool,
) -> Generator:
    """Exchange and check Finished messages (verify_data both directions)."""
    my_label = b"client finished" if client_first else b"server finished"
    peer_label = b"server finished" if client_first else b"client finished"
    digest = sha256(transcript)
    my_verify = tls_verify_data(master, my_label, digest)
    peer_verify = tls_verify_data(master, peer_label, digest)
    cost = node.cost_model.hmac_cost(64) * 2
    tls.meter.charge("tls.finished", cost)
    yield from node.cpu_work(cost)
    _send_message(conn, FINISHED, my_verify)
    mtype, got = yield from _recv_message(conn)
    if mtype != FINISHED:
        raise TlsError(f"expected Finished, got {mtype}")
    if not ct_equal(bytes(got), peer_verify):
        raise TlsError("Finished verify_data mismatch")
