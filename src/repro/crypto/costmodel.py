"""CPU cost model for cryptographic primitives.

The reproduction runs real crypto on real bytes, but pure-Python big-int
arithmetic is orders of magnitude slower than the C stacks (HIPL, OpenSSL)
the paper measured.  To keep the *measured shapes* faithful, protocol engines
charge simulated CPU seconds per primitive from this table instead of wall
time.  Defaults approximate ``openssl speed`` on a single ~2.5 GHz 2012-era
Xeon core (the hardware class behind EC2 "compute units"); instance types
scale them by their CPU share (an EC2 micro burns the same cycles but gets a
fraction of a core under load).

The table is an input, never measured here: timing this package's own
Python would say nothing about the C stacks the paper ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostModel:
    """Per-primitive CPU costs in seconds on one reference core."""

    # Asymmetric, per operation (1024/2048-bit RSA; 1536-bit DH baseline).
    rsa_sign_1024: float = 6.0e-4
    rsa_verify_1024: float = 3.0e-5
    rsa_sign_2048: float = 4.0e-3
    rsa_verify_2048: float = 1.2e-4
    dh_modexp_1536: float = 1.3e-3  # one modular exponentiation
    ecdsa_sign_p256: float = 2.5e-4
    ecdsa_verify_p256: float = 1.0e-3
    ecdh_p256: float = 9.0e-4

    # Symmetric, per byte.
    aes128_per_byte: float = 9.0e-9  # ~110 MB/s
    sha1_per_byte: float = 3.3e-9  # ~300 MB/s
    sha256_per_byte: float = 6.6e-9  # ~150 MB/s

    # Fixed per-message overheads.
    hash_fixed: float = 5.0e-7  # one compression-function call + dispatch
    hmac_fixed: float = 1.5e-6  # two extra hash invocations

    # Packet-path processing costs.  These model the *deployed* stacks the
    # paper measured, not idealized kernels: HIPL's BEET ESP and LSI/HIT
    # translation run partly in userspace (hipd), and Teredo's data path is
    # the miredo userspace daemon — per-packet costs are tens to hundreds of
    # microseconds, which is what separates the Figure-3 RTT bars.
    esp_encap_fixed: float = 1.4e-5  # SPI lookup, seq++, BEET header build
    esp_decap_fixed: float = 1.4e-5
    tls_record_fixed: float = 2.4e-5  # OpenVPN-style userspace record + tun hop
    lsi_translation: float = 1.4e-5  # IPv4 LSI <-> HIT rewrite per packet
    hit_translation: float = 4.0e-6  # HIT <-> locator mapping per packet
    teredo_encap: float = 1.5e-4  # userspace (miredo) IPv6-in-UDP-in-IPv4 per packet

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with every cost multiplied by ``factor``.

        Used for slower/faster CPUs: EC2 micro ≈ 1/ (its CPU share) of the
        reference core when throttled.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        fields = {name: getattr(self, name) * factor for name in self.__dataclass_fields__}
        return CostModel(**fields)

    # -- derived helpers --------------------------------------------------------
    def rsa_sign(self, bits: int) -> float:
        """Interpolate RSA signing cost: private-key ops scale ~cubically."""
        return self.rsa_sign_1024 * (bits / 1024.0) ** 3

    def rsa_verify(self, bits: int) -> float:
        """RSA verification scales ~quadratically (small fixed exponent)."""
        return self.rsa_verify_1024 * (bits / 1024.0) ** 2

    def dh_modexp(self, bits: int) -> float:
        return self.dh_modexp_1536 * (bits / 1536.0) ** 3

    def hash_cost(self, n_bytes: int, alg: str = "sha1") -> float:
        per_byte = self.sha1_per_byte if alg == "sha1" else self.sha256_per_byte
        return self.hash_fixed + per_byte * n_bytes

    def hmac_cost(self, n_bytes: int, alg: str = "sha256") -> float:
        return self.hmac_fixed + self.hash_cost(n_bytes, alg)

    def aes_cost(self, n_bytes: int) -> float:
        return self.aes128_per_byte * n_bytes

    def esp_encrypt_cost(self, payload_bytes: int) -> float:
        """ESP transform: AES-CBC + HMAC-SHA1 over the payload + fixed encap.

        ``aes_cost`` and ``hmac_cost(..., "sha1")`` spelled out, with the
        same float operations in the same order: this runs once per packet.
        """
        return self.esp_encap_fixed + self.aes128_per_byte * payload_bytes + (
            self.hmac_fixed + (self.hash_fixed + self.sha1_per_byte * payload_bytes)
        )

    def esp_decrypt_cost(self, payload_bytes: int) -> float:
        return self.esp_decap_fixed + self.aes128_per_byte * payload_bytes + (
            self.hmac_fixed + (self.hash_fixed + self.sha1_per_byte * payload_bytes)
        )

    def tls_record_cost(self, payload_bytes: int) -> float:
        """TLS record protection uses the same AES-CBC + HMAC algorithms."""
        return (
            self.tls_record_fixed
            + self.aes_cost(payload_bytes)
            + self.hmac_cost(payload_bytes, "sha1")
        )

    def puzzle_solve_cost(self, k: int, attempts: int | None = None) -> float:
        """Cost of solving a difficulty-K puzzle.

        If the actual attempt count is known (from :func:`solve_puzzle`), use
        it; otherwise charge the 2^K expectation.  Each attempt hashes
        I | HIT-I | HIT-R | J = 8 + 16 + 16 + 8 = 48 bytes.
        """
        n = attempts if attempts is not None else (1 << k)
        return n * self.hash_cost(48, "sha1")

    def puzzle_verify_cost(self) -> float:
        return self.hash_cost(48, "sha1")


@dataclass
class CryptoMeter:
    """Tallies crypto operations and their charged CPU seconds.

    Every protocol engine (HIP, TLS, ESP) owns a meter; experiment harnesses
    read them to report asymmetric-vs-symmetric cost splits (the §IV-B
    ablation).
    """

    ops: dict[str, int] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)

    def charge(self, kind: str, cost: float, count: int = 1) -> float:
        """Record ``count`` ops of ``kind`` costing ``cost`` seconds total."""
        if cost < 0:
            raise ValueError("negative cost")
        self.ops[kind] = self.ops.get(kind, 0) + count
        self.seconds[kind] = self.seconds.get(kind, 0.0) + cost
        return cost

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def total_ops(self, prefix: str = "") -> int:
        return sum(v for k, v in self.ops.items() if k.startswith(prefix))

    def seconds_by(self, prefix: str) -> float:
        return sum(v for k, v in self.seconds.items() if k.startswith(prefix))

    def merged(self, other: "CryptoMeter") -> "CryptoMeter":
        out = CryptoMeter(dict(self.ops), dict(self.seconds))
        for k, v in other.ops.items():
            out.ops[k] = out.ops.get(k, 0) + v
        for k, v in other.seconds.items():
            out.seconds[k] = out.seconds.get(k, 0.0) + v
        return out
