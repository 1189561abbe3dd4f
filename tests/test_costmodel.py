"""Cost-model and crypto-meter tests."""

import pytest

from repro.crypto.costmodel import CostModel, CryptoMeter


class TestCostModel:
    def test_rsa_scaling_laws(self):
        cm = CostModel()
        # Private ops ~cubic, public ~quadratic in modulus size.
        assert cm.rsa_sign(2048) == pytest.approx(cm.rsa_sign_1024 * 8)
        assert cm.rsa_verify(2048) == pytest.approx(cm.rsa_verify_1024 * 4)
        assert cm.dh_modexp(3072) == pytest.approx(cm.dh_modexp_1536 * 8)

    def test_sign_much_more_expensive_than_verify(self):
        cm = CostModel()
        assert cm.rsa_sign(1024) > 5 * cm.rsa_verify(1024)

    def test_esp_cost_monotone_in_bytes(self):
        cm = CostModel()
        assert cm.esp_encrypt_cost(1500) > cm.esp_encrypt_cost(100)
        assert cm.esp_decrypt_cost(0) >= cm.esp_decap_fixed

    def test_tls_and_esp_share_symmetric_costs(self):
        """Structural parity behind the paper's HIP~SSL claim."""
        cm = CostModel()
        esp = cm.esp_encrypt_cost(1400) - cm.esp_encap_fixed
        tls = cm.tls_record_cost(1400) - cm.tls_record_fixed
        assert esp == pytest.approx(tls, rel=0.01)

    def test_scaled(self):
        cm = CostModel().scaled(2.0)
        assert cm.rsa_sign_1024 == CostModel().rsa_sign_1024 * 2
        assert cm.aes128_per_byte == CostModel().aes128_per_byte * 2
        with pytest.raises(ValueError):
            CostModel().scaled(0)

    def test_puzzle_costs(self):
        cm = CostModel()
        assert cm.puzzle_solve_cost(10) == pytest.approx(
            1024 * cm.hash_cost(48, "sha1")
        )
        assert cm.puzzle_solve_cost(10, attempts=3) == pytest.approx(
            3 * cm.hash_cost(48, "sha1")
        )
        assert cm.puzzle_verify_cost() == pytest.approx(cm.hash_cost(48, "sha1"))

    def test_hash_alg_selection(self):
        cm = CostModel()
        assert cm.hash_cost(1000, "sha256") > cm.hash_cost(1000, "sha1")

    def test_calibrate_produces_self_consistent_model(self):
        cm = CostModel.calibrate()
        # Live timings (pure-Python RSA/AES, hashlib SHA): relative ordering
        # must hold.  Opt-in only: the default constants never read them.
        assert cm.rsa_sign_1024 > cm.rsa_verify_1024
        assert cm.rsa_sign_2048 > cm.rsa_sign_1024
        assert cm.aes128_per_byte > 0
        assert cm.sha1_per_byte > 0


class TestCryptoMeter:
    def test_charge_accumulates(self):
        meter = CryptoMeter()
        meter.charge("asym.sign", 0.5)
        meter.charge("asym.sign", 0.25)
        meter.charge("sym.aes", 0.1, count=10)
        assert meter.ops == {"asym.sign": 2, "sym.aes": 10}
        assert meter.seconds["asym.sign"] == pytest.approx(0.75)
        assert meter.total_seconds == pytest.approx(0.85)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CryptoMeter().charge("x", -1.0)

    def test_prefix_queries(self):
        meter = CryptoMeter()
        meter.charge("asym.sign.i2", 1.0)
        meter.charge("asym.verify.r2", 2.0)
        meter.charge("esp.encrypt", 0.5)
        assert meter.total_ops("asym.") == 2
        assert meter.seconds_by("asym.") == pytest.approx(3.0)
        assert meter.seconds_by("esp.") == pytest.approx(0.5)

    def test_merged(self):
        m1, m2 = CryptoMeter(), CryptoMeter()
        m1.charge("a", 1.0)
        m2.charge("a", 2.0)
        m2.charge("b", 3.0)
        merged = m1.merged(m2)
        assert merged.seconds["a"] == pytest.approx(3.0)
        assert merged.seconds["b"] == pytest.approx(3.0)
        # Originals untouched.
        assert m1.seconds["a"] == 1.0
