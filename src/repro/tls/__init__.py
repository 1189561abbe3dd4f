"""OpenVPN-style SSL tunnels ("SSL" in the paper's terminology).

The paper compares HIP against OpenVPN, which uses OpenSSL (§V-A).
:mod:`repro.tls.vpn` models that tunnel: an RSA key-transport handshake
keys it once per peer pair, then every IP packet to a tunnel address pays
the TLS record cost.  The record transform's symmetric algorithms
(AES-CBC + HMAC-SHA1) are the same as our ESP transform's, because the
paper's central performance claim is that HIP and SSL cost the same once
the key exchange is done.  The VPN data plane charges cost-model time and
does not cipher the bytes.
"""
