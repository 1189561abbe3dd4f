"""Adaptive puzzle difficulty — HIP's DoS valve (§II-B, §IV-B).

"The BEX also includes a computational puzzle that the server can use to
delay clients when it is under heavy load."  The base daemon serves a fixed
difficulty K; this module adds the *adaptive* behaviour the RFC envisions:
the responder monitors its inbound I1 rate and raises K when the rate (or
its CPU backlog) indicates an attack, pricing initiators out in O(2^K) work
while its own verification cost stays one hash.

Attach with :func:`install_adaptive_puzzle`; the controller re-generates the
precomputed R1 whenever the difficulty moves (R1s are signed, so this is an
off-path signing cost, exactly like rotating HIPL's R1 pool).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.crypto.puzzle import Puzzle
from repro.hip import packets as hp
from repro.hip.identity import asym_cost_for_host_id

if TYPE_CHECKING:  # pragma: no cover
    from repro.hip.daemon import HipDaemon


@dataclass
class AdaptivePuzzlePolicy:
    """Difficulty schedule: K grows with the observed I1 arrival rate."""

    base_k: int = 4
    max_k: int = 24
    window_s: float = 1.0  # rate-measurement window
    calm_rate: float = 10.0  # I1/s considered normal
    k_per_doubling: int = 2  # +K for every doubling of the rate beyond calm

    def difficulty(self, i1_rate: float) -> int:
        if i1_rate <= self.calm_rate:
            return self.base_k
        import math

        doublings = math.log2(i1_rate / self.calm_rate)
        return min(self.max_k, self.base_k + int(doublings * self.k_per_doubling))


class AdaptivePuzzleController:
    """Watches I1 arrivals and retunes the daemon's served puzzle."""

    def __init__(self, daemon: "HipDaemon",
                 policy: AdaptivePuzzlePolicy | None = None) -> None:
        self.daemon = daemon
        self.policy = policy or AdaptivePuzzlePolicy()
        self._arrivals: deque[float] = deque()
        self.current_k = self.policy.base_k
        self.escalations = 0
        self.r1_regenerations = 0
        self._retune(self.policy.base_k)
        self._hook()

    # -- wiring ---------------------------------------------------------------
    def _hook(self) -> None:
        original_i1 = self.daemon._handle_i1

        def handle_i1(i1: hp.HipPacket, ip) -> Generator:
            self._observe()
            yield from original_i1(i1, ip)

        self.daemon._handle_i1 = handle_i1  # type: ignore[method-assign]

    # -- rate sensing -----------------------------------------------------------
    def _observe(self) -> None:
        now = self.daemon.sim.now
        self._arrivals.append(now)
        cutoff = now - self.policy.window_s
        while self._arrivals and self._arrivals[0] < cutoff:
            self._arrivals.popleft()
        rate = len(self._arrivals) / self.policy.window_s
        wanted = self.policy.difficulty(rate)
        if wanted != self.current_k:
            if wanted > self.current_k:
                self.escalations += 1
            self._retune(wanted)

    def _retune(self, k: int) -> None:
        """Regenerate the (signed) R1 with the new difficulty."""
        daemon = self.daemon
        self.current_k = k
        daemon._puzzle = Puzzle.fresh(k, daemon.rng)
        daemon.config.puzzle_k = k
        daemon._r1_template = self._rebuild_r1()
        self.r1_regenerations += 1

    def _rebuild_r1(self) -> hp.HipPacket:
        daemon = self.daemon
        from repro.crypto.dh import MODP_GROUPS
        from repro.net.addresses import IPAddress

        r1 = hp.HipPacket(
            packet_type=hp.R1, sender_hit=daemon.hit, receiver_hit=IPAddress(6, 0),
        )
        r1.add(hp.PUZZLE, hp.build_puzzle(daemon._puzzle.k, 6, 0, daemon._puzzle.i))
        r1.add(hp.DIFFIE_HELLMAN,
               hp.build_dh(daemon.config.dh_group, daemon._responder_dh.public_bytes()))
        r1.add(hp.HIP_TRANSFORM, hp.build_transform([hp.SUITE_AES_CBC_HMAC_SHA1]))
        r1.add(hp.HOST_ID, hp.build_host_id(daemon.identity.public_key_bytes))
        signature = daemon.identity.sign(
            r1.bytes_for_param(hp.HIP_SIGNATURE), daemon.rng
        )
        r1.add(hp.HIP_SIGNATURE, signature)
        daemon.meter.charge(
            "asym.sign.r1",
            asym_cost_for_host_id(daemon.identity.public_key, "sign", daemon.node.cost_model),
        )
        return r1


def install_adaptive_puzzle(
    daemon: "HipDaemon", policy: AdaptivePuzzlePolicy | None = None
) -> AdaptivePuzzleController:
    """Enable adaptive puzzle difficulty on a daemon; returns the controller."""
    return AdaptivePuzzleController(daemon, policy)
