"""Runtime causality sanitizer for the sharded simulator.

Static rules (ISO*) check the code; this tap checks the *run*.  Installed
into :data:`repro.sim.shard.CAUSALITY_TAPS` (opt-in, normally from the
pytest fixture that the shard suite and tier-1 smoke runs enable), it
threads a logical clock through every shard and asserts the conservative
lookahead contract while the simulation executes:

* **happens-before** — every cross-shard envelope routed at a window
  barrier satisfies ``arrival >= sent_now + lookahead`` (the sender cannot
  influence a remote shard sooner than the shortest boundary delay), and
  every envelope injected into a destination shard lands at
  ``arrival >= now``;
* **kept promises** — no shard hands a packet to a portal before the
  earliest output time it last reported, unless an envelope injected this
  window had already arrived (the reaction case).  Checked at the send, so
  it also finds a promise broken by a packet that happened to land after
  the barrier — a latent violation the coordinator's own
  ``LookaheadError`` check cannot see;
* **monotonic scheduling** — each shard simulator's ``call_later`` /
  ``call_at`` only targets the present or future (the sanitizer wraps the
  two entry points per shard, so a violation names the shard and its local
  clock instead of dying as a bare ``ValueError`` deep in a worker);
* **ownership** — objects are id-tagged to the shard that registered them
  (each shard's ``Simulator`` at registration, packets at portal egress,
  plus anything tagged explicitly with :meth:`CausalitySanitizer.track`);
  scheduling a callback whose receiver, argument or closure belongs to a
  *different* shard is flagged as smuggling.  The only sanctioned transfer
  is the portal itself: :meth:`on_inject` re-tags the packet to the
  destination shard, mirroring ``canonical_envelope`` serialization in the
  forked-worker mode.

Violations raise :class:`CausalityViolation` (an ``AssertionError``) at the
offending call site with the shard id and simulated time in the message;
they are also accumulated on the sanitizer for post-run inspection.  In
``parallel=True`` runs the taps are inherited across the worker fork, so a
shard-side violation raises in the child and surfaces as a ``ShardError``
whose message still carries the shard id and time.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.sim import shard as shard_mod
from repro.sim.engine import _NO_ARG

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.shard import Envelope, Shard, ShardPortal

#: Slack for float round-off when comparing arrival clocks; portal arrival
#: arithmetic is exact float addition, so this only forgives representation
#: error, never a real early delivery.
_EPS = 1e-12
_INF = float("inf")


class CausalityViolation(AssertionError):
    """A shard run broke the happens-before / ownership contract."""


@dataclass
class Violation:
    """One recorded contract breach (also raised unless ``strict=False``)."""

    kind: str  # "late-envelope" | "promise-broken" | "past-schedule" | ...
    shard: str
    time: float
    detail: str

    def __str__(self) -> str:
        return f"[shard {self.shard!r} t={self.time:.9f}] {self.kind}: {self.detail}"


@dataclass
class CausalitySanitizer:
    """Shard-machinery tap; register via :func:`causality_sanitizer`.

    One instance watches every shard built while it is installed.  With
    ``strict=True`` (the default) the first violation raises; with
    ``strict=False`` violations only accumulate in :attr:`violations`,
    which deliberately-broken test scenarios use to assert on the reports.
    """

    strict: bool = True
    shards_seen: int = 0
    envelopes_checked: int = 0
    schedules_checked: int = 0
    windows_checked: int = 0
    digests_checked: int = 0
    violations: list[Violation] = field(default_factory=list)
    #: Last window barrier the coordinator announced via :meth:`on_window`.
    _last_window_end: float = 0.0
    #: Global-order key of the last envelope folded into the digest.
    _last_digest_key: tuple[float, int, int] | None = None
    #: id(obj) -> owning shard name.  Guarded by _live so a recycled id of
    #: a collected object cannot alias an old tag: _live keeps every tagged
    #: object alive for the sanitizer's (test-scoped) lifetime.
    _owner: dict[int, str] = field(default_factory=dict)
    _live: dict[int, Any] = field(default_factory=dict)
    #: shard name -> committed horizon (end of the last finished window).
    _commit: dict[str, float] = field(default_factory=dict)
    #: shard name -> earliest arrival injected for the window in progress.
    _inbound: dict[str, float] = field(default_factory=dict)

    # -- ownership ------------------------------------------------------------
    def track(self, obj: Any, shard_name: str) -> Any:
        """Tag ``obj`` as owned by ``shard_name``; returns ``obj``."""
        self._owner[id(obj)] = shard_name
        self._live[id(obj)] = obj
        return obj

    def owner_of(self, obj: Any) -> str | None:
        return self._owner.get(id(obj))

    # -- recording ------------------------------------------------------------
    def _violate(self, kind: str, shard: str, time: float, detail: str) -> None:
        violation = Violation(kind=kind, shard=shard, time=time, detail=detail)
        self.violations.append(violation)
        if self.strict:
            raise CausalityViolation(str(violation))

    # -- shard hooks (called from repro.sim.shard) -----------------------------
    def on_shard(self, shard: "Shard") -> None:
        """A shard was built: tag its simulator and wrap its timer lane."""
        self.shards_seen += 1
        self.track(shard.sim, shard.name)
        self._commit.setdefault(shard.name, 0.0)
        sim = shard.sim
        orig_later, orig_at = sim.call_later, sim.call_at

        def call_later(delay, fn, arg=_NO_ARG, _shard=shard):
            if delay < 0:
                self._violate(
                    "past-schedule",
                    _shard.name,
                    sim.now,
                    f"call_later({delay!r}) targets t={sim.now + delay} "
                    "behind the shard clock",
                )
            self._check_schedule(_shard, fn, arg)
            return orig_later(delay, fn, arg)

        def call_at(when, fn, arg=_NO_ARG, _shard=shard):
            if when < sim.now:
                self._violate(
                    "past-schedule",
                    _shard.name,
                    sim.now,
                    f"call_at({when!r}) is behind the shard clock",
                )
            self._check_schedule(_shard, fn, arg)
            return orig_at(when, fn, arg)

        # Instance-attribute shadowing: only this shard's simulator is
        # wrapped, and removing the tap never has to unwrap (the Simulator
        # dies with its shard).
        sim.call_later = call_later
        sim.call_at = call_at

    def _check_schedule(self, shard: "Shard", fn: Any, arg: Any) -> None:
        """Flag callbacks that reach into another shard's objects."""
        self.schedules_checked += 1
        suspects = [arg] if arg is not _NO_ARG else []
        receiver = getattr(fn, "__self__", None)
        if receiver is not None:
            suspects.append(receiver)
        closure = getattr(fn, "__closure__", None)
        if closure:
            for cell in closure:
                try:
                    suspects.append(cell.cell_contents)
                except ValueError:  # empty cell (still being bound)
                    pass
        for obj in suspects:
            owner = self._owner.get(id(obj))
            if owner is not None and owner != shard.name:
                self._violate(
                    "smuggled-object",
                    shard.name,
                    shard.sim.now,
                    f"{type(obj).__name__} owned by shard {owner!r} scheduled "
                    f"into shard {shard.name!r} without crossing a portal",
                )

    def on_send(self, shard: "Shard", portal: "ShardPortal", env: "Envelope") -> None:
        """A packet entered a portal: check and tag its ownership."""
        packet = env.packet
        owner = self._owner.get(id(packet))
        if owner is not None and owner != shard.name:
            self._violate(
                "smuggled-object",
                shard.name,
                shard.sim.now,
                f"packet owned by shard {owner!r} sent through portal "
                f"{portal.port_id!r} of shard {shard.name!r}",
            )
        self.track(packet, shard.name)
        if env.arrival < env.sent_now + portal.delay_s - _EPS:
            self._violate(
                "late-envelope",
                shard.name,
                env.sent_now,
                f"portal {portal.port_id!r} computed arrival {env.arrival} "
                f"< send clock {env.sent_now} + link delay {portal.delay_s}",
            )
        inbound = self._inbound.get(shard.name, _INF)
        if env.sent_now < min(shard.eot, inbound) - _EPS:
            self._violate(
                "promise-broken",
                shard.name,
                env.sent_now,
                f"sent through portal {portal.port_id!r} at t={env.sent_now} "
                f"after promising no output before t={shard.eot} (earliest "
                f"inbound arrival this window: {inbound})",
            )

    def on_commit(self, shard: "Shard", window_end: float) -> None:
        """A shard finished a window: advance its committed horizon."""
        self._commit[shard.name] = window_end
        self._inbound.pop(shard.name, None)

    def on_route(self, env: "Envelope", window_end: float, lookahead: float) -> None:
        """The coordinator is routing an envelope at a window barrier."""
        self.envelopes_checked += 1
        if env.sent_now >= 0 and env.arrival < env.sent_now + lookahead - _EPS:
            self._violate(
                "late-envelope",
                env.src_shard,
                env.sent_now,
                f"envelope for {env.port_id!r} arrives at {env.arrival}, "
                f"before send clock {env.sent_now} + lookahead {lookahead}",
            )
        if env.arrival < window_end - _EPS:
            self._violate(
                "late-envelope",
                env.src_shard,
                env.sent_now,
                f"envelope for {env.port_id!r} arrives at {env.arrival}, "
                f"inside the committed window ending {window_end}",
            )

    def on_inject(self, shard: "Shard", env: "Envelope", now: float) -> None:
        """An envelope is landing in its destination shard."""
        if env.arrival < now - _EPS:
            self._violate(
                "late-envelope",
                shard.name,
                now,
                f"envelope from {env.src_shard!r} arrives at {env.arrival}, "
                f"behind shard {shard.name!r}'s clock",
            )
        self._inbound[shard.name] = min(
            env.arrival, self._inbound.get(shard.name, _INF)
        )
        # The portal crossing is the sanctioned ownership transfer: in the
        # forked mode the packet was reborn via pickling, in the inline mode
        # the very same object now belongs to the destination shard.
        self.track(env.packet, shard.name)

    def on_run_start(self, coordinator: Any) -> None:
        """A coordinator is starting a run: its digest stream and window
        schedule begin fresh (one sanitizer may watch several back-to-back
        runs, e.g. inline-vs-process digest comparisons).  Called in the
        parent process regardless of worker mode."""
        self._last_digest_key = None
        self._last_window_end = 0.0

    def on_window(
        self, start: float, end: float, next_hint: float, lookahead: float
    ) -> None:
        """The coordinator scheduled the next (possibly stretched) window.

        Asserts the adaptive-lookahead safety contract: windows advance
        monotonically, and a stretched window never extends past
        ``next_hint + lookahead`` — ``next_hint`` being the earliest instant
        any shard's promised output (or its reaction to a pending envelope)
        could produce a cross-shard consequence.
        """
        self.windows_checked += 1
        if end < start - _EPS:
            self._violate(
                "window-schedule",
                "<coordinator>",
                start,
                f"window end {end} precedes window start {start}",
            )
        limit = max(start, next_hint) + lookahead
        if end > limit + _EPS:
            self._violate(
                "window-schedule",
                "<coordinator>",
                start,
                f"window stretched to {end}, beyond the safe horizon "
                f"max(start={start}, next_output={next_hint}) + "
                f"lookahead {lookahead} = {limit}",
            )
        self._last_window_end = end

    def on_digest(self, env: "Envelope", barrier: float) -> None:
        """An envelope is being folded into the boundary digest.

        Asserts digest schedule-invariance: envelopes enter the digest in
        strictly increasing global ``(arrival, src_index, seq)`` order, and
        only once the barrier clock has passed their arrival — so any
        window schedule (static, adaptive, inline, forked) digests the same
        canonical stream.
        """
        self.digests_checked += 1
        key = (env.arrival, env.src_index, env.seq)
        last = self._last_digest_key
        if last is not None and key <= last:
            self._violate(
                "digest-order",
                env.src_shard,
                env.arrival,
                f"digest key {key} does not follow {last} in global "
                "(arrival, src_index, seq) order",
            )
        if env.arrival > barrier + _EPS:
            self._violate(
                "digest-order",
                env.src_shard,
                env.arrival,
                f"envelope digested at barrier {barrier} before its arrival "
                f"{env.arrival} was committed",
            )
        self._last_digest_key = key

    def describe(self) -> str:
        return (
            f"causality sanitizer: {self.shards_seen} shard(s), "
            f"{self.envelopes_checked} envelope(s), "
            f"{self.schedules_checked} schedule(s), "
            f"{self.windows_checked} window(s), "
            f"{self.digests_checked} digest fold(s) checked, "
            f"{len(self.violations)} violation(s)"
        )


@contextmanager
def causality_sanitizer(strict: bool = True) -> Iterator[CausalitySanitizer]:
    """Install a :class:`CausalitySanitizer` tap for the duration of a block."""
    tap = CausalitySanitizer(strict=strict)
    shard_mod.CAUSALITY_TAPS.append(tap)
    try:
        yield tap
    finally:
        shard_mod.CAUSALITY_TAPS.remove(tap)
