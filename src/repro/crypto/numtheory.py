"""Number-theoretic primitives: gcd, modular inverse, primality, prime search.

All asymmetric algorithms in this package (RSA, classic DH, ECDSA) sit on
these few functions.  Primality testing uses deterministic small-prime trial
division followed by Miller–Rabin with enough rounds for a < 2^-128 error
bound on random candidates.

Prime search is most of RSA key generation, and nearly all of it is the
``pow`` inside Miller–Rabin.  :func:`random_prime` returns the prime, and
leaves the caller's rng in the state, of the sequential search — draw a
candidate; if it survives trial division, draw one base per round and stop
at the first round it fails — but computes the rounds in batches:

* each trial-division survivor draws its first base and saves
  ``rng.getstate()`` (when a later candidate is drawn: the last survivor's
  state is still the rng's own); round 1 runs over a batch of survivors,
  one per process;
* the first survivor that passes is resumed from its saved state to draw
  its 39 further bases, and those rounds run as a second batch;
* if round *r* fails, the rng is put back to that state and redraws the
  bases of rounds 2..*r*, so it ends where the sequential loop ends.

Every draw the search keeps is one the sequential loop makes, in the same
order, so the primes (hence RSA keys, HITs, puzzles and every digest) do not
depend on how a batch is computed.  A batch is split between the calling
process and forked helper processes, one per extra CPU in the affinity mask,
which compute only pure ``pow`` verdicts and exit with the interpreter
that forked them; on one CPU, and for candidates below
``_HELPER_MIN_BITS``, every round runs in the calling process.
"""

from __future__ import annotations

# atexit and marshal are interpreter builtins and `random` imports os, so
# these imports load no module the package did not load before.
import atexit
import marshal
import os
import random

# Primes below 1000 for cheap trial division before Miller-Rabin.
_SMALL_PRIMES: tuple[int, ...] = tuple(
    p
    for p in range(2, 1000)
    if all(p % q for q in range(2, int(p**0.5) + 1))
)

#: Miller–Rabin rounds per candidate that survives trial division.
_ROUNDS = 40

#: Candidates of this size and up share their rounds with helper processes.
#: Measured per prime on a 2-vCPU host: 128-bit 3.1 -> 2.5 ms (6 of 8 runs
#: faster), 256-bit 13.3 -> 9.6 ms (8 of 8), 512-bit 100 -> 51 ms (8 of 8).
_HELPER_MIN_BITS = 256

#: Non-blocking reads a process tries on a pipe, yielding the CPU between
#: tries (about 6 ms in all), before it blocks: a process blocked on an idle
#: vCPU took up to 9 ms to wake (median 0.11 ms), more than a 512-bit round
#: (~1.2 ms), while a batch is ready well inside the spin.
_SPINS = 2000


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y == g == gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` mod ``m``; raises ValueError if not coprime."""
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} has no inverse modulo {m} (gcd={g})")
    return x % m


def _trial_division(n: int) -> bool | None:
    """True for a prime below 1000, False for a number below 2 or with a
    factor below 1000, None when Miller–Rabin must decide."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return None


def _passes(n: int, a: int) -> bool:
    """One Miller–Rabin round: is odd ``n`` a strong probable prime to base ``a``?"""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rounds: int = _ROUNDS, *, rng: random.Random) -> bool:
    """Miller–Rabin primality test with trial division prefilter.

    Each round draws its base as ``rng.randrange(2, n - 1)``; the test stops
    at the first round that fails.
    """
    known = _trial_division(n)
    if known is not None:
        return known
    return all(_passes(n, rng.randrange(2, n - 1)) for _ in range(rounds))


def random_prime(bits: int, rng: random.Random) -> int:
    """Random prime of exactly ``bits`` bits (top two bits set, odd).

    Setting the top two bits guarantees the product of two such primes has
    exactly ``2*bits`` bits, which RSA key generation relies on.  The prime
    and the rng's end state are those of testing one candidate after
    another with :func:`is_probable_prime` (see the module docstring).
    """
    if bits < 8:
        raise ValueError("prime size too small to be meaningful")
    return _search(bits, rng, _pool_for(bits))


def _search(bits: int, rng: random.Random, pool: _Pool) -> int:
    """:func:`random_prime`'s search, with its rounds computed on ``pool``."""
    top = (1 << (bits - 1)) | (1 << (bits - 2)) | 1
    while True:
        # The next trial-division survivors as [n, first base, rng state
        # after that base]; the state is taken only if another candidate is
        # drawn after it.  A prime below 1000 has no base and ends the
        # batch: the sequential loop returns it without a round.
        batch: list[list] = []
        while len(batch) < pool.width:
            if batch and batch[-1][2] is None:
                batch[-1][2] = rng.getstate()
            n = rng.getrandbits(bits) | top
            known = _trial_division(n)
            if known is False:
                continue
            batch.append([n, None if known else rng.randrange(2, n - 1), None])
            if known:
                break
        verdicts = iter(pool.verdicts([(n, a) for n, a, _ in batch if a is not None]))
        for n, base, state in batch:
            if base is None or next(verdicts):
                break
        else:
            continue  # all failed round 1, with the rng past their first bases
        if state is None:  # the batch's last: the rng is still past its base
            state = rng.getstate()
        else:
            rng.setstate(state)
        if base is None:
            return n
        passed = pool.verdicts(
            [(n, rng.randrange(2, n - 1)) for _ in range(_ROUNDS - 1)]
        )
        if all(passed):
            return n
        rng.setstate(state)
        for _ in range(passed.index(False) + 1):  # rounds 2..r, r the first failed
            rng.randrange(2, n - 1)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytes:
    """``size`` bytes from non-blocking ``fd``, or fewer if it reaches EOF
    first.  Tries ``_SPINS`` times, yielding the CPU between tries, before
    it blocks."""
    data = b""
    spins = _SPINS
    while len(data) < size:
        try:
            chunk = os.read(fd, size - len(data))
        except BlockingIOError:
            if spins:
                spins -= 1
                os.sched_yield()
                continue
            os.set_blocking(fd, True)
            try:
                chunk = os.read(fd, size - len(data))
            finally:
                os.set_blocking(fd, False)
        if not chunk:
            break
        data += chunk
    return data


def _serve(requests: int, replies: int) -> None:
    """A helper's life: answer batches of ``(n, base)`` rounds with one
    verdict byte each, until EOF or a zero-length request."""
    # Hold no other descriptor of the parent's: a pipe kept open here would
    # keep its reader from ever seeing EOF.
    low, high = sorted((requests, replies))
    os.closerange(3, low)
    os.closerange(low + 1, high)
    os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
    os.set_blocking(requests, False)
    while True:
        head = _read(requests, 4)
        size = int.from_bytes(head, "big")
        if len(head) < 4 or not size:
            return
        tasks = marshal.loads(_read(requests, size))
        _write(replies, bytes(_passes(n, a) for n, a in tasks))


def _fork_helper() -> tuple[int, int, int]:
    """Fork one helper: (pid, request fd, reply fd)."""
    req_r, req_w = os.pipe()
    rep_r, rep_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (req_r, req_w, rep_r, rep_w):
            os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            _serve(req_r, rep_w)
            status = 0
        finally:
            os._exit(status)  # never return into the parent's stack
    os.close(req_r)
    os.close(rep_w)
    os.set_blocking(rep_r, False)
    return pid, req_w, rep_r


class _Pool:
    """The calling process plus forked helper processes, computing a batch
    of Miller–Rabin rounds between them; with no helpers, all inline.

    Helpers live until :meth:`close`, which runs when the interpreter that
    forked them exits.  A forked child of that process never uses or stops
    them: its first :meth:`grow` forks helpers of its own.  One batch at a
    time: the program searches from one thread.
    """

    def __init__(self, helpers: int = 0) -> None:
        self.pid = os.getpid()
        self._links: list[tuple[int, int, int]] = []
        self.grow(helpers)

    @property
    def width(self) -> int:
        """Processes sharing a batch; round 1 takes one survivor each."""
        return 1 + len(self._links)

    @property
    def pids(self) -> list[int]:
        return [pid for pid, _, _ in self._links]

    def grow(self, helpers: int) -> None:
        """Fork helpers until this process has ``helpers`` of them (fewer if
        the system refuses a fork)."""
        if self.pid != os.getpid():  # a forked child: the links are its parent's
            for _, request, reply in self._links:
                os.close(request)
                os.close(reply)
            self.pid, self._links = os.getpid(), []
        if len(self._links) >= helpers:
            return
        try:
            while len(self._links) < helpers:
                self._links.append(_fork_helper())
        except OSError:
            pass  # compute with the helpers there are
        if self._links:
            atexit.register(self.close)

    def verdicts(self, tasks: list[tuple[int, int]]) -> list[bool]:
        """``_passes(n, a)`` for each ``(n, a)``: every ``width``-th task
        from the first here, the rest in the helpers."""
        width = self.width
        out = [False] * len(tasks)
        try:
            sent = []
            for i, (_, request, reply) in enumerate(self._links, 1):
                share = tasks[i::width]
                if share:
                    body = marshal.dumps(share)
                    _write(request, len(body).to_bytes(4, "big") + body)
                    sent.append((i, reply, len(share)))
            out[::width] = [_passes(n, a) for n, a in tasks[::width]]
            for i, reply, count in sent:
                answer = _read(reply, count)
                if len(answer) != count:
                    raise EOFError("helper closed its pipe")
                out[i::width] = map(bool, answer)
        except (OSError, EOFError):  # a helper died: finish without helpers
            self.close()
            return self.verdicts(tasks)
        except BaseException:  # replies may be left in the pipes: stop them
            self.close()
            raise
        return out

    def close(self) -> None:
        """Stop and reap the helpers (idempotent; a no-op in a forked child)."""
        if self.pid != os.getpid():
            return
        links, self._links = self._links, []
        for pid, request, reply in links:
            try:
                _write(request, bytes(4))  # a zero-length request: exit
            except OSError:
                pass  # the helper is gone already
            os.close(request)
            os.close(reply)
            os.waitpid(pid, 0)


#: Every round in the calling process.
_INLINE = _Pool()

#: This process's helpers: none until the first search that wants them.
_HELPERS = _Pool()


def _pool_for(bits: int) -> _Pool:
    """Where a ``bits``-bit search computes its rounds: with one helper per
    extra CPU from ``_HELPER_MIN_BITS`` up, else inline."""
    if bits < _HELPER_MIN_BITS or not hasattr(os, "sched_getaffinity"):
        return _INLINE
    _HELPERS.grow(len(os.sched_getaffinity(0)) - 1)
    return _HELPERS


def random_safe_prime(bits: int, rng: random.Random) -> int:
    """Random safe prime p (p and (p-1)/2 both prime).  Slow; small bits only."""
    while True:
        q = random_prime(bits - 1, rng)
        p = 2 * q + 1
        if is_probable_prime(p, rng=rng):
            return p


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Chinese remainder for two coprime moduli: x ≡ r1 (m1), x ≡ r2 (m2)."""
    g, x, _ = egcd(m1, m2)
    if g != 1:
        raise ValueError("moduli not coprime")
    return (r1 + (r2 - r1) * x % m2 * m1) % (m1 * m2)


def int_to_bytes(n: int, length: int | None = None) -> bytes:
    """Big-endian byte encoding; minimal length unless ``length`` given."""
    if n < 0:
        raise ValueError("negative integers are not encodable")
    if length is None:
        length = max(1, (n.bit_length() + 7) // 8)
    return n.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    return int.from_bytes(data, "big")
