"""Prime search and RSA key generation against the sequential oracle.

:func:`repro.crypto.numtheory.random_prime` runs its Miller–Rabin rounds in
speculative batches, inline or shared with forked helper processes.  These
tests hold both transports to the sequential search kept in
``tests/oracles/crypto_reference.py``: the same primes, the same keys and the
same rng state afterwards, so every HIT, puzzle and digest stays put.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.crypto import numtheory, rsa
from repro.crypto.numtheory import _Pool, _passes, _search, _trial_division
from repro.crypto.rsa import RsaKeyPair
from tests.oracles.crypto_reference import random_prime_ref

SEEDS = range(20)

#: 2251 * 11251: 25 bits with the top two set, no factor below 1000, and a
#: strong pseudoprime to bases 2, 3 and 5 but not 7.
PSEUDOPRIME = 25_326_001


@pytest.fixture(scope="module")
def helper_pool():
    pool = _Pool(1)
    yield pool
    pool.close()


@pytest.fixture
def pools(helper_pool):
    return {"inline": _Pool(), "helper": helper_pool}


@pytest.fixture
def pool(pools, request):
    return pools[request.param]


def reference_key(bits: int, rng: random.Random, monkeypatch) -> RsaKeyPair:
    with monkeypatch.context() as patch:
        patch.setattr(rsa, "random_prime", random_prime_ref)
        return RsaKeyPair.generate(bits, rng)


@pytest.mark.parametrize(
    "bits, seeds",
    [(8, SEEDS), (10, SEEDS), (16, SEEDS), (64, SEEDS), (256, SEEDS),
     (512, SEEDS), (1024, range(3))],
    ids=["8", "10", "16", "64", "256", "512", "1024"],
)
def test_same_primes_and_rng_state_as_the_sequential_search(pools, bits, seeds):
    for seed in seeds:
        ref = random.Random(seed)
        prime = random_prime_ref(bits, ref)
        for name, pool in pools.items():
            ours = random.Random(seed)
            assert _search(bits, ours, pool) == prime, (name, seed)
            assert ours.getstate() == ref.getstate(), (name, seed)


@pytest.mark.parametrize(
    "bits, seeds", [(128, SEEDS), (512, SEEDS), (1024, range(3))],
    ids=["128", "512", "1024"],
)
def test_same_rsa_keys_as_the_sequential_search(pools, monkeypatch, bits, seeds):
    # "detected": the pool random_prime picks from the candidate's size and
    # this host's CPUs (inline when the tests run pinned to one CPU).
    for seed in seeds:
        ref = random.Random(seed)
        key = reference_key(bits, ref, monkeypatch)
        for name, pool in [*pools.items(), ("detected", None)]:
            with monkeypatch.context() as patch:
                if pool is not None:
                    patch.setattr(numtheory, "_pool_for", lambda _bits: pool)
                ours = random.Random(seed)
                assert RsaKeyPair.generate(bits, ours) == key, (name, seed)
            assert ours.getstate() == ref.getstate(), (name, seed)


class ScriptedRandom(random.Random):
    """A seeded Random whose first ``getrandbits`` and ``randrange`` results
    are scripted.  The unread script is part of its state, so ``setstate``
    rewinds it; ``rewinds`` counts the calls."""

    def __init__(self, seed: int, bits: list[int], bases: list[int]) -> None:
        super().__init__(seed)
        self.bits, self.bases, self.rewinds = list(bits), list(bases), 0

    def getrandbits(self, k: int) -> int:
        return self.bits.pop(0) if self.bits else super().getrandbits(k)

    def randrange(self, start: int, stop: int) -> int:
        return self.bases.pop(0) if self.bases else super().randrange(start, stop)

    def getstate(self):
        return tuple(self.bits), tuple(self.bases), super().getstate()

    def setstate(self, state) -> None:
        bits, bases, inner = state
        self.bits, self.bases = list(bits), list(bases)
        self.rewinds += 1
        super().setstate(inner)


@pytest.mark.parametrize("pool", ["inline", "helper"], indirect=True)
@pytest.mark.parametrize("bases", [[2], [2, 3, 5, 7]])
def test_a_round_one_pass_that_fails_later_rewinds_the_rng(pool, bases):
    assert 2251 * 11251 == PSEUDOPRIME and PSEUDOPRIME.bit_length() == 25
    assert PSEUDOPRIME >> 23 == 0b11 and _trial_division(PSEUDOPRIME) is None
    assert [_passes(PSEUDOPRIME, a) for a in (2, 3, 5, 7)] == [True, True, True, False]
    ours = ScriptedRandom(11, [PSEUDOPRIME], bases)
    ref = ScriptedRandom(11, [PSEUDOPRIME], bases)
    assert _search(25, ours, pool) == random_prime_ref(25, ref)
    assert ours.getstate() == ref.getstate()
    assert ours.rewinds >= 1  # the failed later round put the rng back


def test_a_forked_child_never_uses_its_parents_helper(helper_pool, monkeypatch):
    parent_helpers = set(helper_pool.pids)
    calls = []  # (caller pid, pool owner pid, pool helper pids) per batch
    verdicts = helper_pool.verdicts

    def spy(tasks):
        calls.append((os.getpid(), helper_pool.pid, set(helper_pool.pids)))
        return verdicts(tasks)

    monkeypatch.setattr(helper_pool, "verdicts", spy)
    monkeypatch.setattr(numtheory, "_HELPERS", helper_pool)
    expected = reference_key(512, random.Random(3), monkeypatch).public.n
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:  # pragma: no cover - runs in the forked child
        status = 1
        try:
            os.close(read_end)
            key = RsaKeyPair.generate(512, random.Random(3))
            mine = [c for c in calls if c[0] == os.getpid()]
            clean = all(
                owner == os.getpid() and not helpers & parent_helpers
                for _, owner, helpers in mine
            )
            os.write(write_end, f"{key.public.n} {len(mine)} {int(clean)}".encode())
            helper_pool.close()  # the child's own helpers, if it forked any
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        report = reader.read().split()
    _, status = os.waitpid(child, 0)
    assert status == 0
    n, batches, clean = (int(x) for x in report)
    assert n == expected
    assert batches > 0 and clean == 1
    # The parent's helper is alive and its pipes are still in step.
    assert set(helper_pool.pids) == parent_helpers
    ours, ref = random.Random(4), random.Random(4)
    assert _search(256, ours, helper_pool) == random_prime_ref(256, ref)


def test_a_dead_helper_is_dropped_and_its_batch_recomputed():
    pool = _Pool(1)
    try:
        os.kill(pool.pids[0], signal.SIGKILL)
        ours, ref = random.Random(8), random.Random(8)
        assert _search(256, ours, pool) == random_prime_ref(256, ref)
        assert ours.getstate() == ref.getstate()
        assert pool.pids == []
    finally:
        pool.close()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_a_process_that_generated_a_key_leaves_no_helper_behind():
    script = (
        "import os, random\n"
        "from repro.crypto import numtheory\n"
        "from repro.crypto.rsa import RsaKeyPair\n"
        "if len(os.sched_getaffinity(0)) == 1:  # no helper of its own\n"
        "    numtheory._HELPERS.grow(1)\n"
        "RsaKeyPair.generate(512, random.Random(5))\n"
        "print(*numtheory._HELPERS.pids)\n"
    )
    src = str(Path(numtheory.__file__).resolve().parents[2])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    pids = [int(pid) for pid in done.stdout.split()]
    assert pids
    deadline = time.monotonic() + 10
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(_alive(pid) for pid in pids)
