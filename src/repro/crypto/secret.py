"""Key material as a value that cannot leave by accident.

The paper's case for HIP and SSL in a shared cloud is that a co-resident
tenant never sees key material.  That promise is only as good as the
discipline keeping keys out of traces, metrics, exception messages and
reprs.  :class:`Secret` makes the discipline structural: the key sources
(DH, KEYMAT, the TLS PRF, premasters) return one, the consumers
(:class:`~repro.crypto.aes.AES`, :class:`~repro.crypto.hmac_kdf.HmacKey`,
RSA key transport and the KDFs) accept one and reveal it once at
construction, and everything in between only carries it.

Every implicit way out is refused with a ``TypeError`` (a ``raise``, never an
``assert``, so ``python -O`` keeps the refusals):

* ``repr``/``str``/``format`` print ``Secret(<N bytes>)``;
* ``==``, ``!=`` and ``hash`` — compare revealed bytes with
  :func:`repro.crypto.hmac_kdf.ct_equal`, which does not short-circuit;
* pickling and copying, ``bytes(s)``, iteration and integer indexing.

What key splitting needs stays: ``len``, slicing (a ``Secret``) and
``secret + bytes`` (a ``Secret``).  :meth:`Secret.reveal` is the one exit,
and only ``repro.crypto`` calls it (``tests/test_secret.py`` checks).
"""

from __future__ import annotations


_HINT = "use .reveal() inside repro.crypto, and ct_equal to compare"


def _refuse(what: str):
    def refuse(self, *args, **kwargs):
        raise TypeError(f"Secret refuses {what}; {_HINT}")

    return refuse


class Secret:
    """Key bytes whose only exit is :meth:`reveal`."""

    __slots__ = ("_b",)

    def __init__(self, b: bytes) -> None:
        if not isinstance(b, bytes):
            raise TypeError(f"Secret wraps bytes, not {type(b).__name__}")
        self._b = b

    def reveal(self) -> bytes:
        """The key bytes: for the crypto primitives that consume them."""
        return self._b

    def __len__(self) -> int:
        return len(self._b)

    def __getitem__(self, index: slice) -> "Secret":
        if not isinstance(index, slice):
            raise TypeError(f"Secret refuses integer indexing; {_HINT}")
        return Secret(self._b[index])

    def __add__(self, other: bytes) -> "Secret":
        if not isinstance(other, bytes):
            return NotImplemented
        return Secret(self._b + other)

    def __repr__(self) -> str:
        return f"Secret(<{len(self._b)} bytes>)"

    __str__ = __repr__

    def __format__(self, spec: str) -> str:
        return repr(self)

    __iter__ = None
    __eq__ = _refuse("==")
    __ne__ = _refuse("!=")
    __hash__ = _refuse("hashing")
    __bytes__ = _refuse("bytes()")
    __reduce_ex__ = __reduce__ = __getstate__ = _refuse("pickling and copying")
