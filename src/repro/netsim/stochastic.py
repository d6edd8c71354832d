"""Stable, keyed pseudo-randomness for the simulation.

Behaviour that must be *reproducible across processes* (flaky-subnet
availability, background ICMP load windows, packet loss, reply-source
flips) cannot use Python's salted ``hash()`` or shared ``random.Random``
state — re-running a scan would see a different world.  Instead every
stochastic decision is a pure function of ``(world seed, purpose label,
entity keys...)`` via a keyed BLAKE2 digest.

Hot-path note: constructing a *keyed* BLAKE2b runs the key schedule (a
full compression of the padded key block) on every call, which dominated
the probe hot path — the engine draws one to three of these per probe.
The schedule depends only on ``(seed, purpose)``, of which the simulator
uses a handful, so we build each base hasher once, memoise it, and
``.copy()`` it per draw; the copy is a plain state memcpy.  Key material
is likewise packed with a single ``struct.pack`` call instead of one per
key.  Callers that repeat one draw shape hoist the rest as well:
:func:`prepared_unit` binds the hasher and the packer once, and
:func:`bernoulli_threshold` turns ``unit < probability`` into a compare
of digest bytes.  Digests are bit-identical to the naive implementation —
pinned by ``tests/test_stochastic_golden.py``.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache, partial

_SCALE = float(1 << 64)

# (seed & 2**64-1, purpose) -> primed keyed hasher, copied per draw.  The
# simulator uses ~10 purpose labels and one seed per world, so this stays
# tiny; the bound guards pathological many-seed callers (each entry is a
# few hundred bytes of BLAKE2 state).
_BASE_HASHERS: dict[tuple[int, bytes], "hashlib._Hash"] = {}
_BASE_HASHERS_MAX = 1024

# struct.Struct instances for the common key counts avoid re-parsing the
# format string; draws with more packed words fall back to struct.pack.
_PACKERS = tuple(struct.Struct(f">{n}q") for n in range(9))

_MASK63 = 0x7FFFFFFFFFFFFFFF
# A key word below this packs as itself (see stable_unit).
_WORD_LIMIT = 1 << 62
_MASK64 = 0xFFFFFFFFFFFFFFFF


def base_hasher(seed: int, purpose: bytes) -> "hashlib._Hash":
    """The primed keyed hasher for ``(seed, purpose)``.

    Callers on proven hot paths may ``.copy()`` this, feed the same packed
    key words ``stable_unit`` would, and compare the digest themselves —
    the engine's batch loop does exactly that for its per-probe loss draw.
    Treat the returned object as read-only; ``update`` only copies.
    """
    return _base_hasher(seed, purpose)


def _base_hasher(seed: int, purpose: bytes) -> "hashlib._Hash":
    cache_key = (seed & _MASK64, purpose)
    hasher = _BASE_HASHERS.get(cache_key)
    if hasher is None:
        if len(_BASE_HASHERS) >= _BASE_HASHERS_MAX:
            _BASE_HASHERS.clear()
        hasher = hashlib.blake2b(
            purpose, digest_size=8, key=cache_key[0].to_bytes(8, "big")
        )
        _BASE_HASHERS[cache_key] = hasher
    return hasher


def stable_unit(seed: int, purpose: bytes, *keys: int) -> float:
    """A deterministic uniform float in [0, 1) keyed by seed+purpose+keys."""
    hasher = _base_hasher(seed, purpose).copy()
    if keys:
        words = []
        for key in keys:
            words.append(key & _MASK63)
            if key.bit_length() > 62:
                # IPv6 addresses exceed 64 bits; mix in the high half too.
                words.append((key >> 62) & _MASK63)
        count = len(words)
        if count < len(_PACKERS):
            hasher.update(_PACKERS[count].pack(*words))
        else:
            hasher.update(struct.pack(f">{count}q", *words))
    return int.from_bytes(hasher.digest(), "big") / _SCALE


def prepared_unit(seed: int, purpose: bytes, count: int):
    """``stable_unit(seed, purpose, *words)`` for exactly ``count`` words,
    prepared once for callers that draw it many times.

    The returned function copies the base hasher and packs its words with
    one pre-bound ``Struct.pack``.  That equals :func:`stable_unit` only
    while every word packs as itself — ``0 <= word < 2**62``: no sign
    mask, no high-half second word — so anything else, and any ``count``
    without a prebuilt packer, takes :func:`stable_unit` itself.
    """
    if not 0 < count < len(_PACKERS):
        return partial(stable_unit, seed, purpose)
    copy = _base_hasher(seed, purpose).copy
    pack = _PACKERS[count].pack

    def unit(*words: int) -> float:
        for word in words:
            if not 0 <= word < _WORD_LIMIT:
                return stable_unit(seed, purpose, *words)
        hasher = copy()
        hasher.update(pack(*words))
        return int.from_bytes(hasher.digest(), "big") / _SCALE

    return unit


def stable_bool(seed: int, purpose: bytes, probability: float, *keys: int) -> bool:
    """A deterministic Bernoulli draw with the given probability."""
    if probability <= 0:
        return False
    if probability >= 1:
        return True
    return stable_unit(seed, purpose, *keys) < probability


@lru_cache(maxsize=256)
def bernoulli_threshold(probability: float) -> bytes:
    """``T`` such that ``digest < T`` is exactly ``unit(digest) <
    probability`` for every 8-byte digest, ``unit`` being
    :func:`stable_unit`'s ``int.from_bytes(digest, "big") / 2**64`` — a hot
    loop then compares digest bytes and skips the int and the float.

    ``T`` is the smallest 64-bit value whose unit is not below
    ``probability``, big-endian, found by bisection on the comparison
    itself (int-to-float rounding is monotone, so it is true up to one
    value and false from it on); nine ``0xff`` bytes when every digest is
    below (probability over 1), eight zero bytes when none is (0, NaN).
    """
    low, high = 0, 1 << 64
    while low < high:
        mid = (low + high) >> 1
        if mid / _SCALE < probability:
            low = mid + 1
        else:
            high = mid
    return low.to_bytes(8, "big") if low >> 64 == 0 else b"\xff" * 9
