"""ZMap-style address-space permutation for stateless scanning.

ZMap iterates a multiplicative cyclic group modulo a prime ``p`` slightly
larger than the target count: ``x_{i+1} = (g * x_i) mod p``.  The walk
visits every element of ``[1, p)`` exactly once in pseudo-random order with
O(1) state, which is what makes the scanner stateless and restartable while
spreading probes across networks (avoiding per-router bursts).

We reproduce that scheme for index spaces (the scanner permutes *indices*
into its target list rather than raw 128-bit addresses).
"""

from __future__ import annotations

import random
from typing import Iterator


def _is_probable_prime(n: int, *, rounds: int = 24) -> bool:
    """Miller-Rabin primality test (deterministic enough at 24 rounds)."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = random.Random(0xC0FFEE ^ n)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """The smallest prime >= n."""
    if n <= 2:
        return 2
    candidate = n | 1
    while not _is_probable_prime(candidate):
        candidate += 2
    return candidate


class CyclicPermutation:
    """A pseudo-random permutation of ``range(size)`` with O(1) state.

    Internally walks the multiplicative group mod ``p = next_prime(size+1)``
    and skips values ``> size`` ("cycle walking"), so every index in
    ``[0, size)`` appears exactly once.
    """

    def __init__(self, size: int, seed: int) -> None:
        if size <= 0:
            raise ValueError("permutation size must be positive")
        self.size = size
        self.prime = next_prime(size + 1)
        rng = random.Random(seed)
        # Any g with large multiplicative order works for scan dispersion;
        # we pick a random g in [2, p-1) and verify it is a generator by
        # factoring p-1 only for small primes, else accept (order divides
        # p-1 and is overwhelmingly large for random g).
        self.generator = self._pick_generator(rng)
        self.start = rng.randrange(1, self.prime)

    def _pick_generator(self, rng: random.Random) -> int:
        if self.prime <= 3:
            return self.prime - 1
        factors = _factorize(self.prime - 1)
        while True:
            g = rng.randrange(2, self.prime - 1)
            if all(pow(g, (self.prime - 1) // f, self.prime) != 1 for f in factors):
                return g

    def __iter__(self) -> Iterator[int]:
        value = self.start
        first = True
        while first or value != self.start:
            first = False
            if value <= self.size:
                yield value - 1
            value = (value * self.generator) % self.prime

    def __len__(self) -> int:
        return self.size


def _factorize(n: int) -> set[int]:
    """Prime factors of n (trial division + Pollard rho for large cofactors)."""
    factors: set[int] = set()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        while n % p == 0:
            factors.add(p)
            n //= p
    if n == 1:
        return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            factors.add(m)
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    rng = random.Random(0xF00D ^ n)
    while True:
        x = rng.randrange(2, n)
        y, c, d = x, rng.randrange(1, n), 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = _gcd(abs(x - y), n)
        if d != n:
            return d


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
