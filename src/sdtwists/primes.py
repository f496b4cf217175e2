"""Small integer number theory: primality, prime iteration, factoring."""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import islice
from typing import Iterator

# Deterministic Miller-Rabin witness set: the first 13 primes prove
# primality for every n below PROOF_BOUND (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).  The first 12
# alone do not: 318665857834031151167461 is a strong pseudoprime to 2..37.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROOF_BOUND = 3_317_044_064_679_887_385_961_981

_sieve_limit = 0
_sieve_primes: list[int] = []


def _extend_sieve(limit: int) -> None:
    global _sieve_limit, _sieve_primes
    if limit <= _sieve_limit:
        return
    limit = max(limit, 2 * _sieve_limit, 1 << 10)
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * ((limit - p * p) // p + 1)
    _sieve_primes = [i for i, f in enumerate(flags) if f]
    _sieve_limit = limit


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending, as a new list."""
    if n < 2:
        return []
    _extend_sieve(n)
    return _sieve_primes[: bisect_right(_sieve_primes, n)]


def iter_primes_up_to(n: int) -> Iterator[int]:
    """All primes <= n, ascending, read off the shared sieve without copying it."""
    if n < 2:
        return iter(())
    _extend_sieve(n)
    return islice(_sieve_primes, bisect_right(_sieve_primes, n))


def primes() -> Iterator[int]:
    """Unbounded ascending prime iterator."""
    n = 0
    while True:
        while n >= len(_sieve_primes):
            _extend_sieve(max(1 << 10, 2 * _sieve_limit))
        yield _sieve_primes[n]
        n += 1


def is_prime(n: int) -> bool:
    """Miller-Rabin on the witness set above: a proof for n < PROOF_BOUND."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def valuation_int(n: int, p: int) -> int:
    """Exponent of p in n != 0."""
    if n == 0:
        raise ValueError("valuation of zero")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def factor_trial(n: int, bound: int) -> tuple[dict[int, int], int]:
    """Factor |n| by primes <= bound; return (exponents, unfactored cofactor)."""
    if n == 0:
        raise ValueError("cannot factor zero")
    m = abs(n)
    out: dict[int, int] = {}
    for p in iter_primes_up_to(bound):
        if p * p > m:
            break
        if m % p == 0:
            v = 0
            while m % p == 0:
                m //= p
                v += 1
            out[p] = v
    if 1 < m and m <= bound:
        out[m] = out.get(m, 0) + 1
        m = 1
    return out, m


def multiplicative_order(a: int, n: int) -> int:
    """Order of a modulo n; requires gcd(a, n) = 1."""
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} not invertible mod {n}")
    k = 1
    x = a % n
    while x != 1:
        x = x * a % n
        k += 1
    return k
