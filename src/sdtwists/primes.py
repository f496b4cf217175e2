"""Small integer number theory: primality, prime iteration, factoring.

Trial factorization runs on a batch of numbers (``factor_batch``), which a
sweep hands one block of discriminants at a time: the primes up to
SMALL_PRIME_BOUND are found per number, by one gcd with their product, and
the primes above it, up to the bound, share one reduction of their product
per group of cofactors.  ``factor_trial`` is the batch of one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

# Deterministic Miller-Rabin witness set: the first 13 primes prove
# primality for every n below PROOF_BOUND (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).  The first 12
# alone do not: 318665857834031151167461 is a strong pseudoprime to 2..37.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROOF_BOUND = 3_317_044_064_679_887_385_961_981

# ``factor_batch`` finds the primes up to this bound that divide n by one
# gcd with their product, and the primes above it, up to the trial bound,
# by one gcd with theirs.
SMALL_PRIME_BOUND = 500

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


def iter_primes_up_to(n: int, above: int = 1) -> Iterator[int]:
    """All primes p with above < p <= n, ascending, read off the shared sieve
    without copying it."""
    if n < 2:
        return iter(())
    _extend_sieve(n)
    start = bisect_right(_sieve_primes, above)
    return islice(_sieve_primes, start, bisect_right(_sieve_primes, n))


@lru_cache(maxsize=16)
def _prime_product(above: int, bound: int) -> int:
    """Product of the primes p with above < p <= bound, by a product tree.

    Keyed by the prime range alone and built on first use, like the sieve.
    """
    level = list(iter_primes_up_to(bound, above))
    while len(level) > 1:
        pairs = [a * b for a, b in zip(level[::2], level[1::2])]
        level = pairs + level[len(pairs) * 2 :]
    return level[0] if level else 1


def primes() -> Iterator[int]:
    """Unbounded ascending prime iterator."""
    n = 0
    while True:
        while n >= len(_sieve_primes):
            _extend_sieve(max(1 << 10, 2 * _sieve_limit))
        yield _sieve_primes[n]
        n += 1


def is_prime(n: int) -> bool:
    """Miller-Rabin on the witness set above: a proof for n < PROOF_BOUND.

    Raises ValueError for n >= PROOF_BOUND, where the witness set proves
    nothing: PROOF_BOUND itself is 1287836182261 * 2575672364521 and passes
    every round.
    """
    if n >= PROOF_BOUND:
        raise ValueError(f"{n} is too large to prove prime (limit {PROOF_BOUND})")
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
    """Exponent of p >= 2 in n != 0."""
    if p < 2:
        raise ValueError(f"valuation at {p} is undefined")
    if n == 0:
        raise ValueError("valuation of zero")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def factor_trial(n: int, bound: int, until_square: bool = False) -> tuple[dict[int, int], int]:
    """Factor |n| by the primes <= bound; return (exponents, cofactor).

    The exponents hold v_p(n) for every prime p <= bound dividing n, in
    ascending order of p, and the cofactor is what is left of |n|: 1, or a
    number whose prime factors all exceed the bound.  A prime cofactor above
    the bound is returned as it is, unfactored.  With ``until_square`` the
    division stops as soon as one prime below SMALL_PRIME_BOUND reaches
    exponent 2, which settles that n is not squarefree, and returns what it
    has.  The one-number case of ``factor_batch``, which sets out the method.
    """
    return factor_batch((n,), bound, until_square)[0]


def factor_batch(
    numbers: Iterable[int], bound: int, until_square: bool = False
) -> list[tuple[dict[int, int], int]]:
    """``factor_trial(n, bound, until_square)`` for each n, in input order.

    Two stages, each a gcd with a product of primes built once per process
    and prime range (D. J. Bernstein, "How to find smooth parts of
    integers", 2004).  The first runs per number (``_small_stage``).  If
    what it leaves, m, exceeds SMALL_PRIME_BOUND^2, the second takes
    gcd(m, prod(primes in (SMALL_PRIME_BOUND, bound]) mod m) and finds its
    primes by a walk that stops at p^2 > g.  That product is the large
    operand: it is reduced once per group of consecutive cofactors, modulo
    their product, and each cofactor of the group is then reduced from that
    residue (``_large_stage``).  Raises ValueError on a zero.
    """
    small = min(bound, SMALL_PRIME_BOUND)
    staged = [_small_stage(n, small, until_square) for n in numbers]
    square = SMALL_PRIME_BOUND * SMALL_PRIME_BOUND
    # What is left has no prime factor <= SMALL_PRIME_BOUND, so it is 1 or a
    # prime unless it exceeds SMALL_PRIME_BOUND^2.
    large = [entry for entry in staged if entry[1] > square and not entry[2]]
    if large and bound > SMALL_PRIME_BOUND:
        _large_stage(large, bound)
    out = []
    for exponents, m, stopped in staged:
        if not stopped and 1 < m <= bound:
            exponents[m] = 1
            m = 1
        out.append((exponents, m))
    return out


def _small_stage(n: int, small: int, until_square: bool) -> list:
    """[exponents, m, stopped]: |n| = m * prod(p^e) over the primes p <=
    ``small`` of the exponents, stopped when ``until_square`` met a square.

    Takes g = gcd(|n|, prod(primes <= small)), finds the primes of g by a
    walk that stops at p^2 > g, and divides each out by p, p^2, p^4, ...
    (``_divide_out``), so that v_p(n) costs O(log v_p(n)) divisions.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    out: dict[int, int] = {}
    m = abs(n)
    for p in _prime_divisors(math.gcd(m, _prime_product(1, small)), 1, small):
        m = _divide_out(m, p, out)
        if until_square and out[p] > 1:
            return [out, m, True]
    return [out, m, False]


# ``_large_stage`` multiplies consecutive cofactors while their product has
# at most 1/_GROUP_SHARE of the bits of the prime product it reduces.  A
# flat product, not a remainder tree: CPython divides big integers by
# schoolbook division, whose cost grows with the product of the operand
# sizes.  Factoring the distinct discriminants of two sweeps in blocks of
# 64 (CPython 3.11), per discriminant: a compact cubic at box 50 (median
# cofactor 27 bits against the 42,237 bits of the primes in (500, 30,000])
# took 9.6 us at 1/8 against 18.4 us with one division per cofactor, and
# built d = 5, 6 at box 12 (median 350 bits against 13,593 bits for
# (500, 10,000]) 30.8 us against 34.8 us, and 35.4 us uncapped, where a
# block's product outgrows the prime product.
_GROUP_SHARE = 8


def _large_stage(entries: Sequence[list], bound: int) -> None:
    """Divides the primes in (SMALL_PRIME_BOUND, bound] out of the m of each
    ``_small_stage`` entry [exponents, m, stopped], in place."""
    product = _prime_product(SMALL_PRIME_BOUND, bound)
    cap = product.bit_length() // _GROUP_SHARE
    start = 0
    while start < len(entries):
        stop, group = start + 1, entries[start][1]
        while stop < len(entries) and group.bit_length() + entries[stop][1].bit_length() <= cap:
            group *= entries[stop][1]
            stop += 1
        residue = product % group
        for entry in entries[start:stop]:
            exponents, m, _ = entry
            for p in _prime_divisors(math.gcd(m, residue % m), SMALL_PRIME_BOUND, bound):
                m = _divide_out(m, p, exponents)
            entry[1] = m
        start = stop


def least_simple_prime(n: int, above: int, bound: int, avoid: int = 1) -> Optional[int]:
    """The least prime p with above < p <= bound, v_p(n) = 1 and p not
    dividing ``avoid``, or None; n != 0.

    One gcd finds them all: s = gcd(|n|, prod(primes in (above, bound]))
    holds each prime of the range that divides n once, and a prime with
    v_p(n) >= 2 still divides |n| / s, so s / gcd(|n| / s, s) is the
    product of the primes with v_p(n) = 1.  Dividing out its gcd with
    ``avoid`` leaves those that do not divide it, and the least of them is
    the first that ``_prime_divisors`` finds.
    """
    n = abs(n)
    s = math.gcd(n, _prime_product(above, bound) % n)
    s //= math.gcd(n // s, s)
    s //= math.gcd(s, avoid)
    return next(_prime_divisors(s, above, bound)) if s > 1 else None


def _prime_divisors(g: int, above: int, bound: int) -> Iterator[int]:
    """The primes of a squarefree g >= 1 whose prime factors all lie in
    (above, bound], ascending, by a walk from ``above`` that stops at
    p^2 > g; what is left then is 1 or the last prime."""
    for p in iter_primes_up_to(bound, above):
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            yield p
    if g > 1:
        yield g


def _divide_out(m: int, p: int, out: dict[int, int]) -> int:
    """m / p^v for v = v_p(m) >= 1, recording out[p] = v.

    After the first division, divides by p, p^2, p^4, ... while each
    divides what is left; what is left then has a valuation below the first
    power that failed, so one pass down the powers that divided, largest
    first, removes the rest: O(log v) divisions instead of v, and two
    operations when v = 1."""
    m //= p
    v, q, powers = 1, p, []
    while m % q == 0:
        m //= q
        v += 1 << len(powers)
        powers.append(q)
        q *= q
    for i in reversed(range(len(powers))):
        if m % powers[i] == 0:
            m //= powers[i]
            v += 1 << i
    out[p] = v
    return m


def multiplicative_order(a: int, n: int) -> int:
    """Order of a modulo n >= 1; requires gcd(a, n) = 1.  Every a has order
    1 modulo 1."""
    if n < 1:
        raise ValueError(f"modulus {n} must be positive")
    if n == 1:
        return 1
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} not invertible mod {n}")
    k = 1
    x = a % n
    while x != 1:
        x = x * a % n
        k += 1
    return k
