"""Supernatural numbers and finite odometer coordinates.

A supernatural number is a formal product ``prod p^k`` over primes, with each
exponent a positive integer or ``inf``.  Scales of the periodic structures
handled elsewhere live here: the lcm of an unbounded divisibility chain of
integers is supernatural, and two odometers are conjugate exactly when their
scales coincide.  Arithmetic stays exact; ``math.inf`` appears only as an
exponent marker and never mixes into integer computation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

INF = math.inf


class OdometerError(ValueError):
    """Validation or arithmetic failure in scale/odometer space."""


class EmptyScale(OdometerError):
    """The trivial scale 1 supports no stage factorization."""


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 primes as bases, exact below 3.3·10^24
    (Sorenson & Webster 2015); a larger n with no factor among the bases
    raises ``OdometerError``."""
    if n < 2 or any(n % q == 0 for q in _PRIME_BASES):
        return n in _PRIME_BASES
    if n >= _PRIME_TEST_LIMIT:
        raise OdometerError(f"{n} is too large to test for primality")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d·2^s with d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        powers = [pow(a, d, n)]  # a^(d·2^r) for r < s
        for _ in range(s - 1):
            powers.append(powers[-1] * powers[-1] % n)
        if powers[0] != 1 and n - 1 not in powers:
            return False
    return True


_PRIME_INDEX_LIMIT = 10**7  # prime_index sieves p + 1 bytes: 10 MB at the limit


def prime_index(p: int) -> int:
    """1-based position of the prime ``p`` among all primes (2 is 1st);
    primes above ``_PRIME_INDEX_LIMIT`` raise ``OdometerError`` before any
    sieve is allocated."""
    if p > _PRIME_INDEX_LIMIT:
        raise OdometerError(f"prime {p} is above the prime-index limit {_PRIME_INDEX_LIMIT}")
    if not _is_prime(p):
        raise OdometerError(f"{p} is not prime")
    sieve = bytearray([1]) * (p + 1)
    sieve[0] = sieve[1] = 0
    for d in range(2, int(p**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(sieve[d * d :: d]))
    return sum(sieve)


def factor_int(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of a positive integer as ((p, e), ...), p increasing."""
    if n < 1:
        raise OdometerError(f"positive integer required, got {n}")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


_FACTOR_RE = re.compile(r"^(\d+)(?:\^(inf|\d+))?$")


@dataclass(frozen=True)
class SupernaturalNumber:
    """Formal product of prime powers; canonical form has strictly increasing
    primes and exponents in {1, 2, ...} | {inf}.  The empty product is 1."""

    factors: tuple[tuple[int, int | float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(tuple(f) for f in self.factors))
        last = 1
        for entry in self.factors:
            if len(entry) != 2:
                raise OdometerError(f"factor must be a (prime, exponent) pair, got {entry!r}")
            p, e = entry
            if not isinstance(p, int) or not _is_prime(p):
                raise OdometerError(f"{p!r} is not prime")
            if p <= last:
                raise OdometerError(f"prime {p} appears twice" if p == last else "primes must be strictly increasing")
            if e != INF and (not isinstance(e, int) or isinstance(e, bool) or e < 1):
                raise OdometerError(f"bad exponent {e!r} for prime {p}")
            last = p

    @classmethod
    def from_int(cls, n: int) -> "SupernaturalNumber":
        return cls(factor_int(n))

    @classmethod
    def parse(cls, text: str) -> "SupernaturalNumber":
        """Inverse of ``str``: ``"2^inf * 5"``, ``"2^2 * 3"``, ``"1"``."""
        body = text.strip()
        if body == "1":
            return cls()
        factors: list[tuple[int, int | float]] = []
        for chunk in body.split("*"):
            m = _FACTOR_RE.match(chunk.strip())
            if m is None:
                raise OdometerError(f"cannot parse scale factor {chunk.strip()!r}")
            exp_text = m.group(2)
            e: int | float
            try:
                if exp_text is None:
                    e = 1
                elif exp_text == "inf":
                    e = INF
                else:
                    e = int(exp_text)
                factors.append((int(m.group(1)), e))
            except ValueError as exc:  # more digits than Python's int-string limit
                raise OdometerError(f"scale factor of {len(chunk.strip())} characters is too long") from exc
        return cls(tuple(sorted(factors)))  # accept any written order

    def exponent(self, p: int) -> int | float:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    @property
    def is_finite(self) -> bool:
        return all(e != INF for _, e in self.factors)

    def as_int(self) -> int:
        if not self.is_finite:
            raise OdometerError(f"{self} is not a finite number")
        value = 1
        for p, e in self.factors:
            value *= p ** int(e)
        return value

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for p, e in self.factors:
            if e == 1:
                parts.append(str(p))
            elif e == INF:
                parts.append(f"{p}^inf")
            else:
                parts.append(f"{p}^{e}")
        return " * ".join(parts)


def supernatural_lcm(*values: SupernaturalNumber) -> SupernaturalNumber:
    """Pointwise maximum of exponents."""
    exps: dict[int, int | float] = {}
    for u in values:
        for p, e in u.factors:
            exps[p] = max(exps.get(p, 0), e)
    return SupernaturalNumber(tuple(sorted(exps.items())))


def supernatural_equal(u: SupernaturalNumber, v: SupernaturalNumber) -> bool:
    return u.factors == v.factors


def divides(q: int, u: SupernaturalNumber) -> bool:
    """Whether the positive integer ``q`` divides the supernatural ``u``."""
    return all(e <= u.exponent(p) for p, e in factor_int(q))


def odometers_conjugate(u: SupernaturalNumber, v: SupernaturalNumber) -> bool:
    """Odometers are conjugate exactly when their scales are equal."""
    return supernatural_equal(u, v)


@dataclass(frozen=True)
class OdometerPoint:
    """Finite-stage point of the inverse limit of Z/u_1 <- Z/u_2 <- ...

    ``periods`` is a divisibility chain with every entry > 1; each coordinate
    is the reduction of the next one.
    """

    periods: tuple[int, ...]
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(self.periods))
        object.__setattr__(self, "coords", tuple(self.coords))
        if not self.periods:
            raise OdometerError("at least one period is required")
        if len(self.periods) != len(self.coords):
            raise OdometerError("periods and coordinates must pair up")
        prev = 1
        for u in self.periods:
            if not isinstance(u, int) or u <= 1:
                raise OdometerError(f"periods must be integers > 1, got {u!r}")
            if u % prev:
                raise OdometerError(f"period chain broken: {prev} does not divide {u}")
            prev = u
        for u, m in zip(self.periods, self.coords):
            if not isinstance(m, int) or not 0 <= m < u:
                raise OdometerError(f"coordinate {m!r} out of range for modulus {u}")
        for i in range(len(self.periods) - 1):
            if self.coords[i + 1] % self.periods[i] != self.coords[i]:
                raise OdometerError(
                    f"coordinates incoherent at stage {i}: "
                    f"{self.coords[i + 1]} mod {self.periods[i]} != {self.coords[i]}"
                )


def odometer_coordinates(k: int, periods: Sequence[int]) -> OdometerPoint:
    """Natural embedding of the integer ``k`` (any sign) at the given stages."""
    chain = tuple(periods)
    return OdometerPoint(chain, tuple(k % u for u in chain))


def odometer_add(point: OdometerPoint, n: int) -> OdometerPoint:
    """Translate a point by the integer ``n``; acts coordinatewise mod u_i."""
    coords = tuple((m + n) % u for u, m in zip(point.periods, point.coords))
    return OdometerPoint(point.periods, coords)
