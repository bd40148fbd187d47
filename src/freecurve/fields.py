"""Exact coefficient fields: the rationals and prime fields.

A field object names where a matrix lives and carries no arithmetic: its
characteristic (`char`, and `p` over a prime), its `name`, its `zero` and
`one`, and, over a prime, whether its residues fit int64 matrix storage
(`fits_int64`).  Fields compare by their characteristic.  Rational
scalars are `fractions.Fraction`s or Python ints; prime-field scalars are
plain ints in [0, p), which the numpy eliminations of `linalg` reduce.
Polynomials live over Q only (`poly.HomogPoly`); over a prime their
integer coefficients are reduced inside the arrays built from them.

The module also provides `FieldPlan`, the field-selection strategy used by
the analysis pipeline: compute every classification-feeding quantity over
two independent random primes and fall back to exact rational arithmetic
when they disagree.  The pipeline hands it the curve's primitive integer
form (see `syzygy.rank_profile`), which reduces mod every prime.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable, TypeVar

from .errors import InternalInconsistencyError

T = TypeVar("T")

# Primes are drawn from (2^31, _PRIME_HI].  The lower bound keeps single
# primes out of small-factor trouble; the upper bound guarantees p^2 < 2^63
# so vectorised int64 elimination never overflows.
_PRIME_LO = 2**31 + 1
_PRIME_HI = 2_999_999_999

# The first 13 primes: Miller-Rabin to these bases is deterministic below
# psi_13 = 3317044064679887385961981 (J. Sorenson and J. Webster, Math.
# Comp. 86, 2017); the bases 2..37 alone fail at psi_12 =
# 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed base set, deterministic for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int = _PRIME_LO, hi: int = _PRIME_HI) -> int:
    """Draw an odd prime uniformly-ish from [lo, hi] using `rng`."""
    while True:
        c = rng.randrange(lo, hi + 1) | 1
        if is_probable_prime(c):
            return c


@lru_cache(maxsize=64)
def _prime_pair(seed: int) -> tuple["PrimeField", "PrimeField"]:
    """The fields of the two distinct primes of a seed's plan, drawn,
    tested and made once per seed; a batch makes one plan per curve from
    one seed."""
    rng = random.Random(seed)
    p1 = random_prime(rng)
    p2 = random_prime(rng)
    while p2 == p1:
        p2 = random_prime(rng)
    return GF(p1), GF(p2)


class RationalField:
    """The field Q.  Elements are `Fraction`s or Python ints."""

    __slots__ = ()

    char = 0
    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField:
    """F_p for any odd prime p.  Elements are ints in [0, p).

    The field plans draw p from (2^31, 3 * 10^9), where p^2 < 2^63.
    Fields of one p are equal.  Each construction tests p for primality,
    so the pipeline makes its fields once, where it chooses their primes
    (`_prime_pair`, `syzygy.CERT_FIELD`).
    """

    __slots__ = ("p", "name", "zero", "one")

    def __init__(self, p: int):
        if p % 2 == 0 or not is_probable_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        self.p = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(self.p)

    @property
    def char(self) -> int:
        return self.p

    def fits_int64(self) -> bool:
        # p^2 must stay below 2^63 for int64 matrix storage.
        return self.p <= 3_037_000_493

    def __repr__(self):
        return self.name


def GF(p: int) -> PrimeField:
    return PrimeField(p)


Field = RationalField | PrimeField


class FieldPlan:
    """Field-selection strategy for one analysis run.

    `agree(compute, proved)` evaluates `compute(field)` and returns a value
    that is trusted for classification decisions:

    * mode "qq"   -- evaluate once over Q;
    * mode "auto" -- evaluate over two independent random primes; if the
      results differ (an unlucky prime can only lose rank), recompute over
      Q and use that;
    * mode "pp"   -- like "auto" but without the rational fallback; a
      disagreement aborts instead;
    * mode "prime" -- evaluate once over a single prime field, without a
      cross-check (a bare `PrimeField` handed to the library).

    In "auto" and "pp", a value over the first prime that `proved` accepts
    is the value over Q, and is returned without evaluating the second
    prime: the rank profile of a smooth curve (see `syzygy.rank_profile`).

    The callable must return a plainly comparable value (int, bool, tuple).
    It computes from the curve's primitive integer form, so every prime can
    evaluate it; a prime that divides a coefficient of that form is an
    ordinary unlucky prime.
    """

    __slots__ = ("mode", "seed", "fields", "fallbacks")

    def __init__(self, mode: str, fields: tuple[Field, ...], seed: int | None = None):
        self.mode = mode
        self.fields = fields
        self.seed = seed
        self.fallbacks = 0

    @classmethod
    def over(cls, field: Field) -> "FieldPlan":
        """The plan that evaluates once over `field` itself."""
        return cls("qq" if field.char == 0 else "prime", (field,))

    @classmethod
    def primes(cls, seed: int = 0, fallback: bool = True) -> "FieldPlan":
        return cls("auto" if fallback else "pp", _prime_pair(seed), seed)

    @classmethod
    def from_mode(cls, mode: str, seed: int = 0) -> "FieldPlan":
        if mode == "qq":
            return cls.over(QQ)
        if mode == "auto":
            return cls.primes(seed, fallback=True)
        if mode == "pp":
            return cls.primes(seed, fallback=False)
        raise ValueError(f"unknown field mode {mode!r}")

    def agree(self, compute: Callable[[Field], T], proved: Callable[[T], bool] | None = None) -> T:
        """`compute` agreed over the plan's fields.  `proved`, if given,
        accepts only values over a prime that are the value over Q as well;
        a first-prime value it accepts is returned as it is."""
        if len(self.fields) == 1:
            return compute(self.fields[0])
        first = compute(self.fields[0])
        if proved is not None and proved(first):
            return first
        second = compute(self.fields[1])
        if first == second:
            return first
        if self.mode == "pp":
            raise InternalInconsistencyError(
                f"prime fields {self.fields[0]} and {self.fields[1]} disagree "
                f"({first!r} vs {second!r}) and rational fallback is disabled; "
                "rerun with --field auto or --field qq"
            )
        self.fallbacks += 1
        return compute(QQ)

    def describe(self) -> dict:
        info: dict = {"mode": self.mode, "fallbacks": self.fallbacks, "primes": None}
        if self.mode != "qq":
            info["primes"] = [f.p for f in self.fields]
        if self.seed is not None:
            info["seed"] = self.seed
        return info

    def __repr__(self):
        names = ", ".join(f.name for f in self.fields)
        return f"FieldPlan({self.mode}: {names})"
