"""Arbitrary-precision modular arithmetic for the group-key testbed.

Everything the protocol computes reduces to four things implemented here:
residue arithmetic in Z_m, safe-prime parameter generation, power vectors
(1, x, x^2, ..., x^w), and inner products of residue vectors. The module
deliberately exposes no inversion or division: the protocol only ever adds,
subtracts and multiplies, so it runs unchanged in the composite-modulus ring
and in a prime field.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import struct
from dataclasses import dataclass
from enum import Enum
from operator import mul
from typing import Sequence

from .errors import (
    CompositeWhenPrimeRequired,
    EqualFactors,
    LengthMismatch,
    ModulusTooSmall,
    WidthTooSmall,
)


class Variant(Enum):
    """The two published flavours of the scheme.

    RING: modulus m = p*q for distinct safe primes, arithmetic in Z_m.
    FIELD: modulus is a single prime, shares hardened with a per-member hash.
    """

    RING = "ring"
    FIELD = "field"


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------

_counter_block = struct.Struct(">32sQ").pack  # key || counter, hashed into 32 stream bytes


class SeededRng:
    """Deterministic byte stream: SHA-256 in counter mode over the seed.

    Chosen over random.Random so the byte stream is stable across Python
    versions; every draw in a scenario flows from one of these. peek reads
    ahead without consuming, skip consumes, and take_bytes is peek then skip,
    so a reader that looks at more bytes than it uses leaves the stream where
    taking just the used ones would.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = seed
        seed_bytes = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big")
        self._key = hashlib.sha256(b"gkdsim/rng:" + seed_bytes).digest()
        self._counter = 0
        self._buffer = b""
        self._offset = 0

    def _refill(self, n: int) -> None:
        """Drop the consumed bytes and append counter blocks until n bytes are unread."""
        buf = self._buffer[self._offset :]
        while len(buf) < n:
            buf += hashlib.sha256(_counter_block(self._key, self._counter)).digest()
            self._counter += 1
        self._buffer, self._offset = buf, 0

    def peek(self, n: int) -> bytes:
        """The next n bytes of the stream, left unread."""
        end = self._offset + n
        if end > len(self._buffer):
            self._refill(n)
            end = n
        return self._buffer[self._offset : end]

    def skip(self, n: int) -> None:
        """Consume the next n bytes of the stream."""
        if self._offset + n > len(self._buffer):
            self._refill(n)
        self._offset += n

    def take_bytes(self, n: int) -> bytes:
        out = self.peek(n)
        self._offset += n  # skip(n), whose refill check the peek has made
        return out


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------

def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return tuple(i for i, f in enumerate(flags) if f)


_SMALL_PRIMES = _sieve(1000)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)

# Miller-Rabin is exact below 2^64 with J. Sinclair's seven bases, skipping one
# that n divides (past the gcd, n is then the prime 407521 or 299210837), and
# below _MR_EXACT_BOUND with the twelve prime bases 2..37: the least strong
# pseudoprime to all of them is 399165290221 * 798330580441 (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BOUND = 318_665_857_834_031_151_167_461
_MR_EXTRA_ROUNDS = 40


def _mr_witness(n: int, a: int, d: int, r: int) -> bool:
    """True if a witnesses n composite."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


@functools.lru_cache(maxsize=8)
def is_prime(n: int) -> bool:
    """Primality test: exact below ~3.2e23, Miller-Rabin beyond.

    One gcd finds any prime factor below 1000. Seven bases decide below 2^64,
    twelve below the exact bound; beyond it 40 extra bases are derived from n
    itself by hashing, so the verdict is deterministic without being
    attacker-choosable in any way that matters for a testbed. The last
    verdicts are cached, so domain_new re-checking a prime a search just
    proved needs no Miller-Rabin run on (p-1)/2, only is_safe_prime's one
    exponentiation.
    """
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIMES
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES_64 if n < 1 << 64 else _MR_BASES:
        if a % n and _mr_witness(n, a, d, r):
            return False
    if n < _MR_EXACT_BOUND:
        return True
    stream = hashlib.sha256(b"gkdsim/mr:" + n.to_bytes((n.bit_length() + 7) // 8, "big"))
    for i in range(_MR_EXTRA_ROUNDS):
        block = hashlib.sha256(stream.digest() + i.to_bytes(4, "big")).digest()
        a = 2 + int.from_bytes(block, "big") % (n - 3)
        if _mr_witness(n, a, d, r):
            return False
    return True


def is_safe_prime(n: int) -> bool:
    """True when n and (n-1)/2 are both prime.

    Once q = (n-1)/2 is proven prime, one exponentiation proves n: by
    Pocklington's theorem with a = 2, if 3 does not divide n and
    2^(n-1) = 1 mod n, then n is prime, since q > sqrt(n) - 1 for every n >= 5.
    That test comes first, so a composite n costs no Miller-Rabin run on q.
    """
    return n > 4 and n % 3 != 0 and pow(2, n - 1, n) == 1 and is_prime((n - 1) // 2)


# Wiener's combined sieve: an odd prime r divides v or (v-1)/2 exactly when
# v = 0 or 1 mod r, so one gcd with v * (v-1)/2 screens both numbers of a
# safe-prime candidate. The narrow product (odd primes below 50) rejects about
# 95% of random candidates; the wide one (the rest below 1000) sees only
# their survivors. Both products were tuned by timing 64- to 256-bit searches.
_SIEVE_NARROW = math.prod(p for p in _SMALL_PRIMES if 2 < p < 50)
_SIEVE_WIDE = math.prod(p for p in _SMALL_PRIMES if p > 50)
_SIEVE_TOP = _SMALL_PRIMES[-1]


def _sieve_rejects(v: int) -> bool:
    """True when v or (v-1)/2 is proven composite by the combined sieve, or (v-1)/2
    by a base-2 Fermat test. Only decides once (v-1)/2 exceeds every sieve prime,
    so that a sieve prime dividing it is a proper factor."""
    h = v >> 1
    if h <= _SIEVE_TOP:
        return False
    vh = v * h
    return math.gcd(vh, _SIEVE_NARROW) != 1 or math.gcd(vh, _SIEVE_WIDE) != 1 or pow(2, h - 1, h) != 1


def _residue_screen(primes: tuple[int, ...]) -> bytes:
    """t[v % prod(primes)] == 1 iff some r in primes divides v or (v-1)/2."""
    size = math.prod(primes)
    table = bytearray(size)
    for r in primes:
        for start in (0, 1):
            table[start::r] = b"\1" * len(range(start, size, r))
    return bytes(table)


# One remainder and one index reject about 88% of candidates; the narrow gcd
# would reject them too, so the table applies only where the sieve decides.
# With 13 too the table is 13 times larger and rejects 90%, at no measured gain.
_PRESCREEN_PRIMES = (3, 5, 7, 11)
_PRESCREEN_MOD = math.prod(_PRESCREEN_PRIMES)
_PRESCREEN = _residue_screen(_PRESCREEN_PRIMES)
_PRESCREEN_MIN_BITS = 12  # v >> 1 >= 2**10 > _SIEVE_TOP
_DISTINCT_ATTEMPTS = 256  # safe-prime draws gen_distinct_safe_primes makes for a second prime
_READ_AHEAD = 512  # a search block: the fewest fields that fill this, at most one per bit
_INT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # field widths struct decodes to ints itself
_BIG_ENDIAN = itertools.repeat("big")  # int.from_bytes' byte order, for map: 3.10 has no default


def gen_safe_prime(bit_length: int, rng: SeededRng) -> int:
    """Draw candidates from rng until one is a safe prime of exactly bit_length bits.

    Deterministic for a fixed rng state. Safe primes above 5 are 3 mod 4,
    so for bit_length >= 4 the two low bits are forced, halving the search.
    Candidates are peeked a block at a time, decoded with one struct unpack,
    and skipped up to the prime. The residue pre-screen (from 12 bits),
    Wiener's combined sieve (M. Wiener, "Safe Prime Generation with a Combined
    Sieve", IACR ePrint 2003/186) and base-2 Fermat tests only ever reject
    composites, and a survivor still needs is_safe_prime, which proves v prime
    once is_prime passes (v-1)/2, so the prime returned and the bytes consumed
    are those of testing every candidate with the is_prime pair. The cached
    verdict on (v-1)/2 leaves one exponentiation to the domain_new check.
    """
    if bit_length < 3:
        raise ModulusTooSmall(f"no safe prime has {bit_length} bits")
    mask = (1 << bit_length) - 1
    forced = (1 << (bit_length - 1)) | (3 if bit_length >= 4 else 1)
    # below 12 bits the sieve does not decide, so b"\0"[v % 1] passes all
    screen, mod = (_PRESCREEN, _PRESCREEN_MOD) if bit_length >= _PRESCREEN_MIN_BITS else (b"\0", 1)
    n = (bit_length + 7) // 8
    k, code = min(bit_length, -(-_READ_AHEAD // n)), _INT_CODES.get(n)  # k fields a block
    unpack = struct.Struct(f">{k}{code}" if code else ">" + f"{n}s" * k).unpack
    while True:
        fields = unpack(rng.peek(k * n))
        fields = fields if code else map(int.from_bytes, fields, _BIG_ENDIAN)
        survivors = [(i, v) for i, x in enumerate(fields, 1) if not screen[(v := (x & mask) | forced) % mod]]
        for i, v in survivors:
            if not _sieve_rejects(v) and is_safe_prime(v):
                rng.skip(i * n)
                return v
        rng.skip(k * n)


def gen_distinct_safe_primes(bit_length: int, rng: SeededRng) -> tuple[int, int]:
    """Two distinct safe primes for a ring modulus.

    Some bit lengths admit only one safe prime (4 bits: just 11; 5 bits:
    just 23), so the retry loop is bounded rather than spinning forever.
    """
    p = gen_safe_prime(bit_length, rng)
    for _ in range(_DISTINCT_ATTEMPTS):
        q = gen_safe_prime(bit_length, rng)
        if q != p:
            return p, q
    raise ModulusTooSmall(
        f"could not find two distinct safe primes of {bit_length} bits; "
        "the ring variant needs a bit length with at least two of them"
    )


# ---------------------------------------------------------------------------
# domain context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainContext:
    """Public arithmetic parameters every party agrees on.

    modulus: m (p*q for RING, a prime for FIELD)
    byte_width: bytes needed to encode a residue, ceil(bitlen(m)/8)
    """

    modulus: int
    variant: Variant
    byte_width: int

    def reduce(self, v: int) -> int:
        return v % self.modulus

    def contains(self, v: int) -> bool:
        return 0 <= v < self.modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus


def domain_new(p: int, q: int | None = None, *, variant: Variant) -> DomainContext:
    """Validate parameters and build the context.

    RING needs two distinct safe primes; FIELD needs one prime (q must be
    omitted). Validation is deterministic up to the Miller-Rabin exact bound
    (far beyond 2^64) and probabilistic-but-seedless above it.
    """
    if variant is Variant.RING:
        if q is None:
            raise ValueError("ring variant needs two primes p and q")
        if p < 5 or q < 5:
            raise ModulusTooSmall("factors must be at least 5")
        if p == q:
            raise EqualFactors("ring factors must be distinct")
        for f in (p, q):
            if is_safe_prime(f):
                continue
            if not is_prime(f):
                raise CompositeWhenPrimeRequired(f"{f} is not prime")
            raise CompositeWhenPrimeRequired(f"{f} is not a safe prime: ({f}-1)/2 is composite")
        modulus = p * q
    elif variant is Variant.FIELD:
        if q is not None:
            raise ValueError("field variant takes a single prime")
        if p < 5:
            raise ModulusTooSmall("prime must be at least 5")
        # a searched prime is safe, and then proving it costs one exponentiation
        if not (is_safe_prime(p) or is_prime(p)):
            raise CompositeWhenPrimeRequired(f"{p} is not prime")
        modulus = p
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown variant {variant!r}")
    byte_width = (modulus.bit_length() + 7) // 8
    return DomainContext(modulus=modulus, variant=variant, byte_width=byte_width)


# ---------------------------------------------------------------------------
# vector operations
# ---------------------------------------------------------------------------

def power_vector(x: int, w: int, ctx: DomainContext) -> tuple[int, ...]:
    """(1, x, x^2, ..., x^w) mod m, each power one multiplication and one
    reduction from the last. Requires w >= 2."""
    if w < 2:
        raise WidthTooSmall(f"power vector width must be >= 2, got {w}")
    m = ctx.modulus
    x %= m
    powers = [1] * (w + 1)
    power = 1
    for k in range(1, w + 1):
        powers[k] = power = power * x % m
    return tuple(powers)


def inner_product(a: Sequence[int], b: Sequence[int], ctx: DomainContext) -> int:
    """Sum of pairwise products, reduced mod m once at the end."""
    if len(a) != len(b) or len(a) == 0:
        raise LengthMismatch(f"operand lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b)) % ctx.modulus


def sample_element(rng: SeededRng, ctx: DomainContext) -> int:
    """Uniform residue in [0, m) by rejection sampling byte_width-sized draws."""
    while True:
        v = int.from_bytes(rng.take_bytes(ctx.byte_width), "big")
        if v < ctx.modulus:
            return v
