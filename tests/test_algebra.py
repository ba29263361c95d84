import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from gkdsim import algebra
from gkdsim.algebra import (
    DomainContext,
    SeededRng,
    Variant,
    domain_new,
    gen_distinct_safe_primes,
    gen_safe_prime,
    inner_product,
    is_prime,
    is_safe_prime,
    power_vector,
    sample_element,
)
from gkdsim.errors import (
    CompositeWhenPrimeRequired,
    EqualFactors,
    LengthMismatch,
    ModulusTooSmall,
    WidthTooSmall,
)


# --- independent oracles -----------------------------------------------------

def prime_by_trial_division(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def safe_primes_with_bits(bits):
    """Exhaustive enumeration, trial division only."""
    return [
        p
        for p in range(1 << (bits - 1), 1 << bits)
        if prime_by_trial_division(p) and prime_by_trial_division((p - 1) // 2)
    ]


# the test's own trial-division primes below 200, independent of algebra's sieve
ORACLE_PRIMES = tuple(p for p in range(200) if prime_by_trial_division(p))
ORACLE_PRODUCT = math.prod(ORACLE_PRIMES)


# the test's own trial-division primes below 1000, for _reference_is_prime
REFERENCE_PRIMES = tuple(p for p in range(1000) if prime_by_trial_division(p))
REFERENCE_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
REFERENCE_EXACT_BOUND = 318_665_857_834_031_151_167_461


def _reference_witness(n, a, d, r):
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _reference_is_prime(n):
    """is_prime before the seven-base proof: trial division by the primes below
    1000, then Miller-Rabin to the twelve prime bases 2..37, exact below
    REFERENCE_EXACT_BOUND, and 40 bases hashed from n beyond it."""
    if n < 2:
        return False
    for p in REFERENCE_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if any(_reference_witness(n, a, d, r) for a in REFERENCE_MR_BASES):
        return False
    if n < REFERENCE_EXACT_BOUND:
        return True
    stream = hashlib.sha256(b"gkdsim/mr:" + n.to_bytes((n.bit_length() + 7) // 8, "big"))
    for i in range(40):
        block = hashlib.sha256(stream.digest() + i.to_bytes(4, "big")).digest()
        if _reference_witness(n, 2 + int.from_bytes(block, "big") % (n - 3), d, r):
            return False
    return True


def naive_gen_safe_prime(bit_length, rng):
    """The safe-prime search before the combined sieve: every candidate, read
    with take_bytes, goes to the _reference_is_prime pair. Same draws, so it
    must return the same prime.

    Once v >> 1 exceeds every oracle prime, a common factor of v * (v >> 1)
    with their product is a proper factor of v or of v >> 1, so the gcd only
    skips candidates the pair would reject, and the search stays exact."""
    if bit_length < 3:
        raise ModulusTooSmall(f"no safe prime has {bit_length} bits")
    nbytes = (bit_length + 7) // 8
    mask = (1 << bit_length) - 1
    while True:
        v = int.from_bytes(rng.take_bytes(nbytes), "big") & mask
        v |= (1 << (bit_length - 1)) | 1
        if bit_length >= 4:
            v |= 2
        if v >> 1 > ORACLE_PRIMES[-1] and math.gcd(v * (v >> 1), ORACLE_PRODUCT) != 1:
            continue
        if _reference_is_prime(v >> 1) and _reference_is_prime(v):
            return v


def naive_gen_distinct_safe_primes(bit_length, rng, attempts=256):
    p = naive_gen_safe_prime(bit_length, rng)
    for _ in range(attempts):
        q = naive_gen_safe_prime(bit_length, rng)
        if q != p:
            return p, q
    raise ModulusTooSmall(bit_length)


class ReslicingRng:
    """SeededRng as it was before the offset buffer: every take re-concatenates
    and re-slices the buffer. The stream oracle for SeededRng."""

    def __init__(self, seed):
        seed_bytes = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big")
        self._key = hashlib.sha256(b"gkdsim/rng:" + seed_bytes).digest()
        self._counter = 0
        self._buffer = b""
        self.taken = 0  # bytes consumed so far

    def take_bytes(self, n):
        while len(self._buffer) < n:
            block = self._key + self._counter.to_bytes(8, "big")
            self._buffer += hashlib.sha256(block).digest()
            self._counter += 1
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        self.taken += n
        return out


def naive_inner(a, b, m):
    """Plain big-integer sum of products, reduced once at the end."""
    return sum(x * y for x, y in zip(a, b)) % m


SMALL_SAFE_PRIMES = (5, 7, 11, 23, 47, 59, 83)

# naive_gen_safe_prime(bits, SeededRng(0)) at 64, 96 and 128 bits
LARGE_SAFE_PRIMES = (
    17408235005757478019,
    69687013960252475565001566023,
    310451668319258438185962149172793334843,
)

# 64-bit safe primes: the first sixteen distinct of gen_safe_prime(64, SeededRng(64))
SAFE_PRIMES_64 = (
    14452609745013686879, 17604556404558656459, 17481500801171414759,
    11976539028622655027, 13086318123050346467, 12985823824803098099,
    15489725004288001319, 16664951786095319723, 16817513930271049943,
    10354931375472857423, 11892824236705887863, 16975924637581344143,
    12444373566001348523, 11521214555200846283, 13732032780645776687,
    16955405760800252363,
)

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911)

# The least strong pseudoprime to the twelve prime bases 2..37:
# 399165290221 * 798330580441.
PSEUDOPRIME_12_BASES = 318_665_857_834_031_151_167_461


# --- domain_new ---------------------------------------------------------------

def test_ring_context_from_two_safe_primes():
    ctx = domain_new(5, 7, variant=Variant.RING)
    assert ctx.modulus == 35
    assert ctx.byte_width == 1
    assert ctx.variant is Variant.RING


def test_field_context_from_prime():
    ctx = domain_new(23, variant=Variant.FIELD)
    assert ctx.modulus == 23
    assert ctx.byte_width == 1


def test_two_byte_width():
    assert domain_new(331, variant=Variant.FIELD).byte_width == 2


def test_composite_factor_rejected():
    with pytest.raises(CompositeWhenPrimeRequired):
        domain_new(6, 7, variant=Variant.RING)


def test_non_safe_prime_factor_rejected():
    # 13 is prime but (13-1)/2 = 6 is not
    with pytest.raises(CompositeWhenPrimeRequired):
        domain_new(13, 7, variant=Variant.RING)


def test_equal_factors_rejected():
    with pytest.raises(EqualFactors):
        domain_new(7, 7, variant=Variant.RING)


def test_small_factors_rejected():
    with pytest.raises(ModulusTooSmall):
        domain_new(3, 7, variant=Variant.RING)
    with pytest.raises(ModulusTooSmall):
        domain_new(3, variant=Variant.FIELD)


def test_field_variant_needs_just_primality():
    # 331 is prime but not a safe prime; the field variant accepts it
    assert domain_new(331, variant=Variant.FIELD).modulus == 331
    with pytest.raises(CompositeWhenPrimeRequired):
        domain_new(333, variant=Variant.FIELD)


def test_variant_argument_shape():
    with pytest.raises(ValueError):
        domain_new(5, variant=Variant.RING)
    with pytest.raises(ValueError):
        domain_new(23, 29, variant=Variant.FIELD)


# --- primality ----------------------------------------------------------------

def test_is_prime_agrees_with_trial_division_to_2000():
    for n in range(2000):
        assert is_prime(n) == prime_by_trial_division(n), n


def test_is_prime_large_known():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**61 + 1)
    assert is_prime(2**89 - 1)  # beyond the deterministic base-set bound


def test_twelve_base_pseudoprime_is_composite():
    assert PSEUDOPRIME_12_BASES == 399165290221 * 798330580441
    assert not is_prime(PSEUDOPRIME_12_BASES)
    assert not is_prime(3_317_044_064_679_887_385_961_981)  # the 13-base one
    with pytest.raises(CompositeWhenPrimeRequired):
        domain_new(PSEUDOPRIME_12_BASES, variant=Variant.FIELD)


# --- the seven-base proof below 2^64 against the twelve-base reference ----------

# strong pseudoprimes below 2^64: to base 2 (2047, 3277, 4033), to 2, 3, 5, 7
# (3215031751), to 2..11 (2152302898747) and to 2..23 (3825123056546413051)
STRONG_PSEUDOPRIMES_64 = (2047, 3277, 4033, 3215031751, 2152302898747, 3825123056546413051)
SINCLAIR_BASE_DIVISORS = (407521, 299210837)  # of 9780504 and 1795265022; both prime


def _agree_below_2_64(numbers):
    numbers = list(numbers)
    assert numbers and all(0 <= n < 2**64 for n in numbers)
    assert [n for n in numbers if is_prime.__wrapped__(n) != _reference_is_prime(n)] == []


def test_seven_bases_agree_with_the_reference_on_random_odd_draws():
    draw = random.Random(64)
    _agree_below_2_64(draw.getrandbits(bits) | 1 for bits in range(10, 65) for _ in range(40))
    # and 64-bit draws with no factor below 200, which all reach Miller-Rabin
    _agree_below_2_64(n for n in (draw.getrandbits(64) | 1 for _ in range(3000)) if math.gcd(n, ORACLE_PRODUCT) == 1)


def _prime_flags(limit):
    """flags[n] == 1 iff n < limit is prime: the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return flags


def test_seven_bases_agree_with_the_reference_on_carmichael_numbers():
    """Chernick's (6k+1)(12k+1)(18k+1), Carmichael when all three factors are
    prime; k < 240000 keeps them below 2^64."""
    prime = _prime_flags(18 * 240_000)
    cases = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(1, 240_000)
             if prime[6 * k + 1] and prime[12 * k + 1] and prime[18 * k + 1]]
    assert len(cases) > 1000 and cases[0] == 1729 and 2**63 < cases[-1] < 2**64
    _agree_below_2_64(cases)
    assert not any(map(is_prime.__wrapped__, cases))


def test_seven_bases_agree_with_the_reference_on_strong_pseudoprime_shapes():
    """p(2p-1), that is (k+1)(2k+1), with both factors prime: the shape of most
    strong pseudoprimes to base 2. Then strong pseudoprimes to several bases."""
    draw = random.Random(2)
    ps = [*range(2, 30_000), *(draw.getrandbits(bits) | 1 for bits in range(20, 32) for _ in range(2000))]
    cases = [p * (2 * p - 1) for p in ps if _reference_is_prime(p) and _reference_is_prime(2 * p - 1)]
    assert len(cases) > 500 and max(cases) > 2**60
    _agree_below_2_64([*cases, *STRONG_PSEUDOPRIMES_64])
    assert not any(map(is_prime.__wrapped__, STRONG_PSEUDOPRIMES_64))


def test_seven_bases_agree_with_the_reference_on_semiprimes_near_2_32():
    low = [p for p in range(2**16 - 250, 2**16 + 250) if prime_by_trial_division(p)]
    high = [p for p in range(2**32 - 2000, 2**32) if _reference_is_prime(p)]
    assert len(low) > 40 and len(high) > 40
    _agree_below_2_64([*(p * q for p in low for q in low), *(p * q for p in high for q in high[:20]), *high])


def test_seven_bases_agree_with_the_reference_around_2_64():
    # above 2^64 is_prime uses the twelve bases, as the reference does
    around = range(2**64 - 3000, 2**64 + 3000)
    assert [n for n in around if is_prime.__wrapped__(n) != _reference_is_prime(n)] == []
    assert sum(map(_reference_is_prime, around)) > 100


def test_seven_bases_skip_a_base_the_number_divides():
    assert 9780504 % 407521 == 0 and 1795265022 % 299210837 == 0
    for q in SINCLAIR_BASE_DIVISORS:
        assert prime_by_trial_division(q) and is_prime.__wrapped__(q)
    a, b = SINCLAIR_BASE_DIVISORS
    _agree_below_2_64([a, b, a * a, a * b, 2 * a + 1, 2 * b + 1, 3 * a, a * 1000003])


def test_cached_is_prime_agrees_with_the_uncached_test():
    uncached = is_prime.__wrapped__
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911)
    cases = (*range(3000), *carmichael, PSEUDOPRIME_12_BASES, 2**61 - 1, 2**61 + 1,
             2**89 - 1, *LARGE_SAFE_PRIMES, *(p >> 1 for p in LARGE_SAFE_PRIMES))
    for _ in range(2):  # the second pass answers from the cache where it can
        for n in cases:
            assert is_prime(n) == uncached(n), n
    assert not is_prime(PSEUDOPRIME_12_BASES) and not uncached(PSEUDOPRIME_12_BASES)


def test_domain_new_reuses_the_verdicts_of_the_search():
    p, q = gen_distinct_safe_primes(64, SeededRng(4))
    misses = is_prime.cache_info().misses
    domain_new(p, q, variant=Variant.RING)
    assert is_prime.cache_info().misses == misses


def test_domain_new_rejects_bad_factors_after_a_search_filled_the_cache():
    p = gen_safe_prime(64, SeededRng(3))
    half = p >> 1
    assert is_prime(p) and is_prime(half) and not is_safe_prime(half)
    with pytest.raises(CompositeWhenPrimeRequired):
        domain_new(p, half, variant=Variant.RING)  # prime, but (half-1)/2 is not
    with pytest.raises(CompositeWhenPrimeRequired):
        domain_new(p, p + 4, variant=Variant.RING)  # safe primes above 7 are 2 mod 3
    with pytest.raises(CompositeWhenPrimeRequired):
        domain_new(p * half, variant=Variant.FIELD)
    with pytest.raises(CompositeWhenPrimeRequired):
        domain_new(PSEUDOPRIME_12_BASES, variant=Variant.FIELD)
    assert domain_new(p, variant=Variant.FIELD).modulus == p


def test_is_safe_prime():
    for p in SMALL_SAFE_PRIMES:
        assert is_safe_prime(p)
    assert not is_safe_prime(13)
    assert not is_safe_prime(4)


def _safe_by_the_is_prime_pair(n):
    return is_prime(n) and is_prime((n - 1) // 2)


def test_is_safe_prime_agrees_with_the_is_prime_pair_below_200000():
    assert [n for n in range(200_000) if is_safe_prime(n) != _safe_by_the_is_prime_pair(n)] == []


def test_is_safe_prime_accepts_listed_safe_primes():
    for n in (*SAFE_PRIMES_64, *LARGE_SAFE_PRIMES):
        assert _safe_by_the_is_prime_pair(n) and is_safe_prime(n), n


def test_is_safe_prime_rejects_composites_with_a_prime_half():
    """n = 2q + 1 with q prime: only the exponentiation can reject a composite n."""
    halves = (*(q for q in range(2, 3000) if is_prime(q)), *SAFE_PRIMES_64,
              *(p >> 1 for p in SAFE_PRIMES_64), *LARGE_SAFE_PRIMES, 2**61 - 1, 2**89 - 1)
    composites = [2 * q + 1 for q in halves if not is_prime(2 * q + 1)]
    assert len(composites) > 300 and any(n % 3 for n in composites)
    for n in composites:
        assert not is_safe_prime(n), n


def test_is_safe_prime_rejects_pseudoprimes():
    for n in (*CARMICHAEL, PSEUDOPRIME_12_BASES, 2 * PSEUDOPRIME_12_BASES + 1,
              *(2 * c + 1 for c in CARMICHAEL)):
        assert not _safe_by_the_is_prime_pair(n) and not is_safe_prime(n), n


@pytest.mark.parametrize(
    "p, q, message",
    [
        (6, 7, "6 is not prime"),
        (15, 7, "15 is not prime"),  # (15-1)/2 = 7 is prime
        (5, 561, "561 is not prime"),
        (13, 7, "13 is not a safe prime: (13-1)/2 is composite"),
        (5, 331, "331 is not a safe prime: (331-1)/2 is composite"),
        (333, None, "333 is not prime"),
        (PSEUDOPRIME_12_BASES, None, f"{PSEUDOPRIME_12_BASES} is not prime"),
    ],
)
def test_domain_new_error_messages(p, q, message):
    variant = Variant.FIELD if q is None else Variant.RING
    with pytest.raises(CompositeWhenPrimeRequired) as exc:
        domain_new(p, q, variant=variant)
    assert str(exc.value) == message


def test_field_domain_new_reuses_the_verdict_of_the_search():
    p = gen_safe_prime(64, SeededRng(5))
    misses = is_prime.cache_info().misses
    assert domain_new(p, variant=Variant.FIELD).modulus == p
    assert is_prime.cache_info().misses == misses


# --- gen_safe_prime -----------------------------------------------------------

@pytest.mark.parametrize("bits", [3, 4, 5, 8])
def test_gen_safe_prime_lands_in_exhaustive_enumeration(bits):
    expected = set(safe_primes_with_bits(bits))
    assert expected, "enumeration oracle must be non-empty"
    for seed in range(10):
        p = gen_safe_prime(bits, SeededRng(seed))
        assert p in expected


def test_three_bit_safe_primes_are_exactly_5_and_7():
    assert safe_primes_with_bits(3) == [5, 7]
    seen = {gen_safe_prime(3, SeededRng(s)) for s in range(30)}
    assert seen == {5, 7}


def test_five_bit_safe_prime_is_unique():
    assert safe_primes_with_bits(5) == [23]
    assert gen_safe_prime(5, SeededRng(99)) == 23


def test_no_two_bit_safe_prime():
    assert safe_primes_with_bits(2) == []
    with pytest.raises(ModulusTooSmall):
        gen_safe_prime(2, SeededRng(0))


def test_gen_safe_prime_deterministic_per_seed():
    a = gen_safe_prime(32, SeededRng(5))
    b = gen_safe_prime(32, SeededRng(5))
    assert a == b
    assert a.bit_length() == 32
    assert is_safe_prime(a)


def test_gen_safe_prime_64_bit():
    p = gen_safe_prime(64, SeededRng(1))
    assert p.bit_length() == 64
    assert is_prime(p) and is_prime((p - 1) // 2)


def test_gen_distinct_pair():
    p, q = algebra.gen_distinct_safe_primes(8, SeededRng(2))
    assert p != q
    assert {p, q} <= set(safe_primes_with_bits(8))


def test_gen_distinct_pair_impossible_sizes_fail_fast():
    # 4- and 5-bit ranges hold a single safe prime each (11 and 23)
    for bits in (4, 5):
        with pytest.raises(ModulusTooSmall):
            algebra.gen_distinct_safe_primes(bits, SeededRng(0))


# --- combined sieve against the naive search -----------------------------------

def _same_search(gen, naive, bits, seed):
    rng, oracle_rng = SeededRng(seed), SeededRng(seed)
    assert gen(bits, rng) == naive(bits, oracle_rng), (bits, seed)
    assert rng.take_bytes(32) == oracle_rng.take_bytes(32), (bits, seed)


@pytest.mark.parametrize("bits", range(3, 41))
def test_gen_safe_prime_matches_naive_search(bits):
    for seed in range(200):
        _same_search(gen_safe_prime, naive_gen_safe_prime, bits, seed)


@pytest.mark.parametrize("bits", [48, 64, 96, 128])
def test_gen_safe_prime_matches_naive_search_wide(bits):
    for seed in range(20):
        _same_search(gen_safe_prime, naive_gen_safe_prime, bits, seed)


@pytest.mark.parametrize("bits, seeds", [(8, 200), (16, 200), (32, 200), (64, 20)])
def test_gen_distinct_safe_primes_matches_naive_search(bits, seeds):
    for seed in range(seeds):
        _same_search(gen_distinct_safe_primes, naive_gen_distinct_safe_primes, bits, seed)


def _fields_drawn(bits, seed):
    """The fields the naive search draws from a fresh stream, the prime last."""
    oracle = ReslicingRng(seed)
    naive_gen_safe_prime(bits, oracle)
    return oracle.taken // ((bits + 7) // 8)


def _block_edge(bits, fields):
    """'first' or 'last' when field number `fields` of a fresh stream opens or
    closes one of gen_safe_prime's blocks, else None."""
    per_block = min(bits, -(-algebra._READ_AHEAD // ((bits + 7) // 8)))
    return {0: "first", per_block - 1: "last"}.get((fields - 1) % per_block)


@pytest.mark.parametrize("seed, edge", [(153, "first"), (98, "first"), (2, "last"), (13, "last")])
def test_gen_safe_prime_matches_naive_search_at_block_edges(seed, edge):
    assert _block_edge(64, _fields_drawn(64, seed)) == edge
    _same_search(gen_safe_prime, naive_gen_safe_prime, 64, seed)


# gen_safe_prime(bits, SeededRng(seed)) before block screening, and the stream
# bytes it consumed: 32-, 33- and 64-byte fields, the last two not dividing
# _READ_AHEAD, with primes that open or close a block
WIDE_SEARCHES = (
    (256, 0, 32768, "b40667a0d3758bee7f4c7694971156388f2a23ab519442200066f4da8cc963df", "last"),
    (256, 3, 11456, "9371c1a86eb1afead92897907ce7f6d70428c2ef2bba36018680b731dd40bda3", None),
    (257, 1, 5841, "164ebb8606aa198022da09c5f02068a6f1e204ea844353ea0f6ffe89253cb4197", "first"),
    (257, 32, 11088, "115b41637db2e22d69ad966f6c8c4fada06eb01dc4a503425fc0b43c8504cc7db", "last"),
    (512, 0, 187840, "b54fe6fe76dbcfac6dbf71a3d1b967de96a8f4fe06376b005c51bde1f1d82961"
                     "be5643c3fb113d4f2e287e88a94e5c4503f298f9f89abff8c117e46629e18477", None),
    (512, 13, 629248, "e7c035b25000445231d62a8597acb150b0f483b6f25ac163af36175c3e3d3c92"
                      "00061d084c0e07b38369ffe299830f522551ba793685d683302b1fd63211ae37", "last"),
    (512, 88, 590912, "dbd099fe8c55a407d48550aaf9ded5a57b72f34d32f156163b1d436e326b21ab"
                      "3697c977a241d0231839600101878e8bed15b2863ee5d2ee82a5b68730f477ef", "first"),
)


@pytest.mark.parametrize("bits, seed, consumed, prime, edge", WIDE_SEARCHES,
                         ids=[f"{bits}-{seed}" for bits, seed, *_ in WIDE_SEARCHES])
def test_gen_safe_prime_wide_matches_the_recorded_search(bits, seed, consumed, prime, edge):
    n = (bits + 7) // 8
    assert consumed % n == 0 and _block_edge(bits, consumed // n) == edge
    rng, oracle = SeededRng(seed), ReslicingRng(seed)
    assert gen_safe_prime(bits, rng) == int(prime, 16)
    for _ in range(consumed // n):  # field by field: the oracle copies its whole buffer per block
        oracle.take_bytes(n)
    assert rng.take_bytes(32) == oracle.take_bytes(32)


def _is_safe_pair(v):
    return is_prime(v >> 1) and is_prime(v)


def test_sieve_exact_from_11_to_14_bits():
    # every v = 3 mod 4 across the boundary where v >> 1 first exceeds the
    # largest sieve prime; below it the sieve must not decide (1907 is a safe
    # prime whose half, 953, is a sieve prime)
    top = algebra._SIEVE_TOP
    assert top == 997 and is_safe_prime(1907)
    decided = rejected = 0
    for v in range(1027, 1 << 14, 4):
        if v >> 1 <= top:
            assert not algebra._sieve_rejects(v), v
            continue
        decided += 1
        if algebra._sieve_rejects(v):
            rejected += 1
            assert not _is_safe_pair(v), v
        else:
            assert _is_safe_pair(v), v  # composites below 1009**2 have a factor below 1000
    assert decided > 3000 and rejected < decided


@given(v=st.one_of(
    st.integers(min_value=1 << 8, max_value=(1 << 126) - 1).map(lambda k: 4 * k + 3),
    st.sampled_from(LARGE_SAFE_PRIMES),
))
@example(v=1995)  # v >> 1 == 997, the largest sieve prime
@example(v=1999)  # v >> 1 == 999, the first half above it (v = 3 mod 4)
@settings(max_examples=300, deadline=None)
def test_sieve_rejects_only_composites(v):
    screened = v.bit_length() >= algebra._PRESCREEN_MIN_BITS
    if algebra._sieve_rejects(v) or (screened and _prescreen_rejects(v)):
        assert not _is_safe_pair(v)
    if v in LARGE_SAFE_PRIMES:
        assert is_safe_prime(v) and not algebra._sieve_rejects(v) and not _prescreen_rejects(v)


def _prescreen_rejects(v):
    return algebra._PRESCREEN[v % algebra._PRESCREEN_MOD] == 1


def test_prescreen_table_marks_zero_and_one_mod_each_prime():
    primes = algebra._PRESCREEN_PRIMES
    assert primes == (3, 5, 7, 11) and algebra._PRESCREEN_MOD == 1155 == len(algebra._PRESCREEN)
    for v in range(algebra._PRESCREEN_MOD):
        assert _prescreen_rejects(v) == any(v % r in (0, 1) for r in primes), v


def test_prescreen_exact_from_12_to_16_bits():
    # every v = 3 mod 4 the search can draw at these sizes: a rejection must
    # name a proper factor of v or of (v-1)/2, found here by trial division
    assert algebra._PRESCREEN_MIN_BITS == 12
    rejected = 0
    for v in range(1 << 11 | 3, 1 << 16, 4):
        if _prescreen_rejects(v):
            rejected += 1
            assert not (prime_by_trial_division(v) and prime_by_trial_division(v >> 1)), v
    assert 0.85 < rejected / ((1 << 16) - (1 << 11)) * 4 < 0.95


# --- power_vector -------------------------------------------------------------

def test_power_vector_basic(ring35):
    assert power_vector(2, 2, ring35) == (1, 2, 4)


def test_power_vector_zero(ring35):
    assert power_vector(0, 3, ring35) == (1, 0, 0, 0)


def test_power_vector_wraps(ring35):
    assert power_vector(6, 2, ring35) == (1, 6, 1)  # 36 mod 35


def test_power_vector_width_bound(ring35):
    with pytest.raises(WidthTooSmall):
        power_vector(2, 1, ring35)


@given(x=st.integers(min_value=0, max_value=34), w=st.integers(min_value=2, max_value=8))
@settings(max_examples=40, deadline=None)
def test_power_vector_matches_pow(x, w, ):
    ctx = domain_new(5, 7, variant=Variant.RING)
    assert power_vector(x, w, ctx) == tuple(pow(x, k, 35) for k in range(w + 1))


# --- inner_product ------------------------------------------------------------

def test_inner_product_fixture(ring35):
    assert inner_product((1, 2, 4), (3, 1, 2), ring35) == 13


def test_inner_product_basis_projection(ring35):
    assert inner_product((1, 0, 0), (9, 5, 6), ring35) == 9


def test_inner_product_zero_vector(ring35):
    assert inner_product((1, 2, 4), (0, 0, 0), ring35) == 0


def test_inner_product_length_mismatch(ring35):
    with pytest.raises(LengthMismatch):
        inner_product((1, 2), (1, 2, 3), ring35)
    with pytest.raises(LengthMismatch):
        inner_product((), (), ring35)


def test_inner_product_oracle_exhaustive_small():
    # every x in every small modulus, a handful of challenge vectors, t <= 4
    rng = SeededRng(42)
    for m in (35, 55, 77) + SMALL_SAFE_PRIMES:
        variant = Variant.RING if m in (35, 55, 77) else Variant.FIELD
        if variant is Variant.RING:
            p, q = {35: (5, 7), 55: (5, 11), 77: (7, 11)}[m]
            ctx = domain_new(p, q, variant=variant)
        else:
            ctx = domain_new(m, variant=variant)
        for t in (2, 3, 4):
            for x in range(m):
                r = tuple(sample_element(rng, ctx) for _ in range(t + 1))
                v = power_vector(x, t, ctx)
                assert inner_product(v, r, ctx) == naive_inner(v, r, m)


@given(
    m_choice=st.sampled_from([35, 23]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_inner_product_linearity(m_choice, data):
    if m_choice == 35:
        ctx = domain_new(5, 7, variant=Variant.RING)
    else:
        ctx = domain_new(23, variant=Variant.FIELD)
    n = data.draw(st.integers(min_value=1, max_value=6))
    elems = st.integers(min_value=0, max_value=ctx.modulus - 1)
    v = tuple(data.draw(elems) for _ in range(n))
    r1 = tuple(data.draw(elems) for _ in range(n))
    r2 = tuple(data.draw(elems) for _ in range(n))
    summed = tuple(ctx.add(a, b) for a, b in zip(r1, r2))
    assert inner_product(v, summed, ctx) == ctx.add(
        inner_product(v, r1, ctx), inner_product(v, r2, ctx)
    )


# --- closure & no-inversion shape ----------------------------------------------

@given(a=st.integers(min_value=-500, max_value=500), b=st.integers(min_value=-500, max_value=500))
@settings(max_examples=50, deadline=None)
def test_closure(a, b):
    ctx = domain_new(5, 7, variant=Variant.RING)
    for res in (ctx.add(a, b), ctx.sub(a, b), ctx.reduce(a)):
        assert 0 <= res < ctx.modulus


def test_module_exposes_no_inversion():
    forbidden = ("inv", "inverse", "invert", "div", "truediv", "reciprocal")
    for name in dir(algebra):
        assert not any(f in name.lower() for f in forbidden), name
    for name in dir(DomainContext):
        assert not any(f in name.lower() for f in forbidden), name


# --- sampling ------------------------------------------------------------------

def test_sample_element_deterministic(ring35):
    xs = [sample_element(SeededRng(123), ring35) for _ in range(2)]
    assert xs[0] == xs[1]


def test_sample_element_stream_advances(ring35):
    rng = SeededRng(123)
    draws = [sample_element(rng, ring35) for _ in range(20)]
    assert len(set(draws)) > 1


def test_sample_element_range_tiny():
    ctx = DomainContext(modulus=2, variant=Variant.FIELD, byte_width=1)
    rng = SeededRng(5)
    assert all(sample_element(rng, ctx) in (0, 1) for _ in range(50))


def test_sample_element_hits_every_residue(ring35):
    rng = SeededRng(7)
    seen = {sample_element(rng, ring35) for _ in range(10_000)}
    assert seen == set(range(35))


def test_rng_streams_differ_by_seed():
    assert SeededRng(1).take_bytes(32) != SeededRng(2).take_bytes(32)


def test_rng_rejects_negative_seed():
    with pytest.raises(ValueError):
        SeededRng(-1)


# --- SeededRng against the re-slicing oracle -----------------------------------

def _oracle_sample(oracle, ctx):
    while True:
        v = int.from_bytes(oracle.take_bytes(ctx.byte_width), "big")
        if v < ctx.modulus:
            return v


def test_rng_mixed_draw_sizes_match_oracle():
    # take_bytes, skip with or without a peek first, and sample_element, sizes 1..100
    ctx = DomainContext(modulus=300, variant=Variant.FIELD, byte_width=2)
    for seed in range(100):
        plan = random.Random(seed)
        rng, oracle = SeededRng(seed), ReslicingRng(seed)
        for _ in range(30):
            n, op = plan.randint(1, 100), plan.randrange(3)
            if op == 0:
                assert rng.take_bytes(n) == oracle.take_bytes(n), seed
            elif op == 1:
                expected = oracle.take_bytes(n)
                if plan.randrange(2):
                    assert rng.peek(n) == expected, seed
                rng.skip(n)
            else:
                assert sample_element(rng, ctx) == _oracle_sample(oracle, ctx), seed


@pytest.mark.parametrize("n", [1, 7, 8, 33, 100])
def test_rng_abandoned_draws_then_take_bytes_match_oracle(n):
    """k n-byte draws peeked, as gen_safe_prime peeks a block, and never skipped
    leave the stream as it was, whether the peek refilled the buffer or not."""
    for seed in range(100):
        rng, oracle, lookahead = SeededRng(seed), ReslicingRng(seed), ReslicingRng(seed)
        head = seed % 40
        assert rng.take_bytes(head) == oracle.take_bytes(head) == lookahead.take_bytes(head)
        k = 1 + seed % 50
        assert rng.peek(k * n) == lookahead.take_bytes(k * n), (n, seed)
        assert rng.take_bytes(300) == oracle.take_bytes(300), (n, seed)


def test_rng_skipping_part_of_a_peek_matches_oracle():
    """skip(j) after peek(m), j <= m, consumes the peek's first j bytes: the next
    peek starts with its other m - j, and the stream goes on from there."""
    for seed in range(100):
        plan = random.Random(seed)
        rng, oracle = SeededRng(seed), ReslicingRng(seed)
        for _ in range(40):
            m = plan.randint(0, 600)
            j = plan.randint(0, m)
            ahead = rng.peek(m)
            assert len(ahead) == m and rng.peek(m) == ahead
            rng.skip(j)
            assert ahead[:j] == oracle.take_bytes(j), seed
            assert rng.peek(m - j) == ahead[j:], seed
            if plan.randrange(2):
                n = plan.randint(0, 100)
                assert rng.take_bytes(n) == oracle.take_bytes(n), seed
