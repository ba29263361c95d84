import hashlib
import itertools
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


def naive_gen_safe_prime(bit_length, rng):
    """The safe-prime search before the combined sieve: every candidate goes
    straight to the is_prime pair. Same draws, so it must return the same prime."""
    if bit_length < 3:
        raise ModulusTooSmall(f"no safe prime has {bit_length} bits")
    nbytes = (bit_length + 7) // 8
    mask = (1 << bit_length) - 1
    while True:
        v = int.from_bytes(rng.take_bytes(nbytes), "big") & mask
        v |= (1 << (bit_length - 1)) | 1
        if bit_length >= 4:
            v |= 2
        if is_prime(v >> 1) and is_prime(v):
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

    def take_bytes(self, n):
        while len(self._buffer) < n:
            block = self._key + self._counter.to_bytes(8, "big")
            self._buffer += hashlib.sha256(block).digest()
            self._counter += 1
        out, self._buffer = self._buffer[:n], self._buffer[n:]
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
    for res in (ctx.add(a, b), ctx.sub(a, b), ctx.mul(a, b), ctx.reduce(a)):
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

def _oracle_draw(oracle, n):
    return int.from_bytes(oracle.take_bytes(n), "big")


def _oracle_sample(oracle, ctx):
    while True:
        v = _oracle_draw(oracle, ctx.byte_width)
        if v < ctx.modulus:
            return v


def test_rng_mixed_draw_sizes_match_oracle():
    # take_bytes, whole runs of draws, and sample_element, sizes 1..100
    ctx = DomainContext(modulus=300, variant=Variant.FIELD, byte_width=2)
    for seed in range(100):
        plan = random.Random(seed)
        rng, oracle = SeededRng(seed), ReslicingRng(seed)
        for _ in range(30):
            n, k, op = plan.randint(1, 100), plan.randint(1, 150), plan.randrange(3)
            if op == 0:
                assert rng.take_bytes(n) == oracle.take_bytes(n), seed
            elif op == 1:
                got = list(itertools.islice(rng.draws(n), k))
                assert got == [_oracle_draw(oracle, n) for _ in range(k)], seed
            else:
                assert sample_element(rng, ctx) == _oracle_sample(oracle, ctx), seed


def test_rng_take_bytes_between_yields_of_live_draws_match_oracle():
    # several draws iterators stay open while take_bytes and each other read on
    for seed in range(100):
        plan = random.Random(seed)
        rng, oracle = SeededRng(seed), ReslicingRng(seed)
        sizes = [plan.randint(1, 100) for _ in range(3)]
        live = [rng.draws(n) for n in sizes]
        for _ in range(200):
            pick = plan.randrange(4)
            if pick == 3:
                n = plan.randint(0, 100)
                assert rng.take_bytes(n) == oracle.take_bytes(n), seed
            else:
                assert next(live[pick]) == _oracle_draw(oracle, sizes[pick]), seed


@pytest.mark.parametrize("n", [1, 7, 8, 33, 100])
def test_rng_abandoned_draws_then_take_bytes_match_oracle(n):
    assert algebra._READ_AHEAD >= 50 * 8
    for seed in range(100):
        rng, oracle = SeededRng(seed), ReslicingRng(seed)
        it = rng.draws(n)
        k = 1 + seed % 50  # for n = 8, stops inside the first decoded batch
        assert [next(it) for _ in range(k)] == [_oracle_draw(oracle, n) for _ in range(k)]
        del it
        assert rng.take_bytes(300) == oracle.take_bytes(300), (n, seed)
