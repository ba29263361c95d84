import copy
import dataclasses
import hashlib
import inspect
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from gkdsim import adversary, codec, protocol
from gkdsim.adversary import InsiderInterceptor
from gkdsim.algebra import SeededRng, Variant, domain_new, inner_product, power_vector, sample_element
from gkdsim.codec import AuthInput, HashConfig, PublicParams, ZERO_HASH, compute_auth
from gkdsim.errors import (
    DuplicateMember,
    IncompleteChallenges,
    IndexOutOfRoster,
    MalformedBroadcast,
    NotInRoster,
    UnknownMember,
    WidthTooSmall,
)
from gkdsim.protocol import (
    GroupMember,
    GroupRoster,
    KeyGenerationCentre,
    KgcBroadcast,
    OutcomeStatus,
    PartyIdentity,
    challenge_vector,
    compute_share,
    kgc_distribute,
    user_process_broadcast,
)
from gkdsim.simnet import MAX_BITS


# --- independent oracles --------------------------------------------------------

def naive_share_ring(x, nonces, m):
    """Degree-t polynomial in x with the nonces as coefficients, plain ints."""
    return sum(pow(x, k) * r for k, r in enumerate(nonces)) % m


def naive_share_field(x, nonces, index, m, byte_width):
    """Field-variant oracle: recompute the offset straight from hashlib."""
    material = (
        (x % m).to_bytes(byte_width, "big")
        + (nonces[index + 1] % m).to_bytes(byte_width, "big")
        + (nonces[0] % m).to_bytes(byte_width, "big")
    )
    offset = int.from_bytes(hashlib.sha256(material).digest(), "big") % m
    return naive_share_ring((x + offset) % m, nonces, m)


# --- shared fixture: the hand-worked m = 35 session ------------------------------

ROSTER = GroupRoster((b"A", b"B"))
KEYS = {b"A": 2, b"B": 3}
CHALLENGES = (1, 2)  # (r_1, r_2) in roster order


@pytest.fixture
def honest_bcast(ring35):
    bcast, s = kgc_distribute(
        ROSTER, KEYS, CHALLENGES, SeededRng(0), PublicParams(ring35),
        group_key=10, nonce=3,
    )
    assert s == 10
    return bcast


# --- compute_share ----------------------------------------------------------------

def test_share_ring_fixture(ring35):
    assert compute_share(2, (3, 1, 2), 0, PublicParams(ring35)) == 13
    assert compute_share(3, (3, 1, 2), 1, PublicParams(ring35)) == 24


def test_share_zero_key_projects_r0(ring35):
    assert compute_share(0, (3, 1, 2), 0, PublicParams(ring35)) == 3


def test_share_field_with_zero_hash_reduces_to_ring(field23):
    cfg = HashConfig(element_hash=ZERO_HASH)
    ring23 = dataclasses.replace(field23, variant=Variant.RING)
    for x in range(23):
        for nonces in ((3, 1, 2), (0, 0, 0), (22, 21, 20), (5, 0, 9)):
            assert compute_share(x, nonces, 1, PublicParams(field23, cfg)) == compute_share(
                x, nonces, 1, PublicParams(ring23)
            )


def test_share_matches_naive_oracle(ring35):
    rng = SeededRng(11)
    for x in range(35):
        for t in (2, 3):
            nonces = tuple(sample_element(rng, ring35) for _ in range(t + 1))
            assert compute_share(x, nonces, 0, PublicParams(ring35)) == naive_share_ring(
                x, nonces, 35
            )


def test_share_field_matches_independent_oracle(field23):
    rng = SeededRng(12)
    for x in range(23):
        for index in (0, 1):
            nonces = tuple(sample_element(rng, field23) for _ in range(3))
            assert compute_share(x, nonces, index, PublicParams(field23)) == naive_share_field(
                x, nonces, index, 23, field23.byte_width
            )


# 64-bit parameters for the oracle checks at roster scale: a prime field and
# a ring over two 64-bit safe primes.
FIELD_P64 = 18446744073709551557  # 2**64 - 59
RING_P64, RING_Q64 = 14452609745013686879, 17604556404558656459
SCALE_T = 256


@pytest.mark.parametrize("variant", [Variant.RING, Variant.FIELD])
@pytest.mark.parametrize("in_range", [True, False])
def test_share_matches_naive_oracle_at_scale(variant, in_range):
    if variant is Variant.RING:
        ctx = domain_new(RING_P64, RING_Q64, variant=variant)
    else:
        ctx = domain_new(FIELD_P64, variant=variant)
    m = ctx.modulus
    rng = SeededRng(256 + in_range)
    for trial in range(3):
        nonces = tuple(sample_element(rng, ctx) for _ in range(SCALE_T + 1))
        x = sample_element(rng, ctx)
        if not in_range:
            # unreduced inputs: shifted by multiples of m, negative, or far wider than m
            nonces = tuple(r + (k % 5 - 2) * m + (k % 7 == 0) * 2**200 for k, r in enumerate(nonces))
            x += (trial + 1) * m
        index = (trial * 97) % SCALE_T
        got = compute_share(x, nonces, index, PublicParams(ctx))
        if variant is Variant.RING:
            assert got == naive_share_ring(x, nonces, m)
        else:
            assert got == naive_share_field(x, nonces, index, m, ctx.byte_width)


# Blocked evaluation against the plain inner product, across block shapes of
# b = isqrt(2t): every t from 2 to 40 (one block up to t = 12, then ragged and
# exact top blocks), the exact shapes 50 = 5 * 10, 128 = 8 * 16, 242 = 11 * 22,
# 264 = 12 * 22, 968 = 22 * 44 and 1012 = 23 * 44 beside ragged ones; over 8-,
# 64-, 128-, 256- and 512-bit primes (the ring modulus is the product of two),
# so over both readouts, one reduction below 2^64 and one per block above, up
# to simnet.MAX_BITS. The 512-bit pair is gen_distinct_safe_primes(512,
# SeededRng(512)).
BLOCK_TS = (*range(2, 41), 49, 50, 51, 63, 64, 65, 127, 128, 129, 242, 255, 256, 257, 264, 968, 1000, 1012)
PRIMES_BY_BITS = {
    8: (167, 179),
    64: (RING_P64, RING_Q64),
    128: (331880924911097912510186328625611380459, 233130395800815978343738073760064868627),
    256: (
        104749286590735697114613829773036310625443839502274178850587864130300388349767,
        111427156808220404598333390809508413518829084314371931086682939062144999363647,
    ),
    512: (
        int("792726045181037126877340126568443716301989039123105519705000987761843280410079"
            "5918167269572284505342376199856113198001302671422697543441874733675406741863"),
        int("685611432877616327988429513497983614949098772306600866793505596107377183718737"
            "1053752634980731404680932370879276511149169612669459987541450849169524246959"),
    ),
}


def _domain(bits, variant):
    p, q = PRIMES_BY_BITS[bits]
    return domain_new(p, q, variant=variant) if variant is Variant.RING else domain_new(p, variant=variant)


def test_oracle_primes_reach_the_widest_prime_a_config_takes():
    assert max(PRIMES_BY_BITS) == MAX_BITS


def _oracle_share(x, nonces, index, variant, ctx):
    """inner_product over the full power vector, field offset from hashlib."""
    m = ctx.modulus
    if variant is Variant.FIELD:
        width = ctx.byte_width
        material = b"".join((v % m).to_bytes(width, "big") for v in (x, nonces[index + 1], nonces[0]))
        x += int.from_bytes(hashlib.sha256(material).digest(), "big")
    return inner_product(power_vector(x, len(nonces) - 1, ctx), nonces, ctx)


def _unreduced_inputs(rnd, t, m):
    """A key and t+1 nonces, some in range and some shifted by multiples of m,
    negative, or far wider than m."""
    nonces = tuple(rnd.randrange(m) + rnd.choice((0, 0, m, 7 * m, -m, 2**300)) for _ in range(t + 1))
    return rnd.randrange(m) + rnd.choice((0, m, 3 * m)), nonces


@pytest.mark.parametrize("bits", sorted(PRIMES_BY_BITS))
@pytest.mark.parametrize("variant", [Variant.RING, Variant.FIELD])
def test_blocked_share_matches_inner_product(bits, variant):
    ctx = _domain(bits, variant)
    rnd = random.Random(bits)
    for t in BLOCK_TS:
        x, nonces = _unreduced_inputs(rnd, t, ctx.modulus)
        index = rnd.randrange(t)
        assert compute_share(x, nonces, index,
                             PublicParams(ctx)) == _oracle_share(x, nonces, index, variant, ctx), t


@settings(max_examples=60, deadline=None)
@given(
    bits=st.sampled_from(sorted(PRIMES_BY_BITS)),
    variant=st.sampled_from(list(Variant)),
    t=st.one_of(st.integers(2, 80), st.sampled_from(BLOCK_TS)),
    seed=st.integers(0, 2**32),
)
def test_blocked_share_property(bits, variant, t, seed):
    ctx = _domain(bits, variant)
    rnd = random.Random(seed)
    x, nonces = _unreduced_inputs(rnd, t, ctx.modulus)
    index = rnd.randrange(t)
    assert compute_share(x, nonces, index, PublicParams(ctx)) == _oracle_share(x, nonces, index, variant, ctx)


@pytest.mark.parametrize("nonces", [(4, 5), (4,), ()], ids=["t=1", "t=0", "empty"])
def test_share_widths_below_two_raise_width_too_small(ring35, field23, nonces):
    with pytest.raises(WidthTooSmall):
        compute_share(2, nonces, 0, PublicParams(ring35))
    with pytest.raises(WidthTooSmall):
        compute_share(2, nonces, 0, PublicParams(field23))


@pytest.mark.parametrize("index", [-1, 3, 99])
def test_share_index_outside_the_roster_raises(ring35, field23, index):
    """t = 3: an index outside [0, 3) raises in both variants, where the field
    variant would read r_0 (index -1) or past the nonces (index 3) as the
    member's own challenge, and the ring variant would ignore it."""
    for ctx in (ring35, field23):
        with pytest.raises(IndexOutOfRoster):
            compute_share(2, (3, 4, 5, 6), index, PublicParams(ctx))


@pytest.mark.parametrize("bits", sorted(PRIMES_BY_BITS))
@pytest.mark.parametrize("variant", [Variant.RING, Variant.FIELD])
@pytest.mark.parametrize("excess", [0, 2**300], ids=["m-1", "m-1+2^300"])
def test_packed_share_at_the_largest_residues(bits, variant, excess):
    """x = m-1 and every nonce m-1: the largest residues every slot sum can see.
    The field variant runs with the hash offset (default hash) and without
    (zero hash, so the evaluation point stays m-1)."""
    ctx = _domain(bits, variant)
    m = ctx.modulus
    zero = HashConfig(element_hash=ZERO_HASH)
    for t in BLOCK_TS:
        nonces = (m - 1 + excess,) * (t + 1)
        got = compute_share(m - 1, nonces, t - 1, PublicParams(ctx))
        assert got == _oracle_share(m - 1, nonces, t - 1, variant, ctx), t
        if variant is Variant.FIELD:
            got = compute_share(m - 1, nonces, t - 1, PublicParams(ctx, zero))
            assert got == _oracle_share(m - 1, nonces, t - 1, Variant.RING, ctx), t


def test_packed_lanes_are_not_shared_across_moduli():
    """One nonce tuple under two moduli, in turn: each share uses its own lanes."""
    rnd = random.Random(7)
    small, large = _domain(64, Variant.FIELD), _domain(128, Variant.FIELD)
    nonces = tuple(rnd.randrange(large.modulus) for _ in range(41))
    for ctx in (small, large, small, large):
        x = rnd.randrange(ctx.modulus)
        assert compute_share(x, nonces, 3,
                             PublicParams(ctx)) == _oracle_share(x, nonces, 3, Variant.FIELD, ctx)


def test_packed_lanes_follow_alternating_nonce_vectors():
    """Two nonce vectors in turn: every call rebuilds its lanes, none reads stale ones."""
    ctx = _domain(64, Variant.RING)
    rnd = random.Random(8)
    vectors = [_unreduced_inputs(rnd, 40, ctx.modulus)[1] for _ in range(2)]
    protocol._lanes.cache_clear()
    for k in range(6):
        x = rnd.randrange(ctx.modulus)
        nonces = vectors[k % 2]
        assert compute_share(x, nonces, 0,
                             PublicParams(ctx)) == _oracle_share(x, nonces, 0, Variant.RING, ctx)
    assert protocol._lanes.cache_info().misses == 6


class UnhashableTuple(tuple):
    """A vector that fails loudly when anything hashes it."""

    def __hash__(self):
        raise TypeError("a nonce vector was hashed")


def test_share_never_hashes_the_nonce_vector():
    """compute_share and its lanes memo take a vector whose __hash__ raises,
    on the plain (t = 5) and the packed (t = 40) path."""
    ctx = _domain(64, Variant.FIELD)
    m = ctx.modulus
    rnd = random.Random(9)
    for t in (5, 40):
        x, nonces = _unreduced_inputs(rnd, t, m)
        vector = UnhashableTuple(nonces)
        for index in (0, t - 1):
            assert compute_share(x, vector, index, PublicParams(ctx)) == _oracle_share(
                x, nonces, index, Variant.FIELD, ctx
            ), (t, index)
    b = math.isqrt(4 * 40)
    protocol._lanes.cache_clear()
    lanes = protocol._lanes(vector, b, m)
    assert protocol._lanes(tuple(nonces), b, m) is lanes  # an equal vector hits
    protocol._lanes.cache_clear()
    assert protocol._lanes(tuple(nonces), b, m) == lanes


def test_lanes_memo_matches_on_b_and_m():
    """One nonce vector with another block width, then another modulus: each rebuilds."""
    ctx = _domain(64, Variant.RING)
    m = ctx.modulus
    nonces = _unreduced_inputs(random.Random(10), 40, m)[1]
    protocol._lanes.cache_clear()
    for b, mod in ((12, m), (12, m), (13, m), (13, m + 2), (13, m + 2)):
        fresh = protocol._lanes.__wrapped__(nonces, b, mod)
        assert protocol._lanes(nonces, b, mod) == fresh, (b, mod)
    assert protocol._lanes.cache_info() == (2, 3)


def test_share_builds_one_power_vector_of_the_block_width(monkeypatch):
    """One power_vector call per share, of width t up to t = 12 and isqrt(2t) above."""
    ctx = _domain(64, Variant.FIELD)
    widths = []

    def spy(x, w, ctx):
        widths.append(w)
        return power_vector(x, w, ctx)

    monkeypatch.setattr(protocol, "power_vector", spy)
    for t in BLOCK_TS:
        widths.clear()
        compute_share(3, tuple(range(t + 1)), 0, PublicParams(ctx))
        assert widths == [t if t <= 12 else math.isqrt(2 * t)], t
    compute_share(3, tuple(range(257)), 0, PublicParams(ctx))
    assert widths[-1] <= 33


# --- kgc_distribute ----------------------------------------------------------------

def test_distribute_fixture_shares(honest_bcast):
    assert honest_bcast.r0 == 3
    assert honest_bcast.masked_shares == (32, 21)  # 10-13 and 10-24 mod 35


def test_distribute_tag_is_ordinary_compute_auth(ring35, honest_bcast):
    expected = compute_auth(
        AuthInput(10, ROSTER.members, (3, 1, 2), (32, 21)), PublicParams(ring35)
    )
    assert honest_bcast.auth == expected


def test_distribute_zero_key_negates_shares(ring35):
    bcast, _ = kgc_distribute(
        ROSTER, KEYS, CHALLENGES, SeededRng(0), PublicParams(ring35),
        group_key=0, nonce=3,
    )
    assert bcast.masked_shares == ((-13) % 35, (-24) % 35)


def test_distribute_requires_all_challenges(ring35):
    with pytest.raises(IncompleteChallenges):
        kgc_distribute(ROSTER, KEYS, (1,), SeededRng(0), PublicParams(ring35))


@pytest.mark.parametrize("t", [2, 3, 5])
@pytest.mark.parametrize("extra", [-1, 1])
def test_distribute_requires_one_challenge_per_member(ring35, t, extra):
    """t - 1 or t + 1 challenges are refused by count, as unmask refuses them,
    before any share is computed over the wrong width."""
    roster = GroupRoster(tuple(f"m{k}".encode() for k in range(t)))
    keys = {m: k + 2 for k, m in enumerate(roster.members)}
    with pytest.raises(IncompleteChallenges) as got:
        kgc_distribute(roster, keys, tuple(range(1, t + extra + 1)), SeededRng(0), PublicParams(ring35))
    assert str(got.value) == f"{t + extra} challenges for a roster of {t}"


def test_distribute_requires_registered_keys(ring35):
    with pytest.raises(UnknownMember):
        kgc_distribute(ROSTER, {b"A": 2}, CHALLENGES, SeededRng(0), PublicParams(ring35))


def test_distribute_draws_uniform_when_not_forced(ring35):
    b1, s1 = kgc_distribute(ROSTER, KEYS, CHALLENGES, SeededRng(1), PublicParams(ring35))
    b2, s2 = kgc_distribute(ROSTER, KEYS, CHALLENGES, SeededRng(1), PublicParams(ring35))
    assert (s1, b1.r0) == (s2, b2.r0)  # same seed, same draws
    assert 0 <= s1 < 35 and 0 <= b1.r0 < 35


# --- user_process_broadcast ----------------------------------------------------------

def test_user_accepts_honest_broadcast(ring35, honest_bcast):
    out = user_process_broadcast(
        PartyIdentity(b"A", 2), ROSTER, CHALLENGES, honest_bcast, PublicParams(ring35)
    )
    assert out.status is OutcomeStatus.ACCEPTED
    assert out.key == 10  # 32 + 13 = 45 = 10 mod 35


def test_user_rejects_flipped_share_bit(ring35, honest_bcast):
    tampered = KgcBroadcast(
        auth=honest_bcast.auth,
        r0=honest_bcast.r0,
        masked_shares=(honest_bcast.masked_shares[0] ^ 1, honest_bcast.masked_shares[1]),
    )
    out = user_process_broadcast(
        PartyIdentity(b"A", 2), ROSTER, CHALLENGES, tampered, PublicParams(ring35)
    )
    assert out.status is OutcomeStatus.REJECTED
    assert out.reason == "tag_mismatch"


def test_user_rejects_short_share_list(ring35, honest_bcast):
    short = KgcBroadcast(honest_bcast.auth, honest_bcast.r0, honest_bcast.masked_shares[:1])
    with pytest.raises(MalformedBroadcast):
        user_process_broadcast(
            PartyIdentity(b"A", 2), ROSTER, CHALLENGES, short, PublicParams(ring35)
        )


def test_user_requires_membership(ring35, honest_bcast):
    with pytest.raises(NotInRoster):
        user_process_broadcast(
            PartyIdentity(b"C", 9), ROSTER, CHALLENGES, honest_bcast, PublicParams(ring35)
        )


def test_user_requires_all_challenges(ring35, honest_bcast):
    with pytest.raises(IncompleteChallenges):
        user_process_broadcast(
            PartyIdentity(b"A", 2), ROSTER, challenge_vector(ROSTER, [1, None]), honest_bcast, PublicParams(ring35)
        )


def _challenge_vector_oracle(roster, challenges):
    """One lookup per roster id in a sender -> challenge mapping."""
    missing = [m for m in roster.members if m not in challenges]
    if missing:
        raise IncompleteChallenges(f"missing challenges from {missing!r}")
    return tuple(challenges[m] for m in roster.members)


def _logged(party):
    """sender -> challenge of every challenge in party's log by roster position."""
    return {m: v for m, v in zip(party.roster.members, party._log) if v is not None} if party.roster else {}


@given(
    t=st.integers(min_value=2, max_value=6),
    data=st.data(),
    extra=st.lists(st.sampled_from([b"zed", b"", b"m99"]), max_size=2, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_challenge_vector_matches_the_per_id_oracle(t, data, extra):
    """A log by roster position with None holes anywhere gives the vector, or
    the IncompleteChallenges message, that the oracle gives over the
    equivalent mapping, in any insertion order and with extra ids."""
    ids = tuple(f"m{k}".encode() for k in range(t))
    log = data.draw(st.lists(st.none() | st.integers(min_value=0), min_size=t, max_size=t))
    heard = [(m, v) for m, v in zip(ids, log) if v is not None] + [(x, 0) for x in extra]
    challenges = dict(data.draw(st.permutations(heard)))
    roster = GroupRoster(ids)
    try:
        expected = _challenge_vector_oracle(roster, challenges)
    except IncompleteChallenges as e:
        with pytest.raises(IncompleteChallenges) as got:
            challenge_vector(roster, log)
        assert str(got.value) == str(e)
    else:
        assert challenge_vector(roster, log) == expected


def test_challenge_vector_reads_a_zero_challenge_as_arrived():
    """0 is falsy but is a challenge: a complete log holding one is the vector."""
    roster = GroupRoster((b"A", b"B", b"C"))
    for log in ([0, 4, 7], [5, 0, 7], [0, 0, 0]):
        assert challenge_vector(roster, log) == tuple(log)


@pytest.mark.parametrize("log, missing", [
    ([None, 0, 7], "[b'A']"), ([0, None, 7], "[b'B']"), ([5, 0, None], "[b'C']"), ([None, 0, None], "[b'A', b'C']"),
])
def test_challenge_vector_beside_a_zero_names_only_the_holes(log, missing):
    with pytest.raises(IncompleteChallenges) as got:
        challenge_vector(GroupRoster((b"A", b"B", b"C")), log)
    assert str(got.value) == f"missing challenges from {missing}"


def test_unmask_requires_one_challenge_per_member(ring35, honest_bcast):
    for vector in ((1,), (1, 2, 3)):
        with pytest.raises(IncompleteChallenges):
            protocol.unmask(PartyIdentity(b"A", 2), ROSTER, vector, honest_bcast, PublicParams(ring35))


# --- key agreement property -----------------------------------------------------------

@given(
    seed=st.integers(min_value=0, max_value=10_000),
    t=st.integers(min_value=2, max_value=6),
    variant=st.sampled_from([Variant.RING, Variant.FIELD]),
)
@settings(max_examples=40, deadline=None)
def test_key_agreement_and_share_equation(seed, t, variant):
    ctx = (
        domain_new(167, 179, variant=variant)
        if variant is Variant.RING
        else domain_new(227, variant=variant)
    )
    rng = SeededRng(seed)
    ids = tuple(f"u{i}".encode() for i in range(t))
    roster = GroupRoster(ids)
    keys = {i: sample_element(rng, ctx) for i in ids}
    challenges = tuple(sample_element(rng, ctx) for _ in ids)
    bcast, s = kgc_distribute(roster, keys, challenges, rng, PublicParams(ctx))
    nonces = (bcast.r0, *challenges)
    for pos, i in enumerate(ids):
        # share equation against the naive big-integer oracle
        if variant is Variant.RING:
            share = naive_share_ring(keys[i], nonces, ctx.modulus)
        else:
            share = naive_share_field(keys[i], nonces, pos, ctx.modulus, ctx.byte_width)
        assert (bcast.masked_shares[pos] + share) % ctx.modulus == s
        out = user_process_broadcast(
            PartyIdentity(i, keys[i]), roster, challenges, bcast, PublicParams(ctx)
        )
        assert out.status is OutcomeStatus.ACCEPTED and out.key == s


# --- state machines ---------------------------------------------------------------------

def drive_session(ctx, names, seed=0, hash_cfg=None):
    """Manual driver: returns (kgc, members dict, broadcast, group key)."""
    params = PublicParams(ctx, hash_cfg or HashConfig())
    rng = SeededRng(seed)
    kgc = KeyGenerationCentre(params)
    members = {}
    for name in names:
        identity = PartyIdentity(name, sample_element(rng, ctx))
        kgc.register(identity)
        members[name] = GroupMember(identity, params)
    ann = kgc.announce(tuple(names))
    for m in members.values():
        m.receive_announcement(ann)
    for name in names:
        msg = members[name].issue_challenge(rng)
        kgc.receive_challenge(msg)
        for other, m in members.items():
            if other != name:
                m.observe_challenge(msg)
    bcast, s = kgc.distribute(rng)
    for m in members.values():
        m.receive_broadcast(bcast)
    return kgc, members, bcast, s


@pytest.mark.parametrize("variant", [Variant.RING, Variant.FIELD])
def test_state_machines_full_honest_run(variant):
    ctx = (
        domain_new(167, 179, variant=variant)
        if variant is Variant.RING
        else domain_new(227, variant=variant)
    )
    names = (b"alice", b"bob", b"carol")
    _, members, _, s = drive_session(ctx, names, seed=5)
    for m in members.values():
        out = m.finalize()
        assert out.status is OutcomeStatus.ACCEPTED
        assert out.key == s


def test_announce_rejects_duplicates(ring35):
    kgc = KeyGenerationCentre(PublicParams(ring35))
    kgc.register(PartyIdentity(b"A", 1))
    kgc.register(PartyIdentity(b"B", 2))
    with pytest.raises(DuplicateMember):
        kgc.announce((b"A", b"A"))


def test_announce_rejects_unregistered(ring35):
    kgc = KeyGenerationCentre(PublicParams(ring35))
    kgc.register(PartyIdentity(b"A", 1))
    kgc.register(PartyIdentity(b"B", 2))
    with pytest.raises(UnknownMember):
        kgc.announce((b"A", b"B", b"C"))


def test_announce_echoes_request_order(ring35):
    kgc = KeyGenerationCentre(PublicParams(ring35))
    for n, k in ((b"A", 1), (b"B", 2), (b"C", 3)):
        kgc.register(PartyIdentity(n, k))
    assert kgc.announce((b"C", b"A", b"B")).members == (b"C", b"A", b"B")


def test_register_rejects_duplicate_id(ring35):
    kgc = KeyGenerationCentre(PublicParams(ring35))
    kgc.register(PartyIdentity(b"A", 1))
    with pytest.raises(DuplicateMember):
        kgc.register(PartyIdentity(b"A", 9))


def test_challenge_requires_announcement(ring35):
    member = GroupMember(PartyIdentity(b"A", 2), PublicParams(ring35))
    with pytest.raises(NotInRoster):
        member.issue_challenge(SeededRng(0))


def test_challenge_vector_requires_announcement(ring35):
    """Before an announcement a member has no vector to read, as it has no challenge to issue."""
    member = GroupMember(PartyIdentity(b"A", 2), PublicParams(ring35))
    with pytest.raises(NotInRoster, match="^no announcement seen$"):
        member.challenges()
    member.receive_announcement(GroupRoster((b"A", b"B")))
    with pytest.raises(IncompleteChallenges, match=r"^missing challenges from \[b'A', b'B'\]$"):
        member.challenges()


def test_announcement_must_name_the_member(ring35):
    member = GroupMember(PartyIdentity(b"Z", 2), PublicParams(ring35))
    with pytest.raises(NotInRoster):
        member.receive_announcement(GroupRoster((b"A", b"B")))


def test_reannouncement_resets_session(ring35):
    member = GroupMember(PartyIdentity(b"A", 2), PublicParams(ring35))
    rng = SeededRng(0)
    member.receive_announcement(GroupRoster((b"A", b"B")))
    first = member.issue_challenge(rng)
    member.receive_announcement(GroupRoster((b"A", b"B")))
    assert _logged(member) == {}
    assert member.pending_broadcast is None
    second = member.issue_challenge(rng)
    assert second.value != first.value  # fresh draw from an advanced stream


def test_kgc_rejects_challenge_from_non_member(ring35):
    kgc = KeyGenerationCentre(PublicParams(ring35))
    kgc.register(PartyIdentity(b"A", 1))
    kgc.register(PartyIdentity(b"B", 2))
    kgc.announce((b"A", b"B"))
    from gkdsim.protocol import ChallengeMessage

    with pytest.raises(NotInRoster):
        kgc.receive_challenge(ChallengeMessage(b"C", 5))


def test_finalize_without_broadcast_times_out(ring35):
    member = GroupMember(PartyIdentity(b"A", 2), PublicParams(ring35))
    member.receive_announcement(GroupRoster((b"A", b"B")))
    assert member.finalize().status is OutcomeStatus.TIMEOUT


def test_every_party_names_its_missing_challenges_in_roster_order(ring35):
    """The KGC and a member each log by roster position, and the insider reads
    its member's log; with challenges missing, each refuses with the same
    message naming them."""
    params, ids = PublicParams(ring35), (b"A", b"B", b"C", b"D")
    _, _, bcast, _ = drive_session(ring35, ids)
    kgc = KeyGenerationCentre(params)
    for k, m in enumerate(ids):
        kgc.register(PartyIdentity(m, k + 2))
    member = GroupMember(PartyIdentity(b"B", 3), params)
    roster = kgc.announce(ids)
    member.receive_announcement(roster)
    insider = InsiderInterceptor(member, 0, 4)
    msg = member.issue_challenge(SeededRng(0))
    kgc.receive_challenge(msg)
    member.receive_broadcast(bcast)
    for refuse in (lambda: kgc.distribute(SeededRng(0)), member.finalize, lambda: insider.intercept(bcast)):
        with pytest.raises(IncompleteChallenges) as got:
            refuse()
        assert str(got.value) == "missing challenges from [b'A', b'C', b'D']"
    with pytest.raises(NotInRoster) as got:
        kgc.receive_challenge(protocol.ChallengeMessage(b"Z", 5))
    assert str(got.value) == "b'Z' is not in the current roster"


def test_roster_needs_two_members():
    with pytest.raises(ValueError):
        GroupRoster((b"A",))


def test_roster_index_and_errors():
    ids = tuple(f"m{k}".encode() for k in range(300))
    roster = GroupRoster(ids)
    assert [roster.index_of(m) for m in ids] == list(range(300))
    with pytest.raises(NotInRoster):
        roster.index_of(b"m300")
    with pytest.raises(DuplicateMember):
        GroupRoster((b"A", b"B", b"A"))
    with pytest.raises(DuplicateMember):
        GroupRoster(ids + (b"m7",))
    with pytest.raises(TypeError):
        roster.index[b"new"] = 0  # read-only: every party of a session holds this roster


def test_rosters_over_the_same_ids_are_equal():
    """Equal, with one hash and repr, over equal ids, and copied or pickled with
    an equal read-only index of their own."""
    a = GroupRoster((b"A", b"B", b"C"))
    b = GroupRoster(tuple([b"A", b"B", b"C"]))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "GroupRoster(members=(b'A', b'B', b'C'))"
    assert a != GroupRoster((b"C", b"B", b"A"))
    for copied in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert copied == a and copied.index == a.index
        with pytest.raises(TypeError):
            copied.index[b"D"] = 3


def test_every_member_holds_the_roster_the_kgc_announced(ring35):
    """The announcement is the KGC's roster object: every member that received
    it holds that object, not a copy."""
    kgc, members, _, _ = drive_session(ring35, (b"alice", b"bob", b"carol"))
    assert all(m.roster is kgc.roster for m in members.values())
    assert isinstance(kgc.roster, GroupRoster)


def test_member_ignores_challenges_from_non_members(ring35):
    member = GroupMember(PartyIdentity(b"A", 2), PublicParams(ring35))
    from gkdsim.protocol import ChallengeMessage

    member.observe_challenge(ChallengeMessage(b"B", 5))  # before any announcement
    assert _logged(member) == {}
    member.receive_announcement(GroupRoster((b"A", b"B")))
    member.observe_challenge(ChallengeMessage(b"C", 5))
    member.observe_challenge(ChallengeMessage(b"B", 40))
    assert _logged(member) == {b"B": 5}  # 40 mod 35


class _DictMember:
    """GroupMember's challenge bookkeeping as a sender -> value dict in arrival
    order, the reference for its roster-indexed log: the same announcement,
    broadcast and finalize, reading the vector with the per-id oracle."""

    def __init__(self, identity, params):
        self.identity, self.params = identity, params
        self.roster, self.observed_challenges, self.pending_broadcast = None, {}, None

    def receive_announcement(self, roster):
        roster.index_of(self.identity.user_id)
        self.roster, self.observed_challenges, self.pending_broadcast = roster, {}, None

    def issue_challenge(self, rng):
        if self.roster is None:
            raise NotInRoster("no announcement seen")
        value = sample_element(rng, self.params.ctx)
        self.observed_challenges[self.identity.user_id] = value
        return protocol.ChallengeMessage(self.identity.user_id, value)

    def observe_challenge(self, msg):
        if self.roster is not None and msg.sender in self.roster.index:
            self.observed_challenges[msg.sender] = msg.value % self.params.ctx.modulus

    def receive_broadcast(self, bcast):
        self.pending_broadcast = bcast

    def finalize(self):
        if self.roster is None or self.pending_broadcast is None:
            return protocol.SessionOutcome.timeout()
        challenges = _challenge_vector_oracle(self.roster, self.observed_challenges)
        return user_process_broadcast(self.identity, self.roster, challenges, self.pending_broadcast, self.params)


def _outcome(call):
    """call()'s result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as e:  # noqa: BLE001 - compared, not hidden
        return type(e), str(e)


_IDS = (b"A", b"B", b"C", b"D", b"E")
_OPS = st.one_of(
    st.tuples(st.just("announce"), st.lists(st.sampled_from(_IDS), min_size=2, max_size=5, unique=True)),
    st.tuples(st.just("issue")),
    st.tuples(st.just("observe"), st.sampled_from(_IDS + (b"Z", b"")), st.integers(0, 3 * 35)),
    st.tuples(st.just("broadcast"), st.booleans(), st.integers(0, 2**16)),
    st.tuples(st.just("finalize")),
)


@given(field=st.booleans(), ops=st.lists(_OPS, max_size=30))
@settings(max_examples=300, deadline=None)
def test_challenge_log_matches_the_dict_reference(field, ops):
    """Observes before any announcement, from non-members, repeated (the last
    wins) and at or above m, announcements over other rosters, broadcasts over
    complete and incomplete challenges: after every step the member's
    logged challenges equal the reference's, and every step returns the same
    value or raises the same exception type and message."""
    ctx = domain_new(23, variant=Variant.FIELD) if field else domain_new(5, 7, variant=Variant.RING)
    params = PublicParams(ctx)
    keys = {m: k + 2 for k, m in enumerate(_IDS)}
    identity = PartyIdentity(b"A", keys[b"A"])
    member, reference = GroupMember(identity, params), _DictMember(identity, params)
    rngs = {member: SeededRng(1), reference: SeededRng(1)}
    for op, *args in ops:
        if op == "announce":
            announced = GroupRoster(tuple(args[0]))
            steps = {p: (lambda p=p: p.receive_announcement(announced)) for p in rngs}
        elif op == "issue":
            steps = {p: (lambda p=p: p.issue_challenge(rngs[p])) for p in rngs}
        elif op == "observe":
            msg = protocol.ChallengeMessage(*args)
            steps = {p: (lambda p=p: p.observe_challenge(msg)) for p in rngs}
        elif op == "broadcast":
            honest, seed = args
            roster = reference.roster or GroupRoster(_IDS[:2])
            if honest:  # over what the reference saw, a fresh draw where it saw nothing
                draw = SeededRng(seed)
                seen = tuple(reference.observed_challenges.get(m, sample_element(draw, ctx)) for m in roster.members)
                bcast, _ = kgc_distribute(roster, keys, seen, draw, params)
            else:
                bcast = KgcBroadcast(bytes(32), seed % 35, tuple(range(seed % 4)))
            steps = {p: (lambda p=p: p.receive_broadcast(bcast)) for p in rngs}
        else:
            steps = {p: p.finalize for p in rngs}
        assert _outcome(steps[member]) == _outcome(steps[reference]), op
        assert _logged(member) == reference.observed_challenges, op


# --- key secrecy shape check --------------------------------------------------------

def test_member_state_holds_no_other_secrets(ring35):
    names = (b"alice", b"bob", b"carol")
    _, members, _, _ = drive_session(ring35, names, seed=9)
    for name, member in members.items():
        identities = [v for v in vars(member).values() if isinstance(v, PartyIdentity)]
        assert identities == [member.identity]
        # nothing on a member is keyed by other members' identities: the
        # public challenge log is a list by roster position
        for value in vars(member).values():
            if isinstance(value, dict):
                assert not (set(value) & set(names))
    assert not any(hasattr(m, "_keys") for m in members.values())


# --- one public-parameters value ----------------------------------------------------------

PARAMS_TAKERS = (
    protocol.compute_share, protocol.unmask, protocol.user_process_broadcast, protocol.kgc_distribute,
    adversary.insider_recover_key, adversary.forge_broadcast, codec.compute_auth,
    protocol.KeyGenerationCentre, protocol.GroupMember,
)


@pytest.mark.parametrize("entry", PARAMS_TAKERS, ids=lambda f: f.__qualname__)
def test_entry_points_take_one_params_value(entry):
    """Every step, the tag and the two party constructors take the public parameters
    as one PublicParams: no separate variant, domain, hash or identifier width
    that could disagree with it."""
    names = set(inspect.signature(entry).parameters)
    assert "params" in names
    assert not names & {"variant", "ctx", "hash_cfg", "id_width"}


def test_public_params_holds_exactly_the_domain_hash_and_id_width(ring35):
    assert [f.name for f in dataclasses.fields(PublicParams)] == ["ctx", "hash_cfg", "id_width"]
    params = PublicParams(ring35)
    assert params == PublicParams(ring35, HashConfig(), 16) and hash(params) == hash(PublicParams(ring35))
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.id_width = 8
    for holder in (KeyGenerationCentre(params), GroupMember(PartyIdentity(b"A", 2), params)):
        assert holder.params is params
        assert not {"variant", "ctx", "hash_cfg", "id_width"} & set(vars(holder))


def test_insider_takes_no_params_and_reads_its_members(ring35):
    """The insider is the attacker's own member: its constructor takes no public
    parameters, and it holds none apart from the member's."""
    assert not set(inspect.signature(InsiderInterceptor).parameters) & {
        "params", "ctx", "hash_cfg", "variant", "id_width", "roster"}
    params = PublicParams(ring35)
    member = GroupMember(PartyIdentity(b"B", 3), params)
    member.receive_announcement(ROSTER)
    insider = InsiderInterceptor(member, 0, 4)
    assert insider.attacker.params is params and insider.attacker.roster is ROSTER
    assert not {"params", "variant", "ctx", "hash_cfg", "id_width", "roster"} & set(vars(insider))
