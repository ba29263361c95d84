import pytest

from gkdsim.adversary import (
    ActionKind,
    BroadcastSuppressor,
    ChannelAction,
    InsiderContext,
    InsiderInterceptor,
    forge_broadcast,
    insider_recover_key,
)
from gkdsim.algebra import SeededRng
from gkdsim.codec import PublicParams
from gkdsim.errors import AttackerIsVictim, IndexOutOfRoster, NotInRoster
from gkdsim.protocol import (
    ChallengeMessage,
    GroupRoster,
    KgcBroadcast,
    OutcomeStatus,
    PartyIdentity,
    challenge_vector,
    kgc_distribute,
    user_process_broadcast,
)

ROSTER = GroupRoster((b"A", b"B"))
KEYS = {b"A": 2, b"B": 3}
CHALLENGES = {b"A": 1, b"B": 2}
ATTACKER = PartyIdentity(b"B", 3)
VICTIM = PartyIdentity(b"A", 2)


@pytest.fixture
def honest_bcast(ring35):
    bcast, _ = kgc_distribute(
        ROSTER, KEYS, CHALLENGES, SeededRng(0), PublicParams(ring35),
        group_key=10, nonce=3,
    )
    return bcast


# --- key recovery -----------------------------------------------------------------

def test_insider_recovers_group_key(ring35, honest_bcast):
    # attacker at index 1: 21 + 24 = 45 = 10 mod 35
    assert insider_recover_key(
        ATTACKER, ROSTER, challenge_vector(ROSTER, CHALLENGES), honest_bcast, PublicParams(ring35)
    ) == 10


def test_recovery_requires_membership(ring35, honest_bcast):
    with pytest.raises(NotInRoster):
        insider_recover_key(
            PartyIdentity(b"Z", 7), ROSTER, challenge_vector(ROSTER, CHALLENGES), honest_bcast,
            PublicParams(ring35)
        )


def test_recovery_from_tampered_share_is_wrong_but_detectable(ring35, honest_bcast):
    tampered = KgcBroadcast(
        honest_bcast.auth, honest_bcast.r0,
        (honest_bcast.masked_shares[0], honest_bcast.masked_shares[1] ^ 1),
    )
    recovered = insider_recover_key(
        ATTACKER, ROSTER, challenge_vector(ROSTER, CHALLENGES), tampered, PublicParams(ring35)
    )
    assert recovered != 10
    out = user_process_broadcast(
        ATTACKER, ROSTER, challenge_vector(ROSTER, CHALLENGES), tampered, PublicParams(ring35)
    )
    assert out.status is OutcomeStatus.REJECTED


# --- the forgery -------------------------------------------------------------------

def test_forge_fixture(ring35, honest_bcast):
    forged = forge_broadcast(0, 4, 10, honest_bcast, ROSTER, challenge_vector(ROSTER, CHALLENGES),
                             PublicParams(ring35))
    assert forged.masked_shares == (26, 21)  # 32 - 10 + 4
    assert forged.r0 == honest_bcast.r0
    assert forged.auth != honest_bcast.auth
    out = user_process_broadcast(VICTIM, ROSTER, challenge_vector(ROSTER, CHALLENGES), forged,
                                 PublicParams(ring35))
    assert out.status is OutcomeStatus.ACCEPTED
    assert out.key == 4  # 26 + 13 = 39 = 4 mod 35


def test_forge_with_true_key_degenerates_to_honest(ring35, honest_bcast):
    forged = forge_broadcast(0, 10, 10, honest_bcast, ROSTER, challenge_vector(ROSTER, CHALLENGES),
                             PublicParams(ring35))
    assert forged == honest_bcast


def test_forged_copy_shown_to_non_victim_is_rejected(ring35, honest_bcast):
    forged = forge_broadcast(0, 4, 10, honest_bcast, ROSTER, challenge_vector(ROSTER, CHALLENGES),
                             PublicParams(ring35))
    out = user_process_broadcast(ATTACKER, ROSTER, challenge_vector(ROSTER, CHALLENGES), forged,
                                 PublicParams(ring35))
    # the non-victim still derives the true key from its untouched share,
    # but the tag was computed over the planted key, so it rejects
    assert out.status is OutcomeStatus.REJECTED


def test_forge_rejects_bad_victim_index(ring35, honest_bcast):
    with pytest.raises(IndexOutOfRoster):
        forge_broadcast(5, 4, 10, honest_bcast, ROSTER, challenge_vector(ROSTER, CHALLENGES),
                        PublicParams(ring35))


def test_forgery_touches_exactly_two_fields(ring35, honest_bcast):
    forged = forge_broadcast(0, 4, 10, honest_bcast, ROSTER, challenge_vector(ROSTER, CHALLENGES),
                             PublicParams(ring35))
    assert forged.auth != honest_bcast.auth
    assert forged.r0 == honest_bcast.r0
    diffs = [
        i for i, (a, b) in enumerate(zip(forged.masked_shares, honest_bcast.masked_shares))
        if a != b
    ]
    assert diffs == [0]


def test_forgery_is_variant_independent(field23):
    # same strategy, field variant: no key other than the attacker's own is used
    keys = {b"A": 5, b"B": 9}
    challenges = {b"A": 4, b"B": 17}
    roster = GroupRoster((b"A", b"B"))
    bcast, s = kgc_distribute(
        roster, keys, challenges, SeededRng(2), PublicParams(field23)
    )
    attacker = PartyIdentity(b"B", 9)
    recovered = insider_recover_key(attacker, roster, challenge_vector(roster, challenges), bcast,
                                    PublicParams(field23))
    assert recovered == s
    target = (s + 7) % 23
    forged = forge_broadcast(0, target, recovered, bcast, roster, challenge_vector(roster, challenges),
                             PublicParams(field23))
    out = user_process_broadcast(
        PartyIdentity(b"A", 5), roster, challenge_vector(roster, challenges), forged, PublicParams(field23)
    )
    assert out.status is OutcomeStatus.ACCEPTED and out.key == target


# --- channel actions ----------------------------------------------------------------

def test_channel_action_constructors():
    assert ChannelAction.deliver().kind is ActionKind.DELIVER
    assert ChannelAction.drop().kind is ActionKind.DROP
    replaced = ChannelAction.replace("msg")
    assert replaced.kind is ActionKind.REPLACE and replaced.message == "msg"
    with pytest.raises(ValueError):
        ChannelAction.replace(None)


# --- interceptor strategy --------------------------------------------------------------

def make_interceptor(ring35, target_key=4):
    ictx = InsiderContext(attacker=ATTACKER, victim_index=0, target_key=target_key)
    return InsiderInterceptor(ictx, ROSTER, PublicParams(ring35), rng=SeededRng(3))


def test_strategy_rejects_attacker_as_victim(ring35):
    ictx = InsiderContext(attacker=ATTACKER, victim_index=1, target_key=4)
    with pytest.raises(AttackerIsVictim):
        InsiderInterceptor(ictx, ROSTER, PublicParams(ring35))


def test_strategy_rejects_victim_outside_roster(ring35):
    ictx = InsiderContext(attacker=ATTACKER, victim_index=9, target_key=4)
    with pytest.raises(IndexOutOfRoster):
        InsiderInterceptor(ictx, ROSTER, PublicParams(ring35))


def test_strategy_requires_member_attacker(ring35):
    ictx = InsiderContext(attacker=PartyIdentity(b"Z", 1), victim_index=0, target_key=4)
    with pytest.raises(NotInRoster):
        InsiderInterceptor(ictx, ROSTER, PublicParams(ring35))


def test_interceptor_passes_everything_but_the_victim_broadcast(ring35, honest_bcast):
    icpt = make_interceptor(ring35)
    challenge = ChallengeMessage(b"A", 1)
    assert icpt.intercept(challenge).kind is ActionKind.DELIVER
    icpt.observe(b"A", ChallengeMessage(b"A", 1))
    icpt.observe(b"B", ChallengeMessage(b"B", 2))
    # broadcast to the victim: replaced with the forgery
    action = icpt.intercept(honest_bcast)
    assert action.kind is ActionKind.REPLACE
    assert action.message.masked_shares == (26, 21)
    assert icpt.recovered_key == 10 and icpt.forged_key == 4


def test_interceptor_draws_random_target_distinct_from_key(ring35, honest_bcast):
    icpt = make_interceptor(ring35, target_key=None)
    icpt.observe(b"A", ChallengeMessage(b"A", 1))
    icpt.observe(b"B", ChallengeMessage(b"B", 2))
    action = icpt.intercept(honest_bcast)
    assert action.kind is ActionKind.REPLACE
    assert icpt.forged_key != icpt.recovered_key == 10


def test_interceptor_needs_rng_for_random_target(ring35):
    ictx = InsiderContext(attacker=ATTACKER, victim_index=0, target_key=None)
    with pytest.raises(ValueError):
        InsiderInterceptor(ictx, ROSTER, PublicParams(ring35))


def test_suppressor_drops_only_victim_broadcast(ring35, honest_bcast):
    sup = BroadcastSuppressor()
    assert sup.intercept(honest_bcast).kind is ActionKind.DROP
    assert sup.intercept(ChallengeMessage(b"B", 2)).kind is ActionKind.DELIVER
