import inspect

import pytest
from hypothesis import given, settings, strategies as st

from gkdsim import adversary, protocol
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
    kgc_distribute,
    user_process_broadcast,
)
from gkdsim.simnet import ScenarioConfig, outcome_failures, run_scenario

ROSTER = GroupRoster((b"A", b"B"))
KEYS = {b"A": 2, b"B": 3}
CHALLENGES = (1, 2)  # (r_1, r_2) in roster order
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
        ATTACKER, ROSTER, CHALLENGES, honest_bcast, PublicParams(ring35)
    ) == 10


def test_recovery_requires_membership(ring35, honest_bcast):
    with pytest.raises(NotInRoster):
        insider_recover_key(
            PartyIdentity(b"Z", 7), ROSTER, CHALLENGES, honest_bcast, PublicParams(ring35)
        )


def test_recovery_from_tampered_share_is_wrong_but_detectable(ring35, honest_bcast):
    tampered = KgcBroadcast(
        honest_bcast.auth, honest_bcast.r0,
        (honest_bcast.masked_shares[0], honest_bcast.masked_shares[1] ^ 1),
    )
    recovered = insider_recover_key(
        ATTACKER, ROSTER, CHALLENGES, tampered, PublicParams(ring35)
    )
    assert recovered != 10
    out = user_process_broadcast(
        ATTACKER, ROSTER, CHALLENGES, tampered, PublicParams(ring35)
    )
    assert out.status is OutcomeStatus.REJECTED


# --- the forgery -------------------------------------------------------------------

def test_forge_fixture(ring35, honest_bcast):
    forged = forge_broadcast(0, 4, 10, honest_bcast, ROSTER, CHALLENGES, PublicParams(ring35))
    assert forged.masked_shares == (26, 21)  # 32 - 10 + 4
    assert forged.r0 == honest_bcast.r0
    assert forged.auth != honest_bcast.auth
    out = user_process_broadcast(VICTIM, ROSTER, CHALLENGES, forged, PublicParams(ring35))
    assert out.status is OutcomeStatus.ACCEPTED
    assert out.key == 4  # 26 + 13 = 39 = 4 mod 35


def test_forge_with_true_key_degenerates_to_honest(ring35, honest_bcast):
    forged = forge_broadcast(0, 10, 10, honest_bcast, ROSTER, CHALLENGES, PublicParams(ring35))
    assert forged == honest_bcast


def test_forged_copy_shown_to_non_victim_is_rejected(ring35, honest_bcast):
    forged = forge_broadcast(0, 4, 10, honest_bcast, ROSTER, CHALLENGES, PublicParams(ring35))
    out = user_process_broadcast(ATTACKER, ROSTER, CHALLENGES, forged, PublicParams(ring35))
    # the non-victim still derives the true key from its untouched share,
    # but the tag was computed over the planted key, so it rejects
    assert out.status is OutcomeStatus.REJECTED


def test_forge_rejects_bad_victim_index(ring35, honest_bcast):
    with pytest.raises(IndexOutOfRoster):
        forge_broadcast(5, 4, 10, honest_bcast, ROSTER, CHALLENGES, PublicParams(ring35))


def test_forgery_touches_exactly_two_fields(ring35, honest_bcast):
    forged = forge_broadcast(0, 4, 10, honest_bcast, ROSTER, CHALLENGES, PublicParams(ring35))
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
    challenges = (4, 17)
    roster = GroupRoster((b"A", b"B"))
    bcast, s = kgc_distribute(
        roster, keys, challenges, SeededRng(2), PublicParams(field23)
    )
    attacker = PartyIdentity(b"B", 9)
    recovered = insider_recover_key(attacker, roster, challenges, bcast, PublicParams(field23))
    assert recovered == s
    target = (s + 7) % 23
    forged = forge_broadcast(0, target, recovered, bcast, roster, challenges, PublicParams(field23))
    out = user_process_broadcast(
        PartyIdentity(b"A", 5), roster, challenges, forged, PublicParams(field23)
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


# --- one public challenge vector ------------------------------------------------------

_SPIED = ((protocol, "kgc_distribute"), (protocol, "user_process_broadcast"), (adversary, "insider_recover_key"))


@given(
    t=st.integers(min_value=2, max_value=8),
    ring=st.booleans(),
    action=st.sampled_from([None, "forge", "suppress"]),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=100, deadline=None)
def test_every_party_reads_one_vector_and_the_forgery_lands(t, ring, action, data, seed):
    """In a run, the KGC, every member that gets a broadcast and the insider
    each pass the ground truth's challenges, in roster order, to their step;
    a forged victim accepts the planted key and no outcome misses."""
    members = [f"m{k}" for k in range(t)]
    cfg = {"variant": "ring" if ring else "field", "modulus": {"p": 167, "q": 179} if ring else {"p": 227},
           "members": members, "seed": seed}
    if action:
        attacker, victim = data.draw(st.permutations(members))[:2]
        cfg["adversary"] = {"attacker": attacker, "victim": victim, "action": action}
    seen = {name: [] for _, name in _SPIED}

    def spy(module, name):
        step = getattr(module, name)

        def spied(*args, **kwargs):
            seen[name].append(inspect.signature(step).bind(*args, **kwargs).arguments["challenges"])
            return step(*args, **kwargs)
        return spied

    with pytest.MonkeyPatch.context() as mp:
        for module, name in _SPIED:
            mp.setattr(module, name, spy(module, name))
        tr = run_scenario(ScenarioConfig.from_dict(cfg))
    gt = tr.ground_truth
    vector = tuple(gt.challenges[m] for m in members)
    calls = {"kgc_distribute": 1, "user_process_broadcast": t - (action == "suppress"),
             "insider_recover_key": int(action == "forge")}
    assert seen == {name: [vector] * n for name, n in calls.items()}
    assert outcome_failures(tr) == []
    if action == "forge":
        victim_outcome = tr.outcomes[members.index(victim)]
        assert (victim_outcome.status, victim_outcome.key) == ("accepted", gt.adversary.target_key)
