import dataclasses
import inspect
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from gkdsim import adversary, protocol, simnet
from gkdsim.adversary import (
    ActionKind,
    BroadcastSuppressor,
    ChannelAction,
    InsiderInterceptor,
    forge_broadcast,
    insider_recover_key,
)
from gkdsim.algebra import SeededRng
from gkdsim.codec import PublicParams
from gkdsim.errors import AttackerIsVictim, IndexOutOfRoster, NotInRoster
from gkdsim.protocol import (
    Announcement,
    ChallengeMessage,
    GroupMember,
    GroupRoster,
    KgcBroadcast,
    TAG_MISMATCH,
    OutcomeStatus,
    PartyIdentity,
    SessionOutcome,
    kgc_distribute,
    user_process_broadcast,
)
from gkdsim.simnet import (
    STEP_ANNOUNCE,
    STEP_CHALLENGE,
    VERDICT_DELIVERED,
    VERDICT_DROPPED,
    VERDICT_REPLACED,
    ScenarioConfig,
    broadcast_payload,
    outcome_failures,
    parse_broadcast_payload,
    parse_challenge_payload,
    run_scenario,
)

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


# --- interceptor strategy --------------------------------------------------------------

def make_interceptor(ring35, target_key=4):
    """The insider over the attacker's member, announced the roster (A, B)."""
    attacker = GroupMember(ATTACKER, PublicParams(ring35))
    attacker.receive_announcement(Announcement(ROSTER.members))
    return InsiderInterceptor(attacker, ROSTER, 0, target_key, rng=SeededRng(3))


def deliver_challenges(icpt):
    """Hand the insider's member the public challenges (r_1, r_2) = CHALLENGES."""
    for sender, value in zip(ROSTER.members, CHALLENGES):
        icpt.attacker.observe_challenge(ChallengeMessage(sender, value))


def test_strategy_rejects_attacker_as_victim(ring35):
    with pytest.raises(AttackerIsVictim):
        InsiderInterceptor(GroupMember(ATTACKER, PublicParams(ring35)), ROSTER, 1, 4)


def test_strategy_rejects_victim_outside_roster(ring35):
    with pytest.raises(IndexOutOfRoster):
        InsiderInterceptor(GroupMember(ATTACKER, PublicParams(ring35)), ROSTER, 9, 4)


def test_strategy_requires_member_attacker(ring35):
    with pytest.raises(NotInRoster):
        InsiderInterceptor(GroupMember(PartyIdentity(b"Z", 1), PublicParams(ring35)), ROSTER, 0, 4)


def test_interceptor_passes_everything_but_the_victim_broadcast(ring35, honest_bcast):
    """The run offers the interceptor only the victim's broadcast (see
    test_the_interceptor_sees_only_the_victims_broadcast); every other
    delivery is the event skeleton's."""
    icpt = make_interceptor(ring35)
    deliver_challenges(icpt)
    # broadcast to the victim: replaced with the forgery
    action = icpt.intercept(honest_bcast)
    assert action.kind is ActionKind.REPLACE
    assert action.message.masked_shares == (26, 21)
    assert icpt.recovered_key == 10 and icpt.forged_key == 4


def test_interceptor_draws_random_target_distinct_from_key(ring35, honest_bcast):
    icpt = make_interceptor(ring35, target_key=None)
    deliver_challenges(icpt)
    action = icpt.intercept(honest_bcast)
    assert action.kind is ActionKind.REPLACE
    assert icpt.forged_key != icpt.recovered_key == 10


def test_interceptor_needs_rng_for_random_target(ring35):
    with pytest.raises(ValueError):
        InsiderInterceptor(GroupMember(ATTACKER, PublicParams(ring35)), ROSTER, 0, None)


def test_suppressor_drops_only_victim_broadcast(ring35, honest_bcast):
    sup = BroadcastSuppressor()
    assert sup.intercept(honest_bcast) == ChannelAction(ActionKind.DROP, None)


@pytest.mark.parametrize("t", [2, 3, 5])
@pytest.mark.parametrize("action", ["forge", "suppress"])
def test_the_interceptor_sees_only_the_victims_broadcast(t, action):
    """In a run, intercept is called once, with the KGC's honest broadcast, and
    the victim's announce is delivered by the skeleton, not the interceptor."""
    cfg = {**_small_config(t, True, 7), "adversary": {"attacker": "m0", "victim": "m1", "action": action}}
    cls = InsiderInterceptor if action == "forge" else BroadcastSuppressor
    offered = []
    original = cls.intercept

    def spied(self, message):
        offered.append(message)
        return original(self, message)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "intercept", spied)
        tr = run_scenario(ScenarioConfig.from_dict(cfg))
    honest = tr.events[-1].payload
    ctx = tr.meta.params.ctx
    assert len(offered) == 1 and type(offered[0]) is KgcBroadcast
    assert broadcast_payload(offered[0], ctx) == honest
    (victim_announce,) = [ev for ev in tr.events if ev.step == STEP_ANNOUNCE and ev.receivers == ("m1",)]
    assert victim_announce.verdict == VERDICT_DELIVERED
    assert tr.events[-1].verdict == (VERDICT_REPLACED if action == "forge" else VERDICT_DROPPED)


def test_an_unannounced_insider_refuses_to_intercept(ring35, honest_bcast):
    """An insider over a member that has seen no announcement reads no challenge
    vector: intercept raises NotInRoster, as GroupMember.challenges does."""
    attacker = GroupMember(ATTACKER, PublicParams(ring35))
    with pytest.raises(NotInRoster, match="^no announcement seen$"):
        attacker.challenges()
    icpt = InsiderInterceptor(attacker, ROSTER, 0, 4)
    with pytest.raises(NotInRoster, match="^no announcement seen$"):
        icpt.intercept(honest_bcast)
    assert icpt.recovered_key is None and icpt.forged_key is None


# --- one public challenge vector ------------------------------------------------------

def _small_config(t, ring, seed):
    """A seeded session over m0..m(t-1): ring 167 * 179 or field 227."""
    return {"variant": "ring" if ring else "field", "modulus": {"p": 167, "q": 179} if ring else {"p": 227},
            "members": [f"m{k}" for k in range(t)], "seed": seed}


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
    cfg = _small_config(t, ring, seed)
    members = cfg["members"]
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


# --- the insider is the attacker's own member -----------------------------------------------

@given(
    t=st.integers(min_value=2, max_value=8),
    ring=st.booleans(),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_claim_2_from_the_public_record(t, ring, data, seed):
    """Claim 2 needs only the public record and the attacker's own key: the
    attacker's member, replayed from an honest transcript's events, forges the
    victim's copy byte for byte as a forge run of the same config does, and the
    victim accepts the planted key. A forgery that keeps the honest tag is
    rejected."""
    cfg = _small_config(t, ring, seed)
    attacker, victim = data.draw(st.permutations(cfg["members"]))[:2]
    tr = run_scenario(ScenarioConfig.from_dict(cfg))
    meta, gt = tr.meta, tr.ground_truth
    params, ctx = meta.params, meta.params.ctx
    target = data.draw(st.integers(min_value=0, max_value=ctx.modulus - 1))

    roster = GroupRoster(tuple(name.encode() for name in meta.members))
    member = GroupMember(PartyIdentity(attacker.encode(), gt.member_keys[attacker]), params)
    member.receive_announcement(Announcement(roster.members))
    for ev in tr.events:
        if ev.step == STEP_CHALLENGE:
            value = parse_challenge_payload(ev.payload, ctx, ev.index)
            member.observe_challenge(ChallengeMessage(ev.sender.encode(), value))
    honest = parse_broadcast_payload(tr.events[-1].payload, ctx, params.hash_cfg.digest_size, t)
    insider = InsiderInterceptor(member, roster, meta.members.index(victim), target)
    forged = insider.intercept(honest).message

    adversary = {"attacker": attacker, "victim": victim, "target_key": target}
    forge_run = run_scenario(ScenarioConfig.from_dict({**cfg, "adversary": adversary}))
    assert broadcast_payload(forged, ctx) == forge_run.events[-1].delivered_payload
    victim_identity = PartyIdentity(victim.encode(), gt.member_keys[victim])
    challenges = member.challenges()
    outcome = user_process_broadcast(victim_identity, roster, challenges, forged, params)
    assert outcome == SessionOutcome.accepted(target)
    if target != gt.group_key:  # planting the group key changes nothing, the tag included
        kept_tag = dataclasses.replace(forged, auth=honest.auth)
        outcome = user_process_broadcast(victim_identity, roster, challenges, kept_tag, params)
        assert outcome == SessionOutcome.rejected(TAG_MISMATCH)


def _reachable(root):
    """Every object reachable from root's attributes through gkdsim objects' attributes
    and containers."""
    seen, todo = {}, list(vars(root).values())
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, Mapping):
            todo += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo += obj
        elif type(obj).__module__.startswith("gkdsim.") and hasattr(obj, "__dict__"):
            todo += vars(obj).values()
    return seen.values()


def test_the_insider_holds_only_its_members_view():
    """In a forge session, the only long-term key the insider reaches is its
    member's, and it keeps no challenge log of its own."""
    made = []

    class Recorded(InsiderInterceptor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    cfg = {**_small_config(5, True, 11), "adversary": {"attacker": "m3", "victim": "m1"}}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "InsiderInterceptor", Recorded)
        tr = run_scenario(ScenarioConfig.from_dict(cfg))
    (insider,) = made
    assert insider.attacker.identity == PartyIdentity(b"m3", tr.ground_truth.member_keys["m3"])
    assert [o for o in _reachable(insider) if isinstance(o, PartyIdentity)] == [insider.attacker.identity]
    assert not [v for v in vars(insider).values() if isinstance(v, (list, dict))]
    assert insider.forged_key == tr.outcomes[1].key == tr.ground_truth.adversary.target_key
