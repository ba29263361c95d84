"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance and trial count is pinned here, not configurable.
"""

import dataclasses
import itertools
import random
import time

from gkdsim.algebra import SeededRng, Variant, domain_new, sample_element
from gkdsim.codec import HashConfig, PublicParams, ZERO_HASH
from gkdsim.protocol import (
    GroupRoster,
    KgcBroadcast,
    OutcomeStatus,
    PartyIdentity,
    compute_share,
    kgc_distribute,
    user_process_broadcast,
)
from gkdsim.adversary import forge_broadcast, insider_recover_key
from gkdsim.simnet import ScenarioConfig, parse_broadcast_payload, run_scenario, verify_transcript

from test_protocol import naive_share_field, naive_share_ring

SAFE_8BIT = (167, 179, 227)
SAFE_PRIMES_TO_100 = (5, 7, 11, 23, 47, 59, 83)
SAFE_PRODUCTS_TO_100 = (35, 55, 77)
PRODUCT_FACTORS = {35: (5, 7), 55: (5, 11), 77: (7, 11)}


def _grid_config(i: int, adversary: bool) -> ScenarioConfig:
    """Deterministic spread over variants, tiers, roster sizes and placements."""
    t = 2 + (i % 9)  # t in [2, 10]
    variant = "ring" if i % 2 == 0 else "field"
    if i % 4 < 2:  # 8-bit exhaustive-oracle tier
        if variant == "ring":
            modulus = {"p": SAFE_8BIT[i % 3], "q": SAFE_8BIT[(i + 1) % 3]}
        else:
            modulus = {"p": SAFE_8BIT[i % 3]}
    else:  # 64-bit tier
        modulus = {"bits": 64}
    members = [f"m{j}" for j in range(t)]
    cfg = {
        "variant": variant,
        "modulus": modulus,
        "members": members,
        "seed": 31337 + i,
    }
    if adversary:
        victim = i % t
        attacker = (victim + 1 + (i // 3)) % t
        if attacker == victim:
            attacker = (victim + 1) % t
        cfg["adversary"] = {
            "attacker": members[attacker],
            "victim": members[victim],
            "target_key": "random",
        }
    return ScenarioConfig.from_dict(cfg)


# attack transcripts are generated once and shared by criteria 2 and 3;
# the generation cost is charged to criterion 2's budget
_attack_cache = {}


def _attack_runs():
    if not _attack_cache:
        start = time.monotonic()
        transcripts = [run_scenario(_grid_config(i, adversary=True)) for i in range(200)]
        _attack_cache["transcripts"] = transcripts
        _attack_cache["elapsed"] = time.monotonic() - start
    return _attack_cache


def test_criterion_1_honest_correctness():
    start = time.monotonic()
    for i in range(200):
        tr = run_scenario(_grid_config(i, adversary=False))
        gt = tr.ground_truth
        for oc in tr.outcomes:
            assert oc.status == "accepted", (i, oc)
            assert oc.key == gt.group_key, (i, oc)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"honest sweep took {elapsed:.2f}s"
    print(f"\n[criterion 1] PASS: 200/200 honest scenarios, every member accepted "
          f"the KGC's key ({elapsed:.2f}s)")


def test_criterion_2_attack_success():
    cache = _attack_runs()
    successes = 0
    for i, tr in enumerate(cache["transcripts"]):
        gt, victim_name = tr.ground_truth, tr.meta.adversary.victim
        adv = gt.adversary
        assert adv.recovered_key == gt.group_key, i
        assert adv.target_key != gt.group_key, i
        by_member = {oc.member: oc for oc in tr.outcomes}
        victim = by_member[victim_name]
        assert victim.status == "accepted" and victim.key == adv.target_key, (i, victim)
        for oc in tr.outcomes:
            if oc.member != victim_name:
                assert oc.status == "accepted" and oc.key == gt.group_key, (i, oc)
        successes += 1
    assert successes == 200
    assert cache["elapsed"] < 10.0, f"attack sweep took {cache['elapsed']:.2f}s"
    print(f"\n[criterion 2] PASS: 200/200 insider runs planted a different key on the "
          f"victim while everyone else accepted the true key ({cache['elapsed']:.2f}s)")


def test_criterion_3_forgery_algebra_and_footprint():
    for i, tr in enumerate(_attack_runs()["transcripts"]):
        report = verify_transcript(tr)
        assert report.ok, (i, report.mismatches)
        assert any("share shift equals key shift" in c for c in report.checks), i
        assert any("exactly the victim's share and the tag" in c for c in report.checks), i

        # independent byte-level diff of honest vs forged broadcast payloads
        meta = tr.meta
        ctx = domain_new(meta.p, meta.q, variant=meta.params.ctx.variant)
        digest_size = meta.params.hash_cfg.digest_size
        honest_ev = next(e for e in tr.events if e.step == "broadcast" and e.verdict == "delivered")
        forged_ev = next(e for e in tr.events if e.verdict == "replaced")
        honest = parse_broadcast_payload(honest_ev.payload, ctx, digest_size, meta.t)
        forged = parse_broadcast_payload(forged_ev.delivered_payload, ctx, digest_size, meta.t)
        gt = tr.ground_truth
        v = meta.members.index(meta.adversary.victim)
        m = ctx.modulus
        assert (forged.masked_shares[v] - honest.masked_shares[v]) % m == (
            gt.adversary.target_key - gt.group_key
        ) % m, i
        changed = [k for k in range(meta.t) if forged.masked_shares[k] != honest.masked_shares[k]]
        assert changed == [v], i
        assert forged.auth != honest.auth and forged.r0 == honest.r0, i
    print("\n[criterion 3] PASS: all 200 attack transcripts satisfy the share-delta "
          "relation and differ from the honest broadcast in exactly two fields")


def test_criterion_4_tamper_detection():
    trial_rng = random.Random(2024)
    rejections = 0
    for trial in range(200):
        variant = Variant.RING if trial % 2 == 0 else Variant.FIELD
        if variant is Variant.RING:
            ctx = domain_new(SAFE_8BIT[trial % 3], SAFE_8BIT[(trial + 1) % 3], variant=variant)
        else:
            ctx = domain_new(SAFE_8BIT[trial % 3], variant=variant)
        t = trial_rng.randint(2, 6)
        rng = SeededRng(5000 + trial)
        ids = tuple(f"u{j}".encode() for j in range(t))
        roster = GroupRoster(ids)
        keys = {i: sample_element(rng, ctx) for i in ids}
        challenges = tuple(sample_element(rng, ctx) for _ in ids)
        bcast, _ = kgc_distribute(roster, keys, challenges, rng, PublicParams(ctx))

        field = trial_rng.choice(["auth", "r0", "share"])
        if field == "auth":
            bit = trial_rng.randrange(len(bcast.auth) * 8)
            raw = bytearray(bcast.auth)
            raw[bit // 8] ^= 1 << (bit % 8)
            tampered = KgcBroadcast(bytes(raw), bcast.r0, bcast.masked_shares)
            affected = trial_rng.randrange(t)
        elif field == "r0":
            bit = trial_rng.randrange(ctx.byte_width * 8)
            tampered = KgcBroadcast(bcast.auth, bcast.r0 ^ (1 << bit), bcast.masked_shares)
            affected = trial_rng.randrange(t)
        else:
            affected = trial_rng.randrange(t)
            bit = trial_rng.randrange(ctx.byte_width * 8)
            shares = list(bcast.masked_shares)
            shares[affected] ^= 1 << bit
            tampered = KgcBroadcast(bcast.auth, bcast.r0, tuple(shares))

        out = user_process_broadcast(
            PartyIdentity(ids[affected], keys[ids[affected]]),
            roster, challenges, tampered, PublicParams(ctx),
        )
        assert out.status is OutcomeStatus.REJECTED, (trial, field, out)
        rejections += 1
    assert rejections == 200
    print("\n[criterion 4] PASS: 200/200 single-bit tampers rejected by the affected member")


def test_criterion_5_share_oracle_equivalence():
    start = time.monotonic()
    rng = SeededRng(77)
    checked = 0
    for m in SAFE_PRODUCTS_TO_100 + SAFE_PRIMES_TO_100:
        if m in PRODUCT_FACTORS:
            p, q = PRODUCT_FACTORS[m]
            ctx = domain_new(p, q, variant=Variant.RING)
        else:
            ctx = domain_new(m, variant=Variant.FIELD)
        ring = PublicParams(dataclasses.replace(ctx, variant=Variant.RING))
        field = PublicParams(dataclasses.replace(ctx, variant=Variant.FIELD))
        for t in (2, 3):
            for x in range(m):
                for _ in range(2):
                    nonces = tuple(sample_element(rng, ctx) for _ in range(t + 1))
                    index = x % t
                    assert compute_share(x, nonces, index, ring) == \
                        naive_share_ring(x, nonces, m)
                    assert compute_share(x, nonces, index, field) == \
                        naive_share_field(x, nonces, index, m, ctx.byte_width)
                    checked += 2
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.2f}s"
    print(f"\n[criterion 5] PASS: {checked} share computations match the naive "
          f"big-integer oracle over every modulus <= 100 ({elapsed:.2f}s)")


def test_criterion_6_variant_reduction_with_zero_hash():
    ctx = domain_new(23, variant=Variant.FIELD)
    zero_cfg = HashConfig(element_hash=ZERO_HASH)
    field, ring = PublicParams(ctx, zero_cfg), PublicParams(dataclasses.replace(ctx, variant=Variant.RING))
    rng = SeededRng(88)
    compared = 0
    for t in (2, 3):
        for x in range(23):
            for r0 in range(23):
                tail = tuple(sample_element(rng, ctx) for _ in range(t))
                nonces = (r0, *tail)
                for index in range(t):
                    lhs = compute_share(x, nonces, index, field)
                    rhs = compute_share(x, nonces, index, ring)
                    assert lhs == rhs, (t, x, r0, index)
                    compared += 1
    print(f"\n[criterion 6] PASS: with the share-offset hash zeroed, {compared} "
          "field-variant shares equal ring-variant shares over the full p=23 sweep")


def test_criterion_7_determinism_and_replay():
    for i in range(20):
        cfg = _grid_config(1000 + i, adversary=(i % 3 == 1))
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert first.to_jsonl() == second.to_jsonl(), i
        report = verify_transcript(first)
        assert report.ok, (i, report.mismatches)
    print("\n[criterion 7] PASS: 20 configs ran twice to byte-identical transcripts, "
          "all replay-verified clean")


def _exhaust(params, key_pairs, challenge_pairs, nonces, group_keys):
    """Every combination of the given inputs at t = 2, the insider at index 0
    and the victim at index 1: every honest member must accept S and the
    insider recover it, and the victim must accept every planted T != S.
    Returns (honest sessions, forge cases)."""
    ids = (b"A", b"V")
    roster = GroupRoster(ids)
    rng = SeededRng(0)  # never drawn from: group key and nonce are forced
    sessions = forged = 0
    for keys, chal, r0, s in itertools.product(key_pairs, challenge_pairs, nonces, group_keys):
        registered = dict(zip(ids, keys))
        bcast, key = kgc_distribute(roster, registered, chal, rng, params,
                                    group_key=s, nonce=r0)
        members = [PartyIdentity(i, k) for i, k in zip(ids, keys)]
        for me in members:
            out = user_process_broadcast(me, roster, chal, bcast, params)
            assert (out.status, out.key) == (OutcomeStatus.ACCEPTED, s), (keys, chal, r0, s)
        recovered = insider_recover_key(members[0], roster, chal, bcast, params)
        assert key == recovered == s, (keys, chal, r0, s)
        for target in range(params.ctx.modulus):
            if target == s:
                continue
            forged_bcast = forge_broadcast(1, target, recovered, bcast, roster, chal, params)
            out = user_process_broadcast(members[1], roster, chal, forged_bcast, params)
            assert (out.status, out.key) == (OutcomeStatus.ACCEPTED, target), (keys, chal, r0, s, target)
            forged += 1
        sessions += 1
    return sessions, forged


def test_criterion_8_claims_exhaustive_on_the_smallest_field():
    # p = 5, t = 2: every pair of member keys, every pair of challenges, every
    # KGC nonce, every group key S and every planted key T != S
    ctx = domain_new(5, variant=Variant.FIELD)
    residues = range(5)
    pairs = list(itertools.product(residues, repeat=2))
    sessions, forged = _exhaust(PublicParams(ctx), pairs, pairs, residues, residues)
    assert (sessions, forged) == (5**6, 62_500)
    print(f"\n[criterion 8] PASS: field p=5, t=2 exhausted: {sessions} honest sessions accepted "
          f"by both members and recovered by the insider, {forged}/{forged} forgeries accepted")


def test_criterion_9_claims_exhaustive_over_keys_on_the_smallest_ring():
    # m = 35, t = 2: every group key S, planted key T != S and victim key,
    # with the insider's key, the challenges and the nonce fixed
    ctx = domain_new(5, 7, variant=Variant.RING)
    residues = range(35)
    key_pairs = [(12, v) for v in residues]
    sessions, forged = _exhaust(PublicParams(ctx), key_pairs, [(3, 29)], [17], residues)
    assert (sessions, forged) == (35 * 35, 41_650)
    print(f"\n[criterion 9] PASS: ring m=35, t=2, every (S, T, victim key): {sessions} honest "
          f"sessions accepted and recovered, {forged}/{forged} forgeries accepted")
