import ast
import dataclasses
import errno
import functools
import inspect
import json
import os
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gkdsim import adversary as adversary_module, codec, protocol, simnet
from gkdsim.adversary import ActionKind, ChannelAction
from gkdsim.algebra import SeededRng, Variant, domain_new
from gkdsim.codec import encode_identifiers
from gkdsim.cli import EXIT_OK, EXIT_VERIFY, main as cli_main
from gkdsim.errors import ConfigError, MalformedTranscript
from gkdsim.simnet import (
    MAX_BITS,
    ScenarioConfig,
    Transcript,
    parse_broadcast_payload,
    build_domain,
    outcome_failures,
    run_scenario,
    verify_transcript,
)
from conftest import FORGE, SUPPRESS, scenario_dict


CONFIGS = Path(__file__).parent.parent / "configs"


def challenge_receivers(members, i):
    """The tuple oracle for simnet.ChallengeReceivers: who the challenge of
    members[i] goes to, the KGC, then every other member in roster order."""
    return (simnet.KGC_NAME,) + tuple(members[:i]) + tuple(members[i + 1 :])


def run(**overrides):
    return run_scenario(ScenarioConfig.from_dict(scenario_dict(**overrides)))


# --- the oracle: JSON-decoded event and outcome records, typed field by field -------
# from_jsonl reads event and outcome lines only by writing them. It accepts a line
# exactly when these readers accept its decoded record as the one the writer puts
# there and the writer gives back that line; they also build in memory, for verify,
# transcripts that from_jsonl refuses.

_STEPS = (simnet.STEP_REQUEST, simnet.STEP_ANNOUNCE, simnet.STEP_CHALLENGE, simnet.STEP_BROADCAST)
_VERDICTS = (simnet.VERDICT_DELIVERED, simnet.VERDICT_DROPPED, simnet.VERDICT_REPLACED)
_EVENT_FIELDS = frozenset(("index", "step", "sender", "receivers", "payload", "verdict"))
_REPLACED_FIELDS = _EVENT_FIELDS | {"delivered_payload"}
_ACCEPTED_FIELDS = frozenset(("member", "status", "key"))
_UNACCEPTED_FIELDS = frozenset(("member", "status", "reason"))


def _check_fields(rec, fields, what):
    """rec must be an object with exactly the given fields."""
    if not isinstance(rec, dict) or rec.keys() != fields:
        found = sorted(rec) if isinstance(rec, dict) else type(rec).__name__
        raise MalformedTranscript(f"{what} needs the fields {sorted(fields)}, got {found}")


def event_from_record(rec, index, expected):
    """A record whose (step, sender, receivers, verdict) equals expected, its
    event-skeleton entry, takes expected's objects: as only a str equals a str,
    that one comparison also types them. Any other record is typed field by
    field and keeps its names as written."""
    replaced = rec.get("verdict") == simnet.VERDICT_REPLACED
    _check_fields(rec, _REPLACED_FIELDS if replaced else _EVENT_FIELDS, "event")
    step, sender, receivers, verdict = shape = rec["step"], rec["sender"], rec["receivers"], rec["verdict"]
    if type(rec["index"]) is not int or rec["index"] != index:
        raise MalformedTranscript(f"event {rec['index']!r} out of order at position {index}")
    if expected and type(receivers) is list and shape == (*expected[:2], [*expected[2]], expected[3]):
        step, sender, receivers, verdict = expected
    elif step not in _STEPS or verdict not in _VERDICTS:
        raise MalformedTranscript(f"event {index}: unknown step or verdict")
    elif type(sender) is not str or type(receivers) is not list or not all(type(r) is str for r in receivers):
        raise MalformedTranscript(f"event {index}: sender and receivers must be names")
    else:
        receivers = tuple(receivers)
    try:
        payload = bytes.fromhex(rec["payload"])
        delivered = bytes.fromhex(rec["delivered_payload"]) if replaced else None
    except (TypeError, ValueError):
        raise MalformedTranscript(f"event {index}: payloads must be hex strings") from None
    return simnet.TranscriptEvent(index, step, sender, receivers, payload, verdict, delivered)


def outcome_from_record(rec, ctx, expected):
    """A key exactly when accepted, a residue; a reason exactly when not. A member
    equal to expected, the roster name at the record's position, becomes it."""
    accepted = rec.get("status") == "accepted"
    _check_fields(rec, _ACCEPTED_FIELDS if accepted else _UNACCEPTED_FIELDS, "outcome")
    member, status = rec["member"], rec["status"]
    if type(member) is not str or status not in simnet._STATUSES:
        raise MalformedTranscript(f"outcome for {member!r}: bad member or status")
    member = expected if member == expected else member
    if accepted:
        return simnet.OutcomeRecord(member, status, key=simnet._residue(rec["key"], ctx, f"outcome key of {member!r}"))
    if type(rec["reason"]) is not str:
        raise MalformedTranscript(f"outcome for {member!r}: reason must be a string")
    return simnet.OutcomeRecord(member, status, reason=rec["reason"])


@pytest.mark.parametrize("adversary", [None, FORGE], ids=["honest", "forge"])
def test_pipeline_builds_the_share_lanes_once(adversary):
    """run, serialise, parse and verify at t = 40 evaluate every share over one
    nonce vector, so compute_share builds its packed lanes exactly once."""
    members = ["alice", "bob", "carol", *(f"m{k}" for k in range(37))]
    cfg = scenario_dict(variant="field", modulus={"p": 2**64 - 59}, members=members)
    if adversary:
        cfg["adversary"] = adversary
    protocol._lanes.cache_clear()
    tr = run_scenario(ScenarioConfig.from_dict(cfg))
    assert verify_transcript(Transcript.from_jsonl(tr.to_jsonl())).ok
    assert protocol._lanes.cache_info().misses == 1


@pytest.mark.parametrize("adversary, bodies", [(None, 1), (FORGE, 7)], ids=["honest", "forge"])
def test_pipeline_builds_the_tag_body_once(adversary, bodies, monkeypatch):
    """The same t = 40 pipeline encodes the tag input only on a compute_auth
    miss: an honest run builds the key | ids | nonces | shares bytes once, a
    forge run (victim bob) once per switch between the honest and the forged
    input, 7 times as counted below."""
    members = ["alice", "bob", "carol", *(f"m{k}" for k in range(37))]
    cfg = scenario_dict(variant="field", modulus={"p": 2**64 - 59}, members=members)
    if adversary:
        cfg["adversary"] = adversary
    built = []
    build = codec.build_auth_input
    monkeypatch.setattr(codec, "build_auth_input", lambda *a: built.append(a) or build(*a))
    codec.compute_auth.cache_clear()
    tr = run_scenario(ScenarioConfig.from_dict(cfg))
    assert verify_transcript(Transcript.from_jsonl(tr.to_jsonl())).ok
    assert len(built) == bodies


@pytest.mark.parametrize("adversary, inputs", [(None, 1), (FORGE, 7)], ids=["honest", "forge"])
def test_pipeline_hashes_each_tag_input_once(adversary, inputs):
    """The t = 40 pipeline above encodes and hashes each distinct tag input once
    in a row. Honest: the KGC, every member and the verifier tag one input, so
    one SHA-256. Forge (victim bob, second in the roster): the victim's
    candidate is the planted key, so the insider's forged input F and bob's are
    equal, and every other tag is over the honest input H; each switch between
    them in the order the tags are taken misses compute_auth's memo:
    run: KGC H (1), insider F (2), alice H (3), bob F (4), carol H (5), then H;
    verify: recomputed tag H, alice H, bob F (6), carol H (7), then H. So 7."""
    members = ["alice", "bob", "carol", *(f"m{k}" for k in range(37))]
    cfg = scenario_dict(variant="field", modulus={"p": 2**64 - 59}, members=members)
    if adversary:
        cfg["adversary"] = adversary
    codec.compute_auth.cache_clear()
    tr = run_scenario(ScenarioConfig.from_dict(cfg))
    assert verify_transcript(Transcript.from_jsonl(tr.to_jsonl())).ok
    assert codec.compute_auth.cache_info().misses == inputs


@pytest.mark.parametrize("adversary", [None, FORGE, SUPPRESS], ids=["honest", "forge", "suppress"])
def test_a_run_and_its_verify_each_build_one_roster(adversary, monkeypatch):
    """At t = 8, run_scenario builds one GroupRoster, the KGC's announcement, which
    every member and the insider hold; parse and verify build one of their own."""
    built = []
    post_init = protocol.GroupRoster.__post_init__
    monkeypatch.setattr(protocol.GroupRoster, "__post_init__", lambda self: built.append(self) or post_init(self))
    tr = run(members=["alice", "bob", "carol", *(f"m{k}" for k in range(5))], adversary=adversary)
    assert len(built) == 1
    del built[:]
    assert verify_transcript(Transcript.from_jsonl(tr.to_jsonl())).ok
    assert len(built) == 1


# --- honest runs -----------------------------------------------------------------

def test_honest_run_all_accept_the_same_key():
    tr = run()
    assert all(oc.status == "accepted" for oc in tr.outcomes)
    keys = {oc.key for oc in tr.outcomes}
    assert keys == {tr.ground_truth.group_key}


def test_honest_event_steps_appear_once():
    tr = run()
    steps = [ev.step for ev in tr.events]
    assert steps == ["request", "announce", "challenge", "challenge", "challenge", "broadcast"]
    assert all(ev.verdict == "delivered" for ev in tr.events)


def test_explicit_keys_are_reduced_mod_m():
    tr = run(keys={"alice": 29893 + 5})
    assert tr.ground_truth.member_keys["alice"] == 5


def test_initiator_defaults_to_first_member():
    tr = run()
    assert tr.meta.initiator == "alice"
    assert tr.events[0].sender == "alice"
    tr = run(initiator="carol")
    assert tr.events[0].sender == "carol"


def test_field_variant_with_generated_modulus():
    tr = run(variant="field", modulus={"bits": 32}, members=["a", "b"])
    assert tr.meta.q is None
    assert tr.meta.params.ctx.modulus == tr.meta.p
    assert all(oc.status == "accepted" for oc in tr.outcomes)


# --- attack runs -----------------------------------------------------------------

def test_forge_run_plants_the_target_key():
    tr = run(adversary={"attacker": "carol", "victim": "bob", "target_key": "random"})
    gt = tr.ground_truth
    by_member = {oc.member: oc for oc in tr.outcomes}
    assert gt.adversary.recovered_key == gt.group_key
    assert gt.adversary.target_key != gt.group_key
    assert by_member["bob"].key == gt.adversary.target_key
    assert by_member["alice"].key == gt.group_key
    assert by_member["carol"].key == gt.group_key
    assert [ev.verdict for ev in tr.events].count("replaced") == 1


def test_forge_run_with_explicit_target():
    tr = run(adversary={"attacker": "alice", "victim": "carol", "target_key": 1234})
    assert tr.ground_truth.adversary.target_key == 1234
    by_member = {oc.member: oc for oc in tr.outcomes}
    assert by_member["carol"].key == 1234


def test_suppress_run_times_the_victim_out():
    tr = run(adversary={"attacker": "carol", "victim": "bob", "action": "suppress"})
    by_member = {oc.member: oc for oc in tr.outcomes}
    assert by_member["bob"].status == "timeout"
    assert by_member["alice"].status == by_member["carol"].status == "accepted"
    verdicts = [ev.verdict for ev in tr.events]
    assert verdicts.count("dropped") == 1 and verdicts.count("replaced") == 0


def test_forged_event_carries_both_payloads():
    tr = run(adversary={"attacker": "carol", "victim": "bob", "target_key": "random"})
    replaced = [ev for ev in tr.events if ev.verdict == "replaced"]
    assert len(replaced) == 1
    ev = replaced[0]
    assert ev.receivers == ("bob",)
    assert ev.delivered_payload is not None and ev.delivered_payload != ev.payload
    honest = [e for e in tr.events if e.step == "broadcast" and e.verdict == "delivered"]
    assert honest[0].payload == ev.payload


def test_attacker_copy_lands_before_the_victims():
    tr = run(adversary={"attacker": "carol", "victim": "bob", "target_key": "random"})
    bcast_events = [ev for ev in tr.events if ev.step == "broadcast"]
    assert "carol" in bcast_events[0].receivers
    assert bcast_events[-1].receivers == ("bob",)


# --- determinism ------------------------------------------------------------------

def test_same_config_same_bytes(tmp_path):
    cfg = ScenarioConfig.from_dict(scenario_dict(seed=99))
    a, b = run_scenario(cfg), run_scenario(cfg)
    assert a.to_jsonl() == b.to_jsonl()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.save(p1)
    b.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seeds_differ():
    a = run(seed=1)
    b = run(seed=2)
    assert a.to_jsonl() != b.to_jsonl()


def test_transcript_file_round_trip(tmp_path):
    tr = run(adversary={"attacker": "carol", "victim": "bob", "target_key": "random"})
    path = tmp_path / "t.jsonl"
    tr.save(path)
    loaded = Transcript.load(path)
    assert loaded == tr
    assert loaded.to_jsonl() == tr.to_jsonl()


def test_save_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    longer = run(members=[f"member-{k}" for k in range(8)]).to_jsonl()
    tr = run()
    path = tmp_path / "t.jsonl"
    path.write_text(longer)
    tr.save(path)
    assert len(longer) > len(tr.to_jsonl())
    assert path.read_bytes() == tr.to_jsonl().encode()


def test_save_that_fails_partway_over_a_longer_file_keeps_no_old_bytes(tmp_path, monkeypatch):
    tr = run()
    new = tr.to_jsonl().encode()
    path = tmp_path / "t.jsonl"
    path.write_text(run(members=[f"member-{k}" for k in range(8)]).to_jsonl())

    class HalfThenNoSpace:
        """A file whose write gets half the bytes to disk, then fails."""

        def __init__(self, fd, mode):
            self.file = open(fd, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, data):
            self.file.write(data[: len(data) // 2])
            self.file.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def flush(self):
            self.file.flush()

    monkeypatch.setattr(simnet, "open", HalfThenNoSpace, raising=False)
    with pytest.raises(OSError):
        tr.save(path)
    assert path.read_bytes() == new[: len(new) // 2]


def test_save_writes_to_targets_that_are_not_regular_files(tmp_path):
    tr = run()
    tr.save(os.devnull)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    tr.save(fifo)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [tr.to_jsonl().encode()]


# --- verification ------------------------------------------------------------------

def test_verify_clean_on_fresh_transcripts():
    for adv in (
        None,
        {"attacker": "carol", "victim": "bob", "target_key": "random"},
        {"attacker": "carol", "victim": "bob", "action": "suppress"},
    ):
        report = verify_transcript(run(adversary=adv))
        assert report.ok, report.mismatches


def test_verify_confirms_forgery_relation():
    tr = run(adversary={"attacker": "carol", "victim": "bob", "target_key": "random"})
    report = verify_transcript(tr)
    assert any("share shift equals key shift" in c for c in report.checks)
    assert any("exactly the victim's share and the tag" in c for c in report.checks)


def _with_outcome(tr: Transcript, member: str, **changes) -> Transcript:
    outcomes = tuple(
        dataclasses.replace(oc, **changes) if oc.member == member else oc for oc in tr.outcomes
    )
    return dataclasses.replace(tr, outcomes=outcomes)


def _with_event(tr: Transcript, index: int, **changes) -> Transcript:
    events = tuple(dataclasses.replace(ev, **changes) if ev.index == index else ev for ev in tr.events)
    return dataclasses.replace(tr, events=events)


@pytest.mark.parametrize("redact", [False, True], ids=["ground-truth", "redacted"])
@pytest.mark.parametrize("adversary", [None, FORGE, SUPPRESS], ids=["honest", "forge", "suppress"])
def test_outcome_failures_none_on_fresh_runs(adversary, redact):
    assert outcome_failures(run(adversary=adversary, redact=redact)) == []


def test_outcome_failures_judge_keys_against_ground_truth_when_present():
    tr = run()
    wrong = (tr.ground_truth.group_key + 1) % tr.meta.params.ctx.modulus
    agreed = dataclasses.replace(
        tr, outcomes=tuple(dataclasses.replace(oc, key=wrong) for oc in tr.outcomes)
    )
    assert outcome_failures(agreed) == [
        f"members accepted keys {wrong}, expected the group key {tr.ground_truth.group_key}"
    ]
    # without ground truth, members that agree with each other meet the condition
    assert outcome_failures(dataclasses.replace(agreed, ground_truth=None)) == []


def test_outcome_failures_name_each_miss():
    forge = run(adversary=FORGE)
    gk, planted = forge.ground_truth.group_key, forge.ground_truth.adversary.target_key
    missed = _with_outcome(forge, "bob", key=gk)
    assert outcome_failures(missed) == [
        f"victim 'bob': accepted/{gk}, expected to accept the planted key {planted}"
    ]
    redacted = dataclasses.replace(missed, ground_truth=None)
    assert outcome_failures(redacted) == [
        f"victim 'bob': accepted/{gk}, expected to accept a key no other member accepted"
    ]
    stray = next(k for k in range(3) if k not in (gk, planted))
    strayed = _with_outcome(forge, "bob", key=stray)
    assert outcome_failures(strayed) == [
        f"victim 'bob': accepted/{stray}, expected to accept the planted key {planted}"
    ]
    assert outcome_failures(dataclasses.replace(strayed, ground_truth=None)) == []
    refused = _with_outcome(forge, "bob", status="rejected", key=None, reason="tag_mismatch")
    assert outcome_failures(dataclasses.replace(refused, ground_truth=None)) == [
        "victim 'bob': rejected/None, expected to accept a key no other member accepted"
    ]
    suppress = run(adversary=SUPPRESS)
    bystander = _with_outcome(suppress, "alice", key=1)
    assert outcome_failures(bystander)[0].startswith("members accepted keys ")
    got_through = _with_outcome(suppress, "bob", status="accepted", key=suppress.ground_truth.group_key)
    assert outcome_failures(got_through) == ["suppressed victim 'bob' did not time out: accepted"]
    rejected = _with_outcome(run(), "carol", status="rejected", key=None, reason="tag_mismatch")
    assert outcome_failures(rejected) == ["'carol' did not accept: rejected"]
    # a transcript without the victim's outcome never reaches outcome_failures: the loader refuses it
    no_victim = [line for line in forge.to_jsonl().splitlines() if '"member":"bob"' not in line]
    with pytest.raises(MalformedTranscript, match=r"^line 11: expected the outcome of 'bob' as gkdsim writes it$"):
        Transcript.from_jsonl("\n".join(no_victim) + "\n")


def test_outcome_failures_without_ground_truth_read_a_kept_victim_share_as_the_others_key():
    """A forgery that hands the victim its honest share plants the key the others
    accept, so the victim must accept that key: the same-key case, made public."""
    gk = run().ground_truth.group_key
    same = run(adversary={**FORGE, "target_key": gk}, redact=True)
    assert simnet.plants_the_others_key(same) and outcome_failures(same) == []
    other = (gk + 1) % same.meta.params.ctx.modulus
    assert outcome_failures(_with_outcome(same, "bob", key=other)) == [
        f"victim 'bob': accepted/{other}, expected to accept the planted key {gk}"
    ]
    assert not simnet.plants_the_others_key(run(adversary=FORGE, redact=True))


def test_outcome_failures_read_only_the_victims_broadcast_as_the_forgery():
    """A replaced event other than the victim's broadcast plants no key: with the
    forged broadcast made plain again and alice's challenge marked replaced, a
    victim holding the others' key misses the success condition."""
    tr = run(adversary=FORGE, redact=True)
    events = list(tr.events)
    events[-1] = dataclasses.replace(events[-1], verdict="delivered", delivered_payload=None)
    events[3] = dataclasses.replace(events[3], verdict="replaced", delivered_payload=events[3].payload)
    assert events[3].step == "challenge" and events[3].sender == "alice"
    alice_key = tr.outcomes[0].key
    doctored = _with_outcome(dataclasses.replace(tr, events=tuple(events)), "bob", key=alice_key)
    assert not simnet.plants_the_others_key(doctored)
    assert outcome_failures(doctored) == [
        f"victim 'bob': accepted/{alice_key}, expected to accept a key no other member accepted"
    ]


@pytest.mark.parametrize("adversary", [None, FORGE, SUPPRESS], ids=["honest", "forge", "suppress"])
def test_verify_reports_the_success_condition(adversary):
    tr = run(adversary=adversary)
    assert "success condition: met" in verify_transcript(tr).checks
    doctored = _with_outcome(tr, "bob", status="rejected", key=None, reason="tag_mismatch")
    failures = outcome_failures(doctored)
    report = verify_transcript(doctored)
    assert failures and "success condition: met" not in report.checks
    assert [m for m in report.mismatches if m.startswith("success condition: ")] == [
        f"success condition: {line}" for line in failures
    ]


@pytest.mark.parametrize("adversary", [None, FORGE, SUPPRESS], ids=["honest", "forge", "suppress"])
def test_verify_judges_redacted_transcripts_by_the_success_condition(adversary):
    tr = run(adversary=adversary, redact=True)
    assert "success condition: met" in verify_transcript(tr).checks
    alice_key = tr.outcomes[0].key
    if adversary is None:
        stray = _with_outcome(tr, "carol", key=(alice_key + 1) % tr.meta.params.ctx.modulus)
    else:  # the forge victim keeps the honest key, the suppressed one gets it
        stray = _with_outcome(tr, "bob", status="accepted", key=alice_key, reason=None)
    failures = outcome_failures(stray)
    report = verify_transcript(stray)
    assert failures and "success condition: met" not in report.checks
    assert [m for m in report.mismatches if m.startswith("success condition: ")] == [
        f"success condition: {line}" for line in failures
    ]
    if adversary == FORGE:  # no key shift to check the forgery against
        assert "forgery algebra and footprint: the outcomes miss the success condition" in report.skipped


@pytest.mark.parametrize("redact", [False, True], ids=["ground-truth", "redacted"])
def test_verify_checks_outcomes_against_the_wire(redact):
    suppress = run(adversary=SUPPRESS, redact=redact)
    alice_key = suppress.outcomes[0].key
    through = _with_outcome(suppress, "bob", status="accepted", key=alice_key, reason=None)
    assert "outcome for 'bob': accepted after no broadcast" in verify_transcript(through).mismatches
    timed_out = _with_outcome(run(redact=redact), "carol", status="timeout", key=None,
                              reason="no broadcast received")
    assert "outcome for 'carol': timeout after a broadcast" in verify_transcript(timed_out).mismatches


def _edit_payload_byte(tr: Transcript, event_index: int) -> Transcript:
    """Flip the low bit of the last payload byte of one event, via the file form."""
    lines = tr.to_jsonl().splitlines()
    rec = json.loads(lines[1 + event_index])  # meta is line 0
    assert rec["record"] == "event" and rec["index"] == event_index
    raw = bytearray(bytes.fromhex(rec["payload"]))
    raw[-1] ^= 1
    rec["payload"] = raw.hex()
    lines[1 + event_index] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    return Transcript.from_jsonl("\n".join(lines) + "\n")


@pytest.mark.parametrize("event_index", [0, 1, 2, 4, 5])
def test_verify_flags_edited_payload_at_the_exact_event(event_index):
    tr = run()
    tampered = _edit_payload_byte(tr, event_index)
    report = verify_transcript(tampered)
    assert not report.ok
    assert any(f"event {event_index}" in m for m in report.mismatches), report.mismatches


def test_verify_flags_edited_outcome():
    tr = run()
    lines = tr.to_jsonl().splitlines()
    idx = next(i for i, l in enumerate(lines) if '"record":"outcome"' in l)
    rec = json.loads(lines[idx])
    rec["key"] = (rec["key"] + 1) % tr.meta.params.ctx.modulus
    lines[idx] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    report = verify_transcript(Transcript.from_jsonl("\n".join(lines) + "\n"))
    assert not report.ok
    assert any("outcome" in m for m in report.mismatches)


def test_verify_flags_edited_ground_truth():
    tr = run()
    lines = tr.to_jsonl().splitlines()
    rec = json.loads(lines[-1])
    assert rec["record"] == "ground_truth"
    rec["group_key"] = (rec["group_key"] + 1) % tr.meta.params.ctx.modulus
    lines[-1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    report = verify_transcript(Transcript.from_jsonl("\n".join(lines) + "\n"))
    assert not report.ok


@pytest.mark.parametrize(
    "index, key, value",
    [
        (3, "receivers", ["kgc"]),
        (2, "receivers", ["kgc", "bob", "carol", "zed"]),
        (4, "verdict", "dropped"),
        (0, "verdict", "dropped"),
        (1, "verdict", "dropped"),
    ],
    ids=["challenge-to-kgc-only", "challenge-to-a-stranger", "challenge-dropped",
         "request-dropped", "announce-dropped"],
)
def test_verify_flags_intercepted_or_misrouted_pre_broadcast_events(index, key, value):
    """Only a broadcast may be dropped or replaced, and member i's challenge goes
    to the KGC and every other member, in roster order. The loader refuses such an
    event in a file; verify reports it in a transcript built in memory."""
    tr = run_scenario(ScenarioConfig.from_file(CONFIGS / "honest.json"))
    value = tuple(value) if key == "receivers" else value
    assert getattr(tr.events[index], key) != value
    edited = _with_event(tr, index, **{key: value})
    with pytest.raises(MalformedTranscript, match=rf"^line {index + 2}: expected event {index}, "):
        Transcript.from_jsonl(edited.to_jsonl())
    report = verify_transcript(edited)
    assert any(m.startswith(f"event {index}: ") for m in report.mismatches), report.mismatches


def test_verify_judges_the_receivers_of_a_reordered_challenge_by_its_sender():
    """The skeleton fixes a challenge's sender and receivers by its position, so
    two swapped challenges are two events wrong in both."""
    tr = run_scenario(ScenarioConfig.from_file(CONFIGS / "honest.json"))
    alice, bob = tr.events[2:4]
    events = (*tr.events[:2], dataclasses.replace(bob, index=2), dataclasses.replace(alice, index=3), *tr.events[4:])
    swapped = dataclasses.replace(tr, events=events)
    with pytest.raises(MalformedTranscript, match=r"^line 4: expected event 2, the challenge from 'alice', "):
        Transcript.from_jsonl(swapped.to_jsonl())
    report = verify_transcript(swapped)
    assert report.mismatches == [
        "event 2: challenge with the wrong sender and receivers",
        "event 3: challenge with the wrong sender and receivers",
    ]


def test_malformed_transcripts_raise(tmp_path):
    tr = run()
    text = tr.to_jsonl()
    with pytest.raises(MalformedTranscript):
        Transcript.from_jsonl("not json\n")
    with pytest.raises(MalformedTranscript):
        Transcript.from_jsonl(text.replace('"record":"meta"', '"record":"mystery"'))
    with pytest.raises(MalformedTranscript):
        # drop the meta line entirely
        Transcript.from_jsonl("\n".join(text.splitlines()[1:]) + "\n")
    # missing bob's challenge, with the events after it renumbered: refused on loading,
    # and in memory reported by the event count
    events = [ev for ev in tr.events if (ev.step, ev.sender) != ("challenge", "bob")]
    short = dataclasses.replace(tr, events=tuple(dataclasses.replace(ev, index=i) for i, ev in enumerate(events)))
    path = tmp_path / "short.jsonl"
    path.write_text(short.to_jsonl())
    with pytest.raises(MalformedTranscript, match=r"^line 5: expected event 3, the challenge from 'bob', "):
        Transcript.load(path)
    report = verify_transcript(short)
    assert report.mismatches == [f"event count {len(tr.events) - 1}, expected {len(tr.events)}"]
    assert cli_main(["verify", str(path)]) == EXIT_VERIFY


def test_verify_flags_stripped_adversary_truth():
    tr = run(adversary={"attacker": "carol", "victim": "bob", "target_key": "random"})
    lines = tr.to_jsonl().splitlines()
    rec = json.loads(lines[-1])
    assert rec["record"] == "ground_truth"
    rec["adversary"] = None
    lines[-1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    report = verify_transcript(Transcript.from_jsonl("\n".join(lines) + "\n"))
    assert not report.ok
    assert any("inconsistent with meta" in m for m in report.mismatches)


def test_verify_flags_renamed_adversary_victim():
    tr = run(adversary={"attacker": "carol", "victim": "bob", "target_key": "random"})
    lines = tr.to_jsonl().splitlines()
    rec = json.loads(lines[-1])
    rec["adversary"]["victim"] = "mallory"
    lines[-1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    report = verify_transcript(Transcript.from_jsonl("\n".join(lines) + "\n"))
    assert not report.ok


def test_redacted_transcript_skips_recomputation():
    tr = run(redact=True, adversary={"attacker": "carol", "victim": "bob", "target_key": "random"})
    assert tr.ground_truth is None
    assert '"record":"ground_truth"' not in tr.to_jsonl()
    report = verify_transcript(tr)
    assert report.ok
    assert report.skipped and "redacted" in report.skipped[0]
    # the forgery is judged from the public record all the same
    assert "forgery algebra: share shift equals key shift (mod m)" in report.checks
    assert "forgery footprint: exactly the victim's share and the tag changed" in report.checks


# --- config validation ---------------------------------------------------------------

@pytest.mark.parametrize(
    "overrides",
    [
        {"members": ["solo"]},
        {"members": ["a", "a"]},
        {"members": ["alice", "kgc"]},
        {"variant": "banana"},
        {"seed": -4},
        {"modulus": {"p": 167}},            # ring without q
        {"modulus": {"p": 167, "q": 179, "bits": 8}},
        {"modulus": {}},
        {"modulus": {"bits": 2}},
        {"initiator": "mallory"},
        {"keys": {"mallory": 4}},
        {"keys": {"alice": -1}},
        {"adversary": {"attacker": "alice", "victim": "alice"}},
        {"adversary": {"attacker": "alice", "victim": "zoe"}},
        {"adversary": {"attacker": "alice", "victim": "bob", "action": "meddle"}},
        {"adversary": {"attacker": "alice", "victim": "bob", "action": "suppress", "target_key": 3}},
        {"id_width": 0},
        {"hash": {"algorithm": "nope"}},
        {"surprise": True},
        {"members": ["a", []]},             # types are checked before members are hashed
        {"members": ["\ud800", "bob"]},     # not encodable as UTF-8
        {"seed": True},                     # bool is never an integer
        {"keys": {"alice": True}},
        {"keys": 5},
        {"adversary": {"attacker": "alice", "victim": "bob", "target_key": True}},
        {"id_width": True, "members": ["a", "b"]},  # True == 1 would fit one-byte names
        {"id_width": 256},
        {"id_width": 2**70},
        {"modulus": {"bits": True}},
        {"modulus": {"p": True, "q": 179}},
        {"redact": "no"},
        {"hash": {"algorithm": 5}},
        {"hash": {"algorithm": "shake_128"}},  # variable-length digest
    ],
)
def test_config_rejections(overrides):
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(scenario_dict(**overrides))


def test_config_rejects_field_variant_with_q():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(
            scenario_dict(variant="field", modulus={"p": 23, "q": 29})
        )


def test_config_rejects_composite_primes_at_run():
    cfg = ScenarioConfig.from_dict(scenario_dict(modulus={"p": 6, "q": 7}))
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def test_build_domain_bounds_bits():
    cfg = ScenarioConfig.from_dict(scenario_dict(modulus={"bits": MAX_BITS + 1}))
    with pytest.raises(ConfigError, match="at most 512"):
        run_scenario(cfg)
    with pytest.raises(ConfigError):
        build_domain(Variant.FIELD, SeededRng(0), bits=2)
    ctx, p, q = build_domain(Variant.RING, None, p=5, q=7)
    assert (ctx.modulus, p, q) == (35, 5, 7)


def test_build_domain_bounds_explicit_primes():
    cfg = ScenarioConfig.from_dict(scenario_dict(variant="field", modulus={"p": 2**521 - 1}))
    with pytest.raises(ConfigError, match="at most 512 bits"):
        run_scenario(cfg)
    with pytest.raises(ConfigError, match="at most 512 bits"):
        build_domain(Variant.RING, None, p=167, q=2**512 + 1)
    # 512 bits is inside the bound: this composite gets to the primality test
    with pytest.raises(ConfigError, match="not prime"):
        build_domain(Variant.FIELD, None, p=2**512 - 1)


@pytest.mark.parametrize(
    "variant, modulus",
    [(Variant.FIELD, {"p": 23, "q": 7}), (Variant.RING, {"p": 23}), (Variant.FIELD, {"p": "x"}),
     (Variant.FIELD, {"p": None}), (Variant.FIELD, {"bits": "x"})],
    ids=["field-with-q", "ring-without-q", "p-string", "field-without-p", "bits-string"],
)
def test_build_domain_raises_config_error_on_bad_shapes(variant, modulus):
    with pytest.raises(ConfigError):
        build_domain(variant, SeededRng(0), **modulus)


def test_a_verify_after_its_run_proves_the_domain_once(monkeypatch):
    proofs = []

    def counting_domain_new(*args, **kwargs):
        proofs.append(args)
        return domain_new(*args, **kwargs)

    monkeypatch.setattr(simnet, "domain_new", counting_domain_new)
    simnet._proven_domain.cache_clear()
    tr = run()
    assert verify_transcript(Transcript.from_jsonl(tr.to_jsonl())).ok
    assert proofs == [(167, 179)]


def test_config_rejects_member_name_longer_than_id_width():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(scenario_dict(members=["x" * 17, "bob"]))


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scenario_dict()))
    cfg = ScenarioConfig.from_file(path)
    assert cfg.members == ("alice", "bob", "carol")
    with pytest.raises(ConfigError):
        ScenarioConfig.from_file(tmp_path / "missing.json")
    path.write_text("{broken")
    with pytest.raises(ConfigError):
        ScenarioConfig.from_file(path)


def test_every_construction_checks_the_config():
    """A config is checked when it is built, by dataclasses.replace (as run's --seed
    and --variant overrides build theirs) or directly, not only by from_dict."""
    cfg = ScenarioConfig.from_dict(scenario_dict())
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        dataclasses.replace(cfg, seed=-1)
    with pytest.raises(ConfigError, match="duplicate member names"):
        ScenarioConfig(Variant.RING, ("alice", "alice"), 167, 179)


def test_a_library_session_checks_its_config_twice(monkeypatch):
    """from_dict, run, to_jsonl, from_jsonl and verify check a config once when it is
    read and once when the meta is parsed: the run and verify check none."""
    checks, check = [], ScenarioConfig.__post_init__

    def counted_check(cfg):
        checks.append(cfg)
        check(cfg)

    monkeypatch.setattr(ScenarioConfig, "__post_init__", counted_check)
    tr = run_scenario(ScenarioConfig.from_dict(scenario_dict(adversary=FORGE)))
    assert verify_transcript(Transcript.from_jsonl(tr.to_jsonl())).ok
    assert len(checks) == 2


@pytest.mark.parametrize("adversary", [None, FORGE, SUPPRESS], ids=["honest", "forge", "suppress"])
def test_a_session_builds_its_skeleton_once_per_meta(monkeypatch, adversary):
    """run, to_jsonl, from_jsonl and verify build the event skeleton twice, once
    for the run's meta and once for the parsed one; the runner, the reader and
    verify each read meta.skeleton, which is event_skeleton's list."""
    builds, build = [], simnet.event_skeleton

    def counted_build(meta):
        builds.append(meta)
        return build(meta)

    monkeypatch.setattr(simnet, "event_skeleton", counted_build)
    tr = run(adversary=adversary)
    parsed = Transcript.from_jsonl(tr.to_jsonl())
    assert verify_transcript(parsed).ok
    assert builds == [tr.meta, parsed.meta] and builds[0] is tr.meta and builds[1] is parsed.meta
    assert type(parsed.meta.skeleton) is list and parsed.meta.skeleton == build(parsed.meta)


@pytest.mark.parametrize("value", [[], 5, None, "ab"], ids=["list", "int", "null", "string"])
def test_from_dict_refuses_anything_but_an_object(value):
    with pytest.raises(ConfigError, match="^config must be a JSON object$"):
        ScenarioConfig.from_dict(value)


# Every setting a meta shares with a config: (its path in a config, its key in a meta).
_SHARED_SETTINGS = {
    "variant": (("variant",), "variant"),
    "members": (("members",), "members"),
    "p": (("modulus", "p"), "p"),
    "q": (("modulus", "q"), "q"),
    "initiator": (("initiator",), "initiator"),
    "seed": (("seed",), "seed"),
    "id_width": (("id_width",), "id_width"),
    "hash-algorithm": (("hash", "algorithm"), "hash_algorithm"),
    "element-hash": (("hash", "element_hash"), "element_hash"),
    "adversary": (("adversary",), "adversary"),
    "redact": (("redact",), "redacted"),
}
_HOSTILE_SETTINGS = (None, True, -1, 2**70, "", "kgc", [], {}, ["x"])


def _config_of(meta):
    """The config holding a meta record's settings."""
    return {"variant": meta["variant"], "members": meta["members"], "modulus": {"p": meta["p"], "q": meta["q"]},
            "initiator": meta["initiator"], "seed": meta["seed"], "id_width": meta["id_width"],
            "hash": {"algorithm": meta["hash_algorithm"], "element_hash": meta["element_hash"]},
            "adversary": meta["adversary"], "redact": meta["redacted"]}


# The hostile values a config may hold: initiator null is the first member, element
# hash null the tag hash, and 2**70 a seed; a transcript's own checks judge those.
_READ_BY_THE_CONFIG_READER = {"initiator": [None], "seed": [2**70], "element-hash": [None],
                              "adversary": [None], "redact": [True]}


@pytest.mark.parametrize("setting", _SHARED_SETTINGS)
@pytest.mark.parametrize("golden", ["honest-ring35.jsonl", "attack-ring35.jsonl"])
def test_a_meta_is_read_by_the_config_reader(golden, setting):
    """Each hostile value of each shared setting, put in a config holding the golden
    meta's settings and in the golden's meta line: wherever the config is refused,
    by from_dict or by proving its p and q, the transcript is refused with that
    message behind "line 1: meta: "."""
    path, key = _SHARED_SETTINGS[setting]
    meta, *rest = _golden_path(golden).read_text().splitlines(keepends=True)
    assert ScenarioConfig.from_dict(_config_of(json.loads(meta)))  # the unedited settings are a config
    accepted = []
    for value in _HOSTILE_SETTINGS:
        cfg, rec = _config_of(json.loads(meta)), json.loads(meta)
        functools.reduce(lambda d, k: d[k], path[:-1], cfg)[path[-1]] = value
        rec[key] = value
        text = json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n" + "".join(rest)
        try:
            simnet.TranscriptMeta.from_config(ScenarioConfig.from_dict(cfg), None)  # proves p and q, as a run does
        except ConfigError as e:
            with pytest.raises(MalformedTranscript) as got:
                Transcript.from_jsonl(text)
            assert str(got.value) == f"line 1: meta: {e}", value
        else:
            accepted.append(value)
    assert accepted == _READ_BY_THE_CONFIG_READER.get(setting, [])


# --- frozen transcript format ----------------------------------------------------------

GOLDEN_CONFIG = {
    "variant": "ring",
    "modulus": {"p": 5, "q": 7},
    "members": ["ann", "bob"],
    "keys": {"ann": 2, "bob": 3},
    "seed": 0,
}


def _golden_path(name):
    from pathlib import Path

    return Path(__file__).parent / "golden" / name


def test_golden_honest_transcript_bytes_frozen():
    tr = run_scenario(ScenarioConfig.from_dict(GOLDEN_CONFIG))
    assert tr.to_jsonl() == _golden_path("honest-ring35.jsonl").read_text()


def test_golden_attack_transcript_bytes_frozen():
    cfg = dict(GOLDEN_CONFIG)
    cfg["adversary"] = {"attacker": "bob", "victim": "ann", "target_key": 9}
    tr = run_scenario(ScenarioConfig.from_dict(cfg))
    assert tr.to_jsonl() == _golden_path("attack-ring35.jsonl").read_text()


def test_golden_transcripts_verify_clean():
    for name in ("honest-ring35.jsonl", "attack-ring35.jsonl"):
        report = verify_transcript(Transcript.load(_golden_path(name)))
        assert report.ok, (name, report.mismatches)


GOLDEN_NAMES = ("honest-ring35.jsonl", "attack-ring35.jsonl")


def test_golden_transcripts_round_trip_byte_for_byte():
    for name in GOLDEN_NAMES:
        text = _golden_path(name).read_text()
        assert Transcript.from_jsonl(text).to_jsonl() == text


_SPLICES = ("", " ", "\t", "\r", "\n", "\r\n", "0", "a", "A", '"', "\\", ",", ":", "}", "\\u0061", "é", "\u2028")


@given(source=st.sampled_from((*GOLDEN_NAMES, "suppress-redacted")), blank=st.sampled_from(("", "\n", " \t\n\n")),
       at=st.integers(0, 2**16), cut=st.integers(0, 3), splice=st.sampled_from(_SPLICES))
@settings(max_examples=300, deadline=None)
def test_from_jsonl_accepts_only_the_text_it_writes(source, blank, at, cut, splice):
    """A written transcript after whitespace-only lines, with characters cut out or
    spliced in anywhere, loads exactly when it is the text to_jsonl writes for the
    transcript it loads as, past those lines; any other text raises MalformedTranscript."""
    if source == "suppress-redacted":
        text = run(adversary=SUPPRESS, redact=True).to_jsonl()
    else:
        text = _golden_path(source).read_text()
    at %= len(text) + 1
    edited = blank + text[:at] + splice + text[at + cut :]
    try:
        tr = Transcript.from_jsonl(edited)
    except MalformedTranscript:
        return
    lines = edited.split("\n")
    first = next(i for i, line in enumerate(lines) if line.strip())
    assert tr.to_jsonl() == "\n".join(lines[first:])


_AWKWARD_CHARS = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\u2028", "\ufeff", "\U0001f600"])
_AWKWARD_NAMES = st.text(st.one_of(_AWKWARD_CHARS, st.characters()), min_size=1, max_size=8)


@given(
    events=st.lists(
        st.tuples(
            st.sampled_from(_STEPS), _AWKWARD_NAMES, st.lists(_AWKWARD_NAMES, max_size=5),
            st.binary(max_size=12), st.sampled_from(_VERDICTS), st.binary(max_size=12),
        ),
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_event_lines_match_the_record_dump(events):
    """Each event line is _dump of its record: sorted keys, \\uXXXX escapes for
    non-ASCII (astral characters as surrogate pairs), escaped quotes,
    backslashes and control characters, and delivered_payload on replaced events."""
    evs = [
        simnet.TranscriptEvent(i, step, sender, tuple(receivers), payload, verdict,
                               delivered if verdict == "replaced" else None)
        for i, (step, sender, receivers, payload, verdict, delivered) in enumerate(events)
    ]
    quoted = simnet._Quoted()
    for ev, line in ((ev, simnet._event_line(ev, quoted)) for ev in evs):
        rec = {"record": "event", "index": ev.index, "step": ev.step, "sender": ev.sender,
               "receivers": list(ev.receivers), "payload": ev.payload.hex(), "verdict": ev.verdict}
        if ev.delivered_payload is not None:
            rec["delivered_payload"] = ev.delivered_payload.hex()
        assert line == simnet._dump(rec)
        assert line.isascii()


@given(outcomes=st.lists(st.tuples(_AWKWARD_NAMES, st.sampled_from(simnet._STATUSES),
                                   st.none() | st.integers(0, 2**80), st.none() | _AWKWARD_NAMES), max_size=4))
@settings(max_examples=60, deadline=None)
def test_outcome_lines_match_the_record_dump(outcomes):
    """Each outcome line is _dump of its record, whichever of key and reason it has."""
    quoted = simnet._Quoted()
    for oc in (simnet.OutcomeRecord(*fields) for fields in outcomes):
        line = simnet._outcome_line(oc, quoted)
        assert line == simnet._dump({"record": "outcome", **oc.to_record()})
        assert line.isascii()


def test_transcript_with_a_receiver_outside_the_roster_round_trips():
    """The writer gives a receiver name that meta.members lacks its _dump, so it
    keeps no closed table of names; the loader refuses the event, and verify
    reports it in memory."""
    tr = run(adversary=FORGE)
    at = next(ev.index for ev in tr.events if ev.step == simnet.STEP_CHALLENGE)
    stray = _with_event(tr, at, receivers=(*tr.events[at].receivers, "zoë \"\\ \U0001f600"))
    text = stray.to_jsonl()
    assert text == _record_dump(stray)
    with pytest.raises(MalformedTranscript, match=rf"^line {at + 2}: expected event {at}, "):
        Transcript.from_jsonl(text)
    assert not verify_transcript(stray).ok


_DELETE = object()


@pytest.mark.parametrize(
    "line, key, value",
    [
        (0, "format", True),               # equal to 1, but not an integer
        (0, "t", 2.0),
        (0, "modulus", 36),                # not p * q
        (0, "p", 7),
        (0, "id_width", 256),
        (0, "extra", 1),
        (1, "receivers", "kgc"),           # a string is not a list of names
        (1, "index", True),
        (1, "payload", "0g"),
        (1, "delivered_payload", "00"),    # only replaced events carry one
        (9, "status", "won"),
        (9, "key", True),
        (9, "key", None),                  # absent, not null, when unset
        (10, "r0", 35),                    # not a residue mod 35
        (10, "member_keys", {"ann": -1, "bob": 3}),
        (9, "key", _DELETE),               # an accepted outcome names its key
        (9, "key", -1),
        (9, "key", 35),                    # not a residue mod 35
        (9, "reason", "tag_mismatch"),     # only outcomes not accepted carry a reason
        (9, "status", "rejected"),         # ... and no key
    ],
)
def test_from_jsonl_rejects_mistyped_fields(line, key, value):
    lines = _golden_path("attack-ring35.jsonl").read_text().splitlines()
    rec = json.loads(lines[line])
    if value is _DELETE:
        del rec[key]
    else:
        rec[key] = value
    lines[line] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    with pytest.raises(MalformedTranscript):
        Transcript.from_jsonl("\n".join(lines) + "\n")


_JSON_VALUES = st.recursive(
    st.one_of(st.text(max_size=4), st.integers(), st.floats(), st.booleans(), st.none()),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


@given(receivers=st.one_of(st.lists(st.text(max_size=4), max_size=6), st.lists(_JSON_VALUES, max_size=6)))
@example(receivers=[])
@example(receivers=["kgc", 1])
@settings(max_examples=200, deadline=None)
def test_receivers_typing_matches_the_set_of_types_check(receivers):
    """The oracle, event_from_record, accepts an event's receivers list exactly
    when every element's type is str, as set(map(type, receivers)) <= {str}
    decides, for the lists json.loads returns, whether or not the record matches
    its skeleton entry (["kgc"] here); a rejected list keeps its message."""
    receivers = json.loads(json.dumps(receivers))
    rec = {"index": 0, "step": "request", "sender": "alice", "receivers": receivers,
           "payload": "", "verdict": "delivered"}
    for expected in (None, ("request", "alice", ("kgc",), "delivered")):
        if set(map(type, receivers)) <= {str}:
            assert event_from_record(rec, 0, expected).receivers == tuple(receivers)
        else:
            with pytest.raises(MalformedTranscript) as e:
                event_from_record(rec, 0, expected)
            assert str(e.value) == "event 0: sender and receivers must be names"


def _forge_pipeline_text():
    members = ["alice", "bob", "carol", *(f"m{k}" for k in range(37))]
    cfg = scenario_dict(variant="field", modulus={"p": 2**64 - 59}, members=members, adversary=FORGE)
    return run_scenario(ScenarioConfig.from_dict(cfg)).to_jsonl()


@pytest.mark.parametrize("source", [*GOLDEN_NAMES, "t40-forge"])
def test_parsed_names_are_the_meta_objects(source):
    """from_jsonl stores each name once: every sender, receiver and outcome
    member is the meta's str object for that name, or KGC_NAME."""
    text = _forge_pipeline_text() if source == "t40-forge" else _golden_path(source).read_text()
    tr = Transcript.from_jsonl(text)
    canonical = {name: name for name in (simnet.KGC_NAME, *tr.meta.members)}
    parsed = [ev.sender for ev in tr.events]
    parsed += [r for ev in tr.events for r in ev.receivers]
    parsed += [oc.member for oc in tr.outcomes]
    assert all(name is canonical[name] for name in parsed)


@pytest.mark.parametrize("receivers", ["kgcbob", {"kgc": "kgc", "bob": "bob"}], ids=["str", "dict"])
def test_receivers_of_roster_names_not_in_a_list_are_rejected(receivers):
    """Receivers must be a list: a str or dict of roster names is refused as the
    line of the event skeleton's entry."""
    lines = _golden_path("honest-ring35.jsonl").read_text().splitlines()
    rec = json.loads(lines[3])
    rec["receivers"] = receivers
    lines[3] = simnet._dump(rec)
    with pytest.raises(MalformedTranscript) as e:
        Transcript.from_jsonl("\n".join(lines) + "\n")
    assert str(e.value) == "line 4: expected event 2, the challenge from 'ann', as gkdsim writes it"


def test_a_challenge_to_a_stranger_gets_the_same_report():
    """A name outside the roster is refused on loading, and verify reports the
    misrouted challenge in a transcript built in memory."""
    tr = _with_event(Transcript.load(_golden_path("honest-ring35.jsonl")), 2, receivers=("kgc", "mallory"))
    with pytest.raises(MalformedTranscript, match=r"^line 4: expected event 2, the challenge from 'ann', "):
        Transcript.from_jsonl(tr.to_jsonl())
    report = verify_transcript(tr)
    assert report.checks == []
    assert report.mismatches == ["event 2: challenge with the wrong receivers"]
    assert report.skipped == ["payload, outcome and ground-truth checks: the events differ from the event skeleton"]


_ROSTER = ("ann", "bob", "carol", "dave", "eve")
_EDITS = ("none", "swap", "drop", "duplicate", "move-kgc", "add-sender", "non-str", "tuple",
          "list-subclass", "stranger", "other-step")


class _ListSubclass(list):
    pass


def _fresh(name):
    """A str equal to name but not the same object, as json.loads makes it."""
    return name.encode().decode()


@st.composite
def _challenges_near_the_implied_list(draw):
    """A challenge record whose receivers are the list its sender implies,
    with at most one edit: a name swapped, dropped or duplicated, kgc moved,
    the sender added, a non-str element, a tuple or list subclass, a sender
    outside the roster, or the same list on another step."""
    members = _ROSTER[: draw(st.integers(2, len(_ROSTER)))]
    i = draw(st.integers(0, len(members) - 1))
    receivers = [_fresh(name) for name in challenge_receivers(members, i)]
    sender, step = _fresh(members[i]), simnet.STEP_CHALLENGE
    edit = draw(st.sampled_from(_EDITS))
    j = draw(st.integers(0, len(receivers) - 1))
    k = (j + 1) % len(receivers)
    if edit == "swap":
        receivers[j], receivers[k] = receivers[k], receivers[j]
    elif edit == "drop":
        del receivers[j]
    elif edit == "duplicate":
        receivers.insert(j, _fresh(receivers[j]))
    elif edit == "move-kgc":
        receivers.insert(k, receivers.pop(0))
    elif edit == "add-sender":
        receivers.insert(j, _fresh(sender))
    elif edit == "non-str":
        receivers[j] = draw(st.none() | st.booleans() | st.integers() | st.lists(st.text(max_size=3), max_size=2))
    elif edit == "tuple":
        receivers = tuple(receivers)
    elif edit == "list-subclass":
        receivers = _ListSubclass(receivers)
    elif edit == "stranger":
        sender = "zed"
    elif edit == "other-step":
        step = draw(st.sampled_from([s for s in _STEPS if s != simnet.STEP_CHALLENGE]))
    rec = {"index": 0, "step": step, "sender": sender, "receivers": receivers, "payload": "00",
           "verdict": "delivered"}
    return members, rec


def _per_name_reference(rec, entry):
    """(sender, receivers) after a name-by-name check: the skeleton entry's objects
    if the record's names equal the entry's, else the record's own, or the message
    a record whose sender and receivers are not names gets."""
    sender, receivers = rec["sender"], rec["receivers"]
    if type(sender) is not str or type(receivers) is not list or any(type(r) is not str for r in receivers):
        return "event 0: sender and receivers must be names"
    if rec["step"] == entry[0] and sender == entry[1] and len(receivers) == len(entry[2]) and all(
            a == b for a, b in zip(receivers, entry[2])):
        return entry[1], entry[2]
    return sender, tuple(receivers)


@given(drawn=_challenges_near_the_implied_list())
@example(drawn=(_ROSTER[:3], {"index": 0, "step": "challenge", "sender": "bob", "payload": "00",
                              "receivers": ["kgc", "ann", "carol"], "verdict": "delivered"}))
@settings(max_examples=300, deadline=None)
def test_challenge_receivers_fast_path_matches_the_per_name_reference(drawn):
    """The oracle, event_from_record, accepts and rejects exactly what a
    name-by-name check does, with the same message, the same receivers and the same
    name objects: the skeleton entry's for a record that matches it, the record's
    own for any other."""
    members, rec = drawn
    members = tuple(map(_fresh, members))
    i = members.index(rec["sender"]) if rec["sender"] in members else 0
    entry = (simnet.STEP_CHALLENGE, members[i], challenge_receivers(members, i), simnet.VERDICT_DELIVERED)
    expected = _per_name_reference(rec, entry)
    try:
        ev = event_from_record(rec, 0, entry)
    except MalformedTranscript as e:
        assert str(e) == expected
        return
    sender, receivers = expected
    assert (ev.sender, ev.receivers) == (sender, receivers)
    assert ev.sender is sender and all(a is b for a, b in zip(ev.receivers, receivers, strict=True))


def _grid_scenarios(t):
    """Honest, then forge and suppress with the victim first, in the middle and
    last, and the attacker just before it and just after it."""
    members = [f"m{k}" for k in range(t)]
    yield members, None
    for v in sorted({0, t // 2, t - 1}):
        for a in (v - 1, v + 1):
            if 0 <= a < t:
                for action in ("forge", "suppress"):
                    yield members, {"attacker": members[a], "victim": members[v], "action": action}


@pytest.mark.parametrize("t", [2, 3, 13])
@pytest.mark.parametrize("variant, modulus", [("ring", {"p": 167, "q": 179}), ("field", {"p": 227})],
                         ids=["ring", "field"])
def test_the_network_writes_the_event_skeleton(variant, modulus, t):
    for members, adversary in _grid_scenarios(t):
        cfg = scenario_dict(variant=variant, modulus=modulus, members=members, adversary=adversary)
        tr = run_scenario(ScenarioConfig.from_dict(cfg))
        shape = [(ev.step, ev.sender, ev.receivers, ev.verdict) for ev in tr.events]
        assert shape == simnet.event_skeleton(tr.meta), adversary
        assert verify_transcript(tr).ok, adversary


@pytest.mark.parametrize("t", [2, 3, 13, 40])
def test_challenges_fan_out_to_the_skeleton_receivers_in_roster_order(t, monkeypatch):
    """Every challenge reaches observe_challenge of each of its skeleton receivers
    but the KGC, in roster order, challenge by challenge: t(t - 1) calls, honest,
    forge and suppress, with the attacker and the victim at either end."""
    seen = []
    observe = protocol.GroupMember.observe_challenge

    def spy(member, msg):
        seen.append((member.identity.user_id.decode(), msg.sender.decode(), msg.value))
        observe(member, msg)

    monkeypatch.setattr(protocol.GroupMember, "observe_challenge", spy)
    members = [f"m{k}" for k in range(t)]
    ends = [(members[0], members[-1]), (members[-1], members[0])]
    adversaries = [None, *({"attacker": a, "victim": v, "action": action}
                           for a, v in ends for action in ("forge", "suppress"))]
    for adversary in adversaries:
        cfg = scenario_dict(variant="field", modulus={"p": 2**64 - 59}, members=members, adversary=adversary)
        seen.clear()
        tr = run_scenario(ScenarioConfig.from_dict(cfg))
        issued = tr.ground_truth.challenges
        expected = [(r, sender, issued[sender])
                    for step, sender, receivers, _ in simnet.event_skeleton(tr.meta) if step == simnet.STEP_CHALLENGE
                    for r in tuple(receivers)[1:]]
        assert seen == expected and len(seen) == t * (t - 1), adversary


def test_run_memory_at_t_256():
    """One t = 256 field forge run over a 64-bit prime peaks at most 1.5 MB
    traced: each member logs the challenges in a list by roster position
    (sender -> value dicts read 2.8 MB). A first run warms the memos."""
    members = ["alice", "bob", "carol", *(f"m{k}" for k in range(253))]
    cfg = ScenarioConfig.from_dict(
        scenario_dict(variant="field", modulus={"p": 2**64 - 59}, members=members, adversary=FORGE))
    run_scenario(cfg)
    tracemalloc.start()
    try:
        run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6, peak


def _record_dump(tr):
    """tr written the slow way: one _dump per record, with the fields of each."""
    records = [{"record": "meta", **tr.meta.to_record()}]
    for ev in tr.events:
        records.append({"record": "event", "index": ev.index, "step": ev.step, "sender": ev.sender,
                        "receivers": list(ev.receivers), "payload": ev.payload.hex(), "verdict": ev.verdict})
        if ev.delivered_payload is not None:
            records[-1]["delivered_payload"] = ev.delivered_payload.hex()
    records += ({"record": "outcome", **oc.to_record()} for oc in tr.outcomes)
    records.append({"record": "ground_truth", **tr.ground_truth.to_record()})
    return "".join(simnet._dump(rec) + "\n" for rec in records)


def _off_frame(lines):
    """The lines from_jsonl must json-decode: the meta and the ground truth."""
    return [line for line in lines if '"record":"meta"' in line or '"record":"ground_truth"' in line]


@pytest.mark.parametrize("t", [2, 3, 13])
@pytest.mark.parametrize("variant, modulus", [("ring", {"p": 167, "q": 179}), ("field", {"p": 227})],
                         ids=["ring", "field"])
def test_written_event_lines_are_read_against_their_frames(variant, modulus, t, monkeypatch):
    """to_jsonl writes every record byte for byte as _dump does, and from_jsonl
    json-decodes no event or outcome line, yet gives back the run's events and
    outcomes."""
    decoded, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda s, *args, **kwargs: decoded.append(s) or loads(s, *args, **kwargs))
    for members, adversary in _grid_scenarios(t):
        cfg = scenario_dict(variant=variant, modulus=modulus, members=members, adversary=adversary)
        tr = run_scenario(ScenarioConfig.from_dict(cfg))
        text = tr.to_jsonl()
        assert text == _record_dump(tr), adversary
        decoded.clear()
        parsed = Transcript.from_jsonl(text)
        assert (parsed.events, parsed.outcomes) == (tr.events, tr.outcomes), adversary
        assert decoded == _off_frame(text.splitlines()), adversary


def test_an_event_line_after_an_outcome_is_out_of_order():
    """The broadcast line after an outcome is refused where the writer puts the
    broadcast: the outcome is on its line."""
    lines = run().to_jsonl().splitlines()  # events on lines 2-7, outcomes on 8-10
    lines.insert(7, lines.pop(6))  # the broadcast after alice's outcome
    with pytest.raises(MalformedTranscript, match=r"^line 7: expected event 5, the broadcast from 'kgc', "):
        Transcript.from_jsonl("\n".join(lines) + "\n")


@functools.lru_cache(maxsize=None)
def _grid_lines(t, scenario):
    """The lines of a run of _grid_scenarios(t)[scenario]: 1 is a forge."""
    members, adversary = list(_grid_scenarios(t))[scenario]
    cfg = scenario_dict(members=members, adversary=adversary)
    return tuple(run_scenario(ScenarioConfig.from_dict(cfg)).to_jsonl().splitlines())


_HEX_EDITS = ("upper", "space", "tab", "odd", "escape", "quote")
_LINE_EDITS = ("none", *_HEX_EDITS, "escaped-token", "whitespace", "index+1", "index-1", "verdict",
               "extra-field", "duplicate-key", "delivered-added", "delivered-deleted",
               *(f"delivered-{edit}" for edit in _HEX_EDITS))


def _edit_line(line, edit, at):
    """line with one edit; at picks where, or which value. A delivered-<hex edit>
    makes the hex edit inside delivered_payload, not payload."""
    key = '"payload":"'
    if edit.startswith("delivered-") and edit[len("delivered-") :] in _HEX_EDITS:
        key, edit = '"delivered_payload":"', edit[len("delivered-") :]
    start = line.index(key) + len(key)
    end = line.index('"', start)
    j = start + at % (end - start + 1)  # a place in the payload's hex, or just after it
    if edit == "upper":
        return line[:start] + line[start:end].upper() + line[end:]
    if edit in ("space", "tab", "quote"):
        return line[:j] + {"space": " ", "tab": "\t", "quote": '"'}[edit] + line[j:]
    if edit == "odd":
        return line[: end - 1] + line[end:]
    if edit == "escape":
        j = min(j, end - 1)
        return line[:j] + f"\\u{ord(line[j]):04x}" + line[j + 1 :]
    if edit == "escaped-token":  # the first letter of a key, name, step or verdict, as \u00XX
        places = [m.start() for m in re.finditer(r'(?<=")[a-z_]', line) if not start <= m.start() < end]
        j = places[at % len(places)]
        return line[:j] + f"\\u{ord(line[j]):04x}" + line[j + 1 :]
    if edit == "whitespace":
        places = [m.end() for m in re.finditer(r'[{}\[\]:,]', line) if not start <= m.start() < end]
        j = places[at % len(places)]
        return line[:j] + " \t"[at % 2] + line[j:]
    if edit in ("index+1", "index-1"):
        return re.sub(r'"index":(\d+)', lambda m: f'"index":{int(m[1]) + int(edit[-2:])}', line, count=1)
    if edit == "verdict":
        other = [v for v in _VERDICTS if f'"verdict":"{v}"' not in line][at % 2]
        return re.sub(r'"verdict":"\w+"', f'"verdict":"{other}"', line)
    if edit == "extra-field":
        return line[:-1] + ',"extra":0}'
    if edit == "duplicate-key":  # a pair again, with its own value or another, first or last
        pairs = re.findall(r'"(?:index|payload|record|sender|step|verdict)":(?:"[^"]*"|\d+)', line)
        pair = pairs[at % len(pairs)]
        if at % 3 == 1 and not pair.startswith('"record"'):  # the line stays an event record
            pair = pair.split(":")[0] + (':"00"' if pair.endswith('"') else ":0")
        return "{" + pair + "," + line[1:] if at % 2 else line[:-1] + "," + pair + "}"
    if edit == "delivered-added":
        return '{"delivered_payload":"00",' + line[1:]
    if edit == "delivered-deleted":
        return re.sub(r'"delivered_payload":"\w*",', "", line)
    return line


def _oracle_reads(lines, n):
    """The event or outcome the oracle makes of lines[n], the line of a written
    transcript's event or outcome, JSON-decoded: if it is the record the writer puts
    there, the skeleton entry's event or the roster member's outcome, and the writer
    gives back the line. None otherwise."""
    meta_record = json.loads(lines[0])
    del meta_record["record"]
    meta = simnet.TranscriptMeta.from_record(meta_record)
    skeleton, k = simnet.event_skeleton(meta), n - 1
    try:
        rec = json.loads(lines[n])
    except ValueError:
        return None
    assert rec.pop("record") == ("event" if k < len(skeleton) else "outcome")
    try:
        if k < len(skeleton):
            read = event_from_record(rec, k, skeleton[k])
            ok = (read.step, read.sender, read.receivers, read.verdict) == skeleton[k]
            written = simnet._event_line(read, simnet._Quoted())
        else:
            read = outcome_from_record(rec, meta.params.ctx, meta.members[k - len(skeleton)])
            ok = read.member == meta.members[k - len(skeleton)]
            written = simnet._outcome_line(read, simnet._Quoted())
    except MalformedTranscript:
        return None
    return read if ok and written == lines[n] else None


def _meta_names(meta, ev):
    """Which of ev's names are the meta's objects or KGC_NAME, not strings of their own."""
    pool = (*meta.members, simnet.KGC_NAME)
    return [any(name is obj for obj in pool) for name in (ev.sender, *ev.receivers)]


def _read_as_the_oracle(lines, n):
    """from_jsonl reads lines, a written transcript with line n edited, exactly when
    the oracle reads line n as the record the writer puts there and the writer gives
    the line back. Then it holds the oracle's event or outcome, with the meta's name
    objects, and writes the text back. Otherwise it raises, naming line n + 1."""
    expected, text = _oracle_reads(lines, n), "\n".join(lines) + "\n"
    if expected is None:
        with pytest.raises(MalformedTranscript, match=rf"^line {n + 1}: expected "):
            Transcript.from_jsonl(text)
        return
    tr = Transcript.from_jsonl(text)
    assert tr.to_jsonl() == text
    assert (*tr.events, *tr.outcomes)[n - 1] == expected
    assert all(all(_meta_names(tr.meta, ev)) for ev in tr.events)
    assert all(oc.member is name for oc, name in zip(tr.outcomes, tr.meta.members, strict=True))


@given(t=st.sampled_from((2, 3, 13)), scenario=st.integers(0, 8), edit=st.sampled_from(_LINE_EDITS),
       event=st.integers(0, 40), at=st.integers(0, 60))
@example(t=3, scenario=1, edit="delivered-deleted", event=0, at=0)
@example(t=13, scenario=0, edit="tab", event=5, at=3)
@example(t=2, scenario=0, edit="escape", event=2, at=0)
@example(t=3, scenario=1, edit="delivered-upper", event=0, at=0)
@example(t=3, scenario=1, edit="delivered-space", event=0, at=2)
@example(t=13, scenario=1, edit="delivered-tab", event=0, at=5)
@example(t=3, scenario=1, edit="delivered-odd", event=0, at=0)
@example(t=2, scenario=1, edit="delivered-quote", event=0, at=3)
@example(t=3, scenario=1, edit="delivered-escape", event=0, at=1)
@settings(max_examples=400, deadline=None)
def test_framed_event_lines_parse_as_json_and_from_record_read_them(t, scenario, edit, event, at):
    """from_jsonl accepts a gkdsim-written transcript with one event line edited
    exactly when json.loads and event_from_record read the line as the skeleton
    entry's event and _event_line gives the line back, and then reads that event.
    Honest, forge and suppress runs; the delivered_payload of a forge's replaced
    broadcast, the last event, is deleted or edited as the payload's hex is."""
    scenario %= len(list(_grid_scenarios(t)))
    to_delivered = edit.startswith("delivered-") and edit != "delivered-added"
    if to_delivered:
        scenario = 1
    lines = list(_grid_lines(t, scenario))
    events = [n for n, line in enumerate(lines) if '"record":"event"' in line]
    n = events[-1] if to_delivered else events[event % len(events)]
    lines[n] = _edit_line(lines[n], edit, at)
    _read_as_the_oracle(lines, n)


_OUTCOME_EDITS = ("none", "digits", "arabic-digits", "pad", "negative", "float", "exponent", "quoted", "huge", "empty-string",
                  "insert", "status", "member", "escaped-token", "whitespace", "extra-field", "duplicate-key",
                  "delete-key")
_INSERTS = ('\\"', "\t", "\x7f", "é", "\\\\", " ", "\\u0041", '"', "0")


def _edit_outcome_line(line, edit, at, members):
    """line, an outcome record, with one edit to its hole (the key's digits or the
    reason's quoted text) or around it; at picks where, or which value."""
    start, end = re.search(r'"(?:key|reason)":("[^"]*"|\d+)', line).span(1)
    hole = line[start:end]
    holes = {"digits": "9" * (at % 7 + 1),  # below and above the modulus, 29893
             "pad": "0" + hole, "negative": "-" + hole, "float": hole + ".0", "exponent": hole + "e0",
             "quoted": f'"{hole}"', "huge": "1" * 4400, "empty-string": '""',
             "arabic-digits": re.sub(r"[0-9]", lambda d: chr(0x660 + int(d[0])), hole)}  # int() reads them
    if edit in holes:
        return line[:start] + holes[edit] + line[end:]
    if edit == "insert":  # a quote, escape, control, DEL, non-ASCII or plain character in or at the hole
        j = start + at % (end - start + 1)
        return line[:j] + _INSERTS[at % len(_INSERTS)] + line[j:]
    if edit == "status":
        other = [s for s in simnet._STATUSES if f'"status":"{s}"' not in line][at % 2]
        return re.sub(r'"status":"\w+"', f'"status":"{other}"', line)
    if edit == "member":  # another member, a stranger, or the name with a space
        name = re.search(r'"member":"([^"]*)"', line)[1]
        other = [members[at % len(members)], "zed", name + " "][at % 3]
        return line.replace(f'"member":"{name}"', f'"member":"{other}"')
    if edit == "escaped-token":  # the first letter of a key, name, reason or status, as \u00XX
        places = [m.start() for m in re.finditer(r'(?<=")[a-z_]', line)]
        j = places[at % len(places)]
        return line[:j] + f"\\u{ord(line[j]):04x}" + line[j + 1 :]
    if edit == "whitespace":
        places = [m.end() for m in re.finditer(r"[{}:,]", line)]
        j = places[at % len(places)]
        return line[:j] + " \t"[at % 2] + line[j:]
    if edit == "extra-field":
        return line[:-1] + ',"extra":0}'
    pairs = re.findall(r'"(?:key|member|reason|status)":(?:"[^"]*"|\d+)', line)
    pair = pairs[at % len(pairs)]
    if edit == "duplicate-key":  # a pair again, first or last
        return "{" + pair + "," + line[1:] if at % 2 else line[:-1] + "," + pair + "}"
    if edit == "delete-key":
        return line.replace(pair + ",", "", 1) if pair + "," in line else line.replace("," + pair, "", 1)
    return line


@given(t=st.sampled_from((2, 3, 13)), scenario=st.integers(0, 8), edit=st.sampled_from(_OUTCOME_EDITS),
       outcome=st.integers(0, 12), at=st.integers(0, 60))
@example(t=3, scenario=2, edit="insert", outcome=0, at=1)  # the suppressed victim's reason, with a tab
@example(t=3, scenario=2, edit="insert", outcome=0, at=2)  # ... with DEL
@example(t=3, scenario=2, edit="insert", outcome=0, at=4)  # ... with an escaped backslash
@example(t=3, scenario=2, edit="insert", outcome=0, at=6)  # ... with a \u escape
@example(t=2, scenario=0, edit="digits", outcome=0, at=4)  # 99999, above the modulus
@example(t=2, scenario=0, edit="huge", outcome=1, at=0)
@example(t=2, scenario=0, edit="arabic-digits", outcome=0, at=0)
@settings(max_examples=400, deadline=None)
def test_framed_outcome_lines_parse_as_json_and_from_record_read_them(t, scenario, edit, outcome, at):
    """from_jsonl accepts a gkdsim-written transcript with one outcome line edited
    exactly when json.loads and outcome_from_record read the line as the roster
    member's outcome and _outcome_line gives the line back, and then reads that
    outcome. Accepted lines hold a key in the hole, and a suppressed victim's a
    reason; a status edit moves a line between them."""
    scenario %= len(list(_grid_scenarios(t)))
    lines = list(_grid_lines(t, scenario))
    outcomes = [n for n, line in enumerate(lines) if '"record":"outcome"' in line]
    n = outcomes[outcome % len(outcomes)]
    members = list(_grid_scenarios(t))[scenario][0]
    lines[n] = _edit_outcome_line(lines[n], edit, at, members)
    _read_as_the_oracle(lines, n)


def test_a_forge_insider_replacing_with_the_honest_copy_is_recorded_replaced(monkeypatch):
    """The verdict is what the interceptor hands back: the honest copy as the
    replacement is recorded replaced, with its own bytes delivered, and verify
    reports the victim that accepted the others' key."""
    monkeypatch.setattr(adversary_module.InsiderInterceptor, "intercept",
                        lambda self, message: ChannelAction(ActionKind.REPLACE, message))
    tr = run(adversary=FORGE)
    ev = tr.events[-1]
    assert (ev.receivers, ev.verdict, ev.delivered_payload) == (("bob",), "replaced", ev.payload)
    assert verify_transcript(tr).mismatches[0].startswith(
        "success condition: victim 'bob': accepted/")


@pytest.mark.parametrize("adversary, cls, kind, verdict, expected", [
    (FORGE, "InsiderInterceptor", ActionKind.DROP, "dropped", "replaced"),
    (SUPPRESS, "BroadcastSuppressor", ActionKind.REPLACE, "replaced", "dropped"),
], ids=["forge", "suppress"])
def test_the_run_records_the_interceptors_verdict(monkeypatch, adversary, cls, kind, verdict, expected):
    """An interceptor that gives the victim's broadcast the other fate gets it
    recorded as that fate, not as the skeleton's verdict, and verify reports the
    event: a dropped broadcast carries no delivered payload, a replacing
    suppressor the honest copy's bytes."""
    monkeypatch.setattr(getattr(adversary_module, cls), "intercept",
                        lambda self, message: ChannelAction(kind, message if kind is ActionKind.REPLACE else None))
    tr = run(adversary=adversary)
    ev = tr.events[-1]
    delivered = ev.payload if kind is ActionKind.REPLACE else None
    assert (ev.receivers, ev.verdict, ev.delivered_payload) == (("bob",), verdict, delivered)
    report = verify_transcript(tr)
    assert report.mismatches == [f"event {len(tr.events) - 1}: broadcast {verdict}, expected {expected}"]


def test_forge_pipeline_challenges_go_to_the_implied_receivers():
    tr = Transcript.from_jsonl(_forge_pipeline_text())
    members = tr.meta.members
    assert [ev.receivers for ev in tr.events if ev.step == simnet.STEP_CHALLENGE] == [
        challenge_receivers(members, i) for i in range(len(members))
    ]


@given(t=st.integers(2, 64), data=st.data())
@settings(max_examples=60, deadline=None)
def test_challenge_receivers_value_is_the_tuple(t, data):
    """Every ChallengeReceivers(members, i) stands for challenge_receivers(members, i):
    == and != in both orders, iteration, len, hash and the join explain prints. It
    differs from every tuple one name or one length off, and from the value of any
    other position; over an equal copy of the roster it compares name by name."""
    members = tuple(f"m{k}" for k in range(t))
    copy = tuple(map(_fresh, members))
    others = [simnet.ChallengeReceivers(members, j) for j in range(t)]
    stranger = data.draw(st.sampled_from(["kgc", "zed", *members]))
    for i in range(t):
        value, oracle = simnet.ChallengeReceivers(members, i), challenge_receivers(members, i)
        assert value == oracle and oracle == value and not value != oracle and not oracle != value
        assert tuple(value) == oracle and list(value) == list(oracle) and len(value) == len(oracle)
        assert hash(value) == hash(oracle)
        assert ",".join(value) == ",".join(oracle)
        assert all(a is b for a, b in zip(value, oracle, strict=True))  # the roster's own str objects
        assert value == simnet.ChallengeReceivers(copy, i) and value != simnet.ChallengeReceivers(copy, (i + 1) % t)
        assert [value == other for other in others] == [j == i for j in range(t)]
        j = data.draw(st.integers(0, t - 1))
        near = [oracle[:j] + (stranger,) + oracle[j + 1 :], oracle[:j] + oracle[j + 1 :],
                oracle + (stranger,), oracle[:j] + (stranger,) + oracle[j:]]
        for wrong in near:
            if wrong != oracle:
                assert value != wrong and wrong != value and not value == wrong and not wrong == value
        assert value != list(oracle) and list(oracle) != value  # a tuple is not equal to a list


def _traced_memory(t):
    """(bytes a parsed transcript holds, bytes event_skeleton holds, verify's traced
    peak above what it starts with) for a t-member field forge over a 64-bit prime.
    A parse and verify of the same text first warm the module's caches and memos."""
    members = ["alice", "bob", "carol", *(f"m{k}" for k in range(t - 3))]
    cfg = scenario_dict(variant="field", modulus={"p": 2**64 - 59}, members=members, adversary=FORGE)
    text = run_scenario(ScenarioConfig.from_dict(cfg)).to_jsonl()
    assert verify_transcript(Transcript.from_jsonl(text)).ok
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tr = Transcript.from_jsonl(text)
        parsed = tracemalloc.get_traced_memory()[0] - start
        start = tracemalloc.get_traced_memory()[0]
        skeleton = simnet.event_skeleton(tr.meta)
        skeleton_bytes = tracemalloc.get_traced_memory()[0] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert verify_transcript(tr).ok
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(skeleton) == len(tr.events)
    return parsed, skeleton_bytes, peak


def test_parse_does_not_hold_the_text_twice():
    """from_jsonl of a t = 200 field forge over a 64-bit safe prime peaks at most a
    quarter of the text's length above what the parsed transcript keeps: it cuts one
    line at a time, where a list of all the lines was a second copy (1.19x)."""
    members = ["alice", "bob", "carol", *(f"m{k}" for k in range(197))]
    cfg = scenario_dict(variant="field", modulus={"p": 14452609745013686879}, members=members, adversary=FORGE)
    text = run_scenario(ScenarioConfig.from_dict(cfg)).to_jsonl()
    Transcript.from_jsonl(text)  # warms the domain memo
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tr = Transcript.from_jsonl(text)
        kept, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(tr.events) == 1 + 2 + 200 + 2  # the request, two announces, the challenges, two broadcasts
    assert peak - kept <= 0.25 * len(text), (peak, kept, len(text))


def test_parse_skeleton_and_verify_memory_grow_as_t():
    """Doubling t from 128 to 256 at most multiplies by 2.5 the memory a parsed
    transcript holds, event_skeleton's and verify's traced peak: each is O(t),
    where t challenges of t receiver names each would read about 4x."""
    small, large = _traced_memory(128), _traced_memory(256)
    for what, a, b in zip(("parsed transcript", "event_skeleton", "verify peak"), small, large, strict=True):
        assert b <= 2.5 * a, (what, a, b)


def _set_at(line, path, value):
    """An edit setting records[line] at path, a sequence of keys, to value."""
    def edit(records):
        parent = records[line]
        for k in path[:-1]:
            parent = parent[k]
        parent[path[-1]] = value
    return edit


def _set_byte(line, key, pos, byte):
    """An edit setting byte pos of records[line]'s hex payload field key."""
    def edit(records):
        raw = bytearray.fromhex(records[line][key])
        raw[pos] = byte
        records[line][key] = raw.hex()
    return edit


def _swap(a, b, key):
    """An edit swapping field key between records[a] and records[b]."""
    def edit(records):
        records[a][key], records[b][key] = records[b][key], records[a][key]
    return edit


def _swap_events(a, b):
    """An edit swapping event records[a] and records[b], each keeping its index."""
    def edit(records):
        records[a], records[b] = records[b], records[a]
        records[a]["index"], records[b]["index"] = records[b]["index"], records[a]["index"]
    return edit


def _add_broadcast(line, verdict):
    """An edit inserting at records[line] one more broadcast of the honest
    payload, to no one; it is event line - 1, the last."""
    def edit(records):
        payload = records[line - 1]["payload"]
        records.insert(line, {"record": "event", "index": line - 1, "step": "broadcast", "sender": "kgc",
                              "receivers": [], "payload": payload, "verdict": verdict})
    return edit


def _split_honest_broadcast(records):
    """Split the honest golden's broadcast, event 4, into one event to ann and one to bob."""
    records.insert(6, {**records[5], "index": 5, "receivers": ["bob"]})
    records[5]["receivers"] = ["ann"]


def _accept_as(line, other):
    """An edit making outcome records[line] accept the key of outcome records[other]."""
    def edit(records):
        del records[line]["reason"]
        records[line].update(status="accepted", key=records[other]["key"])
    return edit


def _source_records(source):
    """The records a rule-table row edits. A "-redacted" source is its base's
    public record alone: the ground_truth line dropped and the meta saying so."""
    base = source.removesuffix("-redacted")
    if base == "same-key":  # the attack golden's config, planting its group key 4
        cfg = {**GOLDEN_CONFIG, "adversary": {"attacker": "bob", "victim": "ann", "target_key": 4}}
        text = run_scenario(ScenarioConfig.from_dict(cfg)).to_jsonl()
    elif base.endswith(".json"):
        text = run_scenario(ScenarioConfig.from_file(CONFIGS / base)).to_jsonl()
    else:
        text = _golden_path(f"{base}-ring35.jsonl").read_text()
    records = [json.loads(line) for line in text.splitlines()]
    if base != source:
        assert records.pop()["record"] == "ground_truth"
        records[0]["redacted"] = True
    return records


def _edited_records(source, edit):
    records = _source_records(source)
    edit(records)
    return records


def _typed(records):
    """The transcript of decoded records, each typed by its oracle: in memory,
    verify judges what from_jsonl refuses, such as events off the skeleton."""
    fields = [{k: v for k, v in rec.items() if k != "record"} for rec in records]
    by_kind = {kind: [f for rec, f in zip(records, fields) if rec["record"] == kind]
               for kind in ("event", "outcome", "ground_truth")}
    meta = simnet.TranscriptMeta.from_record(fields[0])
    skeleton, members, ctx = simnet.event_skeleton(meta), meta.members, meta.params.ctx
    events = tuple(event_from_record(rec, i, skeleton[i] if i < len(skeleton) else None)
                   for i, rec in enumerate(by_kind["event"]))
    outcomes = tuple(outcome_from_record(rec, ctx, members[i] if i < len(members) else None)
                     for i, rec in enumerate(by_kind["outcome"]))
    truth = [simnet.GroundTruth.from_record(rec, ctx) for rec in by_kind["ground_truth"]]
    return Transcript(meta, events, outcomes, *truth)


# Attack golden lines: 0 meta, 1 + i event i, 8-9 outcomes, 10 ground truth.
# Event 6 is the forgery; a broadcast payload is a 32-byte tag, r0, then shares.
# Honest golden: events 0-4 on lines 1-5 (event 4 the broadcast), outcomes on 6-7.
# Runs of configs/attack.json and configs/suppress.json (members alice, bob, carol;
# victim bob): events 0-7 on lines 1-8, the announce to bob on line 3, the
# broadcast to alice and carol on line 7 and to bob on line 8, outcomes on 9-11.
# A row marked "merged into the skeleton" edits a field event_skeleton fixes: its
# rule is now the one comparison of the events with the skeleton.
_RULES = [
    ("attack", _set_at(10, ("adversary", "recovered_key"), 5),
     "attacker's recovered key differs from the KGC's group key"),
    ("attack", _set_byte(7, "delivered_payload", 32, 30), "event 6: forgery altered the KGC nonce"),
    ("attack", _set_byte(7, "delivered_payload", 34, 4),
     "event 6: forgery does not touch exactly the victim share and tag"),
    ("same-key", _set_byte(7, "delivered_payload", 34, 4),
     "event 6: forgery of the group key differs from the honest broadcast"),
    ("attack", _set_at(10, ("adversary", "target_key"), None), "forge scenario lacks a recorded target key"),
    ("attack", _set_at(10, ("r0",), 30), "event 5: broadcast nonce 31 differs from ground-truth r0 30"),
    ("attack", _set_at(4, ("payload",), "ff"), "event 3: challenge value 255 outside [0, m)"),
    ("attack", _set_at(3, ("verdict",), "dropped"),  # merged into the skeleton
     "event 2: announce dropped, expected delivered"),
    ("attack", _set_at(1, ("sender",), "bob"), "event 0: request with the wrong sender"),  # merged into the skeleton
    ("attack", _set_byte(1, "payload", 0, 1), "event 0: requested roster differs from meta members"),
    ("honest", _set_at(2, ("sender",), "ann"), "event 1: announce with the wrong sender"),  # merged into the skeleton
    ("attack", _set_byte(2, "payload", 0, 1), "event 1: announced roster differs from meta members"),
    ("attack", _set_at(3, ("receivers",), ["bob"]),  # merged into the skeleton
     "event 2: announce with the wrong receivers"),
    ("attack", _swap(4, 5, "sender"), "event 3: challenge with the wrong sender"),  # merged into the skeleton
    ("attack", _set_at(4, ("receivers",), ["kgc"]),  # merged into the skeleton
     "event 3: challenge with the wrong receivers"),
    ("attack", _set_at(6, ("sender",), "bob"),  # merged into the skeleton
     "event 5: broadcast with the wrong sender"),
    ("attack", _set_byte(7, "payload", 0, 0), "event 6: broadcast original differs across events"),
    ("suppress.json", _accept_as(10, 9), "outcome for 'bob': accepted after no broadcast"),
    ("honest", _set_at(5, ("verdict",), "dropped"),  # merged into the skeleton
     "event 4: broadcast dropped, expected delivered"),
    ("suppress.json", _set_at(8, ("verdict",), "delivered"),  # merged into the skeleton
     "event 7: broadcast delivered, expected dropped"),
    ("attack", lambda records: records[6].update(verdict="replaced", delivered_payload=records[6]["payload"]),
     "event 5: broadcast replaced, expected delivered"),  # merged into the skeleton
    ("attack", _swap(6, 7, "receivers"), "event 5: broadcast with the wrong receivers"),  # merged into the skeleton
    ("attack", _set_byte(7, "delivered_payload", 33, 26), "event 6: forged share delta 6 != planted key delta 5"),
    ("attack", _set_at(10, ("challenges", "ann"), 3), "event 3: challenge value 2 differs from ground truth 3"),
    ("attack", _set_at(10, ("member_keys", "ann"), 5), "event 5: masked share for 'ann' is 20, recomputed 28"),
    ("honest", _set_byte(5, "payload", 0, 0), "event 4: tag does not match recomputation"),
    ("honest", _set_at(6, ("key",), 5), "outcome for 'ann': recorded accepted/5, recomputed accepted/4"),
    ("attack", _set_at(10, ("adversary",), None), "ground-truth adversary section inconsistent with meta"),
    ("attack", _set_at(10, ("adversary", "victim"), "bob"), "ground-truth adversary identity differs from meta"),
]
_RULE_IDS = [
    "recovered-key", "nonce-altered", "footprint", "same-key-footprint", "no-target-key", "ground-truth-r0",
    "challenge-range", "not-delivered", "request-endpoints", "request-roster", "announce-sender",
    "announce-roster", "announce-cover", "challenge-order", "challenge-receivers", "broadcast-sender",
    "broadcast-original", "outcome-status", "verdicts-without-adversary", "suppress-count", "forge-count",
    "aimed", "algebra", "ground-truth-challenge", "masked-share", "tag", "outcome-replay",
    "ground-truth-adversary", "ground-truth-identity",
]
# Transcripts no run writes, which only the comparison with the skeleton rejects.
_RULES += [
    ("attack.json", _add_broadcast(9, "dropped"), "event count 9, expected 8"),
    ("attack.json", _add_broadcast(9, "delivered"), "event count 9, expected 8"),
    ("honest", _add_broadcast(6, "delivered"), "event count 6, expected 5"),
    ("suppress.json", _set_at(8, ("receivers",), ["bob", "bob"]), "event 7: broadcast with the wrong receivers"),
    ("attack.json", _swap_events(7, 8), "event 6: broadcast replaced, expected delivered; with the wrong receivers"),
    ("attack.json", _swap_events(2, 3), "event 1: announce with the wrong receivers"),
    ("honest", _split_honest_broadcast, "event count 6, expected 5"),
]
_RULE_IDS += [
    "extra-dropped-broadcast", "extra-delivered-broadcast", "extra-honest-broadcast", "doubled-receiver",
    "swapped-broadcasts", "swapped-announces", "split-honest-broadcast",
]
for _rule in ("nonce-altered", "footprint", "same-key-footprint", "algebra", "aimed"):
    # a public forgery rule fires again on the public record alone
    _source, _edit, _message = _RULES[_RULE_IDS.index(_rule)]
    _RULES.append((f"{_source}-redacted", _edit, _message))
    _RULE_IDS.append(f"{_rule}-redacted")


@pytest.mark.parametrize("source, edit, message", _RULES, ids=_RULE_IDS)
def test_each_forgery_rule_trips_on_its_own_edit(source, edit, message, tmp_path, capsys):
    """One edit per verify rule, claim 2's and every other report.fail site in
    verify_transcript: the rule's own message is among the mismatches, and
    gkdsim verify exits 3. An edit of what the event skeleton fixes is refused
    as the file loads, and verify reports it in the transcript built in memory."""
    records = _edited_records(source, edit)
    tr, text = _typed(records), "".join(simnet._dump(rec) + "\n" for rec in records)
    assert message in verify_transcript(tr).mismatches
    path = tmp_path / "t.jsonl"
    path.write_text(text)
    assert cli_main(["verify", str(path)]) == EXIT_VERIFY
    out, err = capsys.readouterr()
    if [(ev.step, ev.sender, ev.receivers, ev.verdict) for ev in tr.events] == simnet.event_skeleton(tr.meta):
        assert Transcript.from_jsonl(text) == tr
        assert f"MISMATCH: {message}\n" in out
    else:
        with pytest.raises(MalformedTranscript):
            Transcript.from_jsonl(text)
        assert (out, err.startswith("error: line ")) == ("", True)


def _report_fail_lines(func):
    """The source line of every report.fail(...) call in func."""
    tree = ast.parse(inspect.getsource(func))
    return {
        func.__code__.co_firstlineno + node.lineno - 1
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "fail"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "report"
    }


def test_every_report_fail_site_in_verify_runs_in_the_rule_table():
    """A line tracer scoped to verify_transcript sees every report.fail call site
    run over the rule table, so deleting or shadowing a rule fails here."""
    code, ran = verify_transcript.__code__, set()
    sites = _report_fail_lines(verify_transcript)
    transcripts = [_typed(_edited_records(source, edit)) for source, edit, _ in _RULES]

    def lines(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: lines if frame.f_code is code else None)
    try:
        for tr in transcripts:
            verify_transcript(tr)
    finally:
        sys.settrace(previous)
    assert len(sites) == 18  # a deleted rule shows here, a shadowed one below
    assert sorted(sites - ran) == []


def _field_paths(obj, prefix=()):
    """Every key/index path into a parsed JSON record."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _field_paths(v, prefix + (k,))


_MUTATION_SITES = [
    (name, i, path)
    for name in GOLDEN_NAMES
    for i, line in enumerate(_golden_path(name).read_text().splitlines())
    for path in _field_paths(json.loads(line))
]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
_FORMAT_WORDS = st.sampled_from([
    "ring", "field", "forge", "suppress", "kgc", "ann", "bob", "event", "outcome", "ground_truth",
    "meta", "replaced", "dropped", "delivered", "broadcast", "challenge", "accepted", "timeout",
    "shake_128", "zero", "00", "0g", 35, 2**70, [[]], ["ann"],
])


@given(
    site=st.sampled_from(_MUTATION_SITES),
    value=st.one_of(st.just(_DELETE), _FORMAT_WORDS, _JSON_VALUES),
)
@settings(max_examples=300, deadline=None)
def test_single_field_mutation_of_a_golden_is_malformed_or_reported(site, value, tmp_path_factory):
    """Hostile input ends in MalformedTranscript or a report, never another exception,
    and the CLI maps both to a documented exit code."""
    name, i, path = site
    lines = _golden_path(name).read_text().splitlines()
    rec = json.loads(lines[i])
    parent = rec
    for k in path[:-1]:
        parent = parent[k]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    text = "\n".join(lines) + "\n"
    try:
        verify_transcript(Transcript.from_jsonl(text))
    except MalformedTranscript:
        pass
    out = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    out.write_text(text)
    assert cli_main(["verify", str(out)]) in (EXIT_OK, EXIT_VERIFY)


def test_golden_attack_values_match_hand_arithmetic():
    """Every intermediate of the m=35 attack run, recomputed by hand.

    With keys ann=2, bob=3 and seed-0 draws (challenges 2 and 31, nonce 31,
    group key 4): shares are <(1,2,4),(31,2,31)> = 159 = 19 and
    <(1,3,9),(31,2,31)> = 316 = 1 mod 35, so the masked shares are 20 and 3;
    the forgery shifts ann's share by (9 - 4) to 25, and ann unmasks
    25 + 19 = 44 = 9 mod 35.
    """
    cfg = dict(GOLDEN_CONFIG)
    cfg["adversary"] = {"attacker": "bob", "victim": "ann", "target_key": 9}
    tr = run_scenario(ScenarioConfig.from_dict(cfg))
    gt = tr.ground_truth
    assert gt.challenges == {"ann": 2, "bob": 31}
    assert gt.r0 == 31 and gt.group_key == 4
    ctx = domain_new(5, 7, variant=Variant.RING)
    honest_ev = next(e for e in tr.events if e.step == "broadcast" and e.verdict == "delivered")
    forged_ev = next(e for e in tr.events if e.verdict == "replaced")
    honest = parse_broadcast_payload(honest_ev.payload, ctx, 32, 2)
    forged = parse_broadcast_payload(forged_ev.delivered_payload, ctx, 32, 2)
    assert honest.masked_shares == (20, 3)
    assert forged.masked_shares == (25, 3)
    by_member = {oc.member: oc for oc in tr.outcomes}
    assert by_member["ann"].key == 9
    assert by_member["bob"].key == 4


# --- wire helpers ----------------------------------------------------------------------

def test_roster_payload_exact_bytes():
    assert encode_identifiers((b"alice", b"bob"), 8) == b"\x00\x00\x00alice" + b"\x00" * 5 + b"bob"


def test_parse_broadcast_payload_length_check(ring35):
    with pytest.raises(MalformedTranscript):
        parse_broadcast_payload(b"\x00" * 10, ring35, 32, 2)


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=15, deadline=None)
def test_replay_soundness_random_configs(seed):
    tr = run(
        seed=seed,
        adversary=(
            None if seed % 2 == 0
            else {"attacker": "alice", "victim": "carol", "target_key": "random"}
        ),
    )
    assert verify_transcript(tr).ok
