import dataclasses
import errno
import json
import os
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gkdsim import codec, protocol, simnet
from gkdsim.adversary import ChannelAction, Interceptor
from gkdsim.algebra import SeededRng, Variant, domain_new
from gkdsim.cli import EXIT_OK, EXIT_VERIFY, main as cli_main
from gkdsim.errors import ConfigError, GkdError, MalformedTranscript
from gkdsim.protocol import ChallengeMessage
from gkdsim.simnet import (
    MAX_BITS,
    ScenarioConfig,
    Transcript,
    parse_broadcast_payload,
    roster_payload,
    build_domain,
    outcome_failures,
    run_scenario,
    verify_transcript,
)
from conftest import FORGE, SUPPRESS, scenario_dict


CONFIGS = Path(__file__).parent.parent / "configs"


def run(**overrides):
    return run_scenario(ScenarioConfig.from_dict(scenario_dict(**overrides)))


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
def test_pipeline_builds_the_tag_body_once(adversary, bodies):
    """The same t = 40 pipeline tags an honest body throughout, so the ids |
    nonces | shares block is encoded once. A forge run (victim bob, second in
    the roster) has two bodies, honest H and forged F, and each switch between
    them in the order the tags are taken rebuilds the last one:
    run: KGC H (1), insider F (2), alice H (3), bob F (4), carol H (5), then H;
    verify: recomputed tag H, alice H, bob F (6), carol H (7), then H. So 7."""
    members = ["alice", "bob", "carol", *(f"m{k}" for k in range(37))]
    cfg = scenario_dict(variant="field", modulus={"p": 2**64 - 59}, members=members)
    if adversary:
        cfg["adversary"] = adversary
    codec._auth_body.cache_clear()
    tr = run_scenario(ScenarioConfig.from_dict(cfg))
    assert verify_transcript(Transcript.from_jsonl(tr.to_jsonl())).ok
    assert codec._auth_body.cache_info().misses == bodies


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
    no_victim = dataclasses.replace(forge, outcomes=forge.outcomes[:1])
    assert outcome_failures(no_victim) == [
        "victim 'bob': missing/None, expected to accept the planted key " + str(planted)
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
    to the KGC and every other member, in roster order."""
    tr = run_scenario(ScenarioConfig.from_file(CONFIGS / "honest.json"))
    lines = tr.to_jsonl().splitlines()
    rec = json.loads(lines[1 + index])  # meta is line 0
    assert rec["record"] == "event" and rec["index"] == index and rec[key] != value
    rec[key] = value
    lines[1 + index] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    report = verify_transcript(Transcript.from_jsonl("\n".join(lines) + "\n"))
    assert any(m.startswith(f"event {index}: ") for m in report.mismatches), report.mismatches


def test_verify_judges_the_receivers_of_a_reordered_challenge_by_its_sender():
    tr = run_scenario(ScenarioConfig.from_file(CONFIGS / "honest.json"))
    lines = tr.to_jsonl().splitlines()
    alice, bob = json.loads(lines[3]), json.loads(lines[4])  # events 2 and 3
    alice["index"], bob["index"] = 3, 2
    lines[3], lines[4] = (json.dumps(r, sort_keys=True, separators=(",", ":")) for r in (bob, alice))
    report = verify_transcript(Transcript.from_jsonl("\n".join(lines) + "\n"))
    assert report.mismatches == [
        "event 2: challenge sender 'bob' out of roster order",
        "event 3: challenge sender 'alice' out of roster order",
    ]


def test_malformed_transcripts_raise():
    tr = run()
    text = tr.to_jsonl()
    with pytest.raises(MalformedTranscript):
        Transcript.from_jsonl("not json\n")
    with pytest.raises(MalformedTranscript):
        Transcript.from_jsonl(text.replace('"record":"meta"', '"record":"mystery"'))
    with pytest.raises(MalformedTranscript):
        # drop the meta line entirely
        Transcript.from_jsonl("\n".join(text.splitlines()[1:]) + "\n")
    # structurally parseable but missing a challenge event
    lines = [l for l in text.splitlines() if '"step":"challenge"' not in l or '"sender":"bob"' not in l]
    with pytest.raises(MalformedTranscript):
        verify_transcript(Transcript.from_jsonl("\n".join(lines) + "\n"))


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


_AWKWARD_CHARS = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\u2028", "\ufeff", "\U0001f600"])
_AWKWARD_NAMES = st.text(st.one_of(_AWKWARD_CHARS, st.characters()), min_size=1, max_size=8)


@given(
    events=st.lists(
        st.tuples(
            st.sampled_from(simnet._STEPS), _AWKWARD_NAMES, st.lists(_AWKWARD_NAMES, max_size=5),
            st.binary(max_size=12), st.sampled_from(simnet._VERDICTS), st.binary(max_size=12),
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
    for ev, line in zip(evs, simnet._event_lines(evs), strict=True):
        rec = {"record": "event", "index": ev.index, "step": ev.step, "sender": ev.sender,
               "receivers": list(ev.receivers), "payload": ev.payload.hex(), "verdict": ev.verdict}
        if ev.delivered_payload is not None:
            rec["delivered_payload"] = ev.delivered_payload.hex()
        assert line == simnet._dump(rec)
        assert line.isascii()


def test_transcript_with_a_receiver_outside_the_roster_round_trips():
    """from_jsonl accepts a receiver name that meta.members lacks (verify reports
    it), so the writer keeps no closed table of names."""
    lines = run(adversary=FORGE).to_jsonl().splitlines()
    at = next(i for i, line in enumerate(lines) if '"step":"challenge"' in line)
    rec = json.loads(lines[at])
    rec["receivers"].append("zoë \"\\ \U0001f600")
    lines[at] = simnet._dump(rec)
    text = "\n".join(lines) + "\n"
    tr = Transcript.from_jsonl(text)
    assert tr.to_jsonl() == text
    assert not verify_transcript(tr).ok


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
    assert roster_payload((b"alice", b"bob"), 8) == b"\x00\x00\x00alice" + b"\x00" * 5 + b"bob"


def test_parse_broadcast_payload_length_check(ring35):
    with pytest.raises(MalformedTranscript):
        parse_broadcast_payload(b"\x00" * 10, ring35, 32, 2)


# --- interceptor contract at the network layer ------------------------------------------

def test_replacement_must_be_same_message_kind():
    from gkdsim.protocol import KgcBroadcast
    from gkdsim.simnet import _Network

    class KindBreaker(Interceptor):
        def intercept(self, sender, receiver, message):
            return ChannelAction.replace(ChallengeMessage(b"bob", 1))

    net = _Network(domain_new(5, 7, variant=Variant.RING), 16)
    net.control_link("kgc", "bob", KindBreaker())
    with pytest.raises(GkdError):
        net.send(
            "broadcast", "kgc", ("bob",),
            KgcBroadcast(b"\x00" * 32, 1, (2, 3)), lambda r, m: None,
        )


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
