"""Both claims over every config the CLI accepts, and a documented exit for every
hostile one.

scenario_configs draws every field of a ScenarioConfig as the JSON a config file
holds: the variant, t in 2..32 (1 draw in 16 up to 256), a modulus from the demo
primes and the committed 64- to 512-bit ones, any fixed-length hashlib hash for the
tag and the element hash (or the zero element hash), the id width, member names
with multi-byte characters, keys, an initiator, an attacker and a victim anywhere
in the roster, and a random, explicit or group-key target. Each valid draw is run,
its claims checked on the unredacted run, and the transcript (redacted too when
drawn) written, parsed back to the same text and verified clean. The same JSON
under one structural edit goes through `gkdsim run`, which must end in one of its
exit codes. Each property has a negative control: a mutant that must make it fail.
"""

import contextlib
import dataclasses
import hashlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from gkdsim import adversary, cli
from gkdsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_SCENARIO, EXIT_VERIFY
from gkdsim.protocol import GroupRoster, OutcomeStatus, PartyIdentity, user_process_broadcast
from gkdsim.simnet import (
    MAX_BITS,
    MAX_ID_WIDTH,
    ScenarioConfig,
    Transcript,
    outcome_failures,
    parse_broadcast_payload,
    run_scenario,
    verify_transcript,
)
from test_protocol import PRIMES_BY_BITS

_DEMO_PRIMES = (167, 179, 227)  # the 8-bit safe primes of the shipped configs and the README
_PRIMES = {8: _DEMO_PRIMES, **{bits: pair for bits, pair in PRIMES_BY_BITS.items() if bits > 8}}
_HASHES = tuple(sorted(name for name in hashlib.algorithms_guaranteed if not name.startswith("shake_")))
_ACCEPTED = OutcomeStatus.ACCEPTED.value


@st.composite
def scenario_configs(draw, max_t=256, drawn_bits=False):
    """A config the CLI accepts, as the dict its JSON file holds. With drawn_bits,
    the modulus may instead be {"bits": b}, b <= 16 (a ring takes neither 4 nor 5
    bits) or above MAX_BITS, which the CLI refuses, so no draw starts a long prime
    search."""
    variant = draw(st.sampled_from(("ring", "field")))
    t = draw(st.integers(2, min(32, max_t)) if draw(st.integers(0, 15)) < 15 else st.integers(2, max_t))
    if drawn_bits and draw(st.booleans()):
        small = st.integers(3, 16).filter(lambda b: variant == "field" or b not in (4, 5))  # one safe prime each
        modulus = {"bits": draw(small | st.integers(MAX_BITS + 1, 2 * MAX_BITS))}
        m = None
    elif variant == "ring":
        p, q = draw(st.permutations(_PRIMES[draw(st.sampled_from(sorted(_PRIMES)))]))[:2]
        modulus, m = {"p": p, "q": q}, p * q
    else:
        p = draw(st.sampled_from(_PRIMES[draw(st.sampled_from(sorted(_PRIMES)))]))
        modulus, m = {"p": p}, p
    prefix = draw(st.text(st.characters(codec="utf-8"), max_size=3))
    members = [f"{prefix}{k}" for k in range(t)]
    longest = max(len(name.encode()) for name in members)
    cfg = {
        "variant": variant,
        "modulus": modulus,
        "members": members,
        "seed": draw(st.integers(0, 2**32)),
        "hash": {"algorithm": draw(st.sampled_from(_HASHES)),
                 "element_hash": draw(st.sampled_from((None, "zero", *_HASHES)))},
        "id_width": draw(st.integers(longest, MAX_ID_WIDTH)),
        "initiator": draw(st.none() | st.sampled_from(members)),
        "keys": draw(st.dictionaries(st.sampled_from(members), st.integers(0, 2**80), max_size=3)),
        "redact": draw(st.booleans()),
    }
    action = draw(st.sampled_from((None, "forge", "suppress")))
    if action is not None:
        attacker = draw(st.integers(0, t - 1))
        victim = draw(st.integers(0, t - 2))
        victim += victim >= attacker
        cfg["adversary"] = {"attacker": members[attacker], "victim": members[victim], "action": action}
    if action == "forge":
        target = draw(st.sampled_from(("random", "explicit", "group key")))
        cfg["adversary"]["target_key"] = "random"
        if target == "explicit":
            cfg["adversary"]["target_key"] = draw(st.integers(0, (m or 2**64) - 1))
        elif target == "group key" and modulus.get("bits", 0) <= MAX_BITS:
            probe = run_scenario(ScenarioConfig.from_dict({**cfg, "redact": False}))
            cfg["adversary"]["target_key"] = probe.ground_truth.group_key
    return cfg


def _check_claims(tr, cfg):
    """Claim 1: every member but an attacked victim accepts the group key, and
    rejects a forged copy. Claim 2: the insider recovers the group key and the
    victim accepts the planted key (forge), or times out (suppress)."""
    meta, gt = tr.meta, tr.ground_truth
    adv = cfg.get("adversary")
    victim = adv and adv["victim"]
    for oc in tr.outcomes:
        if oc.member != victim:
            assert (oc.status, oc.key) == (_ACCEPTED, gt.group_key), f"claim 1: {oc}, group key {gt.group_key}"
    if adv is None:
        return
    victim_oc = tr.outcomes[meta.members.index(victim)]
    if adv["action"] == "suppress":
        assert victim_oc.status == OutcomeStatus.TIMEOUT.value, f"claim 2: suppressed victim {victim_oc}"
        return
    truth, ctx = gt.adversary, meta.params.ctx
    assert truth.recovered_key == gt.group_key, f"claim 2: the insider recovered {truth.recovered_key}"
    assert (victim_oc.status, victim_oc.key) == (_ACCEPTED, truth.target_key), f"claim 2: victim {victim_oc}"
    if adv["target_key"] != "random":
        assert truth.target_key == adv["target_key"] % ctx.modulus, "claim 2: not the configured target"
    if truth.target_key == gt.group_key:  # the forgery is the honest broadcast
        return
    forged = parse_broadcast_payload(tr.events[-1].delivered_payload, ctx, meta.params.hash_cfg.digest_size, meta.t)
    roster = GroupRoster(tuple(name.encode() for name in meta.members))
    challenges = tuple(gt.challenges[name] for name in meta.members)
    for name in meta.members:
        if name != victim:
            identity = PartyIdentity(name.encode(), gt.member_keys[name])
            outcome = user_process_broadcast(identity, roster, challenges, forged, meta.params)
            assert outcome.status is OutcomeStatus.REJECTED, f"claim 1: {name!r} accepted the forged copy"


def _holds_both_claims(cfg):
    """The claims on cfg's unredacted run; then its transcript, and the redacted
    one when cfg redacts, parse back to their own text and verify clean."""
    tr = run_scenario(ScenarioConfig.from_dict({**cfg, "redact": False}))
    _check_claims(tr, cfg)
    runs = [tr, run_scenario(ScenarioConfig.from_dict(cfg))] if cfg["redact"] else [tr]
    for run in runs:
        text = run.to_jsonl()
        parsed = Transcript.from_jsonl(text)
        assert parsed.to_jsonl() == text
        report = verify_transcript(parsed)
        assert report.ok, report.mismatches
        assert outcome_failures(parsed) == []


def _config(t, variant, modulus, algorithm="sha256", element_hash=None, redact=False, **adversary):
    """A config as scenario_configs draws it, over m0..m(t-1), its adversary (if
    any) m(t-1) attacking m1."""
    members = [f"m{k}" for k in range(t)]
    cfg = {"variant": variant, "modulus": modulus, "members": members, "seed": 5,
           "hash": {"algorithm": algorithm, "element_hash": element_hash}, "id_width": 4, "initiator": None,
           "keys": {}, "redact": redact}
    if adversary:
        cfg["adversary"] = {"attacker": members[-1], "victim": "m1", **adversary}
    return cfg


@given(cfg=scenario_configs())
@example(cfg=_config(256, "ring", dict(zip("pq", PRIMES_BY_BITS[64])), "sha3_256", "zero", True,
                     action="forge", target_key="random"))
@example(cfg=_config(40, "field", {"p": PRIMES_BY_BITS[512][1]}, "blake2b", "md5", action="suppress"))
@settings(max_examples=60, deadline=None)
def test_every_valid_config_keeps_both_claims(cfg):
    _holds_both_claims(cfg)


def test_claim_1_fails_on_a_share_index_off_by_one(monkeypatch):
    """With every member unmasking the share one roster position on, no member
    accepts the group key."""
    cfg = _config(4, "field", {"p": 227})
    _holds_both_claims(cfg)
    index_of = GroupRoster.index_of
    monkeypatch.setattr(GroupRoster, "index_of", lambda self, user_id: (index_of(self, user_id) + 1) % self.size)
    with pytest.raises(AssertionError, match="^claim 1: "):
        _holds_both_claims(cfg)


def test_claim_2_fails_on_a_forgery_that_keeps_the_honest_tag(monkeypatch):
    cfg = _config(4, "field", {"p": 227}, action="forge", target_key="random")
    _holds_both_claims(cfg)
    forge = adversary.forge_broadcast

    def keeps_tag(victim_index, target_key, recovered_key, honest, *rest):
        forged = forge(victim_index, target_key, recovered_key, honest, *rest)
        return dataclasses.replace(forged, auth=honest.auth)

    monkeypatch.setattr(adversary, "forge_broadcast", keeps_tag)
    with pytest.raises(AssertionError, match="^claim 2: victim "):
        _holds_both_claims(cfg)


# --- hostile configs ---------------------------------------------------------------

_DELETE = object()
_HOSTILE_VALUES = (_DELETE, None, True, False, -1, 2**1024, 1.5, "", "kgc", [], ["kgc"], {}, {"kgc": 1})


def _config_slots(value):
    """(container, key) of every value inside a decoded config, outer before inner."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield value, key
        yield from _config_slots(inner)


@st.composite
def hostile_configs(draw):
    """A scenario_configs draw at t <= 8, bits <= 16 or above MAX_BITS, with one
    structural edit at any place: the key or list item deleted, or the value
    replaced with null, a bool, a negative or huge int, a float, "", "kgc", a list
    or an object."""
    cfg = draw(scenario_configs(max_t=8, drawn_bits=True))
    slots = list(_config_slots(cfg))
    obj, key = slots[draw(st.integers(0, len(slots) - 1))]
    value = draw(st.sampled_from(_HOSTILE_VALUES))
    if value is _DELETE:
        del obj[key]
    else:
        obj[key] = value
    return cfg


def _run_ends_in_a_documented_exit(path, cfg):
    """`gkdsim run` of cfg returns 0, 2, 3 or 4 and raises nothing, and a non-zero
    exit leaves a message on stderr; verify and explain exit 0 on what a run that
    exits 0 writes."""
    path.write_text(json.dumps(cfg))
    out, err = path.with_suffix(".transcript.jsonl"), io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(path), "--out", str(out)])
        replays = [cli.main([command, str(out)]) for command in ("verify", "explain")] if code == EXIT_OK else []
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VERIFY, EXIT_SCENARIO), code
    assert code == EXIT_OK or err.getvalue().strip(), code
    assert replays in ([], [EXIT_OK, EXIT_OK]), replays


@given(cfg=hostile_configs())
@settings(max_examples=200, deadline=None)
def test_hostile_configs_end_in_a_documented_exit(tmp_path_factory, cfg):
    """`gkdsim run` of a valid config under one structural edit ends in an exit
    code and a message, never a traceback."""
    _run_ends_in_a_documented_exit(tmp_path_factory.getbasetemp() / "hostile.json", cfg)


def test_the_hostile_config_property_sees_an_escaping_exception(tmp_path, monkeypatch):
    """The property holds on a config with its modulus deleted, and fails on it
    once ScenarioConfig.from_dict reads its keys before checking them."""
    cfg = {key: value for key, value in _config(4, "field", {"p": 227}).items() if key != "modulus"}
    _run_ends_in_a_documented_exit(tmp_path / "cfg.json", cfg)
    original = ScenarioConfig.from_dict.__func__

    def unchecked(cls, d):
        [d[key] for key in ("variant", "members", "modulus")]  # a missing key lets a KeyError out
        return original(cls, d)

    monkeypatch.setattr(ScenarioConfig, "from_dict", classmethod(unchecked))
    with pytest.raises(KeyError):
        _run_ends_in_a_documented_exit(tmp_path / "cfg.json", cfg)
