import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gkdsim.algebra import is_prime
from gkdsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_SCENARIO, EXIT_VERIFY, build_parser, main
from gkdsim.errors import MalformedTranscript
from gkdsim.simnet import Transcript, parse_broadcast_payload
from conftest import FORGE, SUPPRESS, scenario_dict


CONFIGS = Path(__file__).parent.parent / "configs"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def write_config(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(scenario_dict(**overrides)))
    return path


# --- gen-params -----------------------------------------------------------------

def test_gen_params_three_bit_ring(tmp_path, capsys):
    out = tmp_path / "params.json"
    code = main(["gen-params", "--bits", "3", "--variant", "ring", "--seed", "4", "--out", str(out)])
    assert code == EXIT_OK
    rec = json.loads(out.read_text())
    assert {rec["p"], rec["q"]} <= {5, 7}
    assert rec["p"] != rec["q"]
    assert rec["modulus"] == 35
    assert "fingerprint" in capsys.readouterr().out


def test_gen_params_five_bit_field(tmp_path):
    out = tmp_path / "params.json"
    assert main(["gen-params", "--bits", "5", "--variant", "field", "--out", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text())
    assert rec["p"] == 23 and rec["q"] is None and rec["modulus"] == 23


def test_gen_params_64_bit_survives_verify(tmp_path, capsys):
    out = tmp_path / "params.json"
    assert main(["gen-params", "--bits", "64", "--variant", "ring", "--seed", "8", "--out", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text())
    assert is_prime(rec["p"]) and is_prime(rec["q"])
    assert main(["verify", str(out)]) == EXIT_OK
    assert "re-checked" in capsys.readouterr().out


def test_gen_params_bits_too_small(tmp_path, capsys):
    out = tmp_path / "params.json"
    assert main(["gen-params", "--bits", "2", "--variant", "ring", "--out", str(out)]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_gen_params_bits_above_bound(tmp_path, capsys):
    out = tmp_path / "params.json"
    assert main(["gen-params", "--bits", "513", "--variant", "field", "--out", str(out)]) == EXIT_CONFIG
    assert "at most 512" in capsys.readouterr().err
    assert not out.exists()


def test_gen_params_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen-params", "--bits", "16", "--variant", "ring", "--seed", "3", "--out", str(a)])
    main(["gen-params", "--bits", "16", "--variant", "ring", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_params_bytes_are_pinned_and_verify(tmp_path, capsys):
    digest = hashlib.sha256()
    for variant in ("ring", "field"):
        for seed in range(8):
            out = tmp_path / f"{variant}-{seed}.json"
            argv = ["--bits", "64", "--variant", variant, "--seed", str(seed), "--out", str(out)]
            assert main(["gen-params", *argv]) == EXIT_OK
            assert main(["verify", str(out)]) == EXIT_OK
            digest.update(out.read_bytes())
    assert digest.hexdigest() == "fd758b89c36de1d50b3e18a13c7e6bb9931aaf50e191299142b4a8f1f437dd0a"


def test_verify_flags_doctored_params(tmp_path, capsys):
    out = tmp_path / "params.json"
    main(["gen-params", "--bits", "5", "--variant", "field", "--out", str(out)])
    rec = json.loads(out.read_text())
    rec["p"] = 21  # composite
    out.write_text(json.dumps(rec))
    assert main(["verify", str(out)]) == EXIT_VERIFY
    assert "re-check failed" in capsys.readouterr().err


# --- run ------------------------------------------------------------------------

def test_run_honest_demo(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "t.jsonl"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.count("accepted key") == 3
    assert "all members accepted the same key" in stdout
    assert out.exists()


def test_run_attack_demo(tmp_path, capsys):
    cfg = write_config(
        tmp_path, adversary={"attacker": "carol", "victim": "bob", "target_key": "random"}
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "t.jsonl")]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "victim accepted forged key; honest key differs" in stdout


def test_run_suppress_demo(tmp_path, capsys):
    cfg = write_config(
        tmp_path, adversary={"attacker": "carol", "victim": "bob", "action": "suppress"}
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "t.jsonl")]) == EXIT_OK
    assert "victim timed out" in capsys.readouterr().out


def test_run_rejects_single_member_roster(tmp_path, capsys):
    cfg = write_config(tmp_path, members=["solo"])
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_run_rejects_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_run_seed_override_changes_transcript(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["run", str(cfg), "--out", str(a)])
    main(["run", str(cfg), "--out", str(b), "--seed", "12345"])
    assert a.read_bytes() != b.read_bytes()


def test_run_default_transcript_path(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg)]) == EXIT_OK
    assert (tmp_path / "cfg.transcript.jsonl").exists()


def test_run_verbose_prints_events(tmp_path, capsys):
    cfg = write_config(tmp_path)
    main(["run", str(cfg), "--out", str(tmp_path / "t.jsonl"), "-v"])
    stdout = capsys.readouterr().out
    assert "request" in stdout and "broadcast" in stdout


def test_run_reports_scenario_failure(tmp_path, capsys, monkeypatch):
    # force an impossible outcome to exercise the exit-4 path
    import gkdsim.cli as cli_mod

    cfg = write_config(tmp_path)
    real = cli_mod.run_scenario

    def sabotage(config):
        tr = real(config)
        doctored = tuple(
            type(oc)(member=oc.member, status="rejected", key=None, reason="tag_mismatch")
            for oc in tr.outcomes
        )
        return type(tr)(
            meta=tr.meta, events=tr.events, outcomes=doctored, ground_truth=tr.ground_truth
        )

    monkeypatch.setattr(cli_mod, "run_scenario", sabotage)
    assert main(["run", str(cfg), "--out", str(tmp_path / "t.jsonl")]) == EXIT_SCENARIO
    assert "did not meet" in capsys.readouterr().err


def _doctor_outcome(monkeypatch, member, mimic=None, **changes):
    """Make `gkdsim run` see member's outcome with changes, or with mimic's key."""
    import dataclasses

    import gkdsim.cli as cli_mod

    real = cli_mod.run_scenario

    def doctored(config):
        tr = real(config)
        keys = {oc.member: oc.key for oc in tr.outcomes}
        if mimic is not None:
            changes.update(status="accepted", key=keys[mimic], reason=None)
        outcomes = tuple(
            dataclasses.replace(oc, **changes) if oc.member == member else oc for oc in tr.outcomes
        )
        return dataclasses.replace(tr, outcomes=outcomes)

    monkeypatch.setattr(cli_mod, "run_scenario", doctored)


@pytest.mark.parametrize("redact", [False, True], ids=["ground-truth", "redacted"])
@pytest.mark.parametrize(
    "adversary, verdict",
    [
        (None, "honest run: all members accepted the same key"),
        (FORGE, "victim accepted forged key; honest key differs"),
        (SUPPRESS, "suppression: victim timed out, everyone else accepted"),
    ],
    ids=["honest", "forge", "suppress"],
)
def test_run_verdicts(tmp_path, capsys, adversary, verdict, redact):
    cfg = write_config(tmp_path, adversary=adversary, redact=redact)
    assert main(["run", str(cfg), "--out", str(tmp_path / "t.jsonl")]) == EXIT_OK
    captured = capsys.readouterr()
    assert verdict in captured.out.splitlines()
    assert "did not meet" not in captured.err


@pytest.mark.parametrize("redact", [False, True], ids=["ground-truth", "redacted"])
@pytest.mark.parametrize(
    "adversary, member, changes, verdict",
    [
        # a member accepts a key of its own
        (None, "carol", {"key": 1}, "honest run FAILED: outcomes disagree"),
        # the victim ends up with the honest key: the forgery missed
        (FORGE, "bob", {"mimic": "alice"},
         "attack FAILED: victim or honest members did not accept as planned"),
        # a bystander never accepts
        (FORGE, "alice", {"status": "timeout", "key": None, "reason": "no broadcast"},
         "attack FAILED: victim or honest members did not accept as planned"),
        # the suppressed victim gets the honest key after all
        (SUPPRESS, "bob", {"mimic": "alice"},
         "suppression FAILED: victim produced an outcome or others rejected"),
    ],
    ids=["honest-key-split", "forge-missed", "forge-bystander-timeout", "suppress-missed"],
)
def test_run_exits_4_on_doctored_outcomes(
    tmp_path, capsys, monkeypatch, adversary, member, changes, verdict, redact
):
    _doctor_outcome(monkeypatch, member, **changes)
    cfg = write_config(tmp_path, adversary=adversary, redact=redact)
    assert main(["run", str(cfg), "--out", str(tmp_path / "t.jsonl")]) == EXIT_SCENARIO
    captured = capsys.readouterr()
    assert verdict in captured.out.splitlines()
    assert "did not meet" in captured.err


def test_run_suppress_requires_bystanders_to_agree(tmp_path, capsys, monkeypatch):
    _doctor_outcome(monkeypatch, "alice", key=1)
    cfg = write_config(tmp_path, adversary=SUPPRESS)
    assert main(["run", str(cfg), "--out", str(tmp_path / "t.jsonl")]) == EXIT_SCENARIO
    assert "suppression FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("adversary", [None, FORGE], ids=["honest", "forge"])
def test_zero_element_hash_runs_and_verifies_without_the_field_offset(tmp_path, capsys, adversary):
    """"element_hash": "zero" is accepted in a config and a transcript: run and
    verify both exit 0, and every field share is the ring formula's, with no
    hash offset on the key."""
    cfg = write_config(tmp_path, variant="field", modulus={"p": 227}, adversary=adversary,
                       hash={"element_hash": "zero"})
    out = tmp_path / "t.jsonl"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
    assert main(["verify", str(out)]) == EXIT_OK
    assert "transcript verified: no mismatches" in capsys.readouterr().out
    tr = Transcript.load(out)
    assert (tr.meta.params.ctx.variant.value, tr.meta.params.hash_cfg.element_hash) == ("field", "zero")
    gt = tr.ground_truth
    honest = next(ev for ev in tr.events if ev.step == "broadcast").payload
    shares = parse_broadcast_payload(honest, tr.meta.params.ctx, 32, tr.meta.t).masked_shares
    nonces = (gt.r0, *(gt.challenges[name] for name in tr.meta.members))
    for name, masked in zip(tr.meta.members, shares):
        x = gt.member_keys[name]
        assert (masked + sum(r * x**j for j, r in enumerate(nonces))) % 227 == gt.group_key, name


# --- verify ----------------------------------------------------------------------

def test_verify_fresh_transcript(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "t.jsonl"
    main(["run", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", str(out)]) == EXIT_OK
    assert "no mismatches" in capsys.readouterr().out


def test_verify_attack_transcript_prints_relation(tmp_path, capsys):
    cfg = write_config(
        tmp_path, adversary={"attacker": "alice", "victim": "carol", "target_key": "random"}
    )
    out = tmp_path / "t.jsonl"
    main(["run", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "share shift equals key shift" in stdout


def test_verify_tampered_transcript(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "t.jsonl"
    main(["run", str(cfg), "--out", str(out)])
    lines = out.read_text().splitlines()
    rec = json.loads(lines[3])  # a challenge event
    raw = bytearray(bytes.fromhex(rec["payload"]))
    raw[-1] ^= 0x10
    rec["payload"] = raw.hex()
    lines[3] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(out)]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.out and "event 2" in captured.out


@pytest.mark.parametrize(
    "edit",
    [
        lambda oc, m: oc.pop("key"),
        lambda oc, m: oc.update(key=-1),
        lambda oc, m: oc.update(key=m),
        lambda oc, m: oc.update(key=True),
        lambda oc, m: oc.update(reason="tag_mismatch"),
        lambda oc, m: oc.update(status="rejected"),
        lambda oc, m: oc.update(status="rejected", reason=None),
        lambda oc, m: (oc.pop("key"), oc.update(status="timeout", reason="no broadcast received")),
        lambda oc, m: oc.update(key=(oc["key"] + 1) % m),
    ],
    ids=["key-deleted", "key-negative", "key-modulus", "key-bool", "reason-added",
         "rejected-with-key", "reason-null", "timeout-after-broadcast", "key-differs"],
)
def test_verify_redacted_transcript_with_doctored_outcome_exits_3(tmp_path, capsys, edit):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**json.loads(CONFIGS.joinpath("honest.json").read_text()), "redact": True}))
    out = tmp_path / "t.jsonl"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    modulus = json.loads(lines[0])["modulus"]
    at = next(i for i, line in enumerate(lines) if '"member":"bob"' in line)
    rec = json.loads(lines[at])
    edit(rec, modulus)
    lines[at] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(out)]) == EXIT_VERIFY


def test_verify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not a transcript\n")
    assert main(["verify", str(bad)]) == EXIT_VERIFY
    assert main(["verify", str(tmp_path / "absent.jsonl")]) == EXIT_VERIFY


def test_verify_reads_the_file_once(tmp_path, capsys, monkeypatch):
    import builtins
    import io

    out = tmp_path / "t.jsonl"
    main(["run", str(write_config(tmp_path)), "--out", str(out)])
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    assert main(["verify", str(out)]) == EXIT_OK
    assert opened == [out]


def test_verify_edge_files(tmp_path, capsys):
    transcript, params = tmp_path / "t.jsonl", tmp_path / "params.json"
    main(["run", str(write_config(tmp_path)), "--out", str(transcript)])
    main(["gen-params", "--bits", "5", "--variant", "field", "--out", str(params)])
    for path in (transcript, params):
        path.write_text("\n  \n" + path.read_text())
        assert main(["verify", str(path)]) == EXIT_OK
    empty, binary = tmp_path / "empty.jsonl", tmp_path / "binary.jsonl"
    empty.write_text("")
    binary.write_bytes(b"\xff\xfe{}\n")
    assert main(["verify", str(empty)]) == EXIT_VERIFY
    assert main(["verify", str(binary)]) == EXIT_VERIFY


def test_verify_type_mangled_inputs(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "record": "parameters", "variant": "ring", "bits": 3,
        "p": "abc", "q": 7, "modulus": 35, "byte_width": 1, "seed": 0,
    }))
    assert main(["verify", str(params)]) == EXIT_VERIFY

    cfg = write_config(tmp_path)
    out = tmp_path / "t.jsonl"
    main(["run", str(cfg), "--out", str(out)])
    lines = out.read_text().splitlines()
    meta = json.loads(lines[0])
    meta["id_width"] = "wide"
    lines[0] = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(out)]) == EXIT_VERIFY


@pytest.mark.parametrize(
    "changes",
    [
        {"variant": "ring", "q": None},
        {"variant": "ring", "p": None},
        {"variant": "field", "p": None, "q": None, "modulus": 23},
        {"variant": "field", "p": 23, "q": 7, "modulus": 23},
        {"variant": "ring", "p": True},
        {"variant": ["ring"]},
    ],
)
def test_verify_rejects_hostile_parameter_files(tmp_path, capsys, changes):
    params = tmp_path / "params.json"
    rec = {"record": "parameters", "bits": 3, "p": 5, "q": 7, "modulus": 35, "byte_width": 1, "seed": 0}
    params.write_text(json.dumps({**rec, **changes}))
    assert main(["verify", str(params)]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert "parameter file invalid" in err or "re-check failed" in err


def test_verify_rejects_twelve_base_pseudoprime_field(tmp_path, capsys):
    # 399165290221 * 798330580441 passes Miller-Rabin to every base 2..37
    n = 318_665_857_834_031_151_167_461
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "record": "parameters", "variant": "field", "bits": n.bit_length(), "p": n, "q": None,
        "modulus": n, "byte_width": (n.bit_length() + 7) // 8, "seed": 0,
    }))
    assert main(["verify", str(params)]) == EXIT_VERIFY
    assert "re-check failed" in capsys.readouterr().err


def test_verify_rejects_parameter_file_with_oversized_prime(tmp_path, capsys):
    p = 2**521 - 1
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "record": "parameters", "variant": "field", "bits": 521, "p": p, "q": None,
        "modulus": p, "byte_width": 66, "seed": 0,
    }))
    assert main(["verify", str(params)]) == EXIT_VERIFY
    assert "at most 512 bits" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes",
    [{"note": "x"}, {"seed": "abc"}, {"seed": -4}, {"seed": True}, {"bits": True},
     {"p": 5, "q": 11, "modulus": 55}],
    ids=["unknown-key", "seed-string", "seed-negative", "seed-true", "bits-true", "q-of-4-bits"],
)
def test_verify_accepts_only_the_parameter_file_gen_params_writes(tmp_path, capsys, changes):
    params = tmp_path / "params.json"
    main(["gen-params", "--bits", "3", "--variant", "ring", "--seed", "4", "--out", str(params)])
    assert main(["verify", str(params)]) == EXIT_OK
    rec = json.loads(params.read_text())
    assert rec["bits"] == 3 and rec["seed"] == 4
    params.write_text(json.dumps({**rec, **changes}))
    assert main(["verify", str(params)]) == EXIT_VERIFY
    assert "parameter file invalid" in capsys.readouterr().err


def test_verify_rejects_a_parameter_file_with_more_after_the_record(tmp_path, capsys):
    params = tmp_path / "params.json"
    main(["gen-params", "--bits", "5", "--variant", "field", "--out", str(params)])
    params.write_text(params.read_text() + "garbage\n")
    assert main(["verify", str(params)]) == EXIT_VERIFY
    assert "parameter file invalid" in capsys.readouterr().err


@pytest.mark.parametrize("golden", ["honest-ring35", "attack-ring35"])
def test_verify_rejects_a_meta_whose_modulus_is_not_prime(tmp_path, capsys, golden):
    lines = (GOLDEN / f"{golden}.jsonl").read_text().splitlines()
    meta = json.loads(lines[0])
    meta.update(variant="field", p=35, q=None, element_hash="zero")
    text = "\n".join([json.dumps(meta, sort_keys=True, separators=(",", ":")), *lines[1:]]) + "\n"
    with pytest.raises(MalformedTranscript, match="meta: .*35 is not prime"):
        Transcript.from_jsonl(text)
    path = tmp_path / "t.jsonl"
    path.write_text(text)
    assert main(["verify", str(path)]) == EXIT_VERIFY
    assert "35 is not prime" in capsys.readouterr().err


def _attack_golden_records():
    path = Path(__file__).parent / "golden" / "attack-ring35.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


def _set_field(kind, key, value):
    def edit(records):
        rec = next(r for r in records if r["record"] == kind)
        rec[key] = value
    return edit


def _set_challenge_to_list(records):
    records[-1]["challenges"]["ann"] = [2]


def _duplicate_ground_truth(records):
    records.append(records[-1])


def _outcome_before_event(records):
    first_outcome = next(i for i, r in enumerate(records) if r["record"] == "outcome")
    records.insert(1, records.pop(first_outcome))


@pytest.mark.parametrize(
    "edit",
    [
        _set_field("meta", "adversary", "bob"),
        _set_field("meta", "id_width", 2**70),
        _set_field("event", "receivers", [[]]),
        _set_challenge_to_list,
        _duplicate_ground_truth,
        _outcome_before_event,
    ],
    ids=["adversary-string", "id-width-huge", "receivers-nested", "challenge-list",
         "duplicate-ground-truth", "outcome-before-event"],
)
@pytest.mark.parametrize("command", ["verify", "explain"])
def test_hostile_transcripts_exit_3(tmp_path, capsys, command, edit):
    records = _attack_golden_records()
    edit(records)
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records))
    assert main([command, str(path)]) == EXIT_VERIFY
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [{"members": ["a", []]}, {"seed": True}, {"redact": "no"}, {"modulus": {"bits": 513}},
     {"variant": "field", "modulus": {"p": 2**521 - 1}}],
)
def test_run_rejects_hostile_configs(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


# --- explain ---------------------------------------------------------------------

def test_explain_attack_transcript(tmp_path, capsys):
    cfg = write_config(
        tmp_path, adversary={"attacker": "carol", "victim": "bob", "target_key": "random"}
    )
    out = tmp_path / "t.jsonl"
    main(["run", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert main(["explain", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "REPLACED in transit" in stdout
    assert "controls the kgc->bob link" in stdout
    assert "planted" in stdout


def test_explain_redacted_transcript(tmp_path, capsys):
    cfg = write_config(tmp_path, redact=True)
    out = tmp_path / "t.jsonl"
    main(["run", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert main(["explain", str(out)]) == EXIT_OK
    assert "ground truth: redacted" in capsys.readouterr().out


# --- one parser per process -------------------------------------------------------

EVENT_LINE = re.compile(r"^ +\d+\. (request|announce|challenge|broadcast) ", re.M)


def gkdsim_process(*args, cwd):
    """`python -m gkdsim args` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "gkdsim", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_main_builds_one_parser_tree(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    for _ in range(2):
        assert main(["verify", str(GOLDEN / "honest-ring35.jsonl")]) == EXIT_OK
    assert built == ["gkdsim", "gkdsim gen-params", "gkdsim run", "gkdsim verify", "gkdsim explain"]


def test_options_do_not_carry_over_between_calls(tmp_path, capsys):
    cfg = tmp_path / "honest.json"
    cfg.write_text(CONFIGS.joinpath("honest.json").read_text())
    fresh = gkdsim_process("run", str(cfg), "--out", str(tmp_path / "fresh.jsonl"), cwd=tmp_path)
    assert fresh.returncode == EXIT_OK, fresh.stderr
    capsys.readouterr()
    assert main(["run", str(cfg), "--seed", "5", "-v", "--out", str(tmp_path / "seed5.jsonl")]) == EXIT_OK
    assert EVENT_LINE.search(capsys.readouterr().out)
    assert main(["run", str(cfg), "--out", str(tmp_path / "plain.jsonl")]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert not EVENT_LINE.search(stdout) and "seed 11" in stdout
    plain = (tmp_path / "plain.jsonl").read_bytes()
    assert plain == (tmp_path / "fresh.jsonl").read_bytes()
    assert plain != (tmp_path / "seed5.jsonl").read_bytes()


def test_a_usage_error_leaves_the_parser_usable(capsys):
    for bad in (["run"], ["gen-params", "--bits", "x", "--variant", "ring"], ["mystery"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert main(["verify", str(GOLDEN / "attack-ring35.jsonl")]) == EXIT_OK


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["gen-params", "--help"]])
def test_help_text_matches_a_fresh_parser(capsys, argv):
    with pytest.raises(SystemExit):
        build_parser.__wrapped__().parse_args(argv)
    expected = capsys.readouterr().out
    assert "usage: gkdsim" in expected
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == expected


def test_python_dash_m_gkdsim_exit_codes(tmp_path):
    ok = gkdsim_process("verify", str(GOLDEN / "honest-ring35.jsonl"), cwd=tmp_path)
    assert ok.returncode == EXIT_OK and "transcript verified: no mismatches" in ok.stdout
    bad_config = write_config(tmp_path, members=["solo"])
    assert gkdsim_process("run", str(bad_config), cwd=tmp_path).returncode == EXIT_CONFIG
    records = [json.loads(line) for line in GOLDEN.joinpath("honest-ring35.jsonl").read_text().splitlines()]
    challenge = next(r for r in records if r.get("step") == "challenge")
    challenge["payload"] = f"{int(challenge['payload'], 16) ^ 1:0{len(challenge['payload'])}x}"
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records))
    failed = gkdsim_process("verify", str(tampered), cwd=tmp_path)
    assert failed.returncode == EXIT_VERIFY and "MISMATCH" in failed.stdout


# --- file writes and single parse ----------------------------------------------------

def test_gen_params_over_a_longer_file_leaves_exactly_the_new_record(tmp_path, capsys):
    params, fresh = tmp_path / "params.json", tmp_path / "fresh.json"
    params.write_bytes(b"x" * 4096)
    for out in (params, fresh):
        assert main(["gen-params", "--bits", "5", "--variant", "field", "--out", str(out)]) == EXIT_OK
    assert params.read_bytes() == fresh.read_bytes()
    assert main(["verify", str(params)]) == EXIT_OK


def test_run_and_gen_params_write_to_stdout(tmp_path):
    cfg = tmp_path / "honest.json"
    cfg.write_text(CONFIGS.joinpath("honest.json").read_text())
    assert main(["run", str(cfg), "--out", str(tmp_path / "t.jsonl")]) == EXIT_OK
    piped = gkdsim_process("run", str(cfg), "--out", "/dev/stdout", cwd=tmp_path)
    assert piped.returncode == EXIT_OK, piped.stderr
    assert piped.stdout.startswith((tmp_path / "t.jsonl").read_text())
    piped = gkdsim_process("gen-params", "--bits", "5", "--variant", "field", "--out", "/dev/stdout", cwd=tmp_path)
    assert piped.returncode == EXIT_OK, piped.stderr
    assert piped.stdout.startswith('{"bits":5,')


def test_verify_parses_each_transcript_line_once(tmp_path, capsys, monkeypatch):
    out = tmp_path / "t.jsonl"
    main(["run", str(write_config(tmp_path)), "--out", str(out)])
    parsed = []
    loads = json.loads

    def counting_loads(s, *args, **kwargs):
        parsed.append(s)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    assert main(["verify", str(out)]) == EXIT_OK
    assert parsed == out.read_text().splitlines()
