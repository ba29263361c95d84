import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gkdsim import cli, simnet
from gkdsim.algebra import is_prime
from gkdsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_SCENARIO, EXIT_VERIFY, build_parser, main
from gkdsim.errors import MalformedTranscript
from gkdsim.simnet import ScenarioConfig, Transcript, parse_broadcast_payload, run_scenario
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


def test_run_variant_override_writes_a_field_meta(tmp_path, capsys):
    cfg = write_config(tmp_path, modulus={"bits": 8})
    out = tmp_path / "t.jsonl"
    assert main(["run", str(cfg), "--variant", "field", "--out", str(out)]) == EXIT_OK
    meta = Transcript.load(out).meta
    assert meta.params.ctx.variant.value == "field" and meta.q is None
    assert meta.params.ctx.modulus == meta.p and meta.p.bit_length() == 8
    assert main(["verify", str(out)]) == EXIT_OK


def test_run_variant_override_refuses_a_ring_pair(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert main(["run", str(CONFIGS / "honest.json"), "--variant", "field", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == "error: field variant takes a single prime p"
    assert not out.exists()


def test_run_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert main(["run", str(CONFIGS / "honest.json"), "--seed", "-3", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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


def _redumped(n, dump):
    """A rewrite of a text's line n as dump of its record."""
    def rewrite(text):
        lines = text.split("\n")
        lines[n] = dump(json.loads(lines[n]))
        return "\n".join(lines)
    return rewrite


_REWRITES = {  # name -> (the golden text written otherwise with the same records, the line it fails at)
    "default-separators": (lambda text: "".join(json.dumps(json.loads(line)) + "\n" for line in text.splitlines()), 1),
    "crlf": (lambda text: text.replace("\n", "\r\n"), 1),
    "cr": (lambda text: text.replace("\n", "\r"), 1),
    "spaced-meta": (_redumped(0, lambda rec: json.dumps(rec, sort_keys=True, separators=(", ", ":"))), 1),
    "reversed-event-keys": (_redumped(1, lambda rec: json.dumps(dict(reversed(rec.items())), separators=(",", ":"))), 2),
}


@pytest.mark.parametrize("rewrite", _REWRITES)
@pytest.mark.parametrize("golden", ["honest-ring35", "attack-ring35"])
def test_verify_and_explain_refuse_the_records_written_otherwise(tmp_path, capsys, golden, rewrite):
    """The golden's own records with other separators, line ends or key order are
    not the file gkdsim writes: verify and explain exit 3 naming the first line
    that differs, and print nothing."""
    text = (GOLDEN / f"{golden}.jsonl").read_text()
    edit, lineno = _REWRITES[rewrite]
    edited = edit(text)
    assert [json.loads(line) for line in re.split("\r?\n|\r", edited.strip())] == [
        json.loads(line) for line in text.splitlines()]
    path = tmp_path / "t.jsonl"
    path.write_bytes(edited.encode())
    for command in ("verify", "explain"):
        assert main([command, str(path)]) == EXIT_VERIFY
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: line {lineno}: expected "), err


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_verify_refuses_a_parameter_file_with_other_line_ends(tmp_path, capsys, newline):
    params = tmp_path / "params.json"
    main(["gen-params", "--bits", "16", "--variant", "ring", "--seed", "1", "--out", str(params)])
    assert main(["verify", str(params)]) == EXIT_OK
    params.write_bytes(params.read_bytes().replace(b"\n", newline))
    capsys.readouterr()
    assert main(["verify", str(params)]) == EXIT_VERIFY
    assert "parameter file invalid" in capsys.readouterr().err


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


def _changed(**changes):
    return lambda text: json.dumps({**json.loads(text), **changes})


@pytest.mark.parametrize(
    "edit",
    [_changed(note="x"), _changed(seed="abc"), _changed(seed=-4), _changed(seed=True), _changed(bits=True),
     _changed(p=5, q=11, modulus=55),
     lambda text: text.replace("{", '{"seed":9,', 1),  # json.loads keeps the last "seed"
     lambda text: json.dumps(json.loads(text), sort_keys=True) + "\n",
     lambda text: " " + text,
     lambda text: text.replace('"seed":4', '"seed":0')],  # seed 0 draws q = 5 first
    ids=["unknown-key", "seed-string", "seed-negative", "seed-true", "bits-true", "q-of-4-bits",
         "duplicate-key", "default-separators", "leading-space", "seed-of-other-primes"],
)
def test_verify_accepts_only_the_parameter_file_gen_params_writes(tmp_path, capsys, edit):
    params = tmp_path / "params.json"
    main(["gen-params", "--bits", "3", "--variant", "ring", "--seed", "4", "--out", str(params)])
    assert main(["verify", str(params)]) == EXIT_OK
    text = params.read_text()
    rec = json.loads(text)
    assert rec["bits"] == 3 and rec["seed"] == 4
    params.write_text(edit(text))
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


@pytest.mark.parametrize(("field", "value"), [
    pytest.param(field, value, id=f"{field}-{kind}")
    for field in ("algorithm", "element_hash")
    for kind, value in (("list", ["x"]), ("dict", {"a": 1}), ("int", 5), ("bool", True), ("null", None))
    if (field, kind) != ("element_hash", "null")  # a null element_hash is the tag hash
])
def test_a_hash_name_that_is_not_a_string_fails_naming_its_field(tmp_path, capsys, field, value):
    """In a config, run exits 2; in the golden's meta, verify exits 3 with the same
    message behind "line 1: meta: ". Either way it names the field, before the
    digest-size cache sees an unhashable name."""
    path = write_config(tmp_path, hash={field: value})
    assert main(["run", str(path), "--out", str(tmp_path / "t.jsonl")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: bad hash config: {field} must be a string\n"
    lines = (GOLDEN / "honest-ring35.jsonl").read_text().splitlines(keepends=True)
    meta = json.loads(lines[0])
    meta["hash_algorithm" if field == "algorithm" else field] = value
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n" + "".join(lines[1:]))
    assert main(["verify", str(path)]) == EXIT_VERIFY
    assert capsys.readouterr().err == f"error: line 1: meta: bad hash config: {field} must be a string\n"


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


_DEEP = "\x00deep"  # a list nested 5000 deep, spliced in as text: json.dumps would recurse
_HOSTILE_VALUES = ("", "zz", "0g", [], {}, None, True, False, 1.5, -1, 0, 2**64, 10**400, [[]], [None],
                   {"a": 1}, _DEEP)
_SPLICES = (b"\xff", b"\x00", b"\n", b"\r", b"{", b"}", b'"', b"\\", b",", b" ", b"\xc3", "\u00e9\u2028".encode())
_HOSTILE_EDITS = ("swap", "delete-key", "duplicate", "drop", "reorder", "splice", "cut")


def _json_slots(value):
    """(container, key) of every value inside a decoded record, outer before inner."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield value, key
        yield from _json_slots(inner)


def _hostile_edit(lines, edit):
    """lines, a transcript's byte lines, with one structural edit: kind, then a, b
    and c, which pick the line or byte, the place or length, and the value."""
    kind, a, b, c = edit
    if kind in ("splice", "cut"):
        data = b"\n".join(lines)
        at = a % (len(data) + 1)
        end = at + (b % 40 + 1 if kind == "cut" else 0)
        return (data[:at] + (_SPLICES[c % len(_SPLICES)] if kind == "splice" else b"") + data[end:]).split(b"\n")
    if not lines:
        return lines
    n = a % len(lines)
    if kind == "duplicate":
        return [*lines[: n + 1], *lines[n:]]
    if kind == "drop":
        return [*lines[:n], *lines[n + 1 :]]
    if kind == "reorder":
        rest = [*lines[:n], *lines[n + 1 :]]
        return [*rest[: b % (len(rest) + 1)], lines[n], *rest[b % (len(rest) + 1) :]]
    try:
        rec = json.loads(lines[n])
    except (ValueError, RecursionError):
        return lines
    slots = [(obj, key) for obj, key in _json_slots(rec) if kind == "swap" or isinstance(obj, dict)]
    if not slots:
        return lines
    obj, key = slots[b % len(slots)]
    if kind == "swap":
        obj[key] = _HOSTILE_VALUES[c % len(_HOSTILE_VALUES)]
    else:
        del obj[key]
    text = json.dumps(rec, sort_keys=True, separators=(",", ":")).replace('"\\u0000deep"', "[" * 5000 + "]" * 5000)
    return [*lines[:n], text.encode(), *lines[n + 1 :]]


@functools.lru_cache(maxsize=None)
def _hostile_bases():
    """The byte lines of both goldens and of small honest, forge and suppress runs,
    each redacted and not."""
    texts = [(GOLDEN / f"{name}.jsonl").read_text() for name in ("honest-ring35", "attack-ring35")]
    for adversary in (None, FORGE, SUPPRESS):
        for redact in (False, True):
            cfg = ScenarioConfig.from_dict(scenario_dict(adversary=adversary, redact=redact))
            texts.append(run_scenario(cfg).to_jsonl())
    return tuple(text.encode().split(b"\n") for text in texts)


def _ends_in_a_documented_exit(path, base, edits):
    """verify and explain of base with edits made each return 0, 2, 3 or 4 and raise
    nothing, and a non-zero exit leaves a message on stderr."""
    lines = list(_hostile_bases()[base])
    for edit in edits:
        lines = _hostile_edit(lines, edit)
    path.write_bytes(b"\n".join(lines))
    for command in ("verify", "explain"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VERIFY, EXIT_SCENARIO), (command, code)
        assert code == EXIT_OK or err.getvalue().strip(), (command, code)


_HOSTILE_EDIT = st.tuples(st.sampled_from(_HOSTILE_EDITS), st.integers(0, 2**16), st.integers(0, 2**16),
                          st.integers(0, 63))


@given(base=st.integers(0, 7), edits=st.lists(_HOSTILE_EDIT, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_hostile_transcripts_end_in_a_documented_exit(tmp_path_factory, base, edits):
    """A value swapped for a hostile one at any JSON path, a key deleted, a record
    duplicated, dropped or moved, or bytes spliced in or cut out: verify and explain
    end in an exit code and a message, never a traceback."""
    _ends_in_a_documented_exit(tmp_path_factory.getbasetemp() / "hostile.jsonl", base, edits)


_FIXED_HOSTILE = [(1, [("swap", 1, 3, 2)]), (0, [("drop", 3, 0, 0)]), (5, [("splice", 40, 0, 1)]),
                  (0, [("delete-key", -2, 0, 0)])]  # the last deletes the ground truth's first key


def test_the_hostile_transcript_property_sees_an_escaping_exception(tmp_path, monkeypatch):
    """The property holds on a fixed list of edits, and fails on it once
    GroundTruth.from_record reads its fields before checking them."""
    for base, edits in _FIXED_HOSTILE:
        _ends_in_a_documented_exit(tmp_path / "t.jsonl", base, edits)
    original = simnet.GroundTruth.from_record.__func__

    def unchecked(cls, rec, ctx):
        [rec[key] for key in ("group_key", "r0", "member_keys", "challenges", "adversary")]  # a missing field lets a KeyError out
        return original(cls, rec, ctx)

    monkeypatch.setattr(simnet.GroundTruth, "from_record", classmethod(unchecked))
    with pytest.raises(KeyError):
        for base, edits in _FIXED_HOSTILE:
            _ends_in_a_documented_exit(tmp_path / "t.jsonl", base, edits)


_PARAMETER_EDITS = ("swap", "delete-key", "duplicate-key", "splice", "cut")


@functools.lru_cache(maxsize=None)
def _parameter_bases(tmp):
    """The bytes of gen-params files, field and ring, 3 to 16 bits."""
    bases = []
    for variant, bits, seed in (("field", 5, 0), ("field", 16, 3), ("ring", 3, 4), ("ring", 16, 1)):
        path = tmp / f"{variant}-{bits}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen-params", "--bits", str(bits), "--variant", variant, "--seed", str(seed),
                         "--out", str(path)]) == EXIT_OK
        bases.append(path.read_bytes())
    return tuple(bases)


def _parameter_edit(data, edit):
    """data, a parameter file, with one structural edit: kind, then a and b,
    which pick the key or byte and the value or length."""
    kind, a, b = edit
    if kind in ("splice", "cut"):
        at = a % (len(data) + 1)
        end = at + (b % 40 + 1 if kind == "cut" else 0)
        return data[:at] + (_SPLICES[b % len(_SPLICES)] if kind == "splice" else b"") + data[end:]
    try:
        rec = json.loads(data)
    except (ValueError, RecursionError):
        return data
    if not isinstance(rec, dict) or not rec:
        return data
    key = sorted(rec)[a % len(rec)]
    value = _HOSTILE_VALUES[b % len(_HOSTILE_VALUES)]
    if kind == "duplicate-key":  # a first copy, with a hostile value or its own, which json.loads overrides
        first = json.dumps({key: rec[key] if b % 2 else value}, separators=(",", ":"))[1:-1]
        text = "{" + first + "," + json.dumps(rec, sort_keys=True, separators=(",", ":"))[1:] + "\n"
    else:
        if kind == "swap":
            rec[key] = value
        else:
            del rec[key]
        text = json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
    return text.replace('"\\u0000deep"', "[" * 5000 + "]" * 5000).encode()


def _written_by_gen_params(path, text):
    """Whether text is the file gen-params writes for the variant, bits and seed in it."""
    rec = json.loads(text)
    argv = ["gen-params", "--bits", str(rec["bits"]), "--variant", rec["variant"], "--seed", str(rec["seed"])]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(path)]) == EXIT_OK
    return path.read_bytes() == text


def _as_verify_reads(data):
    """data as verify compares it: decoded as strict UTF-8 with no newline
    translated, so CR and CRLF stay, and past any leading blank lines
    (transcripts may have them too)."""
    try:
        text = data.decode()
    except UnicodeDecodeError:
        return None
    blank = len(text) - len(text.lstrip())
    return text[text.rfind("\n", 0, blank) + 1 :].encode()


def _parameter_file_ends_in_a_documented_exit(path, base, edits):
    """verify of a parameter file with edits made returns 0, 2, 3 or 4 and raises
    nothing, and leaves a message on stderr on a non-zero exit. It returns 0 when
    the file reads as the unedited one, and otherwise only on a file gen-params
    writes: some edits give one, such as a new seed for a 5-bit prime, since
    every seed draws 23."""
    original = _parameter_bases(path.parent)[base]
    data = original
    for edit in edits:
        data = _parameter_edit(data, edit)
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VERIFY, EXIT_SCENARIO), code
    assert code == EXIT_OK or err.getvalue().strip(), code
    text = _as_verify_reads(data)
    if text == original:
        assert code == EXIT_OK
    elif code == EXIT_OK:
        assert _written_by_gen_params(path.with_name("regenerated.json"), text), data


_PARAMETER_EDIT = st.tuples(st.sampled_from(_PARAMETER_EDITS), st.integers(0, 2**16), st.integers(0, 63))


@given(base=st.integers(0, 3), edits=st.lists(_PARAMETER_EDIT, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_hostile_parameter_files_end_in_a_documented_exit(tmp_path_factory, base, edits):
    """A value swapped for a hostile one, a key deleted or duplicated, or bytes
    spliced in or cut out: verify exits 0 only on the file gen-params wrote, and
    otherwise with a code and a message, never a traceback."""
    _parameter_file_ends_in_a_documented_exit(tmp_path_factory.getbasetemp() / "params.json", base, edits)


# a duplicate "seed" key with a hostile first value, then a space spliced after "{"
_FIXED_PARAMETER_EDITS = [(2, [("duplicate-key", 6, 0)]), (1, [("splice", 1, 9)])]


def test_the_hostile_parameter_property_sees_a_reserialising_check(tmp_path, monkeypatch):
    """The property holds on a fixed list of edits, and fails on it once
    _verify_parameters compares the re-serialised record, not the file."""
    for base, edits in _FIXED_PARAMETER_EDITS:
        _parameter_file_ends_in_a_documented_exit(tmp_path / "params.json", base, edits)
    original = cli._verify_parameters
    monkeypatch.setattr(cli, "_verify_parameters", lambda text: original(
        json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"))
    for base, edits in _FIXED_PARAMETER_EDITS:
        with pytest.raises(AssertionError):
            _parameter_file_ends_in_a_documented_exit(tmp_path / "params.json", base, edits)


@pytest.mark.parametrize(
    "overrides",
    [{"members": ["a", []]}, {"seed": True}, {"redact": "no"}, {"modulus": {"bits": 513}},
     {"variant": "field", "modulus": {"p": 2**521 - 1}}],
)
def test_run_rejects_hostile_configs(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


# --- the shipped configs ---------------------------------------------------------

@pytest.mark.parametrize("name", ["honest", "attack", "suppress"])
def test_shipped_configs_run_verify_explain_with_the_readme_outcomes(tmp_path, capsys, name):
    """Each configs/*.json runs, verifies and explains cleanly, with the outcome
    the README's CLI section promises for it."""
    out = tmp_path / "t.jsonl"
    assert main(["run", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == EXIT_OK
    assert main(["verify", str(out)]) == EXIT_OK
    assert main(["explain", str(out)]) == EXIT_OK
    capsys.readouterr()
    tr = Transcript.load(out)
    gt, adv = tr.ground_truth, tr.meta.adversary
    outcomes = {oc.member: (oc.status, oc.key) for oc in tr.outcomes}
    if name == "honest":
        assert adv is None
    else:
        status, key = outcomes.pop(adv.victim)
    assert set(outcomes.values()) == {("accepted", gt.group_key)}
    if name == "attack":
        assert (status, key) == ("accepted", gt.adversary.target_key) and key != gt.group_key
    elif name == "suppress":
        assert (adv.action, status) == ("suppress", "timeout")


@pytest.mark.parametrize("redact", [False, True], ids=["ground-truth", "redacted"])
def test_attack_config_planting_the_group_key_runs_and_verifies(tmp_path, capsys, redact):
    """configs/attack.json with the session's own group key as the target: run
    reports the planted key accepted, and verify finds the forged broadcast
    identical to the honest one, as planting the group key must leave it. The
    public record alone shows this: the forged copy keeps the victim's share."""
    cfg = json.loads((CONFIGS / "attack.json").read_text())
    cfg["adversary"]["target_key"] = 14290  # the group key at seed 11
    cfg["redact"] = redact
    path, out = tmp_path / "cfg.json", tmp_path / "t.jsonl"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "victim accepted the planted key (identical to the true key)" in stdout
    assert "honest key differs" not in stdout
    assert main(["verify", str(out)]) == EXIT_OK
    assert "ok: forgery footprint: the group key was planted, and nothing changed" in capsys.readouterr().out
    tr = Transcript.load(out)
    assert {oc.key for oc in tr.outcomes} == {14290}
    assert tr.ground_truth is None if redact else tr.ground_truth.group_key == 14290


@pytest.mark.parametrize("edit, message", [
    ("drop-ground-truth", "line 11: expected the ground_truth record as gkdsim writes it"),
    ("claim-redacted", "line 11: expected the end of the transcript, as the meta is redacted"),
], ids=["drop-ground-truth", "claim-redacted"])
def test_verify_requires_ground_truth_exactly_when_not_redacted(tmp_path, capsys, edit, message):
    """Ground truth can be neither stripped from nor kept in a transcript
    without its meta saying so: either way verify exits 3 on parsing it."""
    lines = GOLDEN.joinpath("attack-ring35.jsonl").read_text().splitlines()
    if edit == "drop-ground-truth":
        assert json.loads(lines.pop())["record"] == "ground_truth"
    else:
        lines[0] = lines[0].replace('"redacted":false', '"redacted":true')
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path)]) == EXIT_VERIFY
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def test_explain_renders_a_replaced_challenge_as_a_challenge(tmp_path, capsys):
    """A replaced event's substitute is shown as its own step shows payloads;
    verify still reports that a challenge may not be replaced. Both judge such a
    transcript in memory: its file is refused on loading."""
    tr = Transcript.load(GOLDEN / "honest-ring35.jsonl")
    ev = tr.events[2]
    assert ev.step == "challenge" and ev.payload == b"\x02"
    replaced = dataclasses.replace(ev, verdict="replaced", delivered_payload=b"\x05")
    tr = dataclasses.replace(tr, events=(*tr.events[:2], replaced, *tr.events[3:]))
    assert "challenge: 2  [REPLACED in transit: 5]" in "\n".join(cli._narrative_lines(tr))
    report = simnet.verify_transcript(tr)
    assert "event 2: challenge replaced, expected delivered" in report.mismatches
    assert "payload, outcome and ground-truth checks: the events differ from the event skeleton" in report.skipped
    path = tmp_path / "t.jsonl"
    path.write_text(tr.to_jsonl())
    for command in ("explain", "verify"):
        assert main([command, str(path)]) == EXIT_VERIFY
        assert capsys.readouterr() == (
            "", "error: line 4: expected event 2, the challenge from 'ann', as gkdsim writes it\n")


@pytest.mark.parametrize("line, damage, message", [
    (3, lambda payload: payload + "00", "event 2: challenge payload width"),
    (5, lambda payload: payload[:-2], "broadcast payload of 34 bytes, expected 35"),
], ids=["challenge-too-wide", "broadcast-too-short"])
def test_explain_prints_nothing_for_a_damaged_payload(tmp_path, capsys, line, damage, message):
    """explain decodes payloads as verify does and builds its whole narrative
    before printing: on a wrong-width payload both exit 3 with verify's message,
    and explain leaves stdout empty."""
    lines = GOLDEN.joinpath("honest-ring35.jsonl").read_text().splitlines()
    rec = json.loads(lines[line])
    rec["payload"] = damage(rec["payload"])
    lines[line] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    for command in ("verify", "explain"):
        assert main([command, str(path)]) == EXIT_VERIFY
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")


def _swap_first_outcomes(records):
    records[8], records[9] = records[9], records[8]


@pytest.mark.parametrize("edit, message", [
    (_swap_first_outcomes, "line 9: expected the outcome of 'ann' as gkdsim writes it"),
    (lambda records: records[10].update(member_keys={"ann": 2}), "ground-truth keys do not cover the roster"),
    (lambda records: records[10].update(challenges={"ann": 2}), "ground-truth challenges do not cover the roster"),
], ids=["outcome-order", "ground-truth-keys", "ground-truth-challenges"])
def test_verify_and_explain_reject_the_same_record_sets(tmp_path, capsys, edit, message):
    """Outcomes out of roster order, and ground truth that misses a member, make
    the file malformed on loading: verify and explain both exit 3 with the same
    message and print nothing."""
    records = [json.loads(line) for line in GOLDEN.joinpath("attack-ring35.jsonl").read_text().splitlines()]
    edit(records)
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n" for rec in records))
    for command in ("verify", "explain"):
        assert main([command, str(path)]) == EXIT_VERIFY
        assert capsys.readouterr() == ("", f"error: {message}\n")


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
    """verify decodes no line twice, and json.loads sees, in file order, exactly
    the meta and ground-truth lines. Every event line, the victim's replaced
    broadcast too, and every outcome line is read by writing it back."""
    parsed = []
    loads = json.loads

    def counting_loads(s, *args, **kwargs):
        parsed.append(s)
        return loads(s, *args, **kwargs)

    for adversary in (None, FORGE):
        out = tmp_path / "t.jsonl"
        main(["run", str(write_config(tmp_path, adversary=adversary)), "--out", str(out)])
        lines = out.read_text().splitlines()
        parsed.clear()
        with monkeypatch.context() as m:
            m.setattr(json, "loads", counting_loads)
            assert main(["verify", str(out)]) == EXIT_OK
        assert parsed == [line for line in lines if '"record":"meta"' in line or '"record":"ground_truth"' in line]
        assert len(parsed) == 2, adversary  # meta, ground truth
