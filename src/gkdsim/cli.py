"""Command-line front door.

Subcommands:
  gen-params  generate safe-prime parameters and write them to a file
  run         execute a scenario config, write the transcript, report outcomes
  verify      re-check a transcript (or a parameter file) and report mismatches
  explain     render a transcript as a human-readable narrative

Exit codes are stable and meant for scripting:
  0 success, 2 configuration/parameter error, 3 verification failure,
  4 scenario ran but did not meet its success condition.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

from .algebra import DomainContext, SeededRng, Variant
from .errors import ConfigError, MalformedTranscript
from .simnet import (
    ACTION_FORGE,
    ACTION_SUPPRESS,
    KGC_NAME,
    ScenarioConfig,
    Transcript,
    VERDICT_DROPPED,
    VERDICT_REPLACED,
    build_domain,
    outcome_failures,
    parse_broadcast_payload,
    run_scenario,
    verify_transcript,
    write_text,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_SCENARIO = 4


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later main
    call in the process; each parse_args call still returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="gkdsim",
        description="group key distribution testbed: honest runs, insider forgery, transcript replay",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-params", help="generate safe-prime domain parameters")
    gen.add_argument("--bits", type=int, required=True, help="bit length per prime (>= 3)")
    gen.add_argument("--variant", choices=[v.value for v in Variant], required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, default=None, help="output file (default params-<variant>-<bits>bit.json)")
    gen.set_defaults(func=cmd_gen_params)

    run = sub.add_parser("run", help="run a scenario config and write its transcript")
    run.add_argument("config", type=Path)
    run.add_argument("--out", type=Path, default=None, help="transcript path (default <config>.transcript.jsonl)")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--variant", choices=[v.value for v in Variant], default=None, help="override the config variant")
    run.add_argument("-v", "--verbose", action="store_true", help="print every event")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="replay-check a transcript, or re-check a parameter file")
    ver.add_argument("path", type=Path)
    ver.set_defaults(func=cmd_verify)

    exp = sub.add_parser("explain", help="annotated step-by-step narrative of a transcript")
    exp.add_argument("path", type=Path)
    exp.set_defaults(func=cmd_explain)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MalformedTranscript as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


# ---------------------------------------------------------------------------
# gen-params
# ---------------------------------------------------------------------------

def _parameters_line(ctx: DomainContext, p: int, q: int | None, seed: int) -> str:
    """The parameter file gen-params writes for these primes and seed, and the only
    one verify accepts for them."""
    record = {
        "record": "parameters",
        "variant": ctx.variant.value,
        "bits": p.bit_length(),
        "p": p,
        "q": q,
        "modulus": ctx.modulus,
        "byte_width": ctx.byte_width,
        "seed": seed,
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def cmd_gen_params(args) -> int:
    if args.seed < 0:
        raise ConfigError("seed must be non-negative")
    ctx, p, q = build_domain(Variant(args.variant), SeededRng(args.seed), bits=args.bits)
    out = args.out or Path(f"params-{args.variant}-{args.bits}bit.json")
    data = _parameters_line(ctx, p, q, args.seed)
    write_text(out, data)
    digest = hashlib.sha256(data.encode()).hexdigest()
    print(f"wrote {out}")
    print(f"modulus: {ctx.modulus} ({ctx.modulus.bit_length()} bits, {ctx.byte_width}-byte residues)")
    print(f"fingerprint: sha256:{digest[:16]}")
    return EXIT_OK


def _is_parameter_file(text: str) -> bool:
    """Whether the first record is a parameter record, which from_jsonl rejects."""
    try:
        first = json.loads(text.lstrip().partition("\n")[0])
    except (ValueError, RecursionError):
        return False
    return isinstance(first, dict) and first.get("record") == "parameters"


def _verify_parameters(text: str) -> int:
    """Prove the recorded primes, then require the file to hold just the record
    gen-params writes for them and the recorded seed: one bit length for both
    primes, every field typed."""
    try:
        record = json.loads(text)
        seed = record.get("seed")
        ctx, p, q = build_domain(Variant(record.get("variant")), None, p=record.get("p"), q=record.get("q"))
        if type(seed) is not int or seed < 0 or (q is not None and q.bit_length() != p.bit_length()) or (
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n" != _parameters_line(ctx, p, q, seed)
        ):
            raise ValueError("not the file gen-params writes for its primes and seed")
    except ValueError as e:
        print(f"parameter file invalid: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except ConfigError as e:
        print(f"primality re-check failed: {e}", file=sys.stderr)
        return EXIT_VERIFY
    primes = f"p={p}" + (f", q={q}" if q is not None else "")
    print(f"parameters ok: {primes} (safe-primality re-checked), modulus {ctx.modulus}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    cfg = ScenarioConfig.from_file(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.variant is not None:
        cfg = dataclasses.replace(cfg, variant=Variant(args.variant))
    tr = run_scenario(cfg)
    out = args.out or args.config.with_suffix(".transcript.jsonl")
    tr.save(out)

    if args.verbose:
        for line in _narrative_lines(tr):
            print(line)
    ok, lines = summarize_run(tr)
    for line in lines:
        print(line)
    print(f"transcript written to {out}")
    if not ok:
        print("scenario did not meet its success condition", file=sys.stderr)
        return EXIT_SCENARIO
    return EXIT_OK


_VERDICT_LINES = {  # adversary action (None: honest run) -> (verdict if missed, if met)
    None: ("honest run FAILED: outcomes disagree",
           "honest run: all members accepted the same key"),
    ACTION_SUPPRESS: ("suppression FAILED: victim produced an outcome or others rejected",
                      "suppression: victim timed out, everyone else accepted"),
    ACTION_FORGE: ("attack FAILED: victim or honest members did not accept as planned",
                   "victim accepted forged key; honest key differs"),
}


def summarize_run(tr: Transcript) -> tuple[bool, list[str]]:
    """Human summary plus the success verdict the exit status is based on."""
    meta, gt = tr.meta, tr.ground_truth
    lines = [
        f"variant {meta.params.ctx.variant.value}, modulus {meta.params.ctx.modulus}, "
        f"{meta.t} members, seed {meta.seed}"
    ]
    for oc in tr.outcomes:
        note = f"accepted key {oc.key}" if oc.status == "accepted" else f"{oc.status} ({oc.reason})"
        lines.append(f"  {oc.member}: {note}")
    ok = not outcome_failures(tr)
    lines.append(_VERDICT_LINES[meta.adversary and meta.adversary.action][ok])
    truth = gt and gt.adversary
    if ok and truth and truth.action == ACTION_FORGE:
        if truth.target_key == gt.group_key:
            lines[-1] = "victim accepted the planted key (identical to the true key)"
        else:
            lines.append(f"  planted key {truth.target_key}, true group key {gt.group_key}")
    return ok, lines


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    try:
        text = args.path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise MalformedTranscript(f"cannot read {args.path}: {e}") from None
    try:
        tr = Transcript.from_jsonl(text)
    except MalformedTranscript:
        if _is_parameter_file(text):
            return _verify_parameters(text)
        raise
    report = verify_transcript(tr)
    for line in report.checks:
        print(f"ok: {line}")
    for line in report.skipped:
        print(f"skipped: {line}")
    for line in report.mismatches:
        print(f"MISMATCH: {line}")
    if not report.ok:
        print(f"{len(report.mismatches)} mismatch(es) found", file=sys.stderr)
        return EXIT_VERIFY
    print("transcript verified: no mismatches")
    return EXIT_OK


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

_STEP_BLURBS = {
    "request": "initiator asks the KGC for a group key over the listed roster",
    "announce": "KGC echoes the roster, fixing member order for the session",
    "challenge": "member publishes a fresh random challenge",
    "broadcast": "KGC publishes tag, nonce and one masked share per member",
}


def cmd_explain(args) -> int:
    tr = Transcript.load(args.path)
    meta = tr.meta
    print(
        f"scenario: {meta.params.ctx.variant.value} variant, modulus {meta.params.ctx.modulus}, "
        f"members {', '.join(meta.members)}, seed {meta.seed}"
    )
    adv = meta.adversary
    if adv:
        link = f"{KGC_NAME}->{adv.victim}"
        print(f"adversary: {adv.attacker} controls the {link} link ({adv.action})")
    for line in _narrative_lines(tr):
        print(line)
    print("outcomes:")
    for oc in tr.outcomes:
        if oc.status == "accepted":
            note = f"accepted key {oc.key}"
        elif oc.status == "rejected":
            note = f"rejected: {oc.reason}"
        else:
            note = "timeout: never received the key broadcast"
        print(f"  {oc.member}: {note}")
    gt = tr.ground_truth
    if gt is None:
        print("ground truth: redacted")
    else:
        print(f"ground truth: group key {gt.group_key}, nonce {gt.r0}")
        if gt.adversary and gt.adversary.action == ACTION_FORGE:
            print(
                f"  {gt.adversary.attacker} recovered {gt.adversary.recovered_key} from its own "
                f"share and planted {gt.adversary.target_key} on {gt.adversary.victim}"
            )
    return EXIT_OK


def _narrative_lines(tr: Transcript) -> list[str]:
    ctx, digest_size, t = tr.meta.params.ctx, tr.meta.params.hash_cfg.digest_size, tr.meta.t
    lines = []
    for ev in tr.events:
        route = f"{ev.sender} -> {','.join(ev.receivers)}"
        detail = _STEP_BLURBS.get(ev.step, "")
        if ev.step == "challenge":
            detail = f"{detail}: {int.from_bytes(ev.payload, 'big')}"
        elif ev.step == "broadcast":
            bc = parse_broadcast_payload(ev.payload, ctx, digest_size, t)
            detail = (
                f"{detail}: tag {bc.auth.hex()[:12]}.., nonce {bc.r0}, "
                f"shares {list(bc.masked_shares)}"
            )
        mark = ""
        if ev.verdict == VERDICT_REPLACED:
            fb = parse_broadcast_payload(ev.delivered_payload, ctx, digest_size, t)
            mark = (
                f"  [REPLACED in transit: tag {fb.auth.hex()[:12]}.., "
                f"shares {list(fb.masked_shares)}]"
            )
        elif ev.verdict == VERDICT_DROPPED:
            mark = "  [DROPPED in transit]"
        lines.append(f"  {ev.index:>2}. {ev.step:<9} {route:<28} {detail}{mark}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
