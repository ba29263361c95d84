"""Workload definitions: session inputs from the seed, one session, its verdict.

A session runs one scenario to a transcript, serialises it, parses it back and
verifies it, then checks the verdict its scenario calls for. Session i of a
workload is a pure function of (workload, seed, i), so a run that is cut by
time still produced a prefix of one fixed sequence, and the transcript digest
over the first `prefix` sessions repeats exactly at a given seed.

Why each workload exists, and which layers it should and should not stress,
is written down in README.md beside this file.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# 64-bit safe primes: gkdsim.algebra.gen_safe_prime(64, SeededRng(64)), first
# sixteen distinct. Each run draws its explicit-prime pool from these by seed,
# so set-up cost does not depend on how long a prime search happens to take.
SAFE_PRIMES_64 = (
    14452609745013686879, 17604556404558656459, 17481500801171414759,
    11976539028622655027, 13086318123050346467, 12985823824803098099,
    15489725004288001319, 16664951786095319723, 16817513930271049943,
    10354931375472857423, 11892824236705887863, 16975924637581344143,
    12444373566001348523, 11521214555200846283, 13732032780645776687,
    16955405760800252363,
)
POOL_SIZE = 4

# The shipped demo moduli (configs/*.json).
DEMO_RING = {"p": 167, "q": 179}
DEMO_FIELD = {"p": 227}

ROSTER_T = 256
MIX_T = (3, 12)
PARAMGEN_T = 3
PARAMGEN_BITS = 64

EXIT_OK, EXIT_VERIFY = 0, 3


class SessionFailed(Exception):
    """The program's output was not the verdict the scenario calls for."""


@dataclass(frozen=True)
class Session:
    config: dict
    kind: str  # honest | forge | suppress
    tamper: tuple[int, int] | None = None  # (byte position seed, xor mask) for verify


@dataclass(frozen=True)
class Pool:
    """Explicit 64-bit moduli drawn for one run."""

    field: tuple[dict, ...]
    ring: tuple[dict, ...]


def make_pool(seed: int) -> Pool:
    rng = random.Random(f"pool/{seed}")
    fields = rng.sample(SAFE_PRIMES_64, POOL_SIZE)
    pairs = rng.sample(SAFE_PRIMES_64, 2 * POOL_SIZE)
    return Pool(
        field=tuple({"p": p} for p in fields),
        ring=tuple({"p": pairs[2 * k], "q": pairs[2 * k + 1]} for k in range(POOL_SIZE)),
    )


def _config(rng, variant, modulus, t, kind) -> dict:
    members = [f"m{k}" for k in range(t)]
    cfg = {"variant": variant, "modulus": modulus, "members": members,
           "seed": rng.randrange(2**32)}
    if kind != "honest":
        attacker, victim = rng.sample(members, 2)
        cfg["adversary"] = {"attacker": attacker, "victim": victim}
        if kind == "forge":
            cfg["adversary"]["target_key"] = "random"
        else:
            cfg["adversary"]["action"] = "suppress"
    return cfg


def _alternating(i: int) -> tuple[str, str]:
    """Ring/field on every session, honest/forge on every second one."""
    return ("ring", "field")[i % 2], ("honest", "forge")[(i // 2) % 2]


def roster_scale(seed: int, i: int, pool: Pool) -> Session:
    rng = random.Random(f"roster-scale/{seed}/{i}")
    variant, kind = _alternating(i)
    modulus = rng.choice(pool.ring if variant == "ring" else pool.field)
    return Session(_config(rng, variant, modulus, ROSTER_T, kind), kind)


_MIX_BLOCK = tuple(
    (kind, variant, demo)
    for kind in ("honest", "forge", "suppress")
    for variant in ("ring", "field")
    for demo in (True, False)
)


def session_mix(seed: int, i: int, pool: Pool) -> Session:
    block, pos = divmod(i, len(_MIX_BLOCK))
    brng = random.Random(f"session-mix/{seed}/block{block}")
    order = brng.sample(range(len(_MIX_BLOCK)), len(_MIX_BLOCK))
    tampered = set(brng.sample(range(len(_MIX_BLOCK)), len(_MIX_BLOCK) // 4))
    kind, variant, demo = _MIX_BLOCK[order[pos]]
    rng = random.Random(f"session-mix/{seed}/{i}")
    if demo:
        modulus = DEMO_RING if variant == "ring" else DEMO_FIELD
    else:
        modulus = rng.choice(pool.ring if variant == "ring" else pool.field)
    cfg = _config(rng, variant, modulus, rng.randint(*MIX_T), kind)
    tamper = (rng.randrange(2**32), rng.randrange(1, 256)) if pos in tampered else None
    return Session(cfg, kind, tamper)


def paramgen(seed: int, i: int, pool: Pool) -> Session:
    rng = random.Random(f"paramgen/{seed}/{i}")
    variant, kind = _alternating(i)
    return Session(_config(rng, variant, {"bits": PARAMGEN_BITS}, PARAMGEN_T, kind), kind)


@dataclass(frozen=True)
class Workload:
    make: object  # (seed, i, pool) -> Session
    via_cli: bool
    block: int  # sessions per balanced block; runs stop on a block boundary
    prefix: int  # sessions whose transcripts and counts are pinned
    tail: int  # the percentile reported as *_ms_tail


WORKLOADS = {
    "roster-scale": Workload(roster_scale, False, 4, 4, 75),
    "session-mix": Workload(session_mix, True, len(_MIX_BLOCK), 2 * len(_MIX_BLOCK), 90),
    "paramgen": Workload(paramgen, False, 4, 8, 90),
}


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def check_verdict(session: Session, outcomes, group_key, target_key) -> None:
    """outcomes: (member, status, key) per member, as the transcript records them."""
    victim = None if session.kind == "honest" else session.config["adversary"]["victim"]
    for member, status, key in outcomes:
        if member != victim:
            want = ("accepted", group_key)
        elif session.kind == "forge":
            if target_key is None or target_key == group_key:
                raise SessionFailed(f"forge planted {target_key}, true key {group_key}")
            want = ("accepted", target_key)
        else:
            want = ("timeout", None)
        if (status, key) != want:
            raise SessionFailed(f"{member}: {status}/{key}, expected {want[0]}/{want[1]}")


def _verdict_from_jsonl(session: Session, data: bytes) -> None:
    records = [json.loads(line) for line in data.decode().splitlines() if line]
    outcomes = [(r["member"], r["status"], r.get("key")) for r in records
                if r["record"] == "outcome"]
    gt = next(r for r in records if r["record"] == "ground_truth")
    target = gt["adversary"]["target_key"] if gt["adversary"] else None
    if len(outcomes) != len(session.config["members"]):
        raise SessionFailed(f"{len(outcomes)} outcome records")
    check_verdict(session, outcomes, gt["group_key"], target)


def tamper(data: bytes, spec: tuple[int, int]) -> bytes:
    """Change one byte of the first broadcast payload."""
    where, mask = spec
    lines = data.decode().split("\n")
    for n, line in enumerate(lines):
        if '"step":"broadcast"' in line:
            rec = json.loads(line)
            payload = bytearray.fromhex(rec["payload"])
            payload[where % len(payload)] ^= mask
            rec["payload"] = payload.hex()
            lines[n] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
            return "\n".join(lines).encode()
    raise SessionFailed("transcript has no broadcast event to tamper with")


# ---------------------------------------------------------------------------
# one session
# ---------------------------------------------------------------------------

def run_library(g, session: Session) -> tuple[float, float, bytes]:
    """run_scenario, to_jsonl, from_jsonl + verify_transcript; returns (run s, verify s, transcript)."""
    simnet = g.simnet
    cfg = simnet.ScenarioConfig.from_dict(session.config)
    t0 = perf_counter()
    tr = simnet.run_scenario(cfg)
    t1 = perf_counter()
    text = tr.to_jsonl()
    t2 = perf_counter()
    parsed = simnet.Transcript.from_jsonl(text)
    report = simnet.verify_transcript(parsed)
    t3 = perf_counter()
    if not report.ok:
        raise SessionFailed(f"verify_transcript: {report.mismatches[:2]}")
    gt = parsed.ground_truth
    check_verdict(
        session,
        [(o.member, o.status, o.key) for o in parsed.outcomes],
        gt.group_key,
        gt.adversary.target_key if gt.adversary else None,
    )
    return t1 - t0, t3 - t2, text.encode()


def run_cli(g, session: Session, workdir: Path) -> tuple[float, float, bytes]:
    """`gkdsim run cfg --out tr` then `gkdsim verify tr`, in-process with output captured."""
    cfg_path = workdir / "session.json"
    tr_path = workdir / "session.transcript.jsonl"
    cfg_path.write_text(json.dumps(session.config))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        t0 = perf_counter()
        code = g.cli.main(["run", str(cfg_path), "--out", str(tr_path)])
        t1 = perf_counter()
    if code != EXIT_OK:
        raise SessionFailed(f"gkdsim run exited {code}: {out.getvalue()[-300:]}")
    data = tr_path.read_bytes()
    _verdict_from_jsonl(session, data)
    if session.tamper is not None:
        tr_path.write_bytes(tamper(data, session.tamper))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        t2 = perf_counter()
        code = g.cli.main(["verify", str(tr_path)])
        t3 = perf_counter()
    expected = EXIT_VERIFY if session.tamper is not None else EXIT_OK
    if code != expected:
        raise SessionFailed(f"gkdsim verify exited {code}, expected {expected}")
    return t1 - t0, t3 - t2, data
