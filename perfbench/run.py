"""gkdsim benchmark: closed-loop sessions per workload, end-to-end or traced.

    python3 perfbench/run.py --workload roster-scale --seed 1 --seconds 30 --trace 0

One client in one process sends the next session only when the previous one
has finished; there are no threads. With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 the first
half of the time runs untraced, the second half traced, and the JSON object
holds the per-layer metrics. Lines before it are a human-readable report; the
full report, and the recorded spans of a traced run, go to perfbench/out/.

Develop against --seed 1 and recheck a claim on the held-out seed
(HELD_OUT_SEED), which is not to be used while a change is written.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PINNED = HERE / "pinned.json"

HELD_OUT_SEED = 4434
SETUP_REPS = 5
# Each workload fixes its tail percentile (p75 or p90), and an untraced run
# lasts at least long enough to have TAIL_SAMPLES samples beyond it. A
# percentile chosen from the sample count instead would follow the machine's
# speed. Above p90 the tail of paramgen's geometric prime-search times moves
# between runs by more than the bound.
TAIL_SAMPLES = 10
MAX_FAILURE_LINES = 5

# On a small shared virtual machine (2 vCPUs) the speed of plain Python swings
# by up to 2x in phases lasting from seconds to minutes: a fixed 300k-step loop
# took 37 to 122 ms over four minutes, and its mean over any 10-60 s window
# varied by 20% between windows, more than any bound. Times are therefore
# scaled to a reference speed: reference() is timed before the first session
# and then after a session whenever REF_EVERY seconds have passed, and each
# session's times are multiplied by REF_NOMINAL_S / (mean of the two loop times
# around it). REF_NOMINAL_S is about what reference() takes on that machine
# when it is not contended. The report file keeps the wall-clock figures.
REF_ITERS = 2500
REF_NOMINAL_S = 0.0035
REF_EVERY = 0.25

# t_exponent probe: field variant, honest, 2**64 - 59
PROBE_PRIME = 18446744073709551557
PROBE_T = (64, 128, 256)
PROBE_REPS = 3

END_TO_END = (
    ("sessions_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_tail", "ms"),
    ("verify_ms_p50", "ms"),
    ("verify_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric -> (unit, source). Counts are per session over the pinned
# prefix, so they repeat exactly; times are per session over the traced half.
PER_LAYER = {
    "algebra.gen_safe_prime.calls": ("count", "count"),
    "algebra.gen_safe_prime.s": ("s", "busy"),
    "algebra.is_prime.calls": ("count", "count"),
    "algebra.safe_prime.yield": ("ratio", "yield"),
    "algebra.domain_new.s": ("s", "busy"),
    "algebra.sample_element.calls": ("count", "count"),
    "protocol.compute_share.calls": ("count", "count"),
    "protocol.compute_share.self_s": ("s", "self"),
    "algebra.power_vector.calls": ("count", "count"),
    "algebra.inner_product.calls": ("count", "count"),
    "codec.hash_to_element.calls": ("count", "count"),
    "protocol.GroupMember.observe_challenge.calls": ("count", "count"),
    "protocol.GroupMember.observe_challenge.s": ("s", "busy"),
    "protocol.GroupRoster.index_of.calls": ("count", "count"),
    "adversary.InsiderInterceptor.observe.s": ("s", "busy"),
    "codec.compute_auth.calls": ("count", "count"),
    "codec.compute_auth.self_s": ("s", "self"),
    "codec.compute_auth.bytes": ("B", "count"),
    "codec.encode_element.calls": ("count", "count"),
    "codec.encode_identifier.calls": ("count", "count"),
    "protocol.kgc_distribute.self_s": ("s", "self"),
    "protocol.user_process_broadcast.calls": ("count", "count"),
    "protocol.user_process_broadcast.self_s": ("s", "self"),
    "adversary.insider_recover_key.s": ("s", "busy"),
    "adversary.forge_broadcast.s": ("s", "busy"),
    "adversary.verdicts.delivered": ("count", "count"),
    "adversary.verdicts.dropped": ("count", "count"),
    "adversary.verdicts.replaced": ("count", "count"),
    "simnet.run_scenario.self_s": ("s", "self"),
    "simnet.events": ("count", "count"),
    "simnet.deliveries": ("count", "count"),
    "simnet.wire_bytes.request": ("B", "count"),
    "simnet.wire_bytes.announce": ("B", "count"),
    "simnet.wire_bytes.challenge": ("B", "count"),
    "simnet.wire_bytes.broadcast": ("B", "count"),
    "simnet.Transcript.to_jsonl.s": ("s", "busy"),
    "simnet.Transcript.from_jsonl.s": ("s", "busy"),
    "simnet.transcript_bytes": ("B", "count"),
    "simnet.verify_transcript.self_s": ("s", "self"),
    "cli.run.self_s": ("s", "self"),
    "cli.verify.self_s": ("s", "self"),
    "simnet.run_scenario.t_exponent": ("slope", "probe"),
    "trace.sessions_per_s.untraced": ("1/s", "overhead"),
    "trace.sessions_per_s.traced": ("1/s", "overhead"),
    "trace.overhead": ("ratio", "overhead"),
}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class Bench:
    g: SimpleNamespace  # the gkdsim modules, looked up at call time so tracing sees calls
    workload: object
    seed: int
    pool: object
    workdir: Path


def _import_fresh() -> SimpleNamespace:
    for name in [m for m in sys.modules if m == "gkdsim" or m.startswith("gkdsim.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module("gkdsim." + m)
            for m in ("algebra", "codec", "protocol", "adversary", "simnet", "cli")}
    return SimpleNamespace(**mods)


def setup(name: str, seed: int) -> Bench:
    """Imports, the explicit-prime pool, a work directory and one warm-up session."""
    g = _import_fresh()
    if not Path(g.simnet.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: imported gkdsim from {g.simnet.__file__}, not this checkout")
    wl = workloads.WORKLOADS[name]
    pool = workloads.make_pool(seed)
    for mod in pool.field:
        g.algebra.domain_new(mod["p"], variant=g.algebra.Variant.FIELD)
    for mod in pool.ring:
        g.algebra.domain_new(mod["p"], mod["q"], variant=g.algebra.Variant.RING)
    bench = Bench(g, wl, seed, pool, Path(tempfile.mkdtemp(prefix="work-", dir=OUT)))
    warm = workloads.Session({"variant": "field", "modulus": workloads.DEMO_FIELD,
                              "members": ["m0", "m1", "m2"], "seed": 0}, "honest")
    run_session(bench, warm)
    return bench


def run_session(bench: Bench, session):
    if bench.workload.via_cli:
        return workloads.run_cli(bench.g, session, bench.workdir)
    return workloads.run_library(bench.g, session)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class SpeedScale:
    """Scale factors to the reference speed, from the reference loop timed between sessions."""

    def __init__(self):
        self.last = reference()
        self.at = perf_counter()

    def due(self) -> bool:
        return perf_counter() - self.at >= REF_EVERY

    def next(self) -> float:
        """Factor for the time since the previous sample: nominal / mean of the two loop times."""
        prev, self.last = self.last, reference()
        self.at = perf_counter()
        return 2 * REF_NOMINAL_S / (prev + self.last)


def reference() -> float:
    """Seconds a fixed mix of the kinds of work gkdsim does takes now.

    Residue arithmetic, int/bytes conversion, dict inserts, small tuples, JSON
    and SHA-256. On the 2-vCPU machine above it tracked session times more
    closely than a pure integer loop: scaling by it left about half the
    run-to-run spread on roster-scale and session-mix.
    """
    t0 = perf_counter()
    modulus = (1 << 127) - 1
    acc, table = 1, {}
    for i in range(REF_ITERS):
        acc = acc * 0x9E3779B97F4A7C15 % modulus
        key = acc.to_bytes(16, "big")
        table[key[:3]] = (i, key)
    text = json.dumps([[k.hex(), v[0]] for k, v in table.items()], separators=(",", ":"))
    json.loads(text)
    hashlib.sha256(text.encode()).digest()
    return perf_counter() - t0


@dataclass
class Loop:
    run_s: list = field(default_factory=list)  # scaled to the reference speed
    verify_s: list = field(default_factory=list)
    raw_run_s: list = field(default_factory=list)  # wall clock
    raw_verify_s: list = field(default_factory=list)
    busy: float = 0.0  # session time, scaled
    raw_busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    verdicts: Counter = field(default_factory=Counter)
    prefix_verdicts: Counter | None = None
    prefix_sha256: str | None = None
    all_sha256: str = ""
    prefix_counts: Counter | None = None

    @property
    def sessions_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy

    @property
    def scale(self) -> float:
        return self.busy / self.raw_busy

    def add(self, pending: list, factor: float) -> None:
        for run_s, verify_s, duration in pending:
            if run_s is not None:
                self.raw_run_s.append(run_s)
                self.raw_verify_s.append(verify_s)
                self.run_s.append(run_s * factor)
                self.verify_s.append(verify_s * factor)
            self.raw_busy += duration
            self.busy += duration * factor
        pending.clear()


def closed_loop(bench: Bench, seconds: float, tracer=None, min_sessions: int = 0) -> Loop:
    """Sessions 0, 1, 2, ... until `seconds` have passed, ending on a block boundary."""
    wl = bench.workload
    min_sessions = max(min_sessions, wl.prefix)
    loop = Loop()
    digest = hashlib.sha256()
    speed = SpeedScale()
    pending = []  # (run s, verify s, session s) since the last speed sample
    start = perf_counter()
    i = 0
    while i < min_sessions or i % wl.block or perf_counter() - start < seconds:
        t0 = perf_counter()
        session = wl.make(bench.seed, i, bench.pool)
        if tracer is not None:
            tracer.session = i
        loop.attempted += 1
        try:
            run_s, verify_s, transcript = run_session(bench, session)
        except (Exception, SystemExit) as e:  # a failed session does not stop the run
            loop.failed += 1
            if len(loop.failures) < MAX_FAILURE_LINES:
                loop.failures.append(f"session {i} ({session.kind}): {type(e).__name__}: {e}")
            run_s = verify_s = None
        else:
            digest.update(transcript)
            loop.verdicts[session.kind + ("+tampered" if session.tamper else "")] += 1
        pending.append((run_s, verify_s, perf_counter() - t0))
        i += 1
        if i == wl.prefix:
            loop.prefix_sha256 = digest.hexdigest()
            loop.prefix_verdicts = Counter(loop.verdicts)
            if tracer is not None:
                loop.prefix_counts = Counter(tracer.counts)
        if speed.due():
            loop.add(pending, speed.next())
    loop.add(pending, speed.next())
    loop.all_sha256 = digest.hexdigest()
    return loop


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(ordered: list[float], pct: int) -> float:
    """Nearest-rank percentile of sorted samples."""
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def end_to_end_metrics(loop: Loop, setup_s: float, pct: int) -> tuple[dict, dict]:
    run_s, verify_s = sorted(loop.run_s), sorted(loop.verify_s)
    values = {
        "sessions_per_s": loop.sessions_per_s,
        "run_ms_p50": 1e3 * percentile(run_s, 50),
        "run_ms_tail": 1e3 * percentile(run_s, pct),
        "verify_ms_p50": 1e3 * percentile(verify_s, 50),
        "verify_ms_tail": 1e3 * percentile(verify_s, pct),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "samples": len(run_s),
        "run_ms_tail": f"p{pct}",
        "verify_ms_tail": f"p{pct}",
        "error_rate": loop.failed / loop.attempted,
        "scale_to_reference_speed": loop.scale,
        "wall_clock": {
            "sessions_per_s": (loop.attempted - loop.failed) / loop.raw_busy,
            "run_ms_p50": 1e3 * percentile(sorted(loop.raw_run_s), 50),
            "verify_ms_p50": 1e3 * percentile(sorted(loop.raw_verify_s), 50),
        },
    }
    return values, notes


def t_exponent(bench: Bench) -> float:
    """Least-squares slope of log(run_scenario time) over log(t), untraced."""
    simnet = bench.g.simnet
    xs, ys = [], []
    for t in PROBE_T:
        cfg = simnet.ScenarioConfig.from_dict({
            "variant": "field", "modulus": {"p": PROBE_PRIME},
            "members": [f"m{k}" for k in range(t)], "seed": bench.seed,
        })
        times = []
        for _ in range(PROBE_REPS):
            t0 = perf_counter()
            simnet.run_scenario(cfg)
            times.append(perf_counter() - t0)
        xs.append(math.log(t))
        ys.append(math.log(statistics.median(times)))
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer_metrics(tracer, traced: Loop, untraced: Loop, exponent: float, prefix: int) -> dict:
    counts = traced.prefix_counts
    per_session = traced.scale / len(traced.run_s)
    values = {}
    for name, (unit, source) in PER_LAYER.items():
        base = name.rsplit(".", 1)[0]
        if source == "count":
            value = counts[name] / prefix
        elif source == "busy":
            value = tracer.busy[base] * per_session
        elif source == "self":
            value = tracer.self_time[base] * per_session
        elif source == "yield":
            tests = counts["algebra.is_prime.calls"]
            value = counts["algebra.safe_prime.returned"] / tests if tests else 0.0
        elif source == "probe":
            value = exponent
        else:
            value = {
                "trace.sessions_per_s.untraced": untraced.sessions_per_s,
                "trace.sessions_per_s.traced": traced.sessions_per_s,
                "trace.overhead": traced.sessions_per_s / untraced.sessions_per_s,
            }[name]
        values[name] = value
    return values


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pinned_check(name: str, seed: int, loop: Loop) -> str | None:
    """Compare the prefix digest and verdicts with perfbench/pinned.json, if this seed is pinned."""
    try:
        pins = json.loads(PINNED.read_text())
    except FileNotFoundError:
        return None
    pin = pins.get(name, {}).get(str(seed))
    if pin is None:
        return None
    got = {"sha256": loop.prefix_sha256, "verdicts": dict(sorted(loop.prefix_verdicts.items()))}
    if got != pin:
        return f"pinned output changed at seed {seed}: expected {pin}, got {got}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gkdsim" / "__init__.py").is_file():
        print(f"perfbench: no gkdsim sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)

    setup_times, bench = [], None
    try:
        speed = SpeedScale()
        for _ in range(SETUP_REPS):
            if bench is not None:
                shutil.rmtree(bench.workdir)
            t0 = perf_counter()
            bench = setup(args.workload, args.seed)
            setup_times.append(perf_counter() - t0)
            setup_times[-1] *= speed.next()
        setup_s = statistics.median(setup_times)

        if args.trace:
            untraced = closed_loop(bench, args.seconds / 2)
            with Tracer() as tracer:
                traced = closed_loop(bench, args.seconds / 2, tracer)
            exponent = t_exponent(bench)
            loops = (untraced, traced)
            metrics = per_layer_metrics(tracer, traced, untraced, exponent, bench.workload.prefix)
            units = {k: u for k, (u, _) in PER_LAYER.items()}
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans_path)
            notes = {"spans": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.spans)}
        else:
            tail = bench.workload.tail
            loop = closed_loop(bench, args.seconds,
                               min_sessions=math.ceil(TAIL_SAMPLES * 100 / (100 - tail)))
            loops = (loop,)
            metrics, notes = end_to_end_metrics(loop, setup_s, tail)
            units = dict(END_TO_END)
    finally:
        if bench is not None:
            shutil.rmtree(bench.workdir, ignore_errors=True)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    problems = [f for lp in loops for f in lp.failures]
    pin_problem = pinned_check(args.workload, args.seed, loops[0])
    if pin_problem:
        problems.append(pin_problem)
    digests_agree = all(lp.prefix_sha256 == loops[0].prefix_sha256 for lp in loops)
    if not digests_agree:
        problems.append("traced and untraced runs produced different transcripts")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "verdicts": dict(sorted(sum((lp.verdicts for lp in loops), Counter()).items())),
        "prefix_sessions": bench.workload.prefix,
        "prefix_sha256": loops[0].prefix_sha256,
        "prefix_verdicts": dict(sorted(loops[0].prefix_verdicts.items())),
        "all_sha256": loops[-1].all_sha256,
        "setup_s_reps": setup_times,
        "notes": notes,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} (held-out {HELD_OUT_SEED}) "
          f"trace={args.trace} python={report['python']} nproc={report['nproc']} "
          f"git={report['git_sha'][:12]}")
    print(f"sessions attempted={attempted} failed={failed} error_rate={report['error_rate']:.4g} "
          f"verdicts={report['verdicts']}")
    print(f"transcripts: first {bench.workload.prefix} sha256={report['prefix_sha256']} "
          f"verdicts={report['prefix_verdicts']}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for line in problems:
        print(f"PROBLEM: {line}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
