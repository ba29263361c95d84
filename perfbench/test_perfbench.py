"""Checks on the benchmark itself: exact per-layer counts, wrapper bindings,
pinned transcript bytes and agreement with BENCHMARK.json.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from gkdsim import adversary, algebra, cli, codec, protocol, simnet  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402

G = SimpleNamespace(algebra=algebra, codec=codec, protocol=protocol,
                    adversary=adversary, simnet=simnet, cli=cli)
P64 = workloads.SAFE_PRIMES_64[0]


def _session(t, kind, modulus=None):
    cfg = {"variant": "field", "modulus": modulus or {"p": P64},
           "members": [f"m{k}" for k in range(t)], "seed": 5}
    if kind == "forge":
        cfg["adversary"] = {"attacker": "m1", "victim": "m0", "target_key": "random"}
    return workloads.Session(cfg, kind)


def _originals():
    return {(m, k): v for m in (algebra, codec, protocol, adversary, simnet, cli)
            for k, v in vars(m).items() if callable(v)}


@pytest.mark.parametrize("t", [3, 256])
@pytest.mark.parametrize("kind", ["honest", "forge"])
def test_exact_counts_per_pipeline(t, kind):
    """run + serialise + parse + verify: a missed binding undercounts here."""
    extra = kind == "forge"
    with Tracer() as tracer:
        workloads.run_library(G, _session(t, kind))
    c = tracer.counts
    assert c["protocol.compute_share.calls"] == 4 * t + extra
    assert c["codec.compute_auth.calls"] == 2 * t + 2 + extra
    assert c["algebra.power_vector.calls"] == 4 * t + extra
    assert c["protocol.user_process_broadcast.calls"] == 2 * t
    assert c["protocol.GroupMember.observe_challenge.calls"] == t * (t - 1)
    assert c["simnet.run_scenario.calls"] == 1
    assert c["simnet.Transcript.to_jsonl.calls"] == 1
    assert c["simnet.Transcript.from_jsonl.calls"] == 1
    assert c["simnet.verify_transcript.calls"] == 1
    assert c["adversary.verdicts.replaced"] == extra


def test_cli_counts_and_suppress_verdicts(tmp_path):
    t = 4
    session = workloads.Session(
        {"variant": "ring", "modulus": workloads.DEMO_RING, "members": [f"m{k}" for k in range(t)],
         "seed": 3, "adversary": {"attacker": "m2", "victim": "m1", "action": "suppress"}},
        "suppress")
    with Tracer() as tracer:
        workloads.run_cli(G, session, tmp_path)
    c = tracer.counts
    assert c["cli.run.calls"] == 1 and c["cli.verify.calls"] == 1
    # the victim never processes the broadcast, live or in replay
    assert c["protocol.compute_share.calls"] == 4 * t - 2
    assert c["adversary.verdicts.dropped"] == 1
    assert tracer.self_time["cli.run"] > 0


def test_tracer_restores_every_binding():
    before = _originals()
    with Tracer():
        assert simnet.compute_share is not before[(simnet, "compute_share")]
        assert cli.run_scenario is not before[(cli, "run_scenario")]
    assert _originals() == before
    for mod_name, attr, _ in TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            raw = vars(getattr(sys.modules["gkdsim." + mod_name], cls_name))[meth]
            assert not getattr(raw, "__qualname__", "").startswith("Tracer.")


def test_tampered_transcript_is_rejected(tmp_path):
    session = workloads.Session(_session(3, "forge", workloads.DEMO_FIELD).config, "forge", (7, 0x40))
    workloads.run_cli(G, session, tmp_path)  # raises unless verify exits 3


def test_wrong_verdict_fails_the_session():
    session = workloads.Session(_session(3, "forge").config, "honest")
    with pytest.raises(workloads.SessionFailed):
        workloads.run_library(G, session)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pinned_prefix_repeats(name):
    bench = run.Bench(G, workloads.WORKLOADS[name], 1, workloads.make_pool(1), None)
    if bench.workload.via_cli:
        run.OUT.mkdir(exist_ok=True)
        bench.workdir = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        loop = run.closed_loop(bench, 0)
    finally:
        if bench.workdir is not None:
            shutil.rmtree(bench.workdir)
    assert loop.failed == 0, loop.failures
    assert loop.attempted == bench.workload.prefix
    assert run.pinned_check(name, 1, loop) is None


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [u for u, _ in run.PER_LAYER.values()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
