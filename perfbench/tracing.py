"""Outside-in tracing of the gkdsim layers for the traced benchmark run.

The tracer wraps public functions and methods of the gkdsim modules from
outside the package. Because simnet, adversary and cli `from`-import names
such as compute_share, compute_auth and run_scenario, a wrapper is rebound in
every gkdsim module that holds the original, not only in the defining one.

Three kinds of instrumentation:

- span: counted, timed and recorded (name, start, end, parent span id,
  session id). Self time is the duration minus the time child spans cover.
- timed: counted and timed like a span, so it is subtracted from its
  parent's self time, but not recorded. Used for observe_challenge, which
  runs about t**2 times per session.
- count: counted only. Used for the per-field helpers, to keep overhead down.

Spans are kept in memory and written out by `write_spans` when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN, TIMED, COUNT = "span", "timed", "count"

# (module, attribute or Class.method, kind); the metric prefix is module.attribute
TARGETS = (
    ("algebra", "gen_safe_prime", SPAN),
    ("algebra", "domain_new", SPAN),
    ("algebra", "is_prime", COUNT),
    ("algebra", "sample_element", COUNT),
    ("algebra", "power_vector", COUNT),
    ("algebra", "inner_product", COUNT),
    ("codec", "compute_auth", SPAN),
    ("codec", "encode_element", COUNT),
    ("codec", "encode_identifier", COUNT),
    ("codec", "hash_to_element", COUNT),
    ("protocol", "compute_share", SPAN),
    ("protocol", "kgc_distribute", SPAN),
    ("protocol", "user_process_broadcast", SPAN),
    ("protocol", "GroupMember.observe_challenge", TIMED),
    ("protocol", "GroupRoster.index_of", COUNT),
    ("adversary", "insider_recover_key", SPAN),
    ("adversary", "forge_broadcast", SPAN),
    ("adversary", "InsiderInterceptor.observe", SPAN),
    ("simnet", "run_scenario", SPAN),
    ("simnet", "verify_transcript", SPAN),
    ("simnet", "Transcript.to_jsonl", SPAN),
    ("simnet", "Transcript.from_jsonl", SPAN),
)

_VERDICT_NAMES = {"deliver": "delivered", "drop": "dropped", "replace": "replaced"}


class Tracer:
    """Counters, per-name busy and self time, and recorded spans of one run.

    Use as a context manager: entering rebinds the wrappers, leaving puts
    every original back.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.session: int | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # --- wrappers -------------------------------------------------------

    def _timed(self, name, fn, record, after=None, name_of=None):
        counts, busy, self_time, stack = self.counts, self.busy, self.self_time, self._stack

        def wrapper(*args, **kwargs):
            span_name = name_of(args) if name_of else name
            counts[span_name + ".calls"] += 1
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                busy[span_name] += duration
                self_time[span_name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record:
                    self.spans.append((span_id, span_name, start, end, parent, self.session))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name, fn, after=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # --- hooks that count work at the same boundaries -------------------

    def _after_run_scenario(self, args, tr):
        c = self.counts
        c["simnet.events"] += len(tr.events)
        for ev in tr.events:
            n = len(ev.receivers)
            c["simnet.wire_bytes." + ev.step] += len(ev.payload) * n
            if ev.verdict != "dropped":
                c["simnet.deliveries"] += n

    def _after_to_jsonl(self, args, text):
        self.counts["simnet.transcript_bytes"] += len(text)

    def _after_build_auth_input(self, args, data):
        self.counts["codec.compute_auth.bytes"] += len(data)

    def _after_gen_safe_prime(self, args, prime):
        self.counts["algebra.safe_prime.returned"] += 1

    def _after_intercept(self, args, action):
        self.counts["adversary.verdicts." + _VERDICT_NAMES[action.kind.value]] += 1

    # --- installation ---------------------------------------------------

    def __enter__(self):
        mods = {name: sys.modules["gkdsim." + name] for name in
                ("algebra", "codec", "protocol", "adversary", "simnet", "cli")}
        hooks = {
            "simnet.run_scenario": self._after_run_scenario,
            "simnet.Transcript.to_jsonl": self._after_to_jsonl,
            "algebra.gen_safe_prime": self._after_gen_safe_prime,
        }
        for mod, attr, kind in TARGETS:
            name = f"{mod}.{attr}"
            after = hooks.get(name)
            if kind == COUNT:
                self._wrap(mods[mod], attr, lambda fn: self._counted(name, fn, after))
            else:
                self._wrap(mods[mod], attr, lambda fn: self._timed(name, fn, kind == SPAN, after))
        self._wrap(mods["codec"], "build_auth_input",
                   lambda fn: self._counted("codec.build_auth_input", fn,
                                            self._after_build_auth_input))
        for cls in ("InsiderInterceptor", "BroadcastSuppressor"):
            self._wrap(mods["adversary"], cls + ".intercept",
                       lambda fn: self._counted("adversary." + cls + ".intercept", fn,
                                                self._after_intercept))
        self._wrap(mods["cli"], "main", lambda fn: self._timed(
            "cli.main", fn, True, name_of=lambda args: "cli." + args[0][0]))
        return self

    def _wrap(self, home, attr, make):
        """Replace home.attr (or home.Class.method) by make(original), everywhere it is bound."""
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(cls, meth, new)
            self._undo.append((cls, meth, raw))
            return
        original = getattr(home, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gkdsim" and not mod_name.startswith("gkdsim."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def __exit__(self, *exc):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)
        return False

    # --- output ---------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, session in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "session": session,
                }, separators=(",", ":")) + "\n")
