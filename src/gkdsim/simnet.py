"""Deterministic scenario runner over a simulated broadcast medium.

A scenario is described by a ScenarioConfig (usually a JSON file), executed
into a Transcript (a JSON-lines file with one record per line), and checked
by verify_transcript, which recomputes every derived value from the recorded
keys and randomness and flags any disagreement at the exact event.

Determinism is the whole point: every random draw flows from the config seed
through one SeededRng in a pinned order (modulus generation, member keys in
roster order, one challenge per member in roster order, group key, KGC
nonce, then any attacker target-key draws), and every iteration order is
fixed, so a config maps to byte-identical transcript files on every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .adversary import (
    ActionKind,
    BroadcastSuppressor,
    InsiderContext,
    InsiderInterceptor,
    Interceptor,
)
from .algebra import (
    DomainContext,
    SeededRng,
    Variant,
    domain_new,
    gen_distinct_safe_primes,
    gen_safe_prime,
    sample_element,
)
from .codec import (
    DEFAULT_ID_WIDTH,
    AuthInput,
    HashConfig,
    compute_auth,
    encode_element,
    encode_identifier,
)
from .errors import ConfigError, GkdError, MalformedTranscript
from .protocol import (
    Announcement,
    ChallengeMessage,
    GroupMember,
    GroupRoster,
    KeyGenerationCentre,
    KgcBroadcast,
    OutcomeStatus,
    PartyIdentity,
    Request,
    SessionOutcome,
    compute_share,
    user_process_broadcast,
)

TRANSCRIPT_FORMAT = 1
KGC_NAME = "kgc"

STEP_REQUEST = "request"
STEP_ANNOUNCE = "announce"
STEP_CHALLENGE = "challenge"
STEP_BROADCAST = "broadcast"
_STEPS = (STEP_REQUEST, STEP_ANNOUNCE, STEP_CHALLENGE, STEP_BROADCAST)

VERDICT_DELIVERED = "delivered"
VERDICT_DROPPED = "dropped"
VERDICT_REPLACED = "replaced"
_VERDICTS = (VERDICT_DELIVERED, VERDICT_DROPPED, VERDICT_REPLACED)

ACTION_FORGE = "forge"
ACTION_SUPPRESS = "suppress"


# ---------------------------------------------------------------------------
# wire payloads (hex-encoded in transcript events; see docs/transcript-format.md)
# ---------------------------------------------------------------------------

def roster_payload(member_ids: Iterable[bytes], id_width: int) -> bytes:
    return b"".join(encode_identifier(m, id_width) for m in member_ids)


def parse_roster_payload(data: bytes, id_width: int) -> tuple[bytes, ...]:
    if id_width <= 0 or len(data) % id_width:
        raise MalformedTranscript(f"roster payload of {len(data)} bytes not a multiple of {id_width}")
    return tuple(
        data[i : i + id_width].lstrip(b"\x00") for i in range(0, len(data), id_width)
    )


def broadcast_payload(bcast: KgcBroadcast, ctx: DomainContext) -> bytes:
    return (
        bcast.auth
        + encode_element(bcast.r0, ctx)
        + b"".join(encode_element(u, ctx) for u in bcast.masked_shares)
    )


def parse_broadcast_payload(data: bytes, ctx: DomainContext, digest_size: int, t: int) -> KgcBroadcast:
    expected = digest_size + (t + 1) * ctx.byte_width
    if len(data) != expected:
        raise MalformedTranscript(f"broadcast payload of {len(data)} bytes, expected {expected}")
    auth, rest = data[:digest_size], data[digest_size:]
    vals = [
        int.from_bytes(rest[i : i + ctx.byte_width], "big")
        for i in range(0, len(rest), ctx.byte_width)
    ]
    return KgcBroadcast(auth=auth, r0=vals[0], masked_shares=tuple(vals[1:]))


def _payload_for(message: object, ctx: DomainContext, id_width: int) -> bytes:
    if isinstance(message, (Request, Announcement)):
        return roster_payload(message.members, id_width)
    if isinstance(message, ChallengeMessage):
        return encode_element(message.value, ctx)
    if isinstance(message, KgcBroadcast):
        return broadcast_payload(message, ctx)
    raise TypeError(f"no wire form for {type(message).__name__}")


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdversarySpec:
    """Insider controlling the KGC->victim link: forge a key, or just suppress."""

    attacker: str
    victim: str
    action: str = ACTION_FORGE
    target_key: int | None = None  # None means drawn at attack time, != real key


@dataclass(frozen=True)
class ScenarioConfig:
    variant: Variant
    members: tuple[str, ...]
    p: int | None = None
    q: int | None = None
    bits: int | None = None
    keys: Mapping[str, int] | None = None
    initiator: str | None = None
    seed: int = 0
    hash_cfg: HashConfig = field(default_factory=HashConfig)
    id_width: int = DEFAULT_ID_WIDTH
    adversary: AdversarySpec | None = None
    redact: bool = False

    @classmethod
    def from_dict(cls, d: Mapping) -> "ScenarioConfig":
        known = {
            "variant", "members", "modulus", "keys", "initiator",
            "seed", "hash", "id_width", "adversary", "redact",
        }
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            variant = Variant(d["variant"])
        except (KeyError, ValueError):
            raise ConfigError("variant must be 'ring' or 'field'") from None
        members = d.get("members")
        if not isinstance(members, (list, tuple)) or not members:
            raise ConfigError("members must be a non-empty list of names")

        mod = d.get("modulus")
        if not isinstance(mod, Mapping):
            raise ConfigError("modulus must be an object with p/q or bits")
        mod_unknown = set(mod) - {"p", "q", "bits"}
        if mod_unknown:
            raise ConfigError(f"unknown modulus keys: {sorted(mod_unknown)}")

        adv = d.get("adversary")
        adv_spec = None
        if adv is not None:
            if not isinstance(adv, Mapping):
                raise ConfigError("adversary must be an object or null")
            adv_unknown = set(adv) - {"attacker", "victim", "action", "target_key"}
            if adv_unknown:
                raise ConfigError(f"unknown adversary keys: {sorted(adv_unknown)}")
            target = adv.get("target_key")
            if target == "random":
                target = None
            adv_spec = AdversarySpec(
                attacker=adv.get("attacker"),
                victim=adv.get("victim"),
                action=adv.get("action", ACTION_FORGE),
                target_key=target,
            )

        hash_d = d.get("hash", {})
        if not isinstance(hash_d, Mapping):
            raise ConfigError("hash must be an object")
        try:
            hash_cfg = HashConfig(
                algorithm=hash_d.get("algorithm", "sha256"),
                element_hash=hash_d.get("element_hash"),
            )
        except ValueError as e:
            raise ConfigError(f"bad hash config: {e}") from None

        cfg = cls(
            variant=variant,
            members=tuple(members),
            p=mod.get("p"),
            q=mod.get("q"),
            bits=mod.get("bits"),
            keys=dict(d["keys"]) if d.get("keys") is not None else None,
            initiator=d.get("initiator"),
            seed=d.get("seed", 0),
            hash_cfg=hash_cfg,
            id_width=d.get("id_width", DEFAULT_ID_WIDTH),
            adversary=adv_spec,
            redact=bool(d.get("redact", False)),
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        try:
            text = Path(path).read_text()
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(d)

    def validate(self) -> None:
        if len(self.members) < 2:
            raise ConfigError("a session needs at least two members")
        if len(set(self.members)) != len(self.members):
            raise ConfigError("duplicate member names")
        for name in self.members:
            if not isinstance(name, str) or not name:
                raise ConfigError("member names must be non-empty strings")
            if name == KGC_NAME:
                raise ConfigError(f"member name {KGC_NAME!r} is reserved")
            if len(name.encode()) > self.id_width:
                raise ConfigError(f"member name {name!r} exceeds id width {self.id_width}")
        if not isinstance(self.id_width, int) or self.id_width < 1:
            raise ConfigError("id_width must be a positive integer")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")

        has_explicit = self.p is not None
        if has_explicit == (self.bits is not None):
            raise ConfigError("modulus needs either explicit primes or bits, not both")
        if self.bits is not None and (not isinstance(self.bits, int) or self.bits < 3):
            raise ConfigError("modulus bits must be an integer >= 3")
        if self.variant is Variant.RING and has_explicit and self.q is None:
            raise ConfigError("ring variant needs both p and q")
        if self.variant is Variant.FIELD and self.q is not None:
            raise ConfigError("field variant takes a single prime p")
        for v in (self.p, self.q):
            if v is not None and (not isinstance(v, int) or v < 2):
                raise ConfigError("primes must be integers >= 2")

        if self.keys is not None:
            stray = set(self.keys) - set(self.members)
            if stray:
                raise ConfigError(f"keys given for non-members: {sorted(stray)}")
            for name, k in self.keys.items():
                if not isinstance(k, int) or k < 0:
                    raise ConfigError(f"key for {name!r} must be a non-negative integer")

        if self.initiator is not None and self.initiator not in self.members:
            raise ConfigError(f"initiator {self.initiator!r} not among members")

        adv = self.adversary
        if adv is not None:
            if adv.action not in (ACTION_FORGE, ACTION_SUPPRESS):
                raise ConfigError(f"adversary action must be forge or suppress, got {adv.action!r}")
            for role, name in (("attacker", adv.attacker), ("victim", adv.victim)):
                if name not in self.members:
                    raise ConfigError(f"adversary {role} {name!r} not among members")
            if adv.attacker == adv.victim:
                raise ConfigError("attacker and victim must be distinct")
            if adv.target_key is not None:
                if adv.action == ACTION_SUPPRESS:
                    raise ConfigError("suppress action takes no target key")
                if not isinstance(adv.target_key, int) or adv.target_key < 0:
                    raise ConfigError("target_key must be a non-negative integer or 'random'")


# ---------------------------------------------------------------------------
# transcript records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TranscriptEvent:
    index: int
    step: str
    sender: str
    receivers: tuple[str, ...]
    payload: bytes
    verdict: str
    delivered_payload: bytes | None = None  # only for replaced verdicts


@dataclass(frozen=True)
class OutcomeRecord:
    member: str
    status: str
    key: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class AdversaryTruth:
    attacker: str
    victim: str
    action: str
    recovered_key: int | None = None
    target_key: int | None = None


@dataclass(frozen=True)
class GroundTruth:
    group_key: int
    r0: int
    member_keys: Mapping[str, int]
    challenges: Mapping[str, int]
    adversary: AdversaryTruth | None = None


@dataclass(frozen=True)
class Transcript:
    """Everything that happened, in order, plus ground truth unless redacted."""

    meta: Mapping
    events: tuple[TranscriptEvent, ...]
    outcomes: tuple[OutcomeRecord, ...]
    ground_truth: GroundTruth | None = None

    def to_jsonl(self) -> str:
        lines = [_dump({"record": "meta", **self.meta})]
        for ev in self.events:
            rec = {
                "record": "event",
                "index": ev.index,
                "step": ev.step,
                "sender": ev.sender,
                "receivers": list(ev.receivers),
                "payload": ev.payload.hex(),
                "verdict": ev.verdict,
            }
            if ev.delivered_payload is not None:
                rec["delivered_payload"] = ev.delivered_payload.hex()
            lines.append(_dump(rec))
        for oc in self.outcomes:
            rec = {"record": "outcome", "member": oc.member, "status": oc.status}
            if oc.key is not None:
                rec["key"] = oc.key
            if oc.reason is not None:
                rec["reason"] = oc.reason
            lines.append(_dump(rec))
        gt = self.ground_truth
        if gt is not None:
            rec = {
                "record": "ground_truth",
                "group_key": gt.group_key,
                "r0": gt.r0,
                "member_keys": dict(gt.member_keys),
                "challenges": dict(gt.challenges),
                "adversary": None,
            }
            if gt.adversary is not None:
                rec["adversary"] = {
                    "attacker": gt.adversary.attacker,
                    "victim": gt.adversary.victim,
                    "action": gt.adversary.action,
                    "recovered_key": gt.adversary.recovered_key,
                    "target_key": gt.adversary.target_key,
                }
            lines.append(_dump(rec))
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        meta = None
        events: list[TranscriptEvent] = []
        outcomes: list[OutcomeRecord] = []
        ground_truth = None
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise MalformedTranscript(f"line {lineno}: not valid JSON: {e}") from None
            if not isinstance(rec, dict) or "record" not in rec:
                raise MalformedTranscript(f"line {lineno}: missing record type")
            kind = rec.pop("record")
            try:
                if kind == "meta":
                    if meta is not None:
                        raise MalformedTranscript("duplicate meta record")
                    meta = rec
                elif kind == "event":
                    payload = bytes.fromhex(rec.pop("payload"))
                    delivered = rec.pop("delivered_payload", None)
                    events.append(
                        TranscriptEvent(
                            index=rec.pop("index"),
                            step=rec.pop("step"),
                            sender=rec.pop("sender"),
                            receivers=tuple(rec.pop("receivers")),
                            payload=payload,
                            verdict=rec.pop("verdict"),
                            delivered_payload=(
                                bytes.fromhex(delivered) if delivered is not None else None
                            ),
                        )
                    )
                    if rec:
                        raise MalformedTranscript(f"unexpected event fields {sorted(rec)}")
                elif kind == "outcome":
                    outcomes.append(
                        OutcomeRecord(
                            member=rec.pop("member"),
                            status=rec.pop("status"),
                            key=rec.pop("key", None),
                            reason=rec.pop("reason", None),
                        )
                    )
                    if rec:
                        raise MalformedTranscript(f"unexpected outcome fields {sorted(rec)}")
                elif kind == "ground_truth":
                    adv = rec.get("adversary")
                    ground_truth = GroundTruth(
                        group_key=rec["group_key"],
                        r0=rec["r0"],
                        member_keys=dict(rec["member_keys"]),
                        challenges=dict(rec["challenges"]),
                        adversary=AdversaryTruth(**adv) if adv is not None else None,
                    )
                else:
                    raise MalformedTranscript(f"unknown record type {kind!r}")
            except MalformedTranscript:
                raise
            except (KeyError, TypeError, ValueError) as e:
                raise MalformedTranscript(f"line {lineno}: {e}") from None
        if meta is None:
            raise MalformedTranscript("no meta record")
        return cls(
            meta=meta,
            events=tuple(events),
            outcomes=tuple(outcomes),
            ground_truth=ground_truth,
        )

    @classmethod
    def load(cls, path: str | Path) -> "Transcript":
        try:
            text = Path(path).read_text()
        except OSError as e:
            raise MalformedTranscript(f"cannot read transcript: {e}") from None
        return cls.from_jsonl(text)


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

class _Network:
    """Per-link delivery with interceptors; records one event per verdict group."""

    def __init__(self, ctx: DomainContext, id_width: int):
        self.ctx = ctx
        self.id_width = id_width
        self.events: list[TranscriptEvent] = []
        self.interceptors: dict[str, dict[str, Interceptor]] = {}  # sender -> receiver -> icpt

    def control_link(self, sender: str, receiver: str, interceptor: Interceptor) -> None:
        self.interceptors.setdefault(sender, {})[receiver] = interceptor

    def send(self, step: str, sender: str, receivers: tuple[str, ...], message: object, deliver) -> None:
        """Record and deliver one message; deliver(receivers, message) hands it over."""
        payload = _payload_for(message, self.ctx, self.id_width)
        observers = {id(i): i for links in self.interceptors.values() for i in links.values()}
        for icpt in observers.values():
            icpt.observe(sender.encode(), tuple(map(str.encode, receivers)), message)
        links = self.interceptors.get(sender, {})
        controlled = tuple(r for r in receivers if r in links) if links else ()
        plain = tuple(r for r in receivers if r not in links) if controlled else tuple(receivers)
        # uncontrolled links first: an insider's own copy lands before it can forge
        if plain:
            self._event(step, sender, plain, payload, VERDICT_DELIVERED)
            deliver(plain, message)
        for r in controlled:
            action = links[r].intercept(sender.encode(), r.encode(), message)
            if action.kind is ActionKind.DELIVER:
                self._event(step, sender, (r,), payload, VERDICT_DELIVERED)
                deliver((r,), message)
            elif action.kind is ActionKind.DROP:
                self._event(step, sender, (r,), payload, VERDICT_DROPPED)
            else:
                if type(action.message) is not type(message):
                    raise GkdError("replacement must be the same message kind as the original")
                substitute = _payload_for(action.message, self.ctx, self.id_width)
                self._event(step, sender, (r,), payload, VERDICT_REPLACED, substitute)
                deliver((r,), action.message)

    def _event(self, step, sender, receivers, payload, verdict, delivered=None):
        self.events.append(
            TranscriptEvent(
                index=len(self.events),
                step=step,
                sender=sender,
                receivers=receivers,
                payload=payload,
                verdict=verdict,
                delivered_payload=delivered,
            )
        )


def _build_context(cfg: ScenarioConfig, rng: SeededRng) -> tuple[DomainContext, int, int | None]:
    """Resolve the modulus spec into a context; returns (ctx, p, q)."""
    try:
        if cfg.bits is not None:
            if cfg.variant is Variant.RING:
                p, q = gen_distinct_safe_primes(cfg.bits, rng)
                return domain_new(p, q, variant=cfg.variant), p, q
            p = gen_safe_prime(cfg.bits, rng)
            return domain_new(p, variant=cfg.variant), p, None
        if cfg.variant is Variant.RING:
            return domain_new(cfg.p, cfg.q, variant=cfg.variant), cfg.p, cfg.q
        return domain_new(cfg.p, variant=cfg.variant), cfg.p, None
    except GkdError as e:
        raise ConfigError(f"bad modulus parameters: {e}") from e


def run_scenario(cfg: ScenarioConfig) -> Transcript:
    """Execute one full session under the configured conditions.

    Pure function of the config: the same config always yields a transcript
    with byte-identical serialization.
    """
    cfg.validate()
    rng = SeededRng(cfg.seed)
    ctx, p, q = _build_context(cfg, rng)

    names = cfg.members
    ids = {name: name.encode() for name in names}
    roster = GroupRoster(tuple(ids[n] for n in names))
    keys: dict[str, int] = {}
    for name in names:
        if cfg.keys is not None and name in cfg.keys:
            keys[name] = ctx.reduce(cfg.keys[name])
        else:
            keys[name] = sample_element(rng, ctx)

    kgc = KeyGenerationCentre(ctx, cfg.variant, cfg.hash_cfg, cfg.id_width)
    members: dict[str, GroupMember] = {}
    for name in names:
        identity = PartyIdentity(ids[name], keys[name])
        kgc.register(identity)
        members[name] = GroupMember(identity, ctx, cfg.variant, cfg.hash_cfg, cfg.id_width)

    net = _Network(ctx, cfg.id_width)
    insider = None
    suppressor = None
    if cfg.adversary is not None:
        adv = cfg.adversary
        if adv.action == ACTION_FORGE:
            ictx = InsiderContext(
                attacker=PartyIdentity(ids[adv.attacker], keys[adv.attacker]),
                victim_index=names.index(adv.victim),
                target_key=adv.target_key,
            )
            insider = InsiderInterceptor(ictx, roster, cfg.variant, ctx, cfg.hash_cfg, cfg.id_width, rng)
            net.control_link(KGC_NAME, adv.victim, insider)
        else:
            suppressor = BroadcastSuppressor(ids[adv.victim])
            net.control_link(KGC_NAME, adv.victim, suppressor)

    def deliver(receivers: tuple[str, ...], message: object) -> None:
        # the KGC takes only challenges: the driver answers the request by calling announce
        if isinstance(message, ChallengeMessage):
            for r in receivers:
                if r == KGC_NAME:
                    kgc.receive_challenge(message)
                else:
                    members[r].observe_challenge(message)
        elif isinstance(message, Announcement):
            for r in receivers:
                members[r].receive_announcement(message)
        elif isinstance(message, KgcBroadcast):
            for r in receivers:
                members[r].receive_broadcast(message)

    initiator = cfg.initiator or names[0]
    net.send(STEP_REQUEST, initiator, (KGC_NAME,), Request(roster.members), deliver)

    ann = kgc.announce(roster.members)
    net.send(STEP_ANNOUNCE, KGC_NAME, names, ann, deliver)

    issued: dict[str, int] = {}
    for i, name in enumerate(names):
        member = members[name]
        if member.roster is None:
            continue  # never announced to (interceptor dropped it): will time out
        msg = member.issue_challenge(rng)
        issued[name] = msg.value
        net.send(STEP_CHALLENGE, name, (KGC_NAME, *names[:i], *names[i + 1 :]), msg, deliver)

    bcast, group_key = kgc.distribute(rng)
    net.send(STEP_BROADCAST, KGC_NAME, names, bcast, deliver)

    outcomes = []
    for name in names:
        oc = members[name].finalize()
        outcomes.append(
            OutcomeRecord(
                member=name,
                status=oc.status.value,
                key=oc.key,
                reason=oc.reason,
            )
        )

    adv_meta = None
    adv_truth = None
    if cfg.adversary is not None:
        adv = cfg.adversary
        adv_meta = {"attacker": adv.attacker, "victim": adv.victim, "action": adv.action}
        adv_truth = AdversaryTruth(
            attacker=adv.attacker,
            victim=adv.victim,
            action=adv.action,
            recovered_key=insider.recovered_key if insider else None,
            target_key=insider.forged_key if insider else None,
        )

    meta = {
        "format": TRANSCRIPT_FORMAT,
        "variant": cfg.variant.value,
        "modulus": ctx.modulus,
        "p": p,
        "q": q,
        "byte_width": ctx.byte_width,
        "digest_size": cfg.hash_cfg.digest_size,
        "hash_algorithm": cfg.hash_cfg.algorithm,
        "element_hash": cfg.hash_cfg.element_hash,
        "id_width": cfg.id_width,
        "members": list(names),
        "initiator": initiator,
        "seed": cfg.seed,
        "t": len(names),
        "adversary": adv_meta,
        "redacted": cfg.redact,
    }
    ground_truth = None
    if not cfg.redact:
        ground_truth = GroundTruth(
            group_key=group_key,
            r0=bcast.r0,
            member_keys=dict(keys),
            challenges=issued,
            adversary=adv_truth,
        )
    return Transcript(
        meta=meta,
        events=tuple(net.events),
        outcomes=tuple(outcomes),
        ground_truth=ground_truth,
    )


# ---------------------------------------------------------------------------
# transcript verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    """What was checked, what disagreed, and what could not be checked."""

    checks: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def note(self, line: str) -> None:
        self.checks.append(line)

    def fail(self, line: str) -> None:
        self.mismatches.append(line)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise MalformedTranscript(msg)


def verify_transcript(tr: Transcript) -> VerificationReport:
    """Recompute every derived value from the recorded keys and randomness.

    Structural damage raises MalformedTranscript; every disagreement between
    a recorded value and its recomputation lands in the report, naming the
    event it was found at. Redacted transcripts get the structural and
    wire-level checks only.
    """
    report = VerificationReport()
    meta = tr.meta
    for key in (
        "format", "variant", "modulus", "byte_width", "digest_size",
        "hash_algorithm", "element_hash", "id_width", "members", "initiator",
        "t", "redacted",
    ):
        _require(key in meta, f"meta missing {key!r}")
    _require(meta["format"] == TRANSCRIPT_FORMAT, f"unsupported format {meta['format']!r}")
    try:
        variant = Variant(meta["variant"])
    except ValueError:
        raise MalformedTranscript(f"unknown variant {meta['variant']!r}") from None
    modulus = meta["modulus"]
    _require(isinstance(modulus, int) and modulus >= 2, "modulus must be an integer >= 2")
    byte_width = meta["byte_width"]
    _require(byte_width == (modulus.bit_length() + 7) // 8, "byte_width inconsistent with modulus")
    ctx = DomainContext(modulus=modulus, variant=variant, byte_width=byte_width)
    try:
        hash_cfg = HashConfig(meta["hash_algorithm"], meta["element_hash"])
    except (TypeError, ValueError) as e:
        raise MalformedTranscript(f"bad hash config: {e}") from None
    _require(hash_cfg.digest_size == meta["digest_size"], "digest_size inconsistent with hash")
    id_width = meta["id_width"]
    _require(isinstance(id_width, int) and id_width >= 1, "bad id_width")
    names = meta["members"]
    t = meta["t"]
    _require(
        isinstance(names, list) and all(isinstance(n, str) for n in names),
        "bad member list",
    )
    _require(len(names) == t and isinstance(t, int) and t >= 2, "bad member count")
    _require(len(set(names)) == t, "duplicate members in meta")
    _require(meta["initiator"] in names, "initiator not a member")
    ids = {name: name.encode() for name in names}
    roster = GroupRoster(tuple(ids[n] for n in names))
    report.note("meta: consistent")

    # --- event structure ---
    for i, ev in enumerate(tr.events):
        _require(ev.index == i, f"event {ev.index} out of order at position {i}")
        _require(ev.step in _STEPS, f"event {i}: unknown step {ev.step!r}")
        _require(ev.verdict in _VERDICTS, f"event {i}: unknown verdict {ev.verdict!r}")
        _require(
            (ev.delivered_payload is not None) == (ev.verdict == VERDICT_REPLACED),
            f"event {i}: delivered_payload does not match verdict",
        )
    by_step = {step: [ev for ev in tr.events if ev.step == step] for step in _STEPS}
    _require(len(by_step[STEP_REQUEST]) == 1, "expected exactly one request event")
    _require(len(by_step[STEP_ANNOUNCE]) >= 1, "expected at least one announce event")
    _require(len(by_step[STEP_CHALLENGE]) == t, f"expected {t} challenge events")
    _require(len(by_step[STEP_BROADCAST]) >= 1, "expected at least one broadcast event")
    # a KGC send splits into one event per interceptor verdict group, so
    # announce/broadcast may span several adjacent events on attack runs
    order = [ev.step for ev in tr.events]
    _require(
        order == [STEP_REQUEST]
        + [STEP_ANNOUNCE] * len(by_step[STEP_ANNOUNCE])
        + [STEP_CHALLENGE] * t
        + [STEP_BROADCAST] * len(by_step[STEP_BROADCAST]),
        "events out of protocol order",
    )
    report.note("events: complete and ordered")

    # --- roster echo ---
    request = by_step[STEP_REQUEST][0]
    if request.sender != meta["initiator"] or tuple(request.receivers) != (KGC_NAME,):
        report.fail(f"event {request.index}: request endpoints wrong")
    expected_roster = roster_payload(roster.members, id_width)
    if request.payload != expected_roster:
        report.fail(f"event {request.index}: requested roster differs from meta members")
    announced: list[str] = []
    for ev in by_step[STEP_ANNOUNCE]:
        if ev.sender != KGC_NAME:
            report.fail(f"event {ev.index}: announce not from {KGC_NAME}")
        if ev.payload != expected_roster:
            report.fail(f"event {ev.index}: announced roster differs from meta members")
        announced.extend(ev.receivers)
    if sorted(announced) != sorted(names):
        report.fail("announce events do not cover every member exactly once")

    # --- challenges ---
    challenges: dict[bytes, int] = {}
    for pos, ev in enumerate(by_step[STEP_CHALLENGE]):
        _require(
            isinstance(ev.sender, str) and ev.sender in ids,
            f"event {ev.index}: challenge from unknown sender {ev.sender!r}",
        )
        if ev.sender != names[pos]:
            report.fail(f"event {ev.index}: challenge sender {ev.sender!r} out of roster order")
        if len(ev.payload) != byte_width:
            raise MalformedTranscript(f"event {ev.index}: challenge payload width")
        value = int.from_bytes(ev.payload, "big")
        if not ctx.contains(value):
            report.fail(f"event {ev.index}: challenge value {value} outside [0, m)")
        challenges[ids[ev.sender]] = value
    _require(len(challenges) == t, "challenge events do not cover every member")
    report.note("challenges: one per member, in roster order")

    # --- broadcast events ---
    bcast_events = by_step[STEP_BROADCAST]
    honest_payload = bcast_events[0].payload
    received: dict[str, bytes] = {}
    for ev in bcast_events:
        if ev.sender != KGC_NAME:
            report.fail(f"event {ev.index}: broadcast not from {KGC_NAME}")
        if ev.payload != honest_payload:
            report.fail(f"event {ev.index}: broadcast original differs across events")
        for r in ev.receivers:
            if r in received or r not in ids:
                raise MalformedTranscript(f"event {ev.index}: bad broadcast receiver {r!r}")
            if ev.verdict == VERDICT_DELIVERED:
                received[r] = ev.payload
            elif ev.verdict == VERDICT_REPLACED:
                received[r] = ev.delivered_payload
    honest = parse_broadcast_payload(honest_payload, ctx, hash_cfg.digest_size, t)
    replaced_events = [ev for ev in bcast_events if ev.verdict == VERDICT_REPLACED]
    dropped_events = [ev for ev in bcast_events if ev.verdict == VERDICT_DROPPED]
    report.note("broadcast: framing consistent")

    # --- outcome records present, one per member ---
    _require(len(tr.outcomes) == t, f"expected {t} outcome records")
    _require([oc.member for oc in tr.outcomes] == names, "outcomes not one-per-member in order")
    recorded_outcome = {oc.member: oc for oc in tr.outcomes}

    adv_meta = meta.get("adversary")
    if adv_meta is None:
        if replaced_events or dropped_events:
            report.fail("interceptor verdicts present without a configured adversary")
    else:
        if adv_meta.get("action") == ACTION_FORGE and len(replaced_events) != 1:
            report.fail(f"forge scenario has {len(replaced_events)} replaced events, expected 1")
        if adv_meta.get("action") == ACTION_SUPPRESS and len(dropped_events) != 1:
            report.fail(f"suppress scenario has {len(dropped_events)} dropped events, expected 1")

    gt = tr.ground_truth
    if gt is None:
        report.skipped.append("no ground truth (redacted): share, tag and outcome recomputation skipped")
        return report

    # --- recompute shares, tag, outcomes from recorded keys and randomness ---
    _require(set(gt.member_keys) == set(names), "ground-truth keys do not cover the roster")
    _require(set(gt.challenges) == set(names), "ground-truth challenges do not cover the roster")
    group_key = gt.group_key
    if not ctx.contains(group_key):
        report.fail(f"ground-truth group key {group_key} outside [0, m)")
    for ev in by_step[STEP_CHALLENGE]:
        recorded = int.from_bytes(ev.payload, "big")
        if recorded != gt.challenges[ev.sender]:
            report.fail(
                f"event {ev.index}: challenge value {recorded} differs from "
                f"ground truth {gt.challenges[ev.sender]}"
            )
    if gt.r0 != honest.r0:
        report.fail(
            f"event {bcast_events[0].index}: broadcast nonce {honest.r0} differs "
            f"from ground-truth r0 {gt.r0}"
        )
    nonces = (gt.r0, *(gt.challenges[n] for n in names))
    for i, name in enumerate(names):
        share = compute_share(ctx.reduce(gt.member_keys[name]), nonces, i, variant, ctx, hash_cfg)
        expected_mask = ctx.sub(group_key, share)
        if expected_mask != honest.masked_shares[i]:
            report.fail(
                f"event {bcast_events[0].index}: masked share for {name!r} is "
                f"{honest.masked_shares[i]}, recomputed {expected_mask}"
            )
    expected_auth = compute_auth(
        AuthInput(group_key, roster.members, nonces, honest.masked_shares),
        ctx, hash_cfg, id_width,
    )
    if expected_auth != honest.auth:
        report.fail(f"event {bcast_events[0].index}: tag does not match recomputation")
    report.note("shares and tag: match recomputation from recorded keys and randomness")

    replay_challenges = {ids[n]: gt.challenges[n] for n in names}
    distinct = dict.fromkeys(received.values())  # in transcript order: the first bad one raises
    parsed = {p: parse_broadcast_payload(p, ctx, hash_cfg.digest_size, t) for p in distinct}
    for name in names:
        payload = received.get(name)
        if payload is None:
            expected = SessionOutcome.timeout()
        else:
            identity = PartyIdentity(ids[name], ctx.reduce(gt.member_keys[name]))
            expected = user_process_broadcast(
                identity, roster, replay_challenges,
                parsed[payload], variant, ctx, hash_cfg, id_width,
            )
        rec = recorded_outcome[name]
        if (rec.status, rec.key, rec.reason) != (
            expected.status.value, expected.key, expected.reason,
        ):
            report.fail(
                f"outcome for {name!r}: recorded {rec.status}/{rec.key}, "
                f"recomputed {expected.status.value}/{expected.key}"
            )
    report.note("outcomes: match replayed processing")

    adv = gt.adversary
    if (adv is None) != (adv_meta is None):
        report.fail("ground-truth adversary section inconsistent with meta")
        adv = None
    elif adv is not None:
        recorded_identity = (adv.attacker, adv.victim, adv.action)
        meta_identity = (
            adv_meta.get("attacker"), adv_meta.get("victim"), adv_meta.get("action"),
        )
        if recorded_identity != meta_identity:
            report.fail("ground-truth adversary identity differs from meta")
        if adv.victim not in names or adv.attacker not in names:
            report.fail("ground-truth adversary names someone outside the roster")
            adv = None
        elif adv.action == ACTION_FORGE and adv.target_key is None:
            report.fail("forge scenario lacks a recorded target key")
            adv = None
    if adv is not None and adv.action == ACTION_FORGE and len(replaced_events) == 1:
        ev = replaced_events[0]
        victim = adv.victim
        if tuple(ev.receivers) != (victim,):
            report.fail(f"event {ev.index}: forged broadcast not aimed at the victim")
        forged = parse_broadcast_payload(ev.delivered_payload, ctx, hash_cfg.digest_size, t)
        v = names.index(victim)
        if adv.recovered_key != group_key:
            report.fail("attacker's recovered key differs from the KGC's group key")
        delta_share = ctx.sub(forged.masked_shares[v], honest.masked_shares[v])
        delta_key = ctx.sub(adv.target_key, group_key)
        if delta_share != delta_key:
            report.fail(
                f"event {ev.index}: forged share delta {delta_share} != planted key delta {delta_key}"
            )
        else:
            report.note("forgery algebra: share shift equals key shift (mod m)")
        if forged.r0 != honest.r0:
            report.fail(f"event {ev.index}: forgery altered the KGC nonce")
        diffs = [i for i in range(t) if forged.masked_shares[i] != honest.masked_shares[i]]
        if diffs != [v] or forged.auth == honest.auth:
            report.fail(f"event {ev.index}: forgery does not touch exactly the victim share and tag")
        else:
            report.note("forgery footprint: exactly the victim's share and the tag changed")
        vic = recorded_outcome[victim]
        if not (vic.status == OutcomeStatus.ACCEPTED.value and vic.key == adv.target_key):
            report.fail(f"victim outcome is {vic.status}/{vic.key}, expected accepted target key")
        for name in names:
            if name != victim and received.get(name) == honest_payload:
                oc = recorded_outcome[name]
                if not (oc.status == OutcomeStatus.ACCEPTED.value and oc.key == group_key):
                    report.fail(f"non-victim {name!r} did not accept the true key")
    return report
