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

import functools
import json
import os
import stat
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
    PublicParams,
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

MAX_BITS = 512  # bits per prime, drawn or explicit; a 512-bit ring pair took 2.3 s (8-seed median, 2 vCPUs)
MAX_ID_WIDTH = 255

_RECORD_ORDER = ("meta", "event", "outcome", "ground_truth")
_EVENT_FIELDS = frozenset(("index", "step", "sender", "receivers", "payload", "verdict"))
_REPLACED_FIELDS = _EVENT_FIELDS | {"delivered_payload"}
_ACCEPTED_FIELDS = frozenset(("member", "status", "key"))
_UNACCEPTED_FIELDS = frozenset(("member", "status", "reason"))
_DERIVED_FIELDS = ("format", "modulus", "byte_width", "digest_size", "t")
_TRUTH_FIELDS = frozenset(("group_key", "r0", "member_keys", "challenges", "adversary"))
_ADVERSARY_FIELDS = frozenset(("attacker", "victim", "action", "recovered_key", "target_key"))
_STATUSES = tuple(s.value for s in OutcomeStatus)
_ACCEPTED = OutcomeStatus.ACCEPTED.value
_TIMEOUT = OutcomeStatus.TIMEOUT.value
_STR_TYPE = frozenset((str,))
_ADVERSARY_KEYS = frozenset(("attacker", "victim", "action", "target_key"))


# ---------------------------------------------------------------------------
# wire payloads (hex-encoded in transcript events; see docs/transcript-format.md)
# ---------------------------------------------------------------------------

def roster_payload(member_ids: Iterable[bytes], id_width: int) -> bytes:
    return b"".join(encode_identifier(m, id_width) for m in member_ids)


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


# Field typing shared by configs and transcript metas; validate checks the values.

def _variant(value: object) -> Variant:
    try:
        return Variant(value)
    except ValueError:
        raise ConfigError("variant must be 'ring' or 'field'") from None


def _names(value: object) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError("members must be a list of names")
    return tuple(value)


def _hash_config(algorithm: object, element_hash: object) -> HashConfig:
    try:
        return HashConfig(algorithm, element_hash)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad hash config: {e}") from None


def _adversary_spec(adv: object) -> AdversarySpec | None:
    if adv is None:
        return None
    if not isinstance(adv, Mapping):
        raise ConfigError("adversary must be an object or null")
    unknown = adv.keys() - _ADVERSARY_KEYS
    if unknown:
        raise ConfigError(f"unknown adversary keys: {sorted(unknown)}")
    target = adv.get("target_key")
    return AdversarySpec(adv.get("attacker"), adv.get("victim"), adv.get("action", ACTION_FORGE),
                         None if target == "random" else target)


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
        mod, hash_d = d.get("modulus"), d.get("hash", {})
        if not isinstance(mod, Mapping):
            raise ConfigError("modulus must be an object with p/q or bits")
        mod_unknown = set(mod) - {"p", "q", "bits"}
        if mod_unknown:
            raise ConfigError(f"unknown modulus keys: {sorted(mod_unknown)}")
        if not isinstance(hash_d, Mapping):
            raise ConfigError("hash must be an object")

        cfg = cls(
            variant=_variant(d.get("variant")),
            members=_names(d.get("members")),
            p=mod.get("p"),
            q=mod.get("q"),
            bits=mod.get("bits"),
            keys=d.get("keys"),
            initiator=d.get("initiator"),
            seed=d.get("seed", 0),
            hash_cfg=_hash_config(hash_d.get("algorithm", "sha256"), hash_d.get("element_hash")),
            id_width=d.get("id_width", DEFAULT_ID_WIDTH),
            adversary=_adversary_spec(d.get("adversary")),
            redact=d.get("redact", False),
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}") from None
        try:
            d = json.loads(text)
        except (ValueError, RecursionError) as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(d)

    def validate(self) -> None:
        """Type and check every field; build_domain proves the primes."""
        members, id_width, adv = self.members, self.id_width, self.adversary
        if type(id_width) is not int or not 1 <= id_width <= MAX_ID_WIDTH:
            raise ConfigError(f"id_width must be an integer in [1, {MAX_ID_WIDTH}]")
        if not all(isinstance(name, str) and name for name in members):
            raise ConfigError("member names must be non-empty strings")
        if len(members) < 2:
            raise ConfigError("a session needs at least two members")
        if len(set(members)) != len(members):
            raise ConfigError("duplicate member names")
        if KGC_NAME in members:
            raise ConfigError(f"member name {KGC_NAME!r} is reserved")
        try:
            too_long = [name for name in members if len(name.encode()) > id_width]
        except UnicodeEncodeError:
            raise ConfigError("member names must be encodable as UTF-8") from None
        if too_long:
            raise ConfigError(f"member name {too_long[0]!r} exceeds id width {id_width}")

        if adv is not None:
            if adv.action not in (ACTION_FORGE, ACTION_SUPPRESS):
                raise ConfigError(f"adversary action must be forge or suppress, got {adv.action!r}")
            for role, name in (("attacker", adv.attacker), ("victim", adv.victim)):
                if name not in members:
                    raise ConfigError(f"adversary {role} {name!r} not among members")
            if adv.attacker == adv.victim:
                raise ConfigError("attacker and victim must be distinct")
            if adv.target_key is not None and adv.action == ACTION_SUPPRESS:
                raise ConfigError("suppress action takes no target key")
            if adv.target_key is not None and (type(adv.target_key) is not int or adv.target_key < 0):
                raise ConfigError("target_key must be a non-negative integer or 'random'")

        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if type(self.redact) is not bool:
            raise ConfigError("redact must be true or false")
        _check_modulus_shape(self.variant, self.p, self.q, self.bits)

        if self.keys is not None:
            if not isinstance(self.keys, Mapping):
                raise ConfigError("keys must be an object")
            stray = set(self.keys) - set(self.members)
            if stray:
                raise ConfigError(f"keys given for non-members: {sorted(stray)}")
            for name, k in self.keys.items():
                if type(k) is not int or k < 0:
                    raise ConfigError(f"key for {name!r} must be a non-negative integer")

        if self.initiator is not None and self.initiator not in self.members:
            raise ConfigError(f"initiator {self.initiator!r} not among members")


# ---------------------------------------------------------------------------
# transcript records
# ---------------------------------------------------------------------------

def _check_fields(rec: object, fields: frozenset[str], what: str) -> None:
    """rec must be an object with exactly the given fields."""
    if not isinstance(rec, dict) or rec.keys() != fields:
        found = sorted(rec) if isinstance(rec, dict) else type(rec).__name__
        raise MalformedTranscript(f"{what} needs the fields {sorted(fields)}, got {found}")


def _residue(value: object, ctx: DomainContext, what: str) -> int:
    if type(value) is not int or not ctx.contains(value):
        raise MalformedTranscript(f"{what} must be a residue in [0, {ctx.modulus})")
    return value


def _residues(value: object, ctx: DomainContext, what: str) -> dict[str, int]:
    m = ctx.modulus
    ok = isinstance(value, dict) and all(type(v) is int and 0 <= v < m for v in value.values())
    if not ok:
        raise MalformedTranscript(f"{what} must map names to residues in [0, {m})")
    return value


@dataclass(frozen=True)
class TranscriptMeta:
    """The header record: public parameters, roster and run settings."""

    params: PublicParams
    p: int
    q: int | None
    members: tuple[str, ...]
    initiator: str
    seed: int
    redacted: bool
    adversary: AdversarySpec | None = None  # target_key stays None: ground truth records it

    @property
    def t(self) -> int:
        return len(self.members)

    def to_record(self) -> dict:
        adv, params, ctx = self.adversary, self.params, self.params.ctx
        return {
            "format": TRANSCRIPT_FORMAT,
            "variant": ctx.variant.value,
            "modulus": ctx.modulus,
            "p": self.p,
            "q": self.q,
            "byte_width": ctx.byte_width,
            "digest_size": params.hash_cfg.digest_size,
            "hash_algorithm": params.hash_cfg.algorithm,
            "element_hash": params.hash_cfg.element_hash,
            "id_width": params.id_width,
            "members": list(self.members),
            "initiator": self.initiator,
            "seed": self.seed,
            "t": self.t,
            "adversary": adv and dict(attacker=adv.attacker, victim=adv.victim, action=adv.action),
            "redacted": self.redacted,
        }

    @classmethod
    def from_config(cls, cfg: ScenarioConfig, ctx: DomainContext, p: int, q: int | None) -> "TranscriptMeta":
        """The meta of a run of cfg over the domain build_domain returned for it."""
        adv = cfg.adversary
        if adv is not None and adv.target_key is not None:  # ground truth records it
            adv = AdversarySpec(adv.attacker, adv.victim, adv.action)
        return cls(PublicParams(ctx, cfg.hash_cfg, cfg.id_width), p, q, cfg.members,
                   cfg.initiator or cfg.members[0], cfg.seed, cfg.redact, adv)

    @classmethod
    def from_record(cls, rec: dict) -> "TranscriptMeta":
        """Check the fields a meta is built from as a config's, proving p and q with build_domain,
        then require rec to hold exactly what that meta writes: the key set and derived ints."""
        try:
            cfg = ScenarioConfig(
                _variant(rec.get("variant")), _names(rec.get("members")), rec.get("p"), rec.get("q"),
                initiator=rec.get("initiator"), seed=rec.get("seed"),
                hash_cfg=_hash_config(rec.get("hash_algorithm"), rec.get("element_hash")),
                id_width=rec.get("id_width"), adversary=_adversary_spec(rec.get("adversary")),
                redact=rec.get("redacted"),
            )
            cfg.validate()
            meta = cls.from_config(cfg, *build_domain(cfg.variant, None, p=cfg.p, q=cfg.q))
        except ConfigError as e:
            raise MalformedTranscript(f"meta: {e}") from None
        expected = meta.to_record()
        if rec != expected or not all(type(rec[k]) is int for k in _DERIVED_FIELDS):
            wrong = sorted(k for k in expected.keys() | rec.keys()
                           if _dump(rec.get(k)) != _dump(expected.get(k)))
            raise MalformedTranscript(f"meta: fields {wrong} missing, unknown or wrong")
        return meta


@dataclass(frozen=True)
class TranscriptEvent:
    index: int
    step: str
    sender: str
    receivers: tuple[str, ...]
    payload: bytes
    verdict: str
    delivered_payload: bytes | None = None  # only for replaced verdicts

    @classmethod
    def from_record(cls, rec: dict, index: int) -> "TranscriptEvent":
        replaced = rec.get("verdict") == VERDICT_REPLACED
        _check_fields(rec, _REPLACED_FIELDS if replaced else _EVENT_FIELDS, "event")
        step, sender, verdict = rec["step"], rec["sender"], rec["verdict"]
        receivers = rec["receivers"]
        if type(rec["index"]) is not int or rec["index"] != index:
            raise MalformedTranscript(f"event {rec['index']!r} out of order at position {index}")
        if step not in _STEPS or verdict not in _VERDICTS:
            raise MalformedTranscript(f"event {index}: unknown step or verdict")
        if type(sender) is not str or type(receivers) is not list or not (
            set(map(type, receivers)) <= _STR_TYPE
        ):
            raise MalformedTranscript(f"event {index}: sender and receivers must be names")
        try:
            payload = bytes.fromhex(rec["payload"])
            delivered = bytes.fromhex(rec["delivered_payload"]) if replaced else None
        except (TypeError, ValueError):
            raise MalformedTranscript(f"event {index}: payloads must be hex strings") from None
        return cls(index, step, sender, tuple(receivers), payload, verdict, delivered)


@dataclass(frozen=True)
class OutcomeRecord:
    member: str
    status: str
    key: int | None = None
    reason: str | None = None

    def to_record(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}

    @classmethod
    def from_record(cls, rec: dict, ctx: DomainContext) -> "OutcomeRecord":
        """A key exactly when accepted, a residue; a reason exactly when not."""
        accepted = rec.get("status") == _ACCEPTED
        _check_fields(rec, _ACCEPTED_FIELDS if accepted else _UNACCEPTED_FIELDS, "outcome")
        member, status = rec["member"], rec["status"]
        if type(member) is not str or status not in _STATUSES:
            raise MalformedTranscript(f"outcome for {member!r}: bad member or status")
        if accepted:
            return cls(member, status, key=_residue(rec["key"], ctx, f"outcome key of {member!r}"))
        if type(rec["reason"]) is not str:
            raise MalformedTranscript(f"outcome for {member!r}: reason must be a string")
        return cls(member, status, reason=rec["reason"])


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

    def to_record(self) -> dict:
        return {**vars(self), "adversary": self.adversary and vars(self.adversary)}

    @classmethod
    def from_record(cls, rec: dict, ctx: DomainContext) -> "GroundTruth":
        _check_fields(rec, _TRUTH_FIELDS, "ground_truth")
        adv = rec["adversary"]
        if adv is not None:
            roles = ("attacker", "victim", "action")
            _check_fields(adv, _ADVERSARY_FIELDS, "ground_truth adversary")
            if not all(type(adv[k]) is str for k in roles):
                raise MalformedTranscript("ground_truth adversary: roles must be strings")
            adv = AdversaryTruth(*(adv[k] for k in roles), *(
                None if adv[k] is None else _residue(adv[k], ctx, f"adversary {k}")
                for k in ("recovered_key", "target_key")
            ))
        return cls(
            _residue(rec["group_key"], ctx, "group_key"), _residue(rec["r0"], ctx, "r0"),
            _residues(rec["member_keys"], ctx, "member_keys"),
            _residues(rec["challenges"], ctx, "challenges"), adv,
        )


@dataclass(frozen=True)
class Transcript:
    """Everything that happened, in order, plus ground truth unless redacted."""

    meta: TranscriptMeta
    events: tuple[TranscriptEvent, ...]
    outcomes: tuple[OutcomeRecord, ...]
    ground_truth: GroundTruth | None = None

    def to_jsonl(self) -> str:
        lines = [_dump({"record": "meta", **self.meta.to_record()})]
        lines += _event_lines(self.events)
        lines += (_dump({"record": "outcome", **oc.to_record()}) for oc in self.outcomes)
        if self.ground_truth is not None:
            lines.append(_dump({"record": "ground_truth", **self.ground_truth.to_record()}))
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> None:
        write_text(path, self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        """Parse and type-check every record, in the order the format fixes:
        one meta, the events, the outcomes, then at most one ground_truth."""
        meta = ground_truth = None
        events: list[TranscriptEvent] = []
        outcomes: list[OutcomeRecord] = []
        last = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as e:
                raise MalformedTranscript(f"line {lineno}: not valid JSON: {e}") from None
            kind = rec.pop("record", None) if isinstance(rec, dict) else None
            if kind not in _RECORD_ORDER:
                raise MalformedTranscript(f"line {lineno}: unknown record type {kind!r}")
            rank = _RECORD_ORDER.index(kind)
            if (kind == "meta") != (meta is None) or rank < last or ground_truth is not None:
                raise MalformedTranscript(f"line {lineno}: {kind} record out of order")
            last = rank
            try:
                if kind == "meta":
                    meta = TranscriptMeta.from_record(rec)
                elif kind == "event":
                    events.append(TranscriptEvent.from_record(rec, len(events)))
                elif kind == "outcome":
                    outcomes.append(OutcomeRecord.from_record(rec, meta.params.ctx))
                else:
                    ground_truth = GroundTruth.from_record(rec, meta.params.ctx)
            except MalformedTranscript as e:
                raise MalformedTranscript(f"line {lineno}: {e}") from None
        if meta is None:
            raise MalformedTranscript("no meta record")
        return cls(meta, tuple(events), tuple(outcomes), ground_truth)

    @classmethod
    def load(cls, path: str | Path) -> "Transcript":
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise MalformedTranscript(f"cannot read transcript: {e}") from None
        return cls.from_jsonl(text)


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # json.dumps builds one per call


def _dump(obj: object) -> str:
    return _ENCODER.encode(obj)


class _Quoted(dict):
    """name -> its JSON string, encoded by _dump on first use."""

    def __missing__(self, name: str) -> str:
        self[name] = quoted = _dump(name)
        return quoted


def _event_lines(events: Iterable[TranscriptEvent]) -> Iterable[str]:
    """Each event as _dump writes {"record": "event", **fields}: keys sorted, hex
    payloads, delivered_payload only on replaced events, and every name, step
    and verdict JSON-encoded once per transcript, not once per appearance."""
    q = _Quoted().__getitem__
    for ev in events:
        head = "{" if ev.delivered_payload is None else f'{{"delivered_payload":"{ev.delivered_payload.hex()}",'
        yield (f'{head}"index":{ev.index},"payload":"{ev.payload.hex()}",'
               f'"receivers":[{",".join(map(q, ev.receivers))}],"record":"event",'
               f'"sender":{q(ev.sender)},"step":{q(ev.step)},"verdict":{q(ev.verdict)}}}')


def write_text(path: str | Path, text: str) -> None:
    """Leave exactly text's bytes in path, as Path.write_text does, but cut a
    regular file to the new length after writing instead of to zero before:
    on ext4, closing a file truncated to zero starts a writeback, which costs
    more than the write. Other targets (a pipe, /dev/stdout) are only written.

    The cut runs even when the write fails, so a failed rewrite leaves a
    prefix of the new text, as Path.write_text does, never old bytes after
    new ones. The gain is only on rewriting an existing file, and the
    trade-off is crash safety: a process or machine that dies between write
    and cut leaves the new text followed by the old file's tail."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as f:
        try:
            f.write(text.encode())
            f.flush()
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


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
        self.observers: dict[int, Interceptor] = {}  # id -> interceptor, each observing once

    def control_link(self, sender: str, receiver: str, interceptor: Interceptor) -> None:
        self.interceptors.setdefault(sender, {})[receiver] = interceptor
        self.observers.setdefault(id(interceptor), interceptor)

    def send(self, step: str, sender: str, receivers: tuple[str, ...], message: object, deliver) -> None:
        """Record and deliver one message; deliver(receivers, message) hands it over."""
        payload = _payload_for(message, self.ctx, self.id_width)
        for icpt in self.observers.values():
            icpt.observe(sender.encode(), message)
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
        index = len(self.events)
        event = TranscriptEvent(index, step, sender, receivers, payload, verdict, delivered)
        self.events.append(event)


def _check_modulus_shape(variant: Variant, p: object, q: object, bits: object) -> None:
    """Raise ConfigError unless p, q and bits have the shape build_domain accepts."""
    if (p is not None or q is not None) == (bits is not None):
        raise ConfigError("modulus needs either explicit primes or bits, not both")
    if bits is not None and (type(bits) is not int or bits < 3):
        raise ConfigError("modulus bits must be an integer >= 3")
    if variant is Variant.RING and (p is None) != (q is None):
        raise ConfigError("ring variant needs both p and q")
    if variant is Variant.FIELD and q is not None:
        raise ConfigError("field variant takes a single prime p")
    for v in (p, q):
        if v is not None and (type(v) is not int or v < 2):
            raise ConfigError("primes must be integers >= 2")


@functools.lru_cache(maxsize=64)
def _proven_domain(variant: Variant, p: int, q: int | None) -> DomainContext:
    return domain_new(p, q, variant=variant)  # looked up per call: a rebound domain_new sees each miss


def build_domain(
    variant: Variant, rng: SeededRng | None, *,
    p: int | None = None, q: int | None = None, bits: int | None = None,
) -> tuple[DomainContext, int, int | None]:
    """The one parameter builder: explicit primes, or safe primes of `bits` bits
    drawn from rng. Before any primality test it checks the shape (explicit primes
    or bits, not both; ints, bools excluded, with bits >= 3 and primes >= 2; q given
    exactly for the ring variant) and at most MAX_BITS bits per prime. domain_new
    then proves the primes, once per (variant, p, q) in a process: a verify after
    its run, or sessions over one pool of primes, reuse the memoised domain.
    Returns (ctx, p, q); bad parameters raise ConfigError."""
    _check_modulus_shape(variant, p, q, bits)
    if max(bits or 0, (p or 0).bit_length(), (q or 0).bit_length()) > MAX_BITS:
        raise ConfigError(f"primes must be at most {MAX_BITS} bits")
    try:
        if bits is not None and variant is Variant.RING:
            p, q = gen_distinct_safe_primes(bits, rng)
        elif bits is not None:
            p = gen_safe_prime(bits, rng)
        return _proven_domain(variant, p, q), p, q
    except GkdError as e:
        raise ConfigError(f"bad modulus parameters: {e}") from e


def run_scenario(cfg: ScenarioConfig) -> Transcript:
    """Execute one full session under the configured conditions.

    Pure function of the config: the same config always yields a transcript
    with byte-identical serialization.
    """
    cfg.validate()
    rng = SeededRng(cfg.seed)
    meta = TranscriptMeta.from_config(cfg, *build_domain(cfg.variant, rng, p=cfg.p, q=cfg.q, bits=cfg.bits))
    params = meta.params
    ctx = params.ctx

    names = cfg.members
    ids = {name: name.encode() for name in names}
    roster = GroupRoster(tuple(ids[n] for n in names))
    keys: dict[str, int] = {}
    for name in names:
        if cfg.keys is not None and name in cfg.keys:
            keys[name] = ctx.reduce(cfg.keys[name])
        else:
            keys[name] = sample_element(rng, ctx)

    kgc = KeyGenerationCentre(params)
    members: dict[str, GroupMember] = {}
    for name in names:
        identity = PartyIdentity(ids[name], keys[name])
        kgc.register(identity)
        members[name] = GroupMember(identity, params)

    net = _Network(ctx, params.id_width)
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
            insider = InsiderInterceptor(ictx, roster, params, rng)
            net.control_link(KGC_NAME, adv.victim, insider)
        else:
            suppressor = BroadcastSuppressor(ids[adv.victim])
            net.control_link(KGC_NAME, adv.victim, suppressor)

    # the KGC takes only challenges: run_scenario answers the request by calling announce
    observers = {KGC_NAME: kgc.receive_challenge}
    observers.update((name, member.observe_challenge) for name, member in members.items())

    def deliver(receivers: tuple[str, ...], message: object) -> None:
        if isinstance(message, ChallengeMessage):
            for r in receivers:
                observers[r](message)
        elif isinstance(message, Announcement):
            for r in receivers:
                members[r].receive_announcement(message)
        elif isinstance(message, KgcBroadcast):
            for r in receivers:
                members[r].receive_broadcast(message)

    net.send(STEP_REQUEST, meta.initiator, (KGC_NAME,), Request(roster.members), deliver)

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
        outcomes.append(OutcomeRecord(name, oc.status.value, oc.key, oc.reason))

    adv = cfg.adversary
    ground_truth = None
    if not cfg.redact:
        adv_truth = adv and AdversaryTruth(
            adv.attacker, adv.victim, adv.action,
            insider.recovered_key if insider else None, insider.forged_key if insider else None,
        )
        ground_truth = GroundTruth(group_key, bcast.r0, dict(keys), issued, adv_truth)
    return Transcript(meta, tuple(net.events), tuple(outcomes), ground_truth)


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


def outcome_failures(tr: Transcript) -> list[str]:
    """The ways tr's outcomes miss the scenario's success condition: every member
    accepts the group key, except an attacked victim, which accepts the planted key
    (forge) or times out (suppress). Without ground truth the keys are compared with
    each other. `gkdsim run`'s exit status and verify_transcript both judge by this."""
    adv, gt = tr.meta.adversary, tr.ground_truth
    victim = adv.victim if adv else None
    others = [oc for oc in tr.outcomes if oc.member != victim]
    failures = [f"{oc.member!r} did not accept: {oc.status}" for oc in others if oc.status != _ACCEPTED]
    keys = {oc.key for oc in others if oc.status == _ACCEPTED}
    if len(keys) > 1 or (gt is not None and keys - {gt.group_key}):
        want = "one key" if gt is None else f"the group key {gt.group_key}"
        failures.append(f"members accepted keys {', '.join(sorted(map(str, keys)))}, expected {want}")
    if adv is None:
        return failures
    status, key = next(((oc.status, oc.key) for oc in tr.outcomes if oc.member == victim),
                       ("missing", None))
    planted = gt.adversary.target_key if gt is not None and gt.adversary else None
    if adv.action == ACTION_SUPPRESS and status != _TIMEOUT:
        failures.append(f"suppressed victim {victim!r} did not time out: {status}")
    elif adv.action == ACTION_FORGE and (
        status != _ACCEPTED or (key in keys if planted is None else key != planted)
    ):
        want = "a key no other member accepted" if planted is None else f"the planted key {planted}"
        failures.append(f"victim {victim!r}: {status}/{key}, expected to accept {want}")
    return failures


def verify_transcript(tr: Transcript) -> VerificationReport:
    """Recompute every derived value from the recorded keys and randomness.

    Structural damage raises MalformedTranscript; every disagreement between
    a recorded value and its recomputation, and every way the outcomes miss
    the scenario's success condition, lands in the report, naming the event
    it was found at. Redacted transcripts get the structural and wire-level
    checks and the success condition, with the accepted keys compared with
    each other.
    """
    report = VerificationReport()
    meta = tr.meta
    params, names, t = meta.params, meta.members, meta.t
    ctx, digest_size = params.ctx, params.hash_cfg.digest_size
    ids = {name: name.encode() for name in names}
    roster = GroupRoster(tuple(ids.values()))

    # a KGC send splits into one event per interceptor verdict group, so
    # announce/broadcast may span several adjacent events on attack runs
    steps = [ev.step for ev in tr.events]
    announces = steps.count(STEP_ANNOUNCE)
    first_bcast = 1 + announces + t
    if announces < 1 or len(steps) <= first_bcast or steps != (
        [STEP_REQUEST] + [STEP_ANNOUNCE] * announces + [STEP_CHALLENGE] * t
        + [STEP_BROADCAST] * (len(steps) - first_bcast)
    ):
        raise MalformedTranscript(
            f"events out of protocol order: expected one request, announce events, "
            f"{t} challenges, then broadcast events"
        )
    request = tr.events[0]
    challenge_events = tr.events[1 + announces : first_bcast]
    bcast_events = tr.events[first_bcast:]
    report.note("events: complete and ordered")
    for ev in tr.events[:first_bcast]:
        if ev.verdict != VERDICT_DELIVERED:
            report.fail(f"event {ev.index}: {ev.step} {ev.verdict}, expected delivered")

    # --- roster echo ---
    if request.sender != meta.initiator or tuple(request.receivers) != (KGC_NAME,):
        report.fail(f"event {request.index}: request endpoints wrong")
    expected_roster = roster_payload(roster.members, params.id_width)
    if request.payload != expected_roster:
        report.fail(f"event {request.index}: requested roster differs from meta members")
    announced: list[str] = []
    for ev in tr.events[1 : 1 + announces]:
        if ev.sender != KGC_NAME:
            report.fail(f"event {ev.index}: announce not from {KGC_NAME}")
        if ev.payload != expected_roster:
            report.fail(f"event {ev.index}: announced roster differs from meta members")
        announced.extend(ev.receivers)
    if sorted(announced) != sorted(names):
        report.fail("announce events do not cover every member exactly once")

    # --- challenges ---
    challenges: dict[str, int] = {}
    for pos, ev in enumerate(challenge_events):
        _require(ev.sender in ids, f"event {ev.index}: challenge from unknown sender {ev.sender!r}")
        i = pos
        if ev.sender != names[pos]:
            report.fail(f"event {ev.index}: challenge sender {ev.sender!r} out of roster order")
            i = names.index(ev.sender)
        if ev.receivers != (KGC_NAME, *names[:i], *names[i + 1 :]):
            report.fail(f"event {ev.index}: challenge not sent to {KGC_NAME} and every other member")
        if len(ev.payload) != ctx.byte_width:
            raise MalformedTranscript(f"event {ev.index}: challenge payload width")
        value = int.from_bytes(ev.payload, "big")
        if not ctx.contains(value):
            report.fail(f"event {ev.index}: challenge value {value} outside [0, m)")
        challenges[ev.sender] = value
    _require(len(challenges) == t, "challenge events do not cover every member")
    report.note("challenges: one per member, in roster order")

    # --- broadcast events: each distinct payload handed over is parsed once ---
    honest_payload = bcast_events[0].payload
    parsed = {honest_payload: parse_broadcast_payload(honest_payload, ctx, digest_size, t)}
    received: dict[str, bytes] = {}
    replaced_events = []
    for ev in bcast_events:
        if ev.sender != KGC_NAME:
            report.fail(f"event {ev.index}: broadcast not from {KGC_NAME}")
        if ev.payload != honest_payload:
            report.fail(f"event {ev.index}: broadcast original differs across events")
        if ev.verdict == VERDICT_REPLACED:
            replaced_events.append(ev)
        handed = ev.delivered_payload if ev.verdict == VERDICT_REPLACED else ev.payload
        if ev.verdict != VERDICT_DROPPED and handed not in parsed:
            parsed[handed] = parse_broadcast_payload(handed, ctx, digest_size, t)
        for r in ev.receivers:
            if r in received or r not in ids:
                raise MalformedTranscript(f"event {ev.index}: bad broadcast receiver {r!r}")
            if ev.verdict != VERDICT_DROPPED:
                received[r] = handed
    honest = parsed[honest_payload]
    dropped = sum(ev.verdict == VERDICT_DROPPED for ev in bcast_events)
    report.note("broadcast: framing consistent")

    # --- outcome records: one per member, timed out exactly when nothing arrived ---
    members = tuple(oc.member for oc in tr.outcomes)
    _require(members == names, f"expected {t} outcome records, one per member in order")
    for oc in tr.outcomes:
        if (oc.status == _TIMEOUT) == (oc.member in received):
            arrived = "a" if oc.member in received else "no"
            report.fail(f"outcome for {oc.member!r}: {oc.status} after {arrived} broadcast")
    failures = outcome_failures(tr)
    report.mismatches += (f"success condition: {line}" for line in failures)
    if not failures:
        report.note("success condition: met")

    adv_meta = meta.adversary
    if adv_meta is None:
        if replaced_events or dropped:
            report.fail("interceptor verdicts present without a configured adversary")
    else:
        if adv_meta.action == ACTION_FORGE and len(replaced_events) != 1:
            report.fail(f"forge scenario has {len(replaced_events)} replaced events, expected 1")
        if adv_meta.action == ACTION_SUPPRESS and dropped != 1:
            report.fail(f"suppress scenario has {dropped} dropped events, expected 1")

    gt = tr.ground_truth
    if gt is None:
        report.skipped.append("no ground truth (redacted): share, tag and outcome recomputation skipped")
        return report

    # --- recompute shares, tag, outcomes from recorded keys and randomness ---
    _require(set(gt.member_keys) == set(names), "ground-truth keys do not cover the roster")
    _require(set(gt.challenges) == set(names), "ground-truth challenges do not cover the roster")
    group_key = gt.group_key
    for ev in challenge_events:
        recorded = challenges[ev.sender]
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
    replay_challenges = tuple(map(gt.challenges.__getitem__, names))
    nonces = (gt.r0, *replay_challenges)
    for i, name in enumerate(names):
        share = compute_share(gt.member_keys[name], nonces, i, params)
        expected_mask = ctx.sub(group_key, share)
        if expected_mask != honest.masked_shares[i]:
            report.fail(
                f"event {bcast_events[0].index}: masked share for {name!r} is "
                f"{honest.masked_shares[i]}, recomputed {expected_mask}"
            )
    expected_auth = compute_auth(AuthInput(group_key, roster.members, nonces, honest.masked_shares), params)
    if expected_auth != honest.auth:
        report.fail(f"event {bcast_events[0].index}: tag does not match recomputation")
    report.note("shares and tag: match recomputation from recorded keys and randomness")

    for name, rec in zip(names, tr.outcomes):
        payload = received.get(name)
        if payload is None:
            expected = SessionOutcome.timeout()
        else:
            identity = PartyIdentity(ids[name], gt.member_keys[name])
            expected = user_process_broadcast(identity, roster, replay_challenges, parsed[payload], params)
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
        if AdversarySpec(adv.attacker, adv.victim, adv.action) != adv_meta:
            report.fail("ground-truth adversary identity differs from meta")
            adv = None
        elif adv.action == ACTION_FORGE and adv.target_key is None:
            report.fail("forge scenario lacks a recorded target key")
            adv = None
    if adv is not None and adv.action == ACTION_FORGE and len(replaced_events) == 1:
        ev = replaced_events[0]
        if tuple(ev.receivers) != (adv.victim,):
            report.fail(f"event {ev.index}: forged broadcast not aimed at the victim")
        forged = parsed[ev.delivered_payload]
        v = names.index(adv.victim)
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
    return report
