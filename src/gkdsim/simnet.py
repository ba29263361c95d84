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
import itertools
import json
import os
import re
import stat
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as _quote  # a str as json writes it
from pathlib import Path

from .adversary import BroadcastSuppressor, InsiderInterceptor
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
    decode_element,
    encode_element,
    encode_elements,
    encode_identifiers,
)
from .errors import ConfigError, GkdError, MalformedTranscript
from .protocol import (
    GroupMember,
    GroupRoster,
    KeyGenerationCentre,
    KgcBroadcast,
    OutcomeStatus,
    PartyIdentity,
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

VERDICT_DELIVERED = "delivered"
VERDICT_DROPPED = "dropped"
VERDICT_REPLACED = "replaced"

ACTION_FORGE = "forge"
ACTION_SUPPRESS = "suppress"

MAX_BITS = 512  # bits per prime, drawn or explicit; a 512-bit ring pair took 1.4 s (8-seed median, 2 vCPUs)
MAX_ID_WIDTH = 255

_STATUSES = tuple(s.value for s in OutcomeStatus)
_ACCEPTED = OutcomeStatus.ACCEPTED.value
_TIMEOUT = OutcomeStatus.TIMEOUT.value
_CONFIG_KEYS = frozenset(("variant", "members", "modulus", "keys", "initiator",
                          "seed", "hash", "id_width", "adversary", "redact"))
_ADVERSARY_KEYS = frozenset(("attacker", "victim", "action", "target_key"))


# ---------------------------------------------------------------------------
# wire payloads (hex-encoded in transcript events; see docs/wire-format.md)
# ---------------------------------------------------------------------------

def broadcast_payload(bcast: KgcBroadcast, ctx: DomainContext) -> bytes:
    """auth | nonce_0 | share_1 .. share_t, the residues encoded as in the tag input."""
    return bcast.auth + encode_elements((bcast.r0, *bcast.masked_shares), ctx)


def parse_challenge_payload(data: bytes, ctx: DomainContext, index: int) -> int:
    """The challenge value event index carries: exactly one residue wide."""
    try:
        return decode_element(data, ctx)
    except ValueError:
        raise MalformedTranscript(f"event {index}: challenge payload width") from None


def parse_broadcast_payload(data: bytes, ctx: DomainContext, digest_size: int, t: int) -> KgcBroadcast:
    width = ctx.byte_width
    expected = digest_size + (t + 1) * width
    if len(data) != expected:
        raise MalformedTranscript(f"broadcast payload of {len(data)} bytes, expected {expected}")
    values = [int.from_bytes(data[i : i + width], "big") for i in range(digest_size, expected, width)]
    return KgcBroadcast(data[:digest_size], values[0], tuple(values[1:]))


class ChallengeReceivers:
    """Who the challenge of members[i] goes to: the KGC, then every other member
    in roster order. It is held as the roster and the position, O(1) to build and
    to keep where the tuple of names is t references; run_scenario delivers by the
    position, to its roster-ordered observers but the i-th. It iterates over and has
    the len of that tuple, and is equal to it, in either operand order, with its
    hash. members is a roster, t distinct names, so two values over the same
    members object are equal exactly when their positions are: one int comparison."""

    __slots__ = ("members", "i")

    def __init__(self, members: tuple[str, ...], i: int):
        self.members, self.i = members, i

    def __iter__(self) -> Iterator[str]:
        members, i = self.members, self.i
        return itertools.chain((KGC_NAME,), members[:i], members[i + 1 :])

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        if type(other) is ChallengeReceivers and other.members is self.members:
            return self.i == other.i
        if isinstance(other, (tuple, ChallengeReceivers)):
            return len(other) == len(self) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def event_skeleton(meta: TranscriptMeta) -> list[tuple[str, str, tuple[str, ...] | ChallengeReceivers, str]]:
    """(step, sender, receivers, verdict) of every event a run of meta records, in
    order. A meta builds it once, as meta.skeleton: run_scenario records each message
    as its group of entries, from_jsonl types the events that match it, and
    verify_transcript accepts no other. The insider holds one link, KGC -> victim, so
    the KGC's announce and broadcast reach the other members in one event and the
    victim in one of its own: the announce delivered, the broadcast replaced (forge)
    or dropped (suppress). A challenge's receivers are a ChallengeReceivers over
    meta.members, so the list is O(t) to build and compare. Every name is the object
    in meta.members, or KGC_NAME; the tests call it as their oracle."""
    members, adv = meta.members, meta.adversary
    groups = [(members, VERDICT_DELIVERED)]  # who each KGC event reaches, and the broadcast's verdict
    if adv is not None:
        v = members.index(adv.victim)
        groups = [(members[:v] + members[v + 1 :], VERDICT_DELIVERED),
                  (members[v : v + 1], VERDICT_REPLACED if adv.action == ACTION_FORGE else VERDICT_DROPPED)]
    return [
        (STEP_REQUEST, members[members.index(meta.initiator)], (KGC_NAME,), VERDICT_DELIVERED),
        *((STEP_ANNOUNCE, KGC_NAME, to, VERDICT_DELIVERED) for to, _ in groups),
        *((STEP_CHALLENGE, name, ChallengeReceivers(members, i), VERDICT_DELIVERED) for i, name in enumerate(members)),
        *((STEP_BROADCAST, KGC_NAME, to, verdict) for to, verdict in groups),
    ]


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
        if not isinstance(d, Mapping):
            raise ConfigError("config must be a JSON object")
        unknown = d.keys() - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        mod, hash_d, members, adv = d.get("modulus"), d.get("hash", {}), d.get("members"), d.get("adversary")
        if not isinstance(mod, Mapping):
            raise ConfigError("modulus must be an object with p/q or bits")
        mod_unknown = set(mod) - {"p", "q", "bits"}
        if mod_unknown:
            raise ConfigError(f"unknown modulus keys: {sorted(mod_unknown)}")
        if not isinstance(hash_d, Mapping):
            raise ConfigError("hash must be an object")
        try:  # typed in field order: the first error names the first bad field
            variant = Variant(d.get("variant"))
        except ValueError:
            raise ConfigError("variant must be 'ring' or 'field'") from None
        if not isinstance(members, (list, tuple)):
            raise ConfigError("members must be a list of names")
        try:
            hash_cfg = HashConfig(hash_d.get("algorithm", "sha256"), hash_d.get("element_hash"))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad hash config: {e}") from None
        if adv is not None:
            if not isinstance(adv, Mapping):
                raise ConfigError("adversary must be an object or null")
            unknown = adv.keys() - _ADVERSARY_KEYS
            if unknown:
                raise ConfigError(f"unknown adversary keys: {sorted(unknown)}")
            target = adv.get("target_key")
            adv = AdversarySpec(adv.get("attacker"), adv.get("victim"), adv.get("action", ACTION_FORGE),
                                None if target == "random" else target)
        return cls(
            variant=variant,
            members=tuple(members),
            p=mod.get("p"),
            q=mod.get("q"),
            bits=mod.get("bits"),
            keys=d.get("keys"),
            initiator=d.get("initiator"),
            seed=d.get("seed", 0),
            hash_cfg=hash_cfg,
            id_width=d.get("id_width", DEFAULT_ID_WIDTH),
            adversary=adv,
            redact=d.get("redact", False),
        )

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
        return cls.from_dict(d)

    def __post_init__(self) -> None:
        """Type and check every field at construction; build_domain proves the primes."""
        members, id_width, adv = self.members, self.id_width, self.adversary
        if not isinstance(self.variant, Variant):
            raise ConfigError("variant must be 'ring' or 'field'")
        if not isinstance(self.hash_cfg, HashConfig):
            raise ConfigError("hash_cfg must be a HashConfig")
        if adv is not None and not isinstance(adv, AdversarySpec):
            raise ConfigError("adversary must be an AdversarySpec or None")
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

def _residue(value: object, ctx: DomainContext, what: str) -> int:
    if type(value) is not int or not ctx.contains(value):
        raise MalformedTranscript(f"{what} must be a residue in [0, {ctx.modulus})")
    return value


def _member_residues(value: object, meta: TranscriptMeta, what: str) -> dict[str, int]:
    m, get = meta.params.ctx.modulus, value.get if isinstance(value, dict) else {}.get
    residues = {name: get(name) for name in meta.members}  # keyed by the meta's str objects
    if not all(type(v) is int and 0 <= v < m for v in residues.values()):
        raise MalformedTranscript(f"{what} must map every member to a residue in [0, {m})")
    return residues


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
    skeleton: list = field(init=False, compare=False, repr=False)  # event_skeleton(self), built once

    def __post_init__(self) -> None:
        object.__setattr__(self, "skeleton", event_skeleton(self))

    @property
    def t(self) -> int:
        return len(self.members)

    @classmethod
    def from_config(cls, cfg: ScenarioConfig, rng: SeededRng | None) -> "TranscriptMeta":
        """The meta of a run of cfg, over the domain build_domain builds from rng."""
        ctx, p, q = build_domain(cfg.variant, rng, p=cfg.p, q=cfg.q, bits=cfg.bits)
        adv = cfg.adversary
        if adv is not None and adv.target_key is not None:  # ground truth records it
            adv = AdversarySpec(adv.attacker, adv.victim, adv.action)
        return cls(PublicParams(ctx, cfg.hash_cfg, cfg.id_width), p, q, cfg.members,
                   cfg.initiator or cfg.members[0], cfg.seed, cfg.redact, adv)

    @classmethod
    def from_record(cls, rec: dict) -> "TranscriptMeta":
        """The meta of rec's settings, read by ScenarioConfig.from_dict, with a config's errors
        behind "meta: ". from_jsonl checks the derived fields and the key set: the line is its _meta_line."""
        try:
            cfg = ScenarioConfig.from_dict({
                **{key: rec.get(key) for key in ("variant", "members", "initiator", "seed", "id_width", "adversary")},
                "modulus": {"p": rec.get("p"), "q": rec.get("q")}, "redact": rec.get("redacted"),
                "hash": {"algorithm": rec.get("hash_algorithm"), "element_hash": rec.get("element_hash")},
            })
            return cls.from_config(cfg, None)
        except ConfigError as e:
            raise MalformedTranscript(f"meta: {e}") from None


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
    """The insider's recovered and planted keys, both None for suppress; its roles are meta.adversary."""

    recovered_key: int | None = None
    target_key: int | None = None


@dataclass(frozen=True)
class GroundTruth:
    """A run's keys and randomness over its meta: each member's key and challenge, and the
    insider's keys exactly when meta.adversary is set, whose roles _ground_truth_line writes with them."""

    group_key: int
    r0: int
    member_keys: Mapping[str, int]
    challenges: Mapping[str, int]
    adversary: AdversaryTruth | None = None

    @classmethod
    def from_record(cls, rec: dict, meta: TranscriptMeta) -> "GroundTruth":
        """rec's values typed over meta, a missing one read as None, as are a suppress run's keys. from_jsonl
        requires the line to be its _ground_truth_line, so a name, role or section meta does not fix is malformed."""
        ctx, section, roles = meta.params.ctx, rec.get("adversary"), meta.adversary
        forged = isinstance(section, dict) and roles and roles.action == ACTION_FORGE
        get = section.get if forged else {}.get  # a section not an object has no keys, nor has a suppress run's
        adv = roles and AdversaryTruth(*(None if get(k) is None else _residue(get(k), ctx, f"adversary {k}")
                                                  for k in ("recovered_key", "target_key")))
        return cls(
            _residue(rec.get("group_key"), ctx, "group_key"), _residue(rec.get("r0"), ctx, "r0"),
            _member_residues(rec.get("member_keys"), meta, "member_keys"),
            _member_residues(rec.get("challenges"), meta, "challenges"), adv,
        )


@dataclass(frozen=True)
class Transcript:
    """Everything that happened, in order, plus ground truth unless redacted."""

    meta: TranscriptMeta
    events: tuple[TranscriptEvent, ...]
    outcomes: tuple[OutcomeRecord, ...]
    ground_truth: GroundTruth | None = None

    def to_jsonl(self) -> str:
        quoted = _Quoted()
        lines = [_meta_line(self.meta)]
        lines += (_event_line(ev, quoted) for ev in self.events)
        lines += (_outcome_line(oc, quoted) for oc in self.outcomes)
        if self.ground_truth is not None:
            lines.append(_ground_truth_line(self.ground_truth, self.meta))
        lines.append("")  # the last newline, without copying the joined text to add it
        return "\n".join(lines)

    def save(self, path: str | Path) -> None:
        write_text(path, self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        """The transcript whose to_jsonl is text past its leading whitespace-only lines;
        MalformedTranscript for any other text. It reads the lines front to back in the
        order the writer writes them: the meta, one event per entry of the meta's event
        skeleton, one outcome per roster member, the ground truth exactly when the meta
        is not redacted, then nothing. Every line is read by writing it. The meta and the
        ground truth, over the meta, are JSON-decoded for their values, and the line must
        be the _meta_line or _ground_truth_line of the record built. The entry's event, or
        the member's outcome, is built from the payloads, key or reason in the line and
        kept only if _event_line or _outcome_line writes that line back. So every name,
        ground-truth keys too, is the meta's str object or KGC_NAME. Any other line
        raises, naming its number and the record the writer puts there. The text is
        walked by offset, one line cut at a time, so it is never held twice."""
        pos = content_start(text)
        lineno = text.count("\n", 0, pos)

        def line() -> str:
            """The next line, without its newline; "", which no record is, past the last."""
            nonlocal pos, lineno
            end, lineno = text.find("\n", pos), lineno + 1
            if end < 0:
                return ""
            start, pos = pos, end + 1
            return text[start:end]

        def fail(what: str):
            raise MalformedTranscript(f"line {lineno}: expected {what}")

        def decoded(kind: str, build, write, *over):
            """The record build makes of the next line's values, over the meta if given, if write
            gives back the line. The line is compared in the text: it is not held while writing."""
            start = pos
            try:
                record = build(_fields(line(), kind), *over)
            except MalformedTranscript as e:
                raise MalformedTranscript(f"line {lineno}: {e}") from None
            written = write(record, *over)
            if pos - start != len(written) + 1 or not text.startswith(written, start):
                fail(f"the {kind} record as gkdsim writes it")
            return record

        meta = decoded("meta", TranscriptMeta.from_record, _meta_line)
        ctx, quoted = meta.params.ctx, _Quoted()
        events = tuple([_written_event(line(), k, entry, quoted)
                        or fail(f"event {k}, the {entry[0]} from {entry[1]!r}, as gkdsim writes it")
                        for k, entry in enumerate(meta.skeleton)])
        outcomes = tuple([_framed_outcome(line(), member, quoted, ctx)
                          or fail(f"the outcome of {member!r} as gkdsim writes it") for member in meta.members])
        del quoted  # t names' JSON texts: not held while the ground truth is checked
        ground_truth = None
        if not meta.redacted:
            ground_truth = decoded("ground_truth", GroundTruth.from_record, _ground_truth_line, meta)
        if pos < len(text):
            lineno += 1
            fail("the end of the transcript" + (", as the meta is redacted" if meta.redacted else ""))
        return cls(meta, events, outcomes, ground_truth)

    @classmethod
    def load(cls, path: str | Path) -> "Transcript":
        return cls.from_jsonl(read_text(path))


_BLANK = re.compile(r"\s*")  # a text's leading whitespace, found without the copy str.lstrip makes


def content_start(text: str) -> int:
    """The offset of text's first line with content, where every file reader starts."""
    return text.rfind("\n", 0, _BLANK.match(text).end()) + 1


def _fields(line: str, kind: str) -> dict:
    """The fields of the kind record that line holds, JSON-decoded."""
    if not line:
        raise MalformedTranscript(f"expected the {kind} record as gkdsim writes it")
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as e:
        raise MalformedTranscript(f"not valid JSON: {e}") from None
    if not isinstance(rec, dict) or rec.pop("record", None) != kind:
        raise MalformedTranscript(f"not a {kind} record")
    return rec


class _Quoted(dict):
    """name -> its JSON string, quoted on first use; and the JSON text of a
    receivers list, a ChallengeReceivers' cut from its roster's text, not joined."""

    _roster = None  # (members, a comma before each quoted name, where each comma is)

    def __missing__(self, name: str) -> str:
        self[name] = quoted = _quote(name)
        return quoted

    def receivers(self, receivers: Iterable[str]) -> str:
        if type(receivers) is not ChallengeReceivers:
            return ",".join(map(self.__getitem__, receivers))
        members, i = receivers.members, receivers.i  # the KGC, then the roster with members[i] cut out
        if self._roster is None or self._roster[0] is not members:
            commas = list(itertools.accumulate((len(self[name]) + 1 for name in members), initial=0))
            self._roster = members, ",".join(["", *map(self.__getitem__, members)]), commas
        _, text, commas = self._roster
        return self[KGC_NAME] + text[: commas[i]] + text[commas[i + 1] :]


def _scalar(value: str | int | None) -> str:
    """value as json writes it."""
    return "null" if value is None else _quote(value) if type(value) is str else str(value)


def _meta_line(meta: TranscriptMeta) -> str:
    """The meta record as json.dumps writes it with sorted keys and no spaces, as every
    line is: the settings, their derived fields and the roster, with the adversary's roles."""
    adv, params, ctx, hash_cfg = meta.adversary, meta.params, meta.params.ctx, meta.params.hash_cfg
    roles = adv and f'{{"action":{_quote(adv.action)},"attacker":{_quote(adv.attacker)},"victim":{_quote(adv.victim)}}}'
    return (f'{{"adversary":{roles or "null"},"byte_width":{ctx.byte_width},"digest_size":{hash_cfg.digest_size},'
            f'"element_hash":{_scalar(hash_cfg.element_hash)},"format":{TRANSCRIPT_FORMAT},'
            f'"hash_algorithm":{_quote(hash_cfg.algorithm)},"id_width":{params.id_width},'
            f'"initiator":{_quote(meta.initiator)},"members":[{",".join(map(_quote, meta.members))}],'
            f'"modulus":{ctx.modulus},"p":{meta.p},"q":{_scalar(meta.q)},"record":"meta",'
            f'"redacted":{"true" if meta.redacted else "false"},"seed":{meta.seed},"t":{meta.t},'
            f'"variant":{_quote(ctx.variant.value)}}}')


def _ground_truth_line(gt: GroundTruth, meta: TranscriptMeta) -> str:
    """The ground-truth record: the member maps in name order, and the insider's keys exactly
    when gt.adversary is set, between meta's roles if it has them (in memory it may not)."""
    adv, roles, section = gt.adversary, meta.adversary, "null"
    if adv is not None:
        section = f'"recovered_key":{_scalar(adv.recovered_key)},"target_key":{_scalar(adv.target_key)}'
        section = (f'{{"action":{_quote(roles.action)},"attacker":{_quote(roles.attacker)},{section},'
                   f'"victim":{_quote(roles.victim)}}}' if roles else f"{{{section}}}")
    keys, challenges = (",".join([f"{_quote(name)}:{residues[name]}" for name in sorted(residues)])
                        for residues in (gt.member_keys, gt.challenges))
    return (f'{{"adversary":{section},"challenges":{{{challenges}}},"group_key":{gt.group_key},'
            f'"member_keys":{{{keys}}},"r0":{gt.r0},"record":"ground_truth"}}')


def _event_line(ev: TranscriptEvent, quoted: _Quoted) -> str:
    """ev's record, {"record": "event", **fields}: keys sorted, hex payloads,
    delivered_payload only on a replaced event, and every name, step and verdict
    JSON-encoded once per transcript, not once per appearance."""
    head = "{" if ev.delivered_payload is None else f'{{"delivered_payload":"{ev.delivered_payload.hex()}",'
    return (f'{head}"index":{ev.index},"payload":"{ev.payload.hex()}",'
            f'"receivers":[{quoted.receivers(ev.receivers)}],"record":"event",'
            f'"sender":{quoted[ev.sender]},"step":{quoted[ev.step]},"verdict":{quoted[ev.verdict]}}}')


def _written_event(line: str, index: int, entry: tuple, quoted: _Quoted) -> TranscriptEvent | None:
    """The event at index with entry's names and the payloads read from line, if
    _event_line writes line for it; None for any other line, such as one with
    uppercase hex, whitespace or another verdict. Each payload is read as the hex
    text up to the next quote after its key, which a written line has first."""
    step, sender, receivers, verdict = entry
    start = line.find('"payload":"') + 11
    try:
        payload = bytes.fromhex(line[start : line.find('"', start)])
        delivered = bytes.fromhex(line[22 : line.find('"', 22)]) if verdict == VERDICT_REPLACED else None
    except ValueError:
        return None
    ev = TranscriptEvent(index, step, sender, receivers, payload, verdict, delivered)
    return ev if _event_line(ev, quoted) == line else None


def _outcome_line(oc: OutcomeRecord, quoted: _Quoted) -> str:
    """oc's record, {"record": "outcome", **fields}: keys sorted, the key an int, and
    no field that is None."""
    key = "" if oc.key is None else f'"key":{oc.key},'
    reason = "" if oc.reason is None else f'"reason":{quoted[oc.reason]},'
    return f'{{{key}"member":{quoted[oc.member]},{reason}"record":"outcome","status":{quoted[oc.status]}}}'


_UNACCEPTED_TAILS = {f',"record":"outcome","status":"{s}"}}': s for s in _STATUSES if s != _ACCEPTED}


def _framed_outcome(line: str, member: str, quoted: _Quoted, ctx: DomainContext) -> OutcomeRecord | None:
    """The outcome of member whose _outcome_line is line, with an accepted key that is
    a residue or a reason not accepted; None for any other line. The key or the reason
    is the frame's hole: it is read from the line, the reason as the JSON string it
    is, and the line must be the one written for it, so a key off its canonical
    digits or a reason escaped otherwise than json escapes it is refused."""
    if line.startswith('{"key":'):
        try:
            oc = OutcomeRecord(member, _ACCEPTED, int(line[7 : line.find(",")]))
        except ValueError:  # not digits, or thousands of them
            return None
        ok = ctx.contains(oc.key)
    else:
        try:
            reason, end = scanstring(line, line.find(',"reason":"') + 11)
        except ValueError:
            return None
        oc = OutcomeRecord(member, _UNACCEPTED_TAILS.get(line[end:]), reason=reason)
        ok = oc.status is not None
    return oc if ok and line == _outcome_line(oc, quoted) else None


def read_text(path: str | Path) -> str:
    """The text of path: its bytes as strict UTF-8, with no newline translated, so
    a file with CR or CRLF line ends is not read as the one write_text left."""
    try:
        return Path(path).read_bytes().decode()
    except (OSError, UnicodeDecodeError) as e:
        raise MalformedTranscript(f"cannot read {path}: {e}") from None


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
    rng = SeededRng(cfg.seed)
    meta = TranscriptMeta.from_config(cfg, rng)
    params = meta.params
    ctx = params.ctx

    names = cfg.members
    ids = {name: name.encode() for name in names}
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

    entries_by_message = itertools.groupby(meta.skeleton, key=lambda entry: entry[:2])
    events: list[TranscriptEvent] = []

    observers = [members[name].observe_challenge for name in names]  # bound after any tracer is installed

    def send(message: object, payload: bytes, hand) -> None:
        """Record message as its next group of skeleton entries, one event per entry
        with payload, and hand(receivers, message) it to each entry's receivers, unless
        it is None. The interceptor is offered only the entry the skeleton does not mark
        delivered, the victim's broadcast, and the event records what it hands back:
        nothing is dropped, a broadcast replaced, its bytes the delivered payload."""
        (step, sender), entries = next(entries_by_message)
        for _, _, receivers, verdict in entries:
            handed, substitute = message, None
            if verdict != VERDICT_DELIVERED:
                handed = interceptor.intercept(message).message
                verdict = VERDICT_DROPPED if handed is None else VERDICT_REPLACED
                substitute = None if handed is None else broadcast_payload(handed, ctx)
            events.append(TranscriptEvent(len(events), step, sender, receivers, payload, verdict, substitute))
            if handed is not None:
                hand(receivers, handed)

    def announce_to(receivers: tuple[str, ...], roster: GroupRoster) -> None:
        for r in receivers:
            members[r].receive_announcement(roster)

    def fan_out(receivers: ChallengeReceivers, msg) -> None:
        """To the KGC, then the observers of every member but the sender, members[i]."""
        kgc.receive_challenge(msg)
        i = receivers.i
        for observe in observers[:i]:
            observe(msg)
        for observe in observers[i + 1 :]:
            observe(msg)

    def broadcast_to(receivers: tuple[str, ...], bcast: KgcBroadcast) -> None:
        for r in receivers:
            members[r].receive_broadcast(bcast)

    # the request reaches no one: run_scenario answers it by calling announce, whose
    # roster, the session's one, echoes the ids in request order, so both carry one payload
    roster = kgc.announce(tuple(ids.values()))
    roster_bytes = encode_identifiers(roster.members, params.id_width)
    send(None, roster_bytes, None)
    send(roster, roster_bytes, announce_to)

    adv, insider = cfg.adversary, None
    if adv is not None and adv.action == ACTION_FORGE:
        insider = InsiderInterceptor(members[adv.attacker], names.index(adv.victim), adv.target_key, rng)
    interceptor = insider or BroadcastSuppressor()  # offered only an attacked victim's broadcast

    issued: dict[str, int] = {}
    for name in names:
        msg = members[name].issue_challenge(rng)
        issued[name] = msg.value
        send(msg, encode_element(msg.value, ctx), fan_out)

    bcast, group_key = kgc.distribute(rng)
    send(bcast, broadcast_payload(bcast, ctx), broadcast_to)

    outcomes = []
    for name in names:
        oc = members[name].finalize()
        outcomes.append(OutcomeRecord(name, oc.status.value, oc.key, oc.reason))

    ground_truth = None
    if not cfg.redact:
        adv_truth = adv and AdversaryTruth(insider and insider.recovered_key, insider and insider.forged_key)
        ground_truth = GroundTruth(group_key, bcast.r0, dict(keys), issued, adv_truth)
    return Transcript(meta, tuple(events), tuple(outcomes), ground_truth)


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


def plants_the_others_key(tr: Transcript) -> bool:
    """Whether the victim's broadcast, the last event, is replaced by a copy holding
    the honest copy's masked share of it. Over the honest nonce, a forgery moves the
    victim's key only through that share, so one that keeps it plants the key the
    other members accept."""
    meta, ev = tr.meta, tr.events[-1]
    victim = meta.adversary and meta.adversary.victim
    if (ev.step, ev.receivers, ev.verdict) != (STEP_BROADCAST, (victim,), VERDICT_REPLACED):
        return False
    params, v = meta.params, meta.members.index(victim)
    honest, forged = (parse_broadcast_payload(p, params.ctx, params.hash_cfg.digest_size, meta.t)
                      for p in (ev.payload, ev.delivered_payload))
    return honest.masked_shares[v] == forged.masked_shares[v]


def outcome_failures(tr: Transcript) -> list[str]:
    """The ways tr's outcomes miss the scenario's success condition: every member
    accepts the group key, except an attacked victim, which accepts the planted key
    (forge) or times out (suppress). Without ground truth the keys are compared with
    each other, and the planted key is the others' one exactly when the forgery keeps
    the victim's share. `gkdsim run`'s exit status and verify_transcript both judge by this."""
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
    victim_oc = tr.outcomes[tr.meta.members.index(victim)]  # one outcome per member, in roster order
    status, key = victim_oc.status, victim_oc.key
    planted = gt.adversary.target_key if gt is not None and gt.adversary else None
    if gt is None and len(keys) == 1 and plants_the_others_key(tr):
        (planted,) = keys
    if adv.action == ACTION_SUPPRESS and status != _TIMEOUT:
        failures.append(f"suppressed victim {victim!r} did not time out: {status}")
    elif adv.action == ACTION_FORGE and (status != _ACCEPTED or (key in keys if planted is None else key != planted)):
        want = "a key no other member accepted" if planted is None else f"the planted key {planted}"
        failures.append(f"victim {victim!r}: {status}/{key}, expected to accept {want}")
    return failures


def _skeleton_mismatches(shape: list[tuple], skeleton: list[tuple]) -> Iterable[str]:
    """The event count if it differs from the skeleton's, else one line per event
    whose (step, sender, receivers, verdict) differs: its recorded verdict against
    the expected one, and the other fields it gets wrong, by name only."""
    if len(shape) != len(skeleton):
        yield f"event count {len(shape)}, expected {len(skeleton)}"
        return
    for i, (got, want) in enumerate(zip(shape, skeleton)):
        if got != want:
            wrong = [name for name, a, b in zip(("step", "sender", "receivers"), got, want) if a != b]
            parts = [f"{got[3]}, expected {want[3]}"] if got[3] != want[3] else []
            parts += [f"with the wrong {' and '.join(wrong)}"] if wrong else []
            yield f"event {i}: {got[0]} {'; '.join(parts)}"


def verify_transcript(tr: Transcript) -> VerificationReport:
    """Recompute every derived value from the recorded keys and randomness.

    Events off the meta's event skeleton are reported, and nothing else is checked.
    Otherwise every disagreement between a recorded value and its recomputation,
    and every way the outcomes miss the scenario's success condition, lands in the
    report, naming the event it was found at; only an undecodable payload raises.
    The forgery is judged from the public record, its key shift read from the
    outcomes; ground truth adds the recomputations that need keys and checks the
    insider's keys, under the meta's roles (only in memory can the two disagree).
    """
    report = VerificationReport()
    meta = tr.meta
    params, names, t, adv = meta.params, meta.members, meta.t, meta.adversary
    ctx, digest_size = params.ctx, params.hash_cfg.digest_size
    ids = {name: name.encode() for name in names}
    roster = GroupRoster(tuple(ids.values()))

    shape = [(ev.step, ev.sender, ev.receivers, ev.verdict) for ev in tr.events]
    if shape != meta.skeleton:
        for line in _skeleton_mismatches(shape, meta.skeleton):
            report.fail(line)
        report.skipped.append("payload, outcome and ground-truth checks: the events differ from the event skeleton")
        return report
    report.note("events: complete and ordered")
    announces = 1 if adv is None else 2
    challenge_events = tr.events[1 + announces : 1 + announces + t]
    bcast_events = tr.events[1 + announces + t :]

    # --- roster echo ---
    expected_roster = encode_identifiers(roster.members, params.id_width)
    for ev in tr.events[: 1 + announces]:
        if ev.payload != expected_roster:
            echo = "requested" if ev.step == STEP_REQUEST else "announced"
            report.fail(f"event {ev.index}: {echo} roster differs from meta members")

    # --- challenges, in roster order ---
    challenges = [parse_challenge_payload(ev.payload, ctx, ev.index) for ev in challenge_events]
    for ev, value in zip(challenge_events, challenges):
        if not ctx.contains(value):
            report.fail(f"event {ev.index}: challenge value {value} outside [0, m)")
    report.note("challenges: one per member, in roster order")

    # --- broadcast events: what each member was handed; a suppressed victim, nothing ---
    honest = parse_broadcast_payload(bcast_events[0].payload, ctx, digest_size, t)
    for ev in bcast_events[1:]:
        if ev.payload != bcast_events[0].payload:
            report.fail(f"event {ev.index}: broadcast original differs across events")
    handed = dict.fromkeys(names, honest)
    if adv is not None:  # the victim's event is the last: replaced (forge) or dropped (suppress)
        delivered = tr.events[-1].delivered_payload
        handed[adv.victim] = None if delivered is None else parse_broadcast_payload(delivered, ctx, digest_size, t)
    report.note("broadcast: framing consistent")

    # --- outcome records: timed out exactly when nothing arrived ---
    for oc in tr.outcomes:
        if (oc.status == _TIMEOUT) == (handed[oc.member] is not None):
            arrived = "no" if handed[oc.member] is None else "a"
            report.fail(f"outcome for {oc.member!r}: {oc.status} after {arrived} broadcast")
    failures = outcome_failures(tr)
    report.mismatches += (f"success condition: {line}" for line in failures)
    if not failures:
        report.note("success condition: met")

    if adv is not None and adv.action == ACTION_FORGE:  # the forgery, judged from the public record alone
        ev, forged = tr.events[-1], handed[adv.victim]
        if forged.r0 != honest.r0:
            report.fail(f"event {ev.index}: forgery altered the KGC nonce")
        if failures:
            report.skipped.append("forgery algebra and footprint: the outcomes miss the success condition")
        else:
            # the key shift: the victim's key minus the one key the others accepted, read at the one before it
            v = names.index(adv.victim)
            delta_key = ctx.sub(tr.outcomes[v].key, tr.outcomes[v - 1].key)
            delta_share = ctx.sub(forged.masked_shares[v], honest.masked_shares[v])
            if delta_share != delta_key:
                report.fail(f"event {ev.index}: forged share delta {delta_share} != planted key delta {delta_key}")
            else:
                report.note("forgery algebra: share shift equals key shift (mod m)")
            diffs = [i for i in range(t) if forged.masked_shares[i] != honest.masked_shares[i]]
            if not delta_key:  # planting the group key shifts no share and no tag
                if diffs or forged.auth != honest.auth:
                    report.fail(f"event {ev.index}: forgery of the group key differs from the honest broadcast")
                else:
                    report.note("forgery footprint: the group key was planted, and nothing changed")
            elif diffs != [v] or forged.auth == honest.auth:
                report.fail(f"event {ev.index}: forgery does not touch exactly the victim share and tag")
            else:
                report.note("forgery footprint: exactly the victim's share and the tag changed")

    gt = tr.ground_truth
    if gt is None:
        report.skipped.append("no ground truth (redacted): share, tag and outcome recomputation skipped")
        return report

    # --- recompute shares, tag, outcomes from recorded keys and randomness ---
    group_key = gt.group_key
    for ev, value in zip(challenge_events, challenges):
        if value != gt.challenges[ev.sender]:
            report.fail(f"event {ev.index}: challenge value {value} differs from ground truth {gt.challenges[ev.sender]}")
    if gt.r0 != honest.r0:
        report.fail(f"event {bcast_events[0].index}: broadcast nonce {honest.r0} differs from ground-truth r0 {gt.r0}")
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
        if handed[name] is None:
            expected = SessionOutcome.timeout()
        else:
            identity = PartyIdentity(ids[name], gt.member_keys[name])
            expected = user_process_broadcast(identity, roster, replay_challenges, handed[name], params)
        if (rec.status, rec.key, rec.reason) != (expected.status.value, expected.key, expected.reason):
            report.fail(
                f"outcome for {name!r}: recorded {rec.status}/{rec.key}, "
                f"recomputed {expected.status.value}/{expected.key}"
            )
    report.note("outcomes: match replayed processing")

    truth = gt.adversary
    if (truth is None) != (adv is None):  # only in memory: from_jsonl reads the section exactly with adv
        report.fail("ground-truth adversary section inconsistent with meta")
    elif truth and adv.action == ACTION_FORGE:
        if truth.target_key is None:
            report.fail("forge scenario lacks a recorded target key")
        if truth.recovered_key != group_key:
            report.fail("attacker's recovered key differs from the KGC's group key")
    return report
