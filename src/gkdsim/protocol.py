"""KGC and group-member state machines for the five-step key distribution.

The run is: a registered initiator asks the KGC for a key over a roster of
t >= 2 members; the KGC echoes it as the session's one GroupRoster, the object
every member adopts; each member broadcasts a fresh challenge; the KGC draws a
group key, masks it per member with a share derived from that member's
long-term key and the challenge vector, tags the whole thing with a hash, and
broadcasts (tag, nonce, masked shares); each member unmasks its share and
accepts iff the recomputed tag matches.

The share formula is intentionally one function used by both sides:

    ring variant:   share = sum_{j=0..t} r_j * x^j               mod m
    field variant:  share = sum_{j=0..t} r_j * (x + H(x|r_i|r_0))^j  mod m

where x is the member's long-term key, r_0 the KGC nonce and r_i the member's
own challenge. compute_share evaluates the polynomial in blocks of b
coefficients (Paterson and Stockmeyer): one power vector x^0..x^b, one sum
per block, and Horner in x^b across the blocks. Up to t = 12 the one block is
a plain inner product. Above, b = isqrt(2t) (22 at t = 256), all block sums
come out of one packed integer, the sum of b+1 big-integer products
x^l*lane[l] (Kronecker substitution), and the Horner sum is reduced mod m
once, at the end, when m < 2^64. The lanes depend only on the nonces, b and
m, and in a session the KGC, every member, the insider and the verifier
evaluate shares over equal nonce vectors, so _lanes keeps the last call's
lanes and they are built once per session. That memo, like compute_auth's in
codec, never hashes the vector: a hit costs one identity test when the caller
passes the same tuple and one element-by-element comparison when it passes an
equal copy. A hit keeps the caller's copy, so the next caller, whose tuple
holds the same int objects (verify's replay builds each member's nonces from
one challenge vector), is matched pointer by pointer.

Every step and both state machines take the public parameters as one
codec.PublicParams: the domain, the hash and the identifier width; the insider
(adversary) reads its member's. The variant is read only as
params.ctx.variant, so a party cannot be built with a variant its domain
contradicts. The primitives below the steps (encode_elements, hash_to_element,
build_auth_input, _lanes) keep their narrow arguments, so the _lanes key does
not depend on the params value; the compute_auth memo keys on the whole (tag
input, params), and a run or a verify passes one params object throughout, so
that part of a hit is mostly one identity test.

Steps 4 and 5 (kgc_distribute, unmask, user_process_broadcast) and the
insider (adversary) take the public challenge vector (r_1, ..., r_t) in roster
order. The KGC and every GroupMember each log a challenge at its sender's
roster position, None until it arrives, so a complete log is the vector;
challenge_vector reads it, or names the senders still missing. The insider
keeps none: it reads its own member's (GroupMember.challenges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import isqrt
from operator import mul
from types import MappingProxyType
from typing import Mapping

from .algebra import SeededRng, Variant, power_vector, sample_element
from .codec import (
    AuthInput,
    PublicParams,
    compute_auth,
    encode_elements,
    hash_to_element,
    memo_last,
)
from .errors import (
    DuplicateMember,
    IncompleteChallenges,
    IndexOutOfRoster,
    MalformedBroadcast,
    NotInRoster,
    UnknownMember,
    WidthTooSmall,
)

TAG_MISMATCH = "tag_mismatch"


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartyIdentity:
    """A registered user: opaque identifier plus the long-term key shared with the KGC."""

    user_id: bytes
    secret_key: int


@dataclass(frozen=True)
class GroupRoster:
    """Ordered member list for one session; position in this tuple is the index
    used by every formula. The KGC's announcement is this object and every party
    of the session holds it, so index, id -> position, is read-only."""

    members: tuple[bytes, ...]
    index: Mapping[bytes, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("a session needs at least two members")
        index = MappingProxyType({m: i for i, m in enumerate(self.members)})
        if len(index) != len(self.members):
            raise DuplicateMember("roster contains a duplicate id")
        object.__setattr__(self, "index", index)

    def __reduce__(self):  # the read-only index does not pickle; rebuild it on load
        return GroupRoster, (self.members,)

    @property
    def size(self) -> int:
        return len(self.members)

    def index_of(self, user_id: bytes) -> int:
        try:
            return self.index[user_id]
        except KeyError:
            raise NotInRoster(f"{user_id!r} is not a roster member") from None


# --- messages: the step-2 announcement is the GroupRoster itself ---

@dataclass(frozen=True)
class ChallengeMessage:
    """One member's step-3 challenge, public to everybody."""

    sender: bytes
    value: int


@dataclass(frozen=True)
class KgcBroadcast:
    """Step-4 payload: tag, KGC nonce, and one masked share per member."""

    auth: bytes
    r0: int
    masked_shares: tuple[int, ...]


class OutcomeStatus(Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class SessionOutcome:
    status: OutcomeStatus
    key: int | None = None
    reason: str | None = None

    @classmethod
    def rejected(cls, reason: str) -> "SessionOutcome":
        return cls(OutcomeStatus.REJECTED, reason=reason)

    @classmethod
    def timeout(cls) -> "SessionOutcome":
        return cls(OutcomeStatus.TIMEOUT, reason="no broadcast received")


# ---------------------------------------------------------------------------
# shared formulas
# ---------------------------------------------------------------------------

def compute_share(secret_key: int, nonces: tuple[int, ...], roster_index: int, params: PublicParams) -> int:
    """The masking share for the member at roster_index (0-based):
    sum_{j=0..t} r_j * x^j mod m, with x the key, offset by the element hash
    when params.ctx.variant is the field variant.

    nonces is the full (t+1)-tuple (r_0, r_1, ..., r_t), t >= 2, else
    WidthTooSmall, and roster_index is in [0, t), else IndexOutOfRoster.
    The same function runs on the KGC and on every member, which is what
    makes unmasking work. params.hash_cfg names the element hash; its
    id_width plays no part in a share.

    The value is inner_product(power_vector(x, t), nonces), evaluated from one
    power_vector(x, b): b = t up to t = 12, b = isqrt(2t) above (22 at
    t = 256). Block k holds r_kb..r_(kb+b-1), the top block takes up to b+1
    nonces, and the block sums are combined from the top by Horner in x^b.

    Up to t = 12 there is one block, and it is a plain C-level inner product:
    packing would only add the cost of building lanes. Above, the block sums
    are the slots of the one integer sum_l x^l * lane[l]. Lane l packs the
    l-th nonce of every block, reduced mod m, one w-bit slot per block, with
    w = 2*bits(m) + bits(b+1): a slot sums at most b+1 products below m^2,
    so it stays below 2^w and never carries into the next. The slots are
    read out by shift and mask into the Horner sum, reduced mod m once at
    the end when m < 2^64 and once per block above, where its growth by
    bits(m) a block outweighs the reductions. _lanes keeps the lanes of the
    last (nonces, b, m) only, matched by identity or ==, never by hash: this
    relies on every share of a session being over equal nonce vectors, which
    holds for the KGC, the members, the insider and the verifier; a caller
    that alternates vectors rebuilds them on every call.
    """
    t = len(nonces) - 1
    if t < 2:
        raise WidthTooSmall(f"a share needs t >= 2 challenges, got {t}")
    if not 0 <= roster_index < t:
        raise IndexOutOfRoster(f"roster index {roster_index} outside roster of {t}")
    ctx = params.ctx
    m = ctx.modulus
    x = secret_key % m
    if ctx.variant is Variant.FIELD:
        material = encode_elements((x, nonces[roster_index + 1] % m, nonces[0] % m), ctx)
        x = (x + hash_to_element(material, ctx, params.hash_cfg)) % m
    b = t if t <= 12 else isqrt(2 * t)
    powers = power_vector(x, b, ctx)
    if b == t:
        return sum(map(mul, powers, nonces)) % m
    lanes, w = _lanes(tuple(nonces), b, m)
    packed = sum(map(mul, powers, lanes))
    mask = (1 << w) - 1
    xb = powers[b]
    wide = m >> 64
    acc = 0
    for shift in range((t - 1) // b * w, -1, -w):
        acc = acc * xb + (packed >> shift & mask)
        if wide:
            acc %= m
    return acc % m


@memo_last
def _lanes(nonces: tuple[int, ...], b: int, m: int) -> tuple[tuple[int, ...], int]:
    """compute_share's b+1 lanes and their slot width w in bits.

    Lane l < b holds r_(kb+l) mod m in bits kw..kw+w-1 for every block k.
    Lane b holds r_t in the top slot when the top block is full (t is b
    times the number of blocks) and is 0 otherwise.
    """
    t = len(nonces) - 1
    w = 2 * m.bit_length() + (b + 1).bit_length()
    end = b * ((t - 1) // b + 1)
    slots = range(0, end // b * w, w)
    lanes = [sum(r % m << s for r, s in zip(nonces[l:end:b], slots)) for l in range(b)]
    lanes.append(nonces[t] % m << slots[-1] if end == t else 0)
    return tuple(lanes), w


def challenge_vector(roster: GroupRoster, log: list[int | None]) -> tuple[int, ...]:
    """(r_1, ..., r_t) from a challenge log by roster position, None where no
    challenge has arrived: IncompleteChallenges names those senders in roster
    order. all() spares the scan for None unless a challenge is None or 0."""
    if not all(log) and None in log:
        missing = [m for m, v in zip(roster.members, log) if v is None]
        raise IncompleteChallenges(f"missing challenges from {missing!r}")
    return tuple(log)


def unmask(
    identity: PartyIdentity,
    roster: GroupRoster,
    challenges: tuple[int, ...],
    bcast: KgcBroadcast,
    params: PublicParams,
) -> tuple[int, tuple[int, ...]]:
    """Step 5's unmasking: add identity's own share to its masked share.

    challenges is the vector (r_1, ..., r_t) in roster order (challenge_vector).
    Returns (candidate key, nonces). Whether to trust the candidate is the
    caller's business: a member checks the tag, the insider does not.
    """
    index = roster.index_of(identity.user_id)
    if len(bcast.masked_shares) != roster.size:
        raise MalformedBroadcast(f"{len(bcast.masked_shares)} shares for a roster of {roster.size}")
    if len(challenges) != roster.size:
        raise IncompleteChallenges(f"{len(challenges)} challenges for a roster of {roster.size}")
    nonces = (bcast.r0, *challenges)
    share = compute_share(identity.secret_key, nonces, index, params)
    return params.ctx.add(bcast.masked_shares[index], share), nonces


def kgc_distribute(
    roster: GroupRoster,
    registered_keys: Mapping[bytes, int],
    challenges: tuple[int, ...],
    rng: SeededRng,
    params: PublicParams,
    group_key: int | None = None,
    nonce: int | None = None,
) -> tuple[KgcBroadcast, int]:
    """Steps 4a-4d: draw key and nonce, mask per member, tag, broadcast.

    challenges is the roster-ordered vector (r_1, ..., r_t), as for unmask.
    Returns (broadcast, group_key). The group key is returned only so tests
    and the insider (who can derive it anyway) have ground truth; it is never
    part of the wire message. group_key/nonce may be forced for fixtures.
    """
    for m in roster.members:
        if m not in registered_keys:
            raise UnknownMember(f"no registered key for {m!r}")
    if len(challenges) != roster.size:
        raise IncompleteChallenges(f"{len(challenges)} challenges for a roster of {roster.size}")
    ctx = params.ctx
    received = tuple(map(ctx.reduce, challenges))

    s = sample_element(rng, ctx) if group_key is None else ctx.reduce(group_key)
    r0 = sample_element(rng, ctx) if nonce is None else ctx.reduce(nonce)
    nonces = (r0, *received)

    shares = tuple(
        ctx.sub(s, compute_share(registered_keys[m], nonces, i, params))
        for i, m in enumerate(roster.members)
    )
    auth = compute_auth(AuthInput(s, roster.members, nonces, shares), params)
    return KgcBroadcast(auth=auth, r0=r0, masked_shares=shares), s


def user_process_broadcast(
    identity: PartyIdentity,
    roster: GroupRoster,
    challenges: tuple[int, ...],
    bcast: KgcBroadcast,
    params: PublicParams,
) -> SessionOutcome:
    """Step 5: unmask the candidate key and accept iff the recomputed tag matches.

    challenges is the roster-ordered vector (r_1, ..., r_t), as for unmask.
    The tag is recomputed over the values as received, so any single-field
    tampering that leaves the tag untouched lands in REJECTED.
    """
    candidate, nonces = unmask(identity, roster, challenges, bcast, params)
    ai = AuthInput(candidate, roster.members, nonces, bcast.masked_shares)
    expected = compute_auth(ai, params)
    if expected != bcast.auth:
        return SessionOutcome.rejected(TAG_MISMATCH)
    return SessionOutcome(OutcomeStatus.ACCEPTED, candidate)


# ---------------------------------------------------------------------------
# state machines
# ---------------------------------------------------------------------------

class KeyGenerationCentre:
    """The trusted party: key registry plus the session's challenge log by roster position."""

    def __init__(self, params: PublicParams):
        self.params = params
        self._keys: dict[bytes, int] = {}
        self.roster: GroupRoster | None = None
        self._log: list[int | None] = []

    def register(self, identity: PartyIdentity) -> None:
        if identity.user_id in self._keys:
            raise DuplicateMember(f"{identity.user_id!r} already registered")
        self._keys[identity.user_id] = self.params.ctx.reduce(identity.secret_key)

    def announce(self, member_ids: tuple[bytes, ...]) -> GroupRoster:
        """Step 2: validate the requested roster and echo it, in request order, as
        the session's one GroupRoster: every member receives this object."""
        roster = GroupRoster(tuple(member_ids))
        for m in roster.members:
            if m not in self._keys:
                raise UnknownMember(f"{m!r} is not registered")
        self.roster = roster
        self._log = [None] * roster.size
        return roster

    def receive_challenge(self, msg: ChallengeMessage) -> None:
        if self.roster is None:
            raise NotInRoster("no session announced")
        if msg.sender not in self.roster.index:
            raise NotInRoster(f"{msg.sender!r} is not in the current roster")
        # no origin authentication: any challenge labeled with a roster id counts
        self._log[self.roster.index[msg.sender]] = self.params.ctx.reduce(msg.value)

    def distribute(self, rng: SeededRng) -> tuple[KgcBroadcast, int]:
        if self.roster is None:
            raise IncompleteChallenges("no session announced")
        return kgc_distribute(self.roster, self._keys, challenge_vector(self.roster, self._log), rng, self.params)


class GroupMember:
    """One user's view of a session.

    Holds only its own identity; there is deliberately no way to reach any
    other member's long-term key from here. The challenges seen this session
    are a log by roster position, None where none has arrived yet.
    """

    def __init__(self, identity: PartyIdentity, params: PublicParams):
        self.identity = identity
        self.params = params
        self._modulus = params.ctx.modulus
        self.roster: GroupRoster | None = None
        self._index: Mapping[bytes, int] = {}  # the roster's, once announced
        self._log: list[int | None] = []
        self.pending_broadcast: KgcBroadcast | None = None

    def receive_announcement(self, roster: GroupRoster) -> None:
        """Adopt the KGC's announced roster object, NotInRoster unless it names this
        member; resets all per-session state (freshness)."""
        roster.index_of(self.identity.user_id)
        self.roster = roster
        self._index = roster.index
        self._log = [None] * roster.size
        self.pending_broadcast = None

    def issue_challenge(self, rng: SeededRng) -> ChallengeMessage:
        if self.roster is None:
            raise NotInRoster("no announcement seen")
        value = sample_element(rng, self.params.ctx)
        self._log[self._index[self.identity.user_id]] = value
        return ChallengeMessage(sender=self.identity.user_id, value=value)

    def observe_challenge(self, msg: ChallengeMessage) -> None:
        """Record a challenge seen on the public channel from a roster member."""
        try:
            self._log[self._index[msg.sender]] = msg.value % self._modulus
        except KeyError:  # not a roster member
            pass

    def receive_broadcast(self, bcast: KgcBroadcast) -> None:
        self.pending_broadcast = bcast

    def challenges(self) -> tuple[int, ...]:
        """(r_1, ..., r_t) as this member has seen them: NotInRoster before an
        announcement, IncompleteChallenges while one is missing (challenge_vector)."""
        if self.roster is None:
            raise NotInRoster("no announcement seen")
        return challenge_vector(self.roster, self._log)

    def finalize(self) -> SessionOutcome:
        """Process whatever arrived; TIMEOUT when the broadcast never did."""
        if self.roster is None or self.pending_broadcast is None:
            return SessionOutcome.timeout()
        challenges = self.challenges()
        return user_process_broadcast(self.identity, self.roster, challenges, self.pending_broadcast, self.params)
