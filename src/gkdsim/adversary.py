"""Channel control and the insider key-forgery strategy.

An insider who is a legitimate roster member can unmask the group key from
its own share, exactly like step 5. If it also controls the link from the
KGC to one victim, it can hand that victim a key of its own choosing: shift
the victim's masked share by (target - key) and recompute the tag over the
substituted values. The tag binds the broadcast to nothing but its own
contents, so the victim verifies and accepts. Everything else on the wire is
reused byte for byte, and no key other than the attacker's own is needed,
which is why the identical strategy works in both variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import SeededRng, sample_element
from .codec import AuthInput, PublicParams, compute_auth
from .errors import AttackerIsVictim, IndexOutOfRoster
from .protocol import (
    ChallengeMessage,
    GroupRoster,
    KgcBroadcast,
    PartyIdentity,
    challenge_vector,
    unmask,
)


class ActionKind(Enum):
    DELIVER = "deliver"
    DROP = "drop"
    REPLACE = "replace"


@dataclass(frozen=True)
class ChannelAction:
    """What an interceptor does with one message on one link."""

    kind: ActionKind
    message: object | None = None

    @classmethod
    def deliver(cls) -> "ChannelAction":
        return cls(ActionKind.DELIVER)

    @classmethod
    def drop(cls) -> "ChannelAction":
        return cls(ActionKind.DROP)

    @classmethod
    def replace(cls, message: object) -> "ChannelAction":
        if message is None:
            raise ValueError("replacement message required")
        return cls(ActionKind.REPLACE, message=message)


@dataclass(frozen=True)
class InsiderContext:
    """Attack parameters: who attacks, who is fooled, what key gets planted.

    target_key None means "pick one at attack time, different from the real key".
    """

    attacker: PartyIdentity
    victim_index: int
    target_key: int | None = None


def insider_recover_key(
    attacker: PartyIdentity,
    roster: GroupRoster,
    challenges: tuple[int, ...],
    bcast: KgcBroadcast,
    params: PublicParams,
) -> int:
    """Unmask the group key from the attacker's own share, exactly like step 5.

    challenges is the roster-ordered vector (r_1, ..., r_t) (challenge_vector)."""
    return unmask(attacker, roster, challenges, bcast, params)[0]


def forge_broadcast(
    victim_index: int,
    target_key: int,
    recovered_key: int,
    honest: KgcBroadcast,
    roster: GroupRoster,
    challenges: tuple[int, ...],
    params: PublicParams,
) -> KgcBroadcast:
    """The forgery: shift the victim's share, retag, reuse everything else.

    Exactly two fields differ from the honest broadcast: the victim's masked
    share and the tag. With target_key == recovered_key the output degenerates
    to the honest message. challenges is the roster-ordered vector
    (r_1, ..., r_t) (challenge_vector).
    """
    if not 0 <= victim_index < roster.size:
        raise IndexOutOfRoster(f"victim index {victim_index} outside roster of {roster.size}")
    ctx = params.ctx
    nonces = (honest.r0, *challenges)
    target = ctx.reduce(target_key)
    shifted = ctx.add(ctx.sub(honest.masked_shares[victim_index], recovered_key), target)
    shares = (*honest.masked_shares[:victim_index], shifted, *honest.masked_shares[victim_index + 1 :])
    auth = compute_auth(AuthInput(target, roster.members, nonces, shares), params)
    return KgcBroadcast(auth=auth, r0=honest.r0, masked_shares=shares)


# ---------------------------------------------------------------------------
# interceptors
# ---------------------------------------------------------------------------

class InsiderInterceptor:
    """The insider strategy on the KGC->victim link. observe() sees every public
    message (the insider watches the broadcast medium); intercept() is offered
    only the victim's copy of each KGC message, and decides it.

    Passes everything through untouched except the final key broadcast, which
    it replaces with the forgery. Keeps the recovered and planted keys as
    ground truth for transcripts. params are the session's public parameters,
    the same value the KGC and the members hold: the insider needs nothing
    else to unmask and retag.
    """

    def __init__(
        self, ictx: InsiderContext, roster: GroupRoster, params: PublicParams, rng: SeededRng | None = None
    ):
        if not 0 <= ictx.victim_index < roster.size:
            raise IndexOutOfRoster(
                f"victim index {ictx.victim_index} outside roster of {roster.size}"
            )
        if roster.members[ictx.victim_index] == ictx.attacker.user_id:
            raise AttackerIsVictim("attacker and victim must be distinct members")
        roster.index_of(ictx.attacker.user_id)
        if ictx.target_key is None and rng is None:
            raise ValueError("a random target key needs an rng")
        self.ictx = ictx
        self.roster = roster
        self.params = params
        self.rng = rng
        self._log: list[int | None] = [None] * roster.size  # challenges by roster position
        self.recovered_key: int | None = None
        self.forged_key: int | None = None

    def observe(self, sender: bytes, message: object) -> None:
        if isinstance(message, ChallengeMessage) and message.sender in self.roster.index:
            self._log[self.roster.index[message.sender]] = self.params.ctx.reduce(message.value)

    def intercept(self, message: object) -> ChannelAction:
        if not isinstance(message, KgcBroadcast):
            return ChannelAction.deliver()
        challenges = challenge_vector(self.roster, self._log)
        recovered = insider_recover_key(self.ictx.attacker, self.roster, challenges, message, self.params)
        ctx = self.params.ctx
        target = self.ictx.target_key
        if target is None:
            target = sample_element(self.rng, ctx)
            while target == recovered:
                target = sample_element(self.rng, ctx)
        else:
            target = ctx.reduce(target)
        forged = forge_broadcast(
            self.ictx.victim_index, target, recovered, message, self.roster, challenges, self.params
        )
        self.recovered_key = recovered
        self.forged_key = target
        return ChannelAction.replace(forged)


class BroadcastSuppressor:
    """Drop the key broadcast instead of forging: suppression, not impersonation.

    The victim then produces no outcome at all (timeout), which is what
    distinguishes simple denial of service from the forgery above. Like the
    insider's, intercept() is offered only the victim's copy of a KGC message.
    """

    def intercept(self, message: object) -> ChannelAction:
        if isinstance(message, KgcBroadcast):
            return ChannelAction.drop()
        return ChannelAction.deliver()
