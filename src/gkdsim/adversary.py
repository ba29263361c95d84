"""Channel control and the insider key-forgery strategy.

An insider who is a legitimate roster member can unmask the group key from
its own share, exactly like step 5. If it also controls the link from the
KGC to one victim, it can hand that victim a key of its own choosing: shift
the victim's masked share by (target - key) and recompute the tag over the
substituted values. The tag binds the broadcast to nothing but its own
contents, so the victim verifies and accepts. Everything else on the wire is
reused byte for byte, and no key other than the attacker's own is needed,
which is why the identical strategy works in both variants.

In a run an interceptor decides one message, the victim's copy of the key
broadcast, and gives it one of two fates: replaced by a forgery or dropped.
The event skeleton delivers everything else on the link.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import SeededRng, sample_element
from .codec import AuthInput, PublicParams, compute_auth
from .errors import AttackerIsVictim, IndexOutOfRoster, NotInRoster
from .protocol import GroupMember, GroupRoster, KgcBroadcast, PartyIdentity, unmask


class ActionKind(Enum):
    DROP = "drop"
    REPLACE = "replace"


@dataclass(frozen=True)
class ChannelAction:
    """What an interceptor does with the victim's broadcast: drop it (message None)
    or replace it with message."""

    kind: ActionKind
    message: KgcBroadcast | None


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
    """The insider strategy on the KGC->victim link, played by the attacker's own
    GroupMember: intercept() is offered only the victim's copy of the key
    broadcast, and replaces it with the forgery, built from what that member
    holds, its identity, the public parameters, and the roster and challenge
    vector it has seen. The member must have seen the announcement.

    target_key None means "pick one at attack time,
    different from the real key", drawn from rng. Keeps the recovered and planted
    keys as ground truth for transcripts.
    """

    def __init__(
        self, attacker: GroupMember, victim_index: int,
        target_key: int | None = None, rng: SeededRng | None = None,
    ):
        roster = attacker.roster  # announced, so it names the attacker
        if roster is None:
            raise NotInRoster("no announcement seen")
        if not 0 <= victim_index < roster.size:
            raise IndexOutOfRoster(
                f"victim index {victim_index} outside roster of {roster.size}"
            )
        if roster.members[victim_index] == attacker.identity.user_id:
            raise AttackerIsVictim("attacker and victim must be distinct members")
        if target_key is None and rng is None:
            raise ValueError("a random target key needs an rng")
        self.attacker = attacker
        self.victim_index = victim_index
        self.target_key = target_key
        self.rng = rng
        self.recovered_key: int | None = None
        self.forged_key: int | None = None

    def observe(self, sender: bytes, message: object) -> None:
        """Does nothing: the insider reads its member. Kept while perfbench/tracing.py names it."""

    def intercept(self, message: KgcBroadcast) -> ChannelAction:
        challenges, params, roster = self.attacker.challenges(), self.attacker.params, self.attacker.roster
        recovered = insider_recover_key(self.attacker.identity, roster, challenges, message, params)
        ctx = params.ctx
        target = self.target_key
        if target is None:
            target = sample_element(self.rng, ctx)
            while target == recovered:
                target = sample_element(self.rng, ctx)
        else:
            target = ctx.reduce(target)
        forged = forge_broadcast(
            self.victim_index, target, recovered, message, roster, challenges, params
        )
        self.recovered_key = recovered
        self.forged_key = target
        return ChannelAction(ActionKind.REPLACE, forged)


class BroadcastSuppressor:
    """Drop the key broadcast instead of forging: suppression, not impersonation.

    The victim then produces no outcome at all (timeout), which is what
    distinguishes simple denial of service from the forgery above. Like the
    insider's, intercept() is offered only the victim's copy of the broadcast.
    """

    def intercept(self, message: KgcBroadcast) -> ChannelAction:
        return ChannelAction(ActionKind.DROP, None)
