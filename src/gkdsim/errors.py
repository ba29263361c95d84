"""Exception hierarchy shared across the package.

Every error raised by the library derives from GkdError so callers (the CLI
in particular) can distinguish library failures from programming bugs.
"""


class GkdError(Exception):
    """Base class for all library errors."""


# --- parameter / arithmetic layer ---

class ModulusTooSmall(GkdError):
    """Supplied prime or bit length below the minimum usable size."""


class EqualFactors(GkdError):
    """Ring modulus requires two distinct primes."""


class CompositeWhenPrimeRequired(GkdError):
    """A value that must be (safe) prime failed validation."""


class WidthTooSmall(GkdError):
    """Power vector width below the minimum of 2."""


class LengthMismatch(GkdError):
    """Inner product operands of unequal or zero length."""


# --- encoding layer ---

class IdentifierTooLong(GkdError):
    """Identifier does not fit the configured fixed width."""


# --- protocol layer ---

class UnknownMember(GkdError):
    """Roster names an identity the KGC has no key for."""


class DuplicateMember(GkdError):
    """Roster or registry would contain the same identity twice."""


class NotInRoster(GkdError):
    """Party acts on a session it is not (or the peer is not) a member of."""


class IncompleteChallenges(GkdError):
    """Key distribution attempted before every member's challenge arrived."""


class MalformedBroadcast(GkdError):
    """Broadcast share count or framing inconsistent with the roster."""


class IndexOutOfRoster(GkdError):
    """A roster position (a member's share index, a victim's) is outside [0, t)."""


# --- adversary layer ---

class AttackerIsVictim(GkdError):
    """Insider attack requires attacker and victim to be distinct members."""


# --- simulation layer ---

class ConfigError(GkdError):
    """Scenario configuration failed validation."""


class MalformedTranscript(GkdError):
    """Transcript file or structure cannot be interpreted."""
