"""Group key distribution testbed.

Executable state machines for a KGC-mediated group key distribution scheme
(ring and field variants), a simulated broadcast network with an insider
on the KGC->victim link, the insider forgery that defeats the scheme's
broadcast tag, and deterministic, replay-verifiable transcripts of it all.
"""

from .algebra import (
    DomainContext,
    SeededRng,
    Variant,
    domain_new,
    gen_safe_prime,
    inner_product,
    is_prime,
    is_safe_prime,
    power_vector,
    sample_element,
)
from .codec import (
    AuthInput,
    HashConfig,
    PublicParams,
    build_auth_input,
    compute_auth,
    decode_element,
    encode_element,
    encode_identifier,
    hash_to_element,
)
from .protocol import (
    Announcement,
    ChallengeMessage,
    GroupMember,
    GroupRoster,
    KeyGenerationCentre,
    KgcBroadcast,
    OutcomeStatus,
    PartyIdentity,
    SessionOutcome,
    compute_share,
    kgc_distribute,
    user_process_broadcast,
)
from .adversary import (
    BroadcastSuppressor,
    ChannelAction,
    InsiderInterceptor,
    forge_broadcast,
    insider_recover_key,
)
from .simnet import (
    AdversarySpec,
    ScenarioConfig,
    Transcript,
    TranscriptMeta,
    VerificationReport,
    build_domain,
    run_scenario,
    verify_transcript,
)

__version__ = "0.1.0"
