import json

import pytest
from hypothesis import settings

from gkdsim.algebra import Variant, domain_new
from gkdsim.simnet import TRANSCRIPT_FORMAT

# A failing example's reproduction blob goes to the log, on top of the active
# profile: Hypothesis' own "ci" one where CI is set (derandomized, no example
# database), else its random default.
settings.register_profile("print-blob", settings.get_profile(settings.get_current_profile_name()), print_blob=True)
settings.load_profile("print-blob")


@pytest.fixture
def ring35():
    """Smallest ring context: m = 5 * 7, one-byte residues."""
    return domain_new(5, 7, variant=Variant.RING)


@pytest.fixture
def field23():
    """Smallest handy field context: m = 23, one-byte residues."""
    return domain_new(23, variant=Variant.FIELD)


FORGE = {"attacker": "carol", "victim": "bob", "target_key": "random"}
SUPPRESS = {"attacker": "carol", "victim": "bob", "action": "suppress"}


def scenario_dict(**overrides):
    """A valid baseline scenario config; override freely per test."""
    base = {
        "variant": "ring",
        "modulus": {"p": 167, "q": 179},
        "members": ["alice", "bob", "carol"],
        "seed": 7,
    }
    base.update(overrides)
    return base


# --- the line oracle: each transcript line is its record as json.dumps writes it with
# sorted keys and no spaces. simnet writes every line with a framed writer; these build
# the records field by field and dump them the slow way.

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # json.dumps builds one per call


def dump(record):
    """record as a transcript line holds it."""
    return _ENCODER.encode(record)


def meta_record(meta):
    """The fields of meta's header record."""
    adv, params, ctx = meta.adversary, meta.params, meta.params.ctx
    return {
        "format": TRANSCRIPT_FORMAT,
        "variant": ctx.variant.value,
        "modulus": ctx.modulus,
        "p": meta.p,
        "q": meta.q,
        "byte_width": ctx.byte_width,
        "digest_size": params.hash_cfg.digest_size,
        "hash_algorithm": params.hash_cfg.algorithm,
        "element_hash": params.hash_cfg.element_hash,
        "id_width": params.id_width,
        "members": list(meta.members),
        "initiator": meta.initiator,
        "seed": meta.seed,
        "t": meta.t,
        "adversary": adv and dict(attacker=adv.attacker, victim=adv.victim, action=adv.action),
        "redacted": meta.redacted,
    }


def ground_truth_record(gt, meta):
    """The fields of gt's record over meta: the insider's keys exactly when gt has them,
    with meta's roles when it has them."""
    adv, roles = gt.adversary, meta.adversary
    return {**vars(gt), "adversary": adv and {**(vars(roles) if roles else {}), **vars(adv)}}


def outcome_record(oc):
    """The fields of an outcome record: no field that is None."""
    return {k: v for k, v in vars(oc).items() if v is not None}
