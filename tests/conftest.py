import pytest
from hypothesis import settings

from gkdsim.algebra import Variant, domain_new

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
