import pytest

from gkdsim.algebra import Variant, domain_new


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
