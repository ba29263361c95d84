import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from gkdsim import codec
from gkdsim.algebra import DomainContext, Variant, domain_new
from gkdsim.codec import (
    AuthInput,
    HashConfig,
    PublicParams,
    ZERO_HASH,
    build_auth_input,
    compute_auth,
    decode_element,
    encode_element,
    encode_identifier,
    hash_to_element,
)
from gkdsim.errors import IdentifierTooLong

# Golden digests, frozen once. Each was produced with hashlib and
# cross-checked against the sha256sum command-line tool.
GOLDEN_AUTH_INPUT = bytes.fromhex("0a4142030102201f")
GOLDEN_AUTH_DIGEST = "ab8ec45ae92ccbe4c1dcef454f341f5d40a70f081ebc93dd325c32a5a37e36cb"
SHA256_EMPTY_MOD_23 = 15  # int(sha256(b""), 16) % 23


@pytest.fixture
def ctx331():
    return domain_new(331, variant=Variant.FIELD)


# --- element encoding ----------------------------------------------------------

def test_encode_single_byte(ring35):
    assert encode_element(13, ring35) == b"\x0d"


def test_encode_zero(ring35):
    assert encode_element(0, ring35) == b"\x00"


def test_encode_two_bytes(ctx331):
    assert encode_element(300, ctx331) == b"\x01\x2c"


def test_encode_rejects_unrepresentable(ring35):
    with pytest.raises(ValueError):
        encode_element(256, ring35)
    with pytest.raises(ValueError):
        encode_element(-1, ring35)


def test_round_trip_exhaustive(ring35, field23):
    for ctx in (ring35, field23):
        for e in range(ctx.modulus):
            assert decode_element(encode_element(e, ctx), ctx) == e


def test_decode_length_check(ctx331):
    with pytest.raises(ValueError):
        decode_element(b"\x01", ctx331)


# --- identifiers ---------------------------------------------------------------

def test_identifier_padding():
    assert encode_identifier(b"A", 2) == b"\x00A"
    assert encode_identifier(b"AB", 2) == b"AB"
    assert encode_identifier(b"", 3) == b"\x00\x00\x00"


def test_identifier_too_long():
    with pytest.raises(IdentifierTooLong):
        encode_identifier(b"ABC", 2)


# --- tag input -----------------------------------------------------------------

def test_auth_input_all_zero_length():
    ai = AuthInput(group_key=0, member_ids=(b"", b""), nonces=(0, 0, 0), masked_shares=(0, 0))
    ctx = domain_new(5, 7, variant=Variant.RING)
    out = build_auth_input(ai, ctx, id_width=1)
    # 1 key + 2 ids + 3 nonces + 2 shares, one byte each
    assert out == b"\x00" * 8


def test_auth_input_golden_bytes(ring35):
    ai = AuthInput(
        group_key=10,
        member_ids=(b"\x41", b"\x42"),
        nonces=(3, 1, 2),
        masked_shares=(32, 31),
    )
    assert build_auth_input(ai, ring35, id_width=1) == GOLDEN_AUTH_INPUT


def test_auth_input_counts_enforced():
    with pytest.raises(ValueError):
        AuthInput(group_key=0, member_ids=(b"a", b"b"), nonces=(0, 0), masked_shares=(0, 0))
    with pytest.raises(ValueError):
        AuthInput(group_key=0, member_ids=(b"a", b"b"), nonces=(0, 0, 0), masked_shares=(0,))


def test_changing_one_share_changes_bytes(ring35):
    base = AuthInput(10, (b"A", b"B"), (3, 1, 2), (32, 31))
    tweaked = AuthInput(10, (b"A", b"B"), (3, 1, 2), (33, 31))
    assert build_auth_input(base, ring35) != build_auth_input(tweaked, ring35)


@st.composite
def auth_inputs(draw):
    t = draw(st.integers(min_value=2, max_value=4))
    elem = st.integers(min_value=0, max_value=34)
    ident = st.binary(min_size=1, max_size=4).filter(lambda b: not b.startswith(b"\x00"))
    return AuthInput(
        group_key=draw(elem),
        member_ids=tuple(draw(ident) for _ in range(t)),
        nonces=tuple(draw(elem) for _ in range(t + 1)),
        masked_shares=tuple(draw(elem) for _ in range(t)),
    )


@given(a=auth_inputs(), b=auth_inputs())
@settings(max_examples=80, deadline=None)
def test_frame_injectivity(a, b):
    ctx = domain_new(5, 7, variant=Variant.RING)
    if build_auth_input(a, ctx) == build_auth_input(b, ctx):
        assert a == b


# --- bulk tag body against the per-field reference ------------------------------

def reference_build_auth_input(ai, ctx, id_width=16):
    """The tag input encoded one field at a time, as the scheme defines it."""
    parts = [encode_element(ai.group_key, ctx)]
    parts += [encode_identifier(m, id_width) for m in ai.member_ids]
    parts += [encode_element(r, ctx) for r in ai.nonces]
    parts += [encode_element(u, ctx) for u in ai.masked_shares]
    return b"".join(parts)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, IdentifierTooLong) as e:
        return type(e)


@st.composite
def wide_auth_cases(draw):
    """Byte widths 1..16 and id widths 1..16; in half the cases one field does not fit."""
    bits = draw(st.integers(min_value=3, max_value=128))
    modulus = draw(st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1))
    ctx = DomainContext(modulus=modulus, variant=Variant.FIELD, byte_width=(bits + 7) // 8)
    id_width = draw(st.integers(min_value=1, max_value=16))
    t = draw(st.integers(min_value=2, max_value=6))
    top = 256**ctx.byte_width
    elem = st.integers(min_value=0, max_value=top - 1)
    fields = [
        [draw(elem)],
        [draw(st.binary(max_size=id_width)) for _ in range(t)],
        [draw(elem) for _ in range(t + 1)],
        [draw(elem) for _ in range(t)],
    ]
    corrupt = draw(st.sampled_from(["none", "key", "id", "nonce", "share"] + ["none"] * 3))
    if corrupt != "none":
        part = fields[["key", "id", "nonce", "share"].index(corrupt)]
        pos = draw(st.integers(min_value=0, max_value=len(part) - 1))
        if corrupt == "id":
            part[pos] = draw(st.binary(min_size=id_width + 1, max_size=id_width + 4))
        else:
            part[pos] = draw(st.one_of(st.integers(top, 4 * top), st.integers(-top, -1)))
    key, ids, nonces, shares = fields
    return AuthInput(key[0], tuple(ids), tuple(nonces), tuple(shares)), ctx, id_width


@given(case=wide_auth_cases())
@settings(max_examples=300, deadline=None)
def test_build_auth_input_matches_per_field_reference(case):
    ai, ctx, id_width = case
    assert _outcome(build_auth_input, ai, ctx, id_width) == _outcome(
        reference_build_auth_input, ai, ctx, id_width
    )


def test_build_auth_input_16_byte_fields():
    ctx = domain_new(2**127 - 1, variant=Variant.FIELD)
    assert ctx.byte_width == 16
    ids = tuple(f"member-{k:09d}".encode() for k in range(256))
    assert {len(m) for m in ids} == {16}
    nonces = tuple((k * 0x9E3779B97F4A7C15) % ctx.modulus for k in range(257))
    ai = AuthInput(ctx.modulus - 1, ids, nonces, nonces[1:])
    out = build_auth_input(ai, ctx, 16)
    assert len(out) == 16 * (1 + 256 + 257 + 256)
    assert out == reference_build_auth_input(ai, ctx, 16)


# --- the tag body memo ---------------------------------------------------------

class UnhashableTuple(tuple):
    """A vector that fails loudly when anything hashes it."""

    def __hash__(self):
        raise TypeError("a tag vector was hashed")


def _tag_fixture(t=40, seed=3):
    ctx = domain_new(2**64 - 59, variant=Variant.FIELD)
    rnd = random.Random(seed)
    ids = tuple(f"m{k}".encode() for k in range(t))
    nonces = tuple(rnd.randrange(ctx.modulus) for _ in range(t + 1))
    shares = tuple(rnd.randrange(ctx.modulus) for _ in range(t))
    return ctx, ids, nonces, shares


def test_compute_auth_never_hashes_its_vectors():
    ctx, ids, nonces, shares = _tag_fixture()
    ai = AuthInput(7, UnhashableTuple(ids), UnhashableTuple(nonces), UnhashableTuple(shares))
    assert compute_auth(ai, PublicParams(ctx)) == hashlib.sha256(reference_build_auth_input(ai, ctx)).digest()
    codec._auth_body.cache_clear()
    body = codec._auth_body(ai.member_ids, ai.nonces, ai.masked_shares, ctx, 16)
    assert codec._auth_body(ids, nonces, shares, ctx, 16) is body  # equal vectors hit
    assert reference_build_auth_input(ai, ctx).endswith(body)


def test_alternating_tag_bodies_are_never_stale():
    """Honest, forged, honest, an equal copy of honest, forged: every tag input is
    the reference's, and each switch rebuilds the body; so do a new id width and
    a new context over the same vectors."""
    ctx, ids, nonces, shares = _tag_fixture()
    forged = (*shares[:1], (shares[1] + 1) % ctx.modulus, *shares[2:])
    honest_ai = AuthInput(5, ids, nonces, shares)
    forged_ai = AuthInput(9, ids, nonces, forged)
    copy_ai = AuthInput(5, tuple(list(ids)), tuple(list(nonces)), tuple(list(shares)))
    codec._auth_body.cache_clear()
    for ai in (honest_ai, forged_ai, honest_ai, copy_ai, forged_ai):
        assert build_auth_input(ai, ctx) == reference_build_auth_input(ai, ctx)
    assert codec._auth_body.cache_info() == (1, 4)
    wide = domain_new(2**127 - 1, variant=Variant.FIELD)
    for c, width in ((ctx, 20), (ctx, 20), (wide, 20), (ctx, 16)):
        assert build_auth_input(forged_ai, c, width) == reference_build_auth_input(forged_ai, c, width)
    assert codec._auth_body.cache_info() == (2, 7)


@pytest.mark.parametrize("bad", [
    AuthInput(1, (b"A", b"B"), (3, 1, 2), (32, 256)),
    AuthInput(1, (b"A", b"B" * 17), (3, 1, 2), (32, 21)),
], ids=["share", "id"])
def test_failed_tag_body_is_not_memoised(ring35, bad):
    """An oversized field raises every time, and the body before it stays memoised."""
    good = AuthInput(1, (b"A", b"B"), (3, 1, 2), (32, 21))
    expected = reference_build_auth_input(good, ring35)
    codec._auth_body.cache_clear()
    assert build_auth_input(good, ring35) == expected
    for _ in range(2):
        with pytest.raises((ValueError, IdentifierTooLong)):
            build_auth_input(bad, ring35)
    assert build_auth_input(good, ring35) == expected
    assert codec._auth_body.cache_info() == (1, 3)


# --- error paths through compute_auth -----------------------------------------

@pytest.mark.parametrize("field", ["key", "nonce", "share"])
@pytest.mark.parametrize("bad", [-1, 256, 2**64])
def test_compute_auth_rejects_unrepresentable_fields(ring35, field, bad):
    good = AuthInput(10, (b"A", b"B"), (3, 1, 2), (32, 31))
    before = compute_auth(good, PublicParams(ring35))  # a memoised good block must not mask the error
    if field == "key":
        ai = AuthInput(bad, good.member_ids, good.nonces, good.masked_shares)
    elif field == "nonce":
        ai = AuthInput(good.group_key, good.member_ids, (3, bad, 2), good.masked_shares)
    else:
        ai = AuthInput(good.group_key, good.member_ids, good.nonces, (32, bad))
    with pytest.raises(ValueError):
        compute_auth(ai, PublicParams(ring35))
    assert compute_auth(good, PublicParams(ring35)) == before


def test_compute_auth_rejects_over_long_id(ring35):
    ai = AuthInput(10, (b"A", b"BCD"), (3, 1, 2), (32, 31))
    compute_auth(ai, PublicParams(ring35, id_width=3))
    with pytest.raises(IdentifierTooLong):
        compute_auth(ai, PublicParams(ring35, id_width=2))
    with pytest.raises(IdentifierTooLong):
        compute_auth(AuthInput(10, (b"x" * 17, b"B"), (3, 1, 2), (32, 31)), PublicParams(ring35))


# --- tag computation -----------------------------------------------------------

def test_compute_auth_deterministic(ring35):
    ai = AuthInput(10, (b"A", b"B"), (3, 1, 2), (32, 31))
    assert compute_auth(ai, PublicParams(ring35)) == compute_auth(ai, PublicParams(ring35))


def test_compute_auth_key_sensitivity(ring35):
    a = AuthInput(10, (b"A", b"B"), (3, 1, 2), (32, 31))
    b = AuthInput(11, (b"A", b"B"), (3, 1, 2), (32, 31))
    assert compute_auth(a, PublicParams(ring35)) != compute_auth(b, PublicParams(ring35))


def test_compute_auth_golden(ring35):
    ai = AuthInput(10, (b"\x41", b"\x42"), (3, 1, 2), (32, 31))
    assert compute_auth(ai, PublicParams(ring35, id_width=1)).hex() == GOLDEN_AUTH_DIGEST


def test_digest_length_matches_config(ring35):
    ai = AuthInput(10, (b"A", b"B"), (3, 1, 2), (32, 31))
    assert len(compute_auth(ai, PublicParams(ring35))) == HashConfig().digest_size == 32


# --- hash_to_element -----------------------------------------------------------

def test_hash_to_element_deterministic(field23):
    assert hash_to_element(b"abc", field23) == hash_to_element(b"abc", field23)


def test_hash_to_element_empty_input_golden(field23):
    assert hash_to_element(b"", field23) == SHA256_EMPTY_MOD_23


@given(data=st.binary(max_size=64))
@settings(max_examples=60, deadline=None)
def test_hash_to_element_range(data):
    ctx = domain_new(23, variant=Variant.FIELD)
    assert 0 <= hash_to_element(data, ctx) < 23


def test_zero_element_hash(field23):
    cfg = HashConfig(element_hash=ZERO_HASH)
    assert hash_to_element(b"anything", field23, cfg) == 0
    # the tag hash is unaffected
    ai = AuthInput(10, (b"A", b"B"), (3, 1, 2), (2, 3))
    assert compute_auth(ai, PublicParams(field23, cfg)) == compute_auth(ai, PublicParams(field23))


def test_hash_config_rejects_unknown_algorithms():
    with pytest.raises(ValueError):
        HashConfig(algorithm="not-a-hash")
    with pytest.raises(ValueError):
        HashConfig(element_hash="not-a-hash")
