"""Bit-exact serialization of residues, identifiers and the tag input.

Every party (and the attacker) must hash identical byte strings, so the
representation is pinned here: residues are big-endian and zero-padded to the
context's byte width, identifiers are NUL-padded on the left to a configured
width, and the tag input is the exact concatenation

    key | id_1 .. id_t | nonce_0 .. nonce_t | share_1 .. share_t

with every field fixed-width. Fixed widths make the concatenation injective;
a variable-width encoding would hand out second preimages across field
boundaries for free.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

from .algebra import DomainContext
from .errors import IdentifierTooLong

DEFAULT_ID_WIDTH = 16

# Test-only element-hash name: makes the field variant's share offset vanish,
# reducing it to the ring variant's share formula on identical inputs.
ZERO_HASH = "zero"


@lru_cache(maxsize=64)  # one entry per hashlib name a config or transcript uses
def _digest_size(name: str) -> int:
    return hashlib.new(name).digest_size


@dataclass(frozen=True)
class HashConfig:
    """Which hash backs the broadcast tag and the share-offset hash.

    algorithm: hashlib name for the tag hash (256-bit by default).
    element_hash: hashlib name for the hash-to-residue map, or ZERO_HASH;
        None means "same as algorithm".
    """

    algorithm: str = "sha256"
    element_hash: str | None = None

    def __post_init__(self):
        names = [self.algorithm]
        if self.element_hash not in (None, ZERO_HASH):
            names.append(self.element_hash)
        for name in names:
            if not _digest_size(name):  # shake_*: digest() would need a length
                raise ValueError(f"{name!r} is a variable-length hash")

    @property
    def digest_size(self) -> int:
        return _digest_size(self.algorithm)

    @property
    def effective_element_hash(self) -> str:
        return self.algorithm if self.element_hash is None else self.element_hash


DEFAULT_HASH = HashConfig()


@dataclass(frozen=True)
class AuthInput:
    """The ordered argument list of the broadcast tag."""

    group_key: int
    member_ids: tuple[bytes, ...]
    nonces: tuple[int, ...]
    masked_shares: tuple[int, ...]

    def __post_init__(self):
        t = len(self.member_ids)
        if len(self.nonces) != t + 1:
            raise ValueError(f"expected {t + 1} nonces, got {len(self.nonces)}")
        if len(self.masked_shares) != t:
            raise ValueError(f"expected {t} masked shares, got {len(self.masked_shares)}")


def encode_element(e: int, ctx: DomainContext) -> bytes:
    """Big-endian, zero-padded to exactly ctx.byte_width bytes.

    Accepts any value representable in byte_width bytes, not only values
    below the modulus: tag recomputation over a tampered broadcast must
    re-encode the received fields byte-identically.
    """
    if e < 0 or e >> (8 * ctx.byte_width):
        raise ValueError(f"{e} not representable in {ctx.byte_width} bytes")
    return e.to_bytes(ctx.byte_width, "big")


def decode_element(data: bytes, ctx: DomainContext) -> int:
    if len(data) != ctx.byte_width:
        raise ValueError(f"expected {ctx.byte_width} bytes, got {len(data)}")
    return int.from_bytes(data, "big")


def encode_identifier(user_id: bytes, id_width: int = DEFAULT_ID_WIDTH) -> bytes:
    """NUL-pad on the left to id_width bytes; ids longer than the width are an error."""
    if len(user_id) > id_width:
        raise IdentifierTooLong(f"id of {len(user_id)} bytes exceeds width {id_width}")
    return user_id.rjust(id_width, b"\x00")


def build_auth_input(ai: AuthInput, ctx: DomainContext, id_width: int = DEFAULT_ID_WIDTH) -> bytes:
    """Concatenate key, ids, nonces and shares, each field fixed-width."""
    key = encode_element(ai.group_key, ctx)
    return key + _auth_body(tuple(ai.member_ids), (*ai.nonces, *ai.masked_shares), ctx, id_width)


@lru_cache(maxsize=1)
def _auth_body(ids: tuple[bytes, ...], values: tuple[int, ...], ctx: DomainContext, id_width: int) -> bytes:
    """The ids | nonces | shares block, encoded in bulk and memoised: the KGC,
    every member and the verifier tag one block under their own candidate keys.
    A field that does not fit raises what encode_identifier/encode_element raise."""
    if max(map(len, ids), default=0) > id_width:
        for m in ids:
            encode_identifier(m, id_width)
    try:
        elements = b"".join(map(int.to_bytes, values, repeat(ctx.byte_width), repeat("big")))
    except OverflowError:
        for e in values:
            encode_element(e, ctx)
        raise
    return b"".join(map(bytes.rjust, ids, repeat(id_width), repeat(b"\x00"))) + elements


def compute_auth(
    ai: AuthInput,
    ctx: DomainContext,
    hash_cfg: HashConfig = DEFAULT_HASH,
    id_width: int = DEFAULT_ID_WIDTH,
) -> bytes:
    """The broadcast tag: configured hash over the serialized tag input."""
    h = hashlib.new(hash_cfg.algorithm)
    h.update(build_auth_input(ai, ctx, id_width))
    return h.digest()


def hash_to_element(data: bytes, ctx: DomainContext, hash_cfg: HashConfig = DEFAULT_HASH) -> int:
    """Digest interpreted as a big-endian integer, reduced mod m.

    The reduction is slightly biased for moduli that do not divide the digest
    space; irrelevant here, where the value only offsets a share.
    """
    name = hash_cfg.effective_element_hash
    if name == ZERO_HASH:
        return 0
    h = hashlib.new(name)
    h.update(data)
    return ctx.reduce(int.from_bytes(h.digest(), "big"))
