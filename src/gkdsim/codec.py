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
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import chain, repeat

from .algebra import DomainContext
from .errors import IdentifierTooLong

DEFAULT_ID_WIDTH = 16

# Element-hash name whose hash-to-residue map is constantly 0: the field
# variant's share offset vanishes, so its shares equal the ring variant's share
# formula on identical inputs. Configs and transcripts may name it; a run over it
# verifies clean, but the field variant then has no hash offset at all.
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
class PublicParams:
    """The public parameters every party computes shares and tags over: the
    domain (modulus and variant, read as ctx.variant), the hash and the
    identifier width."""

    ctx: DomainContext
    hash_cfg: HashConfig = DEFAULT_HASH
    id_width: int = DEFAULT_ID_WIDTH


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


MemoInfo = namedtuple("MemoInfo", "hits misses")


def memo_last(fn):
    """fn memoised on its last call, for functions of immutable arguments.

    A call whose every argument is the last call's object, or equal to it
    (==), returns the last result. No argument is hashed: a tuple the caller
    passes again costs one identity test, an equal copy one element-by-element
    comparison. A call that raises leaves the memo as it was. cache_info()
    and cache_clear() work as on functools.lru_cache.
    """
    last_args = last_result = None
    hits = misses = 0

    @wraps(fn)
    def memo(*args):
        nonlocal last_args, last_result, hits, misses
        if last_args is not None:
            for a, b in zip(args, last_args):
                if a is not b and a != b:
                    break
            else:
                hits += 1
                return last_result
        misses += 1
        result = fn(*args)
        last_args, last_result = args, result
        return result

    def cache_info() -> MemoInfo:
        return MemoInfo(hits, misses)

    def cache_clear() -> None:
        nonlocal last_args, last_result, hits, misses
        last_args = last_result = None
        hits = misses = 0

    memo.cache_info, memo.cache_clear = cache_info, cache_clear
    return memo


def build_auth_input(ai: AuthInput, ctx: DomainContext, id_width: int = DEFAULT_ID_WIDTH) -> bytes:
    """Concatenate key, ids, nonces and shares, each field fixed-width."""
    key = encode_element(ai.group_key, ctx)
    body = _auth_body(tuple(ai.member_ids), tuple(ai.nonces), tuple(ai.masked_shares), ctx, id_width)
    return key + body


@memo_last
def _auth_body(
    ids: tuple[bytes, ...], nonces: tuple[int, ...], shares: tuple[int, ...], ctx: DomainContext, id_width: int
) -> bytes:
    """The ids | nonces | shares block, encoded in bulk and memoised on the last
    call: the KGC, every member and the verifier tag one block under their own
    candidate keys, and pass the roster's ids and the broadcast's shares as the
    same tuples, so a hit mostly costs one comparison of the nonce vectors.
    compute_auth passes the ctx and id_width of its PublicParams, not the whole
    value: the body does not depend on the hash, so tags under any hash share
    one entry. A field that does not fit raises what
    encode_identifier/encode_element raise, and nothing is memoised."""
    if max(map(len, ids), default=0) > id_width:
        for m in ids:
            encode_identifier(m, id_width)
    try:
        elements = b"".join(map(int.to_bytes, chain(nonces, shares), repeat(ctx.byte_width), repeat("big")))
    except OverflowError:
        for e in chain(nonces, shares):
            encode_element(e, ctx)
        raise
    return b"".join(map(bytes.rjust, ids, repeat(id_width), repeat(b"\x00"))) + elements


def compute_auth(ai: AuthInput, params: PublicParams) -> bytes:
    """The broadcast tag: configured hash over the serialized tag input."""
    h = hashlib.new(params.hash_cfg.algorithm)
    h.update(build_auth_input(ai, params.ctx, params.id_width))
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
