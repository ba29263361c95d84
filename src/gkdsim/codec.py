"""Bit-exact serialization of residues, identifiers and the tag input.

Every party (and the attacker) must hash identical byte strings, so the
representation is pinned here: residues are big-endian and zero-padded to the
context's byte width, identifiers are NUL-padded on the left to a configured
width, and the tag input is the exact concatenation

    key | id_1 .. id_t | nonce_0 .. nonce_t | share_1 .. share_t

with every field fixed-width. Fixed widths make the concatenation injective;
a variable-width encoding would hand out second preimages across field
boundaries for free.

compute_auth is memoised on its last call (memo_last). In a session the KGC,
the members and the verifier tag equal inputs, so an honest run, its
serialise, parse and verify encode and hash one input once. A hit keeps the
caller's tag input, so verify's t replayed tags, each over the vectors of the
one before, compare pointer by pointer: at t = 256 that comparison took about
1 us, against 8.6 us value by value with the run's equal copies (Python 3.11,
2 vCPUs).
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import repeat

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
        # tuples, so a list the caller mutates later cannot match compute_auth's memo
        for name in ("member_ids", "nonces", "masked_shares"):
            if not isinstance(getattr(self, name), tuple):
                object.__setattr__(self, name, tuple(getattr(self, name)))
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
    comparison. A hit keeps the caller's arguments, so the next call is
    compared with the caller's own objects: when successive calls build equal
    tuples over the same elements, as verify's replay does member after
    member, each comparison is pointer by pointer, not value by value. A call
    that raises leaves the memo as it was. cache_info() and cache_clear() work
    as on functools.lru_cache.
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
                last_args = args
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


def encode_elements(values: tuple[int, ...], ctx: DomainContext) -> bytes:
    """encode_element of each value, concatenated, in bulk; a value that does not fit
    raises what encode_element raises for the first such one, found by reading values again."""
    width = ctx.byte_width
    try:
        return b"".join([e.to_bytes(width, "big") for e in values])
    except OverflowError:
        for e in values:
            encode_element(e, ctx)
        raise


def encode_identifiers(user_ids: tuple[bytes, ...], id_width: int = DEFAULT_ID_WIDTH) -> bytes:
    """encode_identifier of each id, concatenated, in bulk; an id that does not fit
    raises what encode_identifier raises for the first such one."""
    if max(map(len, user_ids), default=0) > id_width:
        for m in user_ids:
            encode_identifier(m, id_width)
    return b"".join(map(bytes.rjust, user_ids, repeat(id_width), repeat(b"\x00")))


def build_auth_input(ai: AuthInput, ctx: DomainContext, id_width: int = DEFAULT_ID_WIDTH) -> bytes:
    """Concatenate key, ids, nonces and shares, each field fixed-width. A field
    that does not fit raises what encode_identifier or encode_element raises for it."""
    return (encode_element(ai.group_key, ctx) + encode_identifiers(ai.member_ids, id_width)
            + encode_elements(ai.nonces + ai.masked_shares, ctx))


@memo_last
def compute_auth(ai: AuthInput, params: PublicParams) -> bytes:
    """The broadcast tag: configured hash over the serialized tag input.

    Memoised on the last (ai, params) by memo_last, so a hit hashes nothing:
    the KGC, every member accepting the honest broadcast and the verifier tag
    equal inputs, and a session encodes and hashes each distinct input once.
    A field that does not fit raises every time, and nothing is memoised."""
    data = build_auth_input(ai, params.ctx, params.id_width)
    return hashlib.new(params.hash_cfg.algorithm, data).digest()


def hash_to_element(data: bytes, ctx: DomainContext, hash_cfg: HashConfig = DEFAULT_HASH) -> int:
    """Digest interpreted as a big-endian integer, reduced mod m.

    The reduction is slightly biased for moduli that do not divide the digest
    space; irrelevant here, where the value only offsets a share.
    """
    name = hash_cfg.effective_element_hash
    if name == ZERO_HASH:
        return 0
    return ctx.reduce(int.from_bytes(hashlib.new(name, data).digest(), "big"))
