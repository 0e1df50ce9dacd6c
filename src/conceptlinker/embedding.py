"""Text-to-vector providers behind one interface.

Two providers: a remote JSON-over-HTTP embedding endpoint (responses cached
on disk so repeat calls are free and identical), and a deterministic local
character-trigram embedder so every pipeline stage runs offline.

A batch leaves this module as one float32 (texts, dim) matrix of
unit-normalized rows; similarity downstream is plain cosine on those.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimMismatch, EmptyText, InvalidVector, TransportError
from .fileio import atomic_writer
from .textutil import normalize_whitespace
from .transport import new_session, post_json

logger = logging.getLogger(__name__)

LOCAL_PROVIDER_ID = "local-trigram"
REMOTE_PROVIDER_ID = "remote"

# FNV-1a 64-bit parameters
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = np.uint64(0x100000001B3)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MAX_GRAM_BYTES = 12

# characters hashed together by the local embedder; bounds its working memory
_BLOCK_CHARS = 1 << 14

# texts the library asks a provider for at once; bounds the batch held beside
# the matrix it fills and the inputs of one remote request
_SLICE_TEXTS = 2048

# cache entry: 16-byte header (magic, dim u32 LE, 8 reserved), then float32 LE body
CACHE_MAGIC = b"LFV1"
_CACHE_HEADER = struct.Struct("<4sI8x")


@dataclass(frozen=True)
class ProviderSpec:
    """Identifies one embedding provider + model and its vector dimension."""

    provider_id: str
    model_id: str
    dim: int
    endpoint: str | None = None
    timeout: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.provider_id == LOCAL_PROVIDER_ID:
            _check_local_dim(self.dim)
        if self.provider_id == REMOTE_PROVIDER_ID and not self.endpoint:
            raise ValueError("remote provider requires an endpoint URL")
        if self.provider_id != REMOTE_PROVIDER_ID and self.endpoint:
            raise ValueError(f"provider {self.provider_id!r} does not take an endpoint")
        # the id names all a local vector depends on, so fingerprints compare spaces
        local_id = f"trigram-d{self.dim}-s{self.seed}"
        if self.provider_id == LOCAL_PROVIDER_ID and self.model_id != local_id:
            raise ValueError(f"a local model id is {local_id!r}, got {self.model_id!r}")

    @property
    def fingerprint(self) -> tuple[str, str]:
        return (self.provider_id, self.model_id)


def local_embed(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic trigram-hash embedding: unit-norm float32 of length ``dim``.

    Lowercases the normalized text, hashes each character trigram of the
    space-padded string with 64-bit FNV-1a over its UTF-8 bytes, buckets by
    ``hash % dim``, accumulates counts and L2-normalizes. Non-empty text
    always yields at least one trigram, so the vector is never zero.
    """
    text = normalize_whitespace(text)
    if not text:
        raise EmptyText()
    return _trigram_matrix([text], dim, seed)[0]


def text_slices(count: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_SLICE_TEXTS`` positions covering ``range(count)``.

    Each slice is one provider call; a text's vector does not depend on
    the batch it is embedded in, so slicing never changes a row.
    """
    for lo in range(0, count, _SLICE_TEXTS):
        yield slice(lo, min(lo + _SLICE_TEXTS, count))


def _check_local_dim(dim: int) -> None:
    if dim < 16:
        raise ValueError(f"local embedder needs dim >= 16, got {dim}")


def _trigram_matrix(texts: list[str], dim: int, seed: int) -> np.ndarray:
    """:func:`local_embed` of every normalized, non-empty text, one row each.

    Texts are hashed in blocks of about ``_BLOCK_CHARS`` characters, so the
    per-gram working arrays stay small however large the batch is, and each
    block's rows are written straight into the returned matrix.
    """
    _check_local_dim(dim)
    out = np.empty((len(texts), dim), dtype=np.float32)
    for part in _char_blocks(texts):
        _hash_block(texts[part], seed, out[part])
    return out


def _char_blocks(texts: list[str]) -> list[slice]:
    """Consecutive slices of ``texts``, each as many as fit in ``_BLOCK_CHARS`` padded characters.

    A slice holds at least one text. Lowercasing seldom changes a length,
    and a block's size need not be exact.
    """
    ends = np.cumsum([len(text) + 2 for text in texts])
    parts = []
    lo = 0
    while lo < len(texts):
        start = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _BLOCK_CHARS, side="right")))
        parts.append(slice(lo, hi))
        lo = hi
    return parts


def _hash_block(texts: list[str], seed: int, out: np.ndarray) -> None:
    """Write the trigram vectors of ``texts`` into the rows of the float32 ``out``.

    The counts stay whole numbers, so the sum of squares is exact and so is
    the norm; each quotient is taken in float64 and rounded once to float32.
    """
    dim = out.shape[1]
    counts = np.bincount(_gram_cells(texts, dim, seed), minlength=len(texts) * dim)
    counts = counts.reshape(len(texts), dim)
    norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
    np.divide(counts, norms[:, None], out=out, casting="unsafe")


def _gram_cells(texts: list[str], dim: int, seed: int) -> np.ndarray:
    """Each trigram's cell, ``text * dim + bucket``, hashed for every text at once.

    A trigram is three characters of the lowercased text padded with a
    space on each side, so it spans 3 to 12 contiguous UTF-8 bytes. Step
    ``j`` folds byte ``j`` into every gram that is longer than ``j``; the
    first three steps apply to every gram, and a later step runs only when
    some gram in the block has that many bytes. Only the cells outlive the
    call, so the per-gram working arrays are gone before the counts exist.
    """
    padded = [f" {text.lower()} " for text in texts]
    # zero bytes after the text, so that a masked step may read past its gram
    data = np.frombuffer("".join(padded).encode("utf-8") + bytes(_MAX_GRAM_BYTES),
                         dtype=np.uint8)
    # a character starts at every byte that is not a UTF-8 continuation byte;
    # the first zero byte ends the last character
    char_start = np.flatnonzero((data & 0xC0) != 0x80)
    chars = np.array([len(p) for p in padded], dtype=np.int64)
    grams = chars - 2
    # the first character of every gram, indexed over the block's characters
    first = np.arange(int(grams.sum())) + np.repeat(2 * np.arange(len(padded)), grams)
    gram_start = char_start[first]
    gram_bytes = char_start[first + 3] - gram_start

    h = np.full(gram_start.shape, (_FNV_OFFSET ^ seed) & _MASK64, dtype=np.uint64)
    for j in range(int(gram_bytes.max())):
        step = (h ^ data[gram_start + j]) * _FNV_PRIME  # wraps modulo 2**64
        h = step if j < 3 else np.where(gram_bytes > j, step, h)
    cells = np.repeat(np.arange(len(padded)) * dim, grams)
    cells += (h % np.uint64(dim)).astype(np.int64)
    return cells


class VectorCache:
    """One file per SHA-256 key; concurrent readers, serialized atomic writers."""

    def __init__(self, root: str | os.PathLike):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self._write_lock = threading.Lock()

    @staticmethod
    def key(provider_id: str, model_id: str, normalized_text: str) -> str:
        payload = "\x1f".join((provider_id, model_id, normalized_text))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key)

    def get(self, key: str, dim: int) -> np.ndarray | None:
        """The dim-``dim`` vector stored under ``key``, or None when there is none.

        An entry that is not a whole dim-``dim`` vector (shorter than its
        header, with another magic or dim, with a body that is not
        ``4 × dim`` bytes, or whose norm is not finite and nonzero, the rule
        of :func:`_unit`) is logged and left for :meth:`put` to replace: a
        cache entry can always be fetched again.
        """
        try:
            with open(self._path(key), "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            return None
        if (len(blob) == _CACHE_HEADER.size + 4 * dim
                and _CACHE_HEADER.unpack_from(blob) == (CACHE_MAGIC, dim)):
            vector = np.frombuffer(blob, dtype="<f4", offset=_CACHE_HEADER.size)
            if 0.0 < np.linalg.norm(vector.astype(np.float64)) < np.inf:
                return vector.astype(np.float32)
        logger.warning("cache entry %s is not a whole dim-%d vector, so it is a miss", key, dim)
        return None

    def put(self, key: str, vector: np.ndarray) -> None:
        blob = _CACHE_HEADER.pack(CACHE_MAGIC, vector.shape[0])
        blob += np.asarray(vector, dtype="<f4").tobytes()
        with self._write_lock, atomic_writer(self._path(key)) as fh:
            fh.write(blob)


class LocalTrigramProvider:
    """Offline deterministic provider; a pure function, so nothing is cached."""

    def __init__(self, spec: ProviderSpec):
        if spec.provider_id != LOCAL_PROVIDER_ID:
            raise ValueError(f"not a local spec: {spec.provider_id!r}")
        self.spec = spec

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """The float32 (len(texts), dim) matrix of unit rows, in input order."""
        return _trigram_matrix(_clean_texts(texts), self.spec.dim, self.spec.seed)


class RemoteProvider:
    """Generic JSON-over-HTTP embedding client with retry and a disk cache.

    Request body is ``{"model": ..., "input": [...]}``; the response carries
    ``{"data": [{"embedding": [...]}, ...]}`` in input order. The bearer
    token comes from the LINKER_API_KEY environment variable.
    """

    def __init__(self, spec: ProviderSpec, cache: VectorCache | None = None,
                 session: requests.Session | None = None):
        if spec.provider_id != REMOTE_PROVIDER_ID:
            raise ValueError(f"not a remote spec: {spec.provider_id!r}")
        self.spec = spec
        self.cache = cache
        self.session = session or new_session()

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """The float32 (len(texts), dim) matrix of unit rows, in input order.

        Whole cache entries of the spec's dim fill their rows; every other
        distinct text is sent once, in requests of at most ``_SLICE_TEXTS``
        inputs. Each reply is checked whole before any row of it is cached,
        so a failed request leaves the earlier ones cached. A repeated text
        copies the row of its first occurrence.
        """
        cleaned = _clean_texts(texts)
        out = np.empty((len(cleaned), self.spec.dim), dtype=np.float32)
        first: dict[str, int] = {}
        keys: dict[int, str] = {}  # each distinct text's cache key
        repeats: list[int] = []
        misses: list[int] = []
        for i, text in enumerate(cleaned):
            if text in first:
                repeats.append(i)
                continue
            first[text] = i
            if self.cache is not None:
                keys[i] = key = VectorCache.key(self.spec.provider_id, self.spec.model_id, text)
                hit = self.cache.get(key, self.spec.dim)
                if hit is not None:
                    out[i] = hit
                    continue
            misses.append(i)

        for part in text_slices(len(misses)):
            sent = misses[part]
            fetched = self._fetch([cleaned[i] for i in sent], sent)
            for j, vec in zip(sent, fetched):
                out[j] = _unit(vec, j)
            if self.cache is not None:
                for j in sent:
                    self.cache.put(keys[j], out[j])
        out[repeats] = out[[first[cleaned[i]] for i in repeats]]
        return out

    def _fetch(self, inputs: list[str], indices: list[int]) -> list[np.ndarray]:
        """One float64 embedding per input, the whole reply checked before any use.

        ``indices`` are the inputs' positions in the caller's batch, which
        a :class:`DimMismatch` names.
        """
        body = {"model": self.spec.model_id, "input": inputs}
        reply = post_json(self.session, self.spec.endpoint, body, self.spec.timeout)
        try:
            fetched = [row["embedding"] for row in reply.json()["data"]]
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise TransportError(reply.status_code, f"malformed reply: {exc}") from None
        if len(fetched) != len(inputs):
            raise TransportError(
                None, f"endpoint returned {len(fetched)} embeddings for {len(inputs)} inputs"
            )
        rows = []
        for j, vec in zip(indices, fetched):
            if not isinstance(vec, list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in vec
            ):
                raise TransportError(
                    reply.status_code, f"malformed reply: embedding {j} is not a list of numbers"
                )
            if len(vec) != self.spec.dim:
                raise DimMismatch(self.spec.dim, len(vec), index=j)
            try:
                rows.append(np.array(vec, dtype=np.float64))
            except OverflowError:
                raise TransportError(
                    reply.status_code,
                    f"malformed reply: embedding {j} holds an integer too large for a float",
                ) from None
        return rows


def _clean_texts(texts: list[str]) -> list[str]:
    cleaned = []
    for i, text in enumerate(texts):
        norm = normalize_whitespace(text)
        if not norm:
            raise EmptyText(index=i)
        cleaned.append(norm)
    return cleaned


def _unit(vec: np.ndarray, index: int) -> np.ndarray:
    """``vec`` scaled to unit length as float32; InvalidVector if NaN, infinite or zero."""
    norm = np.linalg.norm(vec)
    if not 0.0 < norm < np.inf:
        raise InvalidVector("embedding", index)
    return (vec / norm).astype(np.float32)


Provider = LocalTrigramProvider | RemoteProvider
