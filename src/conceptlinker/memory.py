"""Persistent dual-variant vector memory and exact top-k retrieval.

Every concept contributes a name-only embedding, plus a name+description
embedding when it has a description. The store is columnar: one float32
matrix with a row per entry and one context flag per concept. A concept's
name row comes first, then its context row when its flag is set, so the
flags alone place every row.

Retrieval is exhaustive and exact, after the flat inner-product index of
FAISS (Johnson et al. 2017): a chunk of queries is scored against every
entry by float32 matrix products over fixed blocks of entries, each scaled
by its entries' inverse norms, into one buffer of a head's length, and
each head-long group of entries keeps, as (entry, query) int arrays, only
the pairs that may reach a query's top; those arrays go on to the rescore
and the ranking as they are. Selection works on entries, not concepts: a
concept has at most ``max_run`` entries, so the best ``k * max_run``
entries span at least k concepts, and the concept maxima among them give
the k-th best concept score. A product's last bits depend on the summation
order that the BLAS kernel, the block shape and the thread count give, so
it only selects: every entry within a proven error margin of that score,
and of its own concept's best, is rescored to the value :func:`cosine`
gives, which depends on the two vectors alone. Concepts then rank by that
exact score, descending, and tie-break by ascending id; one rule gives a
concept's best entry by either score, the earlier, name-only entry winning
an exact tie. Equal vectors therefore tie exactly wherever they sit in the
store, and runs are reproducible on any machine.

A query's squares, like each sum :func:`cosine` makes, are one plain
``math.fsum``. An entry's square depends on its row alone, so the store
keeps it: it is summed once, when the memory is made, and saved beside the
matrix. The rescore, a dot for every pick, and the entry squares take a
fast path to fsum's values, one numpy pass per block: error-free
transformations make a correctly rounded sum cheap to vectorise (Ogita,
Rump and Oishi, Accurate Sum and Dot Product, 2005). A pairwise TwoSum tree
sums each row to hi and keeps every rounding error exactly, the errors sum
to lo with a proven bound, and fl(hi + lo) is kept only where the exact
remainder plus that bound stays below half the gap to the next float
toward zero, so no exact sum could round elsewhere. What that certificate
does not settle, exact midpoints most of all, goes to ``math.fsum``; every
sum is therefore fsum's, bit for bit. :func:`_exact_sums` gives the proof.
"""

from __future__ import annotations

import json
import logging
import math
import os
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .embedding import LOCAL_PROVIDER_ID, REMOTE_PROVIDER_ID, Provider, ProviderSpec, text_slices
from .errors import (
    BadMagic,
    DimMismatch,
    EmptyOntology,
    FingerprintMismatch,
    InvalidVector,
    LinkerError,
    MalformedRecord,
    MemoryBuildError,
    MemoryLayoutError,
    ServiceError,
    VersionMismatch,
)
from .fileio import atomic_writer, record_field
from .ontology import Ontology, Query

logger = logging.getLogger(__name__)

FORMAT_VERSION = 4

# queries are selected in chunks whose float32 head scores, one per query
# and head entry, take at most this many bytes
_BLOCK_BYTES = 4 << 20

# entry lengths the float32 scores are exact enough for: the inverse norm
# stays a normal float32 and the matrix product can neither overflow nor
# lose more than a negligible amount to subnormal products
_NORM_RANGE = (2.0 ** -64, 2.0 ** 64)

# entries whose scores bound each query's selection threshold from below;
# the entries after them are scored and cleared in groups as long
_HEAD_ENTRIES = 4096

# entries scored by one matrix product; OpenBLAS packs the whole entry
# operand, so a product over every entry would hold a copy of the memory
_ENTRY_BLOCK = 1024

# the fewest float64 products the exact rescore sums at once, 128 KB; it
# holds about three times its block
_SUM_BLOCK = 1 << 14

# bytes of head scores the floor partitions at once, a few query columns of
# the head copied to rows
_FLOOR_BYTES = 128 << 10

# a column of n values each below this over n sums without overflow, in
# the TwoSum tree and in fsum alike
_SUM_LIMIT = 2.0 ** 1020


class Variant(str, Enum):
    """Which text form of the concept an entry embeds."""

    NAME_ONLY = "n"
    NAME_WITH_CONTEXT = "nc"


# an entry's offset from its concept's name row indexes this tuple
_VARIANTS = (Variant.NAME_ONLY, Variant.NAME_WITH_CONTEXT)


@dataclass(frozen=True, slots=True)
class Candidate:
    """One retrieval hit: a concept, its best score, and the winning variant."""

    concept_id: str
    score: float
    variant: Variant


def _score_margin(dim: int) -> float:
    """Twice the largest gap between a float32 selection score and its :func:`cosine`.

    With u = 2**-24 and n = dim, let c be the true cosine of an entry e and
    a query q, and s the selection score: q scaled to unit length in float64
    and rounded to float32, a float32 matrix product with e, times e's
    float32 inverse norm. Bounds (Higham, Accuracy and Stability of
    Numerical Algorithms, 2.2 and 3.1):

    - rounding the unit query to float32 moves each component by at most u
      of itself, so the dot with e moves by at most u |e|;
    - a float32 dot of n products summed in any order, with or without
      FMA, is within gamma_n |e| |q| of the exact dot of its operands,
      gamma_n = n u / (1 - n u), and the rounded query has |q| <= 1 + u;
    - the float32 inverse norm of e is within u of the float64 one, and the
      scaling product adds u;
    - the float64 steps (both norms, their square roots and the divisions)
      cost (n + 4) 2**-53 in all, below u / 2**20 while n u < 0.01;
    - entry lengths lie in ``_NORM_RANGE``, so nothing overflows, and
      subnormal products and query components, even flushed to zero, add
      below n 2**-61.

    Together |s - c| <= (u + gamma_n (1 + u)) (1 + 3u) + 3u, which is
    below (1.02 n + 4) u while n u < 0.01. :func:`cosine` is within 8 * 2**-53
    of c, so delta = |s - cosine| < (1.02 n + 5) u. A concept whose best
    selection score trails the k-th best concept's by more than 2 delta has
    an exact score below that of each of those k concepts, so it cannot
    reach the top k; an entry that trails its own concept's best by more
    than 2 delta scores below that best exactly, so it can neither win nor
    tie. Clipping to [-1, 1] keeps both orders strict: a score left out is
    below 1, and if it clips at -1, the scores it trails exceed -1. The
    bound rounds 2 delta up to leave slack for second-order terms. It holds
    for every dim: gamma_n <= 1.67 n u while n u < 0.4, and above that the
    margin exceeds 2, the width of the cosine range, so every entry is
    rescored.
    """
    return (5 * dim + 32) * 2.0 ** -24


class Memory:
    """Immutable columnar store of embedding entries sharing one dim and provider.

    ``concept_ids`` lists each concept once and ``has_context`` flags those
    with a context row; the float32 (entries, dim) matrix ``vectors`` holds
    each concept's name row, then its context row if flagged. Each row's
    length lies within 2**-64 to 2**64.
    """

    def __init__(self, concept_ids: Sequence[str], has_context: Sequence[bool], vectors: np.ndarray,
                 dim: int, provider_fingerprint: tuple[str, str],
                 squares: np.ndarray | None = None):
        """Take ownership of the given columns and make them read-only.

        ``squares``, each entry's ``fsum`` of squares as a memory file
        stores it, is kept as given; without it each entry's square is
        summed here. Raises :class:`MemoryLayoutError` if the columns
        disagree, ``vectors`` is not 2-d, an id repeats or a given square
        cannot be its row's by :func:`_square_slack`, :class:`DimMismatch`
        for rows of another dim, and :class:`InvalidVector` for a NaN,
        infinite, zero or out-of-range row.
        """
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise MemoryLayoutError(f"vectors must be a 2-d array, got shape {vectors.shape}")
        if vectors.shape[1] != dim:
            raise DimMismatch(dim, vectors.shape[1])
        count = len(vectors)
        ids = tuple(concept_ids)
        flags = np.array(has_context, dtype=bool)
        if flags.shape != (len(ids),) or count != len(ids) + flags.sum():
            raise MemoryLayoutError(f"{count} vectors do not fit the flags of {len(ids)} concepts")
        if len(set(ids)) != len(ids):
            repeated = min(cid for cid, n in Counter(ids).items() if n > 1)
            raise MemoryLayoutError(f"concept {repeated!r} is listed more than once")

        # float64 sums of the exact float32 squares, without a float64 copy
        sums = np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64)
        norms = np.sqrt(sums)
        bad = ~((norms >= _NORM_RANGE[0]) & (norms <= _NORM_RANGE[1]))
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            if 0.0 < norms[row] < math.inf:
                raise InvalidVector("memory entry", row, "has a length outside 2**-64 to 2**64")
            raise InvalidVector("memory entry", row)
        if squares is None:
            squares = _entry_squares(vectors)
        else:
            squares = np.asarray(squares, dtype=np.float64)
            if squares.shape != (count,):
                raise MemoryLayoutError(f"squares of shape {squares.shape} do not fit "
                                        f"{count} vectors")
            # NaN compares false as well
            wrong = ~(np.abs(squares - sums) <= sums * _square_slack(dim))
            if wrong.any():
                row = int(np.flatnonzero(wrong)[0])
                raise MemoryLayoutError(f"the stored square of entry {row}, "
                                        f"{float(squares[row])!r}, is not its vector's")
        vectors.flags.writeable = flags.flags.writeable = squares.flags.writeable = False
        self.vectors = vectors
        self.concept_ids = ids
        self.has_context = flags
        self.dim = dim
        self.provider_fingerprint = tuple(provider_fingerprint)
        self._squares = squares
        self._inv_norms = (1.0 / norms).astype(np.float32)
        self._concepts = np.repeat(np.arange(len(ids)), 1 + flags)  # each entry's concept
        self._name_rows = _name_rows(flags)
        self._max_run = 2 if flags.any() else 1  # the most entries of any one concept
        self._margin = _score_margin(dim)

    def __len__(self) -> int:
        return len(self.vectors)


def _square_slack(dim: int) -> float:
    """The widest relative gap between an entry's exact square and its einsum sum.

    With u = 2**-53 and n = dim, let S be the exact sum of an entry's n
    squares. Each float32 square is exact in float64 and none is negative,
    so the einsum sum E, in any order, is within gamma_(n-1) S of S (Higham
    4.2), and the stored square fl(S) within u S. Entry lengths lie in
    ``_NORM_RANGE``, so nothing overflows or underflows to zero. Together
    |fl(S) - E| <= (u + gamma_(n-1)) S <= 1.03 n u E while n u < 0.01, so the
    two are within a factor of two of each other and their float difference
    is exact; the slack, 2 n u, also covers the rounding of its product with E.
    """
    return dim * 2.0 ** -52


def _entry_squares(vectors: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row's squares, bit for bit, about ``_SUM_BLOCK`` products at a time."""
    count, dim = vectors.shape
    step = max(1, _SUM_BLOCK // dim)
    flat = np.empty(3 * dim * min(step, count))
    squares = np.empty(count)
    for lo in range(0, count, step):
        rows = vectors[lo : lo + step]
        width = len(rows)
        cols = np.multiply(rows.T, rows.T, dtype=np.float64,
                           out=flat[: dim * width].reshape(dim, width))
        squares[lo : lo + width] = _exact_sums(cols, flat[dim * width :])
    return squares


def _name_rows(has_context: np.ndarray) -> np.ndarray:
    """Each concept's name row: it follows every row of the concepts before it."""
    return np.arange(len(has_context)) + np.cumsum(has_context) - has_context


def concept_text(name: str, description: str | None) -> str:
    """The name+context form embedded for the NameWithContext variant."""
    return f"{name}: {description}" if description else name


def query_text(query: Query) -> str:
    """The text embedded for a query: its mention and context as :func:`concept_text` joins them."""
    return concept_text(query.mention, query.context)


def build_memory(ontology: Ontology, provider: Provider) -> Memory:
    """Embed an ontology into a memory store.

    Entry order is the ontology's file order, name-only first then
    name+context per concept, so identical inputs always produce an
    identical store. Entry count is N + M for N concepts of which M carry
    a description. Names are embedded first, then ``name: description``
    texts, each pass in slices of at most 2,048 texts that are written
    straight into their rows of the one stored matrix.
    """
    ids, names, descriptions = ontology.ids, ontology.names, ontology.descriptions
    if not ids:
        raise EmptyOntology(ontology.tag)

    described = [i for i, description in enumerate(descriptions) if description]
    has_context = np.zeros(len(ids), dtype=bool)
    has_context[described] = True
    # a concept's context row, when it has one, follows its name row
    name_rows = _name_rows(has_context)
    context_rows = name_rows[has_context] + 1
    spec: ProviderSpec = provider.spec
    vectors = np.empty((len(ids) + len(described), spec.dim), dtype=np.float32)
    for rows, owners, texts in (
        (name_rows, ids, list(names)),
        (context_rows, [ids[i] for i in described],
         [concept_text(names[i], descriptions[i]) for i in described]),
    ):
        for part in text_slices(len(texts)):
            try:
                batch = provider.embed_batch(texts[part])
            except LinkerError as exc:
                # the provider's index counts from the start of the slice
                raise MemoryBuildError(_offending(owners[part], exc), str(exc)) from exc
            vectors[rows[part]] = checked_batch(batch, len(rows[part]), spec.dim)
            del batch  # so the next slice is not embedded while this one is held

    return Memory(ids, has_context, vectors, spec.dim, spec.fingerprint)


def checked_batch(batch: np.ndarray, texts: int, dim: int) -> np.ndarray:
    """A provider's ``batch`` for ``texts`` texts, refused unless it is one row of ``dim`` per text."""
    shape = np.shape(batch)
    if len(shape) != 2 or shape[1] != dim:
        raise DimMismatch(dim, shape[-1] if shape else 0)
    if shape[0] != texts:
        raise ServiceError(f"the provider returned {shape[0]} rows for {texts} texts")
    return batch


def _offending(ids: Sequence[str], exc: LinkerError) -> str:
    index = getattr(exc, "index", None)
    if index is not None and 0 <= index < len(ids):
        return ids[index]
    return "<unknown>"


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1], computed in float64 independent of summation order.

    ``fsum(a*b) / (sqrt(fsum(a*a)) * sqrt(fsum(b*b)))``, clipped, as written:
    each sum is exactly rounded and float32 products are exact in float64, so
    the result depends on the two vectors alone, never on a kernel. Both norms
    divide, as float32 storage leaves them a hair off 1 and self-similarity
    must stay 1.0. An argument that is zero, holds a NaN or an infinity, or
    whose squares sum past the largest float raises :class:`InvalidVector`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError(f"cosine takes two 1-d vectors, got shapes {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise DimMismatch(a.shape[0], b.shape[0])
    square_a, square_b = _exact_squares((a, b), "cosine argument")
    dot = math.fsum((a * b).tolist())
    return min(1.0, max(-1.0, dot / (math.sqrt(square_a) * math.sqrt(square_b))))


def _exact_squares(vectors: Sequence[np.ndarray], what: str) -> list[float]:
    """Each vector's ``fsum`` of squares, refused as :func:`cosine` says, without a warning.

    The first vector refused raises :class:`InvalidVector` as ``what``.
    """
    squares = []
    with np.errstate(over="ignore"):
        for row, vector in enumerate(vectors):
            try:
                square = math.fsum((vector * vector).tolist())
            except OverflowError:  # a sum fsum cannot hold
                square = math.inf
            if not 0.0 < square < math.inf:
                raise InvalidVector(what, row)
            squares.append(square)
    return squares


def retrieve_batch(memory: Memory, queries: Sequence[np.ndarray] | np.ndarray,
                   k: int) -> list[list[Candidate]]:
    """The k distinct best-scoring concepts per query, best variant each, in query order.

    A concept's score is :func:`cosine` with its best entry; the reported
    variant is that entry's (the earlier entry on an exact tie). Concepts
    come in descending score, ties by ascending id. Returns all concepts
    when fewer than k exist. Query vectors must be finite and nonzero.

    Queries go in chunks whose float32 scores against the head, the first
    ``_HEAD_ENTRIES`` entries, take at most ``_BLOCK_BYTES``. Beside the
    store and the queries, a call holds those scores, the entries that
    clear them and a rescore scratch of about 1.5 times their size, so its
    working memory does not grow with the store.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if queries.shape[:1] == (0,):
        return []
    if queries.ndim != 2:
        raise ValueError(f"queries must be a 2-d array, got shape {queries.shape}")
    if queries.shape[1] != memory.dim:
        raise DimMismatch(memory.dim, queries.shape[1])
    squares = np.array(_exact_squares(queries, "query"))
    if len(memory) == 0:
        return [[] for _ in queries]

    units = (queries / np.sqrt(squares)[:, None]).astype(np.float32)
    keep = min(k, len(memory.concept_ids))
    # the best `top` entries span at least `keep` concepts
    top = min(keep * memory._max_run, len(memory))
    head = min(len(memory), max(top, _HEAD_ENTRIES))
    chunk = max(1, _BLOCK_BYTES // (4 * head))
    slates = []
    for lo in range(0, len(queries), chunk):
        part = slice(lo, lo + chunk)
        rows, owners = _select(memory, units[part], keep, top, head)
        slates += _exact_top(memory, rows, owners, queries[part], squares[part], keep)
    return slates


def _select(memory: Memory, units: np.ndarray, keep: int, top: int,
            head: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries that may decide each query's top ``keep``, and the query of each.

    Every concept that can reach the top ``keep`` has its best entry no
    further than the margin below the query's ``top``-th best entry, as do
    the best entries of at least ``keep`` concepts; of those entries, each
    that trails the ``keep``-th best concept or its own concept's best by
    more than the margin can neither win nor tie, so it is dropped.

    Entries are scored ``_ENTRY_BLOCK`` at a time, entry-major, into one
    buffer of ``head`` entries. The ``top``-th best of the head bounds each
    query's ``top``-th best from below, so the head and each later group of
    ``head`` entries in turn keep only the entries that clear that bound.
    """
    count, margin = len(memory), memory._margin
    scores = np.empty((head, len(units)), dtype=np.float32)
    found = []
    for lo in range(0, count, head):
        group = scores[: min(head, count - lo)]
        for at in range(0, len(group), _ENTRY_BLOCK):
            block = group[at : at + _ENTRY_BLOCK]
            span = slice(lo + at, lo + at + len(block))
            np.matmul(memory.vectors[span], units.T, out=block)
            block *= memory._inv_norms[span, None]
        if lo == 0:
            cuts = _lowered(_column_floors(scores, top), margin)
        hits = np.flatnonzero(group >= cuts)  # a 2-d nonzero is ten times slower
        entries, owners = np.divmod(hits, len(units))
        found.append((entries + lo, owners, group.ravel()[hits]))
    rows, owners, selection = (np.concatenate(column) for column in zip(*found))
    selection = selection.astype(np.float64)
    # each query's `top`-th best less the margin keeps every pick and shrinks the sort below
    inside = selection >= _lowered(_kth_largest(selection, owners, len(units), top), margin)[owners]
    rows, owners, selection = rows[inside], owners[inside], selection[inside]
    order, best = _concept_best(memory, rows, owners, selection)
    rows, owners, selection = rows[order], owners[order], selection[order]
    bests = selection[best]
    kth = _kth_largest(bests, owners[best], len(units), keep)[owners]
    inside = (selection >= kth - margin) & (selection >= bests[np.cumsum(best) - 1] - margin)
    return rows[inside], owners[inside]


def _lowered(floors: np.ndarray, margin: float) -> np.ndarray:
    """``floors - margin`` rounded to float32: no float32 score at or above it falls below."""
    return (floors.astype(np.float64) - margin).astype(np.float32)


def _column_floors(scores: np.ndarray, top: int) -> np.ndarray:
    """Each column's ``top``-th largest value, partitioning about ``_FLOOR_BYTES`` at a time.

    Each group of columns is copied to the rows of one buffer and
    partitioned there; ``scores`` itself must keep its order.
    """
    head, count = scores.shape
    group = max(1, _FLOOR_BYTES // (scores.itemsize * head))
    rows = np.empty((min(group, count), head), dtype=scores.dtype)
    floors = np.empty(count, dtype=scores.dtype)
    for lo in range(0, count, group):
        part = rows[: min(group, count - lo)]
        part[...] = scores[:, lo : lo + group].T
        part.partition(head - top, axis=1)
        floors[lo : lo + len(part)] = part[:, head - top]
    return floors


def _kth_largest(values: np.ndarray, owners: np.ndarray, count: int, k: int) -> np.ndarray:
    """Each of ``count`` queries' ``k``-th largest value, or its least when it has fewer.

    ``owners[i]`` is the query of ``values[i]``; every query has a value.
    """
    order = np.lexsort((-values, owners))
    sizes = np.bincount(owners, minlength=count)
    return values[order[np.cumsum(sizes) - sizes + np.minimum(k, sizes) - 1]]


def _concept_best(memory: Memory, rows: np.ndarray, owners: np.ndarray,
                  scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order of entries by query, concept, descending score and row, and its concept bests.

    The second array marks, in that order, each concept's first entry for
    its query: its best, the earlier row on an exact tie.
    """
    concepts = memory._concepts[rows]
    order = np.lexsort((rows, -scores, concepts, owners))
    owners, concepts = owners[order], concepts[order]
    best = np.ones(len(order), dtype=bool)
    best[1:] = (owners[1:] != owners[:-1]) | (concepts[1:] != concepts[:-1])
    return order, best


def _exact_top(memory: Memory, rows: np.ndarray, owners: np.ndarray, queries: np.ndarray,
               query_squares: np.ndarray, keep: int) -> list[list[Candidate]]:
    """Each query's ``keep`` best concepts by exact score, then id, among its entries.

    ``rows[i]`` is an entry picked for query ``owners[i]``.
    """
    # products summed at once: a quarter of the chunk's head scores, but at
    # least _SUM_BLOCK, so the rescore holds about 1.5 times what the head's
    # scores did, however large the memory
    block = max(_SUM_BLOCK, len(queries) * min(len(memory), _HEAD_ENTRIES) // 4)
    dots = _pair_sums(memory, rows, owners, queries, block)
    # the IEEE operations of cosine's quotient, one pass for the chunk
    scores = dots / (np.sqrt(memory._squares[rows]) * np.sqrt(query_squares)[owners])
    np.clip(scores, -1.0, 1.0, out=scores)
    order, best = _concept_best(memory, rows, owners, scores)
    winners = order[best]  # grouped by query
    concepts = memory._concepts[rows[winners]]
    ids = [memory.concept_ids[c] for c in concepts.tolist()]
    offsets = (rows[winners] - memory._name_rows[concepts]).tolist()
    ranked = list(zip((-scores[winners]).tolist(), ids, offsets))
    bounds = np.searchsorted(owners[winners], np.arange(len(queries) + 1)).tolist()
    return [[Candidate(cid, -negated, _VARIANTS[offset])
             for negated, cid, offset in sorted(ranked[lo:hi])[:keep]]
            for lo, hi in zip(bounds, bounds[1:])]


def _pair_sums(memory: Memory, rows: np.ndarray, owners: np.ndarray, queries: np.ndarray,
               block: int) -> np.ndarray:
    """``fsum`` of each entry ``rows[i]`` times ``queries[owners[i]]``.

    The products go into column blocks of about ``block`` values, and the
    scratch space of three such blocks serves every block in turn.
    """
    dim = memory.dim
    step = max(1, block // dim)
    flat = np.empty(3 * dim * min(step, len(rows)))
    dots = np.empty(len(rows))
    for lo in range(0, len(rows), step):
        picked = rows[lo : lo + step]
        width = len(picked)
        cols = flat[: dim * width].reshape(dim, width)
        # the factors are laid out in the scratch space the sums use next
        work = flat[dim * width :]
        entries = work[: dim * width].reshape(width, dim)
        entries[...] = memory.vectors[picked]
        products = np.take(queries, owners[lo : lo + step], axis=0, mode="clip",
                           out=work[dim * width : 2 * dim * width].reshape(width, dim))
        cols[...] = np.multiply(entries, products, out=products).T
        dots[lo : lo + width] = _exact_sums(cols, work)
    return dots


def _exact_sums(columns: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """``[math.fsum(c) for c in columns.T.tolist()]`` as one float64 array, bit for bit.

    Sums each column of the float64 (n, m) ``columns``; raises, returns
    infinity or NaN exactly as :func:`math.fsum` does. ``work`` is scratch
    space of at least 2 n m values; ``columns`` is left as it is. One
    TwoSum tree and one certificate settle most columns, and fsum the rest.

    Why it is exact. Let S be a column's exact sum.

    - TwoSum (Knuth; Ogita, Rump and Oishi 2005, algorithm 3.1) of floats a
      and b gives s = fl(a + b) and e with s + e = a + b exactly, in any
      binary floating-point arithmetic with round-to-nearest and gradual
      underflow, unless something overflows. A column is kept only if
      each entry is below ``_SUM_LIMIT`` / n in magnitude, so no partial
      sum of its tree, nor of fsum, comes near the overflow threshold; a
      column with a larger entry, a NaN or an infinity goes to fsum itself.
    - The pairwise tree makes n - 1 TwoSums, so S = hi + sum(errs) exactly,
      with hi the tree's sum and errs its n - 1 errors.
    - lo, the plain float sum of errs in any order, is within gamma_n A of
      sum(errs), where A bounds sum(|errs|), u = 2**-53 and gamma_n =
      n u / (1 - n u) (Higham 4.2). A float sum of the |errs| is at least
      (1 - gamma_n) of their exact sum; scaling it by 4 n u covers both,
      and the rounding of that product, while n u < 0.01. Had the scaled
      bound underflowed, the error it bounds would be below the smallest
      subnormal, and a sum of floats is off by a multiple of that, so 0.
    - r = fl(hi + lo), and t, the exact remainder hi + lo - r, comes from
      one more TwoSum. Then S = r + t + d with |d| <= the bound, and r is
      the correctly rounded S when |t| + bound is below half the gap from
      r to its neighbour toward zero. That gap is the smaller of the two:
      at a power of two the gap away from zero is twice as wide, elsewhere
      they are equal. The rounded sum |t| + bound can only fall below a
      power of two if the exact one does, so the test in floats is sound.
    - A bound of 0 makes lo exactly sum(errs), so hi + lo is S itself and
      IEEE addition rounds it as fsum does, midpoints included. That keeps
      r = 0 too, where the gap is 0: S is then exactly 0, and CPython's
      fsum returns +0.0 for every exactly zero sum (it keeps no zero
      partial), so r + 0.0 is fsum's sum.
    - Every other column, an exact midpoint among them by construction,
      goes to fsum.
    """
    n, m = columns.shape
    if n == 0 or m == 0:
        return np.zeros(m)
    if work is None:
        work = np.empty(2 * n * m)
    # a column the tree cannot take overflows or meets inf - inf; it is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        hi, errs = _distill(columns, work[: 2 * n * m].reshape(2 * n, m))
        lo = errs.sum(axis=0)
        spread = np.abs(errs, out=work[(n - 1) * m : 2 * (n - 1) * m].reshape(n - 1, m))
        bound = spread.sum(axis=0) * (n * 2.0 ** -51)
        sums = hi + lo
        back = sums - hi
        remainder = (hi - (sums - back)) + (lo - back)
        size = np.abs(sums)
        half_gap = (size - np.nextafter(size, 0.0)) * 0.5
        settled = (np.abs(remainder) + bound < half_gap) | (bound == 0.0)
        peaks = np.abs(columns, out=work[: n * m].reshape(n, m)).max(axis=0)
    settled &= peaks < _SUM_LIMIT / n  # NaN compares false as well
    sums += 0.0  # an exact zero is fsum's +0.0
    # in column order, so the first column fsum raises for raises first
    for j in np.flatnonzero(~settled).tolist():
        sums[j] = math.fsum(columns[:, j].tolist())
    return sums


def _distill(columns: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A pairwise TwoSum tree down each column: its sums, and its n - 1 errors per column.

    ``work`` is (2 n, m) scratch; the errors are its first n - 1 rows. The
    two halves of each level pair up, and an odd row is carried to the
    next level as it is.
    """
    n = len(columns)
    half = (n + 1) // 2
    errs = work[: n - 1]
    spare = (work[n - 1 : n - 1 + half], work[n - 1 + half : n - 1 + 2 * half])
    # each level sums into the spare buffer that does not hold the level
    level, at, (free, held) = columns, 0, spare
    while len(level) > 1:
        pairs = len(level) // 2
        width = len(level) - pairs
        sums = free[:width]
        scratch = held[:pairs] if level is columns else free[width : width + pairs]
        _two_sum(level[:pairs], level[pairs : 2 * pairs], sums[:pairs], errs[at : at + pairs],
                 scratch)
        if width > pairs:
            sums[pairs] = level[2 * pairs]
        at += pairs
        level, free, held = sums, held, free
    return level[0].copy(), errs


def _two_sum(a: np.ndarray, b: np.ndarray, s: np.ndarray, err: np.ndarray,
             scratch: np.ndarray) -> None:
    """s = fl(a + b) and err = a + b - s exactly; s, err and scratch alias neither input."""
    np.add(a, b, out=s)
    np.subtract(s, a, out=scratch)
    np.subtract(b, scratch, out=err)
    np.subtract(s, scratch, out=scratch)
    np.subtract(a, scratch, out=scratch)
    np.add(err, scratch, out=err)


def save_memory(memory: Memory, path: str | Path) -> None:
    """Write the store in format v4; atomic (temp file + rename) and byte-deterministic.

    Missing parent directories are created.

    Layout: one UTF-8 JSON header line (``format_version``, ``dim``,
    ``provider_id``, ``model_id``, ``entry_count`` and the ``concept_ids``
    table), then one context flag byte per concept (1 if it has a context
    row, else 0), then one float64 little-endian square per entry, the
    ``math.fsum`` of its squared components, in entry order, then the
    float32 little-endian (entry_count, dim) matrix, each concept's name
    row before its context row.
    """
    header = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "dim": memory.dim,
            "provider_id": memory.provider_fingerprint[0],
            "model_id": memory.provider_fingerprint[1],
            "entry_count": len(memory),
            "concept_ids": list(memory.concept_ids),
        },
        ensure_ascii=False,
    )
    with atomic_writer(path) as fh:
        fh.write(header.encode("utf-8") + b"\n")
        fh.write(memory.has_context.astype(np.uint8).tobytes())
        fh.write(memory._squares.astype("<f8", copy=False).data)
        fh.write(memory.vectors.astype("<f4", copy=False).data)


def load_memory(
    path: str | Path,
    *,
    expected_provider: tuple[str, str] | None = None,
    strict: bool = False,
) -> Memory:
    """Read a store written by :func:`save_memory`; never yields a partial Memory.

    A file of the wrong size or layout, or of an unknown provider kind,
    raises :class:`BadMagic`, one from another format version
    :class:`VersionMismatch`, and a NaN, infinite or zero vector
    :class:`InvalidVector`; then a stored square further from its vector's
    float64 sum than :func:`_square_slack` allows raises :class:`BadMagic`.
    An ``expected_provider`` goes to :func:`check_provider`. Header keys it
    does not read are ignored.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            if not isinstance(header, dict):
                raise ValueError("header is not an object")
        except (ValueError, RecursionError) as exc:
            raise BadMagic(f"not a memory file: {exc}") from None
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise VersionMismatch(FORMAT_VERSION, version)
        try:
            dim = record_field(header, "dim", 1, int)
            fingerprint = (record_field(header, "provider_id", 1),
                           record_field(header, "model_id", 1))
            count = record_field(header, "entry_count", 1, int)
            ids = record_field(header, "concept_ids", 1, list)
        except MalformedRecord as exc:
            raise BadMagic(f"memory header incomplete: {exc}") from None
        if (dim < 1 or count < 0 or fingerprint[0] not in (LOCAL_PROVIDER_ID, REMOTE_PROVIDER_ID)
                or not all(isinstance(cid, str) for cid in ids)):
            raise BadMagic("memory header incomplete: bad dim, provider_id, entry_count "
                           "or concept_ids")

        body = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = len(ids) + count * (8 + 4 * dim)
        if body != expected:
            raise BadMagic(f"memory file truncated or padded: header promises {expected} bytes for "
                           f"{len(ids)} concept flags, {count} squares and {count} entries of dim "
                           f"{dim}, body has {body}")
        flags = np.fromfile(fh, dtype=np.uint8, count=len(ids))
        if (flags > 1).any():
            raise BadMagic("corrupt memory file: a context flag is neither 0 nor 1")
        squares = np.fromfile(fh, dtype="<f8", count=count)
        vectors = np.fromfile(fh, dtype="<f4", count=count * dim).reshape(count, dim)

    try:
        memory = Memory(ids, flags, vectors, dim, fingerprint, squares)
    except MemoryLayoutError as exc:
        raise BadMagic(f"corrupt memory file: {exc}") from None
    if expected_provider is not None:
        check_provider(memory, expected_provider, strict=strict)
    return memory


def check_provider(memory: Memory, expected: tuple[str, str], *, strict: bool = False) -> None:
    """Refuse a memory of another vector space than the ``expected`` fingerprint.

    A local model id names its dim and seed, so a mismatch with a local side
    raises :class:`FingerprintMismatch`; two remote ids may alias one model,
    so they only warn, or raise under ``strict``.
    """
    stored, expected = memory.provider_fingerprint, tuple(expected)
    if stored == expected:
        return
    if strict or LOCAL_PROVIDER_ID in (stored[0], expected[0]):
        raise FingerprintMismatch(stored, expected)
    logger.warning("memory was built with provider %s but the run uses %s", stored, expected)
