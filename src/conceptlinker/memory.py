"""Persistent dual-variant vector memory and exact top-k retrieval.

Every concept contributes a name-only embedding, plus a name+description
embedding when it has a description. The store is columnar: one float32
matrix with a row per entry, an entry-to-concept index and a variant byte
per entry, and each concept's rows in one contiguous range.

Retrieval is exhaustive and exact, after the flat inner-product index of
FAISS (Johnson et al. 2017): a chunk of queries is scored against every
entry with one float32 matrix product, scaled by each entry's inverse norm.
Selection works on entries, not concepts: a concept has at most
``max_run`` entries, so the best ``k * max_run`` entries span at least k
concepts, and the concept maxima among them give the k-th best concept
score. The product's last bits depend on the summation order the BLAS
kernel picks, so it only selects: every entry within a proven error margin
of that score, and of its own concept's best, is rescored to the value
:func:`cosine` gives, which depends on the two vectors alone. Concepts then
rank by that exact score, descending, and tie-break by ascending id; within
a concept the earlier, name-only entry wins an exact tie. Equal vectors
therefore tie exactly wherever they sit in the store, and runs are
reproducible on any machine.

The rescore does one numpy pass per chunk instead of a ``math.fsum`` per
sum. Error-free transformations make a correctly rounded sum cheap to
vectorise (Ogita, Rump and Oishi, Accurate Sum and Dot Product, 2005): a
pairwise TwoSum tree sums each row to hi and keeps every rounding error
exactly, the errors sum to lo with a proven bound, and fl(hi + lo) is kept
only where the exact remainder plus that bound stays below half the gap to
the next float toward zero, so no exact sum could round elsewhere. A second
TwoSum tree over the errors certifies most of the rest, exact midpoints
included, and what neither settles goes to ``math.fsum``; every sum is
therefore fsum's, bit for bit. :func:`_exact_sums` gives the proof.
"""

from __future__ import annotations

import heapq
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

from .embedding import Provider, ProviderSpec, text_slices
from .errors import (
    BadMagic,
    DimMismatch,
    EmptyOntology,
    FingerprintMismatch,
    InvalidVector,
    LinkerError,
    MemoryBuildError,
    MemoryLayoutError,
    VersionMismatch,
)
from .fileio import atomic_writer
from .ontology import Ontology, Query

logger = logging.getLogger(__name__)

FORMAT_VERSION = 2

# float32 scores held at once while retrieving; queries are scored in chunks
# of this many bytes' worth of query-by-entry block
_BLOCK_BYTES = 4 << 20

# entry lengths the float32 scores are exact enough for: the inverse norm
# stays a normal float32 and the matrix product can neither overflow nor
# lose more than a negligible amount to subnormal products
_NORM_RANGE = (2.0 ** -64, 2.0 ** 64)

# entries whose scores bound each query's selection threshold from below
_HEAD_ENTRIES = 4096

# the fewest float64 products the exact rescore sums at once, 128 KB; it
# holds about three times its block
_SUM_BLOCK = 1 << 14

# a column of n values each below this over n sums without overflow, in
# the TwoSum tree and in fsum alike
_SUM_LIMIT = 2.0 ** 1020


class Variant(str, Enum):
    """Which text form of the concept an entry embeds."""

    NAME_ONLY = "n"
    NAME_WITH_CONTEXT = "nc"


# the variant byte stored per entry indexes this tuple
_VARIANTS = (Variant.NAME_ONLY, Variant.NAME_WITH_CONTEXT)
_VARIANT_CODE = {variant: code for code, variant in enumerate(_VARIANTS)}


@dataclass(frozen=True)
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

    ``vectors`` is the float32 (entries, dim) matrix; ``concept_ids`` lists
    each concept once in entry order; ``concept_index`` and ``variant_codes``
    give each row's concept position and variant byte. A concept's rows are
    contiguous, and each row's length lies within 2**-64 to 2**64.
    """

    def __init__(self, concept_ids: Sequence[str], concept_index: np.ndarray,
                 variant_codes: np.ndarray, vectors: np.ndarray, dim: int,
                 provider_fingerprint: tuple[str, str], ontology_tag: str):
        """Take ownership of the given columns and make them read-only.

        Raises :class:`MemoryLayoutError` if they disagree and
        :class:`InvalidVector` for a NaN, infinite, zero or out-of-range row.
        """
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != dim:
            raise DimMismatch(dim, vectors.shape[-1] if vectors.ndim else 0)
        count = len(vectors)
        ids = tuple(concept_ids)
        index = np.asarray(concept_index, dtype=np.int64)
        codes = np.asarray(variant_codes, dtype=np.uint8)
        if index.shape != (count,) or codes.shape != (count,):
            raise MemoryLayoutError(
                f"{count} vectors but {index.size} concept indices and {codes.size} variant codes"
            )
        if len(set(ids)) != len(ids):
            split = min(cid for cid, n in Counter(ids).items() if n > 1)
            raise MemoryLayoutError(f"entries of concept {split!r} are not contiguous")
        # each concept's rows are contiguous exactly when the runs of equal
        # index values take the values 0, 1, ... once each, in order
        starts = np.flatnonzero(np.r_[True, index[1:] != index[:-1]])[:count]
        if not np.array_equal(index[starts], np.arange(len(ids))):
            raise MemoryLayoutError("concept index does not list each concept's entries contiguously")
        if (codes >= len(_VARIANTS)).any():
            raise MemoryLayoutError(f"variant code above {len(_VARIANTS) - 1}")

        # float64 sums of the exact float32 squares, without a float64 copy
        norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64))
        bad = ~((norms >= _NORM_RANGE[0]) & (norms <= _NORM_RANGE[1]))
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            if 0.0 < norms[row] < math.inf:
                raise InvalidVector("memory entry", row, "has a length outside 2**-64 to 2**64")
            raise InvalidVector("memory entry", row)
        for array in (vectors, index, codes):
            array.flags.writeable = False
        self.vectors = vectors
        self.concept_ids = ids
        self.concept_index = index
        self.variant_codes = codes
        self.dim = dim
        self.provider_fingerprint = tuple(provider_fingerprint)
        self.ontology_tag = ontology_tag
        self._inv_norms = (1.0 / norms).astype(np.float32)
        # the most entries any one concept has
        self._max_run = int(np.diff(np.r_[starts, count]).max()) if count else 1
        self._margin = _score_margin(dim)

    def __len__(self) -> int:
        return len(self.vectors)


def concept_text(name: str, description: str | None) -> str:
    """The name+context form embedded for the NameWithContext variant."""
    return f"{name}: {description}" if description else name


def query_text(query: Query) -> str:
    """The text embedded for a query: mention alone, or mention + context."""
    return f"{query.mention}: {query.context}" if query.context else query.mention


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
    # a concept's name row follows every row of the concepts before it, and
    # its context row, when it has one, follows its name row
    name_rows = np.arange(len(ids)) + np.cumsum(has_context) - has_context
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
            if np.shape(batch) != (len(rows[part]), spec.dim):
                raise DimMismatch(spec.dim, np.shape(batch)[-1])
            vectors[rows[part]] = batch
            del batch  # so the next slice is not embedded while this one is held

    codes = np.zeros(len(vectors), dtype=np.uint8)
    codes[context_rows] = _VARIANT_CODE[Variant.NAME_WITH_CONTEXT]
    return Memory(list(ids), np.repeat(np.arange(len(ids)), 1 + has_context), codes, vectors,
                  spec.dim, spec.fingerprint, ontology.tag)


def _offending(ids: Sequence[str], exc: LinkerError) -> str:
    index = getattr(exc, "index", None)
    if index is not None and 0 <= index < len(ids):
        return ids[index]
    return "<unknown>"


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1], computed in float64 independent of summation order.

    ``fsum(a*b) / (sqrt(fsum(a*a)) * sqrt(fsum(b*b)))``, clipped: each sum
    is exactly rounded, and products of float32 values are exact in float64,
    so the result depends only on the two vectors, never on a kernel. It
    divides by both norms rather than trusting unit inputs: float32 storage
    leaves norms a hair off 1, and self-similarity must stay at 1.0.
    An argument that is zero, holds a NaN or an infinity, or whose squares
    sum past the largest float raises :class:`InvalidVector`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimMismatch(a.shape[0], b.shape[0])
    squares = _row_squares(np.stack([a, b]), _SUM_BLOCK).tolist()
    for position, square in enumerate(squares):
        if not 0.0 < square < math.inf:
            raise InvalidVector("cosine argument", position)
    dot = _exact_sums((a * b)[:, None]).item()
    return min(1.0, max(-1.0, dot / (math.sqrt(squares[0]) * math.sqrt(squares[1]))))


def retrieve_batch(memory: Memory, queries: Sequence[np.ndarray] | np.ndarray,
                   k: int) -> list[list[Candidate]]:
    """The k distinct best-scoring concepts per query, best variant each, in query order.

    A concept's score is :func:`cosine` with its best entry; the reported
    variant is that entry's (the earlier entry on an exact tie). Concepts
    come in descending score, ties by ascending id. Returns all concepts
    when fewer than k exist. Query vectors must be finite and nonzero.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(queries) == 0:
        return []
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != memory.dim:
        raise DimMismatch(memory.dim, queries.shape[-1])
    squares = _row_squares(queries, _SUM_BLOCK)
    bad = ~((squares > 0.0) & (squares < math.inf))
    if bad.any():
        raise InvalidVector("query", int(np.flatnonzero(bad)[0]))
    if len(memory) == 0:
        return [[] for _ in queries]

    units = (queries / np.sqrt(squares)[:, None]).astype(np.float32)
    keep = min(k, len(memory.concept_ids))
    chunk = max(1, _BLOCK_BYTES // (4 * len(memory)))
    slates = []
    for lo in range(0, len(queries), chunk):
        part = slice(lo, lo + chunk)
        picks = _select(memory, units[part], keep)
        slates += _exact_top(memory, picks, queries[part], squares[part], keep)
    return slates


def _select(memory: Memory, units: np.ndarray, keep: int) -> list[list[tuple[int, int]]]:
    """Per query, the (entry, concept) pairs that may decide its top ``keep``.

    Every concept that can reach the top ``keep`` has its best entry no
    further than the margin below the ``top``-th best entry, as do the best
    entries of at least ``keep`` concepts; of those entries, each that trails
    the ``keep``-th best concept or its own concept's best by more than the
    margin can neither win nor tie, so it is dropped. The ``top``-th best of
    the first ``_HEAD_ENTRIES`` entries is a lower bound on the ``top``-th best
    of all, so only the entries that clear it are partitioned.
    """
    count = len(memory)
    # the best `top` entries span at least `keep` concepts
    top = min(keep * memory._max_run, count)
    margin = memory._margin
    scores = units @ memory.vectors.T
    scores *= memory._inv_norms
    head = scores[:, :max(top, _HEAD_ENTRIES)]
    floors = np.partition(head, head.shape[1] - top, axis=1)[:, head.shape[1] - top].tolist()
    picks = []
    for row, floor in zip(scores, floors):
        rows = np.flatnonzero(row >= floor - margin)
        selection = row[rows]
        nth = np.partition(selection, len(rows) - top)[len(rows) - top].item()
        inside = selection >= nth - margin
        picks.append(_pick(memory, rows[inside].tolist(), selection[inside].tolist(), keep))
    return picks


def _pick(memory: Memory, rows: list[int], selection: list[float],
          keep: int) -> list[tuple[int, int]]:
    """The (entry, concept) pairs of ``rows`` that may win or tie, by their float32 ``selection``."""
    concepts = memory.concept_index[rows].tolist()
    best: dict[int, float] = {}
    for c, score in zip(concepts, selection):
        if score > best.get(c, -math.inf):
            best[c] = score
    kth = heapq.nlargest(keep, best.values())[-1]
    margin = memory._margin
    return [
        (row, c) for row, c, score in zip(rows, concepts, selection)
        if score >= kth - margin and score >= best[c] - margin
    ]


def _exact_top(memory: Memory, picks: list[list[tuple[int, int]]], queries: np.ndarray,
               query_squares: np.ndarray, keep: int) -> list[list[Candidate]]:
    """Each query's ``keep`` best concepts by exact score, then id, among its ``picks``."""
    rows = np.array([row for pairs in picks for row, _ in pairs], dtype=np.int64)
    owners = np.repeat(np.arange(len(picks)), [len(pairs) for pairs in picks])
    # products summed at once: a sixteenth of the chunk's selection scores,
    # so the rescore never holds more than they did, but at least _SUM_BLOCK
    block = max(_SUM_BLOCK, len(queries) * len(memory) // 16)
    dots, squares = _pair_sums(memory, rows, owners, queries, block)
    # the IEEE operations of cosine's quotient, one pass for the chunk
    scores = dots / (np.sqrt(squares) * np.sqrt(query_squares)[owners])
    np.clip(scores, -1.0, 1.0, out=scores)
    scores = iter(scores.tolist())
    slates = []
    for pairs in picks:
        ranked: dict[int, tuple[float, int]] = {}
        for (row, c), score in zip(pairs, scores):
            if c not in ranked or score > ranked[c][0]:
                ranked[c] = (score, row)
        order = sorted((-score, memory.concept_ids[c], row) for c, (score, row) in ranked.items())
        slates.append([
            Candidate(concept_id=cid, score=-negated,
                      variant=_VARIANTS[memory.variant_codes[row]])
            for negated, cid, row in order[:keep]
        ])
    return slates


def _pair_sums(memory: Memory, rows: np.ndarray, owners: np.ndarray, queries: np.ndarray,
               block: int) -> tuple[np.ndarray, np.ndarray]:
    """``fsum`` of each entry ``rows[i]`` times ``queries[owners[i]]``, and of its square.

    The products go into column blocks of about ``block`` values, and the
    scratch space of three such blocks serves every block in turn.
    """
    dim = memory.dim
    step = max(1, block // (2 * dim))
    flat = np.empty(3 * dim * 2 * min(step, len(rows)))
    sums = np.empty((2, len(rows)))
    for lo in range(0, len(rows), step):
        picked = rows[lo : lo + step]
        width = len(picked)
        cols = flat[: dim * 2 * width].reshape(dim, 2 * width)
        # the factors are laid out in the scratch space the sums use next
        work = flat[dim * 2 * width :]
        entries = work[: dim * width].reshape(width, dim)
        entries[...] = memory.vectors[picked]
        products = np.take(queries, owners[lo : lo + step], axis=0, mode="clip",
                           out=work[dim * width : dim * 2 * width].reshape(width, dim))
        cols[:, :width] = np.multiply(entries, products, out=products).T
        cols[:, width:] = np.multiply(entries, entries, out=entries).T
        sums[:, lo : lo + width] = _exact_sums(cols, work).reshape(2, width)
    return sums[0], sums[1]


def _row_squares(queries: np.ndarray, block: int) -> np.ndarray:
    """``fsum`` of each query's squares, in column blocks of about ``block`` values.

    A sum past the largest float, for which fsum raises, is infinity here,
    and so is a square past it, without a warning.
    """
    step = max(1, block // max(1, queries.shape[1]))
    sums = []
    for lo in range(0, len(queries), step):
        cols = queries[lo : lo + step].T.copy()  # never the caller's array
        with np.errstate(over="ignore"):
            np.multiply(cols, cols, out=cols)
        try:
            sums.append(_exact_sums(cols))
        except OverflowError:  # one row at a time, to find the sums that overflow
            sums.append(_row_squares(queries[lo : lo + step], 1) if step > 1 else [math.inf])
    return np.concatenate(sums)


def _exact_sums(columns: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """``[math.fsum(c) for c in columns.T.tolist()]`` as one float64 array, bit for bit.

    Sums each column of the float64 (n, m) ``columns``; raises, returns
    infinity or NaN exactly as :func:`math.fsum` does. ``work`` is scratch
    space of at least 2 n m values; ``columns`` is left as it is.

    Why it is exact. Let S be a column's exact sum.

    - TwoSum (Knuth; Ogita, Rump and Oishi 2005, algorithm 3.1) of floats a
      and b gives s = fl(a + b) and e with s + e = a + b exactly, in any
      binary floating-point arithmetic with round-to-nearest and gradual
      underflow, unless something overflows. Every entry is below
      ``_SUM_LIMIT`` / n in magnitude, so no partial sum of the tree, nor
      of fsum, comes near the overflow threshold; a column outside that
      goes to fsum itself.
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
    - A column that fails (an exact midpoint fails by construction) gets a
      second distillation: the same tree over its errs gives hi2 and errs2,
      S = hi + hi2 + sum(errs2) exactly, and r = fl(hi + hi2) is tested the
      same way with bound = (1 + 4 n u) times the float sum of |errs2|.
      When errs2 are all zero the bound is 0, hi + hi2 is S itself, and
      IEEE addition rounds it exactly as fsum does, midpoints included.
    - r = 0, whose sign fsum fixes by its own rule, and a column whose
      second test fails too, go to fsum.
    """
    n, m = columns.shape
    if n == 0 or m == 0:
        return np.zeros(m)
    if work is None:
        work = np.empty(2 * n * m)
    peak = max(columns.max(), -columns.min())
    if not peak < _SUM_LIMIT / n:  # NaN compares false as well
        sums = np.empty(m)
        fine = np.maximum(columns.max(axis=0), -columns.min(axis=0)) < _SUM_LIMIT / n
        # in column order, so the first column fsum raises for raises first
        for j in np.flatnonzero(~fine).tolist():
            sums[j] = math.fsum(columns[:, j].tolist())
        sums[fine] = _exact_sums(columns[:, fine])
        return sums

    hi, errs = _distill(columns, work[: 2 * n * m].reshape(2 * n, m))
    lo = errs.sum(axis=0)
    spread = np.abs(errs, out=work[(n - 1) * m : 2 * (n - 1) * m].reshape(n - 1, m))
    sums, certified = _round(hi, lo, spread.sum(axis=0) * (n * 2.0 ** -51))
    retry = np.flatnonzero(~certified)
    if len(retry) and n > 1:
        # the gathered errors are all the second tree needs beside ``work``
        errs = errs[:, retry]
        hi2, errs2 = _distill(errs, work[: 2 * (n - 1) * len(retry)].reshape(2 * (n - 1), -1))
        spread = np.abs(errs2, out=work[(n - 2) * len(retry) : 2 * (n - 2) * len(retry)]
                        .reshape(n - 2, len(retry)))
        bound = spread.sum(axis=0) * (1.0 + n * 2.0 ** -51)
        sums[retry], certified = _round(hi[retry], hi2, bound)
        retry = retry[~certified]
    for j in retry.tolist():
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


def _round(hi: np.ndarray, lo: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fl(hi + lo), and where it is certainly the correctly rounded hi + lo + d, |d| <= bound."""
    r = hi + lo
    back = r - hi
    remainder = (hi - (r - back)) + (lo - back)
    size = np.abs(r)
    half_gap = (size - np.nextafter(size, 0.0)) * 0.5
    certified = np.abs(remainder) + bound < half_gap
    certified |= (bound == 0.0) & (r != 0.0)
    return r, certified


def save_memory(memory: Memory, path: str | Path) -> None:
    """Write the store in format v2; atomic (temp file + rename) and byte-deterministic.

    Missing parent directories are created.

    Layout: one UTF-8 JSON header line (``format_version``, ``dim``,
    ``provider_id``, ``model_id``, ``ontology_tag``, ``entry_count`` and the
    ``concept_ids`` table), then per entry a uint32 little-endian concept
    index, then per entry one variant byte, then the float32 little-endian
    (entry_count, dim) matrix.
    """
    header = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "dim": memory.dim,
            "provider_id": memory.provider_fingerprint[0],
            "model_id": memory.provider_fingerprint[1],
            "ontology_tag": memory.ontology_tag,
            "entry_count": len(memory),
            "concept_ids": list(memory.concept_ids),
        },
        ensure_ascii=False,
    )
    with atomic_writer(path) as fh:
        fh.write(header.encode("utf-8") + b"\n")
        fh.write(memory.concept_index.astype("<u4").tobytes())
        fh.write(memory.variant_codes.tobytes())
        fh.write(memory.vectors.astype("<f4", copy=False).data)


def load_memory(
    path: str | Path,
    *,
    expected_provider: tuple[str, str] | None = None,
    strict: bool = False,
) -> Memory:
    """Read a store written by :func:`save_memory`; never yields a partial Memory.

    A file of the wrong size or layout raises :class:`BadMagic`, one from
    another format version :class:`VersionMismatch`, and a NaN, infinite or
    zero vector :class:`InvalidVector`. When ``expected_provider`` differs
    from the stored fingerprint this warns, or raises
    :class:`FingerprintMismatch` under ``strict``.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            if not isinstance(header, dict):
                raise ValueError("header is not an object")
        except ValueError as exc:
            raise BadMagic(f"not a memory file: {exc}") from None
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise VersionMismatch(FORMAT_VERSION, version)
        try:
            dim = int(header["dim"])
            fingerprint = (str(header["provider_id"]), str(header["model_id"]))
            tag = str(header["ontology_tag"])
            count = int(header["entry_count"])
            ids = header["concept_ids"]
            if (dim < 1 or count < 0 or not isinstance(ids, list)
                    or not all(isinstance(cid, str) for cid in ids)):
                raise ValueError("bad dim, entry_count or concept_ids")
        except (KeyError, TypeError, ValueError) as exc:
            raise BadMagic(f"memory header incomplete: {exc}") from None

        body = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = count * (4 + 1 + 4 * dim)
        if body != expected:
            raise BadMagic(
                f"memory file truncated or padded: header promises {count} entries "
                f"of dim {dim} ({expected} bytes), body has {body} bytes"
            )
        index = np.fromfile(fh, dtype="<u4", count=count)
        codes = np.fromfile(fh, dtype=np.uint8, count=count)
        vectors = np.fromfile(fh, dtype="<f4", count=count * dim).reshape(count, dim)

    try:
        memory = Memory(ids, index, codes, vectors, dim, fingerprint, tag)
    except MemoryLayoutError as exc:
        raise BadMagic(f"corrupt memory file: {exc}") from None

    if expected_provider is not None and tuple(expected_provider) != fingerprint:
        if strict:
            raise FingerprintMismatch(fingerprint, tuple(expected_provider))
        logger.warning(
            "memory %s was built with provider %s but the run uses %s",
            path, fingerprint, expected_provider,
        )
    return memory
