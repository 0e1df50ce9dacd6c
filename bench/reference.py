"""Independent numpy reference for the local embedder and exact retrieval.

Written from the documented definitions, not from the package's code: a
text is whitespace-normalized and lowercased, padded with one space on
each side, and every character trigram is hashed with 64-bit FNV-1a into
``hash % dim``; the bucket counts are L2-normalized and stored as float32.
Retrieval scores every entry by float64 cosine, keeps each concept's best
entry, and ranks concepts by score.

Counts are whole numbers, so their sum of squares is exact in any order
and the float32 vectors come out bit-identical to a correct embedder.
"""

from __future__ import annotations

import numpy as np

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = 0xFFFFFFFFFFFFFFFF

# two scores closer than this are a tie, and tied concepts may come in any order
TIE_TOLERANCE = 1e-9


def embed_matrix(texts: list[str], dim: int, seed: int = 0) -> np.ndarray:
    """Unit-norm float32 trigram-hash vectors, one row per text.

    Only ASCII text is accepted, so that characters and bytes coincide;
    the benchmark's generator writes nothing else.
    """
    padded = []
    for text in texts:
        text = " ".join(text.split()).lower()
        if not text or not text.isascii():
            raise ValueError(f"reference embedder needs non-empty ASCII text: {text!r}")
        padded.append(f" {text} ")
    data = np.frombuffer("".join(padded).encode("ascii"), dtype=np.uint8).astype(np.uint64)
    lengths = np.array([len(p) for p in padded], dtype=np.int64)
    grams = lengths - 2
    text_start = np.cumsum(lengths) - lengths
    gram_start = np.cumsum(grams) - grams
    row = np.repeat(np.arange(len(padded)), grams)
    pos = np.arange(int(grams.sum())) - np.repeat(gram_start - text_start, grams)

    h = np.full(pos.shape, (FNV_OFFSET ^ (seed & MASK64)) & MASK64, dtype=np.uint64)
    for offset in range(3):
        h ^= data[pos + offset]
        h *= np.uint64(FNV_PRIME)  # uint64 arithmetic wraps modulo 2**64
    bucket = (h % np.uint64(dim)).astype(np.int64)
    counts = np.bincount(row * dim + bucket, minlength=len(padded) * dim)
    counts = counts.reshape(len(padded), dim).astype(np.float64)
    counts /= np.sqrt((counts * counts).sum(axis=1))[:, None]
    return counts.astype(np.float32)


class ReferenceIndex:
    """Brute-force float64 cosine top-k over (concept id, text) entries.

    ``entries`` lists each concept's texts contiguously; a concept's score
    is the best score among its entries.
    """

    def __init__(self, entries: list[tuple[str, str]], dim: int, seed: int = 0) -> None:
        self.dim = dim
        self.seed = seed
        ids: list[str] = []
        starts: list[int] = []
        for i, (cid, _) in enumerate(entries):
            if not ids or ids[-1] != cid:
                ids.append(cid)
                starts.append(i)
        if len(set(ids)) != len(ids):
            raise ValueError("a concept's entries must be contiguous")
        self.ids = ids
        self._position = {cid: i for i, cid in enumerate(ids)}
        self._starts = np.array(starts, dtype=np.int64)
        matrix = embed_matrix([text for _, text in entries], dim, seed).astype(np.float64)
        self._matrix = matrix
        self._norms = np.linalg.norm(matrix, axis=1)

    def best_scores(self, query_texts: list[str], chunk: int = 64) -> np.ndarray:
        """Per-concept best cosine, shape (queries, concepts)."""
        out = np.empty((len(query_texts), len(self.ids)), dtype=np.float64)
        for lo in range(0, len(query_texts), chunk):
            q = embed_matrix(query_texts[lo : lo + chunk], self.dim, self.seed).astype(np.float64)
            scores = (self._matrix @ q.T) / np.outer(self._norms, np.linalg.norm(q, axis=1))
            np.clip(scores, -1.0, 1.0, out=scores)
            out[lo : lo + chunk] = np.maximum.reduceat(scores, self._starts, axis=0).T
        return out

    def check_slate(self, best: np.ndarray, slate: list[tuple[str, float]], k: int) -> str | None:
        """Why ``slate`` is not an exact top-k for one query's ``best`` row, or None.

        Every listed concept must carry its reference score, and the slate's
        scores must equal the reference's k best, position by position, so a
        missing concept shows as a wrong score. Order among tied scores is free.
        """
        want = min(k, len(self.ids))
        if len(slate) != want:
            return f"slate has {len(slate)} candidates, expected {want}"
        if len({cid for cid, _ in slate}) != len(slate):
            return "slate repeats a concept"
        top = np.sort(best)[::-1][:want]
        for rank, ((cid, score), expected) in enumerate(zip(slate, top)):
            position = self._position.get(cid)
            if position is None:
                return f"rank {rank}: unknown concept {cid!r}"
            if abs(score - best[position]) > TIE_TOLERANCE:
                return f"rank {rank}: {cid} scored {score!r}, reference {float(best[position])!r}"
            if abs(score - expected) > TIE_TOLERANCE:
                return f"rank {rank}: score {score!r}, reference top-{want} has {float(expected)!r}"
        return None
