"""Seeded input generator for the benchmark workloads.

Names and description words are made of consonant-vowel syllables, so
unrelated words share character trigrams the way real terms share roots.
Description words follow a Zipf law over one vocabulary, so common words
appear in many descriptions and give the keyword ranker distractors.
Every second mention carries a typo, and a query's context shares only
part of its gold concept's description, padded with filler drawn evenly
from the same vocabulary. A share of concepts are homonyms: they repeat
another concept's name exactly, which gives exact retrieval score ties.

Everything is a pure function of the seed; the program under test only
ever sees the files written from these objects.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

_SYLLABLES = [c + v for c in "bcdfgklmnprstvz" for v in "aeiou"] + [
    c + v + e for c in "bdgkmprst" for v in "aeio" for e in "lnrs"
]


@dataclass(frozen=True)
class Shape:
    """Size and texture of one generated corpus."""

    n_concepts: int
    described: float  # share of concepts with a description
    homonyms: float  # share of concepts that copy an earlier concept's name
    desc_words: tuple[int, int]  # description length range, in words
    context_share: float  # share of the gold description a context keeps
    context_filler: tuple[int, int]  # filler words added to a context
    vocabulary: int  # distinct description words


@dataclass(frozen=True)
class GenConcept:
    id: str
    name: str
    description: str | None


@dataclass(frozen=True)
class GenQuery:
    id: str
    mention: str
    context: str | None
    gold: str


def _word(rng: random.Random, low: int = 2, high: int = 3) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(low, high)))


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: dict[str, None] = {}
    while len(words) < size:
        words[_word(rng)] = None
    return list(words)


class Corpus:
    """One seeded ontology plus a query stream drawn from it."""

    def __init__(self, seed: int, shape: Shape) -> None:
        self.shape = shape
        rng = random.Random(f"corpus-{seed}")
        self._vocab = _vocabulary(rng, shape.vocabulary)
        self._cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(self._vocab))))
        self.concepts = self._concepts(rng)
        self._query_rng = random.Random(f"queries-{seed}")
        described = [c for c in self.concepts if c.description]
        undescribed = [c for c in self.concepts if not c.description]
        names: dict[str, int] = {}
        for c in self.concepts:
            names[c.name] = names.get(c.name, 0) + 1
        homonyms = [c for c in self.concepts if names[c.name] > 1]
        # fixed strata keep the quality metrics steady from seed to seed
        strata = [
            (stratum, weight)
            for stratum, weight in (
                (described, shape.described),
                (homonyms, 2 * shape.homonyms),
                (undescribed, 1.0 - shape.described),
            )
            if stratum and weight > 0
        ]
        self._strata = [stratum for stratum, _ in strata]
        self._weights = [weight for _, weight in strata]
        self._taken = [0] * len(self._strata)
        self._issued = 0

    def _description_words(self, rng: random.Random, n: int) -> list[str]:
        return rng.choices(self._vocab, cum_weights=self._cum, k=n)

    def _concepts(self, rng: random.Random) -> list[GenConcept]:
        shape = self.shape
        name_words = _vocabulary(rng, max(64, shape.n_concepts // 2))
        out: list[GenConcept] = []
        seen: set[str] = set()
        for i in range(shape.n_concepts):
            if out and rng.random() < shape.homonyms:
                name = rng.choice(out).name
            else:
                while True:
                    name = " ".join(rng.choice(name_words) for _ in range(rng.randint(2, 3)))
                    if name not in seen:
                        break
            seen.add(name)
            description = None
            if rng.random() < shape.described:
                description = " ".join(
                    self._description_words(rng, rng.randint(*shape.desc_words))
                )
            out.append(GenConcept(f"C{i:06d}", name, description))
        return out

    def _perturb(self, rng: random.Random, text: str) -> str:
        i = rng.randrange(1, len(text) - 2)
        if rng.random() < 0.5:
            return text[:i] + text[i + 1 :]
        return text[:i] + text[i + 1] + text[i] + text[i + 2 :]

    def queries(self, n: int) -> list[GenQuery]:
        """The next ``n`` queries of this corpus's stream."""
        rng = self._query_rng
        shape = self.shape
        out = []
        for _ in range(n):
            # the stratum furthest behind its share, so shares hold exactly
            total = sum(self._weights)
            j = max(
                range(len(self._strata)),
                key=lambda s: self._weights[s] / total * (self._issued + 1) - self._taken[s],
            )
            self._taken[j] += 1
            gold = rng.choice(self._strata[j])
            mention = gold.name
            if self._issued % 2:
                mention = self._perturb(rng, mention)
            words: list[str] = []
            if gold.description:
                own = gold.description.split()
                keep = max(1, round(len(own) * shape.context_share))
                words = rng.sample(own, keep)
            words += rng.choices(self._vocab, k=rng.randint(*shape.context_filler))
            rng.shuffle(words)
            context = " ".join(words) if words else None
            out.append(GenQuery(f"q{self._issued:06d}", mention, context, gold.id))
            self._issued += 1
        return out
