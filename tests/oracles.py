"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions directly, in plain Python
with its own arithmetic, so a bug in the library cannot hide in its own
oracle. Deliberately slow and simple.
"""

from __future__ import annotations

import hashlib
import json
import math
import re


def fnv1a64_ref(data: bytes, seed: int = 0) -> int:
    """64-bit FNV-1a, one byte at a time, from the published constants."""
    value = (0xCBF29CE484222325 ^ seed) % 2**64
    for byte in data:
        value = value ^ byte
        value = (value * 0x100000001B3) % 2**64
    return value


def trigrams_ref(text: str) -> list[str]:
    """Character trigrams of the text padded with one space on each side."""
    padded = f" {text} "
    return [padded[i : i + 3] for i in range(len(padded) - 2)]


def normalize_ref(text: str) -> str:
    return " ".join(text.lower().split())


def embed_ref(text: str, dim: int, seed: int = 0) -> list[float]:
    """Bucket-counted trigram vector, L2-normalized, as plain floats."""
    counts = [0] * dim
    for gram in trigrams_ref(normalize_ref(text)):
        counts[fnv1a64_ref(gram.encode("utf-8"), seed) % dim] += 1
    norm = math.sqrt(sum(c * c for c in counts))
    assert norm > 0, "no trigrams"
    return [c / norm for c in counts]


def cosine_ref(a, b) -> float:
    """Dot over norms with explicit loops; clamped to [-1, 1].

    Every sum is ``math.fsum`` of the float64 products, which is exactly
    rounded, so the score depends on the two vectors alone and not on an
    order of summation: equal vectors score equal wherever they sit.
    """
    dot = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(math.fsum(float(x) * float(x) for x in a))
    nb = math.sqrt(math.fsum(float(y) * float(y) for y in b))
    return max(-1.0, min(1.0, dot / (na * nb)))


def retrieve_ref(entries, query, k: int) -> list[tuple[str, float]]:
    """Brute-force top-k: max score per concept, (-score, id) order.

    ``entries`` is a sequence of (concept_id, vector); ties between a
    concept's own entries keep the earlier entry's score (identical by
    definition), ties between concepts break by ascending id.
    """
    best: dict[str, float] = {}
    for concept_id, vector in entries:
        score = cosine_ref(vector, query)
        if concept_id not in best or score > best[concept_id]:
            best[concept_id] = score
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def hits_ref(retrievals: dict[str, list[str]], gold: dict[str, str], k: int) -> float:
    """Fraction of gold queries whose target sits in the first k ids."""
    hit = 0
    for query_id, target in gold.items():
        hit += target in retrievals[query_id][:k]
    return hit / len(gold)


def f1_ref(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def scores_ref(results, gold) -> dict:
    """Every ``MetricsReport`` field of a predictions run, from the definitions.

    ``results`` hold ``query_id`` and ``resolved`` (None when nothing was
    picked), ``gold`` holds ``source_id`` and ``target_id``; ids are
    distinct on each side. Each gold query is looked up among the results
    one at a time. A query is correct when its pick is its gold target;
    accuracy and recall divide the correct count by the gold count,
    precision by the number of results that picked something.
    """
    picked = 0
    for result in results:
        if result.resolved is not None:
            picked += 1
    correct = 0
    for pair in gold:
        (pick,) = [r.resolved for r in results if r.query_id == pair.source_id]
        if pick == pair.target_id:
            correct += 1
    precision = correct / picked if picked else 0.0
    recall = correct / len(gold)
    return {
        "accuracy": recall, "precision": precision, "recall": recall,
        "f1": f1_ref(precision, recall), "hits_at": {},
        "n_queries": len(results), "n_predicted": picked, "n_correct": correct,
        "n_gold": len(gold),
    }


def read_records_ref(path) -> tuple[list[tuple[int, dict]], tuple[int, str] | None]:
    """Records of a JSON Lines file by one ``json.loads`` per line.

    Returns the (line number, object) records before the first bad line,
    and that line's number and diagnostic, or None when every line is good.
    Blank lines and lines starting with ``#`` are skipped.
    """
    records = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                return records, (lineno, f"line {lineno}: malformed record: "
                                         f"invalid JSON ({exc.msg})")
            if not isinstance(obj, dict):
                return records, (lineno, f"line {lineno}: malformed record: "
                                         "record is not a JSON object")
            records.append((lineno, obj))
    return records, None


def parse_response_ref(text: str, n_options: int, none_label: str = "None"):
    """(kind, index) of a reply by the two-pass grammar, one rule at a time.

    "option N" anywhere, earliest first; then a line that starts "N:" or is
    exactly "N", the two line rules merged by text position; then the
    trimmed none label as a whole word; else a parse failure. ``int()`` of
    each digit run, so a run past Python's digit limit raises here.
    """
    for match in re.finditer(r"\boption\s+(\d+)", text, re.IGNORECASE):
        if int(match.group(1)) < n_options:
            return "option", int(match.group(1))
    line_hits = sorted(
        (m.start(), int(m.group(1)))
        for pattern in (r"^[ \t]*(\d+)[ \t]*:", r"^[ \t]*(\d+)[ \t]*$")
        for m in re.finditer(pattern, text, re.MULTILINE)
    )
    for _, index in line_hits:
        if index < n_options:
            return "option", index
    if re.search(rf"(?<!\w){re.escape(none_label.strip())}(?!\w)", text, re.IGNORECASE):
        return "none", None
    return "parse_failure", None


def _words_ref(text: str) -> set[str]:
    """Runs of four or more letters a-z in the lowercased text, one character at a time."""
    words, run = set(), ""
    for char in text.lower() + " ":
        if "a" <= char <= "z":
            run += char
            continue
        if len(run) >= 4:
            words.add(run)
        run = ""
    return words


def keyword_mock_ref(prompt: str) -> str:
    """The keyword mock's reply to a rendered prompt, by its rule, remembering nothing.

    The last ``Query term: `` line gives the term, and an ``<abstract>``
    block right under it the context. The lines ``0: ...``, ``1: ...`` after
    the last ``Options:`` line are the options, each ``name | description``
    or a bare name. The option whose description shares the most distinct
    words with the term and context wins, the earlier on a tie. With no
    word shared, the one option named as the term (trimmed, case-insensitive)
    wins; with none or several, the reply is the label of the last
    none-of-the-above line.
    """
    lines = prompt.splitlines()
    query_at = max(i for i, line in enumerate(lines) if line.startswith("Query term: "))
    options_at = max(i for i, line in enumerate(lines) if line == "Options:")
    mention = lines[query_at][len("Query term: "):]
    context = ""
    if lines[query_at + 1] == "<abstract>":
        close = lines.index("</abstract>", query_at + 2)
        context = "\n".join(lines[query_at + 2 : close])
    options = []
    for line in lines[options_at + 1 :]:
        if not line.startswith(f"{len(options)}: "):
            break
        name, _, description = line[len(f"{len(options)}: "):].partition(" | ")
        options.append((name, description))

    haystack = _words_ref(f"{mention} {context}")
    best, best_score = None, 0
    for i, (_, description) in enumerate(options):
        score = len(_words_ref(description) & haystack)
        if score > best_score:
            best, best_score = i, score
    if best is None:
        named = [i for i, (name, _) in enumerate(options)
                 if name.strip().lower() == mention.strip().lower()]
        if len(named) == 1:
            best = named[0]
    if best is not None:
        return f"option {best}"
    suffix = ": none of the above options match"
    return next(line for line in reversed(lines) if line.endswith(suffix))[: -len(suffix)]


def retrieval_digest_ref(candidates) -> str:
    """sha256 of the ``json.dumps`` text, keys sorted, of per-candidate objects."""
    blob = json.dumps(
        [
            [{"cid": c.concept_id, "score": format(c.score, ".6f")} for c in slate]
            for slate in candidates
        ],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
