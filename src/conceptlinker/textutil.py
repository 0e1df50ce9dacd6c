"""Small text helpers used by both the ontology loader and the embedders."""

from __future__ import annotations


def normalize_whitespace(text: str) -> str:
    """Trim and collapse all internal whitespace runs to single spaces.

    This is the whitespace rule of README's "File formats" section.
    Already-normal text is returned as it is: the ASCII space is the only
    printable ``str.isspace()`` character, so printable text with no
    doubled or edge space has nothing to change.
    """
    if (text.isprintable() and "  " not in text
            and not text.startswith(" ") and not text.endswith(" ")):
        return text
    return " ".join(text.split())


def truncate_at_word(text: str, budget: int) -> str:
    """Cut ``text`` to at most ``budget`` characters, ending on a whole word.

    Falls back to a hard cut when the first ``budget`` characters contain
    no space. Idempotent: truncating an already-truncated string returns it
    unchanged.
    """
    if budget <= 0:
        return ""
    if len(text) <= budget:
        return text
    cut = text[:budget]
    space = cut.rfind(" ")
    if space <= 0:
        return cut
    return cut[:space].rstrip()
