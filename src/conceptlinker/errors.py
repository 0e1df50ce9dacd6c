"""Exception hierarchy shared across the package.

Every error raised on a user-facing path derives from :class:`LinkerError`
so callers (and the CLI exit-code mapping) can distinguish bad input
(:class:`ValidationError`) from failing external services
(:class:`ServiceError`).
"""

from __future__ import annotations


class LinkerError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LinkerError):
    """Bad user input: malformed files, broken invariants, bad config."""


class ServiceError(LinkerError):
    """An external service (embedding or completion endpoint) failed."""


# --- ontology / query files -------------------------------------------------

class RecordError(ValidationError):
    """A bad input record. It names its line, and its file once ``path`` is set."""

    def __init__(self, line: int, message: str):
        super().__init__(message)
        self.line = line
        self.path: str | None = None

    def __str__(self) -> str:
        where = f"line {self.line}" if self.path is None else f"{self.path}: line {self.line}"
        return f"{where}: {self.args[0]}"


class MalformedRecord(RecordError):
    def __init__(self, line: int, detail: str):
        super().__init__(line, f"malformed record: {detail}")
        self.detail = detail


class MissingField(MalformedRecord):
    def __init__(self, field: str, line: int):
        super().__init__(line, f"missing or empty required field {field!r}")
        self.field = field


class DuplicateId(RecordError):
    def __init__(self, concept_id: str, line: int):
        super().__init__(line, f"duplicate concept id {concept_id!r}")
        self.concept_id = concept_id


class EmptyFile(ValidationError):
    def __init__(self, path: str):
        super().__init__(f"no records found in {path}")
        self.path = path


class EmptyMention(RecordError):
    def __init__(self, line: int):
        super().__init__(line, "query mention is empty")


class UnknownId(ValidationError):
    def __init__(self, concept_id: str):
        super().__init__(f"unknown concept id {concept_id!r}")
        self.concept_id = concept_id


# --- embedding --------------------------------------------------------------

class EmptyText(ValidationError):
    def __init__(self, index: int | None = None):
        at = "" if index is None else f" at index {index}"
        super().__init__(f"cannot embed empty text{at}")
        self.index = index


class DimMismatch(ValidationError):
    def __init__(self, expected: int, got: int, index: int | None = None):
        at = "" if index is None else f" at index {index}"
        super().__init__(f"dimension mismatch{at}: expected {expected}, got {got}")
        self.expected = expected
        self.got = got
        self.index = index


class TransportError(ServiceError):
    def __init__(self, status: int | None, detail: str):
        where = "transport" if status is None else f"HTTP {status}"
        super().__init__(f"{where}: {detail}")
        self.status = status
        self.detail = detail


class Timeout(ServiceError):
    def __init__(self, detail: str):
        super().__init__(f"timed out: {detail}")
        self.detail = detail


# --- memory store -----------------------------------------------------------

class EmptyOntology(ValidationError):
    def __init__(self, tag: str):
        super().__init__(f"ontology {tag!r} has no concepts")
        self.tag = tag


class MemoryBuildError(LinkerError):
    """Embedding failed while building the memory; names the concept."""

    def __init__(self, concept_id: str, detail: str):
        super().__init__(f"embedding failed for concept {concept_id!r}: {detail}")
        self.concept_id = concept_id


class InvalidVector(ValidationError):
    """A vector holds NaN or infinity, or has zero length, so it has no cosine.

    Memory entries must also have a length within 2**-64 to 2**64, the
    range their float32 selection scores are proven for.
    """

    def __init__(self, what: str, index: int, problem: str = "is not a finite nonzero vector"):
        super().__init__(f"{what} {index} {problem}")
        self.what = what
        self.index = index


class MemoryLayoutError(ValidationError):
    """Memory columns disagree: vectors not 2-d or not fitting the flags, or a repeated id."""


class BadMagic(ValidationError):
    """Memory file is not one of ours, or is truncated/corrupt."""


class VersionMismatch(ValidationError):
    def __init__(self, expected: int, got: object):
        super().__init__(f"memory format version {got!r}, expected {expected}")
        self.expected = expected
        self.got = got


class FingerprintMismatch(ValidationError):
    def __init__(self, stored: tuple[str, str], requested: tuple[str, str]):
        super().__init__(
            f"memory was built with provider {stored}, run requests {requested}"
        )
        self.stored = stored
        self.requested = requested


class ConceptSetMismatch(ValidationError):
    """The memory was built from another set of concepts than the ontology lists."""

    def __init__(self, missing: list[str], added: list[str]):
        counts = [f"{len(ids)} {what}" + (f" (first {ids[0]!r})" if ids else "")
                  for what, ids in (("missing from the ontology", missing), ("new in it", added))]
        super().__init__(f"memory and ontology list different concepts: {', '.join(counts)}; "
                         "rebuild the memory")
        self.missing = missing
        self.added = added


# --- ranker -----------------------------------------------------------------

class EmptyCandidates(ValidationError):
    def __init__(self) -> None:
        super().__init__("cannot build a prompt with no candidates")


class UnresolvableCandidate(ValidationError):
    def __init__(self, concept_id: str):
        super().__init__(f"candidate {concept_id!r} does not resolve in the ontology")
        self.concept_id = concept_id


class PromptBudgetExceeded(ValidationError):
    def __init__(self, estimated: int, budget: int):
        super().__init__(
            f"prompt estimated at {estimated} tokens exceeds the token budget of {budget}"
        )
        self.estimated = estimated
        self.budget = budget


class TranscriptMiss(ValidationError):
    """A transcript with no inner endpoint has no response for a prompt digest."""

    def __init__(self, digest: str):
        super().__init__(f"no recorded response for prompt digest {digest}")
        self.digest = digest


# --- evaluation -------------------------------------------------------------

class MissingPrediction(ValidationError):
    def __init__(self, query_id: str):
        super().__init__(f"no prediction for gold query {query_id!r}")
        self.query_id = query_id


class MissingRetrieval(ValidationError):
    def __init__(self, query_id: str):
        super().__init__(f"no retrieval list for gold query {query_id!r}")
        self.query_id = query_id
