"""The network edge: one JSON POST with a bearer token and bounded retries.

Both the remote embedder and the HTTP completion endpoint send their
requests through :func:`post_json`; each keeps only its body shape and its
reply extraction.
"""

from __future__ import annotations

import logging
import os
import time

import requests

from .errors import Timeout, TransportError

logger = logging.getLogger(__name__)

API_KEY_ENV = "LINKER_API_KEY"

# attempts in all, so RETRY_ATTEMPTS - 1 retries, the n-th after a pause of
# RETRY_BACKOFF_S[n - 1]
RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = (1.0, 2.0)
# the longest one request pauses in all, whatever Retry-After asks for
RETRY_AFTER_CAP_S = 30.0


def bearer_token() -> str | None:
    """API key from the environment; the only place credentials come from."""
    return os.environ.get(API_KEY_ENV) or None


def post_json(session: requests.Session, url: str, body: dict,
              timeout: float) -> requests.Response:
    """POST ``body`` as JSON and return the first reply below HTTP 400.

    Timeouts, transport failures, HTTP 429 and 5xx are retried, in at most
    ``RETRY_ATTEMPTS`` attempts in all: each retry follows one pause from
    ``RETRY_BACKOFF_S`` in turn and is logged with it, and the last failure
    is raised as :class:`Timeout` or :class:`TransportError`. A 429 or 503
    whose ``Retry-After`` gives delay-seconds pauses that long instead (RFC
    9110 10.2.3). The pauses of one call add up to at most
    ``RETRY_AFTER_CAP_S``: a pause longer than what is left is cut to it,
    and the log shows the cut value. Any other 4xx raises
    :class:`TransportError` at once.
    """
    headers = {}
    token = bearer_token()
    if token:
        headers["Authorization"] = f"Bearer {token}"

    last: Exception | None = None
    asked = None  # the pause the last reply asked for
    waited = 0.0
    for attempt in range(RETRY_ATTEMPTS):
        if attempt:
            pause = RETRY_BACKOFF_S[attempt - 1] if asked is None else asked
            pause = min(pause, RETRY_AFTER_CAP_S - waited)
            waited += pause
            logger.warning("retry %d of POST %s after %.0fs: %s", attempt, url, pause, last)
            time.sleep(pause)
            asked = None
        try:
            reply = session.post(url, json=body, headers=headers, timeout=timeout)
        except requests.Timeout as exc:
            last = Timeout(str(exc))
            continue
        except requests.RequestException as exc:
            last = TransportError(None, str(exc))
            continue
        # rate limiting (429) is transient, like a server error
        if reply.status_code == 429 or reply.status_code >= 500:
            last = TransportError(reply.status_code, reply.text[:200])
            if reply.status_code in (429, 503):
                asked = _retry_after(reply)
            continue
        if reply.status_code >= 400:
            raise TransportError(reply.status_code, reply.text[:200])
        return reply
    assert last is not None
    raise last


def _retry_after(reply: requests.Response) -> float | None:
    """The reply's ``Retry-After`` delay-seconds; None for none or an HTTP-date."""
    value = (getattr(reply, "headers", None) or {}).get("Retry-After", "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return float(value)
