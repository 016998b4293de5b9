"""Types shared by the workload modules."""

from __future__ import annotations

from typing import Any, NamedTuple


class Pass(NamedTuple):
    """One pass of a workload's operations.

    ``failures`` maps every attempted operation to its error text, or None
    when it succeeded. ``fingerprint`` is whatever must repeat exactly from
    pass to pass; ``data`` holds the outputs the checks read. Passes that run
    child processes also carry the children's trace profiles and their
    largest peak resident memory.
    """

    wall_s: float
    failures: dict
    fingerprint: Any
    data: Any
    profile: list | None = None
    peak_rss_kb: int = 0
