"""Warn-once machinery for the deprecated pre-planner shims.

``match_strings`` and ``parallel_match_strings`` stay importable for
pre-planner callers, but a long-running job that calls a shim millions
of times should say so once, not once per call — Python's
own ``warnings`` default dedup is per call-site module state that
``simplefilter("always")`` (and pytest) resets, so the shims keep their
own registry here.
"""

from __future__ import annotations

import warnings

__all__ = ["warn_once", "reset_deprecation_warnings"]

_WARNED: set[str] = set()


def warn_once(
    key: str,
    message: str,
    *,
    category: type[Warning] = DeprecationWarning,
    stacklevel: int = 3,
) -> None:
    """Emit ``message`` at most once per process for ``key``.

    ``stacklevel`` defaults to 3: one frame for this helper, one for
    the shim, so the warning points at the shim's caller.
    """
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, category, stacklevel=stacklevel)


def reset_deprecation_warnings() -> None:
    """Forget which deprecations already fired (test-isolation hook)."""
    _WARNED.clear()
