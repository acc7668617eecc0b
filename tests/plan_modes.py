"""The planner's multiplicity paths, reached the way callers reach them.

The planner decides the path from its inputs, with no argument:

* **plain** — a :class:`~repro.parallel.prepared.PreparedSide` on either
  side runs the full product (:func:`plain`, the scalar reference's
  shape when run as ``generator="all-pairs", backend="scalar"``);
* **collapse** — list sides run over their distinct values when the
  sampled uniqueness ratio clears the planner's two bars, which
  :func:`collapse` patches to force the rule either way;
* **triangle** — content-equal list sides enumerate ``i <= j`` under a
  collapse or on a PASS-JOIN plan.

Hypothesis rejects function-scoped ``monkeypatch``, so the bars are
patched with :func:`unittest.mock.patch.object` inside the test body.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.core import plan
from repro.core.plan import JoinPlanner
from repro.core.signatures import detect_kind, scheme_for
from repro.parallel.prepared import PreparedSide


def prepared(left, right, *, scheme: str | None = None, levels: int = 2):
    """Both sides as prepared sides, under the scheme a planner over the
    same lists would pick (so FBF decisions agree with it)."""
    left, right = list(left), list(right)
    kind = scheme or detect_kind(left[:128] + right[:128])
    scheme = scheme_for(kind, levels)
    return PreparedSide(left, scheme), PreparedSide(right, scheme)


def plain(left, right, *, scheme=None, levels=2, **kwargs) -> JoinPlanner:
    """A planner over ``left`` and ``right`` that runs the plain product."""
    return JoinPlanner(
        *prepared(left, right, scheme=scheme, levels=levels),
        levels=levels,
        **kwargs,
    )


@contextmanager
def collapse(on: bool):
    """Force the planner's collapse rule on (every list-side plan runs
    over distinct values) or off (none does) inside the block."""
    with ExitStack() as stack:
        if on:
            stack.enter_context(
                mock.patch.object(plan, "_COLLAPSE_MIN_PAIRS", 0)
            )
        stack.enter_context(
            mock.patch.object(plan, "_COLLAPSE_AUTO_RATIO", 1.0 if on else -1.0)
        )
        yield


#: mode -> (content-equal sides, forced collapse), or ``None`` for the
#: plain product over prepared sides: the paths the equivalence suites
#: check against the plain scalar reference
MODES = {
    "plain": None,
    "collapse": (False, True),
    "self-join": (True, False),
    "self-join-collapse": (True, True),
}


@contextmanager
def planner_for(mode: str, left, right, **kwargs):
    """A planner on ``mode``'s path over ``left`` and ``right`` (a
    self-join mode joins ``left`` with itself), with the collapse rule
    forced for the block: run it inside."""
    if MODES[mode] is None:
        yield plain(left, right, **kwargs)
        return
    equal, on = MODES[mode]
    with collapse(on):
        yield JoinPlanner(left, left if equal else right, **kwargs)
