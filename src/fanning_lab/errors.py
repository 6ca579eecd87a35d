"""Exception hierarchy shared by all modules.

Numerical failures are always raised as subclasses of FanningLabError so
callers (and the CLI) can distinguish bad input, degenerate geometry and
genuine arithmetic blow-ups.  A failure inside a batch of flags names the
failing flag ("flag 3: ..."), the lowest one when several fail at once, so
the message is the same on every rerun; `batch_labels` names the entries
of a batch otherwise (by their sample time, say), and `lanes` marks a last
batch axis whose entries are lanes of one flag (the two time directions of
a transport window), which the label leaves out.
"""

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np


class FanningLabError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteValue(FanningLabError):
    """A computation produced NaN or infinity."""


class DimensionMismatch(FanningLabError):
    """Array shapes are inconsistent with the declared dimensions."""


class NotFanning(FanningLabError):
    """The block matrix [A | Adot] of a frame triple is numerically singular."""


class NotLagrangian(FanningLabError):
    """A plane that must be Lagrangian fails A^T Omega A = 0."""


class SingularTransform(FanningLabError):
    """A linear map required to be invertible is singular."""


class NotPositiveDefinite(FanningLabError):
    """A fundamental tensor (or Randers validity condition) is not positive."""


class NewtonDivergence(FanningLabError):
    """A Newton solve exhausted its iteration budget."""


class OutOfChart(FanningLabError):
    """A geodesic left the coordinate box of its metric."""


class DegenerateFlag(FanningLabError):
    """The two flag vectors are parallel."""


class NotUnitSpeed(FanningLabError):
    """An operation requiring F(v) = 1 received a non-unit vector."""


class InternalInconsistency(FanningLabError):
    """Two computation paths that must agree disagreed beyond tolerance."""


class RankDeficient(FanningLabError):
    """A basis matrix does not have full column rank."""


class TransversalityFailure(FanningLabError):
    """The curve meets the annihilator of the coisotropic subspace."""


class DegenerateRestriction(FanningLabError):
    """The Wronskian is degenerate on the intersection with the coisotropic
    subspace, or the quotient by that subspace is trivial."""


class HorizontalityViolation(FanningLabError):
    """A vector fails the horizontal-cone condition of a submersion."""


class SmallnessViolation(FanningLabError):
    """A deformation datum (one-form or vector field) is not small enough."""


class ConfigError(FanningLabError):
    """A scenario configuration does not validate."""


_BATCH_LABEL = ContextVar("batch_label", default=lambda i: f"flag {i}")
_LANES = ContextVar("lanes", default=False)


def flag_label(i):
    """'flag 3' for batch index (3,) or 3, or what `batch_labels` names it;
    None for () (a single point).  Within `lanes` the last axis of an index
    tuple is the lane, and is left out."""
    if isinstance(i, tuple):
        if _LANES.get():
            i = i[:-1]
        if not i:
            return None
        i = i[0] if len(i) == 1 else i
    return _BATCH_LABEL.get()(i)


@contextmanager
def batch_labels(label):
    """Within the block, batch index i is named label(i) instead of
    'flag i' (a batch of sample times names each by its t)."""
    token = _BATCH_LABEL.set(label)
    try:
        yield
    finally:
        _BATCH_LABEL.reset(token)


@contextmanager
def lanes():
    """Within the block the last batch axis holds lanes of one entry: a
    failure names the entry whichever of its lanes fails, and a single
    point run in several lanes still gets no label."""
    token = _LANES.set(True)
    try:
        yield
    finally:
        _LANES.reset(token)


@contextmanager
def labelled(label):
    """Prefix the message of a FanningLabError raised in the block with
    `label` (a flag label, an epsilon, ...); None adds nothing."""
    try:
        yield
    except FanningLabError as exc:
        if label is None:
            raise
        raise type(exc)(f"{label}: {exc}") from exc


def raise_at(error, bad, describe):
    """Raise `error` for the lowest batch index at which `bad` holds.

    bad is a boolean array over the batch axes (0-d for a single point);
    describe(i) gives the message for index tuple i, and a batched message
    is prefixed with the flag label.  Returns when no entry is bad.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return
    i = tuple(int(k) for k in np.argwhere(bad)[0]) if bad.ndim else ()
    label = flag_label(i)
    raise error(describe(i) if label is None else f"{label}: {describe(i)}")
