"""Exception hierarchy for the CONGEST simulator.

Every simulator failure derives from :class:`SimulatorError`, which
carries an optional structured ``context`` dict alongside the human
message.  Context keys are plain JSON-able values (edge tuples, round
numbers, virtual times, retransmit counts) so that test harnesses and
CLI wrappers can assert on *what* failed without parsing message
strings; both the synchronous scheduler and the asynchronous executor
populate them the same way.  :class:`RoundLimitExceeded` additionally
carries the partial ``metrics`` of the failed run, so a stalled faulty
simulation stays diagnosable.
"""

from __future__ import annotations


class SimulatorError(RuntimeError):
    """Base class for all simulator failures.

    Parameters
    ----------
    message:
        Human-readable description (the exception ``str``).
    context:
        Optional structured details; stored as :attr:`context` (always a
        dict, empty when not provided).
    """

    def __init__(self, message: str = "", *, context: dict | None = None):
        super().__init__(message)
        self.context: dict = dict(context) if context else {}


class ConfigError(SimulatorError):
    """Invalid simulator configuration."""


class CongestViolation(SimulatorError):
    """A node program exceeded the CONGEST bandwidth constraints.

    Raised when a single message is wider than the per-message bit budget,
    or when a node sends more messages over one edge in one round than the
    configured per-edge capacity.  This is a *program* bug by definition:
    CONGEST algorithms must be written to respect the model.
    """


class RoundLimitExceeded(SimulatorError):
    """The simulation did not terminate within ``max_rounds``.

    :attr:`metrics` carries the partial run metrics when the raising
    executor has them (``RunMetrics`` for the synchronous loops,
    ``AsyncMetrics`` for the asynchronous executor); ``None`` otherwise.
    """

    def __init__(
        self,
        message: str = "",
        *,
        context: dict | None = None,
        metrics=None,
    ):
        super().__init__(message, context=context)
        self.metrics = metrics


class ProtocolError(SimulatorError):
    """A node program reached an inconsistent internal state."""


class FaultInjectionError(ConfigError):
    """An invalid fault-injection configuration (``FaultPlan``).

    Subclasses :class:`ConfigError`: a bad fault plan *is* a bad
    simulator configuration (e.g. ``drop_rate`` outside ``[0, 1)``),
    and callers catching ``ConfigError`` keep working unchanged.
    """


class UnrecoverableLossError(RoundLimitExceeded):
    """The run exhausted its progress budget while fault injection was
    active.

    Under an adversarial enough :class:`~repro.congest.faults.FaultPlan`
    (e.g. a crash-stop node that never recovers, or loss beyond what
    the recovery layer was budgeted for) the protocol cannot complete;
    the simulator fails *loudly* with this error rather than returning
    a silently wrong answer.  Subclasses :class:`RoundLimitExceeded`
    because that is what the non-terminating run observably is.  The
    synchronous loops raise it at ``max_rounds``; the asynchronous
    executor also raises it when one message exhausts its retransmit
    budget, with ``context`` naming the edge, virtual time, and
    retransmit count.
    """
