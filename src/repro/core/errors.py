"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError`, so callers can catch a
single base class at API boundaries while still discriminating on the
specific failure when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class GeometryError(ReproError):
    """A geometric object was constructed or used inconsistently."""


class TreeError(ReproError):
    """A spatial tree was constructed or traversed inconsistently."""


class ConfigurationError(ReproError):
    """A configuration violates Definition 7 of the paper."""


class NoFeasiblePolicyError(ReproError):
    """No policy-aware sender k-anonymous policy exists for this input.

    Raised when a complete configuration (``C(root) = 0``) satisfying
    k-summation cannot be built — e.g. when the location database holds
    fewer than ``k`` users in total.
    """


class PolicyError(ReproError):
    """A cloaking policy was used outside its contract.

    Typical causes: asking a bulk policy about a user that was not part
    of the location database it was built for, or a policy producing a
    cloak that does not mask the requester (violating Definition 4's
    masking requirement).
    """


class AnonymityBreachError(ReproError):
    """An audit detected an anonymity breach and was asked to raise."""

    def __init__(self, message: str, *, breached_users=None):
        super().__init__(message)
        #: Users whose anonymity fell below k (tuple of user ids).
        self.breached_users = tuple(breached_users or ())


class WorkloadError(ReproError):
    """A synthetic workload was requested with inconsistent parameters."""


class UnknownUserError(PolicyError):
    """A lookup named a user the current snapshot does not know.

    Subclasses :class:`PolicyError` so existing callers that catch the
    broader class (policy lookups historically raised it) keep working.
    """


class JurisdictionSolveError(ReproError):
    """One server's jurisdiction solve failed (crash, error, or timeout).

    Carries enough metadata for the master to reassign or degrade the
    jurisdiction instead of aborting the whole bulk run.
    """

    def __init__(
        self,
        message: str,
        *,
        node_id: int,
        n_users: int = 0,
        attempts: int = 1,
        kind: str = "error",
    ):
        super().__init__(message)
        #: Partition-tree node id of the failed jurisdiction.
        self.node_id = node_id
        #: Users whose cloaks the failed solve was responsible for.
        self.n_users = n_users
        #: Solve attempts made (including retry rounds) before giving up.
        self.attempts = attempts
        #: Failure kind: ``"crash"``, ``"error"`` or ``"timeout"``.
        self.kind = kind


class ServiceUnavailableError(ReproError):
    """A request was rejected by the fail-closed degradation ladder.

    Raised when serving could not complete *and* no degradation rung
    (ancestor coarsening, bounded-age stale policy) applies — the system
    refuses rather than emit a sub-k or policy-unaware cloak.
    """

    def __init__(self, message: str, *, reason: str = "unavailable"):
        super().__init__(message)
        #: Machine-readable cause: ``"provider"``, ``"stale"``, ...
        self.reason = reason


class RecoveryError(ReproError):
    """Durable anonymization state could not be recovered safely.

    Raised by the crash-consistent snapshot store when the journal or a
    committed snapshot fails validation (truncation, checksum mismatch,
    mismatched or malformed fingerprint, stale db-serial).  The store
    fails closed: a CSP that cannot prove its recovered policy is the one
    it journalled refuses to serve rather than risk a non-masking or
    wrong-snapshot policy.
    """

    def __init__(self, message: str, *, reason: str = "corrupt"):
        super().__init__(message)
        #: Machine-readable cause: ``"corrupt"``, ``"torn"``, ``"empty"``,
        #: ``"fingerprint"``, ``"stale"``.
        self.reason = reason


class DeadlineExceededError(ReproError):
    """A retried call ran out of its per-call deadline budget."""


class CircuitOpenError(ReproError):
    """A circuit breaker is open; the protected call was not attempted."""
