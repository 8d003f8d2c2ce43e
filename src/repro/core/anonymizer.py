"""High-level anonymization façade.

:class:`PolicyAwareAnonymizer` is the one-stop entry point a CSP (or a
reader of the paper) uses: give it a map region, an anonymity degree
``k`` and a location snapshot; it builds the lazy binary tree, runs the
optimized DP, extracts an optimal policy and then serves individual
service requests in O(1) per request — the "sub-second initialization,
milliseconds per query" operating point the paper argues for in §VII.

:class:`IncrementalAnonymizer` additionally carries the DP matrix across
location snapshots, repairing only the dirty portion of the tree when
users move (§IV "Incremental Maintenance of M", evaluated in Fig 5(b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from ..core.locationdb import LocationDatabase
from ..trees.binarytree import BinaryTree
from .binary_dp import TreeSolution, resolve_dirty, solve
from .errors import RecoveryError, ReproError
from .geometry import Point, Rect
from .policy import CloakingPolicy
from .requests import AnonymizedRequest, ServiceRequest, request_id_factory

if TYPE_CHECKING:
    from ..robustness.degrade import DegradationEvent
    from ..robustness.recovery import RecoveredSnapshot
    from ..trajectory.constraint import ContinuityConstraint

__all__ = ["PolicyAwareAnonymizer", "IncrementalAnonymizer", "UpdateReport"]


class PolicyAwareAnonymizer:
    """Bulk anonymization for one location snapshot.

    Parameters
    ----------
    region:
        The square map (or a 1:2 semi-quadrant jurisdiction) the
        anonymizer is responsible for.
    k:
        Sender anonymity degree — against *policy-aware* attackers.
    max_depth:
        Binary-tree depth limit; two binary levels make one quad level.
    prune:
        Apply the Lemma-5 search-space cap (keep True outside ablations).
    """

    def __init__(
        self,
        region: Rect,
        k: int,
        max_depth: int = 40,
        prune: bool = True,
    ):
        if k < 1:
            raise ReproError(f"k must be ≥ 1, got {k}")
        self.region = region
        self.k = k
        self.max_depth = max_depth
        self.prune = prune
        self.tree: Optional[BinaryTree] = None
        self.solution: Optional[TreeSolution] = None
        self._policy: Optional[CloakingPolicy] = None
        self._next_request_id = request_id_factory()

    # -- bulk phase -----------------------------------------------------------

    def fit(self, db: LocationDatabase) -> "PolicyAwareAnonymizer":
        """Run bulk anonymization for snapshot ``db``; returns self."""
        self.tree = BinaryTree.build(
            self.region, db, self.k, max_depth=self.max_depth
        )
        self.solution = solve(self.tree, self.k, prune=self.prune)
        self._policy = None  # extracted lazily
        return self

    def _require_fit(self) -> TreeSolution:
        if self.solution is None:
            raise ReproError("call fit(db) before using the anonymizer")
        return self.solution

    @property
    def optimal_cost(self) -> float:
        """``Cost(P, D)`` of the computed optimal policy."""
        return self._require_fit().optimal_cost

    @property
    def policy(self) -> CloakingPolicy:
        """The optimal policy-aware sender k-anonymous policy."""
        if self._policy is not None:
            # Either lazily extracted below, or adopted by a journal
            # restore (which may not carry DP state at all).
            return self._policy
        self._require_fit()
        self._policy = self.solution.policy()
        return self._policy

    # -- serving phase ----------------------------------------------------------

    def anonymize(self, request: ServiceRequest) -> AnonymizedRequest:
        """Serve one request: a policy lookup plus id assignment."""
        return self.policy.anonymize(request, self._next_request_id)

    def average_cloak_area(self) -> float:
        return self.policy.average_cloak_area()


@dataclass(frozen=True)
class UpdateReport:
    """What one incremental snapshot transition cost."""

    moved_users: int
    dirty_nodes: int
    recomputed_nodes: int
    total_nodes: int
    #: False when a fault-tolerant caller skipped the repair and kept
    #: serving the previous snapshot (the "stale" degradation rung).
    applied: bool = True

    @property
    def recomputed_fraction(self) -> float:
        if self.total_nodes == 0:
            return 0.0
        return self.recomputed_nodes / self.total_nodes


class IncrementalAnonymizer(PolicyAwareAnonymizer):
    """An anonymizer that follows the location database across snapshots.

    After :meth:`fit`, call :meth:`update` with each snapshot's moves;
    only the dirty part of the DP matrix is recomputed.  The result is
    always identical (in cost, and in anonymity guarantee) to a bulk
    re-computation — Figure 5(b) measures when it is also *faster*.
    """

    def restore(
        self, db: LocationDatabase, policy: CloakingPolicy
    ) -> "IncrementalAnonymizer":
        """Adopt a known policy for ``db`` instead of running bulk
        anonymization.

        Rebuilds the (deterministic) tree for snapshot ``db`` — cheap
        relative to the DP — and serves ``policy`` directly, with no DP
        state: :meth:`recover` warms it from a journal sidecar, and
        otherwise the first :meth:`update` falls back to one bulk solve.
        Serving works immediately either way.
        """
        self.tree = BinaryTree.build(
            self.region, db, self.k, max_depth=self.max_depth
        )
        self.solution = None
        self._policy = policy
        return self

    # -- journal format -------------------------------------------------------

    def fingerprint(self) -> Dict[str, object]:
        """What must match for journalled state to be adoptable here."""
        return {
            "k": self.k,
            "max_depth": self.max_depth,
            "prune": self.prune,
            "region": list(self.region.as_tuple()),
        }

    @classmethod
    def recover(
        cls,
        snapshot: "RecoveredSnapshot",
        trajectory: Optional["ContinuityConstraint"] = None,
    ) -> Tuple["IncrementalAnonymizer", "DegradationEvent"]:
        """Build the anonymizer a journal-recovered snapshot describes.

        The journalled :meth:`fingerprint` configures the anonymizer; a
        missing or malformed field fails closed with
        :class:`~repro.core.errors.RecoveryError` (``reason=
        "fingerprint"``).  The committed policy serves immediately, and
        the DP sidecar, when it validates against the rebuilt tree,
        warms the solution so the next :meth:`update` repairs
        incrementally.  A journalled trajectory ledger is adopted into
        ``trajectory``.  Returns the anonymizer and the "recovered"
        degradation event for the caller's timeline.
        """
        from ..robustness.degrade import DegradationEvent
        from ..robustness.recovery import rehydrate_flat_solution

        fp = snapshot.fingerprint
        try:
            region = fp["region"]
            if not isinstance(region, (list, tuple)):
                raise TypeError(f"region is {region!r}, not a list")
            anonymizer = cls(
                Rect(*[float(v) for v in region]),
                int(fp["k"]),  # type: ignore[arg-type]
                max_depth=int(fp.get("max_depth", 40)),  # type: ignore[arg-type]
                prune=bool(fp.get("prune", True)),
            )
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            raise RecoveryError(
                f"journal fingerprint {fp!r} cannot configure an "
                f"anonymizer: {exc!r}",
                reason="fingerprint",
            ) from exc
        anonymizer.restore(snapshot.policy.db, snapshot.policy)
        anonymizer.solution = rehydrate_flat_solution(
            anonymizer.tree, snapshot, anonymizer.k, prune=anonymizer.prune
        )
        if trajectory is not None and snapshot.trajectory is not None:
            # Resume continuity state: post-restart cloak choices must
            # keep honoring the pre-crash served history.
            trajectory.ledger.adopt_state(snapshot.trajectory)
        event = DegradationEvent(
            level="recovered",
            reason="restart",
            detail=(
                f"serial {snapshot.serial}, age {snapshot.policy_age}, "
                f"dp={'warm' if anonymizer.solution else 'cold'}"
            ),
        )
        return anonymizer, event

    def update(self, moves: Mapping[str, Point]) -> UpdateReport:
        """Advance to the next snapshot where ``moves`` users relocated."""
        if self.tree is None:
            raise ReproError("call fit(db) or restore(...) before update()")
        dirty = self.tree.apply_moves(moves)
        if self.solution is None:
            # Cold-restored (no journalled DP state): the first repair
            # is a full re-solve of the already-updated tree.
            self.solution = solve(self.tree, self.k, prune=self.prune)
            recomputed = len(self.tree)
        else:
            self.solution, recomputed = resolve_dirty(self.solution, dirty)
        self._policy = None
        return UpdateReport(
            moved_users=len(moves),
            dirty_nodes=len(dirty),
            recomputed_nodes=recomputed,
            total_nodes=len(self.tree),
        )

    @property
    def current_db(self) -> LocationDatabase:
        """The snapshot the current policy is valid for."""
        if self.tree is None:
            raise ReproError("call fit(db) or restore(...) first")
        return self.tree.db
