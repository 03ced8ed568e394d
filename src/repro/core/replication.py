"""Continuous replication to a standby machine (Table 2: ``sls send``
"can ... continually feed incremental checkpoints to a remote host,
... or provide high availability").

A :class:`ReplicationLink` subscribes to a consistency group's commits:
after each checkpoint completes locally, the delta since the last
shipped checkpoint is serialized into a migration stream, charged
across the NIC, and applied to the standby's object store.  When the
primary dies, :meth:`failover` restores the newest replicated
checkpoint on the standby — bounded loss of at most one checkpoint
period plus replication lag.

Link flaps are survivable: each ship attempt consults the primary's
fault plan (:meth:`~repro.core.faults.FaultPlan.on_link`) and retries
:class:`~repro.errors.LinkDown` with the standard backoff policy.  An
outage that outlasts the retries marks the link *down* (``sls
events``: ``replication.link_down``) and shipping quietly resumes on
the next pump; :meth:`failover` during an outage is only allowed once
the outage has exceeded the failover deadline — flapping links must
not trigger split-brain-style premature failovers.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import MachineCrashed, SLSError
from ..units import MSEC
from . import events, faults, migration, telemetry, tracing
from .resilience import ReplicaLeg

#: An outage must last this long before failover is permitted.
DEFAULT_FAILOVER_DEADLINE_NS = 100 * MSEC


class ReplicationLink:
    """One group continuously replicated from a primary to a standby."""

    def __init__(self, src_sls, dst_sls, group,
                 failover_deadline_ns: int = DEFAULT_FAILOVER_DEADLINE_NS):
        self.src_sls = src_sls
        self.dst_sls = dst_sls
        self.group = group
        self.last_shipped: Optional[int] = None
        self._installed = False
        self.failover_deadline_ns = failover_deadline_ns
        #: Retry policy, outage bookkeeping and stream stats.
        self.leg = ReplicaLeg(src_sls.machine.clock,
                              seed=0x11A6 ^ group.group_id,
                              op="replication.ship", group=group.group_id)
        self.full_syncs = 0

    @property
    def down_since(self) -> Optional[int]:
        """Sim-instant the current outage began (None = link healthy)."""
        return self.leg.down_since

    @property
    def stats(self) -> Dict[str, int]:
        """Streams, bytes, full syncs and outages shipped so far."""
        leg = self.leg.stats
        return {"streams": leg["streams"], "bytes": leg["bytes"],
                "full_syncs": self.full_syncs, "outages": leg["outages"]}

    # -- shipping -----------------------------------------------------------------

    def _ship_once(self, newest: int) -> None:
        """One connect + send attempt (the retry policy's unit)."""
        plan = getattr(self.src_sls.machine, "fault_plan", None)
        if plan is not None:
            plan.on_link()
            # The ship direction can be partitioned independently of
            # the reverse path: delivery, not just shipping, fails
            # per-direction (and may be skewed late).  The standby is
            # endpoint 0 in directional partition cuts.
            delay = plan.on_deliver(faults.PRIMARY, 0)
            if delay:
                self.leg.clock.advance(delay)
        # Same propagation rule as the quorum cluster's legs (spans
        # never advance the clock).
        ctx = tracing.TraceContext.for_group(self.group.group_id)
        with tracing.use(ctx.resolve() if ctx is not None else None):
            with telemetry.registry().span(self.leg.clock, "repl.ship",
                                           group=self.group.group_id,
                                           ckpt=newest):
                if self.last_shipped is None:
                    stream = migration.send_checkpoint(
                        self.src_sls, self.group.group_id, ckpt_id=newest)
                    self.full_syncs += 1
                else:
                    stream = migration.send_checkpoint(
                        self.src_sls, self.group.group_id, ckpt_id=newest,
                        since=self.last_shipped)
                migration.recv_checkpoint(self.dst_sls, stream)
        self.leg.sent(len(stream))

    def ship(self) -> Optional[int]:
        """Ship everything committed since the last shipment.

        Returns the checkpoint id now current on the standby, or None
        when there is nothing new — or when the link is down and the
        retries did not outlast the flap (the next pump tries again).
        """
        newest = self.group.last_complete_id
        if newest is None or newest == self.last_shipped:
            return None
        if not self.leg.ship(lambda: self._ship_once(newest)):
            return None
        self.last_shipped = newest
        return newest

    def install(self) -> None:
        """Hook the group's periodic commits: every completed
        checkpoint is shipped automatically.

        Implemented by chaining the orchestrator's periodic timer —
        the link ships on the same event-loop cadence as the group's
        checkpoints, immediately after each fires.
        """
        if self._installed:
            return
        self._installed = True
        loop = self.src_sls.machine.loop

        def pump():
            if not self._installed or not self.group.attached:
                return
            # Shipping only ever reads *complete* checkpoints, so an
            # in-flight flush is no obstacle.
            self.ship()
            self._timer = loop.call_after(self.group.period_ns, pump)

        # Offset by half a period so shipments interleave with the
        # group's checkpoint timer instead of racing it.
        self._timer = loop.call_after(self.group.period_ns +
                                      self.group.period_ns // 2, pump)

    def stop(self) -> None:
        """Cease shipping (standby keeps what it has)."""
        self._installed = False
        timer = getattr(self, "_timer", None)
        if timer is not None:
            timer.cancel()

    # -- failover -------------------------------------------------------------------

    def outage_ns(self) -> int:
        """How long the current outage has lasted (0 when healthy)."""
        return self.leg.outage_ns()

    def failover(self, lazy: bool = False, force: bool = False):
        """The primary is gone: resume the application on the standby
        from the newest replicated checkpoint.

        During a link outage, failover is refused until the outage has
        exceeded the failover deadline — a flapping link should
        reconnect with backoff, not promote the standby.  ``force``
        overrides (operator knows the primary is really dead).
        """
        if self.last_shipped is None:
            raise SLSError("nothing was ever replicated")
        if self.down_since is not None and not force:
            # The recorded outage start may be stale: an outage noted
            # when retries exhausted is never re-examined unless a
            # later ship happens to succeed, so a link that healed
            # (and possibly re-flapped) in between would inherit the
            # old start and look deadline-old.  Probe before trusting
            # it — one last ship attempt; if anything gets through the
            # link is alive and failover would lose the unshipped
            # tail.
            try:
                self.ship()
            except MachineCrashed:
                pass  # primary really is gone; the outage stands
            if self.down_since is None:
                raise SLSError(
                    "link probe succeeded: the link is up (standby is "
                    "current), refusing failover")
        outage = self.outage_ns()
        if (self.down_since is not None and not force
                and outage < self.failover_deadline_ns):
            raise SLSError(
                f"link down only {outage}ns (< deadline "
                f"{self.failover_deadline_ns}ns): keep retrying before "
                f"failing over")
        self.stop()
        events.emit(self.leg.clock.now(), events.FAILOVER,
                    group=self.group.group_id, ckpt=self.last_shipped,
                    outage_ns=outage)
        return self.dst_sls.restore(self.group.group_id,
                                    ckpt_id=self.last_shipped,
                                    lazy=lazy)

    def lag_checkpoints(self) -> int:
        """How many committed checkpoints the standby is behind."""
        chain = self.src_sls.store.checkpoints_for(self.group.group_id,
                                                   include_partial=True)
        if self.last_shipped is None:
            return len(chain)
        return sum(1 for info in chain if info.ckpt_id > self.last_shipped)
