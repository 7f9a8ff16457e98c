//! The overload plane (DESIGN §15): the storage server's admission gate
//! and brownout ladder — the same [`AdmissionGate`] the prototype's server
//! runs, observed in event order — and the nodes' L1 refusal of buffer
//! misses. Without `overload` options in the config the plane is
//! disengaged: it admits everything, books nothing and schedules no event.

use super::{ClusterSim, Ev};
use crate::metrics::OverloadStats;
use crate::overload::{AdmissionGate, Outcome, OverloadOptions};
use sim_core::{EventQueue, SimTime};
use workload::record::Op;

/// Where a request stands with the overload plane.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Admission {
    /// Not through the gate: before its first server arrival, in a run
    /// without a gate, or a hedge mirror riding its original's slot.
    Pending,
    /// Holds a gate slot, released when the response lands.
    Admitted,
    /// Refused at the gate (busy or priority shed); the refusal is its
    /// response.
    Refused,
    /// Admitted, then refused by its node under brownout.
    NodeShed,
    /// Failed downstream (route or retry budget exhausted). It holds a
    /// slot when the run has a gate, and counts as a deadline miss.
    Failed,
}

/// One run's admission gate; `None` inside when the config has no
/// `overload` options.
pub(super) struct OverloadPlane(Option<AdmissionGate>);

impl OverloadPlane {
    pub(super) fn new(opts: Option<OverloadOptions>) -> Self {
        OverloadPlane(opts.map(AdmissionGate::new))
    }

    /// The ledger: `OverloadStats::default()` when disengaged.
    pub(super) fn stats(&self) -> OverloadStats {
        self.0.as_ref().map(|g| *g.stats()).unwrap_or_default()
    }
}

impl ClusterSim<'_> {
    /// Offers `req` to the gate at its first server arrival. Returns true
    /// when the request may proceed to routing: the plane is disengaged,
    /// the request already holds a slot (RPC retries re-enter routing
    /// without paying again), or it is a hedge mirror riding its
    /// original's admission. Returns false when the request was refused —
    /// the refusal *is* its response (recorded so the run terminates and
    /// the closed loop chains), excluded from latency samples.
    pub(super) fn gate_admit(
        &mut self,
        req: u32,
        now: SimTime,
        queue: &mut EventQueue<Ev>,
    ) -> bool {
        let Some(gate) = self.overload.0.as_mut() else {
            return true;
        };
        let r = &mut self.reqs[req as usize];
        if r.mirror_of.is_some() || r.admission == Admission::Admitted {
            return true;
        }
        if gate.try_admit(r.priority).is_ok() {
            r.admission = Admission::Admitted;
            return true;
        }
        r.admission = Admission::Refused;
        self.record_response(req, now, queue);
        false
    }

    /// Brownout L1+: the node serves buffer-resident data only and refuses
    /// a read miss instead of spinning a data disk up — the same refusal
    /// the prototype's node sends as `Busy`. Returns true when `req` was
    /// refused (its response recorded). Hedge mirrors are exempt: the
    /// original owns the accounting.
    pub(super) fn node_sheds(
        &mut self,
        req: u32,
        node: usize,
        now: SimTime,
        queue: &mut EventQueue<Ev>,
    ) -> bool {
        let Some(gate) = self.overload.0.as_ref() else {
            return false;
        };
        let r = &mut self.reqs[req as usize];
        if gate.level() == 0
            || r.op != Op::Read
            || r.mirror_of.is_some()
            || self.nodes[node].catalog.contains(r.file)
        {
            return false;
        }
        r.admission = Admission::NodeShed;
        self.record_response(req, now, queue);
        true
    }

    /// Releases the slot `root` holds, booking how it left, when its
    /// response is recorded.
    pub(super) fn release_slot(&mut self, root: u32) {
        let Some(gate) = self.overload.0.as_mut() else {
            return;
        };
        let outcome = match self.reqs[root as usize].admission {
            Admission::Admitted => Outcome::Completed,
            Admission::NodeShed => Outcome::NodeShed,
            Admission::Failed => Outcome::Failed,
            Admission::Pending | Admission::Refused => return,
        };
        gate.release(outcome);
    }
}
