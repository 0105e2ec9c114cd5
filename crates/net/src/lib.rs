//! Network and topology model for the HOG reproduction.
//!
//! The paper's performance story hinges on one asymmetry: *bandwidth inside
//! a site is much larger than bandwidth between sites* (HOG §III-B.1). This
//! crate provides:
//!
//! * [`topology`] — node/site identity, DNS-style hostnames and the
//!   `workername.site.edu → site.edu` grouping rule HOG's site-awareness
//!   script applies.
//! * [`params`] — link capacities and latencies ([`NetParams`]).
//! * [`fluid`] — an event-driven **max-min fair fluid-flow** network
//!   ([`FluidNet`]): every active transfer gets a rate from progressive
//!   filling over node NICs and site uplinks; rates are recomputed whenever
//!   the flow set changes. The mediator drives it on behalf of the HDFS
//!   and MapReduce substrates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fluid;
pub mod params;
pub mod topology;
pub mod wan;

pub use fluid::FluidNet;
pub use params::NetParams;
pub use wan::{WanDone, WanTier, WanTransferId};
pub use topology::{site_domain_of, NodeId, RackId, SiteId, Topology, RACK_SIZE};

/// Identifier of an in-flight transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// How a flow ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowOutcome {
    /// All bytes were delivered.
    Completed,
    /// An endpoint vanished (node preempted) or the flow was cancelled.
    Killed,
}

/// A finished transfer, as reported by [`FluidNet::advance`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowEnd {
    /// The flow that ended.
    pub id: FlowId,
    /// Caller-supplied correlation tag (opaque to the network).
    pub tag: u64,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Whether it completed or was killed.
    pub outcome: FlowOutcome,
}
