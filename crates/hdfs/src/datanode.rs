//! Datanode-side state as tracked by the namenode and the mediator.

use crate::types::BlockId;
use hog_net::SiteId;
use hog_sim_core::SimTime;
use std::collections::BTreeSet;

/// Liveness classification of a datanode from the namenode's viewpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DnLiveness {
    /// Heartbeating normally.
    Live,
    /// Stopped heartbeating but not yet past the dead-node timeout — the
    /// window in which Figure 5's "reported nodes" momentarily exceeds the
    /// real pool.
    Silent,
    /// Declared dead; blocks are being re-replicated.
    Dead,
}

/// Per-datanode record.
#[derive(Clone, Debug)]
pub struct DatanodeInfo {
    /// The site the node runs at.
    pub site: SiteId,
    /// Usable HDFS capacity in bytes.
    pub capacity: u64,
    /// Bytes of block data currently stored.
    pub used: u64,
    /// Blocks hosted here.
    pub blocks: BTreeSet<BlockId>,
    /// Instant of the last heartbeat the namenode saw.
    pub last_heartbeat: SimTime,
    /// Current liveness classification.
    pub liveness: DnLiveness,
    /// The zombie failure mode (§IV-D.1): the site preempted the glidein
    /// but the double-forked daemon survived; its working directory is
    /// gone, so the daemon keeps heartbeating while every disk operation
    /// fails.
    pub storage_failed: bool,
    /// In-flight replication transfers this node is sourcing or sinking.
    pub repl_streams: u8,
}

impl DatanodeInfo {
    /// A fresh, healthy datanode at `site`, registered at `now`.
    pub fn new(capacity: u64, site: SiteId, now: SimTime) -> Self {
        DatanodeInfo {
            site,
            capacity,
            used: 0,
            blocks: BTreeSet::new(),
            last_heartbeat: now,
            liveness: DnLiveness::Live,
            storage_failed: false,
            repl_streams: 0,
        }
    }

    /// Free capacity.
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }

    /// Account a stored block.
    pub fn add_block(&mut self, block: BlockId, bytes: u64) {
        if self.blocks.insert(block) {
            self.used += bytes;
        }
    }

    /// Remove a block's accounting.
    pub fn remove_block(&mut self, block: BlockId, bytes: u64) {
        if self.blocks.remove(&block) {
            self.used = self.used.saturating_sub(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_accounting() {
        let mut dn = DatanodeInfo::new(100, SiteId(0), SimTime::ZERO);
        dn.add_block(BlockId(1), 40);
        dn.add_block(BlockId(2), 40);
        assert_eq!(dn.free(), 20);
        dn.remove_block(BlockId(1), 40);
        assert_eq!(dn.free(), 60);
    }

    #[test]
    fn double_add_is_idempotent() {
        let mut dn = DatanodeInfo::new(100, SiteId(0), SimTime::ZERO);
        dn.add_block(BlockId(1), 40);
        dn.add_block(BlockId(1), 40);
        assert_eq!(dn.used, 40);
        dn.remove_block(BlockId(9), 40); // not present: no-op
        assert_eq!(dn.used, 40);
    }
}
