//! HDFS configuration.

use crate::availability::AvailabilityPolicy;
use hog_sim_core::units::{GIB, MIB};
use hog_sim_core::SimDuration;

/// Tunables of the HDFS model. Two presets matter: [`HdfsConfig::hog`]
/// (replication 10, 30 s dead-node timeout — §III-B) and
/// [`HdfsConfig::stock`] (replication 3, ~10 min recheck, as on the
/// dedicated cluster).
#[derive(Clone, Debug)]
pub struct HdfsConfig {
    /// Fixed block size files are split into (64 MB in the paper).
    pub block_size: u64,
    /// Default replication factor for new files.
    pub replication: u16,
    /// Datanode heartbeat period.
    pub heartbeat_interval: SimDuration,
    /// Silence after which the namenode declares a datanode dead. The
    /// paper: "If the worker nodes do not report every 30 seconds, then the
    /// node is marked dead for both the namenode and jobtracker", versus
    /// the traditional 10+ minute recheck interval.
    pub dead_node_timeout: SimDuration,
    /// Period of the namenode's replication monitor scan.
    pub replication_monitor_interval: SimDuration,
    /// Max concurrent replication transfers a single datanode may source
    /// or sink (`dfs.max-repl-streams` analogue).
    pub max_repl_streams_per_node: u8,
    /// Max replication orders issued per monitor tick (work limiter).
    pub max_repl_orders_per_tick: usize,
    /// Disk capacity HDFS may use on each worker node.
    pub datanode_capacity: u64,
    /// Period of the zombie-fix working-directory self-check (§IV-D.1:
    /// "we add the disk availability check in service code and do the
    /// check every 3 minutes"). `None` reproduces the *first iteration* of
    /// HOG, where zombie datanodes linger.
    pub disk_check_interval: Option<SimDuration>,
    /// Trua-style per-block replication targets. `None` (the default)
    /// keeps the flat factor and is bit-identical to the pre-policy
    /// namenode. When armed, the replication monitor also dispatches
    /// fairly: it rotates its order across ticks so a standing stream
    /// of critical (1-replica) blocks cannot starve higher buckets when
    /// the per-tick order budget runs out. Adaptive targets widen the
    /// bucket spread, which makes that starvation much more likely.
    pub availability: Option<AvailabilityPolicy>,
}

impl HdfsConfig {
    /// HOG settings: replication 10, 30 s failure detection, 3-minute
    /// zombie self-check.
    pub fn hog() -> Self {
        HdfsConfig {
            block_size: 64 * MIB,
            replication: 10,
            heartbeat_interval: SimDuration::from_secs(3),
            dead_node_timeout: SimDuration::from_secs(30),
            replication_monitor_interval: SimDuration::from_secs(3),
            max_repl_streams_per_node: 2,
            max_repl_orders_per_tick: 64,
            datanode_capacity: 40 * GIB,
            disk_check_interval: Some(SimDuration::from_secs(180)),
            availability: None,
        }
    }

    /// Stock Hadoop 0.20 settings as used on the dedicated cluster:
    /// replication 3, ~10 minute dead-node detection.
    pub fn stock() -> Self {
        HdfsConfig {
            block_size: 64 * MIB,
            replication: 3,
            heartbeat_interval: SimDuration::from_secs(3),
            dead_node_timeout: SimDuration::from_secs(630),
            replication_monitor_interval: SimDuration::from_secs(3),
            max_repl_streams_per_node: 2,
            max_repl_orders_per_tick: 64,
            datanode_capacity: 400 * GIB,
            disk_check_interval: None,
            availability: None,
        }
    }

    /// Override the replication factor (ablation X2 sweeps this 3..12).
    pub fn with_replication(mut self, r: u16) -> Self {
        self.replication = r;
        self
    }

    /// Override the dead-node timeout (ablation X1).
    pub fn with_dead_timeout(mut self, t: SimDuration) -> Self {
        self.dead_node_timeout = t;
        self
    }

    /// Override per-datanode capacity (disk-overflow experiment X4).
    pub fn with_capacity(mut self, c: u64) -> Self {
        self.datanode_capacity = c;
        self
    }

    /// Arm the Trua-style per-block availability policy, and with it
    /// fair replication dispatch.
    pub fn with_availability(mut self, p: AvailabilityPolicy) -> Self {
        self.availability = Some(p);
        self
    }

    /// Whether the replication monitor rotates its dispatch order across
    /// ticks (see [`HdfsConfig::availability`]). Derived: fair dispatch
    /// runs exactly when the availability policy is armed, so the
    /// legacy lowest-bucket-first order stays bit-for-bit otherwise.
    pub fn fair_dispatch(&self) -> bool {
        self.availability.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let hog = HdfsConfig::hog();
        assert_eq!(hog.replication, 10);
        assert_eq!(hog.dead_node_timeout, SimDuration::from_secs(30));
        assert_eq!(hog.block_size, 64 * MIB);
        assert!(hog.disk_check_interval.is_some());
        let stock = HdfsConfig::stock();
        assert_eq!(stock.replication, 3);
        assert!(stock.dead_node_timeout >= SimDuration::from_secs(600));
        assert!(stock.disk_check_interval.is_none());
    }

    #[test]
    fn builders_override() {
        let c = HdfsConfig::hog()
            .with_replication(5)
            .with_dead_timeout(SimDuration::from_secs(60))
            .with_capacity(GIB);
        assert_eq!(c.replication, 5);
        assert_eq!(c.dead_node_timeout, SimDuration::from_secs(60));
        assert_eq!(c.datanode_capacity, GIB);
    }

    #[test]
    fn availability_defaults_off_and_builder_arms_fairness() {
        assert!(HdfsConfig::hog().availability.is_none());
        assert!(!HdfsConfig::hog().fair_dispatch());
        assert!(HdfsConfig::stock().availability.is_none());
        assert!(!HdfsConfig::stock().fair_dispatch());
        let c = HdfsConfig::hog().with_availability(AvailabilityPolicy::trua_default());
        assert!(c.availability.is_some());
        assert!(c.fair_dispatch());
    }
}
