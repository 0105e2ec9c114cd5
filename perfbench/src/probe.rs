//! Outside-in per-layer attribution.
//!
//! [`Probe`] wraps a [`Cluster`] in its own [`Model`] that forwards every
//! call unchanged, so the engine pops, batches and dispatches exactly as it
//! would for the bare cluster. Around each `handle` / `handle_batch` call it
//! reads the host clock, keyed by [`Event`] kind, and it samples the layers'
//! public accessors (JobTracker backlog, namenode under-replication) where a
//! per-dispatch reading is needed. Everything between two dispatches — queue
//! pop, batch assembly, the probe's own bookkeeping — accrues to
//! [`Profile::outside_ns`].

use hog_core::event::Event;
use hog_core::Cluster;
use hog_sim_core::engine::{Model, Scheduler};
use std::collections::VecDeque;
use std::time::Instant;

/// Event kinds the profile keys on, one per [`Event`] variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Event::Grid`.
    Grid,
    /// `Event::NetTick`.
    NetTick,
    /// `Event::MasterTick`.
    MasterTick,
    /// `Event::Heartbeat`, dispatched singly or in a batch.
    Heartbeat,
    /// `Event::DiskCheck`.
    DiskCheck,
    /// `Event::MapInputReady`.
    MapInputReady,
    /// `Event::MapComputeDone`.
    MapComputeDone,
    /// `Event::MapSpillDone`.
    MapSpillDone,
    /// `Event::ReduceSortDone`.
    ReduceSortDone,
    /// `Event::FetchTimeout`.
    FetchTimeout,
    /// `Event::AttemptDoomed`.
    AttemptDoomed,
    /// `Event::SubmitJob`.
    SubmitJob,
    /// `Event::PumpUpload`.
    PumpUpload,
    /// `Event::ResizePool`.
    ResizePool,
    /// `Event::BalancerTick`.
    BalancerTick,
    /// `Event::Chaos`.
    Chaos,
    /// `Event::ChaosEnd`.
    ChaosEnd,
    /// `Event::MasterPromote`.
    MasterPromote,
}

impl Kind {
    /// Every kind, in index order.
    pub const ALL: [Kind; 18] = [
        Kind::Grid,
        Kind::NetTick,
        Kind::MasterTick,
        Kind::Heartbeat,
        Kind::DiskCheck,
        Kind::MapInputReady,
        Kind::MapComputeDone,
        Kind::MapSpillDone,
        Kind::ReduceSortDone,
        Kind::FetchTimeout,
        Kind::AttemptDoomed,
        Kind::SubmitJob,
        Kind::PumpUpload,
        Kind::ResizePool,
        Kind::BalancerTick,
        Kind::Chaos,
        Kind::ChaosEnd,
        Kind::MasterPromote,
    ];

    /// The kind of `event`. The match is exhaustive, so a new event
    /// variant does not compile until the profile knows where to put it.
    pub fn of(event: &Event) -> Kind {
        match event {
            Event::Grid(_) => Kind::Grid,
            Event::NetTick => Kind::NetTick,
            Event::MasterTick => Kind::MasterTick,
            Event::Heartbeat { .. } => Kind::Heartbeat,
            Event::DiskCheck { .. } => Kind::DiskCheck,
            Event::MapInputReady { .. } => Kind::MapInputReady,
            Event::MapComputeDone { .. } => Kind::MapComputeDone,
            Event::MapSpillDone { .. } => Kind::MapSpillDone,
            Event::ReduceSortDone { .. } => Kind::ReduceSortDone,
            Event::FetchTimeout { .. } => Kind::FetchTimeout,
            Event::AttemptDoomed { .. } => Kind::AttemptDoomed,
            Event::SubmitJob { .. } => Kind::SubmitJob,
            Event::PumpUpload => Kind::PumpUpload,
            Event::ResizePool { .. } => Kind::ResizePool,
            Event::BalancerTick => Kind::BalancerTick,
            Event::Chaos { .. } => Kind::Chaos,
            Event::ChaosEnd { .. } => Kind::ChaosEnd,
            Event::MasterPromote => Kind::MasterPromote,
        }
    }

    /// Index into [`Profile::kinds`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Events handled and host time spent in their handlers, for one kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindStat {
    /// Events of this kind handled.
    pub events: u64,
    /// Host nanoseconds inside `Model::handle` / `handle_batch` for them.
    pub ns: u64,
}

/// What one traced run measured.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Per-kind counts and handler time, indexed by [`Kind::index`].
    pub kinds: [KindStat; Kind::ALL.len()],
    /// Host nanoseconds between dispatches: engine queue pop, batch
    /// assembly and the probe's own bookkeeping.
    pub outside_ns: u64,
    /// `handle_batch` calls (multi-heartbeat dispatch rounds).
    pub hb_batches: u64,
    /// Heartbeats inside those batches.
    pub hb_batched: u64,
    /// Heartbeats dispatched while the JobTracker had no pending task.
    pub hb_idle: u64,
    /// Largest under-replicated block count seen after a `MasterTick`.
    pub under_repl_peak: usize,
    mark: Instant,
}

impl Profile {
    fn new() -> Self {
        Profile {
            kinds: [KindStat::default(); Kind::ALL.len()],
            outside_ns: 0,
            hb_batches: 0,
            hb_batched: 0,
            hb_idle: 0,
            under_repl_peak: 0,
            mark: Instant::now(),
        }
    }

    /// The counts and time of `kind`.
    pub fn kind(&self, kind: Kind) -> KindStat {
        self.kinds[kind.index()]
    }

    /// Host nanoseconds inside handlers of every kind.
    pub fn handler_ns(&self) -> u64 {
        self.kinds.iter().map(|k| k.ns).sum()
    }

    /// Events handled over every kind.
    pub fn events(&self) -> u64 {
        self.kinds.iter().map(|k| k.events).sum()
    }

    /// The deterministic counts of the profile: events per kind, heartbeat
    /// batches, batched and idle heartbeats, and the repair backlog peak.
    /// Equal in every replay of the same code and seed.
    pub fn counts(&self) -> ([u64; Kind::ALL.len()], [u64; 4]) {
        (
            self.kinds.map(|k| k.events),
            [
                self.hb_batches,
                self.hb_batched,
                self.hb_idle,
                self.under_repl_peak as u64,
            ],
        )
    }
}

/// A [`Cluster`] behind a timing [`Model`] wrapper.
pub struct Probe {
    /// The wrapped model; every call is forwarded to it unchanged.
    pub cluster: Cluster,
    /// The measurements so far.
    pub profile: Profile,
}

impl Probe {
    /// Wrap `cluster`.
    pub fn new(cluster: Cluster) -> Self {
        Probe {
            cluster,
            profile: Profile::new(),
        }
    }

    /// Restart the between-dispatch clock; call right before
    /// `Simulation::run` so the run's first queue pop counts as outside.
    pub fn start(&mut self) {
        self.profile.mark = Instant::now();
    }

    /// Close the run: the time since the last dispatch counts as outside.
    pub fn stop(&mut self) {
        self.profile.outside_ns += self.profile.mark.elapsed().as_nanos() as u64;
    }

    fn pending_tasks(&self) -> usize {
        let b = self.cluster.jobtracker().backlog();
        b.pending_maps + b.pending_reduces
    }

    /// Book `events` dispatched in `[t0, t1)` under `kind`.
    fn book(&mut self, kind: Kind, events: u64, t0: Instant, t1: Instant) {
        let p = &mut self.profile;
        p.outside_ns += t0.duration_since(p.mark).as_nanos() as u64;
        let k = &mut p.kinds[kind.index()];
        k.events += events;
        k.ns += t1.duration_since(t0).as_nanos() as u64;
        p.mark = t1;
    }
}

impl Model for Probe {
    type Event = Event;

    fn handle(&mut self, event: Event, sched: &mut Scheduler<'_, Event>) {
        let kind = Kind::of(&event);
        if kind == Kind::Heartbeat && self.pending_tasks() == 0 {
            self.profile.hb_idle += 1;
        }
        let t0 = Instant::now();
        self.cluster.handle(event, sched);
        let t1 = Instant::now();
        if kind == Kind::MasterTick {
            let backlog = self.cluster.namenode().under_replicated_count();
            self.profile.under_repl_peak = self.profile.under_repl_peak.max(backlog);
        }
        self.book(kind, 1, t0, t1);
    }

    fn finished(&self) -> bool {
        self.cluster.finished()
    }

    fn batchable(&self, event: &Event) -> bool {
        self.cluster.batchable(event)
    }

    fn handle_batch(&mut self, events: &mut VecDeque<Event>, sched: &mut Scheduler<'_, Event>) {
        let kind = events.front().map_or(Kind::Heartbeat, Kind::of);
        let idle = self.pending_tasks() == 0;
        let before = events.len() as u64;
        let t0 = Instant::now();
        self.cluster.handle_batch(events, sched);
        let t1 = Instant::now();
        let handled = before - events.len() as u64;
        let p = &mut self.profile;
        p.hb_batches += 1;
        p.hb_batched += handled;
        if idle {
            p.hb_idle += handled;
        }
        self.book(kind, handled, t0, t1);
    }
}
