//! Structured event tracing for the Delta simulator.
//!
//! A [`TraceSink`] is a zero-cost-when-disabled ring buffer of typed,
//! cycle-stamped [`TraceEvent`]s. The accelerator threads one sink
//! through its hot paths; with `DeltaConfig::trace == false` every
//! [`TraceSink::emit`] call is a single branch on a bool and no event
//! is ever allocated, so traced and untraced runs produce bit-identical
//! reports and goldens.
//!
//! The event stream is part of the simulator's equivalence contract:
//! the event and dense engines (`DeltaConfig::engine`) are proven
//! timing-equivalent, and the trace they record must be identical too.
//! Two rules keep that true:
//!
//! 1. *Semantic* events (task lifecycle, steals, pipe resolution,
//!    multicast windows) are emitted only from code paths that execute
//!    identically under both engines — i.e. alongside an actual state
//!    change, never from a "polled and found nothing" path that the
//!    event engine would skip.
//! 2. *Sampled* events (queue depths, NoC link occupancy) fire only on
//!    cycles that are a multiple of the report timeline stride, and the
//!    event engine's next-event jump backfills those sample points from
//!    the frozen component state exactly as it backfills the
//!    utilization timeline.

use std::collections::VecDeque;

/// One typed simulator event. All payloads are plain scalars so that
/// recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A task instance was absorbed from the spawner and validated.
    TaskSpawn {
        /// Task id assigned at spawn.
        task: u64,
        /// Index of the task's type in the program's type table.
        ty: usize,
        /// Task whose completion handler spawned this one; `None` for
        /// tasks spawned by `Program::initial`/`on_quiescent`. This is
        /// the spawn edge of the task dependence DAG.
        parent: Option<u64>,
    },
    /// A spawned task was registered as one endpoint of a declared
    /// pipe. Together with [`TraceEvent::TaskSpawn::parent`] these
    /// bindings make the task dependence DAG reconstructible from the
    /// stream alone: each pipe's producer/consumer pair is a
    /// producer→consumer edge.
    PipeBind {
        /// Pipe id.
        pipe: u64,
        /// Task bound to the pipe.
        task: u64,
        /// `true` when the task is the pipe's producer, `false` for
        /// its consumer.
        producer: bool,
    },
    /// Tenant ownership of a spawned task, emitted right after
    /// [`TraceEvent::TaskSpawn`] when multi-tenancy is active (see
    /// [`crate::tenancy`]); absent from single-tenant traces.
    TaskTenant {
        /// Task id.
        task: u64,
        /// Owning tenant index.
        tenant: u64,
    },
    /// A spawned task finished its admission latency and became
    /// eligible for dispatch.
    TaskReady {
        /// Task id.
        task: u64,
    },
    /// The dispatcher placed a task on a tile's queue.
    TaskDispatch {
        /// Task id.
        task: u64,
        /// Destination tile.
        tile: usize,
    },
    /// A task made its first compute progress on its tile (its CGRA
    /// configuration fired or its native function advanced).
    TaskFire {
        /// Task id.
        task: u64,
        /// Tile executing the task.
        tile: usize,
    },
    /// A task retired: outputs drained and completion signalled.
    TaskComplete {
        /// Task id.
        task: u64,
        /// Tile the task ran on.
        tile: usize,
    },
    /// Per-task stall attribution, emitted alongside
    /// [`TraceEvent::TaskComplete`]: how many of the task's
    /// head-of-queue cycles made no compute progress, split by cause.
    /// The causal profiler uses the split to answer "what if memory
    /// were faster" separately from "what if the kernel were faster".
    TaskStalls {
        /// Task id.
        task: u64,
        /// Head cycles blocked waiting on input data (an exhausted
        /// input port — DRAM, NoC, or an upstream pipe).
        input: u64,
        /// Head cycles blocked on anything else (output backpressure,
        /// engine budget, pipe resolution).
        other: u64,
    },
    /// A work-stealing attempt was made against a loaded victim
    /// (recorded whether or not a task actually moved).
    StealAttempt {
        /// Idle tile trying to steal.
        thief: usize,
        /// Most-loaded tile selected as victim.
        victim: usize,
    },
    /// A work-stealing attempt landed: a queued task moved tiles.
    Steal {
        /// Task id that moved.
        task: u64,
        /// Tile that received the task.
        thief: usize,
        /// Tile that gave the task up.
        victim: usize,
    },
    /// An inter-task pipe resolved to direct tile-to-tile forwarding.
    PipeDirect {
        /// Pipe id.
        pipe: u64,
        /// Mesh node of the consuming tile.
        consumer_node: usize,
    },
    /// An inter-task pipe resolved to a DRAM spill buffer.
    PipeSpill {
        /// Pipe id.
        pipe: u64,
        /// Base address of the spill allocation.
        base: u64,
    },
    /// A shared-region read opened a new multicast join window.
    McastOpen {
        /// DRAM job id serving the window.
        job: u64,
        /// Shared region being read.
        region: u64,
        /// Mesh node of the tile that opened the window.
        node: usize,
    },
    /// A tile joined an existing in-flight multicast window instead of
    /// issuing its own DRAM read.
    McastJoin {
        /// DRAM job id of the joined window.
        job: u64,
        /// Shared region being read.
        region: u64,
        /// Mesh node of the joining tile.
        node: usize,
    },
    /// Stride-sampled NoC link occupancy: depth of one router input
    /// queue. Emitted only when the depth is nonzero, so idle stretches
    /// (which the event engine skips) contribute no samples.
    NocLink {
        /// Mesh node owning the queue.
        node: usize,
        /// Router port index (see `ts_noc::Mesh::PORTS`).
        port: usize,
        /// Flits waiting in the queue this sample.
        depth: usize,
    },
    /// A fault schedule took a tile out of service (fail-stop). Emitted
    /// once, at the transition cycle, from the fault-injection step.
    FaultTileDown {
        /// Tile that went down.
        tile: usize,
        /// Cycle the tile comes back, `u64::MAX` for fail-stop.
        until: u64,
    },
    /// A NoC flit was dropped (or its payload corrupted and discarded)
    /// at ejection by the fault schedule.
    FaultFlitDropped {
        /// Mesh node where the flit was lost.
        node: usize,
    },
    /// Recovery pulled an in-flight task off a failed (or unresponsive)
    /// tile; it will be re-dispatched after backoff.
    TaskVictim {
        /// Task id.
        task: u64,
        /// Tile the task was pulled from.
        tile: usize,
    },
    /// Recovery re-placed a victimized task on a healthy tile.
    TaskRedispatch {
        /// Task id.
        task: u64,
        /// Tile the task was re-placed on.
        tile: usize,
    },
    /// Stride-sampled memory-subsystem queue depths.
    QueueDepth {
        /// Requests waiting in the memory controller's admission queue.
        admit: usize,
        /// Requests gated behind an in-flight multicast window.
        gated: usize,
        /// Responses queued behind NoC backpressure.
        backlog: usize,
        /// DRAM jobs not yet fully issued.
        dram_jobs: usize,
        /// DRAM words issued but still waiting out their latency.
        dram_inflight: usize,
    },
}

/// A [`TraceEvent`] stamped with the simulated cycle it occurred on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// The event payload.
    pub event: TraceEvent,
}

/// Default ring capacity: large enough that tiny/small experiments
/// never wrap, bounded so a runaway run cannot exhaust memory.
const DEFAULT_CAPACITY: usize = 1 << 20;

/// Ring-buffer recorder for [`TraceRecord`]s.
///
/// Disabled sinks reject events with a single branch and hold no
/// storage. When the ring fills, the oldest records are dropped (and
/// counted); because equivalent runs record identical streams, they
/// also drop identically.
#[derive(Debug)]
pub struct TraceSink {
    enabled: bool,
    capacity: usize,
    dropped: u64,
    events: VecDeque<TraceRecord>,
}

impl TraceSink {
    /// Creates a sink; a disabled sink never stores anything.
    pub fn new(enabled: bool) -> Self {
        TraceSink {
            enabled,
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
            events: VecDeque::new(),
        }
    }

    /// True when the sink records events. Callers with non-trivial
    /// sampling loops should check this before doing per-sample work.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event at `cycle`, evicting the oldest record if the
    /// ring is full. No-op when disabled.
    #[inline]
    pub fn emit(&mut self, cycle: u64, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceRecord { cycle, event });
    }

    /// Number of records evicted due to ring overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the sink, returning the recorded stream in emission
    /// order.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.events.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = TraceSink::new(false);
        s.emit(3, TraceEvent::TaskReady { task: 1 });
        assert!(!s.enabled());
        assert_eq!(s.dropped(), 0);
        assert!(s.into_records().is_empty());
    }

    #[test]
    fn enabled_sink_preserves_order() {
        let mut s = TraceSink::new(true);
        s.emit(
            1,
            TraceEvent::TaskSpawn {
                task: 0,
                ty: 2,
                parent: None,
            },
        );
        s.emit(5, TraceEvent::TaskReady { task: 0 });
        let recs = s.into_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].cycle, 1);
        assert_eq!(recs[1].event, TraceEvent::TaskReady { task: 0 });
    }

    #[test]
    fn ring_drops_oldest() {
        let mut s = TraceSink::new(true);
        s.capacity = 2;
        for t in 0..4u64 {
            s.emit(t, TraceEvent::TaskReady { task: t });
        }
        assert_eq!(s.dropped(), 2);
        let recs = s.into_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].cycle, 2);
        assert_eq!(recs[1].cycle, 3);
    }
}
