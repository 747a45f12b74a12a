//! Differential tests of the two simulator engines: a run on the event
//! engine — which defers idle and blocked components, replays their
//! skipped stretches in closed form and jumps over quiescent windows —
//! must produce a bit-identical [`RunReport`] to the same run on the
//! dense reference engine, which ticks every component every cycle.
//! Every scenario below is one input to [`assert_engines_agree`], which
//! also checks that both engines attribute every cycle exactly once and
//! that the event engine's stretch histograms agree with its wake
//! counters.

use proptest::prelude::*;
use taskstream_model::{
    CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use ts_delta::{Accelerator, DeltaConfig, DeltaConfigBuilder, Engine, FaultsConfig, RunReport};
use ts_dfg::DfgBuilder;
use ts_mem::WriteMode;
use ts_stream::StreamDesc;

fn reduce_type(name: &str) -> TaskType {
    let mut b = DfgBuilder::new(name);
    let x = b.input();
    let s = b.acc(x);
    b.output_on_last(s);
    TaskType::new(name, TaskKernel::dfg(b.finish().unwrap()))
}

/// A strictly serial chain: each completion spawns the next task, so
/// at any instant at most one tile is live and every spawn/host latency
/// window leaves the whole machine quiescent.
struct SerialChain {
    remaining: usize,
}

impl SerialChain {
    fn spawn_link(&mut self, s: &mut Spawner) {
        self.remaining -= 1;
        s.spawn(
            TaskInstance::new(TaskTypeId(0))
                .input_stream(StreamDesc::dram(0, 64))
                .output_discard(),
        );
    }
}

impl Program for SerialChain {
    fn name(&self) -> &str {
        "serial-chain"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![reduce_type("link")]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, (1..=64i64).collect::<Vec<_>>())
    }

    fn initial(&mut self, s: &mut Spawner) {
        self.spawn_link(s);
    }

    fn on_complete(&mut self, done: &CompletedTask, s: &mut Spawner) {
        assert_eq!(done.outputs[0], vec![64 * 65 / 2]);
        if self.remaining > 0 {
            self.spawn_link(s);
        }
    }
}

/// Waves of parameterized width over a shared input stream (so the
/// dispatcher forms multicast groups), optionally writing each task's
/// reduction to a distinct DRAM word (exercising sink drains and the
/// write/ack path through controller and mesh under partial tile
/// occupancy). Each completed wave spawns the next from `on_complete`
/// of its last task.
struct Waves {
    widths: Vec<usize>,
    stream_len: usize,
    write_out: bool,
    wave: usize,
    outstanding: usize,
    spawned: u64,
}

impl Waves {
    fn new(widths: Vec<usize>, stream_len: usize, write_out: bool) -> Self {
        Waves {
            widths,
            stream_len,
            write_out,
            wave: 0,
            outstanding: 0,
            spawned: 0,
        }
    }

    /// Base of the per-task one-word output region (past the input
    /// image, far from anything the kernels read).
    const OUT_BASE: u64 = 4096;

    fn spawn_wave(&mut self, s: &mut Spawner) {
        let width = self.widths[self.wave];
        self.wave += 1;
        self.outstanding = width;
        for i in 0..width {
            let mut inst = TaskInstance::new(TaskTypeId(0))
                .input_stream(StreamDesc::dram(0, self.stream_len as u64))
                .affinity(i as u64);
            inst = if self.write_out {
                let addr = Self::OUT_BASE + self.spawned;
                inst.output_memory(StreamDesc::dram(addr, 1), WriteMode::Overwrite)
            } else {
                inst.output_discard()
            };
            self.spawned += 1;
            s.spawn(inst);
        }
    }
}

impl Program for Waves {
    fn name(&self) -> &str {
        "waves"
    }

    fn task_types(&self) -> Vec<TaskType> {
        vec![reduce_type("wave")]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, (1..=64i64).collect::<Vec<_>>())
    }

    fn initial(&mut self, s: &mut Spawner) {
        self.spawn_wave(s);
    }

    fn on_complete(&mut self, _done: &CompletedTask, s: &mut Spawner) {
        self.outstanding -= 1;
        if self.outstanding == 0 && self.wave < self.widths.len() {
            self.spawn_wave(s);
        }
    }
}

/// Every cycle is attributed exactly once: loop iterations plus jumped
/// cycles cover the run, and per component `ticks + skipped == cycles`
/// (tiles additionally fold in bulk-advanced blocked cycles and sum
/// over all tiles).
fn assert_cycles_attributed(r: &RunReport, tiles: u64, what: &str) {
    let p = &r.profile;
    assert_eq!(
        p.loop_cycles + p.jump_cycles,
        r.cycles,
        "{what}: loop + jump != cycles"
    );
    assert_eq!(
        p.tile_ticks + p.tile_skipped + p.tile_bulk_cycles,
        r.cycles * tiles,
        "{what}: tile cycle attribution leaked"
    );
    assert_eq!(
        p.mem_ticks + p.mem_skipped,
        r.cycles,
        "{what}: memctrl cycle attribution leaked"
    );
    assert_eq!(
        p.noc_ticks + p.noc_skipped,
        r.cycles,
        "{what}: mesh cycle attribution leaked"
    );
}

/// The stretch histograms count every replayed stretch: one per wake,
/// plus at most one per component settled when the run ends (a tile
/// each, one memory controller, one mesh). A component that skipped
/// any cycle therefore has a nonzero histogram.
fn assert_histograms_match_wakes(r: &RunReport, tiles: u64) {
    let p = &r.profile;
    for (name, hist, wakes, settled, skipped) in [
        (
            "tile",
            p.tile_stretch_hist,
            p.tile_wakes,
            tiles,
            p.tile_skipped + p.tile_bulk_cycles,
        ),
        ("mem", p.mem_stretch_hist, p.mem_wakes, 1, p.mem_skipped),
        ("noc", p.noc_stretch_hist, p.noc_wakes, 1, p.noc_skipped),
    ] {
        let total: u64 = hist.iter().sum();
        assert!(
            wakes <= total && total <= wakes + settled,
            "{name}: histogram total {total} outside [{wakes}, {wakes} + {settled}]"
        );
        assert!(
            skipped == 0 || total > 0,
            "{name}: {skipped} skipped cycles but an empty stretch histogram"
        );
    }
}

/// Runs the program on both engines and asserts every observable part
/// of the two reports matches bit-for-bit: cycles, task count,
/// timeline, stats, the DRAM input image and output region, the trace
/// stream and the fault report. Only the profile bookkeeping may
/// differ, and it must be self-consistent on both. Returns `(dense,
/// event)` so callers can check that the scenario really exercised
/// the event engine.
fn assert_engines_agree<P, F>(make: F, base: DeltaConfigBuilder) -> (RunReport, RunReport)
where
    P: Program,
    F: Fn() -> P,
{
    let run = |engine: Engine| {
        let cfg = base.clone().engine(engine).build();
        Accelerator::new(cfg).run(&mut make()).unwrap()
    };
    let dense = run(Engine::Dense);
    let event = run(Engine::Event);
    let tiles = base.clone().build().tiles as u64;

    assert_eq!(event.cycles, dense.cycles, "cycles diverged");
    assert_eq!(
        event.tasks_completed, dense.tasks_completed,
        "task count diverged"
    );
    assert_eq!(event.timeline, dense.timeline, "timeline diverged");
    assert_eq!(event.stats, dense.stats, "stats diverged");
    assert_eq!(
        event.dram_range(0, 64),
        dense.dram_range(0, 64),
        "DRAM input image diverged"
    );
    assert_eq!(
        event.dram_range(Waves::OUT_BASE, 64),
        dense.dram_range(Waves::OUT_BASE, 64),
        "DRAM output region diverged"
    );
    assert_eq!(event.trace, dense.trace, "trace stream diverged");
    assert_eq!(
        event.trace_dropped, dense.trace_dropped,
        "trace drop count diverged"
    );
    assert_eq!(event.faults, dense.faults, "fault report diverged");

    assert_cycles_attributed(&dense, tiles, "dense");
    assert_cycles_attributed(&event, tiles, "event");

    // The dense engine ticks everything and never jumps: all of its
    // work-avoidance bookkeeping stays at zero.
    let p = &dense.profile;
    assert_eq!(dense.skipped_cycles, 0);
    assert_eq!(p.loop_cycles, dense.cycles);
    assert_eq!(
        (
            p.tile_skipped,
            p.tile_bulk_cycles,
            p.mem_skipped,
            p.noc_skipped
        ),
        (0, 0, 0, 0)
    );
    assert_eq!((p.tile_wakes, p.mem_wakes, p.noc_wakes), (0, 0, 0));
    assert_eq!(p.tile_next_event_calls, 0);
    assert_histograms_match_wakes(&dense, tiles);

    assert!(
        event.profile.tile_next_event_calls > 0,
        "event engine never consulted a tile's next event"
    );
    assert_eq!(event.skipped_cycles, event.profile.jump_cycles);
    assert_histograms_match_wakes(&event, tiles);
    (dense, event)
}

#[test]
fn serial_chain_long_latencies_skip_and_defer() {
    // Long spawn/host latencies leave windows far wider than the
    // timeline stride, so sample backfill is exercised too.
    let base = DeltaConfig::builder(4).spawn_latency(700).host_latency(700);
    let (_, event) = assert_engines_agree(|| SerialChain { remaining: 6 }, base);
    assert!(
        event.skipped_cycles > 0,
        "never jumped; the test is vacuous"
    );
    assert!(event.profile.tile_skipped > 0, "never deferred a tile");
}

#[test]
fn serial_chain_default_latencies_still_skip_and_defer() {
    // Even the preset's 12-cycle latencies give quiescent windows.
    let base = DeltaConfig::delta(2).to_builder();
    let (_, event) = assert_engines_agree(|| SerialChain { remaining: 8 }, base);
    assert!(
        event.skipped_cycles > 0,
        "never jumped; the test is vacuous"
    );
    assert!(event.profile.tile_skipped > 0, "never deferred a tile");
}

#[test]
fn parallel_waves_jump_between_waves() {
    let base = DeltaConfig::builder(8).spawn_latency(400).host_latency(400);
    let (_, event) = assert_engines_agree(|| Waves::new(vec![6; 4], 32, false), base);
    assert!(
        event.skipped_cycles > 0,
        "never jumped; the test is vacuous"
    );
}

#[test]
fn partial_occupancy_defers_only_idle_tiles() {
    // Waves narrower than the machine: some tiles busy, some idle —
    // per-tile deferral engages even while the machine is busy.
    let base = DeltaConfig::builder(8).spawn_latency(200).host_latency(200);
    let (_, event) = assert_engines_agree(|| Waves::new(vec![3, 2, 3], 32, true), base);
    assert!(event.profile.tile_skipped > 0, "never deferred a tile");
}

#[test]
fn work_stealing_wakes_thieves_correctly() {
    let base = DeltaConfig::builder(4)
        .work_stealing(true)
        .spawn_latency(300)
        .host_latency(300);
    let (_, event) = assert_engines_agree(|| Waves::new(vec![5, 5, 5], 32, false), base);
    assert!(
        event.skipped_cycles > 0,
        "never jumped; the test is vacuous"
    );
    assert!(event.profile.tile_skipped > 0, "never deferred a tile");

    let base = DeltaConfig::builder(4)
        .work_stealing(true)
        .spawn_latency(250)
        .host_latency(250);
    assert_engines_agree(|| Waves::new(vec![6, 5, 6], 24, false), base);
}

#[test]
fn latency_bound_waves_bulk_advance_identically() {
    // Long memory latency leaves running heads input-blocked for long
    // known stretches: the bulk-advance regime must actually engage.
    let base = DeltaConfig::builder(4)
        .dram_latency(60)
        .spawn_latency(120)
        .host_latency(120);
    let (_, event) = assert_engines_agree(|| Waves::new(vec![3, 4, 2], 48, true), base);
    assert!(
        event.profile.tile_bulk_cycles > 0,
        "latency-bound run never bulk-advanced a blocked tile"
    );
}

#[test]
fn traced_run_is_bit_identical() {
    let base = DeltaConfig::builder(4)
        .trace(true)
        .spawn_latency(90)
        .host_latency(90);
    let (dense, _) = assert_engines_agree(|| Waves::new(vec![4, 3], 32, true), base);
    assert!(!dense.trace.is_empty(), "traced run recorded nothing");
}

/// Drain-boundary regression: a tiny output buffer forces sinks to
/// drain word by word through the NoC, so the "drain at a known rate"
/// regime crosses many ack boundaries per task.
#[test]
fn drain_boundary_regression() {
    let base = DeltaConfig::builder(2)
        .out_buf(2)
        .noc_queue(2)
        .spawn_latency(40)
        .host_latency(40);
    assert_engines_agree(|| Waves::new(vec![2, 2, 2, 2], 40, true), base);
}

/// Multicast-window regression: a one-cycle batching window splinters
/// shared reads into many small multicast groups, so group formation
/// and flit fan-out land on exact cycles the deferred tiles must
/// reproduce.
#[test]
fn multicast_window_regression() {
    let base = DeltaConfig::builder(4)
        .mcast_batch_window(1)
        .spawn_latency(30)
        .host_latency(30);
    assert_engines_agree(|| Waves::new(vec![4, 4, 4], 48, true), base);
}

#[test]
fn chaos_faults_with_recovery_stay_identical() {
    // Fault injection (fail-stops, stalls, flit drops, DRAM retries,
    // recovery on) must draw per-(seed, site, time) identically when
    // blocked tiles are deferred: watchdog strides and stall windows
    // clamp the jumps.
    let base = DeltaConfig::builder(4)
        .faults(FaultsConfig::chaos())
        .seed(7)
        .spawn_latency(80)
        .host_latency(80);
    assert_engines_agree(|| Waves::new(vec![4, 3, 4], 32, true), base);
}

#[test]
fn static_parallel_baseline_is_equivalent_too() {
    for (widths, latency) in [(vec![2, 4, 1], 150), (vec![3, 2, 3], 100)] {
        let base = DeltaConfig::static_parallel(4)
            .to_builder()
            .spawn_latency(latency)
            .host_latency(latency);
        assert_engines_agree(|| Waves::new(widths.clone(), 24, true), base);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(22))]

    /// Random wave programs × machine shapes × fault schedules: both
    /// engines must report identically, bit for bit.
    #[test]
    fn random_programs_report_identically_on_both_engines(
        widths in prop::collection::vec(1usize..5, 1..4),
        stream_len in 4usize..64,
        tiles in 1usize..6,
        latency in 1u64..260,
        dram_latency in 1u64..80,
        work_stealing in prop::bool::ANY,
        write_out in prop::bool::ANY,
        chaos in prop::bool::ANY,
        seed in 0u64..1000,
    ) {
        let mut base = DeltaConfig::builder(tiles)
            .spawn_latency(latency)
            .host_latency(latency)
            .dram_latency(dram_latency)
            .work_stealing(work_stealing)
            .seed(seed);
        if chaos {
            base = base.faults(FaultsConfig::chaos());
        }
        assert_engines_agree(|| Waves::new(widths.clone(), stream_len, write_out), base);
    }
}
