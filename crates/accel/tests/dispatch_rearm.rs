//! The dispatcher skips its window scan while nothing the scan reads
//! has changed since a scan that placed nothing. Each test here builds a
//! run where one event — a completion, a spawn, a fault transition — is
//! the only thing that makes a waiting task placeable, and checks that
//! the task dispatches on the very next scan. (A steal always shares its
//! cycle with a dispatch, so its re-arm is unit-tested on the run state
//! in `accelerator.rs`.) Debug builds additionally assert, on every
//! skipped scan, that no window candidate could have been placed.

use taskstream_model::{
    CompletedTask, MemoryImage, Policy, Program, Spawner, TaskInstance, TaskKernel, TaskType,
    TaskTypeId,
};
use ts_delta::{Accelerator, DeltaConfig, DeltaConfigBuilder, FaultsConfig, Features, TraceEvent};
use ts_dfg::DfgBuilder;
use ts_stream::StreamDesc;

/// Spawns `initial` up front; when the task with id `trigger` completes,
/// spawns `follow_up`. Every task folds `len` DRAM words to one.
struct Script {
    initial: Vec<(u64, u64)>,
    trigger: Option<u64>,
    follow_up: Vec<(u64, u64)>,
}

fn task((affinity, len): (u64, u64)) -> TaskInstance {
    TaskInstance::new(TaskTypeId(0))
        .input_stream(StreamDesc::dram(0, len))
        .output_discard()
        .affinity(affinity)
}

impl Program for Script {
    fn name(&self) -> &str {
        "script"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("fold");
        let x = b.input();
        let s = b.acc(x);
        b.output_on_last(s);
        vec![TaskType::new("fold", TaskKernel::dfg(b.finish().unwrap()))]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, (0..512i64).collect::<Vec<_>>())
    }

    fn initial(&mut self, s: &mut Spawner) {
        for &t in &self.initial {
            s.spawn(task(t));
        }
    }

    fn on_complete(&mut self, done: &CompletedTask, s: &mut Spawner) {
        if Some(done.id.0) == self.trigger {
            for &t in &self.follow_up {
                s.spawn(task(t));
            }
        }
    }
}

/// Owner-computes placement (the task's affinity names its tile), so a
/// full owner queue holds a task back even while other tiles idle.
fn owner_computes(tiles: usize) -> DeltaConfigBuilder {
    let mut features = Features::all();
    features.work_aware = false;
    DeltaConfig::builder(tiles)
        .features(features)
        .policy(Policy::StaticHash)
        .trace(true)
}

/// Runs the script and returns the trace's events with their cycles.
fn run(cfg: DeltaConfig, script: Script) -> Vec<(u64, TraceEvent)> {
    let report = Accelerator::new(cfg).run(&mut { script }).unwrap();
    assert_eq!(report.trace_dropped, 0);
    report.trace.iter().map(|r| (r.cycle, r.event)).collect()
}

fn dispatch_cycle(trace: &[(u64, TraceEvent)], id: u64) -> u64 {
    trace
        .iter()
        .find_map(|(c, e)| {
            matches!(e, TraceEvent::TaskDispatch { task, .. } if *task == id).then_some(*c)
        })
        .unwrap_or_else(|| panic!("task {id} never dispatched"))
}

#[test]
fn completion_rearms_the_scan() {
    // one tile with a one-deep queue: task 1 waits for task 0's slot
    let cfg = owner_computes(1).tile_queue(1).host_latency(200).build();
    let script = Script {
        initial: vec![(0, 64), (0, 8)],
        trigger: None,
        follow_up: vec![],
    };
    let trace = run(cfg, script);
    let done = trace
        .iter()
        .find_map(|(c, e)| matches!(e, TraceEvent::TaskComplete { task: 0, .. }).then_some(*c))
        .expect("task 0 completes");
    // completions land after the dispatch step, so the freed slot is
    // taken by the next cycle's scan
    assert_eq!(dispatch_cycle(&trace, 1), done + 1);
}

#[test]
fn spawn_rearms_the_scan() {
    // task 0 holds tile 0 and task 2 waits behind it; task 1 finishes
    // on tile 1 and its completion spawns task 3 for the idle tile 1
    // while the window still holds the unplaceable task 2
    let cfg = owner_computes(2).tile_queue(1).build();
    let script = Script {
        initial: vec![(0, 512), (1, 8), (0, 8)],
        trigger: Some(1),
        follow_up: vec![(1, 8)],
    };
    let trace = run(cfg, script);
    let ready = trace
        .iter()
        .find_map(|(c, e)| matches!(e, TraceEvent::TaskReady { task: 3 }).then_some(*c))
        .expect("task 3 admitted");
    assert!(
        ready < dispatch_cycle(&trace, 2),
        "task 2 must still be waiting when task 3 arrives"
    );
    assert_eq!(dispatch_cycle(&trace, 3), ready);
}

#[test]
fn fault_transition_rearms_the_scan() {
    // the only tile is stalled for the first 50 cycles of every
    // 200-cycle epoch; the task arrives mid-stall and must dispatch the
    // cycle the stall window closes
    let mut faults = FaultsConfig::none();
    faults.tile_stall_rate = 1.0;
    faults.tile_stall_cycles = 50;
    faults.tile_stall_epoch = 200;
    faults.recovery = true;
    let cfg = owner_computes(1).spawn_latency(12).faults(faults).build();
    let script = Script {
        initial: vec![(0, 8)],
        trigger: None,
        follow_up: vec![],
    };
    let trace = run(cfg, script);
    assert_eq!(dispatch_cycle(&trace, 0), 50);
}
