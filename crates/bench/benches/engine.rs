//! Criterion comparison of the event engine against the dense
//! reference engine on four synthetic programs that straddle what the
//! event engine is for. Results are bit-identical either way (see
//! `crates/accel/tests/engines.rs` for the equivalence proof).
//!
//! * `serial_chain`: one task at a time with 600-cycle spawn/host
//!   latencies, so the machine sits quiescent most of the time and the
//!   next-event jump skips straight to the next due event.
//! * `spmv_chain`: one task at a time streaming a long row through a
//!   slow DRAM, so the resident head spends most cycles provably
//!   blocked and is bulk-advanced in closed form.
//! * `narrow_waves`: 3-wide waves on 16 tiles keep a few tiles busy at
//!   all times, which suppresses the whole-machine jump — only
//!   per-component deferral avoids ticking the idle majority.
//! * `gemm_grid`: waves as wide as the machine keep every head firing
//!   each cycle — the worst case, which measures the event engine's
//!   `next_event` bookkeeping on a run with nothing to skip.

use criterion::{criterion_group, criterion_main, Criterion};
use taskstream_model::{
    CompletedTask, MemoryImage, Program, Spawner, TaskInstance, TaskKernel, TaskType, TaskTypeId,
};
use ts_delta::{Accelerator, DeltaConfig, DeltaConfigBuilder, Engine};
use ts_dfg::DfgBuilder;
use ts_stream::StreamDesc;

/// `waves` waves of `width` reduction tasks, each streaming the first
/// `len` words of DRAM; each completed wave spawns the next. A width
/// of 1 is a strictly serial chain.
struct Waves {
    width: usize,
    waves: usize,
    len: u64,
    outstanding: usize,
}

impl Waves {
    fn new(width: usize, waves: usize, len: u64) -> Self {
        Waves {
            width,
            waves,
            len,
            outstanding: 0,
        }
    }

    fn spawn_wave(&mut self, s: &mut Spawner) {
        self.waves -= 1;
        self.outstanding = self.width;
        for i in 0..self.width {
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_stream(StreamDesc::dram(0, self.len))
                    .output_discard()
                    .affinity(i as u64),
            );
        }
    }
}

impl Program for Waves {
    fn name(&self) -> &str {
        "waves"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("reduce");
        let x = b.input();
        let s = b.acc(x);
        b.output_on_last(s);
        vec![TaskType::new(
            "reduce",
            TaskKernel::dfg(b.finish().unwrap()),
        )]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, (1..=self.len as i64).collect::<Vec<_>>())
    }

    fn initial(&mut self, s: &mut Spawner) {
        self.spawn_wave(s);
    }

    fn on_complete(&mut self, _done: &CompletedTask, s: &mut Spawner) {
        self.outstanding -= 1;
        if self.outstanding == 0 && self.waves > 0 {
            self.spawn_wave(s);
        }
    }
}

/// One benchmark program: a machine shape and the program run on it.
struct Case {
    name: &'static str,
    cfg: fn() -> DeltaConfigBuilder,
    program: fn() -> Waves,
}

const CASES: [Case; 4] = [
    Case {
        name: "serial_chain",
        cfg: || DeltaConfig::builder(4).spawn_latency(600).host_latency(600),
        program: || Waves::new(1, 40, 64),
    },
    Case {
        name: "spmv_chain",
        cfg: || {
            DeltaConfig::builder(4)
                .dram_latency(80)
                .spawn_latency(60)
                .host_latency(60)
        },
        program: || Waves::new(1, 40, 128),
    },
    Case {
        name: "narrow_waves",
        cfg: || DeltaConfig::builder(16).spawn_latency(60).host_latency(60),
        program: || Waves::new(3, 30, 64),
    },
    Case {
        name: "gemm_grid",
        cfg: || DeltaConfig::builder(16).spawn_latency(40).host_latency(40),
        program: || Waves::new(16, 12, 256),
    },
];

fn event_vs_dense(c: &mut Criterion) {
    for case in &CASES {
        for (engine, tag) in [(Engine::Event, "event"), (Engine::Dense, "dense")] {
            c.bench_function(&format!("{}_{tag}", case.name), |bench| {
                bench.iter(|| {
                    let cfg = (case.cfg)().engine(engine).build();
                    Accelerator::new(cfg)
                        .run(&mut (case.program)())
                        .unwrap()
                        .cycles
                })
            });
        }
    }
}

criterion_group!(
    name = engine;
    config = Criterion::default().sample_size(20);
    targets = event_vs_dense
);
criterion_main!(engine);
