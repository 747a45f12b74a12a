//! Criterion microbenchmarks of the simulator's hot substrates: the
//! DFG interpreter, the CGRA mapper, the NoC, the DRAM timing model,
//! the DRAM → memory controller → mesh read path, and a full tiny
//! accelerator run.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use taskstream_model::{
    CompletedTask, MemoryImage, Program, RegionId, Spawner, TaskInstance, TaskKernel, TaskType,
    TaskTypeId,
};
use ts_cgra::{Fabric, FabricConfig};
use ts_delta::{Accelerator, DeltaConfig};
use ts_dfg::{interp, DfgBuilder};
use ts_mem::{Dram, DramConfig, JobKind};
use ts_noc::Mesh;
use ts_stream::StreamDesc;
use ts_workloads::{spmv::Spmv, Workload};

fn dfg_interpreter(c: &mut Criterion) {
    let mut b = DfgBuilder::new("mac");
    let x = b.input();
    let y = b.input();
    let last = b.input();
    let prod = b.mul(x, y);
    let acc = b.acc_gate(prod, last);
    b.output_when(acc, last);
    let g = b.finish().unwrap();
    let xs: Vec<i64> = (0..1024).collect();
    let ys: Vec<i64> = (0..1024).rev().collect();
    let flags: Vec<i64> = (0..1024).map(|i| i64::from(i % 16 == 15)).collect();
    c.bench_function("dfg_interp_1k_mac", |bench| {
        bench.iter(|| interp::execute(&g, &[], &[xs.clone(), ys.clone(), flags.clone()]).unwrap())
    });
}

fn cgra_mapper(c: &mut Criterion) {
    let mut b = DfgBuilder::new("chain");
    let x = b.input();
    let mut cur = x;
    for i in 0..12 {
        let k = b.constant(i);
        cur = if i % 3 == 0 {
            b.mul(cur, k)
        } else {
            b.add(cur, k)
        };
    }
    b.output(cur);
    let g = b.finish().unwrap();
    let fabric = Fabric::new(FabricConfig::default());
    c.bench_function("cgra_map_12op", |bench| {
        bench.iter(|| fabric.map(black_box(&g), 7).unwrap())
    });
}

fn noc_saturation(c: &mut Criterion) {
    c.bench_function("noc_4x3_1k_flits", |bench| {
        bench.iter(|| {
            let mut mesh: Mesh<u64> = Mesh::new(4, 3, 8);
            let mut sent = 0u64;
            let mut done = 0usize;
            while done < 1000 {
                while sent < 1000 && mesh.inject(0, &[11], sent).is_ok() {
                    sent += 1;
                }
                mesh.tick();
                while mesh.eject(11).is_some() {
                    done += 1;
                }
            }
            black_box(done)
        })
    });
}

fn dram_streaming(c: &mut Criterion) {
    c.bench_function("dram_stream_4k_words", |bench| {
        bench.iter(|| {
            let mut d = Dram::new(DramConfig {
                words: 8192,
                latency: 20,
                ..DramConfig::default()
            });
            d.submit(
                JobKind::Read {
                    words: 4096,
                    gather: false,
                },
                0,
            )
            .unwrap();
            let mut out = Vec::new();
            let mut now = 0;
            while !d.is_idle() {
                d.tick(now, &mut out);
                black_box(&out);
                out.clear();
                now += 1;
            }
            now
        })
    });
}

/// `width` tasks that each read the same `len`-word DRAM region as a
/// shared (multicast) input and fold it to one word: the DRAM serves
/// every word once and the memory controller stages the bursts as
/// multicast flits, so the DRAM → controller → mesh path does the work.
struct SharedStream {
    width: u64,
    len: u64,
}

impl Program for SharedStream {
    fn name(&self) -> &str {
        "shared_stream"
    }

    fn task_types(&self) -> Vec<TaskType> {
        let mut b = DfgBuilder::new("fold");
        let x = b.input();
        let s = b.acc(x);
        b.output_on_last(s);
        vec![TaskType::new("fold", TaskKernel::dfg(b.finish().unwrap()))]
    }

    fn memory_image(&self) -> MemoryImage {
        MemoryImage::new().dram_segment(0, (0..self.len as i64).collect::<Vec<_>>())
    }

    fn initial(&mut self, s: &mut Spawner) {
        for i in 0..self.width {
            s.spawn(
                TaskInstance::new(TaskTypeId(0))
                    .input_shared(StreamDesc::dram(0, self.len), RegionId(0))
                    .output_discard()
                    .affinity(i),
            );
        }
    }

    fn on_complete(&mut self, _done: &CompletedTask, _s: &mut Spawner) {}
}

fn memctrl_mesh_bursts(c: &mut Criterion) {
    c.bench_function("memctrl_mesh_multicast_8x4k", |bench| {
        bench.iter(|| {
            Accelerator::new(DeltaConfig::delta(8))
                .run(&mut SharedStream {
                    width: 8,
                    len: 4096,
                })
                .unwrap()
                .cycles
        })
    });
}

fn full_run(c: &mut Criterion) {
    c.bench_function("accel_spmv_tiny", |bench| {
        let wl = Spmv::tiny(3);
        bench.iter(|| {
            let mut p = wl.make_program();
            Accelerator::new(DeltaConfig::delta(4))
                .run(p.as_mut())
                .unwrap()
                .cycles
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = dfg_interpreter, cgra_mapper, noc_saturation, dram_streaming, memctrl_mesh_bursts,
        full_run
);
criterion_main!(micro);
