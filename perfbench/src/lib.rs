//! Host-time benchmark of the TaskStream/Delta simulator.
//!
//! Three closed-loop workloads (one caller, one pool worker, jobs back
//! to back), each built from `ts_workloads::suite`/`streams_suite` and
//! seeded from the benchmark's `--seed`:
//!
//! * `mem_bound` — memory-controller/DRAM/mesh-heavy kernels on a cold
//!   result cache, plus one chaos-fault pair that exercises the oracle;
//! * `task_bound` — dispatch- and tile-heavy kernels, uncached;
//! * `warm_cache` — the fault-free jobs of both, answered from a cache
//!   the set-up filled.
//!
//! The untraced run drives [`ts_bench::run_jobs`], the entry point
//! `repro sweep` uses, and gives the end-to-end metrics: CPU time,
//! scaled to a reference host speed (see `clock`). The traced run
//! replays each job through the public call of every layer
//! (`cache::key`/`load`/`store`, `Workload::make_program`/`validate`,
//! `Accelerator::run`, `RunReport::check_conservation`, the oracle)
//! inside spans (see `trace`) and gives the per-layer metrics.
//!
//! Every answer is checked: a panic, a wedged recovery-on run, or an
//! answer that differs from the reference (the cache fill's fresh
//! simulation on `warm_cache`, else the run's first pass) is a failure.

mod clock;
mod heap;
mod trace;

use std::collections::BTreeMap;
use std::fs;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clock::{Calibrator, Timing};

use taskstream_model::Program;
use ts_bench::experiments::derive_seed;
use ts_bench::{cache, profile, FaultOutcome, SweepJob};
use ts_delta::{oracle, Accelerator, DeltaConfig, FaultReport, FaultsConfig, RunError, SimProfile};
use ts_sim::stats::Report;
use ts_workloads::{streams_suite, suite, Scale, Workload};

use trace::Tracer;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// End-to-end metrics (untraced run) and their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cpu_s", "s"),
    ("sim_mcycles_per_s", "Mcycle/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("pass_ratio", "ratio"),
];

/// Per-layer metrics (traced run) and their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("workloads.program_s", "s"),
    ("workloads.validate_s", "s"),
    ("workloads.self_s", "s"),
    ("delta.run_s", "s"),
    ("delta.host_ns_per_cycle", "ns"),
    ("delta.conservation_s", "s"),
    ("delta.oracle_s", "s"),
    ("delta.self_s", "s"),
    ("delta.sim_cycles", "count"),
    ("delta.loop_cycles", "count"),
    ("delta.jump_cycles", "count"),
    ("delta.tile_ticks", "count"),
    ("delta.tile_bulk_cycles", "count"),
    ("delta.tile_skipped", "count"),
    ("delta.tile_next_event_calls", "count"),
    ("delta.tasks_dispatched", "count"),
    ("delta.tasks_redispatched", "count"),
    ("delta.wedged_jobs", "count"),
    ("mem.ticks", "count"),
    ("mem.skipped", "count"),
    ("mem.wakes", "count"),
    ("mem.dram_words", "count"),
    ("mem.dram_words_per_cycle", "word/cycle"),
    ("noc.ticks", "count"),
    ("noc.skipped", "count"),
    ("noc.flit_hops", "count"),
    ("noc.injected", "count"),
    ("noc.stall_cycles", "count"),
    ("cgra.map_hits", "count"),
    ("cgra.map_misses", "count"),
    ("cache.key_s", "s"),
    ("cache.load_s", "s"),
    ("cache.store_s", "s"),
    ("cache.self_s", "s"),
    ("cache.bytes_written", "byte"),
    ("cache.bytes_read", "byte"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
    ("cache.hit_ratio", "ratio"),
    ("harness.self_s", "s"),
    ("host.wall_s", "s"),
    ("host.cpu_s", "s"),
    ("host.speed", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Traced spans whose inclusive time is reported as `<name>_s`.
const TIMED_SPANS: &[&str] = &[
    "workloads.program",
    "workloads.validate",
    "delta.run",
    "delta.conservation",
    "delta.oracle",
    "cache.key",
    "cache.load",
    "cache.store",
];

/// Layers with spans; each gets a `<layer>.self_s` metric.
const SPAN_LAYERS: &[&str] = &["workloads", "delta", "cache", "harness"];

const MEM_BOUND: [&str; 6] = [
    "spmv",
    "dtree",
    "gemm",
    "hash_join",
    "sparse_chain",
    "query_plan",
];
const TASK_BOUND: [&str; 6] = [
    "kmeans",
    "tri_count",
    "bfs",
    "sssp",
    "reduce_tree",
    "merge_sort",
];
/// Input sets of mem_bound's kernels. One set of these is about as
/// much work as three of task_bound's, and varies less with the seed.
const MEM_BOUND_SETS: u64 = 1;
/// Input sets of task_bound's kernels. Their work moves with the seed
/// (simulated cycles of one set by about a tenth), so a pass sums over
/// several to keep its work steady from one run seed to the next.
const TASK_BOUND_SETS: u64 = 3;
/// Input construction is timed this many times; `setup_s` takes the
/// median.
const SETUP_REPEATS: usize = 9;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Memory-path-heavy kernels on a cold cache, plus a chaos-fault pair.
    MemBound,
    /// Dispatch- and tile-heavy kernels, uncached.
    TaskBound,
    /// The fault-free jobs of both, answered from a warm cache.
    WarmCache,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::MemBound, Kind::TaskBound, Kind::WarmCache];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::MemBound => "mem_bound",
            Kind::TaskBound => "task_bound",
            Kind::WarmCache => "warm_cache",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    fn cache_mode(self) -> CacheMode {
        match self {
            Kind::MemBound => CacheMode::Cold,
            Kind::TaskBound => CacheMode::Off,
            Kind::WarmCache => CacheMode::Warm,
        }
    }
}

/// How a benchmark uses the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Disabled: every job simulates.
    Off,
    /// Enabled on a fresh empty directory for every pass: every job
    /// misses, simulates and stores.
    Cold,
    /// Enabled on a directory the set-up filled: every job hits.
    Warm,
}

/// The named kernels of one seed's suites, in `names` order.
fn inputs(scale: Scale, seed: u64, names: &[&str]) -> Vec<Arc<dyn Workload>> {
    let mut all = suite(scale, seed);
    all.extend(streams_suite(scale, seed));
    names
        .iter()
        .map(|n| {
            let i = all
                .iter()
                .position(|w| w.name() == *n)
                .unwrap_or_else(|| panic!("no workload named {n} in the suites"));
            Arc::from(all.swap_remove(i))
        })
        .collect()
}

/// A preset with the job's derived RNG seed, as the experiments seed
/// theirs.
fn seeded(cfg: DeltaConfig, seed: u64, wl: &dyn Workload) -> DeltaConfig {
    cfg.to_builder().seed(derive_seed(seed, wl.name())).build()
}

/// `fig_faults`' chaos point: a quarter of the tiles fail-stop, stalls
/// at the same rate, DRAM retries at a quarter of it.
fn chaos(cfg: DeltaConfig, recovery: bool, scale: Scale) -> DeltaConfig {
    let window = match scale {
        Scale::Tiny => 256,
        Scale::Small => 8192,
    };
    let faults = FaultsConfig {
        tile_fail_rate: 0.25,
        tile_fail_window: window,
        tile_stall_rate: 0.25,
        dram_retry_rate: 0.25 / 4.0,
        recovery,
        watchdog_timeout: 8_000,
        ..FaultsConfig::none()
    };
    cfg.to_builder().faults(faults).stall_limit(80_000).build()
}

/// Input-set seeds of a workload: `derive_seed(seed, "<workload>/<k>")`.
fn input_seeds(seed: u64, workload: &str, sets: u64) -> impl Iterator<Item = u64> + '_ {
    (0..sets).map(move |k| derive_seed(seed, &format!("{workload}/{k}")))
}

/// Every input set's kernels on every `(preset, static formulation)`.
fn grid(
    scale: Scale,
    seed: u64,
    workload: &str,
    sets: u64,
    names: &[&str],
    presets: &[(DeltaConfig, bool)],
) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for s in input_seeds(seed, workload, sets) {
        for wl in inputs(scale, s, names) {
            for (preset, baseline) in presets {
                let cfg = seeded(preset.clone(), s, wl.as_ref());
                jobs.push(SweepJob {
                    wl: wl.clone(),
                    cfg,
                    baseline: *baseline,
                    faulted: false,
                });
            }
        }
    }
    jobs
}

fn mem_bound_jobs(scale: Scale, seed: u64, with_faults: bool) -> Vec<SweepJob> {
    let presets = [
        (DeltaConfig::delta(8), false),
        (DeltaConfig::delta(16), false),
        (DeltaConfig::static_parallel(8), true),
    ];
    let mut jobs = grid(
        scale,
        seed,
        "mem_bound",
        MEM_BOUND_SETS,
        &MEM_BOUND,
        &presets,
    );
    if with_faults {
        // The chaos pair runs on the first input set's spmv.
        let spmv = jobs[0].wl.clone();
        let s = input_seeds(seed, "mem_bound", MEM_BOUND_SETS)
            .next()
            .expect("at least one input set");
        for (preset, recovery) in [
            (DeltaConfig::delta(8), true),
            (DeltaConfig::static_parallel(8), false),
        ] {
            let cfg = seeded(chaos(preset, recovery, scale), s, spmv.as_ref());
            jobs.push(SweepJob::faulted(spmv.clone(), cfg, !recovery));
        }
    }
    jobs
}

fn task_bound_jobs(scale: Scale, seed: u64) -> Vec<SweepJob> {
    let presets = [
        (DeltaConfig::delta(1), false),
        (DeltaConfig::delta(4), false),
        (DeltaConfig::delta(8), false),
        (DeltaConfig::static_parallel(8), true),
    ];
    grid(
        scale,
        seed,
        "task_bound",
        TASK_BOUND_SETS,
        &TASK_BOUND,
        &presets,
    )
}

/// The jobs reordered so that those of one program — one workload
/// instance (`Arc` identity) in one formulation — are adjacent,
/// programs in the order their first job appears, and each program's
/// range of jobs.
fn grouped(jobs: Vec<SweepJob>) -> (Vec<SweepJob>, Vec<Range<usize>>) {
    let mut groups: Vec<Vec<SweepJob>> = Vec::new();
    for j in jobs {
        let same =
            |g: &&mut Vec<SweepJob>| Arc::ptr_eq(&g[0].wl, &j.wl) && g[0].baseline == j.baseline;
        match groups.iter_mut().find(same) {
            Some(g) => g.push(j),
            None => groups.push(vec![j]),
        }
    }
    let mut ranges = Vec::with_capacity(groups.len());
    let mut at = 0;
    for g in &groups {
        ranges.push(at..at + g.len());
        at += g.len();
    }
    (groups.into_iter().flatten().collect(), ranges)
}

/// The job list of one workload.
fn jobs(kind: Kind, scale: Scale, seed: u64) -> Vec<SweepJob> {
    match kind {
        Kind::MemBound => mem_bound_jobs(scale, seed, true),
        Kind::TaskBound => task_bound_jobs(scale, seed),
        Kind::WarmCache => {
            let mut jobs = mem_bound_jobs(scale, seed, false);
            jobs.extend(task_bound_jobs(scale, seed));
            jobs
        }
    }
}

/// What a job answered, as compared between passes and against the
/// cache fill: everything a cached entry restores except the DRAM
/// image, which validation already read on the fresh run.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Completed {
        cycles: u64,
        tasks_completed: u64,
        stats: Report,
        faults: FaultReport,
        profile: Box<SimProfile>,
    },
    Wedged {
        cycles: u64,
    },
}

impl Answer {
    fn of(out: &FaultOutcome) -> Answer {
        match out {
            FaultOutcome::Completed(r) => Answer::Completed {
                cycles: r.cycles,
                tasks_completed: r.tasks_completed,
                stats: r.stats.clone(),
                faults: r.faults,
                profile: Box::new(r.profile),
            },
            FaultOutcome::Wedged { cycles } => Answer::Wedged { cycles: *cycles },
        }
    }

    fn cycles(&self) -> u64 {
        match self {
            Answer::Completed { cycles, .. } | Answer::Wedged { cycles } => *cycles,
        }
    }
}

/// A job's result within one pass: the outcome, or why it failed to
/// produce one (a panic message or a check's error).
type JobResult = Result<FaultOutcome, String>;

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

fn label(j: &SweepJob) -> String {
    let form = if j.baseline { "static" } else { "delta" };
    let faults = if j.faulted { " chaos" } else { "" };
    format!("{} {form}{faults} {} tiles", j.wl.name(), j.cfg.tiles)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of a job's cache entry on disk (the cache stores one
/// `<key>.json` file per key).
fn entry_bytes(key: &str) -> u64 {
    fs::metadata(cache::dir().join(format!("{key}.json"))).map_or(0, |m| m.len())
}

/// What one traced pass saw besides its spans.
#[derive(Default)]
struct PassIo {
    bytes_read: u64,
    bytes_written: u64,
    /// Cycles of the runs the pass simulated (cache hits excluded).
    simulated_cycles: u64,
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// No job failed.
    pub correct: bool,
    /// Job answers checked (every job of every pass, and of the cache
    /// fill).
    pub attempted: u64,
    /// Job answers that failed a check.
    pub failed: u64,
    /// Metric values by name, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The traced run's spans as JSON (traced runs only).
    pub spans: Option<String>,
}

impl Outcome {
    /// The unit a metric is reported in.
    pub fn unit(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    Outcome::unit(n)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One workload, set up and ready to measure.
pub struct Bench {
    jobs: Vec<SweepJob>,
    /// The jobs of each program: a range of `jobs`.
    groups: Vec<Range<usize>>,
    calibrator: Calibrator,
    cache: CacheMode,
    cache_root: PathBuf,
    fresh_dirs: usize,
    /// Per job: the answer every later one must equal.
    reference: Vec<Option<Answer>>,
    /// Each timed input construction.
    builds: Vec<Timing>,
    /// The warm cache's fill, scaled CPU seconds.
    fill_s: f64,
    attempted: u64,
    failed: u64,
}

impl Bench {
    /// Builds a workload's inputs (timed `SETUP_REPEATS` times) and
    /// sets the benchmark up on them. Cache directories live under
    /// `work_dir`.
    pub fn setup(kind: Kind, scale: Scale, seed: u64, work_dir: &Path) -> Bench {
        let mut calibrator = Calibrator::default();
        let mut builds = Vec::new();
        let mut built = Vec::new();
        for _ in 0..SETUP_REPEATS {
            let (j, t) = calibrator.time(|| jobs(kind, scale, seed));
            builds.push(t);
            built = j;
        }
        Bench::with(built, kind.cache_mode(), work_dir, calibrator, builds)
    }

    /// Sets the benchmark up on a given job list: one pool worker, the
    /// cache as `cache` says, and for [`CacheMode::Warm`] a timed fill
    /// whose fresh answers become the reference.
    pub fn new(jobs: Vec<SweepJob>, cache: CacheMode, work_dir: &Path) -> Bench {
        Bench::with(jobs, cache, work_dir, Calibrator::default(), Vec::new())
    }

    fn with(
        jobs: Vec<SweepJob>,
        cache: CacheMode,
        work_dir: &Path,
        calibrator: Calibrator,
        builds: Vec<Timing>,
    ) -> Bench {
        ts_pool::configure(1);
        cache::set_enabled(cache != CacheMode::Off);
        let (jobs, groups) = grouped(jobs);
        let mut bench = Bench {
            reference: vec![None; jobs.len()],
            groups,
            calibrator,
            jobs,
            cache,
            cache_root: work_dir.join(format!("cache-{}", std::process::id())),
            fresh_dirs: 0,
            builds,
            fill_s: 0.0,
            attempted: 0,
            failed: 0,
        };
        if cache != CacheMode::Off {
            // The key's code-version salt hashes the executable once per
            // process; pay it here, not in the first measured pass.
            if let Some(j) = bench.jobs.first() {
                cache::key(j.wl.as_ref(), &j.cfg, j.baseline, j.faulted);
            }
        }
        if cache == CacheMode::Warm {
            bench.fresh_cache();
            let (results, times) = bench.run_jobs();
            bench.fill_s = times.iter().map(|t| t.scaled_s).sum();
            bench.check(&results, true);
        }
        bench
    }

    /// The jobs every pass runs.
    pub fn jobs(&self) -> &[SweepJob] {
        &self.jobs
    }

    /// Points the cache at a new empty directory.
    fn fresh_cache(&mut self) {
        let _ = fs::remove_dir_all(&self.cache_root);
        self.fresh_dirs += 1;
        cache::set_dir(self.cache_root.join(self.fresh_dirs.to_string()));
    }

    /// Runs every job through `ts_bench::run_jobs`, one call per
    /// program, timed between calibration slices. The call memoizes
    /// the cache key's program fingerprint per program, so this is the
    /// work of one call on the whole list. A panic aborts a call, so on
    /// one the program's jobs are re-run one at a time to find which
    /// failed. Returns the results and each call's timing.
    fn run_jobs(&mut self) -> (Vec<JobResult>, Vec<Timing>) {
        let run = |jobs: &[SweepJob]| catch_unwind(AssertUnwindSafe(|| ts_bench::run_jobs(jobs)));
        let mut results = Vec::with_capacity(self.jobs.len());
        let mut times = Vec::with_capacity(self.groups.len());
        for g in self.groups.clone() {
            let (outs, t) = self.calibrator.time(|| run(&self.jobs[g.clone()]));
            times.push(t);
            match outs {
                Ok(outs) => results.extend(outs.into_iter().map(Ok)),
                Err(_) => {
                    if self.cache == CacheMode::Cold {
                        self.fresh_cache();
                    }
                    results.extend(self.jobs[g].iter().map(|j| {
                        match run(std::slice::from_ref(j)) {
                            Ok(mut outs) => Ok(outs.pop().expect("one job, one outcome")),
                            Err(p) => Err(panic_message(p)),
                        }
                    }));
                }
            }
        }
        (results, times)
    }

    /// One untraced pass: the results and each call's timing.
    fn pass(&mut self) -> (Vec<JobResult>, Vec<Timing>) {
        if self.cache == CacheMode::Cold {
            self.fresh_cache();
        }
        self.run_jobs()
    }

    /// One job through each layer's public call, in spans. Mirrors
    /// what `run_jobs` does for a job, except that the cache key is
    /// computed per job rather than memoized per program.
    fn traced_job(t: &mut Tracer, j: &SweepJob, io: &mut PassIo) -> JobResult {
        let wl = j.wl.as_ref();
        let make = || -> Box<dyn Program> {
            if j.baseline {
                wl.make_baseline_program()
            } else {
                wl.make_program()
            }
        };
        let key = cache::is_enabled().then(|| {
            t.span("cache.key", || {
                cache::key(wl, &j.cfg, j.baseline, j.faulted)
            })
        });
        if let Some(k) = &key {
            if let Some(out) = t.span("cache.load", || cache::load(k, j.faulted)) {
                io.bytes_read += entry_bytes(k);
                if let Some(r) = out.report() {
                    profile::record(&r.profile);
                }
                return Ok(out);
            }
        }
        let mut program = t.span("workloads.program", make);
        let run = t.span("delta.run", || {
            Accelerator::new(j.cfg.clone()).run(program.as_mut())
        });
        let out = match run {
            Ok(report) => {
                io.simulated_cycles += report.cycles;
                t.span("workloads.validate", || wl.validate(&report))
                    .map_err(|e| format!("wrong results: {e}"))?;
                t.span("delta.conservation", || {
                    report.check_conservation(j.cfg.tiles)
                })?;
                if j.faulted {
                    let mut fresh = t.span("workloads.program", make);
                    t.span("delta.oracle", || {
                        let truth = oracle::execute_untimed(fresh.as_mut())?;
                        oracle::check_equivalence(&report, &truth)
                    })
                    .map_err(|e| format!("oracle: {e}"))?;
                }
                profile::record(&report.profile);
                FaultOutcome::Completed(Box::new(report))
            }
            Err(RunError::Timeout { cycles, .. }) if j.faulted => {
                io.simulated_cycles += cycles;
                FaultOutcome::Wedged { cycles }
            }
            Err(e) => return Err(format!("run failed: {e}")),
        };
        if let Some(k) = &key {
            t.span("cache.store", || cache::store(k, &out));
            io.bytes_written += entry_bytes(k);
        }
        Ok(out)
    }

    /// One traced pass: its wall time, results and side counts.
    fn traced_pass(&mut self, t: &mut Tracer, pass: usize) -> (f64, Vec<JobResult>, PassIo) {
        if self.cache == CacheMode::Cold {
            self.fresh_cache();
        }
        let mut io = PassIo::default();
        let start = Instant::now();
        let mut results = Vec::with_capacity(self.jobs.len());
        for (i, j) in self.jobs.iter().enumerate() {
            t.set_context(pass, i);
            let depth = t.depth();
            t.open("harness.job");
            let r = catch_unwind(AssertUnwindSafe(|| Bench::traced_job(t, j, &mut io)));
            t.close_to(depth);
            results.push(r.unwrap_or_else(|p| Err(panic_message(p))));
        }
        (start.elapsed().as_secs_f64(), results, io)
    }

    /// Checks a pass's answers against the reference, counting each
    /// attempt and failure. With `learn`, an answer with no reference
    /// yet becomes the reference.
    fn check(&mut self, results: &[JobResult], learn: bool) {
        for (i, (j, r)) in self.jobs.iter().zip(results).enumerate() {
            self.attempted += 1;
            let verdict = r.as_ref().map_err(String::clone).and_then(|out| {
                let answer = Answer::of(out);
                if j.faulted && j.cfg.faults.recovery && matches!(answer, Answer::Wedged { .. }) {
                    return Err("recovery-on run wedged".to_string());
                }
                match &self.reference[i] {
                    Some(want) if *want != answer => Err(format!(
                        "answer differs from the reference ({} cycles, want {})",
                        answer.cycles(),
                        want.cycles()
                    )),
                    Some(_) => Ok(()),
                    None if !learn => {
                        Err("no fresh simulation to compare the answer with".to_string())
                    }
                    None => {
                        self.reference[i] = Some(answer);
                        Ok(())
                    }
                }
            });
            if let Err(e) = verdict {
                self.failed += 1;
                eprintln!("FAILED {}: {e}", label(j));
            }
        }
    }

    /// Simulated cycles of one pass over the job list.
    fn cycles_per_pass(&self) -> f64 {
        self.reference
            .iter()
            .flatten()
            .map(|a| a.cycles() as f64)
            .sum()
    }

    /// Measures passes until `seconds` have gone by. Untraced, this
    /// gives the end-to-end metrics; traced, it alternates traced and
    /// untraced passes (at least one of each) and gives the per-layer
    /// metrics.
    pub fn run(&mut self, seconds: Duration, traced: bool) -> Outcome {
        let start = Instant::now();
        let mut walls = Vec::new();
        // Per untraced pass, each program's timing.
        let mut timings: Vec<Vec<Timing>> = Vec::new();
        let mut traced_walls = Vec::new();
        let mut tracer = Tracer::default();
        let mut layer_times: Vec<BTreeMap<String, f64>> = Vec::new();
        let mut counts = BTreeMap::new();
        let mut peak_heap = 0;
        loop {
            if traced && traced_walls.len() <= walls.len() {
                let pass = traced_walls.len();
                let cache_before = cache::stats();
                let cgra_before = ts_cgra::cache::stats();
                let (wall, results, io) = self.traced_pass(&mut tracer, pass);
                let cache_after = cache::stats();
                let cgra_after = ts_cgra::cache::stats();
                traced_walls.push(wall);
                layer_times.push(layer_time_metrics(&tracer, pass, wall, &io));
                if pass == 0 {
                    counts = count_metrics(&results, &io);
                    let hits = (cache_after.hits - cache_before.hits) as f64;
                    let misses = (cache_after.misses - cache_before.misses) as f64;
                    counts.insert("cache.hits", hits);
                    counts.insert("cache.misses", misses);
                    counts.insert(
                        "cache.stores",
                        (cache_after.stores - cache_before.stores) as f64,
                    );
                    counts.insert("cache.hit_ratio", ratio(hits, hits + misses));
                    counts.insert("cgra.map_hits", (cgra_after.0 - cgra_before.0) as f64);
                    counts.insert("cgra.map_misses", (cgra_after.1 - cgra_before.1) as f64);
                }
                self.check(&results, self.cache != CacheMode::Warm);
            } else {
                let (results, times) = self.pass();
                // The calls' time, leaving out the calibration slices.
                let wall: f64 = times.iter().map(|t| t.wall_s).sum();
                let cpu: f64 = times.iter().map(|t| t.cpu_s).sum();
                let scaled: f64 = times.iter().map(|t| t.scaled_s).sum();
                eprintln!(
                    "pass {}: {scaled:.4} s scaled CPU, {cpu:.4} s CPU, {wall:.4} s wall",
                    walls.len()
                );
                walls.push(wall);
                timings.push(times);
                self.check(&results, self.cache != CacheMode::Warm);
                // Set-up plus one pass: the same work in every run,
                // however many passes the run length allows.
                if walls.len() == 1 {
                    peak_heap = heap::peak_bytes();
                }
            }
            let enough = start.elapsed() >= seconds;
            if enough && (!traced || (!walls.is_empty() && !traced_walls.is_empty())) {
                break;
            }
        }

        let wall = median(&walls);
        let metrics: Vec<(&'static str, f64)> = if traced {
            let traced_wall = median(&traced_walls);
            let time_of = |name: &str| {
                let values: Vec<f64> = layer_times
                    .iter()
                    .map(|m| m.get(name).copied().unwrap_or(0.0))
                    .collect();
                median(&values)
            };
            PER_LAYER
                .iter()
                .map(|&(name, _)| {
                    let v = match name {
                        "workloads.build_s" => {
                            median(&self.builds.iter().map(|t| t.cpu_s).collect::<Vec<_>>())
                        }
                        "trace.overhead_ratio" => ratio(traced_wall, wall) - 1.0,
                        "host.wall_s" => wall,
                        "host.cpu_s" => median(
                            &timings
                                .iter()
                                .map(|p| p.iter().map(|t| t.cpu_s).sum())
                                .collect::<Vec<_>>(),
                        ),
                        "host.speed" => self.calibrator.speed(),
                        "peak_rss_mb" => peak_rss_mb(),
                        _ => counts.get(name).copied().unwrap_or_else(|| time_of(name)),
                    };
                    (name, v)
                })
                .collect()
        } else {
            let attempted = self.attempted.max(1) as f64;
            // Each program's median over the passes, summed: a slow
            // moment of the host spoils one program of one pass, not
            // the whole pass.
            let cpu: f64 = (0..self.groups.len())
                .map(|g| median(&timings.iter().map(|p| p[g].scaled_s).collect::<Vec<_>>()))
                .sum();
            let build = median(&self.builds.iter().map(|t| t.scaled_s).collect::<Vec<_>>());
            vec![
                ("cpu_s", cpu),
                (
                    "sim_mcycles_per_s",
                    ratio(self.cycles_per_pass(), cpu) * 1e-6,
                ),
                ("setup_s", build + self.fill_s),
                ("peak_heap_mb", peak_heap as f64 / (1024.0 * 1024.0)),
                ("pass_ratio", 1.0 - self.failed as f64 / attempted),
            ]
        };
        Outcome {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            spans: traced.then(|| tracer.to_json()),
        }
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.cache_root);
    }
}

/// Time metrics of one traced pass: inclusive time per timed span,
/// self time per layer, host time per simulated cycle and coverage.
fn layer_time_metrics(t: &Tracer, pass: usize, wall: f64, io: &PassIo) -> BTreeMap<String, f64> {
    let (inclusive, own) = t.totals(pass);
    let mut m = BTreeMap::new();
    for name in TIMED_SPANS {
        m.insert(
            format!("{name}_s"),
            inclusive.get(name).copied().unwrap_or(0.0),
        );
    }
    for layer in SPAN_LAYERS {
        m.insert(
            format!("{layer}.self_s"),
            own.get(layer).copied().unwrap_or(0.0),
        );
    }
    let run_s = inclusive.get("delta.run").copied().unwrap_or(0.0);
    m.insert(
        "delta.host_ns_per_cycle".into(),
        ratio(run_s * 1e9, io.simulated_cycles as f64),
    );
    let layers: f64 = own
        .iter()
        .filter(|(l, _)| **l != "harness")
        .map(|(_, s)| s)
        .sum();
    m.insert("trace.coverage".into(), ratio(layers, wall));
    m
}

/// Deterministic counts of one pass, from the answers themselves (a
/// cached answer carries its original simulation's counters).
fn count_metrics(results: &[JobResult], io: &PassIo) -> BTreeMap<&'static str, f64> {
    let mut p = SimProfile::default();
    let (mut cycles, mut completed_cycles, mut wedged) = (0u64, 0u64, 0u64);
    let (mut dispatched, mut redispatched, mut dram_words) = (0.0, 0u64, 0.0);
    let (mut flit_hops, mut injected, mut stalls) = (0.0, 0.0, 0.0);
    for out in results.iter().flatten() {
        match out {
            FaultOutcome::Completed(r) => {
                cycles += r.cycles;
                completed_cycles += r.cycles;
                p.add(&r.profile);
                dispatched += r.stats.get_or_zero("dispatch.tasks_dispatched");
                redispatched += r.faults.tasks_redispatched;
                dram_words += r.dram_words();
                flit_hops += r.noc_hops();
                injected += r.stats.get_or_zero("noc.injected");
                stalls += r.stats.get_or_zero("noc.stall_cycles");
            }
            FaultOutcome::Wedged { cycles: c } => {
                cycles += c;
                wedged += 1;
            }
        }
    }
    BTreeMap::from([
        ("delta.sim_cycles", cycles as f64),
        ("delta.loop_cycles", p.loop_cycles as f64),
        ("delta.jump_cycles", p.jump_cycles as f64),
        ("delta.tile_ticks", p.tile_ticks as f64),
        ("delta.tile_bulk_cycles", p.tile_bulk_cycles as f64),
        ("delta.tile_skipped", p.tile_skipped as f64),
        (
            "delta.tile_next_event_calls",
            p.tile_next_event_calls as f64,
        ),
        ("delta.tasks_dispatched", dispatched),
        ("delta.tasks_redispatched", redispatched as f64),
        ("delta.wedged_jobs", wedged as f64),
        ("mem.ticks", p.mem_ticks as f64),
        ("mem.skipped", p.mem_skipped as f64),
        ("mem.wakes", p.mem_wakes as f64),
        ("mem.dram_words", dram_words),
        (
            "mem.dram_words_per_cycle",
            ratio(dram_words, completed_cycles as f64),
        ),
        ("noc.ticks", p.noc_ticks as f64),
        ("noc.skipped", p.noc_skipped as f64),
        ("noc.flit_hops", flit_hops),
        ("noc.injected", injected),
        ("noc.stall_cycles", stalls),
        ("cache.bytes_read", io.bytes_read as f64),
        ("cache.bytes_written", io.bytes_written as f64),
    ])
}
