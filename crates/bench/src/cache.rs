//! Persistent content-addressed result cache for sweep simulations.
//!
//! A sweep re-runs the same (configuration × workload) simulations over
//! and over — across `--bless` / `--check-goldens` pairs, across CI
//! legs, across local iteration. Each simulation is a pure function of
//! its [`DeltaConfig`] and the [`Program`] the workload builds, so the
//! harness can memoize whole [`RunReport`]s on disk and answer repeat
//! runs in microseconds instead of seconds.
//!
//! **Key** = SHA-256 over a canonical description of everything the
//! result depends on:
//!
//! * the run mode (validated vs fault-injected) and program
//!   formulation (task-parallel vs static baseline);
//! * the workload's *content*: the `Debug` form of its task types and
//!   initial task graph plus the full initial memory image, hashed from
//!   a freshly built program. Two workloads produce the same hash iff
//!   they hand the accelerator the same program, so scale/seed/grain
//!   parameters are captured without per-workload code. The `Debug`
//!   forms stream into the hasher through its [`fmt::Write`] impl, so
//!   hashing a program builds no strings;
//! * the full `Debug` form of the [`DeltaConfig`] *after* the
//!   process-wide engine override is applied;
//! * a code-version salt: an FNV-1a hash of the running executable's
//!   bytes, so a rebuilt simulator never reads stale entries. Tests
//!   and benchmarking override it via `TS_CACHE_SALT` when they *want*
//!   cross-binary sharing or a forced miss.
//!
//! **Value** (entry format `"2"`) = what experiments read from a
//! [`RunReport`]: cycles, tasks completed, skipped cycles, stats,
//! timeline, profile and fault tallies, plus
//! [`RunReport::dram_digest`] in place of the final DRAM image (the
//! image was already validated on the fresh run, nothing reads it
//! afterwards, and it made up almost all of an entry's bytes). A
//! wedged fault run stores just its cycle count. Entries use the same
//! hand-rolled strings-only JSON the goldens use ([`crate::golden`]):
//! numbers travel as decimal strings and `f64`s as bit-pattern hex
//! (exact round-trip). Event traces are never cached: a traced run
//! bypasses the cache entirely.
//!
//! Nothing reads the stored digest yet: it is the value a future
//! `repro cache verify` compares a re-simulation against. Until then a
//! well-formed but wrong entry is served as it stands.
//!
//! The cache is **disabled by default** and switched on by the `repro`
//! CLI (`repro sweep`, unless `--no-cache`). Entries live under
//! `$TS_CACHE_DIR` (default `./.ts-cache`), one file per key, written
//! atomically (temp file + rename) so concurrent sweeps never observe
//! a torn entry. A corrupt or unreadable entry, or one of another
//! entry format, degrades to a miss.

use crate::golden::{json_str, Json, Parser};
use crate::FaultOutcome;
use std::fmt::{self, Write as _};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use taskstream_model::{Program, Spawner};
use ts_delta::{DeltaConfig, FaultReport, RunReport, SimProfile, STRETCH_BUCKETS};
use ts_workloads::Workload;

// ------------------------------------------------------------------ state

static ENABLED: AtomicBool = AtomicBool::new(false);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);

/// Explicit directory override (`repro --cache-dir` / tests); takes
/// precedence over `TS_CACHE_DIR` and the `./.ts-cache` default.
static DIR_OVERRIDE: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Enables or disables the cache for subsequent runs in this process.
/// Off by default: library users opt in, the `repro sweep` CLI enables
/// it unless `--no-cache`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the cache is consulted by the sweep runner.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Overrides the cache directory for this process.
pub fn set_dir(path: PathBuf) {
    *DIR_OVERRIDE.lock().expect("cache dir lock poisoned") = Some(path);
}

/// Pins the cache directory to an absolute path, resolving a relative
/// `$TS_CACHE_DIR` (or the `./.ts-cache` default) against `base` once.
/// Long-lived processes call this at startup so the cache location
/// can't silently re-anchor if the working directory later changes —
/// every subsequent [`dir`] answers with the same absolute path.
pub fn pin_relative_to(base: &std::path::Path) {
    let d = dir();
    let abs = if d.is_absolute() { d } else { base.join(d) };
    set_dir(abs);
}

/// The directory entries live in: the [`set_dir`] override, else
/// `$TS_CACHE_DIR`, else `./.ts-cache`.
pub fn dir() -> PathBuf {
    if let Some(p) = DIR_OVERRIDE
        .lock()
        .expect("cache dir lock poisoned")
        .clone()
    {
        return p;
    }
    match std::env::var_os("TS_CACHE_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from(".ts-cache"),
    }
}

/// In-process hit/miss/store tallies — the cache's host counters,
/// surfaced next to the pool's steal/park counts in `repro --profile`
/// and `BENCH_sweep.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Runs answered from disk.
    pub hits: u64,
    /// Runs that had to simulate (no entry, or unreadable entry).
    pub misses: u64,
    /// Fresh results persisted.
    pub stores: u64,
}

/// Snapshot of this process's cache counters.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        stores: STORES.load(Ordering::Relaxed),
    }
}

/// Zeroes the in-process counters (test isolation).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    STORES.store(0, Ordering::Relaxed);
}

/// Counts entries and total bytes on disk (for `repro cache stats`).
///
/// # Errors
///
/// Returns a message if the directory exists but cannot be read. A
/// missing directory is an empty cache, not an error.
pub fn disk_stats() -> Result<(u64, u64), String> {
    let d = dir();
    let mut entries = 0u64;
    let mut bytes = 0u64;
    let rd = match fs::read_dir(&d) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, 0)),
        Err(e) => return Err(format!("cannot read {}: {e}", d.display())),
    };
    for ent in rd {
        let ent = ent.map_err(|e| format!("cannot read {}: {e}", d.display()))?;
        if ent.path().extension().is_some_and(|x| x == "json") {
            entries += 1;
            bytes += ent.metadata().map(|m| m.len()).unwrap_or(0);
        }
    }
    Ok((entries, bytes))
}

/// Deletes every cache entry (for `repro cache clear`); returns how
/// many were removed. A missing directory clears zero entries.
///
/// # Errors
///
/// Returns a message if the directory or an entry cannot be removed.
pub fn clear() -> Result<u64, String> {
    let d = dir();
    let rd = match fs::read_dir(&d) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(format!("cannot read {}: {e}", d.display())),
    };
    let mut removed = 0u64;
    for ent in rd {
        let ent = ent.map_err(|e| format!("cannot read {}: {e}", d.display()))?;
        let p = ent.path();
        if p.extension().is_some_and(|x| x == "json") {
            fs::remove_file(&p).map_err(|e| format!("cannot remove {}: {e}", p.display()))?;
            removed += 1;
        }
    }
    Ok(removed)
}

// ------------------------------------------------------------------ keys

/// FNV-1a 64-bit — the workspace's standard cheap content hash (same
/// construction as `experiments::derive_seed` and the CGRA mapping
/// cache).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]); // separator: "ab"+"c" != "a"+"bc"
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Hashes `v`'s `Debug` form plus the separator: the same bytes as
    /// `write_str(&format!("{v:?}"))`, streamed through the
    /// [`fmt::Write`] impl without building the string.
    fn write_debug(&mut self, v: &dyn fmt::Debug) {
        write!(self, "{v:?}").expect("hashing cannot fail");
        self.write(&[0xff]);
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Code-version salt: FNV-1a over the running executable's bytes, so a
/// rebuilt binary addresses a fresh slice of the cache. `TS_CACHE_SALT`
/// overrides it (tests force hits across binaries / misses within one).
fn exe_salt() -> u64 {
    static SALT: OnceLock<u64> = OnceLock::new();
    *SALT.get_or_init(|| {
        if let Ok(s) = std::env::var("TS_CACHE_SALT") {
            let mut h = Fnv::new();
            h.write_str(&s);
            return h.0;
        }
        let bytes = std::env::current_exe()
            .and_then(fs::read)
            .unwrap_or_default();
        let mut h = Fnv::new();
        h.write(&bytes);
        h.0
    })
}

/// Content hash of the program a workload hands the accelerator: name,
/// task types, full initial memory image, and the initial task graph
/// (instances + pipes). The simulation result is a pure function of
/// (config, program), so this — not the workload's parameters — is the
/// workload's cache identity; any knob that changes the program
/// (scale, seed, grain, element count) changes the hash by
/// construction, and program *code* differences are covered by the
/// executable salt.
pub(crate) fn program_fingerprint(wl: &dyn Workload, baseline: bool) -> u64 {
    let mut program: Box<dyn Program> = if baseline {
        wl.make_baseline_program()
    } else {
        wl.make_program()
    };
    let mut h = Fnv::new();
    h.write_str(wl.name());
    h.write_str(program.name());
    for tt in program.task_types() {
        h.write_debug(&tt);
    }
    let image = program.memory_image();
    for (tag, segments) in [(b'd', &image.dram), (b's', &image.spad)] {
        for (base, words) in segments {
            h.write(&[tag]);
            h.write_u64(*base);
            h.write_u64(words.len() as u64);
            for w in words {
                h.write(&(*w as u64).to_le_bytes());
            }
        }
    }
    let mut spawner = Spawner::new(0);
    program.initial(&mut spawner);
    let (tasks, pipes) = spawner.take();
    h.write_u64(tasks.len() as u64);
    for t in &tasks {
        h.write_debug(t);
    }
    for p in &pipes {
        h.write_debug(p);
    }
    h.0
}

/// Computes the content-addressed key for one run. `cfg` must already
/// have the process-wide engine override applied (the runner passes
/// the exact config it will simulate with).
pub fn key(wl: &dyn Workload, cfg: &DeltaConfig, baseline: bool, faulted: bool) -> String {
    key_with_salt(wl, cfg, baseline, faulted, exe_salt())
}

/// As [`key`] but with an explicit code-version salt instead of the
/// process-wide one (which is frozen at first use). Lets tests prove
/// that a salt change — a rebuilt binary — misses the old entries.
pub fn key_with_salt(
    wl: &dyn Workload,
    cfg: &DeltaConfig,
    baseline: bool,
    faulted: bool,
    salt: u64,
) -> String {
    key_from_fingerprint(
        program_fingerprint(wl, baseline),
        cfg,
        baseline,
        faulted,
        salt,
    )
}

/// The key for a run whose program fingerprint is already known — the
/// sweep runner computes each distinct workload's fingerprint once and
/// reuses it across every design point of that workload, since
/// building the program to hash it costs more than a warm hit.
pub(crate) fn key_from_fingerprint(
    fingerprint: u64,
    cfg: &DeltaConfig,
    baseline: bool,
    faulted: bool,
    salt: u64,
) -> String {
    let canon = format!(
        "format=1\nmode={}\nbaseline={}\nprogram={fingerprint:016x}\ncfg={:?}\nsalt={salt:016x}\n",
        if faulted { "faulted" } else { "validated" },
        baseline as u8,
        cfg,
    );
    sha256_hex(canon.as_bytes())
}

/// The process-wide code-version salt (see [`key`]); exposed so the
/// sweep runner can pair it with memoized fingerprints.
pub(crate) fn current_salt() -> u64 {
    exe_salt()
}

// ------------------------------------------------------------------ codec

/// Encodes a `u64` for the strings-only JSON format.
fn enc_u64(v: u64) -> Json {
    Json::Str(v.to_string())
}

/// Encodes an `f64` exactly: its IEEE-754 bit pattern in hex.
fn enc_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn dec_u64(j: &Json, what: &str) -> Result<u64, String> {
    j.as_str()
        .ok_or_else(|| format!("{what} must be a string"))?
        .parse()
        .map_err(|e| format!("{what}: {e}"))
}

fn dec_f64(s: &str, what: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("{what}: {e}"))
}

/// `SimProfile` as a fixed-order list of decimal strings.
fn enc_profile(p: &SimProfile) -> Json {
    let mut v: Vec<u64> = vec![
        p.tile_ticks,
        p.tile_skipped,
        p.tile_bulk_cycles,
        p.tile_wakes,
        p.tile_next_event_calls,
        p.mem_ticks,
        p.mem_skipped,
        p.mem_wakes,
        p.noc_ticks,
        p.noc_skipped,
        p.noc_wakes,
        p.jump_cycles,
        p.loop_cycles,
    ];
    v.extend(p.jump_hist);
    v.extend(p.tile_stretch_hist);
    v.extend(p.mem_stretch_hist);
    v.extend(p.noc_stretch_hist);
    Json::Arr(v.into_iter().map(enc_u64).collect())
}

fn dec_profile(j: &Json) -> Result<SimProfile, String> {
    let arr = j.as_arr().ok_or("profile must be an array")?;
    let want = 13 + 4 * STRETCH_BUCKETS;
    if arr.len() != want {
        return Err(format!(
            "profile must have {want} entries, got {}",
            arr.len()
        ));
    }
    let mut it = arr.iter();
    let mut next = || dec_u64(it.next().expect("length checked"), "profile entry");
    let mut p = SimProfile {
        tile_ticks: next()?,
        tile_skipped: next()?,
        tile_bulk_cycles: next()?,
        tile_wakes: next()?,
        tile_next_event_calls: next()?,
        mem_ticks: next()?,
        mem_skipped: next()?,
        mem_wakes: next()?,
        noc_ticks: next()?,
        noc_skipped: next()?,
        noc_wakes: next()?,
        jump_cycles: next()?,
        loop_cycles: next()?,
        ..SimProfile::default()
    };
    for hist in [
        &mut p.jump_hist,
        &mut p.tile_stretch_hist,
        &mut p.mem_stretch_hist,
        &mut p.noc_stretch_hist,
    ] {
        for b in hist.iter_mut() {
            *b = next()?;
        }
    }
    Ok(p)
}

/// `FaultReport` as a fixed-order list of decimal strings.
fn enc_faults(f: &FaultReport) -> Json {
    Json::Arr(
        [
            f.tile_fail_stops,
            f.tile_stalls,
            f.noc_flits_dropped,
            f.noc_flits_corrupted,
            f.dram_retries,
            f.watchdog_fires,
            f.tasks_redispatched,
            f.pipe_replays,
            f.backoff_cycles,
            f.wasted_cycles,
        ]
        .into_iter()
        .map(enc_u64)
        .collect(),
    )
}

fn dec_faults(j: &Json) -> Result<FaultReport, String> {
    let arr = j.as_arr().ok_or("faults must be an array")?;
    if arr.len() != 10 {
        return Err(format!("faults must have 10 entries, got {}", arr.len()));
    }
    let mut it = arr.iter();
    let mut next = || dec_u64(it.next().expect("length checked"), "faults entry");
    Ok(FaultReport {
        tile_fail_stops: next()?,
        tile_stalls: next()?,
        noc_flits_dropped: next()?,
        noc_flits_corrupted: next()?,
        dram_retries: next()?,
        watchdog_fires: next()?,
        tasks_redispatched: next()?,
        pipe_replays: next()?,
        backoff_cycles: next()?,
        wasted_cycles: next()?,
    })
}

/// Serializes a run outcome to the on-disk entry format.
fn encode(outcome: &FaultOutcome) -> String {
    let report = match outcome {
        FaultOutcome::Wedged { cycles } => {
            return format!(
                "{{\"format\": \"2\", \"kind\": \"wedged\", \"cycles\": {}}}\n",
                json_str(&cycles.to_string())
            );
        }
        FaultOutcome::Completed(r) => r,
    };
    let mut s = String::from("{\n\"format\": \"2\",\n\"kind\": \"completed\",\n");
    s.push_str(&format!(
        "\"cycles\": {},\n",
        json_str(&report.cycles.to_string())
    ));
    s.push_str(&format!(
        "\"tasks_completed\": {},\n",
        json_str(&report.tasks_completed.to_string())
    ));
    s.push_str(&format!(
        "\"skipped_cycles\": {},\n",
        json_str(&report.skipped_cycles.to_string())
    ));
    let stats: Vec<String> = report
        .stats
        .iter()
        .map(|(k, v)| format!("[{}, {}]", json_str(k), json_str(&enc_f64(v))))
        .collect();
    s.push_str(&format!("\"stats\": [{}],\n", stats.join(", ")));
    let timeline: Vec<String> = report
        .timeline
        .iter()
        .map(|(c, b)| format!("{c}:{b}"))
        .collect();
    s.push_str(&format!(
        "\"timeline\": {},\n",
        json_str(&timeline.join(" "))
    ));
    s.push_str(&format!(
        "\"dram_digest\": \"{:016x}\",\n",
        report.dram_digest()
    ));
    let to_text = |j: &Json| match j {
        Json::Arr(items) => {
            let parts: Vec<String> = items
                .iter()
                .map(|e| json_str(e.as_str().expect("counter lists hold strings")))
                .collect();
            format!("[{}]", parts.join(", "))
        }
        _ => unreachable!("counter lists are arrays"),
    };
    s.push_str(&format!(
        "\"profile\": {},\n",
        to_text(&enc_profile(&report.profile))
    ));
    s.push_str(&format!(
        "\"faults\": {}\n}}\n",
        to_text(&enc_faults(&report.faults))
    ));
    s
}

/// Parses an on-disk entry back into a run outcome.
fn decode(text: &str) -> Result<FaultOutcome, String> {
    let value = Parser::new(text).parse()?;
    let obj = value.as_obj().ok_or("entry must be an object")?;
    let field = |name: &str| {
        obj.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field '{name}'"))
    };
    if field("format")?.as_str() != Some("2") {
        return Err("unknown format version".into());
    }
    let cycles = dec_u64(field("cycles")?, "cycles")?;
    match field("kind")?.as_str() {
        Some("wedged") => return Ok(FaultOutcome::Wedged { cycles }),
        Some("completed") => {}
        _ => return Err("kind must be 'completed' or 'wedged'".into()),
    }
    let mut stats = ts_sim::stats::Report::new();
    for pair in field("stats")?.as_arr().ok_or("stats must be an array")? {
        let pair = pair.as_arr().ok_or("stats entries must be pairs")?;
        match pair {
            [k, v] => {
                let k = k.as_str().ok_or("stat key must be a string")?;
                let v = v.as_str().ok_or("stat value must be a string")?;
                stats.set(k, dec_f64(v, "stat value")?);
            }
            _ => return Err("stats entries must be [key, value]".into()),
        }
    }
    let mut timeline = Vec::new();
    let tl = field("timeline")?
        .as_str()
        .ok_or("timeline must be a string")?;
    for sample in tl.split_whitespace() {
        let (c, b) = sample.split_once(':').ok_or("timeline: malformed sample")?;
        timeline.push((
            c.parse().map_err(|e| format!("timeline cycle: {e}"))?,
            b.parse().map_err(|e| format!("timeline busy: {e}"))?,
        ));
    }
    let dram_digest = field("dram_digest")?
        .as_str()
        .ok_or("dram_digest must be a string")?;
    let report = RunReport::from_cached_parts(
        cycles,
        stats,
        u64::from_str_radix(dram_digest, 16).map_err(|e| format!("dram_digest: {e}"))?,
        dec_u64(field("tasks_completed")?, "tasks_completed")?,
        timeline,
        dec_u64(field("skipped_cycles")?, "skipped_cycles")?,
        dec_profile(field("profile")?)?,
        dec_faults(field("faults")?)?,
    );
    Ok(FaultOutcome::Completed(Box::new(report)))
}

// ------------------------------------------------------------------ disk

fn entry_path(key: &str) -> PathBuf {
    dir().join(format!("{key}.json"))
}

/// Looks a key up on disk. `faulted` is the run mode the caller
/// expects; an entry of the wrong kind (only possible if the cache was
/// edited by hand) degrades to a miss like any other corruption.
/// Counts one hit or one miss.
pub fn load(key: &str, faulted: bool) -> Option<FaultOutcome> {
    let loaded = fs::read_to_string(entry_path(key))
        .ok()
        .and_then(|text| decode(&text).ok())
        .filter(|out| faulted || matches!(out, FaultOutcome::Completed(_)));
    match &loaded {
        Some(_) => HITS.fetch_add(1, Ordering::Relaxed),
        None => MISSES.fetch_add(1, Ordering::Relaxed),
    };
    loaded
}

/// Persists one result, best-effort and atomic: a temp file in the
/// cache directory is renamed over the final name, so a concurrent
/// reader sees either the whole entry or none of it. IO failure is
/// silent (the cache is an accelerator, not a correctness surface) —
/// it just doesn't count as a store.
pub fn store(key: &str, outcome: &FaultOutcome) {
    let d = dir();
    if fs::create_dir_all(&d).is_err() {
        return;
    }
    let tmp = d.join(format!(".tmp-{}-{key}", std::process::id()));
    if fs::write(&tmp, encode(outcome)).is_err() {
        let _ = fs::remove_file(&tmp);
        return;
    }
    if fs::rename(&tmp, entry_path(key)).is_ok() {
        STORES.fetch_add(1, Ordering::Relaxed);
    } else {
        let _ = fs::remove_file(&tmp);
    }
}

// ------------------------------------------------------------------ sha256

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256, hand-rolled (the container has no crypto dependency), hex
/// output. Collision resistance is what makes "content-addressed"
/// honest: distinct configs/programs get distinct entries, period.
fn sha256_hex(data: &[u8]) -> String {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padding: 0x80, zeros, 64-bit big-endian bit length.
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *s = s.wrapping_add(v);
        }
    }
    h.iter().map(|v| format!("{v:08x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // Two-block message (padding boundary).
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// A chaos-fault run of tiny spmv: every field an entry keeps is
    /// populated, fault tallies included.
    fn fresh_tiny_report() -> RunReport {
        use ts_delta::FaultsConfig;
        let wl = ts_workloads::spmv::Spmv::tiny(crate::experiments::SEED);
        let faults = FaultsConfig {
            tile_fail_window: 256,
            ..FaultsConfig::chaos()
        };
        let cfg = DeltaConfig::delta(8)
            .to_builder()
            .faults(faults)
            .stall_limit(200_000)
            .build();
        match crate::run_faulted(&wl, cfg, false) {
            FaultOutcome::Completed(r) => *r,
            FaultOutcome::Wedged { .. } => panic!("the recovering chaos run must complete"),
        }
    }

    #[test]
    fn fresh_runs_roundtrip_through_an_entry() {
        let fresh = fresh_tiny_report();
        assert!(fresh.faults.injected() > 0 && !fresh.timeline.is_empty());
        let text = encode(&FaultOutcome::Completed(Box::new(fresh.clone())));
        let back = match decode(&text).unwrap() {
            FaultOutcome::Completed(r) => r,
            FaultOutcome::Wedged { .. } => panic!("wrong kind"),
        };
        assert_eq!(back.cycles, fresh.cycles);
        assert_eq!(back.tasks_completed, fresh.tasks_completed);
        assert_eq!(back.skipped_cycles, fresh.skipped_cycles);
        assert_eq!(back.stats, fresh.stats);
        assert_eq!(back.timeline, fresh.timeline);
        assert_eq!(back.profile, fresh.profile);
        assert_eq!(back.faults, fresh.faults);
        assert_eq!(back.dram_digest(), fresh.dram_digest());

        // The same entry under the previous format number (which
        // stored the whole image) is not served.
        let old = text.replacen("\"format\": \"2\"", "\"format\": \"1\"", 1);
        assert_ne!(old, text);
        assert!(decode(&old).is_err(), "format-1 entries must be rejected");
    }

    /// A task type, an instance with stream, shared-stream and pipe
    /// bindings, and a pipe declaration each leave the hasher in the
    /// same state streamed through `write_debug` as formatted first.
    #[test]
    fn streamed_debug_hashes_like_the_formatted_string() {
        use taskstream_model::{MergeKernel, PipeDecl, PipeId, RegionId, TaskInstance};
        use taskstream_model::{TaskKernel, TaskType, TaskTypeId};
        use ts_mem::WriteMode;
        use ts_stream::StreamDesc;
        use ts_workloads::Workload;

        let spmv = ts_workloads::spmv::Spmv::tiny(crate::experiments::SEED);
        let dfg_type = spmv.make_program().task_types().remove(0);
        let native_type = TaskType::new("merge", TaskKernel::native(MergeKernel));
        let task = TaskInstance::new(TaskTypeId(2))
            .params([4, -9])
            .input_stream(StreamDesc::dram(64, 16))
            .input_shared(StreamDesc::dram(0, 8), RegionId(5))
            .input_pipe(PipeId(3))
            .output_memory(StreamDesc::dram(128, 16), WriteMode::Add)
            .output_pipe(PipeId(4))
            .affinity(7);
        let pipe = PipeDecl {
            id: PipeId(4),
            capacity_hint: 16,
        };
        let values: [&dyn fmt::Debug; 4] = [&dfg_type, &native_type, &task, &pipe];
        for v in values {
            let (mut streamed, mut formatted) = (Fnv::new(), Fnv::new());
            streamed.write_debug(v);
            formatted.write_str(&format!("{v:?}"));
            assert_eq!(streamed.0, formatted.0, "{v:?}");
        }
    }

    #[test]
    fn f64_bits_roundtrip_exactly() {
        for v in [0.0, -0.0, 1.5, 1.0 / 3.0, f64::MAX, 1e-300] {
            let back = dec_f64(&enc_f64(v), "t").unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
    }

    #[test]
    fn wedged_entries_roundtrip() {
        let out = FaultOutcome::Wedged { cycles: 123456 };
        match decode(&encode(&out)).unwrap() {
            FaultOutcome::Wedged { cycles } => assert_eq!(cycles, 123456),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn profile_codec_roundtrips() {
        let mut p = SimProfile {
            tile_ticks: 1,
            tile_skipped: 2,
            tile_bulk_cycles: 3,
            tile_wakes: 4,
            tile_next_event_calls: 5,
            mem_ticks: 6,
            mem_skipped: 7,
            mem_wakes: 8,
            noc_ticks: 9,
            noc_skipped: 10,
            noc_wakes: 11,
            jump_cycles: 12,
            loop_cycles: 13,
            ..SimProfile::default()
        };
        p.jump_hist = [1, 2, 3, 4, 5];
        p.noc_stretch_hist = [9, 8, 7, 6, 5];
        assert_eq!(dec_profile(&enc_profile(&p)).unwrap(), p);
    }

    #[test]
    fn corrupt_entries_are_rejected() {
        assert!(decode("").is_err());
        assert!(decode("{}").is_err());
        assert!(decode("{\"format\": \"1\", \"kind\": \"wedged\", \"cycles\": \"1\"}").is_err());
        assert!(decode("{\"format\": \"3\", \"kind\": \"wedged\", \"cycles\": \"1\"}").is_err());
        assert!(decode("{\"format\": \"2\", \"kind\": \"lost\", \"cycles\": \"1\"}").is_err());
    }
}
