//! Run results.

use crate::faults::FaultReport;
use crate::trace::TraceRecord;
use taskstream_model::Value;
use ts_mem::Storage;
use ts_sim::stats::Report;
use ts_stream::Addr;

/// Number of buckets in the per-component stretch-length histograms.
pub const STRETCH_BUCKETS: usize = 5;

/// Human-readable labels for the stretch-length histogram buckets.
pub const STRETCH_BUCKET_LABELS: [&str; STRETCH_BUCKETS] =
    ["1-4", "5-16", "17-64", "65-256", "257+"];

/// Bucket index for a skipped/bulk-advanced stretch of `len` cycles.
pub fn stretch_bucket(len: u64) -> usize {
    match len {
        0..=4 => 0,
        5..=16 => 1,
        17..=64 => 2,
        65..=256 => 3,
        _ => 4,
    }
}

/// Cycle-attribution profile of one run: how many cycles each component
/// was actually ticked versus replayed in closed form, and how often it
/// was woken from a skipped stretch. Simulator bookkeeping, not a
/// modelled quantity — like [`RunReport::skipped_cycles`] it is kept
/// out of [`RunReport::stats`] so reports stay bit-identical under
/// either [`Engine`](crate::Engine) (the dense engine ticks everything
/// and leaves every skip, wake, bulk and jump counter at zero). The
/// invariant `ticks + skipped == cycles` holds per component (tile
/// counters additionally fold in `tile_bulk_cycles` and sum over all
/// tiles, so theirs is `ticks + skipped + bulk == cycles × tiles`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimProfile {
    /// Densely ticked tile-cycles, summed over all tiles.
    pub tile_ticks: u64,
    /// Idle (empty-queue) tile-cycles replayed in closed form, summed
    /// over all tiles.
    pub tile_skipped: u64,
    /// Blocked busy tile-cycles replayed in closed form by the event
    /// engine, summed over all tiles.
    pub tile_bulk_cycles: u64,
    /// Times a tile was woken out of a skipped stretch.
    pub tile_wakes: u64,
    /// `Tile::next_event` evaluations performed by the event engine.
    pub tile_next_event_calls: u64,
    /// Densely ticked memory-controller cycles.
    pub mem_ticks: u64,
    /// Memory-controller cycles replayed in closed form.
    pub mem_skipped: u64,
    /// Times the memory controller was woken out of a skipped stretch.
    pub mem_wakes: u64,
    /// Densely ticked mesh cycles.
    pub noc_ticks: u64,
    /// Mesh cycles replayed in closed form.
    pub noc_skipped: u64,
    /// Times the mesh was woken out of a skipped stretch.
    pub noc_wakes: u64,
    /// Cycles covered by whole-loop next-event jumps.
    pub jump_cycles: u64,
    /// Main-loop iterations actually executed (densely ticked cycles).
    pub loop_cycles: u64,
    /// Histogram of whole-loop jump lengths, bucketed by
    /// [`stretch_bucket`].
    pub jump_hist: [u64; STRETCH_BUCKETS],
    /// Histogram of per-tile replayed stretch lengths (idle skips and
    /// bulk advances), bucketed by [`stretch_bucket`]: one entry per
    /// wake, plus one per tile settled at the end of the run.
    pub tile_stretch_hist: [u64; STRETCH_BUCKETS],
    /// Histogram of memory-controller replayed stretch lengths,
    /// bucketed by [`stretch_bucket`]: one entry per wake, plus one if
    /// the controller is settled at the end of the run.
    pub mem_stretch_hist: [u64; STRETCH_BUCKETS],
    /// Histogram of mesh replayed stretch lengths, bucketed by
    /// [`stretch_bucket`]: one entry per wake, plus one if the mesh is
    /// settled at the end of the run.
    pub noc_stretch_hist: [u64; STRETCH_BUCKETS],
}

impl SimProfile {
    /// Fraction of tile-cycles that were skipped rather than ticked
    /// (0.0 when the run had no cycles).
    pub fn tile_skip_ratio(&self) -> f64 {
        let total = self.tile_ticks + self.tile_skipped + self.tile_bulk_cycles;
        if total == 0 {
            0.0
        } else {
            (self.tile_skipped + self.tile_bulk_cycles) as f64 / total as f64
        }
    }

    /// Accumulates another run's counters into this one (used by the
    /// benchmark harness to aggregate a whole sweep).
    pub fn add(&mut self, other: &SimProfile) {
        self.tile_ticks += other.tile_ticks;
        self.tile_skipped += other.tile_skipped;
        self.tile_bulk_cycles += other.tile_bulk_cycles;
        self.tile_wakes += other.tile_wakes;
        self.tile_next_event_calls += other.tile_next_event_calls;
        self.mem_ticks += other.mem_ticks;
        self.mem_skipped += other.mem_skipped;
        self.mem_wakes += other.mem_wakes;
        self.noc_ticks += other.noc_ticks;
        self.noc_skipped += other.noc_skipped;
        self.noc_wakes += other.noc_wakes;
        self.jump_cycles += other.jump_cycles;
        self.loop_cycles += other.loop_cycles;
        for b in 0..STRETCH_BUCKETS {
            self.jump_hist[b] += other.jump_hist[b];
            self.tile_stretch_hist[b] += other.tile_stretch_hist[b];
            self.mem_stretch_hist[b] += other.mem_stretch_hist[b];
            self.noc_stretch_hist[b] += other.noc_stretch_hist[b];
        }
    }
}

/// Everything a finished run hands back: cycle count, merged statistics,
/// and a snapshot of final DRAM contents for validation.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Merged statistics from every component (`tileN.*`, `noc.*`,
    /// `dram.*`, `dispatch.*`).
    pub stats: Report,
    /// Final DRAM contents, or only their digest for a cache-built
    /// report.
    dram: Dram,
    /// Tasks completed over the run.
    pub tasks_completed: u64,
    /// Sampled occupancy: `(cycle, busy tiles)` every
    /// [`RunReport::TIMELINE_STRIDE`] cycles.
    pub timeline: Vec<(u64, u32)>,
    /// Cycles covered by next-event jumps instead of dense ticking
    /// (always zero under [`Engine::Dense`](crate::Engine::Dense)).
    /// Simulator bookkeeping, not a modelled quantity — kept out of
    /// [`RunReport::stats`] so reports are bit-identical under either
    /// engine.
    pub skipped_cycles: u64,
    /// Per-component cycle attribution (ticked vs skipped vs woken).
    /// Simulator bookkeeping, excluded from equivalence comparisons.
    pub profile: SimProfile,
    /// Structured event trace, empty unless `DeltaConfig::trace` was
    /// set. Observability output, not a modelled quantity — kept out of
    /// [`RunReport::stats`] so tracing never perturbs goldens. The
    /// stream itself is identical under either
    /// [`Engine`](crate::Engine).
    pub trace: Vec<TraceRecord>,
    /// Trace records evicted because the trace ring overflowed.
    pub trace_dropped: u64,
    /// Injected-fault and recovery tallies. All-zero (and inert) when
    /// fault injection is disabled; like `profile`, kept out of
    /// [`RunReport::stats`] so faults-off reports stay byte-identical
    /// to builds that predate fault injection.
    pub faults: FaultReport,
}

/// Final DRAM state: the whole image for a fresh simulation, only its
/// [`RunReport::dram_digest`] for a report rebuilt from the result
/// cache (no experiment reads the image after validation, and it is
/// almost all of an entry's size).
#[derive(Debug, Clone)]
enum Dram {
    Image(Storage),
    Digest(u64),
}
impl RunReport {
    /// Cycles between occupancy samples in [`RunReport::timeline`].
    pub const TIMELINE_STRIDE: u64 = 256;

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cycles: u64,
        stats: Report,
        dram: Storage,
        tasks_completed: u64,
        timeline: Vec<(u64, u32)>,
        skipped_cycles: u64,
        profile: SimProfile,
        trace: Vec<TraceRecord>,
        trace_dropped: u64,
        faults: FaultReport,
    ) -> Self {
        RunReport {
            cycles,
            stats,
            dram: Dram::Image(dram),
            tasks_completed,
            timeline,
            skipped_cycles,
            profile,
            trace,
            trace_dropped,
            faults,
        }
    }

    /// Renders the occupancy timeline as a unicode sparkline
    /// (one glyph per sample, `█` = all tiles busy), at most `width`
    /// glyphs (downsampled by striding).
    pub fn sparkline(&self, tiles: usize, width: usize) -> String {
        const RAMP: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.timeline.is_empty() || tiles == 0 || width == 0 {
            return String::new();
        }
        let stride = self.timeline.len().div_ceil(width);
        self.timeline
            .chunks(stride)
            .map(|chunk| {
                let avg: f64 =
                    chunk.iter().map(|&(_, b)| b as f64).sum::<f64>() / chunk.len() as f64;
                let level = ((avg / tiles as f64) * 8.0).round() as usize;
                RAMP[level.min(8)]
            })
            .collect()
    }

    /// The final DRAM image of a fresh simulation.
    fn image(&self) -> &Storage {
        match &self.dram {
            Dram::Image(s) => s,
            Dram::Digest(_) => {
                panic!("cached reports carry only the DRAM digest, not the image")
            }
        }
    }

    /// Reads one word of the final DRAM image.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range, or if the report was
    /// rebuilt from the result cache: cached reports carry only the
    /// DRAM digest, not the image.
    pub fn dram(&self, addr: Addr) -> Value {
        self.image().read(addr)
    }

    /// Reads a contiguous range of the final DRAM image.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds, or if the report was
    /// rebuilt from the result cache: cached reports carry only the
    /// DRAM digest, not the image.
    pub fn dram_range(&self, base: Addr, len: usize) -> &[Value] {
        self.image().read_range(base, len)
    }

    /// A 64-bit digest of the final DRAM image: FNV-1a, one whole word
    /// per step, in four interleaved lanes (word `i` feeds lane
    /// `i % 4`) so the multiplies overlap, then one fold over the
    /// length, the lane states and the words left over. Each step is a
    /// bijection of its running state, so changing any single word
    /// changes the digest. A cache-built report returns the digest it
    /// was stored with.
    pub fn dram_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let step = |h: u64, w: u64| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        let image = match &self.dram {
            Dram::Image(s) => s,
            Dram::Digest(d) => return *d,
        };
        let words = image.read_range(0, image.len());
        let chunks = words.chunks_exact(4);
        let rest = chunks.remainder().iter().map(|&w| w as u64);
        let mut lanes = [OFFSET; 4];
        for chunk in chunks {
            for (lane, &w) in lanes.iter_mut().zip(chunk) {
                *lane = step(*lane, w as u64);
            }
        }
        std::iter::once(words.len() as u64)
            .chain(lanes)
            .chain(rest)
            .fold(OFFSET, step)
    }

    /// Reassembles a report from externally persisted parts — the
    /// constructor behind the bench harness's content-addressed result
    /// cache. The DRAM image is represented by its
    /// [`RunReport::dram_digest`] only, so [`RunReport::dram`] and
    /// [`RunReport::dram_range`] panic on the result. Carries no event
    /// trace (`trace` is observability output, never persisted; cached
    /// runs come back with an empty one).
    #[allow(clippy::too_many_arguments)]
    pub fn from_cached_parts(
        cycles: u64,
        stats: Report,
        dram_digest: u64,
        tasks_completed: u64,
        timeline: Vec<(u64, u32)>,
        skipped_cycles: u64,
        profile: SimProfile,
        faults: FaultReport,
    ) -> Self {
        RunReport {
            cycles,
            stats,
            dram: Dram::Digest(dram_digest),
            tasks_completed,
            timeline,
            skipped_cycles,
            profile,
            trace: Vec::new(),
            trace_dropped: 0,
            faults,
        }
    }

    /// Per-tile busy cycles, in tile order.
    pub fn tile_busy(&self) -> Vec<f64> {
        let mut v: Vec<(usize, f64)> = self
            .stats
            .matching(".busy_cycles")
            .into_iter()
            .filter_map(|(k, val)| {
                let n: usize = k.strip_prefix("tile")?.split('.').next()?.parse().ok()?;
                Some((n, val))
            })
            .collect();
        v.sort_by_key(|(n, _)| *n);
        v.into_iter().map(|(_, val)| val).collect()
    }

    /// Load imbalance: max over mean of per-tile busy cycles (1.0 =
    /// perfectly balanced).
    pub fn load_imbalance(&self) -> f64 {
        let busy = self.tile_busy();
        if busy.is_empty() {
            return 1.0;
        }
        let max = busy.iter().cloned().fold(0.0f64, f64::max);
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Total DRAM words moved (reads + writes).
    pub fn dram_words(&self) -> f64 {
        self.stats.get_or_zero("dram.read_words") + self.stats.get_or_zero("dram.write_words")
    }

    /// Total NoC flit-hops.
    pub fn noc_hops(&self) -> f64 {
        self.stats.get_or_zero("noc.flit_hops")
    }

    /// Checks the run's conservation invariants: quantities that must
    /// balance at quiescence whatever the configuration, policy, or
    /// engine.
    ///
    /// * every spawned task was dispatched and completed (host,
    ///   dispatcher, and tile counts all agree);
    /// * every injected NoC flit branch was ejected (`noc.delivered ==
    ///   noc.injected_branches` — each branch of a multicast tree ends
    ///   in exactly one ejection);
    /// * total DRAM reads cover at least the distinct words read
    ///   (`dram.read_words >= dram.read_words_unique`);
    /// * the cycle-attribution profile covers the run exactly
    ///   (`ticks + skipped == cycles` per component, `cycles × tiles`
    ///   for the tile counters).
    ///
    /// # Errors
    ///
    /// Returns a message listing every violated invariant.
    pub fn check_conservation(&self, tiles: usize) -> Result<(), String> {
        let mut violations = Vec::new();
        let mut check = |name: &str, lhs: f64, rhs: f64, op: &str| {
            let ok = match op {
                "==" => lhs == rhs,
                ">=" => lhs >= rhs,
                _ => unreachable!("unknown op {op}"),
            };
            if !ok {
                violations.push(format!("{name}: {lhs} {op} {rhs} violated"));
            }
        };

        let completed = self.tasks_completed as f64;
        check(
            "tasks spawned = completed",
            self.stats.get_or_zero("dispatch.tasks_spawned"),
            completed,
            "==",
        );
        check(
            "tasks dispatched = completed",
            self.stats.get_or_zero("dispatch.tasks_dispatched"),
            completed,
            "==",
        );
        check(
            "tile completions = completed",
            self.stats.sum_matching(".tasks_completed"),
            completed,
            "==",
        );
        check(
            "flit branches injected = delivered",
            self.stats.get_or_zero("noc.injected_branches"),
            self.stats.get_or_zero("noc.delivered"),
            "==",
        );
        check(
            "dram reads >= unique words read",
            self.stats.get_or_zero("dram.read_words"),
            self.stats.get_or_zero("dram.read_words_unique"),
            ">=",
        );

        let cycles = self.cycles as f64;
        let p = &self.profile;
        check(
            "loop + jump cycles = cycles",
            (p.loop_cycles + p.jump_cycles) as f64,
            cycles,
            "==",
        );
        check(
            "mem ticks + skips = cycles",
            (p.mem_ticks + p.mem_skipped) as f64,
            cycles,
            "==",
        );
        check(
            "noc ticks + skips = cycles",
            (p.noc_ticks + p.noc_skipped) as f64,
            cycles,
            "==",
        );
        check(
            "tile ticks + skips + bulk = cycles x tiles",
            (p.tile_ticks + p.tile_skipped + p.tile_bulk_cycles) as f64,
            cycles * tiles as f64,
            "==",
        );

        if violations.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "conservation violated:\n  {}",
                violations.join("\n  ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(image: &[Value]) -> RunReport {
        let mut dram = Storage::new(image.len());
        dram.load(0, image);
        RunReport::new(
            0,
            Report::new(),
            dram,
            0,
            Vec::new(),
            0,
            SimProfile::default(),
            Vec::new(),
            0,
            FaultReport::default(),
        )
    }

    fn cached(digest: u64) -> RunReport {
        RunReport::from_cached_parts(
            0,
            Report::new(),
            digest,
            0,
            Vec::new(),
            0,
            SimProfile::default(),
            FaultReport::default(),
        )
    }

    #[test]
    fn changing_any_single_word_changes_the_digest() {
        let image: Vec<Value> = (0..257).map(|i| (i % 5) - 2).collect();
        let base = fresh(&image).dram_digest();
        for i in 0..image.len() {
            for delta in [1, -1, i64::MIN] {
                let mut changed = image.clone();
                changed[i] = changed[i].wrapping_add(delta);
                assert_ne!(fresh(&changed).dram_digest(), base, "word {i} {delta:+}");
            }
        }
        // A trailing zero word is content too.
        let mut longer = image.clone();
        longer.push(0);
        assert_ne!(fresh(&longer).dram_digest(), base);
        assert_eq!(cached(base).dram_digest(), base);
    }

    #[test]
    #[should_panic(expected = "cached reports carry only the DRAM digest")]
    fn a_cached_report_has_no_image_to_read() {
        cached(7).dram_range(0, 1);
    }

    #[test]
    #[should_panic(expected = "cached reports carry only the DRAM digest")]
    fn a_cached_report_has_no_word_to_read() {
        cached(7).dram(0);
    }
}
