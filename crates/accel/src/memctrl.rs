//! Memory-controller nodes: the bridge between the mesh and the DRAM.

use crate::msg::{Msg, StreamKey};
use std::collections::VecDeque;
use ts_mem::{Dram, DramConfig, DramOut, JobKind};
use ts_noc::Mesh;
use ts_sim::{Activity, FxHashMap, FxHashSet};
use ts_stream::Addr;

/// A DRAM read request as the dispatcher/stream engines see it.
#[derive(Debug, Clone)]
pub(crate) struct ReadReq {
    /// Globally unique read-job id (assigned by the accelerator).
    pub job: u64,
    /// Addresses, in delivery order. Only their count reaches the DRAM
    /// timing model; the addresses themselves feed the first-touch
    /// (`read_words_unique`) accounting at submission.
    pub addrs: Vec<Addr>,
    /// Random-access pattern (pays gather cost).
    pub gather: bool,
    /// Mesh nodes to deliver data to. Empty = phantom job (traffic is
    /// modelled, data is dropped — used for index-fetch phases whose
    /// values the issuer already has functionally).
    pub dsts: Vec<usize>,
    /// Serve only after this job has fully completed (two-phase
    /// indirect reads).
    pub after: Option<u64>,
}

/// A read job between submission and the DRAM: its shape only.
#[derive(Debug)]
struct QueuedRead {
    job: u64,
    words: u64,
    gather: bool,
    after: Option<u64>,
}

/// Where a read job's data goes: the injecting controller (an index
/// into the controller list) and the destination mesh nodes.
#[derive(Debug)]
struct Route {
    ctrl: usize,
    dsts: Vec<usize>,
}

#[derive(Debug)]
struct WriteTrack {
    outstanding: u64,
    saw_last: bool,
    reply_to: usize,
}

/// Words one [`Msg::DramData`] flit carries at most (links are several
/// words wide; controllers coalesce up to a burst per flit).
const FLIT_WORDS: u16 = 8;

/// All memory controllers plus the DRAM they front.
///
/// Read jobs are admitted after a control-path latency, served by the
/// shared [`Dram`], and their response words injected as [`Msg::DramData`]
/// flits from the controller node the job was assigned to (round-robin).
/// Write words arrive as flits, are metered at DRAM bandwidth, and are
/// acknowledged per stream.
#[derive(Debug)]
pub(crate) struct MemCtrl {
    dram: Dram,
    mc_nodes: Vec<usize>,
    mesh_width: usize,
    /// Requests waiting out their control latency: `(ready_at, req)`.
    admit: VecDeque<(u64, QueuedRead)>,
    /// Requests admitted but gated on `after` jobs.
    gated: Vec<QueuedRead>,
    /// Read job → injecting controller and destinations, until the job's
    /// last word is staged.
    routes: FxHashMap<u64, Route>,
    /// Read jobs fully served (for `after` gating).
    done_jobs: FxHashSet<u64>,
    /// Write bookkeeping per stream.
    writes: FxHashMap<StreamKey, WriteTrack>,
    /// Write-job tag → (stream, word was last).
    wtags: FxHashMap<u64, (StreamKey, bool)>,
    next_wtag: u64,
    /// Responses waiting for injection, per controller (indexed like
    /// `mc_nodes`).
    backlog: Vec<VecDeque<(Vec<usize>, Msg)>>,
    /// Total staged responses across all controllers (O(1) idleness
    /// checks; burst coalescing mutates entries in place and leaves the
    /// count unchanged).
    backlog_len: usize,
    /// DRAM output runs, reused across ticks so the hot loop does not
    /// allocate.
    outs: Vec<DramOut>,
    /// Bit per DRAM word: addresses named by at least one read job, for
    /// the `read_words_unique` counter. The conservation invariant
    /// `read_words >= read_words_unique` and the multicast traffic
    /// claims both lean on distinguishing total from first-touch reads.
    /// Every submitted word is served before the run quiesces, so
    /// counting at submission gives the served-time value.
    seen_reads: Vec<u64>,
    read_words_unique: u64,
    rr: usize,
}

/// Read-job tags occupy the low range; write tags have this bit set.
const WRITE_TAG: u64 = 1 << 63;

impl MemCtrl {
    pub(crate) fn new(dram_cfg: DramConfig, mc_nodes: Vec<usize>, mesh_width: usize) -> Self {
        assert!(!mc_nodes.is_empty(), "need at least one controller node");
        assert!(mesh_width > 0, "mesh width must be positive");
        MemCtrl {
            seen_reads: vec![0u64; dram_cfg.words.div_ceil(64)],
            dram: Dram::new(dram_cfg),
            backlog: (0..mc_nodes.len()).map(|_| VecDeque::new()).collect(),
            mc_nodes,
            mesh_width,
            admit: VecDeque::new(),
            gated: Vec::new(),
            routes: FxHashMap::default(),
            done_jobs: FxHashSet::default(),
            writes: FxHashMap::default(),
            wtags: FxHashMap::default(),
            next_wtag: 0,
            backlog_len: 0,
            outs: Vec::new(),
            read_words_unique: 0,
            rr: 0,
        }
    }

    /// Arms the DRAM's deterministic transient-error injection.
    pub(crate) fn set_fault_injection(&mut self, rate: f64, retry_cycles: u64, seed: u64) {
        self.dram.set_fault_injection(rate, retry_cycles, seed);
    }

    /// Words that took a detected DRAM error retry so far.
    pub(crate) fn fault_retries(&self) -> u64 {
        self.dram.fault_retries()
    }

    /// Queues a read request; it reaches the DRAM after the control
    /// latency (`ready_at`).
    pub(crate) fn submit_read(&mut self, req: ReadReq, ready_at: u64) {
        assert!(!req.addrs.is_empty(), "read request must cover >= 1 word");
        for &a in &req.addrs {
            let (slot, bit) = ((a / 64) as usize, 1u64 << (a % 64));
            if self.seen_reads[slot] & bit == 0 {
                self.seen_reads[slot] |= bit;
                self.read_words_unique += 1;
            }
        }
        // responses inject from the controller in the destination's
        // mesh column (column-affine homing keeps traffic contention-
        // free); phantom and multicast jobs round-robin
        let ctrl = match req.dsts.as_slice() {
            [single] => (single % self.mesh_width) % self.mc_nodes.len(),
            _ => {
                self.rr += 1;
                (self.rr - 1) % self.mc_nodes.len()
            }
        };
        self.routes.insert(
            req.job,
            Route {
                ctrl,
                dsts: req.dsts,
            },
        );
        self.admit.push_back((
            ready_at,
            QueuedRead {
                job: req.job,
                words: req.addrs.len() as u64,
                gather: req.gather,
                after: req.after,
            },
        ));
    }

    /// Adds a destination to a read job that has not yet reached the
    /// DRAM (a sharer joining a multicast while it waits out its
    /// batching window). Returns false once the job is already being
    /// served.
    pub(crate) fn try_join(&mut self, job: u64, node: usize) -> bool {
        let waiting =
            self.admit.iter().any(|(_, r)| r.job == job) || self.gated.iter().any(|r| r.job == job);
        if !waiting {
            return false;
        }
        let dsts = &mut self.routes.get_mut(&job).expect("job registered").dsts;
        if !dsts.contains(&node) {
            dsts.push(node);
        }
        true
    }

    /// True once read job `job` has served its last word.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn job_done(&self, job: u64) -> bool {
        self.done_jobs.contains(&job)
    }

    /// Handles a write flit delivered to a controller node. The word's
    /// functional effect was applied at dispatch; the DRAM meters its
    /// bandwidth and latency only.
    pub(crate) fn on_write_flit(
        &mut self,
        stream: StreamKey,
        reply_to: usize,
        last: bool,
        gather: bool,
    ) {
        let track = self.writes.entry(stream).or_insert(WriteTrack {
            outstanding: 0,
            saw_last: false,
            reply_to,
        });
        track.outstanding += 1;
        track.saw_last |= last;
        let tag = WRITE_TAG | self.next_wtag;
        self.next_wtag += 1;
        self.wtags.insert(tag, (stream, last));
        self.dram
            .submit(JobKind::Write { words: 1, gather }, tag)
            .expect("single-word write job is never empty");
    }

    /// One simulation cycle: admit due reads, advance the DRAM, stage
    /// responses, and inject staged responses into the mesh.
    pub(crate) fn tick(&mut self, now: u64, mesh: &mut Mesh<Msg>) {
        // admit requests whose control latency elapsed
        while let Some((ready, _)) = self.admit.front() {
            if *ready > now {
                break;
            }
            let (_, req) = self.admit.pop_front().expect("front exists");
            self.gated.push(req);
        }
        // release gated requests whose prerequisite job completed, in
        // admission order
        let (dram, done_jobs) = (&mut self.dram, &self.done_jobs);
        self.gated.retain(|req| {
            if req.after.is_some_and(|j| !done_jobs.contains(&j)) {
                return true;
            }
            dram.submit(
                JobKind::Read {
                    words: req.words,
                    gather: req.gather,
                },
                req.job,
            )
            .expect("read request validated non-empty");
            false
        });

        // advance DRAM and stage outputs
        let mut outs = std::mem::take(&mut self.outs);
        self.dram.tick(now, &mut outs);
        for out in outs.drain(..) {
            if out.is_write_ack {
                self.on_write_ack(out.tag);
            } else {
                self.stage_read_run(&out);
            }
        }
        self.outs = outs;

        // inject staged responses, bounded by each node's queue space
        for (q, &node) in self.backlog.iter_mut().zip(&self.mc_nodes) {
            while !q.is_empty() && mesh.inject_space(node) > 0 {
                let (dsts, msg) = q.pop_front().expect("nonempty");
                if mesh.inject(node, &dsts, msg).is_err() {
                    unreachable!("injection space was checked");
                }
                self.backlog_len -= 1;
            }
        }
    }

    /// Retires one metered write word; the stream's ack is staged once
    /// its last word has been seen and every word has landed.
    fn on_write_ack(&mut self, tag: u64) {
        debug_assert!(tag & WRITE_TAG != 0, "write acks carry write tags");
        let (stream, was_last) = self.wtags.remove(&tag).expect("write tag known");
        let track = self.writes.get_mut(&stream).expect("stream tracked");
        track.outstanding -= 1;
        track.saw_last |= was_last;
        if track.saw_last && track.outstanding == 0 {
            let reply = track.reply_to;
            self.writes.remove(&stream);
            // ack injected from the controller handling this stream
            let ctrl = (stream.0 .0 as usize) % self.mc_nodes.len();
            self.backlog[ctrl].push_back((vec![reply], Msg::WriteAck { stream }));
            self.backlog_len += 1;
        }
    }

    /// Stages a run of read words as [`Msg::DramData`] flits of at most
    /// [`FLIT_WORDS`] words, topping up the newest staged flit of the
    /// same job first — exactly the flits word-by-word coalescing
    /// builds. `last` rides on the flit holding the job's final word.
    fn stage_read_run(&mut self, out: &DramOut) {
        let route = self.routes.get(&out.tag).expect("read job known");
        // a phantom job (no destinations) has its traffic counted and
        // its data dropped
        if !route.dsts.is_empty() {
            let q = &mut self.backlog[route.ctrl];
            let mut left = out.words;
            if let Some((_, Msg::DramData { job, words, last })) = q.back_mut() {
                if *job == out.tag && *words < FLIT_WORDS {
                    let take = left.min(u64::from(FLIT_WORDS - *words));
                    *words += take as u16;
                    left -= take;
                    *last |= out.last && left == 0;
                }
            }
            while left > 0 {
                let take = left.min(u64::from(FLIT_WORDS));
                left -= take;
                q.push_back((
                    route.dsts.clone(),
                    Msg::DramData {
                        job: out.tag,
                        words: take as u16,
                        last: out.last && left == 0,
                    },
                ));
                self.backlog_len += 1;
            }
        }
        if out.last {
            self.done_jobs.insert(out.tag);
            self.routes.remove(&out.tag);
        }
    }

    /// Debug summary for timeout diagnostics.
    pub(crate) fn debug_state(&self) -> String {
        format!(
            "admit={} gated={:?} dram_pending={} backlog={:?}",
            self.admit.len(),
            self.gated
                .iter()
                .map(|r| (r.job, r.after))
                .collect::<Vec<_>>(),
            self.dram.pending_jobs(),
            self.mc_nodes
                .iter()
                .zip(&self.backlog)
                .map(|(n, q)| (*n, q.len()))
                .collect::<Vec<_>>(),
        )
    }

    /// Queue depths for trace sampling: `(admit, gated, backlog,
    /// dram_jobs, dram_inflight)`. Reads only state that is identical
    /// whether the controller is ticked densely or lazily, so sampled
    /// values agree across engines.
    pub(crate) fn queue_depths(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.admit.len(),
            self.gated.len(),
            self.backlog_len,
            self.dram.pending_jobs(),
            self.dram.inflight_words(),
        )
    }

    /// True when no request, job, or staged response remains.
    pub(crate) fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.backlog_len == 0,
            self.backlog.iter().all(VecDeque::is_empty),
            "backlog counter diverged from backlog contents"
        );
        self.admit.is_empty()
            && self.gated.is_empty()
            && self.dram.is_idle()
            && self.backlog_len == 0
    }

    /// The controller's activity contract. Gated requests, unserved
    /// DRAM jobs, and staged responses all need dense ticking (their
    /// timing depends on bandwidth and mesh backpressure); with only
    /// time-gated state left — admitted-but-not-due requests and
    /// in-flight DRAM words — the next observable event is the earliest
    /// of the two queue fronts, and every tick before it is idle.
    pub(crate) fn activity(&self) -> Activity {
        if !self.gated.is_empty() || self.dram.has_service_work() || self.backlog_len > 0 {
            return Activity::Now;
        }
        let mut at = Activity::Idle;
        // Admission is head-of-line FIFO (`tick` only pops the front
        // once due), so even though batching windows make `ready_at`
        // non-monotone, nothing behind the front can admit earlier —
        // the front's due time is the next event.
        if let Some((ready, _)) = self.admit.front() {
            at = at.merge(Activity::At(*ready));
        }
        if let Some(ready) = self.dram.next_output_ready() {
            at = at.merge(Activity::At(ready));
        }
        at
    }

    /// DRAM statistics scope: the DRAM's traffic counters plus the
    /// first-touch read count kept here.
    pub(crate) fn dram_stats(&self) -> ts_sim::stats::Stats {
        let mut s = self.dram.stats();
        if self.read_words_unique > 0 {
            s.bump_by("read_words_unique", self.read_words_unique);
        }
        s
    }

    /// Replays `n` elapsed idle cycles. The caller guarantees the
    /// controller reported no activity over those cycles (each tick
    /// would only have refilled the DRAM bandwidth bucket: the admit
    /// front was not yet due and no in-flight word came due), but work
    /// may have *just* arrived — a write flit this cycle, a read
    /// request now due — so only the states that change exclusively
    /// inside [`tick`](MemCtrl::tick) can be asserted quiet.
    pub(crate) fn replay_idle_cycles(&mut self, n: u64) {
        debug_assert!(
            self.gated.is_empty() && self.backlog_len == 0,
            "replay with controller work in flight"
        );
        self.dram.replay_idle_cycles(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskstream_model::TaskId;

    fn mk() -> (MemCtrl, Mesh<Msg>) {
        let cfg = DramConfig {
            words: 1024,
            words_per_cycle: 4.0,
            latency: 5,
            gather_cost: 4,
            max_active_jobs: 8,
            burst_words: 4,
        };
        // 2x2 mesh: tiles at 0..2, controllers at 2..4
        (MemCtrl::new(cfg, vec![2, 3], 2), Mesh::new(2, 2, 8))
    }

    fn run(mc: &mut MemCtrl, mesh: &mut Mesh<Msg>, cycles: u64) -> Vec<(usize, Msg)> {
        let mut got = Vec::new();
        for now in 0..cycles {
            mc.tick(now, mesh);
            mesh.tick();
            for node in 0..4 {
                while let Some(m) = mesh.eject(node) {
                    got.push((node, m));
                }
            }
        }
        got
    }

    #[test]
    fn read_job_delivers_words_to_tile() {
        let (mut mc, mut mesh) = mk();
        mc.submit_read(
            ReadReq {
                job: 7,
                addrs: vec![0, 1, 2],
                gather: false,
                dsts: vec![0],
                after: None,
            },
            0,
        );
        let got = run(&mut mc, &mut mesh, 50);
        let words: u64 = got
            .iter()
            .filter(|(n, _)| *n == 0)
            .map(|(_, m)| match m {
                Msg::DramData { words, .. } => *words as u64,
                _ => 0,
            })
            .sum();
        assert_eq!(words, 3);
        let saw_last = got
            .iter()
            .any(|(_, m)| matches!(m, Msg::DramData { last: true, .. }));
        assert!(saw_last);
        assert!(mc.job_done(7));
        assert!(mc.is_idle());
    }

    #[test]
    fn multicast_read_reaches_all_tiles() {
        let (mut mc, mut mesh) = mk();
        mc.submit_read(
            ReadReq {
                job: 1,
                addrs: vec![0, 1],
                gather: false,
                dsts: vec![0, 1],
                after: None,
            },
            0,
        );
        let got = run(&mut mc, &mut mesh, 50);
        for tile in [0usize, 1] {
            let words: u64 = got
                .iter()
                .filter(|(node, _)| *node == tile)
                .map(|(_, m)| match m {
                    Msg::DramData { words, .. } => *words as u64,
                    _ => 0,
                })
                .sum();
            assert_eq!(words, 2, "tile {tile}");
        }
        // DRAM read each word once despite two destinations
        assert_eq!(mc.dram_stats().counter("read_words"), 2);
    }

    #[test]
    fn phantom_job_counts_traffic_but_delivers_nothing() {
        let (mut mc, mut mesh) = mk();
        mc.submit_read(
            ReadReq {
                job: 2,
                addrs: vec![0, 1, 2, 3],
                gather: false,
                dsts: vec![],
                after: None,
            },
            0,
        );
        let got = run(&mut mc, &mut mesh, 50);
        assert!(got.is_empty());
        assert_eq!(mc.dram_stats().counter("read_words"), 4);
        assert!(mc.job_done(2));
    }

    #[test]
    fn after_gating_orders_two_phase_reads() {
        let (mut mc, mut mesh) = mk();
        mc.submit_read(
            ReadReq {
                job: 11,
                addrs: vec![0; 8],
                gather: false,
                dsts: vec![],
                after: None,
            },
            0,
        );
        mc.submit_read(
            ReadReq {
                job: 12,
                addrs: vec![1],
                gather: true,
                dsts: vec![0],
                after: Some(11),
            },
            0,
        );
        let mut first_data_cycle = None;
        let mut idx_done_cycle = None;
        for now in 0..200 {
            mc.tick(now, &mut mesh);
            mesh.tick();
            if mc.job_done(11) && idx_done_cycle.is_none() {
                idx_done_cycle = Some(now);
            }
            if mesh.eject(0).is_some() && first_data_cycle.is_none() {
                first_data_cycle = Some(now);
            }
        }
        let (idx, data) = (idx_done_cycle.unwrap(), first_data_cycle.unwrap());
        assert!(data > idx, "gather data at {data} before indices at {idx}");
    }

    #[test]
    fn write_stream_acked_once_after_last_word() {
        let (mut mc, mut mesh) = mk();
        let stream: StreamKey = (TaskId(5), 0);
        for i in 0..4u64 {
            mc.on_write_flit(stream, 1, i == 3, false);
        }
        let got = run(&mut mc, &mut mesh, 100);
        let acks: Vec<_> = got
            .iter()
            .filter(|(n, m)| *n == 1 && matches!(m, Msg::WriteAck { .. }))
            .collect();
        assert_eq!(acks.len(), 1);
        assert_eq!(mc.dram_stats().counter("write_words"), 4);
        assert!(mc.is_idle());
    }

    #[test]
    fn served_runs_split_into_eight_word_flits() {
        // 16 words per cycle in 16-word bursts: a 20-word job leaves the
        // DRAM as runs of 16 and 4, which stage as flits of 8, 8 and 4
        let cfg = DramConfig {
            words: 1024,
            words_per_cycle: 16.0,
            latency: 5,
            gather_cost: 4,
            max_active_jobs: 8,
            burst_words: 16,
        };
        let (mut mc, mut mesh) = (MemCtrl::new(cfg, vec![2, 3], 2), Mesh::new(2, 2, 8));
        mc.submit_read(
            ReadReq {
                job: 3,
                addrs: (0..20).collect(),
                gather: false,
                dsts: vec![1],
                after: None,
            },
            0,
        );
        let flits: Vec<(u16, bool)> = run(&mut mc, &mut mesh, 60)
            .into_iter()
            .map(|(node, m)| match m {
                Msg::DramData { words, last, .. } if node == 1 => (words, last),
                other => panic!("unexpected {other:?} at node {node}"),
            })
            .collect();
        assert_eq!(flits, vec![(8, false), (8, false), (4, true)]);
    }

    #[test]
    fn unique_reads_count_first_touch_at_submission() {
        let (mut mc, mut mesh) = mk();
        mc.submit_read(
            ReadReq {
                job: 4,
                addrs: vec![1, 2, 1, 2, 3],
                gather: false,
                dsts: vec![],
                after: None,
            },
            0,
        );
        assert_eq!(mc.dram_stats().counter("read_words_unique"), 3);
        run(&mut mc, &mut mesh, 50);
        assert_eq!(mc.dram_stats().counter("read_words"), 5);
        assert_eq!(mc.dram_stats().counter("read_words_unique"), 3);
    }
}
