//! Property tests for the DRAM timing model: its burst-granular output
//! must be exactly the per-word service schedule, and write jobs ack
//! once.

use proptest::prelude::*;
use std::collections::VecDeque;
use ts_mem::{Dram, DramConfig, DramOut, JobKind};
use ts_sim::TokenBucket;

/// One served word as the per-word model releases it:
/// `(tag, index, release cycle, last, is_write_ack)`.
type Word = (u64, u64, u64, bool, bool);

/// Same splitmix draw as the model's transient-error injection.
fn fault_draw(seed: u64, index: u64) -> f64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ seed;
    h ^= index;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

struct RefJob {
    tag: u64,
    words: u64,
    gather: bool,
    write: bool,
    next: u64,
}

/// Reference: the word-at-a-time serve loop — round-robin over a
/// bounded active set, `burst_words` per turn, one token check and take
/// per word, a fault draw per word, one in-flight entry per read word
/// and per write ack, front-gated release.
struct PerWordDram {
    cfg: DramConfig,
    bw: TokenBucket,
    waiting: VecDeque<RefJob>,
    active: VecDeque<RefJob>,
    inflight: VecDeque<(u64, u64, u64, bool, bool)>,
    fault: (f64, u64, u64),
    served: u64,
}

impl PerWordDram {
    fn new(cfg: DramConfig, fault: (f64, u64, u64)) -> Self {
        let bw = TokenBucket::with_burst(
            cfg.words_per_cycle,
            cfg.words_per_cycle.max(cfg.gather_cost as f64) + 1.0,
        );
        PerWordDram {
            cfg,
            bw,
            waiting: VecDeque::new(),
            active: VecDeque::new(),
            inflight: VecDeque::new(),
            fault,
            served: 0,
        }
    }

    fn submit(&mut self, tag: u64, words: u64, gather: bool, write: bool) {
        self.waiting.push_back(RefJob {
            tag,
            words,
            gather,
            write,
            next: 0,
        });
    }

    fn tick(&mut self, now: u64, out: &mut Vec<Word>) {
        self.bw.refill();
        while self.active.len() < self.cfg.max_active_jobs {
            match self.waiting.pop_front() {
                Some(j) => self.active.push_back(j),
                None => break,
            }
        }
        let mut served_any = true;
        while served_any && !self.active.is_empty() {
            served_any = false;
            let mut remaining = self.active.len();
            while remaining > 0 {
                remaining -= 1;
                let Some(mut job) = self.active.pop_front() else {
                    break;
                };
                let cost = if job.gather { self.cfg.gather_cost } else { 1 };
                let mut served = 0;
                let mut finished = false;
                while served < self.cfg.burst_words.max(1) {
                    if self.bw.available() < cost {
                        break;
                    }
                    assert_eq!(self.bw.take_up_to(cost), cost);
                    served_any = true;
                    served += 1;
                    let w = job.next;
                    job.next += 1;
                    let last = job.next == job.words;
                    let mut ready = now + self.cfg.latency;
                    let (rate, retry, seed) = self.fault;
                    if rate > 0.0 {
                        self.served += 1;
                        if fault_draw(seed, self.served) < rate {
                            ready += retry;
                        }
                    }
                    if !job.write || last {
                        self.inflight
                            .push_back((ready, job.tag, w, last, job.write));
                    }
                    if last {
                        finished = true;
                        break;
                    }
                }
                if served == 0 {
                    self.active.push_front(job);
                    remaining = 0;
                    continue;
                }
                if !finished {
                    self.active.push_back(job);
                }
            }
        }
        while let Some(&(ready, tag, w, last, ack)) = self.inflight.front() {
            if ready > now {
                break;
            }
            self.inflight.pop_front();
            out.push((tag, w, now, last, ack));
        }
    }

    fn is_idle(&self) -> bool {
        self.waiting.is_empty() && self.active.is_empty() && self.inflight.is_empty()
    }
}

/// Expands released runs into the per-word stream.
fn expand(runs: &[DramOut], now: u64, out: &mut Vec<Word>) {
    for r in runs {
        assert!(r.words > 0, "empty run");
        for w in r.index..r.index + r.words {
            let last = r.last && w + 1 == r.index + r.words;
            out.push((r.tag, w, now, last, r.is_write_ack));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The burst stream, expanded, is the per-word reference's stream:
    /// same words, same release cycles, same order, same `last` flags.
    #[test]
    fn bursts_expand_to_the_per_word_schedule(
        jobs in prop::collection::vec((1u64..40, prop::bool::ANY, 0u32..4, 0u64..40), 1..12),
        bw_num in 1u32..20,
        latency in 0u64..30,
        gather_cost in 0u64..6,
        max_active in 1usize..5,
        burst in 0usize..10,
        fault_pick in 0u32..3,
        retry in 1u64..40,
        seed in 0u64..1000,
    ) {
        let cfg = DramConfig {
            words: 0,
            words_per_cycle: bw_num as f64 / 4.0,
            latency,
            gather_cost,
            max_active_jobs: max_active,
            burst_words: burst,
        };
        let rate = [0.0, 0.1, 0.35][fault_pick as usize];
        let mut dram = Dram::new(cfg.clone());
        dram.set_fault_injection(rate, retry, seed);
        let mut reference = PerWordDram::new(cfg, (rate, retry, seed));
        let (mut got, mut want, mut runs) = (Vec::new(), Vec::new(), Vec::new());
        let mut now = 0;
        loop {
            // kind 0 = write, otherwise read; jobs arrive over time
            for (tag, &(words, gather, kind, at)) in jobs.iter().enumerate() {
                if at == now {
                    let write = kind == 0;
                    let job = if write {
                        JobKind::Write { words, gather }
                    } else {
                        JobKind::Read { words, gather }
                    };
                    dram.submit(job, tag as u64).unwrap();
                    reference.submit(tag as u64, words, gather, write);
                }
            }
            runs.clear();
            dram.tick(now, &mut runs);
            expand(&runs, now, &mut got);
            reference.tick(now, &mut want);
            prop_assert_eq!(&got, &want, "diverged at cycle {}", now);
            prop_assert_eq!(dram.is_idle(), reference.is_idle());
            prop_assert_eq!(dram.inflight_words(), reference.inflight.len());
            now += 1;
            if now > 40 && dram.is_idle() {
                break;
            }
            prop_assert!(now < 1_000_000, "dram wedged");
        }
        let reads: u64 = jobs.iter().filter(|j| j.2 != 0).map(|j| j.0).sum();
        let writes: u64 = jobs.iter().filter(|j| j.2 == 0).map(|j| j.0).sum();
        prop_assert_eq!(dram.stats().counter("read_words"), reads);
        prop_assert_eq!(dram.stats().counter("write_words"), writes);
        prop_assert_eq!(got.iter().filter(|w| !w.4).count() as u64, reads);
    }

    /// A write job acks exactly once, after its last word.
    #[test]
    fn writes_ack_once(words in 1u64..40, gather in prop::bool::ANY) {
        let mut dram = Dram::new(DramConfig {
            words: 0,
            words_per_cycle: 2.0,
            latency: 5,
            gather_cost: 4,
            max_active_jobs: 4,
            burst_words: 4,
        });
        dram.submit(JobKind::Write { words, gather }, 9).unwrap();
        let mut out = Vec::new();
        let mut now = 0;
        while !dram.is_idle() {
            dram.tick(now, &mut out);
            now += 1;
            prop_assert!(now < 100_000);
        }
        prop_assert_eq!(out.len(), 1);
        prop_assert!(out[0].is_write_ack && out[0].last);
        prop_assert_eq!(out[0].index, words - 1);
    }
}
