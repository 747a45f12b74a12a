//! Memory-system models for the TaskStream/Delta reproduction.
//!
//! Two memory spaces exist in the modelled machine:
//!
//! * **DRAM** ([`Dram`]) — one global, word-addressed memory reached over
//!   the NoC through a memory-controller node. Bandwidth is shared by all
//!   tiles and is the resource that inter-task *read sharing* (multicast)
//!   conserves. Random (gather) accesses pay a configurable cost factor
//!   over streaming accesses, as on real devices.
//! * **Scratchpads** ([`Spad`]) — per-tile, software-managed, one-cycle
//!   SRAM with private bandwidth.
//!
//! [`Dram`] is a pure *timing* model: a job is a word count and an
//! access pattern, served through a bandwidth token bucket plus a fixed
//! latency, and its words come back as runs ([`DramOut`]) carrying no
//! values. The DRAM *contents* live in a separate functional image
//! ([`Storage`]) owned by the simulator, which reads and updates it when
//! a task dispatches, so results are real and validated against
//! reference implementations. Scratchpads are functional too: each
//! [`Spad`] stores its own words.
//!
//! # Examples
//!
//! ```
//! use ts_mem::{Dram, DramConfig, JobKind};
//!
//! let mut dram = Dram::new(DramConfig { latency: 10, ..DramConfig::default() });
//! let id = dram.submit(JobKind::Read { words: 12, gather: false }, 0).unwrap();
//! let mut out = Vec::new();
//! let mut now = 0;
//! while !dram.is_idle() {
//!     dram.tick(now, &mut out);
//!     now += 1;
//! }
//! // 8 words per cycle in 8-word bursts: two service cycles, two runs
//! assert_eq!(out.len(), 2);
//! assert!(out.iter().all(|run| run.job == id));
//! assert_eq!(out.iter().map(|run| run.words).sum::<u64>(), 12);
//! assert!(out[1].last);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dram;
mod spad;
mod storage;

pub use dram::{Dram, DramConfig, DramOut, JobId, JobKind};
pub use spad::Spad;
pub use storage::{Storage, WriteMode};

/// Word address (one address names one 64-bit word).
pub type Addr = u64;

/// Stored word type.
pub type Value = i64;
