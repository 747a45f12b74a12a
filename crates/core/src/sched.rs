//! Tile-selection policies: where the dispatcher places each task.

use crate::task::TaskInstance;
use ts_sim::rng::SimRng;

/// The placement policy the dispatcher runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// TaskStream's work-aware balancing: place on the tile with the
    /// least outstanding *estimated work* (sum of work hints of queued
    /// and running tasks).
    WorkAware,
    /// Cycle through tiles ignoring work (tasks-aware, not work-aware —
    /// the classic baseline that loses to skew).
    RoundRobin,
    /// Uniformly random available tile.
    Random,
    /// Place on the tile with the fewest *queued tasks* — task-aware
    /// but work-oblivious. The gap between this and
    /// [`Policy::WorkAware`] is exactly the value of the work-hint
    /// annotation: counting tasks treats a 10,000-element task like a
    /// 10-element one.
    LeastQueued,
    /// Owner-computes: tile fixed by the task's affinity key. This is
    /// the *static-parallel design* of the paper's comparison — no
    /// dynamic balancing at all.
    StaticHash,
}

impl Policy {
    /// All policies, for sweeps.
    pub const ALL: [Policy; 5] = [
        Policy::WorkAware,
        Policy::LeastQueued,
        Policy::RoundRobin,
        Policy::Random,
        Policy::StaticHash,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Policy::WorkAware => "work-aware",
            Policy::RoundRobin => "round-robin",
            Policy::Random => "random",
            Policy::LeastQueued => "least-queued",
            Policy::StaticHash => "static-hash",
        }
    }
}

/// Tracks per-tile outstanding work and picks tiles per the policy.
///
/// # Examples
///
/// ```
/// use taskstream_model::{Policy, TilePicker, TaskInstance, TaskTypeId};
///
/// let mut p = TilePicker::new(Policy::WorkAware, 2, 1);
/// let heavy = TaskInstance::new(TaskTypeId(0)).work_hint(100);
/// let light = TaskInstance::new(TaskTypeId(0)).work_hint(1);
///
/// let t0 = p.pick(&heavy, &[true, true]).unwrap();
/// p.on_dispatch(t0, heavy.work_hint);
/// // the light task avoids the loaded tile
/// let t1 = p.pick(&light, &[true, true]).unwrap();
/// assert_ne!(t0, t1);
/// ```
#[derive(Debug)]
pub struct TilePicker {
    policy: Policy,
    n_tiles: usize,
    outstanding: Vec<u64>,
    queued: Vec<u64>,
    rr_next: usize,
    rng: SimRng,
}

impl TilePicker {
    /// Creates a picker for `n_tiles` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `n_tiles` is zero.
    pub fn new(policy: Policy, n_tiles: usize, seed: u64) -> Self {
        assert!(n_tiles > 0, "need at least one tile");
        TilePicker {
            policy,
            n_tiles,
            outstanding: vec![0; n_tiles],
            queued: vec![0; n_tiles],
            rr_next: 0,
            rng: SimRng::seed(seed),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Chooses a tile for `task` among tiles whose queues have space
    /// (`has_space[tile]`). Returns `None` when the policy cannot place
    /// the task this cycle (its owner is full, or nothing has space).
    ///
    /// # Panics
    ///
    /// Panics if `has_space.len() != n_tiles`.
    pub fn pick(&mut self, task: &TaskInstance, has_space: &[bool]) -> Option<usize> {
        assert_eq!(has_space.len(), self.n_tiles, "mask size mismatch");
        match self.policy {
            Policy::StaticHash => {
                let owner = (task.affinity % self.n_tiles as u64) as usize;
                has_space[owner].then_some(owner)
            }
            Policy::RoundRobin => {
                for off in 0..self.n_tiles {
                    let t = (self.rr_next + off) % self.n_tiles;
                    if has_space[t] {
                        self.rr_next = (t + 1) % self.n_tiles;
                        return Some(t);
                    }
                }
                None
            }
            Policy::Random => {
                let avail: Vec<usize> = (0..self.n_tiles).filter(|&t| has_space[t]).collect();
                if avail.is_empty() {
                    None
                } else {
                    Some(avail[self.rng.index(avail.len())])
                }
            }
            Policy::WorkAware => (0..self.n_tiles)
                .filter(|&t| has_space[t])
                .min_by_key(|&t| (self.outstanding[t], t)),
            Policy::LeastQueued => (0..self.n_tiles)
                .filter(|&t| has_space[t])
                .min_by_key(|&t| (self.queued[t], t)),
        }
    }

    /// True when [`pick`](Self::pick) would place `task` under
    /// `has_space`. Pure: draws no randomness and moves no round-robin
    /// cursor, so callers may ask without perturbing later picks.
    ///
    /// # Panics
    ///
    /// Panics if `has_space.len() != n_tiles`.
    pub fn can_place(&self, task: &TaskInstance, has_space: &[bool]) -> bool {
        assert_eq!(has_space.len(), self.n_tiles, "mask size mismatch");
        match self.policy {
            Policy::StaticHash => has_space[(task.affinity % self.n_tiles as u64) as usize],
            _ => has_space.contains(&true),
        }
    }

    /// Records that `hint` units of estimated work were placed on a tile.
    pub fn on_dispatch(&mut self, tile: usize, hint: u64) {
        self.outstanding[tile] += hint;
        self.queued[tile] += 1;
    }

    /// Records that a task with estimate `hint` finished on a tile.
    pub fn on_complete(&mut self, tile: usize, hint: u64) {
        self.outstanding[tile] = self.outstanding[tile].saturating_sub(hint);
        self.queued[tile] = self.queued[tile].saturating_sub(1);
    }

    /// Outstanding estimated work per tile.
    pub fn outstanding(&self) -> &[u64] {
        &self.outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskInstance, TaskTypeId};

    fn task(hint: u64, affinity: u64) -> TaskInstance {
        TaskInstance::new(TaskTypeId(0))
            .work_hint(hint)
            .affinity(affinity)
    }

    #[test]
    fn work_aware_balances_skewed_hints() {
        let mut p = TilePicker::new(Policy::WorkAware, 4, 0);
        let mask = [true; 4];
        // one giant task, then many small ones: smalls should spread
        // over the other three tiles
        let big = task(1000, 0);
        let t = p.pick(&big, &mask).unwrap();
        p.on_dispatch(t, 1000);
        let mut placed = [0u64; 4];
        for _ in 0..30 {
            let s = task(10, 0);
            let tile = p.pick(&s, &mask).unwrap();
            p.on_dispatch(tile, 10);
            placed[tile] += 1;
        }
        assert_eq!(placed[t], 0, "small tasks landed on the loaded tile");
    }

    #[test]
    fn static_hash_is_deterministic_owner() {
        let mut p = TilePicker::new(Policy::StaticHash, 4, 0);
        let mask = [true; 4];
        assert_eq!(p.pick(&task(1, 6), &mask), Some(2));
        assert_eq!(p.pick(&task(99, 6), &mask), Some(2));
        // owner full -> stall even if others are empty
        let mut blocked = mask;
        blocked[2] = false;
        assert_eq!(p.pick(&task(1, 6), &blocked), None);
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = TilePicker::new(Policy::RoundRobin, 3, 0);
        let mask = [true; 3];
        let picks: Vec<usize> = (0..6)
            .map(|_| p.pick(&task(1, 0), &mask).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_full_tiles() {
        let mut p = TilePicker::new(Policy::RoundRobin, 3, 0);
        assert_eq!(p.pick(&task(1, 0), &[false, true, true]), Some(1));
        assert_eq!(p.pick(&task(1, 0), &[false, false, true]), Some(2));
        assert_eq!(p.pick(&task(1, 0), &[false, false, false]), None);
    }

    #[test]
    fn random_only_picks_available() {
        let mut p = TilePicker::new(Policy::Random, 4, 42);
        for _ in 0..50 {
            let t = p.pick(&task(1, 0), &[false, true, false, true]).unwrap();
            assert!(t == 1 || t == 3);
        }
    }

    #[test]
    fn can_place_agrees_with_pick_for_every_policy() {
        for policy in Policy::ALL {
            for bits in 0u32..16 {
                let mask: Vec<bool> = (0..4).map(|t| bits & (1 << t) != 0).collect();
                for affinity in 0..4 {
                    let mut p = TilePicker::new(policy, 4, 7);
                    let t = task(3, affinity);
                    let can = p.can_place(&t, &mask);
                    assert_eq!(can, p.pick(&t, &mask).is_some(), "{policy:?} {mask:?}");
                }
            }
        }
    }

    #[test]
    fn completion_releases_load() {
        let mut p = TilePicker::new(Policy::WorkAware, 2, 0);
        p.on_dispatch(0, 50);
        assert_eq!(p.outstanding(), &[50, 0]);
        p.on_complete(0, 50);
        assert_eq!(p.outstanding(), &[0, 0]);
        // saturating: double-complete does not underflow
        p.on_complete(0, 10);
        assert_eq!(p.outstanding(), &[0, 0]);
    }

    #[test]
    fn least_queued_counts_tasks_not_work() {
        let mut p = TilePicker::new(Policy::LeastQueued, 2, 0);
        let mask = [true; 2];
        // one huge task on tile 0
        p.on_dispatch(0, 10_000);
        // two small tasks on tile 1
        p.on_dispatch(1, 1);
        p.on_dispatch(1, 1);
        // least-queued picks the tile with *fewer tasks* despite its
        // mountain of work — exactly the blindness work hints fix
        assert_eq!(p.pick(&task(5, 0), &mask), Some(0));
        let mut w = TilePicker::new(Policy::WorkAware, 2, 0);
        w.on_dispatch(0, 10_000);
        w.on_dispatch(1, 1);
        w.on_dispatch(1, 1);
        assert_eq!(w.pick(&task(5, 0), &mask), Some(1));
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn zero_tiles_panics() {
        let _ = TilePicker::new(Policy::WorkAware, 0, 0);
    }
}
