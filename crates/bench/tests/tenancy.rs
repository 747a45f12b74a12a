//! Multi-tenant dispatcher guarantees, end to end:
//!
//! - **Engine equivalence** — tenancy runs bit-for-bit the same under
//!   the event engine as under the dense reference, over random tenant
//!   mixes × arrival schedules × admission policies (the per-tenant
//!   due queues add wake sources the activity contracts must cover).
//! - **Fault determinism and oracle equivalence** — same-seed fault
//!   schedules replay identically under tenancy, and faulted runs
//!   stay functionally equivalent to the untimed oracle at every
//!   swept fail rate, under both partitioning policies.
//! - **Starvation regression** — under a flooding heavy neighbor, the
//!   admission gate strictly improves the light tenant's tail latency
//!   and nobody loses work either way.

use proptest::prelude::*;
use ts_bench::{run_faulted, run_validated, FaultOutcome};
use ts_delta::{
    DeltaConfig, DeltaConfigBuilder, DrainPolicy, Engine, FaultsConfig, PartitionPolicy, RunReport,
};
use ts_workloads::request_server::{RequestServer, TenantLoad};

/// Runs one config to completion: validated against the workload
/// reference and the conservation invariants, plus the untimed oracle
/// when faults are live.
fn run_cfg(wl: &RequestServer, cfg: ts_delta::DeltaConfig, chaos: bool) -> RunReport {
    if chaos {
        match run_faulted(wl, cfg, false) {
            FaultOutcome::Completed(r) => *r,
            FaultOutcome::Wedged { cycles } => {
                panic!("tenancy chaos run wedged at cycle {cycles} despite recovery")
            }
        }
    } else {
        run_validated(wl, cfg, false)
    }
}

fn run_mode(
    base: &DeltaConfigBuilder,
    wl: &RequestServer,
    chaos: bool,
    engine: Engine,
) -> RunReport {
    run_cfg(wl, base.clone().engine(engine).build(), chaos)
}

fn assert_tenants_served(r: &RunReport, wl: &RequestServer, what: &str) {
    for (t, load) in wl.tenants.iter().enumerate() {
        assert_eq!(
            r.stats.get_or_zero(&format!("tenant{t}.completed")) as usize,
            load.queries,
            "{what}: tenant {t} starved"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random tenant mixes × arrival schedules × admission policies ×
    /// fault schedules: the event engine must produce the same report,
    /// bit for bit, as the dense reference.
    #[test]
    fn random_tenant_mixes_unaffected_by_scheduler_modes(
        loads in prop::collection::vec((1usize..8, 4usize..24, 0u64..300), 1..4),
        admit_limit in 0u64..6,
        spatial in prop::bool::ANY,
        hysteresis in prop::bool::ANY,
        chaos in prop::bool::ANY,
        seed in 0u64..1000,
        tiles in 2usize..6,
    ) {
        let loads: Vec<TenantLoad> = loads
            .iter()
            .map(|&(queries, rows_per_query, arrival_period)| TenantLoad {
                queries,
                rows_per_query,
                arrival_period,
            })
            .collect();
        let wl = RequestServer::new(loads, 256, seed);
        let partition = if spatial {
            PartitionPolicy::Spatial
        } else {
            PartitionPolicy::Shared
        };
        let drain = if hysteresis {
            DrainPolicy::Drain
        } else {
            DrainPolicy::Block
        };
        // spatial partitioning needs a tile per tenant
        let mut base = DeltaConfig::builder(tiles.max(wl.tenants.len()))
            .seed(seed)
            .tenancy(wl.tenancy(partition, admit_limit, drain));
        if chaos {
            base = base
                .faults(FaultsConfig {
                    tile_fail_window: 256,
                    ..FaultsConfig::chaos()
                })
                .stall_limit(200_000);
        }
        let reference = run_mode(&base, &wl, chaos, Engine::Dense);
        assert_tenants_served(&reference, &wl, "dense reference");
        let r = run_mode(&base, &wl, chaos, Engine::Event);
        prop_assert_eq!(r.cycles, reference.cycles, "cycles diverged (chaos={})", chaos);
        prop_assert_eq!(r.tasks_completed, reference.tasks_completed);
        prop_assert_eq!(&r.stats, &reference.stats, "stats diverged (chaos={})", chaos);
        prop_assert_eq!(&r.timeline, &reference.timeline);
        prop_assert_eq!(&r.faults, &reference.faults, "faults diverged (chaos={})", chaos);
    }
}

/// Same-seed fault schedules replay identically under tenancy, the
/// completed runs match the untimed oracle (checked inside
/// [`run_faulted`]), and every tenant's queries land at every fail
/// rate, under both partitioning policies.
#[test]
fn per_tenant_oracle_equivalence_at_every_fault_rate() {
    for partition in [PartitionPolicy::Shared, PartitionPolicy::Spatial] {
        for rate in [0.0, 0.125, 0.25, 0.5] {
            let wl = RequestServer::tiny(2, 0, 11);
            let cfg = DeltaConfig::delta(8)
                .to_builder()
                .seed(42)
                .tenancy(wl.tenancy(partition, 4, DrainPolicy::Block))
                .faults(FaultsConfig {
                    tile_fail_rate: rate,
                    tile_fail_window: 256,
                    ..FaultsConfig::chaos()
                })
                .stall_limit(200_000)
                .build();
            let what = format!("{partition:?} @ fail rate {rate}");
            let a = run_cfg(&wl, cfg.clone(), true);
            let b = run_cfg(&wl, cfg, true);
            assert_eq!(a.cycles, b.cycles, "{what}: replay diverged");
            assert_eq!(a.stats, b.stats, "{what}: stats diverged on replay");
            assert_eq!(a.faults, b.faults, "{what}: fault report diverged");
            assert_tenants_served(&a, &wl, &what);
        }
    }
}

/// The starvation regression the admission gate exists for: a heavy
/// tenant floods while a light tenant trickles. With admission off the
/// flood monopolizes dispatch and the light tenant's tail latency
/// balloons; capping the heavy tenant's in-flight share must strictly
/// improve the light tenant's p99 — without costing anyone completed
/// work.
#[test]
fn admission_gate_prevents_heavy_neighbor_starvation() {
    let wl = RequestServer::new(
        vec![
            TenantLoad {
                queries: 48,
                rows_per_query: 16,
                arrival_period: 0,
            },
            TenantLoad {
                queries: 8,
                rows_per_query: 16,
                arrival_period: 0,
            },
        ],
        512,
        9,
    );
    let run = |admit_limit: u64| {
        let cfg = DeltaConfig::delta(4)
            .to_builder()
            .seed(42)
            .tenancy(wl.tenancy(PartitionPolicy::Shared, admit_limit, DrainPolicy::Block))
            .build();
        run_cfg(&wl, cfg, false)
    };
    let ungated = run(0);
    let gated = run(4);
    assert_tenants_served(&ungated, &wl, "admission off");
    assert_tenants_served(&gated, &wl, "admission on");
    let light_p99 = |r: &RunReport| r.stats.get_or_zero("tenant1.p99_latency");
    assert!(
        light_p99(&gated) < light_p99(&ungated),
        "admission gate did not improve the light tenant's p99: \
         gated {} vs ungated {}",
        light_p99(&gated),
        light_p99(&ungated)
    );
    assert!(
        gated.stats.get_or_zero("tenant0.gate_holds") > 0.0,
        "the gate never engaged; the regression test is vacuous"
    );
}
