//! First-class coverage for the charging-path models: cache-footprint
//! stalls, cross-core contention, per-module cycle accounting, and the
//! boundary-crossing primitives the design-space stacks charge.
//! (Previously these were only exercised indirectly through the
//! baseline hosts.)

use tas_cpusim::{
    CacheModel, ContentionModel, CoreClass, CorePool, Crossing, CycleAccount, Module, PcieModel,
};
use tas_sim::SimTime;

// ---------------------------------------------------------------- cache

#[test]
fn cache_no_stalls_while_working_set_fits() {
    let m = CacheModel::new(33 * 1024 * 1024, 30, 220.0);
    assert_eq!(m.stall_cycles(2048, 1), 0.0);
    assert_eq!(m.stall_cycles(2048, m.capacity_connections(2048)), 0.0);
}

#[test]
fn cache_stalls_grow_with_connection_count() {
    let m = CacheModel::new(1024 * 1024, 30, 220.0);
    let fit = m.capacity_connections(2048);
    let s1 = m.stall_cycles(2048, fit + fit / 2);
    let s2 = m.stall_cycles(2048, fit * 4);
    let s3 = m.stall_cycles(2048, fit * 64);
    assert!(s1 > 0.0);
    assert!(s2 > s1);
    assert!(s3 > s2);
    // Bounded above by an all-miss request: every line missing.
    assert!(s3 <= 30.0 * 220.0);
}

#[test]
fn cache_stall_formula_is_miss_fraction_times_penalty() {
    // cache 1000 B, 10 lines/req, 100 c/miss; footprint 4000 B ->
    // miss fraction 0.75 -> 10 * 0.75 * 100 = 750 stall cycles.
    let m = CacheModel::new(1000, 10, 100.0);
    assert_eq!(m.stall_cycles(40, 100), 750.0);
}

#[test]
fn smaller_state_defers_the_cliff() {
    // TAS's 102-byte flow state vs. a baseline's 2 KB: same cache, the
    // small-state stack fits ~20x more connections before stalling.
    let m = CacheModel::new(1024 * 1024, 30, 220.0);
    assert!(m.capacity_connections(102) > 19 * m.capacity_connections(2048));
}

// ----------------------------------------------------------- contention

#[test]
fn contention_none_is_free_at_any_width() {
    let c = ContentionModel::none();
    for cores in [1, 2, 8, 64] {
        assert_eq!(c.stall_cycles(cores), 0.0);
    }
}

#[test]
fn contention_single_core_still_pays_atomic_base() {
    let c = ContentionModel::new(250.0, 140.0);
    assert_eq!(c.stall_cycles(0), 250.0);
    assert_eq!(c.stall_cycles(1), 250.0);
    assert_eq!(c.stall_cycles(2), 250.0 + 140.0);
    assert_eq!(c.stall_cycles(4), 250.0 + 3.0 * 140.0);
}

#[test]
fn contention_grows_linearly_with_sharers() {
    let c = ContentionModel::new(100.0, 50.0);
    let step = c.stall_cycles(5) - c.stall_cycles(4);
    assert_eq!(step, 50.0);
}

// ----------------------------------------------------------- accounting

#[test]
fn account_charges_attribute_to_modules() {
    let mut a = CycleAccount::default();
    a.charge(Module::Driver, 100, 80);
    a.charge(Module::Tcp, 300, 200);
    a.charge(Module::Tcp, 50, 25);
    assert_eq!(a.cycles(Module::Driver), 100);
    assert_eq!(a.cycles(Module::Tcp), 350);
    assert_eq!(a.instructions(Module::Tcp), 225);
    assert_eq!(a.total_cycles(), 450);
}

#[test]
fn account_stack_cycles_exclude_app() {
    let mut a = CycleAccount::default();
    a.charge(Module::Api, 40, 10);
    a.charge(Module::App, 1000, 900);
    assert_eq!(a.stack_cycles(), 40);
    assert_eq!(a.total_cycles(), 1040);
}

#[test]
fn account_merge_sums_every_module() {
    let mut a = CycleAccount::default();
    let mut b = CycleAccount::default();
    for m in Module::ALL {
        a.charge(m, 10, 5);
        b.charge(m, 7, 3);
    }
    a.merge(&b);
    for m in Module::ALL {
        assert_eq!(a.cycles(m), 17);
        assert_eq!(a.instructions(m), 8);
    }
}

// ----------------------------------------------- core classes + boundary

#[test]
fn heterogeneous_pool_orders_groups_and_classes() {
    let p = CorePool::heterogeneous(&[
        (CoreClass::Nic, 2, 800_000_000),
        (CoreClass::Host, 3, 2_100_000_000),
    ]);
    assert_eq!(p.len(), 5);
    assert_eq!(p.class(0), CoreClass::Nic);
    assert_eq!(p.class(1), CoreClass::Nic);
    assert_eq!(p.class(2), CoreClass::Host);
    assert_eq!(p.core_ref(0).freq_hz(), 800_000_000);
    assert_eq!(p.core_ref(4).freq_hz(), 2_100_000_000);
}

#[test]
fn busy_cycles_split_by_class() {
    let mut p = CorePool::heterogeneous(&[
        (CoreClass::Nic, 1, 800_000_000),
        (CoreClass::Host, 1, 2_100_000_000),
    ]);
    p.core(0).run(SimTime::ZERO, 500);
    p.core(1).run(SimTime::ZERO, 2000);
    assert_eq!(p.busy_cycles_by_class(CoreClass::Nic), 500);
    assert_eq!(p.busy_cycles_by_class(CoreClass::Host), 2000);
}

#[test]
fn nic_core_is_slower_per_cycle() {
    let mut p = CorePool::heterogeneous(&[
        (CoreClass::Nic, 1, 800_000_000),
        (CoreClass::Host, 1, 2_100_000_000),
    ]);
    let (_, nic_end) = p.core(0).run(SimTime::ZERO, 10_000);
    let (_, host_end) = p.core(1).run(SimTime::ZERO, 10_000);
    assert!(
        nic_end > host_end,
        "same work takes longer on the wimpy core"
    );
}

#[test]
fn crossing_sweep_is_monotone_in_cycles() {
    let mut prev = 0;
    for c in [40u64, 80, 400, 1400, 4000] {
        let x = Crossing::new(tas_cpusim::CrossingKind::Wrpkru, c);
        assert!(x.cycles > prev);
        prev = x.cycles;
    }
}

#[test]
fn pcie_round_trip_dominated_by_latency_for_small_messages() {
    let p = PcieModel::gen3_x8();
    let rt = p.round_trip(64);
    assert!(rt >= p.latency + p.latency);
    assert!(rt < p.latency + p.latency + SimTime::from_us(1));
}
