//! One view over both host types.
//!
//! `TasHost` and `StackHost` expose the same harness observables under
//! different names; [`Host`] is that common surface, and [`host`],
//! [`host_mut`], [`app`] and [`app_mut`] find the concrete type behind
//! an agent id themselves (the app side is one [`HostedApp`] on both).
//! Harness code therefore never needs to know which stack a host runs:
//! [`crate::Kind`] only decides what [`crate::HostCfg::new`] configures.

use std::ops::DerefMut;
use tas::TasHost;
use tas_baselines::StackHost;
use tas_cpusim::{CoreClass, CycleAccount};
use tas_netsim::runtime::HostedApp;
use tas_netsim::NetMsg;
use tas_sim::{AgentId, Registry, Scope, Sim, Snapshot};

/// What the harnesses read from (and switch on in) a host, whichever
/// stack it runs; it dereferences to its application ([`HostedApp`]).
pub trait Host: DerefMut<Target = HostedApp> {
    /// Cycle/instruction account (Tables 1–2).
    fn account(&self) -> &CycleAccount;
    /// The host's metric registry, with its 1 ms series (per-core
    /// utilization is `<label>.util{core=i}`, labelled like [`Host::busy`]).
    fn registry(&self) -> &Registry;
    /// Connections established since creation.
    fn established(&self) -> u64;
    /// Exact busy cycles per core since creation, labelled like the
    /// profiler's core labels (`fp0`, `sp0`, `app0`, … or `core0`, …) so
    /// captures can be checked for exact conservation.
    fn busy(&self) -> Vec<(String, u64)>;
    /// Busy cycles on *host-class* cores. Differs from the sum of
    /// [`Host::busy`] only for the off-path SmartNIC model, whose NIC
    /// cores run the TCP stack, so the value is directly comparable
    /// across stacks (the paper's "host CPU per request").
    fn host_cycles(&self) -> u64;
    /// Segments handled so far (rx + tx).
    fn packets(&self) -> u64;
    /// Every counter and gauge the host can see, as one snapshot whose
    /// rendering is a pure function of the run.
    fn telemetry_snapshot(&self) -> Snapshot;

    /// Backlog drops at the host's NIC.
    fn drops(&self) -> u64 {
        self.registry()
            .counter_value("host.drop_backlog", Scope::Global)
    }
}

fn labelled(prefix: &str, cycles: Vec<u64>) -> impl Iterator<Item = (String, u64)> + '_ {
    cycles
        .into_iter()
        .enumerate()
        .map(move |(i, c)| (format!("{prefix}{i}"), c))
}

impl Host for TasHost {
    fn account(&self) -> &CycleAccount {
        TasHost::account(self)
    }
    fn registry(&self) -> &Registry {
        TasHost::registry(self)
    }
    fn established(&self) -> u64 {
        self.sp_stats().established
    }
    fn busy(&self) -> Vec<(String, u64)> {
        labelled("fp", self.fp_busy_cycles())
            .chain([("sp0".to_string(), self.sp_busy_cycles())])
            .chain(labelled("app", self.app_busy_cycles()))
            .collect()
    }
    fn host_cycles(&self) -> u64 {
        // Fast-path, slow-path and app cores are all host silicon.
        let (fp, app) = (self.fp_busy_cycles(), self.app_busy_cycles());
        fp.iter().chain(&app).sum::<u64>() + self.sp_busy_cycles()
    }
    fn packets(&self) -> u64 {
        let fp = self.fp_stats();
        fp.pkts_rx + fp.segs_tx + fp.acks_tx
    }
    fn telemetry_snapshot(&self) -> Snapshot {
        TasHost::telemetry_snapshot(self)
    }
}

impl Host for StackHost {
    fn account(&self) -> &CycleAccount {
        StackHost::account(self)
    }
    fn registry(&self) -> &Registry {
        StackHost::registry(self)
    }
    fn established(&self) -> u64 {
        StackHost::registry(self).counter_value("host.established", Scope::Global)
    }
    fn busy(&self) -> Vec<(String, u64)> {
        labelled("core", self.busy_cycles()).collect()
    }
    fn host_cycles(&self) -> u64 {
        self.busy_cycles_by_class(CoreClass::Host)
    }
    fn packets(&self) -> u64 {
        let t = self.tcp_stats();
        t.segs_in + t.segs_out
    }
    fn telemetry_snapshot(&self) -> Snapshot {
        StackHost::telemetry_snapshot(self)
    }
}

/// The host behind `id`, whichever stack it runs.
///
/// # Panics
///
/// Panics if `id` is neither a `TasHost` nor a `StackHost`.
pub fn host(sim: &Sim<NetMsg>, id: AgentId) -> &dyn Host {
    match sim.try_agent::<TasHost>(id) {
        Some(h) => h,
        None => sim.agent::<StackHost>(id),
    }
}

/// Mutable form of [`host`].
pub fn host_mut(sim: &mut Sim<NetMsg>, id: AgentId) -> &mut dyn Host {
    if sim.try_agent::<TasHost>(id).is_some() {
        sim.agent_mut::<TasHost>(id)
    } else {
        sim.agent_mut::<StackHost>(id)
    }
}

/// The application running on host `id`, downcast to `T`.
///
/// # Panics
///
/// Panics if `id` is not a host or its application is not a `T`.
pub fn app<T: 'static>(sim: &Sim<NetMsg>, id: AgentId) -> &T {
    host(sim, id).app_as()
}

/// Mutable form of [`app`].
pub fn app_mut<T: 'static>(sim: &mut Sim<NetMsg>, id: AgentId) -> &mut T {
    host_mut(sim, id).app_as_mut()
}
