//! Per-module cycle and instruction accounting (paper Tables 1–2).

use tas_sim::{prof_charge, prof_scope};

/// The network-stack modules the paper's Table 1 breaks cycles into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Module {
    /// NIC driver (DPDK poll-mode driver for IX/TAS, kernel driver for Linux).
    Driver = 0,
    /// IP layer processing.
    Ip = 1,
    /// TCP protocol processing.
    Tcp = 2,
    /// The application-facing API layer (POSIX sockets, or IX's event API).
    Api = 3,
    /// Everything else in the stack (softirq bookkeeping, skb management…).
    Other = 4,
    /// Application work.
    App = 5,
}

/// Number of [`Module`] variants.
pub const MODULE_COUNT: usize = 6;

impl Module {
    /// All modules in Table 1 order.
    pub const ALL: [Module; MODULE_COUNT] = [
        Module::Driver,
        Module::Ip,
        Module::Tcp,
        Module::Api,
        Module::Other,
        Module::App,
    ];

    /// Table row label.
    pub fn name(self) -> &'static str {
        match self {
            Module::Driver => "Driver",
            Module::Ip => "IP",
            Module::Tcp => "TCP",
            Module::Api => "Sockets/API",
            Module::Other => "Other",
            Module::App => "App",
        }
    }
}

/// Accumulated cycles and instructions per module.
///
/// Stacks charge into this as they process. The account counts no
/// requests: the Table 1/2 harnesses divide its cycles by the server
/// application's completed messages (`tas_bench::per_request`).
///
/// # Examples
///
/// ```
/// use tas_cpusim::{CycleAccount, Module};
/// let mut acc = CycleAccount::new();
/// acc.charge(Module::Tcp, 810, 1200);
/// assert_eq!(acc.cycles(Module::Tcp), 810);
/// assert_eq!(acc.stack_cycles(), 810);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CycleAccount {
    cycles: [u64; MODULE_COUNT],
    instructions: [u64; MODULE_COUNT],
}

impl CycleAccount {
    /// Creates a zeroed account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `cycles` and `instructions` to `module`.
    pub fn charge(&mut self, module: Module, cycles: u64, instructions: u64) {
        self.cycles[module as usize] += cycles;
        self.instructions[module as usize] += instructions;
    }

    /// Charges one application frame: `api_cycles` of API-layer work (at
    /// the stack's `ipc_times_100`) and `app_cycles` of handler work (at
    /// IPC 1.2). Frames charge through the account rather than a profiled
    /// funnel, so the same split is staged for the cycle profiler — frames
    /// `app/api` and `app/work` — for the app core's next run to drain.
    pub fn charge_app_frame(&mut self, api_cycles: u64, app_cycles: u64, ipc_times_100: u64) {
        prof_scope!("app");
        self.charge(Module::Api, api_cycles, api_cycles * ipc_times_100 / 100);
        prof_charge!(api_cycles, "api");
        self.charge(Module::App, app_cycles, app_cycles * 120 / 100);
        prof_charge!(app_cycles, "work");
    }

    /// Cycles charged to a module.
    pub fn cycles(&self, module: Module) -> u64 {
        self.cycles[module as usize]
    }

    /// Instructions charged to a module.
    pub fn instructions(&self, module: Module) -> u64 {
        self.instructions[module as usize]
    }

    /// Total cycles across all modules.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Total instructions across all modules.
    pub fn total_instructions(&self) -> u64 {
        self.instructions.iter().sum()
    }

    /// Cycles in the stack (everything except [`Module::App`]).
    pub fn stack_cycles(&self) -> u64 {
        self.total_cycles() - self.cycles(Module::App)
    }

    /// Cycles per instruction over everything charged.
    pub fn cpi(&self) -> f64 {
        let i = self.total_instructions();
        if i == 0 {
            0.0
        } else {
            self.total_cycles() as f64 / i as f64
        }
    }

    /// Merges another account into this one.
    pub fn merge(&mut self, other: &CycleAccount) {
        for i in 0..MODULE_COUNT {
            self.cycles[i] += other.cycles[i];
            self.instructions[i] += other.instructions[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_module() {
        let mut a = CycleAccount::new();
        a.charge(Module::Driver, 90, 50);
        a.charge(Module::Driver, 10, 5);
        a.charge(Module::App, 680, 900);
        assert_eq!(a.cycles(Module::Driver), 100);
        assert_eq!(a.instructions(Module::Driver), 55);
        assert_eq!(a.total_cycles(), 780);
        assert_eq!(a.stack_cycles(), 100);
    }

    #[test]
    fn cpi_over_everything_charged() {
        let mut a = CycleAccount::new();
        for _ in 0..4 {
            a.charge(Module::Tcp, 100, 50);
        }
        assert!((a.cpi() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_account_is_zero_not_nan() {
        let a = CycleAccount::new();
        assert_eq!(a.cpi(), 0.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = CycleAccount::new();
        a.charge(Module::Ip, 10, 10);
        let mut b = CycleAccount::new();
        b.charge(Module::Ip, 30, 20);
        a.merge(&b);
        assert_eq!(a.cycles(Module::Ip), 40);
        assert_eq!(a.instructions(Module::Ip), 30);
    }

    #[test]
    fn module_names_match_table1() {
        assert_eq!(Module::Api.name(), "Sockets/API");
        assert_eq!(Module::ALL.len(), MODULE_COUNT);
    }
}
