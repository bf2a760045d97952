//! Per-stack cost profiles, calibrated to the paper's Tables 1–2.

use tas_cpusim::{ContentionModel, CycleAccount, Module};

/// Cycle cost of one packet traversal, split by module (Table 1 rows).
#[derive(Clone, Copy, Debug, Default)]
pub struct PktCost {
    /// NIC driver cycles.
    pub driver: u64,
    /// IP layer cycles.
    pub ip: u64,
    /// TCP layer cycles.
    pub tcp: u64,
    /// Other stack work (softirq, skb management, scheduling).
    pub other: u64,
}

impl PktCost {
    /// Total cycles.
    pub fn total(&self) -> u64 {
        self.driver + self.ip + self.tcp + self.other
    }

    /// Charges this cost into a per-module account, deriving instruction
    /// counts from `ipc_times_100`.
    pub fn charge(&self, acct: &mut CycleAccount, ipc_times_100: u64) {
        let i = |c: u64| c * ipc_times_100 / 100;
        acct.charge(Module::Driver, self.driver, i(self.driver));
        acct.charge(Module::Ip, self.ip, i(self.ip));
        acct.charge(Module::Tcp, self.tcp, i(self.tcp));
        acct.charge(Module::Other, self.other, i(self.other));
    }
}

/// A complete stack cost/architecture profile.
#[derive(Clone, Copy, Debug)]
pub struct StackProfile {
    /// Stack name for experiment output.
    pub name: &'static str,
    /// Receiving one data segment.
    pub rx_data: PktCost,
    /// Receiving one pure ACK.
    pub rx_ack: PktCost,
    /// Transmitting one data segment.
    pub tx_data: PktCost,
    /// Transmitting one pure ACK.
    pub tx_ack: PktCost,
    /// API: event-loop return, per event (epoll_wait / event dispatch).
    pub api_poll: u64,
    /// API: one receive call including copy-out.
    pub api_recv: u64,
    /// API: one send call including copy-in.
    pub api_send: u64,
    /// API: connection-control call (connect/accept/close).
    pub api_conn: u64,
    /// Retired instructions per 100 cycles (Table 2 CPI⁻¹).
    pub ipc_times_100: u64,
    /// Per-connection stack state footprint in bytes (tcp_sock + skbs +
    /// socket + epoll item for Linux; IX's leaner but still KB-scale).
    pub conn_state_bytes: u64,
    /// Distinct state cache lines touched per request.
    pub lines_per_req: u64,
    /// Stall cycles per missed line.
    pub miss_penalty: f64,
    /// Whether connection state (and therefore the cache working set) is
    /// partitioned per core (IX/mTCP) or shared machine-wide (Linux).
    pub partitioned_state: bool,
    /// Lock/coherence cost for shared state.
    pub contention: ContentionModel,
}

/// The Linux in-kernel stack model (Table 1: 0.73/1.53/3.92/8.0/1.5 kc).
pub fn linux() -> StackProfile {
    StackProfile {
        name: "linux",
        rx_data: PktCost {
            driver: 200,
            ip: 450,
            tcp: 1400,
            other: 400,
        },
        rx_ack: PktCost {
            driver: 120,
            ip: 250,
            tcp: 700,
            other: 200,
        },
        tx_data: PktCost {
            driver: 250,
            ip: 500,
            tcp: 1300,
            other: 500,
        },
        tx_ack: PktCost {
            driver: 160,
            ip: 330,
            tcp: 520,
            other: 400,
        },
        api_poll: 1800,
        api_recv: 2800,
        api_send: 3400,
        api_conn: 6000,
        ipc_times_100: 76, // CPI 1.32.
        conn_state_bytes: 2048,
        lines_per_req: 30,
        miss_penalty: 220.0,
        partitioned_state: false,
        contention: ContentionModel::new(250.0, 140.0),
    }
}

/// The IX protected-kernel-bypass model (Table 1: 0.05/0.12/1.05/0.76 kc).
pub fn ix() -> StackProfile {
    StackProfile {
        name: "ix",
        rx_data: PktCost {
            driver: 15,
            ip: 40,
            tcp: 380,
            other: 0,
        },
        rx_ack: PktCost {
            driver: 8,
            ip: 15,
            tcp: 160,
            other: 0,
        },
        tx_data: PktCost {
            driver: 15,
            ip: 40,
            tcp: 330,
            other: 0,
        },
        tx_ack: PktCost {
            driver: 12,
            ip: 25,
            tcp: 180,
            other: 0,
        },
        api_poll: 260,
        api_recv: 230,
        api_send: 270,
        api_conn: 1500,
        ipc_times_100: 122, // CPI 0.82.
        conn_state_bytes: 1024,
        lines_per_req: 18,
        miss_penalty: 230.0,
        partitioned_state: true,
        contention: ContentionModel::none(),
    }
}

/// The mTCP user-level stack model (costs between Linux and IX; its
/// defining property is the batched split threading model).
pub fn mtcp() -> StackProfile {
    StackProfile {
        name: "mtcp",
        rx_data: PktCost {
            driver: 25,
            ip: 60,
            tcp: 560,
            other: 60,
        },
        rx_ack: PktCost {
            driver: 12,
            ip: 25,
            tcp: 240,
            other: 30,
        },
        tx_data: PktCost {
            driver: 25,
            ip: 60,
            tcp: 500,
            other: 60,
        },
        tx_ack: PktCost {
            driver: 15,
            ip: 35,
            tcp: 260,
            other: 30,
        },
        api_poll: 380,
        api_recv: 340,
        api_send: 400,
        api_conn: 2500,
        ipc_times_100: 110,
        conn_state_bytes: 1280,
        lines_per_req: 20,
        miss_penalty: 230.0,
        partitioned_state: true,
        contention: ContentionModel::none(),
    }
}

/// The MPK-protected dataplane model ("Protected Data Plane OS Using
/// Memory Protection Keys"): the packet-processing code is Linux-grade —
/// same per-packet module costs, same kilobyte-scale connection state —
/// but it runs inside an intra-process protection domain, so the
/// syscall-entry component (~a [`tas_cpusim::Crossing::context_switch`]
/// per call) drops out of every API constant and is replaced by the
/// WRPKRU crossing the thread model charges explicitly. State is
/// partitioned per core, leaving only an atomic-handoff residue of the
/// Linux contention cost.
pub fn mpk() -> StackProfile {
    let l = linux();
    let ctxsw = tas_cpusim::Crossing::context_switch().cycles;
    StackProfile {
        name: "mpk",
        api_poll: l.api_poll - ctxsw,
        api_recv: l.api_recv - ctxsw,
        api_send: l.api_send - ctxsw,
        api_conn: l.api_conn - 2 * ctxsw, // connect/accept enter twice
        partitioned_state: true,
        contention: ContentionModel::new(60.0, 30.0),
        ..l
    }
}

/// The PnO-style off-path SmartNIC model ("Plug & Offload"): a lean
/// user-level TCP stack (mTCP-class per-packet costs) runs entirely on
/// the NIC's wimpy cores, so host-side API constants shrink to a
/// descriptor shim (post/poll a DMA ring, copy payload). The price is
/// paid elsewhere: NIC cores clock ~2.6x slower and every interaction
/// crosses the PCIe boundary the thread model charges.
pub fn pno() -> StackProfile {
    let m = mtcp();
    StackProfile {
        name: "pno",
        // Slightly above mTCP's TCP costs: the offload firmware carries
        // extra descriptor/DMA bookkeeping per segment.
        rx_data: PktCost {
            tcp: 620,
            ..m.rx_data
        },
        rx_ack: PktCost {
            tcp: 270,
            ..m.rx_ack
        },
        tx_data: PktCost {
            tcp: 560,
            ..m.tx_data
        },
        tx_ack: PktCost {
            tcp: 290,
            ..m.tx_ack
        },
        api_poll: 150,
        api_recv: 250,
        api_send: 300,
        api_conn: 1200,
        ipc_times_100: 95,   // in-order-ish ARM cores.
        miss_penalty: 300.0, // NIC DRAM is slower than host DDR.
        partitioned_state: true,
        contention: ContentionModel::none(),
        ..m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linux_matches_table1_columns() {
        let p = linux();
        // Per KV request: rx data + tx ack + tx data + rx ack.
        let driver = p.rx_data.driver + p.rx_ack.driver + p.tx_data.driver + p.tx_ack.driver;
        let ip = p.rx_data.ip + p.rx_ack.ip + p.tx_data.ip + p.tx_ack.ip;
        let tcp = p.rx_data.tcp + p.rx_ack.tcp + p.tx_data.tcp + p.tx_ack.tcp;
        let other = p.rx_data.other + p.rx_ack.other + p.tx_data.other + p.tx_ack.other;
        let sockets = p.api_poll + p.api_recv + p.api_send;
        assert_eq!(driver, 730); // Table 1: 0.73 kc.
        assert_eq!(ip, 1530); // 1.53 kc.
        assert_eq!(tcp, 3920); // 3.92 kc.
        assert_eq!(other, 1500); // 1.5 kc.
        assert_eq!(sockets, 8000); // 8.0 kc.
    }

    #[test]
    fn ix_matches_table1_columns() {
        let p = ix();
        let driver = p.rx_data.driver + p.rx_ack.driver + p.tx_data.driver + p.tx_ack.driver;
        let ip = p.rx_data.ip + p.rx_ack.ip + p.tx_data.ip + p.tx_ack.ip;
        let tcp = p.rx_data.tcp + p.rx_ack.tcp + p.tx_data.tcp + p.tx_ack.tcp;
        let api = p.api_poll + p.api_recv + p.api_send;
        assert_eq!(driver, 50); // 0.05 kc.
        assert_eq!(ip, 120); // 0.12 kc.
        assert_eq!(tcp, 1050); // 1.05 kc.
        assert_eq!(api, 760); // 0.76 kc.
    }

    #[test]
    fn relative_ordering_linux_worst() {
        let l = linux();
        let i = ix();
        let m = mtcp();
        let per_req = |p: &StackProfile| {
            p.rx_data.total()
                + p.rx_ack.total()
                + p.tx_data.total()
                + p.tx_ack.total()
                + p.api_poll
                + p.api_recv
                + p.api_send
        };
        assert!(per_req(&l) > per_req(&m), "linux > mtcp");
        assert!(per_req(&m) > per_req(&i), "mtcp > ix");
    }

    #[test]
    fn mpk_is_linux_minus_the_kernel_entry() {
        let l = linux();
        let m = mpk();
        // Identical packet-processing costs (the dataplane code is the
        // same); only the API boundary got cheaper.
        assert_eq!(m.rx_data.total(), l.rx_data.total());
        assert_eq!(m.tx_data.total(), l.tx_data.total());
        assert_eq!(m.conn_state_bytes, l.conn_state_bytes);
        assert!(m.api_recv < l.api_recv);
        assert!(m.api_send < l.api_send);
        assert!(m.partitioned_state);
        // Even with the explicit WRPKRU crossing added back, an API
        // call stays far below the syscall version.
        let wrpkru = tas_cpusim::Crossing::wrpkru().cycles;
        assert!(m.api_send + wrpkru < l.api_send);
    }

    #[test]
    fn pno_host_api_is_a_thin_shim() {
        let p = pno();
        let l = linux();
        // Host-side per-request API work is an order below Linux.
        let shim = p.api_poll + p.api_recv + p.api_send;
        let sockets = l.api_poll + l.api_recv + l.api_send;
        assert!(shim * 10 < sockets, "{shim} vs {sockets}");
        // NIC-side packet costs are lean (user-level stack class), not
        // Linux class.
        assert!(p.rx_data.total() < l.rx_data.total() / 2);
        assert!(p.partitioned_state);
    }

    #[test]
    fn charge_splits_modules() {
        let mut acct = CycleAccount::new();
        linux().rx_data.charge(&mut acct, 76);
        assert_eq!(acct.cycles(Module::Tcp), 1400);
        assert_eq!(acct.cycles(Module::Ip), 450);
        assert!(acct.instructions(Module::Tcp) < 1400, "CPI > 1 for Linux");
    }
}
