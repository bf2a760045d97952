//! TAS configuration and fast-path cost constants.

use tas_sim::SimTime;

/// Which application API the user-space stack presents (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApiKind {
    /// POSIX sockets emulation ("TAS SO" in Fig. 8).
    Sockets,
    /// The IX-like low-level context-queue API ("TAS LL").
    LowLevel,
}

/// Congestion-control policy run by the slow path (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CcAlgo {
    /// Rate-based DCTCP (the paper's default: control law applied to rates).
    DctcpRate,
    /// TIMELY (RTT-gradient), adapted for TCP with slow start.
    Timely,
    /// No enforcement: buckets unlimited, flow control by TCP window only.
    /// Used by CPU-bound microbenchmarks where the network is never the
    /// bottleneck (documented in DESIGN.md).
    None,
}

/// Per-operation cycle/instruction costs of the TAS fast path and libTAS,
/// calibrated so the key-value workload reproduces the TAS columns of the
/// paper's Tables 1–2 (≈0.09 kc driver, 0.81 kc TCP, 0.62 kc sockets per
/// request at 3.9 ki and CPI 0.66).
#[derive(Clone, Copy, Debug)]
pub struct TasCosts {
    /// Driver cost per received packet (poll-mode RX descriptor handling).
    pub drv_rx: u64,
    /// Driver cost per transmitted packet.
    pub drv_tx: u64,
    /// Fast-path TCP processing per received data segment.
    pub tcp_rx_data: u64,
    /// Fast-path TCP processing per received pure ACK.
    pub tcp_rx_ack: u64,
    /// Fast-path ACK generation.
    pub tcp_ack_gen: u64,
    /// Fast-path segment build + send per transmitted data segment.
    pub tcp_tx_seg: u64,
    /// Fast-path handling of one context-queue TX command.
    pub tcp_tx_cmd: u64,
    /// Sockets API: epoll-style poll returning one event.
    pub so_poll: u64,
    /// Sockets API: one recv() including copy-out.
    pub so_recv: u64,
    /// Sockets API: one send() including copy-in.
    pub so_send: u64,
    /// Low-level API: poll/recv/send each (context-queue direct).
    pub ll_op: u64,
    /// Slow-path processing per connection-control leg (SYN, SYN-ACK,
    /// final ACK, FIN, ...): port allocation, state install, queueing.
    pub sp_conn_op: u64,
    /// App-side cost per connection-control call (connect/accept/close
    /// through the slow-path context queue).
    pub so_conn_op: u64,
    /// Fast-path handling of an RX-bump (read-pointer update) command.
    pub rx_bump: u64,
    /// Instructions per cycle the fast path retires (TAS measures 0.66 CPI
    /// → ~1.5 IPC); used to derive instruction counts from cycle charges.
    pub ipc_times_100: u64,
    /// Cycles to wake a blocked fast-path core (kernel eventfd notify).
    pub wake_cycles: u64,
}

/// The calibrated fast-path and libTAS costs every TAS host charges.
pub const COSTS: TasCosts = TasCosts {
    drv_rx: 35,
    drv_tx: 28,
    tcp_rx_data: 255,
    tcp_rx_ack: 150,
    tcp_ack_gen: 95,
    tcp_tx_seg: 225,
    tcp_tx_cmd: 85,
    so_poll: 150,
    so_recv: 200,
    so_send: 270,
    ll_op: 56,
    sp_conn_op: 900,
    so_conn_op: 450,
    rx_bump: 40,
    ipc_times_100: 152,
    wake_cycles: 6_000,
};

impl Default for TasCosts {
    fn default() -> Self {
        COSTS
    }
}

/// MSS for segmentation (1500 MTU − 40 TCP/IP − 12 timestamps).
pub const MSS: u32 = 1448;

/// Configuration of a TAS host.
#[derive(Clone, Debug)]
pub struct TasConfig {
    /// Clock frequency of all cores (the paper's server: 2.1 GHz).
    pub freq_hz: u64,
    /// Maximum number of fast-path cores (threads are created for all of
    /// them; idle ones block).
    pub max_fp_cores: usize,
    /// Initially active fast-path cores.
    pub initial_fp_cores: usize,
    /// Number of application cores (= app contexts).
    pub app_cores: usize,
    /// Application API flavour.
    pub api: ApiKind,
    /// Per-flow receive payload buffer size (fixed at connection setup —
    /// a documented TAS limitation, §4.1).
    pub rx_buf: usize,
    /// Per-flow transmit payload buffer size.
    pub tx_buf: usize,
    /// Congestion-control policy.
    pub cc: CcAlgo,
    /// Slow-path control-loop interval τ (the paper defaults to 2 RTTs;
    /// Fig. 11 sweeps it).
    pub control_interval: SimTime,
    /// Control intervals with stalled unacked data before the slow path
    /// triggers a retransmission (paper default: 2).
    pub stall_intervals_for_rexmit: u32,
    /// Enable the proportionality controller (off = fixed core count, as
    /// in the fixed-allocation benchmarks).
    pub proportional: bool,
    /// Initial flow rate out of slow start.
    pub initial_rate_bps: u64,
    /// Bound on fast-path dispatch backlog per core; packets arriving when
    /// the core is further behind than this are dropped (models a finite
    /// RX descriptor ring).
    pub max_core_backlog: SimTime,
    /// Track one out-of-order interval in the fast path (§3.1). Disabled
    /// = pure go-back-N ("TAS simple recovery" in Fig. 7).
    pub ooo_rx: bool,
    /// Cache lines of flow state touched per request (102-byte state = 2).
    pub cache_lines_per_req: u64,
}

impl Default for TasConfig {
    fn default() -> Self {
        TasConfig {
            freq_hz: 2_100_000_000,
            max_fp_cores: 4,
            initial_fp_cores: 1,
            app_cores: 1,
            api: ApiKind::Sockets,
            rx_buf: 16 * 1024,
            tx_buf: 16 * 1024,
            cc: CcAlgo::DctcpRate,
            control_interval: SimTime::from_us(200),
            stall_intervals_for_rexmit: 2,
            proportional: false,
            initial_rate_bps: 1_000_000_000,
            max_core_backlog: SimTime::from_us(500),
            ooo_rx: true,
            cache_lines_per_req: 2,
        }
    }
}

impl TasConfig {
    /// A configuration for CPU-bound RPC microbenchmarks: fixed fast-path
    /// cores, no rate enforcement, small per-flow buffers.
    pub fn rpc_bench(fp_cores: usize, app_cores: usize) -> Self {
        TasConfig {
            max_fp_cores: fp_cores,
            initial_fp_cores: fp_cores,
            app_cores,
            cc: CcAlgo::None,
            rx_buf: 4096,
            tx_buf: 4096,
            ..TasConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reproduces_table1_tas_column() {
        // Per KV request the fast path sees: 1 data RX, 1 pure-ACK RX,
        // 1 ACK gen, 1 TX command, 1 data TX (+2 driver ops).
        let c = TasCosts::default();
        let driver = c.drv_rx * 2 + c.drv_tx * 2;
        let tcp = c.tcp_rx_data + c.tcp_rx_ack + c.tcp_ack_gen + c.tcp_tx_cmd + c.tcp_tx_seg;
        let sockets = c.so_poll + c.so_recv + c.so_send;
        assert!(
            (80..=140).contains(&driver),
            "driver {driver} ~ 0.09-0.13 kc"
        );
        assert!((750..=900).contains(&tcp), "tcp {tcp} ~ 0.81 kc");
        assert!(
            (580..=680).contains(&sockets),
            "sockets {sockets} ~ 0.62 kc"
        );
    }

    #[test]
    fn ll_api_is_cheaper_than_sockets() {
        let c = TasCosts::default();
        assert!(c.ll_op * 3 < (c.so_poll + c.so_recv + c.so_send) / 2);
    }

    #[test]
    fn default_config_consistent() {
        let c = TasConfig::default();
        assert!(c.initial_fp_cores <= c.max_fp_cores);
        let r = TasConfig::rpc_bench(2, 3);
        assert_eq!(r.initial_fp_cores, 2);
        assert_eq!(r.app_cores, 3);
        assert_eq!(r.cc, CcAlgo::None);
    }
}
