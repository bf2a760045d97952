//! Per-flow fast-path state (paper Table 3) and the flow table.
//!
//! The state is decomposed into the same five components as the
//! reference TCP engine (DESIGN.md §16), one module each: [`FpConnMgmt`]
//! (`conn`), [`FpSendRel`] (`snd`), [`FpRecvRel`] (`rcv`), [`FpFlowCtrl`]
//! (`fc`) and [`FpCongCtrl`] (`cc`). A component's state is private to
//! its module — reads by getter, writes by the component's `&mut self`
//! methods — so a foreign write is a compile error here and in every
//! downstream crate. Those methods are whole protocol steps, not
//! setters: a step that touches one component lives in it
//! ([`FpRecvRel::place`] is the worked example), and the orchestrator in
//! `fastpath.rs` holds one `&mut FlowState` per packet and only sequences
//! components. What reads several components — here, the one header
//! builder [`FlowState::segment`] — sits on the aggregate. Two things
//! stay `pub`: the five slots of
//! [`FlowState`] (harnesses build the aggregate literally from the
//! components' `new` constructors) and the payload rings
//! [`FpSendRel::tx`] / [`FpRecvRel::rx`], which are the shared-memory
//! surface the application writes and reads without entering TAS.
#![cfg_attr(
    not(test),
    deny(
        unsafe_code,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod congctrl;
mod flowctrl;
mod mgmt;
mod recv;
mod send;

pub use congctrl::{FpCongCtrl, RateBucket};
pub use flowctrl::FpFlowCtrl;
pub use mgmt::FpConnMgmt;
pub use recv::{FpRecvRel, Placed};
pub use send::FpSendRel;

use std::net::Ipv4Addr;
use tas_proto::{FlowIndex, FlowKey, MacAddr, PayloadBuf, Segment, Seq, Slab, TcpFlags, TcpHeader};
use tas_sim::SimTime;

/// TAS's receive window scale shift (negotiated by the slow path).
pub const TAS_WSCALE: u8 = 7;

/// The architectural per-flow fast-path state, mirroring the paper's
/// Table 3 field-for-field. The paper counts 102 bytes; this constant is
/// computed from the same field widths and asserted in tests — it is what
/// the cache model multiplies by the connection count.
pub const FLOW_STATE_BYTES: u64 = {
    // Field widths in bits, straight from Table 3.
    let bits = 64   // opaque
        + 16        // context
        + 24        // bucket
        + 128       // rx|tx_start
        + 64        // rx|tx_size
        + 128       // rx|tx_head|tail
        + 32        // tx_sent
        + 32        // seq
        + 32        // ack
        + 16        // window
        + 4         // dupack_cnt
        + 16        // local_port
        + 96        // peer_ip|port|mac
        + 64        // ooo_start|len
        + 64        // cnt_ackb|ecnb
        + 8         // cnt_frexmits
        + 32; // rtt_est
              // 820 bits = 102.5 bytes; the paper reports 102 (the 4-bit dupack
              // counter packs into the window word's slack).
    bits / 8
};

/// Operational per-flow state.
///
/// The protocol fields correspond 1:1 to Table 3, grouped by owning
/// component; the payload rings own the `rx|tx_start/size/head/tail`
/// geometry (a [`tas_shm::ByteRing`] *is* that buffer — its
/// `start_offset`/`end_offset` are the head/tail fields), and a few
/// simulation-only fields (pacing-timer arming, `max_sent_off`) are kept
/// outside the architectural byte count. The slow path's per-flow
/// control-law and stall-detector state lives in the slow path.
///
/// Component state changes only through the owning component's methods:
///
/// ```
/// fn sent(flow: &mut tas::flow::FlowState, n: u64) -> u64 {
///     flow.snd.note_sent(n);
///     flow.snd.tx_sent()
/// }
/// ```
///
/// ```compile_fail,E0616
/// fn sent(flow: &mut tas::flow::FlowState, n: u64) {
///     flow.snd.tx_sent += n; // private field: only `FpSendRel` writes it
/// }
/// ```
#[derive(Debug)]
pub struct FlowState {
    /// Connection management (identity, timestamps, lifecycle).
    pub conn: FpConnMgmt,
    /// Send reliability (tx ring, in-flight, recovery, pacing timer).
    pub snd: FpSendRel,
    /// Receive reliability (rx ring, out-of-order interval).
    pub rcv: FpRecvRel,
    /// Flow control (peer window, window updates).
    pub fc: FpFlowCtrl,
    /// Congestion control (bucket, feedback counters).
    pub cc: FpCongCtrl,
}

// The operational per-flow footprint the fast path touches: slow-path
// state must not creep back in, and each cut toward Table 3's 102 B
// tightens this bound.
const _: () = assert!(std::mem::size_of::<FlowState>() <= 216);

impl FlowState {
    /// Local sequence number for an absolute TX stream offset.
    pub fn seq_of(&self, off: u64) -> Seq {
        self.snd.iss() + 1 + off as u32
    }

    /// Peer sequence number for an absolute RX stream offset.
    pub fn rcv_seq_of(&self, off: u64) -> Seq {
        self.rcv.irs() + 1 + off as u32
    }

    /// Absolute TX offset of the next unsent byte.
    pub fn nxt_off(&self) -> u64 {
        self.snd.nxt_off()
    }

    /// Receive window to advertise (free in-order buffer space).
    pub fn adv_window(&self) -> u64 {
        // Space past the committed frontier, minus the staged OOO interval.
        (self.rcv.rx.free() as u64).saturating_sub(self.rcv.ooo_len() as u64)
    }

    /// Builds a segment of this flow at the send frontier — the one place
    /// a fast-path header is assembled. Ports, addresses, sequence,
    /// cumulative ACK, advertised window, timestamp echo and the
    /// DCTCP-accurate per-packet ECN echo come from the flow; the caller
    /// supplies flags, payload and whether the packet is ECT(0).
    pub fn segment(
        &self,
        now: SimTime,
        local_ip: Ipv4Addr,
        local_mac: MacAddr,
        mut flags: TcpFlags,
        payload: PayloadBuf,
        ect: bool,
    ) -> Segment {
        let key = self.conn.key();
        if self.cc.last_seg_ce() {
            flags |= TcpFlags::ECE;
        }
        let mut h = TcpHeader::new(
            key.local_port,
            key.remote_port,
            self.seq_of(self.nxt_off()).0,
            self.rcv_seq_of(self.rcv.rx.end_offset()).0,
            flags,
        );
        h.window = (self.adv_window() >> TAS_WSCALE).min(u16::MAX as u64) as u16;
        h.options.timestamp = Some((now.as_micros() as u32, self.conn.ts_recent()));
        let peer_mac = self.conn.peer_mac();
        Segment::tcp(
            local_mac,
            peer_mac,
            local_ip,
            key.remote_ip,
            h,
            payload,
            ect,
        )
    }
}

/// The fast path's flow table: a [`Slab`] arena of per-flow state plus a
/// [`FlowIndex`] 4-tuple index.
///
/// Flow ids are dense slab slot indices — the per-packet path resolves a
/// 4-tuple to an id once (word-wise hash, open addressing) and all
/// further state access is a direct slot dereference. Freed slots recycle
/// LIFO, so id assignment is deterministic run-to-run.
#[derive(Debug, Default)]
pub struct FlowTable {
    slots: Slab<FlowState>,
    index: FlowIndex,
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of installed flows.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no flows are installed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Installs a flow, returning its id.
    ///
    /// Installing a key twice is a slow-path bug; debug/audit builds
    /// assert, release builds overwrite the index entry and keep going.
    pub fn insert(&mut self, flow: FlowState) -> u32 {
        let key = flow.conn.key();
        let id = self.slots.insert(flow);
        let prev = self.index.insert(key, id);
        debug_assert!(prev.is_none(), "flow {key} already installed");
        id
    }

    /// Looks up a flow id by 4-tuple.
    #[inline(always)]
    pub fn lookup(&self, key: &FlowKey) -> Option<u32> {
        self.index.get(key)
    }

    /// Accesses a flow by id.
    pub fn get(&self, id: u32) -> Option<&FlowState> {
        self.slots.get(id)
    }

    /// Mutably accesses a flow by id.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut FlowState> {
        self.slots.get_mut(id)
    }

    /// Removes a flow, returning its state.
    pub fn remove(&mut self, id: u32) -> Option<FlowState> {
        let flow = self.slots.remove(id)?;
        self.index.remove(&flow.conn.key());
        Some(flow)
    }

    /// Iterates over (id, flow) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &FlowState)> {
        self.slots.iter()
    }

    /// Iterates over (id, flow) pairs, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut FlowState)> {
        self.slots.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tas_shm::ByteRing;

    #[test]
    fn table3_state_is_102_bytes() {
        // The paper: "In all, we require 102 bytes of per-flow state."
        // (Computed from Table 3 field widths; read back through a
        // function so the comparison is a real runtime check.)
        let bytes = std::hint::black_box(FLOW_STATE_BYTES);
        assert_eq!(bytes, 102);
    }

    #[test]
    fn paper_20k_flows_per_core_claim() {
        // 2 MB of L2/3 per core / 102 bytes > 20,000 flows (paper §3.1).
        let per_core_cache = std::hint::black_box(2u64 << 20);
        assert!(per_core_cache / FLOW_STATE_BYTES > 20_000);
    }

    fn dummy_flow(port: u16) -> FlowState {
        FlowState {
            conn: FpConnMgmt::new(
                port as u64,
                0,
                FlowKey::new(
                    Ipv4Addr::new(10, 0, 0, 1),
                    80,
                    Ipv4Addr::new(10, 0, 0, 2),
                    port,
                ),
                tas_proto::MacAddr::for_host(2),
                0,
            ),
            snd: FpSendRel::new(ByteRing::new(1024), 100),
            rcv: FpRecvRel::new(ByteRing::new(1024), 200),
            fc: FpFlowCtrl::new(1024, 0),
            cc: FpCongCtrl::new(RateBucket::unlimited()),
        }
    }

    #[test]
    fn flow_table_insert_lookup_remove_reuses_slots() {
        let mut t = FlowTable::new();
        let id1 = t.insert(dummy_flow(1000));
        let id2 = t.insert(dummy_flow(1001));
        assert_ne!(id1, id2);
        assert_eq!(t.len(), 2);
        let k = t.get(id1).unwrap().conn.key();
        assert_eq!(t.lookup(&k), Some(id1));
        t.remove(id1);
        assert_eq!(t.lookup(&k), None);
        let id3 = t.insert(dummy_flow(1002));
        assert_eq!(id3, id1, "slot reused");
    }

    #[test]
    fn seq_offset_mapping() {
        let f = dummy_flow(7);
        assert_eq!(f.seq_of(0), Seq(101));
        assert_eq!(f.rcv_seq_of(5), Seq(206));
        assert_eq!(f.nxt_off(), 0);
    }

    #[test]
    fn adv_window_excludes_ooo_interval() {
        let mut f = dummy_flow(7);
        assert_eq!(f.adv_window(), 1024);
        // 100 bytes staged 10 past the frontier (irs 200: offset 0 is 201).
        assert_eq!(f.rcv.place(Seq(211), &[7; 100], true), Placed::Staged);
        assert_eq!(f.adv_window(), 924);
    }
}
