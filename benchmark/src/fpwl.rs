//! The two direct-drive workloads: `FastPath` fed by this file's loop,
//! no event engine, no network model.

use std::net::Ipv4Addr;
use std::time::Instant;

use tas::fastpath::FastPath;
use tas::flow::{FlowState, FpCongCtrl, FpConnMgmt, FpFlowCtrl, FpRecvRel, FpSendRel, RateBucket};
use tas::TasCosts;
use tas_cpusim::{CycleAccount, Module};
use tas_proto::{FlowKey, MacAddr, Segment, TcpFlags, TcpHeader};
use tas_shm::ByteRing;
use tas_sim::{Histogram, Rng, SimTime};

use crate::measure::{
    counts_delta, fnv, quantile, rss_bytes, time_slices, Checks, Clocked, Counts, Outcome,
    FNV_INIT, SLICES,
};
use crate::Scale;

/// Which direct-drive workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FpKind {
    Rx256k,
    Duplex1k,
}

// Pinned sizes; `*_PER_S` is work per requested second of measurement,
// calibrated once on a 2-core box and never adapted at run time.
const RX_FLOWS: u64 = 262_144;
const RX_RING: usize = 1024;
/// The receive-only flows never send; their transmit ring is a stub.
const RX_TX_RING: usize = 64;
const RX_PKTS_PER_S: u64 = 1_200_000;
const DUPLEX_FLOWS: u64 = 1024;
const DUPLEX_RING: usize = 1024;
const DUPLEX_ITERS_PER_S: u64 = 3_200_000;
const PAYLOAD: usize = 64;
const DATA: [u8; PAYLOAD] = [0xa5; PAYLOAD];

const LOCAL_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const ISS: u32 = 100;
const IRS: u32 = 1_000;
/// Calls per batch for the traced per-call latency distribution.
const BATCH: u64 = 256;

fn flow_key(i: usize) -> FlowKey {
    FlowKey::new(
        LOCAL_IP,
        80,
        Ipv4Addr::new(10, (i >> 16) as u8 + 1, (i >> 8) as u8, i as u8),
        7777,
    )
}

/// An installed, warmed fast path plus the driver's per-flow cursors.
pub struct FpBed {
    fp: FastPath,
    fids: Vec<u32>,
    /// Bytes injected toward each flow so far.
    rx_off: Vec<u64>,
    /// Bytes each flow has sent and had acknowledged so far.
    tx_off: Vec<u64>,
    acct: CycleAccount,
    /// Driver clock: one simulated microsecond per iteration.
    now_us: u64,
    /// Resident bytes the install added, per flow.
    pub bytes_per_flow: f64,
}

/// Per-call host time, accumulated only in traced runs.
#[derive(Default)]
struct CallClock {
    rx_ns: u64,
    rx_calls: u64,
    tx_ns: u64,
    tx_calls: u64,
    batch_ns: u64,
    batches: Vec<f64>,
}

impl CallClock {
    fn rx(&mut self, ns: u64) {
        self.rx_ns += ns;
        self.rx_calls += 1;
        self.batch_ns += ns;
        if self.rx_calls.is_multiple_of(BATCH) {
            self.batches.push(self.batch_ns as f64 / BATCH as f64);
            self.batch_ns = 0;
        }
    }

    fn tx(&mut self, ns: u64) {
        self.tx_ns += ns;
        self.tx_calls += 1;
    }
}

/// Runs one fast-path entry point; traced runs also hand the host ns it
/// took to `record`.
fn timed<const TRACED: bool>(call: impl FnOnce() -> u64, record: impl FnOnce(u64)) {
    if TRACED {
        let t0 = Instant::now();
        call();
        record(t0.elapsed().as_nanos() as u64);
    } else {
        call();
    }
}

impl FpBed {
    fn now(&self) -> SimTime {
        SimTime::from_us(self.now_us)
    }

    fn header(&self, i: usize, flags: TcpFlags) -> TcpHeader {
        let mut h = TcpHeader::new(
            7777,
            80,
            IRS.wrapping_add(1).wrapping_add(self.rx_off[i] as u32),
            ISS.wrapping_add(1).wrapping_add(self.tx_off[i] as u32),
            flags,
        );
        h.window = 60_000;
        h.options.timestamp = Some((self.now_us as u32, 0));
        h
    }

    fn segment(&self, i: usize, flags: TcpFlags, payload: &[u8]) -> Segment {
        let key = flow_key(i);
        Segment::tcp(
            MacAddr::for_host(2),
            MacAddr::for_host(1),
            key.remote_ip,
            key.local_ip,
            self.header(i, flags),
            payload,
            true,
        )
    }

    fn clear_out(&mut self) {
        // clear(), not take(): the staging vectors keep their capacity.
        self.fp.out.packets.clear();
        self.fp.out.notices.clear();
        self.fp.out.exceptions.clear();
        self.fp.out.tx_timers.clear();
    }

    /// In-order data arrives on flow `i`; the application reads it all.
    fn rx_data<const TRACED: bool>(&mut self, i: usize, clock: &mut CallClock) {
        let seg = self.segment(i, TcpFlags::ACK | TcpFlags::PSH, &DATA);
        let now = self.now();
        timed::<TRACED>(
            || self.fp.rx_segment(now, seg, &mut self.acct),
            |ns| clock.rx(ns),
        );
        self.rx_off[i] += PAYLOAD as u64;
        self.clear_out();
        if let Some(flow) = self.fp.flows.get_mut(self.fids[i]) {
            let n = flow.rcv.rx.len() as u64;
            // A failed consume leaves bytes behind; the final ring check
            // counts it.
            let _ = flow.rcv.rx.consume(n);
        }
    }

    /// The application answers on flow `i` and the peer acknowledges:
    /// read-pointer bump, 64 B appended to the send ring, TX command,
    /// then the pure ACK for the segment that left.
    fn tx_reply<const TRACED: bool>(&mut self, i: usize, clock: &mut CallClock) {
        let fid = self.fids[i];
        let now = self.now();
        self.fp.rx_bump(now, fid, &mut self.acct);
        if let Some(flow) = self.fp.flows.get_mut(fid) {
            let _ = flow.snd.tx.append(&DATA);
        }
        timed::<TRACED>(
            || self.fp.tx_command(now, fid, &mut self.acct),
            |ns| clock.tx(ns),
        );
        // Only a segment that really left advances the peer's ACK; a
        // refused send shows up in the final cursor check.
        if self.fp.out.packets.last().map(Segment::payload_len) == Some(PAYLOAD as u32) {
            self.tx_off[i] += PAYLOAD as u64;
        }
        self.clear_out();
        let ack = self.segment(i, TcpFlags::ACK, &[]);
        timed::<TRACED>(
            || self.fp.rx_segment(now, ack, &mut self.acct),
            |ns| clock.rx(ns),
        );
        self.clear_out();
    }

    fn counts(&self) -> Counts {
        let s = &self.fp.stats;
        let mut c = Counts::new();
        c.insert("pkts", s.pkts_rx + s.exceptions + s.segs_tx + s.acks_tx);
        c.insert("fp.pkts_rx", s.pkts_rx);
        c.insert("fp.segs_tx", s.segs_tx);
        c.insert("fp.acks_tx", s.acks_tx);
        c.insert("fp.exceptions", s.exceptions);
        c.insert("fp.drop_ooo", s.drop_ooo);
        c.insert("fp.drop_buf_full", s.drop_buf_full);
        c.insert("fp.fast_rexmits", s.fast_rexmits);
        c.insert("fp.timers_armed", s.timers_armed);
        c.insert("fp.bytes_rx", s.bytes_rx);
        c.insert(
            "payload_bytes",
            self.rx_off.iter().sum::<u64>() + self.tx_off.iter().sum::<u64>(),
        );
        c.insert("busy_cycles", self.acct.total_cycles());
        c.insert("cyc.driver", self.acct.cycles(Module::Driver));
        c.insert("cyc.ip", self.acct.cycles(Module::Ip));
        c.insert("cyc.tcp", self.acct.cycles(Module::Tcp));
        c.insert("cyc.api", self.acct.cycles(Module::Api));
        c.insert("cyc.other", self.acct.cycles(Module::Other));
        c.insert("cyc.app", self.acct.cycles(Module::App));
        c
    }
}

impl FpKind {
    fn flows(self, scale: Scale) -> usize {
        scale.size(match self {
            FpKind::Rx256k => RX_FLOWS,
            FpKind::Duplex1k => DUPLEX_FLOWS,
        }) as usize
    }

    /// Segments one iteration moves: data in and its ACK out, plus, for
    /// the duplex workload, data out and its ACK in.
    fn segs_per_iter(self) -> u64 {
        match self {
            FpKind::Rx256k => 2,
            FpKind::Duplex1k => 4,
        }
    }

    /// One iteration on flow `i`.
    fn iterate<const TRACED: bool>(self, bed: &mut FpBed, i: usize, clock: &mut CallClock) {
        bed.now_us += 1;
        bed.rx_data::<TRACED>(i, clock);
        if self == FpKind::Duplex1k {
            bed.tx_reply::<TRACED>(i, clock);
        }
    }

    /// The timed part: `per_slice` iterations per slice on seeded-random
    /// flows.
    fn drive<const TRACED: bool>(
        self,
        bed: &mut FpBed,
        rng: &mut Rng,
        per_slice: u64,
        clock: &mut CallClock,
    ) -> Clocked {
        let flows = bed.fids.len() as u64;
        time_slices(|_| {
            for _ in 0..per_slice {
                self.iterate::<TRACED>(bed, rng.below(flows) as usize, clock);
            }
            self.segs_per_iter() * per_slice
        })
    }

    /// Installs every flow and runs one full iteration on each, so every
    /// ring page, flow-table slot and payload-pool buffer has been
    /// touched before timing starts.
    pub fn setup(self, scale: Scale) -> FpBed {
        let flows = self.flows(scale);
        let (rx_ring, tx_ring) = match self {
            FpKind::Rx256k => (RX_RING, RX_TX_RING),
            FpKind::Duplex1k => (DUPLEX_RING, DUPLEX_RING),
        };
        let rss0 = rss_bytes();
        let mut fp = FastPath::new(LOCAL_IP, MacAddr::for_host(1), 1448, TasCosts::default());
        let fids = (0..flows)
            .map(|i| {
                fp.install_flow(FlowState {
                    conn: FpConnMgmt::new(i as u64, 0, flow_key(i), MacAddr::for_host(2), 0),
                    snd: FpSendRel::new(ByteRing::new(tx_ring), ISS),
                    rcv: FpRecvRel::new(ByteRing::new(rx_ring), IRS),
                    fc: FpFlowCtrl::new(65_535, 0),
                    cc: FpCongCtrl::new(RateBucket::unlimited()),
                })
            })
            .collect();
        let mut bed = FpBed {
            fp,
            fids,
            rx_off: vec![0; flows],
            tx_off: vec![0; flows],
            acct: CycleAccount::new(),
            now_us: 1,
            bytes_per_flow: 0.0,
        };
        let mut clock = CallClock::default();
        for i in 0..flows {
            self.iterate::<false>(&mut bed, i, &mut clock);
        }
        bed.bytes_per_flow = rss_bytes().saturating_sub(rss0) as f64 / flows as f64;
        bed
    }

    /// Runs the timed part on a warmed bed and checks every cursor.
    pub fn run(self, mut bed: FpBed, seed: u64, scale: Scale, traced: bool) -> Outcome {
        let flows = bed.fids.len() as u64;
        let per_slice = scale.size(
            scale.seconds
                * match self {
                    FpKind::Rx256k => RX_PKTS_PER_S,
                    FpKind::Duplex1k => DUPLEX_ITERS_PER_S,
                },
        ) / SLICES as u64;
        let mut rng = Rng::new(seed);
        let mut clock = CallClock::default();
        let before = bed.counts();
        let clocked = if traced {
            self.drive::<true>(&mut bed, &mut rng, per_slice, &mut clock)
        } else {
            self.drive::<false>(&mut bed, &mut rng, per_slice, &mut clock)
        };
        let after = bed.counts();
        let delta = counts_delta(&after, &before);

        let mut checks = Checks::default();
        let iters = per_slice * SLICES as u64;
        let segs = self.segs_per_iter() * iters;
        checks.fail(
            segs.abs_diff(delta["pkts"]),
            format!("fast path handled {} of {segs} segments", delta["pkts"]),
        );
        let refused = after["fp.exceptions"] + after["fp.drop_ooo"] + after["fp.drop_buf_full"];
        checks.fail(refused, format!("fast path refused {refused} segments"));
        let injected: u64 = bed.rx_off.iter().sum();
        checks.fail(
            u64::from(after["fp.bytes_rx"] != injected),
            format!(
                "{} B committed of {injected} B injected",
                after["fp.bytes_rx"]
            ),
        );
        let mut bad_rings = 0;
        let mut fingerprint = FNV_INIT;
        for (i, &fid) in bed.fids.iter().enumerate() {
            let ok = bed.fp.flows.get(fid).is_some_and(|f| {
                f.rcv.rx.end_offset() == bed.rx_off[i]
                    && f.rcv.rx.is_empty()
                    && f.snd.tx.start_offset() == bed.tx_off[i]
                    && f.snd.tx.is_empty()
            });
            bad_rings += u64::from(!ok);
            fingerprint = fnv(fingerprint, &bed.rx_off[i].to_le_bytes());
        }
        checks.fail(
            bad_rings,
            format!("{bad_rings} flows whose ring offsets differ from the bytes driven"),
        );
        if self == FpKind::Duplex1k {
            let sent: u64 = bed.tx_off.iter().sum();
            let want = (iters + flows) * PAYLOAD as u64;
            checks.fail(
                u64::from(sent != want),
                format!("{sent} B sent and acknowledged, {want} B appended"),
            );
        }
        for v in after.values() {
            fingerprint = fnv(fingerprint, &v.to_le_bytes());
        }
        Outcome {
            clocked,
            delta,
            total: after,
            sim_window_s: 0.0,
            latency: Histogram::new(),
            gen_lateness: Histogram::new(),
            qdepth_mean: 0.0,
            fp_rx_ns: clock.rx_ns as f64 / clock.rx_calls.max(1) as f64,
            fp_rx_ns_p99: quantile(&clock.batches, 0.99),
            fp_tx_ns: clock.tx_ns as f64 / clock.tx_calls.max(1) as f64,
            fingerprint,
            attempted: segs,
            checks,
        }
    }
}
