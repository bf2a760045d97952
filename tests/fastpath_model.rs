//! Model-based property test of the TAS fast path receive side: feeding
//! an arbitrary interleaving of in-order, out-of-order, duplicate, and
//! loss-shaped segments must deliver exactly the original stream prefix,
//! ack monotonically, and never get ahead of the data actually received.
//!
//! Beside it, the allocation-free steady state: first of one fast path,
//! then of whole simulations — hosts, switch, fault injector and apps —
//! on both stacks.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use tas_bench::{add_host, start_all, uniform_star, HostCfg};
use tas_repro::apps::bulk::{BulkReceiver, BulkSender};
use tas_repro::apps::echo::{EchoServer, Lifetime, RpcClient, ServerMode};
use tas_repro::apps::kv::{KvClient, KvLoad, KvServer};
use tas_repro::baselines::{profiles, StackHost, StackHostConfig};
use tas_repro::cpusim::CycleAccount;
use tas_repro::netsim::app::App;
use tas_repro::netsim::topo::{host_ip, HostSpec};
use tas_repro::netsim::{FaultSpec, NetMsg, PortConfig};
use tas_repro::proto::{FlowKey, MacAddr, Segment, Seq, TcpFlags, TcpHeader};
use tas_repro::shm::ByteRing;
use tas_repro::sim::{AgentId, Sim, SimTime};
use tas_repro::tas::fastpath::FastPath;
use tas_repro::tas::flow::{
    FlowState, FpCongCtrl, FpConnMgmt, FpFlowCtrl, FpRecvRel, FpSendRel, RateBucket,
};
use tas_repro::tas::{CcAlgo, TasConfig, TasCosts, TasHost, FLOW_STATE_BYTES};

/// Counts heap allocations made by the current thread. The counter is
/// thread-local so the parallel test harness (and proptest cases on other
/// threads) cannot perturb a measurement window. `Cell<u64>` with const
/// init has no destructor, so reading it from inside the allocator cannot
/// recurse into TLS registration.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

fn install(fp: &mut FastPath, rx_cap: usize, irs: u32) -> u32 {
    fp.install_flow(FlowState {
        conn: FpConnMgmt::new(
            1,
            0,
            FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                80,
                Ipv4Addr::new(10, 0, 0, 2),
                7777,
            ),
            MacAddr::for_host(2),
            0,
        ),
        snd: FpSendRel::new(ByteRing::new(1024), 100),
        rcv: FpRecvRel::new(ByteRing::new(rx_cap), irs),
        fc: FpFlowCtrl::new(65_535, 0),
        cc: FpCongCtrl::new(RateBucket::unlimited()),
    })
}

fn data_seg(irs: u32, offset: u64, payload: &[u8]) -> Segment {
    let seq = irs.wrapping_add(1).wrapping_add(offset as u32);
    let mut h = TcpHeader::new(7777, 80, seq, 101, TcpFlags::ACK | TcpFlags::PSH);
    h.window = 60_000;
    h.options.timestamp = Some((1, 0));
    Segment::tcp(
        MacAddr::for_host(2),
        MacAddr::for_host(1),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(10, 0, 0, 1),
        h,
        payload,
        true,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Deliver an arbitrarily sliced stream in an arbitrary order with
    /// duplicates; whatever the fast path commits must be a correct
    /// prefix-closed portion of the stream, acks must be monotone, and a
    /// final in-order sweep must deliver everything. The IRS is drawn so
    /// that most streams cross 2^32 in sequence space.
    #[test]
    fn fastpath_rx_is_prefix_correct(
        stream in proptest::collection::vec(any::<u8>(), 32..400),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 1..8),
        order_seed in any::<u64>(),
        irs in prop_oneof![Just(1_000u32), Just(u32::MAX - 150), any::<u32>()],
    ) {
        let mut fp = FastPath::new(
            Ipv4Addr::new(10, 0, 0, 1),
            MacAddr::for_host(1),
            1448,
            TasCosts::default(),
        );
        let fid = install(&mut fp, stream.len() + 64, irs);
        let mut acct = CycleAccount::new();

        // Slice and shuffle.
        let mut points: Vec<usize> = cuts.iter().map(|c| c.index(stream.len())).collect();
        points.push(0);
        points.push(stream.len());
        points.sort_unstable();
        points.dedup();
        let mut segs: Vec<(u64, Vec<u8>)> = points
            .windows(2)
            .map(|w| (w[0] as u64, stream[w[0]..w[1]].to_vec()))
            .filter(|(_, d)| !d.is_empty())
            .collect();
        let dup = segs[0].clone();
        segs.push(dup); // One duplicate.
        let mut rng = tas_repro::sim::Rng::new(order_seed);
        rng.shuffle(&mut segs);

        let mut last_ack = 0u32;
        let mut t = 0u64;
        for (off, data) in &segs {
            t += 1;
            fp.rx_segment(SimTime::from_us(t), data_seg(irs, *off, data), &mut acct);
            // Acks are cumulative and monotone.
            for pkt in fp.out.packets.drain(..) {
                let ack_off = pkt.tcp.ack - (Seq(irs) + 1);
                prop_assert!(ack_off >= last_ack, "ack regressed");
                last_ack = ack_off;
                // Never acks data that was not sent.
                prop_assert!(ack_off as usize <= stream.len());
            }
        }
        // Whatever was committed must be a prefix of the stream.
        {
            let flow = fp.flows.get_mut(fid).expect("installed");
            let n = flow.rcv.rx.len();
            let got = flow.rcv.rx.copy_out(0, n).expect("committed prefix");
            prop_assert_eq!(&got[..], &stream[..n], "committed data is a prefix");
        }
        // Final sweep: resend the whole stream in order (go-back-N after a
        // retransmission); everything must be delivered exactly.
        for (off, data) in points
            .windows(2)
            .map(|w| (w[0] as u64, &stream[w[0]..w[1]]))
        {
            if data.is_empty() {
                continue;
            }
            t += 1;
            fp.rx_segment(SimTime::from_us(t), data_seg(irs, off, data), &mut acct);
            fp.out.packets.clear();
        }
        let flow = fp.flows.get_mut(fid).expect("installed");
        prop_assert_eq!(flow.rcv.rx.pop(usize::MAX - 1), stream);
        prop_assert_eq!(flow.rcv.ooo_len(), 0, "interval fully merged");
    }

    /// The architectural state constant matches the paper regardless of
    /// how it is computed at runtime.
    #[test]
    fn flow_state_constant(_x in 0u8..1) {
        prop_assert_eq!(FLOW_STATE_BYTES, 102);
    }
}

/// Steady-state packet forwarding is allocation-free: after a warmup that
/// sizes the output queues and primes the payload pool, each further round
/// trip — build an in-order data segment from the pool, run it through the
/// fast path (rx commit + ack generation), consume the committed bytes —
/// must not touch the heap at all. Guards the fast-path regression where
/// every received payload was copied through a fresh `Vec` before landing
/// in the ring.
#[test]
fn steady_state_rx_does_not_allocate() {
    const CHUNK: usize = 512;
    const WARMUP: u64 = 64;
    const MEASURED: u64 = 256;

    let mut fp = FastPath::new(
        Ipv4Addr::new(10, 0, 0, 1),
        MacAddr::for_host(1),
        1448,
        TasCosts::default(),
    );
    let fid = install(&mut fp, 1 << 16, 1_000);
    let mut acct = CycleAccount::new();
    let chunk = [0xA5u8; CHUNK];

    let mut off = 0u64;
    let mut t = 0u64;
    let mut deliver = |fp: &mut FastPath, seg: Segment, t: u64| {
        fp.rx_segment(SimTime::from_us(t), seg, &mut acct);
        // Drain with clear(): take()/mem::take would swap in fresh empty
        // vecs and force a reallocation on the next push.
        fp.out.packets.clear();
        fp.out.notices.clear();
        fp.out.exceptions.clear();
        fp.out.tx_timers.clear();
        // The app keeps up: consume the committed bytes so the ring and
        // the advertised window stay in steady state.
        let flow = fp.flows.get_mut(fid).expect("installed");
        let n = flow.rcv.rx.len() as u64;
        flow.rcv.rx.consume(n).expect("consume committed prefix");
    };

    for _ in 0..WARMUP {
        t += 1;
        deliver(&mut fp, data_seg(1_000, off, &chunk), t);
        off += CHUNK as u64;
    }

    // Measured window: segments are built inside it — headers are plain
    // data and the payload comes from the warm pool, so construction must
    // be as allocation-free as the forwarding itself.
    let before = thread_allocs();
    for _ in 0..MEASURED {
        t += 1;
        deliver(&mut fp, data_seg(1_000, off, &chunk), t);
        off += CHUNK as u64;
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state rx allocated {} times over {} packets",
        after - before,
        MEASURED
    );
}

/// Runs `sim` to `warm`, then `window` further with the allocation count
/// open, and returns allocations per segment over the window; `segs`
/// reads how many segments the hosts under test have handled so far.
/// Warm-up lets every buffer reach its working capacity, the payload pool
/// fill and every connection open.
fn allocs_per_segment(
    sim: &mut Sim<NetMsg>,
    warm: SimTime,
    window: SimTime,
    segs: impl Fn(&Sim<NetMsg>) -> u64,
) -> f64 {
    sim.run_until(warm);
    let (allocs, seen) = (thread_allocs(), segs(sim));
    sim.run_until(warm + window);
    let (allocs, seen) = (thread_allocs() - allocs, segs(sim) - seen);
    assert!(seen >= 10_000, "only {seen} segments in the window");
    allocs as f64 / seen as f64
}

/// Segments the fast paths of `hosts` received, sent and acknowledged.
fn tas_segments(sim: &Sim<NetMsg>, hosts: &[AgentId]) -> u64 {
    let fp = |&h: &AgentId| sim.agent::<TasHost>(h).fp_stats();
    hosts
        .iter()
        .map(fp)
        .map(|fp| fp.pkts_rx + fp.segs_tx + fp.acks_tx)
        .sum()
}

/// The Linux-model key-value pair: reference TCP engine, `StackHost`,
/// `KvServer` and `KvClient` on both ends of a switch.
#[test]
fn linux_kv_pair_steady_state_does_not_allocate() {
    let mut sim: Sim<NetMsg> = Sim::new(5);
    let mut factory = |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
        let app: Box<dyn App> = if spec.index == 0 {
            Box::new(KvServer::new(7))
        } else {
            // The client preloads all 64 keys, so no SET in the window
            // adds one to the store.
            Box::new(KvClient::new(host_ip(0), 7, 32, 64, KvLoad::Closed, 5))
        };
        let linux = HostCfg::Model(profiles::linux(), StackHostConfig::linux(2));
        add_host(sim, spec, linux, app)
    };
    let topo = uniform_star(&mut sim, 2, PortConfig::tengig(), &mut factory);
    start_all(&mut sim, &topo.hosts);
    let hosts = topo.hosts.clone();
    let segments = |sim: &Sim<NetMsg>| -> u64 {
        let tcp = |&h: &AgentId| sim.agent::<StackHost>(h).tcp_stats();
        hosts.iter().map(tcp).map(|t| t.segs_in + t.segs_out).sum()
    };
    // The long warm-up is for the event queue: its timing-wheel slots
    // reach their working capacity only once the coarser levels have
    // turned over.
    let per_seg = allocs_per_segment(
        &mut sim,
        SimTime::from_ms(100),
        SimTime::from_ms(20),
        segments,
    );
    assert!(per_seg < 0.01, "{per_seg} allocations per segment");
}

/// The TAS echo pair: fast path, slow path, libTAS, `EchoServer` and a
/// closed-loop `RpcClient`.
#[test]
fn tas_echo_pair_steady_state_does_not_allocate() {
    let mut sim: Sim<NetMsg> = Sim::new(6);
    let mut factory = |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
        let app: Box<dyn App> = if spec.index == 0 {
            Box::new(EchoServer::new(7, 64, ServerMode::Echo, 300))
        } else {
            Box::new(RpcClient::new(
                host_ip(0),
                7,
                16,
                1,
                64,
                Lifetime::Persistent,
            ))
        };
        add_host(sim, spec, HostCfg::Tas(TasConfig::rpc_bench(1, 1)), app)
    };
    let topo = uniform_star(&mut sim, 2, PortConfig::tengig(), &mut factory);
    start_all(&mut sim, &topo.hosts);
    let hosts = topo.hosts.clone();
    let per_seg = allocs_per_segment(
        &mut sim,
        SimTime::from_ms(10),
        SimTime::from_ms(10),
        |sim| tas_segments(sim, &hosts),
    );
    assert!(per_seg < 0.01, "{per_seg} allocations per segment");
}

/// A TAS bulk pair through switch ports that drop 1 % of packets: the
/// fault injector, out-of-order receive and fast retransmit run in the
/// window.
#[test]
fn tas_bulk_pair_through_lossy_port_steady_state_does_not_allocate() {
    let mut sim: Sim<NetMsg> = Sim::new(7);
    let port = PortConfig {
        fault: FaultSpec::uniform_loss(0.01, 7),
        ..PortConfig::tengig()
    };
    let cfg = TasConfig {
        rx_buf: 128 * 1024,
        tx_buf: 128 * 1024,
        ooo_rx: true,
        cc: CcAlgo::DctcpRate,
        initial_rate_bps: 500_000_000,
        control_interval: SimTime::from_us(200),
        ..TasConfig::rpc_bench(2, 2)
    };
    let mut factory = |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
        let app: Box<dyn App> = if spec.index == 0 {
            Box::new(BulkReceiver::new(9))
        } else {
            Box::new(BulkSender::new(host_ip(0), 9, 8))
        };
        add_host(sim, spec, HostCfg::Tas(cfg.clone()), app)
    };
    let topo = uniform_star(&mut sim, 2, port, &mut factory);
    start_all(&mut sim, &topo.hosts);
    let hosts = topo.hosts.clone();
    let per_seg = allocs_per_segment(
        &mut sim,
        SimTime::from_ms(40),
        SimTime::from_ms(20),
        |sim| tas_segments(sim, &hosts),
    );
    let sender = sim.agent::<TasHost>(hosts[1]).fp_stats();
    assert!(sender.fast_rexmits > 0, "the loss was felt");
    assert!(per_seg < 0.01, "{per_seg} allocations per segment");
}
