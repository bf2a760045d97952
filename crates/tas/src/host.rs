//! A TAS host: NIC + fast-path cores + slow path + libTAS + application.
//!
//! [`TasHost`] is one simulation agent representing a machine running TAS
//! as its OS network service. It wires together:
//!
//! * the NIC (RSS-steered multi-queue receive, serialized transmit),
//! * a pool of fast-path cores (one RX queue each; idle cores block after
//!   10 ms and wake with a kernel-notification penalty),
//! * the slow-path thread on its own (partially used) core,
//! * application cores, one context queue each, running the [`App`]
//!   against either the POSIX-sockets or low-level libTAS API (the
//!   app side is the shared [`AppRuntime`]; this file is its stack),
//! * the workload-proportionality controller (§3.4): utilization
//!   monitoring, core add/remove, eager RSS redirection-table rewrites.
//!
//! Timing model: work is charged to the owning core's busy-until timeline
//! (see `tas-cpusim`); effects — packets, context-queue notices, app
//! handler invocations — materialize when the charging core finishes them.

use crate::config::{ApiKind, TasConfig, COSTS, MSS};
use crate::fastpath::{FastPath, RxNotice};
use crate::flow::FlowTable;
use crate::slowpath::{SlowPath, SpAppEvent};
use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut};
use tas_cpusim::{Core, CorePool, CycleAccount, Module};
use tas_netsim::app::{App, AppEvent, SockId};
use tas_netsim::rss::hash_tuple;
use tas_netsim::runtime::{unpack_wake, AppRuntime, AppStack, Frame, HostedApp};
use tas_netsim::topo::mac_for_ip;
use tas_netsim::{HostNic, NetMsg, NicConfig};
use tas_proto::{MacAddr, Segment, TcpFlags};
use tas_sim::{
    impl_as_any, probe, prof_charge, trace, Agent, CounterId, Ctx, Event, Registry, Rng, Scope,
    SimTime, TimerId,
};

/// Timer kinds used by [`TasHost`].
pub mod timers {
    /// Host initialization (inject once at start).
    pub const INIT: u32 = 0;
    /// Fast-path pacing timer; `data` = flow id.
    pub const FP_TX: u32 = 1;
    /// Slow-path control loop.
    pub const SP_CTRL: u32 = 2;
    /// Proportionality monitor.
    pub const PROP: u32 = 3;
    /// Application timer; `data` = `pack_app_timer(context, token)`.
    pub const APP: u32 = 4;
    /// Deferred application event delivery; `data` = context.
    pub const APP_RUN: u32 = 5;
    /// Deferred fast-path command execution.
    pub const FP_CMD: u32 = 6;
    /// Deferred slow-path work execution.
    pub const SP_RUN: u32 = 7;
}

/// Fast-path cores block after this long without packets (§3.4).
const BLOCK_AFTER: SimTime = SimTime::from_ms(10);
/// Latency for waking a blocked fast-path core (eventfd + schedule).
const FP_WAKE_LATENCY: SimTime = SimTime::from_us(3);
/// Aggregate idle-core threshold to remove a core (§3.4).
const IDLE_REMOVE_THRESHOLD: f64 = 1.25;
/// Aggregate idle-core threshold to add a core (§3.4).
const IDLE_ADD_THRESHOLD: f64 = 0.2;
/// Effective per-core cache available for fast-path flow state
/// (≈2 MB L2 + L3 share on the paper's server).
const CACHE_PER_CORE: u64 = 2 << 20;
/// Stall cycles per missed line of flow state.
const CACHE_MISS_PENALTY: f64 = 110.0;
/// App cores idle longer than this sleep in epoll and pay a wake.
const APP_IDLE_SLEEP: SimTime = SimTime::from_us(100);
/// Latency for waking a sleeping app thread.
const APP_WAKE_LATENCY: SimTime = SimTime::from_us(2);

#[derive(Debug, Default)]
struct SockState {
    fid: Option<u32>,
    context: u16,
    closed_evt_sent: bool,
    want_write: bool,
}

enum FpCmd {
    Tx(u32),
    RxBump(u32),
}

/// A libTAS call's follow-up: a fast-path command or slow-path work.
enum Cmd {
    Fp(FpCmd),
    Sp(SpWork),
}

/// The lanes of the runtime's op hand-off: fast-path commands wait on one
/// (woken by `FP_CMD`), slow-path work on the other (`SP_RUN`).
const FP_LANE: usize = 0;
const SP_LANE: usize = 1;

struct Inner {
    cfg: TasConfig,
    nic: HostNic,
    fp: FastPath,
    sp: SlowPath,
    fp_cores: CorePool,
    active_fp: usize,
    sp_core: Core,
    app_cores: CorePool,
    socks: Vec<SockState>,
    next_context: u16,
    acct: CycleAccount,
    /// Host-level metric registry.
    reg: Registry,
    c_drop_backlog: CounterId,
    c_fp_wakes: CounterId,
    c_scale_events: CounterId,
    c_app_bytes: CounterId,
    /// Live pacing-timer handle per flow, indexed by (dense slab) flow
    /// id. Cancelled on detach so a torn-down (possibly recycled) flow id
    /// leaves no ghost FP_TX timer in the event queue.
    fp_tx_timers: Vec<Option<TimerId>>,
}

impl Inner {
    /// Opens a socket on the next app context, round robin.
    fn alloc_sock(&mut self) -> (SockId, u16) {
        let context = self.next_context % self.cfg.app_cores.max(1) as u16;
        self.next_context = self.next_context.wrapping_add(1);
        self.socks.push(SockState {
            context,
            ..SockState::default()
        });
        ((self.socks.len() - 1) as SockId, context)
    }

    /// A libTAS call's cost under the configured API.
    fn api_cost(&self, sockets_cost: u64) -> u64 {
        match self.cfg.api {
            ApiKind::Sockets => sockets_cost,
            ApiKind::LowLevel => COSTS.ll_op,
        }
    }
}

enum SpWork {
    /// Boxed: exceptions are rare, and every `Cmd` is as large as its
    /// largest variant.
    Exception(Box<Segment>),
    Connect {
        sock: SockId,
        ip: Ipv4Addr,
        port: u16,
    },
    Close {
        sock: SockId,
    },
}

/// A host running TAS (one simulation agent). It dereferences to its
/// [`HostedApp`] (`app_as`, `set_tenant`, `enable_profiling`).
pub struct TasHost {
    inner: Inner,
    rt: AppRuntime<Inner>,
}

impl Deref for TasHost {
    type Target = HostedApp;
    fn deref(&self) -> &HostedApp {
        &self.rt.hosted
    }
}

impl DerefMut for TasHost {
    fn deref_mut(&mut self) -> &mut HostedApp {
        &mut self.rt.hosted
    }
}

impl TasHost {
    /// Creates a TAS host. The harness must inject a [`timers::INIT`]
    /// timer at start time so the application's `on_start` runs and the
    /// control loops arm.
    pub fn new(
        ip: Ipv4Addr,
        mac: MacAddr,
        mut nic_cfg: NicConfig,
        cfg: TasConfig,
        uplink: tas_sim::AgentId,
        app: Box<dyn App>,
    ) -> Self {
        assert!(cfg.app_cores >= 1, "a TAS host needs at least one app core");
        assert!(
            cfg.max_fp_cores >= 1,
            "a TAS host needs at least one fast-path core"
        );
        nic_cfg.rx_queues = cfg.max_fp_cores;
        let nic = HostNic::new(mac, nic_cfg, uplink);
        let mut fp = FastPath::new(ip, mac, MSS, COSTS);
        fp.ooo_rx = cfg.ooo_rx;
        let sp = SlowPath::new(ip, mac, &cfg);
        let fp_cores = CorePool::new(cfg.max_fp_cores, cfg.freq_hz);
        let app_cores = CorePool::new(cfg.app_cores, cfg.freq_hz);
        let sp_core = Core::new(cfg.freq_hz);
        let active_fp = cfg.initial_fp_cores.clamp(1, cfg.max_fp_cores);
        let rt = AppRuntime::new(app, cfg.app_cores);
        let mut reg = Registry::new();
        let c_drop_backlog = reg.counter("host.drop_backlog", Scope::Global);
        let c_fp_wakes = reg.counter("host.fp_wakes", Scope::Global);
        let c_scale_events = reg.counter("host.scale_events", Scope::Global);
        let c_app_bytes = reg.counter("app.bytes_delivered", Scope::Global);
        TasHost {
            inner: Inner {
                cfg,
                nic,
                fp,
                sp,
                fp_cores,
                active_fp,
                sp_core,
                app_cores,
                socks: Vec::new(),
                next_context: 0,
                acct: CycleAccount::new(),
                reg,
                c_drop_backlog,
                c_fp_wakes,
                c_scale_events,
                c_app_bytes,
                fp_tx_timers: Vec::new(),
            },
            rt,
        }
    }

    // ------------------------------------------------------------------
    // Harness accessors. Profiled cores are `fp<i>`, `sp0` and `app<j>`.

    /// Cycle/instruction account (Tables 1–2).
    pub fn account(&self) -> &CycleAccount {
        &self.inner.acct
    }

    /// Fast-path counters.
    pub fn fp_stats(&self) -> crate::fastpath::FpStats {
        self.inner.fp.stats
    }

    /// Slow-path counters.
    pub fn sp_stats(&self) -> crate::slowpath::SpStats {
        self.inner.sp.stats
    }

    /// The host's metric registry: host counters plus the 1 ms series —
    /// `cores.active_fp` and per-core `fp.util{core=i}` (Fig. 14 and the
    /// cycle profiler's utilization window) and, under the
    /// proportionality controller, `fp.util_mean`.
    pub fn registry(&self) -> &Registry {
        &self.inner.reg
    }

    /// A deterministic, ordered snapshot of every counter the host can
    /// see: the registry, the fast-/slow-path stat blocks and live-state
    /// gauges. Two same-seed runs produce byte-identical
    /// [`tas_sim::Snapshot::render_text`] output.
    pub fn telemetry_snapshot(&self) -> tas_sim::Snapshot {
        let mut snap = self.inner.reg.snapshot();
        let fp = &self.inner.fp.stats;
        snap.insert_counter("fp.pkts_rx", Scope::Global, fp.pkts_rx);
        snap.insert_counter("fp.segs_tx", Scope::Global, fp.segs_tx);
        snap.insert_counter("fp.acks_tx", Scope::Global, fp.acks_tx);
        snap.insert_counter("fp.exceptions", Scope::Global, fp.exceptions);
        snap.insert_counter("fp.drop_buf_full", Scope::Global, fp.drop_buf_full);
        snap.insert_counter("fp.drop_ooo", Scope::Global, fp.drop_ooo);
        snap.insert_counter("fp.bytes_rx", Scope::Global, fp.bytes_rx);
        snap.insert_counter("fp.fast_rexmits", Scope::Global, fp.fast_rexmits);
        snap.insert_counter("fp.timers_armed", Scope::Global, fp.timers_armed);
        snap.insert_counter("fp.tx_polls", Scope::Global, fp.tx_polls);
        let sp = &self.inner.sp.stats;
        snap.insert_counter("sp.established", Scope::Global, sp.established);
        snap.insert_counter("sp.closed", Scope::Global, sp.closed);
        snap.insert_counter("sp.handshake_rexmits", Scope::Global, sp.handshake_rexmits);
        snap.insert_counter("sp.timeout_rexmits", Scope::Global, sp.timeout_rexmits);
        snap.insert_counter("sp.exceptions", Scope::Global, sp.exceptions);
        snap.insert_counter("sp.dropped", Scope::Global, sp.dropped);
        snap.insert_gauge(
            "flows.live",
            Scope::Global,
            self.inner.fp.flows.len() as i64,
        );
        snap.insert_gauge(
            "cores.active_fp",
            Scope::Global,
            self.inner.active_fp as i64,
        );
        // Tenant-tagged attribution: with one application per host, the
        // host's flow and connection totals are the tenant's.
        if let Some(t) = self.tenant() {
            let scope = Scope::Tenant(t);
            snap.insert_gauge("tenant.flows_live", scope, self.inner.fp.flows.len() as i64);
            snap.insert_counter("tenant.established", scope, sp.established);
            snap.insert_counter("tenant.bytes_rx", scope, fp.bytes_rx);
        }
        snap
    }

    /// Currently active fast-path cores.
    pub fn active_fp_cores(&self) -> usize {
        self.inner.active_fp
    }

    /// Number of installed fast-path flows.
    pub fn flow_count(&self) -> usize {
        self.inner.fp.flows.len()
    }

    /// RTT estimates, in microseconds, of the first `n` installed flows in
    /// flow-id order (diagnostics).
    pub fn sample_rtts(&self, n: usize) -> Vec<u32> {
        let flows = self.inner.fp.flows.iter();
        flows.take(n).map(|(_, f)| f.conn.rtt_est_us()).collect()
    }

    /// Exact cycles submitted per fast-path core since creation (the
    /// integer ground truth the attribution profiler conserves against).
    pub fn fp_busy_cycles(&self) -> Vec<u64> {
        self.inner.fp_cores.iter().map(Core::busy_cycles).collect()
    }

    /// Exact cycles submitted to the slow-path core since creation.
    pub fn sp_busy_cycles(&self) -> u64 {
        self.inner.sp_core.busy_cycles()
    }

    /// Exact cycles submitted per app core since creation.
    pub fn app_busy_cycles(&self) -> Vec<u64> {
        self.inner.app_cores.iter().map(Core::busy_cycles).collect()
    }

    // ------------------------------------------------------------------
    // Fast-path execution.

    fn fp_core_for(inner: &Inner, fid: u32) -> usize {
        let Some(flow) = inner.fp.flows.get(fid) else {
            return 0;
        };
        // Hash exactly as the NIC would hash the *incoming* direction of
        // this flow, so RX and TX of a connection share a core.
        let k = flow.conn.key();
        let h = hash_tuple(k.remote_ip, k.local_ip, k.remote_port, k.local_port);
        inner.nic.rss().queue_for_hash(h)
    }

    /// Runs fast-path work on core `core_idx` arriving at `t`; flushes
    /// staged effects at the completion time.
    fn run_fp(
        &mut self,
        core_idx: usize,
        t: SimTime,
        ctx: &mut Ctx<'_, NetMsg>,
        extra_cycles: u64,
        f: impl FnOnce(&mut FastPath, SimTime, &mut CycleAccount) -> u64,
    ) -> (SimTime, SimTime) {
        let inner = &mut self.inner;
        let core_idx = core_idx.min(inner.active_fp.saturating_sub(1));
        probe! { self.rt.hosted.prof_arm("fp", core_idx as u32); }
        let mut t_eff = t;
        let mut wake_extra = 0;
        {
            let core = inner.fp_cores.core(core_idx);
            // Blocked-core wake (§3.4): no packets for `BLOCK_AFTER`.
            if t.saturating_sub(core.busy_until()) > BLOCK_AFTER {
                t_eff = t + FP_WAKE_LATENCY;
                wake_extra = COSTS.wake_cycles;
                inner.reg.inc(inner.c_fp_wakes);
                let per_core = inner
                    .reg
                    .counter("host.fp_wakes", Scope::Core(core_idx as u32));
                inner.reg.inc(per_core);
            }
        }
        let start = t_eff.max(inner.fp_cores.core_ref(core_idx).busy_until());
        let mut cycles = f(&mut inner.fp, start, &mut inner.acct);
        #[cfg(any(test, debug_assertions))]
        crate::audit::check_fastpath(&inner.fp, start);
        cycles += extra_cycles + wake_extra;
        if wake_extra > 0 {
            inner.acct.charge(Module::Other, wake_extra, wake_extra / 2);
        }
        // Host-level costs bypass the fast path's charge funnel; stage
        // them under their own frames so the core-run drain below
        // attributes them instead of leaving an anonymous residual.
        prof_charge!(extra_cycles, "cache_stall");
        prof_charge!(wake_extra, "wake");
        let (_, end) = inner.fp_cores.core(core_idx).run(t_eff, cycles);
        self.flush(end, start.saturating_sub(t), ctx);
        (start, end)
    }

    /// Per-packet stall cycles from the flow-state cache model.
    fn cache_stall(inner: &Inner) -> u64 {
        let flows = inner.fp.flows.len() as u64;
        if flows == 0 {
            return 0;
        }
        let per_core = flows / inner.active_fp.max(1) as u64;
        let model = tas_cpusim::CacheModel::new(
            CACHE_PER_CORE,
            inner.cfg.cache_lines_per_req,
            CACHE_MISS_PENALTY,
        );
        // Footprint per flow = the lines the fast path touches (default 2
        // lines = the 102-byte state rounded up; ablations inflate it).
        model.stall_cycles(64 * inner.cfg.cache_lines_per_req, per_core) as u64
    }

    // ------------------------------------------------------------------
    // Slow-path execution.

    fn run_sp_exception(&mut self, t: SimTime, seg: Segment, ctx: &mut Ctx<'_, NetMsg>) {
        // Pre-create a socket for a potential incoming connection.
        let is_syn =
            seg.tcp.flags.contains(TcpFlags::SYN) && !seg.tcp.flags.contains(TcpFlags::ACK);
        let (fresh, accept_ctx) = if is_syn {
            self.inner.alloc_sock()
        } else {
            (0, 0)
        };
        let iss = ctx.rng().next_u32();
        probe! {
            let (flow, seq, len) =
                (seg.flow_key().reversed(), seg.tcp.seq, seg.payload.len() as u32);
        }
        let mut accept = None;
        let (_start, end) = self.run_sp(t, |sp, fp, start, acct| {
            let (cycles, key) =
                sp.on_exception(start, seg, fp, iss, fresh as u64, accept_ctx, acct);
            accept = key;
            cycles
        });
        trace!(
            "sp",
            end,
            Stage {
                stage: tas_telemetry::Stage::SpRx,
                flow,
                seq,
                len,
                wait_ns: _start.saturating_sub(t).as_nanos(),
            }
        );
        // A new incoming connection: the application's accept path runs on
        // its app core, then the slow path answers with SYN-ACK.
        if let Some(key) = accept {
            let inner = &mut self.inner;
            let app_cost = COSTS.so_conn_op + COSTS.so_poll;
            // Re-arming onto the app core also discards the charges the
            // handshake-ACK's discarded fast-path estimate staged above.
            probe! { self.rt.hosted.prof_arm("app", accept_ctx as u32); }
            prof_charge!(app_cost, "accept");
            let (_, app_end) = inner.app_cores.core(accept_ctx as usize).run(end, app_cost);
            inner.acct.charge(Module::Api, app_cost, app_cost);
            let cost = COSTS.sp_conn_op;
            self.run_sp(app_end, |sp, _fp, t, acct| {
                sp.accept(t, key, acct);
                cost
            });
        }
        self.flush(end, SimTime::ZERO, ctx);
    }

    /// Runs slow-path work arriving at `t` on its core and returns when
    /// it started and finished; the caller flushes at the finish.
    fn run_sp(
        &mut self,
        t: SimTime,
        f: impl FnOnce(&mut SlowPath, &mut FastPath, SimTime, &mut CycleAccount) -> u64,
    ) -> (SimTime, SimTime) {
        let start = t.max(self.inner.sp_core.busy_until());
        let inner = &mut self.inner;
        probe! { self.rt.hosted.prof_arm("sp", 0); }
        let cycles = f(&mut inner.sp, &mut inner.fp, start, &mut inner.acct);
        #[cfg(any(test, debug_assertions))]
        crate::audit::check_fastpath(&inner.fp, start);
        let (_, end) = inner.sp_core.run(t, cycles);
        (start, end)
    }

    /// Drains staged effects at completion time `end`: the slow path's,
    /// then the fast path's, in place. A fast-path run stages nothing on
    /// the slow path, and slow-path work may stage fast-path output (a
    /// rate update that transmits, data on a handshake's final ACK), so
    /// one drain serves both. `_wait` is how long the triggering work
    /// queued for its core (zero after slow-path work); only the span
    /// probe reads it, to attribute the fp_tx hop.
    fn flush(&mut self, end: SimTime, _wait: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        let Self { inner, rt } = self;
        let Inner {
            nic,
            fp,
            sp,
            socks,
            fp_tx_timers,
            ..
        } = inner;
        for pkt in sp.out.packets.drain(..) {
            trace!("sp", end, SegTx(pkt));
            trace!(
                "sp",
                end,
                Stage {
                    stage: tas_telemetry::Stage::SpTx,
                    flow: pkt.flow_key().reversed(),
                    seq: pkt.tcp.seq,
                    len: pkt.payload.len() as u32,
                    wait_ns: 0,
                }
            );
            nic.tx(end, pkt, ctx);
        }
        for ev in sp.out.events.drain(..) {
            // The socket each event concerns and what its context hears.
            let (sock, app_ev) = match ev {
                SpAppEvent::ConnectDone { opaque, fid } => {
                    let sock = opaque as SockId;
                    socks[sock as usize].fid = Some(fid);
                    (sock, AppEvent::Connected { sock })
                }
                SpAppEvent::AcceptDone {
                    opaque, fid, port, ..
                } => {
                    let sock = opaque as SockId;
                    socks[sock as usize].fid = Some(fid);
                    (sock, AppEvent::Accepted { sock, port })
                }
                SpAppEvent::ConnectFailed { opaque } | SpAppEvent::PeerClosed { opaque, .. } => {
                    let sock = opaque as SockId;
                    (sock, AppEvent::Closed { sock })
                }
                SpAppEvent::CloseDone { opaque } => {
                    let sock = opaque as SockId;
                    match socks.get(sock as usize) {
                        Some(s) if !s.closed_evt_sent => (sock, AppEvent::Closed { sock }),
                        _ => continue,
                    }
                }
                SpAppEvent::Detached { opaque, fid } => {
                    // Reclaim any armed pacing timer: the fid may be
                    // recycled for a new flow before the timer would fire.
                    let armed = fp_tx_timers.get_mut(fid as usize).and_then(Option::take);
                    if let Some(id) = armed {
                        ctx.cancel_timer(id);
                    }
                    if let Some(s) = socks.get_mut(opaque as usize) {
                        s.fid = None;
                    }
                    continue;
                }
            };
            let s = &mut socks[sock as usize];
            s.closed_evt_sent |= matches!(app_ev, AppEvent::Closed { .. });
            rt.defer(end, s.context, app_ev, ctx);
        }
        for pkt in fp.out.packets.drain(..) {
            trace!("fp", end, SegTx(pkt));
            probe! {
                if !pkt.payload.is_empty() {
                    trace!(
                        "fp",
                        end,
                        Stage {
                            stage: tas_telemetry::Stage::FpTx,
                            flow: pkt.flow_key().reversed(),
                            seq: pkt.tcp.seq,
                            len: pkt.payload.len() as u32,
                            wait_ns: _wait.as_nanos(),
                        }
                    );
                }
            }
            nic.tx(end, pkt, ctx);
        }
        for (fid, at) in fp.out.tx_timers.drain(..) {
            let id = ctx.timer_at(at.max(end), timers::FP_TX, fid as u64);
            let i = fid as usize;
            if fp_tx_timers.len() <= i {
                fp_tx_timers.resize(i + 1, None);
            }
            fp_tx_timers[i] = Some(id);
        }
        for (context, notice) in fp.out.notices.drain(..) {
            Self::deliver_notice(socks, &fp.flows, rt, end, context, notice, ctx);
        }
        for seg in fp.out.exceptions.drain(..) {
            let work = Cmd::Sp(SpWork::Exception(Box::new(seg)));
            rt.ops.push(end, timers::SP_RUN, SP_LANE, work, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Application delivery.

    fn deliver_notice(
        socks: &mut [SockState],
        flows: &FlowTable,
        rt: &mut AppRuntime<Inner>,
        t: SimTime,
        context: u16,
        notice: RxNotice,
        ctx: &mut Ctx<'_, NetMsg>,
    ) {
        let sock = notice.opaque as SockId;
        let Some(s) = socks.get_mut(sock as usize) else {
            return;
        };
        if notice.rx_bytes > 0 {
            probe! {
                if let Some(flow) = s.fid.and_then(|fid| flows.get(fid)) {
                    // First newly readable byte: the RX ring already holds
                    // the payload this notice announces.
                    let off0 = flow.rcv.rx.end_offset().saturating_sub(notice.rx_bytes as u64);
                    trace!(
                        "host",
                        t,
                        Stage {
                            stage: tas_telemetry::Stage::ShmDoorbell,
                            flow: flow.conn.key().reversed(),
                            seq: flow.rcv_seq_of(off0),
                            len: notice.rx_bytes,
                            wait_ns: 0,
                        }
                    );
                }
            }
            rt.defer(t, context, AppEvent::Readable { sock }, ctx);
        }
        if notice.tx_acked > 0 && s.want_write {
            // Wake the writer once useful buffer space exists (libTAS's
            // epoll emulation coalesces exactly like kernel EPOLLOUT).
            let space = s
                .fid
                .and_then(|fid| flows.get(fid))
                .map(|f| (f.snd.tx.free(), f.snd.tx.capacity()))
                .unwrap_or((usize::MAX, 0));
            if space.0 >= (space.1 / 4).max(8 * 1024).min(space.1) {
                s.want_write = false;
                rt.defer(t, context, AppEvent::Writable { sock }, ctx);
            }
        }
    }

    fn run_sp_work(&mut self, work: SpWork, now: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        let (_, end) = match work {
            SpWork::Exception(seg) => return self.run_sp_exception(now, *seg, ctx),
            SpWork::Connect { sock, ip, port } => {
                let iss = ctx.rng().next_u32();
                let context = self.inner.socks[sock as usize].context;
                let peer_mac = mac_for_ip(ip);
                self.run_sp(now, |sp, fp, t, acct| {
                    sp.connect(t, ip, port, peer_mac, sock as u64, context, iss, fp, acct)
                })
            }
            SpWork::Close { sock } => {
                let Some(fid) = self.inner.socks.get(sock as usize).and_then(|s| s.fid) else {
                    return;
                };
                self.run_sp(now, |sp, fp, t, acct| sp.close(t, fid, fp, acct))
            }
        };
        self.flush(end, SimTime::ZERO, ctx);
    }

    // ------------------------------------------------------------------
    // Proportionality controller (§3.4).

    fn prop_tick(&mut self, now: SimTime) {
        let inner = &mut self.inner;
        let utils = inner.fp_cores.sample_utilization(now);
        let active = inner.active_fp;
        let mean_util = utils.iter().take(active).sum::<f64>() / active.max(1) as f64;
        inner.reg.record("fp.util_mean", Scope::Global, mean_util);
        let idle: f64 = utils.iter().take(active).map(|u| (1.0 - u).max(0.0)).sum();
        let mut changed = false;
        if idle < IDLE_ADD_THRESHOLD && active < inner.cfg.max_fp_cores {
            inner.active_fp = active + 1;
            changed = true;
        } else if idle > IDLE_REMOVE_THRESHOLD && active > 1 {
            inner.active_fp = active - 1;
            changed = true;
        }
        if changed {
            inner.reg.inc(inner.c_scale_events);
            trace!(
                "host",
                now,
                CoreScale {
                    active: inner.active_fp as u32,
                    delta: inner.active_fp as i32 - active as i32,
                }
            );
            // Eager RSS redirection-table rewrite.
            inner.nic.rss_mut().rebalance(inner.active_fp);
        }
    }

    /// Samples the active fast-path core count and per-core utilization
    /// into the registry. Called from packet arrival and the periodic timers;
    /// [`Registry::begin_sample`] floors each sample onto the fixed grid
    /// and drops re-entries within one interval, so the output is a
    /// deterministic fixed-cadence series regardless of which event
    /// happened to drive it.
    fn sample_series(&mut self, now: SimTime) {
        let inner = &mut self.inner;
        let reg = &mut inner.reg;
        if !reg.begin_sample(now) {
            return;
        }
        reg.record("cores.active_fp", Scope::Global, inner.active_fp as f64);
        reg.record_util("fp.util", inner.fp_cores.iter().map(Core::busy_total));
    }
}

// ----------------------------------------------------------------------
// The libTAS application API: the stack under the app runtime.

impl AppStack for Inner {
    type Op = Cmd;
    const APP_TIMER: u32 = timers::APP;
    const APP_RUN_TIMER: u32 = timers::APP_RUN;
    const OP_LANES: usize = 2;
    const APP_CORE_GROUP: &'static str = "app";

    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        self.nic.rss_mut().rebalance(self.active_fp);
        ctx.timer(self.cfg.control_interval, timers::SP_CTRL, 0);
        if self.cfg.proportional {
            ctx.timer(SimTime::from_ms(1), timers::PROP, 0);
        }
    }

    /// App cores idle for longer than `APP_IDLE_SLEEP` sleep in epoll
    /// and pay a wake before the handler runs.
    fn activate(&mut self, context: u16, t: SimTime) -> (SimTime, u64) {
        let core = self.app_cores.core(context as usize);
        let asleep = t.saturating_sub(core.busy_until()) > APP_IDLE_SLEEP;
        let start = if asleep { t + APP_WAKE_LATENCY } else { t };
        (start, self.api_cost(COSTS.so_poll))
    }

    fn listen(&mut self, frame: &mut Frame<Cmd>, port: u16) {
        frame.api_cycles += self.api_cost(COSTS.so_conn_op);
        self.sp.listen(port);
    }

    fn connect(&mut self, frame: &mut Frame<Cmd>, ip: Ipv4Addr, port: u16, _: &mut Rng) -> SockId {
        frame.api_cycles += self.api_cost(COSTS.so_conn_op);
        let (sock, _) = self.alloc_sock();
        frame.push(Cmd::Sp(SpWork::Connect { sock, ip, port }));
        sock
    }

    fn send(&mut self, frame: &mut Frame<Cmd>, sock: SockId, data: &[u8]) -> usize {
        frame.api_cycles += self.api_cost(COSTS.so_send);
        let Some(s) = self.socks.get_mut(sock as usize) else {
            return 0;
        };
        let Some(fid) = s.fid else {
            return 0;
        };
        let Some(flow) = self.fp.flows.get_mut(fid) else {
            return 0;
        };
        // libTAS writes payload directly into the user-space TX ring.
        probe! { let off0 = flow.snd.tx.end_offset(); }
        let n = flow.snd.tx.append_partial(data);
        if n < data.len() {
            s.want_write = true;
        }
        if n > 0 {
            trace!(
                "app",
                frame.now,
                Stage {
                    stage: tas_telemetry::Stage::AppSend,
                    flow: flow.conn.key(),
                    seq: flow.seq_of(off0),
                    len: n as u32,
                    wait_ns: 0,
                }
            );
            frame.push(Cmd::Fp(FpCmd::Tx(fid)));
        }
        n
    }

    fn recv_with(
        &mut self,
        frame: &mut Frame<Cmd>,
        sock: SockId,
        max: usize,
        f: &mut dyn FnMut(&[u8]) -> usize,
    ) -> usize {
        frame.api_cycles += self.api_cost(COSTS.so_recv);
        let Some(fid) = self.socks.get(sock as usize).and_then(|s| s.fid) else {
            return 0;
        };
        let Some(flow) = self.fp.flows.get_mut(fid) else {
            return 0;
        };
        probe! { let off0 = flow.rcv.rx.start_offset(); }
        // The application reads the per-flow payload ring in place (§3.1).
        let n = flow.rcv.rx.read_with(max, f);
        if n > 0 {
            trace!(
                "app",
                frame.now,
                Stage {
                    stage: tas_telemetry::Stage::AppDeliver,
                    flow: flow.conn.key().reversed(),
                    seq: flow.rcv_seq_of(off0),
                    len: n as u32,
                    wait_ns: 0,
                }
            );
            self.reg.add(self.c_app_bytes, n as u64);
            frame.push(Cmd::Fp(FpCmd::RxBump(fid)));
        }
        n
    }

    fn readable(&self, sock: SockId) -> usize {
        self.socks
            .get(sock as usize)
            .and_then(|s| s.fid)
            .and_then(|fid| self.fp.flows.get(fid))
            .map_or(0, |flow| flow.rcv.rx.len())
    }

    fn close(&mut self, frame: &mut Frame<Cmd>, sock: SockId) {
        frame.api_cycles += self.api_cost(COSTS.so_conn_op);
        frame.push(Cmd::Sp(SpWork::Close { sock }));
    }

    /// A context-queue hop costs roughly one low-level queue operation.
    fn post(&self, context: u16) -> (u64, u16) {
        (COSTS.ll_op, context)
    }

    fn run_frame(&mut self, frame: &Frame<Cmd>) -> SimTime {
        let (api, app) = (frame.api_cycles, frame.app_cycles);
        self.acct.charge_app_frame(api, app, COSTS.ipc_times_100);
        let core = self.app_cores.core(frame.context as usize);
        core.run(frame.now, api + app).1
    }

    /// Commands become events at the frame's end: the fast- and
    /// slow-path cores must serve interim work first.
    fn route(&self, op: &Cmd, end: SimTime) -> (SimTime, u32, usize) {
        match op {
            Cmd::Fp(_) => (end, timers::FP_CMD, FP_LANE),
            Cmd::Sp(_) => (end, timers::SP_RUN, SP_LANE),
        }
    }
}

// ----------------------------------------------------------------------
// Agent implementation.

impl Agent<NetMsg> for TasHost {
    fn on_event(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
        if self.rt.on_event(&mut self.inner, 0, &ev, ctx) {
            return;
        }
        match ev {
            Event::Msg {
                msg: NetMsg::Packet(seg),
                ..
            } => {
                let now = ctx.now();
                self.sample_series(now);
                let q = self.inner.nic.rx_steer(&seg);
                trace!("host", now, SegRx(seg));
                // The span key of a data segment, captured before the fast
                // path consumes it.
                probe! {
                    let stamp = (!seg.payload.is_empty()).then(|| {
                        (seg.flow_key().reversed(), seg.tcp.seq, seg.payload.len() as u32)
                    });
                }
                probe! {
                    if let Some((flow, seq, len)) = stamp {
                        trace!(
                            "nic",
                            now,
                            Stage {
                                stage: tas_telemetry::Stage::NicRx,
                                flow,
                                seq,
                                len,
                                wait_ns: 0,
                            }
                        );
                    }
                }
                let core_idx = q.min(self.inner.active_fp - 1);
                // Finite RX ring: drop when the core is too far behind.
                let backlog = self
                    .inner
                    .fp_cores
                    .core_ref(core_idx)
                    .busy_until()
                    .saturating_sub(now);
                if backlog > self.inner.cfg.max_core_backlog {
                    let id = self.inner.c_drop_backlog;
                    self.inner.reg.inc(id);
                    let per_core = self
                        .inner
                        .reg
                        .counter("host.drop_backlog", Scope::Core(core_idx as u32));
                    self.inner.reg.inc(per_core);
                    return;
                }
                let stall = Self::cache_stall(&self.inner);
                // Only the span probe below reads the service interval.
                let _served = self.run_fp(core_idx, now, ctx, stall, |fp, t, acct| {
                    let c = fp.rx_segment(t, seg, acct);
                    if stall > 0 {
                        acct.charge(Module::Tcp, stall, 0);
                    }
                    c
                });
                probe! {
                    if let Some((flow, seq, len)) = stamp {
                        let (start, end) = _served;
                        trace!(
                            "fp",
                            end,
                            Stage {
                                stage: tas_telemetry::Stage::FpRx,
                                flow,
                                seq,
                                len,
                                wait_ns: start.saturating_sub(now).as_nanos(),
                            }
                        );
                    }
                }
            }
            Event::Msg { .. } => {}
            Event::Timer { kind, data } => {
                let now = ctx.now();
                match kind {
                    timers::FP_TX => {
                        let fid = data as u32;
                        // The timer that fired is no longer armed.
                        if let Some(slot) = self.inner.fp_tx_timers.get_mut(fid as usize) {
                            *slot = None;
                        }
                        let core = Self::fp_core_for(&self.inner, fid);
                        self.run_fp(core, now, ctx, 0, |fp, t, acct| fp.tx_poll(t, fid, acct));
                    }
                    timers::SP_CTRL => {
                        self.sample_series(now);
                        let (_, end) =
                            self.run_sp(now, |sp, fp, t, acct| sp.control_loop(t, fp, acct));
                        self.flush(end, SimTime::ZERO, ctx);
                        // Self-pacing: the next iteration starts when this
                        // one finishes or after the nominal interval,
                        // whichever is later.
                        let next = (now + self.inner.cfg.control_interval)
                            .max(self.inner.sp_core.busy_until());
                        ctx.timer_at(next, timers::SP_CTRL, 0);
                    }
                    timers::PROP => {
                        self.sample_series(now);
                        self.prop_tick(now);
                        ctx.timer(SimTime::from_ms(1), timers::PROP, 0);
                    }
                    timers::FP_CMD | timers::SP_RUN => {
                        let (lane, n) = unpack_wake(data);
                        for _ in 0..n {
                            match self.rt.ops.pop(lane) {
                                Some(Cmd::Fp(cmd)) => {
                                    let (FpCmd::Tx(fid) | FpCmd::RxBump(fid)) = cmd;
                                    let core = Self::fp_core_for(&self.inner, fid);
                                    self.run_fp(core, now, ctx, 0, |fp, t, acct| match cmd {
                                        FpCmd::Tx(_) => fp.tx_command(t, fid, acct),
                                        FpCmd::RxBump(_) => fp.rx_bump(t, fid, acct),
                                    });
                                }
                                Some(Cmd::Sp(work)) => self.run_sp_work(work, now, ctx),
                                None => break,
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    impl_as_any!();
}
