//! A host running one of the baseline stacks.
//!
//! [`StackHost`] pairs the complete `tas-tcp` connection engine with a
//! [`StackProfile`] and a [`ThreadModel`]:
//!
//! * [`ThreadModel::InKernel`] (Linux): stack processing runs on the same
//!   cores as the application; per-connection state is shared machine-wide
//!   (cache + contention charges); the app pays per-syscall costs.
//! * [`ThreadModel::RunToCompletion`] (IX): per-core partitioned stacks,
//!   run-to-completion into the app's event handler, libevent-style API.
//! * [`ThreadModel::SplitBatched`] (mTCP): dedicated stack cores; events
//!   cross to app cores in batches (flushed on size or timeout), buying
//!   throughput at a latency cost.
//! * [`ThreadModel::MpkDataplane`] (MPK-protected dataplane): Linux-grade
//!   packet processing runs to completion on the app's cores inside an
//!   intra-process protection domain; every app↔stack interaction pays a
//!   WRPKRU-scale crossing instead of a syscall.
//! * [`ThreadModel::OffPathNic`] (PnO-style SmartNIC): the whole TCP
//!   stack runs on wimpy NIC-resident cores ([`CoreClass::Nic`]); host
//!   cores only run the app and a descriptor shim, and every app↔NIC
//!   interaction crosses the modeled PCIe/DMA boundary.
//!
//! The application side — frames, deferred delivery, app timers — is the
//! shared [`AppRuntime`]; this file is the stack under it.

use crate::profiles::StackProfile;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::ops::{Deref, DerefMut};
use tas_cpusim::{
    CacheModel, Core, CoreClass, CorePool, Crossing, CycleAccount, Module, PcieModel,
};
use tas_netsim::app::{App, AppEvent, SockId};
use tas_netsim::rss::hash_tuple;
use tas_netsim::runtime::{unpack_wake, AppRuntime, AppStack, Frame, HostedApp};
use tas_netsim::topo::mac_for_ip;
use tas_netsim::{HostNic, NetMsg, NicConfig};
use tas_proto::{FlowIndex, FlowKey, MacAddr, Segment, Slab, TcpFlags};
use tas_sim::{
    impl_as_any, probe, prof_charge, prof_scope, Agent, CounterId, Ctx, Event, Registry, Rng,
    Scope, SimTime, TimerId,
};
use tas_tcp::{EndpointInfo, TcpConfig, TcpConn, TcpEvent};

/// Threading/batching architecture of the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadModel {
    /// Monolithic in-kernel (Linux): stack on app cores, shared state.
    InKernel,
    /// Per-core run-to-completion (IX).
    RunToCompletion,
    /// Dedicated stack cores with batched app queues (mTCP).
    SplitBatched {
        /// Cores reserved for the stack (out of the host total).
        stack_cores: usize,
    },
    /// Intra-process MPK-protected dataplane: run-to-completion on app
    /// cores with per-core partitioned state, but every app↔stack
    /// boundary interaction pays `crossing` (a WRPKRU pair) instead of
    /// the syscall cost baked into the Linux API constants.
    MpkDataplane {
        /// Cost of one protected-domain crossing.
        crossing: Crossing,
    },
    /// Off-path SmartNIC (PnO-style): cores `0..nic_cores` are wimpy
    /// NIC-class cores running the entire TCP stack; the remaining
    /// cores are host-class and run only the app plus a descriptor
    /// shim. Every app↔NIC interaction pays the PCIe/DMA boundary
    /// (one-way descriptor latency, payload serialization, amortized
    /// doorbells).
    OffPathNic {
        /// Cores dedicated to the on-NIC stack (out of the host total).
        nic_cores: usize,
        /// The modeled PCIe/DMA boundary.
        pcie: PcieModel,
    },
}

/// Core clock of every host-class core (the paper's server: 2.1 GHz).
const FREQ_HZ: u64 = 2_100_000_000;
/// Clock of the off-path model's wimpy NIC cores.
const NIC_FREQ_HZ: u64 = 800_000_000;
/// mTCP: events per batch before an eager flush.
const MTCP_BATCH: usize = 32;
/// mTCP: longest time an event waits for its batch to flush.
const MTCP_FLUSH: SimTime = SimTime::from_us(100);

/// Configuration of a baseline host.
#[derive(Clone, Debug)]
pub struct StackHostConfig {
    /// Total cores.
    pub cores: usize,
    /// Threading model.
    pub model: ThreadModel,
    /// TCP parameters (congestion control, ECN, buffers, RTO bounds).
    pub tcp: TcpConfig,
    /// Effective cache available for connection state: machine-wide for
    /// shared-state stacks, divided per core for partitioned ones.
    pub cache_bytes: u64,
    /// RX-ring bound: packets arriving when the owning core is further
    /// behind than this are dropped.
    pub max_core_backlog: SimTime,
}

impl StackHostConfig {
    /// A Linux-model host with `cores` cores (paper server: 2.1 GHz,
    /// 33 MB aggregate cache).
    pub fn linux(cores: usize) -> Self {
        StackHostConfig {
            cores,
            model: ThreadModel::InKernel,
            tcp: TcpConfig {
                // Effective Linux tail-recovery timescale: stock RTO_MIN
                // is 200 ms but tail-loss probes (on by default since 3.10)
                // retransmit after ~2 SRTT; 10 ms approximates the
                // combined behaviour without modelling TLP explicitly.
                rto_min: SimTime::from_ms(10),
                rto_max: SimTime::from_secs(2),
                ..TcpConfig::default()
            },
            cache_bytes: 33 << 20,
            max_core_backlog: SimTime::from_us(500),
        }
    }

    /// An IX-model host.
    pub fn ix(cores: usize) -> Self {
        let mut cfg = StackHostConfig::linux(cores);
        cfg.model = ThreadModel::RunToCompletion;
        cfg.tcp.rto_min = SimTime::from_ms(10);
        cfg
    }

    /// An mTCP-model host with `stack_cores` of the total dedicated to the
    /// stack.
    pub fn mtcp(cores: usize, stack_cores: usize) -> Self {
        let mut cfg = StackHostConfig::linux(cores);
        cfg.model = ThreadModel::SplitBatched { stack_cores };
        cfg.tcp.rto_min = SimTime::from_ms(10);
        cfg
    }

    /// An MPK-protected-dataplane host: Linux-grade packet processing in
    /// an intra-process protection domain, crossed via WRPKRU.
    pub fn mpk(cores: usize) -> Self {
        let mut cfg = StackHostConfig::linux(cores);
        cfg.model = ThreadModel::MpkDataplane {
            crossing: Crossing::wrpkru(),
        };
        cfg
    }

    /// A PnO-style off-path SmartNIC host: `nic_cores` wimpy 800 MHz
    /// NIC cores run the stack behind a PCIe Gen3 x8 boundary;
    /// `host_cores` host cores run the app. The effective cache is the
    /// SmartNIC's small last-level cache (BlueField-class, ~6 MB),
    /// partitioned across the NIC cores.
    pub fn pno(host_cores: usize, nic_cores: usize) -> Self {
        let mut cfg = StackHostConfig::linux(host_cores + nic_cores);
        cfg.model = ThreadModel::OffPathNic {
            nic_cores,
            pcie: PcieModel::gen3_x8(),
        };
        cfg.cache_bytes = 6 << 20;
        cfg
    }
}

/// Timer kinds.
pub mod timers {
    /// Host init.
    pub const INIT: u32 = 0;
    /// Per-connection TCP timer; data = slot.
    pub const CONN: u32 = 1;
    /// mTCP batch flush; data = app core index.
    pub const BATCH: u32 = 2;
    /// Application timer; data = `pack_app_timer(context, token)`.
    pub const APP: u32 = 3;
    /// Deferred app-event delivery; data = core index.
    pub const APP_RUN: u32 = 4;
    /// Deferred connection command (API send/recv/connect follow-ups).
    pub const CONN_CMD: u32 = 5;
}

/// Descriptor size DMA'd per app↔NIC notification/command (a cache line,
/// as real NIC descriptor rings use).
const EVENT_DESC_BYTES: u64 = 64;

struct Slot {
    conn: TcpConn,
    /// The stack core RSS steers this connection to: its 4-tuple and the
    /// host's stack-core count never change, so it is hashed once, at
    /// install.
    stack_core: usize,
    accepted: bool,
    want_write: bool,
    connected_sent: bool,
    closed_sent: bool,
    /// A Readable event is outstanding (epoll level-trigger coalescing:
    /// one wakeup drains a whole backlog with one recv, instead of one
    /// syscall per segment).
    rx_notified: bool,
    armed: SimTime,
    /// Live engine handle for the armed CONN timer; a superseded timer is
    /// cancelled before its replacement is armed, and close cancels before
    /// the slot is freed, so a CONN timer that fires is always current.
    timer_id: Option<TimerId>,
}

/// A socket call's follow-up on the connection's stack core.
enum ConnCmd {
    /// Poll the connection for output the call produced.
    Touch(u32),
    Connect(u32),
}

struct Inner {
    profile: StackProfile,
    cfg: StackHostConfig,
    ip: Ipv4Addr,
    mac: MacAddr,
    nic: HostNic,
    cores: CorePool,
    slots: Slab<Slot>,
    /// Flow-key → slot lookup, once per received segment. Nothing
    /// iterates it.
    by_key: FlowIndex,
    listeners: BTreeSet<u16>,
    next_port: u16,
    acct: CycleAccount,
    /// Per-app-core pending event batches (mTCP model).
    batches: Vec<Vec<AppEvent>>,
    batch_armed: Vec<bool>,
    /// Domain crossings of the current app frame (its activation plus one
    /// per socket call), priced by the thread model's boundary primitive.
    crossings: u64,
    /// Payload bytes the current app frame moved across the app↔stack
    /// boundary (DMA-serialized for the off-path model).
    dma_bytes: u64,
    /// Host-level metric registry: every host counter is read from here
    /// (`host.*`, `boundary.*`, `app.bytes_delivered`).
    reg: Registry,
    c_drop_backlog: CounterId,
    c_established: CounterId,
    c_closed: CounterId,
    c_batches: CounterId,
    c_app_bytes: CounterId,
    /// Domain crossings charged at the boundary primitive's cost (only
    /// advances for the MPK/off-path models; zero elsewhere).
    c_crossings: CounterId,
    /// Payload bytes serialized across the PCIe/DMA boundary.
    c_dma_bytes: CounterId,
    /// TCP counters folded in from connections whose slots were dropped
    /// (so telemetry keeps the full-run totals, not just live conns).
    tcp_cum: tas_tcp::ConnStats,
    /// Recycled `run_conn` buffers for a connection's staged segments and
    /// events: capacity survives across calls, so the per-packet path
    /// allocates nothing in steady state.
    conn_out: Vec<Segment>,
    conn_events: Vec<TcpEvent>,
}

/// A baseline-stack host agent. It dereferences to its [`HostedApp`]
/// (`app_as`, `set_tenant`, `enable_profiling`).
pub struct StackHost {
    inner: Inner,
    rt: AppRuntime<Inner>,
}

impl Deref for StackHost {
    type Target = HostedApp;
    fn deref(&self) -> &HostedApp {
        &self.rt.hosted
    }
}

impl DerefMut for StackHost {
    fn deref_mut(&mut self) -> &mut HostedApp {
        &mut self.rt.hosted
    }
}

impl StackHost {
    /// Creates a host; inject a [`timers::INIT`] timer to start it.
    pub fn new(
        ip: Ipv4Addr,
        mac: MacAddr,
        nic_cfg: NicConfig,
        profile: StackProfile,
        cfg: StackHostConfig,
        uplink: tas_sim::AgentId,
        app: Box<dyn App>,
    ) -> Self {
        assert!(cfg.cores >= 1, "need at least one core");
        if let ThreadModel::SplitBatched { stack_cores, .. } = cfg.model {
            assert!(
                stack_cores >= 1 && stack_cores < cfg.cores,
                "mTCP model needs 1..cores stack cores"
            );
        }
        if let ThreadModel::OffPathNic { nic_cores, .. } = cfg.model {
            assert!(
                nic_cores >= 1 && nic_cores < cfg.cores,
                "off-path model needs 1..cores NIC cores"
            );
        }
        let nic = HostNic::new(mac, nic_cfg, uplink);
        let cores = match cfg.model {
            ThreadModel::OffPathNic { nic_cores, .. } => CorePool::heterogeneous(&[
                (CoreClass::Nic, nic_cores, NIC_FREQ_HZ),
                (CoreClass::Host, cfg.cores - nic_cores, FREQ_HZ),
            ]),
            _ => CorePool::new(cfg.cores, FREQ_HZ),
        };
        let app_core_count = cfg.cores;
        let rt = AppRuntime::new(app, app_core_count);
        let mut reg = Registry::new();
        let c_drop_backlog = reg.counter("host.drop_backlog", Scope::Global);
        let c_established = reg.counter("host.established", Scope::Global);
        let c_closed = reg.counter("host.closed", Scope::Global);
        let c_batches = reg.counter("host.batches", Scope::Global);
        let c_app_bytes = reg.counter("app.bytes_delivered", Scope::Global);
        let c_crossings = reg.counter("boundary.crossings", Scope::Global);
        let c_dma_bytes = reg.counter("boundary.dma_bytes", Scope::Global);
        StackHost {
            inner: Inner {
                profile,
                cfg,
                ip,
                mac,
                nic,
                cores,
                slots: Slab::new(),
                by_key: FlowIndex::new(),
                listeners: BTreeSet::new(),
                next_port: 40_000,
                acct: CycleAccount::new(),
                batches: (0..app_core_count).map(|_| Vec::new()).collect(),
                batch_armed: vec![false; app_core_count],
                crossings: 1,
                dma_bytes: 0,
                reg,
                c_drop_backlog,
                c_established,
                c_closed,
                c_batches,
                c_app_bytes,
                c_crossings,
                c_dma_bytes,
                tcp_cum: tas_tcp::ConnStats::default(),
                conn_out: Vec::new(),
                conn_events: Vec::new(),
            },
            rt,
        }
    }

    // ------------------------------------------------------------------
    // Accessors. Profiled cores are `core<i>`.

    /// Cycle accounting (Tables 1–2).
    pub fn account(&self) -> &CycleAccount {
        &self.inner.acct
    }

    /// Exact cycles submitted per core since creation (the integer
    /// ground truth the attribution profiler conserves against).
    pub fn busy_cycles(&self) -> Vec<u64> {
        self.inner.cores.iter().map(Core::busy_cycles).collect()
    }

    /// Total cycles submitted to cores of `class` — the off-path
    /// model's headline currency is *host*-class cycles per request
    /// (NIC-core cycles are the SmartNIC's, not the server's).
    pub fn busy_cycles_by_class(&self, class: CoreClass) -> u64 {
        self.inner.cores.busy_cycles_by_class(class)
    }

    /// The host's metric registry: host counters plus the one 1 ms
    /// series, per-core `core.util{core=i}` (the cycle profiler's
    /// utilization window).
    pub fn registry(&self) -> &Registry {
        &self.inner.reg
    }

    /// A deterministic, ordered snapshot of every counter the host can
    /// see: registry, cumulative TCP counters (live connections plus
    /// everything folded in when slots were dropped) and live-state
    /// gauges.
    pub fn telemetry_snapshot(&self) -> tas_sim::Snapshot {
        let mut snap = self.inner.reg.snapshot();
        let t = self.tcp_stats();
        snap.insert_counter("tcp.segs_out", Scope::Global, t.segs_out);
        snap.insert_counter("tcp.segs_in", Scope::Global, t.segs_in);
        snap.insert_counter("tcp.bytes_sent", Scope::Global, t.bytes_sent);
        snap.insert_counter("tcp.bytes_received", Scope::Global, t.bytes_received);
        snap.insert_counter("tcp.retransmits", Scope::Global, t.retransmits);
        snap.insert_counter("tcp.fast_retransmits", Scope::Global, t.fast_retransmits);
        snap.insert_counter("tcp.timeouts", Scope::Global, t.timeouts);
        snap.insert_counter("tcp.dupacks_in", Scope::Global, t.dupacks_in);
        snap.insert_counter("tcp.ece_in", Scope::Global, t.ece_in);
        snap.insert_gauge("conns.live", Scope::Global, self.inner.by_key.len() as i64);
        if let Some(ten) = self.tenant() {
            let scope = Scope::Tenant(ten);
            snap.insert_gauge("tenant.flows_live", scope, self.inner.by_key.len() as i64);
            snap.insert_counter(
                "tenant.established",
                scope,
                self.inner
                    .reg
                    .counter_value("host.established", Scope::Global),
            );
            snap.insert_counter("tenant.bytes_rx", scope, t.bytes_received);
        }
        snap
    }

    /// Aggregated TCP stats: live connections plus counters folded in
    /// from connections whose slots were already dropped, so the totals
    /// cover the whole run.
    pub fn tcp_stats(&self) -> tas_tcp::ConnStats {
        let mut total = self.inner.tcp_cum;
        for (_, s) in self.inner.slots.iter() {
            total += s.conn.stats;
        }
        total
    }

    // ------------------------------------------------------------------
    // Core assignment.

    fn stack_core_count(inner: &Inner) -> usize {
        match inner.cfg.model {
            ThreadModel::SplitBatched { stack_cores, .. } => stack_cores,
            ThreadModel::OffPathNic { nic_cores, .. } => nic_cores,
            _ => inner.cfg.cores,
        }
    }

    /// First core the application may run on (app cores sit above the
    /// NIC cores in the off-path layout; elsewhere core 0 is fine).
    fn first_app_core(inner: &Inner) -> usize {
        match inner.cfg.model {
            ThreadModel::OffPathNic { nic_cores, .. } => nic_cores,
            _ => 0,
        }
    }

    fn app_core_of(inner: &Inner, slot: u32) -> usize {
        match inner.cfg.model {
            ThreadModel::SplitBatched { stack_cores: k, .. }
            | ThreadModel::OffPathNic { nic_cores: k, .. } => {
                k + (slot as usize % (inner.cfg.cores - k))
            }
            _ => Self::stack_core_of(inner, slot),
        }
    }

    fn stack_core_of(inner: &Inner, slot: u32) -> usize {
        let Some(s) = inner.slots.get(slot) else {
            return 0;
        };
        debug_assert_eq!(
            s.stack_core,
            Self::rss_core(inner, &s.conn),
            "a connection's stored stack core is its RSS route"
        );
        s.stack_core
    }

    /// The stack core RSS steers `conn`'s 4-tuple to.
    fn rss_core(inner: &Inner, conn: &TcpConn) -> usize {
        let k = conn.remote();
        let l = conn.local();
        let h = hash_tuple(k.ip, l.ip, k.port, l.port);
        h as usize % Self::stack_core_count(inner)
    }

    // ------------------------------------------------------------------
    // Stack-side processing.

    fn cache_and_contention(inner: &Inner) -> u64 {
        let p = &inner.profile;
        let conns = inner.by_key.len() as u64;
        if conns == 0 {
            return 0;
        }
        let (cache, conns_in_set) = if p.partitioned_state {
            let n = Self::stack_core_count(inner) as u64;
            (inner.cfg.cache_bytes / n.max(1), conns / n.max(1))
        } else {
            (inner.cfg.cache_bytes, conns)
        };
        let model = CacheModel::new(cache.max(1), p.lines_per_req, p.miss_penalty);
        let stall = model.stall_cycles(p.conn_state_bytes, conns_in_set) as u64;
        let contention = p.contention.stall_cycles(inner.cfg.cores) as u64;
        stall + contention
    }

    /// Runs a connection interaction on its stack core at `t`: `f` drives
    /// the engine, then staged segments are cost-charged and transmitted
    /// and events delivered. `base_cost` is the packet-type processing
    /// cost; `_label` names the operation's profile frame, which only the
    /// cycle profiler opens.
    #[allow(clippy::too_many_arguments)] // One call site per packet class; the tuple is the cost model.
    fn run_conn(
        &mut self,
        _label: &'static str,
        slot: u32,
        t: SimTime,
        base_cost: u64,
        extra: u64,
        ctx: &mut Ctx<'_, NetMsg>,
        f: impl FnOnce(&mut TcpConn, SimTime),
    ) {
        let core_idx = Self::stack_core_of(&self.inner, slot);
        probe! { self.rt.hosted.prof_arm("core", core_idx as u32); }
        prof_scope!(_label);
        prof_charge!(base_cost);
        let start = t.max(self.inner.cores.core_ref(core_idx).busy_until());
        let (mut out, mut events, tx_cost) = {
            let inner = &mut self.inner;
            let Some(s) = inner.slots.get_mut(slot) else {
                return;
            };
            f(&mut s.conn, start);
            s.conn.poll(start);
            let mut out = std::mem::take(&mut inner.conn_out);
            let mut events = std::mem::take(&mut inner.conn_events);
            s.conn.move_outgoing(&mut out);
            s.conn.move_events(&mut events);
            // Charge transmit costs per staged segment.
            let mut tx_cost = 0;
            for seg in &out {
                let c = if seg.payload.is_empty() {
                    inner.profile.tx_ack
                } else {
                    inner.profile.tx_data
                };
                c.charge(&mut inner.acct, inner.profile.ipc_times_100);
                tx_cost += c.total();
            }
            (out, events, tx_cost)
        };
        let total = base_cost + extra + tx_cost;
        // Transmit and stall cycles charge through the account, not a
        // profiled funnel; stage them under their own frames so the
        // core-run drain attributes them.
        prof_charge!(tx_cost, "tx");
        prof_charge!(extra, "stalls");
        if extra > 0 {
            // Cache/contention stalls: backend-bound cycles, no retired
            // instructions.
            self.inner.acct.charge(Module::Tcp, extra, 0);
        }
        let (_, end) = self.inner.cores.core(core_idx).run(t, total);
        for seg in out.drain(..) {
            self.inner.nic.tx(end, seg, ctx);
        }
        self.handle_conn_events(slot, &mut events, end, ctx);
        self.inner.conn_out = out;
        self.inner.conn_events = events;
        self.rearm_conn_timer(slot, ctx);
    }

    fn rearm_conn_timer(&mut self, slot: u32, ctx: &mut Ctx<'_, NetMsg>) {
        let Some(s) = self.inner.slots.get_mut(slot) else {
            return;
        };
        if s.conn.is_closed() {
            // Drop the connection state, folding its counters into the
            // cumulative totals first; retract any armed timer so the
            // queue holds no ghost entry for a dead slot.
            let stale_timer = s.timer_id.take();
            let key = s.conn.flow_key();
            self.inner.tcp_cum += s.conn.stats;
            self.inner.by_key.remove(&key);
            self.inner.slots.remove(slot);
            let id = self.inner.c_closed;
            self.inner.reg.inc(id);
            if let Some(tid) = stale_timer {
                ctx.cancel_timer(tid);
            }
            return;
        }
        let Some(next) = s.conn.next_timer() else {
            s.armed = SimTime::MAX;
            return;
        };
        if next < s.armed {
            s.armed = next;
            if let Some(tid) = s.timer_id.take() {
                ctx.cancel_timer(tid);
            }
            s.timer_id = Some(ctx.timer_at(next, timers::CONN, slot as u64));
        }
    }

    /// Turns a connection's events into app events; drains `events`.
    fn handle_conn_events(
        &mut self,
        slot: u32,
        events: &mut Vec<TcpEvent>,
        t: SimTime,
        ctx: &mut Ctx<'_, NetMsg>,
    ) {
        // Raises `flag` and passes `ev` on, unless `flag` was already up.
        let once = |flag: &mut bool, ev| (!std::mem::replace(flag, true)).then_some(ev);
        for ev in events.drain(..) {
            let Some(s) = self.inner.slots.get_mut(slot) else {
                return;
            };
            let sock = slot;
            let app_ev = match ev {
                TcpEvent::Connected => {
                    let ev = if s.accepted {
                        let port = s.conn.local().port;
                        AppEvent::Accepted { sock, port }
                    } else {
                        AppEvent::Connected { sock }
                    };
                    let ev = once(&mut s.connected_sent, ev);
                    if ev.is_some() {
                        self.inner.reg.inc(self.inner.c_established);
                    }
                    ev
                }
                TcpEvent::DataAvailable => once(&mut s.rx_notified, AppEvent::Readable { sock }),
                TcpEvent::SendSpaceAvailable => {
                    // EPOLLOUT-style coalescing: wake the writer once a
                    // useful chunk of buffer space is available, not on
                    // every freed segment.
                    let send_buf = s.conn.send_space() + s.conn.in_flight() as usize;
                    let threshold = (send_buf / 4).max(8 * 1024);
                    let ready = s.want_write && s.conn.send_space() >= threshold;
                    ready.then(|| {
                        s.want_write = false;
                        AppEvent::Writable { sock }
                    })
                }
                TcpEvent::PeerFin | TcpEvent::Reset | TcpEvent::Closed => {
                    once(&mut s.closed_sent, AppEvent::Closed { sock })
                }
            };
            if let Some(app_ev) = app_ev {
                self.route_app_event(slot, app_ev, t, ctx);
            }
        }
    }

    fn route_app_event(&mut self, slot: u32, ev: AppEvent, t: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        match self.inner.cfg.model {
            ThreadModel::SplitBatched { .. } => {
                let app_core = Self::app_core_of(&self.inner, slot);
                self.inner.batches[app_core].push(ev);
                if self.inner.batches[app_core].len() >= MTCP_BATCH {
                    self.flush_batch(app_core, t, ctx);
                } else if !self.inner.batch_armed[app_core] {
                    self.inner.batch_armed[app_core] = true;
                    ctx.timer_at(t + MTCP_FLUSH, timers::BATCH, app_core as u64);
                }
            }
            model => {
                // Off-path NIC→host notification: the event descriptor
                // DMAs across the PCIe boundary before the app can see it.
                let delay = match model {
                    ThreadModel::OffPathNic { pcie, .. } => pcie.one_way(EVENT_DESC_BYTES),
                    _ => SimTime::ZERO,
                };
                let core = Self::app_core_of(&self.inner, slot) as u16;
                self.rt.defer(t + delay, core, ev, ctx);
            }
        }
    }

    fn flush_batch(&mut self, app_core: usize, t: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        self.inner.batch_armed[app_core] = false;
        let evs = std::mem::take(&mut self.inner.batches[app_core]);
        if evs.is_empty() {
            return;
        }
        let id = self.inner.c_batches;
        self.inner.reg.inc(id);
        for ev in evs {
            self.rt
                .deliver(&mut self.inner, t, app_core as u16, ev, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Packet receive.

    /// Samples per-core utilization into the registry's fixed sim-clock
    /// grid (which dedupes re-entries within one interval).
    fn sample_series(&mut self, now: SimTime) {
        let reg = &mut self.inner.reg;
        if reg.begin_sample(now) {
            reg.record_util("core.util", self.inner.cores.iter().map(Core::busy_total));
        }
    }

    fn on_packet(&mut self, seg: Segment, ctx: &mut Ctx<'_, NetMsg>) {
        let now = ctx.now();
        self.sample_series(now);
        let key = seg.flow_key();
        let is_data = !seg.payload.is_empty();
        if let Some(slot) = self.inner.by_key.get(&key) {
            let core_idx = Self::stack_core_of(&self.inner, slot);
            let backlog = self
                .inner
                .cores
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
            let cost = if is_data {
                self.inner.profile.rx_data
            } else {
                self.inner.profile.rx_ack
            };
            cost.charge(&mut self.inner.acct, self.inner.profile.ipc_times_100);
            let extra = Self::cache_and_contention(&self.inner);
            let label = if is_data { "rx_data" } else { "rx_ack" };
            self.run_conn(label, slot, now, cost.total(), extra, ctx, |conn, t| {
                conn.on_segment(t, seg);
            });
            return;
        }
        // New inbound connection?
        if seg.tcp.flags.contains(TcpFlags::SYN)
            && !seg.tcp.flags.contains(TcpFlags::ACK)
            && self.inner.listeners.contains(&key.local_port)
        {
            let iss = ctx.rng().next_u32();
            let inner = &mut self.inner;
            let local = EndpointInfo {
                ip: inner.ip,
                port: key.local_port,
                mac: inner.mac,
            };
            let remote = EndpointInfo {
                ip: key.remote_ip,
                port: key.remote_port,
                mac: seg.eth.src,
            };
            let conn = TcpConn::accept(now, inner.cfg.tcp.clone(), local, remote, &seg, iss);
            let slot = Self::install(inner, key, conn, true);
            // Kernel-side accept processing.
            let cost = inner.profile.api_conn / 2 + inner.profile.rx_data.total();
            inner
                .acct
                .charge(Module::Tcp, cost, cost * inner.profile.ipc_times_100 / 100);
            self.run_conn("accept", slot, now, cost, 0, ctx, |_c, _t| {});
        }
        // Else: no matching state — drop (a RST generator is not needed
        // for the experiments).
    }

    fn install(inner: &mut Inner, key: FlowKey, conn: TcpConn, accepted: bool) -> u32 {
        let slot = Slot {
            stack_core: Self::rss_core(inner, &conn),
            conn,
            accepted,
            want_write: false,
            connected_sent: false,
            closed_sent: false,
            rx_notified: false,
            armed: SimTime::MAX,
            timer_id: None,
        };
        let id = inner.slots.insert(slot);
        inner.by_key.insert(key, id);
        id
    }
}

// ----------------------------------------------------------------------
// Application API: the stack under the app runtime.

impl Inner {
    /// Charges one socket call: its API cycles and one boundary crossing.
    fn call(&mut self, frame: &mut Frame<ConnCmd>, cycles: u64) {
        frame.api_cycles += cycles;
        self.crossings += 1;
    }

    /// Cycles one app↔stack boundary crossing costs under this thread
    /// model (zero where the cost is already folded into API constants).
    fn crossing_cycles(&self) -> u64 {
        match self.cfg.model {
            ThreadModel::MpkDataplane { crossing } => crossing.cycles,
            ThreadModel::OffPathNic { pcie, .. } => pcie.doorbell_amortized(),
            _ => 0,
        }
    }

    /// Profiler frame name for this model's boundary primitive.
    #[cfg(feature = "telemetry")]
    fn crossing_label(&self) -> &'static str {
        match self.cfg.model {
            ThreadModel::MpkDataplane { crossing } => crossing.kind.label(),
            ThreadModel::OffPathNic { pcie, .. } => pcie.doorbell.kind.label(),
            _ => "ctxsw",
        }
    }
}

impl AppStack for Inner {
    type Op = ConnCmd;
    const APP_TIMER: u32 = timers::APP;
    const APP_RUN_TIMER: u32 = timers::APP_RUN;
    const OP_LANES: usize = 1;
    const APP_CORE_GROUP: &'static str = "core";

    fn activate(&mut self, _context: u16, t: SimTime) -> (SimTime, u64) {
        // The activation itself enters the app's domain once.
        (self.crossings, self.dma_bytes) = (1, 0);
        (t, self.profile.api_poll)
    }

    fn listen(&mut self, frame: &mut Frame<ConnCmd>, port: u16) {
        self.call(frame, self.profile.api_conn);
        self.listeners.insert(port);
    }

    fn connect(
        &mut self,
        frame: &mut Frame<ConnCmd>,
        ip: Ipv4Addr,
        port: u16,
        rng: &mut Rng,
    ) -> SockId {
        self.call(frame, self.profile.api_conn);
        let local_port = self.next_port;
        self.next_port = self.next_port.checked_add(1).unwrap_or(40_000);
        let local = EndpointInfo {
            ip: self.ip,
            port: local_port,
            mac: self.mac,
        };
        let remote = EndpointInfo {
            ip,
            port,
            mac: mac_for_ip(ip),
        };
        let iss = rng.next_u32();
        let conn = TcpConn::connect(frame.now, self.cfg.tcp.clone(), local, remote, iss);
        let key = FlowKey::new(self.ip, local_port, ip, port);
        let slot = StackHost::install(self, key, conn, false);
        frame.push(ConnCmd::Connect(slot));
        slot
    }

    fn send(&mut self, frame: &mut Frame<ConnCmd>, sock: SockId, data: &[u8]) -> usize {
        self.call(frame, self.profile.api_send);
        let Some(s) = self.slots.get_mut(sock) else {
            return 0;
        };
        let n = s.conn.send(data);
        if n < data.len() {
            s.want_write = true;
        }
        if n > 0 {
            self.dma_bytes += n as u64;
            frame.push(ConnCmd::Touch(sock));
        }
        n
    }

    fn recv_with(
        &mut self,
        frame: &mut Frame<ConnCmd>,
        sock: SockId,
        max: usize,
        f: &mut dyn FnMut(&[u8]) -> usize,
    ) -> usize {
        self.call(frame, self.profile.api_recv);
        let Some(s) = self.slots.get_mut(sock) else {
            return 0;
        };
        let n = s.conn.recv_with(max, f);
        s.rx_notified = false;
        if n > 0 {
            self.reg.add(self.c_app_bytes, n as u64);
            self.dma_bytes += n as u64;
            frame.push(ConnCmd::Touch(sock));
        }
        n
    }

    fn readable(&self, sock: SockId) -> usize {
        self.slots.get(sock).map_or(0, |s| s.conn.readable())
    }

    fn close(&mut self, frame: &mut Frame<ConnCmd>, sock: SockId) {
        self.call(frame, self.profile.api_conn);
        if let Some(s) = self.slots.get_mut(sock) {
            s.conn.close();
            frame.push(ConnCmd::Touch(sock));
        }
    }

    /// Inter-thread queue hop (pthread queue + wakeup). App threads only
    /// exist on app cores, so off-path hosts map the context into the
    /// host-core range above the NIC cores.
    fn post(&self, context: u16) -> (u64, u16) {
        let first = StackHost::first_app_core(self);
        let core = first + context as usize % (self.cfg.cores - first);
        (180, core as u16)
    }

    fn run_frame(&mut self, frame: &Frame<ConnCmd>) -> SimTime {
        let (api, app) = (frame.api_cycles, frame.app_cycles);
        self.acct
            .charge_app_frame(api, app, self.profile.ipc_times_100);
        // Boundary crossings: WRPKRU flips or amortized doorbells, paid
        // on the app core. Pipeline-serializing, so no retired
        // instructions — the same convention as cache/contention stalls.
        let boundary = self.crossings * self.crossing_cycles();
        if boundary > 0 {
            self.acct.charge(Module::Api, boundary, 0);
            prof_charge!(boundary, "boundary", self.crossing_label());
            self.reg.add(self.c_crossings, self.crossings);
        }
        if matches!(self.cfg.model, ThreadModel::OffPathNic { .. }) && self.dma_bytes > 0 {
            self.reg.add(self.c_dma_bytes, self.dma_bytes);
        }
        let core = frame.context as usize;
        self.cores.core(core).run(frame.now, api + app + boundary).1
    }

    /// Host→stack commands: under the off-path model the command
    /// descriptor (plus any payload the frame staged) must DMA across
    /// the PCIe boundary before the NIC-side stack can act on it.
    fn route(&self, _op: &ConnCmd, end: SimTime) -> (SimTime, u32, usize) {
        let at = match self.cfg.model {
            ThreadModel::OffPathNic { pcie, .. } => {
                end + pcie.one_way(EVENT_DESC_BYTES + self.dma_bytes)
            }
            _ => end,
        };
        (at, timers::CONN_CMD, 0)
    }
}

// ----------------------------------------------------------------------
// Agent implementation.

impl Agent<NetMsg> for StackHost {
    fn on_event(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
        let first_app_core = Self::first_app_core(&self.inner) as u16;
        if self.rt.on_event(&mut self.inner, first_app_core, &ev, ctx) {
            return;
        }
        match ev {
            Event::Msg {
                msg: NetMsg::Packet(seg),
                ..
            } => self.on_packet(seg, ctx),
            Event::Msg { .. } => {}
            Event::Timer { kind, data } => {
                let now = ctx.now();
                match kind {
                    timers::CONN => {
                        let slot = data as u32;
                        let s = self.inner.slots.get_mut(slot);
                        debug_assert!(
                            s.as_ref().is_some_and(|s| s.timer_id.is_some()),
                            "CONN timer of slot {slot} outlived its cancel"
                        );
                        if let Some(s) = s {
                            s.armed = SimTime::MAX;
                            s.timer_id = None;
                            // Timeout processing costs roughly a data-path
                            // traversal.
                            let cost = self.inner.profile.rx_ack.total();
                            self.run_conn("timer", slot, now, cost, 0, ctx, |conn, t| {
                                conn.on_timer(t);
                            });
                        }
                    }
                    timers::BATCH => {
                        self.sample_series(now);
                        let core = data as usize;
                        self.flush_batch(core, now, ctx);
                    }
                    timers::CONN_CMD => {
                        // Poll the connection for output the API call
                        // produced (sends, window updates); a connect
                        // also pays the connect path.
                        let (lane, n) = unpack_wake(data);
                        for _ in 0..n {
                            let (label, slot, cost) = match self.rt.ops.pop(lane) {
                                Some(ConnCmd::Touch(slot)) => ("cmd", slot, 0),
                                Some(ConnCmd::Connect(slot)) => {
                                    ("connect", slot, self.inner.profile.api_conn)
                                }
                                None => break,
                            };
                            self.run_conn(label, slot, now, cost, 0, ctx, |_c, _t| {});
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    impl_as_any!();
}
