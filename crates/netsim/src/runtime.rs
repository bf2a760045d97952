//! The application half of a host, shared by every stack.
//!
//! The paper runs the same unmodified applications over TAS and over the
//! Linux sockets API (§3), so what an application sees of its host does
//! not depend on the stack underneath. [`AppRuntime`] is that half: the
//! [`HostedApp`], one recycled handler [`Frame`] that splits API cycles
//! from the application's own, app timers and posts, and both [`Handoff`]s
//! between app and stack. A host keeps only its stack, an [`AppStack`].
//!
//! **Order.** A frame's follow-ups — app timers, posts and the stack's
//! own ops — are scheduled in call order, all at the end time the host's
//! core model returns for the frame. Same-time events fire in scheduling
//! order, so this is observable: a FlexStorm handler that reads (a stack
//! op) and then posts to a worker sees both land at `end` in that order.

use crate::app::{pack_app_timer, unpack_app_timer, App, AppEvent, SockId, StackApi};
use crate::NetMsg;
use std::any::type_name;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use tas_sim::{probe, Ctx, Event, Rng, SimTime};

/// Every deferred hop inside a host: FIFO lanes, each run of items woken
/// by one timer whose data word names its lane and its length
/// ([`unpack_wake`]). A hop must not run its handler at a future time
/// (that would reserve the core ahead of earlier arrivals), so it waits
/// here for its due time. [`Handoff::pop`] takes the lane's *oldest*
/// item, not the one the timer was armed for: with `due₁ > due₂` on one
/// lane, the timer at `due₂` runs item 1 early and item 2 late. That is
/// ROADMAP item 1's hazard; this is its one place.
pub struct Handoff<T> {
    lanes: Vec<VecDeque<T>>,
}

/// A wake's timer data word: the lane in the low half, the items after
/// the first in the high half, so a one-item wake's word is its lane.
fn pack_wake(lane: usize, n: usize) -> u64 {
    debug_assert!(n >= 1 && lane <= u32::MAX as usize);
    ((n as u64 - 1) << 32) | lane as u64
}

/// The lane and the number of items a [`Handoff`] wake's data word names.
pub fn unpack_wake(data: u64) -> (usize, usize) {
    (data as u32 as usize, (data >> 32) as usize + 1)
}

impl<T> Handoff<T> {
    pub fn new(lanes: usize) -> Self {
        Handoff {
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Queues `item` on `lane` and arms a `kind` timer at `at` for it.
    pub fn push(
        &mut self,
        at: SimTime,
        kind: u32,
        lane: usize,
        item: T,
        ctx: &mut Ctx<'_, NetMsg>,
    ) {
        self.push_run(at, kind, lane, [item], ctx);
    }

    /// Queues `items` on `lane` in order and arms one `kind` timer at
    /// `at` that wakes them all. A timer per item would have had
    /// consecutive sequence numbers at one instant, so nothing could
    /// dispatch between them: the run changes no order.
    pub fn push_run(
        &mut self,
        at: SimTime,
        kind: u32,
        lane: usize,
        items: impl IntoIterator<Item = T>,
        ctx: &mut Ctx<'_, NetMsg>,
    ) {
        let queue = &mut self.lanes[lane];
        let mut n = 0;
        for item in items {
            queue.push_back(item);
            n += 1;
        }
        if n > 0 {
            ctx.timer_at(at, kind, pack_wake(lane, n));
        }
    }

    /// Takes the oldest item of `lane`; a wake takes as many as its data
    /// word names ([`unpack_wake`]).
    pub fn pop(&mut self, lane: usize) -> Option<T> {
        self.lanes.get_mut(lane)?.pop_front()
    }
}

/// The stack under an [`AppRuntime`]: the socket calls of [`StackApi`]
/// plus the host's core model for a finished frame.
///
/// Each socket call is the [`StackApi`] method of the same name. It may
/// add to the frame's `api_cycles` and push the stack's own follow-up
/// ([`Frame::push`]). Once the frame's core has finished, the runtime
/// queues each follow-up on [`AppRuntime::ops`] where [`AppStack::route`]
/// says; the host runs it when that lane's timer pops it. Consecutive
/// follow-ups that `route` sends to one (due time, kind, lane) share one
/// wake ([`Handoff::push_run`]).
pub trait AppStack {
    /// The stack's own follow-up of a socket call.
    type Op;
    /// Timer kind of an app timer or a post ([`pack_app_timer`] data).
    const APP_TIMER: u32;
    /// Timer kind that delivers a context's next deferred event.
    const APP_RUN_TIMER: u32;
    /// Lanes of [`AppRuntime::ops`] that [`AppStack::route`] names.
    const OP_LANES: usize;
    /// Profiler group name of the cores app frames run on.
    const APP_CORE_GROUP: &'static str;

    /// Host-side start work, run once before the app's `on_start`.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, NetMsg>) {}

    /// An event reaches `context` at `t`: returns when its handler starts
    /// and the API cycles of the poll that found the event.
    fn activate(&mut self, context: u16, t: SimTime) -> (SimTime, u64);

    fn listen(&mut self, frame: &mut Frame<Self::Op>, port: u16);

    /// `rng` is the engine's, for the ISS.
    fn connect(
        &mut self,
        frame: &mut Frame<Self::Op>,
        ip: Ipv4Addr,
        port: u16,
        rng: &mut Rng,
    ) -> SockId;

    fn send(&mut self, frame: &mut Frame<Self::Op>, sock: SockId, data: &[u8]) -> usize;

    fn recv_with(
        &mut self,
        frame: &mut Frame<Self::Op>,
        sock: SockId,
        max: usize,
        f: &mut dyn FnMut(&[u8]) -> usize,
    ) -> usize;

    fn readable(&self, sock: SockId) -> usize;

    fn close(&mut self, frame: &mut Frame<Self::Op>, sock: SockId);

    /// API cycles of a [`StackApi::post`] to `context`, and the context
    /// it lands on.
    fn post(&self, context: u16) -> (u64, u16);

    /// Charges the finished `frame` to the account and runs it on its
    /// context's core from `frame.now`; returns when the core ends it.
    fn run_frame(&mut self, frame: &Frame<Self::Op>) -> SimTime;

    /// Where a follow-up of a frame that ended at `end` waits: its due
    /// time, the timer kind that wakes it and its lane of
    /// [`AppRuntime::ops`].
    fn route(&self, op: &Self::Op, end: SimTime) -> (SimTime, u32, usize);
}

/// One handler invocation and its follow-ups in call order. The runtime
/// keeps one and drains it after every handler, so the op list keeps its
/// capacity and a steady-state frame allocates nothing.
pub struct Frame<Op> {
    /// The context (app core) the handler runs on.
    pub context: u16,
    /// When the handler started.
    pub now: SimTime,
    /// API cycles charged so far, including the activation's poll.
    pub api_cycles: u64,
    /// The application's own cycles ([`StackApi::charge_app_cycles`]).
    pub app_cycles: u64,
    ops: Vec<FollowUp<Op>>,
}

enum FollowUp<Op> {
    Timer { delay: SimTime, token: u64 },
    Post { context: u16, token: u64 },
    Stack(Op),
}

impl<Op> Frame<Op> {
    /// Queues a stack follow-up behind the calls made so far.
    pub fn push(&mut self, op: Op) {
        self.ops.push(FollowUp::Stack(op));
    }
}

/// The application a host runs, with the tags a harness sets on it. A
/// host dereferences to its `HostedApp`, so `host.app_as::<T>()`,
/// `host.set_tenant(t)` and `host.enable_profiling()` read the same on
/// every stack.
#[derive(Default)]
pub struct HostedApp {
    /// `None` only while a handler runs.
    app: Option<Box<dyn App>>,
    tenant: Option<u32>,
    /// True when this host's cycles are attributed by the profiler.
    #[cfg(feature = "telemetry")]
    profiled: bool,
}

impl HostedApp {
    /// Downcasts the application.
    ///
    /// # Panics
    ///
    /// Panics if the app is not a `T`.
    pub fn app_as<T: 'static>(&self) -> &T {
        let app = self.app.as_ref().and_then(|a| a.as_any().downcast_ref());
        app.unwrap_or_else(|| panic!("app_as: application is not a {}", type_name::<T>()))
    }

    /// Mutable downcast of the application.
    ///
    /// # Panics
    ///
    /// Panics if the app is not a `T`.
    pub fn app_as_mut<T: 'static>(&mut self) -> &mut T {
        let app = self
            .app
            .as_mut()
            .and_then(|a| a.as_any_mut().downcast_mut());
        app.unwrap_or_else(|| panic!("app_as_mut: application is not a {}", type_name::<T>()))
    }

    /// Tags the host with a tenant identity; each host re-emits its
    /// tenant-scoped counters under `Scope::Tenant` in its telemetry
    /// snapshot.
    pub fn set_tenant(&mut self, tenant: u32) {
        self.tenant = Some(tenant);
    }

    /// The tenant tag, if a harness set one.
    pub fn tenant(&self) -> Option<u32> {
        self.tenant
    }

    /// Opts this host into cycle-attribution profiling. Hosts that were
    /// never enabled disarm the profiler before running instead, so
    /// enabling exactly one host on a thread profiles exactly that host.
    #[cfg(feature = "telemetry")]
    pub fn enable_profiling(&mut self) {
        self.profiled = true;
    }

    /// Arms cycle attribution for core `group<idx>` of this host — or
    /// disarms the thread-local profiler when this host is not the one
    /// being profiled, so its cycles are dropped rather than
    /// misattributed. Arming also discards charges staged by code whose
    /// work was never run (see `tas_telemetry::profile::set_core`).
    #[cfg(feature = "telemetry")]
    pub fn prof_arm(&self, group: &'static str, idx: u32) {
        if self.profiled {
            tas_telemetry::profile::set_core(group, idx);
        } else {
            tas_telemetry::profile::disarm();
        }
    }
}

/// The application runtime of one host over stack `S`.
pub struct AppRuntime<S: AppStack> {
    /// The application, reachable from the host (`Deref`) and its harness.
    pub hosted: HostedApp,
    started: bool,
    frame: Frame<S::Op>,
    /// Stack → app: deferred events, one lane per context.
    events: Handoff<AppEvent>,
    /// App → stack: the frames' follow-ups where [`AppStack::route`] puts
    /// them, popped by the host's own timer arms (TAS queues its
    /// fast-path exceptions here too).
    pub ops: Handoff<S::Op>,
}

impl<S: AppStack> AppRuntime<S> {
    /// A runtime for `app` over `contexts` application contexts (one per
    /// app core); context numbers wrap modulo `contexts`.
    pub fn new(app: Box<dyn App>, contexts: usize) -> Self {
        // A frame moves each follow-up twice (into the frame, then onto
        // its lane), so an op stays small: a stack boxes its rare large
        // variants.
        const {
            assert!(std::mem::size_of::<FollowUp<S::Op>>() <= 24);
        }
        AppRuntime {
            hosted: HostedApp {
                app: Some(app),
                ..HostedApp::default()
            },
            started: false,
            frame: Frame {
                context: 0,
                now: SimTime::ZERO,
                api_cycles: 0,
                app_cycles: 0,
                ops: Vec::new(),
            },
            events: Handoff::new(contexts.max(1)),
            ops: Handoff::new(S::OP_LANES),
        }
    }

    /// The app half of a host's `Agent::on_event`: starts the host on its
    /// first event, delivers `Ctl` to `context` and runs app timers and
    /// deferred events. Returns whether it consumed `ev`; every other
    /// event is the host's, untouched (the runtime only reads the plain
    /// fields of the events it consumes, so a packet is never moved here).
    pub fn on_event(
        &mut self,
        stack: &mut S,
        context: u16,
        ev: &Event<NetMsg>,
        ctx: &mut Ctx<'_, NetMsg>,
    ) -> bool {
        self.ensure_started(stack, context, ctx);
        let now = ctx.now();
        match *ev {
            Event::Msg {
                msg: NetMsg::Ctl { kind, a, b },
                ..
            } => self.deliver(stack, now, context, AppEvent::Ctl { kind, a, b }, ctx),
            Event::Timer { kind, data } if kind == S::APP_TIMER => {
                let (context, token) = unpack_app_timer(data);
                self.deliver(stack, now, context, AppEvent::Timer { token }, ctx);
            }
            Event::Timer { kind, data } if kind == S::APP_RUN_TIMER => {
                let (lane, n) = unpack_wake(data);
                for _ in 0..n {
                    let Some(ev) = self.events.pop(lane) else {
                        break;
                    };
                    self.deliver(stack, now, lane as u16, ev, ctx);
                }
            }
            _ => return false,
        }
        true
    }

    /// On the host's first event: the stack's start work, then the app's
    /// `on_start` in a frame on `context` with no poll charged.
    fn ensure_started(&mut self, stack: &mut S, context: u16, ctx: &mut Ctx<'_, NetMsg>) {
        if std::mem::replace(&mut self.started, true) {
            return;
        }
        stack.on_start(ctx);
        let now = ctx.now();
        self.run(stack, context, now, 0, ctx, |app, api| app.on_start(api));
    }

    /// Runs the app's handler for `ev` on `context`, reached at `t`.
    pub fn deliver(
        &mut self,
        stack: &mut S,
        t: SimTime,
        context: u16,
        ev: AppEvent,
        ctx: &mut Ctx<'_, NetMsg>,
    ) {
        let context = self.wrap(context);
        let (start, poll) = stack.activate(context, t);
        self.run(stack, context, start, poll, ctx, |app, api| {
            app.on_event(ev, api)
        });
    }

    /// Queues `ev` on `context`'s lane and wakes it at `t`; the lane pops
    /// in [`Handoff`] order.
    pub fn defer(&mut self, t: SimTime, context: u16, ev: AppEvent, ctx: &mut Ctx<'_, NetMsg>) {
        let context = self.wrap(context);
        self.events
            .push(t, S::APP_RUN_TIMER, context as usize, ev, ctx);
    }

    fn wrap(&self, context: u16) -> u16 {
        (context as usize % self.events.lanes.len()) as u16
    }

    /// Runs one frame: the handler, then the stack's core model, then
    /// every follow-up in call order from the frame's end.
    fn run(
        &mut self,
        stack: &mut S,
        context: u16,
        now: SimTime,
        api_cycles: u64,
        ctx: &mut Ctx<'_, NetMsg>,
        handler: impl FnOnce(&mut dyn App, &mut dyn StackApi),
    ) {
        debug_assert!(self.frame.ops.is_empty(), "previous frame was finished");
        let frame = &mut self.frame;
        (frame.context, frame.now) = (context, now);
        (frame.api_cycles, frame.app_cycles) = (api_cycles, 0);
        let Some(mut app) = self.hosted.app.take() else {
            debug_assert!(false, "nested app delivery");
            return;
        };
        handler(
            app.as_mut(),
            &mut Api {
                stack: &mut *stack,
                frame,
                ctx: &mut *ctx,
            },
        );
        self.hosted.app = Some(app);
        probe! { self.hosted.prof_arm(S::APP_CORE_GROUP, context as u32); }
        let end = stack.run_frame(&self.frame);
        let mut ops = self.frame.ops.drain(..).peekable();
        while let Some(op) = ops.next() {
            match op {
                FollowUp::Timer { delay, token } => {
                    ctx.timer_at(end + delay, S::APP_TIMER, pack_app_timer(context, token));
                }
                FollowUp::Post { context, token } => {
                    ctx.timer_at(end, S::APP_TIMER, pack_app_timer(context, token));
                }
                FollowUp::Stack(op) => {
                    // The ops right behind it that wait for the same wake
                    // join its run.
                    let wake = stack.route(&op, end);
                    let same = |next: &FollowUp<S::Op>| match next {
                        FollowUp::Stack(next) => stack.route(next, end) == wake,
                        _ => false,
                    };
                    let rest = std::iter::from_fn(|| match ops.next_if(same)? {
                        FollowUp::Stack(next) => Some(next),
                        _ => None,
                    });
                    let (at, kind, lane) = wake;
                    self.ops
                        .push_run(at, kind, lane, std::iter::once(op).chain(rest), ctx);
                }
            }
        }
    }
}

/// What the application holds while its handler runs.
struct Api<'a, 'c, S: AppStack> {
    stack: &'a mut S,
    frame: &'a mut Frame<S::Op>,
    ctx: &'a mut Ctx<'c, NetMsg>,
}

impl<S: AppStack> StackApi for Api<'_, '_, S> {
    fn now(&self) -> SimTime {
        self.frame.now
    }

    fn listen(&mut self, port: u16) {
        self.stack.listen(self.frame, port);
    }

    fn connect(&mut self, ip: Ipv4Addr, port: u16) -> SockId {
        self.stack.connect(self.frame, ip, port, self.ctx.rng())
    }

    fn send(&mut self, sock: SockId, data: &[u8]) -> usize {
        self.stack.send(self.frame, sock, data)
    }

    fn recv_with(&mut self, sock: SockId, max: usize, f: &mut dyn FnMut(&[u8]) -> usize) -> usize {
        self.stack.recv_with(self.frame, sock, max, f)
    }

    fn readable(&self, sock: SockId) -> usize {
        self.stack.readable(sock)
    }

    fn close(&mut self, sock: SockId) {
        self.stack.close(self.frame, sock);
    }

    fn charge_app_cycles(&mut self, cycles: u64) {
        self.frame.app_cycles += cycles;
    }

    fn set_app_timer(&mut self, delay: SimTime, token: u64) {
        self.frame.ops.push(FollowUp::Timer { delay, token });
    }

    fn post(&mut self, context: u16, token: u64) {
        let (cycles, context) = self.stack.post(context);
        self.frame.api_cycles += cycles;
        self.frame.ops.push(FollowUp::Post { context, token });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tas_proto::{MacAddr, Segment, TcpFlags, TcpHeader};
    use tas_sim::{impl_as_any, Agent, Sim};

    const APP: u32 = 1;
    const APP_RUN: u32 = 2;
    /// The timer kind the mock stack routes its follow-ups to.
    const OP: u32 = 3;
    /// A harness timer the mock host answers with its scripted defers.
    const DEFER: u32 = 4;
    /// Every frame takes this long on its core.
    const FRAME_TIME: SimTime = SimTime::from_us(1);

    struct MockStack;

    impl AppStack for MockStack {
        type Op = SockId;
        const APP_TIMER: u32 = APP;
        const APP_RUN_TIMER: u32 = APP_RUN;
        const OP_LANES: usize = 1;
        const APP_CORE_GROUP: &'static str = "app";

        fn activate(&mut self, _context: u16, t: SimTime) -> (SimTime, u64) {
            (t, 0)
        }
        fn listen(&mut self, _frame: &mut Frame<SockId>, _port: u16) {}
        fn connect(&mut self, _: &mut Frame<SockId>, _: Ipv4Addr, _: u16, _: &mut Rng) -> SockId {
            0
        }
        fn send(&mut self, frame: &mut Frame<SockId>, sock: SockId, data: &[u8]) -> usize {
            frame.push(sock);
            data.len()
        }
        fn recv_with(
            &mut self,
            _frame: &mut Frame<SockId>,
            _sock: SockId,
            _max: usize,
            _f: &mut dyn FnMut(&[u8]) -> usize,
        ) -> usize {
            0
        }
        fn readable(&self, _sock: SockId) -> usize {
            0
        }
        fn close(&mut self, _frame: &mut Frame<SockId>, _sock: SockId) {}
        fn post(&self, context: u16) -> (u64, u16) {
            (0, context)
        }
        fn run_frame(&mut self, frame: &Frame<SockId>) -> SimTime {
            frame.now + FRAME_TIME
        }
        fn route(&self, _op: &SockId, end: SimTime) -> (SimTime, u32, usize) {
            (end, OP, 0)
        }
    }

    /// Logs every event with its handler's start time. On `Ctl { kind: 0
    /// }` sends on socket 7, posts token 11 to context 1 and sets a
    /// zero-delay timer with token 22, in that order; on `Ctl { kind: 1
    /// }` sends on sockets 7 and 8; on `Ctl { kind: 2 }` sends on socket
    /// 7, sets a zero-delay timer with token 33 and sends on socket 8.
    #[derive(Default)]
    struct Script {
        seen: Vec<(SimTime, AppEvent)>,
    }

    impl App for Script {
        fn on_start(&mut self, _api: &mut dyn StackApi) {}
        fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
            self.seen.push((api.now(), ev));
            match ev {
                AppEvent::Ctl { kind: 0, .. } => {
                    api.send(7, b"x");
                    api.post(1, 11);
                    api.set_app_timer(SimTime::ZERO, 22);
                }
                AppEvent::Ctl { kind: 1, .. } => {
                    api.send(7, b"x");
                    api.send(8, b"x");
                }
                AppEvent::Ctl { kind: 2, .. } => {
                    api.send(7, b"x");
                    api.set_app_timer(SimTime::ZERO, 33);
                    api.send(8, b"x");
                }
                _ => {}
            }
        }
        impl_as_any!();
    }

    /// A host with no stack of its own: logs every timer, passes every
    /// event through the runtime's prologue and logs what comes back. It
    /// answers `DEFER` with its scripted `(due, context, event)` defers
    /// and `OP` by popping the runtime's op lane.
    #[derive(Default)]
    struct MockHost {
        rt: Option<AppRuntime<MockStack>>,
        defers: Vec<(SimTime, u16, AppEvent)>,
        timers: Vec<(SimTime, u32, u64)>,
        handed_back: Vec<String>,
        ops: Vec<SockId>,
    }

    impl Agent<NetMsg> for MockHost {
        fn on_event(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
            let rt = self.rt.as_mut().expect("runtime");
            if let Event::Timer { kind, data } = ev {
                self.timers.push((ctx.now(), kind, data));
            }
            if rt.on_event(&mut MockStack, 0, &ev, ctx) {
                return;
            }
            self.handed_back.push(format!("{ev:?}"));
            match ev {
                Event::Timer { kind: DEFER, .. } => {
                    for (due, context, ev) in self.defers.drain(..) {
                        rt.defer(due, context, ev, ctx);
                    }
                }
                Event::Timer { kind: OP, data } => {
                    let (lane, n) = unpack_wake(data);
                    self.ops.extend((0..n).map_while(|_| rt.ops.pop(lane)));
                }
                _ => {}
            }
        }
        impl_as_any!();
    }

    /// Runs a two-context mock host that defers `defers` on a `DEFER`
    /// timer at 0 and gets `msgs` at their times.
    fn run(defers: &[(SimTime, u16, AppEvent)], msgs: Vec<(SimTime, NetMsg)>) -> MockHost {
        let mut sim = Sim::new(1);
        let id = sim.add_agent(Box::new(MockHost {
            rt: Some(AppRuntime::new(Box::<Script>::default(), 2)),
            defers: defers.to_vec(),
            ..MockHost::default()
        }));
        sim.inject_timer(SimTime::ZERO, id, DEFER, 0);
        for (t, msg) in msgs {
            sim.inject_msg(t, id, msg);
        }
        sim.run_to_completion(1_000);
        std::mem::take(sim.agent_mut::<MockHost>(id))
    }

    fn seen(host: &MockHost) -> &[(SimTime, AppEvent)] {
        let rt = host.rt.as_ref().expect("runtime");
        &rt.hosted.app_as::<Script>().seen
    }

    const fn us(n: u64) -> SimTime {
        SimTime::from_us(n)
    }

    #[test]
    fn a_frames_follow_ups_are_handed_out_in_call_order_at_one_end() {
        let host = run(&[], vec![(us(5), NetMsg::ctl(0, 0, 0))]);
        let end = us(5) + FRAME_TIME;
        // The op waits on the mock stack's one lane (data 0), and the OP
        // timer pops socket 7 from it.
        assert_eq!(
            host.timers[1..],
            [
                (end, OP, 0),
                (end, APP, pack_app_timer(1, 11)),
                (end, APP, pack_app_timer(0, 22)),
            ]
        );
        assert_eq!(host.ops, [7]);
    }

    #[test]
    fn consecutive_stack_ops_share_one_wake_and_leave_in_call_order() {
        let host = run(&[], vec![(us(5), NetMsg::ctl(1, 0, 0))]);
        let end = us(5) + FRAME_TIME;
        // One OP timer whose data word names lane 0 and a run of two.
        assert_eq!(host.timers[1..], [(end, OP, pack_wake(0, 2))]);
        assert_eq!(unpack_wake(host.timers[1].2), (0, 2));
        assert_eq!(host.ops, [7, 8]);
    }

    /// An app timer between two ops ends the first op's run: the second
    /// op still leaves after the timer, as the `recv_with` → `post`
    /// order of a FlexStorm handler needs (DESIGN.md §14).
    #[test]
    fn an_app_timer_between_stack_ops_splits_their_wakes() {
        let host = run(&[], vec![(us(5), NetMsg::ctl(2, 0, 0))]);
        let end = us(5) + FRAME_TIME;
        assert_eq!(
            host.timers[1..],
            [
                (end, OP, pack_wake(0, 1)),
                (end, APP, pack_app_timer(0, 33)),
                (end, OP, pack_wake(0, 1)),
            ]
        );
        assert_eq!(host.ops, [7, 8]);
        let timer = AppEvent::Timer { token: 33 };
        assert_eq!(seen(&host).last(), Some(&(end, timer)));
    }

    #[test]
    fn events_deferred_to_one_context_are_delivered_fifo() {
        let (r1, r2) = (
            AppEvent::Readable { sock: 1 },
            AppEvent::Readable { sock: 2 },
        );
        let host = run(&[(us(5), 0, r1), (us(5), 0, r2)], vec![]);
        assert_eq!(seen(&host), [(us(5), r1), (us(5), r2)]);
    }

    /// ROADMAP item 1's hazard, pinned: with `due₁ > due₂` on one lane,
    /// the timer at `due₂` gets item 1. Popping the item that is due
    /// flips this test.
    #[test]
    fn a_lanes_timer_pops_the_oldest_item_not_the_one_it_was_armed_for() {
        let (r1, r2) = (
            AppEvent::Readable { sock: 1 },
            AppEvent::Readable { sock: 2 },
        );
        let host = run(&[(us(10), 0, r1), (us(5), 0, r2)], vec![]);
        assert_eq!(seen(&host), [(us(5), r1), (us(10), r2)]);
    }

    #[test]
    fn a_lanes_timer_never_pops_another_lane() {
        let (r1, r2) = (
            AppEvent::Readable { sock: 1 },
            AppEvent::Readable { sock: 2 },
        );
        let host = run(&[(us(10), 0, r1), (us(5), 1, r2)], vec![]);
        assert_eq!(seen(&host), [(us(5), r2), (us(10), r1)]);
        let app_runs: Vec<_> = host.timers.iter().filter(|t| t.1 == APP_RUN).collect();
        assert_eq!(app_runs, [&(us(5), APP_RUN, 1), &(us(10), APP_RUN, 0)]);
    }

    #[test]
    fn on_event_consumes_ctl_app_and_app_run_and_hands_back_the_rest() {
        let seg = Segment::tcp(
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            TcpHeader::new(1000, 80, 0, 0, TcpFlags::ACK),
            vec![0; 8],
            true,
        );
        let packet = format!("{:?}", NetMsg::Packet(seg.clone()));
        let r1 = AppEvent::Readable { sock: 1 };
        let msgs = vec![(us(1), NetMsg::Packet(seg)), (us(3), NetMsg::ctl(0, 0, 0))];
        let host = run(&[(us(2), 0, r1)], msgs);
        // The deferred event, the Ctl, its post and its app timer reached
        // the app; the harness timer, the packet and the stack's OP timer
        // came back unchanged, and nothing else did.
        let ctl = AppEvent::Ctl {
            kind: 0,
            a: 0,
            b: 0,
        };
        let end = us(3) + FRAME_TIME;
        let (post, timer) = (AppEvent::Timer { token: 11 }, AppEvent::Timer { token: 22 });
        assert_eq!(
            seen(&host),
            [(us(2), r1), (us(3), ctl), (end, post), (end, timer)]
        );
        let back = &host.handed_back;
        assert_eq!(back.len(), 3, "{back:?}");
        assert_eq!(back[0], format!("Timer {{ kind: {DEFER}, data: 0 }}"));
        assert!(
            back[1].ends_with(&format!("msg: {packet} }}")),
            "{}",
            back[1]
        );
        assert_eq!(back[2], format!("Timer {{ kind: {OP}, data: 0 }}"));
    }
}
