//! The application half of a host, shared by every stack.
//!
//! The paper runs the same unmodified applications over TAS and over the
//! Linux sockets API (§3), so what an application sees of its host does
//! not depend on the stack underneath. [`AppRuntime`] is that half: the
//! [`HostedApp`], one recycled handler [`Frame`] that splits API cycles
//! from the application's own, per-context deferred-event queues, app
//! timers and posts. A host keeps only its stack, an [`AppStack`].
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
use tas_sim::{probe, Ctx, Rng, SimTime};

/// The stack under an [`AppRuntime`]: the socket calls of [`StackApi`]
/// plus the host's core model for a finished frame.
///
/// Each socket call is the [`StackApi`] method of the same name. It may
/// add to the frame's `api_cycles` and push the stack's own follow-up
/// ([`Frame::push`]), which [`AppStack::submit`] receives once the frame's
/// core has finished it.
pub trait AppStack {
    /// The stack's own follow-up of a socket call.
    type Op;
    /// Timer kind of an app timer or a post ([`pack_app_timer`] data).
    const APP_TIMER: u32;
    /// Timer kind that delivers a context's next deferred event.
    const APP_RUN_TIMER: u32;
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

    /// Submits one follow-up the frame pushed; `end` is the frame's end.
    fn submit(&mut self, op: Self::Op, end: SimTime, ctx: &mut Ctx<'_, NetMsg>);
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
    /// Deferred events per context, each drained by an
    /// [`AppStack::APP_RUN_TIMER`]. A cross-component hop must not run a
    /// handler at a future time — that would reserve the core ahead of
    /// earlier arrivals — so every hop waits here for its ready time.
    queues: Vec<VecDeque<AppEvent>>,
}

impl<S: AppStack> AppRuntime<S> {
    /// A runtime for `app` over `contexts` application contexts (one per
    /// app core); context numbers wrap modulo `contexts`.
    pub fn new(app: Box<dyn App>, contexts: usize) -> Self {
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
            queues: (0..contexts.max(1)).map(|_| VecDeque::new()).collect(),
        }
    }

    /// On the host's first event: the stack's start work, then the app's
    /// `on_start` in a frame on `context` with no poll charged.
    pub fn ensure_started(&mut self, stack: &mut S, context: u16, ctx: &mut Ctx<'_, NetMsg>) {
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

    /// Queues `ev` for `context` and wakes it at `t`; a context's
    /// deferred events are delivered first in, first out.
    pub fn defer(&mut self, t: SimTime, context: u16, ev: AppEvent, ctx: &mut Ctx<'_, NetMsg>) {
        let context = self.wrap(context);
        self.queues[context as usize].push_back(ev);
        ctx.timer_at(t, S::APP_RUN_TIMER, context as u64);
    }

    /// Handles an [`AppStack::APP_TIMER`]; any other kind is taken for an
    /// [`AppStack::APP_RUN_TIMER`].
    pub fn on_timer(&mut self, stack: &mut S, kind: u32, data: u64, ctx: &mut Ctx<'_, NetMsg>) {
        let now = ctx.now();
        if kind == S::APP_TIMER {
            let (context, token) = unpack_app_timer(data);
            self.deliver(stack, now, context, AppEvent::Timer { token }, ctx);
        } else if let Some(ev) = self.queues[data as usize].pop_front() {
            self.deliver(stack, now, data as u16, ev, ctx);
        }
    }

    fn wrap(&self, context: u16) -> u16 {
        (context as usize % self.queues.len()) as u16
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
        for op in self.frame.ops.drain(..) {
            match op {
                FollowUp::Timer { delay, token } => {
                    ctx.timer_at(end + delay, S::APP_TIMER, pack_app_timer(context, token));
                }
                FollowUp::Post { context, token } => {
                    ctx.timer_at(end, S::APP_TIMER, pack_app_timer(context, token));
                }
                FollowUp::Stack(op) => stack.submit(op, end, ctx),
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
    use tas_sim::{impl_as_any, Agent, Event, Sim};

    const APP: u32 = 1;
    const APP_RUN: u32 = 2;
    /// The mock stack's own follow-up, submitted as a timer of this kind.
    const OP: u32 = 3;
    /// Every frame takes this long on its core.
    const FRAME_TIME: SimTime = SimTime::from_us(1);

    struct MockStack;

    impl AppStack for MockStack {
        type Op = SockId;
        const APP_TIMER: u32 = APP;
        const APP_RUN_TIMER: u32 = APP_RUN;
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
        fn submit(&mut self, op: SockId, end: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
            ctx.timer_at(end, OP, op as u64);
        }
    }

    /// On `Ctl { kind: 0 }` sends on socket 7, posts token 11 to context
    /// 1 and sets a zero-delay timer with token 22, in that order.
    #[derive(Default)]
    struct Script {
        seen: Vec<AppEvent>,
    }

    impl App for Script {
        fn on_start(&mut self, _api: &mut dyn StackApi) {}
        fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
            self.seen.push(ev);
            if let AppEvent::Ctl { kind: 0, .. } = ev {
                api.send(7, b"x");
                api.post(1, 11);
                api.set_app_timer(SimTime::ZERO, 22);
            }
        }
        impl_as_any!();
    }

    /// A host with no stack: logs every timer it gets, hands `Ctl 0` to
    /// the app and answers `Ctl 1` by deferring two events to context 0.
    struct MockHost {
        rt: AppRuntime<MockStack>,
        stack: MockStack,
        timers: Vec<(SimTime, u32, u64)>,
    }

    impl Agent<NetMsg> for MockHost {
        fn on_event(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
            self.rt.ensure_started(&mut self.stack, 0, ctx);
            let now = ctx.now();
            match ev {
                Event::Msg {
                    msg: NetMsg::Ctl { kind: 1, .. },
                    ..
                } => {
                    for sock in [1, 2] {
                        self.rt.defer(now, 0, AppEvent::Readable { sock }, ctx);
                    }
                }
                Event::Msg {
                    msg: NetMsg::Ctl { kind, a, b },
                    ..
                } => {
                    let ev = AppEvent::Ctl { kind, a, b };
                    self.rt.deliver(&mut self.stack, now, 0, ev, ctx);
                }
                Event::Msg { .. } => {}
                Event::Timer { kind, data } => {
                    self.timers.push((now, kind, data));
                    if kind != OP {
                        self.rt.on_timer(&mut self.stack, kind, data, ctx);
                    }
                }
            }
        }
        impl_as_any!();
    }

    fn run(ctl: u32) -> (Vec<(SimTime, u32, u64)>, Vec<AppEvent>) {
        let mut sim = Sim::new(1);
        let id = sim.add_agent(Box::new(MockHost {
            rt: AppRuntime::new(Box::<Script>::default(), 2),
            stack: MockStack,
            timers: Vec::new(),
        }));
        sim.inject_msg(SimTime::from_us(5), id, id, NetMsg::ctl(ctl, 0, 0));
        sim.run_to_completion(1_000);
        let host = sim.agent::<MockHost>(id);
        let seen = host.rt.hosted.app_as::<Script>().seen.clone();
        (host.timers.clone(), seen)
    }

    #[test]
    fn a_frames_follow_ups_are_handed_out_in_call_order_at_one_end() {
        let (timers, _) = run(0);
        let end = SimTime::from_us(5) + FRAME_TIME;
        assert_eq!(
            timers,
            [
                (end, OP, 7),
                (end, APP, pack_app_timer(1, 11)),
                (end, APP, pack_app_timer(0, 22)),
            ]
        );
    }

    #[test]
    fn events_deferred_to_one_context_are_delivered_fifo() {
        let (_, seen) = run(1);
        assert_eq!(
            seen,
            [
                AppEvent::Readable { sock: 1 },
                AppEvent::Readable { sock: 2 }
            ]
        );
    }
}
