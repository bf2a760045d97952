//! The agent-based simulation engine.
//!
//! A simulation is a set of [`Agent`]s (hosts, switches, load generators)
//! that exchange typed messages and set timers through a [`Ctx`] handle. The
//! engine is single-threaded and deterministic: effects requested while
//! handling an event enqueue in call order (and are never observable by the
//! requesting handler), and ties on timestamps dispatch in insertion order.
//! Dispatch is one bounded pop per event (the crate-private half of
//! [`EventQueue::pop_due`] that leaves the payload in its slab entry): an
//! event lives in the queue until the moment its handler is called, so it
//! can be cancelled until then — same-instant timers included — and it is
//! moved once, from the entry into the handler's argument.

use crate::queue::{EventId, EventQueue, QueueStats};
use crate::rng::Rng;
use crate::time::SimTime;
use std::any::Any;

/// Identifier of an agent within a [`Sim`].
pub type AgentId = u32;

/// Handle to a pending timer, returned by [`Ctx::timer`]/[`Ctx::timer_at`]
/// and the `inject_*` methods. Pass to [`Ctx::cancel_timer`] (or
/// [`Sim::cancel`]) to drop the timer without dispatching. Stale handles
/// are a safe no-op.
pub type TimerId = EventId;

/// An event delivered to an agent.
#[derive(Debug)]
pub enum Event<M> {
    /// A timer previously set by this agent (or injected by the harness).
    /// `kind` discriminates timer uses within the agent; `data` is an
    /// agent-defined payload (e.g. a flow id or a generation counter used
    /// to ignore stale timers).
    Timer {
        /// Agent-defined timer class.
        kind: u32,
        /// Agent-defined payload.
        data: u64,
    },
    /// A message from another agent (or from the harness).
    Msg {
        /// The message body.
        msg: M,
    },
}

/// A simulation participant.
///
/// Implementors must also provide `as_any`/`as_any_mut` so harnesses can
/// downcast agents after a run to read out results; the
/// [`impl_as_any!`](crate::impl_as_any) macro writes those two methods.
pub trait Agent<M>: 'static {
    /// Handles one event at the current simulated time.
    fn on_event(&mut self, ev: Event<M>, ctx: &mut Ctx<'_, M>);

    /// Upcast for downcasting concrete agent types after a run.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for downcasting concrete agent types after a run.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Expands to the `as_any`/`as_any_mut` boilerplate of [`Agent`].
#[macro_export]
macro_rules! impl_as_any {
    () => {
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
            self
        }
    };
}

/// Handle through which an agent interacts with the engine while handling
/// an event: read the clock, draw randomness, send messages, set timers,
/// or stop the run.
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: AgentId,
    rng: &'a mut Rng,
    queue: &'a mut EventQueue<Event<M>>,
    stop: &'a mut bool,
}

impl<M> Ctx<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The handling agent's own id.
    pub fn id(&self) -> AgentId {
        self.self_id
    }

    /// The simulation's PRNG.
    pub fn rng(&mut self) -> &mut Rng {
        self.rng
    }

    /// Sends `msg` to agent `to`, arriving `delay` after now.
    pub fn send(&mut self, to: AgentId, delay: SimTime, msg: M) {
        self.send_at(to, self.now + delay, msg);
    }

    /// Sends `msg` to agent `to`, arriving at absolute time `at`.
    ///
    /// `at` earlier than now is clamped to now.
    pub fn send_at(&mut self, to: AgentId, at: SimTime, msg: M) {
        self.queue.push_to(at.max(self.now), to, Event::Msg { msg });
    }

    /// Sets a timer on the handling agent, firing `delay` after now.
    pub fn timer(&mut self, delay: SimTime, kind: u32, data: u64) -> TimerId {
        self.timer_at(self.now + delay, kind, data)
    }

    /// Sets a timer on the handling agent at absolute time `at`.
    pub fn timer_at(&mut self, at: SimTime, kind: u32, data: u64) -> TimerId {
        self.queue
            .push_to(at.max(self.now), self.self_id, Event::Timer { kind, data })
    }

    /// Cancels a pending timer: it is reclaimed without dispatching.
    ///
    /// Returns true if the handle was still live, that is, the timer had
    /// neither fired nor been cancelled — a timer due at the instant being
    /// dispatched, but behind the current event in `(time, seq)` order, is
    /// still pending and is cancelled like any other. A timer that returned
    /// true never fires. Stale handles are a safe no-op.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.queue.cancel(id)
    }

    /// Requests the run to stop after this event completes.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// The simulation: agents, clock, event queue, and PRNG.
///
/// # Examples
///
/// ```
/// use tas_sim::{impl_as_any, Agent, Ctx, Event, Sim, SimTime};
///
/// struct Pinger {
///     got: u32,
/// }
/// impl Agent<u32> for Pinger {
///     fn on_event(&mut self, ev: Event<u32>, ctx: &mut Ctx<'_, u32>) {
///         if let Event::Msg { msg, .. } = ev {
///             self.got += msg;
///         }
///     }
///     impl_as_any!();
/// }
///
/// let mut sim = Sim::new(42);
/// let id = sim.add_agent(Box::new(Pinger { got: 0 }));
/// sim.inject_msg(SimTime::from_us(1), id, 7);
/// sim.run_until(SimTime::from_us(2));
/// assert_eq!(sim.agent::<Pinger>(id).got, 7);
/// ```
pub struct Sim<M> {
    now: SimTime,
    queue: EventQueue<Event<M>>,
    agents: Vec<Option<Box<dyn Agent<M>>>>,
    rng: Rng,
    events_processed: u64,
    stopped: bool,
}

impl<M: 'static> Sim<M> {
    /// Creates a simulation seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            agents: Vec::new(),
            rng: Rng::new(seed),
            events_processed: 0,
            stopped: false,
        }
    }

    /// Registers an agent, returning its id.
    pub fn add_agent(&mut self, agent: Box<dyn Agent<M>>) -> AgentId {
        let id = self.agents.len() as AgentId;
        self.agents.push(Some(agent));
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Exact work counts of the event queue since the simulation began.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// The simulation PRNG (for harness-side draws between runs).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Injects a message to `to` at absolute time `at`.
    pub fn inject_msg(&mut self, at: SimTime, to: AgentId, msg: M) {
        self.queue.push_to(at, to, Event::Msg { msg });
    }

    /// Injects a timer event on agent `to` at absolute time `at`.
    pub fn inject_timer(&mut self, at: SimTime, to: AgentId, kind: u32, data: u64) -> TimerId {
        self.queue.push_to(at, to, Event::Timer { kind, data })
    }

    /// Cancels a pending event from harness code (see [`Ctx::cancel_timer`]).
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.queue.cancel(id)
    }

    /// A concrete agent, or `None` if `id` is unknown, the agent is
    /// checked out for dispatch, or it is not a `T`.
    pub fn try_agent<T: 'static>(&self, id: AgentId) -> Option<&T> {
        self.agents
            .get(id as usize)?
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable form of [`Sim::try_agent`].
    pub fn try_agent_mut<T: 'static>(&mut self, id: AgentId) -> Option<&mut T> {
        self.agents
            .get_mut(id as usize)?
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Immutable access to a concrete agent.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the agent is not a `T`.
    pub fn agent<T: 'static>(&self, id: AgentId) -> &T {
        match self.try_agent(id) {
            Some(a) => a,
            None => self.agent_miss(id),
        }
    }

    /// Mutable access to a concrete agent.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the agent is not a `T`.
    pub fn agent_mut<T: 'static>(&mut self, id: AgentId) -> &mut T {
        // Checked up front: returning the `Some` borrow from a `match`
        // would keep `self` mutably borrowed in the miss arm.
        if self.try_agent::<T>(id).is_none() {
            self.agent_miss(id);
        }
        self.try_agent_mut(id).expect("agent type mismatch")
    }

    /// Names why `try_agent` came back empty.
    #[cold]
    fn agent_miss(&self, id: AgentId) -> ! {
        let _ = self.agents[id as usize]
            .as_ref()
            .expect("agent checked out");
        panic!("agent type mismatch")
    }

    /// Dispatches the next event if it is due at or before `deadline`.
    /// Returns `false` when it is not, the queue is empty, or an agent
    /// requested a stop.
    fn dispatch_due(&mut self, deadline: SimTime) -> bool {
        if self.stopped {
            return false;
        }
        // The target is read beside the entry; the event itself moves
        // once, from its slab entry into the handler's argument.
        let Some((t, slot)) = self.queue.pop_due_slot(deadline) else {
            return false;
        };
        debug_assert!(t >= self.now, "time must be monotonic");
        self.now = t;
        self.events_processed += 1;
        let to = self.queue.target_of(slot);
        let idx = to as usize;
        let Some(mut agent) = self.agents.get_mut(idx).and_then(Option::take) else {
            // Unknown/checked-out target: drop the event.
            drop(self.queue.take(slot));
            return true;
        };
        let mut stop = false;
        let mut ctx = Ctx {
            now: t,
            self_id: to,
            rng: &mut self.rng,
            queue: &mut self.queue,
            stop: &mut stop,
        };
        agent.on_event(ctx.queue.take(slot), &mut ctx);
        self.agents[idx] = Some(agent);
        if stop {
            self.stopped = true;
        }
        !self.stopped
    }

    /// Dispatches the next event. Returns `false` when the queue is empty
    /// or an agent requested a stop.
    pub fn step(&mut self) -> bool {
        self.dispatch_due(SimTime::MAX)
    }

    /// Runs until the queue is exhausted, `deadline` is reached, or an
    /// agent stops the run. Returns the number of events dispatched.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start = self.events_processed;
        while self.dispatch_due(deadline) {}
        if self.now < deadline && !self.stopped {
            self.now = deadline;
        }
        self.events_processed - start
    }

    /// Runs for `dur` of simulated time from now.
    pub fn run_for(&mut self, dur: SimTime) -> u64 {
        let deadline = self.now + dur;
        self.run_until(deadline)
    }

    /// Runs until the event queue drains or `max_events` are dispatched.
    pub fn run_to_completion(&mut self, max_events: u64) -> u64 {
        let start = self.events_processed;
        while self.events_processed - start < max_events {
            if !self.step() {
                break;
            }
        }
        self.events_processed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Msg {
        Ping(u64),
        Pong(u64),
    }

    struct Ping {
        peer: AgentId,
        pongs: Vec<(SimTime, u64)>,
    }
    impl Agent<Msg> for Ping {
        fn on_event(&mut self, ev: Event<Msg>, ctx: &mut Ctx<'_, Msg>) {
            match ev {
                Event::Timer { data, .. } => {
                    ctx.send(self.peer, SimTime::from_us(10), Msg::Ping(data));
                }
                Event::Msg {
                    msg: Msg::Pong(v), ..
                } => {
                    self.pongs.push((ctx.now(), v));
                }
                _ => {}
            }
        }
        impl_as_any!();
    }

    struct Pong {
        peer: AgentId,
    }
    impl Agent<Msg> for Pong {
        fn on_event(&mut self, ev: Event<Msg>, ctx: &mut Ctx<'_, Msg>) {
            if let Event::Msg { msg: Msg::Ping(v) } = ev {
                ctx.send(self.peer, SimTime::from_us(10), Msg::Pong(v + 1));
            }
        }
        impl_as_any!();
    }

    fn build() -> (Sim<Msg>, AgentId) {
        let mut sim = Sim::new(1);
        let pong = sim.add_agent(Box::new(Pong { peer: 0 }));
        let ping = sim.add_agent(Box::new(Ping {
            peer: pong,
            pongs: Vec::new(),
        }));
        sim.agent_mut::<Pong>(pong).peer = ping;
        (sim, ping)
    }

    #[test]
    fn round_trip_delivers_with_latency() {
        let (mut sim, ping) = build();
        sim.inject_timer(SimTime::from_us(5), ping, 0, 41);
        sim.run_until(SimTime::from_ms(1));
        let p = sim.agent::<Ping>(ping);
        assert_eq!(p.pongs, vec![(SimTime::from_us(25), 42)]);
    }

    #[test]
    fn try_agent_hits_and_misses() {
        let (mut sim, ping) = build();
        assert!(sim.try_agent::<Ping>(ping).is_some());
        assert!(sim.try_agent_mut::<Ping>(ping).is_some());
        assert!(sim.try_agent::<Pong>(ping).is_none(), "wrong type");
        assert!(sim.try_agent_mut::<Pong>(ping).is_none(), "wrong type");
        assert!(sim.try_agent::<Ping>(99).is_none(), "unknown id");
        assert!(sim.try_agent_mut::<Ping>(99).is_none(), "unknown id");
    }

    #[test]
    #[should_panic(expected = "agent type mismatch")]
    fn agent_mut_keeps_its_mismatch_message() {
        let (mut sim, ping) = build();
        sim.agent_mut::<Pong>(ping);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut sim, ping) = build();
        sim.inject_timer(SimTime::from_us(5), ping, 0, 0);
        // Deadline before the pong (t=25us) arrives.
        sim.run_until(SimTime::from_us(20));
        assert!(sim.agent::<Ping>(ping).pongs.is_empty());
        assert_eq!(sim.now(), SimTime::from_us(20));
        // Resume; the pong arrives.
        sim.run_until(SimTime::from_us(30));
        assert_eq!(sim.agent::<Ping>(ping).pongs.len(), 1);
    }

    #[test]
    fn stop_halts_immediately() {
        struct Stopper;
        impl Agent<Msg> for Stopper {
            fn on_event(&mut self, _ev: Event<Msg>, ctx: &mut Ctx<'_, Msg>) {
                ctx.stop();
            }
            impl_as_any!();
        }
        let mut sim: Sim<Msg> = Sim::new(2);
        let s = sim.add_agent(Box::new(Stopper));
        sim.inject_timer(SimTime::from_us(1), s, 0, 0);
        sim.inject_timer(SimTime::from_us(2), s, 0, 0);
        let n = sim.run_until(SimTime::from_ms(1));
        assert_eq!(n, 1, "second event must not dispatch after stop");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (mut sim, ping) = build();
            for i in 0..50 {
                sim.inject_timer(SimTime::from_us(i), ping, 0, i);
            }
            sim.run_to_completion(u64::MAX);
            sim.agent::<Ping>(ping).pongs.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cancelled_timer_never_fires() {
        struct Arm {
            fired: Vec<u32>,
        }
        impl Agent<Msg> for Arm {
            fn on_event(&mut self, ev: Event<Msg>, ctx: &mut Ctx<'_, Msg>) {
                if let Event::Timer { kind, .. } = ev {
                    self.fired.push(kind);
                    if kind == 0 {
                        // Arm an RTO, then supersede it with a shorter one:
                        // the superseded timer must be reclaimed, not fire.
                        let rto = ctx.timer(SimTime::from_us(100), 1, 0);
                        assert!(ctx.cancel_timer(rto));
                        ctx.timer(SimTime::from_us(10), 2, 0);
                        assert!(!ctx.cancel_timer(rto), "stale handle no-ops");
                    }
                }
            }
            impl_as_any!();
        }
        let mut sim: Sim<Msg> = Sim::new(7);
        let a = sim.add_agent(Box::new(Arm { fired: Vec::new() }));
        sim.inject_timer(SimTime::from_us(1), a, 0, 0);
        let cancelled = sim.inject_timer(SimTime::from_us(2), a, 3, 0);
        assert!(sim.cancel(cancelled));
        sim.run_until(SimTime::from_ms(1));
        assert_eq!(sim.agent::<Arm>(a).fired, vec![0, 2]);
    }

    #[test]
    fn same_instant_cancel_succeeds_and_the_timer_never_fires() {
        // The `Ctx::cancel_timer` contract at the instant being dispatched:
        // a timer behind the current event is still pending, so cancelling
        // it returns true and it is not delivered; the event being handled
        // and the ones before it are gone, so their handles are stale.
        struct Canceller {
            ids: Vec<TimerId>,
            fired: Vec<u64>,
            results: Vec<(u64, bool)>,
        }
        impl Agent<Msg> for Canceller {
            fn on_event(&mut self, ev: Event<Msg>, ctx: &mut Ctx<'_, Msg>) {
                let Event::Timer { data, .. } = ev else {
                    return;
                };
                self.fired.push(data);
                if data == 1 {
                    for victim in [0, 1, 3, 5] {
                        let hit = ctx.cancel_timer(self.ids[victim as usize]);
                        self.results.push((victim, hit));
                    }
                    // Armed and cancelled within one handler, same instant.
                    let own = ctx.timer(SimTime::ZERO, 0, 99);
                    self.results.push((99, ctx.cancel_timer(own)));
                }
            }
            impl_as_any!();
        }
        let mut sim: Sim<Msg> = Sim::new(11);
        let a = sim.add_agent(Box::new(Canceller {
            ids: Vec::new(),
            fired: Vec::new(),
            results: Vec::new(),
        }));
        let t = SimTime::from_us(4);
        // Timers 0..=3 at `t`, 4 and 5 one tick of the clock later.
        let ids: Vec<TimerId> = (0..6)
            .map(|i| sim.inject_timer(t + SimTime::from_ps(i / 4), a, 0, i))
            .collect();
        sim.agent_mut::<Canceller>(a).ids = ids;
        let n = sim.run_until(SimTime::from_ms(1));
        let c = sim.agent::<Canceller>(a);
        assert_eq!(
            c.results,
            vec![(0, false), (1, false), (3, true), (5, true), (99, true)]
        );
        assert_eq!(c.fired, vec![0, 1, 2, 4]);
        assert_eq!(n, 4, "a cancelled timer is not an event");
        // Three live handles cancelled (3 and 5 drained with the slot, 99
        // pushed inside the drained window); the two stale ones count none.
        assert_eq!(sim.queue_stats().cancels, 3);
    }

    #[test]
    fn same_timestamp_batch_preserves_insertion_order() {
        struct Rec {
            got: Vec<u64>,
        }
        impl Agent<Msg> for Rec {
            fn on_event(&mut self, ev: Event<Msg>, ctx: &mut Ctx<'_, Msg>) {
                if let Event::Timer { data, .. } = ev {
                    self.got.push(data);
                    // Events pushed while a same-instant run dispatches go
                    // behind it, in push order.
                    if data < 3 {
                        ctx.timer(SimTime::ZERO, 0, data + 100);
                    }
                }
            }
            impl_as_any!();
        }
        let mut sim: Sim<Msg> = Sim::new(9);
        let a = sim.add_agent(Box::new(Rec { got: Vec::new() }));
        let t = SimTime::from_us(4);
        for i in 0..6 {
            sim.inject_timer(t, a, 0, i);
        }
        sim.run_to_completion(u64::MAX);
        assert_eq!(
            sim.agent::<Rec>(a).got,
            vec![0, 1, 2, 3, 4, 5, 100, 101, 102]
        );
    }

    #[test]
    fn events_to_unknown_agents_are_dropped() {
        let mut sim: Sim<Msg> = Sim::new(3);
        sim.inject_msg(SimTime::from_us(1), 99, Msg::Ping(1));
        assert_eq!(sim.run_to_completion(10), 1);
    }
}
