//! Benchmark-owned tracing of the simulator's layer boundaries.
//!
//! [`Timed`] wraps an agent and records a span around every `on_event`;
//! the harness records the parent span around each `Sim::run_until`
//! slice. The engine's self time is the parent minus its children, so
//! the layers sum to the whole without instrumenting any crate.

use std::any::Any;
use std::cell::RefCell;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;
use tas_netsim::NetMsg;
use tas_sim::{Agent, Ctx, Event};

use crate::measure::SLICES;

/// The layer an agent's host time is billed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Switch = 0,
    TasHost = 1,
    StackHost = 2,
    Client = 3,
}

const CLASS_NAMES: [&str; 4] = ["switch", "tas_host", "stack_host", "client"];

/// Event kinds: packet, control message, then timer kinds 0..=7 (higher
/// agent-defined timer kinds share the last bucket).
const KINDS: usize = 10;

fn kind_of(ev: &Event<NetMsg>) -> usize {
    match ev {
        Event::Msg {
            msg: NetMsg::Packet(_),
            ..
        } => 0,
        Event::Msg { .. } => 1,
        Event::Timer { kind, .. } => 2 + (*kind as usize).min(KINDS - 3),
    }
}

fn kind_name(kind: usize) -> String {
    match kind {
        0 => "packet".to_string(),
        1 => "ctl".to_string(),
        k => format!("timer{}", k - 2),
    }
}

#[derive(Clone, Copy, Default)]
struct Agg {
    count: u64,
    ns: u64,
}

/// One sampled `on_event` span.
struct Span {
    class: u8,
    kind: u8,
    slice: u16,
    start_ns: u64,
    end_ns: u64,
}

/// Every 64th span is kept raw; all spans feed the aggregates.
const RAW_EVERY: u64 = 64;

/// In-memory span store for one traced run.
pub struct Tracer {
    epoch: Instant,
    /// Slice currently running; `None` outside the timed part, where
    /// spans are not recorded.
    slice: Option<usize>,
    agg: Vec<[[Agg; KINDS]; 4]>,
    /// `run_until` span of each slice, ns since `epoch`.
    runs: Vec<(u64, u64)>,
    raw: Vec<Span>,
    seen: u64,
}

/// Shared handle: agents and harness live on one thread.
pub type TracerRef = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn new_ref() -> TracerRef {
        Rc::new(RefCell::new(Tracer {
            epoch: Instant::now(),
            slice: None,
            agg: vec![[[Agg::default(); KINDS]; 4]; SLICES],
            runs: Vec::with_capacity(SLICES),
            raw: Vec::new(),
            seen: 0,
        }))
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens the parent span of slice `i`.
    pub fn begin_slice(&mut self, i: usize) {
        self.slice = Some(i);
        let now = self.since_epoch(Instant::now());
        self.runs.push((now, now));
    }

    /// Closes the parent span opened by [`Tracer::begin_slice`].
    pub fn end_slice(&mut self) {
        let now = self.since_epoch(Instant::now());
        if let Some(run) = self.runs.last_mut() {
            run.1 = now;
        }
        self.slice = None;
    }

    fn record(&mut self, class: Class, kind: usize, t0: Instant, t1: Instant) {
        let Some(slice) = self.slice else {
            return;
        };
        let a = &mut self.agg[slice][class as usize][kind];
        a.count += 1;
        a.ns += t1.duration_since(t0).as_nanos() as u64;
        self.seen += 1;
        if self.seen.is_multiple_of(RAW_EVERY) {
            self.raw.push(Span {
                class: class as u8,
                kind: kind as u8,
                slice: slice as u16,
                start_ns: self.since_epoch(t0),
                end_ns: self.since_epoch(t1),
            });
        }
    }

    /// Sum of the `run_until` parent spans.
    pub fn run_ns(&self) -> u64 {
        self.runs.iter().map(|(s, e)| e - s).sum()
    }

    /// `(events, ns)` spent inside agents of `class`.
    pub fn class_total(&self, class: Class) -> (u64, u64) {
        let mut out = (0, 0);
        for slice in &self.agg {
            for a in &slice[class as usize] {
                out.0 += a.count;
                out.1 += a.ns;
            }
        }
        out
    }

    /// `(events, ns)` over all agents: the children of the run spans.
    pub fn children_total(&self) -> (u64, u64) {
        [
            Class::Switch,
            Class::TasHost,
            Class::StackHost,
            Class::Client,
        ]
        .iter()
        .map(|c| self.class_total(*c))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// Writes parent spans, per-(slice, class, kind) aggregates and the
    /// sampled raw spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, e)) in self.runs.iter().enumerate() {
            writeln!(
                w,
                "{{\"span\":\"run_until\",\"slice\":{i},\"start_ns\":{s},\"end_ns\":{e}}}"
            )?;
        }
        for (i, slice) in self.agg.iter().enumerate() {
            for (c, kinds) in slice.iter().enumerate() {
                for (k, a) in kinds.iter().enumerate().filter(|(_, a)| a.count > 0) {
                    writeln!(
                        w,
                        "{{\"agg\":\"on_event\",\"slice\":{i},\"class\":\"{}\",\"kind\":\"{}\",\
                         \"count\":{},\"ns\":{}}}",
                        CLASS_NAMES[c],
                        kind_name(k),
                        a.count,
                        a.ns
                    )?;
                }
            }
        }
        for s in &self.raw {
            writeln!(
                w,
                "{{\"span\":\"on_event\",\"parent\":\"run_until\",\"slice\":{},\"class\":\"{}\",\
                 \"kind\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.slice,
                CLASS_NAMES[s.class as usize],
                kind_name(s.kind as usize),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// An agent whose every `on_event` is recorded as a span. Downcasts see
/// the wrapped agent, so `sim.agent::<TasHost>(id)` keeps working.
pub struct Timed<A> {
    inner: A,
    class: Class,
    tracer: TracerRef,
}

impl<A> Timed<A> {
    pub fn new(inner: A, class: Class, tracer: TracerRef) -> Self {
        Timed {
            inner,
            class,
            tracer,
        }
    }
}

impl<A: Agent<NetMsg>> Agent<NetMsg> for Timed<A> {
    fn on_event(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
        let kind = kind_of(&ev);
        let t0 = Instant::now();
        self.inner.on_event(ev, ctx);
        let t1 = Instant::now();
        self.tracer.borrow_mut().record(self.class, kind, t0, t1);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
