//! Attribution-exact cycle profiler.
//!
//! Unlike a sampling profiler, every cycle the simulation charges to a
//! [`tas_cpusim::Core`] is attributed to the frame stack that was live
//! when the cost model charged it. Instrumented code pushes scoped RAII
//! frames ([`guard`]) and routes cycle charges through [`charge`]; the
//! core model calls [`on_core_run`] when work is actually scheduled,
//! draining pending charges FIFO into a per-core profile tree. The tree
//! exports as Brendan-Gregg collapsed ("folded") stacks, which
//! `flamegraph.pl` and speedscope render directly.
//!
//! # Attribution model
//!
//! - A host *arms* the profiler with the identity of the core about to
//!   execute ([`set_core`]) or *disarms* it ([`disarm`]) when the
//!   running host is not being profiled. Arming clears any pending
//!   charges left by code that charged cycles which were never run
//!   (e.g. a cost estimate that was discarded).
//! - [`charge`] enqueues `(current frame, cycles)` FIFO; it does not
//!   attribute anything by itself.
//! - [`on_core_run`] drains queued charges, oldest first, up to the
//!   cycles actually submitted to the core. A shortfall (work run on the
//!   core that no instrumented site charged) is attributed to the frame
//!   on top of the stack at run time, so every armed core cycle lands
//!   somewhere: per core, the profile tree total equals the exact sum of
//!   armed `Core::run` cycles. That is the conservation invariant the
//!   workspace property tests pin against [`tas_cpusim::Core`]
//!   `busy_cycles` deltas.
//!
//! The profiler is thread-local, never consults any simulation RNG, and
//! is compiled into stack crates only under their `telemetry` feature: a
//! default build contains none of this code.
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

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

/// Identity of a simulated core: a host-assigned group label (`"fp"`,
/// `"sp"`, `"app"`, `"core"`) plus the index within the group.
pub type CoreId = (&'static str, u32);

/// Renders a core identity as the first folded-stack frame (`fp0`).
fn core_label((group, idx): CoreId) -> String {
    format!("{group}{idx}")
}

#[derive(Clone, Debug, Default)]
struct Node {
    children: BTreeMap<&'static str, usize>,
    /// Self cycles attributed to this frame, per core.
    cycles: BTreeMap<CoreId, u64>,
}

impl Node {
    fn self_total(&self) -> u64 {
        self.cycles.values().sum()
    }
}

struct Prof {
    enabled: bool,
    armed: Option<CoreId>,
    /// Bumped by `start`/`stop`/`take`; outstanding guards from an older
    /// generation become no-ops on drop.
    generation: u64,
    /// Index 0 is the root; never removed while enabled.
    nodes: Vec<Node>,
    /// Current frame path (node indices, innermost last).
    stack: Vec<usize>,
    /// Charges awaiting a `Core::run`: `(frame node, cycles)`.
    fifo: VecDeque<(usize, u64)>,
}

impl Prof {
    const fn new() -> Prof {
        Prof {
            enabled: false,
            armed: None,
            generation: 0,
            nodes: Vec::new(),
            stack: Vec::new(),
            fifo: VecDeque::new(),
        }
    }

    fn reset_tree(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::default());
        self.stack.clear();
        self.fifo.clear();
    }

    fn top(&self) -> usize {
        self.stack.last().copied().unwrap_or(0)
    }

    fn add_cycles(&mut self, node: usize, core: CoreId, c: u64) {
        if let Some(n) = self.nodes.get_mut(node) {
            *n.cycles.entry(core).or_insert(0) += c;
        }
    }
}

thread_local! {
    static PROF: RefCell<Prof> = const { RefCell::new(Prof::new()) };
}

/// Enables profiling on this thread, clearing any previous tree.
pub fn start() {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        p.enabled = true;
        p.armed = None;
        p.generation = p.generation.wrapping_add(1);
        p.reset_tree();
    });
}

/// Disables profiling and discards the tree.
pub fn stop() {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        p.enabled = false;
        p.armed = None;
        p.generation = p.generation.wrapping_add(1);
        p.nodes.clear();
        p.stack.clear();
        p.fifo.clear();
    });
}

/// Arms attribution: subsequent charges and core runs belong to this
/// core. Clears pending charges (cycles charged but never run belong to
/// no core). No-op while disabled.
pub fn set_core(group: &'static str, idx: u32) {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        p.fifo.clear();
        if p.enabled {
            p.armed = Some((group, idx));
        }
    });
}

/// Disarms attribution: the code about to run belongs to a host that is
/// not being profiled. Clears pending charges.
pub fn disarm() {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        p.armed = None;
        p.fifo.clear();
    });
}

/// A scoped frame. Dropping pops the frame; inactive guards (profiler
/// disabled or disarmed at creation, or reset since) are free no-ops.
#[must_use]
pub struct Guard {
    active: bool,
    generation: u64,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            if p.generation == self.generation {
                p.stack.pop();
            }
        });
    }
}

/// Pushes frame `name` under the current frame and returns the guard
/// that pops it.
pub fn guard(name: &'static str) -> Guard {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        if !p.enabled || p.armed.is_none() || p.nodes.is_empty() {
            return Guard {
                active: false,
                generation: 0,
            };
        }
        let parent = p.top();
        let existing = p
            .nodes
            .get(parent)
            .and_then(|n| n.children.get(name))
            .copied();
        let idx = match existing {
            Some(i) => i,
            None => {
                let i = p.nodes.len();
                p.nodes.push(Node::default());
                if let Some(par) = p.nodes.get_mut(parent) {
                    par.children.insert(name, i);
                }
                i
            }
        };
        p.stack.push(idx);
        Guard {
            active: true,
            generation: p.generation,
        }
    })
}

/// Enqueues `cycles` against the current frame, to be attributed when
/// the core actually runs them. No-op while disabled or disarmed.
pub fn charge(cycles: u64) {
    if cycles == 0 {
        return;
    }
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        if !p.enabled || p.armed.is_none() {
            return;
        }
        let node = p.top();
        p.fifo.push_back((node, cycles));
    });
}

/// Attribution drain, called by `Core::run` (under the cpusim `telemetry`
/// feature) with the cycles just submitted. Oldest charges drain first;
/// any shortfall is attributed to the frame currently on top of the
/// stack. No-op while disabled or disarmed.
pub fn on_core_run(cycles: u64) {
    if cycles == 0 {
        return;
    }
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        if !p.enabled {
            return;
        }
        let Some(core) = p.armed else {
            return;
        };
        let mut remaining = cycles;
        while remaining > 0 {
            let Some((node, c)) = p.fifo.pop_front() else {
                break;
            };
            if c <= remaining {
                remaining -= c;
                p.add_cycles(node, core, c);
            } else {
                p.fifo.push_front((node, c - remaining));
                p.add_cycles(node, core, remaining);
                remaining = 0;
            }
        }
        if remaining > 0 {
            let top = p.top();
            p.add_cycles(top, core, remaining);
        }
    });
}

/// Takes the accumulated profile, resetting the tree (profiling stays
/// enabled). Outstanding guards become no-ops.
pub fn take() -> Profile {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        p.generation = p.generation.wrapping_add(1);
        p.armed = None;
        let nodes = std::mem::take(&mut p.nodes);
        if p.enabled {
            p.reset_tree();
        } else {
            p.stack.clear();
            p.fifo.clear();
        }
        Profile { nodes }
    })
}

/// An immutable profile snapshot: the per-core attribution tree.
#[derive(Clone, Debug)]
pub struct Profile {
    nodes: Vec<Node>,
}

impl Profile {
    /// An empty profile (what [`take`] returns when nothing ran).
    pub fn empty() -> Profile {
        Profile { nodes: Vec::new() }
    }

    /// True when no cycles were attributed anywhere.
    pub fn is_empty(&self) -> bool {
        self.total_cycles() == 0
    }

    /// Total attributed cycles across all cores and frames.
    pub fn total_cycles(&self) -> u64 {
        self.nodes.iter().map(Node::self_total).sum()
    }

    /// Every core that received cycles, in deterministic order.
    pub fn cores(&self) -> Vec<CoreId> {
        let mut set = BTreeSet::new();
        for n in &self.nodes {
            for core in n.cycles.keys() {
                set.insert(*core);
            }
        }
        set.into_iter().collect()
    }

    /// Per-core totals keyed by folded label (`fp0`), in label order.
    pub fn per_core_totals(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for n in &self.nodes {
            for (core, c) in &n.cycles {
                *out.entry(core_label(*core)).or_insert(0) += c;
            }
        }
        out
    }

    /// Self cycles per frame path (frames joined with `/`, root
    /// excluded from the path; root residual keys as `(root)`), summed
    /// across cores. Zero-cycle structural frames are omitted.
    pub fn flat_self(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        let mut path = Vec::new();
        self.walk_flat(0, &mut path, &mut out);
        out
    }

    fn walk_flat(&self, idx: usize, path: &mut Vec<&'static str>, out: &mut BTreeMap<String, u64>) {
        let Some(n) = self.nodes.get(idx) else {
            return;
        };
        let total = n.self_total();
        if total > 0 {
            let key = if path.is_empty() {
                "(root)".to_string()
            } else {
                path.join("/")
            };
            *out.entry(key).or_insert(0) += total;
        }
        for (name, &child) in &n.children {
            path.push(name);
            self.walk_flat(child, path, out);
            path.pop();
        }
    }

    /// Subtree cycle totals for each depth-1 frame (the per-module
    /// rollup), keyed by frame name, summed across cores.
    pub fn rollup_depth1(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        let Some(root) = self.nodes.first() else {
            return out;
        };
        for (name, &child) in &root.children {
            out.insert((*name).to_string(), self.subtree_cycles(child));
        }
        out
    }

    fn subtree_cycles(&self, idx: usize) -> u64 {
        let Some(n) = self.nodes.get(idx) else {
            return 0;
        };
        n.self_total()
            + n.children
                .values()
                .map(|&c| self.subtree_cycles(c))
                .sum::<u64>()
    }

    /// Brendan-Gregg collapsed stacks: one line per `(core, frame path)`
    /// with self cycles > 0, `label;frame;frame cycles`, sorted
    /// lexicographically. `flamegraph.pl` and speedscope ingest this
    /// directly.
    pub fn folded(&self) -> String {
        let mut lines = Vec::new();
        let mut path = Vec::new();
        self.walk_folded(0, &mut path, &mut lines);
        lines.sort();
        let mut out = String::new();
        for l in &lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    fn walk_folded(&self, idx: usize, path: &mut Vec<&'static str>, lines: &mut Vec<String>) {
        let Some(n) = self.nodes.get(idx) else {
            return;
        };
        for (core, &c) in &n.cycles {
            if c == 0 {
                continue;
            }
            let mut line = core_label(*core);
            for frame in path.iter() {
                line.push(';');
                line.push_str(frame);
            }
            let _ = write!(line, " {c}");
            lines.push(line);
        }
        for (name, &child) in &n.children {
            path.push(name);
            self.walk_folded(child, path, lines);
            path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_region(core: CoreId, frames: &[&'static str], cycles: u64) {
        set_core(core.0, core.1);
        let mut guards = Vec::new();
        for f in frames {
            guards.push(guard(f));
        }
        charge(cycles);
        drop(guards);
        on_core_run(cycles);
    }

    #[test]
    fn disabled_profiler_is_inert() {
        stop();
        set_core("fp", 0);
        let _g = guard("rx");
        charge(100);
        on_core_run(100);
        let p = take();
        assert!(p.is_empty());
        assert_eq!(p.folded(), "");
    }

    #[test]
    fn charges_attribute_to_frames_per_core() {
        start();
        run_region(("fp", 0), &["rx", "ack"], 120);
        run_region(("fp", 1), &["rx"], 30);
        run_region(("sp", 0), &["control"], 50);
        let p = take();
        stop();
        assert_eq!(p.total_cycles(), 200);
        let totals: Vec<_> = p.per_core_totals().into_iter().collect();
        let core = |label: &str, c| (label.to_string(), c);
        assert_eq!(totals, [core("fp0", 120), core("fp1", 30), core("sp0", 50)]);
        let folded = p.folded();
        assert_eq!(folded, "fp0;rx;ack 120\nfp1;rx 30\nsp0;control 50\n");
        assert_eq!(p.flat_self().get("rx/ack"), Some(&120));
        assert_eq!(p.rollup_depth1().get("rx"), Some(&150));
    }

    #[test]
    fn residual_lands_on_stack_top() {
        start();
        set_core("core", 2);
        {
            let _g = guard("conn");
            charge(40);
            // The core ran more than was charged: shortfall goes to the
            // live frame.
            on_core_run(100);
        }
        let p = take();
        stop();
        assert_eq!(p.total_cycles(), 100);
        assert_eq!(p.flat_self().get("conn"), Some(&100));
    }

    #[test]
    fn overcharge_drops_at_rearm() {
        start();
        set_core("sp", 0);
        {
            let _g = guard("exception");
            charge(900);
            charge(500); // estimated but never run
        }
        on_core_run(900);
        // Re-arming clears the stale 500-cycle estimate.
        set_core("fp", 0);
        {
            let _g = guard("rx");
            charge(10);
        }
        on_core_run(10);
        let p = take();
        stop();
        assert_eq!(p.total_cycles(), 910);
        assert_eq!(p.flat_self().get("exception"), Some(&900));
        assert_eq!(p.flat_self().get("rx"), Some(&10));
    }

    #[test]
    fn partial_drain_preserves_fifo_order() {
        start();
        set_core("fp", 0);
        {
            let _g = guard("a");
            charge(100);
        }
        {
            let _g = guard("b");
            charge(60);
        }
        on_core_run(70); // 70 of a
        on_core_run(90); // 30 of a, 60 of b
        let p = take();
        stop();
        assert_eq!(p.flat_self().get("a"), Some(&100));
        assert_eq!(p.flat_self().get("b"), Some(&60));
    }

    #[test]
    fn disarm_suppresses_attribution() {
        start();
        disarm();
        let _g = guard("ghost");
        charge(100);
        on_core_run(100);
        drop(_g);
        let p = take();
        stop();
        assert!(p.is_empty());
    }

    #[test]
    fn take_invalidates_outstanding_guards() {
        start();
        set_core("fp", 0);
        let g = guard("rx");
        charge(5);
        on_core_run(5);
        let p = take();
        drop(g); // stale generation: must not touch the fresh stack
        run_region(("fp", 0), &["tx"], 7);
        let p2 = take();
        stop();
        assert_eq!(p.total_cycles(), 5);
        assert_eq!(p2.folded(), "fp0;tx 7\n");
    }
}
