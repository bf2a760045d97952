//! The probe family: every flight-recorder and cycle-profiler site in the
//! stack crates is one of these four macros.
//!
//! # Why here, and how the gate works
//!
//! `tas-sim` is the one crate every stack crate already depends on, so the
//! macros need no new Cargo edge. It has no `telemetry` feature and no
//! `tas-telemetry` dependency and does not need either: the
//! `#[cfg(feature = "telemetry")]` in a macro body is evaluated in the
//! crate that *invokes* the macro, and the `tas_telemetry::…` paths it
//! expands to resolve there too. Each of `tas`, `tas-tcp`, `tas-netsim`,
//! `tas-baselines` and `tas-cpusim` keeps its own `telemetry` feature over
//! its own optional `tas-telemetry` dependency, and that is the whole
//! switch.
//!
//! # Zero cost when disabled
//!
//! With the invoking crate's feature off, each macro expands to a
//! statement the compiler strips before name resolution: no argument is
//! evaluated, type-checked or even resolved (`crates/sim/tests/probe_off.rs`
//! passes arguments that would not compile). A site that spells a
//! `tas_telemetry::…` path *outside* a probe still fails the default
//! build with E0433, because the dependency is optional.
//!
//! Invoke the macros in statement position (`probe! { … }`, `trace!(…);`),
//! never as a match-arm or tail expression: an attribute cannot gate an
//! expression.

/// Opens profiler frame `name` until the end of the enclosing block.
///
/// ```ignore
/// pub fn rx_segment(&mut self, …) -> u64 {
///     prof_scope!("rx");
///     …
/// }
/// ```
#[macro_export]
macro_rules! prof_scope {
    ($name:expr) => {
        #[cfg(feature = "telemetry")]
        let _prof = tas_telemetry::profile::guard($name);
    };
}

/// Queues `cycles` for the cycle profiler: `prof_charge!(cycles)` against
/// the current frame, `prof_charge!(cycles, "a", "b")` against frame `b`
/// inside frame `a` under the current one. A zero charge enters no frame,
/// so a cost that did not occur leaves no empty node in the tree.
#[macro_export]
macro_rules! prof_charge {
    ($cycles:expr) => {
        #[cfg(feature = "telemetry")]
        tas_telemetry::profile::charge($cycles);
    };
    ($cycles:expr, $($frame:expr),+) => {
        #[cfg(feature = "telemetry")]
        {
            let cycles: u64 = $cycles;
            if cycles > 0 {
                $(let _frame = tas_telemetry::profile::guard($frame);)+
                tas_telemetry::profile::charge(cycles);
            }
        }
    };
}

/// Emits one flight-recorder record: `trace!(site, t, Event { fields })`,
/// where `Event` is a `tas_telemetry::TraceEvent` variant. The record is
/// built inside the recorder's closure, so a compiled-in but disarmed
/// site evaluates no field. `trace!(site, t, SegRx(seg))` / `SegTx(seg)`
/// is the segment events' spelling: the record keeps a boxed copy of
/// `seg`, made only while recording.
#[macro_export]
macro_rules! trace {
    ($site:expr, $t:expr, $event:ident($seg:expr)) => {
        $crate::trace!($site, $t, $event { seg: Box::new($seg.clone()) });
    };
    ($site:expr, $t:expr, $event:ident { $($fields:tt)* }) => {
        #[cfg(feature = "telemetry")]
        tas_telemetry::emit(|| tas_telemetry::TraceRecord {
            t: $t,
            site: $site,
            ev: tas_telemetry::TraceEvent::$event { $($fields)* },
        });
    };
}

/// Telemetry-only code that fits none of the above. `probe! { stmts }`
/// runs the statements in a block of their own; `probe! { let pat = expr; }`
/// (exactly one binding) declares it in the *caller's* scope, for a later
/// probe to read — a value captured before the packet it describes is
/// moved, an accumulator a loop adds to.
#[macro_export]
macro_rules! probe {
    (let $p:pat = $e:expr $(;)?) => {
        #[cfg(feature = "telemetry")]
        let $p = $e;
    };
    ($($body:tt)*) => {
        #[cfg(feature = "telemetry")]
        {
            $($body)*
        }
    };
}
