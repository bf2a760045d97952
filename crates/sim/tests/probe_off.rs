//! The probe family expands to nothing when the *invoking* crate has no
//! `telemetry` feature.
//!
//! `tas-sim` declares no such feature, so this test crate is the off side
//! by construction. Every argument below would fail to compile (an
//! unresolvable crate, an undeclared variable) or panic if it were
//! evaluated; the test compiling and passing is the proof that neither
//! happens. The on side is covered where the feature exists: the golden
//! trace, the pcap round trip and `proptest_telemetry` in the root crate,
//! `spans_fig6` and `profile_gate` in `tas-bench`.

// rustc flags the macros' `cfg(feature = "telemetry")` as an unknown
// feature *of this crate* — which is the mechanism under test: the gate
// is evaluated where the macro is invoked, not where it is defined.
#![allow(unexpected_cfgs)]

use tas_sim::{probe, prof_charge, prof_scope, trace};

#[test]
fn every_probe_is_empty_without_the_feature() {
    prof_scope!(no_such_crate::frame_name());
    prof_charge!(panic!("charge evaluated"));
    prof_charge!(
        undeclared_cycles,
        no_such_crate::frame(),
        panic!("frame evaluated")
    );
    trace!(
        panic!("site evaluated"),
        no_such_crate::now(),
        NoSuchEvent {
            field: undeclared_value,
        }
    );
    trace!(
        no_such_crate::site(),
        panic!("time evaluated"),
        SegTx(undeclared_segment)
    );
    probe! { let binding = no_such_crate::capture(); }
    probe! {
        no_such_crate::record(binding);
        panic!("probe body ran");
    }
}
