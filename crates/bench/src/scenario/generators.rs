//! The canonical "datacenter day" scenarios.
//!
//! Every scenario pairs one well-behaved open-loop KV victim with a
//! different class of trouble. The victim is identical across scenarios
//! (same shape, rate, and host count) so the per-scenario bounds are
//! comparable: what changes is only who else is on the server.

use super::{Flash, IsolationBounds, Role, ScenarioSpec, Tenant, TrafficShape};
use tas_sim::SimTime;

/// The standard victim: one host of open-loop zipf KV load at a rate the
/// server serves easily when alone.
fn victim() -> Tenant {
    Tenant::new(
        "victim",
        Role::Victim,
        TrafficShape::KvOpen {
            per_sec: 40_000,
            conns: 16,
        },
        1,
    )
}

/// Connection-churn storm: aggressor connections live for a handful of
/// requests and are immediately re-established, hammering the slow
/// path's handshake machinery while the victim's established flows keep
/// running on the fast path.
pub fn churn_storm() -> ScenarioSpec {
    ScenarioSpec::new(
        "churn",
        "Connection-churn storm beside a steady tenant",
        9001,
    )
    .tenant(victim())
    .tenant(Tenant::new(
        "churner",
        Role::Aggressor,
        TrafficShape::KvChurn {
            conns: 16,
            msgs_per_conn: 4,
        },
        2,
    ))
    .bounds(
        IsolationBounds {
            p99_ratio_max: 3.0,
            goodput_frac_min: 0.7,
        },
        IsolationBounds {
            p99_ratio_max: 10.0,
            goodput_frac_min: 0.4,
        },
    )
}

/// Request incast with ECN: the fig13 sender count re-aimed at the KV
/// port — four closed-loop senders arrive together mid-window and incast
/// the server behind a lowered ECN marking threshold. The victim
/// legitimately loses some fair share; the bound says how much.
pub fn incast_ecn() -> ScenarioSpec {
    let mut s = ScenarioSpec::new(
        "incast",
        "N-sender request incast with ECN marking",
        crate::scenarios::fig13::TAS_SEED,
    )
    .tenant(victim())
    .tenant(
        Tenant::new(
            "incaster",
            Role::Aggressor,
            TrafficShape::KvClosed { conns: 32 },
            crate::scenarios::fig13::SENDERS,
        )
        .starting_at(SimTime::from_ms(5)),
    )
    .bounds(
        IsolationBounds {
            p99_ratio_max: 6.0,
            goodput_frac_min: 0.5,
        },
        IsolationBounds {
            p99_ratio_max: 20.0,
            goodput_frac_min: 0.25,
        },
    );
    s.ecn_threshold_pkts = Some(32);
    s
}

/// WAN-tenant coexistence: a tenant behind a bursty Gilbert–Elliott
/// loss process (2 ms, jittery) shares the server with the LAN victim.
/// Its retransmission storms and long-RTT flows must not bleed into the
/// victim's tail.
pub fn wan_loss() -> ScenarioSpec {
    ScenarioSpec::new("wan", "Bursty-loss WAN tenant beside a LAN tenant", 9003)
        .tenant(victim())
        .tenant(
            Tenant::new(
                "wan_tenant",
                Role::Aggressor,
                TrafficShape::KvClosed { conns: 8 },
                2,
            )
            .over_wan(),
        )
        .bounds(
            IsolationBounds {
                p99_ratio_max: 2.5,
                goodput_frac_min: 0.8,
            },
            IsolationBounds {
                p99_ratio_max: 6.0,
                goodput_frac_min: 0.5,
            },
        )
}

/// Zipf flash crowd: a second open-loop tenant surges to 10x its rate
/// for a third of the window (think: a key goes viral), then subsides.
pub fn flash_crowd() -> ScenarioSpec {
    let warm = SimTime::from_ms(10);
    ScenarioSpec::new("flash", "Zipf KV tenant with a mid-run flash crowd", 9004)
        .tenant(victim())
        .tenant(
            Tenant::new(
                "crowd",
                Role::Aggressor,
                TrafficShape::KvOpen {
                    per_sec: 20_000,
                    conns: 16,
                },
                1,
            )
            .with_flash(Flash {
                at: warm + SimTime::from_ms(8),
                until: warm + SimTime::from_ms(18),
                rate_mult: 10,
            }),
        )
        .bounds(
            IsolationBounds {
                p99_ratio_max: 4.0,
                goodput_frac_min: 0.6,
            },
            IsolationBounds {
                p99_ratio_max: 12.0,
                goodput_frac_min: 0.35,
            },
        )
}

/// Slow-reader adversary: pins rx byte-rings full with unread
/// responses. Per-flow state means the damage should stay on the
/// adversary's own flows — the tightest bounds in the suite.
pub fn slow_reader() -> ScenarioSpec {
    ScenarioSpec::new("slowread", "Slow-reader adversary pinning rx rings", 9005)
        .tenant(victim())
        .tenant(Tenant::new(
            "slowreader",
            Role::Aggressor,
            TrafficShape::SlowRead {
                conns: 8,
                burst: 64,
            },
            1,
        ))
        .bounds(
            IsolationBounds {
                p99_ratio_max: 2.0,
                goodput_frac_min: 0.85,
            },
            IsolationBounds {
                p99_ratio_max: 4.0,
                goodput_frac_min: 0.6,
            },
        )
}

/// ACK-division adversary: sub-MSS ACK slivers multiply per-ACK
/// fast-path work per useful byte.
pub fn ack_division() -> ScenarioSpec {
    ScenarioSpec::new("ackdiv", "ACK-division adversary", 9006)
        .tenant(victim())
        .tenant(Tenant::new(
            "ackdivider",
            Role::Aggressor,
            TrafficShape::AckDivision {
                conns: 4,
                chunk: 16,
            },
            1,
        ))
        .bounds(
            IsolationBounds {
                p99_ratio_max: 2.5,
                goodput_frac_min: 0.8,
            },
            IsolationBounds {
                p99_ratio_max: 5.0,
                goodput_frac_min: 0.5,
            },
        )
}

/// Window-stuffing adversary: a hostile advertised-window cycle forces
/// the server into many tiny segments per response.
pub fn window_stuff() -> ScenarioSpec {
    ScenarioSpec::new("winstuff", "Receive-window stuffing adversary", 9007)
        .tenant(victim())
        .tenant(Tenant::new(
            "stuffer",
            Role::Aggressor,
            TrafficShape::WindowStuff {
                conns: 4,
                pattern: vec![64, 16, 1448],
            },
            1,
        ))
        .bounds(
            IsolationBounds {
                p99_ratio_max: 2.5,
                goodput_frac_min: 0.8,
            },
            IsolationBounds {
                p99_ratio_max: 5.0,
                goodput_frac_min: 0.5,
            },
        )
}

/// Every scenario, in suite order.
pub fn all() -> Vec<ScenarioSpec> {
    vec![
        churn_storm(),
        incast_ecn(),
        wan_loss(),
        flash_crowd(),
        slow_reader(),
        ack_division(),
        window_stuff(),
    ]
}
