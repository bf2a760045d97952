//! Behavioral proofs for the adversarial clients (`tas_apps::adversary`):
//! the slow reader really pins its rx byte-ring full, the ACK-division
//! client really emits sub-MSS ACK cadences, and the window stuffer
//! really places its configured window sequence on the wire.

mod common;

use common::{pair, tas};
use tas::{TasConfig, TasHost};
use tas_apps::adversary::{AdvMode, AdversaryConfig, AdversaryHost, SlowReader};
use tas_apps::kv::{KvServer, RESP_LEN};
use tas_bench::app;
use tas_bench::testbed::{build, Agent, Net};
use tas_netsim::topo::host_ip;
use tas_sim::SimTime;

const PORT: u16 = 7;

/// A TAS KV server at node 0 and `client` at node 1, which starts 1 µs
/// later.
fn kv_star(seed: u64, client: Agent) -> Net {
    let server = tas(TasConfig::rpc_bench(1, 1), KvServer::new(PORT));
    let mut tb = pair(seed, server, client);
    tb.nodes[1].start = SimTime::from_us(1);
    build(tb)
}

fn slow_reader_star(seed: u64, burst: u32, resume_at: SimTime) -> Net {
    let mut app = SlowReader::new(host_ip(0), PORT, 1, burst);
    app.resume_at = resume_at;
    let mut cfg = TasConfig::rpc_bench(1, 1);
    cfg.rx_buf = 4096;
    kv_star(seed, tas(cfg, app))
}

#[test]
fn slow_reader_pins_rx_ring_full() {
    // 200 pipelined GETs => 200 * 67 = 13400 response bytes against a
    // 4096-byte rx ring the app never drains.
    let Net { mut sim, hosts, .. } = slow_reader_star(71, 200, SimTime::ZERO);
    sim.run_until(SimTime::from_ms(200));
    let client = sim.agent::<TasHost>(hosts[1]);
    let app = client.app_as::<SlowReader>();
    assert_eq!(app.sent, 200, "all requests issued");
    assert!(app.readable_events > 0, "data did arrive");
    assert_eq!(app.bytes_read, 0, "the slow reader never reads");
    // The ring is pinned full: in-order rx bytes reached ring capacity
    // (within one MSS of it, since segments land whole) and then stopped.
    let rx_t1 = client.fp_stats().bytes_rx;
    assert!(
        (4096 - 1448..=4096).contains(&rx_t1),
        "rx ring pinned at capacity, got {rx_t1} of 4096"
    );
    // No further delivery while the reader stays deaf.
    sim.run_until(SimTime::from_ms(400));
    let rx_t2 = sim.agent::<TasHost>(hosts[1]).fp_stats().bytes_rx;
    assert_eq!(rx_t1, rx_t2, "no rx progress while pinned");
    // The server is still holding the undelivered remainder for this
    // flow: its app accepted the requests but the responses cannot drain.
    let server = sim.agent::<TasHost>(hosts[0]);
    assert!(
        server.app_as::<KvServer>().gets >= 40,
        "server kept serving"
    );
}

#[test]
fn slow_reader_drains_after_resume() {
    // Same setup, but the reader wakes at t=300ms and drains everything —
    // proving the bytes were pent up, not lost.
    let burst = 100u32;
    let Net { mut sim, hosts, .. } = slow_reader_star(72, burst, SimTime::from_ms(300));
    sim.run_until(SimTime::from_ms(250));
    assert_eq!(
        app::<SlowReader>(&sim, hosts[1]).bytes_read,
        0,
        "nothing read before the resume instant"
    );
    sim.run_until(SimTime::from_ms(2000));
    let app = app::<SlowReader>(&sim, hosts[1]);
    let expected = burst as u64 * RESP_LEN as u64;
    assert_eq!(
        app.bytes_read, expected,
        "every pent-up response byte is delivered after resume"
    );
}

fn adversary_star(seed: u64, mode: AdvMode) -> Net {
    kv_star(
        seed,
        Agent::Adversary(AdversaryConfig::kv(host_ip(0), PORT, 1, mode)),
    )
}

#[test]
fn ack_division_emits_sub_mss_cadence() {
    let chunk = 16u32;
    let Net { mut sim, hosts, .. } = adversary_star(73, AdvMode::AckDivision { chunk });
    sim.run_until(SimTime::from_ms(200));
    let adv = sim.agent::<AdversaryHost>(hosts[1]);
    assert_eq!(adv.established, 1);
    assert!(adv.done >= 50, "closed loop made progress: {}", adv.done);
    assert!(!adv.ack_deltas.is_empty());
    // Every pure-ACK advance is sub-MSS (at most `chunk` bytes).
    assert!(
        adv.ack_deltas.iter().all(|&d| d > 0 && d <= chunk),
        "all ACK advances within the configured sliver"
    );
    // A 67-byte response acked 16 bytes at a time needs 5 ACKs; the ACK
    // count dwarfs the exchange count.
    assert!(
        adv.acks_sent >= adv.done * (RESP_LEN as u64).div_ceil(chunk as u64),
        "ACK amplification: {} acks for {} exchanges",
        adv.acks_sent,
        adv.done
    );
}

#[test]
fn window_stuffer_advertises_configured_sequence() {
    let pattern: Vec<u16> = vec![64, 16, 1448];
    let Net { mut sim, hosts, .. } = adversary_star(
        74,
        AdvMode::WindowStuff {
            pattern: pattern.clone(),
        },
    );
    sim.run_until(SimTime::from_ms(400));
    let adv = sim.agent::<AdversaryHost>(hosts[1]);
    assert_eq!(adv.established, 1);
    assert!(adv.done >= 1, "tiny windows slow but do not stop the loop");
    assert!(adv.adv_history.len() >= 12, "enough segments to check");
    for (i, &w) in adv.adv_history.iter().enumerate() {
        assert_eq!(
            w,
            pattern[i % pattern.len()],
            "advertised window {i} follows the intended cycle"
        );
    }
}
