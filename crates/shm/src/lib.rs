//! Shared-memory primitives of the TAS architecture.
//!
//! TAS connects its three components (fast path, slow path, per-application
//! user-space stacks) exclusively through shared memory: per-flow circular
//! payload buffers and fixed-size descriptor ("context") queues (§3,
//! Figures 1–3 of the paper). This crate implements both:
//!
//! * [`ByteRing`] — a circular byte buffer addressed by absolute stream
//!   offsets, serving as both the RX payload buffer (fast path writes,
//!   application reads; supports writing one out-of-order interval ahead of
//!   the in-order frontier) and the TX payload buffer (application appends,
//!   fast path reads for (re)transmission, ACKs free space). Its memory is
//!   backed on demand, up to the span a flow has written, not its capacity.
//! * [`DescQueue`] — a bounded FIFO of descriptors modeling a cache-
//!   efficient SPSC shared-memory queue, with occupancy statistics used by
//!   the CPU cost model.
//!
//! The simulator is single-threaded, so these are plain data structures;
//! the concurrency of the real system is captured by the explicit queue
//! discipline (nothing ever bypasses a queue) rather than by atomics.
// Fast-path panic freedom (R4, DESIGN.md §11): the rings and queues are
// touched per packet, so production code here may not unwrap or panic;
// it degrades via let-else + debug_assert. Tests are exempt.
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

mod byte_ring;
mod desc_queue;

pub use byte_ring::{ByteRing, RingError};
pub use desc_queue::DescQueue;
