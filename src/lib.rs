//! Workspace façade for the TAS reproduction.
//!
//! Re-exports every crate in the workspace so examples and integration
//! tests can use one dependency. See the README for the architecture map
//! and DESIGN.md for the experiment index.

pub use tas;
pub use tas_apps as apps;
pub use tas_baselines as baselines;
pub use tas_cc as cc;
pub use tas_cpusim as cpusim;
pub use tas_netsim as netsim;
pub use tas_proto as proto;
pub use tas_shm as shm;
pub use tas_sim as sim;
pub use tas_tcp as tcp;
#[cfg(feature = "telemetry")]
pub use tas_telemetry as telemetry;
