//! `mflow-runtime` — MFLOW's split/merge running on *real* OS threads.
//!
//! The simulator (`mflow-netstack`) shows the performance shape in virtual
//! time; this crate demonstrates the mechanisms under genuine parallelism:
//! a dispatcher thread splits a stream of real VXLAN frames into
//! micro-flow batches over N worker threads, each worker does actual
//! per-packet work (full parse + checksum verification + decapsulation +
//! payload digest), and the worker that finishes a micro-flow merges it
//! back into the original order with the same [`mflow::MergeCounter`] the
//! simulator uses.
//!
//! The invariants tested here are the ones the kernel implementation must
//! guarantee: no loss, no duplication, exact order restoration for every
//! interleaving the scheduler produces.
//!
//! ```
//! use mflow_runtime::{generate_frames, process_parallel, process_serial, RuntimeConfig};
//!
//! let frames = generate_frames(256, 512);
//! let serial = process_serial(&frames);
//! let parallel = process_parallel(&frames, &RuntimeConfig::default()).unwrap();
//! assert_eq!(serial.digests, parallel.digests);
//! ```

// The function-size rule (ROADMAP, design quality), enforced by CI's
// `clippy -D warnings` with the threshold in `clippy.toml`.
#![warn(clippy::too_many_lines)]

mod config;
mod crew;
mod dispatch;
pub mod faults;
mod merge;
pub mod packet;
pub mod pool;
pub mod ring;
mod run;
pub mod supervise;
pub mod work;
mod worker;

pub use config::{
    process_serial, process_serial_stateful, BackpressurePolicy, RecoveryRates, RunOutput,
    RuntimeConfig, Transport,
};
pub use faults::{
    FaultEvent, FaultLog, MergerKill, MergerStall, RuntimeFaults, SlowWorker, WorkerKill,
};
pub use mflow::StatefulMode;
pub use mflow_error::MflowError;
pub use mflow_metrics::Telemetry;
pub use mflow_steering::{PolicyKind, SteeringPolicy};
pub use packet::{frame_wire_len, frames_from_pcap, generate_frames, generate_frames_into, Frame};
pub use pool::{BufPool, PktBuf, PoolStats};
pub use run::{process_parallel, process_parallel_faulty};
pub use supervise::HeartbeatBoard;
pub use work::{process_frame, stateful_stage, PacketResult};

/// The unit tests of the five pipeline modules assembled
/// (`pipeline/tests.rs`): end-to-end through [`process_parallel`], so they
/// belong to no single module, and under the module path their names have
/// always carried.
#[cfg(test)]
mod pipeline {
    mod tests;
}
