//! Measurement utilities shared by the MFLOW simulator, runtime and bench
//! harness: log-bucketed latency histograms, per-core CPU accounting,
//! scalar statistics, text tables and JSON series output.
//!
//! Everything here is deterministic and allocation-light so it can be used
//! inside the discrete-event hot loop.

pub mod alloc;
pub mod cpu;
pub mod hist;
pub mod series;
pub mod stats;
pub mod table;
pub mod telemetry;
pub mod timeseries;

pub use alloc::CountingAlloc;
pub use cpu::{CpuAccounting, CpuBreakdownRow};
pub use hist::LatencyHistogram;
pub use series::{DataPoint, Series, SeriesSet};
pub use stats::{mean, percentile_of_sorted, stddev};
pub use table::Table;
pub use telemetry::Telemetry;
pub use timeseries::WindowedRate;
