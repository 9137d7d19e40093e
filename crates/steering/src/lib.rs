//! `mflow-steering` — the packet-steering baselines the paper evaluates
//! against: vanilla RSS, Linux RPS, and FALCON's device-level and
//! function-level softirq pipelining (EuroSys'21), all expressed as
//! [`mflow_netstack::PacketSteering`] policies over the simulated stack.
//!
//! None of these can split a *single* flow at packet granularity — that is
//! exactly the gap MFLOW (the `mflow` crate) fills.
//!
//! The [`lane`] module carries the engine-agnostic [`SteeringPolicy`]
//! trait the real-thread runtime dispatches through, with RPS on lanes.
//! The other baselines run in the simulator only.

pub mod falcon;
pub mod lane;
pub mod rps;
pub mod rss;

pub use falcon::{Falcon, FalconLevel};
pub use lane::{build_baseline, PolicyKind, RpsLanes, SteeringPolicy};
pub use rps::Rps;
pub use rss::Rss;
