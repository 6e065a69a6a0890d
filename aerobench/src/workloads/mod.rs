//! The four workloads. Each builds its inputs from the seed, sets the
//! system up (several times, for `setup_s`), measures for the requested
//! seconds, and checks the outputs.

pub mod fleet;
pub mod offline;
pub mod serve;
pub mod stream;

use crate::common::{Ctx, Report};

/// The workloads, in the order `BENCHMARK.json` lists them (the reason
/// for each is in its module's documentation).
pub const WORKLOADS: &[&str] = &[
    "offline_detect",
    "stream_steady",
    "fleet_burst",
    "serve_wire",
];

pub fn run(name: &str, ctx: &Ctx) -> Result<Report, String> {
    match name {
        "offline_detect" => offline::run(ctx),
        "stream_steady" => stream::run(ctx),
        "fleet_burst" => fleet::run(ctx),
        "serve_wire" => serve::run(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}
