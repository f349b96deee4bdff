//! The four workloads. Each takes the run environment and fills a report:
//! end-to-end metrics in an untraced run, per-layer metrics in a traced one.

pub mod hist_mem;
pub mod pile_ooc;
pub mod realtime;
pub mod serve_live;

use crate::harness::Env;
use crate::metrics::Report;

/// Run the workload called `name`. `None` when there is no such workload.
pub fn run(name: &str, env: &Env) -> Option<Report> {
    let mut report = Report::default();
    match name {
        "hist-mem" => hist_mem::run(env, &mut report),
        "realtime" => realtime::run(env, &mut report),
        "pile-ooc" => pile_ooc::run(env, &mut report),
        "serve-live" => serve_live::run(env, &mut report),
        _ => return None,
    }
    Some(report)
}
