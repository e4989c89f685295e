//! The repository benchmark: three fixed NodeSentry workloads (see
//! [`workload`]), exact-sample end-to-end metrics with an oracle gate
//! (see [`run`]), and a traced run whose single-threaded layer replay
//! gives the per-layer metrics (see [`traced`]).

pub mod oracle;
pub mod replay;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod traced;
pub mod workload;

use report::Outcome;
use workload::{Input, Workload};

/// One benchmark invocation: generate the input from `seed`, then run the
/// timed (`trace == false`) or the traced run.
pub fn bench(w: &Workload, seed: u64, seconds: f64, trace: bool) -> run::Result<Outcome> {
    let input = Input::generate(w, seed);
    if trace {
        traced::run(w, &input, seed)
    } else {
        run::timed(w, &input, seconds)
    }
}
