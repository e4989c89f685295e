//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints context lines, then one JSON result line last. Exits non-zero,
//! without a result line, on bad arguments or any verdict that fails the
//! oracle.

use perfbench::workload::{Workload, NAMES};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or(format!(
                    "unknown workload {value:?}; expected one of {NAMES:?}"
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} commit={}",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        perfbench::sys::nproc(),
        perfbench::sys::commit()
    );
    println!("shape {:?}", w.shape);
    match perfbench::bench(w, args.seed, args.seconds, args.trace) {
        Ok(outcome) => {
            for m in outcome.metrics.iter() {
                println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!(
                "verdicts checked {} failed {}",
                outcome.attempted, outcome.failed
            );
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
