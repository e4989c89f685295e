//! Tiny-scale smoke of all three workloads through the timed run, the
//! layer replay, and the oracle gate.

use perfbench::oracle::{Oracle, Seen};
use perfbench::replay::Replay;
use perfbench::run;
use perfbench::spans::Tracer;
use perfbench::workload::{Input, Kind, Workload, NAMES};

fn tiny(name: &str) -> Workload {
    Workload::by_name(name).expect("known workload").tiny()
}

#[test]
fn every_workload_passes_the_oracle_gate() {
    for name in NAMES {
        let w = tiny(name);
        let input = Input::generate(&w, 7);
        let out = run::timed(&w, &input, 0.01).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.attempted > 0, "{name}");
        assert_eq!(out.failed, 0, "{name}");
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["setup_s", "ticks_per_cpu_s"], "{name}");
        assert!(out.metrics.iter().all(|m| m.value > 0.0), "{name}");
    }
}

#[test]
fn the_replay_reproduces_the_engine_bit_for_bit() {
    for name in NAMES {
        let w = tiny(name);
        let input = Input::generate(&w, 3);
        let (model, _) = run::set_up(&w, &input, &mut Tracer::off());
        let oracle = Oracle::compute(&model, &input);
        let mut tr = Tracer::on(1);
        let r = Replay::pass(&w, &input, &model, &mut tr);
        let check = oracle.check(r.verdicts.iter().copied());
        assert_eq!(check.first_failure, None, "{name}");
        assert!(r.counts.probes > 0 && r.counts.segments > 0, "{name}");
        assert_eq!(r.counts.wire_bytes > 0, w.kind == Kind::Wire, "{name}");
        assert!(tr
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.run == 1));
    }
}

#[test]
fn the_gate_counts_missing_duplicated_and_differing_verdicts() {
    let w = tiny("deploy-d2");
    let input = Input::generate(&w, 5);
    let (model, _) = run::set_up(&w, &input, &mut Tracer::off());
    let oracle = Oracle::compute(&model, &input);
    let good = run::pass(&w, &input, &model, &mut Tracer::off()).expect("pass");
    let check = run::verify(&w, &input, &oracle, &good);
    assert_eq!((check.failed, check.attempted), (0, oracle.expected()));

    let mut bad: Vec<Seen> = good.verdicts.clone();
    bad[0].score_bits ^= 1; // differs
    bad.push(bad[1]); // duplicated
    bad.remove(2); // missing
    let check = oracle.check(bad);
    assert_eq!(check.failed, 3);
    let first = check.first_failure.expect("a failure");
    assert!(first.contains("differs from the oracle"), "{first}");
}

#[test]
fn inputs_follow_the_seed() {
    let w = tiny("deploy-d2");
    let a = Input::generate(&w, 11);
    let b = Input::generate(&w, 11);
    let c = Input::generate(&w, 12);
    let bits = |i: &Input| -> Vec<u64> {
        i.cycles
            .iter()
            .flatten()
            .flat_map(|t| t.values.iter().map(|v| v.to_bits()))
            .collect()
    };
    assert_eq!(bits(&a), bits(&b));
    assert_ne!(bits(&a), bits(&c));
    assert_eq!(a.n_ticks(), w.shape.nodes * w.shape.horizon);
}
