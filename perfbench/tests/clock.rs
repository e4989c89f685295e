//! The process CPU clock the end-to-end metrics are counted in: it runs
//! while any thread computes and stands still while threads wait.

use perfbench::sys::Stopwatch;
use std::time::{Duration, Instant};

fn spin(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[test]
fn cpu_time_runs_while_threads_compute_and_not_while_they_wait() {
    let clock = Stopwatch::start();
    std::thread::sleep(Duration::from_millis(200));
    let slept = clock.elapsed();
    assert!(slept.wall_s >= 0.2, "{slept:?}");
    assert!(slept.cpu_s < 0.05, "sleeping cost CPU: {slept:?}");

    let clock = Stopwatch::start();
    let other = std::thread::spawn(|| spin(Duration::from_millis(200)));
    spin(Duration::from_millis(200));
    other.join().expect("spinning thread");
    let spun = clock.elapsed();
    // Two threads spin 0.2 s of wall time each, 0.4 CPU-s on an idle
    // machine; a shared one may deschedule either, which the CPU clock
    // leaves out.
    assert!(spun.cpu_s > 0.1, "{spun:?}");
    assert!(spun.cpu_s <= 2.0 * spun.wall_s + 0.01, "{spun:?}");
}
