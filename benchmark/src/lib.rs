//! Layered performance ledger of the barrier-elimination compiler and
//! its executors.
//!
//! One process runs one named workload: it sets the workload up
//! several times (timing each set-up), then repeats passes for a fixed
//! number of seconds. A pass compiles the workload's programs cold,
//! recompiles them through a primed FME memo, and runs each program
//! under four plans (sequential, fork-join, optimized, and optimized
//! under the recovery supervisor) in a seeded order. Every compile and
//! every run is checked against a reference computed once up front.
//!
//! End-to-end metrics are medians of untraced passes; the ledger also
//! prints tails. With tracing on, traced passes alternate with untraced ones; the traced
//! pass closest to the median gives the per-layer split, whose rows sum
//! to its wall time. The layers are timed from outside the program, by
//! wrapping calls to its public functions and reading the counters it
//! already exports; see `NOTES.md` for what each metric should move.

pub mod pass;
pub mod report;
pub mod workload;

use pass::{Mode, Pass};
use rand::rngs::StdRng;
use rand::SeedableRng;
use report::Metric;
use std::time::Instant;
use workload::{Prepared, References, Size, Spec, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Picks the generated programs and the run order.
    pub seed: u64,
    /// Measuring time after set-up.
    pub seconds: f64,
    /// Report per-layer (traced) metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Corrupt one run result per pass (self-test only).
    pub corrupt: bool,
}

/// What an invocation measured.
pub struct Outcome {
    /// Metrics to print: end-to-end, or per-layer with `trace`.
    pub metrics: Vec<Metric>,
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Human-readable ledger.
    pub ledger: String,
}

/// Run `cfg` to completion.
pub fn execute(cfg: &Config) -> Result<Outcome, String> {
    let spec = Spec::new(cfg.workload, cfg.size, cfg.seed);
    let refs = References::new(&spec)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let untraced = Mode {
        traced: false,
        corrupt: cfg.corrupt,
    };
    let traced = Mode {
        traced: true,
        ..untraced
    };

    // Set-up: instances, primed warm cache, run plans, team, and one
    // warm-up pass — repeated, keeping the last.
    let mut setup_s = Vec::new();
    let mut warmups = Vec::new();
    let mut prep = None;
    for _ in 0..SETUP_REPS {
        drop(prep.take());
        let t = Instant::now();
        let p = Prepared::new(&spec)?;
        warmups.push(Pass::run(&spec, &refs, &p, untraced, &mut rng));
        setup_s.push(t.elapsed().as_secs_f64());
        prep = Some(p);
    }
    let prep = prep.expect("at least one set-up");

    let t0 = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut with_trace: Vec<Pass> = Vec::new();
    loop {
        let trace_next = cfg.trace && plain.len() > with_trace.len();
        let mode = if trace_next { traced } else { untraced };
        let mut p = Pass::run(&spec, &refs, &prep, mode, &mut rng);
        if trace_next {
            with_trace.push(p);
        } else {
            // Untraced passes only feed medians. Kept, their per-program
            // rows would grow with the pass count and show in
            // `peak_rss_mb`, so a faster program would read as larger.
            p.rows = Vec::new();
            plain.push(p);
        }
        let done = t0.elapsed().as_secs_f64() >= cfg.seconds;
        if done && (!cfg.trace || !with_trace.is_empty()) {
            break;
        }
    }

    let all = warmups.iter().chain(&plain).chain(&with_trace);
    let (attempted, failed) = all.fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed));
    let untraced_median = report::median(&plain.iter().map(|p| p.wall_us).collect::<Vec<_>>());

    let mut ledger = format!(
        "perf-ledger: workload {} seed {} size {:?} P {} cores {} seconds {} trace {}\n",
        cfg.workload.name(),
        cfg.seed,
        cfg.size,
        workload::RUN_P,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cfg.seconds,
        u8::from(cfg.trace),
    );
    let metrics = if cfg.trace {
        // The traced pass whose wall time is the (lower) median.
        let mut by_wall: Vec<&Pass> = with_trace.iter().collect();
        by_wall.sort_by(|a, b| a.wall_us.total_cmp(&b.wall_us));
        let mid = by_wall[(by_wall.len() - 1) / 2];
        let fail_frac = failed as f64 / attempted.max(1) as f64;
        let metrics = report::per_layer(mid, mid.wall_us / untraced_median, fail_frac);
        ledger += &report::render_layers(&metrics, with_trace.len(), untraced_median);
        let l = &mid.layers;
        // Printed here but not in the result line: at P = 2 the
        // optimizer places only neighbor flags, so both read 0.
        ledger += &format!(
            "  runtime.counter_wait_us {:.1} us, runtime.pairwise_wait_us {:.1} us \
             (in runtime.p2p_wait_us)\n",
            l.counter_wait_us, l.pairwise_wait_us
        );
        ledger += "rows of that pass, one per program x step:\n";
        ledger += &report::render_rows(mid);
        metrics
    } else {
        let rss = report::peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?;
        let metrics = report::end_to_end(&setup_s, &plain, rss);
        ledger += &report::render_end_to_end(&metrics, &plain);
        metrics
    };
    ledger += &format!("checks: {failed} failed of {attempted} (compiles + runs)\n");
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        ledger,
    })
}
