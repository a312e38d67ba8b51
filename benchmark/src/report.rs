//! Turning passes into named metrics: medians and tails of the
//! untraced passes, the per-layer split of a traced pass, the JSON
//! result line and the human-readable ledger.

use crate::pass::{Layers, Pass};
use std::fmt::Write;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `v` (mean of the middle two for even counts).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of `v` with at least ten samples above it:
/// `(value, percentile, samples)`. With ten samples or fewer there is
/// no such percentile and the maximum is reported (percentile 100).
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return (s.last().copied().unwrap_or(f64::NAN), 100.0, n);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64, n)
}

/// Peak resident set size of this process, MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Per-pass samples, milliseconds, of each timed end-to-end metric.
fn samples(passes: &[Pass]) -> [(&'static str, Vec<f64>); 6] {
    let col = |f: fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(|p| f(p) / 1e3).collect() };
    [
        ("compile_ms", col(|p| p.cold_us)),
        ("recompile_ms", col(|p| p.warm_us)),
        ("run_seq_ms", col(|p| p.seq_us)),
        ("run_fj_ms", col(|p| p.fj_us)),
        ("run_opt_ms", col(|p| p.opt_us)),
        ("run_supervised_ms", col(|p| p.sup_us)),
    ]
}

/// The end-to-end metrics of the untraced passes.
pub fn end_to_end(setup_s: &[f64], passes: &[Pass], rss_mb: f64) -> Vec<Metric> {
    let last = passes.last().expect("at least one untraced pass");
    let mut out = vec![m("setup_s", median(setup_s), "s")];
    out.extend(
        samples(passes)
            .iter()
            .map(|(name, v)| m(name, median(v), "ms")),
    );
    out.extend([
        m("dyn_barriers_opt", last.dyn_barriers_opt as f64, "count"),
        m("dyn_sync_ops_opt", last.dyn_sync_ops_opt as f64, "count"),
        m("peak_rss_mb", rss_mb, "MB"),
    ]);
    out
}

/// The rows that partition a traced pass's wall time, in ledger
/// order; `bench.unattributed_us` is the remainder.
pub const ROWS: [&str; 19] = [
    "frontend.parse_us",
    "analysis.dep_us",
    "core.fork_join_us",
    "ineq.fme_query_us",
    "core.placement_us",
    "ineq.fme_query_us_warm",
    "core.placement_us_warm",
    "interp.seq_us",
    "interp.launch_us",
    "interp.compute_us_fj",
    "interp.compute_us_opt",
    "runtime.barrier_wait_us",
    "runtime.p2p_wait_us",
    "interp.checkpoint_us",
    "runtime.sup_elapsed_us",
    "runtime.guard_us",
    "bench.tracer_us",
    "bench.harness_us",
    "bench.unattributed_us",
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced pass. `overhead` is the traced
/// pass's wall time over the untraced median, `fail_frac` the run's
/// failed checks over attempted.
pub fn per_layer(p: &Pass, overhead: f64, fail_frac: f64) -> Vec<Metric> {
    let l: &Layers = &p.layers;
    let rows = [
        l.parse_us,
        l.dep_us,
        l.fork_join_us,
        l.fme_query_us,
        l.placement_us,
        l.fme_query_us_warm,
        l.placement_us_warm,
        l.seq_us,
        l.launch_us,
        l.compute_us_fj,
        l.compute_us_opt,
        l.barrier_wait_us,
        l.p2p_wait_us,
        l.checkpoint_us,
        l.sup_elapsed_us,
        l.guard_us,
        l.tracer_us,
        l.harness_us,
    ];
    let unattributed = p.wall_us - rows.iter().sum::<f64>();
    let mut out: Vec<Metric> = ROWS
        .iter()
        .zip(rows.iter().chain([unattributed].iter()))
        .map(|(&name, &v)| m(name, v, "us"))
        .collect();
    out.extend([
        m("bench.traced_pass_us", p.wall_us, "us"),
        m("bench.trace_overhead", overhead, "ratio"),
        m("frontend.nodes", l.nodes as f64, "count"),
        m(
            "analysis.pair_queries",
            (l.pair_hits + l.pair_misses) as f64,
            "count",
        ),
        m(
            "analysis.pair_hit_rate",
            ratio(l.pair_hits, l.pair_hits + l.pair_misses),
            "ratio",
        ),
        m("ineq.fme_scan_us", l.fme_scan_us, "us"),
        m("ineq.fme_saved_us", l.fme_saved_us, "us"),
        m("ineq.canon_us", l.canon_us_warm, "us"),
        m(
            "ineq.feas_queries",
            (l.feas_hits_cold + l.feas_misses_cold) as f64,
            "count",
        ),
        m(
            "ineq.feas_hit_rate_cold",
            ratio(l.feas_hits_cold, l.feas_hits_cold + l.feas_misses_cold),
            "ratio",
        ),
        m(
            "ineq.feas_hit_rate_warm",
            ratio(l.feas_hits_warm, l.feas_hits_warm + l.feas_misses_warm),
            "ratio",
        ),
        m("ineq.unknown_verdicts", l.unknown_verdicts as f64, "count"),
        m("ineq.peak_constraints", l.peak_constraints as f64, "count"),
        m("core.optimize_us", l.optimize_us, "us"),
        m("core.sites", l.sites as f64, "count"),
        m("core.eliminated", l.eliminated as f64, "count"),
        m("core.replaced", l.replaced as f64, "count"),
        m("core.barriers_placed", l.barriers_placed as f64, "count"),
        m("interp.unroll_us", l.unroll_us, "us"),
        m("interp.events", l.events as f64, "count"),
        m(
            "interp.checkpoint_cells",
            l.checkpoint_cells as f64,
            "count",
        ),
        m(
            "interp.recover_attempts",
            l.recover_attempts as f64,
            "count",
        ),
        m("interp.max_abs_diff", l.max_abs_diff, "abs"),
        m("runtime.neighbor_wait_us", l.neighbor_wait_us, "us"),
        m(
            "runtime.sync_share_fj",
            share(l.wait_us_fj, l.elapsed_us_fj),
            "ratio",
        ),
        m(
            "runtime.sync_share_opt",
            share(l.wait_us_opt, l.elapsed_us_opt),
            "ratio",
        ),
        m("runtime.barriers_fj", l.barriers_fj as f64, "count"),
        m("runtime.sync_ops_fj", l.sync_ops_fj as f64, "count"),
        m("fail_frac", fail_frac, "ratio"),
    ]);
    out
}

/// A JSON number: shortest round-trip form, so every measured digit
/// survives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// First and third quartile of `v`.
fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let q = |f: f64| s[((s.len() - 1) as f64 * f).round() as usize];
    (q(0.25), q(0.75))
}

/// The end-to-end block of the ledger: each metric with the quartiles
/// of its per-pass samples, then the tails, which are reported but not
/// gated (see `NOTES.md`).
pub fn render_end_to_end(metrics: &[Metric], passes: &[Pass]) -> String {
    let mut out = String::new();
    let cols = samples(passes);
    let _ = writeln!(
        out,
        "end-to-end, median of {} untraced passes:",
        passes.len()
    );
    for x in metrics {
        let extra = cols
            .iter()
            .find(|c| c.0 == x.name)
            .map_or(String::new(), |c| {
                let (q1, q3) = quartiles(&c.1);
                format!("q1 {q1:.3}  q3 {q3:.3}")
            });
        let _ = writeln!(
            out,
            "  {:<22} {:>14.3} {:<6} {extra}",
            x.name, x.value, x.unit
        );
    }
    for (name, col) in [
        ("compile_ms_tail", &cols[0].1),
        ("run_opt_ms_tail", &cols[4].1),
    ] {
        let (v, pct, k) = tail(col);
        let _ = writeln!(
            out,
            "  {name:<22} {v:>14.3} ms     p{pct:.0} of {k} samples"
        );
    }
    out
}

/// The per-layer block: the additive rows with their share of the
/// traced pass and the sum check, then the derived metrics.
pub fn render_layers(metrics: &[Metric], traced: usize, untraced_median_us: f64) -> String {
    let mut out = String::new();
    let get = |name: &str| {
        metrics
            .iter()
            .find(|x| x.name == name)
            .map_or(f64::NAN, |x| x.value)
    };
    let total = get("bench.traced_pass_us");
    let _ = writeln!(
        out,
        "layers of the median traced pass (of {traced}); rows sum to the traced pass:"
    );
    let mut sum = 0.0;
    for name in ROWS {
        let v = get(name);
        sum += v;
        let _ = writeln!(
            out,
            "  {name:<26} {v:>14.1} us  {:>6.1}%",
            100.0 * v / total
        );
    }
    let _ = writeln!(
        out,
        "  {:<26} {sum:>14.1} us  (traced pass {total:.1} us, untraced median {untraced_median_us:.1} us, overhead {:.3}x)",
        "sum",
        get("bench.trace_overhead")
    );
    let _ = writeln!(out, "derived:");
    for x in metrics.iter().filter(|x| !ROWS.contains(&x.name)) {
        let _ = writeln!(out, "  {:<26} {:>14.4} {}", x.name, x.value, x.unit);
    }
    out
}

/// One line per program × step of a pass.
pub fn render_rows(p: &Pass) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<22} {:<5} {:>12} {:>12} {:>12}",
        "program", "step", "wall us", "elapsed us", "wait us/P"
    );
    let opt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}"));
    let mut rows = p.rows.clone();
    rows.sort_by(|a, b| (&a.unit, a.step).cmp(&(&b.unit, b.step)));
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<22} {:<5} {:>12.1} {:>12} {:>12}",
            r.unit,
            r.step,
            r.wall_us,
            opt(r.elapsed_us),
            opt(r.wait_us)
        );
    }
    out
}
