//! One measured pass of a workload: a cold compile pass, a warm
//! recompile pass and a run pass, each timed around the calls into the
//! program's public functions and each output checked.

use crate::workload::{optimize_options, render_log, Prepared, References, Spec, RUN_P, TOL};
use interp::events::DynCounts;
use interp::{run_parallel, run_parallel_recovering, run_sequential, unroll, Checkpoint, Mem};
use interp::{ObserveOptions, ParallelOutcome};
use rand::rngs::StdRng;
use rand::Rng;
use runtime::RetryPolicy;
use spmd_opt::OptimizeOptions;
use spmd_opt::{fork_join, optimize_explained, optimize_explained_shared, render_plan};
use std::time::{Duration, Instant};

/// Watchdog deadline of the supervised run: generous, since no chaos
/// is injected and a retry would be a spurious failure.
const DEADLINE: Duration = Duration::from_secs(10);

/// The four plans of the run pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Plan {
    /// `run_sequential`.
    Seq,
    /// Fork-join plan on the team.
    Fj,
    /// Optimized plan on the team.
    Opt,
    /// Optimized plan under `run_parallel_recovering`.
    Sup,
}

impl Plan {
    const ALL: [Plan; 4] = [Plan::Seq, Plan::Fj, Plan::Opt, Plan::Sup];

    fn name(self) -> &'static str {
        match self {
            Plan::Seq => "seq",
            Plan::Fj => "fj",
            Plan::Opt => "opt",
            Plan::Sup => "sup",
        }
    }
}

/// How a pass runs.
#[derive(Clone, Copy, Debug)]
pub struct Mode {
    /// Traced: make the extra calls that split unroll and checkpoint
    /// out of the executor and supervisor calls.
    pub traced: bool,
    /// Corrupt the optimized result of the first run program before
    /// its check (the self-test's proof that the check has teeth).
    pub corrupt: bool,
}

/// One (program, step) line of the ledger.
#[derive(Clone, Debug)]
pub struct Row {
    /// Program name.
    pub unit: String,
    /// `cold`, `warm`, or a plan name.
    pub step: &'static str,
    /// Wall time of the call, microseconds.
    pub wall_us: f64,
    /// Executor-reported elapsed time (parallel plans).
    pub elapsed_us: Option<f64>,
    /// Mean per-processor sync wait (parallel plans).
    pub wait_us: Option<f64>,
}

/// Per-layer accumulators of one pass. The `*_us` fields named in
/// [`ROWS`] partition the pass's wall time; the rest are derived.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub parse_us: f64,
    pub dep_us: f64,
    pub fork_join_us: f64,
    pub fme_query_us: f64,
    pub placement_us: f64,
    pub fme_query_us_warm: f64,
    pub placement_us_warm: f64,
    pub seq_us: f64,
    pub launch_us: f64,
    pub compute_us_fj: f64,
    pub compute_us_opt: f64,
    pub barrier_wait_us: f64,
    pub p2p_wait_us: f64,
    pub checkpoint_us: f64,
    pub sup_elapsed_us: f64,
    pub guard_us: f64,
    pub tracer_us: f64,
    pub harness_us: f64,

    pub nodes: u64,
    pub pair_hits: u64,
    pub pair_misses: u64,
    pub fme_scan_us: f64,
    pub fme_saved_us: f64,
    pub canon_us_warm: f64,
    pub feas_hits_cold: u64,
    pub feas_misses_cold: u64,
    pub feas_hits_warm: u64,
    pub feas_misses_warm: u64,
    pub unknown_verdicts: u64,
    pub peak_constraints: u64,
    pub optimize_us: f64,
    pub sites: u64,
    pub eliminated: u64,
    pub replaced: u64,
    pub barriers_placed: u64,
    pub unroll_us: f64,
    pub events: u64,
    pub checkpoint_cells: u64,
    pub recover_attempts: u64,
    pub max_abs_diff: f64,
    pub neighbor_wait_us: f64,
    pub counter_wait_us: f64,
    pub pairwise_wait_us: f64,
    pub wait_us_fj: f64,
    pub wait_us_opt: f64,
    pub elapsed_us_fj: f64,
    pub elapsed_us_opt: f64,
    pub barriers_fj: u64,
    pub sync_ops_fj: u64,
}

/// The result of one pass.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall_us: f64,
    /// Cold compile pass.
    pub cold_us: f64,
    /// Warm recompile pass.
    pub warm_us: f64,
    /// Sequential runs.
    pub seq_us: f64,
    /// Fork-join runs, executor elapsed.
    pub fj_us: f64,
    /// Optimized runs, executor elapsed.
    pub opt_us: f64,
    /// Supervised optimized runs, wall time of the call.
    pub sup_us: f64,
    /// Barrier episodes of the optimized runs.
    pub dyn_barriers_opt: u64,
    /// Sync operations of the optimized runs.
    pub dyn_sync_ops_opt: u64,
    /// Checks made (compiles + runs).
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Per-layer split.
    pub layers: Layers,
    /// One row per program × step.
    pub rows: Vec<Row>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn sync_ops(c: &DynCounts) -> u64 {
    c.barriers
        + c.counter_increments
        + c.counter_waits
        + c.neighbor_posts
        + c.neighbor_waits
        + c.pair_posts
        + c.pair_waits
}

/// Sync wait by primitive, microseconds summed over processors.
fn waits_us(out: &ParallelOutcome) -> [f64; 4] {
    let s = &out.stats;
    [
        s.barrier_wait_ns,
        s.neighbor_wait_ns,
        s.counter_wait_ns,
        s.pairwise_wait_ns,
    ]
    .map(|ns| ns as f64 / 1e3)
}

/// Reset `mem` to what `Mem::new` gives (zero elements, declared
/// scalar values). Writing every cell also keeps first-touch page
/// faults and allocation out of the timed runs.
fn reset_mem(prog: &ir::Program, nprocs: usize, mem: &Mem) {
    for a in (0..prog.arrays.len()).map(|k| ir::ArrayId(k as u32)) {
        let views = if mem.is_private(a) { nprocs } else { 1 };
        for pid in 0..views {
            let store = mem.array_view(a, pid);
            for k in 0..store.len() {
                store.set_linear(k, 0.0);
            }
        }
    }
    for (k, s) in prog.scalars.iter().enumerate() {
        mem.set_scalar(ir::ScalarId(k as u32), s.init);
    }
}

/// Flip one shared cell so the run check must fail.
fn corrupt(prog: &ir::Program, mem: &Mem) {
    let arr = (0..prog.arrays.len())
        .map(|k| ir::ArrayId(k as u32))
        .find(|&a| !mem.is_private(a) && !mem.array(a).is_empty())
        .expect("a run program has a shared array");
    let cell = mem.array(arr);
    cell.set_linear(0, cell.get_linear(0) + 1.0);
}

impl Pass {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn row(&mut self, unit: &str, step: &'static str, wall_us: f64, par: Option<(f64, f64)>) {
        self.rows.push(Row {
            unit: unit.to_string(),
            step,
            wall_us,
            elapsed_us: par.map(|p| p.0),
            wait_us: par.map(|p| p.1),
        });
    }

    /// Run one pass. `rng` (seeded) shuffles the run pass's order of
    /// (program, plan).
    pub fn run(
        spec: &Spec,
        refs: &References,
        prep: &Prepared,
        mode: Mode,
        rng: &mut StdRng,
    ) -> Pass {
        let t_pass = Instant::now();
        let mut p = Pass::default();
        let opts = optimize_options();
        p.cold(spec, refs, opts);
        p.warm(spec, refs, prep, opts);
        p.run_pass(refs, prep, mode, rng);
        p.wall_us = us(t_pass.elapsed());
        p
    }

    /// Compile every unit from source with a fresh FME memo each.
    fn cold(&mut self, spec: &Spec, refs: &References, opts: OptimizeOptions) {
        for (u, want) in spec.compile.iter().zip(&refs.plans) {
            let t_unit = Instant::now();
            let t = Instant::now();
            let built = u.frontend();
            let parse_us = us(t.elapsed());
            let Ok((prog, bind)) = built else {
                self.layers.parse_us += parse_us;
                self.check(false);
                continue;
            };
            let t = Instant::now();
            let deps = analysis::check_parallel_loops(&prog, &bind);
            let dep_us = us(t.elapsed());
            let t = Instant::now();
            let fj = fork_join(&prog, &bind);
            let fj_us = us(t.elapsed());
            let t = Instant::now();
            let (plan, log, st) = optimize_explained(&prog, &bind, opts);
            let opt_us = us(t.elapsed());
            let wall = us(t_unit.elapsed());
            self.cold_us += wall;

            let l = &mut self.layers;
            let query_us = st.fme.query_ns as f64 / 1e3;
            l.parse_us += parse_us;
            l.dep_us += dep_us;
            l.fork_join_us += fj_us;
            l.fme_query_us += query_us;
            l.placement_us += opt_us - query_us;
            l.optimize_us += opt_us;
            l.fme_scan_us += st.fme.scan_ns as f64 / 1e3;
            l.fme_saved_us += st.fme.saved_ns as f64 / 1e3;
            l.nodes += prog.nodes.len() as u64;
            l.pair_hits += st.pair_hits;
            l.pair_misses += st.pair_misses;
            l.feas_hits_cold += st.fme.feas_hits;
            l.feas_misses_cold += st.fme.feas_misses;
            l.unknown_verdicts += st.fme.unknown_verdicts;
            l.peak_constraints = l.peak_constraints.max(st.fme.peak_constraints as u64);
            let ss = plan.static_stats();
            l.sites += log.len() as u64;
            l.eliminated += ss.eliminated as u64;
            l.replaced += (ss.neighbor_syncs + ss.counter_syncs + ss.pair_syncs) as u64;
            l.barriers_placed += ss.barriers as u64;
            self.row(&u.name, "cold", wall, None);

            let t = Instant::now();
            let ok = deps == want.deps
                && render_plan(&prog, &fj) == want.fork_join
                && render_plan(&prog, &plan) == want.optimized
                && render_log(&log) == want.log;
            self.check(ok);
            self.layers.harness_us += us(t.elapsed());
        }
    }

    /// Recompile every unit through the primed shared memo.
    fn warm(&mut self, spec: &Spec, refs: &References, prep: &Prepared, opts: OptimizeOptions) {
        let before = prep.warm_cache.stats();
        let mut after = before;
        for ((u, (prog, bind)), want) in spec.compile.iter().zip(&prep.warm).zip(&refs.plans) {
            let t = Instant::now();
            let (plan, log, st) = optimize_explained_shared(prog, bind, opts, &prep.warm_cache);
            let wall = us(t.elapsed());
            self.warm_us += wall;
            after = st.fme;
            self.row(&u.name, "warm", wall, None);

            let t = Instant::now();
            let ok = render_plan(prog, &plan) == want.optimized && render_log(&log) == want.log;
            self.check(ok);
            self.layers.harness_us += us(t.elapsed());
        }
        let l = &mut self.layers;
        let query_us = after.query_ns.saturating_sub(before.query_ns) as f64 / 1e3;
        l.fme_query_us_warm += query_us;
        l.placement_us_warm += self.warm_us - query_us;
        l.canon_us_warm += after.canon_ns.saturating_sub(before.canon_ns) as f64 / 1e3;
        l.feas_hits_warm += after.feas_hits.saturating_sub(before.feas_hits);
        l.feas_misses_warm += after.feas_misses.saturating_sub(before.feas_misses);
    }

    /// Run every (program, plan) once, in a seeded order.
    fn run_pass(&mut self, refs: &References, prep: &Prepared, mode: Mode, rng: &mut StdRng) {
        let mut order: Vec<(usize, Plan)> = (0..prep.run.len())
            .flat_map(|k| Plan::ALL.map(|pl| (k, pl)))
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let nprocs = RUN_P as f64;
        for (k, plan) in order {
            let r = &prep.run[k];
            let t = Instant::now();
            let mem = &r.mem;
            reset_mem(&r.prog, RUN_P as usize, mem);
            self.layers.harness_us += us(t.elapsed());
            let ok = match plan {
                Plan::Seq => {
                    let t = Instant::now();
                    run_sequential(&r.prog, &r.bind, mem);
                    let wall = us(t.elapsed());
                    self.seq_us += wall;
                    self.layers.seq_us += wall;
                    self.row(&r.name, plan.name(), wall, None);
                    true
                }
                Plan::Fj | Plan::Opt => {
                    let sp = if plan == Plan::Fj { &r.fj } else { &r.opt };
                    if mode.traced {
                        let t = Instant::now();
                        let events = unroll(&r.prog, &r.bind, sp);
                        let d = us(t.elapsed());
                        self.layers.unroll_us += d;
                        self.layers.tracer_us += d;
                        self.layers.events += events.len() as u64;
                    }
                    let t = Instant::now();
                    let out = run_parallel(&r.prog, &r.bind, sp, mem, &prep.team);
                    let wall = us(t.elapsed());
                    let elapsed = us(out.elapsed);
                    let w = waits_us(&out);
                    let wait: f64 = w.iter().sum::<f64>() / nprocs;
                    let l = &mut self.layers;
                    l.launch_us += wall - elapsed;
                    l.barrier_wait_us += w[0] / nprocs;
                    l.p2p_wait_us += (w[1] + w[2] + w[3]) / nprocs;
                    l.neighbor_wait_us += w[1] / nprocs;
                    l.counter_wait_us += w[2] / nprocs;
                    l.pairwise_wait_us += w[3] / nprocs;
                    if plan == Plan::Fj {
                        self.fj_us += elapsed;
                        l.compute_us_fj += elapsed - wait;
                        l.wait_us_fj += wait;
                        l.elapsed_us_fj += elapsed;
                        l.barriers_fj += out.counts.barriers;
                        l.sync_ops_fj += sync_ops(&out.counts);
                    } else {
                        self.opt_us += elapsed;
                        l.compute_us_opt += elapsed - wait;
                        l.wait_us_opt += wait;
                        l.elapsed_us_opt += elapsed;
                        self.dyn_barriers_opt += out.counts.barriers;
                        self.dyn_sync_ops_opt += sync_ops(&out.counts);
                    }
                    self.row(&r.name, plan.name(), wall, Some((elapsed, wait)));
                    out.ok()
                }
                Plan::Sup => {
                    let mut checkpoint_us = 0.0;
                    if mode.traced {
                        let t = Instant::now();
                        let events = unroll(&r.prog, &r.bind, &r.opt);
                        let tc = Instant::now();
                        let cp = Checkpoint::capture(&r.prog, &r.bind, &events, mem);
                        checkpoint_us = us(tc.elapsed());
                        self.layers.tracer_us += us(t.elapsed());
                        self.layers.checkpoint_cells += cp.elem_cells() as u64;
                    }
                    let opts = ObserveOptions {
                        deadline: Some(DEADLINE),
                        ..ObserveOptions::default()
                    };
                    let t = Instant::now();
                    let rec = run_parallel_recovering(
                        &r.prog,
                        &r.bind,
                        &r.opt,
                        mem,
                        &prep.team,
                        &opts,
                        &RetryPolicy::default(),
                    );
                    let wall = us(t.elapsed());
                    let elapsed = us(rec.outcome.elapsed);
                    self.sup_us += wall;
                    let l = &mut self.layers;
                    l.recover_attempts += u64::from(rec.attempts_used);
                    if mode.traced {
                        l.checkpoint_us += checkpoint_us;
                        l.sup_elapsed_us += elapsed;
                        l.guard_us += wall - checkpoint_us - elapsed;
                    }
                    let wait = waits_us(&rec.outcome).iter().sum::<f64>() / nprocs;
                    self.row(&r.name, plan.name(), wall, Some((elapsed, wait)));
                    rec.ok()
                }
            };
            let t = Instant::now();
            if mode.corrupt && k == 0 && plan == Plan::Opt {
                corrupt(&r.prog, mem);
            }
            let diff = mem.max_abs_diff(&refs.mems[k]);
            self.layers.max_abs_diff = self.layers.max_abs_diff.max(diff);
            self.check(ok && diff <= TOL);
            self.layers.harness_us += us(t.elapsed());
        }
    }
}
