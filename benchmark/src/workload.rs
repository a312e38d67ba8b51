//! The three workloads: which programs each one compiles and runs, at
//! which sizes and team widths, plus the set-up that prepares them.

use analysis::Bindings;
use ineq::FmeCache;
use interp::{run_sequential, Mem};
use ir::{NodeId, Program};
use oracle::Shape;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use runtime::Team;
use spmd_opt::{fork_join, optimize_explained, AnalysisConfig, OptimizeOptions, SpmdProgram};
use std::sync::Arc;
use suite::Scale;

/// Team width of every real-thread run: the host has two cores and no
/// workload uses more threads than cores.
pub const RUN_P: i64 = 2;
/// Processor count of the `compile` workload's bindings (as in bench5).
pub const COMPILE_P: i64 = 8;
/// Largest absolute difference a run may show against the sequential
/// reference: suite reductions reassociate under a parallel schedule.
pub const TOL: f64 = 1e-9;

/// The optimizer options of every measured compile: the memo on, and
/// analysis on one worker rather than the default one per core. On a
/// two-core host the default measured both slower (cold 1.26x, warm
/// 1.73x) and four to six times noisier from run to run, too noisy for
/// any bound a gate may use; see `NOTES.md`.
pub fn optimize_options() -> OptimizeOptions {
    OptimizeOptions {
        analysis: AnalysisConfig {
            cache: true,
            threads: 1,
        },
        ..OptimizeOptions::default()
    }
}

/// Run-workload kernels where interpretation dominates elapsed time.
pub const RUN_COMPUTE: [&str; 9] = [
    "jacobi2d",
    "stencil3d",
    "shallow",
    "matmul",
    "copy_chain",
    "livermore18",
    "fdtd",
    "tomcatv_mesh",
    "livermore7",
];
/// Run-workload kernels where synchronization, unrolling and dispatch
/// dominate elapsed time.
pub const RUN_SYNC: [&str; 15] = [
    "adi",
    "erlebacher",
    "seidel_pipe",
    "wavepipe2d",
    "trisolve_pipe",
    "multihop",
    "pivot_shift",
    "shift_bcast",
    "lu",
    "redblack",
    "mgrid",
    "cg_dense",
    "tred2",
    "workvec",
    "transpose",
];

/// `sym = value` bindings of a `.be` source.
type Sizes = &'static [(&'static str, i64)];

/// The `kernels/*.be` sources, with the sizes the `compile` workload
/// runs them at (compiles use `beopt`'s default of unbound sizes).
const SOURCES: [(&str, &str, Sizes); 5] = [
    (
        "broadcast.be",
        include_str!("../../kernels/broadcast.be"),
        &[("n", 24)],
    ),
    (
        "jacobi.be",
        include_str!("../../kernels/jacobi.be"),
        &[("n", 200), ("tmax", 10)],
    ),
    (
        "pipeline.be",
        include_str!("../../kernels/pipeline.be"),
        &[("n", 32), ("tmax", 2)],
    ),
    (
        "private_gather.be",
        include_str!("../../kernels/private_gather.be"),
        &[("n", 24)],
    ),
    (
        "shallow.be",
        include_str!("../../kernels/shallow.be"),
        &[("n", 24), ("tmax", 2)],
    ),
];

/// Generated-program families the `compile` draw is stratified over,
/// so a seed changes which programs are drawn but not the family mix.
const SHAPES: [Shape; 6] = [
    Shape::AlignedChain,
    Shape::Stencil,
    Shape::Pipeline,
    Shape::Broadcast,
    Shape::PrivateGather,
    Shape::GuardedSerial,
];

/// A named workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Compile-dominated: 24 suite kernels, the `.be` sources and a
    /// seeded draw of generated programs; runs only the small `.be` set.
    Compile,
    /// Interpretation-dominated runs (Small scale).
    RunCompute,
    /// Synchronization-dominated runs (Test scale).
    RunSync,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Compile, Workload::RunCompute, Workload::RunSync];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::RunCompute => "run-compute",
            Workload::RunSync => "run-sync",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: `Full` is what the benchmark measures; `Tiny` is for
/// the self-test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Test-scale kernels and one generated program per family.
    Tiny,
}

#[derive(Clone, Copy)]
enum Source {
    Suite(fn(Scale) -> suite::Built, Scale),
    Text(&'static str, Sizes),
    Generated(u64),
}

/// One program of a workload, as source: the frontend layer turns it
/// into IR plus bindings on every call.
#[derive(Clone)]
pub struct Unit {
    /// Display name (kernel, file or generator seed).
    pub name: String,
    source: Source,
    nprocs: i64,
}

impl Unit {
    /// The frontend layer: parse the `.be` text or run the kernel
    /// builder / program generator, then bind the sizes.
    pub fn frontend(&self) -> Result<(Program, Bindings), String> {
        match self.source {
            Source::Suite(build, scale) => {
                let built = build(scale);
                let bind = built.bindings(self.nprocs);
                Ok((built.prog, bind))
            }
            Source::Text(text, sizes) => {
                let prog = frontend::parse(text).map_err(|e| format!("{}: {e}", self.name))?;
                let mut bind = Bindings::new(self.nprocs);
                for (sym, v) in sizes {
                    let pos = prog
                        .syms
                        .iter()
                        .position(|s| s.name == *sym)
                        .ok_or_else(|| format!("{}: no sym {sym}", self.name))?;
                    bind.bind(ir::SymId(pos as u32), *v);
                }
                Ok((prog, bind))
            }
            Source::Generated(seed) => {
                let g = oracle::generate(seed);
                let bind = g.bindings(self.nprocs);
                Ok((g.prog, bind))
            }
        }
    }
}

fn suite_unit(name: &str, scale: Scale, nprocs: i64) -> Unit {
    let def = suite::by_name(name).unwrap_or_else(|| panic!("no suite kernel {name}"));
    Unit {
        name: name.to_string(),
        source: Source::Suite(def.build, scale),
        nprocs,
    }
}

fn source_units(nprocs: i64, with_sizes: bool) -> Vec<Unit> {
    SOURCES
        .iter()
        .map(|&(name, text, sizes)| Unit {
            name: name.to_string(),
            source: Source::Text(text, if with_sizes { sizes } else { &[] }),
            nprocs,
        })
        .collect()
}

/// `per_shape` generator seeds of each family, drawn from `seed`.
fn generated_units(seed: u64, per_shape: usize, nprocs: i64) -> Vec<Unit> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut taken = [0usize; SHAPES.len()];
    let mut units = Vec::new();
    while units.len() < per_shape * SHAPES.len() {
        let s = rng.next_u64();
        let shape = oracle::generate(s).shape;
        let Some(k) = SHAPES.iter().position(|&x| x == shape) else {
            continue;
        };
        if taken[k] < per_shape {
            taken[k] += 1;
            units.push(Unit {
                name: format!("gen:{s:016x}"),
                source: Source::Generated(s),
                nprocs,
            });
        }
    }
    units
}

/// What a workload compiles and what it runs.
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Programs of the cold and warm compile passes.
    pub compile: Vec<Unit>,
    /// Programs of the run pass (at [`RUN_P`]).
    pub run: Vec<Unit>,
}

impl Spec {
    /// The programs of `workload` at `size`; `seed` picks the generated
    /// programs of `compile`.
    pub fn new(workload: Workload, size: Size, seed: u64) -> Spec {
        let (compile, run) = match workload {
            Workload::Compile => {
                let (scale, per_shape) = match size {
                    Size::Full => (Scale::Small, 4),
                    Size::Tiny => (Scale::Test, 1),
                };
                let mut compile: Vec<Unit> = suite::all()
                    .iter()
                    .map(|d| suite_unit(d.name, scale, COMPILE_P))
                    .collect();
                compile.extend(source_units(COMPILE_P, false));
                compile.extend(generated_units(seed, per_shape, COMPILE_P));
                (compile, source_units(RUN_P, true))
            }
            Workload::RunCompute | Workload::RunSync => {
                let (names, scale): (&[&str], Scale) = match (workload, size) {
                    (Workload::RunCompute, Size::Full) => (&RUN_COMPUTE, Scale::Small),
                    (Workload::RunCompute, Size::Tiny) => (&RUN_COMPUTE, Scale::Test),
                    _ => (&RUN_SYNC, Scale::Test),
                };
                let units: Vec<Unit> = names.iter().map(|n| suite_unit(n, scale, RUN_P)).collect();
                (units.clone(), units)
            }
        };
        Spec {
            workload,
            compile,
            run,
        }
    }
}

/// Render a decision log the way bench5 compares it.
pub fn render_log(log: &[spmd_opt::Decision]) -> String {
    log.iter().map(|d| format!("{d:?}\n")).collect()
}

/// The expected compile output of one program.
pub struct PlanRef {
    /// Loops `check_parallel_loops` flags.
    pub deps: Vec<NodeId>,
    /// Rendered fork-join plan.
    pub fork_join: String,
    /// Rendered optimized plan under the sequential uncached analysis.
    pub optimized: String,
    /// Its decision log.
    pub log: String,
}

/// Reference outputs every pass is checked against, computed once and
/// outside all timing.
pub struct References {
    /// One per compile unit.
    pub plans: Vec<PlanRef>,
    /// Sequential result memory, one per run unit.
    pub mems: Vec<Mem>,
}

impl References {
    /// Compile each program with the sequential uncached analysis
    /// (bench5's reference) and run each run program sequentially.
    pub fn new(spec: &Spec) -> Result<References, String> {
        let uncached = OptimizeOptions {
            analysis: AnalysisConfig::sequential_uncached(),
            ..Default::default()
        };
        let mut plans = Vec::new();
        for u in &spec.compile {
            let (prog, bind) = u.frontend()?;
            let (plan, log, _) = optimize_explained(&prog, &bind, uncached);
            plans.push(PlanRef {
                deps: analysis::check_parallel_loops(&prog, &bind),
                fork_join: spmd_opt::render_plan(&prog, &fork_join(&prog, &bind)),
                optimized: spmd_opt::render_plan(&prog, &plan),
                log: render_log(&log),
            });
        }
        let mut mems = Vec::new();
        for u in &spec.run {
            let (prog, bind) = u.frontend()?;
            let mem = Mem::new(&prog, &bind);
            run_sequential(&prog, &bind, &mem);
            mems.push(mem);
        }
        Ok(References { plans, mems })
    }
}

/// A run program with its two compiled plans.
pub struct Runnable {
    /// Display name.
    pub name: String,
    /// The program.
    pub prog: Arc<Program>,
    /// Its bindings at [`RUN_P`].
    pub bind: Arc<Bindings>,
    /// Fork-join plan.
    pub fj: SpmdProgram,
    /// Optimized plan.
    pub opt: SpmdProgram,
    /// Memory every run of this program uses, reset before each run.
    pub mem: Arc<Mem>,
}

/// Everything a measured pass needs, built by [`Prepared::new`].
pub struct Prepared {
    /// The compile units' programs, for the warm pass.
    pub warm: Vec<(Program, Bindings)>,
    /// The FME memo the warm pass recompiles through, primed by one
    /// pass over every compile unit.
    pub warm_cache: Arc<FmeCache>,
    /// The run programs with their plans.
    pub run: Vec<Runnable>,
    /// The persistent worker team.
    pub team: Team,
}

impl Prepared {
    /// Build the instances, prime the warm cache, compile the run
    /// plans and spawn the team.
    pub fn new(spec: &Spec) -> Result<Prepared, String> {
        let warm = spec
            .compile
            .iter()
            .map(Unit::frontend)
            .collect::<Result<Vec<_>, _>>()?;
        let warm_cache = Arc::new(FmeCache::new());
        for (prog, bind) in &warm {
            spmd_opt::optimize_explained_shared(prog, bind, optimize_options(), &warm_cache);
        }
        let mut run = Vec::new();
        for u in &spec.run {
            let (prog, bind) = u.frontend()?;
            let fj = fork_join(&prog, &bind);
            let (opt, _, _) = optimize_explained(&prog, &bind, optimize_options());
            run.push(Runnable {
                name: u.name.clone(),
                mem: Arc::new(Mem::new(&prog, &bind)),
                prog: Arc::new(prog),
                bind: Arc::new(bind),
                fj,
                opt,
            });
        }
        Ok(Prepared {
            warm,
            warm_cache,
            run,
            team: Team::new(RUN_P as usize),
        })
    }
}
