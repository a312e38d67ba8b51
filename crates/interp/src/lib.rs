//! Reference interpreter and SPMD executors.
//!
//! Three ways to run a program, all over the same [`Mem`] storage:
//!
//! * [`run_sequential`] — the original sequential semantics (the oracle
//!   every parallel execution must reproduce);
//! * [`run_virtual`] — executes an optimized [`spmd_opt::SpmdProgram`]
//!   with `P` *virtual* processors on one thread, interleaving their
//!   work chunks in any order permitted by the placed synchronization
//!   (round-robin, reversed, or seeded-random adversarial orders). This
//!   yields deterministic dynamic synchronization counts for any `P`
//!   (the paper's "barriers executed at run time") and doubles as a
//!   soundness oracle: an insufficient sync placement produces wrong
//!   results under some adversarial order;
//! * [`run_parallel`] — executes the schedule on real threads
//!   (`runtime::Team`) with instrumented barriers/counters/flags, for
//!   wall-clock speedup measurements.
//!
//! All array and scalar cells are relaxed atomics: the synchronization
//! placed by the optimizer provides the acquire/release ordering, and a
//! mis-placed sync produces wrong *values*, never undefined behaviour.

//! ```
//! use ir::build::*;
//! use analysis::Bindings;
//! use interp::{run_sequential, run_virtual, Mem, ScheduleOrder};
//!
//! let mut pb = ProgramBuilder::new("demo");
//! let n = pb.sym("n");
//! let a = pb.array("A", &[sym(n)], dist_block());
//! let i = pb.begin_par("i", con(0), sym(n) - 1);
//! pb.assign(elem(a, [idx(i)]), ival(idx(i) * 2));
//! pb.end();
//! let prog = pb.finish();
//! let bind = Bindings::new(4).set(n, 16);
//!
//! let oracle = Mem::new(&prog, &bind);
//! run_sequential(&prog, &bind, &oracle);
//!
//! let plan = spmd_opt::optimize(&prog, &bind);
//! let mem = Mem::new(&prog, &bind);
//! let out = run_virtual(&prog, &bind, &plan, &mem, ScheduleOrder::Reverse);
//! assert_eq!(mem.max_abs_diff(&oracle), 0.0);
//! assert_eq!(out.counts.barriers, 1);
//! ```

pub mod checkpoint;
pub mod degrade;
pub mod eval;
pub mod events;
pub mod lower;
pub mod mem;
pub mod par;
pub mod recover;
pub mod trace;
pub mod virt;

pub use checkpoint::Checkpoint;
pub use degrade::{run_parallel_degrading, DegradeOutcome, DegradeRound, DegradeRung};
pub use events::{render_events, unroll, Event};
pub use lower::Lowered;
pub use mem::Mem;
pub use par::{
    run_parallel, run_parallel_observed, run_parallel_observed_on, run_parallel_with, BarrierKind,
    ChaosAction, ObserveOptions, ParallelOutcome, SyncChaos, SyncFabric,
};
pub use recover::{run_parallel_recovering, RecoveryOutcome};
pub use trace::{Access, AccessKind, Target, TraceBuffer};
pub use virt::{run_virtual, run_virtual_traced, ScheduleOrder, VirtualOutcome};

use analysis::Bindings;
use ir::Program;

/// Execute the program with its original sequential semantics: each
/// top-level statement as master-only serial work, lowered unless `mem`
/// is traced (see [`events::exec_work`]).
pub fn run_sequential(prog: &Program, bind: &Bindings, mem: &Mem) {
    let events: Vec<Event> = prog
        .body
        .iter()
        .map(|&node| Event::SerialWork {
            node,
            env: Vec::new(),
        })
        .collect();
    let low = Lowered::new(prog, bind, &events);
    for ev in &events {
        events::exec_work(prog, bind, &low, mem, 0, ev);
    }
}
