//! Lowered execution against the tree-walker, bitwise.
//!
//! An untraced `Mem` runs the lowered form and a traced `Mem` runs the
//! tree-walker, so making the same call on one of each and comparing
//! every cell's bits pits the two against each other. Covers the suite
//! kernels under `run_sequential` and `run_virtual` (fork-join and
//! optimized plans, two interleavings, four widths), generated
//! programs, the checkpoint's write set against the traced replay it
//! replaced, and the bounds check's panic on the lowered path.

use barrier_elim::analysis::Bindings;
use barrier_elim::interp::events::exec_work;
use barrier_elim::interp::{
    run_parallel_observed, run_sequential, run_virtual, unroll, AccessKind, Checkpoint, Event,
    Lowered, Mem, ObserveOptions, ScheduleOrder, Target, TraceBuffer,
};
use barrier_elim::ir::build::*;
use barrier_elim::ir::{ArrayId, Program, ScalarId};
use barrier_elim::obs::FailureCause;
use barrier_elim::oracle;
use barrier_elim::runtime::Team;
use barrier_elim::spmd_opt::{fork_join, optimize, SpmdProgram};
use barrier_elim::suite::{self, Scale};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

const WIDTHS: [i64; 4] = [1, 2, 3, 8];
const ORDERS: [ScheduleOrder; 2] = [ScheduleOrder::Reverse, ScheduleOrder::Random(7)];

/// A deterministic non-zero live-in state, so reads of cells a program
/// never initializes still have to agree.
fn seeded(prog: &Program, bind: &Bindings) -> Mem {
    let mem = Mem::new(prog, bind);
    for a in 0..prog.arrays.len() {
        mem.fill(ArrayId(a as u32), |s| {
            s.iter()
                .fold(a as f64 + 0.25, |acc, &x| acc * 1.5 + x as f64)
        });
    }
    mem
}

fn traced(mem: Mem) -> Mem {
    mem.with_tracer(Arc::new(TraceBuffer::new()))
}

/// Every cell's bits: each array (every processor's copy of a private
/// one), then every scalar.
fn bits(prog: &Program, bind: &Bindings, mem: &Mem) -> Vec<u64> {
    let mut out = Vec::new();
    for a in 0..prog.arrays.len() {
        let a = ArrayId(a as u32);
        let copies = if mem.is_private(a) { bind.nprocs } else { 1 };
        for pid in 0..copies as usize {
            let st = mem.array_view(a, pid);
            out.extend((0..st.len()).map(|k| st.get_linear(k).to_bits()));
        }
    }
    out.extend((0..prog.scalars.len()).map(|k| mem.get_scalar(ScalarId(k as u32)).to_bits()));
    out
}

/// Run `f` on an untraced (lowered) and a traced (tree-walker) memory
/// with the same live-in state; the results must agree bit for bit.
fn same_bits(what: &str, prog: &Program, bind: &Bindings, f: impl Fn(&Mem)) {
    let lowered = seeded(prog, bind);
    let walked = traced(seeded(prog, bind));
    f(&lowered);
    f(&walked);
    assert!(
        bits(prog, bind, &lowered) == bits(prog, bind, &walked),
        "{what}: lowered and tree-walked memory differ"
    );
}

fn plans(prog: &Program, bind: &Bindings) -> [(&'static str, SpmdProgram); 2] {
    [
        ("fork-join", fork_join(prog, bind)),
        ("optimized", optimize(prog, bind)),
    ]
}

/// One program: sequential at P = 1, then both plans under both
/// interleavings at every width.
fn check_program(name: &str, prog: &Program, bind_at: &dyn Fn(i64) -> Bindings) {
    let bind = bind_at(1);
    same_bits(&format!("{name} sequential"), prog, &bind, |m| {
        run_sequential(prog, &bind, m)
    });
    for p in WIDTHS {
        let bind = bind_at(p);
        for (plan_name, plan) in plans(prog, &bind) {
            for order in ORDERS {
                let what = format!("{name} {plan_name} P={p} {order:?}");
                same_bits(&what, prog, &bind, |m| {
                    run_virtual(prog, &bind, &plan, m, order);
                });
            }
        }
    }
}

#[test]
fn suite_kernels_match_the_tree_walker_bitwise() {
    for def in suite::all() {
        let built = (def.build)(Scale::Test);
        check_program(def.name, &built.prog, &|p| built.bindings(p));
    }
}

#[test]
fn generated_programs_match_the_tree_walker_bitwise() {
    for seed in 0..48 {
        let g = oracle::generate(seed);
        check_program(&format!("seed {seed}"), &g.prog, &|p| g.bindings(p));
    }
}

/// The write set as the checkpoint computed it before lowering: every
/// work event replayed for every processor on a traced scratch memory,
/// keeping the shared elements written or reduced.
fn traced_write_set(prog: &Program, bind: &Bindings, events: &[Event]) -> BTreeSet<(ArrayId, u64)> {
    let tracer = Arc::new(TraceBuffer::new());
    let scratch = Mem::new(prog, bind).with_tracer(Arc::clone(&tracer));
    let low = Lowered::new(prog, bind, events);
    for ev in events {
        if matches!(ev, Event::Work { .. } | Event::SerialWork { .. }) {
            for pid in 0..bind.nprocs as usize {
                exec_work(prog, bind, &low, &scratch, pid, ev);
            }
        }
    }
    tracer
        .drain()
        .into_iter()
        .filter(|a| matches!(a.kind, AccessKind::Write | AccessKind::Reduce))
        .filter_map(|a| match a.target {
            Target::Elem(arr, off) => Some((arr, off)),
            Target::Scalar(_) => None,
        })
        .collect()
}

/// The lowered checkpoint covers exactly the traced write set: same
/// cell count, and after every shared cell and scalar is clobbered a
/// rollback restores exactly those cells (and every scalar).
#[test]
fn checkpoint_write_set_matches_the_traced_replay() {
    for def in suite::all() {
        let built = (def.build)(Scale::Test);
        let prog = &built.prog;
        let bind = built.bindings(4);
        for (plan_name, plan) in plans(prog, &bind) {
            let what = format!("{} {plan_name}", def.name);
            let events = unroll(prog, &bind, &plan);
            let reference = traced_write_set(prog, &bind, &events);
            let mem = seeded(prog, &bind);
            let cp = Checkpoint::capture(prog, &bind, &events, &mem);
            assert_eq!(cp.elem_cells(), reference.len(), "{what}: cell count");

            let clobber = |mem: &Mem| {
                for a in 0..prog.arrays.len() {
                    let a = ArrayId(a as u32);
                    if !mem.is_private(a) {
                        mem.fill(a, |_| f64::NAN);
                    }
                }
                for k in 0..prog.scalars.len() {
                    mem.set_scalar(ScalarId(k as u32), -1.0);
                }
            };
            clobber(&mem);
            cp.rollback(&mem);
            // Expected: live-in bits on the reference write set and on
            // every scalar, the clobber everywhere else.
            let expected = seeded(prog, &bind);
            clobber(&expected);
            let live = seeded(prog, &bind);
            for &(a, off) in &reference {
                let v = live.array(a).get_linear(off as usize);
                expected.array(a).set_linear(off as usize, v);
            }
            for k in 0..prog.scalars.len() {
                let s = ScalarId(k as u32);
                expected.set_scalar(s, live.get_scalar(s));
            }
            assert!(
                bits(prog, &bind, &mem) == bits(prog, &bind, &expected),
                "{what}: rollback differs from the reference write set"
            );
        }
    }
}

/// `A(0..3, 0..n-1)` written at `A(1, i)` for `i = 0..n`: the last
/// iteration is out of range in dimension 1.
fn out_of_range() -> (Program, Bindings) {
    let mut pb = ProgramBuilder::new("oob");
    let n = pb.sym("n");
    let a = pb.array("A", &[con(4), sym(n)], dist_block());
    let i = pb.begin_par("i", con(0), sym(n));
    pb.assign(elem(a, [con(1), idx(i)]), ex(1.0));
    pb.end();
    (pb.finish(), Bindings::new(2).set(n, 8))
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn lowered_sequential_path_keeps_the_bounds_check() {
    let (prog, bind) = out_of_range();
    let expected = "subscript 8 out of bounds 0..8 in dim 1";
    for (path, mem) in [
        ("lowered", Mem::new(&prog, &bind)),
        ("tree-walker", traced(Mem::new(&prog, &bind))),
    ] {
        let err = catch_unwind(AssertUnwindSafe(|| run_sequential(&prog, &bind, &mem)))
            .expect_err("an out-of-range subscript must panic");
        assert_eq!(panic_message(err), expected, "{path}");
    }
}

#[test]
fn out_of_range_subscript_is_a_worker_panic_report() {
    let (prog, bind) = out_of_range();
    let (prog, bind) = (Arc::new(prog), Arc::new(bind));
    let plan = optimize(&prog, &bind);
    let team = Team::new(2);
    let mem = Arc::new(Mem::new(&prog, &bind));
    let out = run_parallel_observed(
        &prog,
        &bind,
        &plan,
        &mem,
        &team,
        &ObserveOptions {
            deadline: Some(Duration::from_secs(5)),
            ..ObserveOptions::default()
        },
    );
    let failure = out.failure.expect("a panicked worker is a failure");
    match &failure.cause {
        FailureCause::Panic { message, .. } => assert!(
            message.contains("subscript 8 out of bounds 0..8 in dim 1"),
            "{message}"
        ),
        other => panic!("expected a worker panic, got {other:?}"),
    }
}
