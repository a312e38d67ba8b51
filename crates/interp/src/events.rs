//! Unrolling a schedule into a linear event list, and the execution of
//! one work event by one processor.
//!
//! Every processor traverses the *same* event sequence (replicated
//! control flow — the SPMD model); work events carry the enclosing
//! sequential-loop indices so both executors can evaluate bounds and
//! owner functions.

use crate::eval::{exec_node, exec_subtree_seq, try_eval_affine, Env, RedAcc};
use crate::lower::Lowered;
use crate::mem::Mem;
use analysis::{Bindings, LoopPartition};
use ineq::rational::{div_ceil, div_floor};
use ir::{AffAtom, LoopId, NodeId, Program};
use spmd_opt::{slot_count_items, slot_count_top, PhaseKind, RItem, SpmdProgram, SyncOp, TopItem};

/// One step of the SPMD event sequence.
#[derive(Clone, Debug)]
pub enum Event {
    /// Distributed/guarded/replicated phase work.
    Work {
        /// Phase subtree.
        node: NodeId,
        /// Work division.
        kind: PhaseKind,
        /// Enclosing loop indices at this point of the unrolling.
        env: Vec<(LoopId, i64)>,
    },
    /// Master-only serial work outside regions.
    SerialWork {
        /// Subtree to execute.
        node: NodeId,
        /// Enclosing loop indices.
        env: Vec<(LoopId, i64)>,
    },
    /// Region entry: workers wait for the master's arrival.
    Dispatch,
    /// A synchronization point (never [`SyncOp::None`]).
    Sync {
        /// The operation.
        op: SyncOp,
        /// Canonical sync-site id (the plan's slot-walk numbering —
        /// see [`spmd_opt::sync_sites`]); loop iterations of the same
        /// slot share one id, so runtime telemetry aggregates per
        /// static site.
        site: usize,
        /// Enclosing loop indices (needed to evaluate counter
        /// producers such as pivot-row owners).
        env: Vec<(LoopId, i64)>,
    },
}

/// Unroll a schedule into events under concrete bindings. Sequential
/// loops at region level and master loops are unrolled; loops inside
/// phases are not.
pub fn unroll(prog: &Program, bind: &Bindings, plan: &SpmdProgram) -> Vec<Event> {
    let mut out = Vec::new();
    let mut env = Env::new(prog);
    unroll_top(prog, bind, &plan.items, &mut env, 0, &mut out);
    out
}

/// Unroll top-level items. `slot` is the canonical site id of the first
/// slot under `items`; each master-loop iteration reuses the same static
/// ids (the numbering is structural, mirroring
/// [`spmd_opt::sync_sites`]). Returns the id past the last slot.
fn unroll_top(
    prog: &Program,
    bind: &Bindings,
    items: &[TopItem],
    env: &mut Env,
    mut slot: usize,
    out: &mut Vec<Event>,
) -> usize {
    for it in items {
        match it {
            TopItem::SerialStmt(n) => out.push(Event::SerialWork {
                node: *n,
                env: env.snapshot(),
            }),
            TopItem::MasterLoop { node, body } => {
                let l = prog.expect_loop(*node);
                let lo = crate::eval::eval_affine(bind, env, &l.lo);
                let hi = crate::eval::eval_affine(bind, env, &l.hi);
                for i in lo..=hi {
                    env.set(l.id, i);
                    unroll_top(prog, bind, body, env, slot, out);
                }
                env.clear(l.id);
                slot += slot_count_top(body);
            }
            TopItem::Region(r) => {
                out.push(Event::Dispatch);
                unroll_items(prog, bind, &r.items, env, slot, out);
                let end_site = slot + slot_count_items(&r.items);
                if r.end.is_some() {
                    out.push(Event::Sync {
                        op: r.end.clone(),
                        site: end_site,
                        env: env.snapshot(),
                    });
                }
                slot = end_site + 1;
            }
        }
    }
    slot
}

/// Unroll region items starting at canonical site id `slot`; returns the
/// id past the items' last slot.
fn unroll_items(
    prog: &Program,
    bind: &Bindings,
    items: &[RItem],
    env: &mut Env,
    mut slot: usize,
    out: &mut Vec<Event>,
) -> usize {
    for it in items {
        match it {
            RItem::Phase(p) => {
                out.push(Event::Work {
                    node: p.node,
                    kind: p.kind.clone(),
                    env: env.snapshot(),
                });
                if p.after.is_some() {
                    out.push(Event::Sync {
                        op: p.after.clone(),
                        site: slot,
                        env: env.snapshot(),
                    });
                }
                slot += 1;
            }
            RItem::Seq {
                node,
                body,
                bottom,
                after,
            } => {
                let l = prog.expect_loop(*node);
                let lo = crate::eval::eval_affine(bind, env, &l.lo);
                let hi = crate::eval::eval_affine(bind, env, &l.hi);
                let bottom_site = slot + slot_count_items(body);
                for i in lo..=hi {
                    env.set(l.id, i);
                    unroll_items(prog, bind, body, env, slot, out);
                    if bottom.is_some() {
                        out.push(Event::Sync {
                            op: bottom.clone(),
                            site: bottom_site,
                            env: env.snapshot(),
                        });
                    }
                }
                env.clear(l.id);
                if after.is_some() {
                    out.push(Event::Sync {
                        op: after.clone(),
                        site: bottom_site + 1,
                        env: env.snapshot(),
                    });
                }
                slot = bottom_site + 2;
            }
        }
    }
    slot
}

/// Execute one work event as processor `pid`.
///
/// An untraced `mem` runs `low`, the event list's lowered form (see
/// [`crate::lower`]); a traced `mem` runs the tree-walker, which records
/// every shared access. Both write bitwise-identical memory.
pub fn exec_work(
    prog: &Program,
    bind: &Bindings,
    low: &Lowered,
    mem: &Mem,
    pid: usize,
    ev: &Event,
) {
    if !mem.traced() {
        return low.exec(mem, pid, ev);
    }
    match ev {
        Event::SerialWork { node, env } => {
            if pid == 0 {
                let mut e = Env::new(prog);
                e.restore(env);
                exec_subtree_seq(prog, bind, mem, &mut e, *node, pid);
            }
        }
        Event::Work { node, kind, env } => {
            let mut e = Env::new(prog);
            e.restore(env);
            match kind {
                PhaseKind::Master => {
                    if pid == 0 {
                        exec_subtree_seq(prog, bind, mem, &mut e, *node, pid);
                    }
                }
                PhaseKind::Replicated => {
                    exec_subtree_seq(prog, bind, mem, &mut e, *node, pid);
                }
                PhaseKind::Par { partition } => {
                    exec_par_phase(prog, bind, mem, &mut e, *node, partition, pid);
                }
            }
        }
        Event::Dispatch | Event::Sync { .. } => unreachable!("not a work event"),
    }
}

/// Iterations of `[lo, hi]` one processor owns, when its owner subscript
/// is affine in the phase loop with everything else known: a contiguous
/// or a strided range.
pub(crate) enum OwnedIter {
    Range(i64, i64),
    Strided { start: i64, step: i64, hi: i64 },
}

impl OwnedIter {
    /// Block partition of the index space from `plo` in blocks of
    /// `block`.
    pub(crate) fn block_index(plo: i64, block: i64, lo: i64, hi: i64, pid: i64) -> OwnedIter {
        let a = (plo + pid * block).max(lo);
        let b = (plo + (pid + 1) * block - 1).min(hi);
        OwnedIter::Range(a, b)
    }

    /// Block owner of subscript `a·i + r`.
    pub(crate) fn block_owner(
        a: i64,
        r: i64,
        block: i64,
        nprocs: i64,
        lo: i64,
        hi: i64,
        pid: i64,
    ) -> OwnedIter {
        if a == 0 {
            // Owner is iteration-independent: one processor runs the
            // whole phase (the pipelining shape).
            let owner = (r / block).clamp(0, nprocs - 1);
            return if owner == pid {
                OwnedIter::Range(lo, hi)
            } else {
                OwnedIter::Range(lo, lo - 1)
            };
        }
        // pid*block <= a*i + r <= pid*block + block - 1
        let lo_own = pid * block - r;
        let hi_own = pid * block + block - 1 - r;
        let (mut ilo, mut ihi) = if a > 0 {
            (
                div_ceil(lo_own as i128, a as i128),
                div_floor(hi_own as i128, a as i128),
            )
        } else {
            (
                div_ceil(hi_own as i128, a as i128),
                div_floor(lo_own as i128, a as i128),
            )
        };
        ilo = ilo.max(lo as i128);
        ihi = ihi.min(hi as i128);
        OwnedIter::Range(ilo as i64, ihi as i64)
    }

    /// Cyclic owner of subscript `a·i + r`; `None` unless `|a| <= 1`.
    pub(crate) fn cyclic_owner(
        a: i64,
        r: i64,
        nprocs: i64,
        lo: i64,
        hi: i64,
        pid: i64,
    ) -> Option<OwnedIter> {
        if a == 0 {
            let owner = r.rem_euclid(nprocs);
            return Some(if owner == pid {
                OwnedIter::Range(lo, hi)
            } else {
                OwnedIter::Range(lo, lo - 1)
            });
        }
        if a.abs() != 1 {
            return None;
        }
        // (a*i + r) mod P == pid  =>  i ≡ a*(pid - r) (mod P)
        let residue = (a * (pid - r)).rem_euclid(nprocs);
        let start = lo + (residue - lo).rem_euclid(nprocs);
        Some(OwnedIter::Strided {
            start,
            step: nprocs,
            hi,
        })
    }

    /// Visit the owned iterations in increasing order.
    pub(crate) fn for_each(self, mut f: impl FnMut(i64)) {
        match self {
            OwnedIter::Range(a, b) => (a..=b).for_each(f),
            OwnedIter::Strided { start, step, hi } => {
                let mut i = start;
                while i <= hi {
                    f(i);
                    i += step;
                }
            }
        }
    }
}

fn owned_fast_path(
    bind: &Bindings,
    env: &Env,
    partition: &LoopPartition,
    loop_id: LoopId,
    lo: i64,
    hi: i64,
    pid: i64,
) -> Option<OwnedIter> {
    // The owner subscript without the phase loop's term.
    let split = |sub: &ir::Affine| {
        let mut rest = sub.clone();
        rest.set_coeff(AffAtom::Loop(loop_id), 0);
        Some((
            sub.coeff(AffAtom::Loop(loop_id)),
            try_eval_affine(bind, env, &rest)?,
        ))
    };
    match partition {
        LoopPartition::BlockIndex { lo: plo, block, .. } => {
            Some(OwnedIter::block_index(*plo, *block, lo, hi, pid))
        }
        LoopPartition::BlockOwner { block, sub, .. } => {
            let (a, r) = split(sub)?;
            Some(OwnedIter::block_owner(
                a,
                r,
                *block,
                bind.nprocs,
                lo,
                hi,
                pid,
            ))
        }
        LoopPartition::CyclicOwner { sub, .. } => {
            let (a, r) = split(sub)?;
            OwnedIter::cyclic_owner(a, r, bind.nprocs, lo, hi, pid)
        }
        // Strided-block ranges are possible but fiddly; the scan path
        // evaluates owners per iteration instead.
        LoopPartition::BlockCyclicOwner { .. }
        | LoopPartition::SymbolicBlockOwner { .. }
        | LoopPartition::Unknown => None,
    }
}

fn exec_par_phase(
    prog: &Program,
    bind: &Bindings,
    mem: &Mem,
    env: &mut Env,
    loop_node: NodeId,
    partition: &LoopPartition,
    pid: usize,
) {
    let l = prog.expect_loop(loop_node);
    let lo = crate::eval::eval_affine(bind, env, &l.lo);
    let hi = crate::eval::eval_affine(bind, env, &l.hi);
    let mut red = RedAcc::active();
    let body = &l.body;

    let run_iter = |i: i64, env: &mut Env, red: &mut RedAcc| {
        env.set(l.id, i);
        for &c in body {
            exec_node(prog, bind, mem, env, c, None, red, pid);
        }
    };

    if matches!(
        partition,
        LoopPartition::Unknown | LoopPartition::SymbolicBlockOwner { .. }
    ) {
        // Conservative: the master executes everything.
        if pid == 0 {
            for i in lo..=hi {
                run_iter(i, env, &mut red);
            }
        }
    } else if let Some(iter) = owned_fast_path(bind, env, partition, l.id, lo, hi, pid as i64) {
        iter.for_each(|i| run_iter(i, env, &mut red));
    } else {
        // Scan mode: try loop-level ownership first; if the owner
        // subscript needs inner loop indices, fall back to a
        // per-statement ownership filter.
        let loop_level_ok = {
            // All loops mentioned by the owner subscript are either the
            // phase loop or already bound.
            let sub = match partition {
                LoopPartition::BlockOwner { sub, .. } => Some(sub),
                LoopPartition::CyclicOwner { sub, .. } => Some(sub),
                LoopPartition::BlockCyclicOwner { sub, .. } => Some(sub),
                _ => None,
            };
            sub.map(|s| s.loops().all(|lid| lid == l.id || env.get(lid).is_some()))
                .unwrap_or(true)
        };
        if loop_level_ok {
            for i in lo..=hi {
                env.set(l.id, i);
                let owner = {
                    let e = &*env;
                    partition.owner_of(bind, i, &|lid| e.get(lid))
                };
                if owner == Some(pid as i64) {
                    for &c in body {
                        exec_node(prog, bind, mem, env, c, None, &mut red, pid);
                    }
                }
            }
        } else {
            // Statement-level filter: execute the whole nest, skipping
            // instances owned by other processors.
            let part = partition.clone();
            let lid = l.id;
            let filter = move |e: &Env| {
                let i = e.get(lid).unwrap_or(0);
                part.owner_of(bind, i, &|x| e.get(x)) == Some(pid as i64)
            };
            for i in lo..=hi {
                env.set(l.id, i);
                for &c in body {
                    exec_node(prog, bind, mem, env, c, Some(&filter), &mut red, pid);
                }
            }
        }
    }
    env.clear(l.id);
    red.flush(mem, pid);
}

/// Dynamic synchronization counts extracted from an event walk (shared
/// by both executors so their numbers agree by construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DynCounts {
    /// Region dispatches (fork-join startup broadcasts).
    pub dispatches: u64,
    /// Barrier episodes executed.
    pub barriers: u64,
    /// Counter increments executed.
    pub counter_increments: u64,
    /// Counter waits executed (consumers).
    pub counter_waits: u64,
    /// Neighbor posts executed.
    pub neighbor_posts: u64,
    /// Neighbor waits executed.
    pub neighbor_waits: u64,
    /// Pairwise posts executed.
    pub pair_posts: u64,
    /// Pairwise waits executed.
    pub pair_waits: u64,
}

impl DynCounts {
    /// Count the dynamic syncs a full traversal of `events` performs
    /// with `nprocs` processors.
    pub fn from_events(events: &[Event], nprocs: usize) -> DynCounts {
        let p = nprocs as u64;
        let mut c = DynCounts::default();
        for ev in events {
            match ev {
                Event::Dispatch => c.dispatches += 1,
                Event::Sync {
                    op: SyncOp::Barrier,
                    ..
                } => c.barriers += 1,
                Event::Sync {
                    op: SyncOp::Counter { .. },
                    ..
                } => {
                    c.counter_increments += 1;
                    c.counter_waits += p - 1;
                }
                Event::Sync {
                    op: SyncOp::Neighbor { fwd, bwd },
                    ..
                } => {
                    c.neighbor_posts += p;
                    // Each processor waits for each existing producing
                    // neighbor.
                    if *fwd {
                        c.neighbor_waits += p - 1; // everyone but pid 0 waits on p-1
                    }
                    if *bwd {
                        c.neighbor_waits += p - 1; // everyone but pid P-1 waits on p+1
                    }
                }
                Event::Sync {
                    op: SyncOp::PairCounter { dists, producers },
                    ..
                } => {
                    c.pair_posts += p;
                    for d in dists.iter() {
                        // Every pid whose `pid - d` is a real processor
                        // waits on it.
                        c.pair_waits += (p as i64 - d.abs()).max(0) as u64;
                    }
                    // Producer-target waits: every pid except the
                    // producer itself waits on it.
                    c.pair_waits += producers.len() as u64 * (p - 1);
                }
                _ => {}
            }
        }
        c
    }
}

/// Render an event list as one line per event (debugging aid; the
/// executors traverse exactly this sequence).
pub fn render_events(prog: &Program, events: &[Event]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let env_str = |env: &[(LoopId, i64)]| -> String {
        if env.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> = env
                .iter()
                .map(|(l, v)| format!("{}={v}", prog.loop_name(*l)))
                .collect();
            format!(" [{}]", parts.join(", "))
        }
    };
    for (k, ev) in events.iter().enumerate() {
        match ev {
            Event::Dispatch => writeln!(out, "{k:4}  dispatch").unwrap(),
            Event::SerialWork { node, env } => {
                writeln!(out, "{k:4}  serial node {}{}", node.0, env_str(env)).unwrap()
            }
            Event::Work { node, kind, env } => {
                let kd = match kind {
                    PhaseKind::Par { .. } => "par",
                    PhaseKind::Master => "master",
                    PhaseKind::Replicated => "repl",
                };
                writeln!(out, "{k:4}  work({kd}) node {}{}", node.0, env_str(env)).unwrap()
            }
            Event::Sync { op, site, env } => {
                let s = match op {
                    SyncOp::None => "none".to_string(),
                    SyncOp::Barrier => "barrier".to_string(),
                    SyncOp::Neighbor { fwd, bwd } => format!("neighbor(fwd={fwd},bwd={bwd})"),
                    SyncOp::Counter { id, .. } => format!("counter#{id}"),
                    SyncOp::PairCounter { dists, producers } => {
                        if producers.is_empty() {
                            format!("pair{}", dists.render())
                        } else {
                            format!("pair{}+{}prod", dists.render(), producers.len())
                        }
                    }
                };
                writeln!(out, "{k:4}  sync s{site} {s}{}", env_str(env)).unwrap()
            }
        }
    }
    out
}

/// Which processor increments for a counter sync, under the event's
/// loop-index snapshot.
pub fn producer_pid(
    bind: &Bindings,
    prog: &Program,
    spec: &analysis::ProducerSpec,
    env_snap: &[(LoopId, i64)],
) -> i64 {
    let mut env = Env::new(prog);
    env.restore(env_snap);
    match spec {
        analysis::ProducerSpec::Master => 0,
        analysis::ProducerSpec::BlockOwner { block, sub } => {
            let x = try_eval_affine(bind, &env, sub).unwrap_or(0);
            (x / block).clamp(0, bind.nprocs - 1)
        }
        analysis::ProducerSpec::CyclicOwner { sub } => {
            let x = try_eval_affine(bind, &env, sub).unwrap_or(0);
            x.rem_euclid(bind.nprocs)
        }
        analysis::ProducerSpec::BlockCyclicOwner { block, sub } => {
            let x = try_eval_affine(bind, &env, sub).unwrap_or(0);
            (x.div_euclid(*block)).rem_euclid(bind.nprocs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::Bindings;
    use ir::build::*;
    use spmd_opt::{fork_join, optimize};

    fn sweep() -> (Program, Bindings) {
        let mut pb = ProgramBuilder::new("sweep");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let _t = pb.begin_seq("t", con(0), con(4));
        let i = pb.begin_par("i", con(1), sym(n) - 2);
        pb.assign(
            elem(b, [idx(i)]),
            ex(0.5) * (arr(a, [idx(i) - 1]) + arr(a, [idx(i) + 1])),
        );
        pb.end();
        let j = pb.begin_par("j", con(1), sym(n) - 2);
        pb.assign(elem(a, [idx(j)]), arr(b, [idx(j)]));
        pb.end();
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 32);
        (prog, bind)
    }

    #[test]
    fn render_events_is_line_per_event() {
        let (prog, bind) = sweep();
        let plan = optimize(&prog, &bind);
        let events = unroll(&prog, &bind, &plan);
        let text = render_events(&prog, &events);
        assert_eq!(text.lines().count(), events.len());
        assert!(text.contains("dispatch"), "{text}");
        assert!(text.contains("neighbor"), "{text}");
        assert!(text.contains("t="), "{text}");
    }

    #[test]
    fn fork_join_unrolls_barrier_per_loop_execution() {
        let (prog, bind) = sweep();
        let plan = fork_join(&prog, &bind);
        let events = unroll(&prog, &bind, &plan);
        let c = DynCounts::from_events(&events, 4);
        // 5 iterations × 2 parallel loops.
        assert_eq!(c.barriers, 10);
        assert_eq!(c.dispatches, 10);
    }

    #[test]
    fn optimized_unrolls_single_dispatch_and_end_barrier() {
        let (prog, bind) = sweep();
        let plan = optimize(&prog, &bind);
        let events = unroll(&prog, &bind, &plan);
        let c = DynCounts::from_events(&events, 4);
        assert_eq!(c.dispatches, 1);
        assert_eq!(c.barriers, 1, "only the region end barrier");
        assert!(c.neighbor_posts > 0);
    }

    #[test]
    fn block_owner_fast_path_partitions_iterations() {
        // DOALL i = 0..15 writing A(i), A block-distributed over 4 procs
        // with extent 16 → block 4: pid owns [4p, 4p+3].
        let mut pb = ProgramBuilder::new("fp");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(i)]), ex(1.0));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 16);
        let plan = optimize(&prog, &bind);
        let events = unroll(&prog, &bind, &plan);
        let low = Lowered::new(&prog, &bind, &events);
        // Execute only pid 2's work; elements 8..11 get written.
        let mem = Mem::new(&prog, &bind);
        for ev in &events {
            if matches!(ev, Event::Work { .. }) {
                exec_work(&prog, &bind, &low, &mem, 2, ev);
            }
        }
        for k in 0..16i64 {
            let expect = if (8..12).contains(&k) { 1.0 } else { 0.0 };
            assert_eq!(mem.array(a).get(&[k]), expect, "element {k}");
        }
    }

    #[test]
    fn cyclic_fast_path_strides() {
        let mut pb = ProgramBuilder::new("cy");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_cyclic());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(i)]), ex(1.0));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 16);
        let plan = optimize(&prog, &bind);
        let events = unroll(&prog, &bind, &plan);
        let low = Lowered::new(&prog, &bind, &events);
        let mem = Mem::new(&prog, &bind);
        for ev in &events {
            if matches!(ev, Event::Work { .. }) {
                exec_work(&prog, &bind, &low, &mem, 1, ev);
            }
        }
        for k in 0..16i64 {
            let expect = if k % 4 == 1 { 1.0 } else { 0.0 };
            assert_eq!(mem.array(a).get(&[k]), expect, "element {k}");
        }
    }

    #[test]
    fn all_processors_cover_every_iteration_exactly_once() {
        let (prog, bind) = sweep();
        let plan = optimize(&prog, &bind);
        let events = unroll(&prog, &bind, &plan);
        let low = Lowered::new(&prog, &bind, &events);
        let mem = Mem::new(&prog, &bind);
        let a = ir::ArrayId(0);
        mem.fill(a, |s| (s[0] * s[0]) as f64);
        // Run all 4 pids' work in pid order for every event (a legal
        // schedule for this program since syncs are respected by phase
        // order here).
        for ev in &events {
            if matches!(ev, Event::Work { .. }) {
                for pid in 0..4 {
                    exec_work(&prog, &bind, &low, &mem, pid, ev);
                }
            }
        }
        // Compare against sequential execution.
        let mem2 = Mem::new(&prog, &bind);
        mem2.fill(a, |s| (s[0] * s[0]) as f64);
        crate::run_sequential(&prog, &bind, &mem2);
        assert!(mem.max_abs_diff(&mem2) == 0.0);
    }
}
