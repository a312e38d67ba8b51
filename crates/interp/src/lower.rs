//! Lowered execution: every work subtree of an event list, resolved once
//! per executor call under concrete bindings into a form all processors
//! share read-only.
//!
//! The tree-walker ([`crate::eval`]) re-derives everything at every
//! access: it allocates a subscript vector, looks each symbolic up in the
//! bindings map and tests for an access tracer. Lowering does that work
//! once, in one pass over the events plus O(IR nodes):
//!
//! * symbolics are folded into the constant of each affine form, and loop
//!   indices live in a dense slot array, so an affine is
//!   `c0 + Σ coeff·slot`;
//! * each array access is resolved to its array with per-dimension
//!   subscripts, extents and strides — still bounds-checked with the
//!   tree-walker's panic text, then combined with the strides;
//! * a partitioned phase's owned iterations (the tree-walker's
//!   `owned_fast_path`) come from owner affines folded in advance, and
//!   the scan modes' per-iteration and per-statement owner tests are
//!   folded the same way;
//! * the scalar reductions of a parallel phase get fixed partial slots.
//!
//! Values are computed in the tree-walker's order (the right-hand side
//! left to right, then the left-hand side's subscripts; partials flushed
//! in first-touch order), so memory is bitwise identical. Only an
//! untraced [`Mem`] runs lowered code: a traced `Mem` keeps the
//! tree-walker, whose per-access hooks the race validator and the
//! differential tests depend on.
//!
//! Swapping the assignment step for "mark the left-hand cell" turns the
//! same walk into a checkpoint's write-set scan that evaluates no value
//! ([`Lowered::write_set`]).

use crate::events::{Event, OwnedIter};
use crate::mem::Mem;
use analysis::{Bindings, LoopPartition};
use ir::{
    AffAtom, Affine, ArrayId, BinOp, CmpOp, Expr, LhsRef, LoopId, Node, NodeId, Program, RedOp,
    ScalarId, UnOp,
};
use spmd_opt::PhaseKind;

/// `c0 + Σ coeff·slot`, symbolics folded into `c0`.
enum Aff {
    Const(i64),
    Term(i64, usize, i64),
    Sum(i64, Box<[(usize, i64)]>),
}

impl Aff {
    #[inline]
    fn eval(&self, s: &[i64]) -> i64 {
        match self {
            Aff::Const(c) => *c,
            Aff::Term(c, k, a) => c + a * s[*k],
            Aff::Sum(c, t) => t.iter().fold(*c, |acc, &(k, a)| acc + a * s[k]),
        }
    }
}

/// One dimension of an array access.
struct Dim {
    sub: Aff,
    extent: i64,
    stride: i64,
}

/// An array element access resolved to its array.
struct Access {
    array: ArrayId,
    /// Not privatizable: one store shared by every processor.
    shared: bool,
    dims: Box<[Dim]>,
}

impl Access {
    /// Row-major flat offset, bounds-checked dimension by dimension.
    #[inline]
    fn offset(&self, s: &[i64]) -> usize {
        let mut off = 0i64;
        for (k, d) in self.dims.iter().enumerate() {
            let v = d.sub.eval(s);
            if v < 0 || v >= d.extent {
                out_of_bounds(v, d.extent, k);
            }
            off += v * d.stride;
        }
        off as usize
    }
}

/// The tree-walker's bounds-check panic (`ArrayStore::get`/`set`).
#[cold]
#[inline(never)]
fn out_of_bounds(v: i64, extent: i64, k: usize) -> ! {
    panic!("subscript {v} out of bounds 0..{extent} in dim {k}")
}

enum LExpr {
    Lit(f64),
    Idx(Aff),
    Scalar(ScalarId),
    Load(Access),
    Bin(BinOp, Box<LExpr>, Box<LExpr>),
    Un(UnOp, Box<LExpr>),
}

enum Lhs {
    /// Plain scalar store.
    Scalar(ScalarId),
    /// Scalar reduction applied in place (serial context).
    ScalarRmw(ScalarId, RedOp),
    /// Scalar reduction into the phase's partial slot.
    ScalarPart(usize, RedOp),
    /// Element store, or element read-modify-write for a reduction.
    Elem(Access, Option<RedOp>),
}

struct Assign {
    rhs: LExpr,
    lhs: Lhs,
    /// Statement-level ownership test (scan mode with inner-loop
    /// owners); `None` runs the statement unconditionally.
    owner: Option<Owner>,
}

enum Stmt {
    Loop {
        slot: usize,
        lo: Aff,
        hi: Aff,
        body: Box<[Stmt]>,
    },
    Guard {
        conds: Box<[(Aff, CmpOp)]>,
        body: Box<[Stmt]>,
    },
    Assign(Box<Assign>),
    /// A statement mentioning an atom with no value: panics with the
    /// tree-walker's message when reached.
    Unbound(&'static str),
}

/// An owner function of a partition, over a folded subscript.
enum Owner {
    /// The subscript needs an unbound atom: nobody owns the instance.
    Never,
    Block(i64, Aff),
    Cyclic(Aff),
    BlockCyclic(i64, Aff),
}

impl Owner {
    #[inline]
    fn of(&self, s: &[i64], p: i64) -> Option<i64> {
        match self {
            Owner::Never => None,
            Owner::Block(block, sub) => Some((sub.eval(s) / block).clamp(0, p - 1)),
            Owner::Cyclic(sub) => Some(sub.eval(s).rem_euclid(p)),
            Owner::BlockCyclic(block, sub) => Some(sub.eval(s).div_euclid(*block).rem_euclid(p)),
        }
    }
}

/// How a parallel phase picks a processor's iterations.
enum Mode {
    /// Unknown or symbolic partition: the master runs everything.
    Master,
    /// Block partition of the index space.
    Index { lo: i64, block: i64 },
    /// Block owner `a·i + rest`, `rest` free of the phase loop.
    Block { block: i64, a: i64, rest: Aff },
    /// Cyclic owner `a·i + rest` with `|a| <= 1`.
    Cyclic { a: i64, rest: Aff },
    /// Owner tested per iteration.
    Scan(Owner),
    /// Owners tested per statement (carried by each [`Assign`]).
    Filter,
}

enum Root {
    /// Serial, master or replicated work: the node as one statement.
    Seq(Stmt),
    /// A partitioned parallel loop.
    Par {
        slot: usize,
        lo: Aff,
        hi: Aff,
        mode: Mode,
        body: Box<[Stmt]>,
        parts: Box<[(ScalarId, RedOp)]>,
    },
}

const NO_ROOT: u32 = u32::MAX;

/// The lowered work of one event list under one set of bindings.
pub struct Lowered {
    /// Root index per [`NodeId`] (`NO_ROOT` where no work event starts).
    index: Vec<u32>,
    roots: Vec<Root>,
    nloops: usize,
    nprocs: i64,
    /// Element count per array (0 for arrays no lowered access touches).
    lens: Vec<usize>,
}

impl Lowered {
    /// Lower the subtree of every work event in `events` (once per
    /// distinct node) under `bind`. The loops bound at a node, and its
    /// work division, are those of its first event (a schedule places
    /// each node at one point, so every event of a node agrees).
    pub fn new(prog: &Program, bind: &Bindings, events: &[Event]) -> Lowered {
        let mut cx = Cx {
            prog,
            bind,
            bound: vec![false; prog.num_loops as usize],
            shapes: (0..prog.arrays.len()).map(|_| None).collect(),
            parts: Vec::new(),
        };
        let mut index = vec![NO_ROOT; prog.nodes.len()];
        let mut roots = Vec::new();
        for ev in events {
            let (node, env, partition) = match ev {
                Event::Work {
                    node,
                    kind: PhaseKind::Par { partition },
                    env,
                } => (*node, env, Some(partition)),
                Event::Work { node, env, .. } | Event::SerialWork { node, env } => {
                    (*node, env, None)
                }
                Event::Dispatch | Event::Sync { .. } => continue,
            };
            if index[node.0 as usize] != NO_ROOT {
                continue;
            }
            cx.bound.fill(false);
            for &(l, _) in env {
                cx.bound[l.0 as usize] = true;
            }
            let root = match partition {
                Some(p) => cx.par_root(node, p),
                None => Root::Seq(cx.stmt(node, None, false)),
            };
            index[node.0 as usize] = roots.len() as u32;
            roots.push(root);
        }
        let lens = cx
            .shapes
            .iter()
            .map(|s| s.as_ref().map_or(0, |dims| array_len(dims)))
            .collect();
        Lowered {
            index,
            roots,
            nloops: prog.num_loops as usize,
            nprocs: bind.nprocs,
            lens,
        }
    }

    /// Execute one work event as processor `pid` against `mem`.
    pub(crate) fn exec(&self, mem: &Mem, pid: usize, ev: &Event) {
        let mut sink = Exec {
            mem,
            pid,
            part: Vec::new(),
            seen: Vec::new(),
            order: Vec::new(),
        };
        self.walk_event(ev, pid, &mut sink);
    }

    /// Every shared array cell the work events of `events` write, for
    /// every processor, sorted by `(array, flat offset)`. Subscripts and
    /// guards are affine in loop indices and symbolics, so no value is
    /// evaluated and no memory is touched.
    pub(crate) fn write_set(&self, events: &[Event]) -> Vec<(ArrayId, u64)> {
        let mut w = Writes {
            lens: &self.lens,
            bits: vec![Vec::new(); self.lens.len()],
        };
        for ev in events {
            if matches!(ev, Event::Work { .. } | Event::SerialWork { .. }) {
                for pid in 0..self.nprocs as usize {
                    self.walk_event(ev, pid, &mut w);
                }
            }
        }
        let mut out = Vec::new();
        for (a, words) in w.bits.iter().enumerate() {
            for (k, &word) in words.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    out.push((ArrayId(a as u32), (k * 64 + bit) as u64));
                    word &= word - 1;
                }
            }
        }
        out
    }

    fn walk_event<S: Sink>(&self, ev: &Event, pid: usize, sink: &mut S) {
        let (node, env) = match ev {
            Event::SerialWork { node, env }
            | Event::Work {
                node,
                kind: PhaseKind::Master,
                env,
            } => {
                if pid != 0 {
                    return;
                }
                (node, env)
            }
            Event::Work { node, env, .. } => (node, env),
            Event::Dispatch | Event::Sync { .. } => unreachable!("not a work event"),
        };
        let root = self
            .index
            .get(node.0 as usize)
            .and_then(|&k| self.roots.get(k as usize))
            .expect("work event missing from the event list this form was lowered from");
        let mut inline = [0i64; 32];
        let mut heap = Vec::new();
        let s: &mut [i64] = if self.nloops <= inline.len() {
            &mut inline[..self.nloops]
        } else {
            heap.resize(self.nloops, 0);
            &mut heap
        };
        for &(l, v) in env {
            s[l.0 as usize] = v;
        }
        let me = pid as i64;
        let p = self.nprocs;
        match root {
            Root::Seq(st) => walk(std::slice::from_ref(st), s, me, p, sink),
            Root::Par {
                slot,
                lo,
                hi,
                mode,
                body,
                parts,
            } => {
                let (lo, hi) = (lo.eval(s), hi.eval(s));
                sink.begin(parts.len());
                let owned = match mode {
                    Mode::Master => (pid == 0).then_some(OwnedIter::Range(lo, hi)),
                    Mode::Index { lo: plo, block } => {
                        Some(OwnedIter::block_index(*plo, *block, lo, hi, me))
                    }
                    Mode::Block { block, a, rest } => Some(OwnedIter::block_owner(
                        *a,
                        rest.eval(s),
                        *block,
                        p,
                        lo,
                        hi,
                        me,
                    )),
                    Mode::Cyclic { a, rest } => {
                        OwnedIter::cyclic_owner(*a, rest.eval(s), p, lo, hi, me)
                    }
                    Mode::Scan(_) | Mode::Filter => Some(OwnedIter::Range(lo, hi)),
                };
                let scan = match mode {
                    Mode::Scan(owner) => Some(owner),
                    _ => None,
                };
                if let Some(it) = owned {
                    it.for_each(|i| {
                        s[*slot] = i;
                        if scan.is_none_or(|o| o.of(s, p) == Some(me)) {
                            iteration(body, s, me, p, sink);
                        }
                    });
                }
                sink.flush(parts);
            }
        }
    }
}

/// What the shared walk does at an assignment (and around a parallel
/// phase, for reduction partials).
trait Sink {
    fn assign(&mut self, a: &Assign, s: &[i64]);
    fn begin(&mut self, _parts: usize) {}
    fn flush(&mut self, _parts: &[(ScalarId, RedOp)]) {}
}

fn walk<S: Sink>(stmts: &[Stmt], s: &mut [i64], me: i64, p: i64, sink: &mut S) {
    for st in stmts {
        match st {
            Stmt::Loop { slot, lo, hi, body } => {
                let (lo, hi) = (lo.eval(s), hi.eval(s));
                for i in lo..=hi {
                    s[*slot] = i;
                    iteration(body, s, me, p, sink);
                }
            }
            Stmt::Guard { conds, body } => {
                let holds = conds.iter().all(|(e, op)| {
                    let v = e.eval(s);
                    match op {
                        CmpOp::Eq => v == 0,
                        CmpOp::Ge => v >= 0,
                        CmpOp::Le => v <= 0,
                    }
                });
                if holds {
                    walk(body, s, me, p, sink);
                }
            }
            Stmt::Assign(a) => assign(a, s, me, p, sink),
            Stmt::Unbound(msg) => panic!("{msg}"),
        }
    }
}

/// One iteration of a loop body; the innermost-loop shape (a single
/// assignment) skips the `walk` call.
#[inline(always)]
fn iteration<S: Sink>(body: &[Stmt], s: &mut [i64], me: i64, p: i64, sink: &mut S) {
    match body {
        [Stmt::Assign(a)] => assign(a, s, me, p, sink),
        _ => walk(body, s, me, p, sink),
    }
}

/// Hand `a` to the sink unless its statement-level owner is another
/// processor.
#[inline(always)]
fn assign<S: Sink>(a: &Assign, s: &[i64], me: i64, p: i64, sink: &mut S) {
    if a.owner.as_ref().is_none_or(|o| o.of(s, p) == Some(me)) {
        sink.assign(a, s);
    }
}

/// Executes assignments against memory.
struct Exec<'m> {
    mem: &'m Mem,
    pid: usize,
    part: Vec<f64>,
    seen: Vec<bool>,
    /// Partial slots in first-touch order (the tree-walker's flush
    /// order).
    order: Vec<usize>,
}

impl Exec<'_> {
    fn eval(&self, e: &LExpr, s: &[i64]) -> f64 {
        match e {
            LExpr::Bin(op, l, r) => op.apply(self.operand(l, s), self.operand(r, s)),
            LExpr::Un(op, x) => op.apply(self.operand(x, s)),
            _ => self.operand(e, s),
        }
    }

    /// Leaves inline, inner nodes by (recursive) call.
    #[inline]
    fn operand(&self, e: &LExpr, s: &[i64]) -> f64 {
        match e {
            LExpr::Lit(v) => *v,
            LExpr::Idx(a) => a.eval(s) as f64,
            LExpr::Scalar(sc) => self.mem.get_scalar(*sc),
            LExpr::Load(acc) => self
                .mem
                .array_view(acc.array, self.pid)
                .get_linear(acc.offset(s)),
            LExpr::Bin(..) | LExpr::Un(..) => self.eval(e, s),
        }
    }
}

impl Sink for Exec<'_> {
    fn assign(&mut self, a: &Assign, s: &[i64]) {
        let v = self.eval(&a.rhs, s);
        match &a.lhs {
            Lhs::Scalar(sc) => self.mem.set_scalar(*sc, v),
            Lhs::ScalarRmw(sc, op) => self
                .mem
                .set_scalar(*sc, op.apply(self.mem.get_scalar(*sc), v)),
            Lhs::ScalarPart(k, op) => {
                if self.seen[*k] {
                    self.part[*k] = op.apply(self.part[*k], v);
                } else {
                    self.seen[*k] = true;
                    self.order.push(*k);
                    self.part[*k] = op.apply(op.identity(), v);
                }
            }
            Lhs::Elem(acc, red) => {
                let st = self.mem.array_view(acc.array, self.pid);
                let off = acc.offset(s);
                match red {
                    None => st.set_linear(off, v),
                    Some(op) => st.set_linear(off, op.apply(st.get_linear(off), v)),
                }
            }
        }
    }

    fn begin(&mut self, parts: usize) {
        self.part.clear();
        self.part.resize(parts, 0.0);
        self.seen.clear();
        self.seen.resize(parts, false);
        self.order.clear();
    }

    fn flush(&mut self, parts: &[(ScalarId, RedOp)]) {
        for &k in &self.order {
            let (sc, op) = parts[k];
            self.mem.reduce_scalar(sc, op, self.part[k]);
        }
    }
}

/// Marks written shared cells in per-array bitsets.
struct Writes<'a> {
    lens: &'a [usize],
    bits: Vec<Vec<u64>>,
}

impl Sink for Writes<'_> {
    fn assign(&mut self, a: &Assign, s: &[i64]) {
        if let Lhs::Elem(acc, _) = &a.lhs {
            if acc.shared {
                let off = acc.offset(s);
                let a = acc.array.0 as usize;
                let bits = &mut self.bits[a];
                if bits.is_empty() {
                    bits.resize(self.lens[a].div_ceil(64), 0);
                }
                bits[off / 64] |= 1 << (off % 64);
            }
        }
    }
}

/// `(extent, stride)` per dimension.
type Shape = Box<[(i64, i64)]>;

fn array_len(dims: &[(i64, i64)]) -> usize {
    dims.iter().map(|&(e, _)| e).product::<i64>().max(0) as usize
}

/// Lowering state: which loops are bound at the current point, the
/// arrays' shapes, and the current phase's reduction slots.
struct Cx<'a> {
    prog: &'a Program,
    bind: &'a Bindings,
    bound: Vec<bool>,
    /// Each array's shape, computed on first use.
    shapes: Vec<Option<Shape>>,
    parts: Vec<(ScalarId, RedOp)>,
}

impl Cx<'_> {
    /// Fold `e` under the current bound set; `Err` names the first
    /// atom without a value.
    fn fold(&self, e: &Affine) -> Result<Aff, AffAtom> {
        let mut c = e.constant_term();
        let mut aff = Aff::Const(0);
        for (atom, k) in e.terms() {
            let slot = match atom {
                AffAtom::Sym(s) => {
                    c += k * self.bind.get(s).ok_or(atom)?;
                    continue;
                }
                AffAtom::Loop(l) if self.bound[l.0 as usize] => l.0 as usize,
                AffAtom::Loop(_) => return Err(atom),
            };
            aff = match aff {
                Aff::Const(_) => Aff::Term(0, slot, k),
                Aff::Term(_, s0, k0) => Aff::Sum(0, vec![(s0, k0), (slot, k)].into()),
                Aff::Sum(_, t) => Aff::Sum(0, t.iter().copied().chain([(slot, k)]).collect()),
            };
        }
        Ok(match aff {
            Aff::Const(_) => Aff::Const(c),
            Aff::Term(_, slot, k) => Aff::Term(c, slot, k),
            Aff::Sum(_, t) => Aff::Sum(c, t),
        })
    }

    /// Compute `a`'s shape unless already known.
    fn ensure_shape(&mut self, a: ArrayId) {
        let (prog, bind) = (self.prog, self.bind);
        self.shapes[a.0 as usize].get_or_insert_with(|| {
            let decl = prog.array(a);
            let extents: Vec<i64> = decl
                .extents
                .iter()
                .map(|e| {
                    bind.eval_const(e)
                        .unwrap_or_else(|| panic!("unbound extent for array {}", decl.name))
                })
                .collect();
            let mut strides = vec![1i64; extents.len()];
            for k in (0..extents.len().saturating_sub(1)).rev() {
                strides[k] = strides[k + 1] * extents[k + 1].max(0);
            }
            extents.into_iter().zip(strides).collect()
        });
    }

    fn access(&mut self, a: ArrayId, subs: &[Affine]) -> Result<Access, AffAtom> {
        self.ensure_shape(a);
        let shape = self.shapes[a.0 as usize].as_deref().unwrap_or_default();
        let dims = subs
            .iter()
            .zip(shape)
            .map(|(e, &(extent, stride))| {
                Ok(Dim {
                    sub: self.fold(e)?,
                    extent,
                    stride,
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Access {
            array: a,
            shared: !self.prog.array(a).privatizable,
            dims,
        })
    }

    fn expr(&mut self, e: &Expr) -> Result<LExpr, AffAtom> {
        Ok(match e {
            Expr::Lit(v) => LExpr::Lit(*v),
            Expr::Idx(a) => LExpr::Idx(self.fold(a)?),
            Expr::Scalar(s) => LExpr::Scalar(*s),
            Expr::Elem(a, subs) => LExpr::Load(self.access(*a, subs)?),
            Expr::Bin(op, l, r) => {
                LExpr::Bin(*op, Box::new(self.expr(l)?), Box::new(self.expr(r)?))
            }
            Expr::Un(op, x) => LExpr::Un(*op, Box::new(self.expr(x)?)),
        })
    }

    /// Owner function of `partition` at the current point.
    fn owner(&self, partition: &LoopPartition) -> Owner {
        let folded = |sub: &Affine| self.fold(sub).ok();
        let owner = match partition {
            LoopPartition::BlockOwner { block, sub, .. } => {
                folded(sub).map(|f| Owner::Block(*block, f))
            }
            LoopPartition::CyclicOwner { sub, .. } => folded(sub).map(Owner::Cyclic),
            LoopPartition::BlockCyclicOwner { block, sub, .. } => {
                folded(sub).map(|f| Owner::BlockCyclic(*block, f))
            }
            _ => unreachable!("only owner partitions scan"),
        };
        owner.unwrap_or(Owner::Never)
    }

    /// Lower one statement subtree. `filter` carries the partition of a
    /// statement-level scan; `active` routes scalar reductions to the
    /// phase's partial slots.
    fn stmt(&mut self, node: NodeId, filter: Option<&LoopPartition>, active: bool) -> Stmt {
        const UNBOUND: &str = "unbound atom in affine expression";
        match self.prog.node(node) {
            Node::Assign(a) => {
                let Ok(rhs) = self.expr(&a.rhs) else {
                    return Stmt::Unbound(UNBOUND);
                };
                let lhs = match (&a.lhs, a.reduction) {
                    (LhsRef::Scalar(s), None) => Lhs::Scalar(*s),
                    (LhsRef::Scalar(s), Some(op)) if active => {
                        let k = match self.parts.iter().position(|&p| p == (*s, op)) {
                            Some(k) => k,
                            None => {
                                self.parts.push((*s, op));
                                self.parts.len() - 1
                            }
                        };
                        Lhs::ScalarPart(k, op)
                    }
                    (LhsRef::Scalar(s), Some(op)) => Lhs::ScalarRmw(*s, op),
                    (LhsRef::Elem(arr, subs), red) => match self.access(*arr, subs) {
                        Ok(acc) => Lhs::Elem(acc, red),
                        Err(_) => return Stmt::Unbound(UNBOUND),
                    },
                };
                Stmt::Assign(Box::new(Assign {
                    rhs,
                    lhs,
                    owner: filter.map(|p| self.owner(p)),
                }))
            }
            Node::Guard(g) => {
                let mut conds = Vec::with_capacity(g.conds.len());
                for c in &g.conds {
                    match self.fold(&c.expr) {
                        Ok(e) => conds.push((e, c.op)),
                        Err(AffAtom::Sym(_)) => return Stmt::Unbound("unbound symbolic in guard"),
                        Err(AffAtom::Loop(_)) => return Stmt::Unbound("unbound loop in guard"),
                    }
                }
                let body = self.body(&g.body, filter, active);
                Stmt::Guard {
                    conds: conds.into(),
                    body,
                }
            }
            Node::Loop(l) => {
                let (Ok(lo), Ok(hi)) = (self.fold(&l.lo), self.fold(&l.hi)) else {
                    return Stmt::Unbound(UNBOUND);
                };
                let body = self.with_bound(l.id, |cx| cx.body(&l.body, filter, active));
                Stmt::Loop {
                    slot: l.id.0 as usize,
                    lo,
                    hi,
                    body,
                }
            }
        }
    }

    fn body(
        &mut self,
        nodes: &[NodeId],
        filter: Option<&LoopPartition>,
        active: bool,
    ) -> Box<[Stmt]> {
        nodes
            .iter()
            .map(|&n| self.stmt(n, filter, active))
            .collect()
    }

    fn with_bound<T>(&mut self, l: LoopId, f: impl FnOnce(&mut Self) -> T) -> T {
        let was = std::mem::replace(&mut self.bound[l.0 as usize], true);
        let out = f(self);
        self.bound[l.0 as usize] = was;
        out
    }

    /// Lower a partitioned parallel loop, choosing the work division the
    /// tree-walker's `exec_par_phase` would.
    fn par_root(&mut self, node: NodeId, partition: &LoopPartition) -> Root {
        let l = self.prog.expect_loop(node);
        let (Ok(lo), Ok(hi)) = (self.fold(&l.lo), self.fold(&l.hi)) else {
            return Root::Seq(Stmt::Unbound("unbound atom in affine expression"));
        };
        let phase = AffAtom::Loop(l.id);
        // The owner subscript without the phase loop's term, folded at
        // phase entry (the phase loop itself is not bound yet).
        let rest = |sub: &Affine| {
            let mut r = sub.clone();
            r.set_coeff(phase, 0);
            self.fold(&r).ok()
        };
        let fast = match partition {
            LoopPartition::Unknown | LoopPartition::SymbolicBlockOwner { .. } => Some(Mode::Master),
            LoopPartition::BlockIndex { lo, block, .. } => Some(Mode::Index {
                lo: *lo,
                block: *block,
            }),
            LoopPartition::BlockOwner { block, sub, .. } => rest(sub).map(|rest| Mode::Block {
                block: *block,
                a: sub.coeff(phase),
                rest,
            }),
            LoopPartition::CyclicOwner { sub, .. } => {
                let a = sub.coeff(phase);
                rest(sub)
                    .filter(|_| a.abs() <= 1)
                    .map(|rest| Mode::Cyclic { a, rest })
            }
            LoopPartition::BlockCyclicOwner { .. } => None,
        };
        self.parts.clear();
        let (mode, body) = self.with_bound(l.id, |cx| match fast {
            Some(mode) => (mode, cx.body(&l.body, None, true)),
            None => {
                let sub = match partition {
                    LoopPartition::BlockOwner { sub, .. }
                    | LoopPartition::CyclicOwner { sub, .. }
                    | LoopPartition::BlockCyclicOwner { sub, .. } => sub,
                    _ => unreachable!("index and unknown partitions take the fast path"),
                };
                if sub.loops().all(|lid| cx.bound[lid.0 as usize]) {
                    (
                        Mode::Scan(cx.owner(partition)),
                        cx.body(&l.body, None, true),
                    )
                } else {
                    (Mode::Filter, cx.body(&l.body, Some(partition), true))
                }
            }
        });
        Root::Par {
            slot: l.id.0 as usize,
            lo,
            hi,
            mode,
            body,
            parts: std::mem::take(&mut self.parts).into(),
        }
    }
}
