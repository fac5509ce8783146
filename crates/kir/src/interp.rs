//! A reference interpreter for [`KernelProgram`] trees.
//!
//! The machine emulates the launch the emitted driver would perform: for
//! every block of the linear grid it runs `TBX × TBY` threads plus the
//! block's shared-memory tiles over the kernel body in **lockstep** —
//! each statement is executed for every active thread before the next
//! statement begins, and loop divergence deactivates threads individually
//! (exactly the guarded tail behavior of real blocks). Lockstep is
//! stricter than barrier semantics, so a well-placed
//! [`crate::ast::Stmt::Barrier`] is a no-op; a *mis-scheduled* tree (e.g.
//! the skip-sync fault transform, which moves the compute phase ahead of
//! staging) still diverges because the data dependence itself is broken.
//!
//! Because the interpreter consumes the very tree the pretty-printers
//! emit, agreement with `contract_reference` certifies the emitted text,
//! not merely the plan it came from.
//!
//! # Two stages
//!
//! **Resolve**, once per call: `#define`s and `N_*` extents fold into
//! constants, every kernel-local gets a dense slot, every array name
//! becomes a typed reference (a tensor parameter, a shared tile, or a
//! register array whose dimensions are folded into its subscript
//! arithmetic), and every expression is typed as integer or element
//! valued.
//!
//! **Execute**, block by block: each local is one `i64` column over the
//! block's threads (structure of arrays), held as a single value while
//! every thread agrees on it, so the loop counters and k-tile digits of
//! the compute phase cost one operation per statement rather than one
//! per thread. A statement evaluates node by node over the list of
//! active threads, reusing per-block buffers.
//!
//! The observable semantics are the tree walker's:
//!
//! - statements run in lockstep order, and array stores within a
//!   statement land in ascending thread order — a statement whose stores
//!   another thread of the same statement could observe (a load or a
//!   second store of the same shared or global array) runs one thread at
//!   a time, as do such multi-item lines;
//! - a conditional evaluates only its taken branch, per thread;
//! - when several threads fail in one statement, the error returned is
//!   the one the lowest thread meets first; a symbol is undefined where
//!   it cannot be proven declared on every path before its use, and that
//!   is reported when the use executes;
//! - element arithmetic happens in the same order, so outputs are
//!   bit-identical. A conditional whose branches differ in type is typed
//!   as an element (lowering only builds one as a guarded load feeding a
//!   store, which promotes the integer branch anyway).

use std::collections::HashMap;

use cogent_gpu_sim::plan::KernelPlan;
use cogent_ir::{IndexName, SizeMap};
use cogent_tensor::{DenseTensor, Element};

use crate::ast::{AssignOp, BinOp, Expr, KernelProgram, LValue, LineItem, LoopStep, Stmt};
use crate::error::KirError;
use crate::lower::lower_to_kir;

/// Dense index of a kernel-local column. The first three slots are the
/// builtins; declared locals follow.
type Slot = usize;
const TID_X: Slot = 0;
const TID_Y: Slot = 1;
const BLOCK_ID: Slot = 2;

/// Which storage an array name resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arr {
    A,
    B,
    C,
    Smem(usize),
    Reg(usize),
    /// No such array (or a read-only tensor as a store target): every
    /// access fails with [`KirError::UndefinedArray`].
    Missing,
}

impl Arr {
    /// Visible to every thread of the block (so stores order matters).
    fn shared(self) -> bool {
        matches!(self, Arr::A | Arr::B | Arr::C | Arr::Smem(_))
    }
}

#[derive(Debug)]
struct ArrRef {
    arr: Arr,
    name: String,
}

/// An integer-valued expression.
#[derive(Debug)]
enum IExpr {
    Const(i64),
    Local(Slot),
    Bin(BinOp, Box<IExpr>, Box<IExpr>),
    Min(Box<IExpr>, Box<IExpr>),
    Cond(Box<IExpr>, Box<IExpr>, Box<IExpr>),
    /// Evaluates the operands, then fails every thread with the error.
    Fail(Vec<AnyExpr>, KirError),
}

/// An element-valued expression.
#[derive(Debug)]
enum FExpr {
    Load(ArrRef, Box<IExpr>),
    FromInt(Box<IExpr>),
    /// `Add`, `Sub` or `Mul` only.
    Bin(BinOp, Box<FExpr>, Box<FExpr>),
    Cond(Box<IExpr>, Box<FExpr>, Box<FExpr>),
    Fail(Vec<AnyExpr>, KirError),
}

#[derive(Debug)]
enum AnyExpr {
    I(IExpr),
    F(FExpr),
}

#[derive(Debug)]
enum Item {
    Set(Slot, AssignOp, IExpr),
    Store(ArrRef, IExpr, AssignOp, FExpr),
    /// A statement that can only fail (its expression is an `IExpr::Fail`).
    Eval(IExpr),
}

#[derive(Debug)]
enum Op {
    /// A line executed item by item over all active threads.
    Line(Vec<Item>),
    /// A line executed one thread at a time.
    Serial(Vec<Item>),
    If(IExpr, Vec<Op>, Vec<Op>),
    For {
        var: Slot,
        init: IExpr,
        limit: IExpr,
        /// `None` is `++var`.
        step: Option<IExpr>,
        body: Vec<Op>,
    },
    VecCopy {
        width: i64,
        dst: ArrRef,
        dst_off: IExpr,
        src: ArrRef,
        src_off: IExpr,
        serial: bool,
    },
}

fn int_bin(op: BinOp, l: i64, r: i64) -> Result<i64, KirError> {
    Ok(match op {
        BinOp::Add => l + r,
        BinOp::Sub => l - r,
        BinOp::Mul => l * r,
        BinOp::Div => {
            if r == 0 {
                return Err(KirError::DivisionByZero);
            }
            l / r
        }
        BinOp::Mod => {
            if r == 0 {
                return Err(KirError::DivisionByZero);
            }
            l % r
        }
        BinOp::Lt => i64::from(l < r),
        BinOp::Eq => i64::from(l == r),
        BinOp::And => i64::from(l != 0 && r != 0),
    })
}

/// `int_bin` at resolve time: `None` wherever evaluating could fail or
/// overflow, so folding never reports an error the program would not.
fn fold(op: BinOp, l: i64, r: i64) -> Option<i64> {
    match op {
        BinOp::Add => l.checked_add(r),
        BinOp::Sub => l.checked_sub(r),
        BinOp::Mul => l.checked_mul(r),
        BinOp::Div => l.checked_div(r),
        BinOp::Mod => l.checked_rem(r),
        BinOp::Lt | BinOp::Eq | BinOp::And => int_bin(op, l, r).ok(),
    }
}

fn bin(op: BinOp, l: IExpr, r: IExpr) -> IExpr {
    if let (IExpr::Const(a), IExpr::Const(b)) = (&l, &r) {
        if let Some(v) = fold(op, *a, *b) {
            return IExpr::Const(v);
        }
    }
    IExpr::Bin(op, Box::new(l), Box::new(r))
}

fn float_in_int() -> KirError {
    KirError::TypeMismatch {
        detail: "floating value in integer position".into(),
    }
}

fn float_operator(op: BinOp) -> KirError {
    KirError::TypeMismatch {
        detail: format!("operator {} on floating operands", op.token()),
    }
}

/// Whether `expr` yields an element (as opposed to an integer).
fn is_float(expr: &Expr) -> bool {
    match expr {
        Expr::Index(..) => true,
        Expr::Paren(inner) => is_float(inner),
        Expr::Bin(_, l, r) => is_float(l) || is_float(r),
        Expr::Cond(_, t, e) => is_float(t) || is_float(e),
        _ => false,
    }
}

fn arithmetic(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul)
}

/// Evaluates a constant expression over `#define`s and extents only.
fn eval_const(expr: &Expr, globals: &HashMap<String, i64>) -> Result<i64, KirError> {
    match expr {
        Expr::Int(v) => Ok(*v),
        Expr::Sym(name) => globals
            .get(name)
            .copied()
            .ok_or_else(|| KirError::UndefinedSymbol { name: name.clone() }),
        Expr::Paren(inner) => eval_const(inner, globals),
        Expr::Bin(op, lhs, rhs) => {
            let l = eval_const(lhs, globals)?;
            let r = eval_const(rhs, globals)?;
            int_bin(*op, l, r)
        }
        Expr::Min(a, b) => Ok(eval_const(a, globals)?.min(eval_const(b, globals)?)),
        _ => Err(KirError::TypeMismatch {
            detail: "non-constant expression in constant position".into(),
        }),
    }
}

/// Collects every name a kernel-local is declared under, in first
/// declaration order.
fn declared_locals(stmts: &[Stmt], out: &mut Vec<String>) {
    let add = |name: &String, out: &mut Vec<String>| {
        if !out.contains(name) {
            out.push(name.clone());
        }
    };
    for s in stmts {
        match s {
            Stmt::Line(items) => {
                for item in items {
                    if let LineItem::DeclInt { name, .. } = item {
                        add(name, out);
                    }
                }
            }
            Stmt::For { var, body, .. } => {
                add(var, out);
                declared_locals(body, out);
            }
            Stmt::If {
                body, else_body, ..
            } => {
                declared_locals(body, out);
                declared_locals(else_body, out);
            }
            Stmt::Phase { body, .. } => declared_locals(body, out),
            Stmt::Comment(_) | Stmt::Blank | Stmt::Barrier | Stmt::VecCopy { .. } => {}
        }
    }
}

/// The resolve step: names to slots and typed array references, with a
/// definite-declaration walk deciding which symbol reads are defined.
struct Resolver<'g> {
    globals: &'g HashMap<String, i64>,
    slots: HashMap<String, Slot>,
    reg_dims: &'g HashMap<String, Vec<usize>>,
    regs: HashMap<String, usize>,
    smem: HashMap<String, usize>,
    /// Per slot: declared on every path reaching the current point.
    declared: Vec<bool>,
}

impl Resolver<'_> {
    fn load_ref(&self, name: &str) -> ArrRef {
        let arr = match name {
            "g_A" => Arr::A,
            "g_B" => Arr::B,
            "g_C" => Arr::C,
            _ => self.array(name),
        };
        ArrRef {
            arr,
            name: name.to_owned(),
        }
    }

    /// Stores reach `g_C`, register arrays and shared tiles only.
    fn store_ref(&self, name: &str) -> ArrRef {
        let arr = match name {
            "g_C" => Arr::C,
            _ => self.array(name),
        };
        ArrRef {
            arr,
            name: name.to_owned(),
        }
    }

    fn array(&self, name: &str) -> Arr {
        if let Some(r) = self.regs.get(name) {
            Arr::Reg(*r)
        } else if let Some(s) = self.smem.get(name) {
            Arr::Smem(*s)
        } else {
            Arr::Missing
        }
    }

    fn sym(&self, name: &str) -> IExpr {
        match (self.slots.get(name), self.globals.get(name)) {
            // A local shadowing a global starts each block holding the
            // global's value, so it reads correctly before its declaration.
            (Some(slot), global) if self.declared[*slot] || global.is_some() => IExpr::Local(*slot),
            (None, Some(v)) => IExpr::Const(*v),
            _ => IExpr::Fail(
                Vec::new(),
                KirError::UndefinedSymbol {
                    name: name.to_owned(),
                },
            ),
        }
    }

    fn int(&self, expr: &Expr) -> IExpr {
        match expr {
            Expr::Int(v) => IExpr::Const(*v),
            Expr::Sym(name) => self.sym(name),
            Expr::BlockId => IExpr::Local(BLOCK_ID),
            Expr::TidX => IExpr::Local(TID_X),
            Expr::TidY => IExpr::Local(TID_Y),
            Expr::Paren(inner) => self.int(inner),
            Expr::Bin(op, l, r) if !is_float(l) && !is_float(r) => {
                bin(*op, self.int(l), self.int(r))
            }
            Expr::Bin(op, l, r) => {
                let err = if arithmetic(*op) {
                    float_in_int()
                } else {
                    float_operator(*op)
                };
                IExpr::Fail(vec![self.any(l), self.any(r)], err)
            }
            Expr::Cond(c, t, e) => IExpr::Cond(
                Box::new(self.int(c)),
                Box::new(self.int(t)),
                Box::new(self.int(e)),
            ),
            Expr::Min(a, b) => IExpr::Min(Box::new(self.int(a)), Box::new(self.int(b))),
            Expr::Index(..) => IExpr::Fail(vec![AnyExpr::F(self.float(expr))], float_in_int()),
        }
    }

    fn float(&self, expr: &Expr) -> FExpr {
        match expr {
            _ if !is_float(expr) => FExpr::FromInt(Box::new(self.int(expr))),
            Expr::Paren(inner) => self.float(inner),
            Expr::Index(array, subs) => match self.offset(array, subs) {
                Ok(off) => FExpr::Load(self.load_ref(array), Box::new(off)),
                Err(err) => FExpr::Fail(Vec::new(), err),
            },
            Expr::Bin(op, l, r) if arithmetic(*op) => {
                FExpr::Bin(*op, Box::new(self.float(l)), Box::new(self.float(r)))
            }
            Expr::Bin(op, l, r) => FExpr::Fail(vec![self.any(l), self.any(r)], float_operator(*op)),
            Expr::Cond(c, t, e) => FExpr::Cond(
                Box::new(self.int(c)),
                Box::new(self.float(t)),
                Box::new(self.float(e)),
            ),
            // Every other form is integer-typed and took the first arm.
            _ => FExpr::FromInt(Box::new(self.int(expr))),
        }
    }

    fn any(&self, expr: &Expr) -> AnyExpr {
        if is_float(expr) {
            AnyExpr::F(self.float(expr))
        } else {
            AnyExpr::I(self.int(expr))
        }
    }

    /// The linear element offset of `array[subs…]`: register arrays fold
    /// their dimensions in row-major order, everything else is flat.
    fn offset(&self, array: &str, subs: &[Expr]) -> Result<IExpr, KirError> {
        let dims: &[usize] = self.reg_dims.get(array).map_or(&[1], Vec::as_slice);
        if dims.len() != subs.len() {
            return Err(KirError::ArityMismatch {
                array: array.into(),
                expected: dims.len(),
                got: subs.len(),
            });
        }
        let mut off: Option<IExpr> = None;
        for (sub, dim) in subs.iter().zip(dims) {
            let sub = self.int(sub);
            off = Some(match off {
                None => sub,
                Some(acc) => bin(
                    BinOp::Add,
                    bin(BinOp::Mul, acc, IExpr::Const(*dim as i64)),
                    sub,
                ),
            });
        }
        Ok(off.unwrap_or(IExpr::Const(0)))
    }

    fn declare(&mut self, name: &str) -> Slot {
        // `declared_locals` gave every declared name a slot.
        let slot = self.slots.get(name).copied().unwrap_or(BLOCK_ID);
        self.declared[slot] = true;
        slot
    }

    fn item(&mut self, item: &LineItem) -> Item {
        match item {
            LineItem::DeclInt { name, init, .. } => {
                let init = self.int(init);
                Item::Set(self.declare(name), AssignOp::Assign, init)
            }
            LineItem::Assign {
                target: LValue::Var(name),
                op,
                value,
            } => {
                let value = self.int(value);
                match self.slots.get(name) {
                    Some(slot) if self.declared[*slot] => Item::Set(*slot, *op, value),
                    _ => Item::Eval(IExpr::Fail(
                        vec![AnyExpr::I(value)],
                        KirError::UndefinedSymbol { name: name.clone() },
                    )),
                }
            }
            LineItem::Assign {
                target: LValue::Elem(array, subs),
                op,
                value,
            } => match self.offset(array, subs) {
                Ok(off) => Item::Store(self.store_ref(array), off, *op, self.float(value)),
                Err(err) => Item::Eval(IExpr::Fail(Vec::new(), err)),
            },
        }
    }

    fn block(&mut self, stmts: &[Stmt]) -> Vec<Op> {
        let mut out = Vec::new();
        self.stmts(stmts, &mut out);
        out
    }

    fn stmts(&mut self, stmts: &[Stmt], out: &mut Vec<Op>) {
        for stmt in stmts {
            match stmt {
                Stmt::Comment(_) | Stmt::Blank => {}
                // Lockstep execution synchronizes at every statement, so
                // the barrier itself carries no extra semantics here.
                Stmt::Barrier => {}
                Stmt::Phase { body, .. } => self.stmts(body, out),
                Stmt::Line(items) => {
                    let items: Vec<Item> = items.iter().map(|i| self.item(i)).collect();
                    out.push(if needs_serial(&items) {
                        Op::Serial(items)
                    } else {
                        Op::Line(items)
                    });
                }
                Stmt::If {
                    cond,
                    body,
                    else_body,
                    ..
                } => {
                    let cond = self.int(cond);
                    let before = self.declared.clone();
                    let then = self.block(body);
                    let after_then = std::mem::replace(&mut self.declared, before);
                    let els = self.block(else_body);
                    for (d, t) in self.declared.iter_mut().zip(after_then) {
                        *d &= t;
                    }
                    out.push(Op::If(cond, then, els));
                }
                Stmt::For {
                    var,
                    init,
                    limit,
                    step,
                    body,
                    ..
                } => {
                    let init = self.int(init);
                    let var = self.declare(var);
                    let limit = self.int(limit);
                    let before = self.declared.clone();
                    let body = self.block(body);
                    let step = match step {
                        LoopStep::Inc => None,
                        LoopStep::AddAssign(e) => Some(self.int(e)),
                    };
                    // The body may run zero times.
                    self.declared = before;
                    out.push(Op::For {
                        var,
                        init,
                        limit,
                        step,
                        body,
                    });
                }
                Stmt::VecCopy {
                    width,
                    dst,
                    dst_off,
                    src,
                    src_off,
                } => {
                    let (dst_off, src_off) = (self.int(dst_off), self.int(src_off));
                    // Each lane is a one-subscript access of both arrays.
                    let arity = [dst, src]
                        .into_iter()
                        .find_map(|name| self.offset(name, &[Expr::Int(0)]).err());
                    if let Some(err) = arity {
                        out.push(Op::Line(vec![Item::Eval(IExpr::Fail(
                            vec![AnyExpr::I(dst_off), AnyExpr::I(src_off)],
                            err,
                        ))]));
                        continue;
                    }
                    let (dst, src) = (self.store_ref(dst), self.load_ref(src));
                    out.push(Op::VecCopy {
                        width: *width as i64,
                        serial: dst.arr.shared() && dst.arr == src.arr,
                        dst,
                        dst_off,
                        src,
                        src_off,
                    });
                }
            }
        }
    }
}

fn loads(e: &AnyExpr, arr: Arr) -> bool {
    match e {
        AnyExpr::I(e) => int_loads(e, arr),
        AnyExpr::F(e) => float_loads(e, arr),
    }
}

fn int_loads(e: &IExpr, arr: Arr) -> bool {
    match e {
        IExpr::Const(_) | IExpr::Local(_) => false,
        IExpr::Bin(_, l, r) | IExpr::Min(l, r) => int_loads(l, arr) || int_loads(r, arr),
        IExpr::Cond(c, t, f) => int_loads(c, arr) || int_loads(t, arr) || int_loads(f, arr),
        IExpr::Fail(ops, _) => ops.iter().any(|o| loads(o, arr)),
    }
}

fn float_loads(e: &FExpr, arr: Arr) -> bool {
    match e {
        FExpr::Load(r, off) => r.arr == arr || int_loads(off, arr),
        FExpr::FromInt(i) => int_loads(i, arr),
        FExpr::Bin(_, l, r) => float_loads(l, arr) || float_loads(r, arr),
        FExpr::Cond(c, t, f) => int_loads(c, arr) || float_loads(t, arr) || float_loads(f, arr),
        FExpr::Fail(ops, _) => ops.iter().any(|o| loads(o, arr)),
    }
}

/// Whether running a line item by item over all threads could let one
/// thread observe another's store from the same line: some shared array
/// is stored and also loaded or stored a second time.
fn needs_serial(items: &[Item]) -> bool {
    let stored: Vec<Arr> = items
        .iter()
        .filter_map(|i| match i {
            Item::Store(r, ..) if r.arr.shared() => Some(r.arr),
            _ => None,
        })
        .collect();
    stored.iter().enumerate().any(|(k, arr)| {
        stored[..k].contains(arr)
            || items.iter().any(|item| match item {
                Item::Set(_, _, e) | Item::Eval(e) => int_loads(e, *arr),
                Item::Store(_, off, _, value) => int_loads(off, *arr) || float_loads(value, *arr),
            })
    })
}

/// One operand of a column operation: a value every active thread
/// shares, or a column indexed by thread.
#[derive(Clone, Copy)]
enum Opd<'a, V> {
    U(V),
    C(&'a [V]),
}

impl<V: Copy> Opd<'_, V> {
    #[inline]
    fn at(self, t: usize) -> V {
        match self {
            Opd::U(v) => v,
            Opd::C(col) => col[t],
        }
    }
}

/// `out[t] = f(t, a[t], b[t])` over `lanes`, with the operand shapes
/// matched once outside the loop.
#[inline]
fn zip<V: Copy, W>(
    a: Opd<V>,
    b: Opd<V>,
    lanes: &[usize],
    out: &mut [W],
    mut f: impl FnMut(usize, V, V) -> W,
) {
    match (a, b) {
        (Opd::C(x), Opd::C(y)) => {
            for &t in lanes {
                out[t] = f(t, x[t], y[t]);
            }
        }
        (Opd::U(x), Opd::C(y)) => {
            for &t in lanes {
                out[t] = f(t, x, y[t]);
            }
        }
        (Opd::C(x), Opd::U(y)) => {
            for &t in lanes {
                out[t] = f(t, x[t], y);
            }
        }
        (a, b) => {
            for &t in lanes {
                out[t] = f(t, a.at(t), b.at(t));
            }
        }
    }
}

/// An evaluated integer expression.
enum IVal {
    U(i64),
    /// The column of a local that is not uniform.
    Local(Slot),
    Tmp(Vec<i64>),
}

/// An evaluated element expression.
enum FVal<T> {
    U(T),
    /// Element `.1` of register array `.0`, one value per thread.
    Reg(usize, usize),
    Tmp(Vec<T>),
}

fn iopd<'a>(cols: &'a [Vec<i64>], v: &'a IVal) -> Opd<'a, i64> {
    match v {
        IVal::U(x) => Opd::U(*x),
        IVal::Local(s) => Opd::C(&cols[*s]),
        IVal::Tmp(col) => Opd::C(col),
    }
}

fn fopd<'a, T: Copy>(regs: &'a [Vec<T>], n: usize, v: &'a FVal<T>) -> Opd<'a, T> {
    match v {
        FVal::U(x) => Opd::U(*x),
        FVal::Reg(r, e) => Opd::C(&regs[*r][e * n..(e + 1) * n]),
        FVal::Tmp(col) => Opd::C(col),
    }
}

/// The first error of the lowest thread: `(thread, error)`.
type Fault = Option<(usize, KirError)>;

fn note(fault: &mut Fault, lane: usize, err: KirError) {
    if fault.as_ref().is_none_or(|(f, _)| lane < *f) {
        *fault = Some((lane, err));
    }
}

fn out_of_bounds(r: &ArrRef, offset: i64, len: usize) -> KirError {
    KirError::OutOfBounds {
        array: r.name.clone(),
        offset,
        len,
    }
}

/// `Some(index)` when `offset` addresses one of `len` elements.
#[inline]
fn index(offset: i64, len: usize) -> Option<usize> {
    usize::try_from(offset).ok().filter(|i| *i < len)
}

/// Per-block execution state; buffers persist across blocks.
struct Machine<'d, T: Element> {
    /// Threads per block.
    n: usize,
    /// Per slot: the value every thread holds, or `None` when the
    /// thread-indexed column in `cols` is authoritative.
    uniform: Vec<Option<i64>>,
    cols: Vec<Vec<i64>>,
    /// Each local's value at block start: its global's value when it
    /// shadows one, else 0 (never read before a declaration).
    initial: Vec<i64>,
    a: &'d [T],
    b: &'d [T],
    c: Vec<T>,
    smem: Vec<Vec<T>>,
    /// Register arrays, element-major: element `e` of thread `t` is at
    /// `e * n + t`.
    regs: Vec<Vec<T>>,
    reg_lens: Vec<usize>,
    ints: Vec<Vec<i64>>,
    floats: Vec<Vec<T>>,
    lane_lists: Vec<Vec<usize>>,
    fault: Fault,
}

impl<T: Element> Machine<'_, T> {
    fn take_ints(&mut self) -> Vec<i64> {
        self.ints.pop().unwrap_or_else(|| vec![0; self.n])
    }

    fn take_floats(&mut self) -> Vec<T> {
        self.floats.pop().unwrap_or_else(|| vec![T::ZERO; self.n])
    }

    fn take_lanes(&mut self) -> Vec<usize> {
        let mut lanes = self.lane_lists.pop().unwrap_or_default();
        lanes.clear();
        lanes
    }

    fn free_int(&mut self, v: IVal) {
        if let IVal::Tmp(col) = v {
            self.ints.push(col);
        }
    }

    fn free_float(&mut self, v: FVal<T>) {
        if let FVal::Tmp(col) = v {
            self.floats.push(col);
        }
    }

    /// Fails every thread in `lanes`: the lowest one names the error.
    fn fail(&mut self, lanes: &[usize], err: KirError) {
        if let Some(&t) = lanes.first() {
            note(&mut self.fault, t, err);
        }
    }

    /// Folds a loop's first failure into the statement's.
    fn merge(&mut self, first: Fault) {
        if let Some((t, err)) = first {
            note(&mut self.fault, t, err);
        }
    }

    fn check(&mut self) -> Result<(), KirError> {
        match self.fault.take() {
            Some((_, err)) => Err(err),
            None => Ok(()),
        }
    }

    fn local(&self, slot: Slot) -> IVal {
        match self.uniform[slot] {
            Some(v) => IVal::U(v),
            None => IVal::Local(slot),
        }
    }

    fn int_op(
        &mut self,
        lanes: &[usize],
        l: IVal,
        r: IVal,
        f: impl Fn(i64, i64) -> Result<i64, KirError>,
    ) -> IVal {
        if let (IVal::U(x), IVal::U(y)) = (&l, &r) {
            return match f(*x, *y) {
                Ok(v) => IVal::U(v),
                Err(err) => {
                    self.fail(lanes, err);
                    IVal::U(0)
                }
            };
        }
        let mut out = self.take_ints();
        let mut first: Fault = None;
        zip(
            iopd(&self.cols, &l),
            iopd(&self.cols, &r),
            lanes,
            &mut out,
            |t, x, y| {
                f(x, y).unwrap_or_else(|err| {
                    note(&mut first, t, err);
                    0
                })
            },
        );
        self.merge(first);
        self.free_int(l);
        self.free_int(r);
        IVal::Tmp(out)
    }

    fn eval_int(&mut self, e: &IExpr, lanes: &[usize]) -> IVal {
        match e {
            IExpr::Const(v) => IVal::U(*v),
            IExpr::Local(slot) => self.local(*slot),
            IExpr::Bin(op, l, r) => {
                let l = self.eval_int(l, lanes);
                let r = self.eval_int(r, lanes);
                self.int_op(lanes, l, r, |x, y| int_bin(*op, x, y))
            }
            IExpr::Min(l, r) => {
                let l = self.eval_int(l, lanes);
                let r = self.eval_int(r, lanes);
                self.int_op(lanes, l, r, |x, y| Ok(x.min(y)))
            }
            IExpr::Cond(c, t, f) => {
                let c = match self.eval_int(c, lanes) {
                    IVal::U(v) => return self.eval_int(if v != 0 { t } else { f }, lanes),
                    c => c,
                };
                let (yes, no) = self.split(c, lanes);
                let v = match (yes.len(), no.len()) {
                    (_, 0) => self.eval_int(t, lanes),
                    (0, _) => self.eval_int(f, lanes),
                    _ => {
                        let mut out = self.take_ints();
                        for (branch, sub) in [(t, &yes), (f, &no)] {
                            let v = self.eval_int(branch, sub);
                            let col = iopd(&self.cols, &v);
                            for &lane in sub.iter() {
                                out[lane] = col.at(lane);
                            }
                            self.free_int(v);
                        }
                        IVal::Tmp(out)
                    }
                };
                self.lane_lists.extend([yes, no]);
                v
            }
            IExpr::Fail(operands, err) => {
                self.eval_operands(operands, lanes);
                self.fail(lanes, err.clone());
                IVal::U(0)
            }
        }
    }

    fn eval_operands(&mut self, operands: &[AnyExpr], lanes: &[usize]) {
        for operand in operands {
            match operand {
                AnyExpr::I(e) => {
                    let v = self.eval_int(e, lanes);
                    self.free_int(v);
                }
                AnyExpr::F(e) => {
                    let v = self.eval_float(e, lanes);
                    self.free_float(v);
                }
            }
        }
    }

    /// Partitions `lanes` by the truth of the column `c` into (taken,
    /// untaken).
    fn split(&mut self, c: IVal, lanes: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let mut yes = self.take_lanes();
        let mut no = self.take_lanes();
        let col = iopd(&self.cols, &c);
        for &t in lanes {
            if col.at(t) != 0 {
                yes.push(t);
            } else {
                no.push(t);
            }
        }
        self.free_int(c);
        (yes, no)
    }

    fn eval_float(&mut self, e: &FExpr, lanes: &[usize]) -> FVal<T> {
        match e {
            FExpr::Load(r, off) => {
                let off = self.eval_int(off, lanes);
                let v = self.load(r, &off, lanes);
                self.free_int(off);
                v
            }
            FExpr::FromInt(i) => match self.eval_int(i, lanes) {
                IVal::U(v) => FVal::U(T::from_f64(v as f64)),
                v => {
                    let mut out = self.take_floats();
                    let col = iopd(&self.cols, &v);
                    for &t in lanes {
                        out[t] = T::from_f64(col.at(t) as f64);
                    }
                    self.free_int(v);
                    FVal::Tmp(out)
                }
            },
            FExpr::Bin(op, l, r) => {
                let l = self.eval_float(l, lanes);
                let r = self.eval_float(r, lanes);
                let f = |x: T, y: T| match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    _ => x * y,
                };
                if let (FVal::U(x), FVal::U(y)) = (&l, &r) {
                    return FVal::U(f(*x, *y));
                }
                let mut out = self.take_floats();
                let (a, b) = (fopd(&self.regs, self.n, &l), fopd(&self.regs, self.n, &r));
                match op {
                    BinOp::Add => zip(a, b, lanes, &mut out, |_, x, y| x + y),
                    BinOp::Sub => zip(a, b, lanes, &mut out, |_, x, y| x - y),
                    _ => zip(a, b, lanes, &mut out, |_, x, y| x * y),
                }
                self.free_float(l);
                self.free_float(r);
                FVal::Tmp(out)
            }
            FExpr::Cond(c, t, f) => {
                let c = match self.eval_int(c, lanes) {
                    IVal::U(v) => return self.eval_float(if v != 0 { t } else { f }, lanes),
                    c => c,
                };
                let (yes, no) = self.split(c, lanes);
                let v = match (yes.len(), no.len()) {
                    (_, 0) => self.eval_float(t, lanes),
                    (0, _) => self.eval_float(f, lanes),
                    _ => {
                        let mut out = self.take_floats();
                        for (branch, sub) in [(t, &yes), (f, &no)] {
                            let v = self.eval_float(branch, sub);
                            let col = fopd(&self.regs, self.n, &v);
                            for &lane in sub.iter() {
                                out[lane] = col.at(lane);
                            }
                            self.free_float(v);
                        }
                        FVal::Tmp(out)
                    }
                };
                self.lane_lists.extend([yes, no]);
                v
            }
            FExpr::Fail(operands, err) => {
                self.eval_operands(operands, lanes);
                self.fail(lanes, err.clone());
                FVal::U(T::ZERO)
            }
        }
    }

    fn load(&mut self, r: &ArrRef, off: &IVal, lanes: &[usize]) -> FVal<T> {
        let n = self.n;
        let (data, len, reg): (&[T], usize, Option<usize>) = match r.arr {
            Arr::A => (self.a, self.a.len(), None),
            Arr::B => (self.b, self.b.len(), None),
            Arr::C => (&self.c, self.c.len(), None),
            Arr::Smem(s) => (&self.smem[s], self.smem[s].len(), None),
            Arr::Reg(reg) => (&self.regs[reg], self.reg_lens[reg], Some(reg)),
            Arr::Missing => {
                let name = r.name.clone();
                self.fail(lanes, KirError::UndefinedArray { name });
                return FVal::U(T::ZERO);
            }
        };
        match iopd(&self.cols, off) {
            Opd::U(o) => match (index(o, len), reg) {
                (Some(e), Some(reg)) => FVal::Reg(reg, e),
                (Some(i), None) => FVal::U(data[i]),
                (None, _) => {
                    self.fail(lanes, out_of_bounds(r, o, len));
                    FVal::U(T::ZERO)
                }
            },
            Opd::C(offs) => {
                let mut out = self.floats.pop().unwrap_or_else(|| vec![T::ZERO; n]);
                let mut first: Fault = None;
                for &t in lanes {
                    out[t] = match index(offs[t], len) {
                        Some(i) => data[if reg.is_some() { i * n + t } else { i }],
                        None => {
                            note(&mut first, t, out_of_bounds(r, offs[t], len));
                            T::ZERO
                        }
                    };
                }
                self.merge(first);
                FVal::Tmp(out)
            }
        }
    }

    /// Resets the block-scoped state: locals, shared tiles, registers.
    fn start_block(&mut self, block: i64) {
        for (u, init) in self
            .uniform
            .iter_mut()
            .zip(&self.initial)
            .skip(BLOCK_ID + 1)
        {
            *u = Some(*init);
        }
        self.uniform[BLOCK_ID] = Some(block);
        for tile in self.smem.iter_mut().chain(self.regs.iter_mut()) {
            tile.fill(T::ZERO);
        }
    }

    /// Applies `r[off] op= v` for every lane, in ascending lane order.
    fn store(&mut self, r: &ArrRef, off: &IVal, op: AssignOp, v: FVal<T>, lanes: &[usize]) {
        let n = self.n;
        let v = match v {
            // Copying a register into itself must read before writing.
            FVal::Reg(reg, e) if r.arr == Arr::Reg(reg) => {
                let mut col = self.take_floats();
                col.copy_from_slice(&self.regs[reg][e * n..(e + 1) * n]);
                FVal::Tmp(col)
            }
            v => v,
        };
        // The target is taken out of the machine while the operands,
        // which may read other arrays, stay borrowed from it.
        let (mut data, len, reg) = match r.arr {
            Arr::C => {
                let data = std::mem::take(&mut self.c);
                let len = data.len();
                (data, len, false)
            }
            Arr::Smem(s) => {
                let data = std::mem::take(&mut self.smem[s]);
                let len = data.len();
                (data, len, false)
            }
            Arr::Reg(reg) => (
                std::mem::take(&mut self.regs[reg]),
                self.reg_lens[reg],
                true,
            ),
            Arr::A | Arr::B | Arr::Missing => {
                let name = r.name.clone();
                self.fail(lanes, KirError::UndefinedArray { name });
                self.free_float(v);
                return;
            }
        };
        let offs = iopd(&self.cols, off);
        let vals = fopd(&self.regs, n, &v);
        let mut first: Fault = None;
        match (offs, op) {
            (_, AssignOp::DivAssign) => {
                for &t in lanes {
                    let o = offs.at(t);
                    let err = match index(o, len) {
                        Some(_) => KirError::TypeMismatch {
                            detail: "/= on array element".into(),
                        },
                        None => out_of_bounds(r, o, len),
                    };
                    note(&mut first, t, err);
                }
            }
            // A register element every lane agrees on: one column.
            (Opd::U(o), _) if reg && index(o, len).is_some() => {
                let e = o as usize;
                let col = &mut data[e * n..(e + 1) * n];
                match (op, vals) {
                    (AssignOp::Assign, Opd::U(x)) => lanes.iter().for_each(|&t| col[t] = x),
                    (AssignOp::Assign, Opd::C(xs)) => lanes.iter().for_each(|&t| col[t] = xs[t]),
                    (_, Opd::U(x)) => lanes.iter().for_each(|&t| col[t] += x),
                    (_, Opd::C(xs)) => lanes.iter().for_each(|&t| col[t] += xs[t]),
                }
            }
            _ => {
                for &t in lanes {
                    let o = offs.at(t);
                    let Some(i) = index(o, len) else {
                        note(&mut first, t, out_of_bounds(r, o, len));
                        continue;
                    };
                    let slot = &mut data[if reg { i * n + t } else { i }];
                    if op == AssignOp::Assign {
                        *slot = vals.at(t);
                    } else {
                        *slot += vals.at(t);
                    }
                }
            }
        }
        match r.arr {
            Arr::C => self.c = data,
            Arr::Smem(s) => self.smem[s] = data,
            Arr::Reg(reg) => self.regs[reg] = data,
            Arr::A | Arr::B | Arr::Missing => {}
        }
        self.merge(first);
        self.free_float(v);
    }

    /// Writes `v` into `slot` for `lanes`, keeping the slot uniform when
    /// every thread of the block receives the same value.
    fn set_local(&mut self, slot: Slot, v: IVal, lanes: &[usize]) {
        let full = lanes.len() == self.n;
        match v {
            IVal::U(x) if full || self.uniform[slot] == Some(x) => self.uniform[slot] = Some(x),
            IVal::Tmp(col) if full => {
                self.uniform[slot] = None;
                let old = std::mem::replace(&mut self.cols[slot], col);
                if old.len() == self.n {
                    self.ints.push(old);
                }
            }
            IVal::Local(src) if src == slot => {}
            v => {
                if let Some(x) = self.uniform[slot].take() {
                    let col = &mut self.cols[slot];
                    col.clear();
                    col.resize(self.n, x);
                }
                // Take the destination out so the source can be borrowed.
                let mut dst = std::mem::take(&mut self.cols[slot]);
                let src = iopd(&self.cols, &v);
                for &t in lanes {
                    dst[t] = src.at(t);
                }
                self.cols[slot] = dst;
                self.free_int(v);
            }
        }
    }

    fn item(&mut self, item: &Item, lanes: &[usize]) {
        match item {
            Item::Set(slot, op, e) => {
                let v = self.eval_int(e, lanes);
                let v = match op {
                    AssignOp::Assign => v,
                    AssignOp::AddAssign => {
                        self.int_op(lanes, self.local(*slot), v, |x, y| Ok(x + y))
                    }
                    AssignOp::DivAssign => self.int_op(lanes, self.local(*slot), v, |x, y| {
                        int_bin(BinOp::Div, x, y)
                    }),
                };
                self.set_local(*slot, v, lanes);
            }
            Item::Store(r, off, op, value) => {
                let off = self.eval_int(off, lanes);
                let v = self.eval_float(value, lanes);
                self.store(r, &off, *op, v, lanes);
                self.free_int(off);
            }
            Item::Eval(e) => {
                let v = self.eval_int(e, lanes);
                self.free_int(v);
            }
        }
    }

    fn exec(&mut self, ops: &[Op], lanes: &[usize]) -> Result<(), KirError> {
        for op in ops {
            self.exec_op(op, lanes)?;
        }
        Ok(())
    }

    fn exec_op(&mut self, op: &Op, lanes: &[usize]) -> Result<(), KirError> {
        match op {
            Op::Line(items) => {
                for item in items {
                    self.item(item, lanes);
                }
                self.check()
            }
            Op::Serial(items) => {
                for &t in lanes {
                    for item in items {
                        self.item(item, &[t]);
                    }
                    self.check()?;
                }
                Ok(())
            }
            Op::If(cond, then, els) => {
                let c = self.eval_int(cond, lanes);
                self.check()?;
                if let IVal::U(v) = c {
                    return self.exec(if v != 0 { then } else { els }, lanes);
                }
                let (yes, no) = self.split(c, lanes);
                if !yes.is_empty() {
                    self.exec(then, &yes)?;
                }
                if !no.is_empty() {
                    self.exec(els, &no)?;
                }
                self.lane_lists.extend([yes, no]);
                Ok(())
            }
            Op::For {
                var,
                init,
                limit,
                step,
                body,
            } => {
                let v = self.eval_int(init, lanes);
                self.check()?;
                self.set_local(*var, v, lanes);
                // The threads still iterating; `None` while that is all of
                // `lanes`. A thread that leaves never returns: its locals,
                // and so its loop condition, no longer change.
                let mut still: Option<Vec<usize>> = None;
                loop {
                    let active = still.as_deref().unwrap_or(lanes);
                    let lim = self.eval_int(limit, active);
                    let test =
                        self.int_op(active, self.local(*var), lim, |x, y| Ok(i64::from(x < y)));
                    self.check()?;
                    match test {
                        IVal::U(0) => break,
                        IVal::U(_) => {}
                        test => {
                            let (stay, leave) = self.split(test, active);
                            self.lane_lists.push(leave);
                            if stay.is_empty() {
                                self.lane_lists.push(stay);
                                break;
                            }
                            if stay.len() < active.len() {
                                if let Some(old) = still.replace(stay) {
                                    self.lane_lists.push(old);
                                }
                            } else {
                                self.lane_lists.push(stay);
                            }
                        }
                    }
                    let active = still.as_deref().unwrap_or(lanes);
                    self.exec(body, active)?;
                    let delta = match step {
                        None => IVal::U(1),
                        Some(e) => self.eval_int(e, active),
                    };
                    let next = self.int_op(active, self.local(*var), delta, |x, y| Ok(x + y));
                    self.check()?;
                    self.set_local(*var, next, active);
                }
                if let Some(old) = still {
                    self.lane_lists.push(old);
                }
                Ok(())
            }
            Op::VecCopy {
                width,
                dst,
                dst_off,
                src,
                src_off,
                serial,
            } => {
                if *serial {
                    for &t in lanes {
                        self.vec_copy(*width, dst, dst_off, src, src_off, &[t]);
                        self.check()?;
                    }
                    Ok(())
                } else {
                    self.vec_copy(*width, dst, dst_off, src, src_off, lanes);
                    self.check()
                }
            }
        }
    }

    /// `width` consecutive scalar copies `dst[d + k] = src[s + k]`, with
    /// the scalar bounds checks, so a misaligned rewrite still faults.
    fn vec_copy(
        &mut self,
        width: i64,
        dst: &ArrRef,
        dst_off: &IExpr,
        src: &ArrRef,
        src_off: &IExpr,
        lanes: &[usize],
    ) {
        let d0 = self.eval_int(dst_off, lanes);
        let s0 = self.eval_int(src_off, lanes);
        for k in 0..width {
            let so = self.shifted(&s0, k, lanes);
            let v = self.load(src, &so, lanes);
            self.free_int(so);
            let dof = self.shifted(&d0, k, lanes);
            self.store(dst, &dof, AssignOp::Assign, v, lanes);
            self.free_int(dof);
        }
        self.free_int(d0);
        self.free_int(s0);
    }

    fn shifted(&mut self, base: &IVal, k: i64, lanes: &[usize]) -> IVal {
        match iopd(&self.cols, base) {
            Opd::U(x) => IVal::U(x + k),
            Opd::C(col) => {
                let mut out = self.ints.pop().unwrap_or_else(|| vec![0; self.n]);
                for &t in lanes {
                    out[t] = col[t] + k;
                }
                IVal::Tmp(out)
            }
        }
    }
}

fn shape_of(indices: &[IndexName], sizes: &SizeMap) -> Result<Vec<usize>, KirError> {
    indices
        .iter()
        .map(|i| {
            sizes
                .extent(i.as_str())
                .ok_or_else(|| KirError::MissingExtent { index: i.clone() })
        })
        .collect()
}

fn dims_of(
    dims: &[Expr],
    name: &str,
    globals: &HashMap<String, i64>,
) -> Result<Vec<usize>, KirError> {
    dims.iter()
        .map(|d| {
            let v = eval_const(d, globals)?;
            usize::try_from(v).map_err(|_| KirError::TypeMismatch {
                detail: format!("negative array dimension in {name}"),
            })
        })
        .collect()
}

/// Runs the kernel program over the given inputs and returns the output
/// tensor, shaped by the program's C indices under `sizes`.
///
/// # Errors
///
/// Any [`KirError`]: missing extents, shape mismatches between the inputs
/// and `sizes`, or a malformed tree (undefined symbols, out-of-bounds
/// accesses — which a correctly lowered program never produces).
pub fn interpret<T: Element>(
    prog: &KernelProgram,
    sizes: &SizeMap,
    a: &DenseTensor<T>,
    b: &DenseTensor<T>,
) -> Result<DenseTensor<T>, KirError> {
    let mut globals: HashMap<String, i64> = HashMap::new();
    for indices in [&prog.shapes.c, &prog.shapes.a, &prog.shapes.b] {
        for idx in indices.iter() {
            let extent = sizes
                .extent(idx.as_str())
                .ok_or_else(|| KirError::MissingExtent { index: idx.clone() })?;
            globals.insert(format!("N_{idx}"), extent as i64);
        }
    }
    for d in &prog.defines {
        let v = eval_const(&d.value, &globals)?;
        globals.insert(d.name.clone(), v);
    }

    let a_shape = shape_of(&prog.shapes.a, sizes)?;
    let b_shape = shape_of(&prog.shapes.b, sizes)?;
    let c_shape = shape_of(&prog.shapes.c, sizes)?;
    for (name, shape, len) in [("g_A", &a_shape, a.len()), ("g_B", &b_shape, b.len())] {
        let expected: usize = shape.iter().product();
        if expected != len {
            return Err(KirError::ShapeMismatch {
                tensor: name.into(),
                expected,
                got: len,
            });
        }
    }

    let get = |name: &str| -> Result<i64, KirError> {
        globals
            .get(name)
            .copied()
            .ok_or_else(|| KirError::UndefinedSymbol { name: name.into() })
    };
    let mut num_blocks: i64 = 1;
    for (n_sym, t_sym) in &prog.launch.grid_tiles {
        let n = get(n_sym)?;
        let t = get(t_sym)?;
        if t == 0 {
            return Err(KirError::DivisionByZero);
        }
        num_blocks *= (n + t - 1) / t;
    }
    let tbx = get(&prog.launch.block.0)?;
    let tby = get(&prog.launch.block.1)?;

    // Later declarations of a name replace earlier ones.
    let mut reg_dims: HashMap<String, Vec<usize>> = HashMap::new();
    for decl in &prog.regs {
        reg_dims.insert(
            decl.name.clone(),
            dims_of(&decl.dims, &decl.name, &globals)?,
        );
    }
    let mut smem_lens: Vec<(String, usize)> = Vec::new();
    for decl in &prog.smem {
        let len = dims_of(&decl.dims, &decl.name, &globals)?.iter().product();
        smem_lens.push((decl.name.clone(), len));
    }
    let smem: HashMap<String, usize> = smem_lens
        .iter()
        .enumerate()
        .map(|(k, (name, _))| (name.clone(), k))
        .collect();
    let mut reg_names: Vec<&String> = reg_dims.keys().collect();
    reg_names.sort();
    let regs: HashMap<String, usize> = reg_names
        .iter()
        .enumerate()
        .map(|(k, name)| ((*name).clone(), k))
        .collect();
    let reg_lens: Vec<usize> = reg_names
        .iter()
        .map(|name| reg_dims[*name].iter().product())
        .collect();

    let mut names = Vec::new();
    declared_locals(&prog.body, &mut names);
    let slots: HashMap<String, Slot> = names
        .iter()
        .enumerate()
        .map(|(k, name)| (name.clone(), BLOCK_ID + 1 + k))
        .collect();
    let nslots = BLOCK_ID + 1 + names.len();
    let mut initial = vec![0; nslots];
    for (name, slot) in &slots {
        initial[*slot] = globals.get(name).copied().unwrap_or(0);
    }
    let mut declared = vec![false; nslots];
    declared[..=BLOCK_ID].fill(true);
    let mut resolver = Resolver {
        globals: &globals,
        slots,
        reg_dims: &reg_dims,
        regs,
        smem,
        declared,
    };
    let body = resolver.block(&prog.body);

    let (tbx, tby) = (tbx.max(0) as usize, tby.max(0) as usize);
    let n = tbx * tby;
    let mut cols = vec![Vec::new(); nslots];
    cols[TID_X] = (0..n).map(|t| (t % tbx.max(1)) as i64).collect();
    cols[TID_Y] = (0..n).map(|t| (t / tbx.max(1)) as i64).collect();
    let c_len: usize = c_shape.iter().product();
    let mut machine = Machine {
        n,
        uniform: vec![None; nslots],
        cols,
        initial,
        a: a.as_slice(),
        b: b.as_slice(),
        c: vec![T::ZERO; c_len],
        smem: smem_lens
            .iter()
            .map(|(_, len)| vec![T::ZERO; *len])
            .collect(),
        regs: reg_lens.iter().map(|len| vec![T::ZERO; len * n]).collect(),
        reg_lens,
        ints: Vec::new(),
        floats: Vec::new(),
        lane_lists: Vec::new(),
        fault: None,
    };
    if n > 0 {
        let all: Vec<usize> = (0..n).collect();
        for block in 0..num_blocks {
            machine.start_block(block);
            machine.exec(&body, &all)?;
        }
    }

    Ok(DenseTensor::from_vec(&c_shape, machine.c))
}

/// Lowers `plan` and interprets the resulting program at the plan's own
/// extents — the one-call entry point for differential checks.
///
/// # Errors
///
/// Same as [`lower_to_kir`] and [`interpret`].
pub fn interpret_plan<T: Element>(
    plan: &KernelPlan,
    a: &DenseTensor<T>,
    b: &DenseTensor<T>,
) -> Result<DenseTensor<T>, KirError> {
    let prog = lower_to_kir(plan)?;
    let sizes = SizeMap::from_pairs(plan.bindings().iter().map(|b| (b.name.as_str(), b.extent)));
    interpret(&prog, &sizes, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogent_gpu_sim::plan::{IndexBinding, MapDim};
    use cogent_gpu_sim::try_execute_plan;
    use cogent_ir::Contraction;
    use cogent_tensor::reference::{contract_reference, random_inputs};

    fn check(plan: &KernelPlan, seed: u64) {
        let sizes =
            SizeMap::from_pairs(plan.bindings().iter().map(|b| (b.name.as_str(), b.extent)));
        let (a, b) = random_inputs::<f64>(plan.contraction(), &sizes, seed);
        let got = interpret_plan(plan, &a, &b).unwrap();
        let want = contract_reference(plan.contraction(), &sizes, &a, &b);
        assert!(
            got.approx_eq(&want, 1e-11),
            "interpreter diverges from reference: {:e}",
            got.max_abs_diff(&want)
        );
        let exec = try_execute_plan(plan, &a, &b).unwrap();
        assert!(
            got.approx_eq(&exec, 1e-12),
            "interpreter diverges from executor: {:e}",
            got.max_abs_diff(&exec)
        );
    }

    #[test]
    fn matmul_matches_reference_and_executor() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let plan = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 9, 4, MapDim::ThreadX),
                IndexBinding::new("j", 7, 4, MapDim::ThreadY),
                IndexBinding::new("k", 5, 2, MapDim::SerialK),
            ],
        )
        .unwrap();
        check(&plan, 3);
    }

    #[test]
    fn ragged_eq1_matches_reference_and_executor() {
        let tc: Contraction = "abcd-aebf-dfce".parse().unwrap();
        let plan = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("a", 7, 2, MapDim::ThreadX),
                IndexBinding::new("b", 6, 2, MapDim::RegX),
                IndexBinding::new("c", 7, 2, MapDim::ThreadY),
                IndexBinding::new("d", 5, 2, MapDim::RegY),
                IndexBinding::new("e", 6, 4, MapDim::SerialK),
                IndexBinding::new("f", 5, 2, MapDim::SerialK),
            ],
        )
        .unwrap();
        check(&plan, 9);
    }

    #[test]
    fn grid_mapped_and_accumulate_modes() {
        use cogent_gpu_sim::plan::StoreMode;
        let tc: Contraction = "abc-bda-dc".parse().unwrap();
        let plan = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("a", 6, 2, MapDim::ThreadX),
                IndexBinding::new("b", 5, 1, MapDim::Grid),
                IndexBinding::new("c", 4, 2, MapDim::ThreadY),
                IndexBinding::new("d", 5, 2, MapDim::SerialK),
            ],
        )
        .unwrap();
        check(&plan, 5);

        // Accumulate mode adds onto the (zero-initialized) output.
        let acc = plan.clone().with_store_mode(StoreMode::Accumulate);
        let sizes = SizeMap::from_pairs(acc.bindings().iter().map(|b| (b.name.as_str(), b.extent)));
        let (a, b) = random_inputs::<f64>(acc.contraction(), &sizes, 5);
        let got = interpret_plan(&acc, &a, &b).unwrap();
        let want = contract_reference(acc.contraction(), &sizes, &a, &b);
        assert!(got.approx_eq(&want, 1e-11));
    }

    #[test]
    fn missing_extent_is_a_typed_error() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let plan = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 4, 2, MapDim::ThreadX),
                IndexBinding::new("j", 4, 2, MapDim::ThreadY),
                IndexBinding::new("k", 4, 2, MapDim::SerialK),
            ],
        )
        .unwrap();
        let prog = lower_to_kir(&plan).unwrap();
        let sizes = SizeMap::from_pairs([("i", 4), ("j", 4)]);
        let a = DenseTensor::<f64>::zeros(&[4, 4]);
        let b = DenseTensor::<f64>::zeros(&[4, 4]);
        assert!(matches!(
            interpret(&prog, &sizes, &a, &b),
            Err(KirError::MissingExtent { .. })
        ));
    }

    /// Runs the 4×4×4 matmul program with `stmt` prepended to its body.
    fn run_with(stmt: Stmt) -> Result<DenseTensor<f64>, KirError> {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let plan = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 4, 2, MapDim::ThreadX),
                IndexBinding::new("j", 4, 2, MapDim::ThreadY),
                IndexBinding::new("k", 4, 2, MapDim::SerialK),
            ],
        )
        .unwrap();
        let mut prog = lower_to_kir(&plan).unwrap();
        prog.body.insert(0, stmt);
        let sizes = SizeMap::from_pairs([("i", 4), ("j", 4), ("k", 4)]);
        let (a, b) = random_inputs::<f64>(&tc, &sizes, 1);
        interpret(&prog, &sizes, &a, &b)
    }

    fn decl(name: &str, init: Expr) -> Stmt {
        Stmt::Line(vec![LineItem::DeclInt {
            name: name.into(),
            init,
            mutable: true,
        }])
    }

    #[test]
    fn malformed_programs_fail_with_typed_errors() {
        assert_eq!(
            run_with(decl("x", Expr::sym("nowhere"))).unwrap_err(),
            KirError::UndefinedSymbol {
                name: "nowhere".into()
            }
        );
        assert_eq!(
            run_with(decl("x", Expr::bin(BinOp::Div, Expr::TidX, Expr::Int(0)))).unwrap_err(),
            KirError::DivisionByZero
        );
        assert_eq!(
            run_with(decl(
                "x",
                Expr::bin(
                    BinOp::Mod,
                    Expr::Int(1),
                    Expr::bin(BinOp::Sub, Expr::TidX, Expr::TidX)
                ),
            ))
            .unwrap_err(),
            KirError::DivisionByZero
        );
        assert_eq!(
            run_with(decl("x", Expr::Index("r_C".into(), vec![Expr::Int(0)]))).unwrap_err(),
            KirError::ArityMismatch {
                array: "r_C".into(),
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            run_with(decl("x", Expr::Index("g_A".into(), vec![Expr::Int(0)]))).unwrap_err(),
            KirError::TypeMismatch {
                detail: "floating value in integer position".into()
            }
        );
        assert_eq!(
            run_with(decl("x", Expr::Index("nope".into(), vec![Expr::Int(0)]))).unwrap_err(),
            KirError::UndefinedArray {
                name: "nope".into()
            }
        );
        // Thread 1 is the first to step outside g_A's 16 elements.
        let store = Stmt::Line(vec![LineItem::Assign {
            target: LValue::Elem("s_A".into(), vec![Expr::Int(0)]),
            op: AssignOp::Assign,
            value: Expr::Index(
                "g_A".into(),
                vec![Expr::bin(BinOp::Add, Expr::Int(15), Expr::TidX)],
            ),
        }]);
        assert_eq!(
            run_with(store).unwrap_err(),
            KirError::OutOfBounds {
                array: "g_A".into(),
                offset: 16,
                len: 16
            }
        );
        let store = Stmt::Line(vec![LineItem::Assign {
            target: LValue::Elem(
                "s_B".into(),
                vec![Expr::bin(BinOp::Sub, Expr::TidY, Expr::Int(1))],
            ),
            op: AssignOp::Assign,
            value: Expr::Int(1),
        }]);
        assert_eq!(
            run_with(store).unwrap_err(),
            KirError::OutOfBounds {
                array: "s_B".into(),
                offset: -1,
                len: 4
            }
        );
        // Assigning a local that was never declared is an undefined symbol
        // even when the right-hand side is fine.
        let assign = Stmt::Line(vec![LineItem::Assign {
            target: LValue::Var("undeclared".into()),
            op: AssignOp::AddAssign,
            value: Expr::Int(1),
        }]);
        assert_eq!(
            run_with(assign).unwrap_err(),
            KirError::UndefinedSymbol {
                name: "undeclared".into()
            }
        );
    }

    /// Within one statement, the error reported is the one the lowest
    /// thread meets first, whatever the other threads run into.
    #[test]
    fn the_first_failing_thread_names_the_error() {
        // Thread (0,0) divides by zero; every other thread loads out of
        // bounds first, in the left operand.
        let init = Expr::bin(
            BinOp::Add,
            Expr::Cond(
                Box::new(Expr::bin(
                    BinOp::Lt,
                    Expr::Int(0),
                    Expr::bin(BinOp::Add, Expr::TidX, Expr::TidY),
                )),
                Box::new(Expr::Index("g_A".into(), vec![Expr::Int(1000)])),
                Box::new(Expr::Int(0)),
            ),
            Expr::bin(
                BinOp::Div,
                Expr::Int(1),
                Expr::bin(BinOp::Add, Expr::TidX, Expr::TidY),
            ),
        );
        assert_eq!(
            run_with(decl("x", init)).unwrap_err(),
            KirError::DivisionByZero
        );
        let line = Stmt::Line(vec![
            LineItem::DeclInt {
                name: "x".into(),
                init: Expr::bin(BinOp::Div, Expr::Int(1), Expr::TidX),
                mutable: true,
            },
            LineItem::DeclInt {
                name: "y".into(),
                init: Expr::Min(Box::new(Expr::Int(0)), Box::new(Expr::sym("missing"))),
                mutable: true,
            },
        ]);
        assert_eq!(
            run_with(line).unwrap_err(),
            KirError::DivisionByZero,
            "thread 0 fails in the first item before anyone reaches the second"
        );
    }
}
