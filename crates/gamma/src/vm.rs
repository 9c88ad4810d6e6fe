//! Tiered bytecode VM for guard and action expressions.
//!
//! Guard evaluation is the per-token hot path of the matchers: the Rete
//! network evaluates pushed-down conjuncts on every candidate token, and
//! the benchmarks record millions of guard rejects per thousand firings
//! on the sieve workloads. This module compiles each reaction's guard
//! conjuncts and action expressions from the [`Expr`] tree into compact
//! stack bytecode — a [`Chunk`] of [`Opcode`]s plus a constant pool —
//! and dispatches it with an `i64`-specialised loop that falls back to a
//! generic [`Value`] loop for non-integer operands.
//!
//! # Semantics contract
//!
//! The VM changes *how* an expression is evaluated, never *what* it
//! evaluates to. For every expression, environment, and tier,
//! [`Chunk::eval`] returns exactly what [`Expr::eval`] returns —
//! including the error payloads ([`EvalError::Unbound`] with the same
//! symbol, [`ValueError::DivisionByZero`], the same rendered type
//! errors). Compilation is a postorder walk, so the linear execution
//! order visits operands exactly as the tree walk does and the *first*
//! runtime error is the same error. Division/modulo by zero is a defined
//! evaluation error on both paths (guard context treats any evaluation
//! error as "condition does not hold"; action context surfaces it), so
//! no input can panic either evaluator. The differential property suite
//! (`tests/vm_equivalence.rs`) pins this contract with random trees.
//!
//! # Tiering
//!
//! Reactions start on a **baseline** compile: a direct translation of
//! the tree. Once a reaction's cumulative profile (fired count plus
//! guard evaluations, from the session's
//! [`ProfileTable`](crate::telemetry::ProfileTable)) crosses
//! [`EngineConfig::vm_tier_threshold`](crate::session::EngineConfig::vm_tier_threshold),
//! the session re-compiles it with the **optimising** pass ([`fold`]:
//! constant folding plus semantics-preserving algebraic simplification)
//! at the next wave boundary — never mid-wave, so determinism is
//! untouched. Because both tiers satisfy the semantics contract, traces
//! and final multisets are byte-identical at every tier.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gammaflow_multiset::value::{BinOp, CmpOp, UnOp, ValueError};
use gammaflow_multiset::{FxHashMap, Symbol, Value};
use serde::{Deserialize, Serialize};

use crate::compiled::GuardPlan;
use crate::expr::{EvalError, Expr};
use crate::spec::{Guard, LabelSpec, ReactionSpec, TagSpec};

/// How compiled reactions evaluate guard and action expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GuardEvalMode {
    /// Walk the [`Expr`] tree (the pre-VM reference path, kept for A/B
    /// benchmarking and the differential/conservation test suites).
    Tree,
    /// Dispatch compiled bytecode (the default).
    #[default]
    Vm,
}

/// Which compile a reaction's chunks currently come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Direct postorder translation of the expression trees.
    Baseline,
    /// Re-compiled through the [`fold`] optimising pass after the
    /// reaction's profile crossed the tier threshold.
    Optimized,
}

/// One bytecode instruction. The machine is a pure stack machine:
/// operands are pushed, operators pop and push. Adding a variant is a
/// compile error in the dispatch loops and the disassembler (no
/// wildcard arms), and the `vm_pins` tests fail until the new opcode is
/// exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Push constant-pool entry `.0`.
    Const(u16),
    /// Push binding slot `.0` (the VM-register image of a variable);
    /// an unbound slot is [`EvalError::Unbound`].
    Load(u16),
    /// Pop two operands, push [`Value::binop`] of them.
    Bin(BinOp),
    /// Pop two operands, push [`Value::cmp_op`] of them.
    Cmp(CmpOp),
    /// Pop one operand, push [`Value::unop`] of it.
    Un(UnOp),
}

/// Fixed stack depth of the `i64`-specialised dispatch loop; deeper
/// chunks (pathological, guards are small) run on the generic loop only.
const INT_STACK: usize = 24;

/// A compiled expression: bytecode plus constant pool, evaluated against
/// binding slots with an optional overlay of fresh bindings.
#[derive(Debug, Clone)]
pub struct Chunk {
    code: Vec<Opcode>,
    consts: Vec<Value>,
    /// Exact stack high-water mark of `code` (postorder compilation
    /// makes this the tree's operand depth).
    max_stack: usize,
    /// Every pool constant is `Int`/`Bool`, so the `i64` loop can host
    /// the whole evaluation unless a *slot* holds a float or string.
    int_ok: bool,
    /// Slot → variable symbol, for exact [`EvalError::Unbound`] payloads
    /// (shared across all of a reaction's chunks).
    slot_syms: Arc<[Symbol]>,
}

/// Cell of the `i64`-specialised evaluation stack.
#[derive(Debug, Clone, Copy)]
enum ICell {
    I(i64),
    B(bool),
}

impl ICell {
    #[inline]
    fn to_value(self) -> Value {
        match self {
            ICell::I(x) => Value::Int(x),
            ICell::B(b) => Value::Bool(b),
        }
    }
}

/// Invert a variable table into a dense slot → symbol array (slots are
/// interned densely at reaction compile time).
pub fn slot_table(var_index: &FxHashMap<Symbol, u16>) -> Arc<[Symbol]> {
    let mut syms = vec![Symbol::intern(""); var_index.len()];
    for (s, &i) in var_index {
        syms[i as usize] = *s;
    }
    syms.into()
}

impl Chunk {
    /// Compile `e` against a variable table (building the slot-name
    /// table internally; use [`Chunk::compile_with_slots`] to share one
    /// across a reaction's chunks).
    pub fn compile(e: &Expr, var_index: &FxHashMap<Symbol, u16>) -> Chunk {
        Chunk::compile_with_slots(e, var_index, slot_table(var_index))
    }

    /// Compile `e`, reusing an inverted slot-name table.
    pub fn compile_with_slots(
        e: &Expr,
        var_index: &FxHashMap<Symbol, u16>,
        slot_syms: Arc<[Symbol]>,
    ) -> Chunk {
        let mut chunk = Chunk {
            code: Vec::with_capacity(e.size()),
            consts: Vec::new(),
            max_stack: 0,
            int_ok: true,
            slot_syms,
        };
        let mut depth = 0usize;
        chunk.emit(e, var_index, &mut depth);
        chunk.int_ok = chunk
            .consts
            .iter()
            .all(|c| matches!(c, Value::Int(_) | Value::Bool(_)));
        chunk
    }

    fn emit(&mut self, e: &Expr, var_index: &FxHashMap<Symbol, u16>, depth: &mut usize) {
        match e {
            Expr::Lit(v) => {
                let idx = match self.consts.iter().position(|c| c == v) {
                    Some(i) => i,
                    None => {
                        self.consts.push(v.clone());
                        self.consts.len() - 1
                    }
                };
                self.code.push(Opcode::Const(idx as u16));
                *depth += 1;
                self.max_stack = self.max_stack.max(*depth);
            }
            Expr::Var(s) => {
                self.code.push(Opcode::Load(var_index[s]));
                *depth += 1;
                self.max_stack = self.max_stack.max(*depth);
            }
            Expr::Bin(op, a, b) => {
                self.emit(a, var_index, depth);
                self.emit(b, var_index, depth);
                self.code.push(Opcode::Bin(*op));
                *depth -= 1;
            }
            Expr::Cmp(op, a, b) => {
                self.emit(a, var_index, depth);
                self.emit(b, var_index, depth);
                self.code.push(Opcode::Cmp(*op));
                *depth -= 1;
            }
            Expr::Un(op, a) => {
                self.emit(a, var_index, depth);
                self.code.push(Opcode::Un(*op));
            }
        }
    }

    /// Evaluate against `base` binding slots with an `extra` overlay of
    /// fresh bindings; overlay entries shadow `base` (the Rete matcher's
    /// candidate-extension rule). Result and errors are exactly those of
    /// [`Expr::eval`] on the same environment.
    pub fn eval(&self, base: &[Option<Value>], extra: &[(u16, Value)]) -> Result<Value, EvalError> {
        if self.int_ok && self.max_stack <= INT_STACK {
            if let Some(out) = self.eval_int(base, extra) {
                return out;
            }
        }
        self.eval_generic(base, extra)
    }

    /// The `i64`-specialised loop: unboxed `Int`/`Bool` cells, no
    /// cloning. `None` defers to the generic loop (a slot held a float
    /// or string, or an operand-type mismatch needs the generic error
    /// renderer); `Some(Err(..))` is a *definite* error identical to the
    /// tree walk's (unbound slot, division by zero).
    fn eval_int(
        &self,
        base: &[Option<Value>],
        extra: &[(u16, Value)],
    ) -> Option<Result<Value, EvalError>> {
        let mut stack = [ICell::I(0); INT_STACK];
        let mut sp = 0usize;
        for op in &self.code {
            match *op {
                Opcode::Const(i) => {
                    stack[sp] = match &self.consts[i as usize] {
                        Value::Int(x) => ICell::I(*x),
                        Value::Bool(b) => ICell::B(*b),
                        // `int_ok` excludes other constants.
                        Value::Float(_) | Value::Str(_) => return None,
                    };
                    sp += 1;
                }
                Opcode::Load(i) => {
                    let v = extra
                        .iter()
                        .find(|(j, _)| *j == i)
                        .map(|(_, v)| v)
                        .or_else(|| base[i as usize].as_ref());
                    stack[sp] = match v {
                        None => return Some(Err(EvalError::Unbound(self.slot_syms[i as usize]))),
                        Some(Value::Int(x)) => ICell::I(*x),
                        Some(Value::Bool(b)) => ICell::B(*b),
                        Some(Value::Float(_) | Value::Str(_)) => return None,
                    };
                    sp += 1;
                }
                Opcode::Bin(op) => {
                    sp -= 2;
                    let (a, b) = (stack[sp], stack[sp + 1]);
                    stack[sp] = match int_bin(op, a, b) {
                        IntStep::Push(c) => c,
                        IntStep::Error(e) => return Some(Err(EvalError::Value(e))),
                        IntStep::Defer => return None,
                    };
                    sp += 1;
                }
                Opcode::Cmp(op) => {
                    sp -= 2;
                    let ord = match (stack[sp], stack[sp + 1]) {
                        (ICell::I(x), ICell::I(y)) => x.cmp(&y),
                        (ICell::B(x), ICell::B(y)) => x.cmp(&y),
                        // Int/Bool never compare (no coercion): defer so
                        // the generic loop renders the exact type error.
                        (ICell::I(_), ICell::B(_)) | (ICell::B(_), ICell::I(_)) => return None,
                    };
                    stack[sp] = ICell::B(match op {
                        CmpOp::Lt => ord.is_lt(),
                        CmpOp::Le => ord.is_le(),
                        CmpOp::Gt => ord.is_gt(),
                        CmpOp::Ge => ord.is_ge(),
                        CmpOp::Eq => ord.is_eq(),
                        CmpOp::Ne => ord.is_ne(),
                    });
                    sp += 1;
                }
                Opcode::Un(op) => {
                    stack[sp - 1] = match (op, stack[sp - 1]) {
                        (UnOp::Neg, ICell::I(x)) => ICell::I(x.wrapping_neg()),
                        (UnOp::Not, ICell::I(x)) => ICell::I(!x),
                        (UnOp::Not, ICell::B(b)) => ICell::B(!b),
                        (UnOp::Neg, ICell::B(_)) => return None,
                    };
                }
            }
        }
        Some(Ok(stack[0].to_value()))
    }

    /// The generic loop: boxed [`Value`] stack, delegating to the exact
    /// [`Value::binop`]/[`Value::cmp_op`]/[`Value::unop`] semantics.
    fn eval_generic(
        &self,
        base: &[Option<Value>],
        extra: &[(u16, Value)],
    ) -> Result<Value, EvalError> {
        let mut stack: Vec<Value> = Vec::with_capacity(self.max_stack);
        for op in &self.code {
            match *op {
                Opcode::Const(i) => stack.push(self.consts[i as usize].clone()),
                Opcode::Load(i) => {
                    let v = extra
                        .iter()
                        .find(|(j, _)| *j == i)
                        .map(|(_, v)| v.clone())
                        .or_else(|| base[i as usize].clone());
                    match v {
                        Some(v) => stack.push(v),
                        None => return Err(EvalError::Unbound(self.slot_syms[i as usize])),
                    }
                }
                Opcode::Bin(op) => {
                    let b = stack.pop().expect("compiler emits balanced code");
                    let a = stack.pop().expect("compiler emits balanced code");
                    stack.push(Value::binop(op, &a, &b)?);
                }
                Opcode::Cmp(op) => {
                    let b = stack.pop().expect("compiler emits balanced code");
                    let a = stack.pop().expect("compiler emits balanced code");
                    stack.push(Value::cmp_op(op, &a, &b)?);
                }
                Opcode::Un(op) => {
                    let a = stack.pop().expect("compiler emits balanced code");
                    stack.push(Value::unop(op, &a)?);
                }
            }
        }
        Ok(stack.pop().expect("compiler emits a result"))
    }

    /// Boolean evaluation with the engines' control-signal truthiness;
    /// exactly [`Expr::eval_bool`], including the error payload for
    /// non-truthy results.
    pub fn eval_bool(
        &self,
        base: &[Option<Value>],
        extra: &[(u16, Value)],
    ) -> Result<bool, EvalError> {
        let v = self.eval(base, extra)?;
        v.truthiness().ok_or_else(|| {
            EvalError::Value(ValueError::Type {
                op: "condition".into(),
                operands: format!("{v} : {}", v.type_name()),
            })
        })
    }

    /// Guard-context evaluation: any evaluation error means "the
    /// condition does not hold" — the rule shared by every engine.
    #[inline]
    pub fn eval_guard(&self, base: &[Option<Value>], extra: &[(u16, Value)]) -> bool {
        self.eval_bool(base, extra).unwrap_or(false)
    }

    /// Instruction count (used by tests and the disassembly header).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the chunk has no instructions (never produced by
    /// [`Chunk::compile`], which emits at least one push).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Render the bytecode, one instruction per line. Exhaustive over
    /// [`Opcode`] — adding a variant without a rendering is a compile
    /// error here.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.code.iter().enumerate() {
            let _ = write!(out, "{i:04} ");
            match *op {
                Opcode::Const(c) => {
                    let _ = writeln!(out, "const {}", self.consts[c as usize]);
                }
                Opcode::Load(s) => {
                    let name = self
                        .slot_syms
                        .get(s as usize)
                        .map(|sym| sym.as_str())
                        .unwrap_or("?");
                    let _ = writeln!(out, "load r{s} ({name})");
                }
                Opcode::Bin(op) => {
                    let _ = writeln!(out, "bin {op}");
                }
                Opcode::Cmp(op) => {
                    let _ = writeln!(out, "cmp {op}");
                }
                Opcode::Un(op) => {
                    let _ = writeln!(out, "un {op}");
                }
            }
        }
        out
    }
}

/// Outcome of one `i64`-loop binary step.
enum IntStep {
    Push(ICell),
    /// Definite error, identical to the tree walk's.
    Error(ValueError),
    /// Operand types need the generic loop (which also renders the
    /// exact type-error payload when the combination is invalid).
    Defer,
}

/// [`Value::binop`] restricted to `Int`/`Bool` cells. Wrapping integer
/// arithmetic; division/remainder by zero is the *defined*
/// [`ValueError::DivisionByZero`] (never a panic — `i64::MIN / -1`
/// wraps); invalid combinations defer.
fn int_bin(op: BinOp, a: ICell, b: ICell) -> IntStep {
    use ICell::{B, I};
    IntStep::Push(match (op, a, b) {
        (BinOp::Add, I(x), I(y)) => I(x.wrapping_add(y)),
        (BinOp::Sub, I(x), I(y)) => I(x.wrapping_sub(y)),
        (BinOp::Mul, I(x), I(y)) => I(x.wrapping_mul(y)),
        (BinOp::Div | BinOp::Rem, I(_), I(0)) => return IntStep::Error(ValueError::DivisionByZero),
        (BinOp::Div, I(x), I(y)) => I(x.wrapping_div(y)),
        (BinOp::Rem, I(x), I(y)) => I(x.wrapping_rem(y)),
        (BinOp::Min, I(x), I(y)) => I(x.min(y)),
        (BinOp::Max, I(x), I(y)) => I(x.max(y)),
        (BinOp::And, I(x), I(y)) => I(x & y),
        (BinOp::Or, I(x), I(y)) => I(x | y),
        (BinOp::Xor, I(x), I(y)) => I(x ^ y),
        (BinOp::And | BinOp::Min, B(x), B(y)) => B(x && y),
        (BinOp::Or | BinOp::Max, B(x), B(y)) => B(x || y),
        (BinOp::Xor, B(x), B(y)) => B(x ^ y),
        _ => return IntStep::Defer,
    })
}

/// The compile-time optimising pass: constant folding plus
/// semantics-preserving algebraic simplification, bottom-up.
///
/// Every rule preserves *observable* evaluation exactly — same `Ok`
/// values, and an error if and only if the original errors (constant
/// subtrees are folded only when their evaluation *succeeds*, so `1/0`
/// stays unfolded and still raises at runtime):
///
/// * all-literal subtrees evaluate at compile time;
/// * `not (a cmp b)` becomes the negated comparison
///   ([`CmpOp::negate`] — same operands, same evaluation order);
/// * `true and x` / `x and true` / `false or x` / `x or false` drop the
///   neutral literal when `x` is
///   [boolean-shaped](Expr::is_boolean_shaped) (so the bitwise-integer
///   reading and the type-error behaviour cannot change).
///
/// Deliberately *not* applied, because each would change observable
/// behaviour on some input: `x + 0` / `x * 1` (turns a string/bool type
/// error into a value), `false and x` → `false` (loses `x`'s evaluation
/// error), double-negation elimination (`not not 's'` errors, `'s'`
/// does not).
pub fn fold(e: &Expr) -> Expr {
    // Exhaustive over `Expr`: adding a variant forces a folding decision.
    match e {
        Expr::Lit(_) | Expr::Var(_) => e.clone(),
        Expr::Bin(op, a, b) => {
            let a = fold(a);
            let b = fold(b);
            match (op, &a, &b) {
                (BinOp::And, Expr::Lit(Value::Bool(true)), x)
                | (BinOp::Or, Expr::Lit(Value::Bool(false)), x)
                | (BinOp::And, x, Expr::Lit(Value::Bool(true)))
                | (BinOp::Or, x, Expr::Lit(Value::Bool(false)))
                    if x.is_boolean_shaped() =>
                {
                    x.clone()
                }
                _ => try_const(Expr::bin(*op, a, b)),
            }
        }
        Expr::Cmp(op, a, b) => try_const(Expr::cmp(*op, fold(a), fold(b))),
        Expr::Un(op, a) => {
            let a = fold(a);
            if let (UnOp::Not, Expr::Cmp(c, x, y)) = (op, &a) {
                return try_const(Expr::cmp(c.negate(), (**x).clone(), (**y).clone()));
            }
            try_const(Expr::un(*op, a))
        }
    }
}

/// Fold a variable-free expression to its literal value — only when
/// evaluation succeeds, so runtime errors (division by zero, type
/// errors) are preserved exactly where the tree walk would raise them.
fn try_const(e: Expr) -> Expr {
    if e.vars().is_empty() {
        let empty: FxHashMap<Symbol, Value> = FxHashMap::default();
        if let Ok(v) = e.eval(&empty) {
            return Expr::Lit(v);
        }
    }
    e
}

/// A clause guard compiled for VM dispatch.
#[derive(Debug, Clone)]
pub(crate) enum ClauseGuardChunk {
    /// `Always`/`Else`: selected whenever reached.
    Total,
    /// `if <cond>`: selected when the chunk evaluates truthy.
    If(Chunk),
}

/// One output element's compiled expressions (indices parallel the
/// clause's [`ElementSpec`](crate::spec::ElementSpec) list).
#[derive(Debug, Clone)]
pub(crate) struct OutputChunks {
    /// The value expression.
    pub value: Chunk,
    /// The label variable lookup, for [`LabelSpec::Var`] outputs.
    pub label_var: Option<Chunk>,
    /// The tag expression, for [`TagSpec::Expr`] outputs.
    pub tag: Option<Chunk>,
}

/// Every chunk a reaction needs, mirroring the eval sites of
/// [`CompiledReaction`](crate::compiled::CompiledReaction) and the Rete
/// matcher:
///
/// * the full `where` condition (terminal acceptance in the search
///   engines — kept whole so acceptance is *exactly* whole-expression
///   truthiness);
/// * each [`GuardPlan`] conjunct individually, per join level, so Rete
///   guard pushdown keeps rejecting partial tokens at the earliest
///   level;
/// * the terminal clause-guard disjunction;
/// * each clause's guard and output expressions.
#[derive(Debug, Clone)]
pub(crate) struct ChunkSet {
    /// The whole `where` condition.
    pub where_full: Option<Chunk>,
    /// `level_conjuncts[k][i]` = the `i`-th `where` conjunct pushed to
    /// join level `k` (same shape as [`GuardPlan::level_conjuncts`]).
    pub level_conjuncts: Vec<Vec<Chunk>>,
    /// The terminal clause-guard disjunction, when every clause is
    /// `if`-guarded (same shape as [`GuardPlan::clause_disjunction`]).
    pub clause_disjunction: Option<Vec<Chunk>>,
    /// Per-clause selection guards, in clause order.
    pub clause_guards: Vec<ClauseGuardChunk>,
    /// `clause_outputs[c][o]` = clause `c`'s `o`-th output expressions.
    pub clause_outputs: Vec<Vec<OutputChunks>>,
}

impl ChunkSet {
    /// Compile every chunk of `spec` under `plan`. With `optimize`, each
    /// expression runs through [`fold`] first (the `Optimized` tier).
    pub(crate) fn compile(
        spec: &ReactionSpec,
        plan: &GuardPlan,
        var_index: &FxHashMap<Symbol, u16>,
        slot_syms: &Arc<[Symbol]>,
        optimize: bool,
    ) -> ChunkSet {
        let compile = |e: &Expr| -> Chunk {
            if optimize {
                Chunk::compile_with_slots(&fold(e), var_index, slot_syms.clone())
            } else {
                Chunk::compile_with_slots(e, var_index, slot_syms.clone())
            }
        };
        ChunkSet {
            where_full: spec.where_cond.as_ref().map(compile),
            level_conjuncts: plan
                .level_conjuncts
                .iter()
                .map(|cs| cs.iter().map(compile).collect())
                .collect(),
            clause_disjunction: plan
                .clause_disjunction
                .as_ref()
                .map(|ds| ds.iter().map(compile).collect()),
            clause_guards: spec
                .clauses
                .iter()
                .map(|c| match &c.guard {
                    Guard::Always | Guard::Else => ClauseGuardChunk::Total,
                    Guard::If(cond) => ClauseGuardChunk::If(compile(cond)),
                })
                .collect(),
            clause_outputs: spec
                .clauses
                .iter()
                .map(|c| {
                    c.outputs
                        .iter()
                        .map(|out| OutputChunks {
                            value: compile(&out.value),
                            label_var: match &out.label {
                                LabelSpec::Lit(_) => None,
                                LabelSpec::Var(v) => Some(compile(&Expr::Var(*v))),
                            },
                            tag: match &out.tag {
                                TagSpec::Zero => None,
                                TagSpec::Expr(e) => Some(compile(e)),
                            },
                        })
                        .collect()
                })
                .collect(),
        }
    }
}

/// A reaction's VM state: evaluation mode, current tier, and the
/// compiled chunk sets. Owned by
/// [`CompiledReaction`](crate::compiled::CompiledReaction); the session
/// re-compiles to the optimised tier at wave boundaries
/// (never mid-wave).
#[derive(Debug, Clone)]
pub struct ReactionVm {
    mode: GuardEvalMode,
    tier: Tier,
    slot_syms: Arc<[Symbol]>,
    baseline: ChunkSet,
    optimized: Option<ChunkSet>,
    /// Observed rejects per pushed conjunct, flattened level-major
    /// (`level_starts[k] + i` = level `k`'s `i`-th conjunct). Shared
    /// across clones of the reaction so every evaluator feeds one
    /// profile, and bumped through `&self` (guard dispatch holds the
    /// reaction by shared borrow).
    conjunct_rejects: Arc<[AtomicU64]>,
    /// Offset of each level's first conjunct in `conjunct_rejects`.
    level_starts: Vec<u32>,
    /// Per-level conjunct dispatch order. Identity on the baseline
    /// tier; re-sorted once at tier-up to try the most-rejecting
    /// conjunct first. Conjunction is order-independent (guard errors
    /// read as `false` either way), so only the short-circuit point —
    /// never the decision — moves. Both guard evaluators
    /// ([`GuardEvalMode::Vm`] and [`GuardEvalMode::Tree`]) consult this
    /// same order, keeping the `guard_evals`/`guard_rejects` counters
    /// mode-independent at every tier.
    dispatch: Vec<Vec<u16>>,
}

impl ReactionVm {
    /// An empty placeholder, replaced immediately after reaction
    /// compilation computes the guard plan (two-phase construction).
    pub(crate) fn placeholder() -> ReactionVm {
        ReactionVm {
            mode: GuardEvalMode::default(),
            tier: Tier::Baseline,
            slot_syms: Vec::new().into(),
            baseline: ChunkSet {
                where_full: None,
                level_conjuncts: Vec::new(),
                clause_disjunction: None,
                clause_guards: Vec::new(),
                clause_outputs: Vec::new(),
            },
            optimized: None,
            conjunct_rejects: Vec::new().into(),
            level_starts: Vec::new(),
            dispatch: Vec::new(),
        }
    }

    /// Compile the baseline tier for `spec`.
    pub(crate) fn new(
        spec: &ReactionSpec,
        plan: &GuardPlan,
        var_index: &FxHashMap<Symbol, u16>,
    ) -> ReactionVm {
        let slot_syms = slot_table(var_index);
        let baseline = ChunkSet::compile(spec, plan, var_index, &slot_syms, false);
        let dispatch: Vec<Vec<u16>> = baseline
            .level_conjuncts
            .iter()
            .map(|cs| (0..cs.len() as u16).collect())
            .collect();
        let mut level_starts = Vec::with_capacity(dispatch.len());
        let mut total = 0u32;
        for cs in &baseline.level_conjuncts {
            level_starts.push(total);
            total += cs.len() as u32;
        }
        let conjunct_rejects: Arc<[AtomicU64]> = (0..total).map(|_| AtomicU64::new(0)).collect();
        ReactionVm {
            mode: GuardEvalMode::default(),
            tier: Tier::Baseline,
            slot_syms,
            baseline,
            optimized: None,
            conjunct_rejects,
            level_starts,
            dispatch,
        }
    }

    /// Join level `k`'s conjunct evaluation order (indices into
    /// `level_conjuncts[k]`, chunk set and [`GuardPlan`] alike).
    pub(crate) fn dispatch_order(&self, k: usize) -> &[u16] {
        &self.dispatch[k]
    }

    /// Record that level `k`'s conjunct `i` rejected a candidate tuple.
    /// Relaxed: the counters steer a heuristic, not correctness.
    pub(crate) fn note_conjunct_reject(&self, k: usize, i: u16) {
        self.conjunct_rejects[self.level_starts[k] as usize + i as usize]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The evaluation mode the owning reaction dispatches under.
    pub fn mode(&self) -> GuardEvalMode {
        self.mode
    }

    pub(crate) fn set_mode(&mut self, mode: GuardEvalMode) {
        self.mode = mode;
    }

    /// The current tier.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// The chunk set the current tier dispatches.
    pub(crate) fn active(&self) -> &ChunkSet {
        match self.tier {
            Tier::Baseline => &self.baseline,
            Tier::Optimized => self.optimized.as_ref().unwrap_or(&self.baseline),
        }
    }

    /// Re-compile at the optimising tier. Returns `true` on the
    /// baseline → optimised transition, `false` if already optimised.
    /// Called by the session at wave boundaries only.
    pub(crate) fn tier_up(
        &mut self,
        spec: &ReactionSpec,
        plan: &GuardPlan,
        var_index: &FxHashMap<Symbol, u16>,
    ) -> bool {
        if self.tier == Tier::Optimized {
            return false;
        }
        self.optimized = Some(ChunkSet::compile(
            spec,
            plan,
            var_index,
            &self.slot_syms,
            true,
        ));
        // Re-sort each level's conjunct dispatch by observed rejects,
        // most-rejecting first (index order breaks ties, and a level
        // with no observed rejects keeps the plan's order): the cheapest
        // way to kill a doomed candidate is the conjunct that kills most
        // often. Happens only here — at a wave boundary — so no wave
        // ever sees the order change mid-flight.
        for (k, order) in self.dispatch.iter_mut().enumerate() {
            let start = self.level_starts[k] as usize;
            order.sort_by_key(|&i| {
                (
                    std::cmp::Reverse(
                        self.conjunct_rejects[start + i as usize].load(Ordering::Relaxed),
                    ),
                    i,
                )
            });
        }
        self.tier = Tier::Optimized;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vi(names: &[&str]) -> FxHashMap<Symbol, u16> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| (Symbol::intern(n), i as u16))
            .collect()
    }

    fn env_of(slots: &[Option<Value>], names: &[&str]) -> FxHashMap<Symbol, Value> {
        names
            .iter()
            .zip(slots)
            .filter_map(|(n, v)| v.clone().map(|v| (Symbol::intern(n), v)))
            .collect()
    }

    fn check(e: &Expr, names: &[&str], slots: &[Option<Value>]) {
        let index = vi(names);
        let env = env_of(slots, names);
        let tree = e.eval(&env);
        let chunk = Chunk::compile(e, &index);
        assert_eq!(chunk.eval(slots, &[]), tree, "baseline vs tree on {e}");
        let folded = Chunk::compile(&fold(e), &index);
        match (&tree, folded.eval(slots, &[])) {
            (Ok(v), got) => assert_eq!(got.as_ref(), Ok(v), "folded vs tree on {e}"),
            (Err(_), got) => assert!(got.is_err(), "folded must still error on {e}"),
        }
    }

    #[test]
    fn arithmetic_and_comparisons_match_tree() {
        let e = Expr::cmp(
            CmpOp::Eq,
            Expr::bin(BinOp::Rem, Expr::var("a"), Expr::var("b")),
            Expr::int(0),
        );
        check(
            &e,
            &["a", "b"],
            &[Some(Value::int(12)), Some(Value::int(4))],
        );
        check(
            &e,
            &["a", "b"],
            &[Some(Value::int(12)), Some(Value::int(5))],
        );
        // Division by zero: defined error, guard-false, never a panic.
        check(
            &e,
            &["a", "b"],
            &[Some(Value::int(12)), Some(Value::int(0))],
        );
    }

    #[test]
    fn division_edge_cases_are_defined_on_both_paths() {
        for op in [BinOp::Div, BinOp::Rem] {
            // x op 0 errors identically.
            let e = Expr::bin(op, Expr::var("x"), Expr::int(0));
            check(&e, &["x"], &[Some(Value::int(7))]);
            let index = vi(&["x"]);
            let chunk = Chunk::compile(&e, &index);
            assert_eq!(
                chunk.eval(&[Some(Value::int(7))], &[]),
                Err(EvalError::Value(ValueError::DivisionByZero))
            );
            assert!(!chunk.eval_guard(&[Some(Value::int(7))], &[]));
            // i64::MIN op -1 wraps instead of overflowing.
            let e = Expr::bin(op, Expr::int(i64::MIN), Expr::int(-1));
            check(&e, &[], &[]);
        }
    }

    #[test]
    fn unbound_and_type_errors_match_tree() {
        let e = Expr::bin(BinOp::Add, Expr::var("x"), Expr::var("missing"));
        check(&e, &["x", "missing"], &[Some(Value::int(1)), None]);
        let e = Expr::bin(BinOp::Mul, Expr::var("x"), Expr::str("s"));
        check(&e, &["x"], &[Some(Value::int(3))]);
        let e = Expr::cmp(CmpOp::Lt, Expr::var("x"), Expr::bool(true));
        check(&e, &["x"], &[Some(Value::int(3))]);
    }

    #[test]
    fn strings_and_floats_run_on_the_generic_loop() {
        let e = Expr::cmp(CmpOp::Eq, Expr::var("x"), Expr::str("A1"));
        check(&e, &["x"], &[Some(Value::str("A1"))]);
        check(&e, &["x"], &[Some(Value::str("B9"))]);
        let e = Expr::bin(BinOp::Div, Expr::var("f"), Expr::var("g"));
        // Float division by zero is IEEE (inf), not an error.
        check(
            &e,
            &["f", "g"],
            &[Some(Value::float(1.0)), Some(Value::float(0.0))],
        );
    }

    #[test]
    fn extras_overlay_shadows_base_slots() {
        let e = Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b"));
        let index = vi(&["a", "b"]);
        let chunk = Chunk::compile(&e, &index);
        let base = [Some(Value::int(1)), None];
        let extra = [(1u16, Value::int(10))];
        assert_eq!(chunk.eval(&base, &extra), Ok(Value::int(11)));
        // Overlay shadows a bound base slot too.
        let shadowing = [(0u16, Value::int(100)), (1u16, Value::int(10))];
        assert_eq!(chunk.eval(&base, &shadowing), Ok(Value::int(110)));
    }

    #[test]
    fn fold_constant_folds_only_successful_subtrees() {
        // (1 + 2) * 3 folds to 9.
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Add, Expr::int(1), Expr::int(2)),
            Expr::int(3),
        );
        assert_eq!(fold(&e), Expr::int(9));
        // 1 / 0 must NOT fold: the runtime error is load-bearing.
        let e = Expr::bin(BinOp::Div, Expr::int(1), Expr::int(0));
        assert_eq!(fold(&e), e);
    }

    #[test]
    fn fold_negates_comparisons_and_drops_neutral_literals() {
        let cmp = Expr::cmp(CmpOp::Lt, Expr::var("a"), Expr::var("b"));
        assert_eq!(
            fold(&Expr::un(UnOp::Not, cmp.clone())),
            Expr::cmp(CmpOp::Ge, Expr::var("a"), Expr::var("b"))
        );
        assert_eq!(fold(&Expr::and(Expr::bool(true), cmp.clone())), cmp);
        assert_eq!(fold(&Expr::or(cmp.clone(), Expr::bool(false))), cmp);
        // `true and x` over a NON-boolean-shaped x must stay: bitwise
        // reading differs.
        let e = Expr::and(Expr::bool(true), Expr::var("x"));
        assert_eq!(fold(&e), e);
        // `false and x` must stay: folding would lose x's error.
        let e = Expr::and(Expr::bool(false), cmp);
        assert_eq!(fold(&e), e);
    }

    /// Exhaustive-destructuring pin: every [`Opcode`] variant appears in
    /// a compiled chunk and renders in the disassembly. A new opcode
    /// fails this test until both the compiler and disassembler (whose
    /// match is wildcard-free) handle it.
    #[test]
    fn vm_pins_every_opcode() {
        let e = Expr::un(
            UnOp::Neg,
            Expr::bin(
                BinOp::Add,
                Expr::var("x"),
                Expr::bin(
                    BinOp::Mul,
                    Expr::int(2),
                    Expr::un(
                        UnOp::Not,
                        Expr::bin(
                            BinOp::And,
                            Expr::cmp(CmpOp::Lt, Expr::var("x"), Expr::int(10)),
                            Expr::bool(true),
                        ),
                    ),
                ),
            ),
        );
        let chunk = Chunk::compile(&e, &vi(&["x"]));
        let seen = |probe: fn(&Opcode) -> bool| chunk.code.iter().any(probe);
        assert!(seen(|o| matches!(o, Opcode::Const(_))));
        assert!(seen(|o| matches!(o, Opcode::Load(_))));
        assert!(seen(|o| matches!(o, Opcode::Bin(_))));
        assert!(seen(|o| matches!(o, Opcode::Cmp(_))));
        assert!(seen(|o| matches!(o, Opcode::Un(_))));
        let disasm = chunk.disassemble();
        for needle in ["const", "load r0 (x)", "bin", "cmp", "un"] {
            assert!(disasm.contains(needle), "missing {needle} in:\n{disasm}");
        }
        // The pin proper: one arm per variant, so adding an opcode
        // without extending this test is a compile error right here.
        for op in &chunk.code {
            match op {
                Opcode::Const(_)
                | Opcode::Load(_)
                | Opcode::Bin(_)
                | Opcode::Cmp(_)
                | Opcode::Un(_) => {}
            }
        }
    }

    /// Exhaustive pin for the fold pass: every [`Expr`] variant flows
    /// through [`fold`] and survives round-trip evaluation.
    #[test]
    fn fold_pins_every_expr_variant() {
        let exprs = [
            Expr::int(3),
            Expr::var("x"),
            Expr::bin(BinOp::Add, Expr::var("x"), Expr::int(1)),
            Expr::cmp(CmpOp::Ne, Expr::var("x"), Expr::int(0)),
            Expr::un(UnOp::Neg, Expr::var("x")),
        ];
        for e in &exprs {
            match e {
                Expr::Lit(_) | Expr::Var(_) | Expr::Bin(..) | Expr::Cmp(..) | Expr::Un(..) => {}
            }
            check(e, &["x"], &[Some(Value::int(5))]);
        }
    }

    #[test]
    fn deep_chunks_fall_back_to_the_generic_loop() {
        // Build a right-leaning comb deeper than INT_STACK.
        let mut e = Expr::int(1);
        for _ in 0..(INT_STACK + 4) {
            e = Expr::bin(BinOp::Add, Expr::int(1), e);
        }
        let chunk = Chunk::compile(&e, &vi(&[]));
        assert!(chunk.max_stack > INT_STACK);
        assert_eq!(
            chunk.eval(&[], &[]),
            Ok(Value::int(1 + (INT_STACK as i64 + 4)))
        );
    }
}
