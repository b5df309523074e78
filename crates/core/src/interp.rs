//! Interpreter for compiled entity methods.
//!
//! The paper's prototype reconstructs the Python object from operator state
//! and executes the method body; we do the equivalent by interpreting the
//! compiled method over the [`Value`] model against the entity's
//! [`EntityState`]. Two execution paths exist:
//!
//! * [`exec_simple`] — runs a *simple* method (no remote calls) to completion
//!   in a single operator invocation;
//! * [`start`] / [`resume`] — run a *split* method block by block, returning
//!   [`StepOutcome::Call`] whenever execution reaches a remote-call split
//!   point so the runtime can ship an `Invoke` event through the dataflow.
//!
//! The hot path interprets the **slot-resolved** form produced by
//! [`crate::resolve`]: entity fields and method locals are dense `u32` slots
//! into `Vec<Value>` storage ([`EntityState`] / [`Locals`]), so no field or
//! local access performs a string comparison or clones a `String` key. Names
//! survive only in the compile-time tables ([`crate::layout`]) and are
//! consulted exclusively on error paths.
//!
//! A second, name-based AST interpreter for flat statements is kept at the
//! bottom of this module as the semantic *oracle* used by
//! [`crate::local::LocalRuntime::call_direct`] equivalence tests — it is the
//! pre-slot-resolution execution semantics, retained on purpose.

use crate::error::{RuntimeError, RuntimeResult};
use crate::event::{Frame, MethodCall, StepOutcome};
use crate::ids::MethodId;
use crate::ir::{CompiledMethod, DataflowIR, MethodKind, OperatorSpec};
use crate::resolve::{
    BuiltinFn, RBlock, RExpr, RFlatStmt, RMethodKind, RStmt, RTarget, RTerminator, ResolvedMethod,
};
use crate::split::FlatStmt;
use crate::value::{EntityAddr, EntityState, Key, Locals, Value};
use entity_lang::ast::{Expr, Stmt, Target};
use std::collections::BTreeMap;

/// Upper bound on interpreted steps per invocation; guards against `while`
/// loops that never terminate.
const MAX_STEPS: usize = 1_000_000;

/// Control-flow signal produced while interpreting statement lists.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// Instantiate an entity: pre-initialise fields with type defaults, run
/// `__init__` with `args`, and extract the partition key.
pub fn instantiate(
    ir: &DataflowIR,
    entity: &str,
    args: &[Value],
) -> RuntimeResult<(Key, EntityState)> {
    let op = operator(ir, entity)?;
    let init = op
        .method("__init__")
        .ok_or_else(|| RuntimeError::new(format!("entity `{entity}` has no __init__")))?;
    let body = match &init.resolved.kind {
        RMethodKind::Simple { body } => body,
        RMethodKind::Split { .. } => {
            return Err(RuntimeError::new("__init__ cannot be a split method"));
        }
    };
    let mut state = EntityState::with_layout(op.layout.clone());
    let mut locals = bind_params(init, args)?;
    let mut steps = 0usize;
    exec_rstmts(
        ir,
        op,
        &mut state,
        &mut locals,
        &init.resolved,
        body,
        &mut steps,
    )?;
    let key = state.slot(op.key_slot).as_key().map_err(|_| {
        RuntimeError::new(format!(
            "__init__ of `{entity}` did not assign a keyable value to key field `{}`",
            op.key_field
        ))
    })?;
    Ok((key, state))
}

/// Execute a simple (non-split) method to completion, resolving `method` by
/// name first (ingress/test shim; the hot path uses [`exec_simple_id`]).
pub fn exec_simple(
    ir: &DataflowIR,
    op: &OperatorSpec,
    state: &mut EntityState,
    method: &str,
    args: &[Value],
) -> RuntimeResult<Value> {
    let id = op
        .method_id(method)
        .ok_or_else(|| RuntimeError::new(format!("`{}` has no method `{method}`", op.entity)))?;
    exec_simple_id(ir, op, state, id, args)
}

/// Execute a simple (non-split) method to completion, dispatching by id.
pub fn exec_simple_id(
    ir: &DataflowIR,
    op: &OperatorSpec,
    state: &mut EntityState,
    method: MethodId,
    args: &[Value],
) -> RuntimeResult<Value> {
    let compiled = op
        .method_by_id(method)
        .ok_or_else(|| RuntimeError::new(format!("`{}` has no method {method}", op.entity)))?;
    let body = match &compiled.resolved.kind {
        RMethodKind::Simple { body } => body,
        RMethodKind::Split { .. } => {
            return Err(RuntimeError::new(format!(
                "method `{}` performs remote calls and cannot run as a simple method",
                compiled.name
            )));
        }
    };
    let mut locals = bind_params(compiled, args)?;
    let mut steps = 0usize;
    match exec_rstmts(
        ir,
        op,
        state,
        &mut locals,
        &compiled.resolved,
        body,
        &mut steps,
    )? {
        Flow::Return(v) => Ok(v),
        _ => Ok(Value::None),
    }
}

/// Begin executing a method on an entity instance. Simple methods run to
/// completion; split methods run until the first remote call or return.
/// Dispatch is fully id-based: `addr.class` routes to the operator and
/// `method` indexes its method table.
pub fn start(
    ir: &DataflowIR,
    addr: &EntityAddr,
    state: &mut EntityState,
    method: MethodId,
    args: &[Value],
) -> RuntimeResult<StepOutcome> {
    let op = operator_by_id(ir, addr)?;
    let compiled = op
        .method_by_id(method)
        .ok_or_else(|| RuntimeError::new(format!("`{}` has no method {method}", op.entity)))?;
    match &compiled.resolved.kind {
        RMethodKind::Simple { .. } => {
            let value = exec_simple_id(ir, op, state, method, args)?;
            Ok(StepOutcome::Return(value))
        }
        RMethodKind::Split { blocks } => {
            let locals = bind_params(compiled, args)?;
            run_blocks(ir, op, addr, state, compiled, blocks, locals, 0)
        }
    }
}

/// Resume a suspended split-method frame with the remote call's return value.
pub fn resume(
    ir: &DataflowIR,
    addr: &EntityAddr,
    state: &mut EntityState,
    frame: Frame,
    value: Value,
) -> RuntimeResult<StepOutcome> {
    let op = operator_by_id(ir, addr)?;
    let compiled = op.method_by_id(frame.method).ok_or_else(|| {
        RuntimeError::new(format!("`{}` has no method {}", op.entity, frame.method))
    })?;
    // Frames are created only at RemoteCall suspension points, which occur
    // exclusively inside split methods (verify[kind-agreement] pins each
    // method's resolved kind); a simple-method frame is a caller protocol
    // violation, not a state a gated IR can produce.
    let blocks = match &compiled.resolved.kind {
        RMethodKind::Split { blocks } => blocks,
        RMethodKind::Simple { .. } => {
            debug_assert!(false, "resume on simple method `{}`", compiled.name);
            return Err(RuntimeError::new(format!(
                "cannot resume simple method `{}`",
                compiled.name
            )));
        }
    };
    let mut locals = frame.locals;
    locals.ensure_len(compiled.resolved.local_count());
    locals.set(frame.result_slot, value);
    run_blocks(
        ir,
        op,
        addr,
        state,
        compiled,
        blocks,
        locals,
        frame.resume_block,
    )
}

fn operator<'a>(ir: &'a DataflowIR, entity: &str) -> RuntimeResult<&'a OperatorSpec> {
    ir.operator(entity)
        .ok_or_else(|| RuntimeError::new(format!("unknown entity/operator `{entity}`")))
}

#[inline]
fn operator_by_id<'a>(ir: &'a DataflowIR, addr: &EntityAddr) -> RuntimeResult<&'a OperatorSpec> {
    ir.operator_by_id(addr.class).ok_or_else(|| {
        RuntimeError::new(format!("unknown entity/operator `{}`", addr.entity_name()))
    })
}

fn bind_params(compiled: &CompiledMethod, args: &[Value]) -> RuntimeResult<Locals> {
    if compiled.params.len() != args.len() {
        return Err(RuntimeError::new(format!(
            "method `{}` expects {} argument(s), got {}",
            compiled.name,
            compiled.params.len(),
            args.len()
        )));
    }
    // Parameters occupy the leading local slots, in declaration order.
    Ok(Locals::from_args(compiled.resolved.local_count(), args))
}

/// Run split blocks starting at `block_id` until the method returns or
/// suspends at a remote call.
#[allow(clippy::too_many_arguments)]
fn run_blocks(
    ir: &DataflowIR,
    op: &OperatorSpec,
    addr: &EntityAddr,
    state: &mut EntityState,
    compiled: &CompiledMethod,
    blocks: &[RBlock],
    mut locals: Locals,
    mut block_id: usize,
) -> RuntimeResult<StepOutcome> {
    let rm = &compiled.resolved;
    let mut steps = 0usize;
    loop {
        steps += 1;
        if steps > MAX_STEPS {
            return Err(RuntimeError::new(format!(
                "method `{}` exceeded {MAX_STEPS} blocks; possible infinite loop",
                compiled.name
            )));
        }
        // verify[block-target] proved every Jump/Branch/resume target of this
        // method in-bounds, and verify[kind-agreement] that split methods have
        // at least one block, so entry block 0 and every successor reached
        // here exist; frames carry only resume targets lifted from those
        // verified terminators. The old per-iteration `.get()` + error
        // formatting is provably dead on a gated IR.
        debug_assert!(
            block_id < blocks.len(),
            "block id {block_id} out of range in `{}` (verify[block-target] violated)",
            compiled.name
        );
        let block = &blocks[block_id];
        for stmt in &block.stmts {
            exec_rflat_stmt(ir, op, state, &mut locals, rm, stmt, &mut steps)?;
        }
        match &block.terminator {
            RTerminator::Jump(next) => block_id = *next,
            RTerminator::Branch {
                cond,
                then_block,
                else_block,
            } => {
                let c = eval_rexpr(ir, op, state, &mut locals, rm, cond, &mut steps)?.as_bool()?;
                block_id = if c { *then_block } else { *else_block };
            }
            RTerminator::Return(expr) => {
                let value = match expr {
                    Some(e) => eval_rexpr(ir, op, state, &mut locals, rm, e, &mut steps)?,
                    None => Value::None,
                };
                return Ok(StepOutcome::Return(value));
            }
            RTerminator::RemoteCall {
                recv_slot,
                target_class,
                method,
                args,
                result_slot,
                resume_block,
                live_after,
                ..
            } => {
                let target = locals
                    .get(*recv_slot)
                    .ok_or_else(|| {
                        RuntimeError::new(format!(
                            "undefined entity reference `{}`",
                            rm.locals.name_of(*recv_slot)
                        ))
                    })?
                    .as_entity_ref()?
                    .clone();
                // The method id was resolved against the receiver's *static*
                // class; a reference of another class (possible only with
                // hand-built values) would mis-index its method table.
                if target.class != *target_class {
                    return Err(RuntimeError::new(format!(
                        "remote call expects an entity of class `{}`, \
                         but the reference points to `{}`",
                        target_class.name(),
                        target.entity_name()
                    )));
                }
                let mut arg_values = Vec::with_capacity(args.len());
                for arg in args {
                    arg_values.push(eval_rexpr(ir, op, state, &mut locals, rm, arg, &mut steps)?);
                }
                // Ship only the slots some resume path still reads; a
                // wrongly dropped slot fails loudly as an undefined
                // variable on resume.
                locals.retain_slots(live_after);
                let frame = Frame {
                    addr: addr.clone(),
                    method: compiled.id,
                    resume_block: *resume_block,
                    result_slot: *result_slot,
                    locals,
                };
                return Ok(StepOutcome::Call {
                    call: MethodCall::new(target, *method, arg_values),
                    frame,
                });
            }
        }
    }
}

fn exec_rflat_stmt(
    ir: &DataflowIR,
    op: &OperatorSpec,
    state: &mut EntityState,
    locals: &mut Locals,
    rm: &ResolvedMethod,
    stmt: &RFlatStmt,
    steps: &mut usize,
) -> RuntimeResult<()> {
    match stmt {
        RFlatStmt::Assign { target, expr } => {
            let value = eval_rexpr(ir, op, state, locals, rm, expr, steps)?;
            assign(state, locals, *target, value);
            Ok(())
        }
        RFlatStmt::AugAssign {
            target,
            op: bin,
            expr,
        } => {
            let rhs = eval_rexpr(ir, op, state, locals, rm, expr, steps)?;
            let current = read_target(state, locals, rm, *target)?;
            let value = Value::binary(*bin, &current, &rhs)?;
            assign(state, locals, *target, value);
            Ok(())
        }
        RFlatStmt::Expr(expr) => {
            eval_rexpr(ir, op, state, locals, rm, expr, steps)?;
            Ok(())
        }
    }
}

/// Interpret a resolved statement list — used for simple methods and
/// `__init__`.
fn exec_rstmts(
    ir: &DataflowIR,
    op: &OperatorSpec,
    state: &mut EntityState,
    locals: &mut Locals,
    rm: &ResolvedMethod,
    stmts: &[RStmt],
    steps: &mut usize,
) -> RuntimeResult<Flow> {
    for stmt in stmts {
        *steps += 1;
        if *steps > MAX_STEPS {
            return Err(RuntimeError::new(
                "statement budget exceeded; possible infinite loop",
            ));
        }
        match stmt {
            RStmt::Assign { target, value } => {
                let v = eval_rexpr(ir, op, state, locals, rm, value, steps)?;
                assign(state, locals, *target, v);
            }
            RStmt::AugAssign {
                target,
                op: bin,
                value,
            } => {
                let rhs = eval_rexpr(ir, op, state, locals, rm, value, steps)?;
                let current = read_target(state, locals, rm, *target)?;
                let v = Value::binary(*bin, &current, &rhs)?;
                assign(state, locals, *target, v);
            }
            RStmt::Expr(expr) => {
                eval_rexpr(ir, op, state, locals, rm, expr, steps)?;
            }
            RStmt::Return(value) => {
                let v = match value {
                    Some(e) => eval_rexpr(ir, op, state, locals, rm, e, steps)?,
                    None => Value::None,
                };
                return Ok(Flow::Return(v));
            }
            RStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = eval_rexpr(ir, op, state, locals, rm, cond, steps)?.as_bool()?;
                let body = if c { then_body } else { else_body };
                match exec_rstmts(ir, op, state, locals, rm, body, steps)? {
                    Flow::Normal => {}
                    other => return Ok(other),
                }
            }
            RStmt::While { cond, body } => loop {
                *steps += 1;
                if *steps > MAX_STEPS {
                    return Err(RuntimeError::new("while loop exceeded step budget"));
                }
                let c = eval_rexpr(ir, op, state, locals, rm, cond, steps)?.as_bool()?;
                if !c {
                    break;
                }
                match exec_rstmts(ir, op, state, locals, rm, body, steps)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => break,
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                }
            },
            RStmt::For { var, iter, body } => {
                let iterable = eval_rexpr(ir, op, state, locals, rm, iter, steps)?;
                let items = iterable.as_list()?.to_vec();
                for item in items {
                    locals.set(*var, item);
                    match exec_rstmts(ir, op, state, locals, rm, body, steps)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                    }
                }
            }
            RStmt::Pass => {}
            RStmt::Break => return Ok(Flow::Break),
            RStmt::Continue => return Ok(Flow::Continue),
        }
    }
    Ok(Flow::Normal)
}

#[inline]
fn assign(state: &mut EntityState, locals: &mut Locals, target: RTarget, value: Value) {
    match target {
        RTarget::Local(slot) => locals.set(slot, value),
        RTarget::Field(slot) => state.set_slot(slot, value),
    }
}

#[inline]
fn read_target(
    state: &EntityState,
    locals: &Locals,
    rm: &ResolvedMethod,
    target: RTarget,
) -> RuntimeResult<Value> {
    match target {
        RTarget::Local(slot) => locals.get(slot).cloned().ok_or_else(|| {
            RuntimeError::new(format!("undefined variable `{}`", rm.locals.name_of(slot)))
        }),
        RTarget::Field(slot) => Ok(state.slot(slot).clone()),
    }
}

/// Evaluate a slot-resolved expression. Remote calls were lifted out by the
/// splitting pass and rejected during resolution, so none can appear here.
fn eval_rexpr(
    ir: &DataflowIR,
    op: &OperatorSpec,
    state: &mut EntityState,
    locals: &mut Locals,
    rm: &ResolvedMethod,
    expr: &RExpr,
    steps: &mut usize,
) -> RuntimeResult<Value> {
    *steps += 1;
    if *steps > MAX_STEPS {
        return Err(RuntimeError::new("expression budget exceeded"));
    }
    match expr {
        RExpr::Int(v) => Ok(Value::Int(*v)),
        RExpr::Float(v) => Ok(Value::Float(*v)),
        RExpr::Str(s) => Ok(Value::Str(s.clone())),
        RExpr::Bool(b) => Ok(Value::Bool(*b)),
        RExpr::None => Ok(Value::None),
        RExpr::Local(slot) => locals.get(*slot).cloned().ok_or_else(|| {
            RuntimeError::new(format!("undefined variable `{}`", rm.locals.name_of(*slot)))
        }),
        RExpr::Field(slot) => Ok(state.slot(*slot).clone()),
        RExpr::CallSelf { method, args } => {
            let mut arg_values = Vec::with_capacity(args.len());
            for arg in args {
                arg_values.push(eval_rexpr(ir, op, state, locals, rm, arg, steps)?);
            }
            // verify[self-call-target] proved `method` exists on this
            // operator, is simple, and matches the arity of `args`, so the
            // defensive lookups inside exec_simple_id cannot fail from here.
            exec_simple_id(ir, op, state, *method, &arg_values)
        }
        RExpr::Builtin { f, args } => {
            let mut arg_values = Vec::with_capacity(args.len());
            for arg in args {
                arg_values.push(eval_rexpr(ir, op, state, locals, rm, arg, steps)?);
            }
            eval_builtin_fn(*f, &arg_values)
        }
        RExpr::Binary {
            op: bin,
            left,
            right,
        } => {
            let l = eval_rexpr(ir, op, state, locals, rm, left, steps)?;
            let r = eval_rexpr(ir, op, state, locals, rm, right, steps)?;
            Value::binary(*bin, &l, &r)
        }
        RExpr::Compare {
            op: cmp,
            left,
            right,
        } => {
            let l = eval_rexpr(ir, op, state, locals, rm, left, steps)?;
            let r = eval_rexpr(ir, op, state, locals, rm, right, steps)?;
            Value::compare(*cmp, &l, &r)
        }
        RExpr::Logic {
            op: lop,
            left,
            right,
        } => {
            let l = eval_rexpr(ir, op, state, locals, rm, left, steps)?.as_bool()?;
            let result = match lop {
                entity_lang::ast::BoolOp::And => {
                    if !l {
                        false
                    } else {
                        eval_rexpr(ir, op, state, locals, rm, right, steps)?.as_bool()?
                    }
                }
                entity_lang::ast::BoolOp::Or => {
                    if l {
                        true
                    } else {
                        eval_rexpr(ir, op, state, locals, rm, right, steps)?.as_bool()?
                    }
                }
            };
            Ok(Value::Bool(result))
        }
        RExpr::Unary { op: uop, operand } => {
            let v = eval_rexpr(ir, op, state, locals, rm, operand, steps)?;
            Value::unary(*uop, &v)
        }
        RExpr::List(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(eval_rexpr(ir, op, state, locals, rm, item, steps)?);
            }
            Ok(Value::List(out))
        }
        RExpr::Index { obj, index } => {
            let o = eval_rexpr(ir, op, state, locals, rm, obj, steps)?;
            let i = eval_rexpr(ir, op, state, locals, rm, index, steps)?.as_int()?;
            index_value(o, i)
        }
    }
}

fn index_value(obj: Value, i: i64) -> RuntimeResult<Value> {
    match obj {
        Value::List(items) => items
            .get(usize::try_from(i).unwrap_or(usize::MAX))
            .cloned()
            .ok_or_else(|| {
                RuntimeError::new(format!(
                    "list index {i} out of range ({} items)",
                    items.len()
                ))
            }),
        Value::Str(s) => s
            .chars()
            .nth(usize::try_from(i).unwrap_or(usize::MAX))
            .map(|c| Value::Str(c.to_string().into()))
            .ok_or_else(|| RuntimeError::new(format!("string index {i} out of range"))),
        other => Err(RuntimeError::new(format!("cannot index into {other}"))),
    }
}

/// Evaluate a compile-time-resolved builtin.
fn eval_builtin_fn(f: BuiltinFn, args: &[Value]) -> RuntimeResult<Value> {
    match (f, args) {
        (BuiltinFn::Len, [Value::List(items)]) => Ok(Value::Int(items.len() as i64)),
        (BuiltinFn::Len, [Value::Str(s)]) => Ok(Value::Int(s.chars().count() as i64)),
        (BuiltinFn::Range, [Value::Int(n)]) => Ok(Value::List((0..*n).map(Value::Int).collect())),
        (BuiltinFn::Range, [Value::Int(a), Value::Int(b)]) => {
            Ok(Value::List((*a..*b).map(Value::Int).collect()))
        }
        (BuiltinFn::Min, [a, b]) if a.is_numeric() && b.is_numeric() => pick(a, b, true),
        (BuiltinFn::Max, [a, b]) if a.is_numeric() && b.is_numeric() => pick(a, b, false),
        (BuiltinFn::Min, [Value::List(items)]) if !items.is_empty() => fold_pick(items, true),
        (BuiltinFn::Max, [Value::List(items)]) if !items.is_empty() => fold_pick(items, false),
        (BuiltinFn::Abs, [Value::Int(v)]) => Ok(Value::Int(v.abs())),
        (BuiltinFn::Abs, [Value::Float(v)]) => Ok(Value::Float(v.abs())),
        (BuiltinFn::Str, [v]) => Ok(Value::Str(display_for_str(v).into())),
        (BuiltinFn::Int, [Value::Int(v)]) => Ok(Value::Int(*v)),
        (BuiltinFn::Int, [Value::Float(v)]) => Ok(Value::Int(*v as i64)),
        (BuiltinFn::Int, [Value::Bool(b)]) => Ok(Value::Int(i64::from(*b))),
        (BuiltinFn::Int, [Value::Str(s)]) => s
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| RuntimeError::new(format!("cannot convert \"{s}\" to int"))),
        _ => Err(RuntimeError::new(format!(
            "builtin `{}` called with unsupported arguments",
            f.name()
        ))),
    }
}

fn display_for_str(v: &Value) -> String {
    match v {
        Value::Str(s) => s.to_string(),
        other => other.to_string(),
    }
}

fn pick(a: &Value, b: &Value, smaller: bool) -> RuntimeResult<Value> {
    let less = a.as_float()? <= b.as_float()?;
    Ok(if less == smaller {
        a.clone()
    } else {
        b.clone()
    })
}

fn fold_pick(items: &[Value], smaller: bool) -> RuntimeResult<Value> {
    let mut best = items[0].clone();
    for item in &items[1..] {
        best = pick(&best, item, smaller)?;
    }
    Ok(best)
}

// ---------------------------------------------------------------------------
// Name-based oracle interpreter (pre-slot-resolution semantics).
// ---------------------------------------------------------------------------

/// Internal helper for the oracle execution mode in `local.rs`: execute one
/// *unresolved* flat statement against the given state and name-keyed locals.
/// This is deliberately the seed's string-keyed semantics — the equivalence
/// tests compare the slot-resolved hot path against it.
pub(crate) fn eval_flat_for_oracle(
    ir: &DataflowIR,
    op: &OperatorSpec,
    state: &mut EntityState,
    locals: &mut BTreeMap<String, Value>,
    stmt: &FlatStmt,
) -> RuntimeResult<()> {
    let mut steps = 0usize;
    match stmt {
        FlatStmt::Assign { target, expr } => {
            let value = eval_expr_oracle(ir, op, state, locals, expr, &mut steps)?;
            assign_oracle(state, locals, target, value);
            Ok(())
        }
        FlatStmt::AugAssign {
            target,
            op: bin,
            expr,
        } => {
            let rhs = eval_expr_oracle(ir, op, state, locals, expr, &mut steps)?;
            let current = read_target_oracle(state, locals, target)?;
            let value = Value::binary(*bin, &current, &rhs)?;
            assign_oracle(state, locals, target, value);
            Ok(())
        }
        FlatStmt::Expr { expr } => {
            eval_expr_oracle(ir, op, state, locals, expr, &mut steps)?;
            Ok(())
        }
    }
}

fn assign_oracle(
    state: &mut EntityState,
    locals: &mut BTreeMap<String, Value>,
    target: &Target,
    value: Value,
) {
    match target {
        Target::Name(name) => {
            locals.insert(name.clone(), value);
        }
        Target::SelfField(field) => {
            state.insert(field.clone(), value);
        }
    }
}

fn read_target_oracle(
    state: &EntityState,
    locals: &BTreeMap<String, Value>,
    target: &Target,
) -> RuntimeResult<Value> {
    match target {
        Target::Name(name) => locals
            .get(name)
            .cloned()
            .ok_or_else(|| RuntimeError::new(format!("undefined variable `{name}`"))),
        Target::SelfField(field) => state
            .get(field)
            .cloned()
            .ok_or_else(|| RuntimeError::new(format!("undefined field `{field}`"))),
    }
}

/// Execute a simple method by interpreting its *original AST body* with
/// name-keyed locals — the oracle never touches the slot-resolved form, so
/// equivalence tests genuinely compare two independent implementations.
pub(crate) fn exec_simple_oracle(
    ir: &DataflowIR,
    op: &OperatorSpec,
    state: &mut EntityState,
    method: &str,
    args: &[Value],
) -> RuntimeResult<Value> {
    let compiled = op
        .method(method)
        .ok_or_else(|| RuntimeError::new(format!("`{}` has no method `{method}`", op.entity)))?;
    let body = match &compiled.kind {
        MethodKind::Simple { body } => body,
        MethodKind::Split(_) => {
            return Err(RuntimeError::new(format!(
                "method `{method}` performs remote calls and cannot run as a simple method"
            )));
        }
    };
    if compiled.params.len() != args.len() {
        return Err(RuntimeError::new(format!(
            "method `{method}` expects {} argument(s), got {}",
            compiled.params.len(),
            args.len()
        )));
    }
    let mut locals: BTreeMap<String, Value> = compiled
        .params
        .iter()
        .zip(args.iter())
        .map(|((name, _), value)| (name.clone(), value.clone()))
        .collect();
    let mut steps = 0usize;
    match exec_stmts_oracle(ir, op, state, &mut locals, body, &mut steps)? {
        Flow::Return(v) => Ok(v),
        _ => Ok(Value::None),
    }
}

/// Interpret an original (unsplit) statement list with name-keyed locals.
fn exec_stmts_oracle(
    ir: &DataflowIR,
    op: &OperatorSpec,
    state: &mut EntityState,
    locals: &mut BTreeMap<String, Value>,
    stmts: &[Stmt],
    steps: &mut usize,
) -> RuntimeResult<Flow> {
    for stmt in stmts {
        *steps += 1;
        if *steps > MAX_STEPS {
            return Err(RuntimeError::new(
                "statement budget exceeded; possible infinite loop",
            ));
        }
        match stmt {
            Stmt::Assign { target, value, .. } => {
                let v = eval_expr_oracle(ir, op, state, locals, value, steps)?;
                assign_oracle(state, locals, target, v);
            }
            Stmt::AugAssign {
                target,
                op: bin,
                value,
                ..
            } => {
                let rhs = eval_expr_oracle(ir, op, state, locals, value, steps)?;
                let current = read_target_oracle(state, locals, target)?;
                let v = Value::binary(*bin, &current, &rhs)?;
                assign_oracle(state, locals, target, v);
            }
            Stmt::ExprStmt { expr, .. } => {
                eval_expr_oracle(ir, op, state, locals, expr, steps)?;
            }
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(e) => eval_expr_oracle(ir, op, state, locals, e, steps)?,
                    None => Value::None,
                };
                return Ok(Flow::Return(v));
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let c = eval_expr_oracle(ir, op, state, locals, cond, steps)?.as_bool()?;
                let body = if c { then_body } else { else_body };
                match exec_stmts_oracle(ir, op, state, locals, body, steps)? {
                    Flow::Normal => {}
                    other => return Ok(other),
                }
            }
            Stmt::While { cond, body, .. } => loop {
                *steps += 1;
                if *steps > MAX_STEPS {
                    return Err(RuntimeError::new("while loop exceeded step budget"));
                }
                let c = eval_expr_oracle(ir, op, state, locals, cond, steps)?.as_bool()?;
                if !c {
                    break;
                }
                match exec_stmts_oracle(ir, op, state, locals, body, steps)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => break,
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                }
            },
            Stmt::For {
                var, iter, body, ..
            } => {
                let iterable = eval_expr_oracle(ir, op, state, locals, iter, steps)?;
                let items = iterable.as_list()?.to_vec();
                for item in items {
                    locals.insert(var.clone(), item);
                    match exec_stmts_oracle(ir, op, state, locals, body, steps)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                    }
                }
            }
            Stmt::Pass { .. } => {}
            Stmt::Break { .. } => return Ok(Flow::Break),
            Stmt::Continue { .. } => return Ok(Flow::Continue),
        }
    }
    Ok(Flow::Normal)
}

/// Evaluate an unresolved expression against name-keyed locals (oracle path).
pub(crate) fn eval_expr_oracle(
    ir: &DataflowIR,
    op: &OperatorSpec,
    state: &mut EntityState,
    locals: &mut BTreeMap<String, Value>,
    expr: &Expr,
    steps: &mut usize,
) -> RuntimeResult<Value> {
    *steps += 1;
    if *steps > MAX_STEPS {
        return Err(RuntimeError::new("expression budget exceeded"));
    }
    match expr {
        Expr::Int(v, _) => Ok(Value::Int(*v)),
        Expr::Float(v, _) => Ok(Value::Float(*v)),
        Expr::Str(s, _) => Ok(Value::Str(s.as_str().into())),
        Expr::Bool(b, _) => Ok(Value::Bool(*b)),
        Expr::NoneLit(_) => Ok(Value::None),
        Expr::Name(name, _) => locals
            .get(name)
            .cloned()
            .ok_or_else(|| RuntimeError::new(format!("undefined variable `{name}`"))),
        Expr::SelfField(field, _) => state
            .get(field)
            .cloned()
            .ok_or_else(|| RuntimeError::new(format!("undefined field `{field}`"))),
        Expr::Call {
            recv: None,
            method,
            args,
            ..
        } => {
            let mut arg_values = Vec::with_capacity(args.len());
            for arg in args {
                arg_values.push(eval_expr_oracle(ir, op, state, locals, arg, steps)?);
            }
            exec_simple_oracle(ir, op, state, method, &arg_values)
        }
        Expr::Call {
            recv: Some(var),
            method,
            ..
        } => Err(RuntimeError::new(format!(
            "unexpected remote call `{var}.{method}()` in interpreted expression; \
             composite methods must be split before execution"
        ))),
        Expr::Builtin { name, args, .. } => {
            let mut arg_values = Vec::with_capacity(args.len());
            for arg in args {
                arg_values.push(eval_expr_oracle(ir, op, state, locals, arg, steps)?);
            }
            eval_builtin(name, &arg_values)
        }
        Expr::Binary {
            op: bin,
            left,
            right,
            ..
        } => {
            let l = eval_expr_oracle(ir, op, state, locals, left, steps)?;
            let r = eval_expr_oracle(ir, op, state, locals, right, steps)?;
            Value::binary(*bin, &l, &r)
        }
        Expr::Compare {
            op: cmp,
            left,
            right,
            ..
        } => {
            let l = eval_expr_oracle(ir, op, state, locals, left, steps)?;
            let r = eval_expr_oracle(ir, op, state, locals, right, steps)?;
            Value::compare(*cmp, &l, &r)
        }
        Expr::Logic {
            op: lop,
            left,
            right,
            ..
        } => {
            let l = eval_expr_oracle(ir, op, state, locals, left, steps)?.as_bool()?;
            let result = match lop {
                entity_lang::ast::BoolOp::And => {
                    if !l {
                        false
                    } else {
                        eval_expr_oracle(ir, op, state, locals, right, steps)?.as_bool()?
                    }
                }
                entity_lang::ast::BoolOp::Or => {
                    if l {
                        true
                    } else {
                        eval_expr_oracle(ir, op, state, locals, right, steps)?.as_bool()?
                    }
                }
            };
            Ok(Value::Bool(result))
        }
        Expr::Unary {
            op: uop, operand, ..
        } => {
            let v = eval_expr_oracle(ir, op, state, locals, operand, steps)?;
            Value::unary(*uop, &v)
        }
        Expr::List(items, _) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(eval_expr_oracle(ir, op, state, locals, item, steps)?);
            }
            Ok(Value::List(out))
        }
        Expr::Index { obj, index, .. } => {
            let o = eval_expr_oracle(ir, op, state, locals, obj, steps)?;
            let i = eval_expr_oracle(ir, op, state, locals, index, steps)?.as_int()?;
            index_value(o, i)
        }
    }
}

/// Evaluate a builtin by source name (oracle path; the hot path dispatches on
/// [`BuiltinFn`] instead).
fn eval_builtin(name: &str, args: &[Value]) -> RuntimeResult<Value> {
    match BuiltinFn::from_name(name) {
        Some(f) => eval_builtin_fn(f, args),
        None => Err(RuntimeError::new(format!(
            "builtin `{name}` called with unsupported arguments"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::ir::DataflowIR;
    use entity_lang::{corpus, frontend};

    fn ir_for(src: &str) -> DataflowIR {
        let (module, types) = frontend(src).unwrap();
        DataflowIR::from_analysis(&analyze(&module, &types).unwrap()).unwrap()
    }

    fn mid(ir: &DataflowIR, entity: &str, method: &str) -> MethodId {
        ir.operator(entity).unwrap().method_id(method).unwrap()
    }

    #[test]
    fn instantiate_runs_init_and_extracts_key() {
        let ir = ir_for(corpus::FIGURE1_SOURCE);
        let (key, state) = instantiate(&ir, "Item", &["apple".into(), Value::Int(5)]).unwrap();
        assert_eq!(key, Key::Str("apple".into()));
        assert_eq!(state["price"], Value::Int(5));
        assert_eq!(state["stock"], Value::Int(0));
    }

    #[test]
    fn instantiate_with_wrong_arity_fails() {
        let ir = ir_for(corpus::FIGURE1_SOURCE);
        assert!(instantiate(&ir, "Item", &["apple".into()]).is_err());
        assert!(instantiate(&ir, "Nope", &[]).is_err());
    }

    #[test]
    fn exec_simple_mutates_state_and_returns() {
        let ir = ir_for(corpus::FIGURE1_SOURCE);
        let op = ir.operator("User").unwrap();
        let (_, mut state) = instantiate(&ir, "User", &["alice".into()]).unwrap();
        let out = exec_simple(&ir, op, &mut state, "deposit", &[Value::Int(50)]).unwrap();
        assert_eq!(out, Value::Int(50));
        assert_eq!(state["balance"], Value::Int(50));
        let out = exec_simple(&ir, op, &mut state, "deposit", &[Value::Int(25)]).unwrap();
        assert_eq!(out, Value::Int(75));
    }

    #[test]
    fn start_on_simple_method_returns_directly() {
        let ir = ir_for(corpus::FIGURE1_SOURCE);
        let addr = EntityAddr::new("Item", Key::Str("apple".into()));
        let (_, mut state) = instantiate(&ir, "Item", &["apple".into(), Value::Int(3)]).unwrap();
        let out = start(&ir, &addr, &mut state, mid(&ir, "Item", "get_price"), &[]).unwrap();
        assert_eq!(out, StepOutcome::Return(Value::Int(3)));
    }

    #[test]
    fn split_method_suspends_at_remote_call_and_resumes() {
        let ir = ir_for(corpus::FIGURE1_SOURCE);
        let user_addr = EntityAddr::new("User", Key::Str("alice".into()));
        let (_, mut user_state) = instantiate(&ir, "User", &["alice".into()]).unwrap();
        user_state.insert("balance".into(), Value::Int(100));

        // Start buy_item(2, item=apple): should suspend at Item.get_price.
        let item_ref = Value::entity_ref("Item", Key::Str("apple".into()));
        let out = start(
            &ir,
            &user_addr,
            &mut user_state,
            mid(&ir, "User", "buy_item"),
            &[Value::Int(2), item_ref],
        )
        .unwrap();
        let (call, frame) = match out {
            StepOutcome::Call { call, frame } => (call, frame),
            other => panic!("expected suspension, got {other:?}"),
        };
        assert_eq!(call.method, mid(&ir, "Item", "get_price"));
        assert_eq!(call.target.entity_name(), "Item");

        // Pretend the remote call returned 10: resume. It should suspend again
        // at update_stock(-2) because 100 >= 20.
        let out = resume(&ir, &user_addr, &mut user_state, frame, Value::Int(10)).unwrap();
        let (call, frame) = match out {
            StepOutcome::Call { call, frame } => (call, frame),
            other => panic!("expected second suspension, got {other:?}"),
        };
        assert_eq!(call.method, mid(&ir, "Item", "update_stock"));
        assert_eq!(call.args, vec![Value::Int(-2)]);

        // The stock update succeeds: the purchase completes and balance drops.
        let out = resume(&ir, &user_addr, &mut user_state, frame, Value::Bool(true)).unwrap();
        assert_eq!(out, StepOutcome::Return(Value::Bool(true)));
        assert_eq!(user_state["balance"], Value::Int(80));
    }

    #[test]
    fn split_method_early_return_when_balance_too_low() {
        let ir = ir_for(corpus::FIGURE1_SOURCE);
        let user_addr = EntityAddr::new("User", Key::Str("bob".into()));
        let (_, mut user_state) = instantiate(&ir, "User", &["bob".into()]).unwrap();
        // balance is 0: after learning the price the method returns False
        // without a second remote call.
        let item_ref = Value::entity_ref("Item", Key::Str("apple".into()));
        let out = start(
            &ir,
            &user_addr,
            &mut user_state,
            mid(&ir, "User", "buy_item"),
            &[Value::Int(1), item_ref],
        )
        .unwrap();
        let frame = match out {
            StepOutcome::Call { frame, .. } => frame,
            other => panic!("{other:?}"),
        };
        let out = resume(&ir, &user_addr, &mut user_state, frame, Value::Int(10)).unwrap();
        assert_eq!(out, StepOutcome::Return(Value::Bool(false)));
        assert_eq!(user_state["balance"], Value::Int(0));
    }

    #[test]
    fn builtins_evaluate() {
        assert_eq!(
            eval_builtin("len", &[Value::List(vec![Value::Int(1), Value::Int(2)])]).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            eval_builtin("range", &[Value::Int(3)]).unwrap(),
            Value::List(vec![Value::Int(0), Value::Int(1), Value::Int(2)])
        );
        assert_eq!(
            eval_builtin("min", &[Value::Int(4), Value::Int(2)]).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            eval_builtin("max", &[Value::Int(4), Value::Float(2.5)]).unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            eval_builtin("abs", &[Value::Int(-4)]).unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            eval_builtin("str", &[Value::Int(42)]).unwrap(),
            Value::Str("42".into())
        );
        assert_eq!(
            eval_builtin("int", &[Value::Str(" 7 ".into())]).unwrap(),
            Value::Int(7)
        );
        assert!(eval_builtin("int", &[Value::Str("x".into())]).is_err());
    }

    #[test]
    fn loops_and_conditionals_in_simple_methods() {
        let src = r#"
entity Calc:
    name: str
    acc: int

    def __init__(self, name: str):
        self.name = name
        self.acc = 0

    def __key__(self) -> str:
        return self.name

    def sum_to(self, n: int) -> int:
        total: int = 0
        for i in range(n + 1):
            total += i
        return total

    def collatz_steps(self, n: int) -> int:
        count: int = 0
        x: int = n
        while x != 1:
            if x % 2 == 0:
                x = x // 2
            else:
                x = 3 * x + 1
            count += 1
        return count

    def first_even(self, xs: list[int]) -> int:
        for x in xs:
            if x % 2 == 0:
                return x
        return -1
"#;
        let ir = ir_for(src);
        let op = ir.operator("Calc").unwrap();
        let (_, mut state) = instantiate(&ir, "Calc", &["c".into()]).unwrap();
        assert_eq!(
            exec_simple(&ir, op, &mut state, "sum_to", &[Value::Int(10)]).unwrap(),
            Value::Int(55)
        );
        assert_eq!(
            exec_simple(&ir, op, &mut state, "collatz_steps", &[Value::Int(6)]).unwrap(),
            Value::Int(8)
        );
        assert_eq!(
            exec_simple(
                &ir,
                op,
                &mut state,
                "first_even",
                &[Value::List(vec![
                    Value::Int(3),
                    Value::Int(5),
                    Value::Int(8)
                ])]
            )
            .unwrap(),
            Value::Int(8)
        );
    }

    #[test]
    fn infinite_loop_is_cut_off() {
        let src = r#"
entity Bad:
    name: str

    def __init__(self, name: str):
        self.name = name

    def __key__(self) -> str:
        return self.name

    def spin(self) -> int:
        x: int = 0
        while True:
            x += 1
        return x
"#;
        let ir = ir_for(src);
        let op = ir.operator("Bad").unwrap();
        let (_, mut state) = instantiate(&ir, "Bad", &["b".into()]).unwrap();
        let err = exec_simple(&ir, op, &mut state, "spin", &[]).unwrap_err();
        assert!(err.message.contains("budget"), "{err}");
    }

    #[test]
    fn reading_unassigned_local_reports_its_name() {
        // `x` is only assigned inside the never-taken branch; reading it after
        // the branch must fail with the original variable name even though the
        // interpreter only tracks slots.
        let src = r#"
entity Edge:
    name: str

    def __init__(self, name: str):
        self.name = name

    def __key__(self) -> str:
        return self.name

    def oops(self, flag: bool) -> int:
        if flag:
            x: int = 1
        return x
"#;
        let ir = ir_for(src);
        let op = ir.operator("Edge").unwrap();
        let (_, mut state) = instantiate(&ir, "Edge", &["e".into()]).unwrap();
        let err = exec_simple(&ir, op, &mut state, "oops", &[Value::Bool(false)]).unwrap_err();
        assert!(err.message.contains("`x`"), "{err}");
    }
}
