//! The intermediate representation (Section 2.5): a stateful dataflow graph.
//!
//! Each entity class becomes a dataflow operator enriched with the methods it
//! can run, their input/return types, their (possibly split) bodies, and the
//! per-method execution graphs. The IR is independent of the target execution
//! engine: the local runtime, StateFlow, and the StateFun-style baseline all
//! execute the same [`DataflowIR`].
//!
//! ## Id-based addressing (PR 2)
//!
//! Compilation *numbers* the control plane: every entity class gets an
//! interned [`ClassId`] and every method a dense per-class [`MethodId`]
//! (declaration order, so numbering is stable across compiles of the same
//! source). Operators and their method tables are `Vec`s indexed by those
//! ids — routing an invocation is `class_index[class] → operators[pos]`
//! followed by `methods[method]`, two array probes with no string touched.
//! Name-keyed maps survive only as ingress shims ([`DataflowIR::operator`],
//! [`OperatorSpec::method_id`], [`DataflowIR::resolve_call`]) so the public
//! API still speaks `create("Account", …)` / `call("deposit", …)`.

use crate::analysis::AnalyzedProgram;
use crate::callgraph::CallGraph;
use crate::error::{CompileResult, RuntimeError, RuntimeResult};
use crate::event::MethodCall;
use crate::ids::{ClassId, MethodId};
use crate::layout::FieldLayout;
use crate::resolve::{resolve_method, MethodTables, ResolvedMethod};
use crate::split::{split_method_of, SplitMethod};
use crate::statemachine::StateMachine;
use crate::value::{EntityAddr, Key, Value};
use entity_lang::ast::Stmt;
use entity_lang::Type;
use serde::{de_field, Content, DeError, Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a method executes on an operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MethodKind {
    /// No remote calls: the body executes in a single operator invocation.
    Simple {
        /// Original statement list.
        body: Vec<Stmt>,
    },
    /// Contains remote calls: executes as a sequence of split blocks.
    Split(SplitMethod),
}

/// A compiled method attached to an operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledMethod {
    /// Dense id of this method within its class (declaration order).
    pub id: MethodId,
    /// Method name (ingress resolution, error messages, debug views).
    pub name: String,
    /// Parameters (name, type), excluding `self`.
    pub params: Vec<(String, Type)>,
    /// Return type.
    pub return_ty: Type,
    /// Name-based body (oracle interpreter, pretty-printing, state machines).
    pub kind: MethodKind,
    /// Slot-resolved executable body — what the runtimes interpret.
    pub resolved: ResolvedMethod,
    /// Compile-time write-set bit: the method (or a `self.*` helper it
    /// calls) may write the state of the entity it runs on. `false` means
    /// the target key of a call to this method is provably read-only.
    pub writes_self: bool,
    /// Compile-time write-set bit: the call chain rooted here may write an
    /// entity reached through an entity-reference argument. `false` means
    /// every reference in the call's footprint is provably read-only.
    /// (Derived: `param_effects.iter().any(|w| *w)`.)
    pub writes_ref_args: bool,
    /// Per formal parameter (declaration order, `self` excluded): may the
    /// call chain rooted here write the entity bound to that parameter?
    /// Always `false` for non-entity parameters. This is the precise form
    /// of `writes_ref_args`: argument `j`'s reference keys are writable iff
    /// `param_effects[j]`.
    pub param_effects: Vec<bool>,
    /// The method's self-writes form a commutative additive class (see
    /// `core::effects`): simple, writes self, every field write an
    /// unguarded state-independent `+=`/`-=`. Commuting writers of the
    /// same key may commit in one batch.
    pub commutative: bool,
    /// Source location of the `def` header. Serialized with the IR so that
    /// verifier and lint diagnostics raised against a *deserialized* artifact
    /// still point at the original entity program.
    pub span: entity_lang::Span,
}

impl CompiledMethod {
    /// True if this method was split.
    pub fn is_split(&self) -> bool {
        matches!(self.kind, MethodKind::Split(_))
    }

    /// True if a call to this method can write no entity state at all —
    /// neither its target nor anything reachable through its references.
    pub fn is_read_only(&self) -> bool {
        !self.writes_self && !self.writes_ref_args
    }
}

/// A dataflow operator: one per entity class, partitioned by the entity key.
///
/// Methods live in a `Vec` indexed by their dense [`MethodId`]; the
/// name-keyed `method_index` exists only for the ingress boundary (clients
/// speak names, the dataflow speaks ids).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatorSpec {
    /// Entity class name.
    pub entity: String,
    /// Interned class id (what events and state keys carry).
    pub class: ClassId,
    /// Field types of the entity state.
    pub fields: BTreeMap<String, Type>,
    /// Dense field layout (declaration order), shared by every instance's
    /// [`crate::value::EntityState`].
    pub layout: Arc<FieldLayout>,
    /// The field used as partition key.
    pub key_field: String,
    /// Slot of the key field within [`OperatorSpec::layout`].
    pub key_slot: u32,
    /// Partition key type.
    pub key_type: Type,
    /// Compiled methods, indexed by [`MethodId`] (declaration order,
    /// including `__init__` and `__key__`).
    pub methods: Vec<CompiledMethod>,
    /// Ingress-only name→id resolution table.
    pub method_index: BTreeMap<String, MethodId>,
    /// Source location of the entity definition header (operator-level
    /// diagnostics on compiled or deserialized IRs).
    pub span: entity_lang::Span,
}

impl OperatorSpec {
    /// Look up a compiled method by name (ingress/debug shim).
    pub fn method(&self, name: &str) -> Option<&CompiledMethod> {
        self.method_index
            .get(name)
            .map(|id| &self.methods[id.index()])
    }

    /// Look up a compiled method by id (hot path: a bounds-checked `Vec`
    /// index, no string in sight).
    #[inline]
    pub fn method_by_id(&self, id: MethodId) -> Option<&CompiledMethod> {
        self.methods.get(id.index())
    }

    /// Resolve a method name to its dense id (ingress shim).
    pub fn method_id(&self, name: &str) -> Option<MethodId> {
        self.method_index.get(name).copied()
    }

    /// The name of a method id (error messages).
    pub fn method_name(&self, id: MethodId) -> &str {
        self.methods
            .get(id.index())
            .map(|m| m.name.as_str())
            .unwrap_or("<unknown method>")
    }

    /// `__init__` parameter list.
    pub fn init_params(&self) -> &[(String, Type)] {
        self.method("__init__")
            .map(|m| m.params.as_slice())
            .unwrap_or(&[])
    }
}

/// A directed operator-level edge: `from` invokes methods of `to`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DataflowEdge {
    /// Calling operator.
    pub from: String,
    /// Called operator.
    pub to: String,
}

/// The engine-independent stateful dataflow graph.
///
/// Operators live in a `Vec` (declaration order); `class_index` maps the
/// process-global [`ClassId`] space onto positions in that `Vec`, so routing
/// an event to its operator is two array probes — no ordered-map walk, no
/// string comparison. The index is rebuilt on deserialization (numeric class
/// ids are only stable within a process; the wire format carries names).
#[derive(Debug, Clone)]
pub struct DataflowIR {
    /// Operators in entity declaration order.
    pub operators: Vec<OperatorSpec>,
    /// Dense `ClassId → operator position` table (`u32::MAX` = not ours).
    class_index: Vec<u32>,
    /// Operator-level edges induced by remote calls.
    pub edges: Vec<DataflowEdge>,
    /// The full method-level call graph.
    pub call_graph: CallGraph,
    /// Execution graphs of all split methods (documentation/inspection view).
    pub state_machines: Vec<StateMachine>,
    /// Has [`crate::verify::verify`] vouched for this exact value?
    /// Process-local (never serialized); cleared on construction, set by
    /// [`DataflowIR::ensure_verified`] and by deserialization (which always
    /// verifies before handing the IR out). Runtime constructors gate on it.
    verified: bool,
}

// `verified` is a process-local cache of a property of the other fields, so
// equality ignores it (and `class_index`, which is derived): a verified IR
// and its freshly-deserialized twin are the same IR.
impl PartialEq for DataflowIR {
    fn eq(&self, other: &Self) -> bool {
        self.operators == other.operators
            && self.edges == other.edges
            && self.call_graph == other.call_graph
            && self.state_machines == other.state_machines
    }
}

const NO_OPERATOR: u32 = u32::MAX;

fn build_class_index(operators: &[OperatorSpec]) -> Vec<u32> {
    let max = operators
        .iter()
        .map(|op| op.class.as_u32() as usize + 1)
        .max()
        .unwrap_or(0);
    let mut index = vec![NO_OPERATOR; max];
    for (pos, op) in operators.iter().enumerate() {
        index[op.class.as_u32() as usize] = pos as u32;
    }
    index
}

impl DataflowIR {
    /// Build the IR from the analysis result, splitting composite methods.
    ///
    /// Construction is two-phase: first every class and method is *numbered*
    /// (so callee ids exist before any body is lowered), then bodies are
    /// slot- and id-resolved against the full numbering.
    pub fn from_analysis(program: &AnalyzedProgram) -> CompileResult<Self> {
        // Phase 1: number every class and method.
        let mut tables = MethodTables::new();
        for entity_name in &program.entity_order {
            let class = ClassId::intern(entity_name);
            let entity = &program.entities[entity_name];
            let numbering: BTreeMap<String, MethodId> = entity
                .method_order
                .iter()
                .enumerate()
                .map(|(i, name)| (name.clone(), MethodId(i as u32)))
                .collect();
            tables.insert_class(class, numbering);
        }

        // Write-set analysis: per-method "writes self?" bits, propagated
        // through the call graph, consumed below when lowering remote-call
        // sites and recorded on every compiled method.
        let effects = crate::effects::analyze_effects(program);

        // Phase 2: compile bodies against the complete numbering.
        let mut operators = Vec::with_capacity(program.entity_order.len());
        let mut state_machines = Vec::new();
        for entity_name in &program.entity_order {
            let class = ClassId::intern(entity_name);
            let entity = &program.entities[entity_name];
            // Slots follow field declaration order, so layouts are stable
            // across compiles of the same source (snapshots survive restarts).
            let layout = Arc::new(FieldLayout::new(
                entity
                    .field_order
                    .iter()
                    .map(|name| (name.clone(), entity.fields[name].clone()))
                    .collect(),
            ));
            let key_slot = layout.slot_of(&entity.key_field).ok_or_else(|| {
                crate::error::CompileError::analysis(
                    entity_lang::Span::synthetic(),
                    format!(
                        "key field `{}` of `{entity_name}` is not a declared field",
                        entity.key_field
                    ),
                )
            })?;
            let mut methods = Vec::with_capacity(entity.method_order.len());
            let mut method_index = BTreeMap::new();
            for (i, method_name) in entity.method_order.iter().enumerate() {
                let id = MethodId(i as u32);
                let method = &entity.methods[method_name];
                let kind = if method.has_remote_calls {
                    let split = split_method_of(program, entity_name, method)?;
                    state_machines.push(StateMachine::from_split(&split));
                    MethodKind::Split(split)
                } else {
                    MethodKind::Simple {
                        body: method.body.clone(),
                    }
                };
                let resolved =
                    resolve_method(&tables, class, &layout, &method.params, &kind, &effects)?;
                let method_effects = effects.of(entity_name, method_name);
                method_index.insert(method_name.clone(), id);
                methods.push(CompiledMethod {
                    id,
                    name: method_name.clone(),
                    params: method.params.clone(),
                    return_ty: method.return_ty.clone(),
                    kind,
                    resolved,
                    writes_self: method_effects.writes_self,
                    writes_ref_args: method_effects.writes_ref_args(),
                    commutative: method_effects.commutative,
                    param_effects: method_effects.param_writes,
                    span: method.span,
                });
            }
            operators.push(OperatorSpec {
                entity: entity_name.clone(),
                class,
                fields: entity.fields.clone(),
                layout,
                key_field: entity.key_field.clone(),
                key_slot,
                key_type: entity.key_type.clone(),
                methods,
                method_index,
                span: entity.span,
            });
        }
        let edges = program
            .call_graph
            .operator_edges()
            .into_iter()
            .map(|(from, to)| DataflowEdge { from, to })
            .collect();
        let class_index = build_class_index(&operators);
        Ok(DataflowIR {
            operators,
            class_index,
            edges,
            call_graph: program.call_graph.clone(),
            state_machines,
            verified: false,
        })
    }

    /// Has [`crate::verify::verify`] passed on this value at least once?
    ///
    /// `compile()` and deserialization both leave this `true`; it only reads
    /// `false` for an IR assembled by hand (tests, mutation harnesses).
    /// Mutating the public fields does *not* clear it — it is a provenance
    /// bit, which is exactly why [`DataflowIR::ensure_verified`] does not
    /// trust it as a cache.
    pub fn is_verified(&self) -> bool {
        self.verified
    }

    /// Run the whole-program verifier ([`crate::verify::verify`]) and mark
    /// this IR as verified on success.
    ///
    /// Always re-runs the analysis, even on an already-flagged IR: the
    /// public fields are freely mutable, so the flag alone cannot prove the
    /// *current* value is sound. Verification costs microseconds per corpus
    /// program (`sebench`'s `core.verify_us`) and every caller is a one-time
    /// constructor, so certainty is cheaper than a stale-cache bug.
    pub fn ensure_verified(
        &mut self,
    ) -> Result<crate::verify::VerifyReport, crate::verify::VerifyError> {
        let report = crate::verify::verify(self)?;
        self.verified = true;
        Ok(report)
    }

    /// Look up an operator by entity name (ingress/debug shim). A linear
    /// scan over the handful of operators — cheaper than taking the global
    /// interner lock, and never on the per-hop path.
    pub fn operator(&self, entity: &str) -> Option<&OperatorSpec> {
        self.operators.iter().find(|op| op.entity == entity)
    }

    /// Look up an operator by class id (hot path: two array probes).
    #[inline]
    pub fn operator_by_id(&self, class: ClassId) -> Option<&OperatorSpec> {
        let pos = *self.class_index.get(class.as_u32() as usize)?;
        if pos == NO_OPERATOR {
            return None;
        }
        self.operators.get(pos as usize)
    }

    /// The class id of an entity name, if this IR has an operator for it.
    pub fn class_id(&self, entity: &str) -> Option<ClassId> {
        self.operator(entity).map(|op| op.class)
    }

    /// Resolve a string-addressed invocation into an id-addressed
    /// [`MethodCall`] — the ingress boundary between the public name-based
    /// API and the id-dispatched dataflow.
    pub fn resolve_call(
        &self,
        entity: &str,
        key: Key,
        method: &str,
        args: Vec<Value>,
    ) -> RuntimeResult<MethodCall> {
        let op = self
            .operator(entity)
            .ok_or_else(|| RuntimeError::new(format!("unknown entity/operator `{entity}`")))?;
        let method_id = op
            .method_id(method)
            .ok_or_else(|| RuntimeError::new(format!("`{entity}` has no method `{method}`")))?;
        Ok(MethodCall::new(
            EntityAddr::from_ids(op.class, key),
            method_id,
            args,
        ))
    }

    /// Total number of split blocks across all operators.
    pub fn total_blocks(&self) -> usize {
        self.operators
            .iter()
            .flat_map(|o| o.methods.iter())
            .map(|m| match &m.kind {
                MethodKind::Split(s) => s.blocks.len(),
                MethodKind::Simple { .. } => 1,
            })
            .sum()
    }

    /// Serialize the IR to pretty-printed JSON (the portable artifact that a
    /// deployment tool would hand to a target dataflow engine).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("IR serialization cannot fail")
    }

    /// Parse an IR back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Parse an IR from raw bytes (UTF-8 JSON). Hostile input — non-UTF-8,
    /// malformed JSON, or a structurally plausible document that fails
    /// verification — comes back as a typed error, never a panic.
    pub fn from_slice(bytes: &[u8]) -> Result<Self, serde_json::Error> {
        serde_json::from_slice(bytes)
    }

    /// Render the operator-level dataflow (ingress → operators → egress) as DOT.
    pub fn to_dot(&self) -> String {
        let mut out = String::from(
            "digraph dataflow {\n  rankdir=LR;\n  ingress [shape=cds];\n  egress [shape=cds];\n",
        );
        for name in self.operators.iter().map(|op| &op.entity) {
            out.push_str(&format!("  \"{name}\" [shape=box];\n"));
            out.push_str(&format!(
                "  ingress -> \"{name}\";\n  \"{name}\" -> egress;\n"
            ));
        }
        for edge in &self.edges {
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [style=bold];\n",
                edge.from, edge.to
            ));
        }
        out.push_str("}\n");
        out
    }
}

// `class_index` holds process-local numeric ids, so it must not cross a
// process boundary: serialization writes the four portable fields and
// deserialization rebuilds the index from the re-interned operator classes.
impl Serialize for DataflowIR {
    fn serialize(&self) -> Content {
        Content::Map(vec![
            (
                Content::Str("operators".to_string()),
                self.operators.serialize(),
            ),
            (Content::Str("edges".to_string()), self.edges.serialize()),
            (
                Content::Str("call_graph".to_string()),
                self.call_graph.serialize(),
            ),
            (
                Content::Str("state_machines".to_string()),
                self.state_machines.serialize(),
            ),
        ])
    }
}

impl Deserialize for DataflowIR {
    fn deserialize(content: &Content) -> Result<Self, DeError> {
        let fields = content.as_fields()?;
        let operators: Vec<OperatorSpec> = de_field(fields, "operators")?;
        let class_index = build_class_index(&operators);
        let mut ir = DataflowIR {
            operators,
            class_index,
            edges: de_field(fields, "edges")?,
            call_graph: de_field(fields, "call_graph")?,
            state_machines: de_field(fields, "state_machines")?,
            verified: false,
        };
        // The wire is untrusted: field decode only proves the bytes spell a
        // structurally plausible IR, not that slot/method/class indices are
        // in bounds or effect masks sound. Verify before anything — including
        // our own `class_index` consumers — trusts the value.
        ir.ensure_verified()
            .map_err(|e| DeError::new(e.to_string()))?;
        Ok(ir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use entity_lang::{corpus, frontend};

    fn ir_for(src: &str) -> DataflowIR {
        let (module, types) = frontend(src).unwrap();
        let program = analyze(&module, &types).unwrap();
        DataflowIR::from_analysis(&program).unwrap()
    }

    #[test]
    fn figure1_ir_has_two_operators_and_one_edge() {
        let ir = ir_for(corpus::FIGURE1_SOURCE);
        assert_eq!(ir.operators.len(), 2);
        assert_eq!(
            ir.edges,
            vec![DataflowEdge {
                from: "User".to_string(),
                to: "Item".to_string()
            }]
        );
        let user = ir.operator("User").unwrap();
        assert!(user.method("buy_item").unwrap().is_split());
        assert!(!user.method("deposit").unwrap().is_split());
        assert_eq!(user.init_params().len(), 1);
    }

    #[test]
    fn ir_json_roundtrip() {
        let ir = ir_for(corpus::FIGURE1_SOURCE);
        let json = ir.to_json();
        let back = DataflowIR::from_json(&json).unwrap();
        assert_eq!(ir, back);
        assert!(json.contains("buy_item"));
    }

    #[test]
    fn account_ir_self_edge_for_transfers() {
        let ir = ir_for(corpus::ACCOUNT_SOURCE);
        assert_eq!(
            ir.edges,
            vec![DataflowEdge {
                from: "Account".to_string(),
                to: "Account".to_string()
            }]
        );
        // transfer and transfer_audited are both split.
        assert_eq!(ir.state_machines.len(), 2);
    }

    #[test]
    fn compiled_methods_carry_param_effects_and_commutativity() {
        let ir = ir_for(corpus::ACCOUNT_SOURCE);
        let account = ir.operator("Account").unwrap();
        let audited = account.method("transfer_audited").unwrap();
        assert_eq!(audited.param_effects, vec![false, true, false]);
        assert!(audited.writes_ref_args, "derived bit stays consistent");
        assert!(!audited.commutative);
        let credit = account.method("credit").unwrap();
        assert!(credit.commutative && credit.writes_self);
        assert_eq!(credit.param_effects, vec![false]);
        let update = account.method("update").unwrap();
        assert!(!update.commutative && update.writes_self);
    }

    #[test]
    fn dot_contains_ingress_and_operators() {
        let ir = ir_for(corpus::TPCC_LITE_SOURCE);
        let dot = ir.to_dot();
        assert!(dot.contains("ingress"));
        assert!(dot.contains("Customer"));
        assert!(dot.contains("\"Customer\" -> \"District\""));
    }

    #[test]
    fn total_blocks_counts_simple_methods_as_one() {
        let ir = ir_for(corpus::FIGURE1_SOURCE);
        assert!(ir.total_blocks() > 10);
    }
}
