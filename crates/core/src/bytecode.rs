//! Compiled query programs: the plan IR lowered to a flat bytecode.
//!
//! A [`Program`] is the executable form of a [`Plan`]: the spine pipeline
//! becomes a flat `Vec<Op>` over numbered candidate-set registers, with
//! every variable-sized payload (steps, predicates, probe trees, chain
//! steps, walk predicates, text literals) hoisted into side pools indexed
//! by `u32`. The register VM ([`crate::vm`]), the only executor of spine
//! plans, runs the op list in one dispatch loop.
//!
//! Programs serialize to a compact, versioned little-endian byte form
//! ([`Program::encode`] / [`Program::decode`]) so they can be persisted in
//! a `.xwqp` sidecar next to the index and reloaded on restart. The
//! decoder is written for hostile input: every index is bounds-checked,
//! probe-tree references must point strictly backwards (so the tree is
//! acyclic by construction), recursion depths are capped, and anything
//! out of shape is a [`BytecodeError`], never a panic. Label and content
//! ids are only meaningful against the index the program was compiled
//! for, so [`Program::validate`] must pass against that index before the
//! VM may run the program.

use crate::eval::EvalOptions;
use crate::plan::PredPlan;
use crate::plan::{CostEstimate, Descend, Plan, PlanKind, Probe, ProbeStep, SpinePlan, SpineTest};
use std::fmt;
use xwq_index::TreeIndex;
use xwq_xml::LabelId;
use xwq_xpath::{Axis, NodeTest, Path, Pred, Step};

/// Version of the serialized program form. Bump on any layout change; the
/// sidecar reader treats an unknown version as "re-plan", never an error.
pub const BYTECODE_VERSION: u32 = 1;

/// Longest accepted probe-tree path (root to leaf) in a decoded program.
const PROBE_DEPTH_MAX: u32 = 256;

/// Deepest accepted walk-predicate AST nesting in a decoded program.
const WALK_DEPTH_MAX: u32 = 64;

/// Longest accepted string (query text, literals) in a decoded program.
const STR_LEN_MAX: usize = 1 << 20;

/// A compiled, executable query program.
#[derive(Clone, Debug)]
pub struct Program {
    /// What the VM runs.
    pub kind: ProgKind,
    /// The planner's total estimate (drives adaptive re-planning).
    pub est: CostEstimate,
    /// Why the planner chose this shape (for `explain`).
    pub reason: String,
}

/// The program shapes (mirrors [`PlanKind`]).
#[derive(Clone, Debug)]
pub enum ProgKind {
    /// Provably empty result.
    Empty,
    /// Full automaton run under the given knobs (executed by the existing
    /// [`crate::eval::Evaluator`]; the bytecode form only persists the
    /// knobs).
    Automaton(EvalOptions),
    /// A spine pipeline lowered to register ops.
    Spine(SpineProg),
}

/// A spine pipeline as a flat register program plus constant pools.
#[derive(Clone, Debug)]
pub struct SpineProg {
    /// The op list, executed in order by one dispatch loop.
    pub ops: Vec<Op>,
    /// Step table: axis/test/descend/min-depth/estimate per resolved step.
    pub steps: Vec<BcStep>,
    /// Flat predicate pool; each [`BcStep`] owns a contiguous range.
    pub preds: Vec<BcPred>,
    /// Flat probe-tree pool; children are stored before parents, so every
    /// reference points strictly backwards.
    pub probes: Vec<ProbeNode>,
    /// Chain-step pool ([`ProbeNode::Chain`] ranges).
    pub chains: Vec<ProbeStep>,
    /// Tree-walk predicate pool (the general evaluator's AST form).
    pub walks: Vec<Pred>,
    /// Text-literal pool (`contains` literals).
    pub texts: Vec<String>,
    /// Index of the LabelJump step.
    pub pivot: u32,
    /// The pivot's label.
    pub pivot_label: LabelId,
    /// Estimate for the seed phase (LabelJump + pivot preds + upward).
    pub seed_est: CostEstimate,
    /// Number of candidate-set registers the program uses.
    pub regs: u32,
}

/// One resolved step in the step table.
#[derive(Clone, Debug)]
pub struct BcStep {
    /// `child`, `descendant`, or `attribute`.
    pub axis: Axis,
    /// The node test.
    pub test: SpineTest,
    /// Enumeration method (steps after the pivot) or [`Descend::Upward`].
    pub descend: Descend,
    /// Shallowest depth at which the test can match.
    pub min_depth: u32,
    /// Per-operator estimate.
    pub est: CostEstimate,
    /// Range `[preds_start, preds_start + preds_len)` into the pred pool.
    pub preds_start: u32,
    /// See [`Self::preds_start`].
    pub preds_len: u32,
}

/// One predicate with its chosen evaluation method.
#[derive(Clone, Copy, Debug)]
pub enum BcPred {
    /// Root of a probe tree in the probe pool.
    Probe(u32),
    /// Tree-walk predicate: memo id + index into the walk pool.
    Walk { id: u32, walk: u32 },
}

/// A flattened probe-tree node. Children always sit at *smaller* pool
/// indices than their parent (post-order flattening), which makes cycles
/// unrepresentable and keeps decode validation a single forward pass.
#[derive(Clone, Debug)]
pub enum ProbeNode {
    /// Both children hold.
    And(u32, u32),
    /// Either child holds.
    Or(u32, u32),
    /// The child does not hold.
    Not(u32),
    /// A label chain: `len` steps starting at `start` in the chain pool.
    Chain { start: u32, len: u32 },
    /// Text-child equality against an interned content id.
    TextEq(Option<u32>),
    /// Own-content equality (attribute / `text()` steps).
    SelfTextEq(Option<u32>),
    /// Own-content substring; the literal lives in the text pool.
    SelfTextContains(u32),
    /// A constant.
    Const(bool),
}

/// One VM instruction. Registers are dense indices into the VM's
/// candidate-set register file; `step` indexes the step table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Seed `dst` from `label`'s sorted preorder list (marks every entry
    /// visited).
    LabelJump { dst: u8, label: LabelId },
    /// Retain candidates of `reg` satisfying all of `step`'s predicates.
    PredFilter { reg: u8, step: u16 },
    /// Retain candidates of `reg` whose spine prefix (steps before the
    /// pivot) matches upward.
    UpwardMatch { reg: u8 },
    /// Enumerate `step`'s matches below `src` into `dst` (child scan,
    /// child/attribute range scan, or subtree scan).
    Descend { dst: u8, src: u8, step: u16 },
    /// The descendant-axis range scan: merge `step`'s label list with the
    /// subtree ranges of `src` into `dst`.
    Intersect { dst: u8, src: u8, step: u16 },
    /// Sort `reg` and drop duplicates (document order invariant).
    SortDedup { reg: u8 },
    /// The program's result is register `src`.
    Select { src: u8 },
}

/// Decode / validation failure. The sidecar loader treats every variant
/// as "this program is unusable — re-plan", so a corrupt or stale `.xwqp`
/// can cost a re-plan but never a wrong answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BytecodeError {
    /// Input ended before the structure did.
    Truncated,
    /// A structural rule was violated (bad tag, out-of-range reference…).
    Malformed(&'static str),
    /// The program was written by an unknown bytecode version.
    Version(u32),
}

impl fmt::Display for BytecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BytecodeError::Truncated => write!(f, "bytecode truncated"),
            BytecodeError::Malformed(what) => write!(f, "malformed bytecode: {what}"),
            BytecodeError::Version(v) => write!(f, "unsupported bytecode version {v}"),
        }
    }
}

impl std::error::Error for BytecodeError {}

// ---------------------------------------------------------------------
// Lowering: Plan → Program
// ---------------------------------------------------------------------

/// Lowers a physical plan to its executable program.
pub fn compile_plan(plan: &Plan) -> Program {
    let kind = match &plan.kind {
        PlanKind::Empty => ProgKind::Empty,
        PlanKind::Automaton(opts) => ProgKind::Automaton(*opts),
        PlanKind::Spine(sp) => ProgKind::Spine(lower_spine(sp)),
    };
    Program {
        kind,
        est: plan.est,
        reason: plan.reason.clone(),
    }
}

fn lower_spine(sp: &SpinePlan) -> SpineProg {
    let mut prog = SpineProg {
        ops: Vec::new(),
        steps: Vec::with_capacity(sp.steps.len()),
        preds: Vec::new(),
        probes: Vec::new(),
        chains: Vec::new(),
        walks: Vec::new(),
        texts: Vec::new(),
        pivot: sp.pivot as u32,
        pivot_label: sp.pivot_label,
        seed_est: sp.seed_est,
        regs: 0,
    };
    for step in &sp.steps {
        let preds_start = prog.preds.len() as u32;
        for p in &step.preds {
            let bp = match p {
                PredPlan::Probe(probe) => BcPred::Probe(flatten_probe(probe, &mut prog)),
                PredPlan::Walk { id, pred } => {
                    prog.walks.push(pred.clone());
                    BcPred::Walk {
                        id: *id,
                        walk: (prog.walks.len() - 1) as u32,
                    }
                }
            };
            prog.preds.push(bp);
        }
        prog.steps.push(BcStep {
            axis: step.axis,
            test: step.test,
            descend: step.descend,
            min_depth: step.min_depth,
            est: step.est,
            preds_start,
            preds_len: (prog.preds.len() as u32) - preds_start,
        });
    }
    // Emit the op list: seed, filter, verify upward, then one
    // descend / filter / sort-dedup group per downstream step.
    let mut reg: u8 = 0;
    prog.ops.push(Op::LabelJump {
        dst: reg,
        label: sp.pivot_label,
    });
    if prog.steps[sp.pivot].preds_len > 0 {
        prog.ops.push(Op::PredFilter {
            reg,
            step: sp.pivot as u16,
        });
    }
    // match_up(0, ·) is only trivial for a descendant-axis pivot step; a
    // child/attribute pivot at step 0 still anchors to the root.
    if sp.pivot > 0 || sp.steps[0].axis != Axis::Descendant {
        prog.ops.push(Op::UpwardMatch { reg });
    }
    for si in sp.pivot + 1..sp.steps.len() {
        let dst = reg + 1;
        let step = si as u16;
        let s = &prog.steps[si];
        if s.descend == Descend::RangeScan && s.axis == Axis::Descendant {
            prog.ops.push(Op::Intersect {
                dst,
                src: reg,
                step,
            });
        } else {
            prog.ops.push(Op::Descend {
                dst,
                src: reg,
                step,
            });
        }
        if s.preds_len > 0 {
            prog.ops.push(Op::PredFilter { reg: dst, step });
        }
        prog.ops.push(Op::SortDedup { reg: dst });
        reg = dst;
    }
    prog.ops.push(Op::Select { src: reg });
    prog.regs = reg as u32 + 1;
    prog
}

/// Flattens a probe tree post-order (children first), returning the
/// node's pool index. Child references are therefore always `< self`.
fn flatten_probe(p: &Probe, prog: &mut SpineProg) -> u32 {
    let node = match p {
        Probe::And(a, b) => {
            let (a, b) = (flatten_probe(a, prog), flatten_probe(b, prog));
            ProbeNode::And(a, b)
        }
        Probe::Or(a, b) => {
            let (a, b) = (flatten_probe(a, prog), flatten_probe(b, prog));
            ProbeNode::Or(a, b)
        }
        Probe::Not(a) => ProbeNode::Not(flatten_probe(a, prog)),
        Probe::Chain(steps) => {
            let start = prog.chains.len() as u32;
            prog.chains.extend_from_slice(steps);
            ProbeNode::Chain {
                start,
                len: steps.len() as u32,
            }
        }
        Probe::TextEq(id) => ProbeNode::TextEq(*id),
        Probe::SelfTextEq(id) => ProbeNode::SelfTextEq(*id),
        Probe::SelfTextContains(lit) => {
            prog.texts.push(lit.clone());
            ProbeNode::SelfTextContains((prog.texts.len() - 1) as u32)
        }
        Probe::Const(b) => ProbeNode::Const(*b),
    };
    prog.probes.push(node);
    (prog.probes.len() - 1) as u32
}

// ---------------------------------------------------------------------
// Rendering (for `xwq explain`)
// ---------------------------------------------------------------------

impl Program {
    /// Renders the op list, one line per instruction, registers named
    /// `r0…`. Automaton and empty programs render their single op.
    pub fn listing(&self, ix: &TreeIndex) -> Vec<String> {
        let al = ix.alphabet();
        match &self.kind {
            ProgKind::Empty => vec!["Empty".to_string()],
            ProgKind::Automaton(o) => vec![format!(
                "AutomatonRun pruning={} jumping={} memo={} info_prop={}",
                o.pruning, o.jumping, o.memo, o.info_prop
            )],
            ProgKind::Spine(sp) => {
                let step_name = |i: u16| {
                    let s = &sp.steps[i as usize];
                    let test = match s.test {
                        SpineTest::Label(l) => al.name(l).to_string(),
                        SpineTest::Star => "*".to_string(),
                        SpineTest::Any => "node()".to_string(),
                    };
                    format!("{}::{}", s.axis.name(), test)
                };
                sp.ops
                    .iter()
                    .map(|op| match *op {
                        Op::LabelJump { dst, label } => format!(
                            "r{dst} <- LabelJump {} ({} candidates)",
                            al.name(label),
                            ix.label_count(label)
                        ),
                        Op::PredFilter { reg, step } => {
                            let s = &sp.steps[step as usize];
                            format!(
                                "r{reg} <- PredFilter r{reg} ({} pred{})",
                                s.preds_len,
                                if s.preds_len == 1 { "" } else { "s" }
                            )
                        }
                        Op::UpwardMatch { reg } => {
                            let prefix: Vec<String> = (0..sp.pivot as usize)
                                .map(|i| step_name(i as u16))
                                .collect();
                            format!("r{reg} <- UpwardMatch r{reg} {}", prefix.join("/"))
                        }
                        Op::Descend { dst, src, step } => {
                            format!("r{dst} <- Descend r{src} {}", step_name(step))
                        }
                        Op::Intersect { dst, src, step } => {
                            format!("r{dst} <- Intersect r{src} {}", step_name(step))
                        }
                        Op::SortDedup { reg } => format!("r{reg} <- SortDedup r{reg}"),
                        Op::Select { src } => format!("Select r{src}"),
                    })
                    .collect()
            }
        }
    }
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

struct Wr {
    buf: Vec<u8>,
}

impl Wr {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn opt_u32(&mut self, v: Option<u32>) {
        // `u32::MAX` is the "absent" sentinel; a real id can never reach
        // it (ids index in-memory vectors).
        self.u32(v.unwrap_or(u32::MAX));
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn est(&mut self, e: CostEstimate) {
        self.f64(e.cost);
        self.f64(e.visits);
    }
}

struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

type DecodeResult<T> = Result<T, BytecodeError>;

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.b.len() - self.pos < n {
            return Err(BytecodeError::Truncated);
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> DecodeResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(BytecodeError::Malformed("bool out of range")),
        }
    }
    fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn opt_u32(&mut self) -> DecodeResult<Option<u32>> {
        Ok(match self.u32()? {
            u32::MAX => None,
            v => Some(v),
        })
    }
    fn str(&mut self) -> DecodeResult<String> {
        let len = self.u32()? as usize;
        if len > STR_LEN_MAX {
            return Err(BytecodeError::Malformed("string too long"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| BytecodeError::Malformed("string not UTF-8"))
    }
    fn est(&mut self) -> DecodeResult<CostEstimate> {
        Ok(CostEstimate {
            cost: self.f64()?,
            visits: self.f64()?,
        })
    }
    /// A collection count: each element costs ≥ 1 byte, so any count
    /// beyond the remaining input is unsatisfiable (cheap OOM guard).
    fn count(&mut self) -> DecodeResult<usize> {
        let n = self.u32()? as usize;
        if n > self.b.len() - self.pos {
            return Err(BytecodeError::Truncated);
        }
        Ok(n)
    }
    fn done(&self) -> DecodeResult<()> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(BytecodeError::Malformed("bytes after program end"))
        }
    }
}

fn axis_tag(a: Axis) -> u8 {
    match a {
        Axis::Child => 0,
        Axis::Descendant => 1,
        Axis::SelfAxis => 2,
        Axis::FollowingSibling => 3,
        Axis::Attribute => 4,
        Axis::Parent => 5,
        Axis::Ancestor => 6,
    }
}

fn axis_untag(t: u8) -> DecodeResult<Axis> {
    Ok(match t {
        0 => Axis::Child,
        1 => Axis::Descendant,
        2 => Axis::SelfAxis,
        3 => Axis::FollowingSibling,
        4 => Axis::Attribute,
        5 => Axis::Parent,
        6 => Axis::Ancestor,
        _ => return Err(BytecodeError::Malformed("axis tag out of range")),
    })
}

fn write_pred(w: &mut Wr, p: &Pred) {
    match p {
        Pred::And(a, b) => {
            w.u8(0);
            write_pred(w, a);
            write_pred(w, b);
        }
        Pred::Or(a, b) => {
            w.u8(1);
            write_pred(w, a);
            write_pred(w, b);
        }
        Pred::Not(a) => {
            w.u8(2);
            write_pred(w, a);
        }
        Pred::Path(path) => {
            w.u8(3);
            w.bool(path.absolute);
            w.u32(path.steps.len() as u32);
            for s in &path.steps {
                write_step(w, s);
            }
        }
        Pred::TextEq(lit) => {
            w.u8(4);
            w.str(lit);
        }
        Pred::TextContains(lit) => {
            w.u8(5);
            w.str(lit);
        }
    }
}

fn write_step(w: &mut Wr, s: &Step) {
    w.u8(axis_tag(s.axis));
    match &s.test {
        NodeTest::Name(n) => {
            w.u8(0);
            w.str(n);
        }
        NodeTest::Star => w.u8(1),
        NodeTest::AnyNode => w.u8(2),
        NodeTest::Text => w.u8(3),
    }
    w.u32(s.preds.len() as u32);
    for p in &s.preds {
        write_pred(w, p);
    }
}

fn read_pred(r: &mut Rd, depth: u32) -> DecodeResult<Pred> {
    if depth > WALK_DEPTH_MAX {
        return Err(BytecodeError::Malformed("walk predicate too deep"));
    }
    Ok(match r.u8()? {
        0 => Pred::And(
            Box::new(read_pred(r, depth + 1)?),
            Box::new(read_pred(r, depth + 1)?),
        ),
        1 => Pred::Or(
            Box::new(read_pred(r, depth + 1)?),
            Box::new(read_pred(r, depth + 1)?),
        ),
        2 => Pred::Not(Box::new(read_pred(r, depth + 1)?)),
        3 => {
            let absolute = r.bool()?;
            let n = r.count()?;
            let mut steps = Vec::with_capacity(n);
            for _ in 0..n {
                steps.push(read_step(r, depth + 1)?);
            }
            Pred::Path(Path { absolute, steps })
        }
        4 => Pred::TextEq(r.str()?),
        5 => Pred::TextContains(r.str()?),
        _ => return Err(BytecodeError::Malformed("pred tag out of range")),
    })
}

fn read_step(r: &mut Rd, depth: u32) -> DecodeResult<Step> {
    let axis = axis_untag(r.u8()?)?;
    let test = match r.u8()? {
        0 => NodeTest::Name(r.str()?),
        1 => NodeTest::Star,
        2 => NodeTest::AnyNode,
        3 => NodeTest::Text,
        _ => return Err(BytecodeError::Malformed("node test tag out of range")),
    };
    let n = r.count()?;
    let mut preds = Vec::with_capacity(n);
    for _ in 0..n {
        preds.push(read_pred(r, depth + 1)?);
    }
    Ok(Step { axis, test, preds })
}

impl Program {
    /// Encodes the program to its versioned byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Wr { buf: Vec::new() };
        w.u32(BYTECODE_VERSION);
        w.est(self.est);
        w.str(&self.reason);
        match &self.kind {
            ProgKind::Empty => w.u8(0),
            ProgKind::Automaton(o) => {
                w.u8(1);
                w.bool(o.pruning);
                w.bool(o.jumping);
                w.bool(o.memo);
                w.bool(o.info_prop);
                w.u32(o.jump_width as u32);
            }
            ProgKind::Spine(sp) => {
                w.u8(2);
                w.u32(sp.pivot);
                w.u32(sp.pivot_label);
                w.est(sp.seed_est);
                w.u32(sp.regs);
                w.u32(sp.steps.len() as u32);
                for s in &sp.steps {
                    w.u8(axis_tag(s.axis));
                    match s.test {
                        SpineTest::Label(l) => {
                            w.u8(0);
                            w.u32(l);
                        }
                        SpineTest::Star => w.u8(1),
                        SpineTest::Any => w.u8(2),
                    }
                    w.u8(match s.descend {
                        Descend::ChildScan => 0,
                        Descend::RangeScan => 1,
                        Descend::SubtreeScan => 2,
                        Descend::Upward => 3,
                    });
                    w.u32(s.min_depth);
                    w.est(s.est);
                    w.u32(s.preds_start);
                    w.u32(s.preds_len);
                }
                w.u32(sp.preds.len() as u32);
                for p in &sp.preds {
                    match p {
                        BcPred::Probe(root) => {
                            w.u8(0);
                            w.u32(*root);
                        }
                        BcPred::Walk { id, walk } => {
                            w.u8(1);
                            w.u32(*id);
                            w.u32(*walk);
                        }
                    }
                }
                w.u32(sp.probes.len() as u32);
                for p in &sp.probes {
                    match p {
                        ProbeNode::And(a, b) => {
                            w.u8(0);
                            w.u32(*a);
                            w.u32(*b);
                        }
                        ProbeNode::Or(a, b) => {
                            w.u8(1);
                            w.u32(*a);
                            w.u32(*b);
                        }
                        ProbeNode::Not(a) => {
                            w.u8(2);
                            w.u32(*a);
                        }
                        ProbeNode::Chain { start, len } => {
                            w.u8(3);
                            w.u32(*start);
                            w.u32(*len);
                        }
                        ProbeNode::TextEq(id) => {
                            w.u8(4);
                            w.opt_u32(*id);
                        }
                        ProbeNode::SelfTextEq(id) => {
                            w.u8(5);
                            w.opt_u32(*id);
                        }
                        ProbeNode::SelfTextContains(t) => {
                            w.u8(6);
                            w.u32(*t);
                        }
                        ProbeNode::Const(b) => {
                            w.u8(7);
                            w.bool(*b);
                        }
                    }
                }
                w.u32(sp.chains.len() as u32);
                for c in &sp.chains {
                    w.bool(c.child_like);
                    w.u32(c.label);
                }
                w.u32(sp.walks.len() as u32);
                for p in &sp.walks {
                    write_pred(&mut w, p);
                }
                w.u32(sp.texts.len() as u32);
                for t in &sp.texts {
                    w.str(t);
                }
                w.u32(sp.ops.len() as u32);
                for op in &sp.ops {
                    match *op {
                        Op::LabelJump { dst, label } => {
                            w.u8(0);
                            w.u8(dst);
                            w.u32(label);
                        }
                        Op::PredFilter { reg, step } => {
                            w.u8(1);
                            w.u8(reg);
                            w.u32(step as u32);
                        }
                        Op::UpwardMatch { reg } => {
                            w.u8(2);
                            w.u8(reg);
                        }
                        Op::Descend { dst, src, step } => {
                            w.u8(3);
                            w.u8(dst);
                            w.u8(src);
                            w.u32(step as u32);
                        }
                        Op::Intersect { dst, src, step } => {
                            w.u8(4);
                            w.u8(dst);
                            w.u8(src);
                            w.u32(step as u32);
                        }
                        Op::SortDedup { reg } => {
                            w.u8(5);
                            w.u8(reg);
                        }
                        Op::Select { src } => {
                            w.u8(6);
                            w.u8(src);
                        }
                    }
                }
            }
        }
        w.buf
    }

    /// Decodes and structurally validates a program. Label and content
    /// ids are *not* checked here (they need the index) — callers must
    /// also run [`Program::validate`] against the target index.
    pub fn decode(bytes: &[u8]) -> DecodeResult<Program> {
        let mut r = Rd { b: bytes, pos: 0 };
        let version = r.u32()?;
        if version != BYTECODE_VERSION {
            return Err(BytecodeError::Version(version));
        }
        let est = r.est()?;
        let reason = r.str()?;
        let kind = match r.u8()? {
            0 => ProgKind::Empty,
            1 => {
                let opts = EvalOptions {
                    pruning: r.bool()?,
                    jumping: r.bool()?,
                    memo: r.bool()?,
                    info_prop: r.bool()?,
                    jump_width: r.u32()? as usize,
                };
                ProgKind::Automaton(opts)
            }
            2 => ProgKind::Spine(decode_spine(&mut r)?),
            _ => return Err(BytecodeError::Malformed("program kind out of range")),
        };
        r.done()?;
        let prog = Program { kind, est, reason };
        prog.check_structure()?;
        Ok(prog)
    }

    /// Structural validation over pool references, op shape, and probe
    /// acyclicity/depth — everything checkable without the index.
    fn check_structure(&self) -> DecodeResult<()> {
        let ProgKind::Spine(sp) = &self.kind else {
            return Ok(());
        };
        let err = BytecodeError::Malformed;
        let nsteps = sp.steps.len();
        let pivot = sp.pivot as usize;
        if pivot >= nsteps {
            return Err(err("pivot out of range"));
        }
        if sp.steps[pivot].test != SpineTest::Label(sp.pivot_label) {
            return Err(err("pivot step does not test the pivot label"));
        }
        for (i, s) in sp.steps.iter().enumerate() {
            if !matches!(s.axis, Axis::Child | Axis::Descendant | Axis::Attribute) {
                return Err(err("spine step with non-spine axis"));
            }
            if (i <= pivot) != (s.descend == Descend::Upward) {
                return Err(err("descend method inconsistent with pivot"));
            }
            if s.descend == Descend::RangeScan && !matches!(s.test, SpineTest::Label(_)) {
                return Err(err("range scan without a label test"));
            }
            let end = s.preds_start.checked_add(s.preds_len);
            if end.is_none_or(|e| e as usize > sp.preds.len()) {
                return Err(err("pred range out of pool"));
            }
        }
        for p in &sp.preds {
            match *p {
                BcPred::Probe(root) => {
                    if root as usize >= sp.probes.len() {
                        return Err(err("probe root out of pool"));
                    }
                }
                BcPred::Walk { walk, .. } => {
                    if walk as usize >= sp.walks.len() {
                        return Err(err("walk reference out of pool"));
                    }
                }
            }
        }
        // Probe references must point strictly backwards (acyclic by
        // construction); depths are then computable in one forward pass.
        let mut depth = vec![0u32; sp.probes.len()];
        for (i, p) in sp.probes.iter().enumerate() {
            let child = |c: u32| -> DecodeResult<u32> {
                if (c as usize) < i {
                    Ok(depth[c as usize])
                } else {
                    Err(err("probe child does not point backwards"))
                }
            };
            let d = match *p {
                ProbeNode::And(a, b) | ProbeNode::Or(a, b) => child(a)?.max(child(b)?) + 1,
                ProbeNode::Not(a) => child(a)? + 1,
                ProbeNode::Chain { start, len } => {
                    if len == 0 {
                        return Err(err("empty probe chain"));
                    }
                    let end = start.checked_add(len);
                    if end.is_none_or(|e| e as usize > sp.chains.len()) {
                        return Err(err("chain range out of pool"));
                    }
                    1
                }
                ProbeNode::SelfTextContains(t) => {
                    if t as usize >= sp.texts.len() {
                        return Err(err("text literal out of pool"));
                    }
                    1
                }
                ProbeNode::TextEq(_) | ProbeNode::SelfTextEq(_) | ProbeNode::Const(_) => 1,
            };
            if d > PROBE_DEPTH_MAX {
                return Err(err("probe tree too deep"));
            }
            depth[i] = d;
        }
        if sp.regs == 0 || sp.regs > 64 {
            return Err(err("register count out of range"));
        }
        let reg_ok = |r: u8| (r as u32) < sp.regs;
        let dstep_ok = |s: u16| {
            let i = s as usize;
            i < nsteps && i > pivot
        };
        for op in &sp.ops {
            let ok = match *op {
                Op::LabelJump { dst, .. } => reg_ok(dst),
                Op::PredFilter { reg, step } => reg_ok(reg) && (step as usize) < nsteps,
                Op::UpwardMatch { reg } => reg_ok(reg),
                Op::Descend { dst, src, step } => {
                    reg_ok(dst) && reg_ok(src) && dstep_ok(step) && {
                        let s = &sp.steps[step as usize];
                        !(s.descend == Descend::RangeScan && s.axis == Axis::Descendant)
                    }
                }
                Op::Intersect { dst, src, step } => {
                    reg_ok(dst) && reg_ok(src) && dstep_ok(step) && {
                        let s = &sp.steps[step as usize];
                        s.descend == Descend::RangeScan && s.axis == Axis::Descendant
                    }
                }
                Op::SortDedup { reg } => reg_ok(reg),
                Op::Select { src } => reg_ok(src),
            };
            if !ok {
                return Err(err("op operand out of range"));
            }
        }
        match sp.ops.last() {
            Some(Op::Select { .. }) => {}
            _ => return Err(err("program does not end in Select")),
        }
        if sp
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Select { .. }))
            .count()
            != 1
        {
            return Err(err("program must contain exactly one Select"));
        }
        Ok(())
    }

    /// Validates the program's label / content ids against the index it
    /// is about to run on. A program is only transferable between
    /// byte-identical indexes (the sidecar binds to the index checksum),
    /// but a corrupt-yet-checksum-valid file must still never panic the
    /// VM, so ids are range-checked here.
    pub fn validate(&self, ix: &TreeIndex) -> DecodeResult<()> {
        let ProgKind::Spine(sp) = &self.kind else {
            return Ok(());
        };
        let err = BytecodeError::Malformed;
        let nlabels = ix.alphabet().len() as u32;
        let ntexts = ix.distinct_text_count() as u32;
        let label_ok = |l: LabelId| l < nlabels;
        if !label_ok(sp.pivot_label) {
            return Err(err("pivot label out of alphabet"));
        }
        for s in &sp.steps {
            if let SpineTest::Label(l) = s.test {
                if !label_ok(l) {
                    return Err(err("step label out of alphabet"));
                }
            }
        }
        for c in &sp.chains {
            if !label_ok(c.label) {
                return Err(err("chain label out of alphabet"));
            }
        }
        for p in &sp.probes {
            match *p {
                ProbeNode::TextEq(Some(id)) | ProbeNode::SelfTextEq(Some(id)) if id >= ntexts => {
                    return Err(err("content id out of range"));
                }
                _ => {}
            }
        }
        for op in &sp.ops {
            if let Op::LabelJump { label, .. } = *op {
                if !label_ok(label) {
                    return Err(err("LabelJump label out of alphabet"));
                }
            }
        }
        Ok(())
    }
}

fn decode_spine(r: &mut Rd) -> DecodeResult<SpineProg> {
    let pivot = r.u32()?;
    let pivot_label = r.u32()?;
    let seed_est = r.est()?;
    let regs = r.u32()?;
    let nsteps = r.count()?;
    let mut steps = Vec::with_capacity(nsteps);
    for _ in 0..nsteps {
        let axis = axis_untag(r.u8()?)?;
        let test = match r.u8()? {
            0 => SpineTest::Label(r.u32()?),
            1 => SpineTest::Star,
            2 => SpineTest::Any,
            _ => return Err(BytecodeError::Malformed("spine test tag out of range")),
        };
        let descend = match r.u8()? {
            0 => Descend::ChildScan,
            1 => Descend::RangeScan,
            2 => Descend::SubtreeScan,
            3 => Descend::Upward,
            _ => return Err(BytecodeError::Malformed("descend tag out of range")),
        };
        steps.push(BcStep {
            axis,
            test,
            descend,
            min_depth: r.u32()?,
            est: r.est()?,
            preds_start: r.u32()?,
            preds_len: r.u32()?,
        });
    }
    let npreds = r.count()?;
    let mut preds = Vec::with_capacity(npreds);
    for _ in 0..npreds {
        preds.push(match r.u8()? {
            0 => BcPred::Probe(r.u32()?),
            1 => BcPred::Walk {
                id: r.u32()?,
                walk: r.u32()?,
            },
            _ => return Err(BytecodeError::Malformed("pred tag out of range")),
        });
    }
    let nprobes = r.count()?;
    let mut probes = Vec::with_capacity(nprobes);
    for _ in 0..nprobes {
        probes.push(match r.u8()? {
            0 => ProbeNode::And(r.u32()?, r.u32()?),
            1 => ProbeNode::Or(r.u32()?, r.u32()?),
            2 => ProbeNode::Not(r.u32()?),
            3 => ProbeNode::Chain {
                start: r.u32()?,
                len: r.u32()?,
            },
            4 => ProbeNode::TextEq(r.opt_u32()?),
            5 => ProbeNode::SelfTextEq(r.opt_u32()?),
            6 => ProbeNode::SelfTextContains(r.u32()?),
            7 => ProbeNode::Const(r.bool()?),
            _ => return Err(BytecodeError::Malformed("probe tag out of range")),
        });
    }
    let nchains = r.count()?;
    let mut chains = Vec::with_capacity(nchains);
    for _ in 0..nchains {
        chains.push(ProbeStep {
            child_like: r.bool()?,
            label: r.u32()?,
        });
    }
    let nwalks = r.count()?;
    let mut walks = Vec::with_capacity(nwalks);
    for _ in 0..nwalks {
        walks.push(read_pred(r, 0)?);
    }
    let ntexts = r.count()?;
    let mut texts = Vec::with_capacity(ntexts);
    for _ in 0..ntexts {
        texts.push(r.str()?);
    }
    let nops = r.count()?;
    let mut ops = Vec::with_capacity(nops);
    let step_u16 = |v: u32| -> DecodeResult<u16> {
        u16::try_from(v).map_err(|_| BytecodeError::Malformed("step index too large"))
    };
    for _ in 0..nops {
        ops.push(match r.u8()? {
            0 => Op::LabelJump {
                dst: r.u8()?,
                label: r.u32()?,
            },
            1 => Op::PredFilter {
                reg: r.u8()?,
                step: step_u16(r.u32()?)?,
            },
            2 => Op::UpwardMatch { reg: r.u8()? },
            3 => Op::Descend {
                dst: r.u8()?,
                src: r.u8()?,
                step: step_u16(r.u32()?)?,
            },
            4 => Op::Intersect {
                dst: r.u8()?,
                src: r.u8()?,
                step: step_u16(r.u32()?)?,
            },
            5 => Op::SortDedup { reg: r.u8()? },
            6 => Op::Select { src: r.u8()? },
            _ => return Err(BytecodeError::Malformed("opcode out of range")),
        });
    }
    Ok(SpineProg {
        ops,
        steps,
        preds,
        probes,
        chains,
        walks,
        texts,
        pivot,
        pivot_label,
        seed_est,
        regs,
    })
}
