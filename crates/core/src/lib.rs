//! The whole-query-optimizing XPath engine (§4 of the paper).
//!
//! Pipeline: an XPath query (parsed by [`xwq_xpath`]) is compiled against a
//! document's label alphabet into an *alternating selecting tree automaton*
//! ([`Asta`]), which is then evaluated over a [`xwq_index::TreeIndex`] in one
//! bottom-up pass with top-down pre-processing (Algorithm 4.1), optionally:
//!
//! * **pruning** empty state-set subtrees (the implicit skip of §5's Fig. 3
//!   line (3)),
//! * **jumping** directly between (approximately) relevant nodes using the
//!   on-the-fly top-down approximation of Def. 4.2 and the index's `dt`/`ft`/
//!   `lt`/`rt` primitives,
//! * **memoizing** transition selection and formula evaluation (§4.4),
//! * **propagating information** between sibling evaluations so predicate
//!   states are only verified once (§4.4),
//! * or running the **hybrid** start-anywhere strategy (§4.4, Fig. 5).
//!
//! Entry point: [`Engine`].

mod asta;
mod bits;
pub mod bytecode;
mod cache;
mod compile;
mod engine;
mod eval;
mod plan;
pub mod planner;
mod results;
mod sets;
mod tda;
mod vm;
mod walk;

pub use asta::{Asta, AstaTransition, Formula, StateId};
pub use bits::StateBits;
pub use bytecode::{compile_plan, BytecodeError, ProgKind, Program, BYTECODE_VERSION};
pub use engine::{
    CompiledQuery, Engine, ParseStrategyError, PlanCounters, ProgramCell, QueryError, QueryOutput,
    Strategy, DEFAULT_REPLAN_FACTOR,
};

pub use compile::{compile_path, compile_path_indexed, CompileError};
pub use eval::{EvalMemo, EvalOptions, EvalScratch, EvalStats, Evaluator};
pub use plan::{
    CostEstimate, Descend, Plan, PlanKind, PlanOpLine, PredPlan, Probe, ProbeStep, SpinePlan,
    SpineStep, SpineTest,
};
pub use results::{NodeList, ResultArena, ResultSet};
pub use sets::SetInterner;
pub use tda::{SkipKind, Tda};
pub use xwq_obs::TraceNode;
