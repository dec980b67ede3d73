//! The abstract WAM: reinterpreted instructions plus the ET control
//! scheme.
//!
//! The machine executes the *same* [`wam::CompiledProgram`] as the
//! concrete runtime — through the *same* dispatch loop
//! ([`awam_exec::step`]) — with the reinterpretations of §4–§5 of the
//! paper supplied through the [`Interpretation`] trait:
//!
//! * `get`/`unify` instructions perform abstract unification; abstract
//!   leaves instantiate to complex-term instances on the heap
//!   (Figure 4's `get_list`), with the old cell value trailed;
//! * `call` computes the calling pattern, consults the extension table,
//!   and — on a miss — explores every clause of the callee on a fresh
//!   materialization of the pattern, summarizing success patterns by lub
//!   (Figure 5);
//! * `proceed` corresponds to `updateET … fail` (clause exploration is a
//!   loop here, not backtracking: calls return deterministically, so no
//!   choice points exist at all);
//! * cut is treated as `true` (a sound over-approximation) and the
//!   indexing instructions are bypassed entirely — the clause list is
//!   iterated directly, as §5 prescribes.

use crate::acell::ACell;
use crate::analyzer::ProfileData;
use crate::extract::{deref, extract, extract_with, materialize, materialize_into, ExtractScratch};
use crate::table::{DerivationOrigin, ExtensionTable};
use crate::IterationStrategy;
use absdom::{AbsLeaf, DomainConfig, FxHashMap, LubScratch, Pattern, PatternId, SessionInterner};
use awam_exec::{Flow, Frame, Interpretation, Mode};
use awam_obs::{Histogram, Layer, MachineStats, OpcodeCounts, SpanProfiler, TraceEvent, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use wam::{Builtin, CodeAddr, CompiledProgram, Functor, PredIdx, WamConst};

/// An error produced during analysis (distinct from abstract failure).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// The entry predicate does not exist.
    UnknownPredicate {
        /// `name/arity` of the missing predicate.
        pred: String,
    },
    /// The entry pattern's arity does not match the predicate.
    ArityMismatch {
        /// Expected (predicate) arity.
        expected: usize,
        /// Provided pattern arity.
        got: usize,
    },
    /// The exploration recursion exceeded its safety bound.
    DepthLimit,
    /// The global fixpoint iteration exceeded its safety bound.
    IterationLimit,
    /// An entry-pattern spec string was not understood.
    BadSpec(String),
    /// The run exceeded its configured abstract-instruction budget (see
    /// [`crate::AnalyzerBuilder::step_budget`]). Unlike the safety
    /// bounds above, this is a *caller-chosen* deadline: `awam serve`
    /// maps it to a load-shedding response.
    BudgetExceeded {
        /// The configured budget.
        budget: u64,
        /// Abstract instructions executed when the budget tripped.
        executed: u64,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::UnknownPredicate { pred } => {
                write!(f, "unknown entry predicate {pred}")
            }
            AnalysisError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "entry pattern has {got} arguments, predicate expects {expected}"
                )
            }
            AnalysisError::DepthLimit => write!(f, "exploration depth limit exceeded"),
            AnalysisError::IterationLimit => write!(f, "fixpoint iteration limit exceeded"),
            AnalysisError::BadSpec(s) => write!(f, "unrecognized pattern spec `{s}`"),
            AnalysisError::BudgetExceeded { budget, executed } => {
                write!(
                    f,
                    "abstract-instruction budget exceeded ({executed} executed, budget {budget})"
                )
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Pairs a unification processes before its pairs start counting
/// against the step budget (the suite's longest unification takes
/// under 64).
const LONG_UNIFY: u64 = 1_024;

/// Pairs an unbudgeted unification may process before the run stops
/// with [`AnalysisError::IterationLimit`].
const MAX_UNIFY_STEPS: u64 = 100_000;

/// Pair-memo entries [`AbstractMachine::unify`] scans linearly before
/// spilling them to a hash set.
const SEEN_SCAN_MAX: usize = 64;

/// The abstract machine state.
pub struct AbstractMachine<'p> {
    program: &'p CompiledProgram,
    pub(crate) table: ExtensionTable,
    /// Hash-consing interner for every pattern this run touches: table
    /// entries hold [`PatternId`]s that resolve through it, and the
    /// summary-lub / subsumption paths go through its memo caches.
    interner: SessionInterner,
    /// Shared substrate state: heap, registers, environments, value
    /// trail, pc, mode/S, and the instruction/opcode counters.
    frame: Frame<ACell, (usize, ACell)>,
    /// Current `call` nesting (the old explicit depth parameter; a field
    /// now that recursion flows through the shared dispatch loop).
    depth: usize,
    depth_k: usize,
    config: DomainConfig,
    strategy: IterationStrategy,
    /// Dependency log of the entry currently being explored (stack of
    /// frames, one per nested exploration).
    dep_stack: Vec<Vec<(usize, usize)>>,
    /// Entries currently being explored (worklist strategy re-entrancy
    /// guard).
    in_progress: std::collections::HashSet<(usize, usize)>,
    /// Reverse dependency edges: entry → entries that read it, built
    /// only under [`IterationStrategy::Dependency`] (the worklist is
    /// their one reader). Ordered maps, so worklist seeding (and
    /// therefore the whole analysis event stream) is deterministic
    /// across runs.
    rev_deps: BTreeMap<(usize, usize), BTreeSet<(usize, usize)>>,
    /// Entries whose inputs changed and must be re-explored.
    worklist: std::collections::VecDeque<(usize, usize)>,
    queued: std::collections::HashSet<(usize, usize)>,
    /// Total entry explorations performed (reported as `iterations` by
    /// the worklist strategy).
    explorations: u64,
    iter: u64,
    /// Number of `solve_call` invocations (profiling aid).
    pub call_count: u64,
    /// When true, fixpoint runs record a span tree: one span per run and
    /// per explored predicate, with the materialize / extract /
    /// et-consult / et-update layers charged to each span's fixed leaf
    /// slots. Off by default: clock reads in the dispatch loop are
    /// measurable overhead.
    pub profile_timing: bool,
    /// Backtracks plus high-water marks; instruction/call totals are
    /// folded in by [`Self::machine_stats`].
    stats: MachineStats,
    /// Self-instructions per predicate (needs [`Self::profile_timing`];
    /// allocated with the span profiler): dispatch counts attributed to
    /// the predicate being explored, excluding nested explorations.
    pred_instr_self: Vec<u64>,
    /// `(executed snapshot, child instructions)` per active
    /// `explore_entry` frame.
    pred_instr_stack: Vec<(u64, u64)>,
    /// Hierarchical span tree (run / predicate, with layer leaves),
    /// allocated lazily when [`Self::profile_timing`] is set.
    span: Option<SpanProfiler>,
    /// `name/arity` display strings, cached so span hooks never hit the
    /// symbol interner on the hot path; built with the span profiler.
    pred_names: Vec<String>,
    /// ET-consult latency distribution (needs [`Self::profile_timing`]).
    consult_hist: Histogram,
    /// Per-round lub widenings (needs [`Self::profile_timing`]).
    round_widen_hist: Histogram,
    /// Per-round table growth in entries (needs
    /// [`Self::profile_timing`]).
    round_growth_hist: Histogram,
    /// Whether the table records derivations. Sampled once from
    /// [`ExtensionTable::provenance_enabled`] at construction, so the
    /// per-call cost when off is a single predictable branch.
    record_provenance: bool,
    /// Clause context of each active `explore_entry` frame:
    /// `(pred, clause index, calling-pattern id)` — what a nested insert
    /// records as its derivation origin.
    prov_stack: Vec<(usize, usize, PatternId)>,
    tracer: Option<&'p mut dyn Tracer>,
    max_depth: usize,
    /// Optional abstract-instruction budget: when `frame.executed`
    /// crosses it, the run aborts with
    /// [`AnalysisError::BudgetExceeded`]. Checked at call boundaries and
    /// fixpoint round/worklist boundaries — not per instruction — so the
    /// hot dispatch loop stays branch-free and the overshoot is bounded
    /// by one clause exploration.
    step_budget: Option<u64>,
    /// Scratch worklist for [`Self::unify`] (reset-not-free: taken and
    /// returned around each unification instead of reallocated).
    unify_stack: Vec<(ACell, ACell)>,
    /// Scratch pair-memo for [`Self::unify`], same lifecycle: scanned
    /// while short, spilled to [`Self::unify_seen_set`] past
    /// [`SEEN_SCAN_MAX`] pairs.
    unify_seen: Vec<(usize, usize)>,
    /// The spilled pair-memo of a long unification, same lifecycle.
    unify_seen_set: FxHashMap<(usize, usize), ()>,
    /// Why a runaway unification stopped (see [`LONG_UNIFY`]): it fails
    /// the unification, and the error ends the run at the next clause
    /// failure or call return.
    runaway: Option<AnalysisError>,
    /// Scratch memo for materializations (cleared and resized per use).
    mat_done: Vec<Option<ACell>>,
    /// Scratch argument cells for [`Self::apply_success`] (safe to share:
    /// applying a summary never re-enters the solver).
    apply_args: Vec<ACell>,
    /// Pool of argument-cell vectors for [`Self::solve_call`] /
    /// [`Self::explore_entry`]. Those frames are recursive, so a single
    /// scratch would be clobbered; a pool hands each depth its own buffer
    /// and takes it back on the way out.
    cell_pool: Vec<Vec<ACell>>,
    /// Scratch buffers for pattern extraction (one per machine; the
    /// extracted pattern is interned clone-on-miss straight out of here).
    extract_scratch: ExtractScratch,
    /// Scratch buffers every summary lub of this run shares. The machine
    /// owns it, so a parked session's interner keeps none.
    lub_scratch: LubScratch,
}

/// The abstract interpretation of §4–§5: `s_unify` and complex-term
/// instantiation at the unification hooks, the extension-table control
/// scheme at the control hooks, cut as `true`, indexing bypassed.
impl Interpretation for AbstractMachine<'_> {
    type Cell = ACell;
    /// Value trail: instantiation overwrites variable-*like* cells, so
    /// undo must restore the previous cell, not a fresh unbound ref.
    type TrailEntry = (usize, ACell);
    type Error = AnalysisError;

    fn frame(&self) -> &Frame<ACell, (usize, ACell)> {
        &self.frame
    }

    fn frame_mut(&mut self) -> &mut Frame<ACell, (usize, ACell)> {
        &mut self.frame
    }

    fn trail_entry(addr: usize, old: ACell) -> (usize, ACell) {
        (addr, old)
    }

    fn undo_entry(heap: &mut [ACell], (addr, old): (usize, ACell)) {
        heap[addr] = old;
    }

    fn unify(&mut self, a: ACell, b: ACell) -> bool {
        // The inherent `s_unify` below.
        AbstractMachine::unify(self, a, b)
    }

    fn get_constant(&mut self, c: WamConst, arg: ACell) -> bool {
        // Covers both `get_constant` and read-mode `unify_constant`:
        // abstract cells admit constants through `s_unify`.
        let cell = const_cell(c);
        self.unify(arg, cell)
    }

    /// Figure 4: `get_list` over the abstract domain.
    fn get_list(&mut self, arg: ACell) -> bool {
        let (cell, addr) = deref(&self.frame.heap, arg);
        match cell {
            // Concrete behaviours are unchanged.
            ACell::Lis(p) => {
                self.frame.mode = Mode::Read;
                self.frame.s = p;
                true
            }
            ACell::Ref(a) => {
                let h = self.frame.heap.len();
                self.bind(a, ACell::Lis(h));
                self.frame.mode = Mode::Write;
                true
            }
            // ComplexTermInst: generate a [·|·] instance of the abstract
            // term on the heap and proceed in read mode over it.
            ACell::Abs(l) => {
                if !l.admits_list() {
                    return false;
                }
                let a = addr.expect("abs cells live on the heap");
                let h = self.frame.heap.len();
                let child = l.instance_child();
                self.push_child(child);
                self.push_child(child);
                self.bind(a, ACell::Lis(h));
                self.frame.mode = Mode::Read;
                self.frame.s = h;
                true
            }
            ACell::AbsList(e) => {
                let a = addr.expect("abs cells live on the heap");
                // glist₁ ← [g₁ | glist₂]: fresh element instance as car,
                // fresh list instance as cdr.
                let car = self.copy_type(e);
                let cdr_elem = self.copy_type(e);
                let cdr = self.frame.heap.len();
                self.frame.heap.push(ACell::AbsList(cdr_elem));
                // Lay out the pair contiguously: car is at `car`, but the
                // pair must be two consecutive cells; rebuild as refs.
                let pair = self.frame.heap.len();
                self.frame.heap.push(ACell::Ref(car));
                self.frame.heap.push(ACell::Ref(cdr));
                self.bind(a, ACell::Lis(pair));
                self.frame.mode = Mode::Read;
                self.frame.s = pair;
                true
            }
            _ => false,
        }
    }

    /// `get_structure f/n` over the abstract domain.
    fn get_structure(&mut self, f: Functor, arg: ACell) -> bool {
        let (cell, addr) = deref(&self.frame.heap, arg);
        match cell {
            ACell::Str(p) if self.frame.heap[p] == ACell::Fun(f.name, f.arity) => {
                self.frame.mode = Mode::Read;
                self.frame.s = p + 1;
                true
            }
            ACell::Ref(a) => {
                let h = self.frame.heap.len();
                self.frame.heap.push(ACell::Fun(f.name, f.arity));
                self.bind(a, ACell::Str(h));
                self.frame.mode = Mode::Write;
                true
            }
            ACell::Abs(l) => {
                if !l.admits_struct() {
                    return false;
                }
                let a = addr.expect("abs cells live on the heap");
                let h = self.frame.heap.len();
                self.frame.heap.push(ACell::Fun(f.name, f.arity));
                let child = l.instance_child();
                for _ in 0..f.arity {
                    self.push_child(child);
                }
                self.bind(a, ACell::Str(h));
                self.frame.mode = Mode::Read;
                self.frame.s = h + 1;
                true
            }
            ACell::AbsList(e) => {
                // A list instance can only be the cons structure.
                if !absdom::is_dot_symbol(f.name) || f.arity != 2 {
                    return false;
                }
                let a = addr.expect("abs cells live on the heap");
                let car = self.copy_type(e);
                let cdr_elem = self.copy_type(e);
                let cdr = self.frame.heap.len();
                self.frame.heap.push(ACell::AbsList(cdr_elem));
                let pair = self.frame.heap.len();
                self.frame.heap.push(ACell::Ref(car));
                self.frame.heap.push(ACell::Ref(cdr));
                self.bind(a, ACell::Lis(pair));
                self.frame.mode = Mode::Read;
                self.frame.s = pair;
                true
            }
            _ => false,
        }
    }

    fn read_subterm(&self, s: usize) -> ACell {
        // Open cells must be captured by reference so that instantiation
        // is visible to all aliases.
        if self.frame.heap[s].is_open_at(s) {
            ACell::Ref(s)
        } else {
            self.frame.heap[s]
        }
    }

    fn call(&mut self, pred: PredIdx) -> Result<Flow, AnalysisError> {
        // `solve_call` runs whole clauses through this same dispatch
        // loop, clobbering the pc; save the return address around it.
        let ret = self.frame.pc;
        self.depth += 1;
        let ok = self.solve_call(pred as usize)?;
        self.depth -= 1;
        self.frame.pc = ret;
        Ok(if ok { Flow::Continue } else { Flow::Fail })
    }

    fn execute(&mut self, pred: PredIdx) -> Result<Flow, AnalysisError> {
        self.depth += 1;
        let ok = self.solve_call(pred as usize)?;
        self.depth -= 1;
        // Tail position: the clause is done either way.
        Ok(if ok { Flow::Done } else { Flow::Fail })
    }

    fn proceed(&mut self) -> Result<Flow, AnalysisError> {
        // Clause success; the caller summarizes and forces failure
        // (`updateET … fail`).
        Ok(Flow::Done)
    }

    fn builtin(&mut self, b: Builtin) -> Result<Flow, AnalysisError> {
        Ok(if self.abstract_builtin(b) {
            Flow::Continue
        } else {
            Flow::Fail
        })
    }

    // Cut is `true` over the abstract domain (sound).
    fn neck_cut(&mut self) -> bool {
        true
    }

    fn get_level(&mut self, _y: u16) -> bool {
        true
    }

    fn cut_level(&mut self, _y: u16) -> bool {
        true
    }

    // Indexing and chaining instructions are bypassed by the control
    // scheme (clause entries are iterated directly).
    fn try_me_else(&mut self, _alt: CodeAddr) -> Flow {
        unreachable!("indexing instruction inside a clause body")
    }

    fn retry_me_else(&mut self, _alt: CodeAddr) -> Flow {
        unreachable!("indexing instruction inside a clause body")
    }

    fn trust_me(&mut self) -> Flow {
        unreachable!("indexing instruction inside a clause body")
    }

    fn try_(&mut self, _clause: CodeAddr) -> Flow {
        unreachable!("indexing instruction inside a clause body")
    }

    fn retry(&mut self, _clause: CodeAddr) -> Flow {
        unreachable!("indexing instruction inside a clause body")
    }

    fn trust(&mut self, _clause: CodeAddr) -> Flow {
        unreachable!("indexing instruction inside a clause body")
    }

    fn switch_on_term(&mut self, _: CodeAddr, _: CodeAddr, _: CodeAddr, _: CodeAddr) -> Flow {
        unreachable!("indexing instruction inside a clause body")
    }

    fn switch_on_constant(&mut self, _table: &[(WamConst, CodeAddr)]) -> Flow {
        unreachable!("indexing instruction inside a clause body")
    }

    fn switch_on_structure(&mut self, _table: &[(Functor, CodeAddr)]) -> Flow {
        unreachable!("indexing instruction inside a clause body")
    }
}

impl<'p> AbstractMachine<'p> {
    /// Create a machine over `program` with term-depth `depth_k` and a
    /// standalone pattern interner (no shared base arena).
    pub fn new(program: &'p CompiledProgram, depth_k: usize) -> Self {
        Self::with_table(
            program,
            depth_k,
            ExtensionTable::new(program.predicates.len()),
            SessionInterner::default(),
        )
    }

    /// Create a machine seeded with an existing extension table and the
    /// interner its entry ids resolve through (the session warm-start
    /// path). The global iteration counter resumes above the table's
    /// high-water mark so that no seeded entry is mistaken for "already
    /// explored this round"; fixpoint runs report rounds *performed by
    /// that run*, so seeded and fresh runs stay comparable.
    pub fn with_table(
        program: &'p CompiledProgram,
        depth_k: usize,
        table: ExtensionTable,
        interner: SessionInterner,
    ) -> Self {
        let iter = table.max_explored_iter();
        let record_provenance = table.provenance_enabled();
        AbstractMachine {
            program,
            table,
            interner,
            frame: Frame::new(),
            depth: 0,
            depth_k,
            config: DomainConfig::FULL,
            strategy: IterationStrategy::GlobalRestart,
            dep_stack: Vec::new(),
            in_progress: Default::default(),
            rev_deps: Default::default(),
            worklist: Default::default(),
            queued: Default::default(),
            explorations: 0,
            iter,
            call_count: 0,
            profile_timing: false,
            stats: MachineStats::default(),
            pred_instr_self: Vec::new(),
            pred_instr_stack: Vec::new(),
            span: None,
            pred_names: Vec::new(),
            consult_hist: Histogram::new(),
            round_widen_hist: Histogram::new(),
            round_growth_hist: Histogram::new(),
            record_provenance,
            prov_stack: Vec::new(),
            tracer: None,
            unify_stack: Vec::new(),
            unify_seen: Vec::new(),
            unify_seen_set: FxHashMap::default(),
            runaway: None,
            extract_scratch: ExtractScratch::default(),
            lub_scratch: LubScratch::default(),
            mat_done: Vec::new(),
            apply_args: Vec::new(),
            cell_pool: Vec::new(),
            max_depth: 2_000,
            step_budget: None,
        }
    }

    /// Cap the run at `budget` abstract instructions (see
    /// [`AnalysisError::BudgetExceeded`]); `None` removes the cap.
    pub fn set_step_budget(&mut self, budget: Option<u64>) {
        self.step_budget = budget;
    }

    /// Abort with [`AnalysisError::BudgetExceeded`] once the executed
    /// instruction count crosses the configured budget.
    #[inline]
    fn check_budget(&self) -> Result<(), AnalysisError> {
        if let Some(budget) = self.step_budget {
            if self.frame.executed > budget {
                return Err(AnalysisError::BudgetExceeded {
                    budget,
                    executed: self.frame.executed,
                });
            }
        }
        Ok(())
    }

    /// Lazily set up the span profiler, the predicate-name cache and the
    /// instruction heat. Called at the top of a fixpoint run when
    /// [`Self::profile_timing`] is on; a no-op (one branch) otherwise.
    fn init_profiling(&mut self) {
        if self.profile_timing && self.span.is_none() {
            let preds = self.program.predicates.len();
            self.pred_names = (0..preds)
                .map(|p| Self::pred_name(self.program, p))
                .collect();
            self.pred_instr_self = vec![0; preds];
            self.span = Some(SpanProfiler::new());
        }
    }

    /// Attach an event tracer for the rest of this machine's life.
    pub fn set_tracer(&mut self, tracer: &'p mut dyn Tracer) {
        self.tracer = Some(tracer);
    }

    /// Emit an event if a tracer is attached. The closure only runs (and
    /// only allocates its strings) when tracing is on.
    #[inline]
    fn trace(&mut self, build: impl FnOnce(&CompiledProgram) -> TraceEvent) {
        let program = self.program;
        if let Some(tracer) = self.tracer.as_deref_mut() {
            tracer.event(&build(program));
        }
    }

    /// `name/arity` of a predicate, for trace events.
    fn pred_name(program: &CompiledProgram, pred: usize) -> String {
        program.predicates[pred].key.display(&program.interner)
    }

    /// Work counters and high-water marks for the run so far.
    pub fn machine_stats(&self) -> MachineStats {
        let mut stats = self.stats;
        stats.instructions = self.frame.executed;
        stats.calls = self.call_count;
        stats.note_heap(self.frame.heap.len());
        stats.note_trail(self.frame.trail.len());
        stats
    }

    /// Abstract WAM instructions executed (the `Exec` column of Table 1).
    pub fn exec_count(&self) -> u64 {
        self.frame.executed
    }

    /// Per-opcode dispatch counts over the whole run.
    pub fn opcodes(&self) -> &OpcodeCounts {
        &self.frame.opcodes
    }

    /// Close the span tree and move this run's profile out of the
    /// machine: the tree, the exploration count, the instruction heat
    /// and the three histograms. `None` unless [`Self::profile_timing`]
    /// was on.
    pub fn take_profile(&mut self) -> Option<ProfileData> {
        if !self.profile_timing {
            return None;
        }
        let mut spans = self.span.take().unwrap_or_default();
        spans.finish();
        Some(ProfileData {
            spans,
            explorations: self.explorations,
            pred_instructions: std::mem::take(&mut self.pred_instr_self),
            consult_ns: std::mem::take(&mut self.consult_hist),
            iteration_widenings: std::mem::take(&mut self.round_widen_hist),
            iteration_table_growth: std::mem::take(&mut self.round_growth_hist),
        })
    }

    /// Run the global fixpoint: repeat top-level exploration until the
    /// extension table stabilizes. Returns the number of iterations.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::IterationLimit`] (or `DepthLimit`) if the safety
    /// bounds trip — with a finite domain this indicates a bug, and the
    /// bounds are far above anything the benchmark suite reaches.
    pub fn run_to_fixpoint(&mut self, pred: usize, entry: &Pattern) -> Result<u64, AnalysisError> {
        if self.strategy == IterationStrategy::Dependency {
            return self.run_worklist(pred, entry);
        }
        const MAX_ITERS: u64 = 10_000;
        self.init_profiling();
        let start_iter = self.iter;
        loop {
            self.iter += 1;
            if self.iter - start_iter > MAX_ITERS {
                return Err(AnalysisError::IterationLimit);
            }
            self.check_budget()?;
            let round = self.iter;
            self.trace(|_| TraceEvent::RoundStart { round });
            self.table.clear_changed();
            self.stats.note_heap(self.frame.heap.len());
            self.stats.note_trail(self.frame.trail.len());
            self.frame.heap.clear();
            self.frame.trail.clear();
            self.frame.clear_envs();
            self.frame.e = None;
            let args = materialize(&mut self.frame.heap, entry);
            for (i, cell) in args.iter().enumerate() {
                self.frame.x[i] = *cell;
            }
            self.depth = 0;
            let round_marks = self.span.as_mut().map(|span| {
                span.enter(&format!("iteration {round}"));
                (self.table.stats().lub_widenings, self.table.len())
            });
            self.solve_call(pred)?;
            if let Some((widen_mark, len_mark)) = round_marks {
                self.round_widen_hist
                    .record(self.table.stats().lub_widenings - widen_mark);
                self.round_growth_hist
                    .record((self.table.len() - len_mark) as u64);
                self.span.as_mut().expect("profiling on").exit();
            }
            let changed = self.table.changed();
            let round = self.iter;
            self.trace(|_| TraceEvent::RoundEnd { round, changed });
            if !changed {
                return Ok(self.iter - start_iter);
            }
        }
    }

    /// Semi-naive fixpoint: explore once, then re-explore only entries
    /// whose (transitive, via worklist propagation) inputs changed.
    fn run_worklist(&mut self, pred: usize, entry: &Pattern) -> Result<u64, AnalysisError> {
        self.init_profiling();
        if let Some(span) = self.span.as_mut() {
            // One span for the whole semi-naive run: there are no global
            // rounds to bracket, only worklist-driven re-explorations.
            span.enter("worklist");
        }
        self.iter += 1;
        self.frame.heap.clear();
        self.frame.trail.clear();
        self.frame.clear_envs();
        self.frame.e = None;
        let args = materialize(&mut self.frame.heap, entry);
        for (i, cell) in args.iter().enumerate() {
            self.frame.x[i] = *cell;
        }
        self.depth = 0;
        self.solve_call(pred)?;
        self.drain_worklist()?;
        if let Some(span) = self.span.as_mut() {
            span.exit();
        }
        Ok(self.explorations)
    }

    /// Seeded re-fixpoint for incremental re-analysis: drain a worklist
    /// pre-loaded with `frontier` (the entries an edit reset to an
    /// unexplored state) under the worklist strategy's semantics —
    /// surviving entries answer calls from their frozen summaries, and
    /// growth propagates along the reverse-dependency edges recorded as
    /// each frontier entry is re-explored. No entry goal is solved; the
    /// frontier *is* the work. The configured iteration strategy is
    /// forced to [`IterationStrategy::Dependency`] for the duration and
    /// restored before returning. Returns the number of entry
    /// explorations performed.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::IterationLimit`] if the exploration bound trips,
    /// or a budget/depth error propagated from clause execution.
    pub fn run_repair(&mut self, frontier: &[(usize, usize)]) -> Result<u64, AnalysisError> {
        self.init_profiling();
        let saved_strategy = self.strategy;
        self.strategy = IterationStrategy::Dependency;
        if let Some(span) = self.span.as_mut() {
            span.enter("repair");
        }
        self.iter += 1;
        for &e in frontier {
            if self.queued.insert(e) {
                self.worklist.push_back(e);
            }
        }
        let result = self.drain_worklist();
        self.strategy = saved_strategy;
        if let Some(span) = self.span.as_mut() {
            span.exit();
        }
        result?;
        Ok(self.explorations)
    }

    /// Re-explore queued entries until the worklist is empty: the drain
    /// loop of the worklist strategy and of [`Self::run_repair`] (split
    /// out there so the strategy restore straddles it on both the success
    /// and error paths).
    fn drain_worklist(&mut self) -> Result<(), AnalysisError> {
        const MAX_EXPLORATIONS: u64 = 5_000_000;
        while let Some((p, i)) = self.worklist.pop_front() {
            self.queued.remove(&(p, i));
            if self.explorations > MAX_EXPLORATIONS {
                return Err(AnalysisError::IterationLimit);
            }
            self.check_budget()?;
            self.stats.note_heap(self.frame.heap.len());
            self.stats.note_trail(self.frame.trail.len());
            self.frame.heap.clear();
            self.frame.trail.clear();
            self.frame.clear_envs();
            self.frame.e = None;
            self.depth = 0;
            // No consult precedes a worklist exploration to begin its span.
            self.mark_layer();
            self.explore_entry(p, i)?;
        }
        Ok(())
    }

    /// The extension table accumulated so far.
    pub fn table(&self) -> &ExtensionTable {
        &self.table
    }

    /// The pattern interner the table's entry ids resolve through.
    pub fn interner(&self) -> &SessionInterner {
        &self.interner
    }

    /// Consume the machine, keeping its extension table *and* interner —
    /// the pair a session persists across queries (the ids in the table
    /// are only meaningful together with this interner, and its memo
    /// caches stay warm for the next query).
    pub fn into_parts(self) -> (ExtensionTable, SessionInterner) {
        (self.table, self.interner)
    }

    /// Restrict the abstract domain (precision ablation). Patterns are
    /// weakened at every extraction boundary; the full config is the
    /// identity.
    pub fn set_domain_config(&mut self, config: DomainConfig) {
        self.config = config;
    }

    /// Choose how the global fixpoint iterates (the paper restarts from
    /// scratch; dependency tracking skips provably-unchanged entries).
    pub fn set_strategy(&mut self, strategy: IterationStrategy) {
        self.strategy = strategy;
    }

    /// Record that the current exploration read `(pred, idx)`; the
    /// worklist propagates changes along the reverse edges, so plain
    /// direct dependencies suffice. Recorded under **both** iteration
    /// strategies: the dependency strategy drives its worklist with the
    /// edges, and incremental re-analysis needs them to compute the
    /// invalidation cone of an edit no matter how the table was built.
    fn note_dep(&mut self, pred: usize, idx: usize) {
        if let Some(frame) = self.dep_stack.last_mut() {
            frame.push((pred, idx));
        }
    }

    fn enqueue_dependents(&mut self, pred: usize, idx: usize) {
        if let Some(deps) = self.rev_deps.get(&(pred, idx)) {
            for &d in deps {
                if self.queued.insert(d) {
                    self.worklist.push_back(d);
                }
            }
        }
    }

    /// The abstract heap (read access, for tooling and tests).
    pub fn heap(&self) -> &[ACell] {
        &self.frame.heap
    }

    /// Mutable access to the abstract heap, for building cells directly
    /// (tooling and tests; the analyzer itself never needs this).
    pub fn heap_mut(&mut self) -> &mut Vec<ACell> {
        &mut self.frame.heap
    }

    /// Abstractly unify two cells on this machine's heap (the `s_unify`
    /// of §4.1). Exposed so soundness properties of the unifier can be
    /// tested directly against concrete unification. A runaway
    /// unification just fails here; it leaves no error for the machine's
    /// next run.
    pub fn unify_cells(&mut self, a: ACell, b: ACell) -> bool {
        let ok = self.unify(a, b);
        self.runaway = None;
        ok
    }

    /// Extract a (possibly weakened) pattern for the current config.
    fn extract_pattern(&self, args: &[ACell]) -> Pattern {
        let p = extract(&self.frame.heap, args, self.depth_k);
        if self.config.is_full() {
            p
        } else {
            p.weaken(self.config)
        }
    }

    /// Extract and intern in one step: the id-returning form every table
    /// consult and update goes through. In the full domain (the common
    /// case) the pattern is built in the machine's scratch buffers and
    /// interned clone-on-miss, so a repeat extraction never allocates.
    fn extract_pattern_id(&mut self, args: &[ACell]) -> PatternId {
        if self.config.is_full() {
            let mut scratch = std::mem::take(&mut self.extract_scratch);
            let p = extract_with(&self.frame.heap, args, self.depth_k, &mut scratch);
            let id = self.interner.intern_ref(p);
            self.extract_scratch = scratch;
            id
        } else {
            let p = self.extract_pattern(args);
            self.interner.intern(p)
        }
    }

    /// Read the clock where the current span's own work ends and a layer
    /// begins (see [`SpanProfiler::mark`]); a no-op unless profiling.
    #[inline]
    fn mark_layer(&mut self) {
        if let Some(span) = self.span.as_mut() {
            span.mark();
        }
    }

    /// End a fixpoint layer and charge it to the current span's slot
    /// (see [`SpanProfiler::lap`]); a no-op unless profiling.
    #[inline]
    fn lap_layer(&mut self, layer: Layer) {
        if let Some(span) = self.span.as_mut() {
            span.lap(layer);
        }
    }

    /// End an ET consult: charge it to the current span and record its
    /// latency (profiling only).
    #[inline]
    fn lap_consult(&mut self) {
        if let Some(span) = self.span.as_mut() {
            self.consult_hist.record(span.lap(Layer::EtConsult));
        }
    }

    // ----- the reinterpreted `call` (Figure 5) -----

    /// Abstractly invoke predicate `pred` with arguments in `A1..An`.
    /// Returns whether the call (abstractly) succeeds; on success the
    /// argument cells have been unified with the summarized success
    /// pattern.
    fn solve_call(&mut self, pred: usize) -> Result<bool, AnalysisError> {
        if self.depth > self.max_depth {
            return Err(AnalysisError::DepthLimit);
        }
        self.check_budget()?;
        self.call_count += 1;
        let arity = self.program.predicates[pred].key.arity;
        let mut caller_args = self.cell_pool.pop().unwrap_or_default();
        caller_args.clear();
        caller_args.extend_from_slice(&self.frame.x[..arity]);
        // Interned consult: build + intern the calling pattern once, then
        // the lookup is a single id-indexed probe (`ExtensionTable::find`
        // asserts probe/scan parity in debug builds).
        self.mark_layer();
        let cp = self.extract_pattern_id(&caller_args);
        let found = self.table.find(pred, cp);
        if self.tracer.is_some() {
            let pattern = self
                .extract_pattern(&caller_args)
                .display(&self.program.interner);
            let hit = found.is_some();
            let p2 = pattern.clone();
            self.trace(|prog| TraceEvent::CallPattern {
                pred,
                name: Self::pred_name(prog, pred),
                pattern: p2,
            });
            self.trace(|prog| TraceEvent::EtConsult {
                pred,
                name: Self::pred_name(prog, pred),
                pattern,
                hit,
            });
        }
        let entry_idx = match found {
            Some(idx) => {
                let explored = match self.strategy {
                    // The paper's scheme: explored once per iteration.
                    IterationStrategy::GlobalRestart => {
                        self.table.entry(pred, idx).explored_iter == self.iter
                    }
                    // Worklist scheme: an existing entry is only explored
                    // through the worklist (or while already on the
                    // stack); calls just read the current summary.
                    IterationStrategy::Dependency => true,
                };
                if explored {
                    self.lap_consult();
                    let success = self.table.entry(pred, idx).success;
                    self.note_dep(pred, idx);
                    let ok = match success {
                        Some(sp) => self.apply_success(&caller_args, sp),
                        None => false,
                    };
                    self.cell_pool.push(caller_args);
                    if let Some(e) = self.runaway.take() {
                        return Err(e);
                    }
                    return Ok(ok);
                }
                self.table.mark_explored(pred, idx, self.iter);
                idx
            }
            None => {
                // The consult above already built and interned the id;
                // the insert reuses it as-is.
                if self.tracer.is_some() {
                    let pattern = self.interner.resolve(cp).display(&self.program.interner);
                    self.trace(|prog| TraceEvent::EtInsert {
                        pred,
                        name: Self::pred_name(prog, pred),
                        pattern,
                    });
                }
                let idx = self.table.insert(pred, cp, self.iter);
                if self.record_provenance {
                    // Derivation context: the clause being explored when
                    // this call happened (none for the entry goal). Only
                    // already-interned ids are stored, so recording can
                    // never perturb the interner or its counters.
                    let (origin, parent_call) = match self.prov_stack.last() {
                        Some(&(caller, clause, parent_call)) => (
                            Some(DerivationOrigin {
                                pred: caller,
                                clause,
                            }),
                            Some(parent_call),
                        ),
                        None => (None, None),
                    };
                    self.table
                        .record_insert_provenance(pred, idx, origin, parent_call, self.iter);
                }
                idx
            }
        };
        // The consult (insertion included) ends with the read the callee's
        // predicate span begins at.
        self.lap_consult();
        self.explore_entry(pred, entry_idx)?;
        self.note_dep(pred, entry_idx);
        let success = self.table.entry(pred, entry_idx).success;
        let ok = match success {
            Some(sp) => self.apply_success(&caller_args, sp),
            None => false,
        };
        self.cell_pool.push(caller_args);
        match self.runaway.take() {
            Some(e) => Err(e),
            None => Ok(ok),
        }
    }

    /// Explore every clause of `(pred, entry_idx)` on fresh
    /// materializations of its calling pattern, summarizing successes.
    fn explore_entry(&mut self, pred: usize, entry_idx: usize) -> Result<(), AnalysisError> {
        if self.depth > self.max_depth {
            return Err(AnalysisError::DepthLimit);
        }
        if self.strategy == IterationStrategy::Dependency
            && !self.in_progress.insert((pred, entry_idx))
        {
            return Ok(());
        }
        self.explorations += 1;
        let call_pattern = self.table.entry(pred, entry_idx).call;

        // Explore every clause on a fresh materialization of the calling
        // pattern (the `abstract(X, Xα) … p(Xα)` of §5), summarizing
        // success patterns into the table and failing to the next clause.
        self.dep_stack.push(Vec::new());
        let num_clauses = self.program.predicates[pred].num_clauses();
        if let Some(span) = self.span.as_mut() {
            self.pred_instr_stack.push((self.frame.executed, 0));
            span.enter(&self.pred_names[pred]);
        }
        for clause_idx in 0..num_clauses {
            let entry = self.program.clauses(pred)[clause_idx] as usize;
            let trail_mark = self.frame.trail.len();
            let heap_mark = self.frame.heap.len();
            let env_mark = self.frame.envs.len();
            let saved_e = self.frame.e;

            self.trace(|prog| TraceEvent::ClauseEnter {
                pred,
                name: Self::pred_name(prog, pred),
                clause: clause_idx,
            });
            let mut callee_args = self.cell_pool.pop().unwrap_or_default();
            materialize_into(
                &mut self.frame.heap,
                self.interner.resolve(call_pattern),
                &mut self.mat_done,
                &mut callee_args,
            );
            // Begun by the reading the span began at or by the last read
            // of the previous clause, so backtracking out of it counts here.
            self.lap_layer(Layer::Materialize);
            for (i, cell) in callee_args.iter().enumerate() {
                self.frame.x[i] = *cell;
            }
            if self.record_provenance {
                self.prov_stack.push((pred, clause_idx, call_pattern));
            }
            let ok = self.run_clause(entry)?;
            if self.record_provenance {
                self.prov_stack.pop();
            }
            // The clause's execution ends; a layer follows unless this was
            // the last clause and it failed.
            if ok || clause_idx + 1 < num_clauses {
                self.mark_layer();
            }
            if ok {
                let sp = self.extract_pattern_id(&callee_args);
                self.lap_layer(Layer::Extract);
                // Fast path: interned ids are canonical, so if the stored
                // summary is this clause's success pattern, nothing can
                // change. Restricted domains always take the update, whose
                // `summary_updates` and `EtUpdate` events count every
                // clause success (pinned in tests/observability.rs).
                let unchanged =
                    self.config.is_full() && self.table.entry(pred, entry_idx).success == Some(sp);
                if !unchanged {
                    let grew = self.table.update_success(
                        pred,
                        entry_idx,
                        sp,
                        &mut self.interner,
                        &mut self.lub_scratch,
                        Some((clause_idx, self.iter)),
                    );
                    self.lap_layer(Layer::EtUpdate);
                    if self.tracer.is_some() {
                        let summary = self
                            .table
                            .entry(pred, entry_idx)
                            .success
                            .map(|sp| self.interner.resolve(sp).display(&self.program.interner))
                            .unwrap_or_default();
                        self.trace(|prog| TraceEvent::EtUpdate {
                            pred,
                            name: Self::pred_name(prog, pred),
                            grew,
                            summary,
                        });
                    }
                    if grew && self.strategy == IterationStrategy::Dependency {
                        self.enqueue_dependents(pred, entry_idx);
                        // Self-recursion: this entry must also settle.
                        if self.queued.insert((pred, entry_idx)) {
                            self.worklist.push_back((pred, entry_idx));
                        }
                    }
                }
            }
            // Forced failure to the next clause: undo everything.
            self.stats.backtracks += 1;
            self.trace(|prog| TraceEvent::ForcedFail {
                pred,
                name: Self::pred_name(prog, pred),
                clause: clause_idx,
            });
            self.undo_to(trail_mark, heap_mark);
            self.frame.truncate_envs(env_mark);
            self.frame.e = saved_e;
            self.cell_pool.push(callee_args);
        }

        if let Some(span) = self.span.as_mut() {
            span.exit();
            // Instruction heat, with the same self/child split as the
            // predicate spans.
            let (mark, child_instr) = self.pred_instr_stack.pop().unwrap_or((0, 0));
            let total_instr = self.frame.executed_since(mark);
            self.pred_instr_self[pred] += total_instr.saturating_sub(child_instr);
            if let Some((_, parent_child)) = self.pred_instr_stack.last_mut() {
                *parent_child += total_instr;
            }
        }

        // All clauses explored: record dependencies (both strategies —
        // see `note_dep`); only the worklist reads the reverse edges.
        let deps = self.dep_stack.pop().unwrap_or_default();
        if self.strategy == IterationStrategy::Dependency {
            for &dep in &deps {
                self.rev_deps
                    .entry(dep)
                    .or_default()
                    .insert((pred, entry_idx));
            }
            self.in_progress.remove(&(pred, entry_idx));
        }
        self.table.set_deps(pred, entry_idx, deps);
        Ok(())
    }

    /// Unify the caller's argument cells with a fresh materialization of
    /// the summarized success pattern (deterministic return).
    fn apply_success(&mut self, caller_args: &[ACell], sp: PatternId) -> bool {
        let mut cells = std::mem::take(&mut self.apply_args);
        materialize_into(
            &mut self.frame.heap,
            self.interner.resolve(sp),
            &mut self.mat_done,
            &mut cells,
        );
        let mut ok = true;
        for (arg, cell) in caller_args.iter().zip(&cells) {
            if !self.unify(*arg, *cell) {
                ok = false;
                break;
            }
        }
        self.apply_args = cells;
        ok
    }

    // ----- clause execution -----

    /// Execute one clause body through the shared dispatch loop. Calls
    /// recurse through [`Self::solve_call`]; there is no backtracking
    /// (calls are deterministic), so failure simply reports `false` and
    /// the caller undoes the trail.
    fn run_clause(&mut self, entry: usize) -> Result<bool, AnalysisError> {
        let program = self.program;
        let saved_e = self.frame.e;
        self.frame.pc = entry;
        loop {
            match awam_exec::step(self, program)? {
                Flow::Continue => {}
                Flow::Fail => {
                    if let Some(e) = self.runaway.take() {
                        return Err(e);
                    }
                    self.frame.e = saved_e;
                    return Ok(false);
                }
                Flow::Done => return Ok(true),
            }
        }
    }

    /// Push a child cell for a complex-term instantiation: `var` children
    /// are fresh unbound variables, others are abstract leaves.
    fn push_child(&mut self, child: AbsLeaf) {
        let a = self.frame.heap.len();
        if child == AbsLeaf::Var {
            self.frame.heap.push(ACell::Ref(a));
        } else {
            self.frame.heap.push(ACell::Abs(child));
        }
    }

    /// Deep-copy the (unaliased) type subgraph rooted at heap address
    /// `src`; returns the new root address.
    fn copy_type(&mut self, src: usize) -> usize {
        let (cell, _) = deref(&self.frame.heap, ACell::Ref(src));
        match cell {
            ACell::Ref(_) => {
                let a = self.frame.heap.len();
                self.frame.heap.push(ACell::Ref(a));
                a
            }
            ACell::Abs(l) => {
                let a = self.frame.heap.len();
                self.frame.heap.push(ACell::Abs(l));
                a
            }
            ACell::AbsList(e) => {
                let copied = self.copy_type(e);
                let a = self.frame.heap.len();
                self.frame.heap.push(ACell::AbsList(copied));
                a
            }
            ACell::Con(s) => {
                let a = self.frame.heap.len();
                self.frame.heap.push(ACell::Con(s));
                a
            }
            ACell::Int(i) => {
                let a = self.frame.heap.len();
                self.frame.heap.push(ACell::Int(i));
                a
            }
            ACell::Lis(p) => {
                let car = self.copy_type(p);
                let cdr = self.copy_type(p + 1);
                let pair = self.frame.heap.len();
                self.frame.heap.push(ACell::Ref(car));
                self.frame.heap.push(ACell::Ref(cdr));
                let a = self.frame.heap.len();
                self.frame.heap.push(ACell::Lis(pair));
                a
            }
            ACell::Str(p) => {
                let ACell::Fun(f, n) = self.frame.heap[p] else {
                    unreachable!()
                };
                let args: Vec<usize> = (0..n as usize).map(|i| self.copy_type(p + 1 + i)).collect();
                let h = self.frame.heap.len();
                self.frame.heap.push(ACell::Fun(f, n));
                for arg in args {
                    self.frame.heap.push(ACell::Ref(arg));
                }
                let a = self.frame.heap.len();
                self.frame.heap.push(ACell::Str(h));
                a
            }
            ACell::Fun(..) => unreachable!(),
        }
    }

    // ----- abstract unification -----

    /// Abstract unification of two cells (§4.1's `s_unify` lifted to the
    /// heap). Sound: the result state covers every concrete state any
    /// covered pair of terms could unify into.
    pub(crate) fn unify(&mut self, a: ACell, b: ACell) -> bool {
        // Scratch reuse: `unify` fires on nearly every abstract get/unify
        // instruction, so its worklist and pair-memo live on the machine
        // (taken/returned around the call) instead of being reallocated
        // per unification.
        // A nested unification (list element types) takes empty ones,
        // so every call owns its memo.
        let mut stack = std::mem::take(&mut self.unify_stack);
        let mut seen = std::mem::take(&mut self.unify_seen);
        let mut seen_set = std::mem::take(&mut self.unify_seen_set);
        stack.clear();
        seen.clear();
        stack.push((a, b));
        let mut ok = true;
        let mut steps = 0u64;
        while let Some((a, b)) = stack.pop() {
            steps += 1;
            if steps > LONG_UNIFY {
                if let Some(e) = self.unify_overrun(steps) {
                    self.runaway = Some(e);
                    ok = false;
                    break;
                }
            }
            let (ca, aa) = deref(&self.frame.heap, a);
            let (cb, ab) = deref(&self.frame.heap, b);
            if let (Some(x), Some(y)) = (aa, ab) {
                if x == y {
                    continue;
                }
                let key = (x.min(y), x.max(y));
                if seen.len() < SEEN_SCAN_MAX {
                    if seen.contains(&key) {
                        continue;
                    }
                    seen.push(key);
                    if seen.len() == SEEN_SCAN_MAX {
                        seen_set.clear();
                        seen_set.extend(seen.iter().map(|&k| (k, ())));
                    }
                } else if seen_set.insert(key, ()).is_some() {
                    continue;
                }
            }
            if !self.unify_one(ca, aa, cb, ab, &mut stack) {
                ok = false;
                break;
            }
        }
        self.unify_stack = stack;
        self.unify_seen = seen;
        self.unify_seen_set = seen_set;
        ok
    }

    /// Whether a unification `steps` pairs long must stop. Past
    /// [`LONG_UNIFY`] pairs, its pairs count against the step budget as
    /// instructions (the instruction count itself stays exact); with no
    /// budget, [`MAX_UNIFY_STEPS`] is the safety rail. A cyclic list
    /// unified against a list type lays out a fresh list cell per pair,
    /// so the pair memo never closes that loop.
    fn unify_overrun(&self, steps: u64) -> Option<AnalysisError> {
        match self.step_budget {
            Some(budget) if self.frame.executed + steps > budget => {
                Some(AnalysisError::BudgetExceeded {
                    budget,
                    executed: self.frame.executed + steps,
                })
            }
            _ if steps > MAX_UNIFY_STEPS => Some(AnalysisError::IterationLimit),
            _ => None,
        }
    }

    #[allow(clippy::too_many_lines)]
    fn unify_one(
        &mut self,
        ca: ACell,
        aa: Option<usize>,
        cb: ACell,
        ab: Option<usize>,
        stack: &mut Vec<(ACell, ACell)>,
    ) -> bool {
        use ACell::*;
        match (ca, cb) {
            // Free variables bind like in the concrete machine.
            (Ref(x), _) => {
                let target = attach(cb, ab);
                self.bind(x, target);
                true
            }
            (_, Ref(y)) => {
                let target = attach(ca, aa);
                self.bind(y, target);
                true
            }
            // Two abstract leaves: narrow to the unification type and
            // merge the cells (aliasing!).
            (Abs(t1), Abs(t2)) => {
                let (x, y) = (aa.expect("abs on heap"), ab.expect("abs on heap"));
                match t1.unify(t2) {
                    None => false,
                    Some(t) => {
                        if t != t1 {
                            self.rebind(x, Abs(t));
                        }
                        self.bind(y, Ref(x));
                        true
                    }
                }
            }
            (Abs(t), Con(s)) | (Con(s), Abs(t)) => {
                let x = if matches!(ca, Abs(_)) { aa } else { ab };
                if t.admits_atom() {
                    self.bind(x.expect("abs on heap"), Con(s));
                    true
                } else {
                    false
                }
            }
            (Abs(t), Int(i)) | (Int(i), Abs(t)) => {
                let x = if matches!(ca, Abs(_)) { aa } else { ab };
                if t.admits_integer() {
                    self.bind(x.expect("abs on heap"), Int(i));
                    true
                } else {
                    false
                }
            }
            (Abs(t), Lis(p)) | (Lis(p), Abs(t)) => {
                let x = if matches!(ca, Abs(_)) { aa } else { ab };
                if !t.admits_list() {
                    return false;
                }
                self.bind(x.expect("abs on heap"), Lis(p));
                let child = t.instance_child();
                self.constrain(ACell::Ref(p), child, &mut Vec::new())
                    && self.constrain(ACell::Ref(p + 1), child, &mut Vec::new())
            }
            (Abs(t), Str(p)) | (Str(p), Abs(t)) => {
                let x = if matches!(ca, Abs(_)) { aa } else { ab };
                if !t.admits_struct() {
                    return false;
                }
                self.bind(x.expect("abs on heap"), Str(p));
                let ACell::Fun(_, n) = self.frame.heap[p] else {
                    unreachable!()
                };
                let child = t.instance_child();
                (0..n as usize)
                    .all(|i| self.constrain(ACell::Ref(p + 1 + i), child, &mut Vec::new()))
            }
            (AbsList(e), Con(s)) | (Con(s), AbsList(e)) => {
                let x = if matches!(ca, AbsList(_)) { aa } else { ab };
                let _ = e;
                if s == absdom::nil_symbol() {
                    self.bind(x.expect("abs on heap"), Con(s));
                    true
                } else {
                    false
                }
            }
            (AbsList(e), Lis(p)) | (Lis(p), AbsList(e)) => {
                let x = if matches!(ca, AbsList(_)) { aa } else { ab };
                self.bind(x.expect("abs on heap"), Lis(p));
                // car ⊓ α; cdr ⊓ α-list.
                let car_type = self.copy_type(e);
                let cdr_elem = self.copy_type(e);
                let cdr_list = self.frame.heap.len();
                self.frame.heap.push(ACell::AbsList(cdr_elem));
                stack.push((ACell::Ref(p), ACell::Ref(car_type)));
                stack.push((ACell::Ref(p + 1), ACell::Ref(cdr_list)));
                true
            }
            (AbsList(e1), AbsList(e2)) => {
                let (x, y) = (aa.expect("abs on heap"), ab.expect("abs on heap"));
                // list(α) ⊓ list(β) = list(α ⊓ β) — but when the element
                // types clash the intersection is still {[]} (both sides
                // admit the empty list), not ⊥.
                let trail_mark = self.frame.trail.len();
                let heap_mark = self.frame.heap.len();
                let c1 = self.copy_type(e1);
                let c2 = self.copy_type(e2);
                if self.unify(ACell::Ref(c1), ACell::Ref(c2)) {
                    self.rebind(x, AbsList(c1));
                } else if self.runaway.is_some() {
                    return false;
                } else {
                    self.undo_to(trail_mark, heap_mark);
                    let nil = ACell::Con(absdom::nil_symbol());
                    self.rebind(x, nil);
                }
                self.bind(y, Ref(x));
                true
            }
            (AbsList(e), Abs(t)) | (Abs(t), AbsList(e)) => {
                let (lx, tx) = if matches!(ca, AbsList(_)) {
                    (aa.expect("on heap"), ab.expect("on heap"))
                } else {
                    (ab.expect("on heap"), aa.expect("on heap"))
                };
                match t {
                    AbsLeaf::Any | AbsLeaf::NonVar | AbsLeaf::Var => {
                        self.bind(tx, Ref(lx));
                        true
                    }
                    AbsLeaf::Ground => {
                        if !self.constrain(ACell::Ref(e), AbsLeaf::Ground, &mut Vec::new()) {
                            return false;
                        }
                        self.bind(tx, Ref(lx));
                        true
                    }
                    AbsLeaf::Const | AbsLeaf::Atom => {
                        // list ∩ const = {[]}.
                        let nil = ACell::Con(absdom::nil_symbol());
                        self.rebind(lx, nil);
                        self.bind(tx, nil);
                        true
                    }
                    AbsLeaf::Integer => false,
                }
            }
            // Concrete/concrete: as in the standard machine.
            (Con(x), Con(y)) => x == y,
            (Int(x), Int(y)) => x == y,
            (Lis(x), Lis(y)) => {
                stack.push((ACell::Ref(x), ACell::Ref(y)));
                stack.push((ACell::Ref(x + 1), ACell::Ref(y + 1)));
                true
            }
            (Str(x), Str(y)) => {
                let (ACell::Fun(fx, nx), ACell::Fun(fy, ny)) =
                    (self.frame.heap[x], self.frame.heap[y])
                else {
                    unreachable!()
                };
                if fx != fy || nx != ny {
                    return false;
                }
                for i in 0..nx as usize {
                    stack.push((ACell::Ref(x + 1 + i), ACell::Ref(y + 1 + i)));
                }
                true
            }
            _ => false,
        }
    }

    /// Constrain `cell` to (the meet with) a leaf type, descending through
    /// concrete structure. `visiting` guards against cyclic terms.
    pub(crate) fn constrain(
        &mut self,
        cell: ACell,
        leaf: AbsLeaf,
        visiting: &mut Vec<usize>,
    ) -> bool {
        if leaf == AbsLeaf::Any || leaf == AbsLeaf::Var {
            // `any` constrains nothing; a free variable unifies with
            // anything and imposes nothing.
            return true;
        }
        let (cell, addr) = deref(&self.frame.heap, cell);
        match cell {
            ACell::Ref(a) => {
                // A free variable narrowed by a type: it becomes an
                // instance of that type.
                self.bind(a, ACell::Abs(leaf));
                true
            }
            ACell::Abs(t) => match t.unify(leaf) {
                None => false,
                Some(new) => {
                    let a = addr.expect("abs on heap");
                    if new != t {
                        self.rebind(a, ACell::Abs(new));
                    }
                    true
                }
            },
            ACell::AbsList(e) => {
                let a = addr.expect("abs on heap");
                match leaf {
                    AbsLeaf::NonVar => true,
                    AbsLeaf::Ground => self.constrain(ACell::Ref(e), AbsLeaf::Ground, visiting),
                    AbsLeaf::Const | AbsLeaf::Atom => {
                        self.rebind(a, ACell::Con(absdom::nil_symbol()));
                        true
                    }
                    AbsLeaf::Integer => false,
                    AbsLeaf::Any | AbsLeaf::Var => true,
                }
            }
            ACell::Con(_) => leaf.admits_atom(),
            ACell::Int(_) => leaf.admits_integer(),
            ACell::Lis(p) => {
                if !leaf.admits_list() {
                    return false;
                }
                if visiting.contains(&p) {
                    return true;
                }
                visiting.push(p);
                let child = if leaf == AbsLeaf::Ground {
                    AbsLeaf::Ground
                } else {
                    AbsLeaf::Any
                };
                let ok = self.constrain(ACell::Ref(p), child, visiting)
                    && self.constrain(ACell::Ref(p + 1), child, visiting);
                visiting.pop();
                ok
            }
            ACell::Str(p) => {
                if !leaf.admits_struct() {
                    return false;
                }
                if visiting.contains(&p) {
                    return true;
                }
                visiting.push(p);
                let ACell::Fun(_, n) = self.frame.heap[p] else {
                    unreachable!()
                };
                let child = if leaf == AbsLeaf::Ground {
                    AbsLeaf::Ground
                } else {
                    AbsLeaf::Any
                };
                let ok =
                    (0..n as usize).all(|i| self.constrain(ACell::Ref(p + 1 + i), child, visiting));
                visiting.pop();
                ok
            }
            ACell::Fun(..) => unreachable!(),
        }
    }

    // ----- abstract builtins -----

    fn abstract_builtin(&mut self, b: Builtin) -> bool {
        use Builtin::*;
        match b {
            True | Nl | Halt | Write | Tab => true,
            Fail => false,
            // On success of `X is E`, E was evaluable (ground) and X is an
            // integer.
            Is => {
                let expr = self.frame.x[1];
                let out = self.frame.x[0];
                if !self.constrain(expr, AbsLeaf::Ground, &mut Vec::new()) {
                    return false;
                }
                let a = self.frame.heap.len();
                self.frame.heap.push(ACell::Abs(AbsLeaf::Integer));
                self.unify(out, ACell::Ref(a))
            }
            // Arithmetic comparisons ground both sides.
            Lt | Gt | Le | Ge | ArithEq | ArithNe => {
                let (l, r) = (self.frame.x[0], self.frame.x[1]);
                self.constrain(l, AbsLeaf::Ground, &mut Vec::new())
                    && self.constrain(r, AbsLeaf::Ground, &mut Vec::new())
            }
            Unify => {
                let (l, r) = (self.frame.x[0], self.frame.x[1]);
                self.unify(l, r)
            }
            // `\=`, `==`, `\==`, `@<` … succeed abstractly with no
            // bindings (sound over-approximation of their success set).
            NotUnify | StructEq | StructNe | TermLt | TermGt | TermLe | TermGe => true,
            Var => {
                let (cell, addr) = deref(&self.frame.heap, self.frame.x[0]);
                match cell {
                    ACell::Ref(_) => true,
                    ACell::Abs(t) => match t.meet(AbsLeaf::Var) {
                        Some(m) => {
                            if m != t {
                                self.rebind(addr.expect("abs on heap"), ACell::Abs(m));
                            }
                            true
                        }
                        None => false,
                    },
                    _ => false,
                }
            }
            Nonvar => {
                let c = self.frame.x[0];
                self.type_test(c, AbsLeaf::NonVar)
            }
            Atom => self.type_test(self.frame.x[0], AbsLeaf::Atom),
            Integer | Number => self.type_test(self.frame.x[0], AbsLeaf::Integer),
            Atomic => self.type_test(self.frame.x[0], AbsLeaf::Const),
            Compound => {
                let (cell, _) = deref(&self.frame.heap, self.frame.x[0]);
                match cell {
                    ACell::Lis(_) | ACell::Str(_) | ACell::AbsList(_) => true,
                    ACell::Abs(t) => t.admits_list() || t.admits_struct(),
                    _ => false,
                }
            }
            // Conservative: outputs become `any`-typed; inputs unchanged.
            FunctorOf => {
                let name = self.frame.x[1];
                let arity = self.frame.x[2];
                let c = self.frame.heap.len();
                self.frame.heap.push(ACell::Abs(AbsLeaf::Const));
                let i = self.frame.heap.len();
                self.frame.heap.push(ACell::Abs(AbsLeaf::Integer));
                self.unify(name, ACell::Ref(c)) && self.unify(arity, ACell::Ref(i))
            }
            Arg => {
                let out = self.frame.x[2];
                let a = self.frame.heap.len();
                self.frame.heap.push(ACell::Abs(AbsLeaf::Any));
                self.unify(out, ACell::Ref(a))
            }
        }
    }

    /// Narrow a cell to the meet with a type-test's type; fails when the
    /// meet is empty.
    fn type_test(&mut self, cell: ACell, leaf: AbsLeaf) -> bool {
        let (c, _) = deref(&self.frame.heap, cell);
        match c {
            // A (definitely) free variable fails every nonvar type test.
            ACell::Ref(_) => false,
            _ => self.constrain(cell, leaf, &mut Vec::new()),
        }
    }

    // ----- heap plumbing -----

    /// Bind with value trailing (the substrate's [`awam_exec::bind`] with
    /// this interpretation's `(addr, old)` trail records).
    fn bind(&mut self, addr: usize, cell: ACell) {
        awam_exec::bind(self, addr, cell);
    }

    /// Same as bind (named for narrowing sites, where the cell is open but
    /// not a plain unbound variable).
    fn rebind(&mut self, addr: usize, cell: ACell) {
        self.bind(addr, cell);
    }

    fn undo_to(&mut self, trail_mark: usize, heap_mark: usize) {
        self.stats.note_heap(self.frame.heap.len());
        self.stats.note_trail(self.frame.trail.len());
        awam_exec::unwind_trail(self, trail_mark);
        self.frame.heap.truncate(heap_mark);
    }
}

fn attach(cell: ACell, addr: Option<usize>) -> ACell {
    match (cell, addr) {
        // Open or compound cells with an address: reference them.
        (ACell::Abs(_) | ACell::AbsList(_) | ACell::Ref(_), Some(a)) => ACell::Ref(a),
        (ACell::Ref(a), None) => ACell::Ref(a),
        (other, _) => other,
    }
}

fn const_cell(c: WamConst) -> ACell {
    match c {
        WamConst::Atom(a) => ACell::Con(a),
        WamConst::Int(i) => ACell::Int(i.get()),
    }
}
