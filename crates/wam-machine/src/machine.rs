//! The concrete WAM, as an instance of the shared execution substrate.
//!
//! Instruction dispatch, the heap/register/trail plumbing, and `deref`
//! live in [`awam_exec`]; this module supplies the *concrete*
//! interpretation — syntactic unification, `call`/`proceed` through a
//! continuation pointer, backtracking through a choice-point stack, and
//! the indexing instructions followed as compiled.

use crate::eval::{self, deref, eval_arith, ArithError};
use crate::reify;
use awam_exec::{Cell, CellRepr, Flow, Frame, Interpretation, Mode};
use awam_obs::{MachineStats, OpcodeCounts, TraceEvent, Tracer};
use prolog_syntax::Term;
use std::fmt;
use wam::{Builtin, CodeAddr, CompiledProgram, Functor, PredIdx, WamConst};

/// Result of driving the machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// The query succeeded (bindings can be extracted).
    Success,
    /// The query (or the remaining alternatives) failed.
    Failure,
}

/// A runtime error (distinct from goal failure).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The queried predicate does not exist in the program.
    UnknownPredicate {
        /// `name/arity` of the missing predicate.
        pred: String,
    },
    /// An arithmetic builtin was applied to a bad expression.
    Arith(ArithError),
    /// `functor/3` or `arg/3` received insufficiently instantiated
    /// arguments.
    Instantiation {
        /// The builtin that failed.
        builtin: &'static str,
    },
    /// The step budget was exhausted (runaway recursion guard).
    StepLimit,
    /// The query string failed to parse.
    Parse(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownPredicate { pred } => write!(f, "unknown predicate {pred}"),
            RunError::Arith(e) => write!(f, "{e}"),
            RunError::Instantiation { builtin } => {
                write!(f, "insufficiently instantiated arguments to {builtin}")
            }
            RunError::StepLimit => write!(f, "step limit exceeded"),
            RunError::Parse(e) => write!(f, "query parse error: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ArithError> for RunError {
    fn from(e: ArithError) -> Self {
        RunError::Arith(e)
    }
}

/// One solution to a query: bindings for the query's variables.
#[derive(Clone, Debug)]
pub struct Solution {
    /// `(variable name, bound term)` pairs in query order, with the
    /// interner-independent rendering alongside.
    pub bindings: Vec<(String, Term, String)>,
}

impl Solution {
    /// The rendered binding of variable `name`, if present in the query.
    pub fn binding_str(&self, name: &str) -> Option<&str> {
        self.bindings
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, s)| s.as_str())
    }
}

#[derive(Debug, Clone)]
struct ChoicePoint {
    args: Vec<Cell>,
    e: Option<usize>,
    cont: Option<usize>,
    b0: usize,
    next_alt: usize,
    trail_len: usize,
    heap_len: usize,
    env_len: usize,
}

/// The concrete WAM.
///
/// See the [crate documentation](crate) for an overview and example.
pub struct Machine<'p> {
    program: &'p CompiledProgram,
    /// Shared substrate state: heap, registers, environments, trail, pc.
    frame: Frame<Cell, usize>,
    choices: Vec<ChoicePoint>,
    max_steps: u64,
    /// Names of the current query's variables, indexed by [`VarId`].
    query_vars: Vec<(String, usize)>,
    /// Event sink; predicate entries are reified into
    /// [`awam_obs::TraceEvent::Call`] events when attached.
    tracer: Option<&'p mut dyn Tracer>,
    /// Backtracks, choice points, and high-water marks; instruction and
    /// call totals are folded in by [`Self::machine_stats`].
    stats: MachineStats,
    /// Predicate calls entered (`call`/`execute` dispatches).
    calls: u64,
    /// The program interner, possibly extended with query-only symbols.
    interner: prolog_syntax::Interner,
    /// Text written by `write/1` and friends.
    pub output: String,
}

impl fmt::Debug for Machine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.frame.pc)
            .field("steps", &self.frame.executed)
            .field("heap_len", &self.frame.heap.len())
            .field("choices", &self.choices.len())
            .field("envs", &self.frame.envs.len())
            .field("traced", &self.tracer.is_some())
            .finish_non_exhaustive()
    }
}

/// The concrete interpretation: every divergence point of the shared
/// dispatch loop gets its standard-WAM semantics.
impl Interpretation for Machine<'_> {
    type Cell = Cell;
    /// Address-only trail: undo resets the slot to an unbound ref.
    type TrailEntry = usize;
    type Error = RunError;

    fn frame(&self) -> &Frame<Cell, usize> {
        &self.frame
    }

    fn frame_mut(&mut self) -> &mut Frame<Cell, usize> {
        &mut self.frame
    }

    fn trail_entry(addr: usize, _old: Cell) -> usize {
        addr
    }

    fn undo_entry(heap: &mut [Cell], addr: usize) {
        heap[addr] = Cell::Ref(addr);
    }

    /// Full syntactic unification with trailing.
    fn unify(&mut self, a: Cell, b: Cell) -> bool {
        let mut stack = vec![(a, b)];
        while let Some((a, b)) = stack.pop() {
            let a = deref(&self.frame.heap, a);
            let b = deref(&self.frame.heap, b);
            if a == b {
                continue;
            }
            match (a, b) {
                (Cell::Ref(x), Cell::Ref(y)) => {
                    // Bind the younger to the older for safe truncation.
                    if x > y {
                        self.bind(x, Cell::Ref(y));
                    } else {
                        self.bind(y, Cell::Ref(x));
                    }
                }
                (Cell::Ref(x), other) => self.bind(x, other),
                (other, Cell::Ref(y)) => self.bind(y, other),
                (Cell::Int(x), Cell::Int(y)) => {
                    if x != y {
                        return false;
                    }
                }
                (Cell::Con(x), Cell::Con(y)) => {
                    if x != y {
                        return false;
                    }
                }
                (Cell::Lis(x), Cell::Lis(y)) => {
                    stack.push((Cell::Ref(x), Cell::Ref(y)));
                    stack.push((Cell::Ref(x + 1), Cell::Ref(y + 1)));
                }
                (Cell::Str(x), Cell::Str(y)) => {
                    let (Cell::Fun(fx, nx), Cell::Fun(fy, ny)) =
                        (self.frame.heap[x], self.frame.heap[y])
                    else {
                        unreachable!("Str points at Fun");
                    };
                    if fx != fy || nx != ny {
                        return false;
                    }
                    for i in 0..nx as usize {
                        stack.push((Cell::Ref(x + 1 + i), Cell::Ref(y + 1 + i)));
                    }
                }
                _ => return false,
            }
        }
        true
    }

    fn get_constant(&mut self, c: WamConst, arg: Cell) -> bool {
        let d = deref(&self.frame.heap, arg);
        match (d, c) {
            (Cell::Ref(addr), _) => {
                self.bind(addr, Cell::mk_const(c));
                true
            }
            (Cell::Con(s), WamConst::Atom(a)) => s == a,
            (Cell::Int(i), WamConst::Int(j)) => i == j.get(),
            _ => false,
        }
    }

    fn get_list(&mut self, arg: Cell) -> bool {
        let arg = deref(&self.frame.heap, arg);
        match arg {
            Cell::Ref(addr) => {
                // The two cells the following unify_* instructions
                // write (in write mode) become the car and cdr.
                let h = self.frame.heap.len();
                self.bind(addr, Cell::Lis(h));
                self.frame.mode = Mode::Write;
                true
            }
            Cell::Lis(p) => {
                self.frame.mode = Mode::Read;
                self.frame.s = p;
                true
            }
            _ => false,
        }
    }

    fn get_structure(&mut self, f: Functor, arg: Cell) -> bool {
        let arg = deref(&self.frame.heap, arg);
        match arg {
            Cell::Ref(addr) => {
                let h = self.frame.heap.len();
                self.frame.heap.push(Cell::Fun(f.name, f.arity));
                self.bind(addr, Cell::Str(h));
                self.frame.mode = Mode::Write;
                true
            }
            Cell::Str(p) if self.frame.heap[p] == Cell::Fun(f.name, f.arity) => {
                self.frame.mode = Mode::Read;
                self.frame.s = p + 1;
                true
            }
            _ => false,
        }
    }

    fn call(&mut self, pred: PredIdx) -> Result<Flow, RunError> {
        self.frame.cont = Some(self.frame.pc);
        self.enter(pred as usize);
        Ok(Flow::Continue)
    }

    fn execute(&mut self, pred: PredIdx) -> Result<Flow, RunError> {
        self.enter(pred as usize);
        Ok(Flow::Continue)
    }

    fn proceed(&mut self) -> Result<Flow, RunError> {
        match self.frame.cont {
            Some(addr) => {
                self.frame.pc = addr;
                Ok(Flow::Continue)
            }
            None => Ok(Flow::Done),
        }
    }

    fn builtin(&mut self, b: Builtin) -> Result<Flow, RunError> {
        Ok(match self.call_builtin(b)? {
            BuiltinResult::Ok => Flow::Continue,
            BuiltinResult::Fail => Flow::Fail,
            BuiltinResult::Halt => Flow::Done,
        })
    }

    fn neck_cut(&mut self) -> bool {
        self.choices.truncate(self.frame.b0);
        true
    }

    fn get_level(&mut self, _y: u16) -> bool {
        // The barrier lives in the environment, not the Y register.
        let e = self.frame.e.expect("get_level with no environment");
        self.frame.envs[e].cut = self.frame.b0;
        true
    }

    fn cut_level(&mut self, _y: u16) -> bool {
        let e = self.frame.e.expect("cut with no environment");
        let barrier = self.frame.envs[e].cut;
        self.choices.truncate(barrier);
        true
    }

    fn try_me_else(&mut self, alt: CodeAddr) -> Flow {
        self.push_choice(alt as usize);
        Flow::Continue
    }

    fn retry_me_else(&mut self, alt: CodeAddr) -> Flow {
        self.choices
            .last_mut()
            .expect("retry_me_else with no choice point")
            .next_alt = alt as usize;
        Flow::Continue
    }

    fn trust_me(&mut self) -> Flow {
        self.choices.pop().expect("trust_me with no choice point");
        Flow::Continue
    }

    fn try_(&mut self, clause: CodeAddr) -> Flow {
        let next = self.frame.pc;
        self.push_choice(next);
        self.frame.pc = clause as usize;
        Flow::Continue
    }

    fn retry(&mut self, clause: CodeAddr) -> Flow {
        let next = self.frame.pc;
        self.choices
            .last_mut()
            .expect("retry with no choice point")
            .next_alt = next;
        self.frame.pc = clause as usize;
        Flow::Continue
    }

    fn trust(&mut self, clause: CodeAddr) -> Flow {
        self.choices.pop().expect("trust with no choice point");
        self.frame.pc = clause as usize;
        Flow::Continue
    }

    fn switch_on_term(
        &mut self,
        var: CodeAddr,
        con: CodeAddr,
        lis: CodeAddr,
        str_: CodeAddr,
    ) -> Flow {
        let d = deref(&self.frame.heap, self.frame.x[0]);
        self.frame.pc = match d {
            Cell::Ref(_) => var,
            Cell::Con(_) | Cell::Int(_) => con,
            Cell::Lis(_) => lis,
            Cell::Str(_) => str_,
            Cell::Fun(..) => unreachable!("bare functor in A1"),
        } as usize;
        Flow::Continue
    }

    fn switch_on_constant(&mut self, table: &[(WamConst, CodeAddr)]) -> Flow {
        let d = deref(&self.frame.heap, self.frame.x[0]);
        let key = match d {
            Cell::Con(s) => Some(WamConst::Atom(s)),
            Cell::Int(i) => Some(WamConst::int(i)),
            _ => None,
        };
        match key.and_then(|k| table.iter().find(|(c, _)| *c == k)) {
            Some((_, addr)) => {
                self.frame.pc = *addr as usize;
                Flow::Continue
            }
            None => Flow::Fail,
        }
    }

    fn switch_on_structure(&mut self, table: &[(Functor, CodeAddr)]) -> Flow {
        let d = deref(&self.frame.heap, self.frame.x[0]);
        let key = match d {
            Cell::Str(p) => match self.frame.heap[p] {
                Cell::Fun(f, n) => Some((f, n)),
                _ => None,
            },
            _ => None,
        };
        match key.and_then(|(f, n)| {
            table
                .iter()
                .find(|(func, _)| func.name == f && func.arity == n)
        }) {
            Some((_, addr)) => {
                self.frame.pc = *addr as usize;
                Flow::Continue
            }
            None => Flow::Fail,
        }
    }
}

impl<'p> Machine<'p> {
    /// Create a machine for `program`.
    pub fn new(program: &'p CompiledProgram) -> Self {
        Machine {
            program,
            frame: Frame::new(),
            choices: Vec::new(),
            max_steps: 500_000_000,
            query_vars: Vec::new(),
            tracer: None,
            stats: MachineStats::default(),
            calls: 0,
            interner: program.interner.clone(),
            output: String::new(),
        }
    }

    /// Attach an event tracer; every predicate entry is then reported as
    /// a [`TraceEvent::Call`] with reified arguments (the old
    /// `trace_calls`/`call_trace` mechanism, now through the shared
    /// [`Tracer`] interface).
    pub fn set_tracer(&mut self, tracer: &'p mut dyn Tracer) {
        self.tracer = Some(tracer);
    }

    /// Work counters and high-water marks for the run so far.
    pub fn machine_stats(&self) -> MachineStats {
        let mut stats = self.stats;
        stats.instructions = self.frame.executed;
        stats.calls = self.calls;
        stats.note_heap(self.frame.heap.len());
        stats.note_trail(self.frame.trail.len());
        stats
    }

    /// Per-opcode dispatch counts over this machine's life.
    pub fn opcodes(&self) -> &OpcodeCounts {
        &self.frame.opcodes
    }

    /// Set the runaway-recursion step budget (default 5·10⁸).
    pub fn set_max_steps(&mut self, max_steps: u64) {
        self.max_steps = max_steps;
    }

    /// Number of instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.frame.executed
    }

    /// Parse `query` (e.g. `"app([1], [2], X)"`) and run it, returning the
    /// first solution.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on parse errors, unknown predicates, or
    /// runtime errors. Goal failure is `Ok(None)`.
    pub fn query_str(&mut self, query: &str) -> Result<Option<Solution>, RunError> {
        let tokens = prolog_syntax::Lexer::new(query)
            .tokenize()
            .map_err(|e| RunError::Parse(e.to_string()))?;
        // Parse against a scratch interner that shares the program's
        // symbols (names must resolve to the same ids).
        let mut interner = self.program.interner.clone();
        let mut parser = prolog_syntax::Parser::new(&tokens, &mut interner);
        let (term, _) = parser
            .parse(1200)
            .map_err(|e| RunError::Parse(e.to_string()))?;
        let var_names = parser.take_var_names();
        // Any *new* symbols cannot exist in the program, so a lookup miss
        // during execution is simply failure; but the goal's own functor
        // must be known.
        let (name, args) = match &term {
            Term::Atom(a) => (interner.resolve(*a).to_owned(), Vec::new()),
            Term::Struct(f, args) => (interner.resolve(*f).to_owned(), args.clone()),
            _ => {
                return Err(RunError::Parse("query must be a callable term".into()));
            }
        };
        self.run_query_terms(&name, &args, &var_names, &interner)
    }

    /// Run a query given a predicate name and pre-built argument terms.
    ///
    /// `var_names` maps the [`prolog_syntax::VarId`]s in `args` to display names;
    /// `interner` must resolve every symbol in `args` (typically the
    /// program's interner, possibly extended).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::UnknownPredicate`] if the predicate is not
    /// defined, or other [`RunError`]s during execution.
    pub fn run_query_terms(
        &mut self,
        name: &str,
        args: &[Term],
        var_names: &[String],
        interner: &prolog_syntax::Interner,
    ) -> Result<Option<Solution>, RunError> {
        let pred =
            self.program
                .predicate(name, args.len())
                .ok_or_else(|| RunError::UnknownPredicate {
                    pred: format!("{name}/{}", args.len()),
                })?;
        self.reset();
        self.interner = interner.clone();
        // Build argument terms on the heap.
        let mut var_addrs: Vec<Option<usize>> = vec![None; var_names.len()];
        for (i, arg) in args.iter().enumerate() {
            let cell = reify::build(
                &mut self.frame.heap,
                arg,
                &mut var_addrs,
                interner,
                self.program,
            );
            self.frame.x[i] = cell;
        }
        self.query_vars = var_names
            .iter()
            .enumerate()
            .filter_map(|(i, n)| {
                let addr = var_addrs[i]?;
                if n == "_" {
                    None
                } else {
                    Some((n.clone(), addr))
                }
            })
            .collect();
        self.frame.num_args = args.len();
        self.frame.b0 = 0;
        self.frame.cont = None;
        self.frame.pc = self.program.predicates[pred].entry as usize;
        match self.run()? {
            Outcome::Success => Ok(Some(self.extract_solution())),
            Outcome::Failure => Ok(None),
        }
    }

    /// After a successful query, backtrack into the remaining alternatives
    /// and find the next solution.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::query_str`].
    pub fn next_solution(&mut self) -> Result<Option<Solution>, RunError> {
        if !self.backtrack() {
            return Ok(None);
        }
        match self.run()? {
            Outcome::Success => Ok(Some(self.extract_solution())),
            Outcome::Failure => Ok(None),
        }
    }

    /// Collect up to `limit` solutions of `query`.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::query_str`].
    pub fn solve_all(&mut self, query: &str, limit: usize) -> Result<Vec<Solution>, RunError> {
        let mut out = Vec::new();
        if limit == 0 {
            return Ok(out);
        }
        if let Some(s) = self.query_str(query)? {
            out.push(s);
            while out.len() < limit {
                match self.next_solution()? {
                    Some(s) => out.push(s),
                    None => break,
                }
            }
        }
        Ok(out)
    }

    fn reset(&mut self) {
        let f = &mut self.frame;
        f.heap.clear();
        f.clear_envs();
        f.trail.clear();
        f.e = None;
        f.cont = None;
        f.b0 = 0;
        f.mode = Mode::Read;
        f.s = 0;
        self.choices.clear();
        self.output.clear();
        self.query_vars.clear();
    }

    fn extract_solution(&self) -> Solution {
        let mut bindings = Vec::new();
        let mut namer = reify::Namer::new();
        for (name, addr) in &self.query_vars {
            let term = reify::reify(&self.frame.heap, Cell::Ref(*addr), &mut namer);
            let rendered = prolog_syntax::term_to_string(&term, &self.interner, namer.names());
            bindings.push((name.clone(), term, rendered));
        }
        Solution { bindings }
    }

    // ----- the driver loop -----

    fn run(&mut self) -> Result<Outcome, RunError> {
        let program = self.program;
        loop {
            if self.frame.executed >= self.max_steps {
                return Err(RunError::StepLimit);
            }
            match awam_exec::step(self, program)? {
                Flow::Continue => {}
                Flow::Fail => {
                    if !self.backtrack() {
                        return Ok(Outcome::Failure);
                    }
                }
                Flow::Done => return Ok(Outcome::Success),
            }
        }
    }

    fn enter(&mut self, pred: usize) {
        let entry = self.program.predicates[pred].entry as usize;
        self.frame.num_args = self.program.predicates[pred].key.arity;
        self.frame.b0 = self.choices.len();
        self.frame.pc = entry;
        self.calls += 1;
        if self.tracer.is_some() {
            let mut namer = reify::Namer::new();
            let args: Vec<Term> = (0..self.frame.num_args)
                .map(|i| reify::reify(&self.frame.heap, self.frame.x[i], &mut namer))
                .collect();
            let name = self.program.predicates[pred].key.display(&self.interner);
            if let Some(tracer) = self.tracer.as_deref_mut() {
                tracer.event(&TraceEvent::Call { pred, name, args });
            }
        }
    }

    fn push_choice(&mut self, next_alt: usize) {
        self.stats.choice_points += 1;
        self.choices.push(ChoicePoint {
            args: self.frame.x[..self.frame.num_args].to_vec(),
            e: self.frame.e,
            cont: self.frame.cont,
            b0: self.frame.b0,
            next_alt,
            trail_len: self.frame.trail.len(),
            heap_len: self.frame.heap.len(),
            env_len: self.frame.envs.len(),
        });
    }

    fn backtrack(&mut self) -> bool {
        let Some(cp) = self.choices.last() else {
            return false;
        };
        // Backtracking unwinds heap and trail, so this is exactly a local
        // maximum of both — the right moment to sample high-water marks.
        self.stats.backtracks += 1;
        self.stats.note_heap(self.frame.heap.len());
        self.stats.note_trail(self.frame.trail.len());
        let cp = cp.clone();
        self.frame.x[..cp.args.len()].copy_from_slice(&cp.args);
        self.frame.num_args = cp.args.len();
        self.frame.e = cp.e;
        self.frame.cont = cp.cont;
        self.frame.b0 = cp.b0;
        awam_exec::unwind_trail(self, cp.trail_len);
        self.frame.heap.truncate(cp.heap_len);
        self.frame.truncate_envs(cp.env_len);
        self.frame.pc = cp.next_alt;
        true
    }

    fn bind(&mut self, addr: usize, cell: Cell) {
        awam_exec::bind(self, addr, cell);
    }

    // ----- builtins -----

    fn call_builtin(&mut self, b: Builtin) -> Result<BuiltinResult, RunError> {
        use Builtin::*;
        let interner = &self.interner;
        let ok = match b {
            True => true,
            Fail => false,
            Halt => return Ok(BuiltinResult::Halt),
            Is => {
                let value = eval_arith(&self.frame.heap, interner, self.frame.x[1])?;
                self.unify(self.frame.x[0], Cell::Int(value))
            }
            Lt | Gt | Le | Ge | ArithEq | ArithNe => {
                let l = eval_arith(&self.frame.heap, interner, self.frame.x[0])?;
                let r = eval_arith(&self.frame.heap, interner, self.frame.x[1])?;
                match b {
                    Lt => l < r,
                    Gt => l > r,
                    Le => l <= r,
                    Ge => l >= r,
                    ArithEq => l == r,
                    ArithNe => l != r,
                    _ => unreachable!(),
                }
            }
            Unify => self.unify(self.frame.x[0], self.frame.x[1]),
            NotUnify => {
                // Unify in a sandbox: trail and undo.
                let mark = self.frame.trail.len();
                let heap_mark = self.frame.heap.len();
                let unified = self.unify(self.frame.x[0], self.frame.x[1]);
                awam_exec::unwind_trail(self, mark);
                self.frame.heap.truncate(heap_mark);
                !unified
            }
            StructEq => eval::struct_eq(&self.frame.heap, self.frame.x[0], self.frame.x[1]),
            StructNe => !eval::struct_eq(&self.frame.heap, self.frame.x[0], self.frame.x[1]),
            TermLt => {
                eval::compare_terms(&self.frame.heap, interner, self.frame.x[0], self.frame.x[1])
                    == std::cmp::Ordering::Less
            }
            TermGt => {
                eval::compare_terms(&self.frame.heap, interner, self.frame.x[0], self.frame.x[1])
                    == std::cmp::Ordering::Greater
            }
            TermLe => {
                eval::compare_terms(&self.frame.heap, interner, self.frame.x[0], self.frame.x[1])
                    != std::cmp::Ordering::Greater
            }
            TermGe => {
                eval::compare_terms(&self.frame.heap, interner, self.frame.x[0], self.frame.x[1])
                    != std::cmp::Ordering::Less
            }
            Var => matches!(deref(&self.frame.heap, self.frame.x[0]), Cell::Ref(_)),
            Nonvar => !matches!(deref(&self.frame.heap, self.frame.x[0]), Cell::Ref(_)),
            Atom => matches!(deref(&self.frame.heap, self.frame.x[0]), Cell::Con(_)),
            Integer | Number => matches!(deref(&self.frame.heap, self.frame.x[0]), Cell::Int(_)),
            Atomic => matches!(
                deref(&self.frame.heap, self.frame.x[0]),
                Cell::Con(_) | Cell::Int(_)
            ),
            Compound => matches!(
                deref(&self.frame.heap, self.frame.x[0]),
                Cell::Lis(_) | Cell::Str(_)
            ),
            FunctorOf => self.builtin_functor()?,
            Arg => self.builtin_arg()?,
            Write => {
                let mut namer = reify::Namer::new();
                let term = reify::reify(&self.frame.heap, self.frame.x[0], &mut namer);
                let text = prolog_syntax::term_to_string(&term, &self.interner, namer.names());
                self.output.push_str(&text);
                true
            }
            Nl => {
                self.output.push('\n');
                true
            }
            Tab => {
                let n = eval_arith(&self.frame.heap, interner, self.frame.x[0])?;
                for _ in 0..n.max(0) {
                    self.output.push(' ');
                }
                true
            }
        };
        Ok(if ok {
            BuiltinResult::Ok
        } else {
            BuiltinResult::Fail
        })
    }

    fn builtin_functor(&mut self) -> Result<bool, RunError> {
        let t = deref(&self.frame.heap, self.frame.x[0]);
        match t {
            Cell::Con(s) => Ok(self.unify(self.frame.x[1], Cell::Con(s))
                && self.unify(self.frame.x[2], Cell::Int(0))),
            Cell::Int(i) => Ok(self.unify(self.frame.x[1], Cell::Int(i))
                && self.unify(self.frame.x[2], Cell::Int(0))),
            Cell::Lis(_) => {
                let dot = self.interner.lookup(".").expect("well-known");
                Ok(self.unify(self.frame.x[1], Cell::Con(dot))
                    && self.unify(self.frame.x[2], Cell::Int(2)))
            }
            Cell::Str(p) => {
                let Cell::Fun(f, n) = self.frame.heap[p] else {
                    unreachable!()
                };
                Ok(self.unify(self.frame.x[1], Cell::Con(f))
                    && self.unify(self.frame.x[2], Cell::Int(n as i64)))
            }
            Cell::Ref(_) => {
                // Construction mode: name and arity must be bound.
                let name = deref(&self.frame.heap, self.frame.x[1]);
                let arity = deref(&self.frame.heap, self.frame.x[2]);
                match (name, arity) {
                    (Cell::Con(_) | Cell::Int(_), Cell::Int(0)) => {
                        Ok(self.unify(self.frame.x[0], name))
                    }
                    (Cell::Con(f), Cell::Int(n)) if n > 0 => {
                        let h = self.frame.heap.len();
                        self.frame.heap.push(Cell::Fun(f, n as u16));
                        for _ in 0..n {
                            self.frame.push_unbound();
                        }
                        Ok(self.unify(self.frame.x[0], Cell::Str(h)))
                    }
                    (Cell::Ref(_), _) | (_, Cell::Ref(_)) => Err(RunError::Instantiation {
                        builtin: "functor/3",
                    }),
                    _ => Ok(false),
                }
            }
            Cell::Fun(..) => unreachable!(),
        }
    }

    fn builtin_arg(&mut self) -> Result<bool, RunError> {
        let n = deref(&self.frame.heap, self.frame.x[0]);
        let t = deref(&self.frame.heap, self.frame.x[1]);
        let Cell::Int(n) = n else {
            return Err(RunError::Instantiation { builtin: "arg/3" });
        };
        match t {
            Cell::Str(p) => {
                let Cell::Fun(_, arity) = self.frame.heap[p] else {
                    unreachable!()
                };
                if n >= 1 && n <= arity as i64 {
                    Ok(self.unify(self.frame.x[2], Cell::Ref(p + n as usize)))
                } else {
                    Ok(false)
                }
            }
            Cell::Lis(p) => match n {
                1 => Ok(self.unify(self.frame.x[2], Cell::Ref(p))),
                2 => Ok(self.unify(self.frame.x[2], Cell::Ref(p + 1))),
                _ => Ok(false),
            },
            Cell::Ref(_) => Err(RunError::Instantiation { builtin: "arg/3" }),
            _ => Ok(false),
        }
    }
}

enum BuiltinResult {
    Ok,
    Fail,
    Halt,
}
