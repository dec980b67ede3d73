//! The mutable state every interpretation shares: heap, registers,
//! environments, trail, and the fetch/mode/structure cursors.

use crate::cell::CellRepr;
use awam_obs::OpcodeCounts;
use wam::Slot;

/// Read/write mode of the `unify_*` instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Walking an existing term at [`Frame::s`].
    Read,
    /// Building a new term at the heap top.
    Write,
}

/// An environment frame (`allocate`/`deallocate`).
///
/// The abstract machine never reads `cont` or `cut` (calls return
/// deterministically and cut is `true`), but keeping the concrete layout
/// costs nothing and keeps `allocate` domain-independent.
///
/// Permanent registers live in the frame-wide [`Frame::ybank`] arena, not
/// in a per-environment `Vec`: `allocate` bump-extends the bank and
/// records only `[y_base, y_base + y_len)` here, so pushing an environment
/// never calls the allocator once the bank is warm. `y_base` is monotonic
/// in environment index, which is what lets [`Frame::truncate_envs`]
/// reclaim both stacks in lockstep.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    /// Previous environment (dynamic chain).
    pub prev: Option<usize>,
    /// Saved continuation pointer.
    pub cont: Option<usize>,
    /// First slot of this environment's permanent registers in
    /// [`Frame::ybank`].
    pub y_base: usize,
    /// Number of permanent registers `Y1..Yn`.
    pub y_len: u16,
    /// Choice-stack height saved by `get_level` (the cut barrier).
    pub cut: usize,
}

/// The WAM register file and memory areas, generic over the cell type `C`
/// and the trail-entry type `E`.
///
/// The concrete machine trails bare addresses (`E = usize`, undo resets to
/// an unbound ref); the abstract machine value-trails `(address, old
/// cell)` pairs because instantiation overwrites variable-*like* cells
/// whose previous value must be restorable. The choice stack is *not*
/// here: only the concrete interpretation backtracks.
#[derive(Debug)]
pub struct Frame<C, E> {
    /// The global term store.
    pub heap: Vec<C>,
    /// Argument/temporary registers `X1..Xn`, [`wam::NUM_REGISTERS`] of
    /// them: the compiler and the `.wam` loader both refuse code that
    /// names more.
    pub x: Vec<C>,
    /// Environment stack.
    pub envs: Vec<Env>,
    /// Bump arena backing every environment's permanent registers; see
    /// [`Env::y_base`]. Reset (not freed) with the environment stack.
    pub ybank: Vec<C>,
    /// Current environment.
    pub e: Option<usize>,
    /// The trail (entries interpreted by the owning interpretation).
    pub trail: Vec<E>,
    /// Program counter into the shared code area.
    pub pc: usize,
    /// Continuation code pointer; `None` returns to the driver.
    pub cont: Option<usize>,
    /// Cut barrier: choice-stack height at the last call.
    pub b0: usize,
    /// Arity of the predicate currently being entered.
    pub num_args: usize,
    /// Mode of the `unify_*` instructions.
    pub mode: Mode,
    /// Structure cursor (read mode).
    pub s: usize,
    /// Instructions dispatched over this frame's life.
    pub executed: u64,
    /// Per-opcode dispatch counts over this frame's life.
    pub opcodes: OpcodeCounts,
}

impl<C: CellRepr, E> Frame<C, E> {
    /// A fresh frame with the standard initial register file. Every
    /// memory area is pre-sized to its typical high-water mark (the
    /// benchmark suite peaks under these bounds), so a run only touches
    /// the allocator when a program genuinely outgrows them.
    pub fn new() -> Self {
        Frame {
            heap: Vec::with_capacity(1024),
            x: vec![C::null(); wam::NUM_REGISTERS],
            envs: Vec::with_capacity(64),
            ybank: Vec::with_capacity(256),
            e: None,
            trail: Vec::with_capacity(1024),
            pc: 0,
            cont: None,
            b0: 0,
            num_args: 0,
            mode: Mode::Read,
            s: 0,
            executed: 0,
            opcodes: OpcodeCounts::new(wam::NUM_OPCODES),
        }
    }

    /// Read an X or Y register.
    pub fn read_slot(&self, slot: Slot) -> C {
        match slot {
            Slot::X(n) => self.x[n as usize],
            Slot::Y(n) => {
                let e = self.e.expect("Y access with no environment");
                let env = &self.envs[e];
                debug_assert!(n < env.y_len, "Y{} out of environment", n + 1);
                self.ybank[env.y_base + n as usize]
            }
        }
    }

    /// Write an X or Y register.
    pub fn write_slot(&mut self, slot: Slot, cell: C) {
        match slot {
            Slot::X(n) => self.x[n as usize] = cell,
            Slot::Y(n) => {
                let e = self.e.expect("Y access with no environment");
                let env = &self.envs[e];
                debug_assert!(n < env.y_len, "Y{} out of environment", n + 1);
                self.ybank[env.y_base + n as usize] = cell;
            }
        }
    }

    /// Push a fresh environment with `n` permanent registers, bump-carving
    /// its Y slots out of [`Frame::ybank`], and make it current.
    pub fn push_env(&mut self, n: u16, cut: usize) {
        let y_base = self.ybank.len();
        self.ybank.resize(y_base + n as usize, C::null());
        self.envs.push(Env {
            prev: self.e,
            cont: self.cont,
            y_base,
            y_len: n,
            cut,
        });
        self.e = Some(self.envs.len() - 1);
    }

    /// Truncate the environment stack to `env_len`, reclaiming the Y-bank
    /// suffix in lockstep (valid because `y_base` is monotonic in
    /// environment index). Used by concrete backtracking and by abstract
    /// per-clause rollback.
    pub fn truncate_envs(&mut self, env_len: usize) {
        let bank_len = self
            .envs
            .get(env_len)
            .map_or(self.ybank.len(), |env| env.y_base);
        self.envs.truncate(env_len);
        self.ybank.truncate(bank_len);
    }

    /// Drop every environment, keeping both stacks' capacity
    /// (reset-not-free, for reuse across fixpoint rounds).
    pub fn clear_envs(&mut self) {
        self.envs.clear();
        self.ybank.clear();
    }

    /// Push a fresh unbound variable onto the heap; returns its address.
    pub fn push_unbound(&mut self) -> usize {
        let addr = self.heap.len();
        self.heap.push(C::mk_ref(addr));
        addr
    }

    /// Instructions dispatched since an earlier [`Frame::executed`]
    /// snapshot — the delta profilers attribute to a region of work
    /// (e.g. per-predicate instruction heat).
    pub fn executed_since(&self, mark: u64) -> u64 {
        self.executed - mark
    }
}

impl<C: CellRepr, E> Default for Frame<C, E> {
    fn default() -> Self {
        Frame::new()
    }
}
