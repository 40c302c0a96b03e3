//! Single-level schedule simulation under Red-Blue-White semantics.
//!
//! This module measures the quantity the paper's bounds constrain: the
//! I/O of one fast memory of `S` words playing the no-recomputation RBW
//! game (Definition 4) along a fixed schedule. Dead values are deleted
//! for free (rule R4), values evicted while still live are stored once,
//! and outputs are flushed at the end. Every run *is* a valid RBW game,
//! so a measured [`Trace`] sits between the certified bounds:
//!
//! ```text
//! certified lower bound  ≤  Trace::io()  ≤  certified schedule upper bound
//! ```
//!
//! for any [`CachePolicy`]. [`Simulation::run_recorded`] also writes the
//! game out move by move ([`Move`]); `dmc_core` replays that recording
//! through its independent RBW rule checker to certify the upper side.
//!
//! [`Simulation`] is a reset-and-reuse arena (the same pattern as the
//! wavefront engine's `FlowNetwork`): all per-run state lives in retained
//! vectors indexed by vertex id, so sweeping hundreds of `S` values
//! allocates nothing after the first run.
//!
//! # Determinism
//!
//! Every eviction decision is total-ordered and documented:
//!
//! * [`CachePolicy::Lru`] evicts the resident value with the smallest
//!   last-touch tick; ticks come from a strictly increasing counter, so
//!   there are never ties.
//! * [`CachePolicy::Opt`] evicts the resident value whose next use in the
//!   schedule is furthest away (values never used again are infinitely
//!   far); ties are broken toward the smaller vertex id.
//!
//! Neither rule scans the residents. Three structures, all retained
//! vectors indexed by vertex id, find the victim:
//!
//! * **Slots.** Every resident knows its index in the resident list, so
//!   freeing a word (eviction or free delete) is a swap-remove plus one
//!   index fix-up.
//! * **LRU list.** Under LRU the residents also form an intrusive
//!   doubly-linked list, and a touch moves the value to the tail. A value
//!   is touched at once after it is placed and ticks are unique, so list
//!   order *is* last-touch order: the victim is the first value from the
//!   head that is not pinned.
//! * **OPT heap.** Under OPT the resident list becomes a binary max-heap
//!   by the key `(next use, Reverse(id))`, whose maximum is the furthest
//!   next use, then the smaller id. A key changes only when a value's use
//!   is retired, and the value is resident then. The heap's root is never
//!   pinned: a pinned predecessor's next use is the current step, and
//!   every other resident's is later. The list is left unordered until
//!   the cache first has to evict, and is heapified then, so a run that
//!   never evicts never orders it.
//!
//! An LRU touch, eviction or delete costs O(1), past skipping at most
//! `in_degree + 1` pinned values. An OPT key update or delete costs O(1)
//! before the first eviction, which costs O(S) once, and O(log S) from
//! then on, as does every later eviction. Debug builds re-derive every
//! victim with the linear scan these structures replace and assert that
//! the two agree.
//!
//! No hash-map iteration is involved anywhere, so traces are reproducible
//! across runs, processes, and thread counts.

use dmc_cdag::{Cdag, VertexId};
use std::cmp::Reverse;
use std::fmt;

/// No vertex: the end of the LRU list, or the slot of a non-resident.
const NIL: u32 = u32::MAX;

/// Words of fast memory firing `v` needs resident at once: one for an
/// input, `in_degree + 1` for a compute vertex (itself plus every
/// predecessor, which are pinned while it fires).
pub fn vertex_footprint(g: &Cdag, v: VertexId) -> usize {
    if g.is_input(v) {
        1
    } else {
        g.in_degree(v) + 1
    }
}

/// The smallest capacity *any* schedule of `g` can execute in:
/// `max_v` [`vertex_footprint`]. [`Simulation::run`] rejects capacities
/// below this; sweep drivers use it to pick always-feasible default
/// sweeps.
pub fn min_feasible_capacity(g: &Cdag) -> usize {
    g.vertices()
        .map(|v| vertex_footprint(g, v))
        .max()
        .unwrap_or(1)
}

/// A single move of the sequential pebble games (shared by the red-blue
/// and RBW games; the parallel game has its own richer move type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// R1 — place a red pebble on a blue-pebbled vertex (load).
    Load(VertexId),
    /// R2 — place a blue pebble on a red-pebbled vertex (store).
    Store(VertexId),
    /// R3 — fire a vertex whose predecessors all hold red pebbles.
    Compute(VertexId),
    /// R4 — remove a red pebble (free storage).
    Delete(VertexId),
}

impl Move {
    /// `true` for the two I/O moves (R1 and R2).
    pub fn is_io(self) -> bool {
        matches!(self, Move::Load(_) | Move::Store(_))
    }

    /// The vertex the move touches.
    pub fn vertex(self) -> VertexId {
        match self {
            Move::Load(v) | Move::Store(v) | Move::Compute(v) | Move::Delete(v) => v,
        }
    }
}

/// Victim-selection rule of a [`Simulation`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Least-recently-used eviction — what a hardware cache approximates.
    Lru,
    /// Furthest-next-use eviction (Belady/MIN) for the fixed schedule —
    /// the offline *replacement* optimum, a proxy for the best the
    /// hierarchy could do on this schedule. It minimizes loads, not loads
    /// plus stores: it may evict an unsaved value that LRU keeps.
    Opt,
}

impl fmt::Display for CachePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CachePolicy::Lru => "lru",
            CachePolicy::Opt => "opt",
        })
    }
}

/// Traffic measured by one [`Simulation::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use = "a simulated trace is the measurement; dropping it wastes the run"]
pub struct Trace {
    /// Words fetched from slow memory (input firings + reloads of
    /// spilled values).
    pub loads: u64,
    /// Words written to slow memory (live evictions + the final output
    /// flush).
    pub stores: u64,
    /// Predecessor reads served from fast memory.
    pub hits: u64,
    /// Capacity evictions (free deletions of dead values are not
    /// counted — they model the RBW delete rule R4).
    pub evictions: u64,
}

impl Trace {
    /// Total I/O — the `q` of the underlying RBW game: `loads + stores`.
    pub fn io(&self) -> u64 {
        self.loads + self.stores
    }
}

/// Why a [`Simulation::run`] was rejected before simulating anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The schedule is not a topological order of the CDAG.
    InvalidSchedule,
    /// `S` is too small: firing some vertex needs `in_degree + 1` words
    /// resident at once.
    BudgetTooSmall {
        /// The vertex that cannot be fired.
        vertex: VertexId,
        /// Minimum capacity required for it.
        required: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidSchedule => write!(f, "schedule is not a topological order"),
            SimError::BudgetTooSmall { vertex, required } => {
                write!(
                    f,
                    "capacity too small: firing {vertex} needs {required} words"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Reusable single-level RBW cache simulator.
///
/// All working state is retained between runs and reset in place, so one
/// arena amortizes across a whole S-sweep. A run visits each scheduled
/// vertex once, reads its predecessors through the simulated fast memory
/// (hit or reload), places its result, and evicts by the chosen
/// [`CachePolicy`] under capacity pressure — exactly the moves of a valid
/// RBW game, which is what makes [`Trace::io`] comparable to the
/// certified bounds.
///
/// ```
/// use dmc_cdag::topo::topological_order;
/// use dmc_kernels::chains::chain;
/// use dmc_sim::simulation::{CachePolicy, Simulation};
///
/// // A 10-vertex chain in 2 words of fast memory: load the input, keep
/// // the rolling value resident (each link a hit, dead values deleted
/// // for free), store the output — 2 words of I/O total.
/// let g = chain(10);
/// let order = topological_order(&g);
/// let mut sim = Simulation::new();
/// let t = sim.run(&g, &order, CachePolicy::Lru, 2).unwrap();
/// assert_eq!((t.loads, t.stores, t.hits, t.evictions), (1, 1, 9, 0));
/// assert_eq!(t.io(), 2);
/// ```
#[derive(Debug, Default)]
pub struct Simulation {
    resident: Vec<bool>,
    saved: Vec<bool>,
    remaining: Vec<u32>,
    /// CSR over consumer positions: vertex `u`'s uses (schedule steps of
    /// its consumers, ascending) live at
    /// `use_pos[use_start[u] .. use_start[u + 1]]`.
    use_start: Vec<u32>,
    use_pos: Vec<u32>,
    /// Uses of each vertex retired so far; its next use is the first one
    /// after them.
    cursor: Vec<u32>,
    pos: Vec<u32>,
    /// The residents; a binary max-heap by [`Simulation::opt_key`] under
    /// OPT once `heap_ordered`, unordered otherwise.
    resident_list: Vec<VertexId>,
    /// Under OPT, whether `resident_list` is a heap yet: it is heapified
    /// when [`Simulation::make_room`] first has to evict.
    heap_ordered: bool,
    /// Each resident's index in `resident_list`.
    slot: Vec<u32>,
    /// Under LRU, the residents in touch order, oldest at `lru_head`.
    lru_prev: Vec<u32>,
    lru_next: Vec<u32>,
    lru_head: u32,
    lru_tail: u32,
    /// Last-touch ticks, read only by the debug-build victim oracle.
    #[cfg(debug_assertions)]
    last_touch: Vec<u64>,
    #[cfg(debug_assertions)]
    clock: u64,
}

impl Simulation {
    /// A fresh arena (allocates nothing until the first run).
    pub fn new() -> Self {
        Simulation::default()
    }

    /// Simulates `schedule` on `g` with `s` words of fast memory.
    ///
    /// Rejects schedules that are not topological orders of `g` and
    /// capacities below `max_v (in_degree(v) + 1)` — firing a vertex
    /// needs it and all its predecessors resident at once.
    pub fn run(
        &mut self,
        g: &Cdag,
        schedule: &[VertexId],
        policy: CachePolicy,
        s: u64,
    ) -> Result<Trace, SimError> {
        self.play(g, schedule, policy, s, |_| {})
    }

    /// [`Simulation::run`] that also records the game it plays: `moves`
    /// is cleared, then receives every R1–R4 move in play order — a
    /// complete RBW game with `s` red pebbles whose I/O moves number
    /// exactly [`Trace::io`].
    ///
    /// ```
    /// use dmc_cdag::topo::topological_order;
    /// use dmc_cdag::VertexId;
    /// use dmc_kernels::chains::chain;
    /// use dmc_sim::simulation::{CachePolicy, Move, Simulation};
    ///
    /// // in -> a -> out: load the input, fire a, drop the dead input,
    /// // fire out, drop a, store the output.
    /// let g = chain(3);
    /// let mut moves = Vec::new();
    /// let t = Simulation::new()
    ///     .run_recorded(&g, &topological_order(&g), CachePolicy::Lru, 2, &mut moves)
    ///     .unwrap();
    /// let [i, a, o] = [VertexId(0), VertexId(1), VertexId(2)];
    /// use Move::{Compute, Delete, Load, Store};
    /// assert_eq!(
    ///     moves,
    ///     [Load(i), Compute(a), Delete(i), Compute(o), Delete(a), Store(o)]
    /// );
    /// assert_eq!(t.io(), moves.iter().filter(|m| m.is_io()).count() as u64);
    /// ```
    pub fn run_recorded(
        &mut self,
        g: &Cdag,
        schedule: &[VertexId],
        policy: CachePolicy,
        s: u64,
        moves: &mut Vec<Move>,
    ) -> Result<Trace, SimError> {
        moves.clear();
        self.play(g, schedule, policy, s, |m| moves.push(m))
    }

    /// The one game loop behind [`Simulation::run`] and
    /// [`Simulation::run_recorded`]; `record` sees each move as it is
    /// made.
    fn play(
        &mut self,
        g: &Cdag,
        schedule: &[VertexId],
        policy: CachePolicy,
        s: u64,
        mut record: impl FnMut(Move),
    ) -> Result<Trace, SimError> {
        let n = g.num_vertices();
        self.reset(n);

        // Schedule validation against the retained position scratch.
        if schedule.len() != n {
            return Err(SimError::InvalidSchedule);
        }
        for (i, &v) in schedule.iter().enumerate() {
            if v.index() >= n || self.pos[v.index()] != u32::MAX {
                return Err(SimError::InvalidSchedule);
            }
            self.pos[v.index()] = i as u32;
        }
        for v in g.vertices() {
            for &p in g.predecessors(v) {
                if self.pos[p.index()] >= self.pos[v.index()] {
                    return Err(SimError::InvalidSchedule);
                }
            }
        }
        // Feasibility: firing needs the vertex plus all predecessors.
        for v in g.vertices() {
            let required = vertex_footprint(g, v);
            if (required as u64) > s {
                return Err(SimError::BudgetTooSmall {
                    vertex: v,
                    required,
                });
            }
        }
        // Capacities beyond |V| never evict; clamp so the comparison
        // below stays in usize.
        let cap = s.min(n as u64 + 1) as usize;

        // Consumer positions (CSR, ascending because the fill walks the
        // schedule in step order) and live-use counts.
        for v in g.vertices() {
            self.use_start[v.index() + 1] = g.out_degree(v) as u32;
            self.remaining[v.index()] = g.out_degree(v) as u32;
            if g.is_input(v) {
                self.saved[v.index()] = true; // inputs start in slow memory
            }
        }
        for i in 0..n {
            self.use_start[i + 1] += self.use_start[i];
        }
        self.use_pos.resize(self.use_start[n] as usize, 0);
        // `cursor` (zeroed by `reset`) counts each vertex's filled uses,
        // then is zeroed again for the game loop.
        for (step, &v) in schedule.iter().enumerate() {
            for &p in g.predecessors(v) {
                let c = &mut self.cursor[p.index()];
                self.use_pos[(self.use_start[p.index()] + *c) as usize] = step as u32;
                *c += 1;
            }
        }
        self.cursor.fill(0);

        let mut trace = Trace::default();
        for (step, &v) in schedule.iter().enumerate() {
            let preds = g.predecessors(v);
            // 1. Predecessors resident (pinned while firing).
            for &p in preds {
                if self.resident[p.index()] {
                    trace.hits += 1;
                } else {
                    self.make_room(g, preds, v, cap, policy, &mut trace, &mut record);
                    debug_assert!(self.saved[p.index()], "spilled {p} lost without a store");
                    trace.loads += 1;
                    record(Move::Load(p));
                    self.place(p, policy);
                }
                self.touch(p, policy);
            }
            // 2. The fired vertex itself: inputs load, computes are free.
            if !self.resident[v.index()] {
                self.make_room(g, preds, v, cap, policy, &mut trace, &mut record);
                if g.is_input(v) {
                    trace.loads += 1;
                    record(Move::Load(v));
                } else {
                    record(Move::Compute(v));
                }
                self.place(v, policy);
            }
            self.touch(v, policy);
            // 3. Retire uses; delete dead values for free (rule R4).
            for &p in preds {
                self.remaining[p.index()] -= 1;
                self.advance_cursor(p, step as u32, policy);
                if self.remaining[p.index()] == 0
                    && (!g.is_output(p) || self.saved[p.index()])
                    && self.drop_resident(p, policy)
                {
                    record(Move::Delete(p));
                }
            }
            if self.remaining[v.index()] == 0 && !g.is_output(v) && self.drop_resident(v, policy) {
                record(Move::Delete(v));
            }
        }
        // 4. Outputs must end up in slow memory.
        for v in g.vertices() {
            if g.is_output(v) && !self.saved[v.index()] {
                debug_assert!(
                    self.resident[v.index()],
                    "output {v} neither resident nor saved"
                );
                trace.stores += 1;
                record(Move::Store(v));
                self.saved[v.index()] = true;
            }
        }
        Ok(trace)
    }

    fn reset(&mut self, n: usize) {
        self.resident.clear();
        self.resident.resize(n, false);
        self.saved.clear();
        self.saved.resize(n, false);
        self.remaining.clear();
        self.remaining.resize(n, 0);
        self.use_start.clear();
        self.use_start.resize(n + 1, 0);
        self.use_pos.clear();
        self.cursor.clear();
        self.cursor.resize(n, 0);
        self.pos.clear();
        self.pos.resize(n, u32::MAX);
        self.resident_list.clear();
        self.heap_ordered = false;
        self.slot.clear();
        self.slot.resize(n, NIL);
        self.lru_prev.clear();
        self.lru_prev.resize(n, NIL);
        self.lru_next.clear();
        self.lru_next.resize(n, NIL);
        self.lru_head = NIL;
        self.lru_tail = NIL;
        #[cfg(debug_assertions)]
        {
            self.last_touch.clear();
            self.last_touch.resize(n, 0);
            self.clock = 0;
        }
    }

    fn touch(&mut self, v: VertexId, policy: CachePolicy) {
        #[cfg(debug_assertions)]
        {
            self.clock += 1;
            self.last_touch[v.index()] = self.clock;
        }
        if policy == CachePolicy::Lru && self.lru_tail != v.0 {
            self.lru_unlink(v);
            self.lru_push_back(v);
        }
    }

    fn place(&mut self, v: VertexId, policy: CachePolicy) {
        debug_assert!(!self.resident[v.index()]);
        self.resident[v.index()] = true;
        self.slot[v.index()] = self.resident_list.len() as u32;
        self.resident_list.push(v);
        match policy {
            CachePolicy::Lru => self.lru_push_back(v),
            CachePolicy::Opt if self.heap_ordered => self.sift_up(self.resident_list.len() - 1),
            CachePolicy::Opt => {}
        }
    }

    /// Frees `v`'s word; `false` (and no change) when it was not
    /// resident.
    fn drop_resident(&mut self, v: VertexId, policy: CachePolicy) -> bool {
        if !self.resident[v.index()] {
            return false;
        }
        self.resident[v.index()] = false;
        let at = self.slot[v.index()] as usize;
        debug_assert_eq!(self.resident_list[at], v, "slot of {v} out of date");
        self.resident_list.swap_remove(at);
        if let Some(&moved) = self.resident_list.get(at) {
            self.slot[moved.index()] = at as u32;
            if policy == CachePolicy::Opt && self.heap_ordered {
                self.sift_up(at);
                self.sift_down(self.slot[moved.index()] as usize);
            }
        }
        if policy == CachePolicy::Lru {
            self.lru_unlink(v);
        }
        true
    }

    /// Retires `p`'s uses up to `step`; under OPT a resident `p`'s key
    /// grows with its next use, so it rises in the heap.
    fn advance_cursor(&mut self, p: VertexId, step: u32, policy: CachePolicy) {
        let (lo, hi) = (self.use_start[p.index()], self.use_start[p.index() + 1]);
        let c = &mut self.cursor[p.index()];
        let before = *c;
        while lo + *c < hi && self.use_pos[(lo + *c) as usize] <= step {
            *c += 1;
        }
        if policy == CachePolicy::Opt
            && self.heap_ordered
            && *c != before
            && self.resident[p.index()]
        {
            self.sift_up(self.slot[p.index()] as usize);
        }
    }

    fn next_use(&self, u: VertexId) -> u32 {
        let (lo, hi) = (self.use_start[u.index()], self.use_start[u.index() + 1]);
        let c = lo + self.cursor[u.index()];
        if c < hi {
            self.use_pos[c as usize]
        } else {
            u32::MAX
        }
    }

    /// OPT's eviction key: furthest next use first, then the smaller id.
    fn opt_key(&self, u: VertexId) -> (u32, Reverse<VertexId>) {
        (self.next_use(u), Reverse(u))
    }

    /// Orders the resident list into the OPT heap, bottom-up in O(S).
    fn heapify(&mut self) {
        for at in (0..self.resident_list.len() / 2).rev() {
            self.sift_down(at);
        }
        self.heap_ordered = true;
    }

    /// Moves the heap entry at `at` toward the root past smaller keys.
    fn sift_up(&mut self, mut at: usize) {
        let u = self.resident_list[at];
        let key = self.opt_key(u);
        while at > 0 {
            let parent = (at - 1) / 2;
            let p = self.resident_list[parent];
            if self.opt_key(p) > key {
                break;
            }
            self.resident_list[at] = p;
            self.slot[p.index()] = at as u32;
            at = parent;
        }
        self.resident_list[at] = u;
        self.slot[u.index()] = at as u32;
    }

    /// Moves the heap entry at `at` toward the leaves past larger keys.
    fn sift_down(&mut self, mut at: usize) {
        let u = self.resident_list[at];
        let key = self.opt_key(u);
        let len = self.resident_list.len();
        loop {
            let mut child = 2 * at + 1;
            if child >= len {
                break;
            }
            if child + 1 < len
                && self.opt_key(self.resident_list[child + 1])
                    > self.opt_key(self.resident_list[child])
            {
                child += 1;
            }
            let c = self.resident_list[child];
            if self.opt_key(c) < key {
                break;
            }
            self.resident_list[at] = c;
            self.slot[c.index()] = at as u32;
            at = child;
        }
        self.resident_list[at] = u;
        self.slot[u.index()] = at as u32;
    }

    fn lru_push_back(&mut self, v: VertexId) {
        self.lru_prev[v.index()] = self.lru_tail;
        self.lru_next[v.index()] = NIL;
        match self.lru_tail {
            NIL => self.lru_head = v.0,
            tail => self.lru_next[tail as usize] = v.0,
        }
        self.lru_tail = v.0;
    }

    fn lru_unlink(&mut self, v: VertexId) {
        let (prev, next) = (self.lru_prev[v.index()], self.lru_next[v.index()]);
        match prev {
            NIL => self.lru_head = next,
            p => self.lru_next[p as usize] = next,
        }
        match next {
            NIL => self.lru_tail = prev,
            n => self.lru_prev[n as usize] = prev,
        }
    }

    /// Frees capacity until a new word fits, never evicting `v` or its
    /// pinned predecessors. Live victims are stored once; dead victims
    /// (fully consumed, saved-or-untagged) leave for free.
    #[allow(clippy::too_many_arguments)]
    fn make_room(
        &mut self,
        g: &Cdag,
        pinned: &[VertexId],
        v: VertexId,
        cap: usize,
        policy: CachePolicy,
        trace: &mut Trace,
        record: &mut impl FnMut(Move),
    ) {
        while self.resident_list.len() >= cap {
            if policy == CachePolicy::Opt && !self.heap_ordered {
                self.heapify();
            }
            let victim = self.choose_victim(pinned, v, policy);
            let live = self.remaining[victim.index()] > 0 || g.is_output(victim);
            if live && !self.saved[victim.index()] {
                trace.stores += 1;
                record(Move::Store(victim));
                self.saved[victim.index()] = true;
            }
            trace.evictions += 1;
            self.drop_resident(victim, policy);
            record(Move::Delete(victim));
        }
    }

    /// The resident to evict. The feasibility check at entry leaves at
    /// least one unpinned resident whenever the cache is full.
    fn choose_victim(&self, pinned: &[VertexId], v: VertexId, policy: CachePolicy) -> VertexId {
        let victim = match policy {
            // The oldest resident that is not pinned.
            CachePolicy::Lru => {
                let mut u = self.lru_head;
                while u == v.0 || pinned.contains(&VertexId(u)) {
                    u = self.lru_next[u as usize];
                }
                VertexId(u)
            }
            // The heap's root: pinned values have the smallest next use.
            CachePolicy::Opt => self.resident_list[0],
        };
        #[cfg(debug_assertions)]
        assert_eq!(
            Some(victim),
            self.scan_victim(pinned, v, policy),
            "{policy} victim diverged from the linear scan"
        );
        victim
    }

    /// The linear scan over every resident that the LRU list and the OPT
    /// heap replace, kept in debug builds as the oracle
    /// [`Simulation::choose_victim`] is checked against.
    #[cfg(debug_assertions)]
    fn scan_victim(
        &self,
        pinned: &[VertexId],
        v: VertexId,
        policy: CachePolicy,
    ) -> Option<VertexId> {
        let mut best: Option<VertexId> = None;
        for &u in &self.resident_list {
            if u == v || pinned.contains(&u) {
                continue;
            }
            let better = match (policy, best) {
                (_, None) => true,
                // LRU: smallest last-touch tick; ticks are unique.
                (CachePolicy::Lru, Some(b)) => {
                    self.last_touch[u.index()] < self.last_touch[b.index()]
                }
                // OPT: furthest next use, ties toward the smaller id.
                (CachePolicy::Opt, Some(b)) => {
                    let (nu, nb) = (self.next_use(u), self.next_use(b));
                    nu > nb || (nu == nb && u < b)
                }
            };
            if better {
                best = Some(u);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_cdag::topo::topological_order;
    use dmc_kernels::chains;

    fn run(g: &Cdag, policy: CachePolicy, s: u64) -> Trace {
        Simulation::new()
            .run(g, &topological_order(g), policy, s)
            .expect("feasible")
    }

    #[test]
    fn chain_hand_computed_accounting() {
        // chain(4): in -> a -> b -> c(out). S = 2: the rolling frontier
        // always fits; dead values are deleted for free.
        let g = chains::chain(4);
        for policy in [CachePolicy::Lru, CachePolicy::Opt] {
            let t = run(&g, policy, 2);
            assert_eq!(t.loads, 1, "{policy}: one input fetch");
            assert_eq!(t.stores, 1, "{policy}: one output store");
            assert_eq!(t.hits, 3, "{policy}: each link is a hit");
            assert_eq!(t.evictions, 0, "{policy}");
        }
    }

    #[test]
    fn diamond_tight_budget_hand_computed() {
        // diamond: a -> {b, c} -> d, S = 3. After c fires, a is fully
        // consumed and leaves via the free delete (not an eviction), so
        // b, c, d fit without pressure: load a + store d only.
        let g = chains::diamond();
        for policy in [CachePolicy::Lru, CachePolicy::Opt] {
            let t = run(&g, policy, 3);
            assert_eq!(t.io(), 2, "{policy}: load a + store d");
            assert_eq!(t.hits, 4, "{policy}: a twice, then b and c");
            assert_eq!(t.evictions, 0, "{policy}: dead drops are free");
        }
    }

    #[test]
    fn fft_spills_under_pressure() {
        // fft(8): every stage vertex has in-degree 2, so S = 3 is the
        // minimum feasible budget — and far below the butterfly's working
        // set, so stage values spill (stores) and reload (loads).
        let g = dmc_kernels::fft::fft(8);
        let roomy = run(&g, CachePolicy::Lru, 64);
        assert_eq!(roomy.io(), 16, "compulsory: 8 loads + 8 stores");
        let tight = run(&g, CachePolicy::Lru, 3);
        assert!(tight.loads > 8 && tight.stores > 8, "{tight:?}");
        assert!(tight.evictions > 0);
        // OPT (Belady replacement) never does worse than LRU here.
        let opt = run(&g, CachePolicy::Opt, 3);
        assert!(opt.io() <= tight.io(), "opt {opt:?} vs lru {tight:?}");
    }

    #[test]
    fn infinite_capacity_is_compulsory_traffic_only() {
        let g = chains::ladder(5, 5);
        for policy in [CachePolicy::Lru, CachePolicy::Opt] {
            let t = run(&g, policy, u64::MAX);
            assert_eq!(t.loads, g.num_inputs() as u64, "{policy}");
            assert_eq!(t.stores, g.num_outputs() as u64, "{policy}");
            assert_eq!(t.evictions, 0, "{policy}");
        }
    }

    #[test]
    fn lru_and_opt_record_different_victims() {
        // Inputs a, b, c; x = f(c), y = f(a, x), z = f(b, y) (output), in
        // S = 3. Firing x needs a word while a, b, c are resident: LRU
        // drops a (touched first), OPT drops b (used last).
        let mut bld = dmc_cdag::CdagBuilder::new();
        let a = bld.add_input("a");
        let b = bld.add_input("b");
        let c = bld.add_input("c");
        let x = bld.add_op("x", &[c]);
        let y = bld.add_op("y", &[a, x]);
        let z = bld.add_op("z", &[b, y]);
        bld.tag_output(z);
        let g = bld.build_valid("victims");
        let order = [a, b, c, x, y, z];
        use Move::{Compute, Delete, Load, Store};
        let lru = [
            Load(a),
            Load(b),
            Load(c),
            Delete(a),
            Compute(x),
            Delete(c),
            Load(a),
            Delete(b),
            Compute(y),
            Delete(a),
            Delete(x),
            Load(b),
            Compute(z),
            Delete(b),
            Delete(y),
            Store(z),
        ];
        let opt = [
            Load(a),
            Load(b),
            Load(c),
            Delete(b),
            Compute(x),
            Delete(c),
            Compute(y),
            Delete(a),
            Delete(x),
            Load(b),
            Compute(z),
            Delete(b),
            Delete(y),
            Store(z),
        ];
        let mut sim = Simulation::new();
        let mut moves = vec![Store(z)]; // stale content is cleared
        for (policy, want, io) in [
            (CachePolicy::Lru, &lru[..], 6),
            (CachePolicy::Opt, &opt[..], 5),
        ] {
            let t = sim.run_recorded(&g, &order, policy, 3, &mut moves).unwrap();
            assert_eq!(moves, want, "{policy}");
            assert_eq!(t.io(), io, "{policy}");
            assert_eq!(t, sim.run(&g, &order, policy, 3).unwrap(), "{policy}");
        }
    }

    #[test]
    fn rejects_invalid_schedules_and_tiny_budgets() {
        let g = chains::diamond();
        let mut order = topological_order(&g);
        let mut sim = Simulation::new();
        assert_eq!(
            sim.run(&g, &order[..2], CachePolicy::Lru, 8),
            Err(SimError::InvalidSchedule)
        );
        order.reverse();
        assert_eq!(
            sim.run(&g, &order, CachePolicy::Lru, 8),
            Err(SimError::InvalidSchedule)
        );
        order.reverse();
        // Firing d needs 3 words.
        assert!(matches!(
            sim.run(&g, &order, CachePolicy::Lru, 2),
            Err(SimError::BudgetTooSmall { required: 3, .. })
        ));
    }

    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_runs() {
        let g = chains::ladder(6, 6);
        let order = topological_order(&g);
        let mut reused = Simulation::new();
        for s in [4u64, 6, 8, 12, 4, 6] {
            for policy in [CachePolicy::Lru, CachePolicy::Opt] {
                let a = reused.run(&g, &order, policy, s).unwrap();
                let b = Simulation::new().run(&g, &order, policy, s).unwrap();
                assert_eq!(a, b, "S = {s} {policy}");
            }
        }
    }

    #[test]
    fn opt_evicts_dead_outputs_smallest_id_first() {
        // Outputs y1 < y2 < y3 (by id) of input a are fired y3, y2, y1 and
        // never used again, so they stay resident unsaved. Loading e and
        // h, then firing c = f(b, e, h), in S = 4 evicts all three. OPT
        // ranks them equal (no next use) and takes the smallest id first;
        // LRU takes the least recently fired first.
        let mut bld = dmc_cdag::CdagBuilder::new();
        let a = bld.add_input("a");
        let [y1, y2, y3] = [1, 2, 3].map(|i| bld.add_op(format!("y{i}"), &[a]));
        let [b, e, h] = ["b", "e", "h"].map(|l| bld.add_input(l));
        let c = bld.add_op("c", &[b, e, h]);
        for o in [y1, y2, y3, c] {
            bld.tag_output(o);
        }
        let g = bld.build_valid("dead outputs");
        let order = [a, y3, y2, y1, b, e, h, c];
        use Move::{Compute, Delete, Load, Store};
        let moves = |evicted: [VertexId; 3]| {
            let [first, second, third] = evicted;
            vec![
                Load(a),
                Compute(y3),
                Compute(y2),
                Compute(y1),
                Delete(a),
                Load(b),
                Store(first),
                Delete(first),
                Load(e),
                Store(second),
                Delete(second),
                Load(h),
                Store(third),
                Delete(third),
                Compute(c),
                Delete(b),
                Delete(e),
                Delete(h),
                Store(c),
            ]
        };
        let mut sim = Simulation::new();
        let mut got = Vec::new();
        for (policy, evicted) in [
            (CachePolicy::Opt, [y1, y2, y3]),
            (CachePolicy::Lru, [y3, y2, y1]),
        ] {
            let t = sim.run_recorded(&g, &order, policy, 4, &mut got).unwrap();
            assert_eq!(got, moves(evicted), "{policy}");
            assert_eq!((t.loads, t.stores, t.evictions), (4, 4, 3), "{policy}");
        }
    }

    #[test]
    fn lru_counts_a_reloaded_value_as_newest() {
        // In S = 4, firing x = f(c, e) evicts input a, the oldest. Firing
        // y = f(a) reloads a, so when firing z = f(x, y) needs a word, b
        // (last touched before a's reload) is the LRU victim, not a.
        let mut bld = dmc_cdag::CdagBuilder::new();
        let [a, b, c, e] = ["a", "b", "c", "e"].map(|l| bld.add_input(l));
        let x = bld.add_op("x", &[c, e]);
        let y = bld.add_op("y", &[a]);
        let z = bld.add_op("z", &[x, y]);
        let w = bld.add_op("w", &[a, b, z]);
        bld.tag_output(w);
        let g = bld.build_valid("reload");
        let order = [a, b, c, e, x, y, z, w];
        use Move::{Compute, Delete, Load, Store};
        let want = [
            Load(a),
            Load(b),
            Load(c),
            Load(e),
            Delete(a),
            Compute(x),
            Delete(c),
            Delete(e),
            Load(a),
            Compute(y),
            Delete(b),
            Compute(z),
            Delete(x),
            Delete(y),
            Load(b),
            Compute(w),
            Delete(a),
            Delete(b),
            Delete(z),
            Store(w),
        ];
        let mut got = Vec::new();
        let t = Simulation::new()
            .run_recorded(&g, &order, CachePolicy::Lru, 4, &mut got)
            .unwrap();
        assert_eq!(got, want);
        assert_eq!((t.io(), t.evictions), (7, 2));
    }

    #[test]
    fn hits_and_retired_uses_reorder_victims() {
        // Loading c in S = 3 evicts from {a, b, p}, where a was just hit
        // by p = f(a). LRU must count the hit as a touch and drop b; OPT
        // must see a's next use move from p's step to r's and drop a.
        let mut bld = dmc_cdag::CdagBuilder::new();
        let [a, b, c] = ["a", "b", "c"].map(|l| bld.add_input(l));
        let p = bld.add_op("p", &[a]);
        let q = bld.add_op("q", &[b, p]);
        let r = bld.add_op("r", &[a, c]);
        bld.tag_output(q);
        bld.tag_output(r);
        let g = bld.build_valid("reorder");
        let order = [a, b, p, c, q, r];
        use Move::{Compute, Delete, Load, Store};
        let lru = [
            Load(a),
            Load(b),
            Compute(p),
            Delete(b),
            Load(c),
            Delete(a),
            Load(b),
            Delete(c),
            Compute(q),
            Delete(b),
            Delete(p),
            Load(a),
            Load(c),
            Store(q),
            Delete(q),
            Compute(r),
            Delete(a),
            Delete(c),
            Store(r),
        ];
        let opt = [
            Load(a),
            Load(b),
            Compute(p),
            Delete(a),
            Load(c),
            Delete(c),
            Compute(q),
            Delete(b),
            Delete(p),
            Load(a),
            Load(c),
            Store(q),
            Delete(q),
            Compute(r),
            Delete(a),
            Delete(c),
            Store(r),
        ];
        let mut sim = Simulation::new();
        let mut got = Vec::new();
        for (policy, want, io) in [
            (CachePolicy::Lru, &lru[..], 8),
            (CachePolicy::Opt, &opt[..], 7),
        ] {
            let t = sim.run_recorded(&g, &order, policy, 3, &mut got).unwrap();
            assert_eq!(got, want, "{policy}");
            assert_eq!(t.io(), io, "{policy}");
        }
    }

    #[test]
    fn opt_heapifies_the_residents_when_the_cache_first_fills() {
        // Inputs a, e, b, c; p = f(a, e), q = f(a, c) (output), r = f(b),
        // t = f(p, r) (output), in S = 4 and order a e b p c q r t. The
        // first five steps fill the cache without evicting: p's fire
        // retires one of a's uses and frees e, which moves p into e's
        // slot, so the unordered residents read a, p, b, c. Firing q must
        // evict one of b (next read at r) and p (next read at t): OPT
        // takes p from the middle of the freshly heapified list, LRU takes
        // b, the oldest touch. OPT pays a store for p that LRU does not:
        // 8 words against 7, on equal loads.
        let mut bld = dmc_cdag::CdagBuilder::new();
        let [a, e, b, c] = ["a", "e", "b", "c"].map(|l| bld.add_input(l));
        let p = bld.add_op("p", &[a, e]);
        let q = bld.add_op("q", &[a, c]);
        let r = bld.add_op("r", &[b]);
        let t = bld.add_op("t", &[p, r]);
        bld.tag_output(q);
        bld.tag_output(t);
        let g = bld.build_valid("first fill");
        let order = [a, e, b, p, c, q, r, t];
        use Move::{Compute, Delete, Load, Store};
        let opt = [
            Load(a),
            Load(e),
            Load(b),
            Compute(p),
            Delete(e),
            Load(c),
            Store(p),
            Delete(p),
            Compute(q),
            Delete(a),
            Delete(c),
            Compute(r),
            Delete(b),
            Load(p),
            Compute(t),
            Delete(p),
            Delete(r),
            Store(q),
            Store(t),
        ];
        let lru = [
            Load(a),
            Load(e),
            Load(b),
            Compute(p),
            Delete(e),
            Load(c),
            Delete(b),
            Compute(q),
            Delete(a),
            Delete(c),
            Load(b),
            Compute(r),
            Delete(b),
            Compute(t),
            Delete(p),
            Delete(r),
            Store(q),
            Store(t),
        ];
        let mut sim = Simulation::new();
        let mut got = Vec::new();
        for (policy, want, (loads, stores)) in [
            (CachePolicy::Opt, &opt[..], (5, 3)),
            (CachePolicy::Lru, &lru[..], (5, 2)),
        ] {
            let t = sim.run_recorded(&g, &order, policy, 4, &mut got).unwrap();
            assert_eq!(got, want, "{policy}");
            assert_eq!(
                (t.loads, t.stores, t.evictions),
                (loads, stores, 1),
                "{policy}"
            );
        }
    }

    mod properties {
        use super::*;
        use dmc_cdag::topo::complete_order;
        use dmc_kernels::random::{random_layered, RandomDagConfig};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// At S = ∞ the measured traffic is exactly the compulsory
            /// traffic: one load per input, one store per pure output —
            /// the trivial bound `|I| + |O \ I|`.
            #[test]
            fn infinite_sram_measures_compulsory_misses(
                layers in 2usize..5,
                width in 2usize..6,
                p in 0.1f64..0.7,
                seed in 0u64..500
            ) {
                let g = random_layered(RandomDagConfig { layers, width, deg: 0, edge_prob: p, seed });
                let order = topological_order(&g);
                let mut pure_outputs = g.outputs().clone();
                pure_outputs.difference_with(g.inputs());
                for policy in [CachePolicy::Lru, CachePolicy::Opt] {
                    let t = Simulation::new()
                        .run(&g, &order, policy, g.num_vertices() as u64 + 1)
                        .expect("S covers every in-degree");
                    prop_assert_eq!(t.loads, g.num_inputs() as u64);
                    prop_assert_eq!(t.stores, pure_outputs.len() as u64);
                    prop_assert_eq!(t.evictions, 0);
                }
            }


            /// Shrinking S never reduces I/O for a fixed schedule+policy:
            /// LRU and OPT are both stack algorithms.
            #[test]
            fn io_is_monotone_in_capacity(
                layers in 2usize..5,
                width in 2usize..6,
                p in 0.1f64..0.7,
                seed in 0u64..500
            ) {
                let g = random_layered(RandomDagConfig { layers, width, deg: 0, edge_prob: p, seed });
                let order = topological_order(&g);
                let min_s = min_feasible_capacity(&g) as u64;
                let mut sim = Simulation::new();
                for policy in [CachePolicy::Lru, CachePolicy::Opt] {
                    let mut prev = u64::MAX;
                    for s in [min_s, min_s + 1, min_s + 2, min_s + 4, min_s + 16] {
                        let t = sim.run(&g, &order, policy, s).expect("feasible");
                        prop_assert!(t.io() <= prev, "{} S = {}: {} > {}", policy, s, t.io(), prev);
                        prev = t.io();
                    }
                }
            }

            /// On seeded random topological orders at every S from the
            /// minimum feasible to |V| + 1, an arena reused across
            /// capacities and policies records the same game as a fresh
            /// one.
            #[test]
            fn reused_arena_replays_fresh_games_on_random_orders(
                layers in 2usize..5,
                width in 2usize..6,
                p in 0.1f64..0.7,
                seed in 0u64..500,
                keys in proptest::collection::vec(0u32..1000, 32)
            ) {
                let g = random_layered(RandomDagConfig { layers, width, deg: 0, edge_prob: p, seed });
                let mut preferred: Vec<VertexId> = g.vertices().collect();
                preferred.sort_by_key(|v| (keys[v.index()], *v));
                let order = complete_order(&g, preferred);
                let (mut reused, mut fresh) = (Vec::new(), Vec::new());
                let mut sim = Simulation::new();
                for s in min_feasible_capacity(&g) as u64..=g.num_vertices() as u64 + 1 {
                    for policy in [CachePolicy::Lru, CachePolicy::Opt] {
                        let t = sim.run_recorded(&g, &order, policy, s, &mut reused).expect("feasible");
                        let want = Simulation::new()
                            .run_recorded(&g, &order, policy, s, &mut fresh)
                            .expect("feasible");
                        prop_assert_eq!(t, want, "{} S = {}", policy, s);
                        prop_assert_eq!(&reused, &fresh, "{} S = {}", policy, s);
                    }
                }
            }
        }
    }
}
