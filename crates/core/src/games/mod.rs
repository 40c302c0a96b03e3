//! Pebble-game engines.
//!
//! * [`redblue`] — the Hong–Kung red-blue game (Definition 2), with
//!   recomputation allowed;
//! * [`rbw`] — the Red-Blue-White game (Definition 4), no recomputation;
//! * [`prbw`] — the Parallel RBW game (Definition 6) on memory
//!   hierarchies;
//! * [`executor`] — the RBW player: a schedule and an eviction policy
//!   played on the `dmc-sim` simulator with its moves recorded, then
//!   certified by [`rbw::validate`] — an I/O *upper* bound;
//! * [`optimal`] — exact optimal-I/O search for tiny CDAGs, used to
//!   validate every lower bound in the test suite.

pub mod executor;
pub mod optimal;
pub mod prbw;
pub mod rbw;
pub mod redblue;

use dmc_cdag::VertexId;

/// A single move of the sequential games. The RBW player that records
/// games lives in `dmc-sim`, so the type is defined there.
pub use dmc_sim::simulation::Move;

/// A complete recorded game: the sequence of moves.
#[derive(Debug, Clone, Default)]
pub struct GameTrace {
    /// Moves in play order.
    pub moves: Vec<Move>,
}

impl GameTrace {
    /// Number of I/O operations (loads + stores) — the game's cost `q`.
    pub fn io_count(&self) -> u64 {
        self.moves.iter().filter(|m| m.is_io()).count() as u64
    }

    /// Number of loads (R1 moves).
    pub fn load_count(&self) -> u64 {
        self.moves
            .iter()
            .filter(|m| matches!(m, Move::Load(_)))
            .count() as u64
    }

    /// Number of stores (R2 moves).
    pub fn store_count(&self) -> u64 {
        self.moves
            .iter()
            .filter(|m| matches!(m, Move::Store(_)))
            .count() as u64
    }

    /// Number of compute (R3) moves.
    pub fn compute_count(&self) -> u64 {
        self.moves
            .iter()
            .filter(|m| matches!(m, Move::Compute(_)))
            .count() as u64
    }
}

/// Rule violations detected when replaying a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GameError {
    /// R1 on a vertex without a blue pebble.
    LoadWithoutBlue(VertexId),
    /// R2 on a vertex without a red pebble.
    StoreWithoutRed(VertexId),
    /// R3 with some predecessor lacking a red pebble.
    ComputeWithoutPreds(VertexId),
    /// R3 on an already-fired vertex (RBW only — recomputation forbidden).
    Recompute(VertexId),
    /// R3/R1 would exceed the red-pebble budget `S`.
    RedBudgetExceeded(VertexId),
    /// R4 on a vertex without a red pebble.
    DeleteWithoutRed(VertexId),
    /// Game ended without firing every vertex (RBW completeness).
    Unfired(VertexId),
    /// Game ended without a blue pebble on an output.
    OutputNotStored(VertexId),
    /// R3 on an input vertex (inputs hold values, they are not computed).
    ComputeInput(VertexId),
}

impl std::fmt::Display for GameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GameError::LoadWithoutBlue(v) => write!(f, "load of {v} without blue pebble"),
            GameError::StoreWithoutRed(v) => write!(f, "store of {v} without red pebble"),
            GameError::ComputeWithoutPreds(v) => {
                write!(f, "compute of {v} with unpebbled predecessor")
            }
            GameError::Recompute(v) => write!(f, "recomputation of {v} (forbidden in RBW)"),
            GameError::RedBudgetExceeded(v) => write!(f, "red budget exceeded placing on {v}"),
            GameError::DeleteWithoutRed(v) => write!(f, "delete of {v} without red pebble"),
            GameError::Unfired(v) => write!(f, "game complete but {v} never fired"),
            GameError::OutputNotStored(v) => write!(f, "output {v} has no blue pebble at end"),
            GameError::ComputeInput(v) => write!(f, "compute applied to input vertex {v}"),
        }
    }
}

impl std::error::Error for GameError {}
