//! The Hong–Kung red-blue pebble game (Definition 2) — recomputation
//! allowed.
//!
//! This module provides a *validator*: it replays a trace against the rules
//! and reports the I/O cost, so any strategy (hand-written, heuristic or
//! exhaustive) can be certified. The game requires the CDAG to be in
//! Hong–Kung form: every source an input, every sink an output.

use super::{GameError, GameTrace, Move};
use dmc_cdag::{BitSet, Cdag, VertexId};

/// Replay state of a red-blue game.
#[derive(Debug, Clone)]
pub struct RedBlueState {
    /// Vertices currently holding a red pebble. Change it only through
    /// [`RedBlueState::apply`], which keeps the budget count in step.
    pub red: BitSet,
    /// Vertices currently holding a blue pebble.
    pub blue: BitSet,
    /// Red-pebble budget `S`.
    pub s: usize,
    /// `red.len()`, kept by [`RedBlueState::apply`] so the budget check
    /// is O(1) per move instead of a popcount of the whole set.
    reds: usize,
}

impl RedBlueState {
    /// Initial state: blue pebbles on all inputs, no red pebbles.
    pub fn initial(g: &Cdag, s: usize) -> Self {
        RedBlueState {
            red: BitSet::new(g.num_vertices()),
            blue: g.inputs().clone(),
            s,
            reds: 0,
        }
    }

    /// Places a red pebble on `v` unless the budget is full. Placing one
    /// on an already-red vertex is free.
    fn place_red(&mut self, v: VertexId) -> Result<(), GameError> {
        if !self.red.contains(v.index()) {
            if self.reds >= self.s {
                return Err(GameError::RedBudgetExceeded(v));
            }
            self.red.insert(v.index());
            self.reds += 1;
        }
        Ok(())
    }

    /// Applies one move, enforcing rules R1–R4.
    pub fn apply(&mut self, g: &Cdag, mv: Move) -> Result<(), GameError> {
        match mv {
            Move::Load(v) => {
                if !self.blue.contains(v.index()) {
                    return Err(GameError::LoadWithoutBlue(v));
                }
                self.place_red(v)?;
            }
            Move::Store(v) => {
                if !self.red.contains(v.index()) {
                    return Err(GameError::StoreWithoutRed(v));
                }
                self.blue.insert(v.index());
            }
            Move::Compute(v) => {
                if g.is_input(v) {
                    return Err(GameError::ComputeInput(v));
                }
                if !g
                    .predecessors(v)
                    .iter()
                    .all(|p| self.red.contains(p.index()))
                {
                    return Err(GameError::ComputeWithoutPreds(v));
                }
                self.place_red(v)?;
            }
            Move::Delete(v) => {
                if !self.red.remove(v.index()) {
                    return Err(GameError::DeleteWithoutRed(v));
                }
                self.reds -= 1;
            }
        }
        Ok(())
    }
}

/// Replays `trace` on `g` with `s` red pebbles; returns the I/O count of
/// the complete game, or the first rule violation.
///
/// Completeness check (Definition 2): blue pebbles on all outputs at the
/// end.
pub fn validate(g: &Cdag, s: usize, trace: &GameTrace) -> Result<u64, GameError> {
    let mut st = RedBlueState::initial(g, s);
    for &mv in &trace.moves {
        st.apply(g, mv)?;
    }
    for v in g.vertices() {
        if g.is_output(v) && !st.blue.contains(v.index()) {
            return Err(GameError::OutputNotStored(v));
        }
    }
    Ok(trace.io_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_cdag::CdagBuilder;

    fn tiny() -> Cdag {
        // a(in) -> b -> c(out)
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let x = b.add_op("b", &[a]);
        let c = b.add_op("c", &[x]);
        b.tag_output(c);
        b.build().unwrap()
    }

    #[test]
    fn straight_line_game_costs_two() {
        let g = tiny();
        let (a, x, c) = (VertexId(0), VertexId(1), VertexId(2));
        let trace = GameTrace {
            moves: vec![
                Move::Load(a),
                Move::Compute(x),
                Move::Delete(a),
                Move::Compute(c),
                Move::Store(c),
            ],
        };
        assert_eq!(validate(&g, 2, &trace).unwrap(), 2);
    }

    #[test]
    fn budget_enforced() {
        let g = tiny();
        let (a, x) = (VertexId(0), VertexId(1));
        let trace = GameTrace {
            moves: vec![Move::Load(a), Move::Compute(x)],
        };
        assert_eq!(
            validate(&g, 1, &trace).unwrap_err(),
            GameError::RedBudgetExceeded(x)
        );
    }

    #[test]
    fn compute_requires_red_preds() {
        let g = tiny();
        let x = VertexId(1);
        let trace = GameTrace {
            moves: vec![Move::Compute(x)],
        };
        assert_eq!(
            validate(&g, 2, &trace).unwrap_err(),
            GameError::ComputeWithoutPreds(x)
        );
    }

    #[test]
    fn outputs_must_be_stored() {
        let g = tiny();
        let (a, x, c) = (VertexId(0), VertexId(1), VertexId(2));
        let trace = GameTrace {
            moves: vec![
                Move::Load(a),
                Move::Compute(x),
                Move::Delete(a),
                Move::Compute(c),
            ],
        };
        assert_eq!(
            validate(&g, 2, &trace).unwrap_err(),
            GameError::OutputNotStored(c)
        );
    }

    #[test]
    fn recomputation_is_legal_in_hong_kung() {
        // Fire b, drop it, fire it again — allowed here (unlike RBW).
        let g = tiny();
        let (a, x, c) = (VertexId(0), VertexId(1), VertexId(2));
        let trace = GameTrace {
            moves: vec![
                Move::Load(a),
                Move::Compute(x),
                Move::Delete(x),
                Move::Compute(x),
                Move::Delete(a),
                Move::Compute(c),
                Move::Store(c),
            ],
        };
        assert_eq!(validate(&g, 2, &trace).unwrap(), 2);
    }

    #[test]
    fn load_requires_blue() {
        let g = tiny();
        let x = VertexId(1);
        let trace = GameTrace {
            moves: vec![Move::Load(x)],
        };
        assert_eq!(
            validate(&g, 2, &trace).unwrap_err(),
            GameError::LoadWithoutBlue(x)
        );
    }

    #[test]
    fn inputs_cannot_be_computed() {
        let g = tiny();
        let a = VertexId(0);
        let trace = GameTrace {
            moves: vec![Move::Compute(a)],
        };
        assert_eq!(
            validate(&g, 2, &trace).unwrap_err(),
            GameError::ComputeInput(a)
        );
    }
}
