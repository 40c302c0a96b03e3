//! The Red-Blue-White pebble game (Definition 4) — no recomputation,
//! flexible input/output tagging.
//!
//! Differences from the Hong–Kung game:
//!
//! * every vertex carries a *white* pebble once evaluated (or first
//!   loaded), and rule R3 refuses to fire a white-pebbled vertex — values
//!   are computed exactly once;
//! * predecessor-free vertices need not be inputs: they fire via R3 with a
//!   trivially-satisfied premise, but once their red pebble is lost they
//!   can only come back via a store/load round trip;
//! * completeness requires white pebbles on *all* vertices plus blue on
//!   all tagged outputs.

use super::{GameError, GameTrace, Move};
use dmc_cdag::{BitSet, Cdag, VertexId};

/// Replay state of an RBW game.
#[derive(Debug, Clone)]
pub struct RbwState {
    /// Vertices currently holding a red pebble. Change it only through
    /// [`RbwState::apply`], which keeps the budget count in step.
    pub red: BitSet,
    /// Vertices currently holding a blue pebble.
    pub blue: BitSet,
    /// Vertices holding a white pebble (fired / materialized at least
    /// once).
    pub white: BitSet,
    /// Red-pebble budget `S`.
    pub s: usize,
    /// `red.len()`, kept by [`RbwState::apply`] so the budget check is
    /// O(1) per move instead of a popcount of the whole set.
    reds: usize,
}

impl RbwState {
    /// Initial state: blue on all tagged inputs; nothing else.
    pub fn initial(g: &Cdag, s: usize) -> Self {
        RbwState {
            red: BitSet::new(g.num_vertices()),
            blue: g.inputs().clone(),
            white: BitSet::new(g.num_vertices()),
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

    /// Applies one move, enforcing rules R1–R4 of Definition 4.
    pub fn apply(&mut self, g: &Cdag, mv: Move) -> Result<(), GameError> {
        match mv {
            Move::Load(v) => {
                if !self.blue.contains(v.index()) {
                    return Err(GameError::LoadWithoutBlue(v));
                }
                self.place_red(v)?;
                self.white.insert(v.index()); // R1 also whitens
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
                if self.white.contains(v.index()) {
                    return Err(GameError::Recompute(v));
                }
                if !g
                    .predecessors(v)
                    .iter()
                    .all(|p| self.red.contains(p.index()))
                {
                    return Err(GameError::ComputeWithoutPreds(v));
                }
                self.place_red(v)?;
                self.white.insert(v.index());
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

    /// Completeness check of Definition 4: white everywhere, blue on all
    /// outputs.
    pub fn check_complete(&self, g: &Cdag) -> Result<(), GameError> {
        for v in g.vertices() {
            if !self.white.contains(v.index()) {
                return Err(GameError::Unfired(v));
            }
        }
        for v in g.vertices() {
            if g.is_output(v) && !self.blue.contains(v.index()) {
                return Err(GameError::OutputNotStored(v));
            }
        }
        Ok(())
    }
}

/// Replays `trace` on `g` with `s` red pebbles under RBW rules; returns the
/// I/O count of the complete game or the first violation.
pub fn validate(g: &Cdag, s: usize, trace: &GameTrace) -> Result<u64, GameError> {
    let mut st = RbwState::initial(g, s);
    for &mv in &trace.moves {
        st.apply(g, mv)?;
    }
    st.check_complete(g)?;
    Ok(trace.io_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_cdag::CdagBuilder;

    fn tiny() -> Cdag {
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let x = b.add_op("b", &[a]);
        let c = b.add_op("c", &[x]);
        b.tag_output(c);
        b.build().unwrap()
    }

    #[test]
    fn straight_line_game() {
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
    fn recomputation_forbidden() {
        let g = tiny();
        let (a, x) = (VertexId(0), VertexId(1));
        let trace = GameTrace {
            moves: vec![
                Move::Load(a),
                Move::Compute(x),
                Move::Delete(x),
                Move::Compute(x),
            ],
        };
        assert_eq!(
            validate(&g, 3, &trace).unwrap_err(),
            GameError::Recompute(x)
        );
    }

    #[test]
    fn all_vertices_must_fire() {
        let g = tiny();
        let (a, x) = (VertexId(0), VertexId(1));
        let trace = GameTrace {
            moves: vec![Move::Load(a), Move::Compute(x)],
        };
        assert_eq!(
            validate(&g, 3, &trace).unwrap_err(),
            GameError::Unfired(VertexId(2))
        );
    }

    #[test]
    fn untagged_source_fires_without_load() {
        // free (no predecessors, not an input) fires via R3 directly.
        let mut b = CdagBuilder::new();
        let free = b.add_vertex("free");
        let z = b.add_op("z", &[free]);
        b.tag_output(z);
        let g = b.build().unwrap();
        let trace = GameTrace {
            moves: vec![Move::Compute(free), Move::Compute(z), Move::Store(z)],
        };
        // Only 1 I/O: the output store. No input loads exist.
        assert_eq!(validate(&g, 2, &trace).unwrap(), 1);
    }

    #[test]
    fn spill_reload_round_trip() {
        // Two consumers of one non-input source under S = 2: the source's
        // red pebble must survive until the second consumer, or be
        // spilled (store) and reloaded — recomputation is forbidden.
        let mut b = CdagBuilder::new();
        let f = b.add_vertex("free");
        let u = b.add_op("u", &[f]);
        let w = b.add_op("w", &[f, u]);
        b.tag_output(w);
        b.tag_output(u);
        let g = b.build().unwrap();
        // With S = 2: fire f, fire u, store u, spill u's red, fire w
        // (f and w fit), store w. u's red slot is recycled for w.
        let trace = GameTrace {
            moves: vec![
                Move::Compute(f),
                Move::Compute(u),
                Move::Store(u),
                Move::Delete(u),
                Move::Compute(w),
                Move::Store(w),
            ],
        };
        // Wait: w needs BOTH f and u red — the above fires w illegally.
        assert_eq!(
            validate(&g, 2, &trace).unwrap_err(),
            GameError::ComputeWithoutPreds(w)
        );
        // With S = 3 no spill is needed: just the two output stores.
        let trace = GameTrace {
            moves: vec![
                Move::Compute(f),
                Move::Compute(u),
                Move::Store(u),
                Move::Compute(w),
                Move::Store(w),
            ],
        };
        assert_eq!(validate(&g, 3, &trace).unwrap(), 2);
    }

    #[test]
    fn red_budget_is_exact() {
        // a(in) -> b -> c(out): firing b with a still red takes two
        // pebbles, so one pebble is one too few.
        let g = tiny();
        let (a, x, c) = (VertexId(0), VertexId(1), VertexId(2));
        let trace = GameTrace {
            moves: vec![Move::Load(a), Move::Compute(x)],
        };
        assert_eq!(
            validate(&g, 1, &trace).unwrap_err(),
            GameError::RedBudgetExceeded(x)
        );
        // At exactly S = 2 a Delete frees the pebble the next placement
        // needs — spill b, drop it, reload it while a is still red.
        let trace = GameTrace {
            moves: vec![
                Move::Load(a),
                Move::Compute(x),
                Move::Store(x),
                Move::Delete(x),
                Move::Load(x),
                Move::Delete(a),
                Move::Compute(c),
                Move::Store(c),
            ],
        };
        assert_eq!(validate(&g, 2, &trace).unwrap(), 4);
        // Without the Delete of a, the final Compute is one pebble over.
        let mut over = trace.clone();
        over.moves.remove(5);
        assert_eq!(
            validate(&g, 2, &over).unwrap_err(),
            GameError::RedBudgetExceeded(c)
        );
    }

    #[test]
    fn each_rule_reports_its_own_violation() {
        let g = tiny();
        let (a, x, c) = (VertexId(0), VertexId(1), VertexId(2));
        let cases = [
            (vec![Move::Load(x)], GameError::LoadWithoutBlue(x)),
            (vec![Move::Store(a)], GameError::StoreWithoutRed(a)),
            (vec![Move::Delete(a)], GameError::DeleteWithoutRed(a)),
            (vec![Move::Compute(a)], GameError::ComputeInput(a)),
            (
                vec![Move::Load(a), Move::Compute(x), Move::Compute(c)],
                GameError::OutputNotStored(c),
            ),
        ];
        for (moves, want) in cases {
            let trace = GameTrace { moves };
            assert_eq!(validate(&g, 3, &trace).unwrap_err(), want, "{trace:?}");
        }
    }

    #[test]
    fn loads_whiten() {
        // Loading an input marks it fired; inputs never need R3.
        let g = tiny();
        let (a, x, c) = (VertexId(0), VertexId(1), VertexId(2));
        let trace = GameTrace {
            moves: vec![
                Move::Load(a),
                Move::Compute(x),
                Move::Compute(c),
                Move::Store(c),
            ],
        };
        assert_eq!(validate(&g, 3, &trace).unwrap(), 2);
    }
}
