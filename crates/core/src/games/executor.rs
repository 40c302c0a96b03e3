//! The RBW game player: given a CDAG, a red-pebble budget and a
//! topological schedule, produce a *valid* RBW game trace — hence a
//! certified **upper bound** on I/O for that budget.
//!
//! The player is the `dmc-sim` [`Simulation`]: it fires vertices in
//! schedule order, makes every predecessor red (reloading spilled values
//! from blue), evicts victims chosen by the [`EvictionPolicy`] (storing
//! live ones first — the RBW game cannot recompute) and deletes dead
//! values for free. [`execute_rbw`] is one recorded run of it;
//! [`certified_upper_bound`] replays that recording through
//! [`rbw::validate`], which shares no code with the player.
//!
//! Policies:
//! * [`EvictionPolicy::Lru`] — least recently used;
//! * [`EvictionPolicy::Opt`] — furthest next use in the given schedule
//!   (Belady's offline-optimal *replacement* rule — this does not make
//!   the whole game optimal, only the eviction decisions for the fixed
//!   order).

use super::{rbw, GameTrace};
use dmc_cdag::{Cdag, VertexId};
use dmc_sim::simulation::{SimError, Simulation};

/// Victim-selection rule for the player — the simulator's policy.
pub use dmc_sim::simulation::CachePolicy as EvictionPolicy;

/// Outcome of a played game.
#[derive(Debug, Clone)]
pub struct ExecutedGame {
    /// The produced (valid) trace.
    pub trace: GameTrace,
    /// I/O cost `q` of the trace.
    pub io: u64,
}

/// Plays the schedule with recording on. Returns a valid game whose I/O
/// is an upper bound on `IO_S(C)` for this budget.
pub fn execute_rbw(
    g: &Cdag,
    s: usize,
    schedule: &[VertexId],
    policy: EvictionPolicy,
) -> Result<ExecutedGame, SimError> {
    let mut trace = GameTrace::default();
    let t = Simulation::new().run_recorded(g, schedule, policy, s as u64, &mut trace.moves)?;
    Ok(ExecutedGame { trace, io: t.io() })
}

/// Convenience: play the schedule and certify its trace against the RBW
/// validator, returning the certified I/O count.
pub fn certified_upper_bound(
    g: &Cdag,
    s: usize,
    schedule: &[VertexId],
    policy: EvictionPolicy,
) -> Result<u64, SimError> {
    let game = execute_rbw(g, s, schedule, policy)?;
    Ok(certify(g, s, &game.trace))
}

/// The I/O count [`rbw::validate`] certifies for a game the simulator
/// recorded with `s` red pebbles.
///
/// # Panics
///
/// Panics if the validator rejects the game: the simulator plays by the
/// RBW rules by construction, so a rejection is a player bug.
pub(crate) fn certify(g: &Cdag, s: usize, game: &GameTrace) -> u64 {
    rbw::validate(g, s, game)
        // dmc-lint: allow(s1) -- the simulator emits rule-respecting moves by construction; an invalid game is a player bug worth crashing loudly on, pinned by the recorded-game tests
        .unwrap_or_else(|e| panic!("simulator recorded an invalid game: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_cdag::topo::topological_order;
    use dmc_cdag::CdagBuilder;

    const POLICIES: [EvictionPolicy; 2] = [EvictionPolicy::Lru, EvictionPolicy::Opt];

    fn diamond() -> Cdag {
        let mut b = CdagBuilder::new();
        let a = b.add_input("a");
        let x = b.add_op("b", &[a]);
        let y = b.add_op("c", &[a]);
        let d = b.add_op("d", &[x, y]);
        b.tag_output(d);
        b.build().unwrap()
    }

    #[test]
    fn diamond_with_ample_memory_costs_two() {
        let g = diamond();
        let order = topological_order(&g);
        for policy in POLICIES {
            let io = certified_upper_bound(&g, 4, &order, policy).unwrap();
            assert_eq!(io, 2, "{policy:?}: load a + store d");
        }
    }

    #[test]
    fn tight_memory_forces_spills() {
        let g = diamond();
        let order = topological_order(&g);
        // S = 3: firing d needs b, c, d. a must be evicted (free: it's an
        // input). Optimal: still 2 I/O.
        let io = certified_upper_bound(&g, 3, &order, EvictionPolicy::Opt).unwrap();
        assert_eq!(io, 2);
    }

    #[test]
    fn executor_output_always_validates() {
        let g = dmc_kernels::matmul::matmul(3);
        let order = topological_order(&g);
        for s in [4usize, 6, 10, 32] {
            for policy in POLICIES {
                let game = execute_rbw(&g, s, &order, policy).unwrap();
                assert_eq!(rbw::validate(&g, s, &game.trace), Ok(game.io));
                assert!(game.io >= (g.num_inputs() + g.num_outputs()) as u64);
            }
        }
    }

    #[test]
    fn belady_never_worse_than_lru_on_matmul() {
        let g = dmc_kernels::matmul::matmul(4);
        let order = topological_order(&g);
        for s in [6usize, 8, 16] {
            let lru = certified_upper_bound(&g, s, &order, EvictionPolicy::Lru).unwrap();
            let opt = certified_upper_bound(&g, s, &order, EvictionPolicy::Opt).unwrap();
            assert!(opt <= lru, "S={s}: opt {opt} > lru {lru}");
        }
    }

    #[test]
    fn more_memory_never_hurts_belady() {
        let g = dmc_kernels::fft::fft(16);
        let order = topological_order(&g);
        let mut prev = u64::MAX;
        for s in [6usize, 8, 12, 24, 48] {
            let io = certified_upper_bound(&g, s, &order, EvictionPolicy::Opt).unwrap();
            assert!(io <= prev, "S={s}: {io} > {prev}");
            prev = io;
        }
    }

    #[test]
    fn budget_too_small_detected() {
        let g = diamond();
        let order = topological_order(&g);
        let err = execute_rbw(&g, 2, &order, EvictionPolicy::Lru).unwrap_err();
        assert!(matches!(err, SimError::BudgetTooSmall { .. }));
    }

    #[test]
    fn invalid_schedule_detected() {
        let g = diamond();
        let mut order = topological_order(&g);
        order.reverse();
        let err = execute_rbw(&g, 4, &order, EvictionPolicy::Lru).unwrap_err();
        assert_eq!(err, SimError::InvalidSchedule);
    }

    #[test]
    fn io_lower_bounded_by_inputs_plus_outputs() {
        // With all 2n inputs resident (S >= 2n + 1), the outer product
        // costs exactly 2n loads + n² stores.
        let g = dmc_kernels::outer::outer_product(5);
        let order = topological_order(&g);
        let io = certified_upper_bound(&g, 16, &order, EvictionPolicy::Opt).unwrap();
        assert_eq!(io, dmc_kernels::outer::outer_product_exact_io(5));
        // Under pressure (S = 8 < 2n + 1) inputs get reloaded: io grows.
        let tight = certified_upper_bound(&g, 8, &order, EvictionPolicy::Opt).unwrap();
        assert!(tight >= io);
    }
}
