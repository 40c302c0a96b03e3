//! Measured traffic must respect certified bounds: the simulator sits
//! between lower bounds and real machines.

use dmc::cdag::VertexId;
use dmc::kernels::grid::Stencil;
use dmc::kernels::jacobi::{jacobi_cdag, jacobi_io_lower_bound, JacobiCdag};
use dmc::sim::hierarchy_sim::remote_reads;
use dmc::sim::schedule::{by_level, jacobi_block_owner, tiled_jacobi_1d};
use dmc::sim::{CachePolicy, Simulation, Trace};
use dmc_core::parallel::horizontal::ghost_cell_upper_bound;

fn lru(j: &JacobiCdag, order: &[VertexId], s1: u64) -> Trace {
    Simulation::new()
        .run(&j.cdag, order, CachePolicy::Lru, s1)
        .unwrap()
}

#[test]
fn jacobi_reads_never_beat_theorem_10() {
    let (n, t, s1) = (256usize, 32usize, 32u64);
    let j = jacobi_cdag(n, 1, t, Stencil::VonNeumann);
    let lb = jacobi_io_lower_bound(n, 1, t, 1, s1);
    for (name, sched) in [
        ("untiled", by_level(&j.cdag)),
        ("tiled8", tiled_jacobi_1d(&j, 8)),
        ("tiled16", tiled_jacobi_1d(&j, 16)),
    ] {
        // Theorem 10 bounds the RBW I/O: loads plus stores.
        let r = lru(&j, &sched, s1);
        assert!(r.io() as f64 >= lb, "{name}: measured {r:?} < LB {lb}");
    }
}

#[test]
fn tiling_cuts_read_traffic() {
    let (n, t, s1) = (256usize, 32usize, 32u64);
    let j = jacobi_cdag(n, 1, t, Stencil::VonNeumann);
    let untiled = lru(&j, &by_level(&j.cdag), s1);
    let tiled = lru(&j, &tiled_jacobi_1d(&j, 12), s1);
    assert!(
        tiled.loads < untiled.loads / 4,
        "tiled {tiled:?} vs untiled {untiled:?}"
    );
    // Under RBW rules dead values are deleted for free, so stores are
    // spills of live values and tiling cuts them too.
    assert!(
        tiled.stores < untiled.stores / 4,
        "tiled {tiled:?} vs untiled {untiled:?}"
    );
}

#[test]
fn halo_traffic_bounded_by_ghost_formula() {
    let (n, t) = (64usize, 4usize);
    let j = jacobi_cdag(n, 1, t, Stencil::VonNeumann);
    for procs in [2usize, 4, 8] {
        let halo = remote_reads(&j.cdag, &jacobi_block_owner(&j, procs));
        let formula_total = ghost_cell_upper_bound(n, 1, procs, t) * procs as f64;
        assert!(
            halo as f64 <= formula_total + 1e-9,
            "procs={procs}: measured {halo} > ghost formula {formula_total}"
        );
        assert!(halo > 0, "block runs must exchange halos");
    }
}

#[test]
fn more_cache_never_increases_reads() {
    let j = jacobi_cdag(128, 1, 16, Stencil::VonNeumann);
    let sched = tiled_jacobi_1d(&j, 8);
    let mut prev = u64::MAX;
    for s1 in [16u64, 32, 64, 256] {
        let r = lru(&j, &sched, s1);
        assert!(
            r.loads <= prev,
            "S={s1}: reads {} > previous {prev}",
            r.loads
        );
        prev = r.loads;
    }
}
