//! Reference outputs, recorded from the `repro` commands of each job.
//!
//! A job whose output differs from its reference counts as a failed
//! operation. `hier-scale` builds a different graph for every seed; seeds
//! without a recorded row are checked by invariants and by pass-to-pass
//! byte equality only (see `analysis::Checker`).

/// A recorded `repro analyze` result.
pub struct AnalyzeRef {
    pub spec: &'static str,
    pub vertices: f64,
    pub bound: f64,
    pub method: &'static str,
}

const TRIVIAL: &str = "trivial";
const TAGGING: &str = "tagging (Theorem 3)";

/// `flat-analyze` at S = 4: the trivial bound wins the first three, the
/// wavefront engine (through the Theorem-3 transfer) the last four.
pub const FLAT: [AnalyzeRef; 7] = [
    AnalyzeRef {
        spec: "jacobi(n=32,d=2,t=8)",
        vertices: 9216.0,
        bound: 2048.0,
        method: TRIVIAL,
    },
    AnalyzeRef {
        spec: "fft(n=1024)",
        vertices: 11264.0,
        bound: 2048.0,
        method: TRIVIAL,
    },
    AnalyzeRef {
        spec: "matmul(n=16)",
        vertices: 8448.0,
        bound: 768.0,
        method: TRIVIAL,
    },
    AnalyzeRef {
        spec: "pyramid(r=2,h=96)",
        vertices: 9409.0,
        bound: 248.0,
        method: TAGGING,
    },
    AnalyzeRef {
        spec: "ladder(w=128,h=128)",
        vertices: 16384.0,
        bound: 248.0,
        method: TAGGING,
    },
    AnalyzeRef {
        spec: "cg(n=32,d=2,t=4)",
        vertices: 37887.0,
        bound: 8188.0,
        method: TAGGING,
    },
    AnalyzeRef {
        spec: "gmres(n=64,d=2,m=4)",
        vertices: 192498.0,
        bound: 40954.0,
        method: TAGGING,
    },
];

/// The `hier-scale` graph for a workload seed.
pub fn hier_spec(seed: u64) -> String {
    format!("random(layers=64,width=65536,deg=3,seed={seed})")
}

pub const HIER_VERTICES: f64 = 4_194_304.0;

/// A recorded `repro analyze --hierarchical` result for one seed.
pub struct HierRef {
    pub seed: u64,
    pub bound: f64,
    pub method: &'static str,
    pub clusters: f64,
}

const DECOMPOSITION: &str = "decomposition (Theorem 2)";

/// Seeds 0 to 12. Seed 1 is the development seed, seed 2 is held out for
/// later claims (README, "Seeds").
pub const HIER: [HierRef; 13] = [
    HierRef {
        seed: 0,
        bound: 333637.0,
        method: DECOMPOSITION,
        clusters: 64.0,
    },
    HierRef {
        seed: 1,
        bound: 333106.0,
        method: DECOMPOSITION,
        clusters: 64.0,
    },
    HierRef {
        seed: 2,
        bound: 333197.0,
        method: DECOMPOSITION,
        clusters: 64.0,
    },
    HierRef {
        seed: 3,
        bound: 333162.0,
        method: DECOMPOSITION,
        clusters: 64.0,
    },
    HierRef {
        seed: 4,
        bound: 333039.0,
        method: DECOMPOSITION,
        clusters: 64.0,
    },
    HierRef {
        seed: 5,
        bound: 332728.0,
        method: DECOMPOSITION,
        clusters: 64.0,
    },
    HierRef {
        seed: 6,
        bound: 333981.0,
        method: DECOMPOSITION,
        clusters: 64.0,
    },
    HierRef {
        seed: 7,
        bound: 333167.0,
        method: DECOMPOSITION,
        clusters: 64.0,
    },
    HierRef {
        seed: 8,
        bound: 333196.0,
        method: DECOMPOSITION,
        clusters: 64.0,
    },
    HierRef {
        seed: 9,
        bound: 332891.0,
        method: DECOMPOSITION,
        clusters: 64.0,
    },
    HierRef {
        seed: 10,
        bound: 333306.0,
        method: DECOMPOSITION,
        clusters: 64.0,
    },
    HierRef {
        seed: 11,
        bound: 334295.0,
        method: DECOMPOSITION,
        clusters: 64.0,
    },
    HierRef {
        seed: 12,
        bound: 333530.0,
        method: DECOMPOSITION,
        clusters: 64.0,
    },
];

/// `validate-sweep`'s S-sweep, `--sram-sweep 128:512:128`.
pub const SWEEP: (u64, u64, u64) = (128, 512, 128);

/// A recorded sweep: `S:LB:OPT:LRU:UB` per point.
pub struct SweepRef {
    pub spec: &'static str,
    pub points: &'static str,
}

pub const SWEEPS: [SweepRef; 2] = [
    SweepRef {
        spec: "cg(n=32,d=2,t=2)",
        points: "128:7940:46457:50311:50311;256:7684:42289:48157:48157;\
                 384:7428:39025:46109:46109;512:7172:36029:44061:44061",
    },
    SweepRef {
        spec: "gmres(n=20,d=2,m=4)",
        points: "128:3746:36042:43716:43716;256:3490:27949:38864:38864;\
                 384:3234:22061:37156:37156;512:2978:18476:32924:32924",
    },
];

/// `validate-sweep`'s machine runs: `--machine 'IBM BG/Q' --sram 64`.
pub const MACHINE: &str = "IBM BG/Q";
pub const MACHINE_S1: u64 = 64;

/// A recorded machine run: remote words of the split, then
/// `effective_words:LB:OPT:LRU:UB` per level.
pub struct MachineRef {
    pub spec: &'static str,
    pub remote_words: f64,
    pub levels: &'static str,
}

pub const MACHINES: [MachineRef; 2] = [
    MachineRef {
        spec: "cg(n=32,d=2,t=4)",
        remote_words: 25304.0,
        levels: "1024:6148:50299:75381:75381;4000000:4096:4096:4096:4096",
    },
    MachineRef {
        spec: "gmres(n=32,d=2,m=4)",
        remote_words: 34970.0,
        levels: "1024:8194:54439:94482:94482;4000000:2048:2048:2048:2048",
    },
];

/// The traced run's simulator-cost reading (README, "Baseline
/// readings"): OPT simulation of this kernel's schedule at each capacity.
pub const READING_SPEC: &str = "cg(n=64,d=2,t=2)";
pub const READING_CAPACITIES: [u64; 2] = [64, 512];
