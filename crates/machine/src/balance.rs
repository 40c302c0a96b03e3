//! Machine balance parameters (Section 5 of the paper).
//!
//! A machine's *balance* at a memory level is the ratio of peak data
//! movement bandwidth to peak computational throughput, expressed in
//! words/FLOP. An algorithm whose per-FLOP data movement *lower bound*
//! exceeds the balance is unavoidably bandwidth-bound at that level
//! (Equation 7); one whose *upper bound* falls below it is definitely not
//! (Equation 8).

use crate::hierarchy::MemoryHierarchy;
use serde::{Deserialize, Serialize};

/// Physical description of a multi-node, multi-core machine, sufficient to
/// derive the balance parameters the paper's Table 1 reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Machine name as reported in Table 1.
    pub name: String,
    /// Number of nodes `N_nodes`.
    pub nodes: usize,
    /// Cores per node `N_cores`.
    pub cores_per_node: usize,
    /// Peak floating-point rate per core, in GFLOP/s.
    pub gflops_per_core: f64,
    /// Main memory per node, in GB (Table 1, "Mem" column).
    pub memory_gb: f64,
    /// Last-level (shared L2/L3) cache per node, in MB (Table 1 column).
    pub llc_mb: f64,
    /// Aggregate DRAM ↔ LLC bandwidth per node, in GB/s (`B_vert`).
    pub dram_bandwidth_gbs: f64,
    /// Interconnect injection bandwidth per node, in GB/s (`B_horiz`).
    pub network_bandwidth_gbs: f64,
    /// Word size in bytes (8 for the double-precision analyses).
    pub word_bytes: f64,
}

impl MachineSpec {
    /// Peak floating-point rate per node, in GFLOP/s.
    pub fn gflops_per_node(&self) -> f64 {
        self.gflops_per_core * self.cores_per_node as f64
    }

    /// *Vertical* machine balance: DRAM↔LLC bandwidth (words/s) divided by
    /// node peak FLOP rate — the `B^i_l / (|P^i_l| · F)` of Equation 7 for
    /// the DRAM→L2 level. Matches Table 1's "Vertical balance" column.
    pub fn vertical_balance(&self) -> f64 {
        (self.dram_bandwidth_gbs / self.word_bytes) / self.gflops_per_node()
    }

    /// *Horizontal* machine balance: interconnect bandwidth (words/s)
    /// divided by node peak FLOP rate. Matches Table 1's "Horiz. balance".
    pub fn horizontal_balance(&self) -> f64 {
        (self.network_bandwidth_gbs / self.word_bytes) / self.gflops_per_node()
    }

    /// Last-level cache capacity in words (`S_2`; e.g. 4 MWords for the
    /// BG/Q's 32 MB L2, as used in Section 5.4.3).
    pub fn llc_words(&self) -> u64 {
        (self.llc_mb * 1e6 / self.word_bytes) as u64
    }

    /// Main-memory capacity per node in words.
    pub fn memory_words(&self) -> u64 {
        (self.memory_gb * 1e9 / self.word_bytes) as u64
    }

    /// Total core count `P`.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Derives the three-level [`MemoryHierarchy`] (registers → shared LLC →
    /// per-node DRAM) this spec induces, with `s1` words of level-1 storage
    /// per core.
    pub fn to_hierarchy(&self, s1: u64) -> MemoryHierarchy {
        MemoryHierarchy::cluster(
            self.nodes,
            self.cores_per_node,
            s1,
            self.llc_words(),
            self.memory_words(),
        )
    }

    /// The *single-node* hierarchy this spec induces, in words — the
    /// machine the hierarchy simulator runs a kernel against: level 1 is
    /// `cores_per_node` private register files of `s1` words each, level
    /// 2 the shared last-level cache ([`MachineSpec::llc_words`], the
    /// `llc_mb` column through `word_bytes`), level 3 the node's DRAM
    /// ([`MachineSpec::memory_words`]), which the simulator treats as
    /// the backing store.
    ///
    /// ```
    /// let m = dmc_machine::specs::ibm_bgq();
    /// let h = m.node_hierarchy(64);
    /// assert_eq!(h.num_levels(), 3);
    /// assert_eq!(h.processors(), 16);
    /// assert_eq!(h.capacity(2), 4_000_000); // 32 MB L2 at 8 B/word
    /// ```
    pub fn node_hierarchy(&self, s1: u64) -> MemoryHierarchy {
        MemoryHierarchy::new(vec![
            crate::hierarchy::Level::new("registers", self.cores_per_node.max(1), s1),
            crate::hierarchy::Level::new("LLC", 1, self.llc_words().max(1)),
            crate::hierarchy::Level::new("DRAM", 1, self.memory_words().max(1)),
        ])
        // dmc-lint: allow(s1) -- units are (cores, 1, 1) with capacities clamped positive; the hierarchy invariants hold by construction
        .expect("node hierarchy is always valid")
    }

    /// The degenerate *one-cache-level* hierarchy of this spec: a single
    /// fast memory of `s` words over the node's DRAM. Its one boundary
    /// is simulated at `s` itself, so measuring it level by level is the
    /// single-cache `Simulation::run` — the case the test suite pins.
    pub fn single_level_hierarchy(&self, s: u64) -> MemoryHierarchy {
        MemoryHierarchy::new(vec![
            crate::hierarchy::Level::new("cache", 1, s.max(1)),
            crate::hierarchy::Level::new("DRAM", 1, self.memory_words().max(1)),
        ])
        // dmc-lint: allow(s1) -- two levels of one unit each with clamped-positive capacities; validation cannot fail
        .expect("single-level hierarchy is always valid")
    }

    /// Parses a machine spec file: one `key = value` pair per line, `#`
    /// comments and blank lines ignored. Every field of [`MachineSpec`]
    /// is required (`name`, `nodes`, `cores_per_node`, `gflops_per_core`,
    /// `memory_gb`, `llc_mb`, `dram_bandwidth_gbs`,
    /// `network_bandwidth_gbs`, `word_bytes`); unknown or repeated keys
    /// are loud errors, so a typo cannot silently fall back to a default.
    ///
    /// ```
    /// let text = "name = Toy\nnodes = 4\ncores_per_node = 2\n\
    ///             gflops_per_core = 1.0\nmemory_gb = 1.0\nllc_mb = 1.0\n\
    ///             dram_bandwidth_gbs = 10.0\nnetwork_bandwidth_gbs = 5.0\n\
    ///             word_bytes = 8.0\n";
    /// let m = dmc_machine::MachineSpec::parse_spec_text(text).unwrap();
    /// assert_eq!(m.total_cores(), 8);
    /// ```
    pub fn parse_spec_text(text: &str) -> Result<MachineSpec, String> {
        const KEYS: [&str; 9] = [
            "name",
            "nodes",
            "cores_per_node",
            "gflops_per_core",
            "memory_gb",
            "llc_mb",
            "dram_bandwidth_gbs",
            "network_bandwidth_gbs",
            "word_bytes",
        ];
        let mut seen: Vec<(&str, String)> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "machine spec line {}: expected 'key = value', got {line:?}",
                    lineno + 1
                ));
            };
            let (key, value) = (key.trim(), value.trim());
            let Some(&canon) = KEYS.iter().find(|&&k| k == key) else {
                return Err(format!(
                    "machine spec line {}: unknown key {key:?} (valid keys: {})",
                    lineno + 1,
                    KEYS.join(", ")
                ));
            };
            if seen.iter().any(|(k, _)| *k == canon) {
                return Err(format!(
                    "machine spec line {}: key {key:?} given twice",
                    lineno + 1
                ));
            }
            seen.push((canon, value.to_string()));
        }
        let get = |key: &str| -> Result<String, String> {
            seen.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| format!("machine spec is missing required key {key:?}"))
        };
        let num = |key: &str| -> Result<f64, String> {
            let v = get(key)?;
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or_else(|| {
                    format!("machine spec key {key:?} needs a positive number, got {v:?}")
                })
        };
        let uint = |key: &str| -> Result<usize, String> {
            let v = get(key)?;
            v.parse::<usize>().ok().filter(|&x| x >= 1).ok_or_else(|| {
                format!("machine spec key {key:?} needs a positive integer, got {v:?}")
            })
        };
        Ok(MachineSpec {
            name: get("name")?,
            nodes: uint("nodes")?,
            cores_per_node: uint("cores_per_node")?,
            gflops_per_core: num("gflops_per_core")?,
            memory_gb: num("memory_gb")?,
            llc_mb: num("llc_mb")?,
            dram_bandwidth_gbs: num("dram_bandwidth_gbs")?,
            network_bandwidth_gbs: num("network_bandwidth_gbs")?,
            word_bytes: num("word_bytes")?,
        })
    }

    /// One formatted row of the paper's Table 1:
    /// `name, N_nodes, Mem (GB), LLC (MB), vertical, horizontal`.
    pub fn table1_row(&self) -> String {
        format!(
            "{:<12} {:>6} {:>8.0} {:>8.0} {:>10.4} {:>10.4}",
            self.name,
            self.nodes,
            self.memory_gb,
            self.llc_mb,
            self.vertical_balance(),
            self.horizontal_balance()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::specs;

    #[test]
    fn bgq_balances_match_table1() {
        let m = specs::ibm_bgq();
        // Table 1: vertical 0.052, horizontal 0.049.
        assert!(
            (m.vertical_balance() - 0.052).abs() < 0.001,
            "{}",
            m.vertical_balance()
        );
        assert!(
            (m.horizontal_balance() - 0.049).abs() < 0.001,
            "{}",
            m.horizontal_balance()
        );
        assert_eq!(m.nodes, 2048);
        assert!((m.memory_gb - 16.0).abs() < 1e-9);
        assert!((m.llc_mb - 32.0).abs() < 1e-9);
    }

    #[test]
    fn xt5_balances_match_table1() {
        let m = specs::cray_xt5();
        // Table 1: vertical 0.0256, horizontal 0.058.
        assert!(
            (m.vertical_balance() - 0.0256).abs() < 0.0005,
            "{}",
            m.vertical_balance()
        );
        assert!(
            (m.horizontal_balance() - 0.058).abs() < 0.001,
            "{}",
            m.horizontal_balance()
        );
        assert_eq!(m.nodes, 9408);
        assert!((m.llc_mb - 6.0).abs() < 1e-9);
    }

    #[test]
    fn bgq_llc_is_4_mwords() {
        // Section 5.4.3 substitutes S2 = 4 MWords for the BG/Q 32 MB L2.
        let m = specs::ibm_bgq();
        assert_eq!(m.llc_words(), 4_000_000);
    }

    #[test]
    fn hierarchy_derivation() {
        let m = specs::ibm_bgq();
        let h = m.to_hierarchy(64);
        assert_eq!(h.processors(), m.total_cores());
        assert_eq!(h.units(2), m.nodes);
        assert_eq!(h.capacity(2), m.llc_words());
    }

    #[test]
    fn table_row_formats() {
        let row = specs::ibm_bgq().table1_row();
        assert!(row.contains("IBM BG/Q"));
        assert!(row.contains("2048"));
    }
}
