//! The kernel catalog: one API from a kernel *spec string* to a built
//! CDAG with analytic context.
//!
//! The paper's evaluation sweeps *parameterized* CDAG families —
//! Jacobi(n, d, t), CG, GMRES, FFT, matmul, the Section-3 composite —
//! but free functions with incompatible signatures
//! (`jacobi_cdag(n, d, t, stencil)` vs `fft(n)`) cannot be enumerated,
//! swept, or exposed behind one CLI flag. The catalog fixes that:
//!
//! * [`Kernel`] — the trait every family implements: declared
//!   [`params`](Kernel::params) with ranges and defaults,
//!   [`build`](Kernel::build) from validated [`ParamValues`], and
//!   optional analytic hooks
//!   ([`analytic_lower_bound`](Kernel::analytic_lower_bound),
//!   [`analytic_upper_bound`](Kernel::analytic_upper_bound),
//!   [`flops_estimate`](Kernel::flops_estimate),
//!   [`profile`](Kernel::profile));
//! * [`Registry`] — all kernel families, discoverable by name
//!   ([`Registry::get`]) and iterable ([`Registry::iter`]);
//! * the spec-string parser ([`Registry::parse`]) with the grammar
//!
//!   ```text
//!   spec  := name [ '(' arg (',' arg)* ')' ]
//!   arg   := param '=' value
//!   value := unsigned integer | choice identifier
//!   ```
//!
//!   Omitted parameters take their declared defaults; unknown kernels,
//!   unknown parameters, out-of-range values, and malformed syntax all
//!   fail loudly with a [`SpecError`] naming the valid alternatives.
//!
//! ```
//! use dmc_kernels::catalog::Registry;
//!
//! let registry = Registry::shared();
//! let spec = registry.parse("jacobi(n=4, d=2, t=3)").unwrap();
//! let g = spec.build();
//! assert_eq!(g.num_vertices(), 16 * 4); // n^d grid, t+1 time levels
//! // Rendering is canonical (every param, declared order) and round-trips.
//! assert_eq!(spec.render(), "jacobi(n=4,d=2,t=3,stencil=star)");
//! assert_eq!(registry.parse(&spec.render()).unwrap(), spec);
//! ```

use crate::profile::AlgorithmProfile;
use dmc_cdag::topo::topological_order;
use dmc_cdag::{Cdag, VertexId};
use std::fmt;
use std::sync::OnceLock;

/// Default *admission limit*: the largest approximate vertex count
/// [`Registry::parse`] accepts for a single build (`2²⁴ ≈ 1.7 × 10⁷`).
///
/// The limit is a guardrail, not a capability ceiling — it exists so a
/// typo in a spec string (`jacobi(n=4096,d=4)`) errors loudly instead of
/// exhausting memory, while deliberate large-scale runs (the
/// hierarchical pipeline targets 10⁷–10⁸ vertices) raise it explicitly
/// via [`Registry::parse_within`] or the `repro` CLI's `--max-vertices`
/// flag. Every kernel reports its estimate through the required
/// [`Kernel::approx_vertices`] method, so the check happens centrally at
/// parse time, *before* any allocation.
pub const DEFAULT_MAX_BUILD_VERTICES: u64 = 1 << 24;

/// A validated parameter value: an unsigned integer or one of a declared
/// choice set (stored as the canonical choice string).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamValue {
    /// An unsigned integer within the declared `min..=max` range.
    UInt(u64),
    /// A canonical member of the declared choice list.
    Choice(&'static str),
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::UInt(v) => write!(f, "{v}"),
            ParamValue::Choice(c) => f.write_str(c),
        }
    }
}

/// The domain of one parameter.
#[derive(Debug, Clone, Copy)]
pub enum ParamKind {
    /// An unsigned integer in `min..=max`.
    UInt {
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
    /// One identifier out of a fixed choice list.
    Choice(&'static [&'static str]),
}

/// Declaration of one kernel parameter: name, domain, default, and a
/// one-line description for `repro list`.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Parameter name as written in spec strings.
    pub name: &'static str,
    /// One-line description.
    pub doc: &'static str,
    /// Accepted domain.
    pub kind: ParamKind,
    /// Value used when the spec string omits the parameter.
    pub default: ParamValue,
}

impl ParamSpec {
    /// Declares an unsigned-integer parameter.
    pub const fn uint(
        name: &'static str,
        doc: &'static str,
        min: u64,
        max: u64,
        default: u64,
    ) -> Self {
        ParamSpec {
            name,
            doc,
            kind: ParamKind::UInt { min, max },
            default: ParamValue::UInt(default),
        }
    }

    /// Declares a choice parameter.
    pub const fn choice(
        name: &'static str,
        doc: &'static str,
        choices: &'static [&'static str],
        default: &'static str,
    ) -> Self {
        ParamSpec {
            name,
            doc,
            kind: ParamKind::Choice(choices),
            default: ParamValue::Choice(default),
        }
    }

    /// Human-readable domain, e.g. `1..=512` or `star|box`.
    pub fn range_text(&self) -> String {
        match self.kind {
            ParamKind::UInt { min, max } => format!("{min}..={max}"),
            ParamKind::Choice(choices) => choices.join("|"),
        }
    }

    /// Validates one raw spec-string value against this parameter's
    /// domain, returning the canonical [`ParamValue`].
    fn validate_raw(&self, raw: &str) -> Result<ParamValue, String> {
        match self.kind {
            ParamKind::UInt { min, max } => {
                let v: u64 = raw
                    .parse()
                    .map_err(|_| format!("'{raw}' is not an unsigned integer"))?;
                if (min..=max).contains(&v) {
                    Ok(ParamValue::UInt(v))
                } else {
                    Err(format!("{v} is out of range (expected {min}..={max})"))
                }
            }
            ParamKind::Choice(choices) => choices
                .iter()
                .find(|&&c| c == raw)
                .map(|&c| ParamValue::Choice(c))
                .ok_or_else(|| format!("'{raw}' must be one of {}", choices.join("|"))),
        }
    }
}

/// A full assignment of a kernel's parameters, in declared order.
///
/// Obtained from [`Registry::parse`] / [`Registry::defaults`]; the typed
/// getters panic on a name/kind mismatch because values are validated
/// against the kernel's [`ParamSpec`]s at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamValues(Vec<(&'static str, ParamValue)>);

impl ParamValues {
    /// The declared defaults of `kernel`.
    pub fn defaults(kernel: &dyn Kernel) -> Self {
        ParamValues(
            kernel
                .params()
                .iter()
                .map(|p| (p.name, p.default))
                .collect(),
        )
    }

    /// Looks a parameter up by name.
    pub fn get(&self, name: &str) -> Option<ParamValue> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The integer parameter `name` (panics if absent or a choice).
    pub fn uint(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(ParamValue::UInt(v)) => v,
            // dmc-lint: allow(s1) -- documented accessor contract: factories only request parameters their own signature declares; a miss is a kernel-definition bug
            other => panic!("no uint parameter '{name}' (found {other:?})"),
        }
    }

    /// [`ParamValues::uint`] narrowed to `usize` (the builders' type).
    pub fn usize(&self, name: &str) -> usize {
        // dmc-lint: allow(s1) -- parameter magnitudes are validated against declared ranges at parse time, far below usize::MAX
        usize::try_from(self.uint(name)).expect("parameter exceeds usize")
    }

    /// The choice parameter `name` (panics if absent or an integer).
    pub fn choice(&self, name: &str) -> &'static str {
        match self.get(name) {
            Some(ParamValue::Choice(c)) => c,
            // dmc-lint: allow(s1) -- documented accessor contract: factories only request parameters their own signature declares; a miss is a kernel-definition bug
            other => panic!("no choice parameter '{name}' (found {other:?})"),
        }
    }

    /// Iterates `(name, value)` pairs in declared order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, ParamValue)> + '_ {
        self.0.iter().copied()
    }
}

/// A closed-form bound supplied by a kernel's analytic hooks, with the
/// formula recorded for provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticBound {
    /// Bound value in words moved.
    pub value: f64,
    /// Which paper formula produced it, with parameters.
    pub note: String,
}

impl AnalyticBound {
    /// Creates a bound with its derivation note.
    pub fn new(value: f64, note: impl Into<String>) -> Self {
        AnalyticBound {
            value,
            note: note.into(),
        }
    }
}

/// An executable schedule for a built kernel CDAG, as emitted by the
/// [`Kernel::schedule_source`] hook: a full topological order plus a
/// provenance note recording which traversal produced it.
///
/// The `dmc-sim` schedule executor and the empirical-validation pipeline
/// consume these orders; the note travels into their reports so a
/// measurement is always attributable to a concrete schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSchedule {
    /// A topological order over *all* vertices of the built CDAG
    /// (inputs included).
    pub order: Vec<VertexId>,
    /// Which traversal produced the order, with its parameters — e.g.
    /// `"skewed 1-D parallelogram tiles (w = 14)"`.
    pub note: String,
}

impl KernelSchedule {
    /// Wraps an order with its provenance note.
    pub fn new(order: Vec<VertexId>, note: impl Into<String>) -> Self {
        KernelSchedule {
            order,
            note: note.into(),
        }
    }

    /// The deterministic fallback every kernel gets for free: the Kahn
    /// order from [`dmc_cdag::topo::topological_order`].
    pub fn default_for(g: &Cdag) -> Self {
        KernelSchedule::new(topological_order(g), "default Kahn topological order")
    }
}

/// Machine context for [`Kernel::profile`]: the Section-5 profiles are
/// per-FLOP ratios that depend on the node count and per-node fast
/// memory, not only on the kernel's own parameters.
#[derive(Debug, Clone, Copy)]
pub struct ProfileContext {
    /// Number of nodes `N` of Equations 9–10.
    pub nodes: usize,
    /// Per-node fast-memory capacity `S` in words.
    pub sram: u64,
}

/// One parameterized CDAG family: the unified interface the registry,
/// the `repro` CLI, the experiment tables, and the pipeline all build on.
///
/// Implementations live next to their free-function builders (e.g.
/// [`crate::jacobi::JacobiKernel`] wraps [`crate::jacobi::jacobi_cdag`]);
/// the free functions remain the low-level API and the trait adds the
/// declared-parameter layer on top.
pub trait Kernel: Send + Sync {
    /// Registry name, as written in spec strings.
    fn name(&self) -> &'static str;

    /// One-line description for `repro list`.
    fn description(&self) -> &'static str;

    /// Declared parameters, in canonical render order.
    fn params(&self) -> &'static [ParamSpec];

    /// Builds the family member selected by `p` (all parameters present
    /// and within range — enforced by [`Registry::parse`]).
    fn build(&self, p: &ParamValues) -> Cdag;

    /// Approximate vertex count of the CDAG [`build`](Kernel::build)
    /// would produce, computed with checked arithmetic (`None` = the
    /// count overflows `u64`). [`Registry::parse_within`] compares this
    /// estimate against the admission limit centrally, *before* any
    /// allocation — implementations must therefore never build the
    /// graph to answer.
    fn approx_vertices(&self, p: &ParamValues) -> Option<u64>;

    /// Cross-parameter validation beyond per-parameter ranges
    /// (power-of-two constraints, mode/shape interactions). Called by
    /// [`Registry::parse`] after per-parameter validation and *before*
    /// the [`Kernel::approx_vertices`] admission check.
    fn validate(&self, _p: &ParamValues) -> Result<(), String> {
        Ok(())
    }

    /// Closed-form I/O *lower* bound at fast-memory capacity `s`, when
    /// the paper gives one for this family (`None` otherwise).
    fn analytic_lower_bound(&self, _p: &ParamValues, _s: u64) -> Option<AnalyticBound> {
        None
    }

    /// Achievable I/O *upper* bound at fast-memory capacity `s`, when an
    /// exact RBW-game schedule is known and feasible at that `s`
    /// (`None` otherwise — including when `s` is too small for the
    /// schedule the formula assumes).
    fn analytic_upper_bound(&self, _p: &ParamValues, _s: u64) -> Option<AnalyticBound> {
        None
    }

    /// Emits an executable schedule for `g` (a CDAG built from `p`),
    /// tuned for fast-memory capacity `s` where the family has a known
    /// cache-friendly traversal — the skewed space-time tiling for
    /// Jacobi, blocked output sweeps for matmul and the composite, the
    /// staged sub-transform factorization for the FFT.
    ///
    /// The default falls back to the deterministic Kahn order of
    /// [`dmc_cdag::topo::topological_order`] — always valid, never
    /// tuned. Implementations must return a topological order of `g`
    /// covering every vertex (build the traversal with
    /// [`dmc_cdag::topo::complete_order`] to get the dependence closure
    /// for free); the validation pipeline asserts this.
    fn schedule_source(&self, _p: &ParamValues, g: &Cdag, _s: u64) -> KernelSchedule {
        KernelSchedule::default_for(g)
    }

    /// Approximate FLOP count (the paper's `|V|`-style estimates).
    fn flops_estimate(&self, _p: &ParamValues) -> Option<f64> {
        None
    }

    /// The Section-5 per-FLOP data-movement profile, when the paper
    /// derives one for this family.
    fn profile(&self, _p: &ParamValues, _ctx: &ProfileContext) -> Option<AlgorithmProfile> {
        None
    }
}

/// A kernel plus a full validated parameter assignment — the parsed form
/// of a spec string, ready to [`build`](KernelSpec::build). Produced by
/// [`Registry::parse`] / [`Registry::defaults`].
#[derive(Clone)]
pub struct KernelSpec<'r> {
    kernel: &'r dyn Kernel,
    values: ParamValues,
}

impl<'r> KernelSpec<'r> {
    /// The kernel the spec names.
    pub fn kernel(&self) -> &'r dyn Kernel {
        self.kernel
    }

    /// The full parameter assignment (defaults filled in).
    pub fn values(&self) -> &ParamValues {
        &self.values
    }

    /// Canonical spec string: every parameter, declared order —
    /// `parse(render(spec))` reproduces the spec exactly.
    pub fn render(&self) -> String {
        let mut out = String::from(self.kernel.name());
        if !self.values.0.is_empty() {
            out.push('(');
            for (i, (name, value)) in self.values.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(name);
                out.push('=');
                out.push_str(&value.to_string());
            }
            out.push(')');
        }
        out
    }

    /// Builds the CDAG.
    pub fn build(&self) -> Cdag {
        self.kernel.build(&self.values)
    }

    /// A process-independent FNV-1a hash of the canonical
    /// [`render`](KernelSpec::render) — the serving layer's
    /// content-addressed cache key for spec-driven requests. Any two
    /// spec strings that parse to the same full parameter assignment
    /// hash equal, no matter how they spelled it (omitted defaults,
    /// whitespace, parameter order).
    ///
    /// ```
    /// use dmc_kernels::catalog::Registry;
    ///
    /// let r = Registry::shared();
    /// let a = r.parse("matmul(n=4)").unwrap();
    /// let b = r.parse(" matmul( accumulate=tree , n=4 ) ").unwrap();
    /// assert_eq!(a.content_hash(), b.content_hash());
    /// assert_ne!(a.content_hash(), r.parse("matmul(n=8)").unwrap().content_hash());
    /// ```
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        dmc_cdag::hash::fnv1a_64(self.render().as_bytes())
    }

    /// The kernel's executable schedule for `g` (a CDAG this spec built)
    /// at fast-memory capacity `s` — delegates to
    /// [`Kernel::schedule_source`].
    ///
    /// ```
    /// use dmc_cdag::topo::is_valid_topological_order;
    /// use dmc_kernels::catalog::Registry;
    ///
    /// let spec = Registry::shared().parse("jacobi(n=8,d=1,t=4)").unwrap();
    /// let g = spec.build();
    /// let sched = spec.schedule_source(&g, 16);
    /// assert!(is_valid_topological_order(&g, &sched.order));
    /// assert!(sched.note.contains("tile"), "{}", sched.note);
    /// ```
    pub fn schedule_source(&self, g: &Cdag, s: u64) -> KernelSchedule {
        self.kernel.schedule_source(&self.values, g, s)
    }
}

impl PartialEq for KernelSpec<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.kernel.name() == other.kernel.name() && self.values == other.values
    }
}

impl fmt::Debug for KernelSpec<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KernelSpec({})", self.render())
    }
}

impl fmt::Display for KernelSpec<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Why a spec string was rejected. [`fmt::Display`] renders actionable
/// messages that name the valid alternatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The string does not match the `name(key=value,...)` grammar.
    Syntax {
        /// The offending spec string.
        spec: String,
        /// What was wrong.
        reason: String,
    },
    /// No registered kernel has this name.
    UnknownKernel {
        /// The unmatched name.
        name: String,
        /// Every registered kernel name.
        known: Vec<&'static str>,
    },
    /// The kernel exists but declares no parameter of this name.
    UnknownParam {
        /// Kernel name.
        kernel: &'static str,
        /// The unmatched parameter.
        param: String,
        /// The kernel's declared parameter names.
        known: Vec<&'static str>,
    },
    /// The same parameter was assigned twice.
    DuplicateParam {
        /// Kernel name.
        kernel: &'static str,
        /// The repeated parameter.
        param: &'static str,
    },
    /// A value failed its parameter's domain check.
    BadValue {
        /// Kernel name.
        kernel: &'static str,
        /// Parameter name.
        param: &'static str,
        /// Domain-check failure message.
        reason: String,
    },
    /// The assignment failed the kernel's cross-parameter
    /// [`Kernel::validate`] (size limits, power-of-two constraints).
    Invalid {
        /// Kernel name.
        kernel: &'static str,
        /// Validation failure message.
        reason: String,
    },
    /// The assignment is valid but would build more vertices than the
    /// admission limit allows ([`Registry::parse_within`]). A distinct
    /// variant so admission-control callers (the serve daemon's HTTP 413
    /// path) can tell "too big" apart from "malformed" without string
    /// matching.
    TooLarge {
        /// Kernel name.
        kernel: &'static str,
        /// Admission failure message (names `--max-vertices`).
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax { spec, reason } => {
                write!(
                    f,
                    "malformed kernel spec '{spec}': {reason}; expected name(param=value,...)"
                )
            }
            SpecError::UnknownKernel { name, known } => {
                write!(
                    f,
                    "unknown kernel '{name}'; known kernels: {}",
                    known.join(", ")
                )
            }
            SpecError::UnknownParam {
                kernel,
                param,
                known,
            } => {
                write!(
                    f,
                    "{kernel}: unknown parameter '{param}'; parameters: {}",
                    if known.is_empty() {
                        "(none)".to_string()
                    } else {
                        known.join(", ")
                    }
                )
            }
            SpecError::DuplicateParam { kernel, param } => {
                write!(f, "{kernel}: parameter '{param}' given more than once")
            }
            SpecError::BadValue {
                kernel,
                param,
                reason,
            } => write!(f, "{kernel}: parameter '{param}': {reason}"),
            SpecError::Invalid { kernel, reason } | SpecError::TooLarge { kernel, reason } => {
                write!(f, "{kernel}: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// All registered kernel families.
pub struct Registry {
    kernels: Vec<Box<dyn Kernel>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Builds a registry with every kernel family of this crate.
    pub fn new() -> Self {
        Registry {
            kernels: vec![
                Box::new(crate::jacobi::JacobiKernel),
                Box::new(crate::cg::CgKernel),
                Box::new(crate::gmres::GmresKernel),
                Box::new(crate::heat::HeatKernel),
                Box::new(crate::fft::FftKernel),
                Box::new(crate::matmul::MatmulKernel),
                Box::new(crate::composite::CompositeKernel),
                Box::new(crate::outer::OuterProductKernel),
                Box::new(crate::pyramid::PyramidKernel),
                Box::new(crate::scan::ScanKernel),
                Box::new(crate::vecops::DotProductKernel),
                Box::new(crate::vecops::SaxpyKernel),
                Box::new(crate::chains::ChainKernel),
                Box::new(crate::chains::DiamondKernel),
                Box::new(crate::chains::ReductionKernel),
                Box::new(crate::chains::IndependentChainsKernel),
                Box::new(crate::chains::LadderKernel),
                Box::new(crate::chains::TwoStageKernel),
                Box::new(crate::random::RandomLayeredKernel),
            ],
        }
    }

    /// The process-wide shared registry.
    pub fn shared() -> &'static Registry {
        static SHARED: OnceLock<Registry> = OnceLock::new();
        SHARED.get_or_init(Registry::new)
    }

    /// Looks a kernel up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Kernel> {
        self.kernels.iter().find(|k| k.name() == name).map(|k| &**k)
    }

    /// Iterates the registered kernels in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Kernel> {
        self.kernels.iter().map(|k| &**k)
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// `false` — the registry is never empty (kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Every registered kernel name, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.kernels.iter().map(|k| k.name()).collect()
    }

    /// The named kernel with all parameters at their defaults.
    pub fn defaults(&self, name: &str) -> Result<KernelSpec<'_>, SpecError> {
        let kernel = self.get(name).ok_or_else(|| SpecError::UnknownKernel {
            name: name.to_string(),
            known: self.names(),
        })?;
        Ok(KernelSpec {
            kernel,
            values: ParamValues::defaults(kernel),
        })
    }

    /// Parses and validates a spec string (see the module docs for the
    /// grammar). Omitted parameters take their defaults; every error
    /// path names the valid alternatives.
    ///
    /// ```
    /// use dmc_kernels::catalog::Registry;
    ///
    /// let registry = Registry::shared();
    /// let spec = registry.parse("matmul(n=4)").unwrap();
    /// assert_eq!(spec.render(), "matmul(n=4,accumulate=tree)");
    /// assert_eq!(spec.build().num_inputs(), 2 * 4 * 4);
    /// // Errors are loud and name the alternatives.
    /// let err = registry.parse("matmul(n=zero)").unwrap_err();
    /// assert!(err.to_string().contains("not an unsigned integer"));
    /// ```
    pub fn parse(&self, spec: &str) -> Result<KernelSpec<'_>, SpecError> {
        self.parse_within(spec, DEFAULT_MAX_BUILD_VERTICES)
    }

    /// [`Registry::parse`] with an explicit admission limit: the parsed
    /// spec is rejected when [`Kernel::approx_vertices`] exceeds
    /// `max_vertices` (or overflows `u64`). [`Registry::parse`] is this
    /// with [`DEFAULT_MAX_BUILD_VERTICES`]; large-scale callers (the
    /// hierarchical pipeline, `repro analyze --max-vertices`) raise the
    /// limit deliberately instead of editing a constant.
    pub fn parse_within(&self, spec: &str, max_vertices: u64) -> Result<KernelSpec<'_>, SpecError> {
        let trimmed = spec.trim();
        let syntax = |reason: &str| SpecError::Syntax {
            spec: spec.to_string(),
            reason: reason.to_string(),
        };
        let (name, args) = match trimmed.split_once('(') {
            None => (trimmed, None),
            Some((name, rest)) => {
                let rest = rest.trim_end();
                let body = rest
                    .strip_suffix(')')
                    .ok_or_else(|| syntax("missing closing ')'"))?;
                if body.contains('(') || body.contains(')') {
                    return Err(syntax("nested parentheses"));
                }
                (name.trim_end(), Some(body))
            }
        };
        if name.is_empty() {
            return Err(syntax("empty kernel name"));
        }
        let kernel = self.get(name).ok_or_else(|| SpecError::UnknownKernel {
            name: name.to_string(),
            known: self.names(),
        })?;
        let mut values = ParamValues::defaults(kernel);
        let mut assigned: Vec<&'static str> = Vec::new();
        if let Some(args) = args {
            let args = args.trim();
            if !args.is_empty() {
                for arg in args.split(',') {
                    let arg = arg.trim();
                    let (key, raw) = arg
                        .split_once('=')
                        .ok_or_else(|| syntax(&format!("'{arg}' is not a param=value pair")))?;
                    let (key, raw) = (key.trim(), raw.trim());
                    let pspec =
                        kernel
                            .params()
                            .iter()
                            .find(|p| p.name == key)
                            .ok_or_else(|| SpecError::UnknownParam {
                                kernel: kernel.name(),
                                param: key.to_string(),
                                known: kernel.params().iter().map(|p| p.name).collect(),
                            })?;
                    if assigned.contains(&pspec.name) {
                        return Err(SpecError::DuplicateParam {
                            kernel: kernel.name(),
                            param: pspec.name,
                        });
                    }
                    assigned.push(pspec.name);
                    let value = pspec
                        .validate_raw(raw)
                        .map_err(|reason| SpecError::BadValue {
                            kernel: kernel.name(),
                            param: pspec.name,
                            reason,
                        })?;
                    let slot = values
                        .0
                        .iter_mut()
                        .find(|(n, _)| *n == pspec.name)
                        // dmc-lint: allow(s1) -- registry self-consistency: every declared param carries a default, checked for all kernels by catalog tests
                        .expect("defaults cover every declared param");
                    slot.1 = value;
                }
            }
        }
        kernel
            .validate(&values)
            .map_err(|reason| SpecError::Invalid {
                kernel: kernel.name(),
                reason,
            })?;
        match kernel.approx_vertices(&values) {
            Some(v) if v <= max_vertices => {}
            Some(v) => {
                return Err(SpecError::TooLarge {
                    kernel: kernel.name(),
                    reason: format!(
                        "build would create ~{v} vertices, above the admission limit of \
                         {max_vertices} (default {DEFAULT_MAX_BUILD_VERTICES} = 2^24; raise it \
                         with --max-vertices or Registry::parse_within)"
                    ),
                })
            }
            None => {
                return Err(SpecError::TooLarge {
                    kernel: kernel.name(),
                    reason: format!(
                        "approximate vertex count overflows u64 — far above the admission \
                         limit of {max_vertices}; raise it with --max-vertices or \
                         Registry::parse_within"
                    ),
                })
            }
        }
        Ok(KernelSpec { kernel, values })
    }

    /// The catalog rendered for `repro list`: one block per kernel with
    /// its canonical default spec, description, and per-parameter
    /// domains and defaults.
    pub fn format_catalog(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "kernel catalog ({} kernels) — spec grammar: name(param=value,...); \
             omitted params take their defaults\n",
            self.len()
        );
        for kernel in self.iter() {
            let spec = KernelSpec {
                kernel,
                values: ParamValues::defaults(kernel),
            };
            let _ = writeln!(out, "\n{}\n    {}", spec.render(), kernel.description());
            for p in kernel.params() {
                let _ = writeln!(
                    out,
                    "    {:<10} {:<42} [{}, default {}]",
                    p.name,
                    p.doc,
                    p.range_text(),
                    p.default
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let r = Registry::new();
        assert!(r.len() >= 14, "all paper kernel families registered");
        let mut names = r.names();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate kernel names");
    }

    #[test]
    fn defaults_build_and_round_trip() {
        let r = Registry::shared();
        for kernel in r.iter() {
            let spec = r.defaults(kernel.name()).expect("registered");
            let rendered = spec.render();
            let reparsed = r
                .parse(&rendered)
                .unwrap_or_else(|e| panic!("canonical render of {rendered} fails to parse: {e}"));
            assert_eq!(reparsed, spec, "{rendered}");
            let g = spec.build();
            assert!(g.num_vertices() >= 1, "{rendered}");
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_partial_params() {
        let r = Registry::shared();
        let spec = r.parse("  jacobi ( n = 4 , t = 2 )  ").expect("valid");
        assert_eq!(spec.values().uint("n"), 4);
        assert_eq!(spec.values().uint("t"), 2);
        // d and stencil fall back to their defaults.
        assert_eq!(spec.values().uint("d"), 2);
        assert_eq!(spec.values().choice("stencil"), "star");
    }

    #[test]
    fn bare_name_means_all_defaults() {
        let r = Registry::shared();
        assert_eq!(
            r.parse("diamond").expect("valid").render(),
            r.defaults("diamond").expect("registered").render()
        );
        // Empty parens are the same thing.
        assert_eq!(r.parse("fft()").expect("valid").values().uint("n"), 16);
    }

    #[test]
    fn unknown_kernel_lists_known_names() {
        let err = Registry::shared().parse("jacobbi(n=4)").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown kernel 'jacobbi'"), "{msg}");
        assert!(msg.contains("jacobi"), "{msg}");
        assert!(msg.contains("fft"), "{msg}");
    }

    #[test]
    fn unknown_param_lists_declared_names() {
        let err = Registry::shared().parse("jacobi(q=4)").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown parameter 'q'"), "{msg}");
        assert!(msg.contains("stencil"), "{msg}");
    }

    #[test]
    fn out_of_range_and_bad_type_are_loud() {
        let r = Registry::shared();
        let msg = r.parse("jacobi(d=99)").unwrap_err().to_string();
        assert!(msg.contains("out of range"), "{msg}");
        let msg = r.parse("jacobi(n=soon)").unwrap_err().to_string();
        assert!(msg.contains("not an unsigned integer"), "{msg}");
        let msg = r.parse("jacobi(stencil=hex)").unwrap_err().to_string();
        assert!(msg.contains("star|box"), "{msg}");
    }

    #[test]
    fn duplicate_param_rejected() {
        let err = Registry::shared().parse("jacobi(n=4,n=5)").unwrap_err();
        assert!(matches!(err, SpecError::DuplicateParam { .. }), "{err}");
    }

    #[test]
    fn syntax_errors_are_loud() {
        let r = Registry::shared();
        for bad in ["jacobi(n=4", "jacobi(n)", "(n=4)", "jacobi(n=(4))"] {
            let err = r.parse(bad).unwrap_err();
            assert!(matches!(err, SpecError::Syntax { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn oversized_build_rejected() {
        let err = Registry::shared()
            .parse("jacobi(n=4096,d=4,t=4096)")
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            matches!(err, SpecError::TooLarge { .. }) && msg.contains("vertices"),
            "{msg}"
        );
    }

    #[test]
    fn every_kernel_schedule_is_a_topological_order() {
        use dmc_cdag::topo::is_valid_topological_order;
        let r = Registry::shared();
        for kernel in r.iter() {
            let spec = r.defaults(kernel.name()).expect("registered");
            let g = spec.build();
            for s in [2u64, 8, 64] {
                let sched = spec.schedule_source(&g, s);
                assert_eq!(
                    sched.order.len(),
                    g.num_vertices(),
                    "{} @ S={s}",
                    spec.render()
                );
                assert!(
                    is_valid_topological_order(&g, &sched.order),
                    "{} @ S={s}: '{}' is not a topological order",
                    spec.render(),
                    sched.note
                );
                assert!(!sched.note.is_empty());
            }
        }
    }

    #[test]
    fn schedule_hook_is_deterministic() {
        let r = Registry::shared();
        for name in ["jacobi", "matmul", "fft", "composite", "cg"] {
            let spec = r.defaults(name).expect("registered");
            let g = spec.build();
            assert_eq!(
                spec.schedule_source(&g, 16),
                spec.schedule_source(&g, 16),
                "{name}: schedule must not vary between calls"
            );
        }
    }

    #[test]
    fn catalog_listing_mentions_every_kernel() {
        let r = Registry::shared();
        let listing = r.format_catalog();
        for name in r.names() {
            assert!(listing.contains(name), "{name} missing from listing");
        }
        assert!(listing.contains("default"), "{listing}");
    }
}
