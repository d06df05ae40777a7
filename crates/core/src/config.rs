//! Analysis configuration: the paper's switches.

use crate::branch::BranchPolicy;
use crate::memmodel::MemoryModel;
use paragraph_isa::LatencyModel;
use paragraph_trace::{Loc, Segment, SegmentMap};
use std::fmt;

/// Which storage classes are renamed (storage dependencies removed).
///
/// Renaming assigns a fresh storage location to every value created, giving
/// the execution the single-assignment property and removing all WAR/WAW
/// ordering for that storage class. The paper studies four combinations
/// (Table 4): no renaming, registers only, registers + stack, and registers +
/// all memory.
///
/// # Examples
///
/// ```
/// use paragraph_core::RenameSet;
///
/// let regs_only = RenameSet::registers_only();
/// assert!(regs_only.registers());
/// assert!(!regs_only.stack());
/// assert!(!regs_only.data());
/// assert_eq!(RenameSet::all().to_string(), "reg/mem renamed");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RenameSet {
    registers: bool,
    stack: bool,
    data: bool,
}

impl RenameSet {
    /// Rename nothing: all storage dependencies remain in the DDG.
    pub fn none() -> RenameSet {
        RenameSet {
            registers: false,
            stack: false,
            data: false,
        }
    }

    /// Rename registers only ("Regs Renamed" in Table 4).
    pub fn registers_only() -> RenameSet {
        RenameSet {
            registers: true,
            ..RenameSet::none()
        }
    }

    /// Rename registers and the stack segment ("Regs/Stack Renamed").
    pub fn registers_and_stack() -> RenameSet {
        RenameSet {
            registers: true,
            stack: true,
            data: false,
        }
    }

    /// Rename everything ("Reg/Mem Renamed"): the pure-dataflow condition.
    pub fn all() -> RenameSet {
        RenameSet {
            registers: true,
            stack: true,
            data: true,
        }
    }

    /// The four conditions of Table 4, in the paper's column order.
    pub fn table4_conditions() -> [RenameSet; 4] {
        [
            RenameSet::none(),
            RenameSet::registers_only(),
            RenameSet::registers_and_stack(),
            RenameSet::all(),
        ]
    }

    /// Whether register storage dependencies are removed.
    pub fn registers(self) -> bool {
        self.registers
    }

    /// Whether stack-segment storage dependencies are removed.
    pub fn stack(self) -> bool {
        self.stack
    }

    /// Whether non-stack-memory (data + heap) storage dependencies are
    /// removed.
    pub fn data(self) -> bool {
        self.data
    }

    /// Overrides the register switch.
    pub fn with_registers(mut self, on: bool) -> RenameSet {
        self.registers = on;
        self
    }

    /// Overrides the stack switch.
    pub fn with_stack(mut self, on: bool) -> RenameSet {
        self.stack = on;
        self
    }

    /// Overrides the non-stack-memory switch.
    pub fn with_data(mut self, on: bool) -> RenameSet {
        self.data = on;
        self
    }

    /// Whether a write to `dest` is renamed (carries no storage dependency)
    /// under this rename set, given the memory segment map.
    #[inline]
    pub fn renames(self, dest: Loc, segments: &SegmentMap) -> bool {
        match dest {
            Loc::IntReg(_) | Loc::FpReg(_) => self.registers,
            Loc::Mem(addr) => match segments.classify(addr) {
                Segment::Stack => self.stack,
                Segment::Data | Segment::Heap => self.data,
            },
        }
    }

    /// The paper's Table 4 column label for this condition.
    pub fn paper_label(self) -> &'static str {
        match (self.registers, self.stack, self.data) {
            (false, false, false) => "no renaming",
            (true, false, false) => "regs renamed",
            (true, true, false) => "regs/stack renamed",
            (true, true, true) => "reg/mem renamed",
            _ => "custom renaming",
        }
    }
}

impl Default for RenameSet {
    /// Everything renamed (the dataflow-limit condition).
    fn default() -> RenameSet {
        RenameSet::all()
    }
}

impl fmt::Display for RenameSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_label())
    }
}

/// How system calls are modelled (the paper's *System Calls Stall* switch).
///
/// Paragraph does not know the side effects of a system call, so it either
/// assumes the call modified every live value (a *firewall* in the DDG), or
/// that it modified nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyscallPolicy {
    /// Conservative: each system call places a firewall immediately after the
    /// deepest computation yet placed; no later instruction may be placed
    /// above it.
    #[default]
    Conservative,
    /// Optimistic: system calls are assumed to modify nothing and are
    /// ignored (not placed in the DDG).
    Optimistic,
}

impl fmt::Display for SyscallPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SyscallPolicy::Conservative => "conservative",
            SyscallPolicy::Optimistic => "optimistic",
        })
    }
}

/// The instruction window: how many contiguous trace instructions are
/// visible at once when placing values into the DDG (Figure 6).
///
/// # Examples
///
/// ```
/// use paragraph_core::WindowSize;
///
/// assert!(WindowSize::Infinite.is_infinite());
/// assert_eq!(WindowSize::bounded(128).limit(), Some(128));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WindowSize {
    /// The whole trace is visible (no control dependencies from the window).
    #[default]
    Infinite,
    /// Only this many contiguous instructions are visible at a time.
    Bounded(usize),
}

impl WindowSize {
    /// A bounded window of `size` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero; a window must hold at least the instruction
    /// being placed.
    pub fn bounded(size: usize) -> WindowSize {
        assert!(size > 0, "window size must be positive");
        WindowSize::Bounded(size)
    }

    /// Whether the window spans the whole trace.
    pub fn is_infinite(self) -> bool {
        matches!(self, WindowSize::Infinite)
    }

    /// The window bound, or `None` if infinite.
    pub fn limit(self) -> Option<usize> {
        match self {
            WindowSize::Infinite => None,
            WindowSize::Bounded(n) => Some(n),
        }
    }
}

impl fmt::Display for WindowSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowSize::Infinite => f.write_str("infinite"),
            WindowSize::Bounded(n) => write!(f, "{n}"),
        }
    }
}

/// Full configuration of one DDG analysis run.
///
/// Combines the paper's switches (§3.2): syscall policy, renaming, window
/// size — plus the latency model (Table 1), the memory segment map used to
/// classify stack vs. non-stack addresses, and the parallelism-profile
/// resolution.
///
/// # Examples
///
/// ```
/// use paragraph_core::{AnalysisConfig, RenameSet, SyscallPolicy, WindowSize};
///
/// let config = AnalysisConfig::dataflow_limit()
///     .with_renames(RenameSet::registers_only())
///     .with_window(WindowSize::bounded(1000))
///     .with_syscall_policy(SyscallPolicy::Optimistic);
/// assert_eq!(config.window().limit(), Some(1000));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisConfig {
    renames: RenameSet,
    syscalls: SyscallPolicy,
    window: WindowSize,
    latency: LatencyModel,
    segments: SegmentMap,
    profile_bins: usize,
    branches: BranchPolicy,
    issue_limit: Option<usize>,
    value_stats: bool,
    memory: MemoryModel,
    live_well_cap: Option<usize>,
}

/// Default number of parallelism-profile bins before coarsening.
pub const DEFAULT_PROFILE_BINS: usize = 4096;

impl AnalysisConfig {
    /// The paper's dataflow-limit condition (Table 3 "Conservative"): all
    /// renaming enabled, infinite window, conservative system calls, Table 1
    /// latencies.
    pub fn dataflow_limit() -> AnalysisConfig {
        AnalysisConfig {
            renames: RenameSet::all(),
            syscalls: SyscallPolicy::Conservative,
            window: WindowSize::Infinite,
            latency: LatencyModel::paper(),
            segments: SegmentMap::all_data(),
            profile_bins: DEFAULT_PROFILE_BINS,
            branches: BranchPolicy::Perfect,
            issue_limit: None,
            value_stats: false,
            memory: MemoryModel::Perfect,
            live_well_cap: None,
        }
    }

    /// The rename switches.
    pub fn renames(&self) -> RenameSet {
        self.renames
    }

    /// The system-call policy.
    pub fn syscall_policy(&self) -> SyscallPolicy {
        self.syscalls
    }

    /// The instruction window.
    pub fn window(&self) -> WindowSize {
        self.window
    }

    /// The latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// The memory segment map.
    pub fn segments(&self) -> &SegmentMap {
        &self.segments
    }

    /// Maximum number of parallelism-profile bins before the profile
    /// coarsens its bin width.
    pub fn profile_bins(&self) -> usize {
        self.profile_bins
    }

    /// How conditional branches constrain placement.
    pub fn branch_policy(&self) -> BranchPolicy {
        self.branches
    }

    /// Maximum operations that may *start* in any single DDG level, or
    /// `None` for unlimited functional units. This is the paper's "machines
    /// that have a limited number of ALUs" throttle (Figure 4, streaming).
    pub fn issue_limit(&self) -> Option<usize> {
        self.issue_limit
    }

    /// Whether the analyzer collects value-lifetime and degree-of-sharing
    /// distributions (§2.3) during the pass.
    pub fn value_stats(&self) -> bool {
        self.value_stats
    }

    /// The memory disambiguation model.
    pub fn memory_model(&self) -> MemoryModel {
        self.memory
    }

    /// Maximum number of memory entries the live well may hold, or `None`
    /// for unbounded. This is the paper's working-set concern ("a very
    /// large memory (32 MBytes) was required to hold the working set of
    /// Paragraph") turned into a knob: under a cap the analyzer evicts the
    /// coldest values, trading exactness for bounded memory — evictions are
    /// counted as an accuracy caveat in the report.
    pub fn live_well_cap(&self) -> Option<usize> {
        self.live_well_cap
    }

    /// Overrides the rename switches.
    pub fn with_renames(mut self, renames: RenameSet) -> AnalysisConfig {
        self.renames = renames;
        self
    }

    /// Overrides the system-call policy.
    pub fn with_syscall_policy(mut self, policy: SyscallPolicy) -> AnalysisConfig {
        self.syscalls = policy;
        self
    }

    /// Overrides the instruction window.
    pub fn with_window(mut self, window: WindowSize) -> AnalysisConfig {
        self.window = window;
        self
    }

    /// Overrides the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> AnalysisConfig {
        self.latency = latency;
        self
    }

    /// Overrides the memory segment map (normally taken from the VM).
    pub fn with_segments(mut self, segments: SegmentMap) -> AnalysisConfig {
        self.segments = segments;
        self
    }

    /// Overrides the profile resolution.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn with_profile_bins(mut self, bins: usize) -> AnalysisConfig {
        assert!(bins > 0, "profile must have at least one bin");
        self.profile_bins = bins;
        self
    }

    /// Overrides the branch policy.
    pub fn with_branch_policy(mut self, policy: BranchPolicy) -> AnalysisConfig {
        self.branches = policy;
        self
    }

    /// Limits how many operations may start in any single DDG level.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn with_issue_limit(mut self, limit: usize) -> AnalysisConfig {
        assert!(limit > 0, "issue limit must be positive");
        self.issue_limit = Some(limit);
        self
    }

    /// Enables collection of value-lifetime and sharing distributions.
    pub fn with_value_stats(mut self, on: bool) -> AnalysisConfig {
        self.value_stats = on;
        self
    }

    /// Overrides the memory disambiguation model.
    pub fn with_memory_model(mut self, model: MemoryModel) -> AnalysisConfig {
        self.memory = model;
        self
    }

    /// Caps the live well's memory table at `cap` entries; the coldest
    /// entries are evicted when the cap is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_live_well_cap(mut self, cap: usize) -> AnalysisConfig {
        assert!(cap > 0, "live-well cap must be positive");
        self.live_well_cap = Some(cap);
        self
    }

    /// Sets one of the [`SWITCHES`] from its textual value: the one grammar
    /// behind both the CLI's `--NAME VALUE` and the daemon's `NAME=VALUE`.
    /// An on/off switch takes `""`, `true` or `1`; counts take `_`
    /// separators and must be positive.
    ///
    /// ```
    /// use paragraph_core::{AnalysisConfig, WindowSize};
    ///
    /// let config = AnalysisConfig::dataflow_limit().with_switch("window", "1_000");
    /// assert_eq!(config.map(|c| c.window()), Ok(WindowSize::bounded(1000)));
    /// ```
    pub fn with_switch(self, name: &str, value: &str) -> Result<AnalysisConfig, String> {
        let on = |config| match value {
            "" | "true" | "1" => Ok(config),
            _ => Err(format!("takes no value, `true` or `1`, not `{value}`")),
        };
        let count = || match parse_num::<usize>(value)? {
            0 => Err(format!("`{value}` is not a positive number")),
            n => Ok(n),
        };
        Ok(match name {
            "rename" => self.with_renames(match value {
                "none" => RenameSet::none(),
                "regs" => RenameSet::registers_only(),
                "regs-stack" => RenameSet::registers_and_stack(),
                "all" => RenameSet::all(),
                _ => return Err(format!("unknown rename mode `{value}`")),
            }),
            "optimistic" => on(self.with_syscall_policy(SyscallPolicy::Optimistic))?,
            "window" => self.with_window(WindowSize::bounded(count()?)),
            "branch" => self.with_branch_policy(value.parse()?),
            "units" => self.with_issue_limit(count()?),
            "no-disambiguation" => on(self.with_memory_model(MemoryModel::NoDisambiguation))?,
            "value-stats" => on(self.with_value_stats(true))?,
            "unit-latency" => on(self.with_latency(LatencyModel::unit()))?,
            "live-well-cap" => self.with_live_well_cap(count()?),
            _ => return Err(format!("unknown analysis switch `{name}`")),
        })
    }
}

/// Every analysis switch by name, as both front ends spell it: the CLI
/// flag `--NAME` and the daemon's query parameter `NAME`. Their grammar is
/// [`AnalysisConfig::with_switch`].
#[rustfmt::skip]
pub const SWITCHES: [&str; 9] = [
    "rename", "optimistic", "window", "branch", "units", "no-disambiguation", "value-stats",
    "unit-latency", "live-well-cap",
];

/// Parses a decimal number that may carry `_` separators (`1_000_000`),
/// the number grammar of every CLI flag and daemon query parameter.
pub fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.replace('_', "")
        .parse()
        .map_err(|_| format!("invalid number `{s}`"))
}

impl Default for AnalysisConfig {
    /// Same as [`AnalysisConfig::dataflow_limit`].
    fn default() -> AnalysisConfig {
        AnalysisConfig::dataflow_limit()
    }
}

impl fmt::Display for AnalysisConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}, {} syscalls, window {}",
            self.renames, self.syscalls, self.window
        )?;
        if self.branches != BranchPolicy::Perfect {
            write!(f, ", {} branches", self.branches)?;
        }
        if let Some(limit) = self.issue_limit {
            write!(f, ", {limit}-wide issue")?;
        }
        if self.memory.is_conservative() {
            write!(f, ", {}", self.memory)?;
        }
        if let Some(cap) = self.live_well_cap {
            write!(f, ", live well capped at {cap}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_conditions_are_ordered_weakest_to_strongest() {
        let conds = RenameSet::table4_conditions();
        assert_eq!(conds[0], RenameSet::none());
        assert_eq!(conds[3], RenameSet::all());
        assert_eq!(conds[1].paper_label(), "regs renamed");
        assert_eq!(conds[2].paper_label(), "regs/stack renamed");
    }

    #[test]
    fn rename_classification_uses_segment_map() {
        let segments = SegmentMap::new(100, 200);
        let rs = RenameSet::registers_and_stack();
        assert!(rs.renames(Loc::int(5), &segments));
        assert!(rs.renames(Loc::fp(5), &segments));
        assert!(rs.renames(Loc::mem(250), &segments)); // stack
        assert!(!rs.renames(Loc::mem(150), &segments)); // heap -> data switch
        assert!(!rs.renames(Loc::mem(50), &segments)); // data
    }

    #[test]
    fn heap_counts_as_non_stack_data() {
        let segments = SegmentMap::new(100, 200);
        let data_only = RenameSet::none().with_data(true);
        assert!(data_only.renames(Loc::mem(150), &segments));
        assert!(!data_only.renames(Loc::mem(250), &segments));
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_panics() {
        WindowSize::bounded(0);
    }

    #[test]
    fn config_builder_chains() {
        let c = AnalysisConfig::dataflow_limit()
            .with_window(WindowSize::bounded(64))
            .with_syscall_policy(SyscallPolicy::Optimistic)
            .with_profile_bins(16);
        assert_eq!(c.window(), WindowSize::Bounded(64));
        assert_eq!(c.syscall_policy(), SyscallPolicy::Optimistic);
        assert_eq!(c.profile_bins(), 16);
    }

    #[test]
    fn display_mentions_every_switch() {
        let text = AnalysisConfig::dataflow_limit().to_string();
        assert!(text.contains("renamed"));
        assert!(text.contains("conservative"));
        assert!(text.contains("infinite"));
    }

    #[test]
    fn every_switch_has_a_grammar_that_changes_the_config() {
        let base = AnalysisConfig::dataflow_limit();
        for name in SWITCHES {
            let value = match name {
                "rename" => "regs-stack",
                "branch" => "gshare:10",
                "window" | "units" | "live-well-cap" => "1_000",
                _ => "",
            };
            let config = base.clone().with_switch(name, value);
            assert_ne!(config, Ok(base.clone()), "{name}");
            assert!(config.is_ok(), "{name}: {config:?}");
        }
        for (name, value) in [
            ("windw", "4"),
            ("window", "0"),
            ("units", "x"),
            ("live-well-cap", "0"),
            ("optimistic", "yes"),
            ("rename", "everything"),
        ] {
            assert!(
                base.clone().with_switch(name, value).is_err(),
                "{name}={value}"
            );
        }
    }

    #[test]
    fn custom_rename_combo_has_label() {
        let odd = RenameSet::none().with_stack(true);
        assert_eq!(odd.paper_label(), "custom renaming");
    }
}
