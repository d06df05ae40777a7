//! The explicit (materialized) dynamic dependency graph.
//!
//! The live well answers the two headline questions (profile, critical path)
//! in a single streaming pass. For bounded traces it is also useful to
//! materialize the graph itself — "the nodes of the graph represent the
//! computation that occurred during the execution of an instruction, and the
//! edges represent the dependencies" — which unlocks the rest of the paper's
//! §2.3 analyses: value lifetimes, degree of sharing, storage occupancy, and
//! throttling the DDG onto machine models with limited resources (see
//! [`crate::schedule`]).
//!
//! The builder uses the same placement rule as [`LiveWell`](crate::LiveWell)
//! and the two are cross-validated in tests: for any trace and configuration
//! they must agree on every placement.

use crate::branch::{BranchPolicy, Predictor};
use crate::config::{AnalysisConfig, SyscallPolicy};
use crate::dist::Distribution;
use crate::memmodel::MemOrdering;
use crate::profile::ParallelismProfile;
use crate::window::WindowLimiter;
use paragraph_isa::OpClass;
use paragraph_trace::fasthash::FastMap;
use paragraph_trace::{Loc, TraceRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Index of a node in a [`Ddg`].
pub type NodeId = usize;

/// The kind of dependency an edge represents (§2.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// True (read-after-write) data dependency.
    True,
    /// Storage (write-after-read or write-after-write) dependency.
    Storage,
    /// Control dependency, modelled by a firewall (system call or
    /// instruction-window displacement).
    Control,
}

impl std::fmt::Display for DepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DepKind::True => "true",
            DepKind::Storage => "storage",
            DepKind::Control => "control",
        })
    }
}

/// One node of the DDG: a dynamic, value-creating instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdgNode {
    /// The node's index.
    pub id: NodeId,
    /// Position of the instruction in the trace (0-based).
    pub trace_index: u64,
    /// The instruction's program counter.
    pub pc: u64,
    /// Operation class.
    pub class: OpClass,
    /// Completion level (the `Ldest` of the placement rule).
    pub level: u64,
    /// The location whose value this node created, if any.
    pub dest: Option<Loc>,
}

/// One edge of the DDG. The operation at `to` depends on the operation at
/// `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// The depended-upon node.
    pub from: NodeId,
    /// The dependent node.
    pub to: NodeId,
    /// What kind of dependency forces the order.
    pub kind: DepKind,
}

#[derive(Debug, Clone)]
struct ValueState {
    /// Node that created the value; `None` for preexisting values.
    creator: Option<NodeId>,
    avail: i64,
    deepest_use: i64,
    readers: Vec<NodeId>,
}

impl ValueState {
    fn preexisting() -> ValueState {
        ValueState {
            creator: None,
            avail: -1,
            deepest_use: -1,
            readers: Vec::new(),
        }
    }
}

/// Incremental builder of an explicit [`Ddg`].
///
/// Applies the identical placement rule as the streaming analyzer, but also
/// records every node and typed edge.
///
/// Intended for bounded traces (it holds the whole graph in memory); for
/// 100M-instruction runs use [`LiveWell`](crate::LiveWell).
///
/// # Examples
///
/// ```
/// use paragraph_core::{AnalysisConfig, DdgBuilder};
/// use paragraph_trace::synthetic;
///
/// let mut builder = DdgBuilder::new(AnalysisConfig::dataflow_limit());
/// for record in synthetic::figure1() {
///     builder.process(&record);
/// }
/// let ddg = builder.finish();
/// assert_eq!(ddg.len(), 8);
/// assert_eq!(ddg.height(), 4);
/// ```
#[derive(Debug)]
pub struct DdgBuilder {
    config: AnalysisConfig,
    nodes: Vec<DdgNode>,
    edges: Vec<Edge>,
    values: FastMap<Loc, ValueState>,
    floor: i64,
    floor_source: Option<NodeId>,
    deepest: i64,
    deepest_node: Option<NodeId>,
    window: WindowLimiter<NodeId>,
    predictor: Option<Predictor>,
    level_starts: FastMap<i64, u32>,
    mem_ordering: MemOrdering,
    lifetimes: Distribution,
    sharing: Distribution,
    live_intervals: Vec<(u64, u64)>,
    trace_index: u64,
    total_records: u64,
}

impl DdgBuilder {
    /// Creates a builder for one pass under `config`.
    pub fn new(config: AnalysisConfig) -> DdgBuilder {
        let predictor = match config.branch_policy() {
            BranchPolicy::Predict(kind) => Some(Predictor::new(kind)),
            _ => None,
        };
        DdgBuilder {
            window: WindowLimiter::new(config.window()),
            predictor,
            level_starts: FastMap::default(),
            mem_ordering: MemOrdering::default(),
            config,
            nodes: Vec::new(),
            edges: Vec::new(),
            values: FastMap::default(),
            floor: -1,
            floor_source: None,
            deepest: -1,
            deepest_node: None,
            lifetimes: Distribution::new(),
            sharing: Distribution::new(),
            live_intervals: Vec::new(),
            trace_index: 0,
            total_records: 0,
        }
    }

    /// Folds a displaced value into the lifetime/sharing distributions.
    fn retire(
        lifetimes: &mut Distribution,
        sharing: &mut Distribution,
        live_intervals: &mut Vec<(u64, u64)>,
        state: &ValueState,
    ) {
        if state.creator.is_some() {
            let created = state.avail as u64;
            let last_use = state.deepest_use.max(state.avail) as u64;
            lifetimes.record(last_use - created);
            sharing.record(state.readers.len() as u64);
            live_intervals.push((created, last_use));
        }
    }

    /// Processes one trace record; returns the new node's id if the record
    /// was placed.
    pub fn process(&mut self, record: &TraceRecord) -> Option<NodeId> {
        let trace_index = self.trace_index;
        self.trace_index += 1;
        self.total_records += 1;
        let class = record.class();

        // Window admission displaces the oldest visible instruction first;
        // the displaced op becomes a firewall bounding this placement.
        if let Some((displaced_level, displaced_node)) = self.window.make_room() {
            if displaced_level > self.floor {
                self.floor = displaced_level;
                self.floor_source = Some(displaced_node);
            }
        }

        let skip = !class.creates_value()
            || (class == OpClass::Syscall
                && self.config.syscall_policy() == SyscallPolicy::Optimistic);
        if skip {
            if class == OpClass::Branch {
                self.observe_branch(record);
            }
            self.window.push(None);
            return None;
        }

        let id = self.nodes.len();

        // Gather constraints; remember which predecessor binds for the
        // critical-path witness and which edges to emit.
        let mut base = self.floor;
        for src in record.srcs() {
            let state = self
                .values
                .entry(src)
                .or_insert_with(ValueState::preexisting);
            base = base.max(state.avail);
        }
        let mut storage_preds: Vec<NodeId> = Vec::new();
        if let Some(dest) = record.dest() {
            if !self.config.renames().renames(dest, self.config.segments()) {
                if let Some(old) = self.values.get(&dest) {
                    base = base.max(old.deepest_use);
                    storage_preds.extend(old.creator);
                    storage_preds.extend(old.readers.iter().copied());
                }
            }
        }
        if self.config.memory_model().is_conservative() {
            let bound = match class {
                OpClass::Load => self.mem_ordering.load_floor(),
                OpClass::Store => self.mem_ordering.store_floor(),
                _ => None,
            };
            if let Some((bound_level, node)) = bound {
                base = base.max(bound_level);
                if node != usize::MAX {
                    // Conservative aliasing order: modelled as a storage
                    // dependence on the deepest earlier memory operation.
                    storage_preds.push(node);
                }
            }
        }
        let top = i64::from(self.config.latency().latency(class));
        let level = if let Some(limit) = self.config.issue_limit() {
            // Resource dependency: slide the start level to the first with a
            // free issue slot (same rule as the streaming analyzer).
            let mut start = base + 1;
            while self
                .level_starts
                .get(&start)
                .is_some_and(|&n| n as usize >= limit)
            {
                start += 1;
            }
            *self.level_starts.entry(start).or_insert(0) += 1;
            start + top - 1
        } else {
            base + top
        };

        // True edges, one per source value with a creating node.
        for src in record.srcs() {
            if let Some(state) = self.values.get_mut(&src) {
                state.deepest_use = state.deepest_use.max(level);
                if let Some(creator) = state.creator {
                    self.edges.push(Edge {
                        from: creator,
                        to: id,
                        kind: DepKind::True,
                    });
                }
                state.readers.push(id);
            }
        }
        // Storage edges from the displaced value's creator and readers.
        storage_preds.sort_unstable();
        storage_preds.dedup();
        for from in storage_preds {
            if from != id {
                self.edges.push(Edge {
                    from,
                    to: id,
                    kind: DepKind::Storage,
                });
            }
        }
        // Control edge when the firewall floor binds the placement.
        if let Some(source) = self.floor_source {
            let bound_by_floor = base == self.floor;
            if bound_by_floor && source != id {
                self.edges.push(Edge {
                    from: source,
                    to: id,
                    kind: DepKind::Control,
                });
            }
        }

        if let Some(dest) = record.dest() {
            let old = self.values.insert(
                dest,
                ValueState {
                    creator: Some(id),
                    avail: level,
                    deepest_use: level,
                    readers: Vec::new(),
                },
            );
            if let Some(old) = old {
                Self::retire(
                    &mut self.lifetimes,
                    &mut self.sharing,
                    &mut self.live_intervals,
                    &old,
                );
            }
        }

        self.nodes.push(DdgNode {
            id,
            trace_index,
            pc: record.pc(),
            class,
            level: level as u64,
            dest: record.dest(),
        });
        if self.config.memory_model().is_conservative() {
            match class {
                OpClass::Load => self.mem_ordering.observe_load(level, id),
                OpClass::Store => self.mem_ordering.observe_store(level, id),
                _ => {}
            }
        }
        if level > self.deepest {
            self.deepest = level;
            self.deepest_node = Some(id);
        }

        if class == OpClass::Syscall && self.config.syscall_policy() == SyscallPolicy::Conservative
        {
            // The firewall sits immediately after the deepest computation
            // yet placed; that node carries the control edges, so the
            // materialized graph enforces the same bound as the floor.
            self.floor = self.deepest;
            self.floor_source = self.deepest_node;
        }

        self.window.push(Some((level, id)));

        Some(id)
    }

    /// Handles a conditional branch under the configured branch policy; the
    /// firewall is anchored at the creator of the branch's deepest source so
    /// the materialized graph carries the control edge.
    fn observe_branch(&mut self, record: &TraceRecord) {
        let mispredicted = match self.config.branch_policy() {
            BranchPolicy::Perfect => false,
            BranchPolicy::StallAlways => true,
            BranchPolicy::Predict(_) => match (record.branch_info(), self.predictor.as_mut()) {
                (Some(info), Some(predictor)) => {
                    !predictor.predict_and_train(record.pc(), info.taken, info.target)
                }
                _ => false,
            },
        };
        if mispredicted {
            let mut resolve = self.floor;
            let mut anchor = None;
            for src in record.srcs() {
                let state = self
                    .values
                    .entry(src)
                    .or_insert_with(ValueState::preexisting);
                if state.avail > resolve {
                    resolve = state.avail;
                    anchor = state.creator;
                }
            }
            let resolve = resolve + 1;
            for src in record.srcs() {
                if let Some(state) = self.values.get_mut(&src) {
                    state.deepest_use = state.deepest_use.max(resolve);
                }
            }
            if resolve > self.floor {
                self.floor = resolve;
                self.floor_source = anchor.or(self.floor_source);
            }
        }
    }

    /// Processes every record of an iterator.
    pub fn process_all<'a, I>(&mut self, records: I)
    where
        I: IntoIterator<Item = &'a TraceRecord>,
    {
        for record in records {
            self.process(record);
        }
    }

    /// Finishes the pass and returns the graph.
    pub fn finish(mut self) -> Ddg {
        // Retire the values still live at the end of the trace.
        let values = std::mem::take(&mut self.values);
        for state in values.values() {
            Self::retire(
                &mut self.lifetimes,
                &mut self.sharing,
                &mut self.live_intervals,
                state,
            );
        }
        Ddg {
            nodes: self.nodes,
            edges: self.edges,
            total_records: self.total_records,
            lifetimes: self.lifetimes,
            sharing: self.sharing,
            live_intervals: self.live_intervals,
        }
    }
}

/// A materialized dynamic dependency graph: a partially ordered, directed,
/// acyclic graph of dynamic operations and typed dependencies.
#[derive(Debug, Clone)]
pub struct Ddg {
    nodes: Vec<DdgNode>,
    edges: Vec<Edge>,
    total_records: u64,
    lifetimes: Distribution,
    sharing: Distribution,
    live_intervals: Vec<(u64, u64)>,
}

impl Ddg {
    /// Builds the graph of `records` under `config` in one call.
    pub fn from_records<'a, I>(records: I, config: &AnalysisConfig) -> Ddg
    where
        I: IntoIterator<Item = &'a TraceRecord>,
    {
        let mut builder = DdgBuilder::new(config.clone());
        builder.process_all(records);
        builder.finish()
    }

    /// Number of nodes (placed operations).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total trace records observed, including unplaced control records.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// The nodes, in trace order.
    pub fn nodes(&self) -> &[DdgNode] {
        &self.nodes
    }

    /// One node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &DdgNode {
        &self.nodes[id]
    }

    /// The edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The critical path length (height of the topologically sorted graph):
    /// one past the deepest completion level.
    pub fn height(&self) -> u64 {
        self.nodes.iter().map(|n| n.level + 1).max().unwrap_or(0)
    }

    /// The widest level's operation count.
    pub fn width(&self) -> u64 {
        self.parallelism_profile()
            .exact_counts()
            .map(|c| c.into_iter().max().unwrap_or(0))
            .unwrap_or_else(|| self.parallelism_profile().peak_avg_ops_per_level().round() as u64)
    }

    /// The parallelism profile of the graph.
    pub fn parallelism_profile(&self) -> ParallelismProfile {
        let bins = (self.height() as usize).max(1);
        let mut profile = ParallelismProfile::new(bins);
        for node in &self.nodes {
            profile.record(node.level);
        }
        profile
    }

    /// Available parallelism: nodes divided by height (0 when empty).
    pub fn available_parallelism(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.len() as f64 / self.height() as f64
        }
    }

    /// One longest dependency chain through the graph, as node ids in
    /// execution order.
    ///
    /// Ties are broken toward earlier trace order. Empty for an empty graph.
    pub fn critical_path(&self) -> Vec<NodeId> {
        if self.nodes.is_empty() {
            return Vec::new();
        }
        // Predecessors by node.
        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            preds[e.to].push(e.from);
        }
        // Start from the deepest node (earliest among ties).
        let Some(mut current) = self
            .nodes
            .iter()
            .max_by_key(|n| (n.level, std::cmp::Reverse(n.id)))
            .map(|n| n.id)
        else {
            return Vec::new();
        };
        let mut path = vec![current];
        loop {
            // Deepest predecessor, earliest among ties.
            let next = preds[current]
                .iter()
                .copied()
                .max_by_key(|&p| (self.nodes[p].level, std::cmp::Reverse(p)));
            match next {
                Some(p) => {
                    path.push(p);
                    current = p;
                }
                None => break,
            }
        }
        path.reverse();
        path
    }

    /// Distribution of value lifetimes: for each value created in the graph,
    /// the number of levels from its creation to its last use (0 if never
    /// used). §2.3: "useful in determining the amount of temporary storage
    /// required to exploit the parallelism in the DDG."
    pub fn value_lifetimes(&self) -> &Distribution {
        &self.lifetimes
    }

    /// Distribution of the degree of sharing: for each created value, how
    /// many operations consumed it. §2.3: "how many operations can be
    /// 'fired' when a token is created."
    pub fn sharing_degrees(&self) -> Distribution {
        self.sharing.clone()
    }

    /// Storage occupancy per level: how many values are live (created but
    /// not yet past their last use) in each level. This is the paper's
    /// "memory requirement profile" / the dataflow literature's waiting-token
    /// profile.
    pub fn storage_occupancy(&self) -> Vec<u64> {
        let height = self.height() as usize;
        if height == 0 {
            return Vec::new();
        }
        let mut delta = vec![0i64; height + 1];
        for &(created, last_use) in &self.live_intervals {
            delta[created as usize] += 1;
            delta[(last_use as usize + 1).min(height)] -= 1;
        }
        let mut out = Vec::with_capacity(height);
        let mut live = 0i64;
        for d in delta.iter().take(height) {
            live += d;
            out.push(live as u64);
        }
        out
    }

    /// Distribution of scheduling slack: for each node, how many levels it
    /// could be delayed without lengthening the critical path (its latest
    /// feasible completion minus its ASAP completion).
    ///
    /// Slack 0 marks the critical operations; the paper's "bursty"
    /// profiles correspond to most operations having large slack (they
    /// crowd the early levels only because the dataflow machine runs
    /// everything as soon as possible).
    pub fn slack_distribution(&self) -> Distribution {
        let mut dist = Distribution::new();
        if self.nodes.is_empty() {
            return dist;
        }
        let height = self.height();
        // Latest completion per node via a reverse pass: a node must finish
        // early enough for each successor to still meet its own deadline.
        let mut latest: Vec<u64> = self.nodes.iter().map(|_| height - 1).collect();
        let mut succs: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            // The successor completes `gap` levels after this node at the
            // earliest, where `gap` is their ASAP spacing (conservative for
            // heterogeneous latencies, exact for the placement rule used).
            let gap = self.nodes[e.to]
                .level
                .saturating_sub(self.nodes[e.from].level);
            succs[e.from].push((e.to, gap));
        }
        for id in (0..self.nodes.len()).rev() {
            for &(succ, gap) in &succs[id] {
                latest[id] = latest[id].min(latest[succ].saturating_sub(gap));
            }
        }
        for (id, node) in self.nodes.iter().enumerate() {
            dist.record(latest[id] - node.level);
        }
        dist
    }

    /// Number of edges of each kind, in `(true, storage, control)` order.
    pub fn edge_counts(&self) -> (u64, u64, u64) {
        let mut t = 0;
        let mut s = 0;
        let mut c = 0;
        for e in &self.edges {
            match e.kind {
                DepKind::True => t += 1,
                DepKind::Storage => s += 1,
                DepKind::Control => c += 1,
            }
        }
        (t, s, c)
    }

    /// Renders the graph in Graphviz DOT format. Nodes are ranked by DDG
    /// level; storage edges are drawn dashed gray (the paper's "small, gray
    /// bubble"), control edges dotted.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph ddg {\n  rankdir=TB;\n  node [shape=box];\n");
        let mut by_level: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        for node in &self.nodes {
            by_level.entry(node.level).or_default().push(node.id);
            let label = match node.dest {
                Some(dest) => format!("{} -> {}", node.class, dest),
                None => node.class.to_string(),
            };
            let _ = writeln!(
                out,
                "  n{} [label=\"#{} {} (L{})\"];",
                node.id, node.trace_index, label, node.level
            );
        }
        for (_, ids) in by_level {
            let _ = write!(out, "  {{ rank=same;");
            for id in ids {
                let _ = write!(out, " n{id};");
            }
            out.push_str(" }\n");
        }
        for e in &self.edges {
            let style = match e.kind {
                DepKind::True => "solid",
                DepKind::Storage => "dashed\", color=\"gray40",
                DepKind::Control => "dotted",
            };
            let _ = writeln!(out, "  n{} -> n{} [style=\"{}\"];", e.from, e.to, style);
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RenameSet, WindowSize};
    use crate::livewell::LiveWell;
    use paragraph_trace::synthetic;

    fn build(records: &[TraceRecord], config: &AnalysisConfig) -> Ddg {
        Ddg::from_records(records, config)
    }

    #[test]
    fn figure1_graph_shape() {
        let ddg = build(&synthetic::figure1(), &AnalysisConfig::dataflow_limit());
        assert_eq!(ddg.len(), 8);
        assert_eq!(ddg.height(), 4);
        assert_eq!(ddg.width(), 4);
        let (t, s, c) = ddg.edge_counts();
        // adds read 2 loads each (4) + r6 reads r4,r5 (2) + store reads r6
        // (1) = 7 true edges; no storage/control.
        assert_eq!((t, s, c), (7, 0, 0));
    }

    #[test]
    fn figure2_has_storage_edges_without_renaming() {
        let config = AnalysisConfig::dataflow_limit().with_renames(RenameSet::none());
        let ddg = build(&synthetic::figure2(), &config);
        assert_eq!(ddg.height(), 6);
        let (_, storage, _) = ddg.edge_counts();
        assert!(storage > 0, "register reuse must materialize storage edges");
    }

    #[test]
    fn builder_matches_livewell_on_random_traces() {
        for seed in 0..6u64 {
            let trace = synthetic::random_trace(1200, seed);
            for config in [
                AnalysisConfig::dataflow_limit(),
                AnalysisConfig::dataflow_limit().with_renames(RenameSet::none()),
                AnalysisConfig::dataflow_limit().with_renames(RenameSet::registers_only()),
                AnalysisConfig::dataflow_limit().with_window(WindowSize::bounded(16)),
                AnalysisConfig::dataflow_limit()
                    .with_syscall_policy(SyscallPolicy::Optimistic)
                    .with_window(WindowSize::bounded(64)),
            ] {
                let mut lw = LiveWell::new(config.clone());
                let mut builder = DdgBuilder::new(config.clone());
                for record in &trace {
                    let a = lw.process(record);
                    let b = builder.process(record).map(|id| {
                        // builder returns node id; compare levels instead
                        id
                    });
                    assert_eq!(a.is_some(), b.is_some());
                }
                let ddg = builder.finish();
                let report = lw.finish();
                assert_eq!(
                    ddg.height(),
                    report.critical_path_length(),
                    "seed {seed} config {config}"
                );
                assert_eq!(ddg.len() as u64, report.placed_ops());
                let ddg_profile = ddg.parallelism_profile();
                if let (Some(a), Some(b)) =
                    (ddg_profile.exact_counts(), report.profile().exact_counts())
                {
                    assert_eq!(a, b, "profiles must agree (seed {seed})");
                }
            }
        }
    }

    #[test]
    fn critical_path_is_a_real_chain() {
        let trace = synthetic::random_trace(400, 3);
        let ddg = build(&trace, &AnalysisConfig::dataflow_limit());
        let path = ddg.critical_path();
        assert!(!path.is_empty());
        // The path ends at the deepest node.
        assert_eq!(ddg.node(*path.last().unwrap()).level + 1, ddg.height());
        // Consecutive path nodes are connected by an edge.
        for pair in path.windows(2) {
            assert!(
                ddg.edges()
                    .iter()
                    .any(|e| e.from == pair[0] && e.to == pair[1]),
                "critical path must follow edges"
            );
        }
        // Levels strictly increase along the path.
        for pair in path.windows(2) {
            assert!(ddg.node(pair[0]).level < ddg.node(pair[1]).level);
        }
    }

    #[test]
    fn chain_critical_path_covers_every_node() {
        let ddg = build(&synthetic::chain(30), &AnalysisConfig::dataflow_limit());
        assert_eq!(ddg.critical_path().len(), 30);
    }

    #[test]
    fn lifetimes_of_figure1() {
        let ddg = build(&synthetic::figure1(), &AnalysisConfig::dataflow_limit());
        let lifetimes = ddg.value_lifetimes();
        // 8 values created (4 loads, 3 adds, 1 store).
        assert_eq!(lifetimes.count(), 8);
        // Loads live 1 level (created 0, used 1); r4/r5 live 1; r6 lives 1;
        // the stored S is never read (lifetime 0).
        assert_eq!(lifetimes.frequency(0), 1);
        assert_eq!(lifetimes.frequency(1), 7);
    }

    #[test]
    fn sharing_counts_consumers() {
        // One producer read by three consumers.
        let records = vec![
            TraceRecord::compute(0, OpClass::IntAlu, &[], Loc::int(1)),
            TraceRecord::compute(1, OpClass::IntAlu, &[Loc::int(1)], Loc::int(2)),
            TraceRecord::compute(2, OpClass::IntAlu, &[Loc::int(1)], Loc::int(3)),
            TraceRecord::compute(3, OpClass::IntAlu, &[Loc::int(1)], Loc::int(4)),
        ];
        let ddg = build(&records, &AnalysisConfig::dataflow_limit());
        let sharing = ddg.sharing_degrees();
        assert_eq!(sharing.frequency(3), 1); // the producer
        assert_eq!(sharing.frequency(0), 3); // the three leaves
        assert_eq!(sharing.max(), Some(3));
    }

    #[test]
    fn storage_occupancy_peaks_in_the_middle() {
        let ddg = build(&synthetic::figure1(), &AnalysisConfig::dataflow_limit());
        let occupancy = ddg.storage_occupancy();
        assert_eq!(occupancy.len(), 4);
        // Level 0 creates 4 loaded values.
        assert_eq!(occupancy[0], 4);
        // Everything created is live somewhere; the profile is nonzero.
        assert!(occupancy.iter().all(|&v| v > 0));
    }

    #[test]
    fn control_edges_appear_after_syscall_firewall() {
        let records = vec![
            TraceRecord::compute(0, OpClass::IntAlu, &[], Loc::int(1)),
            TraceRecord::syscall(1, &[], None),
            TraceRecord::compute(2, OpClass::IntAlu, &[], Loc::int(2)),
        ];
        let ddg = build(&records, &AnalysisConfig::dataflow_limit());
        let (_, _, control) = ddg.edge_counts();
        assert!(control >= 1, "firewalled op must carry a control edge");
        // The control edge points from the firewall (anchored at the deepest
        // pre-firewall node) to the op placed after it.
        assert!(ddg
            .edges()
            .iter()
            .any(|e| e.kind == DepKind::Control && e.to == 2 && ddg.node(e.from).level == 0));
    }

    #[test]
    fn slack_is_zero_along_the_critical_path() {
        let trace = synthetic::random_trace(500, 31);
        let ddg = build(&trace, &AnalysisConfig::dataflow_limit());
        let slack = ddg.slack_distribution();
        assert_eq!(slack.count(), ddg.len() as u64);
        // Every critical-path node has zero slack.
        assert!(slack.frequency(0) >= ddg.critical_path().len() as u64);
        // Slack never exceeds the graph height.
        assert!(slack.max().unwrap() < ddg.height());
    }

    #[test]
    fn chain_has_no_slack_anywhere() {
        let ddg = build(&synthetic::chain(20), &AnalysisConfig::dataflow_limit());
        let slack = ddg.slack_distribution();
        assert_eq!(slack.frequency(0), 20);
        assert_eq!(slack.max(), Some(0));
    }

    #[test]
    fn independent_ops_have_full_slack_except_none_needed() {
        // All ops are at level 0 of a height-1 graph: slack 0 for all.
        let ddg = build(
            &synthetic::independent(10),
            &AnalysisConfig::dataflow_limit(),
        );
        assert_eq!(ddg.slack_distribution().max(), Some(0));
        // A chain plus one independent leaf: the leaf can slide the whole
        // height of the chain.
        let mut records = synthetic::chain(5);
        records.push(TraceRecord::compute(99, OpClass::IntAlu, &[], Loc::int(9)));
        let ddg = build(&records, &AnalysisConfig::dataflow_limit());
        assert_eq!(ddg.slack_distribution().max(), Some(4));
        assert_eq!(ddg.slack_distribution().frequency(4), 1);
    }

    #[test]
    fn dot_export_mentions_every_node() {
        let ddg = build(&synthetic::figure1(), &AnalysisConfig::dataflow_limit());
        let dot = ddg.to_dot();
        assert!(dot.starts_with("digraph"));
        for id in 0..ddg.len() {
            assert!(dot.contains(&format!("n{id} ")));
        }
        assert!(dot.contains("rank=same"));
    }

    #[test]
    fn empty_graph_analyses_are_well_defined() {
        let ddg = build(&[], &AnalysisConfig::dataflow_limit());
        assert!(ddg.is_empty());
        assert_eq!(ddg.height(), 0);
        assert_eq!(ddg.available_parallelism(), 0.0);
        assert!(ddg.critical_path().is_empty());
        assert!(ddg.storage_occupancy().is_empty());
        assert_eq!(ddg.value_lifetimes().count(), 0);
    }

    #[test]
    fn distribution_percentiles() {
        let mut d = Distribution::new();
        for v in 1..=100u64 {
            d.record(v);
        }
        assert_eq!(d.percentile(0.5), Some(50));
        assert_eq!(d.percentile(0.99), Some(99));
        assert_eq!(d.percentile(1.0), Some(100));
        assert_eq!(d.percentile(0.0), Some(1));
        assert_eq!(Distribution::new().percentile(0.5), None);
    }
}
