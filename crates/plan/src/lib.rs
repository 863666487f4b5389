//! `rd-plan`: safe reconfiguration planning over router-config corpora.
//!
//! The paper reverse-engineers what an operational routing design *is*;
//! this crate plans how to *change* one safely — the Section 8.1
//! maintenance workflow taken to its conclusion. Given a *current* and a
//! *target* corpus of per-router configuration files, [`plan`]:
//!
//! 1. decomposes the delta into **atomic change units** — per-router
//!    config additions, removals, and replacements, detected by semantic
//!    FNV-1a-64 fingerprints so cosmetic churn (comment lines, `!`
//!    separators) produces no unit at all;
//! 2. builds a **dependency DAG** over the units from analysis facts:
//!    routers sharing a routing instance or a link subnet with a
//!    to-be-removed router must change first (drain before remove), and
//!    replacement border/redistribution routers must exist before the old
//!    ones go;
//! 3. **searches for a safe ordering**: every intermediate corpus state is
//!    materialized in memory, re-analyzed, and checked against an
//!    invariant envelope (connectivity, instance connectivity, no new
//!    external ASes, border reachability of every target router, parse
//!    coverage) derived from the two endpoint states. All ready candidates
//!    of a search step are evaluated in parallel via
//!    [`rd_par::par_map_cost`], and the first passing candidate *in sorted
//!    unit order* is taken — so the emitted plan is byte-identical at any
//!    `RD_THREADS` setting;
//! 4. **emits the plan** as an ordered step list with a per-step
//!    verification report, plus a counter-factual: where the naive
//!    lexicographic ordering of the same units first violates an
//!    invariant.
//!
//! The engine is deliberately analysis-agnostic: it never parses a config
//! itself. The caller supplies an `analyze` closure turning a corpus of
//! `(file_name, bytes)` pairs into [`StateFacts`]; the `routing-design`
//! crate bridges its full pipeline into that shape (and `rdx plan`
//! exposes the result on the command line). This inversion keeps the
//! crate graph acyclic — `routing-design` depends on `rd-plan`, not the
//! other way around — and makes the search unit-testable with synthetic
//! fact tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dag;
mod emit;
mod search;
pub mod scenario;

use std::collections::BTreeMap;

pub use dag::{build_dag, Dag};
pub use emit::{render_json, render_table};
pub use search::{
    check_state, Envelope, InvariantCheck, NaiveReport, NaiveViolation, SearchStats,
    StepVerdict,
};

/// A corpus as the planner sees it: `(file_name, bytes)` pairs, sorted by
/// file name. Bytes, not text — the planner must cope with whatever is on
/// disk, including files the analysis quarantines.
pub type CorpusFiles = Vec<(String, Vec<u8>)>;

/// The most units one plan may hold: intermediate states are memoized by
/// a `u128` applied-set bitmask.
pub const MAX_UNITS: usize = 128;

/// Everything the planner needs to know about one router in one analyzed
/// state. Produced by the caller's `analyze` closure.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterState {
    /// Stable identity: configured hostname, else file name.
    pub name: String,
    /// The configuration file carrying this router.
    pub file_name: String,
    /// Semantic fingerprint of the full parsed configuration
    /// (FNV-1a-64 over its canonical encoding).
    pub fingerprint: u64,
    /// True when the analysis classifies any interface of this router as
    /// external-facing (a border router).
    pub external_facing: bool,
    /// True when this router redistributes routes between instances.
    pub redistributes: bool,
    /// Index of the connectivity component this router sits in.
    pub component: usize,
    /// Keys of the routing instances this router participates in
    /// (e.g. `"ospf"`, `"bgp:65001"`), sorted.
    pub instance_keys: Vec<String>,
    /// Rendered subnets of its addressed interfaces, sorted — the
    /// link-sharing test behind the drain-before-remove DAG rule.
    pub link_subnets: Vec<String>,
}

/// The analysis facts of one corpus state — the planner's entire view of
/// a network. Cheap to produce from any analysis pipeline; rich enough to
/// check the invariant envelope.
#[derive(Clone, Debug, Default)]
pub struct StateFacts {
    /// Per-router facts, in analysis order.
    pub routers: Vec<RouterState>,
    /// Number of connectivity components over the inferred links.
    pub components: usize,
    /// Routing instances per instance key (a partitioned IGP shows up as
    /// a count increase under the same key).
    pub instance_counts: BTreeMap<String, usize>,
    /// External AS numbers peered with.
    pub external_ases: std::collections::BTreeSet<u32>,
    /// Config files the analysis quarantined (unparseable, empty, ...).
    pub quarantined: usize,
}

impl StateFacts {
    /// The router state behind a stable identity, if present.
    pub fn router(&self, name: &str) -> Option<&RouterState> {
        self.routers.iter().find(|r| r.name == name)
    }
}

/// What one change unit does to its router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeKind {
    /// A router exists only in the target: its file is created.
    Add,
    /// A router exists in both but its semantic fingerprint differs: its
    /// file is replaced with the target version.
    Modify,
    /// A router exists only in the current corpus: its file is deleted.
    Remove,
}

impl ChangeKind {
    /// Lowercase verb used in keys, tables, and JSON.
    pub fn verb(self) -> &'static str {
        match self {
            ChangeKind::Add => "add",
            ChangeKind::Modify => "modify",
            ChangeKind::Remove => "remove",
        }
    }
}

/// One atomic change: a per-router config addition, removal, or
/// replacement. Applying a unit is a pure function of the file set, so an
/// intermediate state is fully determined by the *set* of applied units —
/// which is what makes bitmask memoization sound.
#[derive(Clone, Debug)]
pub struct ChangeUnit {
    /// What happens.
    pub kind: ChangeKind,
    /// The router's stable identity (hostname, else file name).
    pub router: String,
    /// File removed from the corpus (Remove and Modify).
    pub old_file: Option<String>,
    /// File written into the corpus (Add and Modify).
    pub new_file: Option<String>,
    /// The target bytes written (Add and Modify).
    pub bytes: Option<Vec<u8>>,
}

impl ChangeUnit {
    /// Deterministic sort/display key: `"<verb>:<router>"`.
    pub fn key(&self) -> String {
        format!("{}:{}", self.kind.verb(), self.router)
    }
}

/// Derives the atomic change units between two analyzed states. Routers
/// are matched by stable identity; equal fingerprints produce no unit
/// (cosmetic byte churn is not a change). Returned sorted by
/// [`ChangeUnit::key`] — adds, then modifies, then removes, each
/// alphabetical — which fixes both the naive baseline order and the
/// search's deterministic tie-breaking.
pub fn diff_units(
    current: &StateFacts,
    target: &StateFacts,
    target_files: &CorpusFiles,
) -> Vec<ChangeUnit> {
    let bytes_of = |file: &str| -> Option<Vec<u8>> {
        target_files.iter().find(|(name, _)| name == file).map(|(_, b)| b.clone())
    };
    let mut units = Vec::new();
    for r in &current.routers {
        match target.router(&r.name) {
            None => units.push(ChangeUnit {
                kind: ChangeKind::Remove,
                router: r.name.clone(),
                old_file: Some(r.file_name.clone()),
                new_file: None,
                bytes: None,
            }),
            Some(t) if t.fingerprint != r.fingerprint => units.push(ChangeUnit {
                kind: ChangeKind::Modify,
                router: r.name.clone(),
                old_file: Some(r.file_name.clone()),
                new_file: Some(t.file_name.clone()),
                bytes: bytes_of(&t.file_name),
            }),
            Some(_) => {}
        }
    }
    for t in &target.routers {
        if current.router(&t.name).is_none() {
            units.push(ChangeUnit {
                kind: ChangeKind::Add,
                router: t.name.clone(),
                old_file: None,
                new_file: Some(t.file_name.clone()),
                bytes: bytes_of(&t.file_name),
            });
        }
    }
    units.sort_by_key(ChangeUnit::key);
    units
}

/// The bit of unit `i` in an applied-set mask.
pub(crate) fn bit(i: usize) -> u128 {
    1u128 << i
}

/// Materializes the intermediate corpus reached by applying the units in
/// `applied` (a bitmask over `units`) to `current`. Order-independent by
/// construction: each unit touches only its own router's files.
pub fn materialize(current: &CorpusFiles, units: &[ChangeUnit], applied: u128) -> CorpusFiles {
    let mut files: BTreeMap<&str, &[u8]> =
        current.iter().map(|(name, bytes)| (name.as_str(), bytes.as_slice())).collect();
    for (i, unit) in units.iter().enumerate() {
        if applied & bit(i) == 0 {
            continue;
        }
        if let Some(old) = &unit.old_file {
            files.remove(old.as_str());
        }
        if let (Some(new), Some(bytes)) = (&unit.new_file, &unit.bytes) {
            files.insert(new.as_str(), bytes.as_slice());
        }
    }
    files.into_iter().map(|(name, bytes)| (name.to_string(), bytes.to_vec())).collect()
}

/// A verified reconfiguration plan: the ordered units, a per-step
/// invariant report, the naive-ordering counter-factual, and search
/// statistics. Everything except [`timings`](Plan::timings) is a pure
/// function of the two input corpora — render it with [`render_json`] or
/// [`render_table`] and the bytes are identical at any `RD_THREADS`.
#[derive(Clone, Debug)]
pub struct Plan {
    /// All change units, sorted by key; `order` indexes into this.
    pub units: Vec<ChangeUnit>,
    /// The safe application order (indices into `units`).
    pub order: Vec<usize>,
    /// Per-step verification: `verdicts[i]` checks the state after
    /// applying `order[..=i]`. Every check in an emitted plan passed.
    pub verdicts: Vec<StepVerdict>,
    /// Where the naive lexicographic ordering first goes wrong.
    pub naive: NaiveReport,
    /// Search effort (states analyzed, backtracks, memo hits).
    pub stats: SearchStats,
    /// Dependency edges the DAG construction kept.
    pub dag_edges: usize,
    /// Routers in the analyzed current state.
    pub current_routers: usize,
    /// Routers in the analyzed target state.
    pub target_routers: usize,
    /// Phase wall-clock times: the durations of the `plan.diff`,
    /// `plan.dag` and `plan.search` spans. Machine-dependent —
    /// deliberately excluded from the rendered plan so plan bytes stay
    /// comparable across runs; surfaced by `rdx --timings` and
    /// `bench_plan` instead.
    pub timings: rd_obs::StageTimings,
}

impl Plan {
    /// Iterates the plan's steps as `(unit, verdict)` pairs, in order.
    pub fn steps(&self) -> impl Iterator<Item = (&ChangeUnit, &StepVerdict)> {
        self.order.iter().zip(&self.verdicts).map(move |(&i, v)| (&self.units[i], v))
    }

    /// True when the two corpora were semantically identical.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }
}

/// Why planning failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// More change units than the bitmask state space supports
    /// ([`MAX_UNITS`]). Split the migration.
    TooManyUnits(usize),
    /// Every ordering compatible with the DAG violates an invariant
    /// somewhere. The change set cannot be sequenced per-router; it needs
    /// to be split differently (or the endpoints are themselves broken).
    NoSafeOrder {
        /// Intermediate states analyzed before giving up.
        states_analyzed: usize,
        /// Dead-end states backtracked out of.
        backtracks: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::TooManyUnits(n) => write!(
                f,
                "{n} change units exceed the planner's limit of {MAX_UNITS}; \
                 split the migration"
            ),
            PlanError::NoSafeOrder { states_analyzed, backtracks } => write!(
                f,
                "no safe per-router ordering exists ({states_analyzed} intermediate \
                 state(s) analyzed, {backtracks} backtrack(s))"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Plans a safe migration from `current` to `target`.
///
/// `analyze` turns any corpus of `(file_name, bytes)` pairs into
/// [`StateFacts`]; it is called once per endpoint and once per candidate
/// intermediate state (memoized by applied-set, fanned out with
/// [`rd_par::par_map_cost`]). It must be a pure function of the corpus —
/// the determinism guarantee of the emitted plan rests on that.
pub fn plan<F>(current: &CorpusFiles, target: &CorpusFiles, analyze: F) -> Result<Plan, PlanError>
where
    F: Fn(&CorpusFiles) -> StateFacts + Sync,
{
    let (plan, timings) = rd_obs::span::stages(|| {
        let (current_facts, target_facts, units) = {
            let _span = rd_obs::span!("plan.diff");
            let current_facts = analyze(current);
            let target_facts = analyze(target);
            let units = diff_units(&current_facts, &target_facts, target);
            (current_facts, target_facts, units)
        };
        if units.len() > MAX_UNITS {
            return Err(PlanError::TooManyUnits(units.len()));
        }
        let dag = {
            let _span = rd_obs::span!("plan.dag");
            build_dag(&units, &current_facts, &target_facts)
        };
        let envelope = Envelope::between(&current_facts, &target_facts);
        let (order, verdicts, naive, stats) = {
            let _span = rd_obs::span!("plan.search");
            search::search(current, &units, &dag, &envelope, &analyze)?
        };
        Ok(Plan {
            dag_edges: dag.edges.len(),
            current_routers: current_facts.routers.len(),
            target_routers: target_facts.routers.len(),
            units,
            order,
            verdicts,
            naive,
            stats,
            timings: rd_obs::StageTimings::new(),
        })
    });
    Ok(Plan { timings, ..plan? })
}

/// Independently re-verifies an emitted plan: replays every step against
/// a fresh analysis (no memo, no search state) and re-checks the
/// invariant envelope. Returns the number of verified steps, or a
/// description of the first violation. This is what `rdx plan --check`
/// and the verify.sh plan stage run.
pub fn verify_plan<F>(
    current: &CorpusFiles,
    target: &CorpusFiles,
    plan: &Plan,
    analyze: F,
) -> Result<usize, String>
where
    F: Fn(&CorpusFiles) -> StateFacts + Sync,
{
    if plan.order.len() != plan.units.len() {
        return Err(format!(
            "plan covers {} of {} units",
            plan.order.len(),
            plan.units.len()
        ));
    }
    let envelope = Envelope::between(&analyze(current), &analyze(target));
    let mut applied = 0u128;
    for (step, &idx) in plan.order.iter().enumerate() {
        applied |= bit(idx);
        let corpus = materialize(current, &plan.units, applied);
        let verdict = check_state(&envelope, &analyze(&corpus));
        if let Some(check) = verdict.checks.iter().find(|c| !c.ok) {
            return Err(format!(
                "step {} ({}) violates {}: {}",
                step + 1,
                plan.units[idx].key(),
                check.invariant,
                check.detail
            ));
        }
    }
    Ok(plan.order.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(name: &str, bytes: &str) -> (String, Vec<u8>) {
        (name.to_string(), bytes.as_bytes().to_vec())
    }

    fn router(name: &str, fingerprint: u64) -> RouterState {
        RouterState {
            name: name.to_string(),
            file_name: format!("{name}.cfg"),
            fingerprint,
            ..RouterState::default()
        }
    }

    fn facts(routers: Vec<RouterState>) -> StateFacts {
        let mut f = StateFacts { components: 1, ..StateFacts::default() };
        f.routers = routers;
        f
    }

    #[test]
    fn diff_units_detects_add_modify_remove_and_ignores_cosmetic() {
        let current = facts(vec![router("a", 1), router("b", 2), router("c", 3)]);
        // a modified, b untouched, c removed, d added.
        let target = facts(vec![router("a", 10), router("b", 2), router("d", 4)]);
        let target_files =
            vec![file("a.cfg", "new-a"), file("b.cfg", "same-b"), file("d.cfg", "new-d")];
        let units = diff_units(&current, &target, &target_files);
        let keys: Vec<String> = units.iter().map(ChangeUnit::key).collect();
        assert_eq!(keys, vec!["add:d", "modify:a", "remove:c"]);
        assert_eq!(units[0].bytes.as_deref(), Some(b"new-d".as_slice()));
        assert_eq!(units[1].old_file.as_deref(), Some("a.cfg"));
        assert_eq!(units[2].new_file, None);
    }

    #[test]
    fn materialize_is_a_pure_function_of_the_applied_set() {
        let current = vec![file("a.cfg", "old-a"), file("c.cfg", "old-c")];
        let units = vec![
            ChangeUnit {
                kind: ChangeKind::Add,
                router: "d".into(),
                old_file: None,
                new_file: Some("d.cfg".into()),
                bytes: Some(b"new-d".to_vec()),
            },
            ChangeUnit {
                kind: ChangeKind::Modify,
                router: "a".into(),
                old_file: Some("a.cfg".into()),
                new_file: Some("a.cfg".into()),
                bytes: Some(b"new-a".to_vec()),
            },
            ChangeUnit {
                kind: ChangeKind::Remove,
                router: "c".into(),
                old_file: Some("c.cfg".into()),
                new_file: None,
                bytes: None,
            },
        ];
        let all = materialize(&current, &units, 0b111);
        assert_eq!(all, vec![file("a.cfg", "new-a"), file("d.cfg", "new-d")]);
        let none = materialize(&current, &units, 0);
        assert_eq!(none, current);
        let only_remove = materialize(&current, &units, 0b100);
        assert_eq!(only_remove, vec![file("a.cfg", "old-a")]);
    }

    /// A synthetic three-unit migration where the lexicographically first
    /// candidate (`add:c`) is unsafe until `modify:a` has been applied:
    /// the stub analysis reports 2 components whenever `c` exists without
    /// the new `a`. The search must reject it, pick `modify:a`, and only
    /// then admit `add:c` — and the naive report must pinpoint step 1.
    #[test]
    fn search_rejects_unsafe_candidate_and_naive_report_flags_it() {
        let current = vec![file("a.cfg", "old-a"), file("b.cfg", "old-b")];
        let target = vec![file("a.cfg", "new-a"), file("c.cfg", "new-c")];
        let analyze = |corpus: &CorpusFiles| -> StateFacts {
            let has = |n: &str, b: &str| {
                corpus.iter().any(|(name, bytes)| name == n && bytes == b.as_bytes())
            };
            let routers: Vec<RouterState> = corpus
                .iter()
                .map(|(name, _)| {
                    router(name.trim_end_matches(".cfg"), u64::from(has(name, "new-a")))
                })
                .collect();
            let mut f = facts(routers);
            // c is only attached once the new a (with the bridging link)
            // is in place; a removed b never disconnects anything.
            f.components = if has("c.cfg", "new-c") && !has("a.cfg", "new-a") { 2 } else { 1 };
            f
        };
        // Make the analyze closure also assign distinct fingerprints so
        // diff_units sees modify:a, remove:b, add:c.
        let wrap = |corpus: &CorpusFiles| -> StateFacts {
            let mut f = analyze(corpus);
            for r in &mut f.routers {
                let body: u64 = corpus
                    .iter()
                    .find(|(name, _)| name.trim_end_matches(".cfg") == r.name)
                    .map(|(_, bytes)| bytes.iter().map(|&b| u64::from(b)).sum())
                    .unwrap_or(0);
                r.fingerprint = body;
            }
            f
        };
        let plan = plan(&current, &target, wrap).expect("plan found");
        let order: Vec<String> = plan.steps().map(|(u, _)| u.key()).collect();
        assert_eq!(order, vec!["modify:a", "add:c", "remove:b"]);
        assert!(plan.verdicts.iter().all(|v| v.ok()));
        let naive = plan.naive.violation.as_ref().expect("naive order must fail");
        assert_eq!(naive.step, 1);
        assert_eq!(naive.unit, "add:c");
        assert!(naive.failed.iter().any(|c| c.invariant == "connectivity"));
        assert!(plan.stats.states_analyzed > 0);
        assert!(verify_plan(&current, &target, &plan, wrap).is_ok());
    }

    #[test]
    fn identical_corpora_plan_empty() {
        let corpus = vec![file("a.cfg", "same")];
        let analyze = |c: &CorpusFiles| {
            facts(c.iter().map(|(n, _)| router(n.trim_end_matches(".cfg"), 7)).collect())
        };
        let plan = plan(&corpus, &corpus, analyze).expect("empty plan");
        assert!(plan.is_empty());
        assert!(plan.order.is_empty());
        assert!(plan.naive.violation.is_none());
        assert_eq!(verify_plan(&corpus, &corpus, &plan, analyze), Ok(0));
    }

    #[test]
    fn too_many_units_is_a_typed_error() {
        let current: CorpusFiles = Vec::new();
        let target: CorpusFiles =
            (0..MAX_UNITS + 1).map(|i| file(&format!("r{i:03}.cfg"), "x")).collect();
        let analyze = |c: &CorpusFiles| {
            facts(
                c.iter()
                    .map(|(n, _)| router(n.trim_end_matches(".cfg"), 1))
                    .collect(),
            )
        };
        let err = plan(&current, &target, analyze).expect_err("too many units");
        assert_eq!(err, PlanError::TooManyUnits(MAX_UNITS + 1));
    }

    #[test]
    fn unsatisfiable_invariants_report_no_safe_order() {
        // Two units (modify:a, remove:b), but every strict intermediate
        // state "partitions" under the stub analysis — only the exact
        // endpoints are 1-component, so the envelope pins components at 1
        // and no per-router ordering can thread the needle.
        let current = vec![file("a.cfg", "old-a"), file("b.cfg", "old-b")];
        let target = vec![file("a.cfg", "new-a")];
        let analyze = |corpus: &CorpusFiles| -> StateFacts {
            let mut f = facts(
                corpus
                    .iter()
                    .map(|(n, bytes)| RouterState {
                        name: n.trim_end_matches(".cfg").to_string(),
                        file_name: n.clone(),
                        fingerprint: bytes.iter().map(|&b| u64::from(b)).sum(),
                        ..RouterState::default()
                    })
                    .collect(),
            );
            let endpoint = corpus
                == &vec![file("a.cfg", "old-a"), file("b.cfg", "old-b")]
                || corpus == &vec![file("a.cfg", "new-a")];
            f.components = if endpoint { 1 } else { 9 };
            f
        };
        let err = plan(&current, &target, analyze).expect_err("no safe order");
        assert!(matches!(err, PlanError::NoSafeOrder { .. }), "{err}");
    }
}
