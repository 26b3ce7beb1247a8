//! Multi-stage studies as a DAG over cached artifacts (DESIGN.md §17).
//!
//! A [`StudyDag`] composes sweeps with downstream transforms — sweep →
//! pivot/analysis → report — into a dependency graph whose nodes are
//! all content-addressed artifacts in the same [`CasStore`] the sweep
//! points live in:
//!
//! * a **sweep node**'s key hashes the study name, node id, and *every
//!   point's cache key* ([`canon::stage_cache_key`] over
//!   [`SweepRunner::point_hashes`]) — so it is computable before any
//!   point has run, and any changed parameter, grid shape, or code
//!   version changes the node key too;
//! * a **stage node**'s key hashes its upstream node keys, so
//!   invalidation propagates down the DAG by construction.
//!
//! Execution is topological with per-node up-to-date short-circuiting:
//! a node whose key is already in the store is not recomputed (a cached
//! sweep node still re-verifies its rows and re-renders its
//! `BENCH_*.json`, so artifacts reappear byte-identical without running
//! a single point). `study status` answers entirely from key
//! derivation + store lookups, cold.

use std::collections::BTreeMap;

use serde_json::Value;

use super::cas::{CasStore, ObjectMeta};
use super::{canon, CacheSnapshot, SweepConfig, SweepError, SweepRunner};

/// A stage node's transform: dep artifacts in (dep order = declaration
/// order), one artifact out.
pub type StageFn = dyn Fn(&[Value]) -> Result<Value, String> + Send + Sync;

/// What one DAG node does.
pub enum StageOp {
    /// Run a sweep (points individually cached) and publish its ordered
    /// row array as the node artifact.
    Sweep(Box<dyn SweepRunner>),
    /// A pure transform of the dep nodes' artifacts (dep order =
    /// declaration order).
    Stage(Box<StageFn>),
}

/// One node of a study.
pub struct StudyNode {
    /// Node id, unique within the study.
    pub id: &'static str,
    /// Upstream node ids (empty for sweep nodes).
    pub deps: Vec<&'static str>,
    /// The node's operation.
    pub op: StageOp,
}

/// A named DAG of sweeps and transforms over the artifact store.
pub struct StudyDag {
    name: &'static str,
    nodes: Vec<StudyNode>,
}

/// One node's derived execution plan: its key and cache state.
#[derive(Debug, Clone)]
pub struct NodePlan {
    /// Node id.
    pub id: &'static str,
    /// `"sweep"` or `"stage"`.
    pub kind: &'static str,
    /// The node's content-addressed key.
    pub key: String,
    /// Whether the store already holds the node's artifact.
    pub cached: bool,
}

/// What one executed node did.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Node id.
    pub id: &'static str,
    /// `"sweep"` or `"stage"`.
    pub kind: &'static str,
    /// The node's content-addressed key.
    pub key: String,
    /// True if the node artifact was already in the store.
    pub cached: bool,
    /// Points merged, for sweep nodes.
    pub points: Option<usize>,
}

/// What a whole `study run` did.
#[derive(Debug)]
pub struct StudyReport {
    /// The study's name.
    pub name: &'static str,
    /// Per-node outcomes, in execution order.
    pub nodes: Vec<NodeOutcome>,
    /// Point-level cache counters aggregated across the sweep nodes
    /// that actually ran.
    pub cache: CacheSnapshot,
    /// How many nodes short-circuited as already cached.
    pub nodes_cached: usize,
    /// The terminal report text (concatenated string outputs of leaf
    /// nodes), also written to `STUDY_<name>.txt`.
    pub report: String,
}

impl StudyDag {
    /// An empty study.
    pub fn new(name: &'static str) -> StudyDag {
        StudyDag {
            name,
            nodes: Vec::new(),
        }
    }

    /// The study's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The nodes, in declaration order.
    pub fn nodes(&self) -> &[StudyNode] {
        &self.nodes
    }

    /// Add a sweep node (no deps: a sweep's inputs are its own points).
    pub fn sweep(mut self, id: &'static str, runner: Box<dyn SweepRunner>) -> StudyDag {
        self.nodes.push(StudyNode {
            id,
            deps: Vec::new(),
            op: StageOp::Sweep(runner),
        });
        self
    }

    /// Add a transform node over `deps`' artifacts.
    pub fn stage(
        mut self,
        id: &'static str,
        deps: &[&'static str],
        apply: impl Fn(&[Value]) -> Result<Value, String> + Send + Sync + 'static,
    ) -> StudyDag {
        self.nodes.push(StudyNode {
            id,
            deps: deps.to_vec(),
            op: StageOp::Stage(Box::new(apply)),
        });
        self
    }

    /// Topological order (Kahn), rejecting duplicate ids, unknown deps,
    /// and cycles.
    fn topo_order(&self) -> Result<Vec<usize>, SweepError> {
        let mut index_of: BTreeMap<&'static str, usize> = BTreeMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if index_of.insert(n.id, i).is_some() {
                return Err(SweepError::Study(format!(
                    "{}: duplicate node id {:?}",
                    self.name, n.id
                )));
            }
        }
        let mut indegree = vec![0usize; self.nodes.len()];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for dep in &n.deps {
                let Some(&d) = index_of.get(dep) else {
                    return Err(SweepError::Study(format!(
                        "{}: node {:?} depends on unknown node {:?}",
                        self.name, n.id, dep
                    )));
                };
                indegree[i] += 1;
                dependents[d].push(i);
            }
        }
        let mut ready: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| indegree[i] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(i) = ready.pop() {
            order.push(i);
            for &j in &dependents[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    ready.push(j);
                }
            }
        }
        if order.len() != self.nodes.len() {
            let stuck: Vec<&str> = indegree
                .iter()
                .enumerate()
                .filter(|(_, &d)| d > 0)
                .map(|(i, _)| self.nodes[i].id)
                .collect();
            return Err(SweepError::Study(format!(
                "{}: dependency cycle through {stuck:?}",
                self.name
            )));
        }
        // Kahn with a stack visits in reverse-ready order; re-sort by
        // (topo level preserved) declaration index for deterministic,
        // declaration-friendly execution order.
        stable_topo(&self.nodes, order)
    }

    /// Every node's key + cache state, computed without running
    /// anything — the `study status` answer and the gc roots.
    pub fn plan(&self, cfg: &SweepConfig, store: &CasStore) -> Result<Vec<NodePlan>, SweepError> {
        let order = self.topo_order()?;
        let mut keys: BTreeMap<&'static str, String> = BTreeMap::new();
        let mut plans = Vec::with_capacity(order.len());
        for i in order {
            let node = &self.nodes[i];
            let (kind, key) = self.node_key(node, cfg, &keys)?;
            keys.insert(node.id, key.clone());
            plans.push(NodePlan {
                id: node.id,
                kind,
                key: key.clone(),
                cached: store.contains(&key),
            });
        }
        Ok(plans)
    }

    fn node_key(
        &self,
        node: &StudyNode,
        cfg: &SweepConfig,
        keys: &BTreeMap<&'static str, String>,
    ) -> Result<(&'static str, String), SweepError> {
        match &node.op {
            StageOp::Sweep(runner) => {
                if !runner.cacheable() {
                    return Err(SweepError::Study(format!(
                        "{}: sweep node {:?} ({}) is not cacheable — wall-clock \
                         sweeps cannot be study nodes",
                        self.name,
                        node.id,
                        runner.name()
                    )));
                }
                let inputs = runner.point_hashes(cfg)?;
                Ok((
                    "sweep",
                    canon::stage_cache_key(self.name, node.id, "sweep", &inputs, &cfg.code_version),
                ))
            }
            StageOp::Stage(_) => {
                let inputs: Vec<String> = node
                    .deps
                    .iter()
                    .map(|d| keys[d].clone()) // topo order guarantees presence
                    .collect();
                Ok((
                    "stage",
                    canon::stage_cache_key(self.name, node.id, "stage", &inputs, &cfg.code_version),
                ))
            }
        }
    }

    /// Execute the study: topological order, each node short-circuiting
    /// if its key is already in the store. Requires `cfg.cache_dir`.
    pub fn run(&self, cfg: &SweepConfig) -> Result<StudyReport, SweepError> {
        let store = self.open_store(cfg)?;
        let order = self.topo_order()?;
        let mut keys: BTreeMap<&'static str, String> = BTreeMap::new();
        let mut outputs: BTreeMap<&'static str, Value> = BTreeMap::new();
        let mut outcomes = Vec::with_capacity(order.len());
        let mut cache = CacheSnapshot::default();
        let mut nodes_cached = 0usize;

        for i in order {
            let node = &self.nodes[i];
            let (kind, key) = self.node_key(node, cfg, &keys)?;
            keys.insert(node.id, key.clone());
            let logical = format!("{}/{}", self.name, node.id);

            let (output, cached, points) = match store.load(&key, Some(&logical))? {
                Some(obj) => {
                    // Up-to-date: the artifact exists under the exact
                    // hash of this node's inputs. Sweep nodes still
                    // re-verify and re-render BENCH_*.json so on-disk
                    // artifacts reappear byte-identically.
                    let points = match &node.op {
                        StageOp::Sweep(runner) => {
                            let summary = runner.render_from_rows(&obj.row, cfg)?;
                            Some(summary.points)
                        }
                        StageOp::Stage(_) => None,
                    };
                    nodes_cached += 1;
                    (obj.row, true, points)
                }
                None => {
                    let (output, points, inputs) = match &node.op {
                        StageOp::Sweep(runner) => {
                            let (summary, rows) = runner.run_and_merge(cfg)?;
                            if let Some(c) = summary.cache {
                                cache.hits += c.hits;
                                cache.misses += c.misses;
                                cache.claim_waits += c.claim_waits;
                                cache.quarantined += c.quarantined;
                            }
                            (rows, Some(summary.points), runner.point_hashes(cfg)?)
                        }
                        StageOp::Stage(apply) => {
                            let dep_values: Vec<Value> =
                                node.deps.iter().map(|d| outputs[d].clone()).collect();
                            let out = apply(&dep_values)
                                .map_err(|msg| SweepError::Study(format!("{logical}: {msg}")))?;
                            let inputs: Vec<String> =
                                node.deps.iter().map(|d| keys[d].clone()).collect();
                            (out, None, inputs)
                        }
                    };
                    store.store(
                        &ObjectMeta {
                            hash: key.clone(),
                            kind: "stage",
                            name: logical.clone(),
                            key: logical.clone(),
                            code_version: cfg.code_version.clone(),
                            inputs,
                        },
                        &output,
                    )?;
                    (output, false, points)
                }
            };

            outputs.insert(node.id, output);
            outcomes.push(NodeOutcome {
                id: node.id,
                kind,
                key,
                cached,
                points,
            });
        }

        // The report: every leaf (depended-on-by-nobody) node whose
        // artifact is a string, in declaration order.
        let mut report = String::new();
        for node in &self.nodes {
            let is_dep = self.nodes.iter().any(|n| n.deps.contains(&node.id));
            if is_dep {
                continue;
            }
            if let Some(Value::Str(text)) = outputs.get(node.id) {
                if !report.is_empty() {
                    report.push('\n');
                }
                report.push_str(text);
            }
        }
        if !report.is_empty() {
            super::write_artifact(&cfg.out_dir, &format!("STUDY_{}.txt", self.name), &report)?;
        }

        Ok(StudyReport {
            name: self.name,
            nodes: outcomes,
            cache,
            nodes_cached,
            report,
        })
    }

    /// Render the `study status` listing without running anything.
    pub fn status(&self, cfg: &SweepConfig) -> Result<String, SweepError> {
        let store = self.open_store(cfg)?;
        let plans = self.plan(cfg, &store)?;
        let done = plans.iter().filter(|p| p.cached).count();
        let mut out = format!(
            "study {} ({}/{} node(s) cached)\n",
            self.name,
            done,
            plans.len()
        );
        for p in &plans {
            out.push_str(&format!(
                "  [{}] {:<6} {:<12} {}\n",
                if p.cached { "cached " } else { "pending" },
                p.kind,
                p.id,
                &p.key[..16.min(p.key.len())],
            ));
        }
        Ok(out)
    }

    fn open_store(&self, cfg: &SweepConfig) -> Result<CasStore, SweepError> {
        let Some(dir) = &cfg.cache_dir else {
            return Err(SweepError::Study(format!(
                "{}: study mode needs --cache-dir (nodes live in the artifact store)",
                self.name
            )));
        };
        CasStore::open(dir)
    }
}

/// Re-order a valid topological order so ties break by declaration
/// index (deterministic output, nodes listed roughly as written).
fn stable_topo(nodes: &[StudyNode], mut order: Vec<usize>) -> Result<Vec<usize>, SweepError> {
    // `order` is already topologically valid; a stable sort by
    // (depth, declaration index) preserves validity because a dep
    // always has strictly smaller depth than its dependents.
    let index_of: BTreeMap<&str, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
    let mut depth = vec![0usize; nodes.len()];
    for &i in order.iter() {
        // Process in the valid order, so dep depths are final.
        depth[i] = nodes[i]
            .deps
            .iter()
            .map(|d| depth[index_of[*d]] + 1)
            .max()
            .unwrap_or(0);
    }
    order.sort_by_key(|&i| (depth[i], i));
    Ok(order)
}

// ---------------------------------------------------------------------------
// Value helpers for stage transforms
// ---------------------------------------------------------------------------

/// Fetch an object field, with a readable error for stage code.
pub fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    v.get(name).ok_or_else(|| format!("missing field {name:?}"))
}

/// Coerce a JSON number (int or float) to `f64`.
pub fn as_f64(v: &Value) -> Result<f64, String> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        other => Err(format!("expected number, got {other:?}")),
    }
}

/// Fetch a string field.
pub fn str_field(v: &Value, name: &str) -> Result<String, String> {
    field(v, name)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("field {name:?} is not a string"))
}

/// Fetch a numeric field as `f64`.
pub fn num_field(v: &Value, name: &str) -> Result<f64, String> {
    as_f64(field(v, name)?)
}

#[cfg(test)]
mod tests {
    use super::super::{Executor, Sweep};
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct MiniSweep {
        computes: Arc<AtomicU64>,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct MiniRow {
        key: String,
        value: f64,
    }

    impl Sweep for MiniSweep {
        type Point = u32;
        type Row = MiniRow;

        fn name(&self) -> &'static str {
            "mini_sweep"
        }
        fn points(&self) -> Vec<u32> {
            (0..4).collect()
        }
        fn key(&self, p: &u32) -> String {
            format!("m{p}")
        }
        fn spec(&self) -> Value {
            Value::Object(vec![("n".into(), Value::Int(4))])
        }
        fn point_params(&self, p: &u32) -> Value {
            Value::Object(vec![("p".into(), Value::Int(*p as i128))])
        }
        fn run_point(&self, p: &u32) -> MiniRow {
            self.computes.fetch_add(1, Ordering::Relaxed);
            MiniRow {
                key: format!("m{p}"),
                value: *p as f64 * 1.5,
            }
        }
        fn artifact(&self) -> Option<&'static str> {
            Some("BENCH_mini_sweep.json")
        }
        fn report(&self, rows: &[MiniRow]) -> String {
            format!("{} mini rows", rows.len())
        }
    }

    fn study_with(computes: Arc<AtomicU64>) -> StudyDag {
        StudyDag::new("mini-study")
            .sweep("sweep", Box::new(MiniSweep { computes }))
            .stage("pivot", &["sweep"], |inputs| {
                let rows = inputs[0].as_array().ok_or("rows not an array")?;
                let total: f64 = rows
                    .iter()
                    .map(|r| num_field(r, "value"))
                    .sum::<Result<f64, String>>()?;
                Ok(Value::Object(vec![("total".into(), Value::Float(total))]))
            })
            .stage("report", &["pivot"], |inputs| {
                Ok(Value::Str(format!(
                    "total = {}",
                    num_field(&inputs[0], "total")?
                )))
            })
    }

    fn cfg(name: &str) -> SweepConfig {
        let base = std::env::temp_dir()
            .join(format!("rsp-study-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        SweepConfig {
            executor: Executor::InProcess,
            out_dir: base.join("out"),
            cache_dir: Some(base.join("cas")),
            code_version: "test-v1".into(),
            ..SweepConfig::default()
        }
    }

    #[test]
    fn run_then_rerun_short_circuits_every_node() {
        let cfg = cfg("rerun");
        let computes = Arc::new(AtomicU64::new(0));
        let first = study_with(computes.clone()).run(&cfg).unwrap();
        assert_eq!(first.nodes_cached, 0);
        assert_eq!(first.cache.misses, 4);
        assert_eq!(first.report, "total = 9");
        assert_eq!(computes.load(Ordering::Relaxed), 4);
        let artifact = cfg.out_dir.join("BENCH_mini_sweep.json");
        let bytes = std::fs::read(&artifact).unwrap();
        std::fs::remove_file(&artifact).unwrap();

        // Warm: no point runs, every node cached, artifact re-rendered
        // byte-identically from the store.
        let second = study_with(computes.clone()).run(&cfg).unwrap();
        assert_eq!(second.nodes_cached, 3);
        assert_eq!(second.cache.misses, 0);
        assert_eq!(second.report, "total = 9");
        assert_eq!(computes.load(Ordering::Relaxed), 4, "no recompute");
        assert_eq!(std::fs::read(&artifact).unwrap(), bytes);
        assert_eq!(
            std::fs::read_to_string(cfg.out_dir.join("STUDY_mini-study.txt")).unwrap(),
            "total = 9"
        );
    }

    #[test]
    fn code_version_change_invalidates_the_whole_dag() {
        let mut cfg = cfg("invalidate");
        let computes = Arc::new(AtomicU64::new(0));
        let first = study_with(computes.clone()).run(&cfg).unwrap();
        assert_eq!(first.nodes_cached, 0);
        cfg.code_version = "test-v2".into();
        let second = study_with(computes.clone()).run(&cfg).unwrap();
        assert_eq!(second.nodes_cached, 0, "new code version must recompute");
        assert_eq!(second.cache.misses, 4);
        assert_eq!(computes.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn status_answers_cold_and_warm() {
        let cfg = cfg("status");
        let s = study_with(Arc::new(AtomicU64::new(0)));
        let cold = s.status(&cfg).unwrap();
        assert!(cold.contains("0/3 node(s) cached"), "{cold}");
        assert!(cold.contains("pending"), "{cold}");
        s.run(&cfg).unwrap();
        let warm = s.status(&cfg).unwrap();
        assert!(warm.contains("3/3 node(s) cached"), "{warm}");
        assert!(!warm.contains("pending"), "{warm}");
    }

    #[test]
    fn malformed_dags_are_rejected() {
        let cfg = cfg("malformed");
        let unknown = StudyDag::new("bad").stage("s", &["nope"], |_| Ok(Value::Null));
        assert!(
            matches!(unknown.run(&cfg), Err(SweepError::Study(msg)) if msg.contains("unknown"))
        );
        let cyclic = StudyDag::new("bad")
            .stage("a", &["b"], |_| Ok(Value::Null))
            .stage("b", &["a"], |_| Ok(Value::Null));
        assert!(matches!(cyclic.run(&cfg), Err(SweepError::Study(msg)) if msg.contains("cycle")));
        let no_store = SweepConfig {
            cache_dir: None,
            ..cfg.clone()
        };
        assert!(matches!(
            study_with(Arc::new(AtomicU64::new(0))).run(&no_store),
            Err(SweepError::Study(msg)) if msg.contains("--cache-dir")
        ));
    }

    #[test]
    fn stage_failure_names_the_node() {
        let cfg = cfg("stage-fail");
        let s = StudyDag::new("failing")
            .sweep(
                "sweep",
                Box::new(MiniSweep {
                    computes: Arc::new(AtomicU64::new(0)),
                }),
            )
            .stage("boom", &["sweep"], |_| Err("kapow".into()));
        let err = s.run(&cfg).unwrap_err();
        assert!(
            matches!(err, SweepError::Study(ref msg) if msg.contains("failing/boom") && msg.contains("kapow")),
            "{err}"
        );
    }

    #[test]
    fn plan_keys_chain_through_deps() {
        let cfg = cfg("plan");
        let store = CasStore::open(cfg.cache_dir.clone().unwrap()).unwrap();
        let s = study_with(Arc::new(AtomicU64::new(0)));
        let plans = s.plan(&cfg, &store).unwrap();
        assert_eq!(
            plans.iter().map(|p| p.id).collect::<Vec<_>>(),
            ["sweep", "pivot", "report"]
        );
        // A different code version must move every key.
        let mut cfg2 = cfg.clone();
        cfg2.code_version = "other".into();
        let plans2 = s.plan(&cfg2, &store).unwrap();
        for (a, b) in plans.iter().zip(&plans2) {
            assert_ne!(a.key, b.key, "node {}", a.id);
        }
    }
}
