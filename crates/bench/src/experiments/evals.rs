//! Quantitative experiments E1–E9 (DESIGN.md §4): the studies the
//! paper's thesis implies, run on the cycle-accurate simulator.

use std::fmt::Write;

use rsp_core::cem::CemKind;
use rsp_core::select::TieBreak;
use rsp_fabric::fabric::FabricParams;
use rsp_isa::units::TypeCounts;
use rsp_isa::Program;
use rsp_sim::{PolicyKind, SimConfig};
use rsp_workloads::{kernels, mixes, PhasedSpec, SynthSpec, UnitMix};

use crate::harness::{paper_policy, pivot_rows, policies, run_one, PolicySpec, Row};
use crate::scaled::scaled_paper_set;
use crate::sweep::Sweep;

/// The standard workload battery: four synthetic mixes, one phased
/// stream, and the kernel suite.
fn workloads() -> Vec<Program> {
    let mut out: Vec<Program> = UnitMix::named()
        .into_iter()
        .map(|(name, mix)| {
            SynthSpec {
                body_len: 1500,
                ..SynthSpec::new(name, mix, 42)
            }
            .generate()
        })
        .collect();
    out.push(PhasedSpec::int_fp_mem(600, 1, 42).generate());
    out.extend(kernels::suite());
    out
}

/// One E1 grid point: a workload crossed with a policy variant, both
/// referenced by their stable labels (the key is built from nothing
/// else).
#[derive(Debug, Clone)]
pub(crate) struct E1Point {
    /// Workload label.
    pub workload: String,
    /// Policy label ([`PolicySpec::label`]).
    pub policy: String,
}

/// E1 — IPC of steering vs static configurations vs FFU floor vs oracle,
/// across the workload battery — as a [`Sweep`] (shardable, cacheable,
/// artifact `BENCH_e1_ipc.json`).
pub(crate) struct E1Sweep {
    programs: Vec<Program>,
    specs: Vec<PolicySpec>,
}

impl E1Sweep {
    /// The full E1 grid: workload battery × standard policy set.
    pub(crate) fn new() -> E1Sweep {
        E1Sweep {
            programs: workloads(),
            specs: policies(),
        }
    }
}

impl Default for E1Sweep {
    fn default() -> E1Sweep {
        E1Sweep::new()
    }
}

impl Sweep for E1Sweep {
    type Point = E1Point;
    type Row = Row;

    fn name(&self) -> &'static str {
        "e1_ipc"
    }

    fn points(&self) -> Vec<E1Point> {
        self.programs
            .iter()
            .flat_map(|p| {
                self.specs.iter().map(|spec| E1Point {
                    workload: p.name.clone(),
                    policy: spec.label.clone(),
                })
            })
            .collect()
    }

    fn key(&self, point: &E1Point) -> String {
        format!("{}|{}", point.workload, point.policy)
    }

    fn run_point(&self, point: &E1Point) -> Row {
        let p = self
            .programs
            .iter()
            .find(|p| p.name == point.workload)
            .expect("point references a battery workload");
        let spec = self
            .specs
            .iter()
            .find(|s| s.label == point.policy)
            .expect("point references a standard policy");
        Row::labelled(&p.name, &spec.label, &run_one(spec.cfg.clone(), p))
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_e1_ipc.json")
    }

    fn report(&self, rows: &[Row]) -> String {
        let wl: Vec<String> = self.programs.iter().map(|p| p.name.clone()).collect();
        let cols: Vec<String> = self.specs.iter().map(|s| s.label.clone()).collect();
        let matches = |r: &Row, w: &str, c: &str| r.workload == w && r.policy == c;
        let mut s = String::from("# E1 — IPC by workload and policy\n\n");
        s.push_str(&pivot_rows(
            "IPC (higher is better)",
            rows,
            &wl,
            &cols,
            matches,
            |r| format!("{:.3}", r.ipc),
        ));
        s.push_str("\nreconfigurations started:\n");
        s.push_str(&pivot_rows("", rows, &wl, &cols, matches, |r| {
            r.reconfigs.to_string()
        }));

        // Headline: on each single-mix workload, steering must at least
        // match the best static within noise, and beat the *worst*
        // static clearly.
        let mut wins = 0;
        let mut total = 0;
        for w in &wl {
            let get = |c: &str| {
                rows.iter()
                    .find(|r| matches(r, w, c))
                    .map(|r| r.ipc)
                    .unwrap()
            };
            let steer = get("paper-steering");
            let worst = (0..3)
                .map(|i| get(&format!("static:Config {}", i + 1)))
                .fold(f64::INFINITY, f64::min);
            total += 1;
            if steer >= worst {
                wins += 1;
            }
        }
        let _ = writeln!(s, "\nsteering ≥ worst-static on {wins}/{total} workloads");
        s
    }
}

/// E2 — partial reconfiguration vs full reload: reconfiguration work and
/// IPC on phased workloads.
pub(crate) fn e2_partial() -> String {
    let programs: Vec<Program> = (0..4)
        .map(|seed| PhasedSpec::int_fp_mem(400, 2, seed).generate())
        .collect();
    let mut s = String::from("# E2 — partial reconfiguration vs full reload\n\n");
    let _ = writeln!(
        s,
        "{:<24} {:>14} {:>14} {:>12} {:>12} {:>10} {:>10}",
        "workload(seed)",
        "partial:slots",
        "full:slots",
        "partial:IPC",
        "full:IPC",
        "p:loads",
        "f:loads"
    );
    let rows: Vec<String> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let partial = run_one(
                paper_policy(TieBreak::FavorCurrent, CemKind::BarrelShifter, true),
                p,
            );
            let full = run_one(
                paper_policy(TieBreak::FavorCurrent, CemKind::BarrelShifter, false),
                p,
            );
            format!(
                "{:<24} {:>14} {:>14} {:>12.3} {:>12.3} {:>10} {:>10}",
                format!("phased(seed={i})"),
                partial.fabric.slots_reloaded,
                full.fabric.slots_reloaded,
                partial.ipc(),
                full.ipc(),
                partial.fabric.loads_started,
                full.fabric.loads_started
            )
        })
        .collect();
    for r in rows {
        let _ = writeln!(s, "{r}");
    }
    let _ = writeln!(
        s,
        "\n(partial reconfiguration must reload fewer slots at equal or better IPC)"
    );
    s
}

/// E3 — the favor-current stability rule: steering churn and IPC with
/// and without it.
pub(crate) fn e3_stability() -> String {
    let mut programs = vec![
        SynthSpec {
            body_len: 2000,
            ..SynthSpec::new("balanced", UnitMix::BALANCED, 47)
        }
        .generate(),
        PhasedSpec::int_fp_mem(500, 2, 47).generate(),
    ];
    programs.push(
        SynthSpec {
            body_len: 2000,
            ..SynthSpec::new("fp-heavy", UnitMix::FP_HEAVY, 48)
        }
        .generate(),
    );
    let mut s = String::from("# E3 — tie-break stability rule (favor-current) ablation\n\n");
    let _ = writeln!(
        s,
        "{:<24} {:<18} {:>10} {:>12} {:>12} {:>10}",
        "workload", "tie rule", "IPC", "sel-changes", "slots-reload", "settled%"
    );
    for p in &programs {
        for (label, tie) in [
            ("favor-current", TieBreak::FavorCurrent),
            ("prefer-predefined", TieBreak::PreferPredefined),
        ] {
            let r = run_one(paper_policy(tie, CemKind::BarrelShifter, true), p);
            let loader = &r.loader;
            let settled = 100.0 * loader.selections[0] as f64
                / loader.selections.iter().sum::<u64>().max(1) as f64;
            let _ = writeln!(
                s,
                "{:<24} {:<18} {:>10.3} {:>12} {:>12} {:>9.1}%",
                p.name,
                label,
                r.ipc(),
                loader.selection_changes,
                r.fabric.slots_reloaded,
                settled
            );
        }
    }
    let _ = writeln!(
        s,
        "\n(the paper's rule keeps the fabric settled: fewer reloads at equal IPC)"
    );
    s
}

/// E4 — IPC vs per-slot reconfiguration latency.
pub(crate) fn e4_latency() -> String {
    let p = PhasedSpec::int_fp_mem(500, 2, 59).generate();
    let latencies: Vec<u64> = vec![0, 1, 2, 4, 8, 16, 32, 64, 128, 256];
    let mut s =
        String::from("# E4 — IPC vs per-slot reconfiguration latency (phased workload)\n\n");
    let _ = writeln!(
        s,
        "{:>8} {:>16} {:>16} {:>20}",
        "latency", "paper-steering", "demand-driven", "static:Config 1 (flat)"
    );
    let static_ref = run_one(SimConfig::static_on(0), &p).ipc();
    let rows: Vec<String> = latencies
        .iter()
        .map(|&lat| {
            let mk = |policy: PolicyKind| SimConfig {
                policy,
                fabric: FabricParams {
                    per_slot_load_latency: lat,
                    ..FabricParams::default()
                },
                ..SimConfig::default()
            };
            let paper = run_one(mk(PolicyKind::PAPER), &p);
            let demand = run_one(
                SimConfig {
                    initial_config: None,
                    ..mk(PolicyKind::DemandDriven)
                },
                &p,
            );
            format!(
                "{:>8} {:>16.3} {:>16.3} {:>20.3}",
                lat,
                paper.ipc(),
                demand.ipc(),
                static_ref
            )
        })
        .collect();
    for r in rows {
        let _ = writeln!(s, "{r}");
    }
    let _ = writeln!(
        s,
        "\n(steering degrades gracefully with latency and crosses the static line\nwhen reconfiguration becomes too expensive to amortise)"
    );
    s
}

/// E5 — barrel-shifter vs exact-divider CEM: selection agreement (static
/// sweep) and end-to-end IPC.
pub(crate) fn e5_divider() -> String {
    let mut s = String::from("# E5 — CEM division: barrel shifter vs exact divider\n\n");
    // End-to-end IPC across the battery.
    let programs = workloads();
    let _ = writeln!(
        s,
        "{:<24} {:>14} {:>14}",
        "workload", "shifter:IPC", "exact:IPC"
    );
    let rows: Vec<(String, f64, f64)> = programs
        .iter()
        .map(|p| {
            let a = run_one(
                paper_policy(TieBreak::FavorCurrent, CemKind::BarrelShifter, true),
                p,
            );
            let b = run_one(
                paper_policy(TieBreak::FavorCurrent, CemKind::ExactDivider, true),
                p,
            );
            (p.name.clone(), a.ipc(), b.ipc())
        })
        .collect();
    let mut max_gap = 0.0f64;
    for (name, a, b) in &rows {
        let _ = writeln!(s, "{:<24} {:>14.3} {:>14.3}", name, a, b);
        max_gap = max_gap.max((a - b).abs() / b.max(1e-9));
    }
    let _ = writeln!(
        s,
        "\nmax relative IPC gap: {:.2}% — the paper's cheap shifter loses little\n(see `experiments fig3` for the static selection-agreement sweep)",
        max_gap * 100.0
    );
    s
}

/// E6 — steering-basis search (paper §5 future work).
pub(crate) fn e6_basis() -> String {
    use rsp_core::basis::{basis_score, exhaustive_basis, greedy_basis, maximal_shapes};
    use rsp_core::cem::CemUnit;
    let ffu = TypeCounts::new([1, 1, 1, 1, 1]);
    let candidates = maximal_shapes(8);
    let samples = mixes::mixed_population(800, 7);
    let paper = [
        TypeCounts::new([2, 1, 2, 0, 0]),
        TypeCounts::new([1, 1, 1, 1, 0]),
        TypeCounts::new([0, 0, 2, 1, 1]),
    ];
    let paper_score = basis_score(&paper, &ffu, &samples, CemUnit::PAPER);
    let (gb, gs) = greedy_basis(3, &candidates, &ffu, &samples, CemUnit::PAPER);
    let (eb, es) = exhaustive_basis(3, &candidates, &ffu, &samples, CemUnit::PAPER);
    let mut s = String::from("# E6 — optimal steering basis (paper §5 future work)\n\n");
    let _ = writeln!(
        s,
        "candidate space: {} maximal shapes; {} demand samples\n",
        candidates.len(),
        samples.len()
    );
    let show = |s: &mut String, label: &str, basis: &[TypeCounts], score: f64| {
        let _ = writeln!(s, "{label} (mean CEM error {score:.1}):");
        for b in basis {
            let _ = writeln!(s, "  {b}");
        }
    };
    show(&mut s, "paper basis (Table 1)", &paper, paper_score);
    show(&mut s, "greedy basis", &gb, gs);
    show(&mut s, "exhaustive-optimal basis", &eb, es);
    let _ = writeln!(
        s,
        "\nimprovement over the paper's hand-built basis: {:.1}%",
        (paper_score - es) / paper_score * 100.0
    );
    assert!(es <= gs && gs <= paper_score + 1e-9);
    s
}

/// E7 — steering without predefined configurations: paper steering vs
/// the demand-driven allocator at realistic reconfiguration latency.
pub(crate) fn e7_demand() -> String {
    let programs = workloads();
    let mut s = String::from(
        "# E7 — predefined-configuration steering vs demand-driven steering\n(same fabric, same 32-cycle/slot latency)\n\n",
    );
    let _ = writeln!(
        s,
        "{:<24} {:>12} {:>12} {:>12} {:>12}",
        "workload", "paper:IPC", "demand:IPC", "paper:loads", "demand:loads"
    );
    let rows: Vec<String> = programs
        .iter()
        .map(|p| {
            let paper = run_one(SimConfig::default(), p);
            let demand = run_one(
                SimConfig {
                    policy: PolicyKind::DemandDriven,
                    ..SimConfig::default()
                },
                p,
            );
            format!(
                "{:<24} {:>12.3} {:>12.3} {:>12} {:>12}",
                p.name,
                paper.ipc(),
                demand.ipc(),
                paper.fabric.loads_started,
                demand.fabric.loads_started
            )
        })
        .collect();
    for r in rows {
        let _ = writeln!(s, "{r}");
    }
    s
}

/// E8 — the FFU guarantee: everything terminates with reconfiguration
/// effectively disabled; the FFU-only floor quantifies what the fabric
/// adds.
pub(crate) fn e8_ffu() -> String {
    let mut s = String::from("# E8 — FFU forward-progress guarantee\n\n");
    let _ = writeln!(
        s,
        "{:<24} {:>14} {:>14} {:>12}",
        "workload", "ffu-only:IPC", "steering:IPC", "speedup"
    );
    let mut cfg = SimConfig {
        initial_config: None,
        ..SimConfig::default()
    };
    cfg.fabric.per_slot_load_latency = 1_000_000_000; // never completes within budget
    let programs = workloads();
    let rows: Vec<String> = programs
        .iter()
        .map(|p| {
            let floor = run_one(cfg.clone(), p);
            assert!(floor.halted, "{} must halt on FFUs alone", p.name);
            assert_eq!(floor.issued_rfu, 0);
            let steer = run_one(SimConfig::default(), p);
            format!(
                "{:<24} {:>14.3} {:>14.3} {:>11.2}x",
                p.name,
                floor.ipc(),
                steer.ipc(),
                steer.ipc() / floor.ipc().max(1e-9)
            )
        })
        .collect();
    for r in rows {
        let _ = writeln!(s, "{r}");
    }
    let _ = writeln!(
        s,
        "\n(every workload halts even when no RFU can ever be loaded)"
    );
    s
}

/// E9 — scaling: IPC vs queue depth and vs RFU slot count.
pub(crate) fn e9_scaling() -> String {
    let p = PhasedSpec::int_fp_mem(500, 2, 61).generate();
    let mut s = String::from("# E9 — scaling the 7-entry queue and the 8-slot fabric\n\n");

    let queue_sizes = [3usize, 5, 7, 11, 15, 23, 31];
    let _ = writeln!(s, "queue-depth sweep (8-slot fabric, paper steering):");
    let _ = writeln!(s, "{:>8} {:>10}", "queue", "IPC");
    let rows: Vec<String> = queue_sizes
        .iter()
        .map(|&q| {
            let cfg = SimConfig {
                queue_size: q,
                rob_size: q.max(32),
                ..SimConfig::default()
            };
            format!("{:>8} {:>10.3}", q, run_one(cfg, &p).ipc())
        })
        .collect();
    for r in rows {
        let _ = writeln!(s, "{r}");
    }

    let slot_counts = [4usize, 6, 8, 12, 16];
    let _ = writeln!(
        s,
        "\nfabric-size sweep (7-entry queue, scaled steering sets):"
    );
    let _ = writeln!(
        s,
        "{:>8} {:>10} {:>36}",
        "slots", "IPC", "scaled Config 3 counts"
    );
    let rows: Vec<String> = slot_counts
        .iter()
        .map(|&n| {
            let set = scaled_paper_set(n);
            let c3 = set.predefined[2].counts;
            let cfg = SimConfig {
                steering_set: set,
                fabric: FabricParams {
                    rfu_slots: n,
                    ..FabricParams::default()
                },
                ..SimConfig::default()
            };
            format!(
                "{:>8} {:>10.3} {:>36}",
                n,
                run_one(cfg, &p).ipc(),
                c3.to_string()
            )
        })
        .collect();
    for r in rows {
        let _ = writeln!(s, "{r}");
    }
    let _ = writeln!(
        s,
        "\n(the 7-entry queue is the window: IPC saturates once the queue stops\nbeing the bottleneck; fabric growth helps while unit contention dominates)"
    );
    s
}

/// E10 — demand-signature ambiguity: the paper's §3.1 says the selection
/// unit inspects instructions "ready to be executed", §3.2 says
/// instructions "that have not been scheduled". Both readings are
/// implemented; this experiment measures whether the difference matters.
pub(crate) fn e10_demand_mode() -> String {
    use rsp_sim::DemandMode;
    let programs = workloads();
    let mut s =
        String::from("# E10 — demand signature: ready-only (§3.1) vs all-unscheduled (§3.2)\n\n");
    let _ = writeln!(
        s,
        "{:<24} {:>12} {:>12} {:>14} {:>14}",
        "workload", "ready:IPC", "unsched:IPC", "ready:loads", "unsched:loads"
    );
    let rows: Vec<String> = programs
        .iter()
        .map(|p| {
            let mk = |mode: DemandMode| SimConfig {
                demand_mode: mode,
                ..SimConfig::default()
            };
            let ready = run_one(mk(DemandMode::Ready), p);
            let unsched = run_one(mk(DemandMode::Unscheduled), p);
            format!(
                "{:<24} {:>12.3} {:>12.3} {:>14} {:>14}",
                p.name,
                ready.ipc(),
                unsched.ipc(),
                ready.fabric.loads_started,
                unsched.fabric.loads_started
            )
        })
        .collect();
    for r in rows {
        let _ = writeln!(s, "{r}");
    }
    let _ = writeln!(
        s,
        "\n(unscheduled-demand sees blocked dependents too, so its signature is\nlarger and smoother; ready-demand reacts only to issueable work)"
    );
    s
}

/// E11 — demand smoothing (our extension, motivated by the churn E1/E10
/// exposed): EWMA-filter the demand with α = 2^-k and sweep k.
pub(crate) fn e11_smoothing() -> String {
    let programs = workloads();
    let shifts = [0u32, 1, 2, 3, 4, 5];
    let mut s = String::from(
        "# E11 — shift-based EWMA demand smoothing in front of the selection unit\n\n",
    );
    let _ = writeln!(
        s,
        "IPC by smoothing shift k (alpha = 2^-k; k=0 is the paper's unfiltered unit):"
    );
    let _ = write!(s, "{:<24}", "workload");
    for k in shifts {
        let _ = write!(s, "{:>9}", format!("k={k}"));
    }
    let _ = writeln!(s, "{:>18}", "reloads k=0 / k=3");
    let rows: Vec<String> = programs
        .iter()
        .map(|p| {
            let mut line = format!("{:<24}", p.name);
            let mut reloads = (0u64, 0u64);
            for k in shifts {
                let cfg = SimConfig {
                    policy: PolicyKind::PaperSmoothed { shift: k },
                    ..SimConfig::default()
                };
                let r = run_one(cfg, p);
                if k == 0 {
                    reloads.0 = r.fabric.slots_reloaded;
                }
                if k == 3 {
                    reloads.1 = r.fabric.slots_reloaded;
                }
                line.push_str(&format!("{:>9.3}", r.ipc()));
            }
            line.push_str(&format!("{:>12} / {}", reloads.0, reloads.1));
            line
        })
        .collect();
    for r in rows {
        let _ = writeln!(s, "{r}");
    }
    let _ = writeln!(
        s,
        "\n(moderate smoothing suppresses reconfiguration churn on oscillating\ndemand at no cost on stable demand; large k makes steering too sluggish\nfor short phases)"
    );
    s
}

/// E12 — select-free scheduling cost: the paper adopts the wake-up array
/// of Brown/Stark/Patt, whose point is removing the select logic from the
/// critical path at the price of occasional collisions. Measure that
/// price in this machine.
pub(crate) fn e12_selectfree() -> String {
    use rsp_sim::SelectMode;
    let programs = workloads();
    let penalties = [1u32, 2, 4];
    let mut s = String::from("# E12 — precise arbiter vs select-free collision recovery\n\n");
    let _ = write!(s, "{:<24} {:>12}", "workload", "arbiter:IPC");
    for p in penalties {
        let _ = write!(s, "{:>14}", format!("sf(p={p}):IPC"));
    }
    let _ = writeln!(s, "{:>16}", "collisions(p=2)");
    let rows: Vec<String> = programs
        .iter()
        .map(|p| {
            let base = run_one(SimConfig::default(), p);
            let mut line = format!("{:<24} {:>12.3}", p.name, base.ipc());
            let mut coll = 0;
            for pen in penalties {
                let cfg = SimConfig {
                    select_mode: SelectMode::SelectFree { penalty: pen },
                    ..SimConfig::default()
                };
                let r = run_one(cfg, p);
                if pen == 2 {
                    coll = r.collisions;
                }
                line.push_str(&format!("{:>14.3}", r.ipc()));
            }
            line.push_str(&format!("{coll:>16}"));
            line
        })
        .collect();
    for r in rows {
        let _ = writeln!(s, "{r}");
    }
    let _ = writeln!(
        s,
        "\n(collisions are rare enough that select-free loses only a few percent —\nconsistent with Brown/Stark/Patt's premise, which the paper builds on)"
    );
    s
}

/// E13 — hardware cost of the selection unit: the paper's
/// complexity/latency argument for the barrel shifter, as first-order
/// gate estimates (see `rsp_core::hwcost` for the model's conventions).
pub(crate) fn e13_hwcost() -> String {
    use rsp_core::hwcost::{report, selection_unit_cost};
    let mut s = String::from("# E13 — selection-unit hardware cost (first-order gate model)\n\n");
    let _ = writeln!(
        s,
        "paper machine (7-entry queue, 5 types, 3 predefined configs):\n"
    );
    s.push_str(&report(7));
    let _ = writeln!(s, "\nscaling with queue depth (shifter CEM):");
    let _ = writeln!(s, "{:>8} {:>12} {:>12}", "queue", "gates", "depth");
    for q in [7u32, 15, 31, 63] {
        let c = selection_unit_cost(q, 5, 3, 6, false);
        let _ = writeln!(s, "{:>8} {:>12} {:>12}", q, c.total.gates, c.total.depth);
    }
    let _ = writeln!(
        s,
        "\n(the shifter CEM keeps stage 3 at wiring + one small adder tree; the\nexact divider multiplies stage-3 area and more than doubles its depth —\nthe paper's \"increased complexity and latency\", quantified)"
    );
    s
}

/// E14 — front-end sensitivity: does steering's benefit survive a better
/// branch predictor? (A sharper front end feeds the queue faster, raising
/// both demand pressure and the value of a well-matched fabric.)
pub(crate) fn e14_predictor() -> String {
    use rsp_sim::BranchPrediction;
    let programs = workloads();
    let mut s = String::from("# E14 — not-taken vs bimodal branch prediction\n\n");
    let _ = writeln!(
        s,
        "{:<24} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "workload", "nt:IPC", "bimodal:IPC", "nt:flush", "bi:flush", "steer-gain(bi)"
    );
    let rows: Vec<String> = programs
        .iter()
        .map(|p| {
            let nt = run_one(SimConfig::default(), p);
            let bi_cfg = SimConfig {
                branch_prediction: BranchPrediction::Bimodal { entries: 512 },
                ..SimConfig::default()
            };
            let bi = run_one(bi_cfg.clone(), p);
            // Steering's edge over the worst static, under bimodal.
            let worst_static = (0..3)
                .map(|i| {
                    run_one(
                        SimConfig {
                            branch_prediction: BranchPrediction::Bimodal { entries: 512 },
                            ..SimConfig::static_on(i)
                        },
                        p,
                    )
                    .ipc()
                })
                .fold(f64::INFINITY, f64::min);
            format!(
                "{:<24} {:>12.3} {:>12.3} {:>12} {:>12} {:>13.2}x",
                p.name,
                nt.ipc(),
                bi.ipc(),
                nt.flushes,
                bi.flushes,
                bi.ipc() / worst_static.max(1e-9)
            )
        })
        .collect();
    for r in rows {
        let _ = writeln!(s, "{r}");
    }
    let _ = writeln!(
        s,
        "\n(steering's advantage over a mismatched fabric persists — and grows on\nloop workloads — when the front end stops flushing every back edge)"
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // The heavyweight sweeps are exercised end-to-end by the experiments
    // binary; here we smoke-test the cheap ones and the invariants they
    // assert internally.

    #[test]
    fn e6_basis_improves_or_matches_paper() {
        let t = e6_basis();
        assert!(t.contains("exhaustive-optimal"), "{t}");
    }

    #[test]
    fn e3_runs_and_reports_settled_fraction() {
        let t = e3_stability();
        assert!(t.contains("favor-current"), "{t}");
        assert!(t.contains('%'), "{t}");
    }

    #[test]
    fn e9_scaling_runs() {
        let t = e9_scaling();
        assert!(t.contains("queue"), "{t}");
        assert!(t.contains("slots"), "{t}");
    }
}
