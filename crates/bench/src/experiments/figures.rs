//! Table 1 and Figs. 1–7: regenerate each paper artifact's content from
//! the implementation.

use std::fmt::Write;

use rsp_core::cem::{CemUnit, ERROR_SCALE};
use rsp_core::{RequirementEncoder, SelectionUnit};
use rsp_fabric::availability::{available, available_circuit, AvailabilityInputs};
use rsp_fabric::config::SteeringSet;
use rsp_fabric::fabric::FabricParams;
use rsp_isa::regs::{FReg, IReg};
use rsp_isa::units::{TypeCounts, UnitType};
use rsp_isa::{Instruction, Opcode};
use rsp_sched::{DepGraph, EntryState, WakeupArray};
use rsp_sim::{Processor, SimConfig};
use rsp_workloads::paper_example;

/// T1 — Table 1: unit counts per configuration + type encodings, plus a
/// slot-capacity audit.
pub fn table1() -> String {
    let set = SteeringSet::paper_default();
    let mut s = String::new();
    let _ = writeln!(s, "# Table 1 — functional units per configuration\n");
    s.push_str(&set.table1());
    let _ = writeln!(s, "\nCapacity audit ({}-slot fabric):", set.rfu_slots);
    for c in &set.predefined {
        let _ = writeln!(
            s,
            "  {:<9} occupies {} slots: {}",
            c.name,
            c.slot_cost(),
            c.placement
        );
        assert_eq!(c.slot_cost(), set.rfu_slots);
    }
    s
}

/// F1 — Fig. 1: construct the full architecture and dump its components,
/// then smoke-run a program through it.
pub(crate) fn fig1() -> String {
    let cfg = SimConfig::default();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Fig. 1 — the partially run-time reconfigurable architecture\n"
    );
    let _ = writeln!(s, "fixed modules:");
    let _ = writeln!(
        s,
        "  instruction memory + fetch unit   ({}-wide)",
        cfg.fetch_width
    );
    let _ = writeln!(
        s,
        "  trace cache                       ({} groups; hit latency {} vs miss {})",
        cfg.trace_cache_groups, cfg.front_latency_hit, cfg.front_latency_miss
    );
    let _ = writeln!(
        s,
        "  instruction decoder               (binary words -> decoded instructions)"
    );
    let _ = writeln!(
        s,
        "  instruction queue / wake-up array ({} entries)",
        cfg.queue_size
    );
    let _ = writeln!(
        s,
        "  register update unit              ({} entries; OoO issue, in-order completion, forwarding)",
        cfg.rob_size
    );
    let _ = writeln!(s, "  register files                    (32 int + 32 fp)");
    let _ = writeln!(
        s,
        "  data memory                       ({} words)",
        cfg.data_mem_words
    );
    let _ = writeln!(
        s,
        "  configuration manager             (selection unit + loader; policy {:?})",
        cfg.policy
    );
    let _ = writeln!(s, "fixed functional units (FFUs):");
    for t in &cfg.fabric.ffus {
        let _ = writeln!(s, "  1x {t}");
    }
    let _ = writeln!(
        s,
        "reconfigurable fabric: {} RFU slots, {} reconfig port(s), {} cycles/slot",
        cfg.fabric.rfu_slots, cfg.fabric.reconfig_ports, cfg.fabric.per_slot_load_latency
    );
    let _ = writeln!(s, "predefined steering configurations:");
    for c in &cfg.steering_set.predefined {
        let _ = writeln!(s, "  {:<9} {}", c.name, c.counts);
    }

    let program = rsp_workloads::kernels::dot_product(32);
    let r = Processor::new(cfg).run(&program, 1_000_000).unwrap();
    let _ = writeln!(
        s,
        "\nsmoke run ({}): {} instructions in {} cycles, IPC {:.3}, {} reconfigurations",
        program.name,
        r.retired,
        r.cycles,
        r.ipc(),
        r.fabric.loads_started
    );
    s
}

fn demo_queues() -> Vec<(&'static str, Vec<Instruction>)> {
    let r = IReg::new;
    let f = FReg::new;
    vec![
        (
            "integer-heavy",
            vec![
                Instruction::rrr(Opcode::Add, r(1), r(2), r(3)),
                Instruction::rrr(Opcode::Sub, r(4), r(5), r(6)),
                Instruction::rrr(Opcode::Xor, r(7), r(8), r(9)),
                Instruction::rrr(Opcode::Mul, r(10), r(11), r(12)),
                Instruction::lw(r(13), r(1), 0),
                Instruction::lw(r(14), r(1), 1),
                Instruction::rrr(Opcode::And, r(15), r(16), r(17)),
            ],
        ),
        (
            "fp-heavy",
            vec![
                Instruction::fff(Opcode::Fadd, f(1), f(2), f(3)),
                Instruction::fff(Opcode::Fsub, f(4), f(5), f(6)),
                Instruction::fff(Opcode::Fmul, f(7), f(8), f(9)),
                Instruction::fff(Opcode::Fdiv, f(10), f(11), f(12)),
                Instruction::flw(f(13), r(1), 0),
                Instruction::flw(f(14), r(1), 1),
            ],
        ),
        (
            "balanced",
            vec![
                Instruction::rrr(Opcode::Add, r(1), r(2), r(3)),
                Instruction::fff(Opcode::Fadd, f(1), f(2), f(3)),
                Instruction::lw(r(4), r(1), 0),
                Instruction::rrr(Opcode::Mul, r(5), r(6), r(7)),
                Instruction::fff(Opcode::Fmul, f(5), f(6), f(7)),
            ],
        ),
    ]
}

/// F2 — Fig. 2: stage-by-stage trace of the configuration selection unit
/// on representative queues.
pub(crate) fn fig2() -> String {
    let set = SteeringSet::paper_default();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Fig. 2 — configuration selection unit, stage by stage\n"
    );
    for (name, queue) in demo_queues() {
        for current in [0usize, 2] {
            let cur = &set.predefined[current];
            let _ = writeln!(
                s,
                "queue '{name}' with current configuration = {}:",
                cur.name
            );
            for (i, instr) in queue.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "  decoder[{i}]: {:<24} -> {}",
                    instr.to_string(),
                    rsp_core::unit_decoder(instr.opcode)
                );
            }
            let required =
                RequirementEncoder::PAPER.encode(&rsp_core::decode::decode_queue(&queue));
            let _ = writeln!(s, "  requirement encoders: {required}");
            let current_counts = cur.counts.saturating_add(&set.ffu);
            let r = SelectionUnit::PAPER.select(&queue, current_counts, &cur.placement, &set);
            for (i, e) in r.errors.iter().enumerate() {
                let label = if i == 0 {
                    "current".into()
                } else {
                    set.predefined[i - 1].name.clone()
                };
                let _ = writeln!(
                    s,
                    "  CEM[{label:<9}] avail {}  error {:>5}  reload {:>2}",
                    r.candidate_counts[i], e, r.reconfig_cost[i]
                );
            }
            let _ = writeln!(
                s,
                "  selection: {} (two-bit {:02b})\n",
                r.choice,
                r.two_bit()
            );
        }
    }
    s
}

/// F3 — Fig. 3: CEM tables and the shifter-vs-exact-divider comparison
/// over the complete requirement-signature space.
pub(crate) fn fig3() -> String {
    let set = SteeringSet::paper_default();
    let mut s = String::new();
    let _ = writeln!(s, "# Fig. 3 — configuration error metric generation\n");
    let _ = writeln!(
        s,
        "shift control (Fig. 3c): avail 0-1 -> /1, 2-3 -> /2, 4-7 -> /4\n"
    );

    // Worked example rows for one demand signature on each config.
    let demand = TypeCounts::new([2, 1, 2, 1, 1]);
    let _ = writeln!(s, "worked example, demand {demand}:");
    for (i, c) in set.predefined.iter().enumerate() {
        let avail = set.total_counts(i);
        let _ = writeln!(s, "  {} (avail {avail}):", c.name);
        for row in CemUnit::PAPER.trace(&demand, &avail) {
            let _ = writeln!(
                s,
                "    {:<8} req {} / div {} -> term {}",
                row.unit.to_string(),
                row.required,
                row.divisor,
                row.term / ERROR_SCALE
            );
        }
        let _ = writeln!(
            s,
            "    total error: shifter {}  exact {:.3}",
            CemUnit::PAPER.error(&demand, &avail) / ERROR_SCALE,
            CemUnit::EXACT.error(&demand, &avail) as f64 / ERROR_SCALE as f64
        );
    }

    // Exhaustive agreement sweep: over every demand signature (total <= 7)
    // and every current-config candidate set, does the shifter pick the
    // same configuration as the exact divider?
    let mut same = 0u64;
    let mut diff = 0u64;
    let mut shifter_regret = 0.0f64;
    for demand in rsp_workloads::mixes::all_signatures(7) {
        for cur in 0..3usize {
            let placement = &set.predefined[cur].placement;
            let cur_counts = set.total_counts(cur);
            let paper = SelectionUnit::PAPER.choose(demand, cur_counts, placement, &set);
            let exact_unit = SelectionUnit {
                cem: CemUnit::EXACT,
                ..SelectionUnit::PAPER
            };
            let exact = exact_unit.choose(demand, cur_counts, placement, &set);
            if paper.0 == exact.0 {
                same += 1;
            } else {
                diff += 1;
                // Regret: exact error of the shifter's pick minus the
                // exact error of the exact pick.
                let pick_counts = |c: rsp_core::ConfigChoice| match c {
                    rsp_core::ConfigChoice::Current => cur_counts,
                    rsp_core::ConfigChoice::Predefined(i) => set.total_counts(i),
                };
                let e_paper = CemUnit::EXACT.error(&demand, &pick_counts(paper.0));
                let e_exact = CemUnit::EXACT.error(&demand, &pick_counts(exact.0));
                shifter_regret += (e_paper as f64 - e_exact as f64) / ERROR_SCALE as f64;
            }
        }
    }
    let total = same + diff;
    let _ = writeln!(
        s,
        "\nshifter vs exact divider over {} (demand, current) cases:",
        total
    );
    let _ = writeln!(
        s,
        "  same selection: {same} ({:.1}%)   different: {diff} ({:.1}%)",
        100.0 * same as f64 / total as f64,
        100.0 * diff as f64 / total as f64
    );
    let _ = writeln!(
        s,
        "  mean exact-error regret when different: {:.3} units",
        if diff == 0 {
            0.0
        } else {
            shifter_regret / diff as f64
        }
    );
    s
}

/// F4 — Fig. 4: the example dependency graph.
pub fn fig4() -> String {
    let entries = paper_example::entries();
    let g = DepGraph::build(&entries);
    let mut s = String::new();
    let _ = writeln!(s, "# Fig. 4 — example dependency graph\n");
    s.push_str(&g.render(&entries));
    let _ = writeln!(
        s,
        "\nroots: {:?}   critical path: {} instructions",
        g.roots().iter().map(|i| i + 1).collect::<Vec<_>>(),
        g.critical_path_len()
    );
    let _ = writeln!(
        s,
        "(paper-pinned facts hold: Load has no deps; Mul depends on Sub)"
    );
    s
}

/// F5 — Fig. 5: the wake-up array bit matrix for the Fig. 4 program.
pub(crate) fn fig5() -> String {
    let entries = paper_example::entries();
    let g = DepGraph::build(&entries);
    let mut w = WakeupArray::paper();
    for (i, instr) in entries.iter().enumerate() {
        w.insert(instr.unit_type(), g.preds(i), i as u64).unwrap();
    }
    let mut s = String::new();
    let _ = writeln!(s, "# Fig. 5 — wake-up array for the Fig. 4 example\n");
    s.push_str(&w.matrix());
    s
}

/// F6 — Fig. 6: cycle-by-cycle request/grant/timer trace of the example
/// on the full machine.
pub(crate) fn fig6() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Fig. 6 — wake-up logic trace (request lines, scheduled bits, timers)\n"
    );
    let proc = Processor::new(SimConfig::default());
    let mut m = proc.start(&paper_example::program()).unwrap();
    let names = paper_example::ENTRY_NAMES;
    let _ = writeln!(
        s,
        "cycle | per-entry state (timer in the paper's N-1 convention)"
    );
    while m.cycle() < 60 && m.step() {
        let mut line = format!("{:>5} |", m.cycle());
        let mut any = false;
        for (slot, e) in m.wakeup().entries() {
            if (e.tag as usize) < names.len() {
                any = true;
                let state = match m.wakeup().state(slot).unwrap() {
                    EntryState::Waiting => "wait".into(),
                    EntryState::Executing => {
                        format!("exec(t={})", e.paper_timer().map_or(0, |t| t))
                    }
                    EntryState::Done => "done".into(),
                };
                line.push_str(&format!(" {}:{state}", names[e.tag as usize]));
            }
        }
        if any {
            let _ = writeln!(s, "{line}");
        }
    }
    let r = m.report();
    let _ = writeln!(
        s,
        "\nprogram retired {} instructions in {} cycles (in-order completion held)",
        r.retired, r.cycles
    );
    s
}

/// F7 — Fig. 7 / Eq. 1: the availability circuit, exercised over a
/// hybrid allocation with every busy-mask corner, plus the gate-level vs
/// behavioural cross-check.
pub(crate) fn fig7() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# Fig. 7 / Eq. 1 — resource availability computation\n");
    // A hybrid allocation: LSU | FP-ALU(3) | Int-MDU(2) | LSU | empty.
    let mut alloc = rsp_fabric::AllocationVector::empty(8);
    alloc.place(0, UnitType::Lsu);
    alloc.place(1, UnitType::FpAlu);
    alloc.place(4, UnitType::IntMdu);
    alloc.place(6, UnitType::Lsu);
    let _ = writeln!(s, "allocation vector: {alloc}\n");
    let ffus: Vec<(UnitType, bool)> = vec![(UnitType::IntAlu, true), (UnitType::FpMdu, false)];
    let cases: [(&str, Vec<bool>); 3] = [
        ("all RFUs idle", vec![true; 8]),
        ("all RFUs busy", vec![false; 8]),
        (
            "FP-ALU busy, LSU@6 idle only",
            vec![false, false, false, false, false, false, true, false],
        ),
    ];
    for (label, slot_avail) in &cases {
        let inputs = AvailabilityInputs {
            alloc: &alloc,
            slot_available: slot_avail,
            ffus: &ffus,
        };
        let _ = writeln!(s, "case: {label}  (FFUs: Int-ALU idle, FP-MDU busy)");
        for &t in &UnitType::ALL {
            let a = available(t, &inputs);
            let c = available_circuit(t, &inputs);
            assert_eq!(a, c, "gate-level and behavioural forms must agree");
            let _ = writeln!(s, "  available({t:<7}) = {a}");
        }
    }
    let _ = writeln!(
        s,
        "\ncontinuation slots never match a type encoding: {}",
        rsp_fabric::availability::continuation_never_matches()
    );
    // And on a live fabric: a busy unit's whole span deasserts.
    let set = SteeringSet::paper_default();
    let mut fab =
        rsp_fabric::Fabric::with_configuration(FabricParams::default(), &set.predefined[2]);
    let _ = writeln!(s, "\nlive fabric on Config 3: {}", fab.slot_map());
    let id = rsp_fabric::fabric::UnitId::Rfu { head: 2 };
    fab.set_busy(id);
    let _ = writeln!(
        s,
        "after marking the RFU FP-ALU busy: available(FP-ALU) = {} (FFU still idle)",
        fab.available(UnitType::FpAlu)
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_all_configs() {
        let t = table1();
        for needle in [
            "Config 1",
            "Config 2",
            "Config 3",
            "FFUs",
            "111",
            "occupies 8 slots",
        ] {
            assert!(t.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn fig2_selects_fp_config_for_fp_queue() {
        let t = fig2();
        assert!(t.contains("selection: Config 3"), "{t}");
        assert!(t.contains("selection: Config 0 (current)"), "{t}");
    }

    #[test]
    fn fig3_reports_high_agreement() {
        let t = fig3();
        assert!(t.contains("same selection"), "{t}");
        // Parse the agreement percentage and require a sane level.
        let pct: f64 = t
            .split("same selection: ")
            .nth(1)
            .and_then(|x| x.split('(').nth(1))
            .and_then(|x| x.split('%').next())
            .unwrap()
            .parse()
            .unwrap();
        assert!(pct > 60.0, "shifter should mostly agree with exact: {pct}%");
    }

    #[test]
    fn fig5_matrix_has_expected_bits() {
        let t = fig5();
        assert!(t.contains("Entry 4"), "{t}");
    }

    #[test]
    fn fig6_shows_execution_states() {
        let t = fig6();
        assert!(t.contains("exec(t="), "{t}");
        assert!(t.contains("retired 8 instructions"), "{t}");
    }

    #[test]
    fn fig7_runs_cross_check() {
        let t = fig7();
        assert!(t.contains("available(Int-ALU) = true"), "{t}");
    }

    #[test]
    fn fig1_smoke_runs() {
        let t = fig1();
        assert!(t.contains("IPC"), "{t}");
    }
}
