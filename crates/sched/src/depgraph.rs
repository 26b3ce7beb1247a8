//! Register dataflow (dependency) graphs over instruction sequences —
//! the analysis behind the paper's Fig. 4 example and the wake-up
//! array's dependency columns.
//!
//! For a straight-line instruction sequence, instruction `j` depends on
//! instruction `i < j` iff `i` is the **latest** earlier writer of one of
//! `j`'s source registers (true/RAW dependencies only — the register
//! update unit renames around WAR/WAW, and memory ordering is handled
//! separately by the simulator's in-order memory rule).

use rsp_isa::regs::AnyReg;
use rsp_isa::Instruction;
use std::collections::HashMap;

/// A RAW dependency graph over a straight-line instruction sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepGraph {
    /// `preds[j]` = sorted indices of the instructions whose results
    /// instruction `j` consumes.
    preds: Vec<Vec<usize>>,
}

impl DepGraph {
    /// Build the RAW graph of `instrs`.
    pub fn build(instrs: &[Instruction]) -> DepGraph {
        let mut last_writer: HashMap<AnyReg, usize> = HashMap::new();
        let mut preds = Vec::with_capacity(instrs.len());
        for (j, instr) in instrs.iter().enumerate() {
            let mut p: Vec<usize> = instr
                .arch_sources()
                .filter_map(|r| last_writer.get(&r).copied())
                .collect();
            p.sort_unstable();
            p.dedup();
            preds.push(p);
            if let Some(d) = instr.arch_dest() {
                last_writer.insert(d, j);
            }
        }
        DepGraph { preds }
    }

    /// Number of instructions.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.preds.len()
    }

    /// Producers of instruction `j`.
    #[inline]
    pub fn preds(&self, j: usize) -> &[usize] {
        &self.preds[j]
    }

    /// All edges `(producer, consumer)`.
    #[cfg(test)]
    pub(crate) fn edges(&self) -> Vec<(usize, usize)> {
        self.preds
            .iter()
            .enumerate()
            .flat_map(|(j, ps)| ps.iter().map(move |&i| (i, j)))
            .collect()
    }

    /// Instructions with no producers (the graph's roots).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&j| self.preds[j].is_empty())
            .collect()
    }

    /// Length of the longest dependency chain (critical path, counted in
    /// instructions) — a lower bound on execution time at unit latency.
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![0usize; self.len()];
        for j in 0..self.len() {
            depth[j] = 1 + self.preds[j].iter().map(|&i| depth[i]).max().unwrap_or(0);
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// ASCII rendering: one line per instruction with its producers.
    pub fn render(&self, instrs: &[Instruction]) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (j, instr) in instrs.iter().enumerate() {
            let deps = if self.preds[j].is_empty() {
                "-".to_string()
            } else {
                self.preds[j]
                    .iter()
                    .map(|i| format!("E{}", i + 1))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let _ = writeln!(
                s,
                "Entry {:<2} {:<24} <- {}",
                j + 1,
                instr.to_string(),
                deps
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_isa::regs::{FReg, IReg};
    use rsp_isa::Opcode;

    fn r(n: u8) -> IReg {
        IReg::new(n)
    }
    fn fr(n: u8) -> FReg {
        FReg::new(n)
    }

    #[test]
    fn raw_dependencies_found() {
        let instrs = vec![
            Instruction::rri(Opcode::Addi, r(1), r(0), 1),   // 0
            Instruction::rri(Opcode::Addi, r(2), r(0), 2),   // 1
            Instruction::rrr(Opcode::Add, r(3), r(1), r(2)), // 2: dep 0,1
            Instruction::rrr(Opcode::Mul, r(4), r(3), r(3)), // 3: dep 2
        ];
        let g = DepGraph::build(&instrs);
        assert_eq!(g.preds(0), &[] as &[usize]);
        assert_eq!(g.preds(2), &[0, 1]);
        assert_eq!(g.preds(3), &[2]);
        assert_eq!(g.roots(), vec![0, 1]);
        assert_eq!(g.critical_path_len(), 3);
        assert_eq!(g.edges(), vec![(0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn latest_writer_wins() {
        let instrs = vec![
            Instruction::rri(Opcode::Addi, r(1), r(0), 1), // 0 writes r1
            Instruction::rri(Opcode::Addi, r(1), r(0), 2), // 1 rewrites r1
            Instruction::rrr(Opcode::Add, r(2), r(1), r(0)), // 2 reads r1
        ];
        let g = DepGraph::build(&instrs);
        assert_eq!(g.preds(2), &[1], "must depend on the latest writer only");
    }

    #[test]
    fn zero_register_never_a_dependency() {
        let instrs = vec![
            Instruction::rri(Opcode::Addi, r(0), r(0), 5), // write to r0 discarded
            Instruction::rrr(Opcode::Add, r(1), r(0), r(0)),
        ];
        let g = DepGraph::build(&instrs);
        assert_eq!(g.preds(1), &[] as &[usize]);
    }

    #[test]
    fn int_and_fp_files_are_distinct() {
        let instrs = vec![
            Instruction::rri(Opcode::Addi, r(1), r(0), 1), // writes r1
            Instruction::fff(Opcode::Fadd, fr(1), fr(2), fr(3)), // writes f1
            Instruction::fff(Opcode::Fmul, fr(4), fr(1), fr(1)), // reads f1
        ];
        let g = DepGraph::build(&instrs);
        assert_eq!(g.preds(2), &[1], "f1 dep must not alias r1");
    }

    #[test]
    fn store_depends_on_data_and_base() {
        let instrs = vec![
            Instruction::rri(Opcode::Addi, r(1), r(0), 8),  // base
            Instruction::rri(Opcode::Addi, r(2), r(0), 42), // data
            Instruction::sw(r(2), r(1), 0),
        ];
        let g = DepGraph::build(&instrs);
        assert_eq!(g.preds(2), &[0, 1]);
    }

    #[test]
    fn render_lists_entries() {
        let instrs = vec![
            Instruction::rri(Opcode::Addi, r(1), r(0), 1),
            Instruction::rrr(Opcode::Add, r(2), r(1), r(1)),
        ];
        let g = DepGraph::build(&instrs);
        let out = g.render(&instrs);
        assert!(out.contains("Entry 1"), "{out}");
        assert!(out.contains("<- E1"), "{out}");
        assert!(out.contains("<- -"), "{out}");
    }
}
