//! The front end: instruction memory, fetch unit, trace cache, decoder.
//!
//! The fetch unit fetches up to `fetch_width` *encoded words* per cycle
//! along the predicted path and decodes them; a fetch group becomes
//! available for dispatch after the front-end latency — one cycle when
//! the group starts at a trace-cache hit (the trace cache holds
//! pre-decoded instructions, paper §2), two on a miss (configurable).
//!
//! Prediction rules:
//! * sequential fall-through by default;
//! * conditional branches predict **not-taken** (fetch continues
//!   sequentially past them);
//! * `jal` redirects *at decode* — its target is static, so following it
//!   is not a speculation that can fail;
//! * `jalr` and `halt` stop fetch: the former until the back end resolves
//!   the target and calls `FetchUnit::redirect`, the latter for good
//!   (retiring the halt ends the program).

use crate::config::{BranchPrediction, SimConfig};
use rsp_isa::encode::{decode, Word};
use rsp_isa::{Instruction, Opcode};
use std::collections::VecDeque;

/// Bimodal predictor: 2-bit saturating counters indexed by PC
/// (state ≥ 2 = predict taken), trained at retirement.
#[derive(Debug, Clone)]
struct Bimodal {
    counters: Vec<u8>,
}

impl Bimodal {
    fn new(entries: usize) -> Bimodal {
        Bimodal {
            // Initialise weakly not-taken, matching the static scheme
            // until branches bias the counters.
            counters: vec![1; entries.max(1)],
        }
    }

    fn index(&self, pc: u64) -> usize {
        (pc as usize) % self.counters.len()
    }

    fn predict_taken(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    fn train(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// A decoded instruction annotated with its fetch context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FetchedInstr {
    /// The instruction's index (PC).
    pub pc: u64,
    /// The decoded instruction.
    pub instr: Instruction,
    /// The PC the front end continued at after this instruction (the
    /// prediction the back end checks control flow against).
    pub predicted_next: u64,
}

#[derive(Debug, Clone)]
struct FetchGroup {
    ready_at: u64,
    instrs: Vec<FetchedInstr>,
}

/// Direct-mapped trace cache over fetch-group start PCs.
#[derive(Debug, Clone)]
struct TraceCache {
    tags: Vec<Option<u64>>,
    hits: u64,
    misses: u64,
}

impl TraceCache {
    fn new(groups: usize) -> TraceCache {
        TraceCache {
            tags: vec![None; groups],
            hits: 0,
            misses: 0,
        }
    }

    /// Probe-and-fill: returns true on hit.
    fn access(&mut self, pc: u64) -> bool {
        if self.tags.is_empty() {
            self.misses += 1;
            return false;
        }
        let idx = (pc as usize) % self.tags.len();
        if self.tags[idx] == Some(pc) {
            self.hits += 1;
            true
        } else {
            self.tags[idx] = Some(pc);
            self.misses += 1;
            false
        }
    }
}

/// The fetch unit.
#[derive(Debug, Clone)]
pub(crate) struct FetchUnit {
    /// The program image, decoded once at construction — refetching a
    /// loop body costs an array read, not a re-decode.
    decoded: Vec<Instruction>,
    pc: u64,
    stopped: bool,
    inflight: VecDeque<FetchGroup>,
    /// Recycled group buffers (drained or squashed): `cycle` pops one
    /// instead of allocating, so steady-state fetch is allocation-free.
    spare: Vec<Vec<FetchedInstr>>,
    trace: TraceCache,
    predictor: Option<Bimodal>,
    fetch_width: usize,
    latency_hit: u64,
    latency_miss: u64,
}

impl FetchUnit {
    /// A fetch unit over an encoded program image.
    ///
    /// # Panics
    /// Panics if any word fails to decode (images come from
    /// [`rsp_isa::Program::to_words`], which only emits decodable words).
    pub(crate) fn new(words: Vec<Word>, cfg: &SimConfig) -> FetchUnit {
        FetchUnit {
            decoded: words
                .iter()
                .map(|&w| decode(w).expect("instruction memory holds undecodable word"))
                .collect(),
            pc: 0,
            stopped: false,
            inflight: VecDeque::new(),
            spare: Vec::new(),
            trace: TraceCache::new(cfg.trace_cache_groups),
            predictor: match cfg.branch_prediction {
                BranchPrediction::NotTaken => None,
                BranchPrediction::Bimodal { entries } => Some(Bimodal::new(entries)),
            },
            fetch_width: cfg.fetch_width,
            latency_hit: cfg.front_latency_hit as u64,
            latency_miss: cfg.front_latency_miss as u64,
        }
    }

    /// True iff fetch is stopped (after `jalr`/`halt`, or PC past the
    /// program end) *and* nothing is in flight.
    pub(crate) fn drained(&self) -> bool {
        self.inflight.is_empty() && (self.stopped || self.pc as usize >= self.decoded.len())
    }

    /// Trace-cache `(hits, misses)` so far.
    pub(crate) fn trace_stats(&self) -> (u64, u64) {
        (self.trace.hits, self.trace.misses)
    }

    /// Fetch one group this cycle (call at most once per cycle, and only
    /// when the dispatch buffer has room).
    pub(crate) fn cycle(&mut self, now: u64) {
        if self.stopped || self.pc as usize >= self.decoded.len() {
            return;
        }
        let hit = self.trace.access(self.pc);
        let latency = if hit {
            self.latency_hit
        } else {
            self.latency_miss
        };
        let mut instrs = self.spare.pop().unwrap_or_default();
        instrs.clear();
        for _ in 0..self.fetch_width {
            let Some(&instr) = self.decoded.get(self.pc as usize) else {
                break;
            };
            let pc = self.pc;
            let predicted_next = match instr.opcode {
                // Static target: follow it at decode.
                Opcode::Jal => (pc as i64 + instr.imm as i64).max(0) as u64,
                // Unknown target / end of program: stop after this one.
                Opcode::Jalr | Opcode::Halt => {
                    self.stopped = true;
                    pc + 1
                }
                // Conditional branches: the dynamic predictor may follow
                // the (static) taken target at decode.
                op if op.is_conditional_branch() => match &self.predictor {
                    Some(b) if b.predict_taken(pc) => (pc as i64 + instr.imm as i64).max(0) as u64,
                    _ => pc + 1,
                },
                // Plain fall-through.
                _ => pc + 1,
            };
            instrs.push(FetchedInstr {
                pc,
                instr,
                predicted_next,
            });
            self.pc = predicted_next;
            if self.stopped {
                break;
            }
        }
        if instrs.is_empty() {
            self.spare.push(instrs);
        } else {
            self.inflight.push_back(FetchGroup {
                ready_at: now + latency,
                instrs,
            });
        }
    }

    /// Append the decoded instructions whose front-end latency has
    /// elapsed to `out` (the simulator's dispatch buffer), recycling the
    /// group buffers — the steady-state path allocates nothing.
    pub(crate) fn drain_into(&mut self, now: u64, out: &mut VecDeque<FetchedInstr>) {
        while let Some(g) = self.inflight.front() {
            if g.ready_at > now {
                break;
            }
            let mut g = self.inflight.pop_front().unwrap();
            out.extend(g.instrs.drain(..));
            self.spare.push(g.instrs);
        }
    }

    /// Pop the decoded instructions whose front-end latency has elapsed.
    #[cfg(test)]
    pub(crate) fn drain(&mut self, now: u64) -> Vec<FetchedInstr> {
        let mut out = VecDeque::new();
        self.drain_into(now, &mut out);
        out.into()
    }

    /// Redirect after a control-flow resolution: squash everything in
    /// flight and resume fetching at `target` (indices past the program
    /// end leave the unit drained — the fall-off-the-end halt).
    pub(crate) fn redirect(&mut self, target: u64) {
        for mut g in self.inflight.drain(..) {
            g.instrs.clear();
            self.spare.push(g.instrs);
        }
        self.pc = target;
        self.stopped = false;
    }

    /// Train the dynamic predictor with a retired conditional branch's
    /// outcome (no-op under static not-taken prediction).
    pub(crate) fn train(&mut self, pc: u64, taken: bool) {
        if let Some(b) = &mut self.predictor {
            b.train(pc, taken);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_isa::regs::IReg;
    use rsp_isa::Program;

    fn r(n: u8) -> IReg {
        IReg::new(n)
    }

    fn unit_for(instrs: Vec<Instruction>) -> FetchUnit {
        let p = Program::new("t", instrs);
        FetchUnit::new(p.to_words(), &SimConfig::default())
    }

    #[test]
    fn fetch_group_arrives_after_latency() {
        let mut f = unit_for(vec![
            Instruction::rri(Opcode::Addi, r(1), r(0), 1),
            Instruction::rri(Opcode::Addi, r(2), r(0), 2),
            Instruction::HALT,
        ]);
        f.cycle(0);
        assert!(f.drain(0).is_empty(), "miss latency is 2");
        assert!(f.drain(1).is_empty());
        let got = f.drain(2);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].pc, 0);
        assert_eq!(got[2].instr, Instruction::HALT);
        assert!(f.drained(), "halt stops fetch");
    }

    #[test]
    fn trace_cache_hit_shortens_latency() {
        let mut f = unit_for(vec![
            Instruction::rri(Opcode::Addi, r(1), r(0), 1),
            Instruction::HALT,
        ]);
        f.cycle(0);
        let _ = f.drain(10);
        // Re-fetch the same group (as after a loop back edge).
        f.redirect(0);
        f.cycle(10);
        assert_eq!(f.drain(11).len(), 2, "hit latency is 1");
        let (h, m) = f.trace_stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn conditional_branches_fetch_through() {
        let mut f = unit_for(vec![
            Instruction::branch(Opcode::Beq, r(0), r(0), 2),
            Instruction::rri(Opcode::Addi, r(1), r(0), 1),
            Instruction::HALT,
        ]);
        f.cycle(0);
        let got = f.drain(2);
        assert_eq!(got.len(), 3, "not-taken prediction keeps fetching");
        assert_eq!(got[0].predicted_next, 1);
    }

    #[test]
    fn jal_redirects_at_decode() {
        let f_instrs = vec![
            Instruction::jal(r(31), 2),                    // 0 -> 2
            Instruction::rri(Opcode::Addi, r(1), r(0), 9), // 1: skipped
            Instruction::HALT,                             // 2
        ];
        let mut f = unit_for(f_instrs);
        f.cycle(0);
        let got = f.drain(2);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].pc, 0);
        assert_eq!(got[0].predicted_next, 2);
        assert_eq!(got[1].pc, 2, "fetch followed the jal in the same group");
    }

    #[test]
    fn jalr_stops_fetch_until_redirect() {
        let mut f = unit_for(vec![
            Instruction::jalr(r(0), r(1), 0),
            Instruction::rri(Opcode::Addi, r(1), r(0), 1),
            Instruction::HALT,
        ]);
        f.cycle(0);
        let got = f.drain(2);
        assert_eq!(got.len(), 1, "nothing fetched past the jalr");
        assert!(f.drained());
        f.redirect(2);
        f.cycle(3);
        let got = f.drain(5);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].instr, Instruction::HALT);
    }

    #[test]
    fn redirect_squashes_inflight() {
        let mut f = unit_for(vec![
            Instruction::rri(Opcode::Addi, r(1), r(0), 1),
            Instruction::rri(Opcode::Addi, r(2), r(0), 2),
            Instruction::rri(Opcode::Addi, r(3), r(0), 3),
            Instruction::rri(Opcode::Addi, r(4), r(0), 4),
            Instruction::rri(Opcode::Addi, r(5), r(0), 5),
            Instruction::HALT,
        ]);
        f.cycle(0); // group 0: pcs 0-3
        f.redirect(5);
        assert!(f.drain(10).is_empty(), "in-flight group squashed");
        f.cycle(10);
        let got = f.drain(12);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].pc, 5);
    }

    #[test]
    fn out_of_range_redirect_drains() {
        let mut f = unit_for(vec![Instruction::HALT]);
        f.redirect(100);
        f.cycle(0);
        assert!(f.drain(5).is_empty());
        assert!(f.drained());
    }

    #[test]
    fn bimodal_predictor_learns_taken_branches() {
        let cfg = SimConfig {
            branch_prediction: crate::config::BranchPrediction::Bimodal { entries: 64 },
            ..SimConfig::default()
        };
        let p = Program::new(
            "t",
            vec![
                Instruction::branch(Opcode::Bne, r(1), r(0), 2), // 0 -> 2 when taken
                Instruction::rri(Opcode::Addi, r(9), r(0), 1),   // 1 (fall-through path)
                Instruction::HALT,                               // 2
            ],
        );
        let mut f = FetchUnit::new(p.to_words(), &cfg);
        // Untrained: weakly not-taken.
        f.cycle(0);
        let got = f.drain(2);
        assert_eq!(got[0].predicted_next, 1, "untrained predicts not-taken");
        // Train taken twice -> counters saturate toward taken.
        f.train(0, true);
        f.train(0, true);
        f.redirect(0);
        f.cycle(10);
        let got = f.drain(12);
        assert_eq!(got[0].predicted_next, 2, "trained predicts taken");
        // The group followed the predicted target at decode.
        assert_eq!(got[1].pc, 2);
        // Training not-taken twice flips it back.
        f.train(0, false);
        f.train(0, false);
        f.redirect(0);
        f.cycle(20);
        let got = f.drain(22);
        assert_eq!(got[0].predicted_next, 1);
    }

    #[test]
    fn zero_size_trace_cache_always_misses() {
        let cfg = SimConfig {
            trace_cache_groups: 0,
            ..SimConfig::default()
        };
        let p = Program::new("t", vec![Instruction::HALT]);
        let mut f = FetchUnit::new(p.to_words(), &cfg);
        f.cycle(0);
        f.redirect(0);
        f.cycle(5);
        let (h, m) = f.trace_stats();
        assert_eq!(h, 0);
        assert_eq!(m, 2);
    }
}
