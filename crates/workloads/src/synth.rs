//! Seeded synthetic workload generation with controlled unit-type mixes.
//!
//! The steering unit reacts only to the per-type demand of the queue, so
//! synthetic programs are parameterised directly in that space:
//! a [`UnitMix`] gives per-unit-type weights; a [`SynthSpec`] samples a
//! straight-line body from the mix (optionally wrapped in a counted
//! loop); a [`PhasedSpec`] concatenates bodies with *different* mixes —
//! the workload feature that forces steering transitions.
//!
//! Generated programs are always valid ([`Program::validate`]) and
//! deterministic in their seed. Register discipline: `r31` is the
//! reserved loop counter, `r1..=r29`/`f0..=f29` are workload registers, a
//! prelude seeds a few registers with non-trivial values so dependency
//! chains carry real data.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsp_isa::regs::{FReg, IReg};
use rsp_isa::units::UnitType;
use rsp_isa::{Instruction, Opcode, Program};
use serde::{Deserialize, Serialize};

/// Per-unit-type sampling weights.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnitMix {
    /// Weights in [`UnitType::ALL`] order; need not be normalised.
    pub weights: [f64; 5],
}

impl UnitMix {
    /// Mostly integer ALU/MDU work with some memory traffic.
    pub const INT_HEAVY: UnitMix = UnitMix {
        weights: [0.55, 0.15, 0.25, 0.03, 0.02],
    };
    /// Mostly FP work with loads feeding it.
    pub const FP_HEAVY: UnitMix = UnitMix {
        weights: [0.08, 0.02, 0.25, 0.35, 0.30],
    };
    /// Load/store dominated.
    pub const MEM_HEAVY: UnitMix = UnitMix {
        weights: [0.25, 0.05, 0.60, 0.06, 0.04],
    };
    /// Everything in comparable amounts.
    pub const BALANCED: UnitMix = UnitMix {
        weights: [0.25, 0.15, 0.25, 0.20, 0.15],
    };
    /// Integer ALU only (adversarial for FP configurations).
    pub const INT_ONLY: UnitMix = UnitMix {
        weights: [0.8, 0.2, 0.0, 0.0, 0.0],
    };
    /// FP only (adversarial for integer configurations).
    pub const FP_ONLY: UnitMix = UnitMix {
        weights: [0.0, 0.0, 0.0, 0.5, 0.5],
    };

    /// All named mixes with labels (the E1 workload axis).
    pub fn named() -> Vec<(&'static str, UnitMix)> {
        vec![
            ("int-heavy", UnitMix::INT_HEAVY),
            ("fp-heavy", UnitMix::FP_HEAVY),
            ("mem-heavy", UnitMix::MEM_HEAVY),
            ("balanced", UnitMix::BALANCED),
        ]
    }

    /// Sample a unit type according to the weights.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> UnitType {
        let total: f64 = self.weights.iter().sum();
        assert!(total > 0.0, "mix must have positive total weight");
        let mut x = rng.gen_range(0.0..total);
        for &t in &UnitType::ALL {
            let w = self.weights[t.index()];
            if x < w {
                return t;
            }
            x -= w;
        }
        UnitType::IntAlu
    }
}

/// A synthetic workload specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthSpec {
    /// Program name.
    pub name: String,
    /// Body length in instructions (excluding prelude/loop scaffolding).
    pub body_len: usize,
    /// Unit-type mix of the body.
    pub mix: UnitMix,
    /// Probability that a source register is a *recently written* one
    /// (dependency chains) rather than a random seeded register.
    pub dep_density: f64,
    /// Probability that a body slot becomes a data-dependent forward
    /// conditional branch (skipping 1–5 instructions) instead of a
    /// sampled-mix instruction. Such branches are unpredictable under the
    /// front end's not-taken prediction, so this knob controls
    /// flush/squash pressure.
    pub branch_prob: f64,
    /// Loop the body this many times (0 or 1 = straight line).
    pub iterations: u32,
    /// RNG seed.
    pub seed: u64,
}

impl SynthSpec {
    /// A convenient default: 400-instruction body, moderate dependencies,
    /// straight-line.
    pub fn new(name: impl Into<String>, mix: UnitMix, seed: u64) -> SynthSpec {
        SynthSpec {
            name: name.into(),
            body_len: 400,
            mix,
            dep_density: 0.4,
            branch_prob: 0.0,
            iterations: 1,
            seed,
        }
    }

    /// Generate the program.
    pub fn generate(&self) -> Program {
        let phases = [(self.mix, self.body_len)];
        generate_phased(
            &self.name,
            &phases,
            self.dep_density,
            self.branch_prob,
            self.iterations,
            self.seed,
        )
    }
}

/// A phased workload: the unit mix changes between segments, forcing the
/// steering unit to move between configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasedSpec {
    /// Program name.
    pub name: String,
    /// `(mix, body length)` per phase, in order.
    pub phases: Vec<(UnitMix, usize)>,
    /// Dependency density (as in [`SynthSpec`]).
    pub dep_density: f64,
    /// Forward-branch probability (as in [`SynthSpec`]).
    pub branch_prob: f64,
    /// Loop the whole phase sequence this many times.
    pub iterations: u32,
    /// RNG seed.
    pub seed: u64,
}

impl PhasedSpec {
    /// A canonical three-phase workload: int → fp → mem.
    pub fn int_fp_mem(len_per_phase: usize, iterations: u32, seed: u64) -> PhasedSpec {
        PhasedSpec {
            name: "phased:int-fp-mem".into(),
            phases: vec![
                (UnitMix::INT_HEAVY, len_per_phase),
                (UnitMix::FP_HEAVY, len_per_phase),
                (UnitMix::MEM_HEAVY, len_per_phase),
            ],
            dep_density: 0.4,
            branch_prob: 0.0,
            iterations,
            seed,
        }
    }

    /// Generate the program.
    pub fn generate(&self) -> Program {
        generate_phased(
            &self.name,
            &self.phases,
            self.dep_density,
            self.branch_prob,
            self.iterations,
            self.seed,
        )
    }
}

struct Gen {
    rng: StdRng,
    dep_density: f64,
    recent_int: Vec<u8>,
    recent_fp: Vec<u8>,
    next_int: u8,
    next_fp: u8,
}

impl Gen {
    const MEM_REGION: i32 = 512;

    fn new(seed: u64, dep_density: f64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            dep_density,
            recent_int: vec![1, 2, 3, 4],
            recent_fp: vec![0, 1, 2, 3],
            next_int: 5,
            next_fp: 4,
        }
    }

    fn src_int(&mut self) -> IReg {
        if self.rng.gen_bool(self.dep_density) {
            let i = self.rng.gen_range(0..self.recent_int.len());
            IReg::new(self.recent_int[i])
        } else {
            IReg::new(self.rng.gen_range(1..8))
        }
    }

    fn src_fp(&mut self) -> FReg {
        if self.rng.gen_bool(self.dep_density) {
            let i = self.rng.gen_range(0..self.recent_fp.len());
            FReg::new(self.recent_fp[i])
        } else {
            FReg::new(self.rng.gen_range(0..8))
        }
    }

    fn dest_int(&mut self) -> IReg {
        // Round-robin over r5..r29, recording recency.
        let d = self.next_int;
        self.next_int = if self.next_int >= 29 {
            5
        } else {
            self.next_int + 1
        };
        self.recent_int.push(d);
        if self.recent_int.len() > 6 {
            self.recent_int.remove(0);
        }
        IReg::new(d)
    }

    fn dest_fp(&mut self) -> FReg {
        let d = self.next_fp;
        self.next_fp = if self.next_fp >= 29 {
            4
        } else {
            self.next_fp + 1
        };
        self.recent_fp.push(d);
        if self.recent_fp.len() > 6 {
            self.recent_fp.remove(0);
        }
        FReg::new(d)
    }

    fn addr_imm(&mut self) -> i32 {
        self.rng.gen_range(0..Self::MEM_REGION)
    }

    fn instr_for(&mut self, t: UnitType) -> Instruction {
        match t {
            UnitType::IntAlu => {
                let ops = [
                    Opcode::Add,
                    Opcode::Sub,
                    Opcode::Xor,
                    Opcode::Or,
                    Opcode::And,
                    Opcode::Sll,
                ];
                let op = ops[self.rng.gen_range(0..ops.len())];
                let (a, b) = (self.src_int(), self.src_int());
                Instruction::rrr(op, self.dest_int(), a, b)
            }
            UnitType::IntMdu => {
                let ops = [Opcode::Mul, Opcode::Mul, Opcode::Div, Opcode::Rem];
                let op = ops[self.rng.gen_range(0..ops.len())];
                let (a, b) = (self.src_int(), self.src_int());
                Instruction::rrr(op, self.dest_int(), a, b)
            }
            UnitType::Lsu => match self.rng.gen_range(0..10) {
                0..=3 => {
                    let imm = self.addr_imm();
                    Instruction::lw(self.dest_int(), IReg::ZERO, imm)
                }
                4..=5 => {
                    let v = self.src_int();
                    let imm = self.addr_imm();
                    Instruction::sw(v, IReg::ZERO, imm)
                }
                6..=8 => {
                    let imm = self.addr_imm();
                    Instruction::flw(self.dest_fp(), IReg::ZERO, imm)
                }
                _ => {
                    let v = self.src_fp();
                    let imm = self.addr_imm();
                    Instruction::fsw(v, IReg::ZERO, imm)
                }
            },
            UnitType::FpAlu => {
                let ops = [Opcode::Fadd, Opcode::Fsub, Opcode::Fmin, Opcode::Fmax];
                let op = ops[self.rng.gen_range(0..ops.len())];
                let (a, b) = (self.src_fp(), self.src_fp());
                Instruction::fff(op, self.dest_fp(), a, b)
            }
            UnitType::FpMdu => {
                let op = if self.rng.gen_bool(0.7) {
                    Opcode::Fmul
                } else {
                    Opcode::Fdiv
                };
                let (a, b) = (self.src_fp(), self.src_fp());
                Instruction::fff(op, self.dest_fp(), a, b)
            }
        }
    }
}

/// Prelude: seed r1..r7 with small constants and f0..f7 with converted
/// values so chains compute on real data.
fn prelude() -> Vec<Instruction> {
    let mut out = Vec::new();
    for i in 1..8u8 {
        out.push(Instruction::rri(
            Opcode::Addi,
            IReg::new(i),
            IReg::ZERO,
            (i as i32) * 3 + 1,
        ));
    }
    for i in 0..8u8 {
        out.push(Instruction::fcvt_if(FReg::new(i), IReg::new((i % 7) + 1)));
    }
    out
}

fn generate_phased(
    name: &str,
    phases: &[(UnitMix, usize)],
    dep_density: f64,
    branch_prob: f64,
    iterations: u32,
    seed: u64,
) -> Program {
    let mut g = Gen::new(seed, dep_density);
    let total: usize = phases.iter().map(|(_, l)| l).sum();
    let mut body: Vec<Instruction> = Vec::new();
    for (mix, len) in phases {
        for _ in 0..*len {
            if branch_prob > 0.0 && g.rng.gen_bool(branch_prob) {
                // Data-dependent forward skip. The target may be at most
                // one past the body's end (landing on the loop tail /
                // halt), so it is always in range.
                let remaining = total - body.len(); // ≥ 1 (this slot)
                let hi = remaining.clamp(1, 6) as i32;
                let off = g.rng.gen_range(1..=hi);
                let ops = [Opcode::Beq, Opcode::Bne, Opcode::Blt];
                let op = ops[g.rng.gen_range(0..ops.len())];
                let (a, b) = (g.src_int(), g.src_int());
                body.push(Instruction::branch(op, a, b, off));
                continue;
            }
            let t = mix.sample(&mut g.rng);
            body.push(g.instr_for(t));
        }
    }
    let mut instrs = prelude();
    if iterations > 1 {
        // r31 = iterations
        // top:  body
        //       r31 -= 1
        //       beq r31, r0, done     (not-taken until the last lap)
        //       jal r0, top           (21-bit offset: long bodies fit)
        // done: halt
        instrs.push(Instruction::rri(
            Opcode::Addi,
            IReg::new(31),
            IReg::ZERO,
            iterations as i32,
        ));
        instrs.extend(body.iter().cloned());
        instrs.push(Instruction::rri(
            Opcode::Addi,
            IReg::new(31),
            IReg::new(31),
            -1,
        ));
        instrs.push(Instruction::branch(
            Opcode::Beq,
            IReg::new(31),
            IReg::ZERO,
            2,
        ));
        instrs.push(Instruction::jal(IReg::ZERO, -(body.len() as i32 + 2)));
    } else {
        instrs.extend(body);
    }
    instrs.push(Instruction::HALT);
    let p = Program::new(name, instrs);
    debug_assert_eq!(p.validate(), Ok(()));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_isa::units::TypeCounts;

    #[test]
    fn generated_programs_validate() {
        for (name, mix) in UnitMix::named() {
            let p = SynthSpec::new(name, mix, 42).generate();
            p.validate().unwrap();
            assert!(p.len() > 400);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = SynthSpec::new("a", UnitMix::BALANCED, 7).generate();
        let b = SynthSpec::new("a", UnitMix::BALANCED, 7).generate();
        assert_eq!(a, b);
        let c = SynthSpec::new("a", UnitMix::BALANCED, 8).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn mix_shapes_static_histogram() {
        let p = SynthSpec {
            body_len: 2000,
            ..SynthSpec::new("int", UnitMix::INT_ONLY, 1)
        }
        .generate();
        let mix: TypeCounts = p.static_mix();
        assert_eq!(mix.get(UnitType::Lsu), 0);
        assert_eq!(mix.get(UnitType::FpAlu), 8, "only the prelude converts");
        let p = SynthSpec {
            body_len: 2000,
            ..SynthSpec::new("fp", UnitMix::FP_ONLY, 1)
        }
        .generate();
        // FP-heavy: body has no Int-MDU at all.
        assert_eq!(p.static_mix().get(UnitType::IntMdu), 0);
    }

    #[test]
    fn looped_program_runs_and_halts() {
        use rsp_isa::semantics::ReferenceInterpreter;
        use rsp_isa::DataMemory;
        let p = SynthSpec {
            body_len: 50,
            iterations: 4,
            ..SynthSpec::new("loop", UnitMix::BALANCED, 3)
        }
        .generate();
        p.validate().unwrap();
        let mut i = ReferenceInterpreter::new(DataMemory::new(1024));
        let out = i.run(&p.instrs, 100_000);
        assert_eq!(out, rsp_isa::ExecOutcome::Halted);
        // prelude(15) + counter + 4*(50+2 except last lacks... ) roughly:
        assert!(i.retired > 200, "retired {}", i.retired);
    }

    #[test]
    fn phased_program_shifts_mix() {
        let p = PhasedSpec::int_fp_mem(300, 1, 5).generate();
        p.validate().unwrap();
        // First segment (after 15-instr prelude) is int-heavy; middle is
        // FP-heavy. Compare unit-type frequencies in the two windows.
        let seg1 = &p.instrs[15..315];
        let seg2 = &p.instrs[315..615];
        let count =
            |seg: &[Instruction], t: UnitType| seg.iter().filter(|i| i.unit_type() == t).count();
        assert!(count(seg1, UnitType::IntAlu) > count(seg2, UnitType::IntAlu));
        assert!(count(seg2, UnitType::FpAlu) > count(seg1, UnitType::FpAlu));
    }

    #[test]
    fn branchy_programs_validate_and_run() {
        use rsp_isa::semantics::ReferenceInterpreter;
        use rsp_isa::DataMemory;
        for seed in 0..5 {
            for iterations in [1, 3] {
                let p = SynthSpec {
                    body_len: 200,
                    branch_prob: 0.2,
                    iterations,
                    ..SynthSpec::new("branchy", UnitMix::BALANCED, seed)
                }
                .generate();
                p.validate().unwrap();
                let branches = p
                    .instrs
                    .iter()
                    .filter(|i| i.opcode.is_conditional_branch())
                    .count();
                assert!(branches > 10, "expected many branches, got {branches}");
                let mut i = ReferenceInterpreter::new(DataMemory::new(1024));
                let out = i.run(&p.instrs, 200_000);
                assert_eq!(out, rsp_isa::ExecOutcome::Halted);
            }
        }
    }

    #[test]
    fn sample_respects_zero_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let t = UnitMix::FP_ONLY.sample(&mut rng);
            assert!(matches!(t, UnitType::FpAlu | UnitType::FpMdu));
        }
    }

    #[test]
    #[should_panic]
    fn zero_total_weight_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = UnitMix { weights: [0.0; 5] }.sample(&mut rng);
    }
}
