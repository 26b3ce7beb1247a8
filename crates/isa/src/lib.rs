//! # rsp-isa — instruction set of the reconfigurable superscalar processor
//!
//! This crate defines the RISC instruction set assumed by the paper
//! *"Configuration Steering for a Reconfigurable Superscalar Processor"*
//! (Veale, Antonio, Tull; IPDPS 2005) together with the functional-unit
//! type system of the paper's Table 1.
//!
//! The paper assumes a RISC architecture in which **each instruction is
//! supported by exactly one type of functional unit** out of five:
//! integer ALU, integer multiply/divide, load/store, floating-point ALU,
//! and floating-point multiply/divide. Everything in the steering machinery
//! (requirement encoders, error metrics, wake-up array resource columns)
//! keys off that five-way typing, which [`UnitType`] captures.
//!
//! Contents:
//! * [`units`] — the five functional-unit types, their 3-bit Table-1
//!   encodings, slot footprints, and the [`units::TypeCounts`] vector used
//!   throughout the steering pipeline.
//! * [`regs`] — integer and floating-point architectural registers.
//! * [`opcode`] — opcodes, their unit types and latency classes.
//! * [`instr`] — decoded instruction representation and builders.
//! * [`encode`] — 32-bit binary instruction words.
//! * [`asm`] — a small two-pass assembler / disassembler.
//! * [`mem`] — word-addressed data memory used by the semantics.
//! * [`semantics`] — architectural execution of single instructions and a
//!   reference interpreter (golden model for the cycle simulator).
//! * [`program`] — program container and validation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod asm;
pub mod encode;
pub mod instr;
pub mod mem;
pub mod opcode;
pub mod program;
pub mod regs;
pub mod semantics;
pub mod units;

pub use instr::Instruction;
pub use mem::DataMemory;
pub use opcode::{LatencyClass, Opcode};
pub use program::Program;
pub use regs::{FReg, IReg};
pub use semantics::{ArchState, ExecOutcome, ReferenceInterpreter};
pub use units::{SlotEncoding, TypeCounts, UnitType};
