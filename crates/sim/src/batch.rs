//! Batched program driver: run many programs back to back on one
//! reused [`Machine`].
//!
//! [`Processor::run`](crate::Processor::run) builds a fresh [`Machine`]
//! per program — fine for one long simulation, wasteful when sweeping
//! thousands of short synthetic workloads (the benchmark and
//! experiment-sweep pattern). [`BatchRunner`] validates the
//! configuration once and reuses one machine's wake-up array, register
//! update unit and data memory across programs via `Machine::reset`,
//! so per-run setup cost stays flat no matter how many programs flow
//! through.
//!
//! A batched run of a program is behaviourally identical to
//! [`Processor::run`](crate::Processor::run) on that program: `Machine::reset` restores every
//! piece of architectural and microarchitectural state (a unit test and
//! the differential suite pin this down).
//!
//! ```
//! use rsp_sim::{BatchRunner, SimConfig};
//! use rsp_workloads::kernels;
//!
//! let mut runner = BatchRunner::new(SimConfig::default()).unwrap();
//! for n in [8, 16, 32] {
//!     let report = runner.run(&kernels::dot_product(n), 100_000).unwrap();
//!     assert!(report.halted);
//! }
//! ```

use crate::config::SimConfig;
use crate::processor::{Machine, RunError};
use crate::stats::SimReport;
use rsp_isa::Program;

/// Drives many programs through one reused [`Machine`].
#[derive(Debug, Clone)]
pub struct BatchRunner {
    cfg: SimConfig,
    machine: Option<Machine>,
}

impl BatchRunner {
    /// Validate `cfg` once; the machine itself is built lazily on the
    /// first run.
    pub fn new(cfg: SimConfig) -> Result<BatchRunner, RunError> {
        cfg.validate().map_err(RunError::BadConfig)?;
        Ok(BatchRunner { cfg, machine: None })
    }

    /// Reset (or lazily build) the machine for `program` and hand it
    /// back for cycle-level driving; the caller steps it.
    pub fn start(&mut self, program: &Program) -> Result<&mut Machine, RunError> {
        program.validate().map_err(RunError::BadProgram)?;
        match &mut self.machine {
            Some(m) => m.reset(program),
            None => self.machine = Some(Machine::new(self.cfg.clone(), program)),
        }
        Ok(self.machine.as_mut().expect("machine just ensured"))
    }

    /// Run one program to completion (or `max_cycles`), reusing the
    /// machine from the previous run.
    pub fn run(&mut self, program: &Program, max_cycles: u64) -> Result<SimReport, RunError> {
        let m = self.start(program)?;
        while m.cycle() < max_cycles && m.step() {}
        Ok(m.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::Processor;
    use rsp_workloads::kernels;
    use rsp_workloads::synth::{SynthSpec, UnitMix};

    /// A batched run must be bit-identical to a fresh-machine run,
    /// including after the machine was dirtied by a different program.
    #[test]
    fn reset_machine_matches_fresh_machine() {
        let cfg = SimConfig::default();
        let a = kernels::dot_product(24);
        let b = SynthSpec::new("mix", UnitMix::BALANCED, 7).generate();
        let c = kernels::matmul(4);

        let mut fresh = Vec::new();
        for p in [&a, &b, &c] {
            fresh.push(Processor::new(cfg.clone()).run(p, 1_000_000).unwrap());
        }

        let mut runner = BatchRunner::new(cfg).unwrap();
        for (p, want) in [&a, &b, &c].into_iter().zip(&fresh) {
            let got = runner.run(p, 1_000_000).unwrap();
            assert_eq!(&got, want, "batched run diverged on {}", p.name);
        }
        // Run the first program again after the machine saw the others.
        let again = runner.run(&a, 1_000_000).unwrap();
        assert_eq!(&again, &fresh[0]);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let bad_cfg = SimConfig {
            queue_size: 0,
            ..SimConfig::default()
        };
        assert!(BatchRunner::new(bad_cfg).is_err());
        let mut runner = BatchRunner::new(SimConfig::default()).unwrap();
        let empty = Program::new("empty", vec![]);
        assert!(matches!(
            runner.run(&empty, 100),
            Err(RunError::BadProgram(_))
        ));
        // A rejected program must not poison the runner.
        assert!(
            runner
                .run(&kernels::dot_product(4), 100_000)
                .unwrap()
                .halted
        );
    }
}
