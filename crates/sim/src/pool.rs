//! A bounded pool of scalar [`Machine`]s for `rsp-serve`.
//!
//! The serve engine steps many tenants concurrently; building a
//! `Machine` from scratch (fabric, wake-up array, policy tables) per
//! tenant is the expensive path, while `Machine::reset` on a machine
//! built for the *same* [`SimConfig`] is pinned by the batch-runner
//! tests to be equivalent to a fresh build. The pool exploits that:
//! released machines are cached with their config, and a lease for a
//! matching config reuses one via `reset` instead of rebuilding.
//!
//! The pool never blocks: a lease beyond the cache simply builds a new
//! machine (admission control lives in the serve scheduler, not here),
//! and a release beyond the pool's capacity drops the machine.
//! [`PoolStats`] counts reuses vs. rebuilds so the serve telemetry can
//! report cache effectiveness.

use crate::config::SimConfig;
use crate::processor::{Machine, Processor, RunError};
use rsp_isa::Program;
use serde::{Deserialize, Serialize};

/// Lease/reuse counters for pool effectiveness reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Total leases served.
    pub leases: u64,
    /// Leases satisfied by resetting a cached machine (cheap path).
    pub reuses: u64,
    /// Leases that had to build a machine from scratch.
    pub rebuilds: u64,
    /// Machines returned to the pool.
    pub releases: u64,
    /// Releases dropped because the pool was at capacity.
    pub dropped: u64,
    /// Machines currently leased out (leases minus releases).
    #[serde(default)]
    pub in_use: u64,
    /// High-water mark of concurrently leased machines.
    #[serde(default)]
    pub peak_in_use: u64,
}

/// A bounded cache of idle machines keyed by their [`SimConfig`].
#[derive(Debug)]
pub struct MachinePool {
    free: Vec<(SimConfig, Machine)>,
    capacity: usize,
    stats: PoolStats,
}

impl MachinePool {
    /// A pool caching at most `capacity` idle machines.
    pub fn new(capacity: usize) -> MachinePool {
        MachinePool {
            free: Vec::with_capacity(capacity.min(64)),
            capacity,
            stats: PoolStats::default(),
        }
    }

    /// Idle machines currently cached.
    #[cfg(test)]
    pub(crate) fn free(&self) -> usize {
        self.free.len()
    }

    /// Lease a machine configured as `cfg` and started on `program`.
    ///
    /// Reuses a cached machine with an identical config when one is
    /// available (via `Machine::reset`); otherwise builds one. The
    /// caller owns the machine until it hands it back with
    /// [`MachinePool::release`].
    pub fn lease(&mut self, cfg: &SimConfig, program: &Program) -> Result<Machine, RunError> {
        self.stats.leases += 1;
        if let Some(i) = self.free.iter().position(|(c, _)| c == cfg) {
            let (_, mut m) = self.free.swap_remove(i);
            m.reset(program);
            self.stats.reuses += 1;
            self.track_occupancy();
            return Ok(m);
        }
        let m = Processor::try_new(cfg.clone())?.start(program)?;
        self.stats.rebuilds += 1;
        self.track_occupancy();
        Ok(m)
    }

    fn track_occupancy(&mut self) {
        self.stats.in_use += 1;
        self.stats.peak_in_use = self.stats.peak_in_use.max(self.stats.in_use);
    }

    /// Return a machine to the pool. Dropped (not cached) when the pool
    /// is at capacity.
    pub fn release(&mut self, cfg: SimConfig, machine: Machine) {
        self.stats.releases += 1;
        self.stats.in_use = self.stats.in_use.saturating_sub(1);
        if self.free.len() < self.capacity {
            self.free.push((cfg, machine));
        } else {
            self.stats.dropped += 1;
        }
    }

    /// Lease/reuse counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use rsp_isa::asm::assemble;

    fn tiny_program(name: &str) -> Program {
        assemble(
            name,
            "addi r1, r0, 5\n addi r2, r1, 2\n add r3, r1, r2\n halt",
        )
        .unwrap()
    }

    #[test]
    fn lease_release_lease_reuses_matching_config() {
        let cfg = SimConfig::default();
        let p = tiny_program("t");
        let mut pool = MachinePool::new(4);
        let m = pool.lease(&cfg, &p).unwrap();
        assert_eq!(pool.stats().rebuilds, 1);
        pool.release(cfg.clone(), m);
        assert_eq!(pool.free(), 1);
        let _m2 = pool.lease(&cfg, &p).unwrap();
        let s = pool.stats();
        assert_eq!((s.leases, s.reuses, s.rebuilds), (2, 1, 1));
        assert_eq!(pool.free(), 0);
    }

    #[test]
    fn mismatched_config_rebuilds() {
        let cfg_a = SimConfig::default();
        let cfg_b = SimConfig {
            policy: PolicyKind::Static,
            ..SimConfig::default()
        };
        let p = tiny_program("t");
        let mut pool = MachinePool::new(4);
        let m = pool.lease(&cfg_a, &p).unwrap();
        pool.release(cfg_a, m);
        let _m2 = pool.lease(&cfg_b, &p).unwrap();
        let s = pool.stats();
        assert_eq!((s.reuses, s.rebuilds), (0, 2));
        // The cached cfg_a machine is still there for a later lease.
        assert_eq!(pool.free(), 1);
    }

    #[test]
    fn release_beyond_capacity_drops() {
        let cfg = SimConfig::default();
        let p = tiny_program("t");
        let mut pool = MachinePool::new(1);
        let a = pool.lease(&cfg, &p).unwrap();
        let b = pool.lease(&cfg, &p).unwrap();
        pool.release(cfg.clone(), a);
        pool.release(cfg.clone(), b);
        assert_eq!(pool.free(), 1);
        assert_eq!(pool.stats().dropped, 1);
    }

    #[test]
    fn occupancy_tracks_outstanding_leases_and_peak() {
        let cfg = SimConfig::default();
        let p = tiny_program("t");
        let mut pool = MachinePool::new(4);
        let a = pool.lease(&cfg, &p).unwrap();
        let b = pool.lease(&cfg, &p).unwrap();
        assert_eq!(pool.stats().in_use, 2);
        assert_eq!(pool.stats().peak_in_use, 2);
        pool.release(cfg.clone(), a);
        assert_eq!(pool.stats().in_use, 1);
        let c = pool.lease(&cfg, &p).unwrap();
        assert_eq!(pool.stats().in_use, 2);
        pool.release(cfg.clone(), b);
        pool.release(cfg.clone(), c);
        let s = pool.stats();
        assert_eq!(s.in_use, 0);
        assert_eq!(s.peak_in_use, 2, "peak survives releases");
    }

    #[test]
    fn reused_machine_runs_identically_to_fresh() {
        // A pooled lease must be indistinguishable from a fresh build:
        // run the same program both ways and compare reports.
        let cfg = SimConfig::default();
        let p = tiny_program("t");
        let mut pool = MachinePool::new(2);
        let mut warm = pool.lease(&cfg, &p).unwrap();
        while !warm.finished() {
            warm.step();
        }
        pool.release(cfg.clone(), warm);

        let mut reused = pool.lease(&cfg, &p).unwrap();
        while !reused.finished() {
            reused.step();
        }
        let mut fresh = Processor::new(cfg).start(&p).unwrap();
        while !fresh.finished() {
            fresh.step();
        }
        assert_eq!(pool.stats().reuses, 1);
        assert_eq!(reused.cycle(), fresh.cycle());
        assert_eq!(reused.retired(), fresh.retired());
        assert_eq!(reused.regfile().iregs(), fresh.regfile().iregs());
    }
}
