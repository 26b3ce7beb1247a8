//! Demand-signature sampling for the CEM sweeps and the basis search
//! (experiments F3 and E6).
//!
//! A demand sample is a [`TypeCounts`] with total ≤ 7 — what the
//! requirement encoders can emit for a 7-entry queue. Samplers draw
//! queue snapshots from a [`UnitMix`], mirroring what the selection unit
//! would observe while running a workload of that mix.

use crate::synth::UnitMix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsp_isa::units::TypeCounts;

/// A workload population: named mixes with weights, sampled jointly —
/// the demand distribution a steering basis should serve (E6).
pub fn mixed_population(count: usize, seed: u64) -> Vec<TypeCounts> {
    let mut rng = StdRng::seed_from_u64(seed);
    let named = UnitMix::named();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let (_, mix) = named[rng.gen_range(0..named.len())];
        let mut c = TypeCounts::ZERO;
        for _ in 0..7 {
            c.add(mix.sample(&mut rng), 1);
        }
        out.push(c);
    }
    out
}

/// Every possible requirement signature with total demand ≤ `max_total`
/// — the exhaustive input space of the CEM table (F3).
pub fn all_signatures(max_total: u32) -> Vec<TypeCounts> {
    let m = max_total.min(7) as u8;
    let mut out = Vec::new();
    for a in 0..=m {
        for b in 0..=m {
            for c in 0..=m {
                for d in 0..=m {
                    for e in 0..=m {
                        let t = TypeCounts::new([a, b, c, d, e]);
                        if t.total() <= max_total {
                            out.push(t);
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        assert_eq!(mixed_population(30, 4), mixed_population(30, 4));
    }

    #[test]
    fn signature_space_size() {
        // Σ over totals 0..=2 of compositions into 5 lanes:
        // C(4,4)=1, C(5,4)=5, C(6,4)=15 → 21.
        assert_eq!(all_signatures(2).len(), 21);
        // All signatures are within bound and unique.
        let all = all_signatures(7);
        assert!(all.iter().all(|s| s.total() <= 7));
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
        // The count equals C(7+5,5) = 792 (stars and bars for total ≤ 7).
        assert_eq!(all.len(), 792);
    }

    #[test]
    fn population_is_diverse() {
        let pop = mixed_population(200, 7);
        let fp_heavy = pop
            .iter()
            .filter(|c| c.get(rsp_isa::UnitType::FpAlu) + c.get(rsp_isa::UnitType::FpMdu) >= 4)
            .count();
        let int_heavy = pop
            .iter()
            .filter(|c| c.get(rsp_isa::UnitType::IntAlu) >= 4)
            .count();
        assert!(fp_heavy > 5, "{fp_heavy}");
        assert!(int_heavy > 5, "{int_heavy}");
    }
}
