//! Steering-basis search (paper §5, future work).
//!
//! "Designing the predefined steering configurations to be relatively
//! orthogonal to one another may form the basis necessary to permit a
//! large set of actual configurations … The authors are currently
//! investigating how to formulate an optimal basis."
//!
//! This module formulates and solves that problem for the static
//! objective: given a distribution of demand signatures (what the queue
//! asks for), choose `k` predefined configurations minimising the
//! **expected minimal CEM error** — for each demand sample, the best of
//! the `k` candidate configurations (plus the FFU baseline) is assumed
//! reachable, which is exactly the steady state the steering loop drives
//! toward.
//!
//! Two solvers:
//! * [`greedy_basis`] — iterative set-cover-style greedy (near-optimal,
//!   fast);
//! * [`exhaustive_basis`] — exact search over all `C(n, k)` subsets of
//!   the candidate shapes (the maximal-shape space is small: guarded to
//!   keep the search tractable).

use crate::cem::CemUnit;
use rsp_isa::units::{TypeCounts, UnitType};

/// Enumerate every unit-count shape that fits in `slots` RFU slots.
pub(crate) fn enumerate_shapes(slots: usize) -> Vec<TypeCounts> {
    let mut out = Vec::new();
    let max = |t: UnitType| (slots / t.slot_cost()) as u8;
    for a in 0..=max(UnitType::IntAlu) {
        for b in 0..=max(UnitType::IntMdu) {
            for c in 0..=max(UnitType::Lsu) {
                for d in 0..=max(UnitType::FpAlu) {
                    for e in 0..=max(UnitType::FpMdu) {
                        let counts = TypeCounts::new([a, b, c, d, e]);
                        if counts.slot_cost() <= slots {
                            out.push(counts);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Shapes to which no further unit can be added — the sensible candidate
/// set for a steering basis (anything else wastes fabric).
pub fn maximal_shapes(slots: usize) -> Vec<TypeCounts> {
    enumerate_shapes(slots)
        .into_iter()
        .filter(|c| {
            let free = slots - c.slot_cost();
            UnitType::ALL.iter().all(|t| t.slot_cost() > free)
        })
        .collect()
}

/// Mean over `samples` of the minimal CEM error achievable by any basis
/// member (each taken together with the FFU baseline). Lower is better.
pub fn basis_score(
    basis: &[TypeCounts],
    ffu: &TypeCounts,
    samples: &[TypeCounts],
    cem: CemUnit,
) -> f64 {
    assert!(!samples.is_empty(), "need at least one demand sample");
    let total: u64 = samples
        .iter()
        .map(|demand| {
            let demand = demand.saturating_3bit();
            basis
                .iter()
                .map(|b| cem.error(&demand, &b.saturating_add(ffu)) as u64)
                .min()
                .unwrap_or_else(|| cem.error(&demand, ffu) as u64)
        })
        .sum();
    total as f64 / samples.len() as f64
}

/// Greedy basis construction: start empty, repeatedly add the candidate
/// shape that most reduces the score, `k` times. Returns the basis and
/// its score.
pub fn greedy_basis(
    k: usize,
    candidates: &[TypeCounts],
    ffu: &TypeCounts,
    samples: &[TypeCounts],
    cem: CemUnit,
) -> (Vec<TypeCounts>, f64) {
    let mut basis: Vec<TypeCounts> = Vec::with_capacity(k);
    let mut best_score = f64::INFINITY;
    for _ in 0..k {
        let mut round_best: Option<(TypeCounts, f64)> = None;
        for &cand in candidates {
            if basis.contains(&cand) {
                continue;
            }
            basis.push(cand);
            let s = basis_score(&basis, ffu, samples, cem);
            basis.pop();
            if round_best.is_none_or(|(_, bs)| s < bs) {
                round_best = Some((cand, s));
            }
        }
        match round_best {
            Some((cand, s)) => {
                basis.push(cand);
                best_score = s;
            }
            None => break,
        }
    }
    (basis, best_score)
}

/// Exact search over all `C(n, k)` subsets. Guarded: panics if the
/// search space exceeds ~2 million subsets; use [`greedy_basis`] beyond
/// that.
pub fn exhaustive_basis(
    k: usize,
    candidates: &[TypeCounts],
    ffu: &TypeCounts,
    samples: &[TypeCounts],
    cem: CemUnit,
) -> (Vec<TypeCounts>, f64) {
    let n = candidates.len();
    assert!(k >= 1 && k <= n, "1 ≤ k ≤ candidates");
    let mut subsets = 1u64;
    for i in 0..k as u64 {
        subsets = subsets * (n as u64 - i) / (i + 1);
    }
    assert!(
        subsets <= 2_000_000,
        "search space {subsets} too large; use greedy_basis"
    );

    let mut idx: Vec<usize> = (0..k).collect();
    let mut best: Option<(Vec<TypeCounts>, f64)> = None;
    loop {
        let basis: Vec<TypeCounts> = idx.iter().map(|&i| candidates[i]).collect();
        let s = basis_score(&basis, ffu, samples, cem);
        if best.as_ref().is_none_or(|(_, bs)| s < *bs) {
            best = Some((basis, s));
        }
        // Next k-combination of 0..n in lexicographic order.
        let mut i = k;
        loop {
            if i == 0 {
                return best.unwrap();
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FFU: TypeCounts = TypeCounts::new([1, 1, 1, 1, 1]);

    #[test]
    fn enumeration_counts() {
        let all = enumerate_shapes(8);
        // Every shape fits; spot-check bounds.
        assert!(all.iter().all(|c| c.slot_cost() <= 8));
        assert!(all.contains(&TypeCounts::ZERO));
        assert!(all.contains(&TypeCounts::new([2, 1, 2, 0, 0]))); // Config 1
        assert!(all.contains(&TypeCounts::new([0, 0, 8, 0, 0]))); // 8 LSUs
        assert!(!all.contains(&TypeCounts::new([4, 1, 0, 0, 0]))); // 10 slots — absent
                                                                   // Maximal shapes leave no room for even an LSU.
        let max = maximal_shapes(8);
        assert!(max.iter().all(|c| c.slot_cost() == 8), "LSU costs 1 slot");
        assert!(max.contains(&TypeCounts::new([2, 1, 2, 0, 0])));
        assert!(!max.is_empty() && max.len() < all.len());
    }

    #[test]
    fn paper_configs_are_maximal() {
        let max = maximal_shapes(8);
        for c in [[2, 1, 2, 0, 0], [1, 1, 1, 1, 0], [0, 0, 2, 1, 1]] {
            assert!(max.contains(&TypeCounts::new(c)), "{c:?}");
        }
    }

    #[test]
    fn score_of_perfectly_matched_basis_is_low() {
        let samples = vec![TypeCounts::new([0, 0, 2, 2, 2])];
        let fp = TypeCounts::new([0, 0, 2, 1, 1]);
        let int = TypeCounts::new([2, 1, 2, 0, 0]);
        let s_fp = basis_score(&[fp], &FFU, &samples, CemUnit::PAPER);
        let s_int = basis_score(&[int], &FFU, &samples, CemUnit::PAPER);
        assert!(s_fp < s_int, "{s_fp} !< {s_int}");
        // A basis containing both scores as well as the best single.
        let s_both = basis_score(&[int, fp], &FFU, &samples, CemUnit::PAPER);
        assert_eq!(s_both, s_fp);
    }

    #[test]
    fn empty_basis_scores_against_ffus_only() {
        let samples = vec![TypeCounts::new([2, 0, 0, 0, 0])];
        let s = basis_score(&[], &FFU, &samples, CemUnit::PAPER);
        // 2 ALUs required, 1 available → 2>>0 = 2 (scaled).
        assert_eq!(s, 2.0 * crate::cem::ERROR_SCALE as f64);
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_space() {
        let candidates = [
            TypeCounts::new([2, 1, 2, 0, 0]),
            TypeCounts::new([1, 1, 1, 1, 0]),
            TypeCounts::new([0, 0, 2, 1, 1]),
            TypeCounts::new([0, 0, 8, 0, 0]),
            TypeCounts::new([4, 0, 0, 0, 0]),
        ];
        let samples = vec![
            TypeCounts::new([4, 0, 2, 0, 0]),
            TypeCounts::new([0, 0, 4, 0, 0]),
            TypeCounts::new([0, 0, 1, 2, 2]),
        ];
        let (gb, gs) = greedy_basis(2, &candidates, &FFU, &samples, CemUnit::PAPER);
        let (eb, es) = exhaustive_basis(2, &candidates, &FFU, &samples, CemUnit::PAPER);
        assert_eq!(gb.len(), 2);
        assert_eq!(eb.len(), 2);
        assert!(gs >= es, "greedy cannot beat exhaustive");
        // On this tiny instance greedy should actually find the optimum.
        assert_eq!(gs, es);
    }

    #[test]
    fn exhaustive_iterates_all_combinations() {
        // k == n degenerates to the full candidate set.
        let candidates = [TypeCounts::new([1, 0, 0, 0, 0]), TypeCounts::ZERO];
        let samples = vec![TypeCounts::new([2, 0, 0, 0, 0])];
        let (b, _) = exhaustive_basis(2, &candidates, &FFU, &samples, CemUnit::PAPER);
        assert_eq!(b.len(), 2);
    }

    #[test]
    #[should_panic]
    fn exhaustive_guards_search_space() {
        let candidates: Vec<TypeCounts> = enumerate_shapes(8);
        // C(n, 5) over the full shape space blows the guard.
        let samples = vec![TypeCounts::ZERO];
        let _ = exhaustive_basis(5, &candidates, &FFU, &samples, CemUnit::PAPER);
    }
}
