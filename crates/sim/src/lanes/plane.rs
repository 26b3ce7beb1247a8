//! Bit-plane arithmetic primitives for the lane kernel.
//!
//! A *plane group* `[u64; N]` holds one N-bit quantity for each of 64
//! lanes, transposed: bit `b` of lane `l`'s value lives in bit `l` of
//! plane `b`. Every function here is a pure combinational circuit over
//! such groups — ripple-carry adders, borrow-chain comparators, and
//! mask-select muxes — evaluating all 64 lanes per word operation.
//!
//! The const parameter `N` is the bit width; widths in the kernel are
//! small (2..=12), so the compiler fully unrolls every loop.

/// All-lanes mask constant.
pub const ALL: u64 = u64::MAX;

/// Plane group of the constant `c`: plane `b` is all-ones iff bit `b`
/// of `c` is set (every lane holds `c`).
#[inline]
pub(crate) fn splat<const N: usize>(c: u8) -> [u64; N] {
    let c = c as u64; // widths may exceed 8 bits (zero-filled above c)
    let mut out = [0u64; N];
    for (b, plane) in out.iter_mut().enumerate() {
        *plane = if (c >> b) & 1 != 0 { ALL } else { 0 };
    }
    out
}

/// Lanes where `a == b` (1 = equal).
#[inline]
pub fn eq<const N: usize>(a: &[u64; N], b: &[u64; N]) -> u64 {
    let mut m = ALL;
    for i in 0..N {
        m &= !(a[i] ^ b[i]);
    }
    m
}

/// Lanes where `a == c` for a constant `c`.
#[inline]
pub(crate) fn eq_const<const N: usize>(a: &[u64; N], c: u8) -> u64 {
    let c = c as u64;
    let mut m = ALL;
    for (b, plane) in a.iter().enumerate() {
        m &= if (c >> b) & 1 != 0 { *plane } else { !*plane };
    }
    m
}

/// Lanes where `a < b` (unsigned): the borrow out of `a - b`.
#[inline]
pub fn lt<const N: usize>(a: &[u64; N], b: &[u64; N]) -> u64 {
    let mut borrow = 0u64;
    for i in 0..N {
        // Borrow out of bit i of a - b - borrow_in.
        borrow = (!a[i] & (b[i] | borrow)) | (b[i] & borrow);
    }
    borrow
}

/// Lanes where `a` is zero.
#[inline]
pub fn is_zero<const N: usize>(a: &[u64; N]) -> u64 {
    let mut any = 0u64;
    for plane in a {
        any |= plane;
    }
    !any
}

/// Per-lane select: `m ? a : b`.
#[inline]
pub fn mux<const N: usize>(m: u64, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
    let mut out = [0u64; N];
    for i in 0..N {
        out[i] = (a[i] & m) | (b[i] & !m);
    }
    out
}

/// Per-lane select against a constant: `m ? c : b`.
#[inline]
pub(crate) fn mux_const<const N: usize>(m: u64, c: u8, b: &[u64; N]) -> [u64; N] {
    let c = c as u64;
    let mut out = [0u64; N];
    for (i, plane) in out.iter_mut().enumerate() {
        let cb = if (c >> i) & 1 != 0 { m } else { 0 };
        *plane = cb | (b[i] & !m);
    }
    out
}

/// Ripple-carry add: `a + b` mod `2^N`, returning the carry-out mask.
#[inline]
pub fn add<const N: usize>(a: &[u64; N], b: &[u64; N]) -> ([u64; N], u64) {
    let mut out = [0u64; N];
    let mut carry = 0u64;
    for i in 0..N {
        out[i] = a[i] ^ b[i] ^ carry;
        carry = (a[i] & b[i]) | (carry & (a[i] ^ b[i]));
    }
    (out, carry)
}

/// Borrow-chain subtract: `a - b` mod `2^N` (two's complement),
/// returning the borrow-out mask (lanes where `a < b`).
#[inline]
pub fn sub<const N: usize>(a: &[u64; N], b: &[u64; N]) -> ([u64; N], u64) {
    let mut out = [0u64; N];
    let mut borrow = 0u64;
    for i in 0..N {
        out[i] = a[i] ^ b[i] ^ borrow;
        borrow = (!a[i] & (b[i] | borrow)) | (b[i] & borrow);
    }
    (out, borrow)
}

/// Increment the lanes selected by `m` in place; returns the carry-out
/// mask (lanes that wrapped from the maximum value to zero).
#[inline]
pub(crate) fn inc_masked<const N: usize>(a: &mut [u64; N], m: u64) -> u64 {
    let mut carry = m;
    for plane in a.iter_mut() {
        let s = *plane ^ carry;
        carry &= *plane;
        *plane = s;
    }
    carry
}

/// Decrement the lanes selected by `m` in place; returns the borrow-out
/// mask (lanes that wrapped from zero to the maximum value).
#[inline]
pub(crate) fn dec_masked<const N: usize>(a: &mut [u64; N], m: u64) -> u64 {
    let mut borrow = m;
    for plane in a.iter_mut() {
        let s = *plane ^ borrow;
        borrow &= !*plane;
        *plane = s;
    }
    borrow
}

/// Add the constant `c` to every lane (mod `2^N`); returns carry-out.
#[inline]
pub(crate) fn add_const<const N: usize>(a: &mut [u64; N], c: u8) -> u64 {
    let (out, carry) = add(a, &splat::<N>(c));
    *a = out;
    carry
}

/// Zero-extend an `A`-bit group into a `B`-bit group (`B >= A`).
#[inline]
pub(crate) fn widen<const A: usize, const B: usize>(a: &[u64; A]) -> [u64; B] {
    debug_assert!(B >= A);
    let mut out = [0u64; B];
    out[..A].copy_from_slice(a);
    out
}

/// Read lane `l`'s value out of a plane group (the inverse transpose,
/// used by the per-lane extraction and test APIs, not the hot kernel).
#[inline]
pub fn extract<const N: usize>(a: &[u64; N], lane_bit: u32) -> u8 {
    let mut v = 0u8;
    for (b, plane) in a.iter().enumerate() {
        v |= (((plane >> lane_bit) & 1) as u8) << b;
    }
    v
}

/// Write `v` into lane `l` of a plane group (stimulus/state builders).
#[inline]
pub fn insert<const N: usize>(a: &mut [u64; N], lane_bit: u32, v: u8) {
    let v = v as u64;
    for (b, plane) in a.iter_mut().enumerate() {
        let bit = 1u64 << lane_bit;
        if (v >> b) & 1 != 0 {
            *plane |= bit;
        } else {
            *plane &= !bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pack 64 scalar values into a plane group.
    fn pack<const N: usize>(vals: &[u8; 64]) -> [u64; N] {
        let mut g = [0u64; N];
        for (l, &v) in vals.iter().enumerate() {
            insert(&mut g, l as u32, v & ((1u16 << N) - 1) as u8);
        }
        g
    }

    fn unpack<const N: usize>(g: &[u64; N]) -> [u8; 64] {
        let mut out = [0u8; 64];
        for (l, o) in out.iter_mut().enumerate() {
            *o = extract(g, l as u32);
        }
        out
    }

    proptest! {
        #[test]
        fn arithmetic_matches_scalar(
            a in proptest::collection::vec(0u8..32, 64),
            b in proptest::collection::vec(0u8..32, 64),
            m in any::<u64>(),
        ) {
            const N: usize = 5;
            let mask = (1u8 << N) - 1;
            let a: [u8; 64] = a.try_into().unwrap();
            let b: [u8; 64] = b.try_into().unwrap();
            let (ga, gb) = (pack::<N>(&a), pack::<N>(&b));

            let (sum, carry) = add(&ga, &gb);
            let (diff, borrow) = sub(&ga, &gb);
            let eqm = eq(&ga, &gb);
            let ltm = lt(&ga, &gb);
            let zm = is_zero(&ga);
            let muxed = mux(m, &ga, &gb);
            let mut inc = ga;
            let inc_carry = inc_masked(&mut inc, m);
            let mut dec = ga;
            let dec_borrow = dec_masked(&mut dec, m);

            for l in 0..64usize {
                let bit = |x: u64| (x >> l) & 1 != 0;
                prop_assert_eq!(extract(&sum, l as u32), a[l].wrapping_add(b[l]) & mask);
                prop_assert_eq!(bit(carry), (a[l] as u16 + b[l] as u16) > mask as u16);
                prop_assert_eq!(extract(&diff, l as u32), a[l].wrapping_sub(b[l]) & mask);
                prop_assert_eq!(bit(borrow), a[l] < b[l]);
                prop_assert_eq!(bit(eqm), a[l] == b[l]);
                prop_assert_eq!(bit(ltm), a[l] < b[l]);
                prop_assert_eq!(bit(zm), a[l] == 0);
                prop_assert_eq!(
                    extract(&muxed, l as u32),
                    if bit(m) { a[l] } else { b[l] }
                );
                let want_inc = if bit(m) { a[l].wrapping_add(1) & mask } else { a[l] };
                prop_assert_eq!(extract(&inc, l as u32), want_inc);
                prop_assert_eq!(bit(inc_carry), bit(m) && a[l] == mask);
                let want_dec = if bit(m) { a[l].wrapping_sub(1) & mask } else { a[l] };
                prop_assert_eq!(extract(&dec, l as u32), want_dec);
                prop_assert_eq!(bit(dec_borrow), bit(m) && a[l] == 0);
            }
        }

        #[test]
        fn const_forms_match_general(v in 0u8..32, m in any::<u64>()) {
            const N: usize = 5;
            let g = splat::<N>(v);
            prop_assert_eq!(unpack(&g), [v; 64]);
            prop_assert_eq!(eq_const(&g, v), ALL);
            if v > 0 {
                prop_assert_eq!(eq_const(&g, v - 1), 0);
            }
            let zero = [0u64; N];
            prop_assert_eq!(mux_const(m, v, &zero), mux(m, &g, &zero));
            let mut a = splat::<N>(7);
            let carry = add_const(&mut a, v);
            prop_assert_eq!(extract(&a, 0), 7u8.wrapping_add(v) & 0x1F);
            prop_assert_eq!(carry != 0, 7u16 + v as u16 > 31);
        }
    }

    #[test]
    fn widen_zero_extends() {
        let a = splat::<3>(0b101);
        let w: [u64; 6] = widen(&a);
        assert_eq!(extract(&w, 17), 0b101);
        assert_eq!(w[3] | w[4] | w[5], 0);
    }
}
