//! Small real kernels with architecturally checkable results.
//!
//! Each kernel initialises its own inputs (data memory starts zeroed),
//! computes, and stores results back to memory, so tests can assert
//! closed-form values. The kernels span the demand space: `dot_product`,
//! `saxpy` and `fir` are FP-heavy, `matmul` is integer-multiply-heavy,
//! `checksum` is integer-ALU-heavy, and `memcpy` is load/store-bound.
//!
//! Memory layout conventions are documented per kernel.

use rsp_isa::asm::assemble;
use rsp_isa::Program;

fn asm(name: &str, src: String) -> Program {
    let p = assemble(name, &src).unwrap_or_else(|e| panic!("kernel {name}: {e}"));
    p.validate()
        .unwrap_or_else(|e| panic!("kernel {name} invalid: {e}"));
    p
}

/// FP dot product of two `n`-vectors.
///
/// Layout: `a[i]` at word `i`, `b[i]` at `n+i`, both initialised to
/// `i+1.0`; the scalar result (`Σ (i+1)²`) is stored at word `2n` and
/// its integer truncation lands in `r10`.
pub fn dot_product(n: usize) -> Program {
    assert!((1..=500).contains(&n), "n must be 1..=500");
    asm(
        "dot_product",
        format!(
            r#"
            addi r1, r0, 0          ; i
            addi r2, r0, {n}        ; n
        init:
            addi r3, r1, 1
            fcvt.i.f f1, r3
            fsw  f1, 0(r1)          ; a[i] = i+1
            add  r4, r1, r2
            fsw  f1, 0(r4)          ; b[i] = i+1
            addi r1, r1, 1
            bne  r1, r2, init
            addi r1, r0, 0
            fcvt.i.f f10, r0        ; acc = 0.0
        dot:
            flw  f2, 0(r1)
            add  r4, r1, r2
            flw  f3, 0(r4)
            fmul f4, f2, f3
            fadd f10, f10, f4
            addi r1, r1, 1
            bne  r1, r2, dot
            add  r5, r2, r2
            fsw  f10, 0(r5)         ; result at 2n
            fcvt.f.i r10, f10
            halt
        "#
        ),
    )
}

/// SAXPY: `y[i] = a·x[i] + y[i]` with `x[i] = i`, `y[i] = 2`, `a = 3`.
///
/// Layout: `x` at `0..n`, `y` at `n..2n`; afterwards `y[i] = 3i + 2`.
pub fn saxpy(n: usize) -> Program {
    assert!((1..=500).contains(&n), "n must be 1..=500");
    asm(
        "saxpy",
        format!(
            r#"
            addi r1, r0, 0
            addi r2, r0, {n}
            addi r3, r0, 2
            fcvt.i.f f9, r3         ; 2.0
            addi r3, r0, 3
            fcvt.i.f f8, r3         ; a = 3.0
        init:
            fcvt.i.f f1, r1
            fsw  f1, 0(r1)          ; x[i] = i
            add  r4, r1, r2
            fsw  f9, 0(r4)          ; y[i] = 2
            addi r1, r1, 1
            bne  r1, r2, init
            addi r1, r0, 0
        loop:
            flw  f2, 0(r1)          ; x[i]
            add  r4, r1, r2
            flw  f3, 0(r4)          ; y[i]
            fmul f4, f8, f2
            fadd f5, f4, f3
            fsw  f5, 0(r4)
            addi r1, r1, 1
            bne  r1, r2, loop
            halt
        "#
        ),
    )
}

/// 4-tap FIR over a constant-1.0 signal: `out[i] = Σ_j c[j]·x[i+j]` with
/// taps `1,2,3,4`, so every output equals `10.0`.
///
/// Layout: `x` at `0..n+4` (all 1.0), `out` at `n+4..2n+4`.
pub fn fir(n: usize) -> Program {
    assert!((1..=400).contains(&n), "n must be 1..=400");
    let xs = n + 4;
    asm(
        "fir",
        format!(
            r#"
            addi r3, r0, 1
            fcvt.i.f f1, r3         ; 1.0
            addi r3, r0, 2
            fcvt.i.f f21, r3
            addi r3, r0, 3
            fcvt.i.f f22, r3
            addi r3, r0, 4
            fcvt.i.f f23, r3
            addi r1, r0, 0
            addi r2, r0, {xs}
        initx:
            fsw  f1, 0(r1)          ; x[i] = 1.0
            addi r1, r1, 1
            bne  r1, r2, initx
            addi r1, r0, 0
            addi r5, r0, {n}
        loop:
            flw  f2, 0(r1)
            flw  f3, 1(r1)
            flw  f4, 2(r1)
            flw  f5, 3(r1)
            fmul f6, f3, f21        ; 2*x
            fmul f7, f4, f22        ; 3*x
            fmul f8, f5, f23        ; 4*x
            fadd f9, f2, f6
            fadd f10, f7, f8
            fadd f11, f9, f10
            add  r4, r1, r2
            fsw  f11, 0(r4)         ; out[i]
            addi r1, r1, 1
            bne  r1, r5, loop
            halt
        "#
        ),
    )
}

/// Integer `m×m` matrix multiply `C = A·B` with `A[i][j] = i+j` and `B`
/// the identity, so `C == A`.
///
/// Layout: `A` at `0..m²`, `B` at `m²..2m²`, `C` at `2m²..3m²`.
pub fn matmul(m: usize) -> Program {
    assert!((2..=16).contains(&m), "m must be 2..=16");
    let mm = m * m;
    asm(
        "matmul",
        format!(
            r#"
            addi r20, r0, {m}       ; m
            addi r21, r0, {mm}      ; m*m
            addi r1, r0, 0          ; i
        inita_i:
            addi r2, r0, 0          ; j
        inita_j:
            mul  r3, r1, r20
            add  r3, r3, r2         ; i*m + j
            add  r4, r1, r2         ; A[i][j] = i+j
            sw   r4, 0(r3)
            addi r2, r2, 1
            bne  r2, r20, inita_j
            addi r1, r1, 1
            bne  r1, r20, inita_i
            addi r1, r0, 0          ; B identity: B[i][i] = 1
            addi r5, r0, 1
        initb:
            mul  r3, r1, r20
            add  r3, r3, r1
            add  r3, r3, r21        ; m*m + i*m + i
            sw   r5, 0(r3)
            addi r1, r1, 1
            bne  r1, r20, initb
            addi r1, r0, 0          ; i
        mul_i:
            addi r2, r0, 0          ; j
        mul_j:
            addi r6, r0, 0          ; acc
            addi r7, r0, 0          ; k
        mul_k:
            mul  r3, r1, r20
            add  r3, r3, r7         ; i*m + k
            lw   r8, 0(r3)          ; A[i][k]
            mul  r3, r7, r20
            add  r3, r3, r2
            add  r3, r3, r21        ; m*m + k*m + j
            lw   r9, 0(r3)          ; B[k][j]
            mul  r10, r8, r9
            add  r6, r6, r10
            addi r7, r7, 1
            bne  r7, r20, mul_k
            mul  r3, r1, r20
            add  r3, r3, r2
            add  r3, r3, r21
            add  r3, r3, r21        ; 2m² + i*m + j
            sw   r6, 0(r3)          ; C[i][j]
            addi r2, r2, 1
            bne  r2, r20, mul_j
            addi r1, r1, 1
            bne  r1, r20, mul_i
            halt
        "#
        ),
    )
}

/// Integer checksum: initialise `mem[i] = 7i + 3` for `i < n`, then fold
/// `s = (s ^ v) + (v << 1)` over the region. The final checksum is stored
/// at word `n` and left in `r10`.
pub fn checksum(n: usize) -> Program {
    assert!((1..=500).contains(&n), "n must be 1..=500");
    asm(
        "checksum",
        format!(
            r#"
            addi r1, r0, 0
            addi r2, r0, {n}
            addi r5, r0, 7
        init:
            mul  r3, r1, r5
            addi r3, r3, 3
            sw   r3, 0(r1)
            addi r1, r1, 1
            bne  r1, r2, init
            addi r1, r0, 0
            addi r10, r0, 0         ; s
            addi r6, r0, 1
        fold:
            lw   r4, 0(r1)
            xor  r10, r10, r4
            sll  r7, r4, r6
            add  r10, r10, r7
            addi r1, r1, 1
            bne  r1, r2, fold
            sw   r10, 0(r2)         ; checksum at n
            halt
        "#
        ),
    )
}

/// Pure load/store copy: `mem[i] = i + 5` for `i < n`, copied to
/// `n..2n`.
pub fn memcpy(n: usize) -> Program {
    assert!((1..=500).contains(&n), "n must be 1..=500");
    asm(
        "memcpy",
        format!(
            r#"
            addi r1, r0, 0
            addi r2, r0, {n}
        init:
            addi r3, r1, 5
            sw   r3, 0(r1)
            addi r1, r1, 1
            bne  r1, r2, init
            addi r1, r0, 0
        copy:
            lw   r4, 0(r1)
            add  r5, r1, r2
            sw   r4, 0(r5)
            addi r1, r1, 1
            bne  r1, r2, copy
            halt
        "#
        ),
    )
}

/// In-place integer bubble sort of `mem[0..n]`, initialised descending
/// (`mem[i] = n - i`), sorted ascending. Control-flow heavy: the swap
/// branch is data-dependent and mispredicts freely.
pub fn bubble_sort(n: usize) -> Program {
    assert!((2..=64).contains(&n), "n must be 2..=64");
    asm(
        "bubble_sort",
        format!(
            r#"
            addi r1, r0, 0
            addi r2, r0, {n}
        init:
            sub  r3, r2, r1         ; n - i (descending)
            sw   r3, 0(r1)
            addi r1, r1, 1
            bne  r1, r2, init
            addi r10, r2, -1        ; limit = n-1
        outer:
            addi r1, r0, 0          ; j = 0
        inner:
            lw   r4, 0(r1)
            lw   r5, 1(r1)
            slt  r6, r5, r4
            beq  r6, r0, noswap
            sw   r5, 0(r1)
            sw   r4, 1(r1)
        noswap:
            addi r1, r1, 1
            bne  r1, r10, inner
            addi r10, r10, -1
            bne  r10, r0, outer
            halt
        "#
        ),
    )
}

/// Binary search over a sorted array (`mem[i] = 2i`), `rounds` probes
/// with targets `7t mod 2n`; the number of hits (targets that are even)
/// is stored at word 1000 and left in `r10`.
pub(crate) fn binary_search(n: usize, rounds: usize) -> Program {
    assert!((2..=400).contains(&n), "n must be 2..=400");
    assert!((1..=500).contains(&rounds), "rounds must be 1..=500");
    asm(
        "binary_search",
        format!(
            r#"
            addi r1, r0, 0
            addi r2, r0, {n}
        init:
            add  r3, r1, r1         ; 2*i
            sw   r3, 0(r1)
            addi r1, r1, 1
            bne  r1, r2, init
            addi r20, r0, 0         ; t
            addi r21, r0, {rounds}
            addi r10, r0, 0         ; hits
        round:
            addi r3, r0, 7
            mul  r4, r20, r3
            add  r5, r2, r2
            rem  r4, r4, r5         ; target = 7t mod 2n
            addi r6, r0, 0          ; lo
            add  r7, r2, r0         ; hi = n
        search:
            sub  r8, r7, r6
            beq  r8, r0, notfound
            add  r9, r6, r7
            addi r11, r0, 2
            div  r9, r9, r11        ; mid
            lw   r12, 0(r9)
            beq  r12, r4, found
            slt  r13, r12, r4
            beq  r13, r0, goleft
            addi r6, r9, 1          ; lo = mid+1
            jal  r0, search
        goleft:
            add  r7, r9, r0         ; hi = mid
            jal  r0, search
        found:
            addi r10, r10, 1
        notfound:
            addi r20, r20, 1
            bne  r20, r21, round
            sw   r10, 1000(r0)
            halt
        "#
        ),
    )
}

/// All kernels at representative sizes, with labels (the E1 kernel axis).
pub fn suite() -> Vec<Program> {
    vec![
        dot_product(64),
        saxpy(64),
        fir(48),
        matmul(8),
        checksum(96),
        memcpy(96),
        bubble_sort(24),
        binary_search(64, 60),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_isa::semantics::ReferenceInterpreter;
    use rsp_isa::{DataMemory, ExecOutcome};

    fn run(p: &Program) -> ReferenceInterpreter {
        let mut i = ReferenceInterpreter::new(DataMemory::new(4096));
        let out = i.run(&p.instrs, 2_000_000);
        assert_eq!(out, ExecOutcome::Halted, "{} did not halt", p.name);
        i
    }

    #[test]
    fn dot_product_closed_form() {
        let n = 10u64;
        let i = run(&dot_product(n as usize));
        let expect = (1..=n).map(|k| (k * k) as f64).sum::<f64>();
        assert_eq!(i.mem.load_fp(2 * n as i64), expect);
        assert_eq!(i.state.iregs()[10], expect as i64);
    }

    #[test]
    fn saxpy_closed_form() {
        let n = 12;
        let i = run(&saxpy(n));
        for k in 0..n as i64 {
            assert_eq!(i.mem.load_fp(n as i64 + k), (3 * k + 2) as f64, "y[{k}]");
        }
    }

    #[test]
    fn fir_constant_signal() {
        let n = 9;
        let i = run(&fir(n));
        for k in 0..n as i64 {
            assert_eq!(i.mem.load_fp((n + 4) as i64 + k), 10.0, "out[{k}]");
        }
    }

    #[test]
    fn matmul_identity_reproduces_a() {
        let m = 5usize;
        let i = run(&matmul(m));
        for row in 0..m {
            for col in 0..m {
                let a = i.mem.load_int((row * m + col) as i64);
                let c = i.mem.load_int((2 * m * m + row * m + col) as i64);
                assert_eq!(a, (row + col) as i64);
                assert_eq!(c, a, "C[{row}][{col}]");
            }
        }
    }

    #[test]
    fn checksum_matches_host_computation() {
        let n = 20usize;
        let i = run(&checksum(n));
        let mut s: i64 = 0;
        for k in 0..n as i64 {
            let v = 7 * k + 3;
            s = (s ^ v).wrapping_add(v << 1);
        }
        assert_eq!(i.mem.load_int(n as i64), s);
        assert_eq!(i.state.iregs()[10], s);
    }

    #[test]
    fn memcpy_copies() {
        let n = 16usize;
        let i = run(&memcpy(n));
        for k in 0..n as i64 {
            assert_eq!(i.mem.load_int(n as i64 + k), k + 5);
        }
    }

    #[test]
    fn bubble_sort_sorts() {
        let n = 12usize;
        let i = run(&bubble_sort(n));
        for k in 0..n as i64 {
            assert_eq!(i.mem.load_int(k), k + 1, "mem[{k}]");
        }
    }

    #[test]
    fn binary_search_counts_hits() {
        let n = 32usize;
        let rounds = 25usize;
        let i = run(&binary_search(n, rounds));
        // Host model of the same probe sequence.
        let expect = (0..rounds as i64)
            .filter(|t| {
                let target = (7 * t) % (2 * n as i64);
                target % 2 == 0 && target / 2 < n as i64
            })
            .count() as i64;
        assert_eq!(i.mem.load_int(1000), expect);
        assert_eq!(i.state.iregs()[10], expect);
        assert!(expect > 0);
    }

    #[test]
    fn suite_all_valid() {
        for p in suite() {
            p.validate().unwrap();
            run(&p);
        }
    }
}
