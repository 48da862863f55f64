//! Tensor-unit cost policies.
//!
//! The numerics of a tensor invocation are the same for every hardware
//! flavour (the unit computes a plain matrix product — "no existing tensor
//! unit implements fast matrix multiplication algorithms", §3); what
//! varies is the *time charged*. [`TensorUnit`] abstracts exactly that:
//! the machine performs the product and asks the policy what it cost.
//!
//! * [`ModelTensorUnit`] — the paper's (m, ℓ)-TCU charge `n·√m + ℓ`.
//! * [`WeakTensorUnit`] — the §5 weak model: only `√m × √m` inputs are
//!   accepted, so tall multiplications decompose into `⌈n/√m⌉` square
//!   invocations, each paying the latency again.
//! * `tcu_systolic::SystolicTensorUnit` — charges the counted step
//!   sequence of the §2.2 weight-stationary array (defined in the
//!   `tcu-systolic` crate, which implements this trait).

use crate::op::TensorOp;

/// A costing policy for tensor-unit invocations.
///
/// `sqrt_m` is `√m`: the unit multiplies `n × √m` by `√m × √m` operands.
/// Implementations decide the time charged per invocation and whether tall
/// (`n > √m`) left operands are supported natively.
pub trait TensorUnit {
    /// `√m`, the fixed operand width of the unit.
    fn sqrt_m(&self) -> usize;

    /// The model's per-invocation latency parameter ℓ.
    fn latency(&self) -> u64;

    /// Time charged for one native invocation whose left operand has
    /// `n_rows` rows (the machine guarantees `n_rows ≥ √m` for native
    /// calls, splitting beforehand when [`Self::supports_tall`] is false).
    fn invocation_cost(&self, n_rows: usize) -> u64;

    /// The latency component of [`Self::invocation_cost`] (used to meter
    /// the two terms of `O(n√m + ℓ)` separately).
    fn invocation_latency(&self, n_rows: usize) -> u64 {
        let _ = n_rows;
        self.latency()
    }

    /// Whether the unit natively streams tall left operands (the model's
    /// asymmetric feature, §3 property 3). When `false`, the machine
    /// splits an `n × √m` left operand into `⌈n/√m⌉` square tiles and
    /// issues one invocation per tile — the NVIDIA-style behaviour noted
    /// in §2.2 ("matrix B … is percolated within the array as matrix A").
    fn supports_tall(&self) -> bool {
        true
    }

    /// The native invocations one logical op decomposes into, as
    /// `(count, rows each)`: one `charge_rows`-row invocation on a unit
    /// with tall support, `⌈n/√m⌉` square `√m`-row tiles otherwise. The
    /// single statement of the tall-split rule — every charge, cost and
    /// planning path derives its invocations from it.
    fn invocations(&self, op: &TensorOp) -> (usize, usize) {
        let s = self.sqrt_m();
        let n = op.charge_rows(s);
        if self.supports_tall() {
            (1, n)
        } else {
            (n.div_ceil(s), s)
        }
    }

    /// Hardware capacity `m = sqrt_m²`.
    fn m(&self) -> usize {
        self.sqrt_m() * self.sqrt_m()
    }
}

/// Integer square root with exactness check, for validating `m`.
///
/// Pure-integer Newton iteration — no `f64` round trip. The float trick
/// (`(m as f64).sqrt().round()`) loses integer precision once `m`
/// approaches `2^53`: the cast rounds `m` itself, so the recovered root
/// can be off by one and a genuine perfect square near the cliff gets
/// rejected (and on 32-bit targets the `s * s` check could wrap). The
/// Newton sequence below works in `u128`, converges monotonically from
/// above, and is exact for every `usize`.
///
/// # Panics
/// Panics unless `m` is a perfect square.
pub fn exact_sqrt(m: usize) -> usize {
    let s = isqrt_u128(m as u128) as usize;
    assert!(
        s.checked_mul(s) == Some(m),
        "m = {m} must be a perfect square (it is √m × √m hardware)"
    );
    s
}

/// Floor integer square root by Newton's method: `x_{k+1} = (x_k + v/x_k)/2`
/// starting above the root, strictly decreasing until it crosses it.
fn isqrt_u128(v: u128) -> u128 {
    if v < 2 {
        return v;
    }
    // Initial guess ≥ √v: 2^⌈bits/2⌉ where bits = position of the MSB.
    let bits = 128 - v.leading_zeros();
    let mut x = 1u128 << bits.div_ceil(2);
    let mut y = (x + v / x) / 2;
    while y < x {
        x = y;
        y = (x + v / x) / 2;
    }
    x
}

/// The standard (m, ℓ)-TCU cost policy: an invocation with an `n`-row left
/// operand costs exactly `n·√m + ℓ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelTensorUnit {
    sqrt_m: usize,
    latency: u64,
}

impl ModelTensorUnit {
    /// Build from the paper's parameters `(m, ℓ)`.
    ///
    /// # Panics
    /// Panics unless `m ≥ 1` is a perfect square.
    #[must_use]
    pub fn new(m: usize, latency: u64) -> Self {
        assert!(m >= 1, "m must be positive");
        Self {
            sqrt_m: exact_sqrt(m),
            latency,
        }
    }

    /// Build directly from `√m`.
    #[must_use]
    pub fn from_sqrt_m(sqrt_m: usize, latency: u64) -> Self {
        assert!(sqrt_m >= 1, "sqrt_m must be positive");
        Self { sqrt_m, latency }
    }
}

impl TensorUnit for ModelTensorUnit {
    fn sqrt_m(&self) -> usize {
        self.sqrt_m
    }

    fn latency(&self) -> u64 {
        self.latency
    }

    fn invocation_cost(&self, n_rows: usize) -> u64 {
        crate::cost::model_invocation_cost(n_rows as u64, self.sqrt_m as u64, self.latency)
    }
}

/// The §5 *weak* TCU: multiplies only `√m × √m` by `√m × √m`. Any tall
/// call is decomposed by the machine into square invocations, each charged
/// `m + ℓ` — which is how the weak model loses the `(n/m)·ℓ` → `(n/m)^{3/2}·ℓ`
/// latency advantage (§5: "any algorithm for the original TCU model can be
/// simulated in the weak version with a constant slowdown when ℓ = O(m)").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeakTensorUnit {
    sqrt_m: usize,
    latency: u64,
}

impl WeakTensorUnit {
    /// Build from the paper's parameters `(m, ℓ)`.
    ///
    /// # Panics
    /// Panics unless `m ≥ 1` is a perfect square.
    #[must_use]
    pub fn new(m: usize, latency: u64) -> Self {
        assert!(m >= 1, "m must be positive");
        Self {
            sqrt_m: exact_sqrt(m),
            latency,
        }
    }
}

impl TensorUnit for WeakTensorUnit {
    fn sqrt_m(&self) -> usize {
        self.sqrt_m
    }

    fn latency(&self) -> u64 {
        self.latency
    }

    fn invocation_cost(&self, n_rows: usize) -> u64 {
        debug_assert_eq!(n_rows, self.sqrt_m, "weak unit only takes square operands");
        crate::cost::model_invocation_cost(self.sqrt_m as u64, self.sqrt_m as u64, self.latency)
    }

    fn supports_tall(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_unit_costs() {
        let u = ModelTensorUnit::new(256, 100);
        assert_eq!(u.sqrt_m(), 16);
        assert_eq!(u.m(), 256);
        assert_eq!(u.latency(), 100);
        assert_eq!(u.invocation_cost(16), 256 + 100);
        assert_eq!(u.invocation_cost(1024), 1024 * 16 + 100);
        assert!(u.supports_tall());
    }

    #[test]
    fn weak_unit_is_square_only() {
        let u = WeakTensorUnit::new(64, 5);
        assert!(!u.supports_tall());
        assert_eq!(u.invocation_cost(8), 64 + 5);
    }

    #[test]
    fn tall_split_rule() {
        let (model, weak) = (ModelTensorUnit::new(64, 5), WeakTensorUnit::new(64, 5));
        // One n-row call on a tall unit, ⌈n/√m⌉ square tiles on the weak one.
        assert_eq!(model.invocations(&TensorOp::mul(20, 8)), (1, 20));
        assert_eq!(weak.invocations(&TensorOp::mul(20, 8)), (3, 8));
        // Padded short ops charge √m rows either way.
        assert_eq!(model.invocations(&TensorOp::padded(2, 3, 2)), (1, 8));
        assert_eq!(weak.invocations(&TensorOp::padded(2, 3, 2)), (1, 8));
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn non_square_m_rejected() {
        let _ = ModelTensorUnit::new(200, 0);
    }

    #[test]
    fn from_sqrt_m_roundtrip() {
        let u = ModelTensorUnit::from_sqrt_m(10, 3);
        assert_eq!(u.m(), 100);
        assert_eq!(u.invocation_cost(10), 103);
    }

    #[test]
    fn exact_sqrt_handles_squares_near_2_pow_53() {
        // 94906267² = 9007199515875089 > 2^53: `(m as f64)` is no longer
        // exact here, so the old float round trip could mis-recover the
        // root. The integer Newton path must accept every true square…
        for s in [94_906_265usize, 94_906_266, 94_906_267, 1 << 31] {
            let m = s * s;
            assert_eq!(exact_sqrt(m), s, "s = {s}");
        }
        // …including the largest square representable in usize.
        let smax = usize::MAX.isqrt();
        assert_eq!(exact_sqrt(smax * smax), smax);
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn exact_sqrt_rejects_neighbor_of_large_square() {
        let s = 94_906_267usize;
        let _ = exact_sqrt(s * s - 1);
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn exact_sqrt_rejects_neighbor_above_large_square() {
        let s = 94_906_267usize;
        let _ = exact_sqrt(s * s + 1);
    }

    #[test]
    fn exact_sqrt_small_values() {
        for s in 0usize..=64 {
            assert_eq!(exact_sqrt(s * s), s);
        }
    }
}
