//! Pair kernels at machine width (DESIGN "Exact-profile pair pass").
//!
//! The exact pair kernels are plain loops over `[f64; PAIR_BLOCK]` lanes,
//! which the compiler vectorizes at whatever width the build targets:
//! SSE2 on a baseline x86-64 build. [`wide_kernel!`] gives a kernel an
//! entry point per wider tier, an `unsafe fn` compiled with that tier's
//! target features whose only statement calls the `#[inline(always)]`
//! kernel, so the whole body is compiled again at that width. The host
//! picks a [`Tier`] at run time, once per pass.
//!
//! Every tier runs the same IEEE `+ − × / sqrt` and bit masks in the same
//! order: Rust never contracts `a * b + c` into a fused multiply-add, and
//! no kernel calls `mul_add`, so every tier returns the same bits.

/// The register width a pair pass runs its kernels at.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Tier {
    /// The kernels as the build compiled them: every target's fallback.
    Scalar,
    /// 256-bit `ymm` registers.
    #[cfg(target_arch = "x86_64")]
    Avx2(Detected),
    /// 512-bit `zmm` registers.
    #[cfg(target_arch = "x86_64")]
    Avx512(Detected),
}

/// Proof that the host supports a tier's features. Only this module
/// makes one ([`Tier::host`], and `Tier::all` in tests), each time after
/// `is_x86_feature_detected!` said so.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Detected(());

impl Tier {
    /// The widest tier this host supports.
    pub(crate) fn host() -> Tier {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return Tier::Avx512(Detected(()));
            }
            if is_x86_feature_detected!("avx2") {
                return Tier::Avx2(Detected(()));
            }
        }
        Tier::Scalar
    }

    /// Every tier this host can run, scalar first.
    #[cfg(test)]
    pub(crate) fn all() -> Vec<Tier> {
        let mut tiers = vec![Tier::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                tiers.push(Tier::Avx2(Detected(())));
            }
            if is_x86_feature_detected!("avx512f") {
                tiers.push(Tier::Avx512(Detected(())));
            }
        }
        tiers
    }
}

/// `wide_kernel!(fn name(args) -> R = kernel)` declares `name(tier,
/// args)`, which runs the `#[inline(always)]` function `kernel` compiled
/// for `tier`. Each wide entry point is an `unsafe fn` with the tier's
/// `#[target_feature]` whose only statement calls `kernel`.
macro_rules! wide_kernel {
    (
        $(#[$doc:meta])*
        $vis:vis fn $name:ident $(<const $k:ident: usize>)?
            ($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty = $kernel:path
    ) => {
        $(#[$doc])*
        $vis fn $name $(<const $k: usize>)? (
            tier: $crate::wide::Tier,
            $($arg: $ty),*
        ) -> $ret {
            /// The kernel compiled for AVX2.
            ///
            /// # Safety
            /// The host must support AVX2.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            unsafe fn avx2 $(<const $k: usize>)? ($($arg: $ty),*) -> $ret {
                $kernel($($arg),*)
            }

            /// The kernel compiled for AVX-512F.
            ///
            /// # Safety
            /// The host must support AVX-512F.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            unsafe fn avx512 $(<const $k: usize>)? ($($arg: $ty),*) -> $ret {
                $kernel($($arg),*)
            }

            match tier {
                $crate::wide::Tier::Scalar => $kernel($($arg),*),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: a `Tier::Avx2` carries a `Detected`, made only
                // after AVX2 was detected on this host.
                $crate::wide::Tier::Avx2(_) => unsafe { avx2($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: a `Tier::Avx512` carries a `Detected`, made only
                // after AVX-512F was detected on this host.
                $crate::wide::Tier::Avx512(_) => unsafe { avx512($($arg),*) },
            }
        }
    };
}
pub(crate) use wide_kernel;
