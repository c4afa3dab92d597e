//! Order statistics, the output digest, and process memory figures.

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / base`, or 0 when nothing was counted.
pub fn ratio(part: f64, base: f64) -> f64 {
    if base > 0.0 {
        part / base
    } else {
        0.0
    }
}

/// The highest whole percentile, at most the 99th, that leaves at least
/// ten samples strictly beyond it, as `(percentile, value)` under the
/// nearest-rank rule. `None` below twenty samples, where not even the
/// median has ten samples beyond it.
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (50..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| (p, sorted[rank - 1]))
    })
}

/// FNV-1a over a stream of tagged fields: a stable, dependency-free
/// fingerprint of a workload's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(mut self, bytes: &[u8]) -> Digest {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn str(self, s: &str) -> Digest {
        self.bytes(s.as_bytes())
    }

    pub fn u64(self, v: u64) -> Digest {
        self.bytes(&v.to_le_bytes())
    }

    /// Floats enter bit-exactly: a score that moves in its last bit is a
    /// different output.
    pub fn f64(self, v: f64) -> Digest {
        self.u64(v.to_bits())
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 is rank 990, leaving exactly ten beyond it.
        assert_eq!(tail_percentile(&ramp(1000)), Some((99, 990.0)));
        // 999 samples: p99 would be rank 990 with only nine beyond.
        assert_eq!(tail_percentile(&ramp(999)), Some((98, 980.0)));
        assert_eq!(tail_percentile(&ramp(100)), Some((90, 90.0)));
        assert_eq!(tail_percentile(&ramp(20)), Some((50, 10.0)));
        assert_eq!(tail_percentile(&ramp(19)), None);
        // Order of the input does not matter.
        let mut shuffled = ramp(100);
        shuffled.reverse();
        assert_eq!(tail_percentile(&shuffled), Some((90, 90.0)));
        // Every chosen percentile really leaves ten or more beyond it.
        for n in 20..1200 {
            let (_, v) = tail_percentile(&ramp(n)).unwrap();
            assert!(ramp(n).iter().filter(|&&x| x > v).count() >= 10, "n = {n}");
        }
    }

    #[test]
    fn digest_separates_fields_and_is_bit_exact() {
        let a = Digest::default().str("ab").str("c").value();
        let b = Digest::default().str("a").str("bc").value();
        assert_ne!(a, b);
        assert_ne!(Digest::default().f64(0.5).value(), Digest::default().f64(0.5000001).value());
        assert_eq!(Digest::default().u64(7).value(), Digest::default().u64(7).value());
    }
}
