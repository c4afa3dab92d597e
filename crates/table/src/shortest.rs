//! Exact shortest decimal text for `f64`, Ryu style, and the integer
//! digit writer it shares with the value dictionary.
//!
//! `Value::render` shows a non-integral (or very large) float the way
//! core's `Display` does: the fewest significant digits that parse back
//! to the same bits, the closest such digit string to the exact value
//! when several qualify (an exact tie rounds up), never an exponent.
//! [`shortest`] finds the same digits with Ryu (Adams, PLDI 2018): three
//! 64×128-bit products against a power-of-5 table and a short digit
//! removal loop, instead of core's Grisu pass with its bignum fallback.
//! Ryu breaks exact ties to even; this copy rounds them up like core.
//!
//! The two power-of-5 tables Ryu needs are computed here, once, on first
//! use, from their definitions with a small schoolbook bignum. Nothing
//! is vendored. The test oracle in `value.rs` pins the output to core's
//! formatting on random bit patterns and on every edge class.

use std::fmt;
use std::sync::OnceLock;

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each 5^i (`POW5`) and of each 2^k / 5^i (`POW5_INV`).
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;
/// Table lengths: the largest index `shortest` reads, plus one. The
/// exponent range of `f64` bounds `q ≤ 290` in the `e2 ≥ 0` branch and
/// `i ≤ 325` in the `e2 < 0` branch.
const POW5_INV_LEN: usize = 291;
const POW5_LEN: usize = 326;

/// `POW5[i]` is 5^i scaled to exactly `POW5_BITCOUNT` bits (truncated);
/// `POW5_INV[i]` is ⌊2^(bitlen(5^i) − 1 + POW5_INV_BITCOUNT) / 5^i⌋ + 1.
struct Pow5Tables {
    pow5: Vec<u128>,
    pow5_inv: Vec<u128>,
}

fn tables() -> &'static Pow5Tables {
    static TABLES: OnceLock<Pow5Tables> = OnceLock::new();
    TABLES.get_or_init(Pow5Tables::compute)
}

impl Pow5Tables {
    fn compute() -> Pow5Tables {
        let mut pow5 = Vec::with_capacity(POW5_LEN);
        let mut pow5_inv = Vec::with_capacity(POW5_INV_LEN);
        // 5^i as little-endian 64-bit limbs, top limb non-zero.
        let mut p: Vec<u64> = vec![1];
        for i in 0..POW5_LEN.max(POW5_INV_LEN) {
            let bits = bit_len(&p);
            if i < POW5_LEN {
                pow5.push(bits_from(&p, bits as i32 - POW5_BITCOUNT));
            }
            if i < POW5_INV_LEN {
                pow5_inv.push(inverse(&p, bits) + 1);
            }
            let mut carry = 0u128;
            for limb in p.iter_mut() {
                let x = *limb as u128 * 5 + carry;
                *limb = x as u64;
                carry = x >> 64;
            }
            if carry != 0 {
                p.push(carry as u64);
            }
        }
        Pow5Tables { pow5, pow5_inv }
    }
}

fn bit_len(x: &[u64]) -> u32 {
    let top = x.len() - 1;
    top as u32 * 64 + (64 - x[top].leading_zeros())
}

/// The 128 bits of `x >> shift`, or of `x << -shift` when `x` fits.
fn bits_from(x: &[u64], shift: i32) -> u128 {
    let limb = |k: usize| x.get(k).copied().unwrap_or(0) as u128;
    if shift <= 0 {
        return (limb(0) | limb(1) << 64) << -shift;
    }
    let (k, bit) = (shift as usize / 64, shift as u32 % 64);
    let lo = (limb(k) | limb(k + 1) << 64) >> bit;
    if bit == 0 {
        lo
    } else {
        lo | limb(k + 2) << (128 - bit)
    }
}

/// ⌊2^(bits − 1 + POW5_INV_BITCOUNT) / p⌋ for `p` of `bits` bits, by
/// binary long division: the dividend's leading `bits` bits leave the
/// remainder 2^(bits − 1), and each of the remaining bits is a zero.
fn inverse(p: &[u64], bits: u32) -> u128 {
    let mut divisor = p.to_vec();
    divisor.push(0);
    let mut rem = vec![0u64; divisor.len()];
    rem[(bits as usize - 1) / 64] = 1 << ((bits - 1) % 64);
    let mut q = 0u128;
    for step in 0..=POW5_INV_BITCOUNT {
        if step > 0 {
            let mut carry = 0;
            for limb in rem.iter_mut() {
                let next = *limb >> 63;
                *limb = *limb << 1 | carry;
                carry = next;
            }
            q <<= 1;
        }
        if rem.iter().rev().cmp(divisor.iter().rev()) != std::cmp::Ordering::Less {
            let mut borrow = false;
            for (r, &d) in rem.iter_mut().zip(&divisor) {
                let (x, b1) = r.overflowing_sub(d);
                let (x, b2) = x.overflowing_sub(borrow as u64);
                *r = x;
                borrow = b1 || b2;
            }
            q |= 1;
        }
    }
    q
}

/// ⌊log10(2^e)⌋ for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// ⌊log10(5^e)⌋ for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// bitlen(5^e) (1 for e = 0) for `0 ≤ e ≤ 3528`.
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

fn pow5_factor(mut v: u64) -> u32 {
    let mut n = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        n += 1;
    }
    n
}

fn multiple_of_pow5(v: u64, p: u32) -> bool {
    pow5_factor(v) >= p
}

/// ⌊m · mul / 2^j⌋ for `j ≥ 64`, from the 192-bit product.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let b0 = m as u128 * (mul as u64) as u128;
    let b2 = m as u128 * (mul >> 64);
    (((b0 >> 64) + b2) >> (j - 64)) as u64
}

/// Shortest round-trip digits of a finite, non-zero `v`'s magnitude:
/// `(digits, exponent)` with `|v|` ≈ `digits · 10^exponent`, the same
/// digits core's shortest `Display` chooses.
pub(crate) fn shortest(v: f64) -> (u64, i32) {
    debug_assert!(v.is_finite() && v != 0.0);
    let bits = v.to_bits();
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    // Two extra bits, so the interval bounds are integers too.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-half-even parsing accepts the interval bounds for an even mantissa.
    let accept_bounds = m2 & 1 == 0;
    // The interval around mv is [mv − 1 − mm_shift, mv + 2] in units of
    // 2^e2: the lower gap halves at a power of two.
    let mv = 4 * m2;
    let mm_shift = (ieee_mantissa != 0 || ieee_exponent <= 1) as u64;

    // Scale the interval to a decimal power, keeping whether the digits
    // the scaling dropped from the lower bound were all zeros.
    let t = tables();
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - (e2 > 3) as u32;
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = t.pow5_inv[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // At most one of mv − 1 − mm_shift, mv, mv + 2 is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= multiple_of_pow5(mv + 2, q) as u64;
            }
        }
    } else {
        let q = log10_pow5(-e2) - (-e2 > 1) as u32;
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = t.pow5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            // mv − 1 − mm_shift has a trailing zero bit iff mm_shift is
            // 1; mv + 2 always has one.
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number, then
    // round the kept digits of vr to the nearest. Unlike Ryu, an exact
    // tie rounds up, not to even: core's shortest formatter does, so no
    // test of whether the dropped digits of vr are exactly 50…0 is kept.
    let mut removed = 0;
    let output = if vm_trailing_zeros {
        // Rare: the lower bound is exact and may be the shortest.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed >= 5) as u64
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + (vr == vm || round_up) as u64
    };
    (output, e10 + removed)
}

const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Decimal digits of `n`, right-aligned in `buf`; returns where they start.
fn u64_digits(buf: &mut [u8; 20], mut n: u64) -> usize {
    let mut at = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("number text is ASCII")
}

/// Write `v` as `i64`'s `Display` does.
pub(crate) fn write_int<W: fmt::Write>(w: &mut W, v: i64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let at = u64_digits(&mut buf, v.unsigned_abs());
    if v < 0 {
        w.write_char('-')?;
    }
    w.write_str(ascii(&buf[at..]))
}

fn write_zeros<W: fmt::Write>(w: &mut W, mut n: usize) -> fmt::Result {
    const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    while n > 0 {
        let k = n.min(ZEROS.len());
        w.write_str(&ZEROS[..k])?;
        n -= k;
    }
    Ok(())
}

/// Write a float as `Value::render` shows it: `NaN`, `inf`, `-inf`; an
/// integral value with a `.0` suffix; anything else with the shortest
/// round-trip digits, positioned as core's `Display` positions them.
pub(crate) fn write_float<W: fmt::Write>(w: &mut W, v: f64) -> fmt::Result {
    if v.is_nan() {
        return w.write_str("NaN");
    }
    if v.is_infinite() {
        return w.write_str(if v > 0.0 { "inf" } else { "-inf" });
    }
    if v.is_sign_negative() {
        w.write_char('-')?;
    }
    let mut buf = [0u8; 20];
    let magnitude = v.abs();
    // Integral below 1e15 (so exact as a u64): the integer's digits are
    // the value's. The cast truncates, so it round-trips iff integral.
    if magnitude < 1e15 && (magnitude as u64) as f64 == magnitude {
        let at = u64_digits(&mut buf, magnitude as u64);
        w.write_str(ascii(&buf[at..]))?;
        return w.write_str(".0");
    }
    let (mantissa, exponent) = shortest(magnitude);
    let at = u64_digits(&mut buf, mantissa);
    let digits = ascii(&buf[at..]);
    // Position of the decimal point, counted in digits from the left.
    let point = digits.len() as i32 + exponent;
    if point <= 0 {
        w.write_str("0.")?;
        write_zeros(w, (-point) as usize)?;
        w.write_str(digits)
    } else if (point as usize) < digits.len() {
        let (int, frac) = digits.split_at(point as usize);
        w.write_str(int)?;
        w.write_char('.')?;
        w.write_str(frac)
    } else {
        // Integral: shortest digits padded with zeros, plus `.0`.
        w.write_str(digits)?;
        write_zeros(w, point as usize - digits.len())?;
        w.write_str(".0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_known_entries() {
        let t = tables();
        // 5^0 → 2^124; ⌊2^127 / 5⌋ + 1 (published Ryu table entries).
        assert_eq!(t.pow5[0], 1u128 << 124);
        assert_eq!(t.pow5_inv[0], (1u128 << 125) + 1);
        assert_eq!(t.pow5_inv[1], (1u128 << 127) / 5 + 1);
        assert_eq!((t.pow5_inv[1] >> 64) as u64, 1_844_674_407_370_955_161);
        for (i, &p) in t.pow5.iter().enumerate() {
            assert_eq!(128 - p.leading_zeros() as i32, POW5_BITCOUNT, "pow5[{i}] width");
        }
        // Entries below 2^125 are exact shifts of 5^i.
        assert_eq!(t.pow5[27], 5u128.pow(27) << (125 - (128 - 5u128.pow(27).leading_zeros())));
    }

    #[test]
    fn shortest_digits_of_simple_values() {
        assert_eq!(shortest(0.1), (1, -1));
        assert_eq!(shortest(1.5), (15, -1));
        assert_eq!(shortest(1e23), (1, 23));
        assert_eq!(shortest(f64::MAX), (17_976_931_348_623_157, 292));
        assert_eq!(shortest(f64::from_bits(1)), (5, -324));
    }

    #[test]
    fn int_writer_matches_display() {
        for v in [0, 7, -7, 10, 99, 100, -101, i64::MAX, i64::MIN, 1_000_000_007] {
            let mut s = String::new();
            write_int(&mut s, v).unwrap();
            assert_eq!(s, v.to_string());
        }
    }
}
