//! Exact decimal rendering for the report writers.
//!
//! A report carries up to 4,096 profile bins, each an integer and a float
//! with four decimals. std's `{:.4}` renders a float exactly through its
//! general big-number path, which costs several hundred nanoseconds per
//! value: rendering a report's JSON cost as much as the analysis behind it.
//! [`push_fixed`] produces the same bytes for the values reports hold —
//! finite, non-negative and below 2^64 — with one `u128` multiply: the
//! float is exactly `m·2^e`, so its fraction scaled by `10^d` splits into
//! an integer quotient and an exact remainder, and the remainder rounds the
//! quotient half to even, as `{:.N}` does. Anything else falls back to
//! `write!`, so the output equals `format!("{v:.d$}")` by construction
//! (`tests/properties.rs` and the `fixed_decimal` fuzz target check it).

use std::fmt::Write as _;

/// `10^d` for every supported decimal count.
const POW10: [u64; 19] = {
    let mut table = [1u64; 19];
    let mut i = 1;
    while i < table.len() {
        table[i] = table[i - 1] * 10;
        i += 1;
    }
    table
};

/// The most decimals the exact path renders: `m·10^d` must fit in `u128`
/// for a 53-bit `m`, and the fraction in a `u64`.
const MAX_DECIMALS: usize = POW10.len() - 1;

/// Appends `v` in decimal, as `write!(out, "{v}")` would.
pub fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let start = digits(&mut buf, v);
    out.push_str(ascii(&buf[start..]));
}

/// Appends `v` rounded to `decimals` places, byte for byte as
/// `write!(out, "{v:.decimals$}")` would.
///
/// # Examples
///
/// ```
/// use paragraph_core::decimal::push_fixed;
///
/// let mut out = String::new();
/// push_fixed(&mut out, 1.0 / 32.0, 4); // an exact tie rounds to even
/// out.push(' ');
/// push_fixed(&mut out, 2.0 / 3.0, 6);
/// assert_eq!(out, "0.0312 0.666667");
/// ```
pub fn push_fixed(out: &mut String, v: f64, decimals: usize) {
    let bits = v.to_bits();
    let biased = (bits >> 52) & 0x7ff;
    let fraction = bits & ((1 << 52) - 1);
    // Negative (the sign bit, so -0.0 too), non-finite, at or past 2^64,
    // or more decimals than the table holds: std renders it.
    if bits >> 63 != 0 || biased >= 1023 + 64 || decimals > MAX_DECIMALS {
        let _ = write!(out, "{v:.decimals$}");
        return;
    }
    // v = m·2^-k exactly; a subnormal has no implicit bit.
    let (m, k) = match biased {
        0 => (fraction, 1074),
        _ => (fraction | 1 << 52, 1075 - biased as i64),
    };
    let (int, frac) = if k <= 0 {
        (m << -k, 0)
    } else {
        let k = k as u32;
        let (int, bits) = if k >= 64 {
            (0, m)
        } else {
            (m >> k, m & ((1 << k) - 1))
        };
        if k >= 114 {
            // bits·10^d < 2^53·10^18 < 2^113 ≤ half a unit: the decimals
            // round to zero, and there is no tie.
            (int, 0)
        } else {
            let scaled = u128::from(bits) * u128::from(POW10[decimals]);
            let quotient = (scaled >> k) as u64;
            let remainder = scaled & ((1 << k) - 1);
            let half = 1u128 << (k - 1);
            // Round half to even on the whole scaled value, whose parity is
            // the fraction's when there is one (10^d is even).
            let parity = if decimals == 0 { int } else { quotient } & 1;
            let up = remainder > half || (remainder == half && parity == 1);
            let frac = quotient + u64::from(up);
            if frac == POW10[decimals] {
                (int + 1, 0)
            } else {
                (int, frac)
            }
        }
    };
    // 20 integer digits, the point and 18 decimals.
    const LEN: usize = 39;
    let mut buf = [0u8; LEN];
    let mut start = LEN;
    if decimals > 0 {
        let mut frac = frac;
        for slot in buf[LEN - decimals..].iter_mut().rev() {
            *slot = b'0' + (frac % 10) as u8;
            frac /= 10;
        }
        start -= decimals + 1;
        buf[start] = b'.';
    }
    let start = digits(&mut buf[..start], int);
    out.push_str(ascii(&buf[start..]));
}

/// Writes `v`'s digits right-aligned into `buf`; returns the first one's
/// index.
fn digits(buf: &mut [u8], mut v: u64) -> usize {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return start;
        }
    }
}

/// `bytes` as text. They are ASCII digits and points, so the UTF-8 check
/// always passes; were it ever to fail, the empty string shows up as a
/// byte difference in the renderer tests rather than a panic.
fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).unwrap_or_default()
}
