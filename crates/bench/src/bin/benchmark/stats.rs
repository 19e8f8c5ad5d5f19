//! Small numeric and process helpers: quartiles, the run digest, and the
//! process's peak resident set.

/// Quartiles `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), with a
/// single value standing for all three.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |p: f64| {
        let pos = p * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(0.25), median(&v), at(0.75))
}

/// The median of `values`.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value below which `p` (0..=1) of `values` lie, by nearest rank on
/// the sorted values — exact for the per-step timings, which number in
/// the thousands.
#[must_use]
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// 64-bit FNV-1a over a sequence of byte strings, as 16 hex digits. Stable
/// across platforms and processes, which `DefaultHasher` is not.
#[must_use]
pub fn fnv64_hex(parts: &[&[u8]]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        // A separator byte, so ("ab", "c") and ("a", "bc") differ.
        h ^= 0xff;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// This process's peak resident set (`VmHWM`) in kB, or 0 where
/// `/proc/self/status` does not exist.
#[must_use]
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn digest_separates_parts() {
        assert_ne!(fnv64_hex(&[b"ab", b"c"]), fnv64_hex(&[b"a", b"bc"]));
        assert_eq!(fnv64_hex(&[b"x"]), fnv64_hex(&[b"x"]));
    }
}
