//! Summary statistics and the correctness fingerprint.
//!
//! Pure functions, unit-tested below: the percentile and tail rule the
//! cell-latency metrics use, medians and geometric means, the FNV-1a
//! fingerprint over simulated counters, and the per-cell laws.

use pmp_sim::{LevelStats, SimStats};

/// Cells that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted samples.
fn rank(p: u32, n: usize) -> usize {
    let k = (u64::from(p) * n as u64).div_ceil(100) as usize;
    k.clamp(1, n) - 1
}

/// Percentile `p` (0..=100) of `values` by the nearest-rank rule.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    v[rank(p, v.len())]
}

/// The highest whole percentile of `n` samples with at least
/// [`TAIL_BEYOND`] samples beyond its nearest-rank position, or `None`
/// when there are too few samples for any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..100)
        .rev()
        .find(|&p| n > 0 && n - 1 - rank(p, n) >= TAIL_BEYOND)
}

/// Percentile `p` of latencies recorded in whole milliseconds, rounded
/// down. Each sample is taken to lie uniformly within its
/// `[ms, ms + 1)` bucket, so the result interpolates inside the bucket
/// holding rank `p` instead of snapping to a whole millisecond.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_whole_ms(values: &[u64], p: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_unstable();
    let k = rank(p, v.len());
    let bucket = v[k];
    let below = v.partition_point(|&x| x < bucket);
    let within = v.partition_point(|&x| x <= bucket) - below;
    bucket as f64 + (k - below) as f64 / within as f64 + 0.5 / within as f64
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One value per index over several equally long sample vectors: the
/// value of rank `rank(k)` (0-based, ascending) among the `k` samples
/// at that index, such as each cell's best or median time over the
/// passes of a run. `None` when there are no vectors or their lengths
/// differ.
///
/// # Panics
///
/// Panics on a NaN sample or a rank out of `0..k`.
pub fn per_index<T: Copy + PartialOrd>(
    samples: &[&[T]],
    rank: impl Fn(usize) -> usize,
) -> Option<Vec<T>> {
    let n = samples.first()?.len();
    if samples.iter().any(|v| v.len() != n) {
        return None;
    }
    let r = rank(samples.len());
    Some(
        (0..n)
            .map(|i| {
                let mut column: Vec<T> = samples.iter().map(|v| v[i]).collect();
                column.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
                column[r]
            })
            .collect(),
    )
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word into the hash.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold every counter of one cache level, in declaration order.
    pub fn level(&mut self, l: &LevelStats) {
        for w in [
            l.load_accesses,
            l.load_misses,
            l.store_accesses,
            l.store_misses,
            l.pf_fills,
            l.pf_useful,
            l.pf_useless,
            l.pf_late,
            l.writebacks,
        ] {
            self.word(w);
        }
    }

    /// Fold every counter of `s`, in declaration order.
    pub fn stats(&mut self, s: &SimStats) {
        self.word(s.instructions);
        self.word(s.cycles);
        for l in &s.levels {
            self.level(l);
        }
        for w in [
            s.pf_issued,
            s.pf_admitted,
            s.pf_dropped,
            s.pf_redundant,
            s.dram_requests,
            s.dram_writes,
        ] {
            self.word(w);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The cell-level laws every simulated result must satisfy, whatever
/// the seed: a non-empty measured window and prefetch conservation.
pub fn cell_is_sane(s: &SimStats) -> bool {
    s.instructions > 0
        && s.cycles > 0
        && s.pf_issued == s.pf_admitted + s.pf_dropped + s.pf_redundant
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50), 2.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn tail_leaves_at_least_ten_cells_beyond() {
        // 100 cells: p90 leaves exactly 10 beyond, p91 only 9.
        assert_eq!(tail_percentile(100), Some(90));
        // 750 cells (one sweep grid): p98 leaves 15, p99 leaves 7.
        assert_eq!(tail_percentile(750), Some(98));
        assert_eq!(tail_percentile(2250), Some(99));
        assert_eq!(tail_percentile(60), Some(83));
        // Eleven cells: only p1..=p9 leave ten beyond the first.
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(0), None);
        for n in 11..3000 {
            let p = tail_percentile(n).expect("enough cells");
            assert!(n - 1 - rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
            if p < 99 {
                assert!(
                    n - 1 - rank(p + 1, n) < TAIL_BEYOND,
                    "n={n}: p{} also qualifies",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn whole_ms_percentile_interpolates_within_its_bucket() {
        // Ten samples in the 7 ms bucket: the median sits mid-bucket.
        let v = [7u64; 10];
        let m = percentile_whole_ms(&v, 50);
        assert!(m > 7.0 && m < 8.0, "{m}");
        // Moving one sample up a bucket moves the estimate, although
        // the whole-ms nearest-rank value stays 7.
        let mut w = v;
        w[9] = 8;
        assert!(percentile_whole_ms(&w, 50) > m);
        // A lone top sample reads mid-bucket.
        assert_eq!(percentile_whole_ms(&[1, 2, 3], 100), 3.5);
    }

    #[test]
    fn per_index_picks_each_cells_ranked_pass() {
        let best = |_| 0;
        let a = [3.0, 1.0, 5.0];
        let b = [2.0, 4.0, 5.0];
        assert_eq!(per_index(&[&a, &b], best), Some(vec![2.0, 1.0, 5.0]));
        assert_eq!(per_index(&[&a], best), Some(a.to_vec()));
        assert_eq!(per_index::<f64>(&[], best), None);
        assert_eq!(per_index(&[&a, &b[..2]], best), None, "passes must align");
        // The lower middle of three and of four passes.
        let median_low = |k: usize| (k - 1) / 2;
        let (c, d) = ([9u64, 0], [1u64, 7]);
        assert_eq!(
            per_index(&[&[5u64, 3][..], &c, &d], median_low),
            Some(vec![5, 3])
        );
        assert_eq!(
            per_index(&[&[5u64, 3][..], &c, &d, &[4, 8]], median_low),
            Some(vec![4, 3])
        );
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_known_answer_and_sensitivity() {
        // FNV-1a of eight zero bytes.
        let mut h = Fnv::default();
        h.word(0);
        assert_eq!(h.finish(), 0xa8c7_f832_281a_39c5);
        let a = SimStats {
            instructions: 10,
            cycles: 20,
            ..SimStats::default()
        };
        let mut b = a;
        b.levels[2].writebacks = 1;
        let fp = |s: &SimStats| {
            let mut h = Fnv::default();
            h.stats(s);
            h.finish()
        };
        assert_eq!(fp(&a), fp(&a));
        assert_ne!(fp(&a), fp(&b), "every counter feeds the fingerprint");
        // Order matters: the fingerprint names a sequence of cells.
        let mut ab = Fnv::default();
        ab.stats(&a);
        ab.stats(&b);
        let mut ba = Fnv::default();
        ba.stats(&b);
        ba.stats(&a);
        assert_ne!(ab.finish(), ba.finish());
    }

    #[test]
    fn conservation_law_is_checked() {
        let mut s = SimStats {
            instructions: 1,
            cycles: 1,
            pf_issued: 5,
            pf_admitted: 3,
            pf_dropped: 1,
            pf_redundant: 1,
            ..SimStats::default()
        };
        assert!(cell_is_sane(&s));
        s.pf_redundant = 0;
        assert!(!cell_is_sane(&s));
    }
}
