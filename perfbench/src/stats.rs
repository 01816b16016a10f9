//! Exact order statistics over raw samples, and the mapping from a
//! streamed decision back to the chunk whose arrival completed it.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`: the smallest
/// sample with at least `p` % of the samples at or below it. Exact —
/// always one of the recorded values, never a bucket midpoint.
/// Reorders `samples` in place; `None` when there are none.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let k = rank(samples.len(), p) - 1;
    let (_, v, _) = samples.select_nth_unstable_by(k, f64::total_cmp);
    Some(*v)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding
    // one rank too deep.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median of `samples` (the nearest-rank 50th percentile).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The rate sustained in nine of ten samples: the 10th percentile of
/// per-pass or per-window rates.
///
/// A shared host alternates between a steady slow state (another tenant
/// on the sibling hyperthread) and a faster, jittery one. The figure a
/// run sustains nine times in ten tracks the steady state, so it repeats
/// from run to run where the median, which follows the mix of states,
/// does not (about 5 % against 25 % spread on the reference host).
pub fn sustained_rate(rates: &mut [f64]) -> Option<f64> {
    percentile(rates, 10.0)
}

/// The latency met in nine of ten windows: the 90th percentile of
/// per-window latencies, for the reason given at [`sustained_rate`].
pub fn sustained_latency(latencies: &mut [f64]) -> Option<f64> {
    percentile(latencies, 90.0)
}

/// The deepest of 50, 90, 99, 99.9, … that still leaves at least ten
/// samples beyond it — the highest percentile a sample of `n` supports.
pub fn deepest_supported(n: usize) -> Option<f64> {
    [50.0, 90.0, 99.0, 99.9, 99.99, 99.999]
        .into_iter()
        .take_while(|&p| beyond(n, p) >= 10)
        .last()
}

/// Decisions a stream of `samples` produces with frames of `win`
/// samples every `hop`, a `t_frames`-frame model window and a
/// classification every `stride` frames once the window is full.
pub fn expected_decisions(samples: u64, win: u64, hop: u64, t_frames: u64, stride: u64) -> u64 {
    if samples < win {
        return 0;
    }
    let frames = (samples - win) / hop + 1;
    if frames < t_frames {
        0
    } else {
        (frames - t_frames) / stride + 1
    }
}

/// Index of the chunk whose arrival completed frame `frame_index`
/// (0-based) of a stream cut into chunks of `chunk` samples: the chunk
/// holding the frame's last sample.
pub fn completing_chunk(frame_index: u64, win: u64, hop: u64, chunk: u64) -> u64 {
    (frame_index * hop + win - 1) / chunk
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state >> 33
    }

    /// Oracle: sort everything, count up to the first value whose
    /// cumulative share reaches `p`.
    fn sorted_oracle(samples: &[f64], p: f64) -> f64 {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        for (i, v) in s.iter().enumerate() {
            if (i + 1) as f64 * 100.0 >= p * s.len() as f64 - 1e-6 {
                return *v;
            }
        }
        *s.last().unwrap()
    }

    #[test]
    fn percentiles_match_a_sorted_oracle() {
        let mut state = 7u64;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
            let samples: Vec<f64> = (0..n).map(|_| (lcg(&mut state) % 1000) as f64).collect();
            for p in [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
                let mut work = samples.clone();
                assert_eq!(
                    percentile(&mut work, p),
                    Some(sorted_oracle(&samples, p)),
                    "n={n} p={p}"
                );
            }
        }
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn beyond_counts_the_tail() {
        for n in [1usize, 10, 40, 100, 1000, 12_345] {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for p in [50.0, 90.0, 99.0, 99.9] {
                let v = sorted_oracle(&samples, p);
                let tail = samples.iter().filter(|&&x| x > v).count();
                assert_eq!(beyond(n, p), tail, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn deepest_supported_leaves_ten_beyond() {
        assert_eq!(deepest_supported(0), None);
        assert_eq!(deepest_supported(19), None);
        assert_eq!(deepest_supported(20), Some(50.0));
        assert_eq!(deepest_supported(100), Some(90.0));
        assert_eq!(deepest_supported(1000), Some(99.0));
        assert_eq!(deepest_supported(68_000), Some(99.9));
        assert_eq!(deepest_supported(100_000), Some(99.99));
    }

    #[test]
    fn decision_counts_follow_the_geometry() {
        // KWT-Tiny: 1000-sample window, 600-sample hop, 26 frames.
        assert_eq!(expected_decisions(16_000, 1000, 600, 26, 1), 1);
        assert_eq!(expected_decisions(15_999, 1000, 600, 26, 1), 0);
        assert_eq!(expected_decisions(999, 1000, 600, 26, 1), 0);
        assert_eq!(expected_decisions(16_600, 1000, 600, 26, 1), 2);
        assert_eq!(expected_decisions(16_000 + 600 * 4, 1000, 600, 26, 2), 3);
    }

    /// Oracle: replay the chunks one by one and note after which one each
    /// frame first fits in the samples received so far.
    #[test]
    fn completing_chunk_matches_a_replay() {
        for (win, hop, chunk) in [
            (1000u64, 600u64, 1600u64),
            (1000, 600, 1000),
            (400, 160, 333),
        ] {
            let mut received = 0u64;
            let mut next_frame = 0u64;
            for k in 0..200u64 {
                received += chunk;
                while next_frame * hop + win <= received {
                    assert_eq!(
                        completing_chunk(next_frame, win, hop, chunk),
                        k,
                        "frame {next_frame} chunk {chunk}"
                    );
                    next_frame += 1;
                }
            }
            assert!(next_frame > 100);
        }
    }
}
