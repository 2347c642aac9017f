//! The four model-aggregation strategies of Section 3, executed over real
//! buffers with simulated timing.
//!
//! Each operator takes one local histogram per worker, performs the actual
//! step-structured algorithm the corresponding system uses (Figure 3), and
//! returns both the aggregated data and a [`CommStats`] record whose
//! simulated time is the Table 1 closed form. The data path and the clock
//! are deliberately separate concerns: the data path is tested for exact
//! equivalence across all four strategies, the clock reproduces the paper's
//! communication analysis.

use std::ops::Range;

use crate::{CommStats, CostModel};

/// Result of a scatter-style aggregation: each participating node owns a
/// contiguous, fully-reduced segment of the histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Scattered {
    /// Total histogram length in elements.
    pub len: usize,
    /// One entry per owner: which node owns which element range, with the
    /// reduced data for that range.
    pub segments: Vec<Segment>,
}

/// One owned segment of a scattered reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Node (worker/server) that holds this segment.
    pub owner: usize,
    /// Element range of the full histogram this segment covers.
    pub range: Range<usize>,
    /// Reduced values for `range`.
    pub data: Vec<f32>,
}

impl Scattered {
    /// Reassembles the full reduced histogram (used by tests and by workers
    /// that need the complete result).
    pub fn assemble(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.len];
        for seg in &self.segments {
            out[seg.range.clone()].copy_from_slice(&seg.data);
        }
        out
    }
}

/// Splits `len` elements into `parts` near-equal contiguous ranges.
pub fn partition_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "cannot partition into zero parts");
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

fn check_uniform(buffers: &[Vec<f32>]) -> usize {
    assert!(!buffers.is_empty(), "collective needs at least one worker");
    let len = buffers[0].len();
    assert!(
        buffers.iter().all(|b| b.len() == len),
        "all local histograms must have equal length"
    );
    len
}

fn elementwise_add(acc: &mut [f32], src: &[f32]) {
    for (a, s) in acc.iter_mut().zip(src) {
        *a += s;
    }
}

/// MLlib-style all-to-one reduce: every worker ships its full histogram to
/// `root`, which merges them (the `reduceByKey` path of Section 2.3).
///
/// Simulated time: `h·β·w + α + h·γ` (Table 1).
pub fn reduce_to_one(
    buffers: &[Vec<f32>],
    root: usize,
    model: &CostModel,
) -> (Vec<f32>, CommStats) {
    let len = check_uniform(buffers);
    assert!(root < buffers.len(), "root {root} out of range");
    let w = buffers.len();
    let mut acc = buffers[root].clone();
    let mut stats = CommStats::new();
    for (rank, buf) in buffers.iter().enumerate() {
        if rank == root {
            continue;
        }
        elementwise_add(&mut acc, buf);
        stats.bytes += (len * 4) as u64;
        stats.packages += 1;
    }
    if w > 1 {
        stats.sim_time = model.t_reduce_to_one(len * 4, w);
    }
    (acc, stats)
}

/// XGBoost-style AllReduce over a binomial tree: `⌈log₂ w⌉` non-overlapping
/// reduce steps up the tree, then a broadcast back down (Section 2.3).
/// Every worker ends with the full reduced histogram.
///
/// Simulated time: `(h·β + α + h·γ)·⌈log₂ w⌉` (Table 1; the paper charges
/// the reduce path — the broadcast is charged separately by callers that
/// need it, which matches XGBoost computing the split at the root and
/// broadcasting only the tiny split decision).
pub fn allreduce_binomial(buffers: &[Vec<f32>], model: &CostModel) -> (Vec<f32>, CommStats) {
    let len = check_uniform(buffers);
    let w = buffers.len();
    let mut work: Vec<Vec<f32>> = buffers.to_vec();
    let mut stats = CommStats::new();

    // Bottom-up reduce: at distance d, rank r with r % 2d == d sends its
    // partial sum to r - d.
    let mut d = 1;
    while d < w {
        for r in (0..w).rev() {
            if r % (2 * d) == d {
                let (low, high) = work.split_at_mut(r);
                elementwise_add(&mut low[r - d], &high[0]);
                stats.bytes += (len * 4) as u64;
                stats.packages += 1;
            }
        }
        d *= 2;
    }
    if w > 1 {
        stats.sim_time = model.t_allreduce_binomial(len * 4, w);
    }
    (work.swap_remove(0), stats)
}

/// LightGBM-style ReduceScatter via recursive halving (Section 2.3): in each
/// step a worker exchanges half of its remaining histogram with a partner
/// `group/2` away; after `log₂ w` steps each worker owns a fully-reduced
/// `1/w` slice.
///
/// For non-power-of-two worker counts, the extra workers first fold their
/// buffers into the low ranks and drop out (the MPICH treatment), and the
/// paper charges double time ("If w is not a power of two, the time taken by
/// LightGBM is doubled").
///
/// Simulated time: `(w−1)/w·h·β + (α + h·γ)·log₂ w`, ×2 off powers of two
/// (Table 1).
pub fn reduce_scatter_halving(buffers: &[Vec<f32>], model: &CostModel) -> (Scattered, CommStats) {
    let len = check_uniform(buffers);
    let w = buffers.len();
    let mut stats = CommStats::new();

    if w == 1 {
        return (
            Scattered {
                len,
                segments: vec![Segment {
                    owner: 0,
                    range: 0..len,
                    data: buffers[0].clone(),
                }],
            },
            stats,
        );
    }

    let pow2 = if w.is_power_of_two() {
        w
    } else {
        w.next_power_of_two() / 2
    };
    let extra = w - pow2;
    let mut work: Vec<Vec<f32>> = buffers.to_vec();

    // Preliminary fold of the ranks beyond the largest power of two.
    for e in 0..extra {
        let src = pow2 + e;
        let (low, high) = work.split_at_mut(src);
        elementwise_add(&mut low[e], &high[0]);
        stats.bytes += (len * 4) as u64;
        stats.packages += 1;
    }
    work.truncate(pow2);

    // Recursive halving among the first pow2 ranks. Each rank tracks the
    // element range it is still responsible for.
    let mut ranges: Vec<Range<usize>> = vec![0..len; pow2];
    let mut group = pow2;
    while group > 1 {
        let half = group / 2;
        for base in (0..pow2).step_by(group) {
            for i in 0..half {
                let lo_rank = base + i;
                let hi_rank = base + i + half;
                let range = ranges[lo_rank].clone();
                debug_assert_eq!(range, ranges[hi_rank]);
                let mid = range.start + (range.end - range.start) / 2;
                // lo keeps [start, mid), hi keeps [mid, end); each receives
                // the partner's half and merges it.
                let (head, tail) = work.split_at_mut(hi_rank);
                let lo_buf = &mut head[lo_rank];
                let hi_buf = &mut tail[0];
                for j in range.start..mid {
                    lo_buf[j] += hi_buf[j];
                }
                for j in mid..range.end {
                    hi_buf[j] += lo_buf[j];
                }
                let moved = ((range.end - range.start) / 2).max(1) * 4;
                stats.bytes += 2 * moved as u64;
                stats.packages += 2;
                ranges[lo_rank] = range.start..mid;
                ranges[hi_rank] = mid..range.end;
            }
        }
        group = half;
    }

    let segments = (0..pow2)
        .map(|r| Segment {
            owner: r,
            range: ranges[r].clone(),
            data: work[r][ranges[r].clone()].to_vec(),
        })
        .collect();
    stats.sim_time = model.t_reduce_scatter(len * 4, w);
    (Scattered { len, segments }, stats)
}

/// DimBoost's parameter-server batch exchange (Section 3): the histogram is
/// partitioned into `servers` contiguous shards; each worker sends shard `j`
/// to server `j` in one batch of `w−1` packages (the shard for the
/// co-located server moves locally for free). Each server ends up owning a
/// fully-reduced shard — the same postcondition as ReduceScatter, in a
/// single communication step.
///
/// Simulated time: `(w−1)/w·h·β + (w−1)·α + h·γ` (Table 1).
pub fn ps_batch_exchange(
    buffers: &[Vec<f32>],
    servers: usize,
    model: &CostModel,
) -> (Scattered, CommStats) {
    let len = check_uniform(buffers);
    assert!(servers > 0, "need at least one server");
    let w = buffers.len();
    let ranges = partition_ranges(len, servers);
    let mut stats = CommStats::new();

    let segments: Vec<Segment> = ranges
        .iter()
        .enumerate()
        .map(|(server, range)| {
            let mut data = vec![0.0f32; range.end - range.start];
            for (rank, buf) in buffers.iter().enumerate() {
                elementwise_add(&mut data, &buf[range.clone()]);
                // Co-located worker -> server transfers are local.
                if rank != server % w {
                    stats.bytes += ((range.end - range.start) * 4) as u64;
                    stats.packages += 1;
                }
            }
            Segment {
                owner: server,
                range: range.clone(),
                data,
            }
        })
        .collect();

    if w > 1 {
        stats.sim_time = model.t_ps_exchange(len * 4, w);
    }
    (Scattered { len, segments }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_buffers(w: usize, len: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        let buffers: Vec<Vec<f32>> = (0..w)
            .map(|r| {
                (0..len)
                    .map(|i| ((r * 31 + i * 7) % 13) as f32 - 6.0 + 0.5 * (r as f32))
                    .collect()
            })
            .collect();
        let mut expected = vec![0.0f32; len];
        for b in &buffers {
            elementwise_add(&mut expected, b);
        }
        (buffers, expected)
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-3, "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn all_strategies_agree() {
        for w in [1, 2, 3, 4, 5, 7, 8, 16] {
            let (buffers, expected) = make_buffers(w, 97);
            let m = CostModel::GIGABIT_LAN;

            let (r, _) = reduce_to_one(&buffers, 0, &m);
            assert_close(&r, &expected);

            let (a, _) = allreduce_binomial(&buffers, &m);
            assert_close(&a, &expected);

            let (s, _) = reduce_scatter_halving(&buffers, &m);
            assert_close(&s.assemble(), &expected);

            let (p, _) = ps_batch_exchange(&buffers, w, &m);
            assert_close(&p.assemble(), &expected);
        }
    }

    #[test]
    fn scatter_segments_form_partition() {
        for w in [2, 3, 5, 8] {
            let (buffers, _) = make_buffers(w, 64);
            let (s, _) = reduce_scatter_halving(&buffers, &CostModel::FREE);
            let mut covered = [false; 64];
            for seg in &s.segments {
                assert_eq!(seg.data.len(), seg.range.len());
                for i in seg.range.clone() {
                    assert!(!covered[i], "element {i} covered twice");
                    covered[i] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "w={w}: incomplete cover");
        }
    }

    #[test]
    fn ps_exchange_with_fewer_servers_than_workers() {
        let (buffers, expected) = make_buffers(8, 50);
        let (p, _) = ps_batch_exchange(&buffers, 3, &CostModel::FREE);
        assert_eq!(p.segments.len(), 3);
        assert_close(&p.assemble(), &expected);
    }

    #[test]
    fn sim_times_match_table1() {
        let (buffers, _) = make_buffers(8, 1 << 20);
        let m = CostModel::GIGABIT_LAN;
        let h = (1 << 20) * 4;

        let (_, s1) = reduce_to_one(&buffers, 0, &m);
        assert_eq!(s1.sim_time, m.t_reduce_to_one(h, 8));

        let (_, s2) = allreduce_binomial(&buffers, &m);
        assert_eq!(s2.sim_time, m.t_allreduce_binomial(h, 8));

        let (_, s3) = reduce_scatter_halving(&buffers, &m);
        assert_eq!(s3.sim_time, m.t_reduce_scatter(h, 8));

        let (_, s4) = ps_batch_exchange(&buffers, 8, &m);
        assert_eq!(s4.sim_time, m.t_ps_exchange(h, 8));
    }

    #[test]
    fn single_worker_costs_nothing() {
        let buffers = [vec![1.0f32; 16]];
        let m = CostModel::GIGABIT_LAN;
        let (_, s) = reduce_to_one(&buffers, 0, &m);
        assert_eq!(s, CommStats::default());
        let (_, s) = allreduce_binomial(&buffers, &m);
        assert_eq!(s, CommStats::default());
        let (_, s) = reduce_scatter_halving(&buffers, &m);
        assert_eq!(s, CommStats::default());
        let (_, s) = ps_batch_exchange(&buffers, 1, &m);
        assert_eq!(s, CommStats::default());
    }

    #[test]
    fn byte_accounting_reduce_to_one() {
        let (buffers, _) = make_buffers(5, 10);
        let (_, s) = reduce_to_one(&buffers, 2, &CostModel::FREE);
        // 4 senders, 10 f32 each.
        assert_eq!(s.bytes, 4 * 40);
        assert_eq!(s.packages, 4);
    }

    #[test]
    fn byte_accounting_ps_moves_less_than_reduce() {
        let (buffers, _) = make_buffers(8, 800);
        let (_, ps) = ps_batch_exchange(&buffers, 8, &CostModel::FREE);
        let (_, red) = reduce_to_one(&buffers, 0, &CostModel::FREE);
        // PS moves (w-1)/w of what all-to-one moves.
        assert_eq!(ps.bytes, red.bytes);
        // Same total bytes, but spread across w inbound links instead of 1;
        // the time advantage comes from parallel links, not fewer bytes.
        assert!(ps.packages > red.packages);
    }

    #[test]
    fn partition_ranges_covers_exactly() {
        let ranges = partition_ranges(10, 3);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        let ranges = partition_ranges(2, 5);
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 2);
        assert_eq!(ranges.len(), 5);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn rejects_ragged_buffers() {
        let buffers = vec![vec![1.0; 3], vec![1.0; 4]];
        reduce_to_one(&buffers, 0, &CostModel::FREE);
    }

    #[test]
    fn non_power_of_two_reduce_scatter_correct() {
        // w=6: 2 extra ranks fold into ranks 0..2, then 4-way halving.
        let (buffers, expected) = make_buffers(6, 32);
        let (s, stats) = reduce_scatter_halving(&buffers, &CostModel::GIGABIT_LAN);
        assert_close(&s.assemble(), &expected);
        assert_eq!(s.segments.len(), 4);
        // Charged the doubled non-power-of-two time.
        assert_eq!(
            stats.sim_time,
            CostModel::GIGABIT_LAN.t_reduce_scatter(32 * 4, 6)
        );
    }
}
