//! Merge plans: the number of rounds and the radix of each round
//! (paper §IV-F2, §VI-C).
//!
//! A merge plan is a list of radices, one per round, each in {2, 4, 8}.
//! At every round, alive *slots* (initially one per block) form
//! contiguous groups of `radix` members; the lowest slot is the root, the
//! others send their complexes to it and drop out. After all rounds the
//! number of output blocks is `n_blocks / Π radices`.
//!
//! The planner encodes the paper's guidance: *"radix-8 or the highest
//! radix possible should be selected in order to minimize the number of
//! rounds. When the optimal radix cannot be used, smaller radices should
//! be used in earlier rounds rather than later rounds."*

/// A sequence of merge rounds described by their radices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergePlan {
    pub radices: Vec<u32>,
}

impl MergePlan {
    /// A plan with no merging at all (write local complexes directly).
    pub fn none() -> Self {
        MergePlan { radices: vec![] }
    }

    /// An explicit plan. [`Layout::new`](crate::Layout::new) refuses a
    /// radix other than 2, 4 or 8.
    pub fn rounds(radices: Vec<u32>) -> Self {
        MergePlan { radices }
    }

    /// The paper's heuristic plan to merge `n_blocks` (a power of two)
    /// down to `n_out` blocks (also a power of two dividing `n_blocks`):
    /// as many radix-8 rounds as possible, with the one leftover radix
    /// (4 or 2) placed in the **first** round.
    pub fn heuristic(n_blocks: u32, n_out: u32) -> Self {
        assert!(n_blocks.is_power_of_two(), "blocks must be a power of two");
        assert!(n_out.is_power_of_two() && n_out <= n_blocks && n_blocks.is_multiple_of(n_out));
        let e = (n_blocks / n_out).trailing_zeros();
        let rem = e % 3;
        let mut radices = Vec::new();
        if rem > 0 {
            radices.push(1 << rem); // 2 or 4, earliest round
        }
        radices.extend(std::iter::repeat_n(8, (e / 3) as usize));
        MergePlan { radices }
    }

    /// Full merge down to a single output block.
    pub fn full_merge(n_blocks: u32) -> Self {
        Self::heuristic(n_blocks, 1)
    }

    /// Product of all radices (total reduction factor), saturating at
    /// `u32::MAX` for plans longer than any block count needs.
    pub fn reduction(&self) -> u32 {
        self.radices.iter().fold(1, |a, &r| a.saturating_mul(r))
    }

    /// Number of output blocks for a given input block count.
    pub fn output_blocks(&self, n_blocks: u32) -> u32 {
        let red = self.reduction();
        assert_eq!(
            n_blocks % red,
            0,
            "plan reduction {red} must divide the block count {n_blocks}"
        );
        n_blocks / red
    }

    /// Stride of alive slots *entering* round `r` (0-based): the product
    /// of radices of earlier rounds.
    pub fn stride_before(&self, r: usize) -> u32 {
        self.radices[..r].iter().product()
    }

    /// The groups of round `r` over `n_blocks` slots: each group is
    /// `(root_slot, members)` with members listed root-first.
    pub fn groups(&self, r: usize, n_blocks: u32) -> Vec<(u32, Vec<u32>)> {
        let stride = self.stride_before(r);
        let k = self.radices[r];
        let group_span = stride * k;
        assert_eq!(n_blocks % group_span, 0, "radix must divide alive slots");
        let mut out = Vec::with_capacity((n_blocks / group_span) as usize);
        let mut root = 0;
        while root < n_blocks {
            let members: Vec<u32> = (0..k).map(|i| root + i * stride).collect();
            out.push((root, members));
            root += group_span;
        }
        out
    }

    /// Slots still alive after all rounds (the output block owners).
    pub fn output_slots(&self, n_blocks: u32) -> Vec<u32> {
        let red = self.reduction();
        (0..n_blocks).step_by(red as usize).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_matches_paper_examples() {
        // §VI-C: full merge of 2048 blocks = rounds [4, 8, 8, 8]
        assert_eq!(MergePlan::full_merge(2048).radices, vec![4, 8, 8, 8]);
        // §VI-D1: 8192 blocks merged in five rounds [2, 8, 8, 8, 8]
        assert_eq!(MergePlan::full_merge(8192).radices, vec![2, 8, 8, 8, 8]);
        // Table II: 256 blocks -> [4, 8, 8] preferred
        assert_eq!(MergePlan::full_merge(256).radices, vec![4, 8, 8]);
        // Fig 6 runs: two rounds of radix-8 partial merge
        assert_eq!(MergePlan::heuristic(4096, 64).radices, vec![8, 8]);
    }

    #[test]
    fn reduction_and_outputs() {
        let p = MergePlan::rounds(vec![4, 8, 8]);
        assert_eq!(p.reduction(), 256);
        assert_eq!(p.output_blocks(256), 1);
        assert_eq!(p.output_blocks(512), 2);
        assert_eq!(MergePlan::none().output_blocks(64), 64);
    }

    /// Every radix vector over {2, 4, 8} of length ≤ 3 (40 plans), on
    /// the first four multiples of its reduction: every round's groups
    /// (radix members, rooted at their minimum) partition the alive
    /// slots, and the roots left are the output slots.
    #[test]
    fn plan_arithmetic() {
        let mut plans = vec![vec![]];
        for len in 1..=3 {
            let longer: Vec<Vec<u32>> = (plans.iter().filter(|p| p.len() == len - 1))
                .flat_map(|p| [2, 4, 8].map(|r| [&p[..], &[r]].concat()))
                .collect();
            plans.extend(longer);
        }
        assert_eq!(plans.len(), 40);
        for radices in plans {
            let plan = MergePlan::rounds(radices.clone());
            let red = plan.reduction();
            assert_eq!(red, radices.iter().product::<u32>());
            for extra in 0..4 {
                // any multiple of the reduction is a valid block count
                let blocks = red << extra;
                assert_eq!(plan.output_blocks(blocks), blocks / red);
                // group structure is a partition at every round
                let mut alive: Vec<u32> = (0..blocks).collect();
                for r in 0..plan.radices.len() {
                    let groups = plan.groups(r, blocks);
                    let mut members: Vec<u32> =
                        groups.iter().flat_map(|(_, m)| m.iter().copied()).collect();
                    members.sort_unstable();
                    assert_eq!(members, alive, "{radices:?} on {blocks} blocks, round {r}");
                    for (root, m) in &groups {
                        assert_eq!(*root, *m.iter().min().unwrap());
                        assert_eq!(m.len() as u32, plan.radices[r]);
                    }
                    alive = groups.iter().map(|(root, _)| *root).collect();
                }
                assert_eq!(alive, plan.output_slots(blocks));
            }
        }
    }

    /// Every power-of-two block count up to 2^13: the full merge reduces
    /// to one block, uses radix 8 whenever possible (at most one other
    /// round) and puts the smaller radix first.
    #[test]
    fn heuristic_plan_properties() {
        for exp in 0..14 {
            let blocks = 1u32 << exp;
            let plan = MergePlan::full_merge(blocks);
            assert_eq!(plan.reduction(), blocks);
            let non8 = plan.radices.iter().filter(|&&r| r != 8).count();
            assert!(non8 <= 1, "{blocks}: {:?}", plan.radices);
            if non8 == 1 {
                assert_ne!(plan.radices[0], 8, "{blocks}: {:?}", plan.radices);
            }
        }
    }

    #[test]
    fn strides_accumulate() {
        let p = MergePlan::rounds(vec![2, 4, 8]);
        assert_eq!(p.stride_before(0), 1);
        assert_eq!(p.stride_before(1), 2);
        assert_eq!(p.stride_before(2), 8);
    }

    #[test]
    fn bad_radix_rejected() {
        let plan = MergePlan::rounds(vec![3]);
        let layout = crate::Layout::new(
            crate::Dims::cube(9),
            Default::default(),
            &plan,
            1,
            3,
            || Ok::<_, crate::LayoutError>(vec![]),
        );
        assert_eq!(layout.err(), Some(crate::LayoutError::BadRadix(3)));
    }

    #[test]
    #[should_panic]
    fn non_dividing_plan_rejected() {
        let p = MergePlan::rounds(vec![8]);
        let _ = p.output_blocks(12);
    }
}
