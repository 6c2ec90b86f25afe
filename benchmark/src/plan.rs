//! The per-episode work plan, generated from the seed before timing
//! starts. The program under test only ever sees the generated plan.

use fuzzy_util::SplitMix64;

/// Episodes in one plan; longer runs cycle through it.
pub const PLAN_EPISODES: usize = 400_000;
/// Work per episode is uniform in `WORK_MIN..=WORK_MAX` busy units
/// (about 0.6–2.4 µs), so the two arrivals of an episode are skewed.
pub const WORK_MIN: u64 = 400;
pub const WORK_MAX: u64 = 1600;

/// Where an episode's work runs relative to the barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// All work before `arrive`; `wait` follows at once (the paper's 0 %
    /// barrier region).
    Point,
    /// Half the work between `arrive` and `wait` (the paper's 50 %).
    Fuzzy,
    /// No work at all: back-to-back point episodes.
    Empty,
}

impl Shape {
    /// Splits `units` of work into (before `arrive`, inside the region).
    pub fn split(self, units: u32) -> (u64, u64) {
        let units = u64::from(units);
        match self {
            Shape::Point => (units, 0),
            Shape::Fuzzy => (units - units / 2, units / 2),
            Shape::Empty => (0, 0),
        }
    }
}

/// Busy units per episode for each of the two load threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub work: [Vec<u32>; 2],
}

impl Plan {
    /// The plan for `seed`: thread `t` draws from its own stream so the
    /// two columns are independent.
    pub fn generate(seed: u64, episodes: usize) -> Plan {
        let column = |t: u64| {
            let mut rng = SplitMix64::seed_from_u64(seed ^ (t + 1).wrapping_mul(0x9E37_79B9));
            (0..episodes)
                .map(|_| rng.range_u64(WORK_MIN, WORK_MAX) as u32)
                .collect()
        };
        Plan {
            work: [column(0), column(1)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total busy units thread `t` runs over one pass of the plan.
    fn total_units(plan: &Plan, t: usize, shape: Shape) -> u64 {
        plan.work[t]
            .iter()
            .map(|&w| {
                let (before, inside) = shape.split(w);
                before + inside
            })
            .sum()
    }

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        let a = Plan::generate(1989, 1000);
        let b = Plan::generate(1989, 1000);
        let c = Plan::generate(1990, 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn work_stays_in_range_and_columns_differ() {
        let p = Plan::generate(7, 5000);
        for w in p.work.iter().flatten() {
            assert!((WORK_MIN..=WORK_MAX).contains(&u64::from(*w)));
        }
        assert_ne!(p.work[0], p.work[1]);
    }

    #[test]
    fn point_and_fuzzy_run_the_same_total_work() {
        let p = Plan::generate(3, 10_000);
        for t in 0..2 {
            assert_eq!(
                total_units(&p, t, Shape::Point),
                total_units(&p, t, Shape::Fuzzy)
            );
            assert_eq!(total_units(&p, t, Shape::Empty), 0);
        }
        assert_eq!(Shape::Fuzzy.split(401), (201, 200));
    }
}
