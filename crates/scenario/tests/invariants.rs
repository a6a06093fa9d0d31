//! Property tests for the workload registry: every family must uphold
//! its advertised structure (symmetry, definiteness, dominance), be
//! deterministic per seed, and respect its conditioning contract across
//! sizes and seeds — the invariants campaigns silently rely on.

use amc_linalg::{cholesky, lu::LuFactor};
use amc_scenario::workload::{near_square_factors, WorkloadFamily, WorkloadSpec};
use proptest::prelude::*;

fn cond_estimate(a: &amc_linalg::Matrix) -> f64 {
    LuFactor::new(a)
        .map(|lu| lu.cond_estimate(a.norm_one()))
        .unwrap_or(f64::INFINITY)
}

/// The SPD families of the registry, one representative
/// parameterization each.
fn spd_families() -> Vec<(&'static str, WorkloadFamily)> {
    vec![
        ("wishart", WorkloadFamily::Wishart),
        (
            "toeplitz-spd",
            WorkloadFamily::ToeplitzSpd {
                kernel_len: 8,
                ridge: 0.02,
            },
        ),
        ("poisson2d", WorkloadFamily::Poisson2d),
        ("path", WorkloadFamily::PathLaplacian { ground: 0.05 }),
        ("ring", WorkloadFamily::RingLaplacian { ground: 0.05 }),
        (
            "random-regular",
            WorkloadFamily::RandomRegular {
                degree: 4,
                ground: 0.2,
            },
        ),
        ("pdn", WorkloadFamily::Pdn),
        ("spd-cond", WorkloadFamily::SpdWithCondition { cond: 1e4 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every SPD family delivers symmetric positive-definite matrices of
    /// the requested size, at any size and seed.
    #[test]
    fn spd_families_deliver_spd_instances(n in 4usize..40, seed in 0u64..1000) {
        for (name, family) in spd_families() {
            let inst = WorkloadSpec::new(name, family, n, seed)
                .instantiate(1)
                .unwrap();
            prop_assert_eq!(inst.matrix.shape(), (n, n), "{}", name);
            prop_assert!(inst.matrix.is_symmetric(1e-12), "{} not symmetric", name);
            prop_assert!(
                cholesky::is_spd(&inst.matrix, 1e-12),
                "{} not SPD at n={} seed={}", name, n, seed
            );
            prop_assert_eq!(inst.rhs[0].len(), n);
            prop_assert!(inst.meta.spd, "{} metadata disagrees", name);
        }
    }

    /// Instantiation is a pure function of (family, n, seed).
    #[test]
    fn instances_are_seed_deterministic(n in 4usize..32, seed in 0u64..1000) {
        for (name, family) in spd_families() {
            let a = WorkloadSpec::new(name, family, n, seed).instantiate(2).unwrap();
            let b = WorkloadSpec::new(name, family, n, seed).instantiate(2).unwrap();
            prop_assert_eq!(&a.matrix, &b.matrix, "{}", name);
            prop_assert_eq!(&a.rhs, &b.rhs, "{}", name);
            // A different seed moves the random families.
            if matches!(
                family,
                WorkloadFamily::Wishart | WorkloadFamily::SpdWithCondition { .. }
            ) {
                let c = WorkloadSpec::new(name, family, n, seed.wrapping_add(1))
                    .instantiate(2)
                    .unwrap();
                prop_assert_ne!(&a.matrix, &c.matrix, "{}", name);
            }
        }
    }

    /// The guarded raw-Toeplitz family honours its condition ceiling.
    #[test]
    fn guarded_toeplitz_respects_max_cond(n in 4usize..48, seed in 0u64..1000) {
        let inst = WorkloadSpec::new(
            "raw",
            WorkloadFamily::ToeplitzRaw { max_cond: 1e8 },
            n,
            seed,
        )
        .instantiate(1)
        .unwrap();
        prop_assert!(inst.meta.cond_estimate <= 1e8);
        prop_assert!(cond_estimate(&inst.matrix) <= 1e8);
    }

    /// The condition-targeted family is monotone in its target: a
    /// 100x larger target produces a (strictly) larger estimate.
    #[test]
    fn cond_targeted_family_is_monotone(n in 8usize..32, seed in 0u64..1000) {
        let est = |cond: f64| {
            let inst = WorkloadSpec::new("c", WorkloadFamily::SpdWithCondition { cond }, n, seed)
                .instantiate(1)
                .unwrap();
            inst.meta.cond_estimate
        };
        let lo = est(1e2);
        let mid = est(1e4);
        let hi = est(1e6);
        prop_assert!(lo < mid, "{lo} < {mid}");
        prop_assert!(mid < hi, "{mid} < {hi}");
    }
}

#[test]
fn near_square_factors_multiply_back() {
    for n in 1..200 {
        let (r, c) = near_square_factors(n);
        assert_eq!(r * c, n);
        assert!(r <= c);
    }
}

#[test]
fn graph_laplacian_conditioning_tracks_the_ground() {
    // Weaker grounding -> worse conditioning, for path and ring alike.
    for family in [
        |g| WorkloadFamily::PathLaplacian { ground: g },
        |g| WorkloadFamily::RingLaplacian { ground: g },
    ] {
        let est = |ground: f64| {
            WorkloadSpec::new("g", family(ground), 24, 5)
                .instantiate(1)
                .unwrap()
                .meta
                .cond_estimate
        };
        assert!(est(0.01) > est(0.1));
        assert!(est(0.1) > est(1.0));
    }
}

#[test]
fn pdn_and_poisson_sizes_follow_the_grid_factorization() {
    for n in [12usize, 16, 30, 36] {
        for family in [WorkloadFamily::Pdn, WorkloadFamily::Poisson2d] {
            let inst = WorkloadSpec::new("w", family, n, 1).instantiate(1).unwrap();
            assert_eq!(inst.matrix.rows(), n);
        }
    }
}
