//! Property-based tests of the exploration mathematics: Pareto
//! invariants, normalisation bounds, norm behaviour and test-cost
//! monotonicity.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tta_arch::template::TemplateSpace;
use tta_core::explore::Exploration;
use tta_core::norm::{normalize, select, Norm, Weights};
use tta_core::pareto::{
    dominates, is_pareto_set, pareto_front, pareto_front_reference, ParetoArchive,
};
use tta_core::testcost::{ftfu_ratio, ftrf};
use tta_core::ComponentDb;

fn cloud(dims: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(
        proptest::collection::vec(0.0f64..1000.0, dims..=dims),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn front_is_mutually_nondominating(pts in cloud(2)) {
        let front = pareto_front(&pts);
        prop_assert!(is_pareto_set(&pts, &front));
        for &i in &front {
            for &j in &front {
                prop_assert!(i == j || !dominates(&pts[i], &pts[j]));
            }
        }
    }

    #[test]
    fn every_dropped_point_is_dominated(pts in cloud(3)) {
        let front = pareto_front(&pts);
        for (i, p) in pts.iter().enumerate() {
            if !front.contains(&i) {
                prop_assert!(
                    pts.iter().any(|q| dominates(q, p)),
                    "point {} dropped but undominated", i
                );
            }
        }
    }

    #[test]
    fn fast_2d_front_matches_the_reference(pts in cloud(2)) {
        // `pareto_front` takes the O(n log n) sort-and-scan path for
        // 2-D input; it must agree with the O(n²) oracle exactly,
        // indices and order included.
        prop_assert_eq!(pareto_front(&pts), pareto_front_reference(&pts));
    }

    #[test]
    fn fast_2d_front_survives_duplicates(pts in cloud(2), dup in 0usize..60) {
        // Force coordinate collisions: append a copy of one point.
        let mut pts = pts;
        let copy = pts[dup % pts.len()].clone();
        pts.push(copy);
        prop_assert_eq!(pareto_front(&pts), pareto_front_reference(&pts));
    }

    #[test]
    fn archive_matches_front_for_any_insertion_order(pts in cloud(3), seed in 0u64..1000) {
        // Shuffle the insertion order; the streaming archive must end
        // on exactly the batch front, whatever the order.
        let mut order: Vec<usize> = (0..pts.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..(i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut archive = ParetoArchive::new();
        for &i in &order {
            let joined = archive.try_insert(i, &pts[i]);
            // An accepted point is non-dominated among those offered
            // so far; a rejected one is dominated by a current member.
            prop_assert_eq!(
                joined,
                !order.iter()
                    .take_while(|&&j| j != i)
                    .chain(std::iter::once(&i))
                    .any(|&j| dominates(&pts[j], &pts[i]))
            );
        }
        prop_assert_eq!(archive.ids(), pareto_front(&pts));
        prop_assert_eq!(archive.offered(), pts.len());
    }

    #[test]
    fn archive_matches_front_in_2d_too(pts in cloud(2)) {
        let mut archive = ParetoArchive::new();
        for (i, p) in pts.iter().enumerate() {
            archive.try_insert(i, p);
        }
        prop_assert_eq!(archive.ids(), pareto_front(&pts));
    }

    #[test]
    fn front_of_front_is_identity(pts in cloud(3)) {
        let front = pareto_front(&pts);
        let front_pts: Vec<Vec<f64>> = front.iter().map(|&i| pts[i].clone()).collect();
        let again = pareto_front(&front_pts);
        prop_assert_eq!(again.len(), front_pts.len());
    }

    #[test]
    fn normalisation_stays_in_unit_box(pts in cloud(3)) {
        for p in normalize(&pts) {
            for x in p {
                prop_assert!((0.0..=1.0).contains(&x), "{x}");
            }
        }
    }

    #[test]
    fn selection_is_on_the_input_set(pts in cloud(3)) {
        let i = select(&pts, &Weights::equal(3), Norm::Euclidean);
        prop_assert!(i < pts.len());
    }

    #[test]
    fn selection_has_minimal_norm(pts in cloud(2)) {
        // Nothing — dominated or not — may beat the selected point's
        // weighted norm; in particular any dominator ties at best.
        let i = select(&pts, &Weights::equal(2), Norm::Euclidean);
        let normed = normalize(&pts);
        let ni = Norm::Euclidean.eval(&normed[i]);
        for (j, q) in normed.iter().enumerate() {
            let nq = Norm::Euclidean.eval(q);
            let ok = ni <= nq + 1e-12;
            prop_assert!(ok, "point {} has smaller norm than the selection", j);
            if dominates(&pts[j], &pts[i]) {
                // Dominators never have a *larger* norm after
                // normalisation, so equality must hold.
                let tied = (ni - nq).abs() < 1e-9;
                prop_assert!(tied, "dominator {} should tie in norm", j);
            }
        }
    }

    #[test]
    fn ftfu_ratio_monotone_in_scarcity(np in 1usize..500, cd in 3u32..6, nconn in 1usize..8) {
        let mut last = f64::INFINITY;
        for nb in 1..=8usize {
            let v = ftfu_ratio(np, cd, nconn, nb);
            prop_assert!(v <= last, "cost must fall as buses grow");
            last = v;
        }
        // Floor: with plenty of buses the ratio term vanishes.
        prop_assert_eq!(ftfu_ratio(np, cd, nconn, nconn), np as f64 * f64::from(cd));
    }

    #[test]
    fn ftrf_port_parallelism_never_hurts(np in 1usize..500, cd in 3u32..5, nb in 1usize..5) {
        // Adding a second read port (within bus capacity) never raises
        // the cost.
        let one = ftrf(np, cd, 1, 1, nb);
        let two = ftrf(np, cd, 1, 2, nb);
        prop_assert!(two <= one, "{two} > {one}");
    }

    #[test]
    fn lifting_a_front_with_any_axis_preserves_nondomination(pts in cloud(2), seed in 0u64..1000) {
        // The pipeline's Figure-8 step: take the 2-D front, append a
        // third axis (any values at all), and the lifted points must all
        // stay Pareto-optimal — so the 2-D→3-D lift never needs a
        // re-filter and the projection property holds by construction.
        let front = pareto_front(&pts);
        let lifted: Vec<Vec<f64>> = front
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let extra = ((seed + k as u64) % 977) as f64;
                vec![pts[i][0], pts[i][1], extra]
            })
            .collect();
        prop_assert_eq!(pareto_front(&lifted).len(), lifted.len());
    }
}

/// A randomised tiny template space: every draw is a valid space whose
/// exploration finishes quickly at width 4.
fn tiny_space(buses: Vec<usize>, alus: Vec<usize>, regs: usize) -> TemplateSpace {
    TemplateSpace {
        width: 4,
        buses,
        clusters: vec![1],
        alus,
        cmps: vec![1],
        muls: vec![0],
        imms: vec![1],
        pipes: vec![1],
        rf_banks: vec![1],
        rf_sets: vec![vec![(regs, 1, 2)]],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn parallel_sweep_equals_serial_on_random_spaces(
        nbuses in 1usize..4,
        nalus in 1usize..3,
        regs in 2usize..9,
        threads in 2usize..9,
    ) {
        let space = tiny_space(
            (1..=nbuses).collect(),
            (1..=nalus).collect(),
            regs,
        );
        let w = tta_workloads::suite::checksum32();
        let db = ComponentDb::new();
        let serial = Exploration::over(space.clone())
            .workload(&w)
            .with_db(&db)
            .run();
        let parallel = Exploration::over(space)
            .workload(&w)
            .with_db(&db)
            .threads(threads)
            .run();
        // Identical evaluated set…
        prop_assert_eq!(serial.evaluated.len(), parallel.evaluated.len());
        for (a, b) in serial.evaluated.iter().zip(&parallel.evaluated) {
            prop_assert_eq!(&a.architecture.name, &b.architecture.name);
            prop_assert_eq!(&a.objectives, &b.objectives);
            prop_assert_eq!(a.cycles, b.cycles);
            prop_assert_eq!(a.spills, b.spills);
        }
        // …identical front…
        prop_assert_eq!(&serial.pareto, &parallel.pareto);
        prop_assert_eq!(serial.infeasible, parallel.infeasible);
        // …identical selection.
        if !serial.pareto.is_empty() {
            prop_assert_eq!(
                &serial.select_equal_weights().architecture.name,
                &parallel.select_equal_weights().architecture.name
            );
        }
    }
}
