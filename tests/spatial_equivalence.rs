//! Indexed ≡ naive equivalence: every hot path rewired onto the
//! spatial query layer must produce **byte-identical** datasets and
//! outcomes to the brute-force reference it replaced, on real scenario
//! workloads (raw and protected) and on adversarial lattice layouts
//! where exact distance ties are common.
//!
//! The brute-force paths live on as `protect_with_report_naive` /
//! `run_naive` / `dataset_distortion*_naive`; the golden corpus (`tests/eval_conformance.rs`) pins
//! the indexed outputs against history, and this suite pins them
//! against the reference implementations directly.

use mobipriv::attacks::{HomeAttack, ReidentAttack, Tracker};
use mobipriv::core::{GeoInd, KDelta, Mechanism, Promesse};
use mobipriv::geo::{LatLng, LocalFrame, Point};
use mobipriv::metrics::spatial::{
    dataset_distortion, dataset_distortion_anonymous, dataset_distortion_anonymous_naive,
    dataset_distortion_naive,
};
use mobipriv::metrics::DistortionSummary;
use mobipriv::model::{write_csv, Dataset, Fix, Timestamp, Trace, UserId};
use mobipriv::synth::scenarios;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Canonical CSV bytes — the "byte-identical" arbiter for datasets.
fn csv_bytes(dataset: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    write_csv(dataset, &mut out).expect("in-memory write");
    out
}

/// The scenario workloads the paths are exercised on: a multi-day
/// commuter town, the crossing-paths stress case, and a serving-day
/// slice, each raw and Promesse-protected.
fn workloads() -> Vec<(String, Dataset)> {
    let mut out = Vec::new();
    let commuter = scenarios::commuter_town(8, 2, 21);
    let crossing = scenarios::crossing_paths(23);
    let serving = scenarios::serving_day(40, 5);
    for (name, dataset) in [
        ("commuter_town", commuter.dataset),
        ("crossing_paths", crossing.dataset),
        ("serving_day", serving.dataset),
    ] {
        let mut rng = StdRng::seed_from_u64(9);
        let protected = Promesse::new(100.0).unwrap().protect(&dataset, &mut rng);
        out.push((format!("{name}/raw"), dataset));
        out.push((format!("{name}/promesse"), protected));
    }
    out
}

/// A dataset whose positions sit on a coarse lattice and whose traces
/// mirror each other symmetrically: synchronized distances and
/// nearest-track distances tie exactly, so the `(distance, index)`
/// tie-breaking is what decides the output.
fn lattice_dataset() -> Dataset {
    let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
    let mut traces = Vec::new();
    // Four walkers per lattice row, pairwise equidistant lanes.
    for u in 0..12u64 {
        let lane = (u % 4) as f64 * 100.0;
        let start = (u / 4) as f64 * 100.0;
        let fixes = (0..40)
            .map(|i| {
                let p = Point::new(start + i as f64 * 50.0, lane);
                Fix::new(frame.unproject(p), Timestamp::new(i * 30))
            })
            .collect();
        traces.push(Trace::new(UserId::new(u), fixes).unwrap());
    }
    Dataset::from_traces(traces)
}

#[test]
fn kdelta_indexed_equals_naive_across_workloads() {
    for (name, dataset) in workloads() {
        for (k, delta) in [(2, 500.0), (3, 200.0)] {
            let mech = KDelta::new(k, delta).unwrap();
            let (fast, fast_report) = mech.protect_with_report(&dataset);
            let (slow, slow_report) = mech.protect_with_report_naive(&dataset);
            assert_eq!(fast_report, slow_report, "{name} k={k} δ={delta}");
            assert_eq!(
                csv_bytes(&fast),
                csv_bytes(&slow),
                "{name} k={k} δ={delta}: published datasets diverge"
            );
        }
    }
}

#[test]
fn kdelta_indexed_equals_naive_on_exact_ties() {
    let dataset = lattice_dataset();
    for (k, delta) in [(2, 150.0), (3, 250.0), (5, 400.0)] {
        let mech = KDelta::new(k, delta).unwrap();
        let (fast, fast_report) = mech.protect_with_report(&dataset);
        let (slow, slow_report) = mech.protect_with_report_naive(&dataset);
        assert_eq!(fast_report, slow_report, "k={k} δ={delta}");
        assert_eq!(csv_bytes(&fast), csv_bytes(&slow), "k={k} δ={delta}");
    }
}

#[test]
fn tracker_indexed_equals_naive_across_workloads() {
    for (name, dataset) in workloads() {
        for tracker in [Tracker::default(), Tracker::new(10.0)] {
            let fast = tracker.run(&dataset);
            let slow = tracker.run_naive(&dataset);
            assert_eq!(fast, slow, "{name} gate {}", tracker.max_speed_mps);
        }
    }
}

#[test]
fn tracker_indexed_equals_naive_on_exact_ties() {
    // Lattice walkers: at every step several open tracks tie exactly
    // on distance; the lowest track index must win in both paths.
    let outcome_fast = Tracker::default().run(&lattice_dataset());
    let outcome_slow = Tracker::default().run_naive(&lattice_dataset());
    assert_eq!(outcome_fast, outcome_slow);
}

#[test]
fn reident_indexed_equals_naive() {
    let out = scenarios::commuter_town(8, 2, 21);
    let (train, test) = out
        .dataset
        .partition_by_time(mobipriv::model::Timestamp::new(86_400));
    let mut rng = StdRng::seed_from_u64(3);
    let protected = Promesse::new(100.0).unwrap().protect(&test, &mut rng);
    for attack in [
        ReidentAttack::default(),
        ReidentAttack::tuned_for_noise(200.0),
    ] {
        for release in [&test, &protected] {
            let fast = attack.run(&train, release);
            let slow = attack.run_naive(&train, release);
            assert_eq!(fast, slow);
        }
    }
}

#[test]
fn home_indexed_equals_naive() {
    let out = scenarios::commuter_town(8, 2, 31);
    let mut rng = StdRng::seed_from_u64(4);
    let protected = Promesse::new(100.0)
        .unwrap()
        .protect(&out.dataset, &mut rng);
    for attack in [HomeAttack::default(), HomeAttack::tuned_for_noise(200.0)] {
        for release in [&out.dataset, &protected] {
            let fast = attack.run(release, &out.truth);
            let slow = attack.run_naive(release, &out.truth);
            assert_eq!(fast, slow);
        }
    }
}

#[test]
fn home_indexed_equals_naive_at_high_latitude() {
    // Far north, where the equirectangular east–west stretch is the
    // largest and the grid prefilter's inflation margin earns its keep.
    let out = scenarios::serving_day(30, 7);
    let frame = out.dataset.local_frame().unwrap();
    let north = LocalFrame::new(LatLng::new(69.6, 18.9).unwrap()); // Tromsø
    let moved = out.dataset.map(|t| {
        Trace::new(
            t.user(),
            t.fixes()
                .iter()
                .map(|f| Fix::new(north.unproject(frame.project(f.position)), f.time))
                .collect(),
        )
        .unwrap()
    });
    let mut truth = mobipriv::synth::GroundTruth::new();
    for v in out.truth.visits() {
        let mut v = *v;
        v.position = north.unproject(frame.project(v.position));
        truth.push(v);
    }
    let attack = HomeAttack::default();
    assert_eq!(attack.run(&moved, &truth), attack.run_naive(&moved, &truth));
}

/// Every field of a distortion summary, floats by their bits.
fn summary_bits(s: &DistortionSummary) -> [u64; 5] {
    [
        s.count as u64,
        s.mean.to_bits(),
        s.median.to_bits(),
        s.p95.to_bits(),
        s.max.to_bits(),
    ]
}

/// Indexed ≡ naive distortion, both variants, every summary field to
/// the bit. Returns the first mismatch as a message.
fn distortion_mismatch(original: &Dataset, published: &Dataset) -> Option<String> {
    let pairs = [
        (
            "per-user",
            dataset_distortion(original, published),
            dataset_distortion_naive(original, published),
        ),
        (
            "anonymous",
            dataset_distortion_anonymous(original, published),
            dataset_distortion_anonymous_naive(original, published),
        ),
    ];
    pairs
        .into_iter()
        .find(|(_, fast, slow)| summary_bits(fast) != summary_bits(slow))
        .map(|(variant, fast, slow)| format!("{variant}: indexed {fast:?} != naive {slow:?}"))
}

fn assert_distortion_equal(original: &Dataset, published: &Dataset, what: &str) {
    if let Some(message) = distortion_mismatch(original, published) {
        panic!("{what}: {message}");
    }
}

/// A trace of `user` through frame points `(x, y)`, 10 s apart.
fn path_trace(frame: &LocalFrame, user: u64, points: &[(f64, f64)]) -> Trace {
    let fixes = points
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| {
            Fix::new(
                frame.unproject(Point::new(x, y)),
                Timestamp::new(i as i64 * 10),
            )
        })
        .collect();
    Trace::new(UserId::new(user), fixes).unwrap()
}

fn origin_frame() -> LocalFrame {
    LocalFrame::new(LatLng::new(45.0, 5.0).unwrap())
}

/// Published fixes at every half-spacing lattice point of a window, so
/// vertices, midpoints, bisectors and cell boundaries are all queried.
fn lattice_queries(frame: &LocalFrame, user: u64, spacing: f64, half_width: i32) -> Trace {
    let mut points = Vec::new();
    for iy in -half_width..=half_width {
        for ix in -half_width..=half_width {
            points.push((ix as f64 * spacing / 2.0, iy as f64 * spacing / 2.0));
        }
    }
    path_trace(frame, user, &points)
}

#[test]
fn distortion_indexed_equals_naive_across_workloads() {
    // Each raw release scored against itself, Promesse-smoothed and
    // geo-indistinguishable noise (queries far off every path). The
    // workloads are smaller than `workloads()`'s: the naive
    // anonymous scan is quadratic, and this suite runs in debug builds.
    for (name, raw) in [
        ("commuter_town", scenarios::commuter_town(6, 1, 21).dataset),
        ("crossing_paths", scenarios::crossing_paths(23).dataset),
        ("serving_day", scenarios::serving_day(20, 5).dataset),
    ] {
        let mut rng = StdRng::seed_from_u64(17);
        let smoothed = Promesse::new(100.0).unwrap().protect(&raw, &mut rng);
        let noisy = GeoInd::new(0.01).unwrap().protect(&raw, &mut rng);
        for published in [&raw, &smoothed, &noisy] {
            assert_distortion_equal(&raw, published, name);
        }
    }
}

#[test]
fn distortion_ties_between_equidistant_polylines() {
    // Four users on the sides of a 100 m square; the centre and the
    // lattice around it are equidistant from several of them.
    let frame = origin_frame();
    let original = Dataset::from_traces(vec![
        path_trace(&frame, 1, &[(-50.0, -50.0), (50.0, -50.0)]),
        path_trace(&frame, 2, &[(50.0, -50.0), (50.0, 50.0)]),
        path_trace(&frame, 3, &[(50.0, 50.0), (-50.0, 50.0)]),
        path_trace(&frame, 4, &[(-50.0, 50.0), (-50.0, -50.0)]),
    ]);
    let mut published = Vec::new();
    for user in 1..=4 {
        published.push(lattice_queries(&frame, user, 50.0, 6));
    }
    assert_distortion_equal(&original, &Dataset::from_traces(published), "square");
}

#[test]
fn distortion_at_shared_vertices_and_l_bisectors() {
    let frame = origin_frame();
    // An L and a mirrored L sharing its corner vertex, plus a trace
    // that revisits the corner.
    let original = Dataset::from_traces(vec![
        path_trace(&frame, 1, &[(0.0, 0.0), (100.0, 0.0), (100.0, 100.0)]),
        path_trace(&frame, 2, &[(200.0, 0.0), (100.0, 0.0), (100.0, -100.0)]),
        path_trace(&frame, 3, &[(100.0, 0.0), (0.0, 100.0), (100.0, 0.0)]),
    ]);
    let mut points = vec![(100.0, 0.0), (0.0, 0.0), (100.0, 100.0)];
    for t in 1..=12 {
        let t = t as f64 * 12.5;
        // Bisectors of the corners at (100, 0), inside and outside.
        points.extend([
            (100.0 - t, t),
            (100.0 + t, -t),
            (100.0 + t, t),
            (100.0 - t, -t),
        ]);
    }
    let published = Dataset::from_traces(
        (1..=3)
            .map(|user| path_trace(&frame, user, &points))
            .collect(),
    );
    assert_distortion_equal(&original, &published, "L bisectors");
}

#[test]
fn distortion_on_collinear_overlapping_traces() {
    let frame = origin_frame();
    let original = Dataset::from_traces(vec![
        path_trace(&frame, 1, &[(0.0, 0.0), (150.0, 0.0), (300.0, 0.0)]),
        path_trace(&frame, 2, &[(100.0, 0.0), (400.0, 0.0)]),
        path_trace(&frame, 3, &[(400.0, 0.0), (-100.0, 0.0)]),
    ]);
    let published = Dataset::from_traces(
        (1..=3)
            .map(|user| {
                let points: Vec<(f64, f64)> = (-4..=18)
                    .flat_map(|i| [(i as f64 * 25.0, 0.0), (i as f64 * 25.0, 30.0)])
                    .collect();
                path_trace(&frame, user, &points)
            })
            .collect(),
    );
    assert_distortion_equal(&original, &published, "collinear overlap");
}

#[test]
fn distortion_with_repeated_and_single_fixes() {
    let frame = origin_frame();
    let original = Dataset::from_traces(vec![
        // Repeated fixes: zero-length segments inside a path.
        path_trace(
            &frame,
            1,
            &[
                (0.0, 0.0),
                (0.0, 0.0),
                (100.0, 0.0),
                (100.0, 0.0),
                (100.0, 0.0),
            ],
        ),
        // A stationary trace: zero-length segments only.
        path_trace(&frame, 2, &[(200.0, 200.0), (200.0, 200.0)]),
        // Single-fix traces, one of them on another user's vertex.
        path_trace(&frame, 3, &[(100.0, 0.0)]),
        path_trace(&frame, 3, &[(-300.0, 100.0)]),
    ]);
    let published = Dataset::from_traces(
        (1..=3)
            .map(|user| lattice_queries(&frame, user, 100.0, 5))
            .collect(),
    );
    assert_distortion_equal(&original, &published, "repeated and single fixes");
}

#[test]
fn distortion_on_exact_hundred_metre_multiples() {
    // Vertices and queries on the 100 m lattice: cell boundaries of the
    // index, where a floor can land on either side.
    let frame = origin_frame();
    let original = Dataset::from_traces(
        (0..6u64)
            .map(|u| {
                let y = u as f64 * 100.0 - 300.0;
                path_trace(&frame, u, &[(-300.0, y), (0.0, y), (300.0, y + 100.0)])
            })
            .collect(),
    );
    let published = Dataset::from_traces(
        (0..6u64)
            .map(|u| lattice_queries(&frame, u, 200.0, 4))
            .collect(),
    );
    assert_distortion_equal(&original, &published, "100 m multiples");
}

#[test]
fn distortion_for_queries_far_outside_the_grid() {
    let frame = origin_frame();
    let original = Dataset::from_traces(vec![
        path_trace(&frame, 1, &[(0.0, 0.0), (300.0, 0.0), (300.0, 300.0)]),
        path_trace(&frame, 2, &[(0.0, 300.0), (150.0, 150.0)]),
    ]);
    let far = [
        (50_000.0, 0.0),
        (-50_000.0, 40_000.0),
        (150.0, -80_000.0),
        (2_000.0, 2_000.0),
        (-1_000.0, 150.0),
    ];
    let published = Dataset::from_traces(vec![
        path_trace(&frame, 1, &far),
        path_trace(&frame, 2, &far),
    ]);
    assert_distortion_equal(&original, &published, "far queries");
}

#[test]
fn distortion_skips_published_users_missing_from_the_original() {
    let frame = origin_frame();
    let original = Dataset::from_traces(vec![path_trace(&frame, 1, &[(0.0, 0.0), (100.0, 0.0)])]);
    let published = Dataset::from_traces(vec![
        path_trace(&frame, 1, &[(50.0, 10.0)]),
        path_trace(&frame, 7, &[(0.0, 0.0), (100.0, 50.0)]),
        path_trace(&frame, 8, &[(10.0, 10.0)]),
    ]);
    assert_distortion_equal(&original, &published, "missing users");
    // Only user 1's fix is scored per user; all three are scored anonymously.
    assert_eq!(dataset_distortion(&original, &published).count, 1);
    assert_eq!(dataset_distortion_anonymous(&original, &published).count, 4);
}

#[test]
fn distortion_indexed_equals_naive_at_high_latitude() {
    // Tromsø: the frame's east–west scale is under half the north–south
    // one, so a 100 m cell spans very different longitude widths.
    let out = scenarios::serving_day(20, 7);
    let frame = out.dataset.local_frame().unwrap();
    let north = LocalFrame::new(LatLng::new(69.6, 18.9).unwrap());
    let moved = |d: &Dataset| {
        d.map(|t| {
            Trace::new(
                t.user(),
                t.fixes()
                    .iter()
                    .map(|f| Fix::new(north.unproject(frame.project(f.position)), f.time))
                    .collect(),
            )
            .unwrap()
        })
    };
    let original = moved(&out.dataset);
    let mut rng = StdRng::seed_from_u64(5);
    let smoothed = Promesse::new(100.0).unwrap().protect(&original, &mut rng);
    let noisy = GeoInd::new(0.02).unwrap().protect(&original, &mut rng);
    for published in [&original, &smoothed, &noisy] {
        assert_distortion_equal(&original, published, "69.6°N");
    }
}

/// Random lattice walks: `users` users with 1–3 traces each, moving
/// one lattice step (or standing still) per fix, and a published set
/// of lattice and half-lattice queries under labels that include users
/// absent from the original, plus the odd far-away fix.
fn lattice_world(seed: u64, users: u64, spacing: f64, north: bool) -> (Dataset, Dataset) {
    let frame = if north {
        LocalFrame::new(LatLng::new(69.6, 18.9).unwrap())
    } else {
        origin_frame()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut original = Vec::new();
    for user in 0..users {
        for _ in 0..rng.gen_range(1..4u32) {
            let (mut ix, mut iy) = (rng.gen_range(-5..6i32), rng.gen_range(-5..6i32));
            let mut points = Vec::new();
            for _ in 0..rng.gen_range(1..12u32) {
                points.push((ix as f64 * spacing, iy as f64 * spacing));
                ix += rng.gen_range(-1..2i32);
                iy += rng.gen_range(-1..2i32);
            }
            original.push(path_trace(&frame, user, &points));
        }
    }
    let mut published = Vec::new();
    for _ in 0..rng.gen_range(1..6u32) {
        let user = rng.gen_range(0..users + 2);
        let points: Vec<(f64, f64)> = (0..rng.gen_range(1..30u32))
            .map(|_| {
                if rng.gen_range(0..20u32) == 0 {
                    (rng.gen_range(-30_000.0..30_000.0), 40_000.0)
                } else {
                    (
                        rng.gen_range(-14..15i32) as f64 * spacing / 2.0,
                        rng.gen_range(-14..15i32) as f64 * spacing / 2.0,
                    )
                }
            })
            .collect();
        published.push(path_trace(&frame, user, &points));
    }
    (
        Dataset::from_traces(original),
        Dataset::from_traces(published),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn distortion_indexed_matches_naive_on_lattice_walks(
        seed in any::<u64>(),
        users in 1u64..8,
        // 0: 100 m lattice (cell boundaries), 1: 50 m, 2: 37.5 m, 3: 250 m.
        spacing in 0u8..4,
        north in 0u8..2,
    ) {
        let spacing = [100.0, 50.0, 37.5, 250.0][spacing as usize];
        let (original, published) = lattice_world(seed, users, spacing, north == 1);
        let mismatch = distortion_mismatch(&original, &published);
        prop_assert!(mismatch.is_none(), "{:?}", mismatch);
    }

    #[test]
    fn distortion_indexed_matches_naive_on_smoothed_walks(
        seed in any::<u64>(),
        users in 2u64..8,
        alpha in 20.0f64..150.0,
    ) {
        let (original, _) = lattice_world(seed, users, 100.0, false);
        let mut rng = StdRng::seed_from_u64(seed);
        let smoothed = Promesse::new(alpha).unwrap().protect(&original, &mut rng);
        let mismatch = distortion_mismatch(&original, &smoothed);
        prop_assert!(mismatch.is_none(), "{:?}", mismatch);
    }
}
