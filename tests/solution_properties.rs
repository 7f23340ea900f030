//! Property-based integration tests: random rectilinear targets are
//! fractured and the solutions re-verified from scratch.

use maskfrac::ebeam::{evaluate, Classification, IntensityMap};
use maskfrac::fracture::{FractureConfig, ModelBasedFracturer, RefineOutcome};
use maskfrac::geom::{Bitmap, Frame, Polygon, Rect};
use maskfrac_rng::check::{self, check};
use maskfrac_rng::StdRng;

/// A connected union of 1–3 chained rectangles on a 12 nm placement
/// grid, so every feature and every step between rects is comfortably
/// printable (≥ 24 nm sides, jogs of 0 or ≥ 12 nm — nearly aligned edges
/// would create few-nm ledges that are physically unfixable at fixed
/// dose within γ = 2 nm at σ = 6.25); `None` when the union does not
/// trace or is too small (the case is redrawn).
fn target(rng: &mut StdRng) -> Option<Polygon> {
    const GRID: i64 = 12;
    let specs = check::vec(rng, 1..4, |rng| {
        (
            rng.gen_range(0i64..4),
            rng.gen_range(0i64..4),
            rng.gen_range(2i64..5),
            rng.gen_range(2i64..5),
        )
    });
    let mut bm = Bitmap::new(140, 140);
    let mut cursor = (24i64, 24i64);
    for (dx, dy, w, h) in specs {
        let (w, h) = (w * GRID, h * GRID);
        let x0 = (cursor.0 + (dx - 2) * GRID).clamp(0, 84);
        let y0 = (cursor.1 + (dy - 2) * GRID).clamp(0, 84);
        for iy in y0..(y0 + h).min(139) {
            for ix in x0..(x0 + w).min(139) {
                bm.set(ix as usize, iy as usize, true);
            }
        }
        cursor = (x0 + w / 2 / GRID * GRID, y0 + h / 2 / GRID * GRID);
    }
    // Keep only the largest connected region (chaining usually
    // connects them; if not, the contour picks the biggest).
    bm.largest_outer_contour()
        .filter(|p| p.area() >= 24.0 * 24.0)
}

#[test]
fn fracture_solutions_verify_independently() {
    check("fracture_solutions_verify_independently", 8, |rng| {
        let target = target(rng)?;
        let cfg = FractureConfig { max_iterations: 400, ..FractureConfig::default() };
        let fracturer = ModelBasedFracturer::new(cfg.clone());
        let result = fracturer.fracture(&target);

        // Re-simulate from scratch.
        let cls = Classification::build(&target, cfg.gamma, 22);
        let mut map = IntensityMap::new(cfg.model(), cls.frame());
        for s in &result.shots {
            map.add_shot(s);
        }
        let summary = evaluate(&cls, &map);
        assert_eq!(summary.fail_count(), result.summary.fail_count());

        // Invariants: min shot size; all shots near the target.
        let bbox = target.bbox().expand(30).expect("bbox grows");
        for s in &result.shots {
            assert!(s.min_side() >= cfg.min_shot_size);
            assert!(bbox.contains_rect(s), "shot {} strays far from target", s);
        }
        // Chained-rect targets are near-ideal inputs, but the union can
        // still form bumps shorter than 2σ whose corners are physically
        // marginal at fixed dose (the paper reports the same residual
        // failing pixels on its wavy shapes). Demand at-most-marginal
        // residues: a handful of pixels, all within a hair of threshold.
        assert!(
            summary.fail_count() <= 4 && summary.cost < 0.25,
            "{:?}",
            summary
        );
        Some(())
    });
}

#[test]
fn single_rectangles_fracture_to_one_shot() {
    check("single_rectangles_fracture_to_one_shot", 8, |rng| {
        let w = rng.gen_range(16i64..120);
        let h = rng.gen_range(16i64..120);
        let target = Polygon::from_rect(Rect::new(0, 0, w, h).expect("rect"));
        let fracturer = ModelBasedFracturer::new(FractureConfig::default());
        let result = fracturer.fracture(&target);
        assert!(result.summary.is_feasible());
        assert_eq!(result.shot_count(), 1, "shots: {:?}", result.shots);
        // The single shot hugs the rectangle within the corner overhang.
        let s = result.shots[0];
        assert!(s.x0().abs() <= 4 && s.y0().abs() <= 4);
        assert!((s.x1() - w).abs() <= 4 && (s.y1() - h).abs() <= 4);
        Some(())
    });
}

/// Runs `run` on `available_parallelism()` threads at once. Every thread
/// is inside a refinement loop, so the spare-core gate is saturated and
/// greedy passes mostly score serially — the counterpart of a run alone,
/// whose passes score on the idle core.
fn on_every_core<T: Send>(run: impl Fn() -> T + Sync) -> Vec<T> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cores).map(|_| scope.spawn(&run)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("concurrent run panicked"))
            .collect()
    })
}

/// Asserts that `out` reproduces `want` exactly: shots, iteration count
/// and failing pixels.
fn assert_same_outcome(out: &RefineOutcome, want: &RefineOutcome, what: &str) {
    assert_eq!(out.shots, want.shots, "{what}: shot lists diverged");
    assert_eq!(out.iterations, want.iterations, "{what}: iterations");
    assert_eq!(
        out.summary.fail_count(),
        want.summary.fail_count(),
        "{what}: failing pixels diverged"
    );
}

/// The incremental dirty-window engine and the full-rescan reference path
/// must produce byte-identical shot lists whether a greedy pass scores on
/// the spare core or serially: caching and parallel scoring are pure
/// optimizations, never allowed to change which candidate moves are
/// accepted or in what order. Runs the real clip suite end to end through
/// refinement: the reference, the incremental engine alone, and the
/// incremental engine on every core at once.
#[test]
fn refinement_engines_agree_bit_for_bit_on_clip_suite() {
    use maskfrac::fracture::approximate_fracture;
    use maskfrac::fracture::refine::refine;

    // Bounded iterations keep the suite fast; parity must hold at any cut
    // point, so a tighter budget loses no coverage.
    let base = FractureConfig {
        max_iterations: 160,
        reduction_sweep: false,
        ..FractureConfig::default()
    };
    let fracturer = ModelBasedFracturer::new(base.clone());
    for clip in maskfrac::shapes::ilt_suite() {
        let cls = fracturer.classify(&clip.polygon);
        let approx = approximate_fracture(
            &clip.polygon,
            &cls,
            fracturer.model(),
            &base,
            fracturer.lth(),
        );
        let run = |incremental: bool| {
            let cfg = FractureConfig {
                incremental_refine: incremental,
                // The fast-tier knobs at their defaults are part of the
                // parity contract: coarse-to-fine off and exact scoring
                // must take exactly the legacy code path.
                coarse_factor: 1,
                relaxed_scoring: false,
                ..base.clone()
            };
            refine(&cls, fracturer.model(), &cfg, approx.shots.clone())
        };
        let reference = run(false);
        let what = format!("{}: incremental alone", clip.id);
        assert_same_outcome(&run(true), &reference, &what);
        let what = format!("{}: incremental saturated", clip.id);
        for out in on_every_core(|| run(true)) {
            assert_same_outcome(&out, &reference, &what);
        }
    }
}

/// The non-exact evaluation tiers (relaxed lattice scoring, coarse-to-fine
/// at 2× and 4×) give up byte-parity but not quality: on every clip they
/// must leave no more failing pixels than the exact engine does from the
/// same starting solution (the engine's exact-path fallback enforces
/// this — see `fracture::refine`), and each tier must be deterministic
/// whether its passes score on the spare core or serially.
#[test]
fn fast_tiers_track_exact_quality_on_clip_suite() {
    use maskfrac::fracture::approximate_fracture;
    use maskfrac::fracture::refine::refine;

    let base = FractureConfig {
        max_iterations: 160,
        reduction_sweep: false,
        ..FractureConfig::default()
    };
    let fracturer = ModelBasedFracturer::new(base.clone());
    for clip in maskfrac::shapes::ilt_suite() {
        let cls = fracturer.classify(&clip.polygon);
        let approx = approximate_fracture(
            &clip.polygon,
            &cls,
            fracturer.model(),
            &base,
            fracturer.lth(),
        );
        let exact = refine(&cls, fracturer.model(), &base, approx.shots.clone());
        for (coarse_factor, relaxed_scoring) in [(1usize, true), (2, false), (4, false)] {
            let cfg = FractureConfig {
                coarse_factor,
                relaxed_scoring,
                ..base.clone()
            };
            let run = || refine(&cls, fracturer.model(), &cfg, approx.shots.clone());
            let out = run();
            assert!(
                out.summary.fail_count() <= exact.summary.fail_count(),
                "{}: tier (coarse={coarse_factor}, relaxed={relaxed_scoring}) left {} \
                 failing pixels, exact engine leaves {}",
                clip.id,
                out.summary.fail_count(),
                exact.summary.fail_count()
            );
            for again in on_every_core(run) {
                let what = format!(
                    "{}: tier (coarse={coarse_factor}, relaxed={relaxed_scoring}) saturated",
                    clip.id
                );
                assert_same_outcome(&again, &out, &what);
            }
        }
    }
}

#[test]
fn classification_frames_cover_model_support() {
    // The frame margin used by the pipeline must cover 3 sigma, or Poff
    // constraints would silently vanish at the frame edge.
    let cfg = FractureConfig::default();
    let model = cfg.model();
    let target = Polygon::from_rect(Rect::new(0, 0, 30, 30).expect("rect"));
    let fracturer = ModelBasedFracturer::new(cfg.clone());
    let cls = fracturer.classify(&target);
    let margin_x = -cls.frame().origin().x;
    assert!(margin_x as f64 >= model.support_radius());
    // And the frame is anchored consistently with pixel mapping.
    let f: Frame = cls.frame();
    assert_eq!(
        f.pixel_of(0.5, 0.5).map(|(ix, iy)| f.pixel_center(ix, iy)),
        Some((0.5, 0.5))
    );
}
