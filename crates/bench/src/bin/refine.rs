//! Refinement-engine benchmark: wall clock of §4 shot refinement under
//! the full-rescan reference path, the incremental dirty-window engine,
//! and the fast non-exact tiers (relaxed lattice scoring, coarse-to-fine
//! at 2× and 4×), on a fixed clip subset. Mode names keep the `-t1`
//! suffix the committed baseline is keyed on.
//!
//! Every mode starts from the same approximate solution. The *exact*
//! modes must produce the identical shot list (the engines are
//! byte-equivalent by construction; this harness asserts it end to end).
//! The relaxed/coarse modes trade that byte-parity guarantee for speed:
//! for them the harness asserts only that refinement still converges to a
//! zero-fail solution on the smoke clips. Only refinement is timed —
//! classification and the approximate stage are shared setup, and the
//! post-feasibility reduction sweep is disabled so the measurement
//! isolates Algorithm 1.
//!
//! Run with `cargo run -p maskfrac-bench --release --bin refine`
//! (`--full` benchmarks all ten clips instead of the smoke subset).
//! Honours `--trace` and `--metrics-out <path>`, and always writes the
//! machine-readable run report `results/BENCH_refine.json` (see
//! `docs/observability.md` and `docs/benchmarks.md`). CI's perf-smoke job
//! compares the shot counts of the exact modes in that report against the
//! committed baseline.

use maskfrac_bench::{apply_obs_flags, finish_run_report, save_json};
use maskfrac_fracture::refine::refine;
use maskfrac_fracture::{approximate_fracture, FractureConfig, ModelBasedFracturer};
use maskfrac_geom::Rect;
use maskfrac_obs::ShapeRecord;

const SMOKE_CLIPS: [&str; 3] = ["Clip-1", "Clip-5", "Clip-10"];

/// One (clip, mode) measurement.
#[derive(Debug)]
struct RefineRow {
    clip: String,
    mode: &'static str,
    shots: usize,
    fail_pixels: usize,
    refine_s: f64,
    iterations: usize,
}

maskfrac_obs::impl_to_json!(RefineRow { clip, mode, shots, fail_pixels, refine_s, iterations });

struct Mode {
    name: &'static str,
    incremental: bool,
    /// Coarse-to-fine factor (1 = single-tier).
    coarse: usize,
    /// Lattice-profile + multi-accumulator scoring.
    relaxed: bool,
    /// Exact modes share the byte-parity contract; relaxed/coarse modes
    /// only promise a feasible result.
    exact: bool,
}

const MODES: [Mode; 5] = [
    Mode { name: "full-rescan", incremental: false, coarse: 1, relaxed: false, exact: true },
    Mode { name: "incremental-t1", incremental: true, coarse: 1, relaxed: false, exact: true },
    Mode { name: "relaxed-t1", incremental: true, coarse: 1, relaxed: true, exact: false },
    Mode { name: "coarse2-t1", incremental: true, coarse: 2, relaxed: false, exact: false },
    Mode { name: "coarse4-t1", incremental: true, coarse: 4, relaxed: false, exact: false },
];

/// FNV-1a hash of the benchmarked clips' ids and vertex coordinates,
/// published in the run report as the `refine.bench.suite_fingerprint`
/// counter. Shot counts are only comparable between runs that fractured
/// the same geometry; CI's drift check keys on this to avoid flagging a
/// baseline produced from a different clip-suite build as a regression.
fn suite_fingerprint(clips: &[&maskfrac_shapes::SuiteClip]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for clip in clips {
        eat(clip.id.as_bytes());
        for p in clip.polygon.vertices() {
            eat(&p.x.to_le_bytes());
            eat(&p.y.to_le_bytes());
        }
    }
    h
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let started = std::time::Instant::now();
    let obs = apply_obs_flags(&args);
    let full = args.iter().any(|a| a == "--full");

    let base = FractureConfig {
        reduction_sweep: false,
        ..FractureConfig::default()
    };
    let fracturer = ModelBasedFracturer::new(base.clone());
    let clips = maskfrac_shapes::ilt_suite();
    let selected: Vec<_> = clips
        .iter()
        .filter(|c| full || SMOKE_CLIPS.contains(&c.id.as_str()))
        .collect();

    let fingerprint = suite_fingerprint(&selected);
    maskfrac_obs::counter!("refine.bench.suite_fingerprint").add(fingerprint);
    println!(
        "== Refinement engine benchmark over {} clips (suite fingerprint {fingerprint:#018x}) ==",
        selected.len()
    );
    let mut rows: Vec<RefineRow> = Vec::new();
    let mut shapes: Vec<ShapeRecord> = Vec::new();
    let mut totals = [0.0f64; MODES.len()];

    for clip in &selected {
        // Shared setup: one classification + approximate solution per clip.
        let cls = fracturer.classify(&clip.polygon);
        let approx = approximate_fracture(
            &clip.polygon,
            &cls,
            fracturer.model(),
            &base,
            fracturer.lth(),
        );
        let mut reference: Option<Vec<Rect>> = None;
        let mut reference_fails = 0usize;
        for (mi, mode) in MODES.iter().enumerate() {
            let cfg = FractureConfig {
                incremental_refine: mode.incremental,
                coarse_factor: mode.coarse,
                relaxed_scoring: mode.relaxed,
                ..base.clone()
            };
            let t0 = std::time::Instant::now();
            let out = refine(&cls, fracturer.model(), &cfg, approx.shots.clone());
            let dt = t0.elapsed().as_secs_f64();
            totals[mi] += dt;
            if mode.exact {
                // Byte-parity contract: every exact mode reproduces the
                // first exact mode's shot list exactly.
                match &reference {
                    None => {
                        reference = Some(out.shots.clone());
                        reference_fails = out.summary.fail_count();
                    }
                    Some(want) => assert_eq!(
                        &out.shots, want,
                        "{}: {} diverged from the reference shot list",
                        clip.id, mode.name
                    ),
                }
            } else {
                // Non-exact tiers: no parity promise, but quality must
                // track the exact reference — a clip the exact engine
                // solves must stay solved, and an infeasible residue must
                // not balloon (CI would otherwise ship a fast mode that
                // silently degrades quality).
                assert!(
                    out.summary.fail_count() <= reference_fails,
                    "{}: {} left {} failing pixels (exact reference: {})",
                    clip.id,
                    mode.name,
                    out.summary.fail_count(),
                    reference_fails
                );
            }
            println!(
                "{:>8}  {:<14}  {:>4} shots  {:>3} fails  {:>8.3}s  {:>4} iters",
                clip.id,
                mode.name,
                out.shots.len(),
                out.summary.fail_count(),
                dt,
                out.iterations
            );
            rows.push(RefineRow {
                clip: clip.id.clone(),
                mode: mode.name,
                shots: out.shots.len(),
                fail_pixels: out.summary.fail_count(),
                refine_s: dt,
                iterations: out.iterations,
            });
            shapes.push(ShapeRecord {
                id: clip.id.clone(),
                status: if out.summary.is_feasible() { "ok" } else { "degraded" }.to_owned(),
                method: mode.name.to_owned(),
                shots: out.shots.len(),
                fail_pixels: out.summary.fail_count(),
                runtime_s: dt,
                attempts: 1,
                iterations: out.iterations,
                on_fail_pixels: out.summary.on_fails,
                off_fail_pixels: out.summary.off_fails,
                ..ShapeRecord::default()
            });
        }
    }

    println!("\ntotals:");
    for (mi, mode) in MODES.iter().enumerate() {
        let speedup = totals[0] / totals[mi].max(1e-12);
        println!(
            "  {:<14} {:>8.3}s  ({speedup:.2}x vs {})",
            mode.name, totals[mi], MODES[0].name
        );
    }

    println!("engine counters:");
    for name in [
        "refine.candidates.scored",
        "refine.candidates.skipped",
        "refine.dirty.requeues",
        "refine.spare_core.passes",
        "refine.spare_core.denied",
        "fracture.refine.iterations",
        "fracture.refine.coarse_iterations",
        "fracture.refine.polish_iterations",
        "ebeam.lut.lattice_builds",
    ] {
        println!("  {name} = {}", maskfrac_obs::counter(name).get());
    }

    save_json("refine_bench.json", &rows);
    finish_run_report("refine", started, &obs, shapes);
}
