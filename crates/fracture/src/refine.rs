//! Iterative shot refinement (paper §4, Algorithm 1).
//!
//! Takes the approximate fracturing solution and repairs its CD violations
//! while holding the shot count down, by repeating, for up to `Nmax`
//! iterations:
//!
//! * **greedy shot edge adjustment** — every shot edge proposes ±1 nm
//!   moves, scored by the change in `cost_ref` (Eq. 5); improving moves
//!   are accepted best-first with a `2σ` blocking radius so accepted moves
//!   cannot interact (which would both invalidate the scores and cause the
//!   cycling the paper warns about);
//! * **bias all shots** — when no single edge improves, every shot is
//!   uniformly grown (too many under-exposed pixels) or shrunk (too many
//!   over-exposed) one pixel to escape the local minimum;
//! * **add / remove / merge shots** — when the cost has not improved for
//!   `NH` iterations: one shot is added over the largest cluster of failing
//!   `Pon` pixels, or the shot blamed for the most failing `Poff` pixels is
//!   removed, after which aligned or redundant shots are merged.
//!
//! The best solution (fewest failing pixels) seen across all iterations is
//! returned.
//!
//! # Evaluation tiers and coarse-to-fine refinement
//!
//! Refinement runs on one of two scoring tiers (see `maskfrac_ebeam`'s
//! `intensity` module for the full tier table):
//!
//! * **Exact (default)** — interpolated-LUT edge profiles and the
//!   chunked scorer. Runs are byte-identical whether a pass scores on a
//!   spare core or serially, and across the incremental/full-rescan
//!   engines; this is the tier every parity gate pins.
//! * **Relaxed** ([`FractureConfig::relaxed_scoring`]) — integer-lattice
//!   edge profiles and the multi-accumulator scorer
//!   (`cost_delta_for_strip_relaxed`). Still deterministic for fixed
//!   inputs (any thread count), but not bit-identical to the exact tier;
//!   excluded from byte-parity gates.
//!
//! When [`FractureConfig::coarse_factor`] ` = k > 1`, refinement runs
//! **coarse-to-fine**: the classification is block-reduced onto the `k`-nm
//! lattice ([`Classification::coarsen`]), σ and γ scale by `1/k`, and a
//! full refinement converges there on the relaxed tier at `1/k²` the pixel
//! work per window. The coarse shots are then scaled back up (`×k`) and
//! polished at Δp = 1 nm on the caller's tier, which repairs the ≤ `k` nm
//! quantization the coarse lattice introduced. `coarse_factor = 1` (the
//! default) bypasses all of this: the legacy single-tier path runs
//! unchanged and stays byte-identical to previous releases.

use crate::config::FractureConfig;
use crate::scratch::FractureScratch;
use crate::spare_core::{self, Busy};
use maskfrac_ebeam::violations::{
    cost_delta_for_strip, cost_delta_for_strip_relaxed, evaluate, fail_bitmaps, ViolationTracker,
};
use maskfrac_ebeam::{Classification, ExposureModel, FailureSummary, IntensityMap};
use maskfrac_geom::rect::Edge;
use maskfrac_geom::{label_components, Rect};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Seeds the intensity map with the initial shot list through the
/// configured [`FractureConfig::intensity_backend`].
///
/// The separable backend adds the shots one at a time
/// ([`IntensityMap::rebuild`]), while the FFT backend synthesizes the
/// whole frame in one convolution and carries the relaxed exactness
/// contract (see [`crate::IntensityBackend`]).
fn seed_map(map: &mut IntensityMap, shots: &[Rect], cfg: &FractureConfig) {
    match cfg.intensity_backend {
        crate::IntensityBackend::Fft => map.rebuild_fft(shots),
        crate::IntensityBackend::Separable => map.rebuild(shots),
    }
}

/// Per-iteration trace record (used by the figure/ablation harness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// `cost_ref` at the start of the iteration.
    pub cost: f64,
    /// Failing-pixel count at the start of the iteration.
    pub fails: usize,
    /// Shot count at the start of the iteration.
    pub shots: usize,
}

/// Result of shot refinement.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// The refined shot list (best encountered by failing-pixel count).
    pub shots: Vec<Rect>,
    /// Violation summary of `shots`.
    pub summary: FailureSummary,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Per-iteration trace.
    pub history: Vec<IterationRecord>,
    /// Whether a wall-clock deadline cut the run short; `shots` is the
    /// best solution seen before expiry.
    pub deadline_hit: bool,
}

/// Runs Algorithm 1 on an initial shot list.
///
/// `cls` must have been built for the same target and with a margin of at
/// least the model's support radius. A deadline configured via
/// [`FractureConfig::deadline`] is measured from this call.
pub fn refine(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    initial: Vec<Rect>,
) -> RefineOutcome {
    let deadline = cfg.deadline.map(|d| std::time::Instant::now() + d);
    refine_until(cls, model, cfg, initial, deadline)
}

/// [`refine`] against an absolute deadline (already-started clock), used
/// by the pipeline so validation and the approximate stage count against
/// the same budget.
pub fn refine_until(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    initial: Vec<Rect>,
    deadline: Option<std::time::Instant>,
) -> RefineOutcome {
    refine_until_with(cls, model, cfg, initial, deadline, &mut FractureScratch::new())
}

/// [`refine_until`] with an explicit [`FractureScratch`] arena: the
/// intensity grid and the engine's candidate cache are recycled from (and
/// handed back to) `scratch`, so repeated calls on one worker thread
/// allocate nothing in steady state.
///
/// With [`FractureConfig::coarse_factor`] ` > 1` this dispatches to the
/// coarse-to-fine schedule (see the module docs); at the default `1` it is
/// exactly the legacy single-tier refinement.
pub fn refine_until_with(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    initial: Vec<Rect>,
    deadline: Option<std::time::Instant>,
    scratch: &mut FractureScratch,
) -> RefineOutcome {
    if cfg.coarse_factor > 1 {
        coarse_to_fine(cls, model, cfg, initial, deadline, scratch)
    } else if cfg.relaxed_scoring {
        relaxed_with_fallback(cls, model, cfg, initial, deadline, scratch)
    } else if cfg.intensity_backend == crate::IntensityBackend::Fft {
        fft_with_fallback(cls, model, cfg, initial, deadline, scratch)
    } else {
        refine_core(cls, model, cfg, initial, deadline, scratch)
    }
}

/// Merges a fast-tier outcome with its exact-path fallback run: the
/// better solution wins (fewer failing pixels, then fewer shots), and the
/// iteration count / deadline flag account for both runs.
fn merge_fallback(mut out: RefineOutcome, fallback: RefineOutcome) -> RefineOutcome {
    let rank = |o: &RefineOutcome| (o.summary.fail_count(), o.shots.len());
    let iterations = out.iterations + fallback.iterations;
    let deadline_hit = out.deadline_hit | fallback.deadline_hit;
    if rank(&fallback) <= rank(&out) {
        out = fallback;
    }
    out.iterations = iterations;
    out.deadline_hit = deadline_hit;
    out
}

/// Single-tier refinement with [`FractureConfig::relaxed_scoring`], plus
/// the same safety net as the coarse-to-fine schedule: if the relaxed
/// trajectory ends infeasible, the seed is re-refined with exact scoring
/// and the better solution is returned. Relaxed scoring therefore never
/// ships worse quality than the exact scorer — it only risks its speedup
/// on the frames that need the fallback.
fn relaxed_with_fallback(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    initial: Vec<Rect>,
    deadline: Option<std::time::Instant>,
    scratch: &mut FractureScratch,
) -> RefineOutcome {
    let out = refine_core(cls, model, cfg, initial.clone(), deadline, scratch);
    if out.summary.fail_count() == 0 || out.deadline_hit {
        return out;
    }
    maskfrac_obs::counter!("fracture.refine.fallback_runs").incr();
    let exact_cfg = FractureConfig {
        relaxed_scoring: false,
        intensity_backend: crate::IntensityBackend::Separable,
        ..cfg.clone()
    };
    let fallback = refine_core(cls, model, &exact_cfg, initial, deadline, scratch);
    merge_fallback(out, fallback)
}

/// Single-tier refinement seeded through the FFT intensity backend, with
/// the relaxed tiers' safety net: if the FFT-seeded trajectory ends
/// infeasible, the seed is re-refined from the exact separable seed and
/// the better solution is returned. The FFT backend therefore never
/// ships worse quality than the separable path — it only risks its
/// speedup on the frames that need the fallback.
fn fft_with_fallback(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    initial: Vec<Rect>,
    deadline: Option<std::time::Instant>,
    scratch: &mut FractureScratch,
) -> RefineOutcome {
    let out = refine_core(cls, model, cfg, initial.clone(), deadline, scratch);
    if out.summary.fail_count() == 0 || out.deadline_hit {
        return out;
    }
    maskfrac_obs::counter!("fracture.refine.fallback_runs").incr();
    let exact_cfg = FractureConfig {
        intensity_backend: crate::IntensityBackend::Separable,
        ..cfg.clone()
    };
    let fallback = refine_core(cls, model, &exact_cfg, initial, deadline, scratch);
    merge_fallback(out, fallback)
}

/// Scales a fine-lattice shot down to the `k`-nm coarse lattice:
/// outward-rounded (floor the low edges, ceil the high ones) so target
/// coverage is preserved. `None` only for rects too degenerate to scale.
fn scale_down_rect(s: &Rect, k: i64) -> Option<Rect> {
    let ceil_div = |a: i64| a.div_euclid(k) + i64::from(a.rem_euclid(k) != 0);
    Rect::new(
        s.x0().div_euclid(k),
        s.y0().div_euclid(k),
        ceil_div(s.x1()).max(s.x0().div_euclid(k) + 1),
        ceil_div(s.y1()).max(s.y0().div_euclid(k) + 1),
    )
}

/// The coarse-to-fine schedule: converge on the `k×`-coarser lattice with
/// relaxed scoring, scale the result back up, polish at Δp = 1 nm. If the
/// polished result is still infeasible the original seed is re-polished
/// single-tier and the better of the two solutions is returned, so this
/// schedule never degrades quality relative to `coarse_factor = 1`.
///
/// Iterations are summed across the phases and a deadline hit in any
/// marks the outcome; the returned history is the fine phase's (the
/// coarse history describes a different lattice and would not splice).
fn coarse_to_fine(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    initial: Vec<Rect>,
    deadline: Option<std::time::Instant>,
    scratch: &mut FractureScratch,
) -> RefineOutcome {
    let k = cfg.coarse_factor as i64;
    let coarse = {
        let _span = maskfrac_obs::span("fracture.refine.coarse");
        let coarse_cls = cls.coarsen(cfg.coarse_factor);
        let coarse_model = ExposureModel::new(model.sigma() / k as f64, model.rho());
        let coarse_cfg = FractureConfig {
            coarse_factor: 1,
            sigma: cfg.sigma / k as f64,
            gamma: cfg.gamma / k as f64,
            min_shot_size: cfg.min_shot_size.div_euclid(k).max(1),
            // Coarse results are quantized anyway; take the cheap scorer.
            relaxed_scoring: true,
            ..cfg.clone()
        };
        let coarse_shots = initial.iter().filter_map(|s| scale_down_rect(s, k)).collect();
        refine_core(&coarse_cls, &coarse_model, &coarse_cfg, coarse_shots, deadline, scratch)
    };
    maskfrac_obs::counter!("fracture.refine.coarse_iterations").add(coarse.iterations as u64);
    let seed: Vec<Rect> = coarse
        .shots
        .iter()
        .filter_map(|s| Rect::new(s.x0() * k, s.y0() * k, s.x1() * k, s.y1() * k))
        .collect();
    let fine_cfg = FractureConfig {
        coarse_factor: 1,
        ..cfg.clone()
    };
    let mut out = {
        let _span = maskfrac_obs::span("fracture.refine.polish");
        refine_core(cls, model, &fine_cfg, seed, deadline, scratch)
    };
    maskfrac_obs::counter!("fracture.refine.polish_iterations").add(out.iterations as u64);
    out.iterations += coarse.iterations;
    out.deadline_hit |= coarse.deadline_hit;
    // Safety net: a coarse seed can land the polish in a worse basin than
    // the original shots would have reached. If the polished result is
    // infeasible, re-polish from the original seed (exactly the
    // single-tier path) and keep the better solution, so coarse-to-fine
    // never ships worse quality than `coarse_factor = 1` — it only risks
    // its speedup on the frames that need the fallback.
    if out.summary.fail_count() > 0 && !out.deadline_hit {
        maskfrac_obs::counter!("fracture.refine.fallback_runs").incr();
        let fallback_cfg = FractureConfig {
            intensity_backend: crate::IntensityBackend::Separable,
            ..fine_cfg
        };
        let fallback = refine_core(cls, model, &fallback_cfg, initial, deadline, scratch);
        out = merge_fallback(out, fallback);
    }
    out
}

/// The single-tier refinement loop (legacy body of [`refine_until_with`]).
fn refine_core(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    initial: Vec<Rect>,
    deadline: Option<std::time::Instant>,
    scratch: &mut FractureScratch,
) -> RefineOutcome {
    let _span = maskfrac_obs::span("fracture.refine");
    let _busy = Busy::enter();
    let mut shots = initial;
    let mut map = IntensityMap::with_values(
        model.clone(),
        cls.frame(),
        scratch.take_map_values(cls.frame().len()),
    );
    if cfg.relaxed_scoring {
        map.enable_lattice_profiles();
    }
    seed_map(&mut map, &shots, cfg);
    // Incremental state: the tracker carries the failure summary forward
    // per strip (no per-iteration frame scan), the engine carries scored
    // candidates forward per shot (no per-pass full re-score).
    let mut tracker = ViolationTracker::with_live_buffer(cls, &map, scratch.take_live_mask());
    let mut engine =
        GreedyEngine::from_scratch(cfg, shots.len(), std::mem::take(&mut scratch.engine));

    let mut best_shots = shots.clone();
    let mut best_summary = tracker.summary();
    let mut history = Vec::new();

    let mut stall_best_cost = f64::INFINITY;
    let mut since_improve = 0usize;
    let mut iterations = 0usize;
    // Plateau-restart accounting for early stop.
    let mut restarts_without_progress = 0usize;
    let mut best_fails_at_last_restart = usize::MAX;
    let mut best_cost_at_last_restart = f64::INFINITY;
    let mut deadline_hit = false;

    while iterations < cfg.max_iterations {
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            deadline_hit = true;
            break;
        }
        let summary = tracker.summary();
        history.push(IterationRecord {
            cost: summary.cost,
            fails: summary.fail_count(),
            shots: shots.len(),
        });
        // Track the best solution by |Pfail|, tie-broken by shot count
        // then cost.
        if (summary.fail_count(), shots.len())
            < (best_summary.fail_count(), best_shots.len())
            || (summary.fail_count() == best_summary.fail_count()
                && shots.len() == best_shots.len()
                && summary.cost < best_summary.cost)
        {
            best_shots = shots.clone();
            best_summary = summary;
        }
        if summary.fail_count() == 0 {
            break;
        }

        if summary.cost < stall_best_cost - 1e-6 {
            stall_best_cost = summary.cost;
            since_improve = 0;
        } else {
            since_improve += 1;
        }

        if since_improve >= cfg.stall_window {
            // Progress since the previous restart means either a better
            // best solution or a new global cost minimum (a genuine slow
            // descent must not be mistaken for a limit cycle).
            let progressed = best_summary.fail_count() < best_fails_at_last_restart
                || stall_best_cost < best_cost_at_last_restart - 1e-6;
            best_fails_at_last_restart = best_fails_at_last_restart.min(best_summary.fail_count());
            best_cost_at_last_restart = best_cost_at_last_restart.min(stall_best_cost);
            if progressed {
                restarts_without_progress = 0;
            } else {
                restarts_without_progress += 1;
                if restarts_without_progress >= cfg.max_plateau_restarts {
                    break; // cycling on an infeasible residue
                }
            }
            if summary.on_fails > summary.off_fails {
                add_shot(cls, &mut map, &mut shots, cfg);
            } else {
                remove_shot(cls, &mut map, &mut shots);
            }
            merge_shots(cls, &mut map, &mut shots, cfg);
            // Structural moves mutate the map outside the tracker and
            // shuffle shot indices: bring both back in sync. These fire
            // at most once per stall window, so the full re-scan here is
            // off the hot path.
            tracker.resync(cls, &map);
            engine.reset(shots.len());
            // Give the jolt a fresh stall window, but keep the historical
            // best cost as the improvement reference: resetting it would
            // let a bias-induced limit cycle (cost rises, then descends
            // back to the same floor) masquerade as progress forever and
            // starve the plateau break above.
            since_improve = 0;
        } else {
            // Fine ±1 nm moves first; if none improves, coarser ±2 nm
            // strides can step over flat spots; bias is the last resort.
            let moved = engine.pass(cls, &mut map, &mut tracker, &mut shots, cfg, 1)
                || engine.pass(cls, &mut map, &mut tracker, &mut shots, cfg, 2);
            if !moved {
                bias_all_shots(cls, &mut map, &mut tracker, &mut shots, cfg, &summary);
                engine.invalidate_all();
            }
        }
        iterations += 1;
    }

    // Final check of the last state (the loop records at iteration start).
    let final_summary = evaluate(cls, &map);
    if (final_summary.fail_count(), shots.len())
        < (best_summary.fail_count(), best_shots.len())
    {
        best_shots = shots;
        best_summary = final_summary;
    }

    // Hand the arena its buffers back for the next shape on this worker.
    scratch.engine = engine.into_scratch();
    scratch.put_live_mask(tracker.into_live_buffer());
    scratch.put_map_values(map.into_values());

    maskfrac_obs::counter!("fracture.refine.iterations").add(iterations as u64);
    if deadline_hit {
        maskfrac_obs::counter!("fracture.refine.deadline_hits").incr();
    }
    RefineOutcome {
        shots: best_shots,
        summary: best_summary,
        iterations,
        history,
        deadline_hit,
    }
}

/// Edge-only polish: greedy shot-edge adjustment plus biasing, with no
/// shot addition, removal or merging — the shot count is preserved.
///
/// Used by the cover-style baselines as their "simulation driven" cleanup
/// stage: it repairs boundary violations without granting them the paper's
/// full Algorithm 1.
pub fn polish_edges(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    initial: Vec<Rect>,
    max_iterations: usize,
) -> RefineOutcome {
    let _busy = Busy::enter();
    let mut shots = initial;
    let mut map = IntensityMap::new(model.clone(), cls.frame());
    if cfg.relaxed_scoring {
        map.enable_lattice_profiles();
    }
    for s in &shots {
        map.add_shot(s);
    }
    let mut tracker = ViolationTracker::new(cls, &map);
    let mut engine = GreedyEngine::new(cfg, shots.len());
    let mut best_shots = shots.clone();
    let mut best_summary = tracker.summary();
    let mut iterations = 0usize;
    let mut history = Vec::new();
    let mut bias_budget = 6usize; // bias can ping-pong; bound it
    let deadline = cfg.deadline.map(|d| std::time::Instant::now() + d);
    let mut deadline_hit = false;

    while iterations < max_iterations {
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            deadline_hit = true;
            break;
        }
        let summary = tracker.summary();
        history.push(IterationRecord {
            cost: summary.cost,
            fails: summary.fail_count(),
            shots: shots.len(),
        });
        if summary.fail_count() < best_summary.fail_count() {
            best_shots = shots.clone();
            best_summary = summary;
        }
        if summary.fail_count() == 0 {
            break;
        }
        let moved = engine.pass(cls, &mut map, &mut tracker, &mut shots, cfg, 1)
            || engine.pass(cls, &mut map, &mut tracker, &mut shots, cfg, 2);
        if !moved {
            if bias_budget == 0 {
                break;
            }
            bias_budget -= 1;
            bias_all_shots(cls, &mut map, &mut tracker, &mut shots, cfg, &summary);
            engine.invalidate_all();
        }
        iterations += 1;
    }
    let final_summary = evaluate(cls, &map);
    if final_summary.fail_count() < best_summary.fail_count() {
        best_shots = shots;
        best_summary = final_summary;
    }
    RefineOutcome {
        shots: best_shots,
        summary: best_summary,
        iterations,
        history,
        deadline_hit,
    }
}

/// Post-feasibility shot-count reduction sweep.
///
/// An extension beyond the paper's Algorithm 1 (which only merges shots):
/// tentatively remove one shot and re-run a *bounded* refinement; keep the
/// removal when a feasible solution with strictly fewer shots results.
/// Candidates are screened by the cost of their removal (cheap-to-lose
/// shots first) and at most `SWEEP_CANDIDATES` are attempted per sweep, so
/// the pass stays a small multiple of one refinement run.
///
/// Infeasible inputs are returned unchanged — reduction only makes sense
/// from a feasible solution.
pub fn reduce_shots(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    shots: Vec<Rect>,
) -> RefineOutcome {
    let deadline = cfg.deadline.map(|d| std::time::Instant::now() + d);
    reduce_shots_until(cls, model, cfg, shots, deadline)
}

/// [`reduce_shots`] against an absolute deadline; the sweep stops between
/// candidate removals once the deadline passes.
pub fn reduce_shots_until(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    shots: Vec<Rect>,
    deadline: Option<std::time::Instant>,
) -> RefineOutcome {
    reduce_shots_until_with(cls, model, cfg, shots, deadline, &mut FractureScratch::new())
}

/// [`reduce_shots_until`] with an explicit [`FractureScratch`] arena (see
/// [`refine_until_with`]): the screening map and every bounded refinement
/// run inside the sweep recycle the same buffers.
pub fn reduce_shots_until_with(
    cls: &Classification,
    model: &ExposureModel,
    cfg: &FractureConfig,
    shots: Vec<Rect>,
    deadline: Option<std::time::Instant>,
    scratch: &mut FractureScratch,
) -> RefineOutcome {
    let _span = maskfrac_obs::span("fracture.reduce");
    const SWEEP_CANDIDATES: usize = 6;
    let budget_cfg = FractureConfig {
        max_iterations: 120,
        max_plateau_restarts: 2,
        deadline: None, // the absolute deadline below governs
        ..cfg.clone()
    };

    fn summarize(
        cls: &Classification,
        model: &ExposureModel,
        shots: &[Rect],
        scratch: &mut FractureScratch,
    ) -> FailureSummary {
        let mut map = IntensityMap::with_values(
            model.clone(),
            cls.frame(),
            scratch.take_map_values(cls.frame().len()),
        );
        for s in shots {
            map.add_shot(s);
        }
        let summary = evaluate(cls, &map);
        scratch.put_map_values(map.into_values());
        summary
    }

    let mut current = shots;
    let mut summary = summarize(cls, model, &current, scratch);
    let mut total_iterations = 0usize;
    let mut deadline_hit = false;
    if !summary.is_feasible() {
        return RefineOutcome {
            shots: current,
            summary,
            iterations: 0,
            history: Vec::new(),
            deadline_hit: false,
        };
    }

    loop {
        if current.len() <= 1 {
            break;
        }
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            deadline_hit = true;
            break;
        }
        // Screen: cost incurred by removing each shot from the current map.
        let mut map = IntensityMap::with_values(
            model.clone(),
            cls.frame(),
            scratch.take_map_values(cls.frame().len()),
        );
        for s in &current {
            map.add_shot(s);
        }
        let mut scored: Vec<(f64, usize)> = current
            .iter()
            .enumerate()
            .map(|(i, s)| (strip_delta(cls, &map, s, -1.0, cfg), i))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        scratch.put_map_values(map.into_values());

        let mut improved = false;
        for &(_, i) in scored.iter().take(SWEEP_CANDIDATES) {
            let mut candidate = current.clone();
            candidate.remove(i);
            let outcome = refine_until_with(cls, model, &budget_cfg, candidate, deadline, scratch);
            total_iterations += outcome.iterations;
            if outcome.summary.is_feasible() && outcome.shots.len() < current.len() {
                current = outcome.shots;
                summary = outcome.summary;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }

    RefineOutcome {
        shots: current,
        summary,
        iterations: total_iterations,
        history: Vec::new(),
        deadline_hit,
    }
}

/// Strip scorer dispatch: the exact tier by default, the relaxed
/// lattice/multi-accumulator scorer when the config opted in (see the
/// module docs for the exactness contract of each).
#[inline]
fn strip_delta(
    cls: &Classification,
    map: &IntensityMap,
    strip: &Rect,
    sign: f64,
    cfg: &FractureConfig,
) -> f64 {
    if cfg.relaxed_scoring {
        cost_delta_for_strip_relaxed(cls, map, strip, sign)
    } else {
        cost_delta_for_strip(cls, map, strip, sign)
    }
}

/// The swept strip and intensity sign for moving `edge` of `shot` by
/// `delta` nm (nonzero). `sign = +1` means the strip's intensity is added
/// (the shot grew), `−1` that it is removed (the shot shrank).
fn strip_for(shot: &Rect, edge: Edge, delta: i64) -> Option<(Rect, f64)> {
    debug_assert!(delta != 0);
    let d = delta.abs();
    let (strip, sign) = match (edge, delta > 0) {
        (Edge::Left, false) => (Rect::new(shot.x0() - d, shot.y0(), shot.x0(), shot.y1()), 1.0),
        (Edge::Left, true) => (Rect::new(shot.x0(), shot.y0(), shot.x0() + d, shot.y1()), -1.0),
        (Edge::Right, true) => (Rect::new(shot.x1(), shot.y0(), shot.x1() + d, shot.y1()), 1.0),
        (Edge::Right, false) => (Rect::new(shot.x1() - d, shot.y0(), shot.x1(), shot.y1()), -1.0),
        (Edge::Bottom, false) => (Rect::new(shot.x0(), shot.y0() - d, shot.x1(), shot.y0()), 1.0),
        (Edge::Bottom, true) => (Rect::new(shot.x0(), shot.y0(), shot.x1(), shot.y0() + d), -1.0),
        (Edge::Top, true) => (Rect::new(shot.x0(), shot.y1(), shot.x1(), shot.y1() + d), 1.0),
        (Edge::Top, false) => (Rect::new(shot.x0(), shot.y1() - d, shot.x1(), shot.y1()), -1.0),
    };
    strip.map(|s| (s, sign))
}

/// Euclidean distance between two closed rectangles (0 if they touch).
fn rect_distance(a: &Rect, b: &Rect) -> f64 {
    let dx = (a.x0() - b.x1()).max(b.x0() - a.x1()).max(0) as f64;
    let dy = (a.y0() - b.y1()).max(b.y0() - a.y1()).max(0) as f64;
    (dx * dx + dy * dy).sqrt()
}

/// One scored candidate move: shift `edge` by `delta`, sweeping `strip`
/// with intensity `sign`.
#[derive(Debug, Clone, Copy)]
struct ScoredMove {
    delta_cost: f64,
    edge: Edge,
    delta: i64,
    strip: Rect,
    sign: f64,
}

/// Tie-break rank of an edge, matching the [`Edge::ALL`] generation
/// order so the explicit sort key reproduces the legacy stable sort.
fn edge_rank(edge: Edge) -> u8 {
    match edge {
        Edge::Left => 0,
        Edge::Right => 1,
        Edge::Bottom => 2,
        Edge::Top => 3,
    }
}

/// Cached candidate moves of one shot, one slot per stride (±1, ±2 nm).
#[derive(Debug, Default, Clone)]
struct ShotCache {
    valid: [bool; 2],
    moves: [Vec<ScoredMove>; 2],
}

impl ShotCache {
    /// The slot of a stride: ±1 nm moves in slot 0, ±2 nm in slot 1.
    fn slot(stride: i64) -> usize {
        usize::from(stride > 1)
    }

    fn invalidate(&mut self) {
        self.valid = [false, false];
    }

    fn any_valid(&self) -> bool {
        self.valid[0] || self.valid[1]
    }
}

/// Recyclable spine of a [`GreedyEngine`]: the per-shot candidate cache
/// plus the per-pass work lists. Held by
/// [`FractureScratch`](crate::FractureScratch) between shapes so the
/// engine's dominant allocations (one `ShotCache` per shot, two
/// `Vec<ScoredMove>` slots each) amortize across a layout.
#[derive(Debug, Default)]
pub(crate) struct EngineScratch {
    cache: Vec<ShotCache>,
    todo: Vec<usize>,
    strips: Vec<(usize, ScoredMove)>,
    scores: Vec<AtomicU64>,
    candidates: Vec<(usize, usize)>,
}

/// Incremental greedy shot-edge adjustment (paper §4.1) with a
/// dirty-window candidate cache and strip-parallel scoring.
///
/// A candidate's score reads only map values inside its strip's support
/// window, and an accepted move changes only map values inside *its*
/// strip's support window — so a cached score stays exact until a move
/// lands within two support radii of the cached shot. The engine keeps
/// every shot's improving moves between passes, re-scores only shots in
/// that dirty neighborhood (on a second core when the spare-core gate
/// grants one, see [`crate::spare_core`]), and accepts best-first under
/// the paper's 2σ blocking rule. Acceptance order is made explicit —
/// stable by `(delta_cost, shot_index, edge, delta)` — so serial,
/// two-thread, and full-rescan runs produce byte-identical shot lists.
struct GreedyEngine {
    scratch: EngineScratch,
    incremental: bool,
}

impl GreedyEngine {
    fn new(cfg: &FractureConfig, shot_count: usize) -> Self {
        GreedyEngine::from_scratch(cfg, shot_count, EngineScratch::default())
    }

    /// Builds an engine on top of a recycled [`EngineScratch`] spine. The
    /// scratch contents are treated as garbage (everything is reset); only
    /// the allocations are reused.
    fn from_scratch(cfg: &FractureConfig, shot_count: usize, scratch: EngineScratch) -> Self {
        let mut engine = GreedyEngine {
            scratch,
            incremental: cfg.incremental_refine,
        };
        engine.reset(shot_count);
        engine
    }

    /// Tears the engine down to its reusable spine (see [`EngineScratch`]).
    fn into_scratch(self) -> EngineScratch {
        self.scratch
    }

    /// Drops every cached score and resizes to `shot_count` entries —
    /// required after any structural change (add/remove/merge), which
    /// both rewrites the map at scale and shuffles shot indices.
    ///
    /// Entries are reset in place rather than rebuilt so the per-shot
    /// `Vec<ScoredMove>` allocations survive: `moves` is cleared, not
    /// dropped, and the spine only grows.
    fn reset(&mut self, shot_count: usize) {
        let cache = &mut self.scratch.cache;
        if cache.len() > shot_count {
            cache.truncate(shot_count);
        }
        for entry in cache.iter_mut() {
            entry.invalidate();
            entry.moves[0].clear();
            entry.moves[1].clear();
        }
        cache.resize_with(shot_count, ShotCache::default);
    }

    /// Marks every cached score stale (e.g. after a whole-solution bias).
    fn invalidate_all(&mut self) {
        for entry in &mut self.scratch.cache {
            entry.invalidate();
        }
    }

    /// One greedy pass at the given stride. Returns whether any edge
    /// moved. Every accepted move is applied through `tracker`, keeping
    /// the map and the running failure summary in lockstep.
    fn pass(
        &mut self,
        cls: &Classification,
        map: &mut IntensityMap,
        tracker: &mut ViolationTracker,
        shots: &mut [Rect],
        cfg: &FractureConfig,
        stride: i64,
    ) -> bool {
        let sidx = ShotCache::slot(stride);
        if !self.incremental {
            self.invalidate_all();
        }
        if self.scratch.cache.len() != shots.len() {
            self.reset(shots.len());
        }

        self.list_strips(shots, cfg, stride);
        // A helper pays only when there are at least two strips to share;
        // the token is returned as soon as scoring ends.
        let spare = (self.scratch.strips.len() >= 2)
            .then(spare_core::take_spare)
            .flatten();
        self.score_strips(cls, map, tracker, cfg, spare.is_some());
        drop(spare);
        self.cache_scores(sidx);

        // Deterministic acceptance order over all cached improving moves.
        let cache = &self.scratch.cache;
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        candidates.clear();
        for (i, entry) in cache.iter().enumerate() {
            for k in 0..entry.moves[sidx].len() {
                candidates.push((i, k));
            }
        }
        candidates.sort_by(|&(ia, ka), &(ib, kb)| {
            let a = &cache[ia].moves[sidx][ka];
            let b = &cache[ib].moves[sidx][kb];
            a.delta_cost
                .total_cmp(&b.delta_cost)
                .then(ia.cmp(&ib))
                .then(edge_rank(a.edge).cmp(&edge_rank(b.edge)))
                .then(a.delta.cmp(&b.delta))
        });

        // Accept best-first; block any edge whose strip comes within 2σ
        // of an accepted strip (paper §4.1: avoids cycling and keeps the
        // pre-computed deltas valid, since intensity interactions vanish
        // beyond 2σ).
        let blocking = 2.0 * map.model().sigma();
        let mut accepted: Vec<Rect> = Vec::new();
        let mut mutated: Vec<usize> = Vec::new();
        for &(i, k) in &candidates {
            // Desync fix: once a shot has moved in this pass, its other
            // pending candidates carry strips computed from the pre-move
            // geometry, which may no longer be the region the edge would
            // sweep. Skip them; the shot lands in the dirty set and its
            // surviving moves are re-scored next pass.
            if mutated.contains(&i) {
                continue;
            }
            let m = cache[i].moves[sidx][k];
            if accepted.iter().any(|r| rect_distance(r, &m.strip) < blocking) {
                continue;
            }
            let shot = shots[i];
            let Some(moved) = shot.with_edge(m.edge, shot.edge(m.edge) + m.delta) else {
                continue;
            };
            shots[i] = moved;
            tracker.apply(cls, map, &m.strip, m.sign);
            accepted.push(m.strip);
            mutated.push(i);
        }
        self.scratch.candidates = candidates;

        // Dirty-window invalidation: a move changes intensities within
        // its strip's support window; a cached score reads within its
        // own. Two support radii (padded by the ±2 nm candidate reach)
        // therefore bound all interaction — everything farther keeps its
        // cache, which is what makes the pass incremental.
        if self.incremental && !accepted.is_empty() {
            let radius = 2.0 * map.model().support_radius() + 8.0;
            for (entry, shot) in self.scratch.cache.iter_mut().zip(shots.iter()) {
                if entry.any_valid() && accepted.iter().any(|r| rect_distance(r, shot) <= radius) {
                    maskfrac_obs::counter!("refine.dirty.requeues").incr();
                    entry.invalidate();
                }
            }
        }
        !accepted.is_empty()
    }

    /// Lists the candidate strips of every stale shot at `stride`: for
    /// each shot, each edge in [`Edge::ALL`] order, `-stride` then
    /// `+stride`, skipping moves below the minimum shot size. A shot
    /// outside every dirty window has bit-identical map values under its
    /// candidate strips, so its cached improving moves are still exact
    /// and it is not listed.
    fn list_strips(&mut self, shots: &[Rect], cfg: &FractureConfig, stride: i64) {
        let sidx = ShotCache::slot(stride);
        let EngineScratch {
            cache,
            todo,
            strips,
            ..
        } = &mut self.scratch;
        todo.clear();
        todo.extend((0..shots.len()).filter(|&i| !cache[i].valid[sidx]));
        maskfrac_obs::counter!("refine.candidates.skipped")
            .add(((shots.len() - todo.len()) * Edge::ALL.len() * 2) as u64);
        strips.clear();
        for &i in todo.iter() {
            let shot = &shots[i];
            for edge in Edge::ALL {
                for delta in [-stride, stride] {
                    let Some(moved) = shot.with_edge(edge, shot.edge(edge) + delta) else {
                        continue;
                    };
                    if moved.width() < cfg.min_shot_size || moved.height() < cfg.min_shot_size {
                        continue;
                    }
                    let Some((strip, sign)) = strip_for(shot, edge, delta) else {
                        continue;
                    };
                    let unscored = ScoredMove {
                        delta_cost: 0.0,
                        edge,
                        delta,
                        strip,
                        sign,
                    };
                    strips.push((i, unscored));
                }
            }
        }
        maskfrac_obs::counter!("refine.candidates.scored").add(strips.len() as u64);
    }

    /// Scores every listed strip against the frozen map, over the
    /// tracker's live pixels. Both threads (the caller, plus one scoped
    /// helper when `helper` is set) claim strips from one atomic counter
    /// and store each score in the strip's own slot, so the scores do not
    /// depend on which thread computed them.
    fn score_strips(
        &mut self,
        cls: &Classification,
        map: &IntensityMap,
        tracker: &ViolationTracker,
        cfg: &FractureConfig,
        helper: bool,
    ) {
        let EngineScratch { strips, scores, .. } = &mut self.scratch;
        if scores.len() < strips.len() {
            scores.resize_with(strips.len(), AtomicU64::default);
        }
        let (strips, scores) = (&strips[..], &scores[..strips.len()]);
        // `Relaxed` suffices for both atomics: the counter only hands out
        // indices, and the scope's join orders every score store before
        // `cache_scores` reads it.
        let next = AtomicUsize::new(0);
        let work = || loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some((_, m)) = strips.get(k) else {
                break;
            };
            let score = if cfg.relaxed_scoring {
                tracker.cost_delta_for_strip_relaxed(cls, map, &m.strip, m.sign)
            } else {
                tracker.cost_delta_for_strip(cls, map, &m.strip, m.sign)
            };
            scores[k].store(score.to_bits(), Ordering::Relaxed);
        };
        if helper {
            std::thread::scope(|scope| {
                let helper = scope.spawn(work);
                work();
                if let Err(panic) = helper.join() {
                    std::panic::resume_unwind(panic);
                }
            });
        } else {
            work();
        }
    }

    /// Rebuilds each listed shot's improving moves at `sidx` from the
    /// scores, in list order (the order the moves were generated in).
    fn cache_scores(&mut self, sidx: usize) {
        let EngineScratch {
            cache,
            todo,
            strips,
            scores,
            ..
        } = &mut self.scratch;
        for &i in todo.iter() {
            cache[i].moves[sidx].clear();
            cache[i].valid[sidx] = true;
        }
        for (&(i, mut m), score) in strips.iter().zip(scores.iter()) {
            m.delta_cost = f64::from_bits(score.load(Ordering::Relaxed));
            if m.delta_cost < -1e-9 {
                cache[i].moves[sidx].push(m);
            }
        }
    }
}

/// Uniform bias of all shot edges (paper §4.2): grow everything one pixel
/// when under-exposure dominates, shrink when over-exposure dominates
/// (skipping edges whose shot would fall below `Lmin`).
///
/// Growth is clamped to the classification frame padded by the kernel's
/// support: intensity past that boundary cannot reach any classified
/// pixel, so growing into it only inflates geometry that nothing scores.
/// The clamp is per-side and never shrinks, so shots that legitimately
/// hang past the frame (support tails) keep their extent.
fn bias_all_shots(
    cls: &Classification,
    map: &mut IntensityMap,
    tracker: &mut ViolationTracker,
    shots: &mut [Rect],
    cfg: &FractureConfig,
    summary: &FailureSummary,
) {
    let grow = summary.on_fails >= summary.off_fails;
    let frame = cls.frame();
    let pad = map.model().support_radius_px();
    let origin = frame.origin();
    let bound_x0 = origin.x - pad;
    let bound_y0 = origin.y - pad;
    let bound_x1 = origin.x + frame.width() as i64 + pad;
    let bound_y1 = origin.y + frame.height() as i64 + pad;
    for shot in shots.iter_mut() {
        let old = *shot;
        let new = if grow {
            // Per-side growth clamped to the padded frame, monotone: a
            // side already past the bound stays put rather than snapping
            // back.
            let x0 = (old.x0() - 1).max(bound_x0).min(old.x0());
            let y0 = (old.y0() - 1).max(bound_y0).min(old.y0());
            let x1 = (old.x1() + 1).min(bound_x1).max(old.x1());
            let y1 = (old.y1() + 1).min(bound_y1).max(old.y1());
            Rect::new(x0, y0, x1, y1).unwrap_or(old)
        } else {
            let shrink_x = old.width() - 2 >= cfg.min_shot_size;
            let shrink_y = old.height() - 2 >= cfg.min_shot_size;
            let x0 = old.x0() + i64::from(shrink_x);
            let x1 = old.x1() - i64::from(shrink_x);
            let y0 = old.y0() + i64::from(shrink_y);
            let y1 = old.y1() - i64::from(shrink_y);
            Rect::new(x0, y0, x1, y1).unwrap_or(old)
        };
        if new != old {
            tracker.apply(cls, map, &old, -1.0);
            tracker.apply(cls, map, &new, 1.0);
            *shot = new;
        }
    }
}

/// Adds one shot over the largest cluster of failing `Pon` pixels
/// (paper §4.3). Returns whether a shot was added.
///
/// Public because the cover-style baselines (GSC, MP) use the same move as
/// their completion pass once their candidate pools run dry.
pub fn add_shot(
    cls: &Classification,
    map: &mut IntensityMap,
    shots: &mut Vec<Rect>,
    cfg: &FractureConfig,
) -> bool {
    let (on_fail, _) = fail_bitmaps(cls, map);
    if on_fail.count_ones() == 0 {
        return false;
    }
    let origin = cls.frame().origin();
    let comps = label_components(&on_fail);

    let mut best: Option<(usize, Rect)> = None;
    for comp in &comps {
        // Component bbox in pixel space -> absolute nm. A malformed bbox
        // cannot name a placement; skip the component rather than panic.
        let Some(mut rect) = Rect::new(
            origin.x + comp.bbox.x0(),
            origin.y + comp.bbox.y0(),
            origin.x + comp.bbox.x1(),
            origin.y + comp.bbox.y1(),
        ) else {
            continue;
        };
        // Grow to the minimum shot size, centred.
        if rect.width() < cfg.min_shot_size {
            let grow = cfg.min_shot_size - rect.width();
            let Some(grown) = Rect::new(
                rect.x0() - grow / 2,
                rect.y0(),
                rect.x0() - grow / 2 + cfg.min_shot_size,
                rect.y1(),
            ) else {
                continue;
            };
            rect = grown;
        }
        if rect.height() < cfg.min_shot_size {
            let grow = cfg.min_shot_size - rect.height();
            let Some(grown) = Rect::new(
                rect.x0(),
                rect.y0() - grow / 2,
                rect.x1(),
                rect.y0() - grow / 2 + cfg.min_shot_size,
            ) else {
                continue;
            };
            rect = grown;
        }
        // Count failing Pon pixels the grown bbox covers.
        let frame = cls.frame();
        let xs = frame.clamp_x_range(rect.x0() as f64, rect.x1() as f64);
        let ys = frame.clamp_y_range(rect.y0() as f64, rect.y1() as f64);
        let mut covered = 0usize;
        for iy in ys {
            for ix in xs.clone() {
                if on_fail.get(ix, iy) {
                    covered += 1;
                }
            }
        }
        if best.as_ref().is_none_or(|(c, _)| covered > *c) {
            best = Some((covered, rect));
        }
    }
    if let Some((_, rect)) = best {
        // The grown bbox can slide while still covering the component:
        // pick the alignment with the least predicted cost (it trades the
        // fixed on-fail gain against collateral Poff exposure).
        let mut placed = rect;
        let mut best_dc = strip_delta(cls, map, &rect, 1.0, cfg);
        for dx in [-2i64, 0, 2] {
            for dy in [-2i64, 0, 2] {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let cand = rect.translate(maskfrac_geom::Point::new(dx, dy));
                let dc = strip_delta(cls, map, &cand, 1.0, cfg);
                if dc < best_dc {
                    best_dc = dc;
                    placed = cand;
                }
            }
        }
        // When every bbox placement is predicted harmful (an L- or
        // ring-shaped failing region whose bbox covers exposed area),
        // offer the tolerant slab decomposition of the failing pixels —
        // slabs hug the region without covering the hole.
        if best_dc >= 0.0 {
            let sigma_px = map.model().sigma().round() as i64;
            for slab in maskfrac_geom::partition::partition_slabs_tolerant(
                &on_fail,
                cls.frame(),
                sigma_px,
            ) {
                let Some(grown) = Rect::new(
                    slab.x0(),
                    slab.y0(),
                    slab.x1().max(slab.x0() + cfg.min_shot_size),
                    slab.y1().max(slab.y0() + cfg.min_shot_size),
                ) else {
                    continue;
                };
                let dc = strip_delta(cls, map, &grown, 1.0, cfg);
                if dc < best_dc {
                    best_dc = dc;
                    placed = grown;
                }
            }
        }
        shots.push(placed);
        map.add_shot(&placed);
        return true;
    }
    false
}

/// Removes the shot blamed for the most failing `Poff` pixels within `σ`
/// (paper §4.4).
fn remove_shot(cls: &Classification, map: &mut IntensityMap, shots: &mut Vec<Rect>) {
    if shots.is_empty() {
        return;
    }
    let (_, off_fail) = fail_bitmaps(cls, map);
    if off_fail.count_ones() == 0 {
        return;
    }
    let sigma = map.model().sigma();
    let frame = cls.frame();
    let fail_points: Vec<(f64, f64)> = off_fail
        .iter_set()
        .map(|(ix, iy)| frame.pixel_center(ix, iy))
        .collect();
    let Some((worst, _)) = shots
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let near = fail_points
                .iter()
                .filter(|&&(x, y)| s.distance_to_point_f64(x, y) < sigma)
                .count();
            (i, near)
        })
        .max_by_key(|&(i, near)| (near, usize::MAX - i)) // ties: earliest
    else {
        return;
    };
    let removed = shots.remove(worst);
    map.remove_shot(&removed);
}

/// Merges aligned or redundant shot pairs (paper §4.5, Fig. 5). Repeats
/// until no pair merges.
fn merge_shots(
    cls: &Classification,
    map: &mut IntensityMap,
    shots: &mut Vec<Rect>,
    cfg: &FractureConfig,
) {
    let gamma = cfg.gamma.round() as i64;
    loop {
        let mut merged: Option<(usize, usize, Option<Rect>)> = None;
        'outer: for i in 0..shots.len() {
            for j in (i + 1)..shots.len() {
                let (a, b) = (shots[i], shots[j]);
                // Redundant: one inside the other.
                if a.contains_rect(&b) {
                    merged = Some((i, j, None));
                    break 'outer;
                }
                if b.contains_rect(&a) {
                    merged = Some((j, i, None));
                    break 'outer;
                }
                // Aligned x-extents: merge by vertical extension.
                let x_aligned = (a.x0() - b.x0()).abs() <= gamma && (a.x1() - b.x1()).abs() <= gamma;
                let y_aligned = (a.y0() - b.y0()).abs() <= gamma && (a.y1() - b.y1()).abs() <= gamma;
                if x_aligned || y_aligned {
                    let candidate = a.union_bbox(&b);
                    if crate::approx::fraction_inside_target(cls, &candidate)
                        >= cfg.merge_overlap_fraction
                    {
                        merged = Some((i, j, Some(candidate)));
                        break 'outer;
                    }
                }
            }
        }
        match merged {
            Some((keep, drop, Some(candidate))) => {
                let (a, b) = (shots[keep], shots[drop]);
                map.remove_shot(&a);
                map.remove_shot(&b);
                map.add_shot(&candidate);
                shots[keep] = candidate;
                shots.remove(drop);
            }
            Some((_, drop, None)) => {
                let removed = shots.remove(drop);
                map.remove_shot(&removed);
            }
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maskfrac_geom::{Point, Polygon};

    fn setup(target: &Polygon) -> (Classification, ExposureModel, FractureConfig) {
        let cfg = FractureConfig::default();
        let model = cfg.model();
        let cls = Classification::build(target, cfg.gamma, model.support_radius_px() + 2);
        (cls, model, cfg)
    }

    fn square(side: i64) -> Polygon {
        Polygon::from_rect(Rect::new(0, 0, side, side).unwrap())
    }

    #[test]
    fn exact_initial_solution_converges_immediately() {
        let target = square(50);
        let (cls, model, cfg) = setup(&target);
        let out = refine(&cls, &model, &cfg, vec![Rect::new(0, 0, 50, 50).unwrap()]);
        assert!(out.summary.is_feasible());
        assert_eq!(out.shots.len(), 1);
        assert_eq!(out.iterations, 0, "already feasible");
    }

    #[test]
    fn slightly_offset_shot_is_pulled_onto_target() {
        let target = square(50);
        let (cls, model, cfg) = setup(&target);
        let out = refine(&cls, &model, &cfg, vec![Rect::new(4, -4, 54, 46).unwrap()]);
        assert!(
            out.summary.is_feasible(),
            "edge adjustment must fix a 4 nm offset: {:?}",
            out.summary
        );
        assert_eq!(out.shots.len(), 1);
        let s = out.shots[0];
        assert!((s.x0()).abs() <= 2 && (s.y1() - 50).abs() <= 2, "{s}");
    }

    #[test]
    fn empty_initial_solution_bootstraps_via_add_shot() {
        let target = square(40);
        let (cls, model, cfg) = setup(&target);
        let out = refine(&cls, &model, &cfg, Vec::new());
        assert!(
            out.summary.is_feasible(),
            "add-shot must bootstrap: {:?}",
            out.summary
        );
        assert_eq!(out.shots.len(), 1);
    }

    #[test]
    fn oversized_shot_is_shrunk_or_removed() {
        let target = square(40);
        let (cls, model, cfg) = setup(&target);
        let out = refine(
            &cls,
            &model,
            &cfg,
            vec![Rect::new(-15, -15, 55, 55).unwrap()],
        );
        assert!(out.summary.is_feasible(), "{:?}", out.summary);
    }

    #[test]
    fn l_shape_from_two_overlapping_shots() {
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(80, 0),
            Point::new(80, 30),
            Point::new(30, 30),
            Point::new(30, 80),
            Point::new(0, 80),
        ])
        .unwrap();
        let (cls, model, cfg) = setup(&target);
        let initial = vec![
            Rect::new(0, 0, 78, 28).unwrap(),
            Rect::new(0, 0, 28, 78).unwrap(),
        ];
        let out = refine(&cls, &model, &cfg, initial);
        assert!(out.summary.is_feasible(), "{:?}", out.summary);
        assert_eq!(out.shots.len(), 2, "no extra shots needed: {:?}", out.shots);
    }

    #[test]
    fn all_shots_respect_min_size() {
        let target = square(30);
        let (cls, model, cfg) = setup(&target);
        let out = refine(&cls, &model, &cfg, vec![Rect::new(5, 5, 25, 25).unwrap()]);
        for s in &out.shots {
            assert!(s.width() >= cfg.min_shot_size);
            assert!(s.height() >= cfg.min_shot_size);
        }
    }

    #[test]
    fn history_is_recorded() {
        let target = square(40);
        let (cls, model, cfg) = setup(&target);
        let out = refine(&cls, &model, &cfg, vec![Rect::new(3, 3, 43, 43).unwrap()]);
        assert!(!out.history.is_empty());
        assert_eq!(out.history[0].shots, 1);
        assert!(out.history[0].cost > 0.0);
    }

    #[test]
    fn strip_for_all_edges() {
        let s = Rect::new(10, 10, 30, 30).unwrap();
        let (strip, sign) = strip_for(&s, Edge::Left, -1).unwrap();
        assert_eq!(strip, Rect::new(9, 10, 10, 30).unwrap());
        assert_eq!(sign, 1.0);
        let (strip, sign) = strip_for(&s, Edge::Top, -1).unwrap();
        assert_eq!(strip, Rect::new(10, 29, 30, 30).unwrap());
        assert_eq!(sign, -1.0);
        let (strip, sign) = strip_for(&s, Edge::Right, 1).unwrap();
        assert_eq!(strip, Rect::new(30, 10, 31, 30).unwrap());
        assert_eq!(sign, 1.0);
        let (strip, sign) = strip_for(&s, Edge::Bottom, 1).unwrap();
        assert_eq!(strip, Rect::new(10, 10, 30, 11).unwrap());
        assert_eq!(sign, -1.0);
    }

    #[test]
    fn rect_distance_cases() {
        let a = Rect::new(0, 0, 10, 10).unwrap();
        assert_eq!(rect_distance(&a, &Rect::new(5, 5, 20, 20).unwrap()), 0.0);
        assert_eq!(rect_distance(&a, &Rect::new(13, 0, 20, 10).unwrap()), 3.0);
        assert_eq!(rect_distance(&a, &Rect::new(13, 14, 20, 20).unwrap()), 5.0);
    }

    #[test]
    fn merge_absorbs_contained_shot() {
        let target = square(50);
        let (cls, model, cfg) = setup(&target);
        let mut shots = vec![
            Rect::new(0, 0, 50, 50).unwrap(),
            Rect::new(10, 10, 30, 30).unwrap(),
        ];
        let mut map = IntensityMap::new(model, cls.frame());
        for s in &shots {
            map.add_shot(s);
        }
        merge_shots(&cls, &mut map, &mut shots, &cfg);
        assert_eq!(shots, vec![Rect::new(0, 0, 50, 50).unwrap()]);
    }

    #[test]
    fn merge_extends_aligned_shots() {
        let target = square(60);
        let (cls, model, cfg) = setup(&target);
        // Two x-aligned shots stacked with a gap, union mostly inside.
        let mut shots = vec![
            Rect::new(0, 0, 60, 28).unwrap(),
            Rect::new(0, 32, 60, 60).unwrap(),
        ];
        let mut map = IntensityMap::new(model, cls.frame());
        for s in &shots {
            map.add_shot(s);
        }
        merge_shots(&cls, &mut map, &mut shots, &cfg);
        assert_eq!(shots, vec![Rect::new(0, 0, 60, 60).unwrap()]);
    }

    #[test]
    fn merge_rejects_extension_outside_target() {
        // Two aligned shots in separate arms of a U: union crosses the gap.
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(90, 0),
            Point::new(90, 90),
            Point::new(60, 90),
            Point::new(60, 30),
            Point::new(30, 30),
            Point::new(30, 90),
            Point::new(0, 90),
        ])
        .unwrap();
        let (cls, model, cfg) = setup(&target);
        let mut shots = vec![
            Rect::new(0, 40, 28, 88).unwrap(),
            Rect::new(62, 40, 88, 88).unwrap(),
        ];
        let mut map = IntensityMap::new(model, cls.frame());
        for s in &shots {
            map.add_shot(s);
        }
        let before = shots.clone();
        merge_shots(&cls, &mut map, &mut shots, &cfg);
        assert_eq!(shots, before, "merging across the U gap would expose Poff");
    }

    #[test]
    fn map_stays_consistent_through_refinement() {
        let target = square(45);
        let (cls, model, cfg) = setup(&target);
        let out = refine(&cls, &model, &cfg, vec![Rect::new(2, 2, 40, 40).unwrap()]);
        // Re-simulate the returned shots from scratch; summaries must agree.
        let mut fresh = IntensityMap::new(model, cls.frame());
        for s in &out.shots {
            fresh.add_shot(s);
        }
        let resim = evaluate(&cls, &fresh);
        assert_eq!(resim.fail_count(), out.summary.fail_count());
        assert!((resim.cost - out.summary.cost).abs() < 1e-6);
    }

    #[test]
    fn fft_backend_is_deterministic_and_never_worse() {
        let target = square(45);
        let (cls, model, cfg) = setup(&target);
        let seed = vec![Rect::new(2, 2, 40, 40).unwrap()];
        let separable = refine(&cls, &model, &cfg, seed.clone());
        let fft_cfg = FractureConfig {
            intensity_backend: crate::IntensityBackend::Fft,
            ..cfg.clone()
        };
        let fft = refine(&cls, &model, &fft_cfg, seed.clone());
        // The fallback contract: FFT-seeded runs never ship worse quality
        // (fewer-or-equal failing pixels; on ties, fewer-or-equal shots).
        assert!(fft.summary.fail_count() <= separable.summary.fail_count());
        if fft.summary.fail_count() == separable.summary.fail_count() {
            assert!(fft.shots.len() <= separable.shots.len());
        }
        // And determinism: the same inputs give the same shot list.
        let again = refine(&cls, &model, &fft_cfg, seed);
        assert_eq!(again.shots, fft.shots);
        assert_eq!(again.summary.cost.to_bits(), fft.summary.cost.to_bits());
    }

    #[test]
    fn fft_backend_feasible_run_matches_separable_quality_on_the_square() {
        // An exact cover is feasible from iteration zero on both
        // backends; the FFT seed's ~1e-5 residue must not flip that.
        let target = square(50);
        let (cls, model, cfg) = setup(&target);
        let fft_cfg = FractureConfig {
            intensity_backend: crate::IntensityBackend::Fft,
            ..cfg
        };
        let out = refine(&cls, &model, &fft_cfg, vec![Rect::new(0, 0, 50, 50).unwrap()]);
        assert!(out.summary.is_feasible());
        assert_eq!(out.shots.len(), 1);
    }

    /// Regression test for the stale-candidate desync: a wide shot offset
    /// so that *both* its left and right edges improve. The strips are far
    /// apart (≫ 2σ), so the old engine accepted both moves in one pass —
    /// the second against a strip computed from geometry the first move
    /// had already changed. The engine must land exactly one move per shot
    /// per pass and leave the map bit-consistent with a from-scratch
    /// rebuild of the final shot list.
    #[test]
    fn accepted_move_invalidates_sibling_candidates_of_same_shot() {
        let target = Polygon::from_rect(Rect::new(0, 0, 200, 40).unwrap());
        let (cls, model, cfg) = setup(&target);
        let mut shots = vec![Rect::new(4, 0, 204, 40).unwrap()];
        let mut map = IntensityMap::new(model, cls.frame());
        map.add_shot(&shots[0]);
        let mut tracker = ViolationTracker::new(&cls, &map);
        let mut engine = GreedyEngine::new(&cfg, shots.len());

        let before = shots[0];
        assert!(
            engine.pass(&cls, &mut map, &mut tracker, &mut shots, &cfg, 1),
            "both edges are 4 nm off; a move must land"
        );
        let after = shots[0];
        let edges_moved = usize::from(before.x0() != after.x0())
            + usize::from(before.x1() != after.x1())
            + usize::from(before.y0() != after.y0())
            + usize::from(before.y1() != after.y1());
        assert_eq!(
            edges_moved, 1,
            "one accepted move per shot per pass: {before} -> {after}"
        );

        // Run the pass to a fixed point; the deferred sibling moves land
        // on subsequent passes from re-scored (fresh) geometry.
        let mut guard = 0;
        while engine.pass(&cls, &mut map, &mut tracker, &mut shots, &cfg, 1) {
            guard += 1;
            assert!(guard < 50, "pass must reach a fixed point");
        }
        // Both offsets repaired across passes, to within the γ = 2 nm
        // don't-care band (inside it, no constrained pixel improves).
        let s = shots[0];
        assert!(
            s.x0().abs() <= 2 && (s.x1() - 200).abs() <= 2,
            "both offsets repaired across passes: {s}"
        );
        assert_eq!(
            tracker.summary().fail_count(),
            0,
            "solution is feasible: {:?}",
            tracker.summary()
        );

        // The incrementally maintained map matches a from-scratch rebuild
        // of the final shot list, and the running summary matches a full
        // re-evaluation. The map bound is the kernel-tail mass: the model
        // integrates an *untruncated* erf while updates clamp to the
        // ±support window, so each strip op leaves up to erfc(3)/2 ≈
        // 1.1e-5 outside its window (true of plain add_shot/remove_shot
        // as well). The desync this guards against misplaces a whole
        // strip — an O(0.1) error, four orders of magnitude above this.
        let mut fresh = map.clone();
        fresh.rebuild(shots.iter());
        assert!(map.max_abs_diff(&fresh) <= 2e-5, "{}", map.max_abs_diff(&fresh));
        let full = evaluate(&cls, &map);
        assert_eq!(tracker.summary().on_fails, full.on_fails);
        assert_eq!(tracker.summary().off_fails, full.off_fails);
        assert!((tracker.summary().cost - full.cost).abs() < 1e-9);
    }

    /// The incremental engine must produce exactly the shot list of the
    /// full-rescan reference path.
    #[test]
    fn incremental_and_full_rescan_paths_are_byte_identical() {
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(80, 0),
            Point::new(80, 30),
            Point::new(30, 30),
            Point::new(30, 80),
            Point::new(0, 80),
        ])
        .unwrap();
        let (cls, model, base) = setup(&target);
        let initial = vec![
            Rect::new(3, -3, 81, 25).unwrap(),
            Rect::new(-2, 2, 26, 80).unwrap(),
        ];
        let run = |incremental: bool| {
            let cfg = FractureConfig {
                incremental_refine: incremental,
                ..base.clone()
            };
            refine(&cls, &model, &cfg, initial.clone())
        };
        let reference = run(false);
        let out = run(true);
        assert_eq!(out.shots, reference.shots, "shot lists diverged");
        assert_eq!(out.iterations, reference.iterations);
        assert_eq!(out.summary.on_fails, reference.summary.on_fails);
        assert_eq!(out.summary.off_fails, reference.summary.off_fails);
    }

    /// With `coarse_factor = 1` (the default) the dispatcher must be the
    /// legacy path, byte for byte — this is the parity contract that lets
    /// every committed shot-count baseline survive the coarse-to-fine
    /// rewrite.
    #[test]
    fn coarse_factor_one_is_byte_identical_to_legacy_refinement() {
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(80, 0),
            Point::new(80, 30),
            Point::new(30, 30),
            Point::new(30, 80),
            Point::new(0, 80),
        ])
        .unwrap();
        let (cls, model, cfg) = setup(&target);
        let initial = vec![
            Rect::new(3, -3, 81, 25).unwrap(),
            Rect::new(-2, 2, 26, 80).unwrap(),
        ];
        // The dispatcher entry (coarse_factor = 1, the default).
        let dispatched = refine(&cls, &model, &cfg, initial.clone());
        // The legacy body, called directly.
        let legacy = refine_core(&cls, &model, &cfg, initial, None, &mut FractureScratch::new());
        assert_eq!(dispatched.shots, legacy.shots, "shot lists diverged");
        assert_eq!(dispatched.iterations, legacy.iterations);
        assert_eq!(
            dispatched.summary.cost.to_bits(),
            legacy.summary.cost.to_bits(),
            "cost diverged"
        );
    }

    /// Relaxed scoring is a different tier (no byte-parity promise), but
    /// it must still converge to a feasible solution on the same inputs.
    #[test]
    fn relaxed_scoring_still_converges() {
        let target = square(50);
        let (cls, model, base) = setup(&target);
        let cfg = FractureConfig {
            relaxed_scoring: true,
            ..base
        };
        let out = refine(&cls, &model, &cfg, vec![Rect::new(4, -4, 54, 46).unwrap()]);
        assert!(out.summary.is_feasible(), "{:?}", out.summary);
        assert_eq!(out.shots.len(), 1);
    }

    /// Coarse-to-fine end-to-end: every supported factor repairs the same
    /// offset shot to feasibility, and determinism holds across repeats
    /// (the relaxed tier is deterministic, just not bit-identical to the
    /// exact tier).
    #[test]
    fn coarse_to_fine_converges_and_is_deterministic() {
        let target = square(50);
        let (cls, model, base) = setup(&target);
        for factor in [2usize, 3, 4] {
            let run = || {
                let cfg = FractureConfig {
                    coarse_factor: factor,
                    ..base.clone()
                };
                refine(&cls, &model, &cfg, vec![Rect::new(4, -4, 54, 46).unwrap()])
            };
            let out = run();
            assert!(
                out.summary.is_feasible(),
                "factor {factor}: {:?}",
                out.summary
            );
            let again = run();
            assert_eq!(out.shots, again.shots, "factor {factor}: nondeterministic");
        }
    }

    /// Scale-down rounds outward (coverage-preserving) and scale-up is the
    /// exact inverse lattice embedding.
    #[test]
    fn scale_down_rounds_outward() {
        let s = Rect::new(3, -5, 18, 1).unwrap();
        let down = scale_down_rect(&s, 4).unwrap();
        assert_eq!(down, Rect::new(0, -2, 5, 1).unwrap());
        // Degenerate-on-the-coarse-lattice shots keep at least 1 cell.
        let tiny = Rect::new(5, 5, 7, 7).unwrap();
        let d = scale_down_rect(&tiny, 4).unwrap();
        assert_eq!(d, Rect::new(1, 1, 2, 2).unwrap());
    }

    /// Biasing must honor the frame clamp: growth stops at the pixel frame
    /// plus the kernel support (beyond which no classified pixel can see
    /// the shot), and a side already past that bound never snaps back.
    #[test]
    fn bias_growth_clamps_to_frame_support() {
        let target = square(50);
        let (cls, model, cfg) = setup(&target);
        let frame = cls.frame();
        let pad = model.support_radius_px();
        let bound_x0 = frame.origin().x - pad;
        // One shot about to cross the clamp, one already past it.
        let near = Rect::new(bound_x0 + 1, 0, 40, 40).unwrap();
        let past = Rect::new(bound_x0 - 5, 0, 30, 30).unwrap();
        let mut shots = vec![near, past];
        let mut map = IntensityMap::new(model, frame);
        for s in &shots {
            map.add_shot(s);
        }
        let mut tracker = ViolationTracker::new(&cls, &map);
        // Force the grow branch.
        let summary = FailureSummary { on_fails: 10, off_fails: 0, cost: 1.0 };
        bias_all_shots(&cls, &mut map, &mut tracker, &mut shots, &cfg, &summary);
        assert_eq!(shots[0].x0(), bound_x0, "grew one step onto the bound");
        assert_eq!(shots[0].x1(), 41, "interior sides grow normally");
        assert_eq!(shots[1].x0(), bound_x0 - 5, "out-of-bound side stays put");
        assert_eq!(shots[1].x1(), 31);

        bias_all_shots(&cls, &mut map, &mut tracker, &mut shots, &cfg, &summary);
        assert_eq!(shots[0].x0(), bound_x0, "clamped side cannot leave the bound");

        // Biasing through the tracker keeps map and summary exact.
        let mut fresh = map.clone();
        fresh.rebuild(shots.iter());
        assert!(map.max_abs_diff(&fresh) <= 1e-9);
        let full = evaluate(&cls, &map);
        assert_eq!(tracker.summary().on_fails, full.on_fails);
        assert_eq!(tracker.summary().off_fails, full.off_fails);
    }

    /// The dirty-window bookkeeping must only ever *skip* re-scoring of
    /// shots whose cached scores are provably unchanged — verified here by
    /// comparing every pass of an incremental run against a freshly scored
    /// engine on the same state. Before each pass, every strip the pass
    /// lists is also scored over the tracker's live pixels and over its
    /// full window: the two scores must match bit for bit, on both tiers.
    #[test]
    fn cached_scores_match_fresh_scores_after_each_pass() {
        let target = square(60);
        let (cls, model, exact) = setup(&target);
        let relaxed = FractureConfig {
            relaxed_scoring: true,
            ..exact.clone()
        };
        for cfg in [exact, relaxed] {
            let mut shots = vec![
                Rect::new(-3, 2, 32, 58).unwrap(),
                Rect::new(28, -2, 63, 57).unwrap(),
            ];
            let mut map = IntensityMap::new(model.clone(), cls.frame());
            if cfg.relaxed_scoring {
                map.enable_lattice_profiles();
            }
            for s in &shots {
                map.add_shot(s);
            }
            let mut tracker = ViolationTracker::new(&cls, &map);
            let mut engine = GreedyEngine::new(&cfg, shots.len());
            for _ in 0..12 {
                let mut listed = GreedyEngine::new(&cfg, shots.len());
                for stride in [1, 2] {
                    listed.list_strips(&shots, &cfg, stride);
                    for (_, m) in &listed.scratch.strips {
                        let (masked, full) = if cfg.relaxed_scoring {
                            (
                                tracker.cost_delta_for_strip_relaxed(&cls, &map, &m.strip, m.sign),
                                cost_delta_for_strip_relaxed(&cls, &map, &m.strip, m.sign),
                            )
                        } else {
                            (
                                tracker.cost_delta_for_strip(&cls, &map, &m.strip, m.sign),
                                cost_delta_for_strip(&cls, &map, &m.strip, m.sign),
                            )
                        };
                        assert_eq!(masked.to_bits(), full.to_bits(), "strip {}", m.strip);
                    }
                }

                // Mirror state for the reference engine before the pass runs.
                let mut ref_shots = shots.clone();
                let mut ref_map = map.clone();
                let mut ref_tracker = ViolationTracker::new(&cls, &ref_map);
                let mut ref_engine = GreedyEngine::new(&cfg, ref_shots.len());
                ref_engine.incremental = false;

                let moved = engine.pass(&cls, &mut map, &mut tracker, &mut shots, &cfg, 1);
                let ref_moved = ref_engine.pass(
                    &cls,
                    &mut ref_map,
                    &mut ref_tracker,
                    &mut ref_shots,
                    &cfg,
                    1,
                );
                assert_eq!(moved, ref_moved);
                assert_eq!(shots, ref_shots, "cached scores drifted from fresh scores");
                if !moved {
                    break;
                }
            }
        }
    }

    /// One pass's strip list scored with the helper thread forced on and
    /// forced off: every cached move, score bits included, is identical.
    #[test]
    fn helper_thread_scores_are_bit_identical_to_serial_scores() {
        let target = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(80, 0),
            Point::new(80, 30),
            Point::new(30, 30),
            Point::new(30, 80),
            Point::new(0, 80),
        ])
        .unwrap();
        let (cls, model, cfg) = setup(&target);
        let shots = vec![
            Rect::new(3, -3, 81, 25).unwrap(),
            Rect::new(-2, 2, 26, 80).unwrap(),
            Rect::new(20, 20, 40, 40).unwrap(),
        ];
        let mut map = IntensityMap::new(model, cls.frame());
        map.rebuild(&shots);
        let tracker = ViolationTracker::new(&cls, &map);
        for stride in [1, 2] {
            let cached = |helper: bool| {
                let mut engine = GreedyEngine::new(&cfg, shots.len());
                engine.list_strips(&shots, &cfg, stride);
                assert!(engine.scratch.strips.len() >= 2);
                engine.score_strips(&cls, &map, &tracker, &cfg, helper);
                engine.cache_scores(ShotCache::slot(stride));
                let key =
                    |m: &ScoredMove| (m.delta_cost.to_bits(), edge_rank(m.edge), m.delta, m.strip);
                engine
                    .scratch
                    .cache
                    .iter()
                    .map(|entry| {
                        let moves = entry
                            .moves
                            .each_ref()
                            .map(|ms| ms.iter().map(key).collect());
                        (entry.valid, moves)
                    })
                    .collect::<Vec<(_, [Vec<_>; 2])>>()
            };
            let serial = cached(false);
            assert!(
                serial
                    .iter()
                    .any(|(_, moves)| moves.iter().any(|m| !m.is_empty())),
                "the offset shots must have improving moves to compare"
            );
            assert_eq!(cached(true), serial, "stride {stride}");
        }
    }
}
