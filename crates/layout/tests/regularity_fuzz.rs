//! Property-based fuzz of the pattern extractor: window hashing over
//! random λ-grid rasters, holding the ROADMAP's two invariants.
//!
//! Both properties treat the random raster as a torus (the pattern is
//! periodic with the raster's dimensions) and unroll it with `w − 1`
//! wrapped columns and `h − 1` wrapped rows appended, so a stride-1
//! scan of the unrolled grid visits every torus window position exactly
//! once:
//!
//! 1. **Translation invariance** — cyclically shifting the torus by any
//!    `(dx, dy)` permutes which position holds which window but changes
//!    no window's content, so the sorted pattern-frequency multiset is
//!    identical.
//! 2. **Rotation consistency** — rotating the torus 90° maps each
//!    `w × h` window bijectively onto an `h × w` window, so the rotated
//!    scan (with the window dimensions swapped) reports the same
//!    frequency multiset, unique-pattern count, and derived indices.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "test code: a failed unwrap or panic is a failed test, and output is diagnostics"
)]

use nanocost_layout::{LambdaGrid, RegularityAnalysis};
use nanocost_numeric::Rng64;

const CASES: usize = 32;

/// A random periodic pattern: layer codes 0..=3 over a `w × h` torus.
fn random_torus(rng: &mut Rng64, w: usize, h: usize) -> Vec<Vec<u8>> {
    (0..h)
        .map(|_| {
            (0..w)
                .map(|_| {
                    // Half the cells empty so signatures mix empty and
                    // drawn material, as real sparse layouts do.
                    let roll = rng.random_range(0.0..8.0) as u8;
                    roll.saturating_sub(4)
                })
                .collect()
        })
        .collect()
}

/// Unrolls a torus, cyclically pre-shifted by `(dx, dy)`, onto a grid
/// with `pad_x` wrapped columns and `pad_y` wrapped rows appended, so
/// stride-1 windows up to `(pad_x + 1) × (pad_y + 1)` cover every torus
/// position exactly once.
fn unroll(torus: &[Vec<u8>], dx: usize, dy: usize, pad_x: usize, pad_y: usize) -> LambdaGrid {
    let h = torus.len();
    let w = torus[0].len();
    let mut grid = LambdaGrid::new(w + pad_x, h + pad_y).expect("non-empty grid");
    for y in 0..h + pad_y {
        for x in 0..w + pad_x {
            let code = torus[(y + dy) % h][(x + dx) % w];
            grid.set(x as i64, y as i64, code).expect("in bounds");
        }
    }
    grid
}

/// The torus rotated a quarter turn: dimensions swap, content bijects.
fn rotate90(torus: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let h = torus.len();
    let w = torus[0].len();
    (0..w)
        .map(|y| (0..h).map(|x| torus[x][w - 1 - y]).collect())
        .collect()
}

#[test]
fn pattern_counts_are_invariant_under_torus_translation() {
    let mut rng = Rng64::seed_from_u64(0x70f0);
    for case in 0..CASES {
        let w = 8 + rng.random_range(0.0..12.0) as usize;
        let h = 8 + rng.random_range(0.0..12.0) as usize;
        let win_w = 2 + rng.random_range(0.0..3.0) as usize;
        let win_h = 2 + rng.random_range(0.0..3.0) as usize;
        let dx = rng.random_range(0.0..w as f64) as usize;
        let dy = rng.random_range(0.0..h as f64) as usize;
        let torus = random_torus(&mut rng, w, h);

        let scan = RegularityAnalysis::rectangular(win_w, win_h, 1, 1).expect("valid scan");
        let base = scan
            .analyze(&unroll(&torus, 0, 0, win_w - 1, win_h - 1))
            .expect("base scan");
        let shifted = scan
            .analyze(&unroll(&torus, dx, dy, win_w - 1, win_h - 1))
            .expect("shifted scan");

        assert_eq!(
            base.total_windows,
            (w * h) as u64,
            "case {case}: the unrolled scan must cover each torus position once"
        );
        assert_eq!(
            base.frequencies(),
            shifted.frequencies(),
            "case {case}: translation by ({dx}, {dy}) changed the pattern multiset \
             on a {w}×{h} torus under a {win_w}×{win_h} window"
        );
    }
}

#[test]
fn pattern_counts_are_consistent_under_quarter_rotation() {
    let mut rng = Rng64::seed_from_u64(0x90f0);
    for case in 0..CASES {
        let w = 8 + rng.random_range(0.0..12.0) as usize;
        let h = 8 + rng.random_range(0.0..12.0) as usize;
        let win_w = 2 + rng.random_range(0.0..3.0) as usize;
        let win_h = 2 + rng.random_range(0.0..3.0) as usize;
        let torus = random_torus(&mut rng, w, h);
        let rotated = rotate90(&torus);

        let scan = RegularityAnalysis::rectangular(win_w, win_h, 1, 1).expect("valid scan");
        let base = scan
            .analyze(&unroll(&torus, 0, 0, win_w - 1, win_h - 1))
            .expect("base scan");
        // The rotated torus is scanned with the window rotated too.
        let rot_scan = RegularityAnalysis::rectangular(win_h, win_w, 1, 1).expect("valid scan");
        let turned = rot_scan
            .analyze(&unroll(&rotated, 0, 0, win_h - 1, win_w - 1))
            .expect("rotated scan");

        assert_eq!(base.total_windows, turned.total_windows, "case {case}");
        assert_eq!(
            base.frequencies(),
            turned.frequencies(),
            "case {case}: rotating a {w}×{h} torus changed the pattern multiset \
             under a {win_w}×{win_h} window"
        );
        assert_eq!(base.unique_patterns(), turned.unique_patterns(), "case {case}");
        let drift = (base.regularity_index() - turned.regularity_index()).abs();
        assert!(drift < 1e-12, "case {case}: regularity index drifted by {drift}");
    }
}

/// A quarter rotation applied four times must reproduce the original
/// torus — a self-check on the test's own rotation helper.
#[test]
fn rotation_helper_has_order_four() {
    let mut rng = Rng64::seed_from_u64(0x4444);
    let torus = random_torus(&mut rng, 7, 5);
    let back = rotate90(&rotate90(&rotate90(&rotate90(&torus))));
    assert_eq!(torus, back);
}
