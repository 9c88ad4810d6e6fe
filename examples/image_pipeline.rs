//! Image segmentation as multiset rewriting (the chemical-model image
//! processing the paper cites via ref. [21]), run as a three-stage Gamma
//! pipeline: per-pixel threshold → foreground-count merge → finalise.
//!
//! ```sh
//! cargo run --release --example image_pipeline [pixels]
//! ```

use gammaflow::gamma::{run_pipeline, EngineConfig, Status};
use gammaflow::workloads::image_scenario;
use std::time::Instant;

fn main() {
    let pixels: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1024);
    let s = image_scenario(7, pixels);
    println!("synthetic image: {pixels} pixels, threshold 128");

    let t0 = Instant::now();
    let result = run_pipeline(&s.pipeline, s.initial.clone(), &EngineConfig::default()).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(result.status, Status::Stable);
    assert_eq!(result.multiset, s.expected);

    let fg = result
        .multiset
        .iter()
        .find(|e| e.label.as_str() == "fg")
        .map(|e| e.value.as_int().unwrap())
        .unwrap_or(0);
    println!(
        "segmented in {elapsed:?}: {} firings total, foreground pixels = {fg} ({:.1}%)",
        result.stats.firings_total(),
        100.0 * fg as f64 / pixels as f64
    );

    // Render a tiny ASCII strip of the segmentation for flavour.
    let mut bits: Vec<(u64, i64)> = result
        .multiset
        .iter()
        .filter(|e| e.label.as_str() == "seg")
        .map(|e| (e.tag.0, e.value.as_int().unwrap()))
        .collect();
    bits.sort();
    let strip: String = bits
        .iter()
        .take(80)
        .map(|&(_, b)| if b == 1 { '#' } else { '.' })
        .collect();
    println!("first 80 pixels: {strip}");
}
