//! Runs the complete evaluation suite — every table and figure binary —
//! in sequence, each as a child process: the sibling executables in this
//! binary's target directory, so build them first with
//! `cargo build --release -p dd-bench --bins`. Equivalent to invoking each
//! `--bin` target by hand.
//!
//! ```text
//! DD_SCALE=250 cargo run --release -p dd-bench --bin run_all
//! ```
//!
//! At `DD_SCALE=250` (seed 7) the whole suite took 620 s on a 2-vCPU Xeon
//! VM; increase `DD_SCALE` to shrink the datasets further.
//!
//! Per-target wall-clock goes through `run_all.<target>` spans into the
//! unified `<out_dir>/telemetry.jsonl`, alongside whatever events the
//! figure binaries themselves append there.

use dd_bench::BenchEnv;
use std::process::Command;

const TARGETS: &[&str] = &[
    "table2_datasets",
    "fig3_direction_discovery",
    "fig4_label_effect",
    "fig5_pattern_effect",
    "fig6a_dimensions",
    "fig6b_negatives",
    "fig7_visualization",
    "fig8_link_prediction",
    "fig9_scalability",
    "ablation_study",
    "calibration_report",
];

fn main() {
    // Each figure binary lives next to this one in the target directory;
    // invoke the sibling executables so each runs with its own stdout
    // header and the shared DD_* environment.
    let env = BenchEnv::from_env();
    let obs = env.observer();
    let self_path = std::env::current_exe().expect("own path");
    let dir = self_path.parent().expect("target dir").to_path_buf();
    let suite_span = obs.span("run_all");
    let mut failures = Vec::new();
    for target in TARGETS {
        let exe = dir.join(target);
        if !exe.exists() {
            eprintln!(
                "skipping {target}: {} not built (run `cargo build --release -p dd-bench --bins`)",
                exe.display()
            );
            failures.push(*target);
            continue;
        }
        println!("\n================ {target} ================");
        let (status, secs) = obs.time(&format!("run_all.{target}"), || {
            Command::new(&exe).status().expect("spawn figure binary")
        });
        println!("[{target}: {secs:.1}s, {status}]");
        if !status.success() {
            failures.push(*target);
        }
    }
    let total = suite_span.finish();
    println!(
        "\ncompleted {}/{} targets in {total:.1}s",
        TARGETS.len() - failures.len(),
        TARGETS.len(),
    );
    obs.flush();
    if !failures.is_empty() {
        eprintln!("failed: {failures:?}");
        std::process::exit(1);
    }
}
