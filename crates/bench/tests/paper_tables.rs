//! The reproduction, pinned byte for byte: `paper_tables`' stdout for a
//! few seeded worlds against committed goldens. Every table and figure
//! the binary prints is a deterministic function of `--size` and
//! `--seed` (progress and timings go to stderr), so any change to what
//! the paper-side analyses compute — cone, valley-free walk, Fig. 4
//! verdict, inference, simulation — shows here as a diff.
//!
//! The Tiny worlds run in the plain suite (~0.4 s each in release); the
//! Small world (~5 s in release) is `#[ignore]`d:
//!
//! ```text
//! cargo test --release -p rpi-bench --test paper_tables -- --ignored
//! ```
//!
//! If an analysis changes its output on purpose, regenerate a golden
//! with (likewise `--size small --seed 20021118`):
//!
//! ```text
//! cargo run --release -p rpi-bench --bin paper_tables -- --size tiny --seed 1 \
//!   > crates/bench/tests/data/paper_tables_tiny_1.golden
//! ```

use std::path::Path;
use std::process::Command;

/// Runs `paper_tables --size <size> --seed <seed>` and compares its
/// stdout with `tests/data/paper_tables_<size>_<seed>.golden`.
fn assert_golden(size: &str, seed: u64) {
    let out = Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args(["--size", size, "--seed", &seed.to_string()])
        .output()
        .expect("paper_tables runs");
    assert!(
        out.status.success(),
        "paper_tables --size {size} --seed {seed}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/data/paper_tables_{size}_{seed}.golden"));
    let want = std::fs::read_to_string(&golden).expect("golden exists");
    let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "paper_tables --size {size} --seed {seed} differs from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            golden.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

#[test]
fn tiny_worlds_are_the_goldens() {
    for seed in [1, 2, 3] {
        assert_golden("tiny", seed);
    }
}

#[test]
#[ignore = "~5 s in release; CI runs it with --ignored"]
fn small_world_is_the_golden() {
    assert_golden("small", 20021118);
}
