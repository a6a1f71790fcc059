//! The benchmark's daemon traffic through the submission reader: the
//! explore bodies of `perfbench/mix.py` and every registered experiment
//! name must yield the grids (and the store keys of their points) pinned
//! below, malformed axes must be errors, and no truncation or byte flip of
//! a body may panic the reader.

use mom_bench::schedule;
use mom_bench::{find_experiment, ExperimentSpec};
use mom_obs::json::parse;
use mom_serve::wire::{parse_submit, JobRequest};
use mom_store::Hasher;

/// Explore bodies in `perfbench/mix.py`'s shape (the first ones its seed-1
/// stream draws, including two fresh-seed jobs) and the six registered
/// experiments, each with the point count, a digest of the parsed spec
/// (`Debug` text) and a digest of the store keys of its planned points,
/// as the submission reader produced them before it moved onto
/// `ExperimentSpec::from_axes`.
const TRAFFIC: &[(&str, usize, &str, &str)] = &[
    (
        r#"{"label": "explore", "kernels": ["addblock"], "isas": ["mmx", "mom"], "widths": [1, 2], "memory": [6, 24], "rob": [48]}"#,
        8,
        "4f432498dbfc7830d214ef72b6644d25",
        "b902d4f535ca6a73210a444768ccc517",
    ),
    (
        r#"{"label": "explore", "kernels": ["ltpsfilt"], "isas": ["alpha", "mmx"], "widths": [1, 2], "memory": [2, 8], "rob": [48], "lanes": [2]}"#,
        8,
        "083277c11baf4ca794df941ad2cead64",
        "fe9da035b7ab5b574d707b2ba5ac8ccb",
    ),
    (
        r#"{"label": "explore", "kernels": ["idct"], "isas": ["alpha", "mmx"], "widths": [1, 2], "memory": [2, 6], "rob": [96], "seed": 775496880}"#,
        8,
        "f2452720acd047d3ba16fec3a64b6361",
        "0441818794898300d33ec9ab4b8c83cd",
    ),
    (
        r#"{"label": "explore", "kernels": ["motion2"], "isas": ["alpha", "mdmx"], "widths": [1, 4], "memory": [8, 16]}"#,
        8,
        "1e97f9c8196bb07ea9c56e1d93bc0598",
        "951857c7fd5b4b1e27ae853ba27dcefd",
    ),
    (
        r#"{"label": "explore", "kernels": ["idct"], "isas": ["alpha", "mdmx"], "widths": [4, 8], "memory": [4, 6], "lanes": [1], "seed": 1963327011}"#,
        8,
        "0b8162a781394a1c87b6eeea0bd95836",
        "c7417b31aec54a114bd68e8ff59a3701",
    ),
    (
        r#"{"experiment": "fig4"}"#,
        144,
        "8740199e3ba14e7db7695e52757cfc0f",
        "c774a793ab66dc0d78c1d3d460bdf24b",
    ),
    (
        r#"{"experiment": "fig5"}"#,
        144,
        "6db5968ba11b5373b06d728deb1b9470",
        "aeceaa87082e09b190987aadf9502ef8",
    ),
    (
        r#"{"experiment": "tables"}"#,
        36,
        "733fbd5e1ed8f727d82afb824e0934b8",
        "a17a74b37624ebd42214bff2f36cb0f4",
    ),
    (r#"{"experiment": "app-speedups"}"#, 0, "", ""),
    (
        r#"{"experiment": "ablation-lanes"}"#,
        24,
        "d711d8ba5535053fed0e4f64dd47e3d7",
        "862c40b9e9df00d78a0460d14e5c7fcd",
    ),
    (
        r#"{"experiment": "ablation-rob"}"#,
        16,
        "ea82b7a4ddf9255495f27494a24a8175",
        "802c0ae4ffaf06843e1497a395d03466",
    ),
];

fn submit(body: &str) -> Result<JobRequest, String> {
    parse_submit(&parse(body).map_err(|e| e.to_string())?)
}

fn spec_digest(spec: &ExperimentSpec) -> String {
    let mut hasher = Hasher::new();
    hasher.write_str(&format!("{spec:?}"));
    hasher.finish().to_hex()
}

fn plan_digest(spec: &ExperimentSpec) -> (usize, String) {
    let planned = schedule::plan(spec);
    let mut hasher = Hasher::new();
    for job in &planned {
        hasher.write_key(job.key());
    }
    (planned.len(), hasher.finish().to_hex())
}

#[test]
fn benchmark_traffic_parses_to_the_pinned_grids() {
    for &(body, points, spec_key, plan_key) in TRAFFIC {
        match submit(body).unwrap_or_else(|e| panic!("{body}: {e}")) {
            JobRequest::Grid { label, spec } => {
                if label != "explore" {
                    let registered = find_experiment(&label).unwrap().spec().unwrap();
                    assert_eq!(spec, registered, "{body}");
                }
                assert_eq!(spec_digest(&spec), spec_key, "{body}");
                assert_eq!(plan_digest(&spec), (points, plan_key.to_string()), "{body}");
            }
            JobRequest::Apps { label } => {
                assert_eq!(label, "app-speedups");
                assert_eq!(points, 0);
            }
        }
    }
}

#[test]
fn malformed_axes_are_errors_not_panics() {
    let cases: &[(&str, &str)] = &[
        (
            r#"{"frobnicate": [1]}"#,
            "kernels, isas, widths, memory, rob, lanes",
        ),
        (r#"{"kernels": []}"#, "kernels needs at least one value"),
        (r#"{"widths": []}"#, "widths needs at least one value"),
        (r#"{"widths": [true]}"#, "\"widths\" must be"),
        (r#"{"widths": [[4]]}"#, "\"widths\" must be"),
        (r#"{"widths": [2.5]}"#, "not a non-negative integer"),
        (r#"{"rob": [-16]}"#, "not a non-negative integer"),
        (r#"{"kernels": "some"}"#, "idct"),
        (r#"{"kernels": [4]}"#, "idct"),
        (r#"{"isas": {"mom": true}}"#, "\"isas\" must be"),
        (r#"{"replication": [1, 2]}"#, "exactly one value"),
        (r#"{"seed": 18446744073709551616}"#, "decimal string"),
        (r#"{"seed": "18446744073709551616"}"#, "seed:"),
        (r#"{"sampled": "1:2"}"#, "sampled:"),
        (r#"{"label": 7}"#, "\"label\" must be a string"),
        (r#"{"experiment": "fig4", "widths": [2]}"#, "no other keys"),
        (r#"{"experiment": "fig4", "label": "x"}"#, "no other keys"),
        (r#"{"experiment": 4}"#, "must be a string"),
        (r#"[1, 2]"#, "JSON object"),
    ];
    for (body, needle) in cases {
        let err = submit(body).expect_err(body);
        assert!(
            err.contains(needle),
            "{body}: expected {needle:?} in {err:?}"
        );
    }
    // Strings, integers and booleans are all accepted where documented.
    let grid = |body: &str| match submit(body).unwrap_or_else(|e| panic!("{body}: {e}")) {
        JobRequest::Grid { spec, .. } => spec,
        other => panic!("{body}: expected a grid, got {other:?}"),
    };
    assert_eq!(
        grid(r#"{"widths": "2", "seed": "9007199254740993"}"#),
        grid(r#"{"widths": [2], "seed": ["9007199254740993"]}"#)
    );
    assert_eq!(
        grid(r#"{"sampled": true}"#),
        grid(r#"{"sampled": "200:671:150"}"#)
    );
    assert_eq!(grid(r#"{"sampled": false}"#), grid("{}"));
}

#[test]
fn truncated_and_flipped_bodies_never_panic() {
    let mut bodies: Vec<String> = TRAFFIC.iter().map(|(body, ..)| body.to_string()).collect();
    bodies.push(r#"{"kernels": "all", "isas": "media", "sampled": true, "seed": "7"}"#.into());
    for body in &bodies {
        for cut in 0..body.len() {
            let _ = submit(&body[..cut]);
        }
        // Seeded byte flips: every position, a few deterministic deltas.
        let mut state = 0x5C99u64 ^ body.len() as u64;
        for at in 0..body.len() {
            for _ in 0..3 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let mut bytes = body.clone().into_bytes();
                bytes[at] = bytes[at].wrapping_add(1 + (state % 255) as u8);
                if let Ok(mangled) = String::from_utf8(bytes) {
                    let _ = submit(&mangled);
                }
            }
        }
    }
}
