//! The wire vocabulary: JSON submissions in, JSON job documents out.
//!
//! A submission is either a registered experiment by name
//! (`{"experiment": "fig4"}`) or an ad-hoc grid keyed by the axis names
//! `momsim run` takes as flags.  The wire only turns each axis value into
//! string tokens; [`ExperimentSpec::from_axes`], the reader `momsim run`
//! and `momsim submit` share, parses them with the `FromStr`
//! implementations of the domain types, so a typo produces an error
//! listing the valid names.  Job documents are built from queue snapshots with the same row emitters the batch
//! reports use ([`mom_bench::point_json`] / [`mom_bench::app_point_json`]),
//! so a streamed row is field-identical to the committed `BENCH_*.json`
//! row of the same point.

use crate::queue::{JobKind, JobSnapshot, UnitResult};
use mom_bench::spec::AXES;
use mom_bench::{find_experiment, ExperimentSpec};
use mom_obs::json::Json;

/// A validated submission, ready for the queue.
#[derive(Debug, Clone)]
pub enum JobRequest {
    /// A grid of simulation points.
    Grid {
        /// Display label (the experiment name, a client label, or `ad-hoc`).
        label: String,
        /// The grid to decompose into points.
        spec: ExperimentSpec,
    },
    /// The application-speedup scenario (one composite unit of work).
    Apps {
        /// Display label.
        label: String,
    },
}

/// Parses a submission document into a [`JobRequest`].
///
/// An ad-hoc grid's axes are turned into string tokens and read by
/// [`ExperimentSpec::from_axes`], the same function behind `momsim run`'s
/// flags: each axis is a string, a non-negative integer below 2^53, or an
/// array of those, and `sampled` may also be a boolean.
pub fn parse_submit(doc: &Json) -> Result<JobRequest, String> {
    let pairs = doc.as_obj().ok_or("a submission must be a JSON object")?;
    if let Some(value) = doc.get("experiment") {
        let name = value.as_str().ok_or("\"experiment\" must be a string")?;
        if pairs.len() != 1 {
            return Err("an \"experiment\" submission takes no other keys".into());
        }
        let experiment = find_experiment(name)?;
        return Ok(match experiment.spec() {
            Some(spec) => JobRequest::Grid {
                label: name.to_string(),
                spec,
            },
            None => JobRequest::Apps {
                label: name.to_string(),
            },
        });
    }

    let mut label = "ad-hoc".to_string();
    let mut axes = Vec::with_capacity(pairs.len());
    for (key, value) in pairs {
        match (key.as_str(), value) {
            ("label", _) => {
                label = value
                    .as_str()
                    .ok_or("\"label\" must be a string")?
                    .to_string();
            }
            ("sampled", Json::Bool(false)) => {}
            ("sampled", Json::Bool(true)) => axes.push((key.clone(), Vec::new())),
            (axis, _) if AXES.contains(&axis) => {
                axes.push((key.clone(), axis_tokens(axis, value)?));
            }
            (other, _) => {
                return Err(format!(
                    "unknown key \"{other}\" (expected experiment, or any of: label, {})",
                    AXES.join(", ")
                ));
            }
        }
    }
    let spec = ExperimentSpec::from_axes(&axes)?;
    Ok(JobRequest::Grid { label, spec })
}

/// One axis value as string tokens: a string or an integer is one token,
/// an array one token per element.
fn axis_tokens(axis: &str, value: &Json) -> Result<Vec<String>, String> {
    let token = |item: &Json| match item {
        Json::Str(text) => Ok(text.clone()),
        Json::Num(n) => item.as_u64().map(|n| n.to_string()).ok_or_else(|| {
            // `as_u64` refuses a non-negative integer only from 2^53 up.
            if *n >= 0.0 && *n == n.trunc() {
                format!(
                    "\"{axis}\": integers from 2^53 up are not exact in JSON; send the \
                     value as a decimal string, e.g. \"{axis}\": \"9007199254740993\""
                )
            } else {
                format!("\"{axis}\": {n} is not a non-negative integer")
            }
        }),
        _ => Err(format!(
            "\"{axis}\" must be a string, a non-negative integer or an array of those"
        )),
    };
    match value {
        Json::Arr(items) => items.iter().map(token).collect(),
        item => Ok(vec![token(item)?]),
    }
}

/// Renders a queue snapshot as the `GET /jobs/<id>` document: counters,
/// state, per-unit errors, a timing breakdown (dedup, queue wait, simulate
/// and emit milliseconds), and one result row per finished point (rows
/// stream in as the pool completes them; a running job's document simply
/// has fewer rows).
pub fn job_doc(snapshot: &JobSnapshot) -> Json {
    let configs = match &snapshot.kind {
        JobKind::Grid(spec) => spec.configs.len().max(1),
        JobKind::Apps => 1,
    };
    let emit_start = std::time::Instant::now();
    let mut rows = Vec::new();
    for (index, result) in &snapshot.rows {
        match result.as_ref() {
            UnitResult::Point(point) => {
                rows.push(mom_bench::point_json(point, index % configs));
            }
            UnitResult::Apps(table) => {
                rows.extend(table.iter().map(mom_bench::app_point_json));
            }
        }
    }
    let ms = |nanos: u64| Json::Num(nanos as f64 / 1.0e6);
    let timings = Json::obj([
        ("dedup_ms", ms(snapshot.dedup_nanos)),
        ("queue_wait_ms", ms(snapshot.queue_wait_nanos)),
        ("simulate_ms", ms(snapshot.simulate_nanos)),
        ("emit_ms", ms(emit_start.elapsed().as_nanos() as u64)),
    ]);
    Json::obj([
        ("schema", Json::int(1)),
        ("job", Json::Num(snapshot.id as f64)),
        ("label", Json::str(snapshot.label.clone())),
        ("state", Json::str(snapshot.state.name())),
        ("points", Json::Num(snapshot.total as f64)),
        ("completed", Json::Num(snapshot.completed as f64)),
        ("failed", Json::Num(snapshot.failed as f64)),
        ("scheduled", Json::Num(snapshot.scheduled as f64)),
        ("reused", Json::Num(snapshot.reused() as f64)),
        (
            "errors",
            Json::Arr(snapshot.errors.iter().map(Json::str).collect()),
        ),
        ("timings", timings),
        ("rows", Json::Arr(rows)),
    ])
}

/// The one-line `GET /jobs` listing entry of a snapshot.
pub fn job_entry(snapshot: &JobSnapshot) -> Json {
    Json::obj([
        ("job", Json::Num(snapshot.id as f64)),
        ("label", Json::str(snapshot.label.clone())),
        ("state", Json::str(snapshot.state.name())),
        ("points", Json::Num(snapshot.total as f64)),
        ("completed", Json::Num(snapshot.completed as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom_isa::IsaKind;
    use mom_kernels::KernelId;

    /// The grid variant's parts, as a `Result` so tests can `?`/`unwrap`
    /// with a real error message instead of panicking in a match arm.
    fn as_grid(request: JobRequest) -> Result<(String, ExperimentSpec), String> {
        match request {
            JobRequest::Grid { label, spec } => Ok((label, spec)),
            other => Err(format!("expected a grid, got {other:?}")),
        }
    }

    #[test]
    fn registered_names_resolve_through_the_registry() {
        let doc = Json::obj([("experiment", Json::str("fig4"))]);
        let (label, spec) = as_grid(parse_submit(&doc).unwrap()).unwrap();
        assert_eq!(label, "fig4");
        assert_eq!(spec, find_experiment("fig4").unwrap().spec().unwrap());
        let doc = Json::obj([("experiment", Json::str("app-speedups"))]);
        assert!(matches!(
            parse_submit(&doc).unwrap(),
            JobRequest::Apps { .. }
        ));
        let doc = Json::obj([("experiment", Json::str("fig9000"))]);
        let err = parse_submit(&doc).unwrap_err();
        assert!(err.contains("fig4"), "lists the registry: {err}");
    }

    #[test]
    fn axes_assemble_the_cross_product() {
        let doc = Json::obj([
            (
                "kernels",
                Json::Arr(vec![Json::str("idct"), Json::str("motion1")]),
            ),
            ("isas", Json::str("media")),
            ("widths", Json::Arr(vec![Json::int(2), Json::int(4)])),
            ("memory", Json::Arr(vec![Json::str("l1l2"), Json::int(12)])),
            ("replication", Json::int(128)),
        ]);
        let (label, spec) = as_grid(parse_submit(&doc).unwrap()).unwrap();
        assert_eq!(label, "ad-hoc");
        assert_eq!(spec.kernels, vec![KernelId::Idct, KernelId::Motion1]);
        assert_eq!(spec.isas, IsaKind::MEDIA.to_vec());
        assert_eq!(spec.configs.len(), 4, "2 widths x 2 memories");
        assert_eq!(spec.replication, 128);
    }

    #[test]
    fn bad_axes_report_the_vocabulary() {
        let err = parse_submit(&Json::obj([("frobnicate", Json::Null)])).unwrap_err();
        assert!(err.contains("kernels"), "{err}");
        let err =
            parse_submit(&Json::obj([("kernels", Json::Arr(vec![Json::str("fft")]))])).unwrap_err();
        assert!(err.contains("idct"), "lists valid kernels: {err}");
        let err = parse_submit(&Json::str("not an object")).unwrap_err();
        assert!(err.contains("object"), "{err}");
        let err = parse_submit(&Json::obj([
            ("experiment", Json::str("fig4")),
            ("widths", Json::Arr(vec![Json::int(2)])),
        ]))
        .unwrap_err();
        assert!(err.contains("no other keys"), "{err}");
    }
}
