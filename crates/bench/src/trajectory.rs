//! Append-only trajectory files: the one writer behind every
//! `BENCH_*.json`.
//!
//! A trajectory file is one JSON document,
//! `{"schema": 1, "experiment": …, "points": […]}`, written through
//! the workspace codec ([`tinysdr_ota::json`]). [`record`] appends a
//! point under one policy: a quick point replaces the previous quick
//! point, and every other point is kept. A point without `mode` (the
//! points recorded before this writer existed) counts as full, so a
//! smoke run can never clobber a recorded measurement.

use std::io;
use std::path::Path;

use tinysdr_ota::json::Value;

/// Append one point to the trajectory file at `path` for `experiment`.
///
/// The point is `fields` prefixed with `mode` (`"quick"` or `"full"`)
/// and `cores` ([`crate::bench_shards`]). Recording a quick point first
/// drops the file's previous quick point; full and legacy points are
/// never touched. A missing file starts a new trajectory.
///
/// # Errors
/// An I/O failure, or an existing file that does not parse as a
/// trajectory of `experiment` (`InvalidData`). In the second case the
/// file is left byte-for-byte as it was: this never rewrites a file it
/// cannot read.
pub fn record(
    path: impl AsRef<Path>,
    experiment: &str,
    quick: bool,
    fields: Vec<(String, Value)>,
) -> io::Result<()> {
    let path = path.as_ref();
    let mut points = match std::fs::read_to_string(path) {
        Ok(text) => existing_points(&text, experiment).map_err(|msg| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {msg}; left untouched", path.display()),
            )
        })?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    if quick {
        points.retain(|p| p.get("mode").and_then(Value::as_str) != Some("quick"));
    }
    let mode = if quick { "quick" } else { "full" };
    let mut point = vec![
        ("mode".into(), Value::str(mode)),
        ("cores".into(), Value::num(crate::bench_shards() as f64)),
    ];
    point.extend(fields);
    points.push(Value::Obj(point));
    let doc = Value::Obj(vec![
        ("schema".into(), Value::num(1.0)),
        ("experiment".into(), Value::str(experiment)),
        ("points".into(), Value::Arr(points)),
    ]);
    std::fs::write(path, doc.write_pretty())
}

/// `fields` named by the caller's `label` (for example a revision or
/// change name): a leading `label` field when one is given, nothing
/// otherwise.
pub fn labelled(label: Option<&str>, fields: Vec<(String, Value)>) -> Vec<(String, Value)> {
    label
        .map(|text| ("label".to_string(), Value::str(text)))
        .into_iter()
        .chain(fields)
        .collect()
}

/// The points of an existing trajectory document, if it is a schema-1
/// trajectory of `experiment`.
fn existing_points(text: &str, experiment: &str) -> Result<Vec<Value>, String> {
    let doc = Value::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(Value::as_u64) != Some(1) {
        return Err("not a schema-1 trajectory".into());
    }
    match doc.get("experiment").and_then(Value::as_str) {
        Some(found) if found == experiment => {}
        found => return Err(format!("experiment {found:?}, expected {experiment:?}")),
    }
    doc.get("points")
        .and_then(Value::as_arr)
        .map(<[Value]>::to_vec)
        .ok_or_else(|| "no points array".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A fresh, empty scratch path unique to one test.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tinysdr_trajectory_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.json"));
        std::fs::remove_file(&path).ok();
        path
    }

    fn pt(x: f64) -> Vec<(String, Value)> {
        vec![("x".into(), Value::num(x))]
    }

    /// `(mode, x)` of every point in the file, re-parsed from disk.
    fn points(path: &Path) -> Vec<(Option<String>, Option<f64>)> {
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(doc.get("schema").and_then(Value::as_u64), Some(1));
        doc.get("points")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|p| {
                (
                    p.get("mode").and_then(Value::as_str).map(String::from),
                    p.get("x").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    fn mode(m: &str) -> Option<String> {
        Some(m.to_string())
    }

    #[test]
    fn quick_after_full_keeps_the_full_point() {
        let path = scratch("quick_after_full");
        record(&path, "t", false, pt(1.0)).unwrap();
        record(&path, "t", true, pt(2.0)).unwrap();
        assert_eq!(
            points(&path),
            [(mode("full"), Some(1.0)), (mode("quick"), Some(2.0))]
        );
    }

    #[test]
    fn quick_after_quick_replaces_it() {
        let path = scratch("quick_after_quick");
        record(&path, "t", true, pt(1.0)).unwrap();
        record(&path, "t", false, pt(2.0)).unwrap();
        record(&path, "t", true, pt(3.0)).unwrap();
        assert_eq!(
            points(&path),
            [(mode("full"), Some(2.0)), (mode("quick"), Some(3.0))]
        );
    }

    #[test]
    fn full_after_full_appends() {
        let path = scratch("full_after_full");
        record(&path, "t", false, pt(1.0)).unwrap();
        record(&path, "t", false, pt(2.0)).unwrap();
        assert_eq!(
            points(&path),
            [(mode("full"), Some(1.0)), (mode("full"), Some(2.0))]
        );
    }

    #[test]
    fn legacy_point_without_mode_survives_a_quick_write() {
        let path = scratch("legacy");
        let legacy = "{\"schema\": 1, \"experiment\": \"t\", \"points\": [\n\
                      {\"label\": \"pre\", \"x\": 0.500000}]}\n";
        std::fs::write(&path, legacy).unwrap();
        record(&path, "t", true, pt(1.0)).unwrap();
        record(&path, "t", true, pt(2.0)).unwrap();
        assert_eq!(
            points(&path),
            [(None, Some(0.5)), (mode("quick"), Some(2.0))]
        );
    }

    #[test]
    fn new_points_carry_mode_and_cores() {
        let path = scratch("cores");
        record(&path, "t", true, pt(1.0)).unwrap();
        let doc = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("experiment").and_then(Value::as_str), Some("t"));
        let p = &doc.get("points").and_then(Value::as_arr).unwrap()[0];
        let cores = p.get("cores").and_then(Value::as_u64).unwrap();
        assert_eq!(cores, crate::bench_shards() as u64);
    }

    #[test]
    fn unreadable_or_foreign_file_is_an_error_and_left_untouched() {
        let cases: [(&str, &str); 4] = [
            (
                "garbage",
                "{\"schema\": 1, \"experiment\": \"t\", \"points\": [\n",
            ),
            (
                "foreign",
                "{\"schema\": 1, \"experiment\": \"other\", \"points\": []}\n",
            ),
            (
                "schema",
                "{\"schema\": 2, \"experiment\": \"t\", \"points\": []}\n",
            ),
            ("no_points", "{\"schema\": 1, \"experiment\": \"t\"}\n"),
        ];
        for (name, bytes) in cases {
            let path = scratch(&format!("untouched_{name}"));
            std::fs::write(&path, bytes).unwrap();
            for quick in [true, false] {
                let err = record(&path, "t", quick, pt(1.0)).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
                assert_eq!(std::fs::read_to_string(&path).unwrap(), bytes, "{name}");
            }
        }
    }
}
