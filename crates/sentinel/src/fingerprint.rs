//! Canonical digests of the Eq.1–7 provenance stream.
//!
//! A latency gate cannot see a *numeric* regression: a refactor that
//! changes Eq.4's output in the ninth decimal place is invisible to
//! timing and to every figure rendered at plot resolution. This module
//! reduces a figure pipeline's provenance records to a per-equation
//! fingerprint — call count plus an FNV-1a digest over canonicalized
//! (function, quantized outputs) lines — checked into
//! `FINGERPRINTS.json`. CI recomputes them per figure bin and fails on
//! drift with a per-equation diff, the numeric analogue of Maly's
//! release-over-release `s_d` tracking.
//!
//! Canonical lines are sorted before hashing, so the digest is
//! independent of thread interleaving; outputs are quantized to 9
//! significant digits (`{:.9e}`), so the gate trips on real numeric
//! drift but not on, say, a change in JSON float formatting.

use std::collections::BTreeMap;

use crate::json::{self, JsonValue};
use crate::{schema, SentinelError};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The fingerprint of one equation within one pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquationFingerprint {
    /// Number of provenance records for this equation.
    pub count: u64,
    /// 16-hex-digit FNV-1a digest of the sorted canonical lines.
    pub digest: String,
}

/// Fingerprints of one figure pipeline: equation id → fingerprint.
pub type PipelineFingerprint = BTreeMap<String, EquationFingerprint>;

/// The contents of `FINGERPRINTS.json`: pipeline name → fingerprints.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FingerprintFile {
    /// Fingerprints keyed by pipeline name (e.g. `figure4`).
    pub pipelines: BTreeMap<String, PipelineFingerprint>,
}

/// FNV-1a 64-bit hash of a byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Quantizes one provenance output value into its canonical text.
fn canonical_value(v: &JsonValue) -> String {
    match v {
        // 9 significant digits: finer than any figure, coarser than ULP
        // churn from e.g. a re-associated sum.
        JsonValue::Num(n) => format!("{n:.9e}"),
        JsonValue::Str(s) => s.clone(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Null => "null".to_string(),
        // Eq.1–7 outputs are scalars; containers get a stable debug form
        // so an unexpected shape still fingerprints deterministically.
        other => format!("{other:?}"),
    }
}

/// Reduces a JSONL capture to per-equation fingerprints.
///
/// Only `"type":"provenance"` records participate; span/event/metric
/// records are ignored, so the same capture can feed both the profiler
/// and the fingerprint gate.
///
/// # Errors
///
/// [`SentinelError::Parse`] on malformed JSON, [`SentinelError::Schema`]
/// when a provenance record lacks `equation`, `function`, or `outputs`.
pub fn fingerprint_jsonl(text: &str) -> Result<PipelineFingerprint, SentinelError> {
    let mut lines_by_eq: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|error| SentinelError::Parse { line: lineno, error })?;
        if v.get("type").and_then(JsonValue::as_str) != Some("provenance") {
            continue;
        }
        let equation = v
            .get("equation")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| schema(lineno, "provenance missing `equation`"))?;
        let function = v
            .get("function")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| schema(lineno, "provenance missing `function`"))?;
        let outputs = match v.get("outputs") {
            Some(JsonValue::Obj(m)) => m,
            _ => return Err(schema(lineno, "provenance missing object `outputs`")),
        };
        // BTreeMap iteration gives sorted output keys for free.
        let rendered: Vec<String> =
            outputs.iter().map(|(k, val)| format!("{k}={}", canonical_value(val))).collect();
        lines_by_eq
            .entry(equation.to_string())
            .or_default()
            .push(format!("{function}({})", rendered.join(",")));
    }
    Ok(lines_by_eq
        .into_iter()
        .map(|(eq, mut lines)| {
            // Sorting makes the digest independent of thread order.
            lines.sort_unstable();
            let digest = fnv1a(lines.join("\n").as_bytes());
            (eq, EquationFingerprint { count: lines.len() as u64, digest: format!("{digest:016x}") })
        })
        .collect())
}

/// Parses a `FINGERPRINTS.json` document.
///
/// # Errors
///
/// [`SentinelError::Parse`] / [`SentinelError::Schema`] on a malformed
/// or mis-shaped document.
pub fn parse_fingerprint_file(text: &str) -> Result<FingerprintFile, SentinelError> {
    let doc = json::parse(text).map_err(|error| SentinelError::Parse { line: 0, error })?;
    let JsonValue::Obj(pipelines) = doc else {
        return Err(schema(0, "top level must be an object of pipelines"));
    };
    let mut out = FingerprintFile::default();
    for (pipeline, eqs) in pipelines {
        let JsonValue::Obj(eqs) = eqs else {
            return Err(schema(0, &format!("pipeline `{pipeline}` must be an object")));
        };
        let mut parsed = PipelineFingerprint::new();
        for (eq, fp) in eqs {
            let count = fp
                .get("count")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| schema(0, &format!("{pipeline}/{eq} missing numeric `count`")))?;
            let digest = fp
                .get("digest")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| schema(0, &format!("{pipeline}/{eq} missing string `digest`")))?
                .to_string();
            parsed.insert(eq, EquationFingerprint { count, digest });
        }
        out.pipelines.insert(pipeline, parsed);
    }
    Ok(out)
}

/// Renders a [`FingerprintFile`] as stable, diff-friendly JSON (sorted
/// keys, one equation per line, trailing newline).
#[must_use]
pub fn render_fingerprint_file(file: &FingerprintFile) -> String {
    let mut out = String::from("{\n");
    for (pi, (pipeline, eqs)) in file.pipelines.iter().enumerate() {
        if pi > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!("  \"{pipeline}\": {{\n"));
        for (ei, (eq, fp)) in eqs.iter().enumerate() {
            if ei > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "    \"{eq}\": {{\"count\": {}, \"digest\": \"{}\"}}",
                fp.count, fp.digest
            ));
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}

/// Compares an actual pipeline fingerprint against the expected one,
/// returning one human-readable line per drifted/missing/new equation.
/// Empty means clean.
#[must_use]
pub fn diff_pipeline(expected: &PipelineFingerprint, actual: &PipelineFingerprint) -> Vec<String> {
    let mut out = Vec::new();
    for (eq, exp) in expected {
        match actual.get(eq) {
            None => out.push(format!("{eq}: missing (expected {} records)", exp.count)),
            Some(act) if act != exp => out.push(format!(
                "{eq}: drift — count {} -> {}, digest {} -> {}",
                exp.count, act.count, exp.digest, act.digest
            )),
            Some(_) => {}
        }
    }
    for (eq, act) in actual {
        if !expected.contains_key(eq) {
            out.push(format!("{eq}: new ({} records, digest {})", act.count, act.digest));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prov(equation: &str, function: &str, outputs: &str) -> String {
        format!(
            "{{\"ts_us\":1,\"thread\":0,\"type\":\"provenance\",\"span\":null,\
             \"equation\":\"{equation}\",\"function\":\"{function}\",\
             \"inputs\":{{}},\"outputs\":{outputs}}}"
        )
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprints_count_and_digest_per_equation() {
        let text = [
            prov("Eq.4", "core::transistor_cost", "{\"c_tr\":1.5e-6}"),
            prov("Eq.4", "core::transistor_cost", "{\"c_tr\":2.5e-6}"),
            prov("Eq.1", "core::defect_density", "{\"d\":0.2}"),
        ]
        .join("\n");
        let fp = fingerprint_jsonl(&text).expect("parses");
        assert_eq!(fp.len(), 2);
        assert_eq!(fp["Eq.4"].count, 2);
        assert_eq!(fp["Eq.1"].count, 1);
        assert_eq!(fp["Eq.4"].digest.len(), 16);
    }

    #[test]
    fn digest_is_independent_of_record_order() {
        let a = prov("Eq.4", "f", "{\"x\":1.0}");
        let b = prov("Eq.4", "f", "{\"x\":2.0}");
        let fwd = fingerprint_jsonl(&format!("{a}\n{b}")).expect("parses");
        let rev = fingerprint_jsonl(&format!("{b}\n{a}")).expect("parses");
        assert_eq!(fwd, rev);
    }

    #[test]
    fn quantization_absorbs_sub_resolution_churn_but_not_drift() {
        let base = fingerprint_jsonl(&prov("Eq.4", "f", "{\"x\":1.00000000001}")).expect("ok");
        let churn = fingerprint_jsonl(&prov("Eq.4", "f", "{\"x\":1.00000000002}")).expect("ok");
        let drift = fingerprint_jsonl(&prov("Eq.4", "f", "{\"x\":1.0001}")).expect("ok");
        assert_eq!(base["Eq.4"].digest, churn["Eq.4"].digest, "12th digit is below resolution");
        assert_ne!(base["Eq.4"].digest, drift["Eq.4"].digest, "4th digit is drift");
    }

    #[test]
    fn file_round_trips_through_render_and_parse() {
        let mut file = FingerprintFile::default();
        let mut p = PipelineFingerprint::new();
        p.insert(
            "Eq.1".to_string(),
            EquationFingerprint { count: 3, digest: "00ff00ff00ff00ff".to_string() },
        );
        file.pipelines.insert("figure1".to_string(), p);
        let text = render_fingerprint_file(&file);
        let back = parse_fingerprint_file(&text).expect("round-trips");
        assert_eq!(back, file);
    }

    #[test]
    fn diff_reports_drift_missing_and_new() {
        let mut expected = PipelineFingerprint::new();
        expected.insert(
            "Eq.1".to_string(),
            EquationFingerprint { count: 1, digest: "a".repeat(16) },
        );
        expected.insert(
            "Eq.2".to_string(),
            EquationFingerprint { count: 1, digest: "b".repeat(16) },
        );
        let mut actual = PipelineFingerprint::new();
        actual.insert(
            "Eq.1".to_string(),
            EquationFingerprint { count: 2, digest: "c".repeat(16) },
        );
        actual.insert(
            "Eq.3".to_string(),
            EquationFingerprint { count: 1, digest: "d".repeat(16) },
        );
        let d = diff_pipeline(&expected, &actual);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().any(|l| l.starts_with("Eq.1: drift")));
        assert!(d.iter().any(|l| l.starts_with("Eq.2: missing")));
        assert!(d.iter().any(|l| l.starts_with("Eq.3: new")));
    }

    #[test]
    fn malformed_fingerprint_files_are_rejected() {
        assert!(parse_fingerprint_file("[]").is_err());
        assert!(parse_fingerprint_file("{\"p\": 3}").is_err());
        assert!(parse_fingerprint_file("{\"p\": {\"Eq.1\": {\"count\": 1}}}").is_err());
    }
}
