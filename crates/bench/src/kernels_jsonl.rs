//! JSONL metric lines emitted by the `exp_kernels` binary.
//!
//! The line formats live here — not inline in the binary — so the
//! golden schema test (`tests/kernels_schema.rs`) and the binary can
//! never drift apart: both call the same constructors. Downstream
//! dashboards key on the **field names and types**, so those are the
//! contract; the values are free to change between runs.

/// The `experiment:"fc"` line: dense vs sparse FC kernel timing.
pub fn fc_line(
    n_in: usize,
    n_out: usize,
    density: f64,
    dense_ns: f64,
    sparse_ns: f64,
    speedup: f64,
) -> String {
    format!(
        "{{\"experiment\":\"fc\",\"n_in\":{n_in},\"n_out\":{n_out},\"density\":{density:.4},\"dense_ns\":{dense_ns:.0},\"sparse_ns\":{sparse_ns:.0},\"speedup\":{speedup:.3}}}\n"
    )
}

/// The `experiment:"structured"` line: dense vs structured-sparse FC
/// kernel timing for one pattern (`"two_four"` or `"bank_balanced"`).
pub fn structured_line(
    pattern: &str,
    n_in: usize,
    n_out: usize,
    density: f64,
    dense_ns: f64,
    sparse_ns: f64,
    speedup: f64,
) -> String {
    format!(
        "{{\"experiment\":\"structured\",\"pattern\":\"{pattern}\",\"n_in\":{n_in},\"n_out\":{n_out},\"density\":{density:.4},\"dense_ns\":{dense_ns:.0},\"sparse_ns\":{sparse_ns:.0},\"speedup\":{speedup:.3}}}\n"
    )
}

/// The `experiment:"gated"` line: the gated FC kernel on one input
/// kind (`"spiking"` for LIF frames, `"dense"` for fully-occupied
/// inputs) — its forward time, the time of its prescan count alone,
/// and its speedup over the dense frame (1 on the dense line).
#[allow(clippy::too_many_arguments)]
pub fn gated_line(
    input: &str,
    n_in: usize,
    n_out: usize,
    block: usize,
    skip_fraction: f64,
    forward_ns: f64,
    prescan_ns: f64,
    speedup: f64,
) -> String {
    format!(
        "{{\"experiment\":\"gated\",\"input\":\"{input}\",\"n_in\":{n_in},\"n_out\":{n_out},\"block\":{block},\"skip_fraction\":{skip_fraction:.4},\"forward_ns\":{forward_ns:.0},\"prescan_ns\":{prescan_ns:.0},\"speedup\":{speedup:.3}}}\n"
    )
}

/// The `experiment:"conv"` line: dense vs sparse conv kernel timing.
pub fn conv_line(
    fin: usize,
    fout: usize,
    hw: usize,
    dense_ns: f64,
    sparse_ns: f64,
    speedup: f64,
) -> String {
    format!(
        "{{\"experiment\":\"conv\",\"fin\":{fin},\"fout\":{fout},\"hw\":{hw},\"dense_ns\":{dense_ns:.0},\"sparse_ns\":{sparse_ns:.0},\"speedup\":{speedup:.3}}}\n"
    )
}

/// Minimal JSON scanner: extracts `(name, type)` pairs from one flat
/// JSONL object line, in order. Types are the JSON primitives the
/// schema contract cares about: `string`, `int`, or `float`.
///
/// This is deliberately not a full JSON parser — the lines are flat
/// objects produced by the constructors above; nesting is out of
/// contract.
pub fn field_schema(line: &str) -> Result<Vec<(String, &'static str)>, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line}"))?;
    let mut out = Vec::new();
    for pair in split_top_level(body) {
        let (name, value) = pair
            .split_once(':')
            .ok_or_else(|| format!("not a key:value pair: {pair}"))?;
        let name = name
            .trim()
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted field name: {name}"))?;
        let value = value.trim();
        let ty = if value.starts_with('"') {
            "string"
        } else if value.parse::<i64>().is_ok() {
            "int"
        } else if value.parse::<f64>().is_ok() {
            "float"
        } else {
            return Err(format!("field {name}: unsupported value {value}"));
        };
        out.push((name.to_string(), ty));
    }
    Ok(out)
}

/// Splits a flat JSON object body on commas outside quoted strings.
fn split_top_level(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in body.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < body.len() {
        out.push(&body[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_extraction_sees_names_and_types_not_values() {
        let a = field_schema(&fc_line(256, 256, 0.25, 10_000.0, 2_000.0, 5.0)).unwrap();
        let b = field_schema(&fc_line(1024, 1024, 0.3091, 99.9, 1.0, 99.9)).unwrap();
        assert_eq!(a, b, "schema must be value-independent");
        assert_eq!(a[0], ("experiment".to_string(), "string"));
        assert!(a.iter().any(|(n, t)| n == "speedup" && *t == "float"));
    }

    #[test]
    fn all_line_kinds_are_flat_parseable_objects() {
        for line in [
            fc_line(1, 2, 0.5, 1.0, 1.0, 1.0),
            structured_line("two_four", 1, 2, 0.5, 1.0, 1.0, 1.0),
            gated_line("spiking", 1, 2, 8, 0.9, 1.0, 1.0, 1.0),
            conv_line(1, 2, 3, 1.0, 1.0, 1.0),
        ] {
            let schema = field_schema(&line).unwrap();
            assert!(schema.len() >= 5);
        }
    }

    #[test]
    fn structured_lines_share_one_schema_across_patterns() {
        let a = field_schema(&structured_line("two_four", 256, 256, 0.5, 9.0, 3.0, 3.0)).unwrap();
        let b = field_schema(&structured_line("bank_balanced", 8, 8, 0.1, 1.0, 1.0, 1.0)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a[1], ("pattern".to_string(), "string"));
    }
}
