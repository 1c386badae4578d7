//! Shared artifact provenance: one helper, one header format.
//!
//! Every machine-readable artifact the workspace exports — `faults.jsonl`
//! and `chaos.jsonl` campaign outcomes, golden conformance snapshots,
//! sweep journals, `prof.jsonl` — starts with the same flat-JSONL provenance
//! record, so tooling can always answer "which build, which configuration,
//! which seed produced this file?" without per-exporter special cases:
//!
//! ```text
//! {"record":"provenance","version":1,"crate_version":"0.1.0",
//!  "config_fingerprint":"0x00000000deadbeef","seed":42}
//! ```
//!
//! `config_fingerprint` is the policy-normalized [`config_fingerprint`]
//! (crate::sweep::config_fingerprint) of the run's [`ExperimentConfig`]
//! (crate::ExperimentConfig); it and `seed` are `null` for artifacts that
//! span many configurations (e.g. a sweep journal covering a whole
//! matrix). Readers built on the workspace's flat-line parsers skip the
//! record by its `"record"` discriminant, so stamped files stay readable
//! by pre-stamp parsers that ignore unknown records — and the strict
//! parsers (golden snapshots) were taught to accept it.

use crate::jsonl::Record;

/// Value of the `"record"` field identifying a provenance header line.
pub const PROVENANCE_RECORD: &str = "provenance";

/// Version of the provenance record format itself.
pub const PROVENANCE_VERSION: u32 = 1;

/// Renders the one-line provenance header (no trailing newline).
///
/// `config_fingerprint` is rendered in the `{:#018x}` form used by the
/// golden snapshots; `None` fields render as JSON `null`.
pub fn provenance_line(config_fingerprint: Option<u64>, seed: Option<u64>) -> String {
    let r = Record::new(PROVENANCE_RECORD)
        .num("version", PROVENANCE_VERSION)
        .str("crate_version", env!("CARGO_PKG_VERSION"));
    let r = match config_fingerprint {
        Some(f) => r.str("config_fingerprint", format_args!("{f:#018x}")),
        None => r.null("config_fingerprint"),
    };
    match seed {
        Some(s) => r.num("seed", s),
        None => r.null("seed"),
    }
    .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_shape_is_stable() {
        let line = provenance_line(Some(0xdead_beef), Some(42));
        assert_eq!(
            line,
            format!(
                "{{\"record\":\"provenance\",\"version\":1,\"crate_version\":\"{}\",\
                 \"config_fingerprint\":\"0x00000000deadbeef\",\"seed\":42}}",
                env!("CARGO_PKG_VERSION")
            )
        );
        assert!(!line.contains('\n'), "header must be a single flat line");
    }

    #[test]
    fn absent_fields_render_as_null() {
        let line = provenance_line(None, None);
        assert!(line.contains("\"config_fingerprint\":null"));
        assert!(line.contains("\"seed\":null"));
    }
}
