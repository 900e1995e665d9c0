//! Minimal JSON emitter for the unsafe-audit inventory.
//!
//! `std`-only (no serde): the only thing we serialize is a flat list of
//! [`UnsafeSite`] records, so a tiny string-escaping writer is all that's
//! needed.

use crate::unsafe_audit::UnsafeSite;

/// Escape a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the full inventory as pretty-printed JSON:
/// `{ "generated_by": ..., "total": N, "documented": N, "sites": [...] }`.
pub fn unsafe_inventory(sites: &[UnsafeSite]) -> String {
    let documented = sites.iter().filter(|s| s.documented).count();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"generated_by\": \"filter-lint unsafe-audit\",\n");
    out.push_str(&format!("  \"total\": {},\n", sites.len()));
    out.push_str(&format!("  \"documented\": {},\n", documented));
    out.push_str("  \"sites\": [\n");
    for (i, site) in sites.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"file\": \"{}\", ", escape(&site.file)));
        out.push_str(&format!("\"line\": {}, ", site.line));
        out.push_str(&format!("\"kind\": \"{}\", ", site.kind.label()));
        out.push_str(&format!("\"documented\": {}, ", site.documented));
        out.push_str(&format!("\"safety\": \"{}\"", escape(&site.safety_excerpt)));
        out.push('}');
        if i + 1 < sites.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unsafe_audit::SiteKind;

    #[test]
    fn escapes_and_counts() {
        let sites = vec![
            UnsafeSite {
                file: "a.rs".into(),
                line: 3,
                kind: SiteKind::Block,
                documented: true,
                safety_excerpt: "SAFETY: \"quoted\"".into(),
            },
            UnsafeSite {
                file: "b.rs".into(),
                line: 9,
                kind: SiteKind::Impl,
                documented: false,
                safety_excerpt: String::new(),
            },
        ];
        let json = unsafe_inventory(&sites);
        assert!(json.contains("\"total\": 2"));
        assert!(json.contains("\"documented\": 1"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"kind\": \"impl\""));
    }
}
