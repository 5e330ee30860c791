//! Address-hygiene lint: raw integer casts may not touch the address
//! newtypes outside `crates/mem`.
//!
//! `VirtAddr`, `PhysAddr`, `Vpn`, `Ppn`, `Asid` and the derived split
//! types (`SetIndex`, `Tag`, `PageOffset`) exist so address-space
//! quantities cannot be mixed up; a `... as u64` / `... as usize` /
//! `... as u32` / `... as u16` on a line that handles them reopens
//! exactly that hole (and silently truncates — an ASID narrowed with
//! `as u16` drops high bits without a word). `crates/mem` owns the raw
//! representation and is the only place allowed to convert; everyone
//! else goes through `raw()`, `new()`, `index()` and `From` impls.

use crate::walk::scan_source;
use crate::{contains_word, Diagnostic, Workspace};

/// The protected newtype names (see `crates/mem/src/addr.rs`).
const NEWTYPES: &[&str] = &[
    "VirtAddr",
    "PhysAddr",
    "Vpn",
    "Ppn",
    "PageNum",
    "Asid",
    "SetIndex",
    "Tag",
    "PageOffset",
];

const CASTS: &[&str] = &[" as u64", " as usize", " as u32", " as u16"];

/// Runs the address-hygiene lint over every source outside `crates/mem`.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.sources {
        if file.rel_path.starts_with("crates/mem/") {
            continue;
        }
        for line in scan_source(&file.text) {
            let newtype = NEWTYPES.iter().find(|t| contains_word(&line.code, t));
            let cast = CASTS.iter().find(|c| line.code.contains(*c));
            if let (Some(t), Some(c)) = (newtype, cast) {
                out.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: line.line,
                    lint: "address-hygiene",
                    message: format!(
                        "`{}` on a line handling `{t}`: raw casts around address \
                         newtypes are reserved to crates/mem (use raw()/new()/From)",
                        c.trim_start(),
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn ws(path: &str, text: &str) -> Workspace {
        Workspace {
            sources: vec![SourceFile::new(path, text)],
            ..Workspace::default()
        }
    }

    #[test]
    fn flags_cast_next_to_newtype() {
        let text = "let v = VirtAddr::new(x as u64);\n";
        let diags = check(&ws("crates/core/src/vr.rs", text));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("VirtAddr"));
    }

    #[test]
    fn mem_crate_is_exempt() {
        let text = "let v = VirtAddr::new(x as u64);\n";
        assert!(check(&ws("crates/mem/src/addr.rs", text)).is_empty());
    }

    #[test]
    fn flags_asid_truncation_casts() {
        // The regression this test pins: `Asid` was missing from the
        // NEWTYPES table and ` as u16`/` as u32` from CASTS, so an ASID
        // truncation next to the newtype passed silently.
        let text = "let a = Asid::new(next as u16);\n";
        let diags = check(&ws("crates/core/src/vr.rs", text));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("Asid"), "{diags:?}");

        let text = "let wide = SetIndex::new(x) as u32;\n";
        let diags = check(&ws("crates/cache/src/array.rs", text));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("SetIndex"), "{diags:?}");
    }

    #[test]
    fn unrelated_casts_pass() {
        let text = "let n = count as u64;\n";
        assert!(check(&ws("crates/core/src/vr.rs", text)).is_empty());
        // Newtype on the line but no cast.
        assert!(check(&ws(
            "crates/core/src/vr.rs",
            "let v = VirtAddr::new(u64::from(x));\n"
        ))
        .is_empty());
    }
}
