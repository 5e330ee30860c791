//! The individual lint passes.

pub mod address;
pub mod determinism;
pub mod doc_drift;
pub mod domain;
pub mod faults;
pub mod injection;
pub mod mutation;
pub mod panic_hygiene;
pub mod protocol;

/// Transition coverage: protocol-spec carries the `coverage.txt` ↔ snoop
/// cross-check, and these tests pin its two ends on the real workspace —
/// the kebab-cased `BusOp` names are the model's op labels, and the
/// checked-in table agrees with the extracted snoop surface.
#[cfg(test)]
mod transitions {
    mod tests {
        use crate::lints::protocol;
        use crate::protocol::kebab_case;
        use crate::walk;
        use crate::Workspace;
        use std::path::Path;

        fn real_workspace() -> Workspace {
            let root = walk::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
            walk::load(&root).expect("load")
        }

        #[test]
        fn kebab_matches_model_labels() {
            assert_eq!(kebab_case("ReadMiss"), "read-miss");
            assert_eq!(kebab_case("ReadModifiedWrite"), "read-modified-write");
            assert_eq!(kebab_case("Update"), "update");
            let ws = real_workspace();
            let txn = ws
                .sources
                .iter()
                .find(|f| f.rel_path == "crates/bus/src/txn.rs")
                .expect("crates/bus/src/txn.rs");
            let (ops, _) = walk::enum_variants(&txn.text, "BusOp");
            assert!(!ops.is_empty(), "no `enum BusOp` in txn.rs");
            let coverage = ws.model_coverage.as_deref().expect("coverage.txt");
            let labels: Vec<&str> = coverage
                .lines()
                .filter(|l| !l.trim_start().starts_with('#'))
                .filter_map(|l| l.split_whitespace().nth(2))
                .collect();
            for op in &ops {
                let label = kebab_case(op);
                assert!(
                    labels.contains(&label.as_str()),
                    "BusOp::{op} ({label}) is not an op label in coverage.txt"
                );
            }
        }

        #[test]
        fn real_workspace_is_clean() {
            let ws = real_workspace();
            assert!(
                ws.model_coverage.is_some(),
                "crates/model/coverage.txt must be checked in"
            );
            assert_eq!(protocol::check(&ws), vec![]);
        }
    }
}
