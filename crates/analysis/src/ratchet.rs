//! The baseline ratchet of the `address-domain` lint.
//!
//! The lint aggregates its findings to a `(file, function, kind) →
//! lines` site map and pins the per-key counts in a checked-in baseline
//! of `<file> <qualified-fn> <kind> <count>` rows. The ratchet compares
//! today's map against the pin: a key with no row is *new*, a count
//! above its row *grew*, a count below its row *shrank* (the
//! improvement must be recorded by a smaller re-pin), and a row whose
//! key no longer occurs is *stale*. Only an exact match is clean, so
//! the debt can never silently grow and every improvement is recorded.
//! Re-pinning goes through the lint binary's `--write <name>`, which
//! `scripts/check.sh` gates behind a clean tier-1 run (`REPIN=<name>`).

use std::collections::BTreeMap;

use crate::Diagnostic;

/// A flagged site key: `(file, qualified fn, kind)`.
pub type SiteKey = (String, String, String);

/// Flagged sites: key → 1-based lines, one entry per counted
/// occurrence (the pinned count is the vector's length).
pub type Sites = BTreeMap<SiteKey, Vec<usize>>;

/// What one ratcheting lint calls its baseline and its sites.
#[derive(Debug)]
pub struct Ratchet {
    /// The lint identifier diagnostics carry.
    pub lint: &'static str,
    /// The `REPIN=` / `--write` name that re-pins this baseline.
    pub repin: &'static str,
    /// The pinned file, relative to the workspace root.
    pub path: &'static str,
    /// Header lines between the title and the shared format/ratchet
    /// lines, each starting with `# `.
    pub about: &'static str,
    /// What one site is, e.g. `cross-domain flow` (plural: plus `s`).
    pub noun: &'static str,
    /// How to fix a new site other than re-pinning it.
    pub fix: &'static str,
}

/// The re-pin instruction every ratchet and spec diagnostic ends with.
pub fn repin_hint(name: &str) -> String {
    format!(
        "re-pin with `cargo run -p vrcache-analysis --bin lint -- --write {name}` \
         after a clean tier-1 run (`REPIN={name} scripts/check.sh`)"
    )
}

/// `line(s) a, b, …` for at most eight lines.
fn fmt_lines(lines: &[usize]) -> String {
    let rendered: Vec<String> = lines.iter().take(8).map(usize::to_string).collect();
    let tail = if lines.len() > 8 { ", …" } else { "" };
    format!("line(s) {}{tail}", rendered.join(", "))
}

/// The owning crate of a workspace path: `crates/<name>/…` → `<name>`,
/// otherwise the first path component (`tests`, `examples`).
pub fn crate_of(file: &str) -> &str {
    let mut parts = file.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(c)) => c,
        (Some(first), _) => first,
        (None, _) => "",
    }
}

/// A parsed baseline row: pinned count plus the row's own line number.
struct Pin {
    line: usize,
    count: usize,
}

impl Ratchet {
    /// Renders the byte-deterministic baseline: the fixed header plus
    /// one `file qualified-fn kind count` row per site key, sorted.
    pub fn render(&self, sites: &Sites) -> String {
        let mut out = format!(
            "# {} baseline — {}\
             # Format: <file> <qualified-fn> <kind> <count>\n\
             # Ratchet: new sites fail the lint; removed sites demand a re-pin;\n\
             # counts only go down. Regenerate after a clean tier-1 run with\n\
             # `REPIN={} scripts/check.sh` (or the lint binary's\n\
             # `--write {}` flag).\n",
            self.lint, self.about, self.repin, self.repin
        );
        for ((file, qual, kind), lines) in sites {
            out.push_str(&format!("{file} {qual} {kind} {}\n", lines.len()));
        }
        out
    }

    fn diag(&self, file: &str, line: usize, message: String) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line,
            lint: self.lint,
            message,
        }
    }

    fn parse(&self, text: &str) -> (BTreeMap<SiteKey, Pin>, Vec<Diagnostic>) {
        let mut pins = BTreeMap::new();
        let mut diags = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parsed = match fields.as_slice() {
                [file, qual, kind, count] => count
                    .parse::<usize>()
                    .ok()
                    .map(|c| ((file.to_string(), qual.to_string(), kind.to_string()), c)),
                _ => None,
            };
            let Some((key, count)) = parsed else {
                diags.push(self.diag(
                    self.path,
                    idx + 1,
                    "malformed row — expected `<file> <qualified-fn> <kind> <count>`".into(),
                ));
                continue;
            };
            let message = format!("duplicate row for `{} {} {}`", key.0, key.1, key.2);
            let pin = Pin {
                line: idx + 1,
                count,
            };
            if pins.insert(key, pin).is_some() {
                diags.push(self.diag(self.path, idx + 1, message));
            }
        }
        (pins, diags)
    }

    /// Compares today's `sites` against the pinned `baseline` text
    /// (`None` when the file is missing).
    pub fn check(&self, baseline: Option<&str>, sites: &Sites) -> Vec<Diagnostic> {
        let repin = repin_hint(self.repin);
        let Some(text) = baseline else {
            let title = self.lint.trim_end_matches("-hygiene");
            return vec![self.diag(self.path, 0, format!("missing {title} baseline — {repin}"))];
        };
        let (pins, mut out) = self.parse(text);
        let noun = self.noun;
        for (key, lines) in sites {
            let (file, qual, kind) = key;
            let first = lines.first().copied().unwrap_or(0);
            let n = lines.len();
            match pins.get(key) {
                None => out.push(self.diag(
                    file,
                    first,
                    format!(
                        "new {noun} `{kind}` in `{qual}` ({n} at {}) — {} or justify it \
                         and {repin}",
                        fmt_lines(lines),
                        self.fix
                    ),
                )),
                Some(pin) if n > pin.count => out.push(self.diag(
                    file,
                    first,
                    format!(
                        "{noun}s `{kind}` in `{qual}` grew {} → {n} ({}) — the ratchet only \
                         goes down; remove the new {noun} or justify it and {repin}",
                        pin.count,
                        fmt_lines(lines)
                    ),
                )),
                Some(pin) if n < pin.count => out.push(self.diag(
                    self.path,
                    pin.line,
                    format!(
                        "{noun}s `{kind}` in `{qual}` shrank {} → {n} — the improvement \
                         must be recorded: {repin}",
                        pin.count
                    ),
                )),
                Some(_) => {}
            }
        }
        for (key, pin) in &pins {
            if !sites.contains_key(key) {
                out.push(self.diag(
                    self.path,
                    pin.line,
                    format!(
                        "stale row `{} {} {}` — no such {noun} is found today (the code \
                         improved or moved): {repin}",
                        key.0, key.1, key.2
                    ),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATCHET: Ratchet = Ratchet {
        lint: "demo-hygiene",
        repin: "demo",
        path: "crates/analysis/demo_baseline.txt",
        about: "demo sites.\n",
        noun: "demo site",
        fix: "remove it",
    };

    fn sites(rows: &[(&str, &[usize])]) -> Sites {
        rows.iter()
            .map(|(kind, lines)| {
                (
                    ("crates/core/src/vr.rs".into(), "f".into(), kind.to_string()),
                    lines.to_vec(),
                )
            })
            .collect()
    }

    const PIN: &str = "# pinned\ncrates/core/src/vr.rs f clone 2\n";

    #[test]
    fn exact_counts_are_clean_and_new_keys_fail() {
        assert_eq!(RATCHET.check(Some(PIN), &sites(&[("clone", &[3, 4])])), []);
        let diags = RATCHET.check(Some(PIN), &sites(&[("clone", &[3, 4]), ("box", &[9])]));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.starts_with("new demo site `box` in `f`"));
        assert_eq!(
            (diags[0].file.as_str(), diags[0].line),
            ("crates/core/src/vr.rs", 9)
        );
        assert!(diags[0].message.contains("--write demo"), "{diags:#?}");
    }

    #[test]
    fn growth_fails_at_the_site() {
        let diags = RATCHET.check(Some(PIN), &sites(&[("clone", &[3, 4, 5])]));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("grew 2 → 3"), "{diags:#?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn shrinkage_demands_a_smaller_pin() {
        let diags = RATCHET.check(Some(PIN), &sites(&[("clone", &[3])]));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].message.contains("shrank 2 → 1"), "{diags:#?}");
        assert_eq!((diags[0].file.as_str(), diags[0].line), (RATCHET.path, 2));
    }

    #[test]
    fn stale_rows_fail_at_the_pin() {
        let diags = RATCHET.check(Some(PIN), &Sites::new());
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0]
            .message
            .starts_with("stale row `crates/core/src/vr.rs f clone`"));
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn malformed_duplicate_and_missing_baselines_fail() {
        let text = format!("{PIN}not a row\ncrates/core/src/vr.rs f clone x\n{PIN}");
        let diags = RATCHET.check(Some(&text), &sites(&[("clone", &[3, 4])]));
        let lines: Vec<usize> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, [3, 4, 6], "{diags:#?}");
        assert!(diags[0].message.starts_with("malformed row"));
        assert!(diags[1].message.starts_with("malformed row"));
        assert!(diags[2].message.starts_with("duplicate row"));

        let diags = RATCHET.check(None, &Sites::new());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.starts_with("missing demo baseline"));
    }

    #[test]
    fn rendering_is_deterministic_sorted_and_round_trips() {
        let s = sites(&[("clone", &[3, 4]), ("box", &[9])]);
        let text = RATCHET.render(&s);
        assert_eq!(text, RATCHET.render(&s.clone()), "byte-identical");
        assert!(text.starts_with("# demo-hygiene baseline — demo sites.\n# Format:"));
        assert!(text.contains("`REPIN=demo scripts/check.sh`"), "{text}");
        let rows: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(
            rows,
            [
                "crates/core/src/vr.rs f box 1",
                "crates/core/src/vr.rs f clone 2"
            ]
        );
        assert_eq!(RATCHET.check(Some(&text), &s), []);
    }

    #[test]
    fn crate_of_names_the_owning_crate() {
        assert_eq!(crate_of("crates/core/src/vr.rs"), "core");
        assert_eq!(crate_of("examples/quickstart.rs"), "examples");
    }
}
