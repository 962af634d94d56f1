//! `hbbp store` — offline maintenance of profile-store segment files:
//! `stats`, `merge`, `compact`.

use crate::args::{parse_all, CliError};
use crate::common::{open_store, sample_totals};
use hbbp_store::ProfileStore;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The maintenance action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreAction {
    /// Describe each store file (identity, frames, recovery report).
    Stats(Vec<PathBuf>),
    /// Merge every source store into `--into` (lossless).
    Merge {
        /// Destination store (created if absent; inherits the first
        /// source's identity).
        into: PathBuf,
        /// Source store files.
        sources: Vec<PathBuf>,
    },
    /// Compact each store file in place (atomic rewrite).
    Compact(Vec<PathBuf>),
}

/// Parsed `hbbp store` options.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// The action and its operands.
    pub action: StoreAction,
}

/// Usage text for `hbbp store`.
pub fn usage() -> String {
    "usage: hbbp store <stats|merge|compact> [options] FILE...\n\
     \n\
     Offline maintenance of profile-store segment files (the `part-*.hbbp`\n\
     files a daemon writes, or any store produced with the library).\n\
     \n\
     actions:\n\
     \x20 stats FILE...       identity, frame counts, sample totals, recovery report\n\
     \x20 merge --into OUT FILE...\n\
     \x20                     losslessly merge each source into OUT (created if\n\
     \x20                     absent; identities must match)\n\
     \x20 compact FILE...     rewrite each log as identity + one folded counts\n\
     \x20                     frame + the window timeline (aggregate preserved\n\
     \x20                     bit-exactly)\n"
        .to_owned()
}

impl StoreOptions {
    /// Parse the subcommand arguments.
    pub fn parse(args: &[String]) -> Result<StoreOptions, CliError> {
        let mut action: Option<String> = None;
        let mut into: Option<PathBuf> = None;
        let mut files: Vec<PathBuf> = Vec::new();
        parse_all(args, |flag, s| {
            match flag {
                "--into" => into = Some(PathBuf::from(s.value("--into")?)),
                "stats" | "merge" | "compact" if action.is_none() => {
                    action = Some(flag.to_owned());
                }
                other if !other.starts_with("--") && action.is_some() => {
                    files.push(PathBuf::from(other));
                }
                other => return Err(s.unknown(other)),
            }
            Ok(Some(()))
        })?;
        let Some(action) = action else {
            return Err(CliError::Usage(
                "store needs an action: stats|merge|compact".into(),
            ));
        };
        if files.is_empty() {
            return Err(CliError::Usage(format!(
                "store {action} needs at least one FILE operand"
            )));
        }
        if action != "merge" && into.is_some() {
            return Err(CliError::Usage(format!(
                "--into is only valid with `store merge` (not `store {action}`)"
            )));
        }
        let action = match action.as_str() {
            "stats" => StoreAction::Stats(files),
            "compact" => StoreAction::Compact(files),
            "merge" => {
                let Some(into) = into else {
                    return Err(CliError::Usage(
                        "store merge needs --into OUT (the destination store)".into(),
                    ));
                };
                StoreAction::Merge {
                    into,
                    sources: files,
                }
            }
            _ => unreachable!("matched above"),
        };
        Ok(StoreOptions { action })
    }

    /// Execute: returns the human summary.
    pub fn run(&self) -> Result<String, CliError> {
        let mut out = String::new();
        match &self.action {
            StoreAction::Stats(files) => {
                for path in files {
                    let store = open_store(path)?;
                    let (ebs, lbr) = sample_totals(&store.partials());
                    let report = store.open_report();
                    let _ = writeln!(out, "{}", path.display());
                    let _ = writeln!(
                        out,
                        "  identity      {}",
                        match store.identity() {
                            Some(id) => format!(
                                "{} ({} blocks, {} modules)",
                                id.program,
                                id.block_count,
                                id.modules.len()
                            ),
                            None => "(none)".to_owned(),
                        }
                    );
                    let _ = writeln!(
                        out,
                        "  counts frames {} ({} sources, ebs {ebs} / lbr {lbr} samples)",
                        store.counts_frames(),
                        store.sources().len()
                    );
                    let _ = writeln!(out, "  window frames {}", store.window_frames());
                    let _ = writeln!(out, "  file bytes    {}", store.file_bytes());
                    if report.truncated_bytes > 0 {
                        let _ = writeln!(
                            out,
                            "  recovered     truncated {} corrupt tail bytes on open",
                            report.truncated_bytes
                        );
                    }
                }
            }
            StoreAction::Merge { into, sources } => {
                // The destination may be created; the sources must exist.
                let mut dest = ProfileStore::open(into).map_err(|e| {
                    CliError::Failed(format!("cannot open {}: {e}", into.display()))
                })?;
                for path in sources {
                    let snap = open_store(path)?.try_snapshot().map_err(|e| {
                        CliError::Failed(format!("cannot read {}: {e}", path.display()))
                    })?;
                    if dest.identity().is_none() {
                        if let Some(id) = &snap.identity {
                            dest.set_identity(id.clone()).map_err(|e| {
                                CliError::Failed(format!("cannot set identity: {e}"))
                            })?;
                        }
                    }
                    dest.merge_from(&snap).map_err(|e| {
                        CliError::Failed(format!("merge of {} failed: {e}", path.display()))
                    })?;
                    let _ = writeln!(
                        out,
                        "merged {} ({} counts, {} windows)",
                        path.display(),
                        snap.counts.len(),
                        snap.windows.len()
                    );
                }
                let _ = writeln!(
                    out,
                    "{}: {} counts frames, {} window frames, {} bytes",
                    into.display(),
                    dest.counts_frames(),
                    dest.window_frames(),
                    dest.file_bytes()
                );
            }
            StoreAction::Compact(files) => {
                for path in files {
                    let mut store = open_store(path)?;
                    let before = store.file_bytes();
                    store
                        .compact()
                        .map_err(|e| CliError::Failed(format!("compact failed: {e}")))?;
                    let _ = writeln!(
                        out,
                        "compacted {}: {} -> {} bytes",
                        path.display(),
                        before,
                        store.file_bytes()
                    );
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn action_and_files_required() {
        let err = StoreOptions::parse(&[]).unwrap_err();
        assert!(err.to_string().contains("needs an action"));
        let err = StoreOptions::parse(&raw(&["stats"])).unwrap_err();
        assert!(err.to_string().contains("at least one FILE"));
    }

    #[test]
    fn merge_requires_into() {
        let err = StoreOptions::parse(&raw(&["merge", "a.hbbp"])).unwrap_err();
        assert!(err.to_string().contains("--into"));
        let opts = StoreOptions::parse(&raw(&["merge", "--into", "out.hbbp", "a.hbbp"])).unwrap();
        assert_eq!(
            opts.action,
            StoreAction::Merge {
                into: PathBuf::from("out.hbbp"),
                sources: vec![PathBuf::from("a.hbbp")],
            }
        );
    }
}
