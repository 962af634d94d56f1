//! Table-driven coverage of every subcommand's flag matrix: one row per
//! accepted shape and per diagnosable mistake, with the exact error
//! wording pinned for the malformed `--window` specs and the missing
//! socket-address cases.

use hbbp_cli::args::CliError;
use hbbp_cli::{analyze, query, record, report, serve, store_cmd, synth, watch};

/// What a parse attempt should produce.
enum Want {
    /// Parses cleanly.
    Ok,
    /// `--help` requested.
    Help,
    /// A usage error whose message contains this needle.
    Err(&'static str),
}

struct Case {
    command: &'static str,
    args: &'static [&'static str],
    want: Want,
}

fn parse(command: &str, args: &[&str]) -> Result<(), CliError> {
    let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    match command {
        "record" => record::RecordOptions::parse(&args).map(|_| ()),
        "analyze" => analyze::AnalyzeOptions::parse(&args).map(|_| ()),
        "serve" => serve::ServeOptions::parse(&args).map(|_| ()),
        "query" => query::QueryOptions::parse(&args).map(|_| ()),
        "store" => store_cmd::StoreOptions::parse(&args).map(|_| ()),
        "report" => report::ReportOptions::parse(&args).map(|_| ()),
        "watch" => watch::WatchOptions::parse(&args).map(|_| ()),
        "synth" => synth::SynthOptions::parse(&args).map(|_| ()),
        other => panic!("unknown command {other}"),
    }
}

const MATRIX: &[Case] = &[
    // ---- record ----
    Case {
        command: "record",
        args: &["--out", "p.bin"],
        want: Want::Ok,
    },
    Case {
        command: "record",
        args: &[
            "--out",
            "p.bin",
            "--workload",
            "test40",
            "--scale",
            "small",
            "--cpu-seed",
            "7",
            "--pid",
            "42",
            "--oracle-seed",
            "9",
            "--ebs-period",
            "2003",
            "--lbr-period",
            "401",
        ],
        want: Want::Ok,
    },
    Case {
        command: "record",
        args: &["--daemon", "127.0.0.1:4000", "--source", "3"],
        want: Want::Ok,
    },
    Case {
        command: "record",
        args: &[],
        want: Want::Err("exactly one of --out FILE or --daemon ADDR"),
    },
    Case {
        command: "record",
        args: &["--out", "p.bin", "--daemon", "127.0.0.1:4000"],
        want: Want::Err("exactly one of"),
    },
    Case {
        command: "record",
        args: &["--out", "p.bin", "--daemon", "not-an-addr"],
        want: Want::Err("invalid value `not-an-addr` for --daemon: expected a socket address"),
    },
    Case {
        command: "record",
        args: &["--out", "p.bin", "--scale", "huge"],
        want: Want::Err("invalid value `huge` for --scale: expected tiny|small|full"),
    },
    Case {
        command: "record",
        args: &["--out", "p.bin", "--ebs-period", "0"],
        want: Want::Err("--ebs-period must be > 0"),
    },
    Case {
        command: "record",
        args: &["--out", "p.bin", "--lbr-period", "zero"],
        want: Want::Err("invalid value `zero` for --lbr-period"),
    },
    Case {
        command: "record",
        args: &["--out"],
        want: Want::Err("flag --out expects a value"),
    },
    Case {
        command: "record",
        args: &["--frobnicate"],
        want: Want::Err("unknown flag `--frobnicate`"),
    },
    Case {
        command: "record",
        args: &["--help"],
        want: Want::Help,
    },
    // ---- analyze ----
    Case {
        command: "analyze",
        args: &["p.bin"],
        want: Want::Ok,
    },
    Case {
        command: "analyze",
        args: &[
            "p.bin",
            "--window",
            "samples:1000",
            "--format",
            "json",
            "--rule",
            "cutoff=18",
            "--estimator",
            "ebs",
            "--top",
            "0",
        ],
        want: Want::Ok,
    },
    Case {
        command: "analyze",
        args: &["p.bin", "--window=cycles:500"],
        want: Want::Ok,
    },
    Case {
        command: "analyze",
        args: &[],
        want: Want::Err("analyze needs a RECORDING file operand"),
    },
    Case {
        command: "analyze",
        args: &["p.bin", "--window", "samples"],
        want: Want::Err(
            "invalid value `samples` for --window: expected samples:<n> or cycles:<n> with n > 0",
        ),
    },
    Case {
        command: "analyze",
        args: &["p.bin", "--window", "samples:0"],
        want: Want::Err(
            "invalid value `samples:0` for --window: expected samples:<n> or cycles:<n> with n > 0",
        ),
    },
    Case {
        command: "analyze",
        args: &["p.bin", "--window", "bogus:10"],
        want: Want::Err(
            "invalid value `bogus:10` for --window: expected samples:<n> or cycles:<n> with n > 0",
        ),
    },
    Case {
        command: "analyze",
        args: &["p.bin", "--window", "cycles:many"],
        want: Want::Err("invalid value `cycles:many` for --window"),
    },
    Case {
        command: "analyze",
        args: &["p.bin", "--format", "yaml"],
        want: Want::Err("invalid value `yaml` for --format: expected text|json|csv"),
    },
    Case {
        command: "analyze",
        args: &["p.bin", "--estimator", "magic"],
        want: Want::Err("invalid value `magic` for --estimator: expected hbbp|ebs|lbr"),
    },
    Case {
        command: "analyze",
        args: &["p.bin", "--rule", "sometimes"],
        want: Want::Err("invalid value `sometimes` for --rule"),
    },
    Case {
        // One ingest path: the old fused/owned toggles are gone.
        command: "analyze",
        args: &["p.bin", "--fused"],
        want: Want::Err("unknown flag `--fused`"),
    },
    Case {
        command: "analyze",
        args: &["p.bin", "--no-fused", "--window", "samples:100"],
        want: Want::Err("unknown flag `--no-fused`"),
    },
    Case {
        command: "analyze",
        args: &["a.bin", "b.bin"],
        want: Want::Err("unexpected extra operand `b.bin`"),
    },
    Case {
        command: "analyze",
        args: &["-h"],
        want: Want::Help,
    },
    // ---- serve ----
    Case {
        command: "serve",
        args: &[],
        want: Want::Ok,
    },
    Case {
        command: "serve",
        args: &[
            "--workload",
            "phased",
            "--shards",
            "8",
            "--dir",
            "/tmp/x",
            "--window",
            "cycles:100000",
            "--rule",
            "always-lbr",
        ],
        want: Want::Ok,
    },
    Case {
        command: "serve",
        args: &["--window", "none"],
        want: Want::Ok,
    },
    Case {
        command: "serve",
        args: &["--shards", "0"],
        want: Want::Err("--shards must be > 0"),
    },
    Case {
        command: "serve",
        args: &["--window", "sometimes:5"],
        want: Want::Err("invalid value `sometimes:5` for --window"),
    },
    Case {
        // Zero-size windows never reach the analyzer: the grammar
        // rejects them (same wording as every other window spec error).
        command: "serve",
        args: &["--window", "cycles:0"],
        want: Want::Err(
            "invalid value `cycles:0` for --window: expected samples:<n> or cycles:<n> with n > 0",
        ),
    },
    Case {
        command: "serve",
        args: &["--window", "samples:0"],
        want: Want::Err(
            "invalid value `samples:0` for --window: expected samples:<n> or cycles:<n> with n > 0",
        ),
    },
    Case {
        command: "serve",
        args: &["extra"],
        want: Want::Err("unexpected operand `extra`"),
    },
    Case {
        command: "serve",
        args: &["--help"],
        want: Want::Help,
    },
    // ---- query ----
    Case {
        command: "query",
        args: &["mix", "--addr", "127.0.0.1:4000"],
        want: Want::Ok,
    },
    Case {
        command: "query",
        args: &[
            "top",
            "--addr",
            "127.0.0.1:4000",
            "--k",
            "5",
            "--format",
            "csv",
        ],
        want: Want::Ok,
    },
    Case {
        command: "query",
        args: &["stats", "--addr", "127.0.0.1:4000"],
        want: Want::Ok,
    },
    Case {
        command: "query",
        args: &["compact", "--addr", "127.0.0.1:4000"],
        want: Want::Ok,
    },
    Case {
        command: "query",
        args: &["shutdown", "--addr", "127.0.0.1:4000"],
        want: Want::Ok,
    },
    Case {
        command: "query",
        args: &["epochs", "--addr", "127.0.0.1:4000"],
        want: Want::Ok,
    },
    Case {
        command: "query",
        args: &[
            "drift",
            "--addr",
            "127.0.0.1:4000",
            "--from",
            "0",
            "--to",
            "1",
            "--k",
            "12",
        ],
        want: Want::Ok,
    },
    Case {
        command: "query",
        args: &["drift", "--addr", "127.0.0.1:4000", "--to", "1"],
        want: Want::Err("drift needs --from EPOCH and --to EPOCH"),
    },
    Case {
        command: "query",
        args: &[
            "drift",
            "--addr",
            "127.0.0.1:4000",
            "--from",
            "x",
            "--to",
            "1",
        ],
        want: Want::Err("invalid value `x` for --from: expected an epoch number"),
    },
    Case {
        command: "query",
        args: &["--addr", "127.0.0.1:4000"],
        want: Want::Err(
            "query needs an action: mix|top|stats|epochs|drift|metrics|compact|shutdown",
        ),
    },
    Case {
        command: "query",
        args: &["mix"],
        want: Want::Err("query needs --addr HOST:PORT"),
    },
    Case {
        command: "query",
        args: &["mix", "--addr", "localhost"],
        want: Want::Err("invalid value `localhost` for --addr: expected a socket address"),
    },
    Case {
        command: "query",
        args: &["mix", "--addr"],
        want: Want::Err("flag --addr expects a value"),
    },
    Case {
        command: "query",
        args: &["mix", "stats", "--addr", "127.0.0.1:4000"],
        want: Want::Err("unexpected operand `stats`"),
    },
    Case {
        // An unknown flag written as `--flag=value` reports "unknown
        // flag", not "takes no value" — the handler's error wins.
        command: "query",
        args: &["mix", "--addr", "127.0.0.1:4000", "--workload=phased"],
        want: Want::Err("unknown flag `--workload`"),
    },
    Case {
        command: "query",
        args: &["--help"],
        want: Want::Help,
    },
    // ---- store ----
    Case {
        command: "store",
        args: &["stats", "part-0.hbbp", "part-1.hbbp"],
        want: Want::Ok,
    },
    Case {
        command: "store",
        args: &["merge", "--into", "out.hbbp", "a.hbbp", "b.hbbp"],
        want: Want::Ok,
    },
    Case {
        command: "store",
        args: &["compact", "a.hbbp"],
        want: Want::Ok,
    },
    Case {
        command: "store",
        args: &[],
        want: Want::Err("store needs an action: stats|merge|compact"),
    },
    Case {
        command: "store",
        args: &["stats"],
        want: Want::Err("store stats needs at least one FILE operand"),
    },
    Case {
        command: "store",
        args: &["merge", "a.hbbp"],
        want: Want::Err("store merge needs --into OUT"),
    },
    Case {
        command: "store",
        args: &["vacuum", "a.hbbp"],
        want: Want::Err("unexpected operand `vacuum`"),
    },
    Case {
        command: "store",
        args: &["compact", "--into", "out.hbbp", "a.hbbp"],
        want: Want::Err("--into is only valid with `store merge` (not `store compact`)"),
    },
    Case {
        command: "store",
        args: &["stats", "--into", "out.hbbp", "a.hbbp"],
        want: Want::Err("--into is only valid with `store merge` (not `store stats`)"),
    },
    Case {
        command: "store",
        args: &["--help"],
        want: Want::Help,
    },
    // ---- report ----
    Case {
        command: "report",
        args: &["--recording", "p.bin"],
        want: Want::Ok,
    },
    Case {
        command: "report",
        args: &["--store", "part-0.hbbp", "--timeline", "--format", "csv"],
        want: Want::Ok,
    },
    Case {
        command: "report",
        args: &[
            "--recording",
            "p.bin",
            "--timeline",
            "--window",
            "cycles:1000",
        ],
        want: Want::Ok,
    },
    Case {
        command: "report",
        args: &[],
        want: Want::Err("report needs exactly one of --recording FILE or --store FILE"),
    },
    Case {
        command: "report",
        args: &["--recording", "p.bin", "--store", "s.hbbp"],
        want: Want::Err("exactly one of"),
    },
    Case {
        command: "report",
        args: &["--recording", "p.bin", "--timeline"],
        want: Want::Err("report --timeline over a recording needs --window"),
    },
    Case {
        command: "report",
        args: &["--recording", "p.bin", "--window", "samples:-3"],
        want: Want::Err("invalid value `samples:-3` for --window"),
    },
    Case {
        command: "report",
        args: &["--recording", "p.bin", "--window", "samples:0"],
        want: Want::Err(
            "invalid value `samples:0` for --window: expected samples:<n> or cycles:<n> with n > 0",
        ),
    },
    Case {
        command: "report",
        args: &["--timeline=yes", "--store", "s.hbbp"],
        want: Want::Err("flag --timeline takes no value (got `yes`)"),
    },
    Case {
        command: "report",
        args: &["--help"],
        want: Want::Help,
    },
    // ---- watch ----
    Case {
        command: "watch",
        args: &["p.bin", "--baseline", "s.hbbp"],
        want: Want::Ok,
    },
    Case {
        command: "watch",
        args: &[
            "p.bin",
            "--baseline",
            "s.hbbp",
            "--epoch",
            "3",
            "--window",
            "samples:256",
            "--tolerance",
            "0.1",
            "--rule",
            "always-ebs",
            "--workload",
            "test40",
        ],
        want: Want::Ok,
    },
    Case {
        command: "watch",
        args: &["--baseline", "s.hbbp"],
        want: Want::Err("watch needs a RECORDING file operand"),
    },
    Case {
        command: "watch",
        args: &["p.bin"],
        want: Want::Err("watch needs --baseline STORE.hbbp"),
    },
    Case {
        command: "watch",
        args: &["p.bin", "--baseline", "s.hbbp", "--window", "samples:0"],
        want: Want::Err(
            "invalid value `samples:0` for --window: expected samples:<n> or cycles:<n> with n > 0",
        ),
    },
    Case {
        command: "watch",
        args: &["p.bin", "--baseline", "s.hbbp", "--tolerance", "2"],
        want: Want::Err("--tolerance must be a divergence in (0, 1]"),
    },
    Case {
        command: "watch",
        args: &["p.bin", "--baseline", "s.hbbp", "--epoch", "latest"],
        want: Want::Err("invalid value `latest` for --epoch: expected an epoch number"),
    },
    Case {
        command: "watch",
        args: &["--help"],
        want: Want::Help,
    },
    // ---- synth ----
    Case {
        command: "synth",
        args: &["--store", "s.hbbp"],
        want: Want::Ok,
    },
    Case {
        command: "synth",
        args: &[
            "--store",
            "s.hbbp",
            "--epoch",
            "2",
            "--tolerance",
            "0.05",
            "--max-iters",
            "8",
            "--seed",
            "7",
            "--cpu-seed",
            "11",
            "--blocks",
            "48",
            "--dynamic",
            "200000",
            "--name",
            "int-heavy",
            "--out",
            "spec.json",
            "--format",
            "json",
            "--rule",
            "cutoff=12",
        ],
        want: Want::Ok,
    },
    Case {
        command: "synth",
        args: &["--recording", "p.bin", "--window", "3", "--window-size", "samples:256"],
        want: Want::Ok,
    },
    Case {
        command: "synth",
        args: &["--store", "s.hbbp", "--window", "0"],
        want: Want::Ok,
    },
    Case {
        command: "synth",
        args: &["--addr", "127.0.0.1:4000"],
        want: Want::Ok,
    },
    Case {
        command: "synth",
        args: &[],
        want: Want::Err(
            "synth needs exactly one of --recording FILE, --store FILE or --addr ADDR",
        ),
    },
    Case {
        command: "synth",
        args: &["--recording", "p.bin", "--store", "s.hbbp"],
        want: Want::Err("exactly one of"),
    },
    Case {
        command: "synth",
        args: &["--store", "s.hbbp", "--tolerance", "0"],
        want: Want::Err("--tolerance must be a divergence in (0, 1]"),
    },
    Case {
        command: "synth",
        args: &["--store", "s.hbbp", "--tolerance", "1.5"],
        want: Want::Err("--tolerance must be a divergence in (0, 1]"),
    },
    Case {
        command: "synth",
        args: &["--store", "s.hbbp", "--tolerance", "lots"],
        want: Want::Err("invalid value `lots` for --tolerance: expected a divergence in (0, 1]"),
    },
    Case {
        command: "synth",
        args: &["--store", "s.hbbp", "--max-iters", "0"],
        want: Want::Err("--max-iters must be > 0"),
    },
    Case {
        command: "synth",
        args: &["--store", "s.hbbp", "--window", "first"],
        want: Want::Err("invalid value `first` for --window: expected a window index"),
    },
    Case {
        command: "synth",
        args: &["--recording", "p.bin", "--window", "0", "--window-size", "samples:0"],
        want: Want::Err(
            "invalid value `samples:0` for --window-size: expected samples:<n> or cycles:<n> with n > 0",
        ),
    },
    Case {
        command: "synth",
        args: &["--recording", "p.bin", "--epoch", "1"],
        want: Want::Err("--epoch only applies to a --store target"),
    },
    Case {
        command: "synth",
        args: &["--addr", "127.0.0.1:4000", "--window", "2"],
        want: Want::Err("--window needs a --recording or --store target"),
    },
    Case {
        command: "synth",
        args: &["--store", "s.hbbp", "--epoch", "1", "--window", "2"],
        want: Want::Err("--epoch and --window are mutually exclusive target selections"),
    },
    Case {
        command: "synth",
        args: &["--addr", "nowhere"],
        want: Want::Err("invalid value `nowhere` for --addr: expected a socket address"),
    },
    Case {
        command: "synth",
        args: &["--help"],
        want: Want::Help,
    },
];

#[test]
fn flag_matrix() {
    for (i, case) in MATRIX.iter().enumerate() {
        let got = parse(case.command, case.args);
        match (&case.want, got) {
            (Want::Ok, Ok(())) => {}
            (Want::Help, Err(CliError::Help)) => {}
            (Want::Err(needle), Err(CliError::Usage(message))) => {
                assert!(
                    message.contains(needle),
                    "case {i} ({} {:?}): error `{message}` does not contain `{needle}`",
                    case.command,
                    case.args
                );
            }
            (want, got) => {
                let want = match want {
                    Want::Ok => "Ok".to_owned(),
                    Want::Help => "Help".to_owned(),
                    Want::Err(n) => format!("Usage(..{n}..)"),
                };
                panic!(
                    "case {i} ({} {:?}): wanted {want}, got {got:?}",
                    case.command, case.args
                );
            }
        }
    }
}

#[test]
fn fused_toggles_are_unknown_flags() {
    // `hbbp analyze X --fused` / `--no-fused` end in a usage error (exit
    // 2) before the recording is even opened.
    for flag in ["--fused", "--no-fused"] {
        let args: Vec<String> = ["analyze", "missing.bin", flag]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert_eq!(hbbp_cli::main_impl(&args), 2, "{flag}");
        let err = analyze::AnalyzeOptions::parse(&args[1..]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{flag}: {err:?}");
        assert_eq!(err.to_string(), format!("unknown flag `{flag}`"));
    }
}

#[test]
fn workload_registry_errors_surface_at_run_time_not_parse_time() {
    // Workload names resolve lazily (the registry is consulted by run()),
    // so parse accepts any name...
    let args: Vec<String> = ["--out", "p.bin", "--workload", "nope"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let opts = record::RecordOptions::parse(&args).unwrap();
    // ...and run() rejects it with the registry hint.
    let err = opts.run().unwrap_err();
    assert!(err.to_string().contains("unknown workload `nope`"));
}
