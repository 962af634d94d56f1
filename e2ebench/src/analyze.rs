//! The `analyze` workload: the offline `hbbp analyze` entry
//! (`AnalyzeOptions::run`) over a fixed corpus of recordings, in a child
//! process of its own so its CPU and RSS are the entry's alone.

use crate::inputs::{self, Recording};
use crate::report::{Outcome, Trial};
use crate::trace::Layers;
use crate::{sys, Config};
use hbbp_cli::analyze::AnalyzeOptions;
use hbbp_core::{HybridRule, OnlineAnalyzer, Window};
use hbbp_perf::StreamDecoder;
use hbbp_workloads::Scale;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The corpus, recorded under the paper's period policy: registry
/// programs spanning block-map size and block length — `gamess` (587
/// blocks), `test40` (238 branchy blocks), `lbm` (27 long FP blocks) —
/// analyzed whole-run (the workload's streams), and the phase-switching
/// `phased` analyzed as a `samples:512` timeline (its query). Three
/// stream sizes put the stream median inside the middle size class and
/// the p90 inside the largest, never on a boundary between two.
const CORPUS: [(&str, bool); 4] = [
    ("gamess", false),
    ("test40", false),
    ("lbm", false),
    ("phased", true),
];
const WINDOW: u64 = 512;

/// Measured rounds (one pass over every operation) per second of
/// `--seconds`: a fixed operation count, sized so the measured phases
/// last about that long on a 2-vCPU host, and so that at 30 s each trial
/// makes 102 timeline calls: its query p90 has ten samples beyond it.
const ROUNDS_PER_SECOND: f64 = 17.0;

/// A rendered mix: `(mnemonic, count)` in output order.
type MixPairs = Vec<(String, f64)>;

/// What one operation's rendered output must say.
enum Expect {
    /// Whole-run JSON: the record count and the mix, bit for bit.
    Whole { records: u64, mix: MixPairs },
    /// Windowed JSON: per window `(ebs, lbr, mix)`.
    Windowed(Vec<(u64, u64, MixPairs)>),
}

struct Op {
    args: Vec<String>,
    expect: Expect,
    /// Index of the recording in [`Corpus::recordings`].
    input: usize,
    windowed: bool,
    records: u64,
    bytes: u64,
}

/// Everything set-up produced.
pub struct Corpus {
    recordings: Vec<Recording>,
    ops: Vec<Op>,
    /// Mean of the whole-run mix errors against ground truth.
    mix_error_pct: f64,
    truth_ns: u64,
    /// Windows of the windowed operation.
    windows: usize,
}

fn mix_pairs(mix: &hbbp_program::MnemonicMix) -> MixPairs {
    mix.iter().map(|(m, c)| (m.to_string(), c)).collect()
}

/// Generate the corpus for `seed` under `dir`: recordings, ground truth,
/// the expected outputs, and the operation list the child runs.
fn build_corpus(seed: u64, dir: &Path) -> Corpus {
    let made = inputs::par_map(CORPUS.len(), |i| corpus_entry(seed, dir, i));
    let mut recordings = Vec::new();
    let mut ops = Vec::new();
    let mut errors = Vec::new();
    let mut truth_ns = 0u64;
    let mut windows = 0;
    for entry in made {
        truth_ns += entry.truth_ns;
        if let Expect::Windowed(rows) = &entry.op.expect {
            windows = rows.len();
        }
        errors.extend(entry.error);
        recordings.push(entry.rec);
        ops.push(entry.op);
    }
    let manifest: String = ops.iter().map(|op| op.args.join("\t") + "\n").collect();
    std::fs::write(dir.join("ops.txt"), manifest).expect("write op manifest");
    Corpus {
        recordings,
        ops,
        mix_error_pct: errors.iter().sum::<f64>() / errors.len() as f64,
        truth_ns,
        windows,
    }
}

/// One corpus program's recording (written under `dir`), its operation
/// with the expected output, and, whole-run, its mix error.
struct Entry {
    rec: Recording,
    op: Op,
    error: Option<f64>,
    truth_ns: u64,
}

fn corpus_entry(seed: u64, dir: &Path, i: usize) -> Entry {
    let (name, windowed) = CORPUS[i];
    let w = hbbp_cli::registry::resolve(name, Scale::Tiny).expect("corpus program resolves");
    let rec = inputs::record(name, &w, inputs::cpu_seed(seed, i as u64), None);
    let started = Instant::now();
    let truth = inputs::ground_truth(&w);
    let truth_ns = started.elapsed().as_nanos() as u64;
    let analyzer = hbbp_cli::common::analyzer_for(&w).expect("static discovery");
    let path = dir.join(format!("{name}.data"));
    std::fs::write(&path, &rec.bytes).expect("write corpus recording");
    let mut args: Vec<String> = [
        path.to_str().expect("utf-8 path"),
        "--workload",
        name,
        "--scale",
        "tiny",
        "--format",
        "json",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    args.extend([
        "--ebs-period".to_owned(),
        rec.periods.ebs.to_string(),
        "--lbr-period".to_owned(),
        rec.periods.lbr.to_string(),
    ]);
    let mut error = None;
    let expect = if windowed {
        let mut online = OnlineAnalyzer::new(&analyzer, rec.periods, HybridRule::paper_default())
            .with_window(Window::Samples(WINDOW));
        let mut decoder = StreamDecoder::new();
        decoder.feed(&rec.bytes);
        decoder.decode_into(&mut online).expect("corpus decodes");
        decoder.finish().expect("corpus is whole");
        let rows: Vec<_> = online
            .finish()
            .windows
            .iter()
            .map(|w| {
                (
                    w.ebs_samples,
                    w.lbr_samples,
                    mix_pairs(&analyzer.mix(&w.analysis.hbbp.bbec)),
                )
            })
            .collect();
        args.extend(["--window".to_owned(), format!("samples:{WINDOW}")]);
        Expect::Windowed(rows)
    } else {
        let mix = analyzer.mix(&rec.analysis.hbbp.bbec);
        error = Some(inputs::mix_error_pct(&truth, &mix));
        Expect::Whole {
            records: rec.records,
            mix: mix_pairs(&mix),
        }
    };
    let op = Op {
        args,
        expect,
        input: i,
        windowed,
        records: rec.records,
        bytes: rec.bytes.len() as u64,
    };
    Entry {
        rec,
        op,
        error,
        truth_ns,
    }
}

/// The `"mnemonic"`/`"count"` pairs of one rendered JSON mix, in order.
fn parse_mix(text: &str) -> MixPairs {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"mnemonic\": \"") {
        rest = &rest[at + 13..];
        let Some(end) = rest.find('"') else { break };
        let name = rest[..end].to_owned();
        let Some(c) = rest.find("\"count\": ") else {
            break;
        };
        rest = &rest[c + 9..];
        let stop = rest.find(['}', ',']).unwrap_or(rest.len());
        out.push((name, rest[..stop].trim().parse().unwrap_or(f64::NAN)));
        rest = &rest[stop..];
    }
    out
}

/// The unsigned integer after `"key": ` in `text`.
fn parse_field(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let at = text.find(&pat)? + pat.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn same_pairs(a: &[(String, f64)], b: &[(String, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((n, x), (m, y))| n == m && x.to_bits() == y.to_bits())
}

/// Whether `output` is what the operation must render.
fn output_checks(expect: &Expect, output: &str) -> bool {
    match expect {
        Expect::Whole { records, mix } => {
            parse_field(output, "records") == Some(*records) && same_pairs(&parse_mix(output), mix)
        }
        Expect::Windowed(rows) => {
            let got: Vec<&str> = output.split("{\"window\": ").skip(1).collect();
            got.len() == rows.len()
                && got.iter().zip(rows).all(|(seg, (ebs, lbr, mix))| {
                    parse_field(seg, "ebs_samples") == Some(*ebs)
                        && parse_field(seg, "lbr_samples") == Some(*lbr)
                        && same_pairs(&parse_mix(seg), mix)
                })
        }
    }
}

/// A running analyze child.
struct Worker {
    child: Child,
    lines: std::io::Lines<BufReader<ChildStdout>>,
}

impl Worker {
    fn spawn(dir: &Path, rounds: usize) -> Worker {
        let mut child = Command::new(std::env::current_exe().expect("own executable"))
            .arg("analyze-child")
            .arg(dir)
            .arg(rounds.to_string())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the analyze child");
        let stdout = child.stdout.take().expect("piped stdout");
        Worker {
            child,
            lines: BufReader::new(stdout).lines(),
        }
    }

    fn next_line(&mut self) -> String {
        match self.lines.next() {
            Some(Ok(line)) => line,
            _ => {
                let _ = self.child.kill();
                let _ = self.child.wait();
                panic!("analyze child ended early");
            }
        }
    }

    fn wait(mut self) {
        let status = self.child.wait().expect("wait for the analyze child");
        assert!(status.success(), "analyze child failed: {status}");
    }
}

/// One trial of the `analyze` workload: set up the corpus, start the
/// entry's process, warm it up, then time its share of the rounds.
pub fn trial(cfg: &Config, last: bool, out: &mut Outcome, layers: &mut Layers) -> Trial {
    let mut trial = Trial::default();
    let rounds = cfg.ops_per_trial(ROUNDS_PER_SECOND, 2);
    let started = Instant::now();
    crate::reset_dir(&cfg.work);
    let corpus = build_corpus(cfg.seed, &cfg.work);
    let mut worker = Worker::spawn(&cfg.work, rounds);
    let line = worker.next_line();
    assert_eq!(line, "warm", "analyze child handshake");
    trial.metric("setup_s", started.elapsed().as_secs_f64(), "s");

    // The warm-up outputs, checked against the batch oracle.
    for (i, op) in corpus.ops.iter().enumerate() {
        let text =
            std::fs::read_to_string(cfg.work.join(format!("out-{i}.txt"))).unwrap_or_default();
        out.check(output_checks(&op.expect, &text), || {
            format!(
                "analyze {:?}: rendered output differs from analyze_fused",
                op.args
            )
        });
    }

    let mut timed: Vec<(usize, f64)> = Vec::new();
    let (mut records, mut bytes) = (0u64, 0u64);
    let (wall_ns, cpu_ns, hwm_kib) = loop {
        let line = worker.next_line();
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["op", i, ns, ok] => {
                let i: usize = i.parse().expect("op index");
                let op = &corpus.ops[i];
                let ns: f64 = ns.parse().expect("op nanoseconds");
                timed.push((i, ns / 1e6));
                records += op.records;
                bytes += op.bytes;
                out.check(*ok == "1", || {
                    format!("analyze {:?} failed or changed output", op.args)
                });
            }
            ["done", wall, cpu, hwm] => {
                break (
                    wall.parse::<f64>().expect("wall ns"),
                    cpu.parse::<f64>().expect("cpu ns"),
                    hwm.parse::<f64>().expect("hwm"),
                )
            }
            _ => panic!("unexpected analyze child line: {line}"),
        }
    };
    worker.wait();

    let overhead =
        corpus.recordings.iter().map(|r| r.overhead).sum::<f64>() / corpus.recordings.len() as f64;
    let latency = |windowed: bool| -> Vec<f64> {
        timed
            .iter()
            .filter(|(i, _)| corpus.ops[*i].windowed == windowed)
            .map(|(_, ms)| *ms)
            .collect()
    };
    let (streams, queries) = (latency(false), latency(true));
    trial.latencies("stream", &streams);
    trial.latencies("query", &queries);
    trial.metric(
        "records_per_s",
        records as f64 / (wall_ns / 1e9),
        "records/s",
    );
    trial.metric(
        "cpu_ms_per_mb",
        cpu_ns / 1e6 / (bytes as f64 / 1e6),
        "ms/MB",
    );
    trial.metric("peak_rss_mb", hwm_kib / 1024.0, "MB");
    trial.metric("mix_error_pct", corpus.mix_error_pct, "%");
    trial.metric("collection_overhead_pct", overhead * 100.0, "%");
    layers.observe(timed.iter().copied(), []);
    if last {
        out.fact("rounds_per_trial", rounds);
        out.fact("operations_per_round", corpus.ops.len());
        out.fact("streams_per_trial", streams.len());
        out.fact("queries_per_trial", queries.len());
        for rec in &corpus.recordings {
            out.fact(&format!("{}.blocks", rec.workload), rec.blocks);
            out.fact(&format!("{}.bytes", rec.workload), rec.bytes.len());
            out.fact(&format!("{}.records", rec.workload), rec.records);
            out.fact(&format!("{}.periods", rec.workload), rec.periods);
            out.fact(
                &format!("{}.overhead_pct", rec.workload),
                rec.overhead * 100.0,
            );
        }
        out.fact("timeline_windows", corpus.windows);
        if layers.on() {
            layers.analyze(&corpus);
        }
    }
    trial
}

impl Corpus {
    pub fn recordings(&self) -> &[Recording] {
        &self.recordings
    }

    pub fn truth_ns(&self) -> u64 {
        self.truth_ns
    }

    /// Per operation: the recording it analyzes and whether windowed.
    pub fn op_inputs(&self) -> Vec<(usize, bool)> {
        self.ops.iter().map(|op| (op.input, op.windowed)).collect()
    }
}

/// The child side: run every operation once as warm-up (saving its
/// output), signal `warm`, then time `rounds` passes.
pub fn child_main(args: &[String]) -> i32 {
    let [dir, rounds] = args else {
        eprintln!("usage: analyze-child DIR ROUNDS");
        return 2;
    };
    let dir = PathBuf::from(dir);
    let rounds: usize = rounds.parse().expect("round count");
    let manifest = std::fs::read_to_string(dir.join("ops.txt")).expect("read op manifest");
    let ops: Vec<AnalyzeOptions> = manifest
        .lines()
        .map(|l| {
            let args: Vec<String> = l.split('\t').map(str::to_owned).collect();
            AnalyzeOptions::parse(&args).expect("benchmark analyze arguments parse")
        })
        .collect();
    let mut first = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let output = op.run().unwrap_or_else(|e| format!("error: {e}"));
        std::fs::write(dir.join(format!("out-{i}.txt")), &output).expect("write output");
        first.push(output);
    }
    let stdout = std::io::stdout();
    let mut stdout = stdout.lock();
    let _ = writeln!(stdout, "warm");
    let _ = stdout.flush();
    if rounds == 0 {
        return 0;
    }
    let pid = std::process::id();
    let cpu0 = sys::cpu_ns(pid).expect("own schedstat");
    let started = Instant::now();
    let mut lines = Vec::with_capacity(rounds * ops.len());
    for _ in 0..rounds {
        for (i, op) in ops.iter().enumerate() {
            let t = Instant::now();
            let ok = op.run().is_ok_and(|o| o == first[i]);
            lines.push((i, t.elapsed().as_nanos(), ok));
        }
    }
    let wall = started.elapsed().as_nanos();
    let cpu = sys::cpu_ns(pid).expect("own schedstat") - cpu0;
    let hwm = sys::peak_rss_kib(pid).expect("own status");
    for (i, ns, ok) in lines {
        let _ = writeln!(stdout, "op {i} {ns} {}", u8::from(ok));
    }
    let _ = writeln!(stdout, "done {wall} {cpu} {hwm}");
    0
}
