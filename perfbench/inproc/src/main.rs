//! In-process helpers for `perfbench/run.py`.
//!
//! ```text
//! perfbench-inproc push  --addr HOST:PORT --conn DIR=T1,T2,... [--conn ...] --out DIR
//! perfbench-inproc trace --batch DIR --threads N
//!                        --stream DIR --shards N --lateness SECS --chunk N --every N
//!                        --conn DIR=T1,T2,... [--conn ...] --tenant-config FILE
//!                        --serve-every N --out DIR
//! ```
//!
//! `push` is the measured push-fleet load against a running
//! `logdiver-serve`. `trace` runs the batch, stream and push→serve paths
//! in process, once untraced and once traced, and reports the per-layer
//! numbers. Both write every report they obtain under `--out` for the
//! harness to check, and print one JSON object on stdout.

mod batch;
mod countfs;
mod push;
mod serve;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use logdiver_push::PushPlan;
use logdiver_stream::Source;

use crate::serve::Connection;
use crate::trace::{totals, Tracer};

/// Flags in order; repeatable flags keep every value.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Args(pairs))
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        match self.all(name).as_slice() {
            [one] => Ok(one),
            [] => Err(format!("--{name} is required")),
            _ => Err(format!("--{name} given twice")),
        }
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.get(name)?;
        raw.parse()
            .map_err(|_| format!("--{name} expects a number, got {raw:?}"))
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }
}

/// Reads a corpus directory into one push plan per tenant; absent source
/// files count as empty, as in `logdiver-push`.
fn load_connections(specs: &[&str]) -> Result<Vec<Connection>, String> {
    specs
        .iter()
        .map(|spec| {
            let (dir, tenants) = spec
                .split_once('=')
                .ok_or_else(|| format!("--conn wants DIR=T1,T2,..., got {spec:?}"))?;
            let mut lines: [Vec<String>; 5] = Default::default();
            for source in Source::ALL {
                let path = Path::new(dir).join(source.file_name());
                match std::fs::read_to_string(&path) {
                    Ok(text) => lines[source.index()] = text.lines().map(str::to_string).collect(),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
                }
            }
            Ok(tenants
                .split(',')
                .map(|tenant| PushPlan {
                    tenant: tenant.to_string(),
                    lines: lines.clone(),
                })
                .collect())
        })
        .collect()
}

fn write_reports(dir: &Path, reports: &[(String, String)]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for (tenant, body) in reports {
        let path = dir.join(format!("{tenant}.report"));
        std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// A fresh, empty directory.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn summaries_json(summaries: &[logdiver_push::DeliverySummary]) -> Result<String, String> {
    let items: Result<Vec<String>, _> = summaries.iter().map(serde_json::to_string).collect();
    Ok(format!(
        "[{}]",
        items.map_err(|e| format!("summary: {e}"))?.join(",")
    ))
}

fn cmd_push(args: &Args) -> Result<String, String> {
    args.check_known(&["addr", "conn", "out"])?;
    let conns = load_connections(&args.all("conn"))?;
    let out = push::run(args.get("addr")?, &conns)?;
    write_reports(Path::new(args.get("out")?), &out.reports)?;
    Ok(format!(
        "{{\"wall_s\":{},\"summaries\":{},\"snapshot\":{}}}",
        out.wall_s,
        summaries_json(&out.summaries)?,
        out.snapshot
    ))
}

/// Per-layer metrics by name.
#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn set(&mut self, name: &str, value: impl Into<f64>) {
        self.0.insert(name.to_string(), value.into());
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { -1.0 };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{value}");
        }
        out.push('}');
        out
    }
}

/// Runs `f` untraced, traced, and untraced again; returns the mean
/// untraced wall, the traced wall, and the traced tracer and result.
/// Bracketing the traced run keeps warm-up out of the overhead figure.
fn bracketed<R>(
    mut f: impl FnMut(&Arc<Tracer>) -> Result<R, String>,
) -> Result<(f64, f64, Arc<Tracer>, R), String> {
    let plain = Arc::new(Tracer::new(false));
    let mut timed = |tracer: &Arc<Tracer>| {
        let t0 = Instant::now();
        f(tracer).map(|out| (t0.elapsed().as_secs_f64(), out))
    };
    let (before, _) = timed(&plain)?;
    let tracer = Arc::new(Tracer::new(true));
    let (traced, out) = timed(&tracer)?;
    let (after, _) = timed(&plain)?;
    Ok(((before + after) / 2.0, traced, tracer, out))
}

/// Sets each metric to the summed duration of the spans it names.
fn span_totals(metrics: &mut Metrics, tracer: &Tracer, names: &[(&str, &str)]) {
    let t = totals(&tracer.spans());
    for (span, metric) in names {
        metrics.set(metric, t.get(span).map_or(0.0, |x| x.total_s));
    }
}

/// `{"<span>": [count, total_s, self_s], ...}` for one traced run.
fn spans_json(tracer: &Tracer) -> String {
    let rows: Vec<String> = totals(&tracer.spans())
        .iter()
        .map(|(name, t)| format!("\"{name}\":[{},{},{}]", t.count, t.total_s, t.self_s))
        .collect();
    format!("{{{}}}", rows.join(","))
}

fn cmd_trace(args: &Args) -> Result<String, String> {
    args.check_known(&[
        "batch",
        "threads",
        "stream",
        "shards",
        "lateness",
        "chunk",
        "every",
        "conn",
        "tenant-config",
        "serve-every",
        "out",
    ])?;
    let out_dir = PathBuf::from(args.get("out")?);
    fresh_dir(&out_dir)?;
    let mut m = Metrics::default();
    let mut spans_out: Vec<(String, Arc<Tracer>)> = Vec::new();

    // Batch, serial and at `--threads`.
    let batch_dir = PathBuf::from(args.get("batch")?);
    let threads: usize = args.num("threads")?;
    let mut overhead = Vec::new();
    for (label, n) in [("t1", 1), ("tn", threads)] {
        let (untraced, traced, tracer, out) = bracketed(|tr| batch::analyze(&batch_dir, n, tr))?;
        overhead.push((untraced, traced));
        write_file(
            &out_dir.join(format!("batch-{label}.report")),
            &format!("{}\n", out.report),
        )?;
        let t = totals(&tracer.spans());
        let stage = |name: &str| t.get(name).map_or(0.0, |x| x.total_s);
        m.set(&format!("craylog.parse_s.{label}"), stage("craylog.parse"));
        m.set(&format!("core.filter_s.{label}"), stage("core.filter"));
        m.set(&format!("core.classify_s.{label}"), stage("core.classify"));
        if label == "t1" {
            for (span, metric) in [
                ("input.load", "input.load_s"),
                ("core.coverage", "core.coverage_s"),
                ("core.reconstruct", "core.reconstruct_s"),
                ("core.coalesce", "core.coalesce_s"),
                ("core.metrics", "core.metrics_s"),
                ("core.free", "core.free_s"),
            ] {
                m.set(metric, stage(span));
            }
            let root = t.get("analyze").copied().unwrap_or_default();
            m.set(
                "core.stage_cover",
                1.0 - root.self_s / root.total_s.max(1e-12),
            );
            m.set("core.unexplained_s", root.self_s);
            m.set("input.bytes", out.input_bytes as f64);
            m.set("craylog.lines", out.lines as f64);
            m.set("craylog.quarantined", out.quarantined as f64);
            m.set("core.entries_kept", out.entries_kept as f64);
            m.set("core.runs", out.runs as f64);
            m.set("core.events", out.events as f64);
        } else {
            let root = t.get("analyze").copied().unwrap_or_default();
            m.set(
                "core.stage_cover.tn",
                1.0 - root.self_s / root.total_s.max(1e-12),
            );
        }
        spans_out.push((format!("batch-{label}"), tracer));
    }
    let (u, t) = overhead
        .iter()
        .fold((0.0, 0.0), |acc, x| (acc.0 + x.0, acc.1 + x.1));
    m.set("trace.overhead.batch", t / u - 1.0);

    // Stream with checkpoints.
    let stream_dir = PathBuf::from(args.get("stream")?);
    let params = stream::StreamParams {
        shards: args.num("shards")?,
        lateness_secs: args.num("lateness")?,
        chunk: args.num("chunk")?,
        every: args.num("every")?,
    };
    let state = out_dir.join("stream-state");
    let (untraced, traced, tracer, out) = bracketed(|tr| {
        fresh_dir(&state)?;
        stream::run(&stream_dir, &state.join("stream.ckpt"), params, tr)
    })?;
    m.set("trace.overhead.stream", traced / untraced - 1.0);
    write_file(&out_dir.join("stream.report"), &format!("{}\n", out.report))?;
    span_totals(
        &mut m,
        &tracer,
        &[
            ("stream.read", "stream.read_s"),
            ("stream.accept", "stream.accept_s"),
            ("stream.drain", "stream.drain_s"),
            ("stream.ckpt_capture", "stream.ckpt_capture_s"),
            ("stream.ckpt_serialize", "stream.ckpt_serialize_s"),
            ("stream.ckpt_write", "stream.ckpt_write_s"),
        ],
    );
    let t = totals(&tracer.spans());
    m.set(
        "stream.unexplained_s",
        t.get("stream").map_or(0.0, |x| x.self_s),
    );
    m.set("stream.wall_s", traced);
    m.set("stream.lines", out.lines as f64);
    m.set("stream.late_dropped", out.late_dropped as f64);
    m.set("stream.quarantined", out.quarantined as f64);
    m.set("stream.ckpts", out.ckpts as f64);
    m.set("stream.ckpt_bytes", out.ckpt_bytes as f64);
    m.set("stream.ckpt_last_bytes", out.ckpt_last_bytes as f64);
    spans_out.push(("stream".to_string(), tracer));

    // Push→serve in process.
    let conns = load_connections(&args.all("conn"))?;
    let config_path = args.get("tenant-config")?;
    let tenant_config = std::fs::read_to_string(config_path)
        .map_err(|e| format!("cannot read {config_path}: {e}"))?;
    let serve_state = out_dir.join("serve-state");
    let params = serve::ServeParams {
        state_dir: serve_state.clone(),
        tenant_config,
        checkpoint_every: args.num("serve-every")?,
    };
    let (untraced, traced, tracer, out) = bracketed(|tr| {
        fresh_dir(&serve_state)?;
        serve::run(&conns, &params, tr)
    })?;
    m.set("trace.overhead.serve", traced / untraced - 1.0);
    write_reports(&out_dir.join("serve-reports"), &out.reports)?;
    span_totals(
        &mut m,
        &tracer,
        &[
            ("serve.feed", "serve.feed_s"),
            ("serve.ckpt", "serve.ckpt_s"),
            ("serve.report", "serve.report_s"),
            ("store.write", "store.write_s"),
        ],
    );
    let t = totals(&tracer.spans());
    m.set(
        "serve.unexplained_s",
        t.get("serve").map_or(0.0, |x| x.self_s),
    );
    m.set("serve.wall_s", traced);
    m.set("client.round_trips", out.round_trips as f64);
    m.set(
        "client.retries",
        out.summaries.iter().map(|s| s.retries).sum::<u64>() as f64,
    );
    m.set(
        "client.slept_ms",
        out.summaries.iter().map(|s| s.slept_ms).sum::<u64>() as f64,
    );
    m.set(
        "serve.ckpt_useful_ratio",
        out.useful_tenant_ckpts as f64 / (out.tenant_ckpts.max(1)) as f64,
    );
    m.set("store.writes", out.store_writes as f64);
    m.set("store.bytes", out.store_bytes as f64);
    m.set("serve.shed", out.shed as f64);
    m.set("serve.dups", out.dups as f64);
    m.set("serve.gaps", out.gaps as f64);
    let incomplete = out.summaries.iter().filter(|s| !s.complete).count();
    m.set("client.incomplete", incomplete as f64);
    spans_out.push(("serve".to_string(), tracer));

    let mut spans = Vec::new();
    for (name, tracer) in &spans_out {
        tracer
            .write_tsv(&out_dir.join(format!("spans-{name}.tsv")))
            .map_err(|e| format!("cannot write spans: {e}"))?;
        spans.push(format!("\"{name}\":{}", spans_json(tracer)));
    }
    Ok(format!(
        "{{\"metrics\":{},\"spans\":{{{}}}}}",
        m.json(),
        spans.join(",")
    ))
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) => Args::parse(rest).and_then(|args| match cmd.as_str() {
            "push" => cmd_push(&args),
            "trace" => cmd_trace(&args),
            other => Err(format!("unknown command {other:?}")),
        }),
        None => Err("usage: perfbench-inproc push|trace --flag value ...".to_string()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-inproc: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
