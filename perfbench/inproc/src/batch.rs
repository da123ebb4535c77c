//! The batch path, `logdiver analyze`, stage by stage: the same public
//! calls `LogDiver::analyze_arena_timed` makes, each wrapped in a span.

use std::path::Path;

use logdiver::coverage::{qualify_runs, CoverageConfig, CoverageMap};
use logdiver::filter::{filter_columns, EntrySource, PatternTable};
use logdiver::input::LogArena;
use logdiver::metrics::compute;
use logdiver::parse::{arena_lines, parse_columns_threads};
use logdiver::workload::reconstruct_records;
use logdiver::{classify, report, Coalescer, LogDiverConfig, MatchIndex, PipelineStats};

use crate::trace::Tracer;

/// What one analysis produced, for the checks and the counters.
#[derive(Debug)]
pub struct BatchOut {
    pub report: String,
    pub input_bytes: u64,
    pub lines: u64,
    pub quarantined: u64,
    pub entries_kept: u64,
    pub runs: u64,
    pub events: u64,
}

/// Analyzes the corpus in `dir` with `threads` workers, as the CLI does,
/// including the report it prints.
pub fn analyze(dir: &Path, threads: usize, tr: &Tracer) -> Result<BatchOut, String> {
    tr.span("analyze", || {
        let config = LogDiverConfig::default();
        let table = PatternTable::default();
        let arena = tr
            .span("input.load", || LogArena::from_dir(dir))
            .map_err(|e| format!("cannot load {}: {e}", dir.display()))?;
        let sources = tr.span("craylog.parse", || arena_lines(&arena));
        let cols = tr.span("craylog.parse", || parse_columns_threads(&sources, threads));
        let (entries, filter_stats) =
            tr.span("core.filter", || filter_columns(&cols, &table, threads));
        let coverage = tr.span("core.coverage", || {
            let mut coverage = CoverageMap::new(CoverageConfig::default());
            for &ts in &cols.syslog.times {
                coverage.observe(EntrySource::Syslog, ts);
            }
            for h in &cols.hwerr {
                coverage.observe(EntrySource::HwErr, h.timestamp);
            }
            for rec in &cols.netwatch {
                coverage.observe(EntrySource::Netwatch, rec.timestamp);
            }
            coverage
        });
        let (runs, jobs, workload_stats) = tr.span("core.reconstruct", || {
            reconstruct_records(&cols.alps, &cols.torque)
        });
        let run_count = runs.len() as u64;
        let (events, duplicates) = tr.span("core.coalesce", || {
            let mut coalescer = Coalescer::new(config.coalesce_gap);
            for e in &entries {
                coalescer.push(e);
            }
            let duplicates = coalescer.duplicates();
            (coalescer.finish(), duplicates)
        });
        let stats = PipelineStats {
            parse: cols.counts,
            filter: filter_stats,
            workload: workload_stats,
            entries: entries.len() as u64,
            duplicates,
            events: events.len() as u64,
            lethal_events: events.iter().filter(|e| e.is_lethal()).count() as u64,
        };
        let (index, classified) = tr.span("core.classify", || {
            let index = MatchIndex::new(events);
            let mut classified =
                classify::classify_runs_threads(runs, &jobs, &index, &config, threads);
            qualify_runs(&mut classified, &coverage.gaps(), &config);
            (index, classified)
        });
        let metrics = tr.span("core.metrics", || compute(&classified, index.events()));
        let report = tr.span("core.report", || report::full_report(&metrics, &stats));
        let out = BatchOut {
            report,
            input_bytes: arena.total_bytes() as u64,
            lines: stats.parse.iter().map(|c| c.total).sum(),
            quarantined: stats.parse.iter().map(|c| c.bad).sum(),
            entries_kept: stats.entries,
            runs: run_count,
            events: stats.events,
        };
        // The CLI frees all of this before it exits; the frees are timed
        // in the order the borrows allow.
        tr.span("core.free", move || {
            drop((classified, index, metrics, entries, coverage, jobs))
        });
        tr.span("core.free", move || drop(cols));
        tr.span("core.free", move || drop(sources));
        tr.span("core.free", move || drop(arena));
        Ok(out)
    })
}
