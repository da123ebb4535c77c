//! The stream path, `logdiver stream --checkpoint FILE`, with the CLI's
//! feeding loop: tail each source file, push up to `chunk` lines per
//! source per round, and checkpoint after every `every` accepted lines
//! and once more at the end. Checkpoints are split into capture
//! (`StreamEngine::checkpoint`), serialize (`StreamCheckpoint::to_bytes`)
//! and write (temp write + fsync + rename), the steps
//! `StreamCheckpoint::write_atomic` takes.

use std::collections::VecDeque;
use std::path::Path;

use logdiver::report;
use logdiver_stream::tail::{FsLogFile, Tailer};
use logdiver_stream::{Source, StreamConfig, StreamEngine};
use logdiver_types::fsio::{Fs, RealFs};
use logdiver_types::SimDuration;

use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct StreamParams {
    pub shards: usize,
    pub lateness_secs: i64,
    pub chunk: usize,
    pub every: u64,
}

#[derive(Debug, Default)]
pub struct StreamOut {
    pub report: String,
    pub lines: u64,
    pub quarantined: u64,
    pub late_dropped: u64,
    pub ckpts: u64,
    pub ckpt_bytes: u64,
    pub ckpt_last_bytes: u64,
}

struct Feed {
    source: Source,
    tail: Tailer<FsLogFile>,
    pending: VecDeque<(String, u64)>,
    offset: u64,
}

pub fn run(
    dir: &Path,
    ckpt_path: &Path,
    p: StreamParams,
    tr: &Tracer,
) -> Result<StreamOut, String> {
    tr.span("stream", || {
        let config = StreamConfig::default()
            .with_lateness(SimDuration::from_secs(p.lateness_secs))
            .with_syslog_shards(p.shards);
        let mut engine = StreamEngine::new(config);
        let mut feeds = Vec::new();
        for source in Source::ALL {
            let path = dir.join(source.file_name());
            if path.is_file() {
                feeds.push(Feed {
                    source,
                    tail: Tailer::new(FsLogFile::new(path)),
                    pending: VecDeque::new(),
                    offset: 0,
                });
            } else {
                engine.close(source);
            }
        }

        let mut out = StreamOut::default();
        let mut since_ckpt = 0u64;
        loop {
            let mut idle = true;
            for f in feeds.iter_mut() {
                if f.pending.is_empty() {
                    let poll = tr
                        .span("stream.read", || f.tail.poll())
                        .map_err(|e| format!("cannot read {}: {e}", f.source.file_name()))?;
                    f.pending.extend(poll.lines.into_iter().zip(poll.ends));
                }
                let taken = tr.span("stream.accept", || {
                    let mut taken = 0;
                    while taken < p.chunk {
                        let Some((line, end)) = f.pending.front() else {
                            break;
                        };
                        engine
                            .push(f.source, line.clone())
                            .map_err(|e| format!("push refused: {e}"))?;
                        f.offset = *end;
                        f.pending.pop_front();
                        taken += 1;
                    }
                    Ok::<_, String>(taken as u64)
                })?;
                since_ckpt += taken;
                idle &= taken == 0;
            }
            if since_ckpt >= p.every {
                checkpoint(&engine, &feeds, ckpt_path, &mut out, tr)?;
                since_ckpt = 0;
            }
            if idle {
                break;
            }
        }
        checkpoint(&engine, &feeds, ckpt_path, &mut out, tr)?;

        let snap = engine.snapshot();
        out.lines = snap.parse.iter().map(|c| c.total).sum();
        out.quarantined = snap.parse.iter().map(|c| c.bad).sum();
        out.late_dropped = snap.late_dropped;
        let analysis = tr.span("stream.drain", || engine.drain());
        out.report = tr.span("stream.report", || {
            report::full_report(&analysis.metrics, &analysis.stats)
        });
        Ok(out)
    })
}

fn checkpoint(
    engine: &StreamEngine,
    feeds: &[Feed],
    path: &Path,
    out: &mut StreamOut,
    tr: &Tracer,
) -> Result<(), String> {
    tr.span("stream.ckpt", || {
        let mut offsets = [0u64; 5];
        for f in feeds {
            offsets[f.source.index()] = f.offset;
        }
        let ckpt = tr.span("stream.ckpt_capture", || engine.checkpoint(offsets));
        let bytes = tr.span("stream.ckpt_serialize", || ckpt.to_bytes());
        let tmp = path.with_extension("ckpt.tmp");
        tr.span("stream.ckpt_write", || {
            RealFs.write(&tmp, &bytes)?;
            RealFs.rename(&tmp, path)
        })
        .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
        out.ckpts += 1;
        out.ckpt_bytes += bytes.len() as u64;
        out.ckpt_last_bytes = bytes.len() as u64;
        Ok(())
    })
}
