//! The push→serve path in process: `Session`s drive a `ServeCore` the way
//! the TCP daemon would, with each round trip a direct `ServeCore::feed`.
//! Connections take turns one action at a time, as two lockstep clients
//! of one daemon do. The core's own checkpoint cadence is off; the
//! harness calls `checkpoint_all` at the daemon's cadence instead, so
//! each fleet checkpoint is a span of its own.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

use logdiver_push::{Action, DeliverySummary, PushPlan, Session, SessionConfig};
use logdiver_serve::{DaemonConfig, ServeCore};
use logdiver_types::fsio::RealFs;

use crate::countfs::CountingFs;
use crate::trace::Tracer;

/// One connection's tenants, delivered in order.
pub type Connection = Vec<PushPlan>;

#[derive(Debug, Clone)]
pub struct ServeParams {
    pub state_dir: PathBuf,
    pub tenant_config: String,
    pub checkpoint_every: u64,
}

#[derive(Debug, Default)]
pub struct ServeOut {
    /// `(tenant, REPORT body)` in tenant order.
    pub reports: Vec<(String, String)>,
    pub summaries: Vec<DeliverySummary>,
    pub round_trips: u64,
    /// Tenant checkpoints written, and those of tenants that had taken new
    /// lines since their previous checkpoint.
    pub tenant_ckpts: u64,
    pub useful_tenant_ckpts: u64,
    pub store_writes: u64,
    pub store_bytes: u64,
    pub shed: u64,
    pub dups: u64,
    pub gaps: u64,
}

struct Seat {
    queue: VecDeque<Session>,
    conn: Option<u64>,
}

/// Returns the tenant a `PUSH` request addresses.
fn push_tenant(request: &str) -> Option<&str> {
    let mut words = request.split(' ');
    (words.next() == Some("PUSH"))
        .then(|| words.next())
        .flatten()
}

pub fn run(
    conns: &[Connection],
    p: &ServeParams,
    tracer: &Arc<Tracer>,
) -> Result<ServeOut, String> {
    let tr = tracer.as_ref();
    tr.span("serve", || {
        let fs = Arc::new(CountingFs::new(RealFs, Arc::clone(tracer)));
        let daemon = DaemonConfig {
            tenants_dirs: vec![p.state_dir.clone()],
            shards: 1,
            checkpoint_every: 0,
            ..DaemonConfig::default()
        };
        let mut config = daemon.serve_config();
        config.overrides = logdiver_serve::server::parse_tenant_config(&p.tenant_config)?;
        let mut core = ServeCore::with_fs(config, fs.clone())
            .map_err(|e| format!("cannot start the serve core: {e}"))?;

        let mut out = ServeOut::default();
        let mut seats: Vec<Seat> = conns
            .iter()
            .map(|plans| Seat {
                queue: plans
                    .iter()
                    .map(|plan| Session::new(plan.clone(), SessionConfig::default()))
                    .collect(),
                conn: None,
            })
            .collect();
        let mut fresh: BTreeMap<String, u64> = BTreeMap::new();
        let mut applied_at_ckpt = 0u64;

        while seats.iter().any(|s| !s.queue.is_empty()) {
            for seat in seats.iter_mut() {
                let Some(session) = seat.queue.front_mut() else {
                    continue;
                };
                match session.action() {
                    Action::Connect => {
                        seat.conn = Some(core.open_conn());
                        session.on_connected();
                    }
                    Action::Send(line) => {
                        let Some(id) = seat.conn else {
                            session.on_wire_error();
                            continue;
                        };
                        out.round_trips += 1;
                        let framed = format!("{line}\n");
                        let responses = tr.span("serve.feed", || core.feed(id, framed.as_bytes()));
                        let [response] = responses.as_slice() else {
                            return Err(format!("lockstep broken: {} responses", responses.len()));
                        };
                        if response == "OK" {
                            if let Some(tenant) = push_tenant(&line) {
                                *fresh.entry(tenant.to_string()).or_default() += 1;
                            }
                        }
                        session.on_response(response);
                        if core.stats().applied - applied_at_ckpt >= p.checkpoint_every {
                            let hot = core.tenant_names();
                            let written = tr.span("serve.ckpt", || core.checkpoint_all());
                            out.tenant_ckpts += written as u64;
                            out.useful_tenant_ckpts +=
                                hot.iter()
                                    .filter(|t| fresh.get(*t).copied().unwrap_or(0) > 0)
                                    .count() as u64;
                            fresh.clear();
                            applied_at_ckpt = core.stats().applied;
                        }
                    }
                    Action::Sleep(ms) => session.on_slept(ms),
                    Action::Done => {}
                }
                if session.finished() {
                    out.summaries.push(session.summary());
                    seat.queue.pop_front();
                    if let Some(id) = seat.conn.take() {
                        core.close_conn(id);
                    }
                }
            }
        }

        let control = core.open_conn();
        let mut tenants: Vec<String> = conns.iter().flatten().map(|p| p.tenant.clone()).collect();
        tenants.sort();
        for tenant in &tenants {
            let framed = format!("FLUSH {tenant}\nREPORT {tenant}\n");
            let responses = tr.span("serve.report", || core.feed(control, framed.as_bytes()));
            let report = responses
                .get(1)
                .and_then(|frame| frame.split_once('\n'))
                .filter(|(head, _)| head.starts_with("OK lines="))
                .map(|(_, body)| body.to_string())
                .ok_or_else(|| format!("no REPORT for {tenant}: {responses:?}"))?;
            out.reports.push((tenant.clone(), report));
        }

        let stats = core.stats();
        out.shed = stats.shed_quota + stats.shed_budget + stats.shed_overload + stats.shed_draining;
        out.dups = stats.dups;
        out.gaps = stats.gaps;
        out.store_writes = fs.writes();
        out.store_bytes = fs.bytes();
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_tenant_reads_the_second_word_of_a_push_only() {
        assert_eq!(push_tenant("PUSH c0t1 alps 7 2013-03-28 x"), Some("c0t1"));
        assert_eq!(push_tenant("HELLO c0t1"), None);
        assert_eq!(push_tenant("PUSH"), None);
    }
}
