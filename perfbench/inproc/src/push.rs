//! The push-fleet load: one closed-loop client thread per connection,
//! each calling `logdiver_push::deliver` for its tenants in turn; then one
//! `FLUSH` and one `REPORT` per tenant. The wall time runs from the first
//! connect until the last `REPORT` has arrived.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use logdiver_push::{deliver, DeliverySummary, NetConfig, Session, SessionConfig};

use crate::serve::Connection;

#[derive(Debug)]
pub struct PushOut {
    pub wall_s: f64,
    pub summaries: Vec<DeliverySummary>,
    pub reports: Vec<(String, String)>,
    /// The fleet `SNAPSHOT` JSON, taken after the reports.
    pub snapshot: String,
}

struct Control {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Control {
    fn open(addr: &str) -> std::io::Result<Control> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Control { stream, reader })
    }

    fn line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line.trim_end_matches('\n').to_string())
    }

    fn request(&mut self, request: &str) -> std::io::Result<String> {
        self.stream.write_all(format!("{request}\n").as_bytes())?;
        self.line()
    }

    /// `REPORT <tenant>`: an `OK lines=<n> …` head, then `n` body lines.
    fn report(&mut self, tenant: &str) -> Result<String, String> {
        let head = self
            .request(&format!("REPORT {tenant}"))
            .map_err(|e| e.to_string())?;
        let n: usize = head
            .strip_prefix("OK lines=")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("bad REPORT head for {tenant}: {head}"))?;
        let mut body = String::new();
        for _ in 0..n {
            body.push_str(&self.line().map_err(|e| e.to_string())?);
            body.push('\n');
        }
        Ok(body)
    }
}

pub fn run(addr: &str, conns: &[Connection]) -> Result<PushOut, String> {
    let net = NetConfig {
        addr: addr.to_string(),
        timeout_ms: 30_000,
        max_wall_ms: 150_000,
    };
    let started = Instant::now();
    let summaries: Vec<DeliverySummary> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .map(|plans| {
                let net = &net;
                scope.spawn(move || {
                    plans
                        .iter()
                        .map(|plan| {
                            deliver(Session::new(plan.clone(), SessionConfig::default()), net)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a push connection thread panicked"))
            .collect()
    });

    let mut control = Control::open(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut tenants: Vec<&str> = conns.iter().flatten().map(|p| p.tenant.as_str()).collect();
    tenants.sort_unstable();
    let mut reports = Vec::new();
    for tenant in tenants {
        let flushed = control
            .request(&format!("FLUSH {tenant}"))
            .map_err(|e| e.to_string())?;
        if !flushed.starts_with("OK") {
            return Err(format!("FLUSH {tenant}: {flushed}"));
        }
        reports.push((tenant.to_string(), control.report(tenant)?));
    }
    let wall_s = started.elapsed().as_secs_f64();

    let snapshot = control.request("SNAPSHOT").map_err(|e| e.to_string())?;
    let snapshot = snapshot
        .strip_prefix("OK ")
        .ok_or_else(|| format!("bad SNAPSHOT: {snapshot}"))?
        .to_string();
    let bye = control.request("SHUTDOWN").map_err(|e| e.to_string())?;
    if !bye.starts_with("OK") {
        return Err(format!("SHUTDOWN: {bye}"));
    }
    Ok(PushOut {
        wall_s,
        summaries,
        reports,
        snapshot,
    })
}
