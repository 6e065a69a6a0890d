//! The detector-side state machine behind `aero serve`.
//!
//! [`ServeCore`] owns the [`StreamGovernor`] and is driven by exactly one
//! thread (the server's detector loop, or a test). Every admission,
//! shedding, and drain decision is a pure function of the order in which
//! `handle_*` calls arrive — no wall-clock anywhere — so a service resumed
//! from its WAL and fed the remaining offers reproduces verdicts, counters,
//! and the verdict log bitwise.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

use crate::detector::{DetectorError, DetectorResult};
use crate::online::{FrameDisposition, HealthReport};
use crate::overload::{Admission, GovernedVerdict, RejectReason, StreamGovernor};
use crate::report::{stream_summary_json, to_json, FrameTotals};
use crate::serve::codec::{WireFrame, WireMsg};

/// Service lifecycle. Transitions only forward: `Running` → `Draining` →
/// `Drained`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeState {
    /// Accepting and servicing ingest batches.
    Running,
    /// Drain requested: new ingests are rejected, backlog is being flushed.
    Draining,
    /// Backlog flushed, WAL synced, final summary written.
    Drained,
}

impl ServeState {
    /// Lowercase label for status documents.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Running => "running",
            Self::Draining => "draining",
            Self::Drained => "drained",
        }
    }
}

/// The status document served by [`ServeCore::status_json`].
#[derive(serde::Serialize)]
struct StatusDoc {
    state: &'static str,
    stars: usize,
    replayed: usize,
    offered: usize,
    admitted: usize,
    rejected: usize,
    queue_depth: usize,
    polls: usize,
    flagged_frames: usize,
    flagged_points: usize,
    health: HealthReport,
}

/// Construction options for [`ServeCore`].
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Where to write the verdict log (one line per serviced frame, float
    /// bits in hex — the artefact the bitwise restart test compares).
    /// `None` disables logging.
    pub verdict_log: Option<PathBuf>,
}

/// The single-threaded detector service: multi-tenant admission, the drain
/// lifecycle, the verdict log, and status/summary JSON.
pub struct ServeCore {
    gov: StreamGovernor,
    state: ServeState,
    stars: usize,
    /// Frames recovered from the WAL before the service went live.
    replayed: usize,
    /// Live offers since startup (not counting replay).
    offered: usize,
    admitted: usize,
    rejected: usize,
    flagged_frames: usize,
    flagged_points: usize,
    verdict_log: Option<BufWriter<File>>,
    final_summary: Option<String>,
}

impl std::fmt::Debug for ServeCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeCore")
            .field("state", &self.state)
            .field("stars", &self.stars)
            .field("replayed", &self.replayed)
            .field("offered", &self.offered)
            .finish_non_exhaustive()
    }
}

impl ServeCore {
    /// Wraps a governor (tenant quota already configured in its policy).
    /// The verdict log, if requested, is created fresh — resume rewrites it
    /// from the replayed verdicts via [`absorb_replay`](Self::absorb_replay)
    /// so an interrupted-then-resumed night produces the identical file.
    pub fn new(gov: StreamGovernor, opts: ServeOptions) -> DetectorResult<Self> {
        if gov.policy().tenant_quota.is_none() {
            return Err(DetectorError::Invalid(
                "ServeCore requires OverloadPolicy::tenant_quota (every wire offer is tenanted)"
                    .into(),
            ));
        }
        let verdict_log = match &opts.verdict_log {
            Some(path) => Some(BufWriter::new(
                File::create(path).map_err(|e| {
                    DetectorError::Invalid(format!(
                        "cannot create verdict log {}: {e}",
                        path.display()
                    ))
                })?,
            )),
            None => None,
        };
        let stars = gov.online().num_variates();
        Ok(Self {
            gov,
            state: ServeState::Running,
            stars,
            replayed: 0,
            offered: 0,
            admitted: 0,
            rejected: 0,
            flagged_frames: 0,
            flagged_points: 0,
            verdict_log,
            final_summary: None,
        })
    }

    /// Folds the verdicts replayed by [`StreamGovernor::resume_wal`] into the
    /// night's tallies and rewrites the verdict log with them, so the log and
    /// summary of a resumed run match an uninterrupted one byte for byte.
    pub fn absorb_replay(
        &mut self,
        verdicts: &[GovernedVerdict],
        frames_replayed: usize,
    ) -> DetectorResult<()> {
        self.replayed = frames_replayed;
        for v in verdicts {
            self.record(v)?;
        }
        Ok(())
    }

    /// Stars per frame the wrapped detector expects.
    pub fn stars(&self) -> usize {
        self.stars
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ServeState {
        self.state
    }

    /// Live offers so far (excludes WAL replay). A reconnecting client asks
    /// for this via `Status` and skips what the server already has — the
    /// server's WAL, not the client's memory, is the source of truth.
    pub fn offered(&self) -> usize {
        self.offered
    }

    fn record(&mut self, v: &GovernedVerdict) -> DetectorResult<()> {
        if v.verdict.disposition == FrameDisposition::Scored && v.verdict.any_anomalous() {
            self.flagged_frames += 1;
            self.flagged_points += v.verdict.flagged().len();
        }
        if let Some(log) = self.verdict_log.as_mut() {
            // One line per serviced frame, every float as raw bits: the
            // restart test compares these files bytewise.
            let mut line = String::with_capacity(24 + 9 * v.verdict.stars.len());
            let _ = write!(line, "{:016x}", v.verdict.timestamp.to_bits());
            let mut mask = String::new();
            for (i, star) in v.verdict.stars.iter().enumerate() {
                let _ = write!(line, " {:08x}", star.score.to_bits());
                if star.anomalous {
                    let _ = write!(mask, "{}{i}", if mask.is_empty() { "" } else { "+" });
                }
            }
            let _ = writeln!(line, " [{mask}]");
            log.write_all(line.as_bytes())
                .map_err(|e| DetectorError::Invalid(format!("verdict log write failed: {e}")))?;
        }
        Ok(())
    }

    /// One ingest batch from `tenant`: service one poll, then offer every
    /// frame through the governor's tenant path (the wire batch is the
    /// arrival tick — same offer/poll interleaving as `aero stream`'s burst
    /// schedule). The poll comes *first* so it is recorded in this batch's
    /// own first offer's WAL meta word: a server killed between batches
    /// loses no poll from its log, and a `--resume`d run re-executes the
    /// interleaving bitwise. Errors are structural (frame width, WAL I/O)
    /// and poison the connection, never the detector.
    pub fn handle_ingest(
        &mut self,
        tenant: u32,
        seq: u64,
        frames: &[WireFrame],
    ) -> DetectorResult<WireMsg> {
        if self.state != ServeState::Running {
            // Draining rejections are service-level: they are not offered to
            // the governor and not WAL'd, so replay of the WAL never has to
            // reproduce a shutdown that the resumed process is not in.
            return Ok(WireMsg::Reject {
                seq,
                reason: RejectReason::Draining,
                admitted: 0,
                rejected: frames.len() as u16,
            });
        }
        if let Some(v) = self.gov.poll()? {
            self.record(&v)?;
        }
        let mut admitted = 0u16;
        let mut rejected = 0u16;
        let mut first_reason = None;
        let mut depth = self.gov.queue_depth();
        for frame in frames {
            if frame.values.len() != self.stars {
                return Err(DetectorError::Invalid(format!(
                    "frame width changed: expected {}, got {}",
                    self.stars,
                    frame.values.len()
                )));
            }
            self.offered += 1;
            match self.gov.offer_from(tenant, frame.timestamp, &frame.values)? {
                Admission::Accepted { depth: d } => {
                    admitted += 1;
                    self.admitted += 1;
                    depth = d;
                }
                Admission::Rejected { reason, depth: d } => {
                    rejected += 1;
                    self.rejected += 1;
                    first_reason.get_or_insert(reason);
                    depth = d;
                }
            }
        }
        Ok(match first_reason {
            None => WireMsg::Ack { seq, admitted, depth: depth as u32 },
            Some(reason) => WireMsg::Reject { seq, reason, admitted, rejected },
        })
    }

    /// The status document (the `/health` analogue, served on the same
    /// wire): lifecycle, frame totals, and the full nested health report.
    pub fn status_json(&self) -> String {
        to_json(&StatusDoc {
            state: self.state.label(),
            stars: self.stars,
            replayed: self.replayed,
            offered: self.offered,
            admitted: self.admitted,
            rejected: self.rejected,
            queue_depth: self.gov.queue_depth(),
            polls: self.gov.polls(),
            flagged_frames: self.flagged_frames,
            flagged_points: self.flagged_points,
            health: self.gov.online().health().clone(),
        })
    }

    /// The end-of-night summary (same shape as `aero stream`'s).
    pub fn summary_json(&self) -> String {
        stream_summary_json(
            self.gov.online().health(),
            &self.gov.online().supervisor().stats(),
            FrameTotals {
                replayed: self.replayed,
                offered: self.offered,
                flagged_frames: self.flagged_frames,
                flagged_points: self.flagged_points,
            },
        )
    }

    /// Graceful drain: stop admitting, flush the entire backlog through the
    /// detector, fsync the WAL, flush the verdict log, and freeze the final
    /// summary. Idempotent — a second drain returns the frozen summary.
    pub fn handle_drain(&mut self) -> DetectorResult<String> {
        if let Some(summary) = &self.final_summary {
            return Ok(summary.clone());
        }
        self.state = ServeState::Draining;
        let backlog = self.gov.drain()?;
        for v in &backlog {
            self.record(v)?;
        }
        if let Some(log) = self.verdict_log.as_mut() {
            log.flush()
                .and_then(|_| log.get_ref().sync_all())
                .map_err(|e| DetectorError::Invalid(format!("verdict log sync failed: {e}")))?;
        }
        if let Some(mut wal) = self.gov.take_wal() {
            wal.sync()?;
            self.gov.attach_wal(wal)?;
        }
        self.state = ServeState::Drained;
        let summary = self.summary_json();
        self.final_summary = Some(summary.clone());
        Ok(summary)
    }

    /// Consumes the core, returning the governor (tests inspect health and
    /// counters through it).
    pub fn into_governor(self) -> StreamGovernor {
        self.gov
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AeroConfig;
    use crate::model::Aero;
    use crate::online::{DegradePolicy, OnlineAero};
    use crate::overload::{OverloadPolicy, TenantQuota};
    use crate::Detector;
    use aero_datagen::SyntheticConfig;
    use aero_evt::PotConfig;

    /// Trains the tiny model once per test binary; each test reassembles a
    /// bitwise copy from its backbone and star deltas.
    fn fresh_model() -> Aero {
        type Parts = (crate::model::BackboneSnapshot, Vec<crate::model::StarDelta>);
        static PARTS: std::sync::OnceLock<Parts> = std::sync::OnceLock::new();
        let (backbone, deltas) = PARTS.get_or_init(|| {
            let dataset = SyntheticConfig::tiny(11).build();
            let mut cfg = AeroConfig::tiny();
            cfg.max_epochs = 2;
            let mut model = Aero::new(cfg).unwrap();
            model.fit(&dataset.train).unwrap();
            let deltas = (0..dataset.num_variates())
                .map(|v| model.star_delta(v).unwrap())
                .collect();
            (model.backbone().unwrap(), deltas)
        });
        Aero::from_backbone(backbone, deltas).unwrap()
    }

    fn fresh_online() -> OnlineAero {
        let model = fresh_model();
        let dataset = SyntheticConfig::tiny(11).build();
        OnlineAero::with_policy(
            model,
            &dataset.train,
            PotConfig::default(),
            DegradePolicy::default(),
        )
        .unwrap()
    }

    fn tiny_core(queue_cap: usize, quota: TenantQuota) -> (ServeCore, usize) {
        let online = fresh_online();
        let stars = online.num_variates();
        let policy = OverloadPolicy {
            queue_capacity: queue_cap,
            high_watermark: queue_cap / 2,
            low_watermark: (queue_cap / 8).max(1),
            tenant_quota: Some(quota),
            ..OverloadPolicy::default()
        };
        let gov = StreamGovernor::with_policy(online, policy).unwrap();
        (ServeCore::new(gov, ServeOptions::default()).unwrap(), stars)
    }

    fn batch(stars: usize, t0: f64, n: usize) -> Vec<WireFrame> {
        (0..n)
            .map(|i| WireFrame { timestamp: t0 + i as f64, values: vec![0.1; stars] })
            .collect()
    }

    #[test]
    fn requires_tenant_quota() {
        let gov = StreamGovernor::new(fresh_online()).unwrap();
        assert!(ServeCore::new(gov, ServeOptions::default()).is_err());
    }

    #[test]
    fn ingest_acks_and_polls() {
        let (mut core, stars) = tiny_core(64, TenantQuota::default());
        let reply = core.handle_ingest(3, 1, &batch(stars, 0.0, 2)).unwrap();
        let WireMsg::Ack { seq, admitted, .. } = reply else {
            panic!("expected ack, got {reply:?}")
        };
        assert_eq!((seq, admitted), (1, 2));
        assert_eq!(core.offered(), 2);
        // The poll precedes the offers (it services the *previous* batch),
        // so the first batch leaves both frames queued …
        assert!(core.status_json().contains("\"queue_depth\":2"));
        // … and the second batch's leading poll services one of them.
        core.handle_ingest(3, 2, &batch(stars, 2.0, 1)).unwrap();
        assert!(core.status_json().contains("\"queue_depth\":2"));
        assert!(core.status_json().contains("\"polls\":1"));
    }

    #[test]
    fn quota_exhaustion_is_typed() {
        let (mut core, stars) = tiny_core(64, TenantQuota { burst: 1, refill_per_poll: 0 });
        // Burst of 1: first frame admitted, second rejected on quota.
        let reply = core.handle_ingest(0, 7, &batch(stars, 0.0, 3)).unwrap();
        let WireMsg::Reject { seq, reason, admitted, rejected } = reply else {
            panic!("expected reject, got {reply:?}")
        };
        assert_eq!(seq, 7);
        assert_eq!(reason, RejectReason::QuotaExceeded);
        assert_eq!((admitted, rejected), (1, 2));
    }

    #[test]
    fn drain_rejects_further_ingest_and_freezes_summary() {
        let (mut core, stars) = tiny_core(64, TenantQuota::default());
        core.handle_ingest(0, 1, &batch(stars, 0.0, 4)).unwrap();
        let summary = core.handle_drain().unwrap();
        assert_eq!(core.state(), ServeState::Drained);
        assert!(summary.starts_with("{\"frames\":"), "{summary}");
        // Backlog fully flushed.
        assert!(core.status_json().contains("\"queue_depth\":0"));
        let reply = core.handle_ingest(0, 2, &batch(stars, 10.0, 1)).unwrap();
        assert!(
            matches!(reply, WireMsg::Reject { reason: RejectReason::Draining, .. }),
            "{reply:?}"
        );
        // Idempotent: second drain returns the same frozen document.
        assert_eq!(core.handle_drain().unwrap(), summary);
    }

    #[test]
    fn width_mismatch_is_an_error_not_a_panic() {
        let (mut core, stars) = tiny_core(64, TenantQuota::default());
        let bad = vec![WireFrame { timestamp: 0.0, values: vec![0.0; stars + 1] }];
        assert!(core.handle_ingest(0, 1, &bad).is_err());
        // The detector survives: a good batch still works.
        let ok = core.handle_ingest(0, 2, &batch(stars, 1.0, 1)).unwrap();
        assert!(matches!(ok, WireMsg::Ack { .. }));
    }

    #[test]
    fn status_json_nests_health() {
        let (core, _) = tiny_core(64, TenantQuota::default());
        let status = core.status_json();
        assert!(status.contains("\"state\":\"running\""), "{status}");
        assert!(status.contains("\"health\":{"), "{status}");
        assert!(status.contains("\"overload\":{"), "{status}");
        assert!(status.contains("\"tenants\":["), "{status}");
    }
}
