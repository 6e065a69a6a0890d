//! Event reporting: turns point-wise anomaly flags into a ranked catalog of
//! candidate celestial events — the artefact an astronomer actually reviews.
//!
//! Nearby flagged points on the same star are merged into one event (real
//! flares produce runs of flags with occasional gaps); events are ranked by
//! peak score and annotated with duration and peak position.

use aero_tensor::Matrix;
use aero_timeseries::LabelGrid;

use crate::fleet::FleetHealth;
use crate::online::HealthReport;
use crate::supervisor::SupervisorStats;

/// Renders one JSON document — the status, drain, stream, fleet, WAL-scrub
/// and load-generator documents all go through here. The vendored
/// `serde_json` writer renders a value tree and never fails; a document
/// struct has no map keys or custom serializers that could.
pub fn to_json<T: serde::Serialize>(doc: &T) -> String {
    serde_json::to_string(doc).unwrap_or_default()
}

/// [`HealthReport`] as a JSON object, overload counters and tenant lanes
/// nested inside.
pub fn health_json(health: &HealthReport) -> String {
    to_json(health)
}

/// The `frames` section of the stream, fleet and drain summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct FrameTotals {
    /// Frames recovered from the WAL before live streaming resumed.
    pub replayed: usize,
    /// Frames offered live.
    pub offered: usize,
    /// Frames with at least one star above threshold.
    pub flagged_frames: usize,
    /// Star-points above threshold.
    pub flagged_points: usize,
}

/// End-of-run summary document.
#[derive(serde::Serialize)]
struct StreamSummary {
    frames: FrameTotals,
    supervisor: SupervisorStats,
    health: HealthReport,
}

/// End-of-run machine-readable summary shared by `aero stream` and the
/// `aero serve` drain response: frame totals, supervision stats, and the
/// full health report (overload counters and tenant lanes nested inside)
/// on one line.
pub fn stream_summary_json(
    health: &HealthReport,
    sup: &SupervisorStats,
    frames: FrameTotals,
) -> String {
    to_json(&StreamSummary { frames, supervisor: *sup, health: health.clone() })
}

/// One candidate event on one star.
#[derive(Debug, Clone, PartialEq)]
pub struct EventCandidate {
    /// Star (variate) index.
    pub star: usize,
    /// First flagged timestamp index.
    pub start: usize,
    /// Last flagged timestamp index (inclusive).
    pub end: usize,
    /// Timestamp index of the peak score.
    pub peak_at: usize,
    /// Peak anomaly score inside the event.
    pub peak_score: f32,
    /// Mean anomaly score over the event span.
    pub mean_score: f32,
}

impl EventCandidate {
    /// Duration in samples.
    pub fn duration(&self) -> usize {
        self.end - self.start + 1
    }
}

/// Builds the event catalog from flags and scores.
///
/// Flag runs separated by at most `merge_gap` unflagged samples are merged
/// into one event. Events are returned sorted by descending peak score.
pub fn build_catalog(flags: &LabelGrid, scores: &Matrix, merge_gap: usize) -> Vec<EventCandidate> {
    debug_assert_eq!(flags.rows(), scores.rows());
    debug_assert_eq!(flags.cols(), scores.cols());
    let mut events = Vec::new();
    for star in 0..flags.rows() {
        let row = flags.row(star);
        let mut spans: Vec<(usize, usize)> = Vec::new();
        let mut current: Option<(usize, usize)> = None;
        for (t, &flagged) in row.iter().enumerate() {
            if flagged {
                current = match current {
                    Some((s, e)) if t <= e + merge_gap + 1 => Some((s, t)),
                    Some(span) => {
                        spans.push(span);
                        Some((t, t))
                    }
                    None => Some((t, t)),
                };
            }
        }
        if let Some(span) = current {
            spans.push(span);
        }
        for (start, end) in spans {
            let mut peak_at = start;
            let mut peak = f32::MIN;
            let mut sum = 0.0f32;
            for t in start..=end {
                let s = scores.get(star, t);
                sum += s;
                if s > peak {
                    peak = s;
                    peak_at = t;
                }
            }
            events.push(EventCandidate {
                star,
                start,
                end,
                peak_at,
                peak_score: peak,
                mean_score: sum / (end - start + 1) as f32,
            });
        }
    }
    events.sort_by(|a, b| {
        b.peak_score
            .partial_cmp(&a.peak_score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    events
}

/// Renders the catalog as a fixed-width report (top `limit` events).
pub fn render_catalog(events: &[EventCandidate], timestamps: &[f64], limit: usize) -> String {
    let mut out = String::from(
        "rank  star   start      end        peak@      duration  peak score  mean score\n",
    );
    for (i, e) in events.iter().take(limit).enumerate() {
        let ts = |idx: usize| {
            timestamps
                .get(idx)
                .map(|t| format!("{t:<10.1}"))
                .unwrap_or_else(|| format!("{idx:<10}"))
        };
        out.push_str(&format!(
            "{:<5} {:<6} {} {} {} {:<9} {:<11.4} {:<10.4}\n",
            i + 1,
            e.star,
            ts(e.start),
            ts(e.end),
            ts(e.peak_at),
            e.duration(),
            e.peak_score,
            e.mean_score
        ));
    }
    if events.len() > limit {
        out.push_str(&format!("… and {} more\n", events.len() - limit));
    }
    out
}

/// Renders a [`FleetHealth`] rollup as a fixed-width operator table: one row
/// per shard (state, stars, emitted verdicts, queue depth, accepted/shed
/// frames, last error) plus a fleet-wide summary line.
pub fn render_fleet_health(health: &FleetHealth) -> String {
    let mut out = String::from(
        "shard  state        stars  emitted  queue  accepted  shed   lost   last error\n",
    );
    for s in &health.shards {
        out.push_str(&format!(
            "{:<6} {:<12} {:<6} {:<8} {:<6} {:<9} {:<6} {:<6} {}\n",
            s.shard,
            s.state.label(),
            s.stars,
            s.emitted,
            s.queue_depth,
            s.health.frames_accepted,
            s.health.overload.star_sheds,
            s.frames_lost,
            s.last_error.as_deref().unwrap_or("-"),
        ));
    }
    out.push_str(&format!(
        "fleet: {} routed, {} lost, {} failures, {} restarts, {} down, \
         breaker {} open / {} closed / {} probes\n",
        health.frames_routed,
        health.frames_lost,
        health.shard_failures,
        health.shard_restarts,
        health.shards_down,
        health.supervisor.circuits_opened,
        health.supervisor.circuits_closed,
        health.supervisor.probes,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (LabelGrid, Matrix) {
        let mut flags = LabelGrid::new(2, 20);
        // Star 0: two runs separated by a 1-gap → merge with merge_gap >= 1.
        flags.mark_range(0, 2, 4).unwrap();
        flags.mark_range(0, 6, 7).unwrap();
        // Star 1: one isolated point.
        flags.mark_range(1, 15, 15).unwrap();
        let scores = Matrix::from_fn(2, 20, |v, t| {
            if v == 0 && t == 6 {
                0.9
            } else if v == 1 && t == 15 {
                0.5
            } else {
                0.1
            }
        });
        (flags, scores)
    }

    #[test]
    fn gaps_merge_when_allowed() {
        let (flags, scores) = setup();
        let merged = build_catalog(&flags, &scores, 1);
        assert_eq!(merged.len(), 2);
        let star0 = merged.iter().find(|e| e.star == 0).unwrap();
        assert_eq!((star0.start, star0.end), (2, 7));
        assert_eq!(star0.peak_at, 6);
        assert_eq!(star0.duration(), 6);

        let split = build_catalog(&flags, &scores, 0);
        assert_eq!(split.len(), 3);
    }

    #[test]
    fn catalog_sorted_by_peak_score() {
        let (flags, scores) = setup();
        let events = build_catalog(&flags, &scores, 1);
        assert!(events[0].peak_score >= events[1].peak_score);
        assert_eq!(events[0].star, 0); // peak 0.9 beats 0.5
    }

    #[test]
    fn empty_flags_give_empty_catalog() {
        let flags = LabelGrid::new(3, 10);
        let scores = Matrix::zeros(3, 10);
        assert!(build_catalog(&flags, &scores, 2).is_empty());
    }

    #[test]
    fn render_includes_rank_and_truncation() {
        let (flags, scores) = setup();
        let events = build_catalog(&flags, &scores, 0);
        let ts: Vec<f64> = (0..20).map(|t| t as f64 * 2.0).collect();
        let text = render_catalog(&events, &ts, 2);
        assert!(text.contains("rank"));
        assert!(text.contains("… and 1 more"));
        // Peak timestamp of the best event (t=6 → 12.0).
        assert!(text.contains("12.0"));
    }

    #[test]
    fn fleet_health_table_lists_every_shard() {
        use crate::fleet::{ShardHealth, ShardState};
        use crate::online::HealthReport;
        use crate::supervisor::SupervisorStats;
        let shard = |k: usize, state: ShardState, err: Option<&str>| ShardHealth {
            shard: k,
            state,
            stars: 5,
            emitted: 12,
            queue_depth: 1,
            frames_lost: 2,
            last_error: err.map(String::from),
            health: HealthReport::default(),
        };
        let health = FleetHealth {
            shards: vec![
                shard(0, ShardState::Running, None),
                shard(1, ShardState::Quarantined, Some("wal corrupt")),
            ],
            frames_routed: 40,
            shard_restarts: 2,
            shard_failures: 3,
            shards_down: 1,
            frames_lost: 4,
            supervisor: SupervisorStats::default(),
            aggregate: HealthReport::default(),
        };
        let text = render_fleet_health(&health);
        assert!(text.contains("running"));
        assert!(text.contains("quarantined"));
        assert!(text.contains("wal corrupt"));
        assert!(text.contains("40 routed"));
        assert!(text.contains("3 failures, 2 restarts, 1 down"));
        assert_eq!(text.lines().count(), 4, "header + 2 shards + summary");
    }

    #[test]
    fn health_json_nests_overload_and_tenants() {
        let mut health = HealthReport { frames_accepted: 9, ..HealthReport::default() };
        health.overload.queue_peak = 4;
        health.tenants.lane_mut(2).admitted = 5;
        let json = health_json(&health);
        assert!(json.contains("\"frames_accepted\":9"), "{json}");
        assert!(json.contains("\"overload\":{\"queue_depth\":0,\"queue_peak\":4"), "{json}");
        assert!(json.contains("\"tenants\":[{\"tenant\":2,\"offered\":0,\"admitted\":5"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Untenanted reports render an empty array, not a missing key.
        assert!(health_json(&HealthReport::default()).contains("\"tenants\":[]"));
    }

    #[test]
    fn supervisor_document_covers_breaker_fields() {
        let json = to_json(&SupervisorStats::default());
        for key in ["panics", "retries", "circuits_opened", "probes", "short_circuits"] {
            assert!(json.contains(&format!("\"{key}\":0")), "{json}");
        }
    }

    #[test]
    fn run_reaching_end_is_closed() {
        let mut flags = LabelGrid::new(1, 5);
        flags.mark_range(0, 3, 4).unwrap();
        let scores = Matrix::ones(1, 5);
        let events = build_catalog(&flags, &scores, 0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].end, 4);
    }
}
