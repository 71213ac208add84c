//! The benchmark's own arithmetic: nearest-rank percentiles and the rule
//! for which percentile a sample supports, open-loop due-time accounting,
//! and the ladder rule that turns per-rate results into a sustained rate.

use std::time::{Duration, Instant};

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest value with
/// at least `p`% of the samples at or below it. `None` on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = rank_of(sorted.len(), p);
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `n`
/// samples: `n - ceil(p/100 · n)`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank_of(n, p).min(n)
}

/// `ceil(p/100 · n)`, computed as `p · n / 100` so whole-number products
/// stay exact (`0.9 · 100` is not exactly 90 in binary floating point).
fn rank_of(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0).ceil() as usize
}

/// Whether `n` samples support the `p`th percentile: at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest of `candidates` (ascending) that `n` samples support.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates.iter().rev().copied().find(|&p| supports(n, p))
}

/// Median of the values (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

/// Latency samples in milliseconds, summarised on demand.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ms: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, elapsed: Duration) {
        self.ms.push(elapsed.as_secs_f64() * 1e3);
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn sum_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    pub fn mean_ms(&self) -> f64 {
        if self.ms.is_empty() {
            0.0
        } else {
            self.sum_ms() / self.ms.len() as f64
        }
    }

    /// The nearest-rank `p`th percentile (0 when empty). Callers choose
    /// `p` with [`highest_supported`] where the sample size matters.
    pub fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, p).unwrap_or(0.0)
    }
}

/// One open-loop request: when it was due, when it was actually sent and
/// when its response completed (`None` if it failed).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due: Instant,
    pub sent: Instant,
    pub done: Option<Instant>,
    /// True when a connection was free before the request fell due, so any
    /// gap between `due` and `sent` is the generator's own lateness rather
    /// than queueing behind earlier requests.
    pub on_time_pick: bool,
}

impl Sample {
    /// Latency counted from the due time, so a request that waited for a
    /// connection held by a stalled predecessor carries that wait. `None`
    /// for a failed request.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|done| done.saturating_duration_since(self.due))
    }

    /// Time on the wire: send to completion.
    pub fn service(&self) -> Option<Duration> {
        self.done.map(|done| done.saturating_duration_since(self.sent))
    }

    /// How late the generator sent a request it was free to send on time.
    pub fn generator_late(&self) -> Option<Duration> {
        self.on_time_pick.then(|| self.sent.saturating_duration_since(self.due))
    }
}

/// Fixed-rate schedule: request `i` falls due at `start + i / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub rate_per_s: f64,
}

impl Schedule {
    pub fn due(&self, index: usize) -> Instant {
        self.start + Duration::from_secs_f64(index as f64 / self.rate_per_s)
    }
}

/// The outcome of one ladder rung, as the ladder rule sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rate_per_s: f64,
    /// Nearest-rank latency from due time at the judged percentile,
    /// failures counted as infinitely late; `None` when the rung is too
    /// short to support that percentile.
    pub tail_ms: Option<f64>,
    /// How much the backlog grew over the rung: the mean wait for a
    /// connection (send minus due time) of the last third of its requests
    /// minus that of the first third.
    pub backlog_growth_ms: f64,
}

impl Rung {
    /// Judges a rung from its samples (in due order) at the `p`th
    /// percentile.
    pub fn judge(rate_per_s: f64, p: f64, samples: &[Sample]) -> Rung {
        let waits: Vec<f64> = samples
            .iter()
            .map(|s| s.sent.saturating_duration_since(s.due).as_secs_f64() * 1e3)
            .collect();
        let mut ms: Vec<f64> = samples
            .iter()
            .map(|s| s.latency().map_or(f64::INFINITY, |d| d.as_secs_f64() * 1e3))
            .collect();
        ms.sort_by(f64::total_cmp);
        let tail_ms = if supports(ms.len(), p) { nearest_rank(&ms, p) } else { None };
        Rung { rate_per_s, tail_ms, backlog_growth_ms: backlog_growth(&waits) }
    }

    /// Meets `limit_ms` at the judged percentile, with a backlog that grew
    /// by no more than a quarter of the limit.
    pub fn meets(&self, limit_ms: f64) -> bool {
        matches!(self.tail_ms, Some(tail) if tail <= limit_ms)
            && self.backlog_growth_ms <= limit_ms / 4.0
    }
}

/// Mean of the last third of `waits` (in due order) minus the mean of the
/// first third; 0 for fewer than three values.
pub fn backlog_growth(waits: &[f64]) -> f64 {
    let third = waits.len() / 3;
    if third == 0 {
        return 0.0;
    }
    let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
    mean(&waits[waits.len() - third..]) - mean(&waits[..third])
}

/// The ladder rule: walking up the rates in ascending order, the highest
/// rate that meets the limit with every lower rate meeting it too. 0 when
/// the lowest rate already misses.
pub fn sustained_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    let mut sustained = 0.0;
    for rung in rungs {
        if !rung.meets(limit_ms) {
            break;
        }
        sustained = rung.rate_per_s;
    }
    sustained
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_value_covering_p() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 99.0), Some(990.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 90.0), 10);
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert_eq!(highest_supported(150, &[50.0, 90.0, 99.0]), Some(90.0));
        assert_eq!(highest_supported(1200, &[50.0, 90.0, 99.0]), Some(99.0));
        assert_eq!(highest_supported(5, &[50.0, 90.0, 99.0]), None);

        let mut lat = Latencies::default();
        for i in (1..=1000).rev() {
            lat.push_ms(f64::from(i));
        }
        assert_eq!(lat.percentile(90.0), 900.0);
        assert_eq!(lat.percentile(99.0), 990.0);
        assert_eq!(Latencies::default().percentile(50.0), 0.0);
    }

    /// Replays a fixed-rate schedule over `conns` connections with the
    /// client's policy: each free connection takes the next request and
    /// sends it at its due time or, when it freed up later, at once.
    fn replay(rate: f64, service_ms: &[f64], conns: usize) -> Vec<Sample> {
        let start = Instant::now();
        let schedule = Schedule { start, rate_per_s: rate };
        let mut free_at = vec![start; conns];
        service_ms
            .iter()
            .enumerate()
            .map(|(i, &ms)| {
                let due = schedule.due(i);
                let (slot, &free) =
                    free_at.iter().enumerate().min_by_key(|(_, t)| **t).expect("a connection");
                let sent = due.max(free);
                let done = sent + Duration::from_secs_f64(ms / 1e3);
                free_at[slot] = done;
                Sample { due, sent, done: Some(done), on_time_pick: free <= due }
            })
            .collect()
    }

    fn ms(d: Duration) -> f64 {
        (d.as_secs_f64() * 1e3 * 1e3).round() / 1e3
    }

    #[test]
    fn a_stalled_request_charges_its_wait_to_the_requests_behind_it() {
        // 100 rps on one connection: a request due every 10 ms, each taking
        // 2 ms, except request 1, which stalls for 45 ms.
        let samples = replay(100.0, &[2.0, 45.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0], 1);
        let latency: Vec<f64> = samples.iter().map(|s| ms(s.latency().unwrap())).collect();
        let service: Vec<f64> = samples.iter().map(|s| ms(s.service().unwrap())).collect();
        // Request 1 finishes at 55 ms. Requests 2..=6 (due 20..=60 ms) queue
        // behind it, each sent as its predecessor completes, and are counted
        // from their due times; the queue has drained by request 7 (due 70).
        assert_eq!(latency, vec![2.0, 45.0, 37.0, 29.0, 21.0, 13.0, 5.0, 2.0]);
        assert_eq!(service, vec![2.0, 45.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]);
        // Queued requests are not generator lateness.
        assert!(samples[2..=6].iter().all(|s| s.generator_late().is_none()));
        assert_eq!(samples[7].generator_late(), Some(Duration::ZERO));
    }

    #[test]
    fn a_second_connection_absorbs_the_stall() {
        let samples = replay(100.0, &[2.0, 45.0, 2.0, 2.0, 2.0, 2.0, 2.0], 2);
        let latency: Vec<f64> = samples.iter().map(|s| ms(s.latency().unwrap())).collect();
        assert_eq!(latency, vec![2.0, 45.0, 2.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn overload_grows_a_backlog_and_fails_the_rung() {
        // Each request takes 15 ms on one connection at 100 rps.
        // 1200 requests arrive over 12 s; each extra 5 ms of work adds to
        // the queue, so waits grow from 0 to ~6 s across the rung.
        let over = replay(100.0, &[15.0; 1200], 1);
        let rung = Rung::judge(100.0, 99.0, &over);
        assert!(rung.backlog_growth_ms > 3000.0, "{rung:?}");
        assert!(
            !rung.meets(10_000.0),
            "the tail fits 10 s but the backlog grew by more than 2.5 s"
        );
        let under = replay(100.0, &[5.0; 1200], 1);
        let rung = Rung::judge(100.0, 99.0, &under);
        assert_eq!(rung.backlog_growth_ms, 0.0);
        assert_eq!(rung.tail_ms.map(|v| v.round()), Some(5.0));
        assert!(rung.meets(10.0));
        assert!(!rung.meets(4.0));
    }

    #[test]
    fn a_failed_request_misses_the_limit() {
        let mut samples = replay(100.0, &[1.0; 1000], 2);
        for s in samples.iter_mut().step_by(97) {
            s.done = None;
        }
        // 11 failures are more than the 10 samples p99 may leave beyond it.
        let rung = Rung::judge(100.0, 99.0, &samples);
        assert_eq!(rung.tail_ms, Some(f64::INFINITY));
        assert!(!rung.meets(1e9));
    }

    #[test]
    fn a_rung_too_short_for_p99_cannot_meet_the_limit() {
        let rung = Rung::judge(100.0, 99.0, &replay(100.0, &[1.0; 999], 2));
        assert_eq!(rung.tail_ms, None);
        assert!(!rung.meets(1e9));
    }

    #[test]
    fn the_ladder_stops_at_the_first_missed_rate() {
        let rung = |rate, tail, growth| Rung {
            rate_per_s: rate,
            tail_ms: Some(tail),
            backlog_growth_ms: growth,
        };
        let ok = |rate| rung(rate, 10.0, 0.0);
        let slow = |rate| rung(rate, 500.0, 0.0);
        // Within the limit, but the backlog grew by more than a quarter of it.
        let backlog = |rate| rung(rate, 10.0, 30.0);
        assert_eq!(sustained_rate(&[ok(10.0), ok(20.0), ok(40.0)], 100.0), 40.0);
        assert_eq!(sustained_rate(&[ok(10.0), slow(20.0), ok(40.0)], 100.0), 10.0);
        assert_eq!(sustained_rate(&[ok(10.0), backlog(20.0), ok(40.0)], 100.0), 10.0);
        assert_eq!(sustained_rate(&[slow(10.0), ok(20.0)], 100.0), 0.0);
        assert_eq!(sustained_rate(&[], 100.0), 0.0);
    }
}
