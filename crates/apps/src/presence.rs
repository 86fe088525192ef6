//! Live-channel presence counter — the paper's own motivating workload
//! ("users enter (exit) live video channels", §1).
//!
//! Every viewer is in at most one channel; entering a channel while
//! already watching another is a *switch* (one remove + one add, i.e.
//! two O(1) profile updates). On top of the raw counts the tracker
//! answers the §1 questions directly: busiest channel at any time,
//! top-K channels, audience median, and the full audience distribution.

use std::collections::HashMap;

use sprofile::{FrequencyBucket, Multiset};

/// Where a viewer currently is, by channel id.
type Sessions = HashMap<u64, u32>;

/// Exact audience tracking for `m` channels under enter/exit/switch
/// events.
///
/// ```
/// use sprofile_apps::PresenceTracker;
///
/// let mut t = PresenceTracker::new(100);
/// t.enter(1001, 7);
/// t.enter(1002, 7);
/// t.enter(1003, 3);
/// assert_eq!(t.busiest(), Some((7, 2)));
/// t.exit(1001);
/// assert_eq!(t.audience(7), 1);
/// ```
#[derive(Debug)]
pub struct PresenceTracker {
    /// Channel-id multiset: count of channel c = its audience size.
    audiences: Multiset,
    /// viewer id → channel currently watched.
    sessions: Sessions,
    /// Total enter/exit/switch events processed (telemetry).
    events: u64,
}

/// Outcome of an [`PresenceTracker::enter`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Entered {
    /// The viewer was idle and joined the channel.
    Joined,
    /// The viewer switched from the given previous channel.
    SwitchedFrom(u32),
    /// The viewer was already in this exact channel (no-op).
    AlreadyThere,
}

impl PresenceTracker {
    /// Tracker over `m` channel ids (`0..m`).
    pub fn new(m: u32) -> Self {
        Self {
            audiences: Multiset::new(m),
            sessions: Sessions::new(),
            events: 0,
        }
    }

    /// Number of channels.
    pub fn num_channels(&self) -> u32 {
        self.audiences.num_objects()
    }

    /// Viewer `viewer` enters `channel`, leaving any previous channel.
    ///
    /// # Panics
    /// If `channel` is outside `[0, m)`.
    pub fn enter(&mut self, viewer: u64, channel: u32) -> Entered {
        assert!(
            channel < self.audiences.num_objects(),
            "channel {channel} outside universe"
        );
        self.events += 1;
        match self.sessions.insert(viewer, channel) {
            Some(prev) if prev == channel => Entered::AlreadyThere,
            Some(prev) => {
                self.audiences
                    .try_remove(prev)
                    .expect("session table and audience counts in sync");
                self.audiences.insert(channel);
                Entered::SwitchedFrom(prev)
            }
            None => {
                self.audiences.insert(channel);
                Entered::Joined
            }
        }
    }

    /// Viewer `viewer` exits whatever channel they are in. Returns the
    /// channel left, or `None` if the viewer was not watching anything
    /// (a spurious exit — counted but otherwise ignored, never allowed
    /// to drive an audience negative).
    pub fn exit(&mut self, viewer: u64) -> Option<u32> {
        self.events += 1;
        let channel = self.sessions.remove(&viewer)?;
        self.audiences
            .try_remove(channel)
            .expect("session table and audience counts in sync");
        Some(channel)
    }

    /// Audience size of `channel`.
    pub fn audience(&self, channel: u32) -> u64 {
        self.audiences.count(channel)
    }

    /// The channel with the largest audience `(channel, audience)`;
    /// `None` when no channel exists. O(1).
    pub fn busiest(&self) -> Option<(u32, u64)> {
        self.audiences
            .mode()
            .map(|e| (e.object, e.frequency as u64))
    }

    /// Top-K channels by audience, descending. O(K).
    pub fn top_channels(&self, k: u32) -> Vec<(u32, u64)> {
        self.audiences.top_k(k)
    }

    /// Median audience size across all channels (including empty ones —
    /// the same convention as the paper's median-over-`F` query). O(1).
    pub fn median_audience(&self) -> Option<u64> {
        self.audiences.profile().median().map(|f| f as u64)
    }

    /// Number of channels with at least `k` viewers. O(log m).
    pub fn channels_with_at_least(&self, k: u64) -> u32 {
        self.audiences.count_at_least(k)
    }

    /// Audience-size histogram: one bucket per distinct audience size.
    /// O(#distinct sizes).
    pub fn audience_distribution(&self) -> Vec<FrequencyBucket> {
        self.audiences.histogram()
    }

    /// Total number of viewers currently watching something.
    pub fn viewers(&self) -> u64 {
        self.sessions.len() as u64
    }

    /// Events processed since construction.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Where `viewer` currently is, if anywhere.
    pub fn channel_of(&self, viewer: u64) -> Option<u32> {
        self.sessions.get(&viewer).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_exit_round_trip() {
        let mut t = PresenceTracker::new(10);
        assert_eq!(t.enter(1, 3), Entered::Joined);
        assert_eq!(t.audience(3), 1);
        assert_eq!(t.exit(1), Some(3));
        assert_eq!(t.audience(3), 0);
        assert_eq!(t.viewers(), 0);
    }

    #[test]
    fn switching_moves_the_count_atomically() {
        let mut t = PresenceTracker::new(10);
        t.enter(1, 3);
        assert_eq!(t.enter(1, 5), Entered::SwitchedFrom(3));
        assert_eq!(t.audience(3), 0);
        assert_eq!(t.audience(5), 1);
        assert_eq!(t.viewers(), 1);
        assert_eq!(t.channel_of(1), Some(5));
    }

    #[test]
    fn re_entering_the_same_channel_is_a_noop() {
        let mut t = PresenceTracker::new(10);
        t.enter(1, 3);
        assert_eq!(t.enter(1, 3), Entered::AlreadyThere);
        assert_eq!(t.audience(3), 1, "no double-count");
    }

    #[test]
    fn spurious_exit_is_harmless() {
        let mut t = PresenceTracker::new(10);
        t.enter(1, 3);
        assert_eq!(t.exit(99), None);
        assert_eq!(t.audience(3), 1);
        assert_eq!(t.events(), 2);
    }

    #[test]
    fn busiest_and_top_channels_track_live_state() {
        let mut t = PresenceTracker::new(100);
        for v in 0..50u64 {
            t.enter(v, 7);
        }
        for v in 50..80u64 {
            t.enter(v, 2);
        }
        for v in 80..90u64 {
            t.enter(v, 40);
        }
        assert_eq!(t.busiest(), Some((7, 50)));
        assert_eq!(t.top_channels(2), vec![(7, 50), (2, 30)]);
        // Mass exodus from 7: the crown moves.
        for v in 0..45u64 {
            t.exit(v);
        }
        assert_eq!(t.busiest(), Some((2, 30)));
        assert_eq!(t.top_channels(3), vec![(2, 30), (40, 10), (7, 5)]);
    }

    #[test]
    fn distribution_queries_cover_all_channels() {
        let mut t = PresenceTracker::new(4);
        for v in 0..6u64 {
            t.enter(v, (v % 2) as u32); // channels 0 and 1 get 3 each
        }
        assert_eq!(t.channels_with_at_least(1), 2);
        assert_eq!(t.channels_with_at_least(3), 2);
        assert_eq!(t.channels_with_at_least(4), 0);
        // Median over all 4 channels (two at 0, two at 3): lower median 0.
        assert_eq!(t.median_audience(), Some(0));
        let dist = t.audience_distribution();
        let total: u32 = dist.iter().map(|b| b.count).sum();
        assert_eq!(total, 4, "histogram covers every channel");
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_range_channel_panics() {
        PresenceTracker::new(4).enter(1, 4);
    }

    #[test]
    fn viewer_churn_stress_stays_consistent() {
        let mut t = PresenceTracker::new(16);
        for i in 0..20_000u64 {
            match i % 5 {
                0..=2 => {
                    t.enter(i % 700, (i % 16) as u32);
                }
                3 => {
                    t.exit((i * 3) % 700);
                }
                _ => {
                    t.enter(i % 700, ((i * 7) % 16) as u32);
                }
            }
        }
        // Sum of audiences must equal the live session count.
        let sum: u64 = (0..16).map(|c| t.audience(c)).sum();
        assert_eq!(sum, t.viewers());
        let busiest = t.busiest().unwrap();
        assert_eq!(t.audience(busiest.0), busiest.1);
        for c in 0..16 {
            assert!(t.audience(c) <= busiest.1);
        }
    }
}
