use core::fmt;

/// The body of a protocol message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    /// The rumor itself, flooded from informed to uninformed neighbors.
    Gossip {
        /// Rumor identifier (the broadcast twin floods rumor `0`).
        rumor: u32,
    },
    /// Receipt acknowledgment, sent back so the sender stops re-offering.
    GossipAck {
        /// The rumor being acknowledged.
        rumor: u32,
    },
    /// Anti-entropy digest: a summary of whether the sender holds the
    /// rumor. A `has: false` digest invalidates stale ack evidence and
    /// pulls the rumor from informed receivers; a `has: true` digest
    /// lets an uninformed receiver pull it with a `has: false` reply.
    Digest {
        /// The rumor the digest summarizes.
        rumor: u32,
        /// Whether the sender currently holds the rumor.
        has: bool,
    },
}

impl Payload {
    /// Short wire-format tag, used in event-log lines.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Gossip { .. } => "gossip",
            Self::GossipAck { .. } => "ack",
            Self::Digest { has: false, .. } => "digest-miss",
            Self::Digest { has: true, .. } => "digest-have",
        }
    }

    /// The rumor this payload is about.
    #[must_use]
    pub fn rumor(&self) -> u32 {
        match self {
            Self::Gossip { rumor } | Self::GossipAck { rumor } | Self::Digest { rumor, .. } => {
                *rumor
            }
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Self::Gossip { .. } => 0,
            Self::GossipAck { .. } => 1,
            Self::Digest { has: false, .. } => 2,
            Self::Digest { has: true, .. } => 3,
        }
    }
}

/// One in-flight message: payload plus addressing and timing metadata.
///
/// Delivery gating happens at *send* time — an envelope is only created
/// when source and destination are within the visibility radius on the
/// send tick. Once in flight it arrives at `deliver_at` regardless of
/// where the walkers have moved since (radio delay, not re-routing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node index.
    pub src: u32,
    /// Receiving node index.
    pub dst: u32,
    /// Message body.
    pub payload: Payload,
    /// Tick on which the message was sent.
    pub sent_at: u64,
    /// Tick on which the message arrives (`sent_at + delay`).
    pub deliver_at: u64,
}

impl Envelope {
    /// Canonical delivery order within a tick: by destination, then
    /// source, then payload kind, then send tick. Total on every
    /// envelope set the runtime can produce, so scheduling never
    /// depends on container insertion order.
    #[must_use]
    pub fn canonical_key(&self) -> (u32, u32, u8, u64) {
        (self.dst, self.src, self.payload.rank(), self.sent_at)
    }
}

/// One entry of the runtime's event log.
///
/// The log pins the complete observable behavior of a run — timer
/// firings and every send, drop, and delivery in scheduling order — so
/// snapshot tests can assert byte-identical replay across reruns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A node's `StartGossip` timer fired.
    StartGossip {
        /// Tick of the firing.
        tick: u64,
        /// The node whose timer fired.
        node: u32,
    },
    /// A message left its sender (it may still be dropped).
    Send {
        /// Tick of the send.
        tick: u64,
        /// Intra-tick flooding round.
        round: u32,
        /// The message.
        env: Envelope,
    },
    /// A sent message was lost in transit.
    Drop {
        /// Tick of the (failed) send.
        tick: u64,
        /// Intra-tick flooding round.
        round: u32,
        /// The message.
        env: Envelope,
    },
    /// A message arrived at its destination.
    Deliver {
        /// Tick of the delivery.
        tick: u64,
        /// Intra-tick flooding round.
        round: u32,
        /// The message.
        env: Envelope,
    },
    /// A node crashed, losing all protocol state.
    Crash {
        /// Tick of the crash.
        tick: u64,
        /// The node that went down.
        node: u32,
    },
    /// A previously crashed node came back up (still state-less).
    Restart {
        /// Tick of the restart.
        tick: u64,
        /// The node that came back.
        node: u32,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::StartGossip { tick, node } => write!(f, "t={tick} timer node={node}"),
            Self::Send { tick, round, env } => write!(
                f,
                "t={tick} r={round} send {}->{} {} rumor={} deliver={}",
                env.src,
                env.dst,
                env.payload.tag(),
                env.payload.rumor(),
                env.deliver_at
            ),
            Self::Drop { tick, round, env } => write!(
                f,
                "t={tick} r={round} drop {}->{} {} rumor={}",
                env.src,
                env.dst,
                env.payload.tag(),
                env.payload.rumor()
            ),
            Self::Deliver { tick, round, env } => write!(
                f,
                "t={tick} r={round} deliver {}->{} {} rumor={} sent={}",
                env.src,
                env.dst,
                env.payload.tag(),
                env.payload.rumor(),
                env.sent_at
            ),
            Self::Crash { tick, node } => write!(f, "t={tick} crash node={node}"),
            Self::Restart { tick, node } => write!(f, "t={tick} restart node={node}"),
        }
    }
}

/// The runtime's event log: an always-on rolling FNV-1a hash of every
/// event, plus (optionally) the full record sequence.
///
/// The hash is FNV-1a 64 over each event's fields as little-endian
/// `u64` words; a word's zero high bytes cost one multiply, not eight.
///
/// Hashing is on by default and cheap; recording the records themselves
/// is opt-in because a long lossy run can log millions of events.
#[derive(Clone, Debug)]
pub struct EventLog {
    records: Vec<Event>,
    recording: bool,
    hash: u64,
    len: u64,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME_POW[i] = FNV_PRIME^i`: what `i` zero bytes contribute to
/// an FNV-1a state, since XOR with a zero byte is a no-op.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut i = 1;
    while i < pow.len() {
        pow[i] = pow[i - 1].wrapping_mul(FNV_PRIME);
        i += 1;
    }
    pow
};

/// Folds the 8 little-endian bytes of `word` into an FNV-1a state: the
/// `n` significant ones byte by byte, the zero rest as `FNV_PRIME^(8−n)`.
fn fold(hash: &mut u64, word: u64) {
    let n = ((71 - word.leading_zeros()) / 8) as usize;
    let mut h = *hash;
    for &byte in &word.to_le_bytes()[..n] {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    *hash = h.wrapping_mul(FNV_PRIME_POW[8 - n]);
}

impl EventLog {
    /// An empty log; `recording` controls whether records are kept.
    #[must_use]
    pub fn new(recording: bool) -> Self {
        Self {
            records: Vec::new(),
            recording,
            hash: FNV_OFFSET,
            len: 0,
        }
    }

    /// Appends one event: folds it into the hash and, when recording,
    /// keeps the record.
    // hot: census row `faulty_twin_ticks_allocate_only_for_queue_growth`
    pub fn push(&mut self, event: Event) {
        let (kind, tick, round, a, b, payload) = match event {
            Event::StartGossip { tick, node } => (0u64, tick, 0, node, 0, None),
            Event::Send { tick, round, env } => (1, tick, round, env.src, env.dst, Some(env)),
            Event::Drop { tick, round, env } => (2, tick, round, env.src, env.dst, Some(env)),
            Event::Deliver { tick, round, env } => (3, tick, round, env.src, env.dst, Some(env)),
            Event::Crash { tick, node } => (4, tick, 0, node, 0, None),
            Event::Restart { tick, node } => (5, tick, 0, node, 0, None),
        };
        fold(&mut self.hash, kind);
        fold(&mut self.hash, tick);
        fold(&mut self.hash, u64::from(round));
        fold(&mut self.hash, u64::from(a));
        fold(&mut self.hash, u64::from(b));
        if let Some(env) = payload {
            fold(&mut self.hash, u64::from(env.payload.rank()));
            fold(&mut self.hash, u64::from(env.payload.rumor()));
            fold(&mut self.hash, env.sent_at);
            fold(&mut self.hash, env.deliver_at);
        }
        self.len += 1;
        if self.recording {
            self.records.push(event);
        }
    }

    /// The recorded events (empty unless recording was enabled).
    #[must_use]
    pub fn records(&self) -> &[Event] {
        &self.records
    }

    /// Whether full records are being kept.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Enables or disables record keeping (the hash is always on).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Rolling FNV-1a 64 hash over every event pushed so far.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Number of events pushed so far (recorded or not).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no event has been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Textbook FNV-1a over the word's 8 little-endian bytes, one
    /// multiply per byte: the referee for the zero-run [`fold`].
    fn fold_reference(hash: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    proptest! {
        #[test]
        fn fold_matches_the_reference_for_every_significant_byte_count(
            hash in any::<u64>(),
            word in any::<u64>(),
            bytes in 0u32..=8,
        ) {
            // Force exactly `bytes` significant bytes (top bit of the
            // top byte set), so every zero-run length 0..=8 is drawn.
            let word = if bytes == 0 { 0 } else { (word | 1 << 63) >> (64 - 8 * bytes) };
            prop_assert_eq!((71 - word.leading_zeros()) / 8, bytes);
            let edges = [0, 0xFF, 0x100, u64::from(u32::MAX), 1 << 32, u64::MAX];
            for w in edges.into_iter().chain([word]) {
                let (mut fast, mut slow) = (hash, hash);
                fold(&mut fast, w);
                fold_reference(&mut slow, w);
                prop_assert_eq!(fast, slow, "word {:#x}", w);
            }
        }
    }

    #[test]
    fn push_hashes_long_words_like_the_reference() {
        // No twin workload produces a word above 2^16; pin the
        // long-word path on a far tick with a saturated arrival.
        let env = Envelope {
            src: 7,
            dst: u32::MAX,
            payload: Payload::Digest {
                rumor: 0xABCD,
                has: true,
            },
            sent_at: 1 << 40,
            deliver_at: u64::MAX,
        };
        let tick = (1u64 << 32) + 5;
        let mut log = EventLog::new(false);
        log.push(Event::Send {
            tick,
            round: 70_000,
            env,
        });
        let mut expected = FNV_OFFSET;
        for word in [
            1,
            tick,
            70_000,
            7,
            u64::from(u32::MAX),
            3,
            0xABCD,
            1 << 40,
            u64::MAX,
        ] {
            fold_reference(&mut expected, word);
        }
        assert_eq!(log.hash(), expected);
    }

    fn sample_env() -> Envelope {
        Envelope {
            src: 3,
            dst: 5,
            payload: Payload::Gossip { rumor: 0 },
            sent_at: 4,
            deliver_at: 6,
        }
    }

    #[test]
    fn display_formats_are_stable() {
        let env = sample_env();
        assert_eq!(
            Event::StartGossip { tick: 4, node: 3 }.to_string(),
            "t=4 timer node=3"
        );
        assert_eq!(
            Event::Send {
                tick: 4,
                round: 0,
                env
            }
            .to_string(),
            "t=4 r=0 send 3->5 gossip rumor=0 deliver=6"
        );
        assert_eq!(
            Event::Drop {
                tick: 4,
                round: 0,
                env
            }
            .to_string(),
            "t=4 r=0 drop 3->5 gossip rumor=0"
        );
        assert_eq!(
            Event::Deliver {
                tick: 6,
                round: 1,
                env
            }
            .to_string(),
            "t=6 r=1 deliver 3->5 gossip rumor=0 sent=4"
        );
    }

    #[test]
    fn hash_tracks_events_independently_of_recording() {
        let mut recorded = EventLog::new(true);
        let mut hashed_only = EventLog::new(false);
        for log in [&mut recorded, &mut hashed_only] {
            log.push(Event::StartGossip { tick: 0, node: 1 });
            log.push(Event::Send {
                tick: 0,
                round: 0,
                env: sample_env(),
            });
        }
        assert_eq!(recorded.hash(), hashed_only.hash());
        assert_eq!(recorded.len(), 2);
        assert_eq!(recorded.records().len(), 2);
        assert!(hashed_only.records().is_empty());
        assert_eq!(hashed_only.len(), 2);
    }

    #[test]
    fn hash_distinguishes_event_kinds_and_fields() {
        let env = sample_env();
        let mut a = EventLog::new(false);
        let mut b = EventLog::new(false);
        a.push(Event::Send {
            tick: 0,
            round: 0,
            env,
        });
        b.push(Event::Drop {
            tick: 0,
            round: 0,
            env,
        });
        assert_ne!(a.hash(), b.hash());

        let mut c = EventLog::new(false);
        c.push(Event::Send {
            tick: 1,
            round: 0,
            env,
        });
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn fault_event_formats_are_stable() {
        assert_eq!(
            Event::Crash { tick: 7, node: 2 }.to_string(),
            "t=7 crash node=2"
        );
        assert_eq!(
            Event::Restart { tick: 9, node: 2 }.to_string(),
            "t=9 restart node=2"
        );
        let digest = Envelope {
            src: 1,
            dst: 4,
            payload: Payload::Digest {
                rumor: 0,
                has: true,
            },
            sent_at: 3,
            deliver_at: 3,
        };
        assert_eq!(
            Event::Send {
                tick: 3,
                round: 0,
                env: digest
            }
            .to_string(),
            "t=3 r=0 send 1->4 digest-have rumor=0 deliver=3"
        );
    }

    #[test]
    fn hash_distinguishes_digest_direction_and_fault_kinds() {
        let digest = |has| Envelope {
            src: 1,
            dst: 4,
            payload: Payload::Digest { rumor: 0, has },
            sent_at: 3,
            deliver_at: 3,
        };
        let mut have = EventLog::new(false);
        let mut miss = EventLog::new(false);
        have.push(Event::Send {
            tick: 3,
            round: 0,
            env: digest(true),
        });
        miss.push(Event::Send {
            tick: 3,
            round: 0,
            env: digest(false),
        });
        assert_ne!(have.hash(), miss.hash());

        let mut crash = EventLog::new(false);
        let mut restart = EventLog::new(false);
        crash.push(Event::Crash { tick: 3, node: 1 });
        restart.push(Event::Restart { tick: 3, node: 1 });
        assert_ne!(crash.hash(), restart.hash());
    }

    #[test]
    fn canonical_key_orders_by_destination_first() {
        let gossip = sample_env();
        let ack = Envelope {
            src: 5,
            dst: 3,
            payload: Payload::GossipAck { rumor: 0 },
            sent_at: 4,
            deliver_at: 4,
        };
        assert!(ack.canonical_key() < gossip.canonical_key());
    }
}
