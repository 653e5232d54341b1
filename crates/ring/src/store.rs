//! Deterministic segment payloads: synthesized, cached, seekable.
//!
//! There are no media files in this repository, so the data plane
//! manufactures its own. A payload's bytes are a pure function of
//! `(seed, video, segment, len)` — a splitmix64 stream keyed by the
//! triple — which means a client holding the same seed can regenerate
//! the exact bytes it should have received and verify delivery
//! end-to-end, byte for byte, with nothing but a `u64` shared out of
//! band.
//!
//! The stream is seekable: byte `i` is byte `i % 8` (little-endian) of
//! word `i / 8`, and word `k` is the splitmix64 output mixed from
//! `state0 + (k + 1)·γ`, so any offset costs O(1) to reach. A
//! [`PayloadOracle`] exploits that to check a delivered chunk in place,
//! at whatever offset it arrives, without materializing the payload.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// The seed `vodload --self-host` and the loopback tests share when the
/// operator does not pick one.
pub const DEFAULT_STORE_SEED: u64 = 0xda7a_5eed_0000_0001;

/// The splitmix64 increment γ (the golden-ratio constant).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One segment's worth of synthesized media bytes.
///
/// Payloads are immutable once built and always handled as
/// `Arc<SegmentPayload>`: the ring stores one `Arc` per publication and
/// fan-out clones it, so a thousand subscribers share one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPayload {
    video: u32,
    segment: u32,
    bytes: Vec<u8>,
}

impl SegmentPayload {
    /// Synthesizes the deterministic payload for `(video, segment)` under
    /// `seed`, `len` bytes long: the first `len` bytes of the stream
    /// [`PayloadOracle::new`] describes. The same inputs always yield the
    /// same bytes — that determinism *is* the verification oracle.
    #[must_use]
    pub fn synthesize(seed: u64, video: u32, segment: u32, len: usize) -> Self {
        let mut stream = PayloadOracle::new(seed, video, segment).words(0);
        let mut bytes = vec![0u8; len];
        let mut chunks = bytes.chunks_exact_mut(8);
        for (chunk, word) in (&mut chunks).zip(&mut stream) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let n = tail.len();
        tail.copy_from_slice(&next_word(&mut stream).to_le_bytes()[..n]);
        SegmentPayload {
            video,
            segment,
            bytes,
        }
    }

    /// The video this payload belongs to.
    #[must_use]
    pub fn video(&self) -> u32 {
        self.video
    }

    /// The segment index (0-based wire numbering).
    #[must_use]
    pub fn segment(&self) -> u32 {
        self.segment
    }

    /// The payload bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Payload length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the payload is empty (a zero-length segment).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The FNV-1a [`checksum64`] of the bytes, computed on each call (one
    /// byte-serial pass; nothing on the delivery path needs it).
    #[must_use]
    pub fn checksum(&self) -> u64 {
        checksum64(&self.bytes)
    }
}

/// The payload byte stream of one `(seed, video, segment)`, addressable at
/// any offset — the client's verification oracle.
///
/// [`SegmentPayload::synthesize`] materializes a prefix of this stream;
/// [`PayloadOracle::matches`] checks an arbitrary slice of it in place,
/// so a receiver can verify each chunk as it arrives, with no reassembly
/// buffer and no synthesized copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadOracle {
    state0: u64,
}

impl PayloadOracle {
    /// The stream for `(video, segment)` under `seed`.
    #[must_use]
    pub fn new(seed: u64, video: u32, segment: u32) -> Self {
        PayloadOracle {
            state0: seed ^ (u64::from(video) << 32) ^ u64::from(segment).wrapping_mul(GAMMA),
        }
    }

    /// Whether `bytes` equal the stream's bytes at `offset..offset +
    /// bytes.len()`. Every byte is compared: an unaligned head and tail
    /// byte-wise, the aligned middle eight bytes at a time.
    #[must_use]
    pub fn matches(&self, offset: u64, bytes: &[u8]) -> bool {
        let mut stream = self.words(offset / 8);
        let head = (offset % 8) as usize;
        let mut rest = bytes;
        if head != 0 {
            let take = (8 - head).min(rest.len());
            if rest[..take] != next_word(&mut stream).to_le_bytes()[head..head + take] {
                return false;
            }
            rest = &rest[take..];
        }
        let mut chunks = rest.chunks_exact(8);
        let mut diff = 0;
        for (chunk, word) in (&mut chunks).zip(&mut stream) {
            let got = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
            diff |= got ^ word;
        }
        let tail = chunks.remainder();
        diff == 0 && tail == &next_word(&mut stream).to_le_bytes()[..tail.len()]
    }

    /// The stream's words from word `k` on: splitmix64 seeked to state
    /// `state0 + k·γ`, so word `k` is the output for state `state0 +
    /// (k + 1)·γ`.
    fn words(&self, k: u64) -> impl Iterator<Item = u64> {
        let mut state = self.state0.wrapping_add(k.wrapping_mul(GAMMA));
        std::iter::repeat_with(move || splitmix64(&mut state))
    }
}

/// The next word of an endless [`PayloadOracle::words`] stream.
fn next_word(stream: &mut impl Iterator<Item = u64>) -> u64 {
    stream.next().expect("the word stream is endless")
}

/// FNV-1a over `bytes` — a payload fingerprint ([`SegmentPayload::checksum`]).
///
/// Not cryptographic; it catches accidental change (reordered chunks,
/// wrong offsets, cross-wired channels), not adversaries. Delivery is
/// verified byte for byte by [`PayloadOracle::matches`], not by this.
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Payload length for a segment lasting `segment_secs` of media at
/// `bytes_per_media_sec` — length proportional to duration, floored at
/// one byte so even degenerate entries move *something* verifiable.
#[must_use]
pub fn payload_len_for(bytes_per_media_sec: u64, segment_secs: f64) -> usize {
    let secs = if segment_secs.is_finite() && segment_secs > 0.0 {
        segment_secs
    } else {
        0.0
    };
    let len = (bytes_per_media_sec as f64 * secs).ceil();
    if len >= 1.0 {
        len as usize
    } else {
        1
    }
}

/// A cache of synthesized payloads keyed by `(video, segment)`.
///
/// The first publish of a segment synthesizes its bytes; every repeat
/// publication of the same segment (broadcast protocols re-air segments
/// constantly) reuses the cached `Arc`, so steady-state publishing is
/// an `Arc` clone, not an allocation.
#[derive(Debug)]
pub struct SegmentStore {
    seed: u64,
    cache: Mutex<HashMap<(u32, u32), Arc<SegmentPayload>>>,
}

impl SegmentStore {
    /// A store deriving every payload from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SegmentStore {
            seed,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The seed payloads are derived from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The payload for `(video, segment)` at `len` bytes, synthesizing on
    /// first use and cached thereafter.
    #[must_use]
    pub fn payload(&self, video: u32, segment: u32, len: usize) -> Arc<SegmentPayload> {
        let mut cache = lock_unpoisoned(&self.cache);
        Arc::clone(cache.entry((video, segment)).or_insert_with(|| {
            Arc::new(SegmentPayload::synthesize(self.seed, video, segment, len))
        }))
    }

    /// How many distinct segments have been synthesized so far.
    #[must_use]
    pub fn synthesized(&self) -> usize {
        lock_unpoisoned(&self.cache).len()
    }
}

/// Locks `m`, recovering the guard if a holder panicked: the cache is a
/// plain map with no invariants a panic could tear.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic_and_keyed() {
        let a = SegmentPayload::synthesize(7, 1, 2, 64);
        let b = SegmentPayload::synthesize(7, 1, 2, 64);
        assert_eq!(a, b);
        assert_eq!(a.checksum(), checksum64(a.bytes()));
        // Any key change produces different bytes.
        for other in [
            SegmentPayload::synthesize(8, 1, 2, 64),
            SegmentPayload::synthesize(7, 2, 2, 64),
            SegmentPayload::synthesize(7, 1, 3, 64),
        ] {
            assert_ne!(a.bytes(), other.bytes());
        }
    }

    /// `checksum64` of `synthesize(DEFAULT_STORE_SEED, video, segment,
    /// len)` as the original byte-serial splitmix64 loop produced it. The
    /// word-wise synthesis must reproduce the stream byte for byte, or
    /// every remote verifier built from an older tree breaks.
    #[test]
    fn synthesis_reproduces_the_pinned_stream() {
        // `payload_len_for(16_000, 7200 / 99)`: one segment of the paper's
        // two-hour, 99-segment video at 16 kB per media-second.
        const FULL: usize = 1_163_637;
        assert_eq!(payload_len_for(16_000, 7200.0 / 99.0), FULL);
        let golden: [(u32, u32, usize, u64); 28] = [
            (0, 0, 0, 0xcbf2_9ce4_8422_2325),
            (0, 0, 1, 0xaf63_e44c_8601_fa24),
            (0, 0, 7, 0xc0f6_d3ed_053b_d65e),
            (0, 0, 8, 0x1f40_fcbf_e4ae_2053),
            (0, 0, 9, 0xc98e_5811_93e1_d93a),
            (0, 0, 1001, 0xe278_d00f_81be_d6c8),
            (0, 0, FULL, 0x3522_6647_5991_cdda),
            (1, 2, 0, 0xcbf2_9ce4_8422_2325),
            (1, 2, 1, 0xaf63_a14c_8601_884b),
            (1, 2, 7, 0x1063_125e_291b_dd84),
            (1, 2, 8, 0xf435_7bff_da58_fdf2),
            (1, 2, 9, 0x4fde_dac0_0536_2945),
            (1, 2, 1001, 0x4dc3_1d71_c140_9674),
            (1, 2, FULL, 0x277e_7e81_8455_c037),
            (3, 98, 0, 0xcbf2_9ce4_8422_2325),
            (3, 98, 1, 0xaf63_e34c_8601_f871),
            (3, 98, 7, 0xa15b_4828_86f5_1c77),
            (3, 98, 8, 0x2337_dbdd_527e_ff0d),
            (3, 98, 9, 0x56ea_8b13_2dcc_e836),
            (3, 98, 1001, 0xcfe8_3732_d660_d5b2),
            (3, 98, FULL, 0xa3ab_3d04_8f39_e821),
            (7, 41, 0, 0xcbf2_9ce4_8422_2325),
            (7, 41, 1, 0xaf63_b34c_8601_a6e1),
            (7, 41, 7, 0x757f_a982_2b05_5648),
            (7, 41, 8, 0xad43_5e2f_1a11_b422),
            (7, 41, 9, 0x7b2d_e309_4c16_4cbb),
            (7, 41, 1001, 0xbc09_e996_bb28_61cd),
            (7, 41, FULL, 0x76f5_1492_8edc_c346),
        ];
        for (video, segment, len, sum) in golden {
            let p = SegmentPayload::synthesize(DEFAULT_STORE_SEED, video, segment, len);
            assert_eq!(p.len(), len);
            assert_eq!(p.checksum(), sum, "({video}, {segment}, {len})");
        }
    }

    #[test]
    fn oracle_accepts_every_small_slice_and_rejects_every_bit_flip() {
        let oracle = PayloadOracle::new(DEFAULT_STORE_SEED, 4, 9);
        let p = SegmentPayload::synthesize(DEFAULT_STORE_SEED, 4, 9, 128);
        for offset in 0..64 {
            for len in 0..64 {
                let slice = &p.bytes()[offset..offset + len];
                assert!(oracle.matches(offset as u64, slice), "{offset}+{len}");
                let mut flipped = slice.to_vec();
                for bit in 0..len * 8 {
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    assert!(
                        !oracle.matches(offset as u64, &flipped),
                        "{offset}+{len}: flip of bit {bit} accepted"
                    );
                    flipped[bit / 8] ^= 1 << (bit % 8);
                }
                if len > 0 {
                    // The right bytes at the wrong offset are wrong.
                    assert!(!oracle.matches(offset as u64 + 1, slice), "{offset}+{len}");
                }
            }
        }
    }

    #[test]
    fn exact_lengths_including_non_word_multiples() {
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let p = SegmentPayload::synthesize(1, 0, 0, len);
            assert_eq!(p.len(), len);
            assert_eq!(p.is_empty(), len == 0);
        }
    }

    #[test]
    fn store_caches_by_video_and_segment() {
        let store = SegmentStore::new(42);
        let a = store.payload(3, 5, 128);
        let b = store.payload(3, 5, 128);
        assert!(Arc::ptr_eq(&a, &b), "repeat publishes share one Arc");
        assert_eq!(store.synthesized(), 1);
        let c = store.payload(3, 6, 128);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.synthesized(), 2);
        // The cached payload matches a fresh local synthesis — the client
        // verification oracle.
        let oracle = SegmentPayload::synthesize(42, 3, 5, 128);
        assert_eq!(*a, oracle);
    }

    #[test]
    fn payload_len_is_proportional_with_a_floor() {
        assert_eq!(payload_len_for(1_000, 10.0), 10_000);
        assert_eq!(payload_len_for(1_000, 0.5), 500);
        assert_eq!(payload_len_for(0, 10.0), 1, "floored at one byte");
        assert_eq!(payload_len_for(1_000, 0.0), 1);
        assert_eq!(payload_len_for(1_000, f64::NAN), 1);
        assert_eq!(payload_len_for(3, 0.4), 2, "rounds up");
    }

    #[test]
    fn checksum_distinguishes_reorderings() {
        assert_ne!(checksum64(b"ab"), checksum64(b"ba"));
        assert_ne!(checksum64(b""), checksum64(b"\0"));
    }
}
