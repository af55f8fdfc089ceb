//! Cross-commit pin of the frame stream: a hash of 4,096 frames — indices,
//! classes and feature bits — of four stream configurations, written once and
//! never regenerated. `cached ≡ uncached` and the benchmark's warm-up
//! comparison both hold one binary against itself; this holds the stream
//! against the commit the numbers were written at (3297463, the libm
//! Box–Muller through `rand_distr::Normal`), so a change to how a frame is
//! drawn that moves one bit of one feature fails here.

use dacapo_datagen::{CenterCache, FrameStream, Scenario, StreamConfig};

const FRAMES: u64 = 4096;

/// FNV-1a over 64-bit words.
fn mix(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Hash of frames `0, stride, 2·stride, …` (`FRAMES` of them).
fn stream_hash(scenario: &Scenario, config: StreamConfig, stride: u64) -> u64 {
    let stream = FrameStream::new(scenario, config);
    let mut cache = CenterCache::new();
    (0..FRAMES).map(|k| k * stride).fold(0xcbf2_9ce4_8422_2325, |hash, index| {
        let frame = stream.frame_at(index);
        assert_eq!(frame, stream.frame_at_cached(index, &mut cache), "frame {index}");
        let hash = mix(mix(hash, frame.index), frame.sample.true_class as u64);
        frame.sample.features.iter().fold(hash, |h, v| mix(h, u64::from(v.to_bits())))
    })
}

#[test]
fn four_streams_hash_to_the_values_written_at_3297463() {
    let with_dim = |feature_dim| StreamConfig { feature_dim, ..StreamConfig::default() };
    let (s1, es1) = (Scenario::s1(), Scenario::es1());
    assert_eq!(stream_hash(&s1, StreamConfig::default(), 1), 0x029b_9734_e1e3_bafc, "S1");
    // Every builtin scenario spends its first 180 s in one context, so ES1's
    // frames 0..4096 are S1's. Every eighth frame instead: 1,092 s, eighteen
    // of the twenty segments, all four drift dimensions toggled.
    assert_eq!(stream_hash(&es1, StreamConfig::default(), 8), 0x0ec4_e954_d36f_99b4, "ES1");
    // Ragged against any lane width a vectorised noise kernel could pick.
    assert_eq!(stream_hash(&s1, with_dim(10), 1), 0x9b4a_5ed6_d3ce_d755, "S1, feature_dim 10");
    assert_eq!(stream_hash(&es1, with_dim(21), 8), 0x1153_31c2_2fd2_15fa, "ES1, feature_dim 21");
}
