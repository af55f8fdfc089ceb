//! Scenario timelines: sequences of attribute segments with data drifts.

use crate::attributes::{
    DriftKind, LabelDistribution, Location, SegmentAttributes, TimeOfDay, Weather,
};
use crate::error::DatagenError;
use serde::{de, DeError, Deserialize, Serialize, Value};

/// One contiguous stretch of the stream with fixed attributes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Attributes active during this segment.
    pub attributes: SegmentAttributes,
    /// Segment duration in seconds.
    pub duration_s: f64,
}

/// A named evaluation scenario: a 20-minute timeline of 60-second segments
/// whose attributes change at segment boundaries (the data drifts).
///
/// The eight scenarios follow Table II of the paper: S1–S6 fix the weather
/// and drift along one to three dimensions; ES1–ES2 are the extreme scenarios
/// where all four dimensions drift.
///
/// # Examples
///
/// ```
/// use dacapo_datagen::Scenario;
///
/// let s5 = Scenario::s5();
/// assert_eq!(s5.name(), "S5");
/// assert!((s5.duration_s() - 1200.0).abs() < 1e-9);
/// assert!(!s5.drift_boundaries().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Scenario {
    name: String,
    segments: Vec<Segment>,
}

/// Decoding goes through [`Scenario::try_from_segments`], so a scenario read
/// from JSON (a config, a session snapshot) is never one that code could not
/// build.
impl Deserialize for Scenario {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Self::try_from_segments(
            de::field::<String>(value, "Scenario", "name")?,
            de::field(value, "Scenario", "segments")?,
        )
        .map_err(|e| DeError::new(format!("Scenario: {e}")))
    }
}

/// Default scenario length in seconds (20 minutes).
const SCENARIO_SECONDS: f64 = 20.0 * 60.0;
/// Default segment length in seconds (Figure 8 uses 60-second segments).
const SEGMENT_SECONDS: f64 = 60.0;

impl Scenario {
    /// Builds a scenario from explicit segments, rejecting degenerate
    /// timelines: an empty segment list, or any segment whose duration is
    /// non-positive or non-finite.
    ///
    /// # Errors
    ///
    /// Returns [`DatagenError::EmptyScenario`] or
    /// [`DatagenError::InvalidSegmentDuration`] naming the offending
    /// segment.
    ///
    /// # Examples
    ///
    /// ```
    /// use dacapo_datagen::{Scenario, Segment, SegmentAttributes};
    ///
    /// assert!(Scenario::try_from_segments("empty", vec![]).is_err());
    /// let ok = Scenario::try_from_segments(
    ///     "one",
    ///     vec![Segment { attributes: SegmentAttributes::default(), duration_s: 60.0 }],
    /// );
    /// assert!(ok.is_ok());
    /// ```
    pub fn try_from_segments(
        name: impl Into<String>,
        segments: Vec<Segment>,
    ) -> Result<Self, DatagenError> {
        let name = name.into();
        if segments.is_empty() {
            return Err(DatagenError::EmptyScenario { name });
        }
        for (index, segment) in segments.iter().enumerate() {
            if !(segment.duration_s.is_finite() && segment.duration_s > 0.0) {
                return Err(DatagenError::InvalidSegmentDuration {
                    name,
                    index,
                    duration_s: segment.duration_s,
                });
            }
        }
        Ok(Self { name, segments })
    }

    /// Scenario name (e.g. `"S1"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The segment list in timeline order.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total duration in seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.segments.iter().map(|s| s.duration_s).sum()
    }

    /// The attributes active at time `t` (clamped to the timeline).
    #[must_use]
    pub fn attributes_at(&self, t: f64) -> SegmentAttributes {
        let mut elapsed = 0.0;
        self.segments
            .iter()
            .find(|segment| {
                elapsed += segment.duration_s;
                t < elapsed
            })
            .or(self.segments.last())
            .map_or_else(SegmentAttributes::default, |segment| segment.attributes)
    }

    /// Times (seconds from the start) at which attributes change, along with
    /// the drift dimensions that change there.
    #[must_use]
    pub fn drift_boundaries(&self) -> Vec<(f64, Vec<DriftKind>)> {
        let mut boundaries = Vec::new();
        let mut elapsed = 0.0;
        for window in self.segments.windows(2) {
            elapsed += window[0].duration_s;
            let drifts = window[1].attributes.drifts_from(&window[0].attributes);
            if !drifts.is_empty() {
                boundaries.push((elapsed, drifts));
            }
        }
        boundaries
    }

    /// Time-weighted fraction of the common timeline (up to the shorter of
    /// the two durations) during which both scenarios expose **identical**
    /// attribute tuples — the correlation measure cross-camera sharing
    /// policies key on (`1.0` = attribute-identical, `0.0` = never aligned).
    ///
    /// # Examples
    ///
    /// ```
    /// use dacapo_datagen::Scenario;
    ///
    /// let s1 = Scenario::s1();
    /// assert!((s1.attribute_overlap(&s1) - 1.0).abs() < 1e-12);
    /// assert!(s1.attribute_overlap(&Scenario::es1()) < 1.0);
    /// ```
    #[must_use]
    pub fn attribute_overlap(&self, other: &Scenario) -> f64 {
        let common = self.duration_s().min(other.duration_s());
        if !(common.is_finite() && common > 0.0) {
            return 0.0;
        }
        // Merge both boundary lists and compare attributes at every cut
        // interval's midpoint: exact for piecewise-constant timelines.
        let mut cuts = vec![0.0, common];
        for scenario in [self, other] {
            let mut elapsed = 0.0;
            for segment in &scenario.segments {
                elapsed += segment.duration_s;
                if elapsed >= common {
                    break;
                }
                cuts.push(elapsed);
            }
        }
        cuts.sort_by(|a, b| a.total_cmp(b));
        let mut equal_s = 0.0;
        for pair in cuts.windows(2) {
            let (start, end) = (pair[0], pair[1]);
            if end <= start {
                continue;
            }
            let midpoint = (start + end) / 2.0;
            if self.attributes_at(midpoint) == other.attributes_at(midpoint) {
                equal_s += end - start;
            }
        }
        equal_s / common
    }

    /// The drift dimensions this scenario exercises anywhere on its timeline.
    #[must_use]
    pub fn drift_kinds(&self) -> Vec<DriftKind> {
        let mut kinds = Vec::new();
        for (_, drifts) in self.drift_boundaries() {
            for d in drifts {
                if !kinds.contains(&d) {
                    kinds.push(d);
                }
            }
        }
        kinds
    }

    /// S1: clear weather, label-distribution drift only.
    #[must_use]
    pub fn s1() -> Self {
        build("S1", Weather::Clear, &[DriftKind::LabelDistribution])
    }

    /// S2: overcast weather, label-distribution drift only.
    #[must_use]
    pub fn s2() -> Self {
        build("S2", Weather::Overcast, &[DriftKind::LabelDistribution])
    }

    /// S3: clear weather, label-distribution and time-of-day drifts.
    #[must_use]
    pub fn s3() -> Self {
        build("S3", Weather::Clear, &[DriftKind::LabelDistribution, DriftKind::TimeOfDay])
    }

    /// S4: snowy weather, label-distribution and time-of-day drifts.
    #[must_use]
    pub fn s4() -> Self {
        build("S4", Weather::Snowy, &[DriftKind::LabelDistribution, DriftKind::TimeOfDay])
    }

    /// S5: clear weather, label-distribution, time-of-day and location drifts.
    #[must_use]
    pub fn s5() -> Self {
        build(
            "S5",
            Weather::Clear,
            &[DriftKind::LabelDistribution, DriftKind::TimeOfDay, DriftKind::Location],
        )
    }

    /// S6: rainy weather, label-distribution, time-of-day and location drifts.
    #[must_use]
    pub fn s6() -> Self {
        build(
            "S6",
            Weather::Rainy,
            &[DriftKind::LabelDistribution, DriftKind::TimeOfDay, DriftKind::Location],
        )
    }

    /// ES1: extreme scenario, all four drift dimensions active.
    #[must_use]
    pub fn es1() -> Self {
        build(
            "ES1",
            Weather::Clear,
            &[
                DriftKind::LabelDistribution,
                DriftKind::TimeOfDay,
                DriftKind::Location,
                DriftKind::Weather,
            ],
        )
    }

    /// ES2: second extreme scenario, all four drift dimensions active with a
    /// different phase pattern.
    #[must_use]
    pub fn es2() -> Self {
        let mut scenario = build(
            "ES2",
            Weather::Overcast,
            &[
                DriftKind::LabelDistribution,
                DriftKind::TimeOfDay,
                DriftKind::Location,
                DriftKind::Weather,
            ],
        );
        // Shift the pattern by reversing the segment order, which produces a
        // distinct but equally extreme drift sequence.
        scenario.segments.reverse();
        scenario.name = "ES2".to_string();
        scenario
    }

    /// The six regular scenarios S1–S6.
    #[must_use]
    pub fn regular() -> Vec<Self> {
        vec![Self::s1(), Self::s2(), Self::s3(), Self::s4(), Self::s5(), Self::s6()]
    }

    /// The two extreme scenarios ES1–ES2.
    #[must_use]
    pub fn extreme() -> Vec<Self> {
        vec![Self::es1(), Self::es2()]
    }

    /// All eight scenarios.
    #[must_use]
    pub fn all() -> Vec<Self> {
        let mut scenarios = Self::regular();
        scenarios.extend(Self::extreme());
        scenarios
    }

    /// Looks a scenario up by name (`"S1"` … `"S6"`, `"ES1"`, `"ES2"`),
    /// case-insensitively.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|s| s.name.eq_ignore_ascii_case(name))
    }
}

/// Builds a 20-minute scenario that toggles the listed drift dimensions at
/// fixed, co-prime periods so multi-dimensional scenarios see both isolated
/// and coincident drifts.
#[expect(
    clippy::expect_used,
    reason = "the builtin tables always emit a fixed positive number of fixed-duration segments"
)]
fn build(name: &str, weather: Weather, drifts: &[DriftKind]) -> Scenario {
    let num_segments = (SCENARIO_SECONDS / SEGMENT_SECONDS) as usize;
    // Toggle periods chosen to be mutually co-prime so drift events spread
    // irregularly over the timeline (mirroring the paper's recut video clips).
    let period = |kind: DriftKind| match kind {
        DriftKind::LabelDistribution => 3,
        DriftKind::TimeOfDay => 4,
        DriftKind::Location => 5,
        DriftKind::Weather => 7,
    };
    let alternate_weather = match weather {
        Weather::Clear => Weather::Rainy,
        Weather::Overcast => Weather::Snowy,
        Weather::Snowy => Weather::Overcast,
        Weather::Rainy => Weather::Clear,
    };

    let mut segments = Vec::with_capacity(num_segments);
    for index in 0..num_segments {
        let toggled = |kind: DriftKind| drifts.contains(&kind) && (index / period(kind)) % 2 == 1;
        let attributes = SegmentAttributes {
            labels: if toggled(DriftKind::LabelDistribution) {
                LabelDistribution::All
            } else {
                LabelDistribution::TrafficOnly
            },
            time: if toggled(DriftKind::TimeOfDay) { TimeOfDay::Night } else { TimeOfDay::Daytime },
            location: if toggled(DriftKind::Location) { Location::Highway } else { Location::City },
            weather: if toggled(DriftKind::Weather) { alternate_weather } else { weather },
        };
        segments.push(Segment { attributes, duration_s: SEGMENT_SECONDS });
    }
    Scenario::try_from_segments(name, segments).expect("builtin scenarios are non-degenerate")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_are_twenty_minutes_of_sixty_second_segments() {
        for scenario in Scenario::all() {
            assert!((scenario.duration_s() - 1200.0).abs() < 1e-9, "{}", scenario.name());
            assert_eq!(scenario.segments().len(), 20, "{}", scenario.name());
            assert!(scenario.segments().iter().all(|s| (s.duration_s - 60.0).abs() < 1e-9));
        }
    }

    #[test]
    fn scenario_names_match_table2() {
        let names: Vec<String> = Scenario::all().iter().map(|s| s.name().to_string()).collect();
        assert_eq!(names, vec!["S1", "S2", "S3", "S4", "S5", "S6", "ES1", "ES2"]);
    }

    #[test]
    fn drift_kinds_follow_table2() {
        assert_eq!(Scenario::s1().drift_kinds(), vec![DriftKind::LabelDistribution]);
        assert_eq!(Scenario::s2().drift_kinds(), vec![DriftKind::LabelDistribution]);
        let s3 = Scenario::s3().drift_kinds();
        assert!(s3.contains(&DriftKind::LabelDistribution) && s3.contains(&DriftKind::TimeOfDay));
        assert!(!s3.contains(&DriftKind::Location));
        let s5 = Scenario::s5().drift_kinds();
        assert_eq!(s5.len(), 3);
        let es1 = Scenario::es1().drift_kinds();
        assert_eq!(es1.len(), 4, "extreme scenarios drift in every dimension");
    }

    #[test]
    fn weather_matches_table2_for_fixed_weather_scenarios() {
        assert!(Scenario::s1().segments().iter().all(|s| s.attributes.weather == Weather::Clear));
        assert!(Scenario::s2()
            .segments()
            .iter()
            .all(|s| s.attributes.weather == Weather::Overcast));
        assert!(Scenario::s4().segments().iter().all(|s| s.attributes.weather == Weather::Snowy));
        assert!(Scenario::s6().segments().iter().all(|s| s.attributes.weather == Weather::Rainy));
    }

    #[test]
    fn every_scenario_has_multiple_drift_boundaries() {
        for scenario in Scenario::all() {
            let boundaries = scenario.drift_boundaries();
            assert!(
                boundaries.len() >= 4,
                "{} has only {} drift boundaries",
                scenario.name(),
                boundaries.len()
            );
            // Boundaries are strictly increasing and inside the timeline.
            for pair in boundaries.windows(2) {
                assert!(pair[0].0 < pair[1].0);
            }
            assert!(boundaries.iter().all(|(t, _)| *t > 0.0 && *t < scenario.duration_s()));
        }
    }

    #[test]
    fn extreme_scenarios_differ_from_each_other() {
        assert_ne!(Scenario::es1().segments(), Scenario::es2().segments());
    }

    #[test]
    fn attributes_at_is_piecewise_constant_and_clamped() {
        let s = Scenario::s3();
        let first = s.segments()[0].attributes;
        assert_eq!(s.attributes_at(0.0), first);
        assert_eq!(s.attributes_at(59.9), first);
        assert_eq!(s.attributes_at(1e9), s.segments().last().unwrap().attributes);
    }

    #[test]
    fn attribute_overlap_is_exact_for_piecewise_timelines() {
        let a = SegmentAttributes::default();
        let b = SegmentAttributes { time: TimeOfDay::Night, ..a };
        let segment = |attributes, duration_s| Segment { attributes, duration_s };
        // Misaligned boundaries: [a 60 | b 60] vs [a 90 | b 30] agree on
        // [0, 60) and [90, 120) = 90 of 120 seconds.
        let left =
            Scenario::try_from_segments("l", vec![segment(a, 60.0), segment(b, 60.0)]).unwrap();
        let right =
            Scenario::try_from_segments("r", vec![segment(a, 90.0), segment(b, 30.0)]).unwrap();
        assert!((left.attribute_overlap(&right) - 0.75).abs() < 1e-12);
        assert!((right.attribute_overlap(&left) - 0.75).abs() < 1e-12, "overlap is symmetric");
        // Identical and fully-disjoint timelines hit the extremes.
        assert!((left.attribute_overlap(&left) - 1.0).abs() < 1e-12);
        let inverted =
            Scenario::try_from_segments("i", vec![segment(b, 60.0), segment(a, 60.0)]).unwrap();
        assert_eq!(left.attribute_overlap(&inverted), 0.0);
        // Different durations compare over the shorter timeline.
        let short = Scenario::try_from_segments("s", vec![segment(a, 60.0)]).unwrap();
        assert!((left.attribute_overlap(&short) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert_eq!(Scenario::by_name("s4").unwrap().name(), "S4");
        assert_eq!(Scenario::by_name("ES2").unwrap().name(), "ES2");
        assert!(Scenario::by_name("S9").is_none());
    }

    #[test]
    fn a_decoded_scenario_is_checked_like_a_built_one() {
        let s3 = Scenario::s3();
        assert_eq!(Scenario::from_value(&s3.to_value()), Ok(s3));
        let scenario = |segments: Vec<Segment>| {
            let segments = segments.iter().map(Serialize::to_value).collect();
            let name = ("name".to_string(), Value::Str("x".into()));
            Value::Object(vec![name, ("segments".to_string(), Value::Array(segments))])
        };
        let err = Scenario::from_value(&scenario(vec![])).unwrap_err();
        assert!(err.to_string().contains("at least one segment"), "{err}");
        let segment = |duration_s| Segment { attributes: SegmentAttributes::default(), duration_s };
        let err = Scenario::from_value(&scenario(vec![segment(-60.0)])).unwrap_err();
        assert!(err.to_string().contains("segment 0 has -60"), "{err}");
        let one = Scenario::from_value(&scenario(vec![segment(60.0)])).unwrap();
        assert_eq!(one.attributes_at(1e9), SegmentAttributes::default());
    }

    #[test]
    fn try_from_segments_reports_degenerate_timelines_as_errors() {
        assert_eq!(
            Scenario::try_from_segments("bad", vec![]),
            Err(DatagenError::EmptyScenario { name: "bad".into() })
        );
        let segment =
            |duration_s: f64| Segment { attributes: SegmentAttributes::default(), duration_s };
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let err = Scenario::try_from_segments("bad", vec![segment(60.0), segment(bad)])
                .expect_err("degenerate duration must be rejected");
            match err {
                DatagenError::InvalidSegmentDuration { index, .. } => assert_eq!(index, 1),
                other => panic!("unexpected error {other:?}"),
            }
        }
        let ok = Scenario::try_from_segments("ok", vec![segment(30.0)]).unwrap();
        assert_eq!(ok.name(), "ok");
        assert_eq!(ok.segments().len(), 1);
    }
}
