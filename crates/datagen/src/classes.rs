//! Object classes and attribute-conditioned label distributions.
//!
//! The class set mirrors the ten BDD100K detection categories the paper crops
//! into its classification stream. The per-segment label priors reproduce the
//! Figure 8 behaviour: *Traffic Only* segments concentrate probability mass on
//! vehicles and traffic infrastructure, *All* segments add vulnerable road
//! users, and location/time modulate the mix (more trucks and fewer
//! pedestrians on highways, fewer bicycles at night, …).

use crate::attributes::{LabelDistribution, Location, SegmentAttributes, TimeOfDay};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of object classes in the stream.
pub const NUM_CLASSES: usize = 10;

/// The BDD100K-style object classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectClass {
    /// Passenger car.
    Car,
    /// Truck.
    Truck,
    /// Bus.
    Bus,
    /// Traffic light.
    TrafficLight,
    /// Traffic sign.
    TrafficSign,
    /// Pedestrian.
    Pedestrian,
    /// Bicycle.
    Bicycle,
    /// Motorcycle.
    Motorcycle,
    /// Rider (person on a two-wheeler).
    Rider,
    /// Train / tram.
    Train,
}

impl ObjectClass {
    /// All classes, index-aligned with the prior vectors.
    pub const ALL: [ObjectClass; NUM_CLASSES] = [
        ObjectClass::Car,
        ObjectClass::Truck,
        ObjectClass::Bus,
        ObjectClass::TrafficLight,
        ObjectClass::TrafficSign,
        ObjectClass::Pedestrian,
        ObjectClass::Bicycle,
        ObjectClass::Motorcycle,
        ObjectClass::Rider,
        ObjectClass::Train,
    ];

    /// The class's index into prior vectors and classifier outputs
    /// (exhaustive, so it can never miss; [`ObjectClass::ALL`] is
    /// index-aligned with this mapping, which the tests verify).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ObjectClass::Car => 0,
            ObjectClass::Truck => 1,
            ObjectClass::Bus => 2,
            ObjectClass::TrafficLight => 3,
            ObjectClass::TrafficSign => 4,
            ObjectClass::Pedestrian => 5,
            ObjectClass::Bicycle => 6,
            ObjectClass::Motorcycle => 7,
            ObjectClass::Rider => 8,
            ObjectClass::Train => 9,
        }
    }

    /// Whether the class only appears under the *All* label distribution.
    #[must_use]
    pub fn is_vulnerable_road_user(self) -> bool {
        matches!(
            self,
            ObjectClass::Pedestrian
                | ObjectClass::Bicycle
                | ObjectClass::Motorcycle
                | ObjectClass::Rider
        )
    }
}

impl fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ObjectClass::Car => "car",
            ObjectClass::Truck => "truck",
            ObjectClass::Bus => "bus",
            ObjectClass::TrafficLight => "traffic-light",
            ObjectClass::TrafficSign => "traffic-sign",
            ObjectClass::Pedestrian => "pedestrian",
            ObjectClass::Bicycle => "bicycle",
            ObjectClass::Motorcycle => "motorcycle",
            ObjectClass::Rider => "rider",
            ObjectClass::Train => "train",
        };
        write!(f, "{name}")
    }
}

/// The class prior of a segment with the given attributes.
///
/// The returned vector is indexed by [`ObjectClass::index`] and sums to one.
#[must_use]
pub fn class_prior(attrs: &SegmentAttributes) -> [f64; NUM_CLASSES] {
    // Base mix: cars dominate, infrastructure is common, everything else rare.
    let mut prior = match attrs.labels {
        LabelDistribution::TrafficOnly => [0.46, 0.12, 0.07, 0.17, 0.16, 0.0, 0.0, 0.0, 0.0, 0.02],
        LabelDistribution::All => [0.30, 0.09, 0.05, 0.12, 0.12, 0.17, 0.06, 0.04, 0.04, 0.01],
    };

    // Location modulation: highways carry more trucks/buses and almost no
    // pedestrians or cyclists; cities are the opposite.
    match attrs.location {
        Location::Highway => {
            prior[ObjectClass::Truck.index()] *= 1.8;
            prior[ObjectClass::Bus.index()] *= 1.3;
            prior[ObjectClass::TrafficLight.index()] *= 0.4;
            prior[ObjectClass::Pedestrian.index()] *= 0.15;
            prior[ObjectClass::Bicycle.index()] *= 0.1;
            prior[ObjectClass::Rider.index()] *= 0.3;
        }
        Location::City => {
            prior[ObjectClass::TrafficLight.index()] *= 1.2;
            prior[ObjectClass::Pedestrian.index()] *= 1.2;
        }
    }

    // Night: fewer cyclists and pedestrians on the road.
    if attrs.time == TimeOfDay::Night {
        prior[ObjectClass::Pedestrian.index()] *= 0.6;
        prior[ObjectClass::Bicycle.index()] *= 0.5;
    }

    // Normalise back to a distribution.
    let total: f64 = prior.iter().sum();
    for p in &mut prior {
        *p /= total;
    }
    prior
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Weather;

    #[test]
    fn priors_are_distributions() {
        for labels in [LabelDistribution::TrafficOnly, LabelDistribution::All] {
            for time in [TimeOfDay::Daytime, TimeOfDay::Night] {
                for location in [Location::City, Location::Highway] {
                    let attrs =
                        SegmentAttributes { labels, time, location, weather: Weather::Clear };
                    let prior = class_prior(&attrs);
                    let sum: f64 = prior.iter().sum();
                    assert!((sum - 1.0).abs() < 1e-9, "{attrs}: prior sums to {sum}");
                    assert!(prior.iter().all(|&p| (0.0..=1.0).contains(&p)));
                }
            }
        }
    }

    #[test]
    fn traffic_only_excludes_vulnerable_road_users() {
        let attrs = SegmentAttributes::default();
        let prior = class_prior(&attrs);
        for class in ObjectClass::ALL {
            if class.is_vulnerable_road_user() {
                assert_eq!(prior[class.index()], 0.0, "{class} should be absent in traffic-only");
            }
        }
    }

    #[test]
    fn all_distribution_includes_pedestrians() {
        let attrs =
            SegmentAttributes { labels: LabelDistribution::All, ..SegmentAttributes::default() };
        let prior = class_prior(&attrs);
        assert!(prior[ObjectClass::Pedestrian.index()] > 0.05);
    }

    #[test]
    fn highways_have_more_trucks_and_fewer_pedestrians() {
        let city =
            SegmentAttributes { labels: LabelDistribution::All, ..SegmentAttributes::default() };
        let highway = SegmentAttributes { location: Location::Highway, ..city };
        let city_prior = class_prior(&city);
        let highway_prior = class_prior(&highway);
        assert!(highway_prior[ObjectClass::Truck.index()] > city_prior[ObjectClass::Truck.index()]);
        assert!(
            highway_prior[ObjectClass::Pedestrian.index()]
                < city_prior[ObjectClass::Pedestrian.index()]
        );
    }

    #[test]
    fn label_distribution_change_moves_the_prior_substantially() {
        // This is the drift signal of Figure 8: the L1 distance between the
        // two label distributions is large.
        let traffic = class_prior(&SegmentAttributes::default());
        let all = class_prior(&SegmentAttributes {
            labels: LabelDistribution::All,
            ..SegmentAttributes::default()
        });
        let l1: f64 = traffic.iter().zip(all.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 > 0.3, "label distributions too similar: L1 = {l1}");
    }

    #[test]
    fn class_index_roundtrips() {
        for (i, class) in ObjectClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(ObjectClass::TrafficLight.to_string(), "traffic-light");
        assert_eq!(ObjectClass::Car.to_string(), "car");
    }
}
