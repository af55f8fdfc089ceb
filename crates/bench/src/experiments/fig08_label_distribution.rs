//! Figure 8 / Table II: scenario definitions and per-segment label
//! distributions.
//!
//! For each scenario, prints the drift dimensions it exercises (Table II) and
//! the class distribution of selected 60-second segments (Figure 8),
//! measured by sampling the synthetic stream.

use crate::{pct, render_table, ExperimentOptions, Failure, HostRecord, Report};
use dacapo_datagen::{FrameStream, ObjectClass, Scenario, StreamConfig, NUM_CLASSES};
use serde::Serialize;
use std::fmt::Write as _;

#[derive(Serialize)]
struct SegmentDistribution {
    scenario: String,
    segment_index: usize,
    attributes: String,
    class_shares: Vec<(String, f64)>,
}

fn segment_distribution(stream: &FrameStream, segment_index: usize) -> Vec<f64> {
    let start = segment_index as f64 * 60.0;
    let frames = stream.frames_between(start, start + 60.0, 6);
    let mut counts = vec![0usize; NUM_CLASSES];
    for frame in &frames {
        counts[frame.sample.true_class] += 1;
    }
    let total = frames.len().max(1) as f64;
    counts.into_iter().map(|c| c as f64 / total).collect()
}

pub(super) fn run(_options: &ExperimentOptions, _host: &mut HostRecord) -> Result<Report, Failure> {
    let mut text = String::new();
    writeln!(text, "Table II: workload scenarios and their drift dimensions\n")?;
    let scenario_rows: Vec<Vec<String>> = Scenario::all()
        .iter()
        .map(|s| {
            let drifts: Vec<String> = s.drift_kinds().iter().map(ToString::to_string).collect();
            let weather = format!("{:?}", s.segments()[0].attributes.weather);
            vec![
                s.name().to_string(),
                weather,
                drifts.join(", "),
                s.drift_boundaries().len().to_string(),
            ]
        })
        .collect();
    writeln!(
        text,
        "{}",
        render_table(&["Scenario", "Weather", "Drift types", "Drift events"], &scenario_rows)
    )?;

    writeln!(
        text,
        "Figure 8: label distributions in distinct 60-second segments (example scenario S1)\n"
    )?;
    let stream = FrameStream::new(&Scenario::s1(), StreamConfig::default());
    let mut json_rows = Vec::new();
    // Show a handful of segments spanning both label distributions.
    for segment_index in [0usize, 3, 6, 9, 12, 15] {
        let distribution = segment_distribution(&stream, segment_index);
        let attributes = stream.scenario().segments()[segment_index].attributes;
        let mut cells = vec![format!("segment {segment_index}"), attributes.to_string()];
        for class in ObjectClass::ALL {
            cells.push(pct(distribution[class.index()]));
        }
        json_rows.push(SegmentDistribution {
            scenario: "S1".to_string(),
            segment_index,
            attributes: attributes.to_string(),
            class_shares: ObjectClass::ALL
                .iter()
                .map(|c| (c.to_string(), distribution[c.index()]))
                .collect(),
        });
        let mut headers = vec!["Segment", "Attributes"];
        let class_names: Vec<String> = ObjectClass::ALL.iter().map(ToString::to_string).collect();
        headers.extend(class_names.iter().map(String::as_str));
        if segment_index == 0 {
            writeln!(text, "{}", render_table(&headers, &[cells]))?;
        } else {
            // Reuse the same column layout without repeating the header.
            writeln!(
                text,
                "{}",
                render_table(&headers, &[cells]).lines().skip(2).collect::<Vec<_>>().join("\n")
            )?;
        }
    }
    Report::new(&json_rows, text)
}
