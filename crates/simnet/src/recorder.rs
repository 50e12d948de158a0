//! Time-series recording for simulation outputs.

use std::collections::BTreeMap;

/// One recorded time series: `(seconds, value)` points in time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    points: Vec<(f64, f64)>,
}

impl Series {
    /// The recorded points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The largest value, or zero for an empty series.
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Mean value over the window `[from, to)` of recorded points.
    pub fn mean_between(&self, from: f64, to: f64) -> f64 {
        let window = || {
            self.points
                .iter()
                .filter(move |(t, _)| *t >= from && *t < to)
                .map(|&(_, v)| v)
        };
        match window().count() {
            0 => 0.0,
            n => window().sum::<f64>() / n as f64,
        }
    }
}

/// Collects named time series and phase marks from a simulation run.
///
/// The simulator records one `cpu:<process>` series automatically;
/// models add their own channels (e.g. `fwd_mbps`). Phase marks label
/// instants ("phase 1 start") for the figure renderers.
///
/// ```
/// use bgpbench_simnet::Recorder;
/// let mut recorder = Recorder::new();
/// recorder.add_point("fwd_mbps", 0.1, 250.0);
/// recorder.add_point("fwd_mbps", 0.2, 300.0);
/// recorder.mark("phase 3", 0.15);
/// assert_eq!(recorder.series("fwd_mbps").unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    series: BTreeMap<String, Series>,
    marks: Vec<(String, f64)>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Appends a point to a named series (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if points for one series are recorded out of time order.
    pub fn add_point(&mut self, channel: &str, time_secs: f64, value: f64) {
        // Only a new channel pays for an owned key.
        let Some(series) = self.series.get_mut(channel) else {
            let points = vec![(time_secs, value)];
            self.series.insert(channel.to_owned(), Series { points });
            return;
        };
        if let Some(&(last, _)) = series.points.last() {
            assert!(
                time_secs >= last,
                "series {channel} recorded out of order ({time_secs} < {last})"
            );
        }
        series.points.push((time_secs, value));
    }

    /// Records a labeled instant.
    pub fn mark(&mut self, label: &str, time_secs: f64) {
        self.marks.push((label.to_owned(), time_secs));
    }

    /// A named series, if it has any points.
    pub fn series(&self, channel: &str) -> Option<&Series> {
        self.series.get(channel)
    }

    /// All channel names, sorted.
    pub fn channels(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// The recorded phase marks in recording order.
    pub fn marks(&self) -> &[(String, f64)] {
        &self.marks
    }

    /// The time of the first mark with this label, if any.
    pub fn mark_time(&self, label: &str) -> Option<f64> {
        self.marks.iter().find(|(l, _)| l == label).map(|&(_, t)| t)
    }

    /// Renders all series as CSV: `time,channel,value` rows, channels
    /// interleaved in time order per channel block.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("channel,time_s,value\n");
        for (channel, series) in &self.series {
            for (t, v) in series.points() {
                out.push_str(&format!("{channel},{t:.6},{v:.6}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulate_in_order() {
        let mut r = Recorder::new();
        r.add_point("a", 0.0, 1.0);
        r.add_point("a", 1.0, 3.0);
        r.add_point("b", 0.5, 2.0);
        assert_eq!(r.series("a").unwrap().points(), &[(0.0, 1.0), (1.0, 3.0)]);
        assert_eq!(r.channels().collect::<Vec<_>>(), vec!["a", "b"]);
        assert!(r.series("c").is_none());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_points_panic() {
        let mut r = Recorder::new();
        r.add_point("a", 1.0, 1.0);
        r.add_point("a", 0.5, 1.0);
    }

    #[test]
    fn marks_and_lookup() {
        let mut r = Recorder::new();
        r.mark("phase 1", 0.0);
        r.mark("phase 3", 2.5);
        assert_eq!(r.mark_time("phase 3"), Some(2.5));
        assert_eq!(r.mark_time("phase 2"), None);
        assert_eq!(r.marks().len(), 2);
    }

    #[test]
    fn series_statistics() {
        let mut r = Recorder::new();
        for i in 0..10 {
            r.add_point("x", i as f64, i as f64 * 10.0);
        }
        let s = r.series("x").unwrap();
        assert_eq!(s.max_value(), 90.0);
        assert_eq!(s.mean_between(0.0, 10.0), 45.0);
        assert_eq!(s.mean_between(2.0, 4.0), 25.0);
        assert_eq!(s.mean_between(100.0, 200.0), 0.0);
    }

    #[test]
    fn csv_rendering() {
        let mut r = Recorder::new();
        r.add_point("cpu:bgp", 0.0, 50.0);
        let csv = r.to_csv();
        assert!(csv.starts_with("channel,time_s,value\n"));
        assert!(csv.contains("cpu:bgp,0.000000,50.000000"));
    }
}
