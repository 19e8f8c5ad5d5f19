//! Mobility models.
//!
//! All the paper's experiments use the Random Waypoint model (§5: "all the
//! experiments are conducted under Random Waypoint mobility model"). The
//! other models here support testing, the Paper II demo walkthrough
//! (scripted three-node topology), and extension experiments.
//!
//! The kernel holds one boxed [`MobilityModel`] per node and steps every
//! node in node order on the calling thread. A node's step reads and
//! writes only its own model state and its own RNG stream, so the order
//! is fixed by the data. Every model takes this one path; mobility is
//! about 1% of a step in the paper's worlds, so it is not split across
//! threads.

use serde::{Deserialize, Serialize};

use crate::geometry::{Area, Point};
use crate::rng::SimRng;
use crate::time::SimDuration;

/// Per-node movement state, advanced once per simulation step.
pub trait MobilityModel: std::fmt::Debug + Send {
    /// Advances the node by `dt`, returning its new position.
    fn step(&mut self, current: Point, dt: SimDuration, area: Area, rng: &mut SimRng) -> Point;

    /// An initial position for this node.
    fn initial_position(&mut self, area: Area, rng: &mut SimRng) -> Point {
        Point::new(rng.uniform(0.0, area.width), rng.uniform(0.0, area.height))
    }

    /// The model's dynamic walk state as an opaque document, for a
    /// whole-world snapshot. Stateless models return [`serde::Value::Null`]
    /// (the default); stateful models must override both this and
    /// [`MobilityModel::restore_state`] or a resumed run will replay their
    /// walk from scratch.
    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restores the dynamic walk state captured by
    /// [`MobilityModel::snapshot_state`].
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when `state` is not a document
    /// this model produces (e.g. a snapshot taken under a different
    /// mobility model).
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        if matches!(state, serde::Value::Null) {
            Ok(())
        } else {
            Err("snapshot carries mobility state but this model keeps none".to_string())
        }
    }

    /// An upper bound on this node's displacement per second, if the model
    /// can promise one: `|position(t+dt) − position(t)| ≤ cap · dt` for
    /// every step. The event-driven contact core schedules pair rechecks
    /// from this bound; `None` (the default) is always safe and degrades
    /// that node's pairs to a per-step check.
    fn speed_cap_m_s(&self) -> Option<f64> {
        None
    }
}

/// The Random Waypoint model: pick a uniform destination, walk to it at a
/// uniform speed from `[min_speed, max_speed]`, pause, repeat.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomWaypoint {
    /// Minimum walking speed, m/s.
    pub min_speed: f64,
    /// Maximum walking speed, m/s.
    pub max_speed: f64,
    /// Maximum pause at each waypoint, seconds (uniform in `[0, max]`).
    pub max_pause_secs: f64,
    #[serde(skip)]
    state: WaypointState,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
enum WaypointState {
    #[default]
    NeedTarget,
    Walking {
        target: Point,
        speed: f64,
    },
    Paused {
        remaining: f64,
    },
}

impl RandomWaypoint {
    /// Creates a model with pedestrian speeds.
    ///
    /// The defaults (0.5–1.5 m/s walk, up to 120 s pause) are ONE's standard
    /// pedestrian profile, which the paper's scenario implicitly uses.
    ///
    /// # Panics
    ///
    /// Panics if the speed range is empty or non-positive.
    #[must_use]
    pub fn new(min_speed: f64, max_speed: f64, max_pause_secs: f64) -> Self {
        assert!(
            min_speed > 0.0 && max_speed >= min_speed,
            "speed range must be positive and non-empty"
        );
        assert!(max_pause_secs >= 0.0, "pause must be non-negative");
        RandomWaypoint {
            min_speed,
            max_speed,
            max_pause_secs,
            state: WaypointState::NeedTarget,
        }
    }

    /// ONE's default pedestrian profile (0.5–1.5 m/s, ≤120 s pause).
    #[must_use]
    pub fn pedestrian() -> Self {
        Self::new(0.5, 1.5, 120.0)
    }
}

impl MobilityModel for RandomWaypoint {
    fn step(&mut self, current: Point, dt: SimDuration, area: Area, rng: &mut SimRng) -> Point {
        let mut pos = current;
        let mut budget = dt.as_secs();
        // A step can cross a waypoint boundary; loop until the time budget
        // for this step is spent.
        while budget > 0.0 {
            match self.state {
                WaypointState::NeedTarget => {
                    let target =
                        Point::new(rng.uniform(0.0, area.width), rng.uniform(0.0, area.height));
                    let speed = if self.max_speed > self.min_speed {
                        rng.uniform(self.min_speed, self.max_speed)
                    } else {
                        self.min_speed
                    };
                    self.state = WaypointState::Walking { target, speed };
                }
                WaypointState::Walking { target, speed } => {
                    let dist_left = pos.distance_to(target);
                    let dist_possible = speed * budget;
                    if dist_possible >= dist_left {
                        pos = target;
                        budget -= if speed > 0.0 {
                            dist_left / speed
                        } else {
                            budget
                        };
                        let pause = if self.max_pause_secs > 0.0 {
                            rng.uniform(0.0, self.max_pause_secs)
                        } else {
                            0.0
                        };
                        self.state = WaypointState::Paused { remaining: pause };
                    } else {
                        pos = pos.step_toward(target, dist_possible);
                        budget = 0.0;
                    }
                }
                WaypointState::Paused { remaining } => {
                    if remaining > budget {
                        self.state = WaypointState::Paused {
                            remaining: remaining - budget,
                        };
                        budget = 0.0;
                    } else {
                        budget -= remaining;
                        self.state = WaypointState::NeedTarget;
                    }
                }
            }
        }
        pos
    }

    fn snapshot_state(&self) -> serde::Value {
        self.state.to_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.state = WaypointState::from_value(state)
            .map_err(|e| format!("random-waypoint state does not parse: {e}"))?;
        Ok(())
    }

    fn speed_cap_m_s(&self) -> Option<f64> {
        Some(self.max_speed)
    }
}

/// A drift-free random walk: each step moves in a fresh uniform direction at
/// a fixed speed, reflecting off the area boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomWalk {
    /// Speed, m/s.
    pub speed: f64,
}

impl RandomWalk {
    /// Creates a walk at `speed` m/s.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is negative.
    #[must_use]
    pub fn new(speed: f64) -> Self {
        assert!(speed >= 0.0, "speed must be non-negative");
        RandomWalk { speed }
    }
}

impl MobilityModel for RandomWalk {
    fn step(&mut self, current: Point, dt: SimDuration, area: Area, rng: &mut SimRng) -> Point {
        let theta = rng.uniform(0.0, std::f64::consts::TAU);
        let d = self.speed * dt.as_secs();
        let raw = Point::new(current.x + theta.cos() * d, current.y + theta.sin() * d);
        area.clamp(raw)
    }

    fn speed_cap_m_s(&self) -> Option<f64> {
        Some(self.speed)
    }
}

/// A node that never moves. Used for infrastructure nodes and tests.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Stationary;

impl MobilityModel for Stationary {
    fn step(&mut self, current: Point, _dt: SimDuration, _area: Area, _rng: &mut SimRng) -> Point {
        current
    }

    fn speed_cap_m_s(&self) -> Option<f64> {
        Some(0.0)
    }
}

/// Deterministic scripted movement: visit fixed `(time, position)` keyframes,
/// teleport-free (linear interpolation between keyframes).
///
/// Reproduces controlled topologies such as the Paper II demo (devices A–B–C
/// where A and C never share range).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScriptedWaypoints {
    keyframes: Vec<(f64, Point)>,
    elapsed: f64,
}

impl ScriptedWaypoints {
    /// Creates a script from `(seconds, position)` keyframes.
    ///
    /// Before the first keyframe the node sits at the first position; after
    /// the last it sits at the last.
    ///
    /// # Panics
    ///
    /// Panics if `keyframes` is empty or timestamps are not non-decreasing.
    #[must_use]
    pub fn new(keyframes: Vec<(f64, Point)>) -> Self {
        assert!(!keyframes.is_empty(), "script needs at least one keyframe");
        assert!(
            keyframes.windows(2).all(|w| w[0].0 <= w[1].0),
            "keyframe times must be non-decreasing"
        );
        ScriptedWaypoints {
            keyframes,
            elapsed: 0.0,
        }
    }

    /// A script that holds one position forever.
    #[must_use]
    pub fn pinned(p: Point) -> Self {
        Self::new(vec![(0.0, p)])
    }

    /// Parses a mobility trace in `t,x,y` CSV form (one keyframe per
    /// line; blank lines and `#` comments ignored) — the common format of
    /// published contact traces and of ONE's external-movement files.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, of an empty
    /// trace, or of out-of-order timestamps.
    pub fn from_csv(trace: &str) -> Result<Self, String> {
        let mut keyframes = Vec::new();
        for (lineno, line) in trace.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split(',').map(str::trim);
            let mut field = |name: &str| -> Result<f64, String> {
                parts
                    .next()
                    .ok_or_else(|| format!("line {}: missing {name}", lineno + 1))?
                    .parse::<f64>()
                    .map_err(|e| format!("line {}: bad {name}: {e}", lineno + 1))
            };
            let t = field("t")?;
            let x = field("x")?;
            let y = field("y")?;
            if !(t.is_finite() && x.is_finite() && y.is_finite()) {
                return Err(format!("line {}: non-finite value", lineno + 1));
            }
            keyframes.push((t, Point::new(x, y)));
        }
        if keyframes.is_empty() {
            return Err("trace contains no keyframes".into());
        }
        if !keyframes.windows(2).all(|w| w[0].0 <= w[1].0) {
            return Err("trace timestamps must be non-decreasing".into());
        }
        Ok(Self::new(keyframes))
    }

    fn position_at(&self, t: f64) -> Point {
        let ks = &self.keyframes;
        if t <= ks[0].0 {
            return ks[0].1;
        }
        for w in ks.windows(2) {
            let (t0, p0) = w[0];
            let (t1, p1) = w[1];
            if t <= t1 {
                if t1 == t0 {
                    return p1;
                }
                let f = (t - t0) / (t1 - t0);
                return Point::new(p0.x + (p1.x - p0.x) * f, p0.y + (p1.y - p0.y) * f);
            }
        }
        ks[ks.len() - 1].1
    }
}

impl MobilityModel for ScriptedWaypoints {
    fn step(&mut self, _current: Point, dt: SimDuration, _area: Area, _rng: &mut SimRng) -> Point {
        self.elapsed += dt.as_secs();
        self.position_at(self.elapsed)
    }

    fn initial_position(&mut self, _area: Area, _rng: &mut SimRng) -> Point {
        self.position_at(0.0)
    }

    fn snapshot_state(&self) -> serde::Value {
        self.elapsed.to_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.elapsed = f64::from_value(state)
            .map_err(|e| format!("scripted-waypoints state does not parse: {e}"))?;
        Ok(())
    }

    fn speed_cap_m_s(&self) -> Option<f64> {
        // Max segment speed over the script; a zero-duration hop between
        // distinct keyframes is a teleport with no finite cap.
        let mut cap: f64 = 0.0;
        for w in self.keyframes.windows(2) {
            let (t0, p0) = w[0];
            let (t1, p1) = w[1];
            let d = p0.distance_to(p1);
            if d > 0.0 {
                if t1 <= t0 {
                    return None;
                }
                cap = cap.max(d / (t1 - t0));
            }
        }
        Some(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(99)
    }

    #[test]
    fn waypoint_stays_in_area_and_moves() {
        let area = Area::new(500.0, 500.0);
        let mut m = RandomWaypoint::pedestrian();
        let mut r = rng();
        let mut pos = m.initial_position(area, &mut r);
        let start = pos;
        let mut moved = false;
        for _ in 0..2000 {
            pos = m.step(pos, SimDuration::from_secs(1.0), area, &mut r);
            assert!(area.contains(pos), "escaped the area: {pos:?}");
            if pos.distance_to(start) > 1.0 {
                moved = true;
            }
        }
        assert!(moved, "random waypoint never moved");
    }

    #[test]
    fn waypoint_speed_bounded() {
        let area = Area::new(500.0, 500.0);
        let mut m = RandomWaypoint::new(1.0, 2.0, 0.0);
        let mut r = rng();
        let mut pos = m.initial_position(area, &mut r);
        for _ in 0..500 {
            let next = m.step(pos, SimDuration::from_secs(1.0), area, &mut r);
            // With zero pause the node can still turn a corner mid-step, but
            // displacement can never exceed max speed × dt.
            assert!(next.distance_to(pos) <= 2.0 + 1e-9);
            pos = next;
        }
    }

    #[test]
    fn random_walk_respects_speed_and_bounds() {
        let area = Area::new(100.0, 100.0);
        let mut m = RandomWalk::new(3.0);
        let mut r = rng();
        let mut pos = Point::new(50.0, 50.0);
        for _ in 0..500 {
            let next = m.step(pos, SimDuration::from_secs(2.0), area, &mut r);
            assert!(next.distance_to(pos) <= 6.0 + 1e-9);
            assert!(area.contains(next));
            pos = next;
        }
    }

    #[test]
    fn stationary_never_moves() {
        let area = Area::new(10.0, 10.0);
        let mut m = Stationary;
        let p = Point::new(3.0, 4.0);
        let next = m.step(p, SimDuration::from_secs(100.0), area, &mut rng());
        assert_eq!(next, p);
    }

    #[test]
    fn script_interpolates_linearly() {
        let mut m = ScriptedWaypoints::new(vec![
            (0.0, Point::new(0.0, 0.0)),
            (10.0, Point::new(100.0, 0.0)),
        ]);
        let area = Area::new(200.0, 200.0);
        let mut r = rng();
        assert_eq!(m.initial_position(area, &mut r), Point::ORIGIN);
        let p = m.step(Point::ORIGIN, SimDuration::from_secs(5.0), area, &mut r);
        assert!((p.x - 50.0).abs() < 1e-9 && p.y == 0.0);
        let p = m.step(p, SimDuration::from_secs(100.0), area, &mut r);
        assert_eq!(p, Point::new(100.0, 0.0), "holds last keyframe");
    }

    #[test]
    fn pinned_script_is_stationary() {
        let mut m = ScriptedWaypoints::pinned(Point::new(7.0, 8.0));
        let area = Area::new(10.0, 10.0);
        let mut r = rng();
        assert_eq!(m.initial_position(area, &mut r), Point::new(7.0, 8.0));
        let p = m.step(Point::ORIGIN, SimDuration::from_secs(50.0), area, &mut r);
        assert_eq!(p, Point::new(7.0, 8.0));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn script_rejects_unordered_keyframes() {
        let _ = ScriptedWaypoints::new(vec![(5.0, Point::ORIGIN), (1.0, Point::ORIGIN)]);
    }

    #[test]
    fn csv_trace_round_trip() {
        let trace = "# a demo trace\n0, 10, 20\n\n30, 40, 20\n60,40,80\n";
        let mut m = ScriptedWaypoints::from_csv(trace).expect("valid trace");
        let area = Area::new(100.0, 100.0);
        let mut r = rng();
        assert_eq!(m.initial_position(area, &mut r), Point::new(10.0, 20.0));
        let p = m.step(Point::ORIGIN, SimDuration::from_secs(15.0), area, &mut r);
        assert!(
            (p.x - 25.0).abs() < 1e-9 && (p.y - 20.0).abs() < 1e-9,
            "{p:?}"
        );
    }

    #[test]
    fn csv_trace_errors_are_descriptive() {
        assert!(ScriptedWaypoints::from_csv("")
            .unwrap_err()
            .contains("no keyframes"));
        assert!(ScriptedWaypoints::from_csv("0,1")
            .unwrap_err()
            .contains("missing y"));
        assert!(ScriptedWaypoints::from_csv("0,1,zebra")
            .unwrap_err()
            .contains("bad y"));
        assert!(ScriptedWaypoints::from_csv("5,0,0\n1,0,0")
            .unwrap_err()
            .contains("non-decreasing"));
        assert!(ScriptedWaypoints::from_csv("0,inf,0")
            .unwrap_err()
            .contains("non-finite"));
    }
}
