use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use rand::seq::SliceRandom;
use rand::RngCore;
use serde::{Deserialize, Serialize};

use mobipriv_geo::{GridIndex, LatLng, LocalFrame, Point, Seconds};
use mobipriv_model::{Dataset, Fix, Timestamp, Trace, TraceBuilder, UserId};

use crate::error::require_positive;
use crate::{CoreError, Mechanism};

/// Parameters of mix-zone detection and swapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixZoneConfig {
    /// Radius of a mix-zone disc, meters.
    pub radius_m: f64,
    /// Two users "meet" when they are within the radius at instants at
    /// most this far apart.
    pub time_tolerance: Seconds,
    /// Interpolation step used when scanning traces for meetings.
    pub sampling: Seconds,
    /// Width of the time slices meetings are grouped into: an upper
    /// bound on the duration of a single mix-zone (long co-presence —
    /// e.g. a shared office — becomes a *sequence* of zones). Keeping
    /// zones short keeps the suppressed-point loss small, per the
    /// paper's "as long as mix-zones remain reasonably small".
    pub zone_window: Seconds,
    /// Minimum number of distinct users required to form a zone
    /// (at least 2).
    pub min_members: usize,
    /// Minimum instantaneous speed (m/s) of *both* participants for a
    /// co-location to count as a meeting. Mix-zones are pass-through
    /// areas (Beresford & Stajano): two users parked in the same
    /// building all day gain no unlinkability from "mixing" there, and
    /// suppressing their whole co-dwell would wreck utility. Set to
    /// `0.0` to disable the gate.
    pub min_speed_mps: f64,
}

impl Default for MixZoneConfig {
    fn default() -> Self {
        MixZoneConfig {
            radius_m: 100.0,
            time_tolerance: Seconds::new(60.0),
            sampling: Seconds::new(20.0),
            zone_window: Seconds::new(300.0),
            min_members: 2,
            min_speed_mps: 0.5,
        }
    }
}

impl MixZoneConfig {
    fn validate(&self) -> Result<(), CoreError> {
        require_positive("mix-zone radius", self.radius_m)?;
        require_positive("time tolerance", self.time_tolerance.get())?;
        require_positive("sampling interval", self.sampling.get())?;
        require_positive("zone window", self.zone_window.get())?;
        if self.min_members < 2 {
            return Err(CoreError::KTooSmall(self.min_members));
        }
        if !self.min_speed_mps.is_finite() || self.min_speed_mps < 0.0 {
            return Err(CoreError::InvalidParameter {
                what: "minimum speed",
                value: self.min_speed_mps,
            });
        }
        Ok(())
    }
}

/// A detected mix-zone: a disc and a time interval during which at least
/// [`MixZoneConfig::min_members`] users passed through it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixZone {
    /// Center of the zone.
    pub center: LatLng,
    /// Radius, meters.
    pub radius_m: f64,
    /// Start of the zone's activity interval.
    pub start: Timestamp,
    /// End of the zone's activity interval.
    pub end: Timestamp,
    /// Distinct users observed meeting inside, ascending.
    pub members: Vec<UserId>,
}

impl MixZone {
    /// Whether `position` at instant `time` falls inside the zone.
    pub fn contains(&self, frame: &LocalFrame, position: LatLng, time: Timestamp) -> bool {
        time >= self.start
            && time <= self.end
            && frame
                .project(position)
                .distance(frame.project(self.center))
                .get()
                <= self.radius_m
    }

    /// Duration of the zone's activity interval.
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }
}

/// Outcome report of a [`MixZones`] run — the quantities experiment T4
/// tabulates.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SwapReport {
    /// The zones that were detected and used.
    pub zones: Vec<MixZone>,
    /// Fixes suppressed because they fell inside a zone.
    pub suppressed_fixes: usize,
    /// Total fixes in the input dataset.
    pub input_fixes: usize,
    /// Zones where the applied permutation moved at least one label.
    pub swap_events: usize,
    /// For every published label: how many fixes each *original* user
    /// contributed. The off-diagonal mass is what confuses an attacker.
    pub label_flows: BTreeMap<UserId, BTreeMap<UserId, usize>>,
}

impl SwapReport {
    /// Fraction of input fixes that were suppressed.
    pub fn suppression_ratio(&self) -> f64 {
        if self.input_fixes == 0 {
            0.0
        } else {
            self.suppressed_fixes as f64 / self.input_fixes as f64
        }
    }

    /// The true user contributing the most fixes to `label`'s published
    /// traces (ties broken toward the smaller id), or `None` when the
    /// label published nothing. The honest re-identification score after
    /// swapping compares the adversary's guess to this owner.
    pub fn majority_owner(&self, label: mobipriv_model::UserId) -> Option<mobipriv_model::UserId> {
        self.label_flows.get(&label).and_then(|flows| {
            flows
                .iter()
                .max_by_key(|(user, count)| (**count, std::cmp::Reverse(**user)))
                .map(|(user, _)| *user)
        })
    }

    /// Fraction of published fixes whose label differs from their true
    /// user — the headline "confusion" number.
    pub fn mixed_fix_ratio(&self) -> f64 {
        let mut total = 0usize;
        let mut mixed = 0usize;
        for (label, flows) in &self.label_flows {
            for (origin, count) in flows {
                total += count;
                if origin != label {
                    mixed += count;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            mixed as f64 / total as f64
        }
    }
}

/// A meeting event: two distinct users sampled within the radius at
/// nearly the same instant.
#[derive(Debug, Clone, Copy)]
struct Meeting {
    midpoint: Point,
    time: i64,
    trace_a: usize,
    trace_b: usize,
}

/// Detects the natural mix-zones of a dataset (step 1 of the swapping
/// mechanism; also the subject of experiment T4).
///
/// Each trace is sampled every [`MixZoneConfig::sampling`] seconds;
/// samples of different users within `radius_m` of each other and within
/// `time_tolerance` seconds form *meetings*; meetings are grouped into
/// time slices of `zone_window` and spatially merged within a slice.
/// Zones come out sorted by `(start, center)`; ties keep the order of
/// their earliest meeting, so the result is a pure function of the
/// input.
///
/// # Panics
///
/// Panics if `config` is invalid (use [`MixZones::new`] for validated
/// construction).
pub fn detect_mix_zones(dataset: &Dataset, config: &MixZoneConfig) -> Vec<MixZone> {
    config.validate().expect("invalid mix-zone config");
    // Frame reuse only: zone detection works on *interpolated* positions,
    // so the cached per-fix projection columns do not apply here — but
    // the canonical frame itself (one bounding-box scan) is shared.
    let Some(frame) = dataset.columns().frame().copied() else {
        return Vec::new();
    };
    detect(dataset, config, &frame, true)
}

/// Zone detection through the indexed kernels, or through the
/// brute-force reference ones (`indexed = false`). Both return the same
/// zones in the same order.
fn detect(
    dataset: &Dataset,
    config: &MixZoneConfig,
    frame: &LocalFrame,
    indexed: bool,
) -> Vec<MixZone> {
    if indexed {
        let meetings = find_meetings(dataset, config, frame);
        build_zones(dataset, config, frame, &meetings, link_indexed)
    } else {
        let meetings = find_meetings_naive(dataset, config, frame);
        build_zones(dataset, config, frame, &meetings, link_naive)
    }
}

/// Walks the sampling lattice of `trace` — its start, then every
/// [`MixZoneConfig::sampling`] seconds, then its end — and hands each
/// sample to `visit` as `(time, position, projected point, speed)`, the
/// speed being the displacement since the previous sample per second.
fn sample_trace(
    trace: &Trace,
    config: &MixZoneConfig,
    frame: &LocalFrame,
    mut visit: impl FnMut(i64, LatLng, Point, f64),
) {
    let step = config.sampling.get().max(1.0) as i64;
    let mut t = trace.start_time().get();
    let end = trace.end_time().get();
    let mut prev: Option<(i64, Point)> = None;
    while t <= end {
        let position = trace.position_at(Timestamp::new(t));
        let p = frame.project(position);
        let speed = match prev {
            Some((pt, pp)) if t > pt => pp.distance(p).get() / (t - pt) as f64,
            // First sample: no displacement evidence, treat as
            // stationary (conservative under the pass-through gate).
            _ => 0.0,
        };
        visit(t, position, p, speed);
        prev = Some((t, p));
        if t == end {
            break;
        }
        t = (t + step).min(end);
    }
}

/// A sample that passes the speed gate, with what the meeting scan
/// needs of it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    time: i64,
    trace: usize,
    position: LatLng,
    point: Point,
}

/// Samples every trace and returns all pairwise meetings, in exactly the
/// order [`find_meetings_naive`] emits them — zone centres are float
/// sums taken in that order.
///
/// The naive scan builds a [`GridIndex`] (cells of side
/// `max(radius, 1)`) over each pair of adjacent tolerance buckets and
/// queries it once per sample, in insertion order. Here each bucket's
/// samples are sorted by cell once. The candidates of a cell — its 3×3
/// block row by row, previous bucket before current bucket within a
/// cell, insertion order within that, exactly as
/// [`GridIndex::entries_within`] yields them — are gathered once for all
/// its samples by a forward sweep, and a stable sort puts each bucket's
/// meetings back in query order. Samples below the speed gate are
/// dropped up front: the gate applies to both partners, so they can
/// never take part in a meeting.
fn find_meetings(dataset: &Dataset, config: &MixZoneConfig, frame: &LocalFrame) -> Vec<Meeting> {
    let tol = config.time_tolerance.get().max(1.0) as i64;
    let grid = GridIndex::<()>::new(config.radius_m.max(1.0)).expect("positive radius");
    let r_sq = config.radius_m * config.radius_m;
    // Per bucket, in insertion order (the query order).
    let mut buckets: BTreeMap<i64, Vec<Sample>> = BTreeMap::new();
    for (idx, trace) in dataset.traces().iter().enumerate() {
        sample_trace(trace, config, frame, |time, position, point, speed| {
            if speed >= config.min_speed_mps {
                buckets
                    .entry(time.div_euclid(tol))
                    .or_default()
                    .push(Sample {
                        time,
                        trace: idx,
                        position,
                        point,
                    });
            }
        });
    }

    let users: Vec<UserId> = dataset.traces().iter().map(Trace::user).collect();
    let mut meetings = Vec::new();
    let mut found: Vec<(usize, Meeting)> = Vec::new();
    let mut candidates: Vec<&Sample> = Vec::new();
    // (row, column, index in the bucket) of the previous and the current
    // bucket's samples, sorted by cell.
    let mut previous: (&[Sample], Vec<(i64, i64, usize)>) = (&[], Vec::new());
    let mut current_cells: Vec<(i64, i64, usize)> = Vec::new();
    let mut last_bucket = None;
    for (&b, current) in &buckets {
        if last_bucket != Some(b - 1) {
            previous.0 = &[];
            previous.1.clear();
        }
        current_cells.clear();
        current_cells.extend(current.iter().enumerate().map(|(i, s)| {
            let cell = grid.cell_of(s.point);
            (cell.cy, cell.cx, i)
        }));
        current_cells.sort_unstable();
        let sources = [
            (previous.0, &previous.1[..]),
            (&current[..], &current_cells[..]),
        ];
        // The bucket's samples are swept cell by cell, so the start of
        // each neighbour row's run (per source) only moves forward.
        let mut cursors = [[0usize; 3]; 2];
        let mut pos = 0;
        while pos < current_cells.len() {
            let (row, col, _) = current_cells[pos];
            let len = current_cells[pos..]
                .iter()
                .take_while(|&&(y, x, _)| (y, x) == (row, col))
                .count();
            // What the 3×3 query returns for any point of this cell.
            candidates.clear();
            for (d, y) in (row - 1..=row + 1).enumerate() {
                let mut runs = [0, 1].map(|s| {
                    let cells = sources[s].1;
                    let start = &mut cursors[s][d];
                    while *start < cells.len() && (cells[*start].0, cells[*start].1) < (y, col - 1)
                    {
                        *start += 1;
                    }
                    &cells[*start..]
                });
                for x in col - 1..=col + 1 {
                    for (s, run) in runs.iter_mut().enumerate() {
                        while let Some((&(cy, cx, ci), rest)) = run.split_first() {
                            if (cy, cx) != (y, x) {
                                break;
                            }
                            candidates.push(&sources[s].0[ci]);
                            *run = rest;
                        }
                    }
                }
            }
            for &(.., qi) in &current_cells[pos..pos + len] {
                let q = &current[qi];
                let user = users[q.trace];
                for c in &candidates {
                    // Each unordered pair once: require a strict order on
                    // (time, index); equal-time pairs ordered by index.
                    if (c.time, c.trace) >= (q.time, q.trace)
                        || c.point.distance_sq(q.point) > r_sq
                        || users[c.trace] == user
                        || (q.time - c.time).abs() > tol
                    {
                        continue;
                    }
                    found.push((
                        qi,
                        Meeting {
                            midpoint: frame.project(q.position.midpoint(c.position)),
                            time: q.time.midpoint(c.time),
                            trace_a: q.trace,
                            trace_b: c.trace,
                        },
                    ));
                }
            }
            pos += len;
        }
        // Back to query order; the stable sort keeps each query's
        // candidates in cell order.
        found.sort_by_key(|&(qi, _)| qi);
        meetings.extend(found.drain(..).map(|(_, m)| m));
        previous.0 = current;
        std::mem::swap(&mut previous.1, &mut current_cells);
        last_bucket = Some(b);
    }
    meetings
}

/// Brute-force reference for [`find_meetings`]: one [`GridIndex`] per
/// tolerance bucket over that bucket and the previous one, queried per
/// sample.
fn find_meetings_naive(
    dataset: &Dataset,
    config: &MixZoneConfig,
    frame: &LocalFrame,
) -> Vec<Meeting> {
    // (time, trace index, planar position, speed); times are bucketed by
    // the tolerance so partners are found in adjacent buckets only.
    let tol = config.time_tolerance.get().max(1.0) as i64;
    let mut buckets: HashMap<i64, Vec<(i64, usize, Point, f64)>> = HashMap::new();
    for (idx, trace) in dataset.traces().iter().enumerate() {
        sample_trace(trace, config, frame, |t, _, p, speed| {
            buckets
                .entry(t.div_euclid(tol))
                .or_default()
                .push((t, idx, p, speed));
        });
    }
    let users: Vec<UserId> = dataset.traces().iter().map(Trace::user).collect();
    let mut meetings = Vec::new();
    let mut bucket_ids: Vec<i64> = buckets.keys().copied().collect();
    bucket_ids.sort_unstable();
    for &b in &bucket_ids {
        let current = &buckets[&b];
        // Spatial index over this bucket and the previous one.
        let mut index = GridIndex::new(config.radius_m.max(1.0)).expect("positive radius");
        for source in [b - 1, b] {
            if let Some(events) = buckets.get(&source) {
                for e in events {
                    index.insert(e.2, *e);
                }
            }
        }
        for &(t, idx, p, speed) in current {
            if speed < config.min_speed_mps {
                continue;
            }
            for (_, &(t2, idx2, _p2, speed2)) in index.entries_within(p, config.radius_m) {
                // Each unordered pair once: require a strict order on
                // (time, index); equal-time pairs ordered by index.
                let after = (t2, idx2) < (t, idx);
                if !after || idx2 == idx || users[idx2] == users[idx] {
                    continue;
                }
                if speed2 < config.min_speed_mps {
                    continue;
                }
                if (t - t2).abs() <= tol {
                    meetings.push(Meeting {
                        midpoint: frame.project(
                            dataset.traces()[idx]
                                .position_at(Timestamp::new(t))
                                .midpoint(dataset.traces()[idx2].position_at(Timestamp::new(t2))),
                        ),
                        time: t.midpoint(t2),
                        trace_a: idx,
                        trace_b: idx2,
                    });
                }
            }
        }
    }
    meetings
}

/// Disjoint-set forest over `0..n` (path halving).
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (a, b) = (self.find(a), self.find(b));
        if a != b {
            self.parent[a] = b;
        }
    }

    /// The sets, ordered by their smallest element, each ascending.
    fn groups(mut self) -> Vec<Vec<usize>> {
        let mut group_of = vec![usize::MAX; self.parent.len()];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for x in 0..self.parent.len() {
            let root = self.find(x);
            if group_of[root] == usize::MAX {
                group_of[root] = groups.len();
                groups.push(Vec::new());
            }
            groups[group_of[root]].push(x);
        }
        groups
    }
}

/// Unions the meeting midpoints of one time slice that are linked.
type Linker = fn(&[Point], f64, &mut UnionFind);

/// Groups meetings into zones: time slices of `zone_window`; within a
/// slice, the connected components of the graph `link` builds over the
/// meeting midpoints.
fn build_zones(
    dataset: &Dataset,
    config: &MixZoneConfig,
    frame: &LocalFrame,
    meetings: &[Meeting],
    link: Linker,
) -> Vec<MixZone> {
    let window = config.zone_window.get().max(1.0) as i64;
    let mut slices: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for (i, m) in meetings.iter().enumerate() {
        slices.entry(m.time.div_euclid(window)).or_default().push(i);
    }
    let users: Vec<UserId> = dataset.traces().iter().map(Trace::user).collect();
    let tol = config.time_tolerance.get() as i64;
    let mut zones = Vec::new();
    for ids in slices.into_values() {
        let midpoints: Vec<Point> = ids.iter().map(|&mi| meetings[mi].midpoint).collect();
        let mut sets = UnionFind::new(ids.len());
        link(&midpoints, config.radius_m, &mut sets);
        // Components in order of their first meeting (the order ties in
        // the sort below keep), meetings ascending (the order the centre
        // sum runs in).
        let mut slice_zones: Vec<MixZone> = sets
            .groups()
            .into_iter()
            .filter_map(|locals| {
                let ms: Vec<&Meeting> = locals.iter().map(|&l| &meetings[ids[l]]).collect();
                let mut members: Vec<UserId> = ms
                    .iter()
                    .flat_map(|m| [users[m.trace_a], users[m.trace_b]])
                    .collect();
                members.sort_unstable();
                members.dedup();
                if members.len() < config.min_members {
                    return None;
                }
                let n = ms.len() as f64;
                let center = ms.iter().fold(Point::ORIGIN, |acc, m| acc + m.midpoint) / n;
                let t_min = ms.iter().map(|m| m.time).min().expect("non-empty");
                let t_max = ms.iter().map(|m| m.time).max().expect("non-empty");
                Some(MixZone {
                    center: frame.unproject(center),
                    radius_m: config.radius_m,
                    start: Timestamp::new(t_min - tol),
                    end: Timestamp::new(t_max + tol),
                    members,
                })
            })
            .collect();
        slice_zones.sort_by_key(|z| (z.start, ordered(z.center)));
        zones.extend(slice_zones);
    }
    zones.sort_by_key(|z| (z.start, ordered(z.center)));
    zones
}

/// The link relation of both linkers: `points[i]` and `points[j]` are
/// linked when the naive scan's [`GridIndex`] (cells of side
/// `max(radius, 1)`) finds one from the other — their cells touch and
/// `distance_sq ≤ radius²`.
fn link_naive(points: &[Point], radius: f64, sets: &mut UnionFind) {
    let mut index = GridIndex::new(radius.max(1.0)).expect("positive radius");
    for (i, &p) in points.iter().enumerate() {
        index.insert(p, i);
    }
    for (i, &p) in points.iter().enumerate() {
        for &j in index.neighbours_within(p, radius) {
            sets.union(i, j);
        }
    }
}

/// Deepest sub-cell split [`link_indexed`] uses (radii down to ~2 µm);
/// smaller radii fall back to [`link_naive`].
const MAX_SPLIT: u32 = 20;

/// The bounding box of some planar points.
#[derive(Debug, Clone, Copy)]
struct Extent {
    lo: Point,
    hi: Point,
}

impl Extent {
    fn point(p: Point) -> Self {
        Extent { lo: p, hi: p }
    }

    /// The box of the points `(xs[i], ys[i])`; both non-empty.
    fn of(xs: &[f64], ys: &[f64]) -> Self {
        let mut extent = Extent::point(Point::new(xs[0], ys[0]));
        for (&x, &y) in xs.iter().zip(ys) {
            extent.add(Point::new(x, y));
        }
        extent
    }

    fn add(&mut self, p: Point) {
        self.lo = Point::new(self.lo.x.min(p.x), self.lo.y.min(p.y));
        self.hi = Point::new(self.hi.x.max(p.x), self.hi.y.max(p.y));
    }

    /// A lower bound on [`Point::distance_sq`] between any point in
    /// `self` and any point in `other`, computed with the same float
    /// operations: rounding is monotone, so the bound holds for the
    /// computed distances too, ties included.
    fn gap_sq(&self, other: &Extent) -> f64 {
        let gx = (other.lo.x - self.hi.x)
            .max(self.lo.x - other.hi.x)
            .max(0.0);
        let gy = (other.lo.y - self.hi.y)
            .max(self.lo.y - other.hi.y)
            .max(0.0);
        gx * gx + gy * gy
    }
}

/// The points of one sub-cell in [`link_indexed`].
struct SubCell {
    row: i64,
    col: i64,
    /// Range of the sub-cell's entries in the sorted key array.
    members: Range<usize>,
    extent: Extent,
}

/// Unions exactly the pairs [`link_naive`] unions — hence the same
/// connected components — in near-linear time instead of one neighbour
/// scan per point (quadratic in a clumped slice).
///
/// Each naive grid cell (side `c = max(radius, 1)`) is split into
/// sub-cells of side `c / 2^k ≤ radius / 2`. Scaling by a power of two
/// is exact, so a point's naive cell is its sub-cell index shifted
/// right by `k`: sub-cells nest in grid cells and "the cells touch" is
/// a property of a sub-cell pair. Two points of one sub-cell are at most
/// `radius / √2` apart, hence linked: each sub-cell is unioned to its
/// first point. Then each pair of sub-cells in touching grid cells gets
/// one early-exit pair test, skipped when the two are already joined or
/// when their bounding boxes are more than `radius` apart.
fn link_indexed(points: &[Point], radius: f64, sets: &mut UnionFind) {
    let cell = radius.max(1.0);
    let mut k = 1;
    while cell / f64::from(1u32 << k) > radius / 2.0 {
        k += 1;
        if k > MAX_SPLIT {
            return link_naive(points, radius, sets);
        }
    }
    let side = cell / f64::from(1u32 << k);
    let r_sq = radius * radius;
    let mut keys: Vec<(i64, i64, usize)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| ((p.y / side).floor() as i64, (p.x / side).floor() as i64, i))
        .collect();
    keys.sort_unstable();
    let mut subcells: Vec<SubCell> = Vec::new();
    for (pos, &(row, col, i)) in keys.iter().enumerate() {
        let p = points[i];
        match subcells.last_mut() {
            Some(s) if (s.row, s.col) == (row, col) => {
                s.members.end = pos + 1;
                s.extent.add(p);
                sets.union(keys[s.members.start].2, i);
            }
            _ => subcells.push(SubCell {
                row,
                col,
                members: pos..pos + 1,
                extent: Extent::point(p),
            }),
        }
    }
    for (a, sa) in subcells.iter().enumerate() {
        let (grid_row, grid_col) = (sa.row >> k, sa.col >> k);
        let (first_col, last_col) = ((grid_col - 1) << k, ((grid_col + 2) << k) - 1);
        for row in (grid_row - 1) << k..(grid_row + 2) << k {
            // Later sub-cells only: each unordered pair once.
            let from = subcells
                .partition_point(|s| (s.row, s.col) < (row, first_col))
                .max(a + 1);
            for sb in subcells[from..]
                .iter()
                .take_while(|s| (s.row, s.col) <= (row, last_col))
            {
                let (first_a, first_b) = (keys[sa.members.start].2, keys[sb.members.start].2);
                if sets.find(first_a) == sets.find(first_b) || sa.extent.gap_sq(&sb.extent) > r_sq {
                    continue;
                }
                'pairs: for &(_, _, i) in &keys[sa.members.clone()] {
                    if Extent::point(points[i]).gap_sq(&sb.extent) > r_sq {
                        continue;
                    }
                    for &(_, _, j) in &keys[sb.members.clone()] {
                        if points[j].distance_sq(points[i]) <= r_sq {
                            sets.union(i, j);
                            break 'pairs;
                        }
                    }
                }
            }
        }
    }
}

fn ordered(ll: LatLng) -> (i64, i64) {
    ((ll.lat() * 1e7) as i64, (ll.lng() * 1e7) as i64)
}

/// The zones' time windows and projected centres, for finding by binary
/// search the few zones an instant or interval can meet.
struct ZoneIndex<'a> {
    zones: &'a [MixZone],
    /// Zone starts, ascending (zones are sorted by start).
    starts: Vec<i64>,
    centers: Vec<Point>,
    /// The longest zone duration, seconds.
    max_span: i64,
}

impl<'a> ZoneIndex<'a> {
    fn new(zones: &'a [MixZone], frame: &LocalFrame) -> Self {
        let starts: Vec<i64> = zones.iter().map(|z| z.start.get()).collect();
        debug_assert!(starts.is_sorted(), "zones are sorted by start");
        ZoneIndex {
            zones,
            starts,
            centers: zones.iter().map(|z| frame.project(z.center)).collect(),
            max_span: zones
                .iter()
                .map(|z| z.end.get() - z.start.get())
                .max()
                .unwrap_or(0),
        }
    }

    /// A range of zone indices holding every zone whose window meets
    /// `[from, to]`: those starting in `[from - max_span, to]`.
    fn overlapping(&self, from: i64, to: i64) -> Range<usize> {
        let earliest = from.saturating_sub(self.max_span);
        let lo = self.starts.partition_point(|&s| s < earliest);
        let hi = self.starts.partition_point(|&s| s <= to);
        lo..hi.max(lo)
    }

    /// [`MixZone::contains`] over every zone, for a fix at `time` whose
    /// canonical-frame projection is `point`.
    fn contains(&self, point: Point, time: i64) -> bool {
        self.overlapping(time, time).any(|zi| {
            let zone = &self.zones[zi];
            time >= zone.start.get()
                && time <= zone.end.get()
                && point.distance(self.centers[zi]).get() <= zone.radius_m
        })
    }
}

/// Slack added to the radius by the bounding-box skip in
/// [`MixZones::crossings`], far above the float error of interpolating
/// in one frame and projecting in another.
const CHORD_SLACK_M: f64 = 1.0;

/// The mix-zone swapping mechanism — step 2 of the paper.
///
/// Points inside detected zones are suppressed, and each zone applies a
/// uniformly random permutation to the identifiers of the traces
/// traversing it ("a user entering labelled A could leave labelled B or
/// remain A"). Location data outside zones is published untouched: the
/// mechanism costs no spatial accuracy at all.
///
/// ```
/// use mobipriv_core::{MixZoneConfig, MixZones};
/// let mech = MixZones::new(MixZoneConfig::default()).unwrap();
/// assert!(MixZones::new(MixZoneConfig { radius_m: -1.0, ..Default::default() }).is_err());
/// # let _ = mech;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MixZones {
    config: MixZoneConfig,
}

impl MixZones {
    /// Creates the mechanism after validating `config`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for non-positive radius /
    /// intervals and [`CoreError::KTooSmall`] when `min_members < 2`.
    pub fn new(config: MixZoneConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(MixZones { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &MixZoneConfig {
        &self.config
    }

    /// Runs the mechanism and returns the protected dataset together
    /// with the [`SwapReport`].
    ///
    /// Near-linear in the dataset: meetings come from one bucketed,
    /// cell-sorted pass; zones from sub-cell unions; crossings and the
    /// suppression test visit only the zones whose time window can
    /// overlap (binary search on the sorted zone starts), and skip a
    /// zone whose centre is out of reach of the trace's fixes. The
    /// published dataset, the report and the random draws are
    /// bit-identical to [`protect_with_report_naive`].
    ///
    /// [`protect_with_report_naive`]: MixZones::protect_with_report_naive
    pub fn protect_with_report(
        &self,
        dataset: &Dataset,
        rng: &mut dyn RngCore,
    ) -> (Dataset, SwapReport) {
        self.protect_inner(dataset, rng, true)
    }

    /// Brute-force reference implementation: every zone is tested
    /// against every trace and every fix (`O(zones × fixes)`), and
    /// meetings are linked by one neighbour scan per meeting. Kept
    /// public for the indexed≡naive equivalence tests and the
    /// `mobipriv-bench-perf` before/after comparison.
    pub fn protect_with_report_naive(
        &self,
        dataset: &Dataset,
        rng: &mut dyn RngCore,
    ) -> (Dataset, SwapReport) {
        self.protect_inner(dataset, rng, false)
    }

    fn protect_inner(
        &self,
        dataset: &Dataset,
        rng: &mut dyn RngCore,
        indexed: bool,
    ) -> (Dataset, SwapReport) {
        let Some(frame) = dataset.columns().frame().copied() else {
            return (Dataset::new(), SwapReport::default());
        };
        let zones = detect(dataset, &self.config, &frame, indexed);
        let (out, report, swap_events) = if indexed {
            let index = ZoneIndex::new(&zones, &frame);
            let crossings = self.crossings(dataset, &frame, &index);
            let (timelines, swap_events) = assign_labels(dataset, &crossings, rng);
            let (x, y) = (dataset.columns().x(), dataset.columns().y());
            // The columns hold `frame.project(fix.position)` exactly.
            let (out, report) = publish(dataset, &timelines, |column, fix| {
                index.contains(Point::new(x[column], y[column]), fix.time.get())
            });
            (out, report, swap_events)
        } else {
            let crossings = self.crossings_naive(dataset, &frame, &zones);
            let (timelines, swap_events) = assign_labels(dataset, &crossings, rng);
            let (out, report) = publish(dataset, &timelines, |_, fix| {
                zones
                    .iter()
                    .any(|z| z.contains(&frame, fix.position, fix.time))
            });
            (out, report, swap_events)
        };
        (
            out,
            SwapReport {
                zones,
                swap_events,
                ..report
            },
        )
    }

    /// For every zone, the traces crossing it (ascending) with the last
    /// sampled instant each spends inside.
    ///
    /// Only the zones whose window overlaps the trace are visited. A
    /// zone is also skipped when the bounding box of the trace's fixes
    /// bracketing the overlap is more than `radius + CHORD_SLACK_M` from
    /// its centre: every sample there is one of those fixes or lies on
    /// the chord between two consecutive ones, because interpolation is
    /// linear in lat/lng and the projection is affine in lat/lng. That
    /// holds while no fix is 90° or more of longitude from the frame
    /// origin (no wrap-around); otherwise the skip is off.
    fn crossings(
        &self,
        dataset: &Dataset,
        frame: &LocalFrame,
        index: &ZoneIndex<'_>,
    ) -> Vec<Vec<(usize, Timestamp)>> {
        let step = self.config.sampling.get().max(1.0) as i64;
        let columns = dataset.columns();
        let origin_lng = frame.origin().lng();
        let chords_hold = columns
            .lng()
            .iter()
            .all(|&lng| (lng - origin_lng).abs() < 90.0);
        let reach = self.config.radius_m + CHORD_SLACK_M;
        let reach_sq = reach * reach;
        let (xs, ys) = (columns.x(), columns.y());
        let mut out = vec![Vec::new(); index.zones.len()];
        for (idx, trace) in dataset.traces().iter().enumerate() {
            let span = columns.span(idx);
            let times = &columns.time()[span.clone()];
            let whole = Extent::of(&xs[span.clone()], &ys[span.clone()]);
            let (start, end) = (trace.start_time(), trace.end_time());
            for zi in index.overlapping(start.get(), end.get()) {
                let zone = &index.zones[zi];
                if end < zone.start || start > zone.end {
                    continue;
                }
                let from = start.max(zone.start).get();
                let to = end.min(zone.end).get();
                let center = Extent::point(index.centers[zi]);
                if chords_hold {
                    // The whole trace first (a cheap superset), then the
                    // last fix at or before `from` through the first fix
                    // at or after `to`.
                    if whole.gap_sq(&center) > reach_sq {
                        continue;
                    }
                    let lo = span.start + times.partition_point(|&t| t <= from).saturating_sub(1);
                    let hi = span.start + times.partition_point(|&t| t < to).min(times.len() - 1);
                    if Extent::of(&xs[lo..=hi], &ys[lo..=hi]).gap_sq(&center) > reach_sq {
                        continue;
                    }
                }
                if let Some(exit) =
                    last_inside(trace, frame, from, to, step, center.lo, zone.radius_m)
                {
                    out[zi].push((idx, exit));
                }
            }
        }
        out
    }

    /// Brute-force reference for [`crossings`](MixZones::crossings):
    /// every zone against every trace.
    fn crossings_naive(
        &self,
        dataset: &Dataset,
        frame: &LocalFrame,
        zones: &[MixZone],
    ) -> Vec<Vec<(usize, Timestamp)>> {
        let step = self.config.sampling.get().max(1.0) as i64;
        zones
            .iter()
            .map(|zone| {
                let center = frame.project(zone.center);
                dataset
                    .traces()
                    .iter()
                    .enumerate()
                    .filter(|(_, trace)| {
                        trace.end_time() >= zone.start && trace.start_time() <= zone.end
                    })
                    .filter_map(|(idx, trace)| {
                        let from = trace.start_time().max(zone.start).get();
                        let to = trace.end_time().min(zone.end).get();
                        last_inside(trace, frame, from, to, step, center, zone.radius_m)
                            .map(|exit| (idx, exit))
                    })
                    .collect()
            })
            .collect()
    }
}

/// The last instant of the lattice `from, from + step, …, to` at which
/// `trace` is within `radius` of `center`.
fn last_inside(
    trace: &Trace,
    frame: &LocalFrame,
    from: i64,
    to: i64,
    step: i64,
    center: Point,
    radius: f64,
) -> Option<Timestamp> {
    let mut exit = None;
    let mut t = from;
    while t <= to {
        let p = frame.project(trace.position_at(Timestamp::new(t)));
        if p.distance(center).get() <= radius {
            exit = Some(Timestamp::new(t));
        }
        if t == to {
            break;
        }
        t = (t + step).min(to);
    }
    exit
}

/// Per-trace label timelines, `(effective_from, label)` sorted by time.
type Timelines = Vec<Vec<(Timestamp, UserId)>>;

/// Applies, zone by zone, a uniformly random permutation to the labels
/// of the traces crossing the zone (`crossings[zone]`, ascending trace
/// order), each new label taking effect at the trace's exit. Returns the
/// per-trace label timelines and the number of zones whose permutation
/// moved a label.
fn assign_labels(
    dataset: &Dataset,
    crossings: &[Vec<(usize, Timestamp)>],
    rng: &mut dyn RngCore,
) -> (Timelines, usize) {
    // labels[i] = label currently carried by physical trace i.
    let mut labels: Vec<UserId> = dataset.traces().iter().map(Trace::user).collect();
    let mut timelines: Timelines = dataset
        .traces()
        .iter()
        .map(|t| vec![(Timestamp::new(i64::MIN), t.user())])
        .collect();
    let mut swap_events = 0usize;
    for participants in crossings {
        if participants.len() < 2 {
            continue;
        }
        let mut perm: Vec<UserId> = participants.iter().map(|(t, _)| labels[*t]).collect();
        perm.shuffle(rng);
        let moved = participants
            .iter()
            .zip(&perm)
            .any(|((t, _), new)| labels[*t] != *new);
        if moved {
            swap_events += 1;
        }
        for ((trace, exit), new_label) in participants.iter().zip(&perm) {
            labels[*trace] = *new_label;
            timelines[*trace].push((*exit, *new_label));
        }
    }
    for timeline in &mut timelines {
        timeline.sort_by_key(|(t, _)| *t);
    }
    (timelines, swap_events)
}

/// Emits published fixes under the label in effect at their time,
/// skipping fixes for which `in_zone(column, fix)` holds (`column` is
/// the fix's index in [`Dataset::columns`]). Each maximal run of one
/// input trace under one label becomes its own published trace: the
/// session structure of the input is preserved (merging a label's
/// sessions into one long trace would re-introduce dwell geometry at the
/// session boundaries). The report's zones and swap count are left
/// empty.
fn publish(
    dataset: &Dataset,
    timelines: &Timelines,
    mut in_zone: impl FnMut(usize, &Fix) -> bool,
) -> (Dataset, SwapReport) {
    let mut out = Dataset::new();
    let mut suppressed = 0usize;
    let mut input_fixes = 0usize;
    let mut label_flows: BTreeMap<UserId, BTreeMap<UserId, usize>> = BTreeMap::new();
    for (idx, trace) in dataset.traces().iter().enumerate() {
        // The open run: builder, label and published-fix count.
        let mut run: Option<(TraceBuilder, UserId, usize)> = None;
        for fix in trace.fixes() {
            // Columns are trace-major, so the running count is the index.
            let column = input_fixes;
            input_fixes += 1;
            if in_zone(column, fix) {
                suppressed += 1;
                continue;
            }
            let label = label_at(&timelines[idx], fix.time);
            if run
                .as_ref()
                .is_none_or(|(_, run_label, _)| *run_label != label)
            {
                close_run(run.take(), trace.user(), &mut out, &mut label_flows);
                run = Some((TraceBuilder::new(label), label, 0));
            }
            let (builder, _, count) = run.as_mut().expect("run just ensured");
            builder.push_lenient(*fix);
            *count += 1;
        }
        close_run(run.take(), trace.user(), &mut out, &mut label_flows);
    }
    let report = SwapReport {
        suppressed_fixes: suppressed,
        input_fixes,
        label_flows,
        ..SwapReport::default()
    };
    (out, report)
}

/// Publishes a finished run of `user`'s fixes and adds its fix count to
/// the label flows.
fn close_run(
    run: Option<(TraceBuilder, UserId, usize)>,
    user: UserId,
    out: &mut Dataset,
    label_flows: &mut BTreeMap<UserId, BTreeMap<UserId, usize>>,
) {
    if let Some((builder, label, count)) = run {
        if let Ok(t) = builder.build() {
            out.push(t);
        }
        *label_flows
            .entry(label)
            .or_default()
            .entry(user)
            .or_insert(0) += count;
    }
}

/// The label in effect at instant `t` (timeline sorted by start).
fn label_at(timeline: &[(Timestamp, UserId)], t: Timestamp) -> UserId {
    let mut current = timeline[0].1;
    for (from, label) in timeline {
        if *from <= t {
            current = *label;
        } else {
            break;
        }
    }
    current
}

impl Mechanism for MixZones {
    fn name(&self) -> String {
        format!(
            "mixzones(r={}m,w={}s)",
            self.config.radius_m,
            self.config.zone_window.get()
        )
    }

    fn protect(&self, dataset: &Dataset, rng: &mut dyn RngCore) -> Dataset {
        self.protect_with_report(dataset, rng).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_synth::scenarios;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::Promesse;

    /// Two users crossing at the origin around t = 500.
    fn crossing_dataset() -> Dataset {
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let make = |user: u64, horizontal: bool| {
            let fixes: Vec<Fix> = (0..=100)
                .map(|i| {
                    let d = -1_000.0 + 20.0 * i as f64; // 2 km at 2 m/s... 20 m per 10 s
                    let p = if horizontal {
                        Point::new(d, 0.0)
                    } else {
                        Point::new(0.0, d)
                    };
                    Fix::new(frame.unproject(p), Timestamp::new(i * 10))
                })
                .collect();
            Trace::new(UserId::new(user), fixes).unwrap()
        };
        Dataset::from_traces(vec![make(1, true), make(2, false)])
    }

    /// Two users moving far apart, never meeting.
    fn disjoint_dataset() -> Dataset {
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let make = |user: u64, y: f64| {
            let fixes: Vec<Fix> = (0..=50)
                .map(|i| {
                    let p = Point::new(-500.0 + 20.0 * i as f64, y);
                    Fix::new(frame.unproject(p), Timestamp::new(i * 10))
                })
                .collect();
            Trace::new(UserId::new(user), fixes).unwrap()
        };
        Dataset::from_traces(vec![make(1, 0.0), make(2, 5_000.0)])
    }

    #[test]
    fn config_validation() {
        assert!(MixZones::new(MixZoneConfig::default()).is_ok());
        assert!(MixZones::new(MixZoneConfig {
            radius_m: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(MixZones::new(MixZoneConfig {
            min_members: 1,
            ..Default::default()
        })
        .is_err());
        assert!(MixZones::new(MixZoneConfig {
            sampling: Seconds::new(-1.0),
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn detects_the_crossing() {
        let d = crossing_dataset();
        let zones = detect_mix_zones(&d, &MixZoneConfig::default());
        assert!(!zones.is_empty(), "no zone detected");
        // At least one zone near the origin containing both users.
        let frame = d.local_frame().unwrap();
        let z = zones
            .iter()
            .find(|z| frame.project(z.center).norm() < 150.0)
            .expect("zone at the crossing");
        assert_eq!(z.members, vec![UserId::new(1), UserId::new(2)]);
        assert!(z.duration().get() > 0.0);
    }

    #[test]
    fn no_meeting_no_zone() {
        let zones = detect_mix_zones(&disjoint_dataset(), &MixZoneConfig::default());
        assert!(zones.is_empty(), "{zones:?}");
    }

    #[test]
    fn empty_dataset_is_fine() {
        let zones = detect_mix_zones(&Dataset::new(), &MixZoneConfig::default());
        assert!(zones.is_empty());
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let (out, report) = mech.protect_with_report(&Dataset::new(), &mut rng);
        assert!(out.is_empty());
        assert_eq!(report.suppressed_fixes, 0);
    }

    #[test]
    fn suppresses_in_zone_points() {
        let d = crossing_dataset();
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (out, report) = mech.protect_with_report(&d, &mut rng);
        assert!(report.suppressed_fixes > 0);
        assert_eq!(out.total_fixes() + report.suppressed_fixes, d.total_fixes());
        // No published fix lies inside any zone.
        let frame = d.local_frame().unwrap();
        for t in out.traces() {
            for f in t.fixes() {
                assert!(!report
                    .zones
                    .iter()
                    .any(|z| z.contains(&frame, f.position, f.time)));
            }
        }
    }

    #[test]
    fn labels_remain_a_permutation_of_users() {
        let d = crossing_dataset();
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let (out, _) = mech.protect_with_report(&d, &mut rng);
        let mut labels = out.users();
        labels.sort_unstable();
        assert_eq!(labels, d.users());
    }

    #[test]
    fn some_seed_produces_a_swap() {
        let d = crossing_dataset();
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        // A uniform permutation of 2 elements swaps half the time: among
        // 16 seeds at least one must swap (p_fail = 2^-16).
        let mut swapped_any = false;
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, report) = mech.protect_with_report(&d, &mut rng);
            if report.swap_events > 0 {
                assert!(report.mixed_fix_ratio() > 0.0);
                swapped_any = true;
                break;
            }
        }
        assert!(swapped_any, "no seed produced a swap");
    }

    #[test]
    fn swapped_output_exchanges_suffixes() {
        let d = crossing_dataset();
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        // Find a seed that swaps.
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (out, report) = mech.protect_with_report(&d, &mut rng);
            if report.swap_events == 0 {
                continue;
            }
            let frame = d.local_frame().unwrap();
            // Label 1's published runs must cover BOTH arms: the prefix
            // run on user 1's horizontal arm and, after the swap, a
            // suffix run on user 2's vertical arm (or vice versa).
            let runs: Vec<_> = out
                .traces()
                .iter()
                .filter(|t| t.user() == UserId::new(1))
                .collect();
            assert!(runs.len() >= 2, "expected prefix+suffix runs");
            let on_horizontal = |t: &&&mobipriv_model::Trace| {
                frame.project(t.first().position).y.abs() < 1.0
                    && frame.project(t.last().position).y.abs() < 1.0
            };
            let on_vertical = |t: &&&mobipriv_model::Trace| {
                frame.project(t.first().position).x.abs() < 1.0
                    && frame.project(t.last().position).x.abs() < 1.0
            };
            assert!(
                runs.iter().any(|t| on_horizontal(&t)) && runs.iter().any(|t| on_vertical(&t)),
                "label 1 does not span both arms after the swap"
            );
            return;
        }
        panic!("no seed produced a swap");
    }

    #[test]
    fn report_ratios_are_sane() {
        let d = crossing_dataset();
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let (_, report) = mech.protect_with_report(&d, &mut rng);
        assert!(report.suppression_ratio() > 0.0);
        assert!(report.suppression_ratio() < 0.5);
        assert!(report.mixed_fix_ratio() <= 1.0);
    }

    #[test]
    fn disjoint_dataset_published_unchanged() {
        let d = disjoint_dataset();
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let (out, report) = mech.protect_with_report(&d, &mut rng);
        assert_eq!(report.suppressed_fixes, 0);
        assert_eq!(report.swap_events, 0);
        assert_eq!(out.total_fixes(), d.total_fixes());
        assert_eq!(report.mixed_fix_ratio(), 0.0);
    }

    #[test]
    fn stationary_co_dwell_forms_no_zone_by_default() {
        // Two users parked at the same spot all day: the pass-through
        // speed gate must reject this ("mix-zones" only form where users
        // actually move through).
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let make = |user: u64| {
            let fixes: Vec<Fix> = (0..=120)
                .map(|i| {
                    Fix::new(
                        frame.unproject(Point::new(0.0, 0.0)),
                        Timestamp::new(i * 30),
                    )
                })
                .collect();
            Trace::new(UserId::new(user), fixes).unwrap()
        };
        let d = Dataset::from_traces(vec![make(1), make(2)]);
        let zones = detect_mix_zones(&d, &MixZoneConfig::default());
        assert!(zones.is_empty(), "{zones:?}");
    }

    #[test]
    fn majority_owner_reads_label_flows() {
        let mut report = SwapReport::default();
        report
            .label_flows
            .entry(UserId::new(1))
            .or_default()
            .insert(UserId::new(2), 10);
        report
            .label_flows
            .entry(UserId::new(1))
            .or_default()
            .insert(UserId::new(1), 3);
        assert_eq!(report.majority_owner(UserId::new(1)), Some(UserId::new(2)));
        assert_eq!(report.majority_owner(UserId::new(9)), None);
    }

    #[test]
    fn output_preserves_session_boundaries() {
        // Two disjoint sessions of one user, no zones: the published
        // dataset must keep them as two traces (merging would fabricate
        // a dwell between the sessions).
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let session = |t0: i64| {
            let fixes: Vec<Fix> = (0..=10)
                .map(|i| {
                    Fix::new(
                        frame.unproject(Point::new(i as f64 * 50.0, 0.0)),
                        Timestamp::new(t0 + i * 10),
                    )
                })
                .collect();
            Trace::new(UserId::new(1), fixes).unwrap()
        };
        let other = {
            let fixes: Vec<Fix> = (0..=10)
                .map(|i| {
                    Fix::new(
                        frame.unproject(Point::new(i as f64 * 50.0, 9_000.0)),
                        Timestamp::new(i * 10),
                    )
                })
                .collect();
            Trace::new(UserId::new(2), fixes).unwrap()
        };
        let d = Dataset::from_traces(vec![session(0), session(20_000), other]);
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let (out, _) = mech.protect_with_report(&d, &mut rng);
        assert_eq!(out.len(), 3, "sessions must stay separate traces");
    }

    #[test]
    fn zone_window_caps_zone_duration() {
        // Two users dwelling together for a long time produce a series
        // of short zones, not one giant zone.
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let make = |user: u64| {
            let fixes: Vec<Fix> = (0..=120)
                .map(|i| {
                    Fix::new(
                        frame.unproject(Point::new(0.0, 0.0)),
                        Timestamp::new(i * 30),
                    )
                })
                .collect();
            Trace::new(UserId::new(user), fixes).unwrap()
        };
        let d = Dataset::from_traces(vec![make(1), make(2)]);
        // Disable the pass-through speed gate: this test exercises the
        // window capping on a deliberate co-dwell.
        let cfg = MixZoneConfig {
            min_speed_mps: 0.0,
            ..MixZoneConfig::default()
        };
        let zones = detect_mix_zones(&d, &cfg);
        assert!(
            zones.len() > 3,
            "expected a series of zones, got {}",
            zones.len()
        );
        for z in &zones {
            assert!(
                z.duration().get() <= cfg.zone_window.get() + 2.0 * cfg.time_tolerance.get(),
                "zone too long: {}s",
                z.duration().get()
            );
        }
    }

    /// Runs the indexed and the naive implementation from the same seed:
    /// same meetings in the same order (zone centres are sums in that
    /// order), same published dataset, same report, same next random
    /// draw.
    fn check_indexed_matches_naive(
        mech: &MixZones,
        dataset: &Dataset,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        if let Some(frame) = dataset.columns().frame() {
            let listed = |ms: Vec<Meeting>| -> Vec<(Point, i64, usize, usize)> {
                ms.iter()
                    .map(|m| (m.midpoint, m.time, m.trace_a, m.trace_b))
                    .collect()
            };
            prop_assert_eq!(
                listed(find_meetings(dataset, mech.config(), frame)),
                listed(find_meetings_naive(dataset, mech.config(), frame))
            );
        }
        let mut fast_rng = StdRng::seed_from_u64(seed);
        let mut slow_rng = StdRng::seed_from_u64(seed);
        let (fast, fast_report) = mech.protect_with_report(dataset, &mut fast_rng);
        let (slow, slow_report) = mech.protect_with_report_naive(dataset, &mut slow_rng);
        prop_assert_eq!(&fast_report, &slow_report);
        prop_assert!(fast == slow, "published datasets differ");
        prop_assert_eq!(fast_rng.next_u64(), slow_rng.next_u64());
        Ok(())
    }

    /// Where [`lattice_walks`] puts its lattice by default.
    fn lattice_origin() -> LatLng {
        LatLng::new(45.0, 5.0).unwrap()
    }

    /// Users hopping on a 100 m lattice anchored at `origin` or dwelling,
    /// one fix every 10 s on a clock shared by everyone, in `sessions`
    /// traces each (gaps between them); `max_len = 1` gives single-fix
    /// traces. Meeting distances sit on the lattice spacing and zone
    /// bounds on the fix clock, so ties are everywhere.
    fn lattice_walks(
        origin: LatLng,
        seed: u64,
        users: u64,
        sessions: u64,
        max_len: u64,
    ) -> Dataset {
        let frame = LocalFrame::new(origin);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut traces = Vec::new();
        for user in 0..users {
            let mut t = 10 * rng.gen_range(0i64..12);
            for _ in 0..sessions {
                let (mut x, mut y) = (rng.gen_range(0i64..5), rng.gen_range(0i64..5));
                let fixes: Vec<Fix> = (0..rng.gen_range(1..=max_len))
                    .map(|_| {
                        let p = Point::new(100.0 * x as f64, 100.0 * y as f64);
                        let fix = Fix::new(frame.unproject(p), Timestamp::new(t));
                        match rng.gen_range(0..6) {
                            0 => x += 1,
                            1 => x -= 1,
                            2 => y += 1,
                            3 => y -= 1,
                            _ => {}
                        }
                        t += 10;
                        fix
                    })
                    .collect();
                traces.push(Trace::new(UserId::new(user), fixes).unwrap());
                t += 10 * rng.gen_range(0i64..30);
            }
        }
        Dataset::from_traces(traces)
    }

    /// The lattice spacing as the dataset's canonical frame measures it:
    /// used as the radius, meetings one hop apart tie with it exactly.
    fn lattice_spacing(dataset: &Dataset) -> f64 {
        let lattice = LocalFrame::new(lattice_origin());
        let frame = dataset.local_frame().unwrap();
        let at = |x: f64| frame.project(lattice.unproject(Point::new(x, 0.0)));
        at(100.0).distance(at(0.0)).get()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn indexed_matches_naive_on_lattice_walks(
            seed in any::<u64>(),
            users in 2u64..8,
            sessions in 1u64..4,
            max_len in 1u64..40,
            // Bits: exact radius, speed gate on, off-clock sampling.
            flags in 0u8..8,
        ) {
            let dataset = lattice_walks(lattice_origin(), seed, users, sessions, max_len);
            let config = MixZoneConfig {
                radius_m: if flags & 1 == 0 { 100.0 } else { lattice_spacing(&dataset) },
                sampling: Seconds::new(if flags & 4 == 0 { 20.0 } else { 15.0 }),
                // Off: co-dwelling users meet too.
                min_speed_mps: if flags & 2 == 0 { 0.0 } else { 0.5 },
                ..MixZoneConfig::default()
            };
            check_indexed_matches_naive(&MixZones::new(config).unwrap(), &dataset, seed)?;
        }

        /// The sub-cell linker against the naive neighbour scan on point
        /// sets with exact ties: lattice points `radius` apart (exact in
        /// floating point), cell-boundary coordinates, duplicates, and
        /// radii below 1 m, where sub-cells split a grid cell more than
        /// once.
        #[test]
        fn link_indexed_matches_link_naive(
            seed in any::<u64>(),
            n in 1usize..120,
            radius in prop_oneof![Just(100.0), Just(0.25), Just(1.0), Just(37.5)],
            jitter in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let points: Vec<Point> = (0..n)
                .map(|_| {
                    let (i, j) = (rng.gen_range(-6i64..6), rng.gen_range(-6i64..6));
                    let off = if jitter { rng.gen_range(-0.5..0.5) * radius } else { 0.0 };
                    Point::new(i as f64 * radius + off, j as f64 * radius * 0.5)
                })
                .collect();
            let mut naive = UnionFind::new(n);
            link_naive(&points, radius, &mut naive);
            let mut indexed = UnionFind::new(n);
            link_indexed(&points, radius, &mut indexed);
            prop_assert_eq!(indexed.groups(), naive.groups());
        }
    }

    #[test]
    fn lattice_walks_cover_the_boundary_cases() {
        // The generator above must actually produce what the
        // equivalence property is meant to exercise.
        let (mut single_fix, mut repeat_user, mut on_bounds, mut zones) = (0, 0, 0, 0);
        for seed in 0..16 {
            let d = lattice_walks(lattice_origin(), seed, 6, 3, 20);
            single_fix += d.traces().iter().filter(|t| t.len() == 1).count();
            repeat_user += usize::from(d.by_user().values().any(|ts| ts.len() > 1));
            let found = detect_mix_zones(&d, &MixZoneConfig::default());
            zones += found.len();
            on_bounds += d
                .traces()
                .iter()
                .flat_map(|t| t.fixes())
                .filter(|f| found.iter().any(|z| f.time == z.start || f.time == z.end))
                .count();
        }
        assert!(single_fix > 0 && repeat_user > 0 && zones > 0 && on_bounds > 0);
    }

    #[test]
    fn indexed_matches_naive_across_the_antimeridian() {
        // The canonical frame wraps longitude, so a sample interpolated
        // across ±180° leaves the box of the projected fixes around it:
        // the crossing scan must not skip by bounding box there. User 1
        // drives across the line and meets user 2, parked just east of
        // it, at t = 40; the box of user 1's two fixes is ~670 m from
        // the zone.
        let at = |lng: f64, t: i64| Fix::new(LatLng::new(45.0, lng).unwrap(), Timestamp::new(t));
        let driver = Trace::new(UserId::new(1), vec![at(179.99, 0), at(-179.99, 100)]).unwrap();
        let parked = (0..=10).map(|i| at(179.999, i * 10)).collect();
        let parked = Trace::new(UserId::new(2), parked).unwrap();
        let config = MixZoneConfig {
            min_speed_mps: 0.0,
            ..MixZoneConfig::default()
        };
        let mech = MixZones::new(config).unwrap();
        let d = Dataset::from_traces(vec![driver, parked]);
        let mut rng = StdRng::seed_from_u64(0);
        let (_, report) = mech.protect_with_report_naive(&d, &mut rng);
        assert!(report.zones.iter().any(|z| z.members.len() == 2));
        for seed in 0..8 {
            check_indexed_matches_naive(&mech, &d, seed).unwrap();
            // Lattice walks straddling the line, too.
            let origin = LatLng::new(45.0, 179.9995).unwrap();
            let walks = lattice_walks(origin, seed, 6, 2, 30);
            check_indexed_matches_naive(&mech, &walks, seed).unwrap();
        }
    }

    #[test]
    fn indexed_matches_naive_on_smoothed_serving_days() {
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        for seed in [1, 2, 3] {
            let world = scenarios::serving_day(150, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let smoothed = Promesse::new(100.0)
                .unwrap()
                .protect(&world.dataset, &mut rng);
            check_indexed_matches_naive(&mech, &smoothed, seed).unwrap();
        }
    }

    #[test]
    fn tied_zones_come_out_in_a_fixed_order() {
        // Parked pairs of users: one pair at the centre, twelve on a
        // 150 m ring around it. Every pair meets from t = 0, and ring
        // neighbours (78 m apart) meet each other too, so each slice
        // holds two zones with the same start and — by symmetry — the
        // same quantized centre: the ring and the centre.
        let frame = LocalFrame::new(LatLng::new(45.000_000_05, 5.000_000_05).unwrap());
        let parked = |user: u64, p: Point| {
            let fixes = (0..=20)
                .map(|i| Fix::new(frame.unproject(p), Timestamp::new(i * 30)))
                .collect();
            Trace::new(UserId::new(user), fixes).unwrap()
        };
        let mut traces = vec![parked(0, Point::ORIGIN), parked(1, Point::ORIGIN)];
        for k in 0..12u64 {
            let angle = k as f64 * std::f64::consts::TAU / 12.0;
            let p = Point::new(150.0 * angle.cos(), 150.0 * angle.sin());
            traces.push(parked(2 + 2 * k, p));
            traces.push(parked(3 + 2 * k, p));
        }
        let d = Dataset::from_traces(traces);
        let config = MixZoneConfig {
            min_speed_mps: 0.0,
            ..MixZoneConfig::default()
        };
        let first = detect_mix_zones(&d, &config);
        assert!(
            first.windows(2).any(|w| w[0].start == w[1].start
                && ordered(w[0].center) == ordered(w[1].center)
                && w[0].members != w[1].members),
            "the fixture must produce a tie: {first:?}"
        );
        for _ in 0..32 {
            assert_eq!(detect_mix_zones(&d, &config), first);
        }
    }
}
