//! Spatial distortion: how far published geometry strays from the truth.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use mobipriv_geo::{project_on_segment, LocalFrame, Point};
use mobipriv_model::{Dataset, Trace, UserId};

/// Summary statistics of a distortion sample (meters).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DistortionSummary {
    /// Number of published points measured.
    pub count: usize,
    /// Mean distortion.
    pub mean: f64,
    /// Median distortion.
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl DistortionSummary {
    /// Builds the summary from raw per-point distances.
    pub fn from_samples(mut samples: Vec<f64>) -> DistortionSummary {
        if samples.is_empty() {
            return DistortionSummary::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        DistortionSummary {
            count,
            mean,
            median: percentile(&samples, 0.5),
            p95: percentile(&samples, 0.95),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// The `q`-th percentile of an ascending-sorted sample (nearest-rank).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[idx - 1]
}

/// Distance from every published fix to the *path* of the same user's
/// original traces (time-agnostic, matching the paper's "spatial
/// accuracy" notion — speed smoothing distorts time on purpose, so
/// time-aligned comparison would be meaningless).
///
/// Published traces whose user has no original trace are skipped (they
/// cannot be scored). For identifier-swapping mechanisms use
/// [`dataset_distortion_anonymous`] instead: after a swap a label's
/// fixes legitimately belong to another user's path, which this
/// per-label matching would misreport as spatial error.
pub fn dataset_distortion(original: &Dataset, published: &Dataset) -> DistortionSummary {
    distortion_impl(original, published, true, &mut || false).expect("never stopped")
}

/// Like [`dataset_distortion`] but label-agnostic: each published fix is
/// scored against the nearest original path of *any* user. This is the
/// correct reading for mechanisms that permute identifiers ("the second
/// step only swaps user identifiers but does not alter the location").
pub fn dataset_distortion_anonymous(original: &Dataset, published: &Dataset) -> DistortionSummary {
    distortion_impl(original, published, false, &mut || false).expect("never stopped")
}

/// [`dataset_distortion_anonymous`] under a deadline: `stop` is polled
/// once per published trace, and the scan gives up with `None` as soon
/// as it returns `true`. A completed scan returns exactly what the
/// unbounded call returns.
pub fn try_dataset_distortion_anonymous(
    original: &Dataset,
    published: &Dataset,
    stop: &mut dyn FnMut() -> bool,
) -> Option<DistortionSummary> {
    distortion_impl(original, published, false, stop)
}

/// Brute-force reference for [`dataset_distortion`]: every published
/// fix against every segment of the user's original traces. Kept as the
/// oracle the indexed scan is tested and benchmarked against.
pub fn dataset_distortion_naive(original: &Dataset, published: &Dataset) -> DistortionSummary {
    distortion_naive(original, published, true)
}

/// Brute-force reference for [`dataset_distortion_anonymous`].
pub fn dataset_distortion_anonymous_naive(
    original: &Dataset,
    published: &Dataset,
) -> DistortionSummary {
    distortion_naive(original, published, false)
}

/// The key original and published traces are matched under: the user,
/// or one pooled key for the label-agnostic variant.
fn match_key(trace: &Trace, per_user: bool) -> UserId {
    if per_user {
        trace.user()
    } else {
        UserId::new(u64::MAX)
    }
}

fn distortion_naive(original: &Dataset, published: &Dataset, per_user: bool) -> DistortionSummary {
    scan_distortion(
        original,
        published,
        per_user,
        |frame, traces| {
            traces
                .iter()
                .map(|t| t.to_polyline(frame))
                .collect::<Vec<_>>()
        },
        |lines, p| {
            lines
                .iter()
                .map(|line| line.distance_to(p).get())
                .fold(f64::INFINITY, f64::min)
        },
        &mut || false,
    )
    .expect("never stopped")
}

fn distortion_impl(
    original: &Dataset,
    published: &Dataset,
    per_user: bool,
    stop: &mut dyn FnMut() -> bool,
) -> Option<DistortionSummary> {
    let mut search = Search::default();
    scan_distortion(
        original,
        published,
        per_user,
        |frame, traces| {
            PathIndex::new(
                traces
                    .iter()
                    .map(|t| t.fixes().iter().map(|f| frame.project(f.position))),
            )
        },
        |index, p| index.distance(p, &mut search),
        stop,
    )
}

/// The scan both implementations share: the original traces of each
/// match key become one `P` (built by `build`), every published fix is
/// scored by `distance` against its key's `P`, and `stop` is polled once
/// per published trace (`None` once it returns `true`).
fn scan_distortion<P>(
    original: &Dataset,
    published: &Dataset,
    per_user: bool,
    build: impl Fn(&LocalFrame, &[&Trace]) -> P,
    mut distance: impl FnMut(&P, Point) -> f64,
    stop: &mut dyn FnMut() -> bool,
) -> Option<DistortionSummary> {
    let frame = match original.local_frame() {
        Ok(f) => f,
        Err(_) => return Some(DistortionSummary::default()),
    };
    let mut groups: BTreeMap<UserId, Vec<&Trace>> = BTreeMap::new();
    for trace in original.traces() {
        groups
            .entry(match_key(trace, per_user))
            .or_default()
            .push(trace);
    }
    let paths: BTreeMap<UserId, P> = groups
        .into_iter()
        .map(|(key, traces)| (key, build(&frame, &traces)))
        .collect();
    let mut samples = Vec::new();
    for trace in published.traces() {
        if stop() {
            return None;
        }
        let Some(user_paths) = paths.get(&match_key(trace, per_user)) else {
            continue;
        };
        for fix in trace.fixes() {
            let d = distance(user_paths, frame.project(fix.position));
            if d.is_finite() {
                samples.push(d);
            }
        }
    }
    Some(DistortionSummary::from_samples(samples))
}

/// Side of a grid cell of [`PathIndex`], meters (the best of 50–400 m
/// measured on the eval scenarios). Grids over budget
/// ([`PathIndex::fits`]) double it until they fit.
const CELL_M: f64 = 100.0;

/// Relative slack on the squared-distance bound that prunes segments
/// and stops the ring search. It dwarfs the rounding error of a squared
/// distance, so every segment within rounding of the best is scored.
const REL_SLACK: f64 = 1e-6;

/// Absolute slack on the same bound, m²: keeps the bound meaningful at
/// a best distance of zero.
const ABS_SLACK_M2: f64 = 1e-6;

/// Margin added to a cell's half-diagonal when deciding whether a
/// segment's line crosses the cell, meters (rounding-proof membership).
const CELL_MARGIN_M: f64 = 0.01;

/// Safety margin subtracted from the reach of the searched square,
/// meters: far above the rounding of cell coordinates, so a segment
/// left unscored is truly beyond the reach.
const EDGE_MARGIN_M: f64 = 1e-3;

/// Squared distance below which a segment may still matter, given the
/// best squared distance found so far.
fn prune_bound(best_d2: f64) -> f64 {
    best_d2 * (1.0 + REL_SLACK) + ABS_SLACK_M2
}

/// One segment of an original polyline; a single-fix trace contributes
/// one zero-length segment.
#[derive(Debug, Clone, Copy)]
struct Segment {
    a: Point,
    b: Point,
    /// Index of the polyline the segment belongs to.
    path: u32,
}

/// The segments of a set of polylines in a uniform grid, stored CSR
/// style: `entries[cell_start[c]..cell_start[c + 1]]` are the ids of the
/// segments crossing cell `c = row * cols + col`, ascending.
///
/// [`PathIndex::distance`] equals, to the bit, the minimum over the
/// polylines of [`Polyline::distance_to`](mobipriv_geo::Polyline::distance_to):
///
/// * a segment never scored lies outside the searched square, so it is
///   more than `k · cell` away, beyond the stopping bound;
/// * every segment whose squared distance is within the slack of the
///   best is scored (neither its bounding box nor its cells can be
///   farther away), so any polyline that can reach the minimum keeps
///   its first-index argmin, ties included;
/// * a polyline whose argmin is incomplete is strictly farther than the
///   best, and `min` over `f64` does not depend on order.
#[derive(Debug)]
struct PathIndex {
    segments: Vec<Segment>,
    paths: usize,
    origin: Point,
    cell: f64,
    cols: usize,
    rows: usize,
    cell_start: Vec<u32>,
    entries: Vec<u32>,
}

impl PathIndex {
    /// Indexes polylines given as vertex sequences, each non-empty.
    fn new<P: IntoIterator<Item = Point>>(paths: impl IntoIterator<Item = P>) -> PathIndex {
        let mut segments = Vec::new();
        let mut count = 0;
        for (path, points) in paths.into_iter().enumerate() {
            count += 1;
            let path = path as u32;
            let mut points = points.into_iter();
            let first = points.next().expect("polylines are non-empty");
            let mut a = first;
            let mut single = true;
            for b in points {
                segments.push(Segment { a, b, path });
                a = b;
                single = false;
            }
            if single {
                segments.push(Segment { a, b: a, path });
            }
        }
        let (mut lo, mut hi) = (
            Point::new(f64::INFINITY, f64::INFINITY),
            Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        for s in &segments {
            for p in [s.a, s.b] {
                lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
                hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
            }
        }
        let mut cell = CELL_M;
        let span = |cell: f64| {
            (
                ((hi.x - lo.x) / cell).floor() + 1.0,
                ((hi.y - lo.y) / cell).floor() + 1.0,
            )
        };
        while !Self::fits(&segments, lo, span(cell), cell) {
            cell *= 2.0;
        }
        let (cols, rows) = span(cell);
        let mut index = PathIndex {
            segments,
            paths: count,
            origin: lo,
            cell,
            cols: cols as usize,
            rows: rows as usize,
            cell_start: Vec::new(),
            entries: Vec::new(),
        };
        // Counting sort by cell: count, prefix-sum, fill.
        let mut counts = vec![0u32; index.cols * index.rows + 1];
        for s in &index.segments {
            index.for_each_cell(s, |c| counts[c + 1] += 1);
        }
        for c in 1..counts.len() {
            counts[c] += counts[c - 1];
        }
        let mut entries = vec![0u32; counts[counts.len() - 1] as usize];
        let mut next = counts.clone();
        for (id, s) in index.segments.iter().enumerate() {
            index.for_each_cell(s, |c| {
                entries[next[c] as usize] = id as u32;
                next[c] += 1;
            });
        }
        index.cell_start = counts;
        index.entries = entries;
        index
    }

    /// Whether a grid of `cols × rows` cells of side `cell` stays within
    /// budget for these segments: at most `4n + 64` cells, and at most
    /// `16n + 64` cells summed over the segments' bounding boxes (the
    /// build's work and an upper bound on its entries). City-scale data
    /// sampled every few seconds fits at 100 m; continent-wide extents
    /// or long, sparsely sampled segments get coarser cells instead of
    /// an unbounded grid.
    fn fits(segments: &[Segment], lo: Point, (cols, rows): (f64, f64), cell: f64) -> bool {
        let n = segments.len() as f64;
        let cells = |a: f64, b: f64, origin: f64| {
            ((a.max(b) - origin) / cell).floor() - ((a.min(b) - origin) / cell).floor() + 1.0
        };
        cols * rows <= 4.0 * n + 64.0
            && segments
                .iter()
                .map(|s| cells(s.a.x, s.b.x, lo.x) * cells(s.a.y, s.b.y, lo.y))
                .sum::<f64>()
                <= 16.0 * n + 64.0
    }

    /// Column (or row) of coordinate `v` relative to `origin`, clamped
    /// into `0..n`.
    fn coord(&self, v: f64, origin: f64, n: usize) -> usize {
        (((v - origin) / self.cell).floor().max(0.0) as usize).min(n - 1)
    }

    /// Calls `f` with every cell the segment crosses (and a few it only
    /// grazes): the cells of its bounding box whose centre lies within
    /// half a diagonal (plus [`CELL_MARGIN_M`]) of the segment's line.
    fn for_each_cell(&self, s: &Segment, mut f: impl FnMut(usize)) {
        let (i0, i1) = (
            self.coord(s.a.x.min(s.b.x), self.origin.x, self.cols),
            self.coord(s.a.x.max(s.b.x), self.origin.x, self.cols),
        );
        let (j0, j1) = (
            self.coord(s.a.y.min(s.b.y), self.origin.y, self.rows),
            self.coord(s.a.y.max(s.b.y), self.origin.y, self.rows),
        );
        let dir = s.b - s.a;
        let reach = (self.cell * std::f64::consts::FRAC_1_SQRT_2 + CELL_MARGIN_M) * dir.norm();
        for j in j0..=j1 {
            for i in i0..=i1 {
                let centre = Point::new(
                    self.origin.x + (i as f64 + 0.5) * self.cell,
                    self.origin.y + (j as f64 + 0.5) * self.cell,
                );
                if dir.cross(centre - s.a).abs() <= reach {
                    f(j * self.cols + i);
                }
            }
        }
    }

    /// Distance from `q` to the nearest indexed polyline, searching the
    /// grid one ring of cells at a time outward from `q`'s cell.
    fn distance(&self, q: Point, search: &mut Search) -> f64 {
        search.prepare(self.paths);
        let (cols, rows) = (self.cols as i64, self.rows as i64);
        let qi = ((q.x - self.origin.x) / self.cell).floor() as i64;
        let qj = ((q.y - self.origin.y) / self.cell).floor() as i64;
        let outside = |v: i64, n: i64| (-v).max(v - (n - 1)).max(0);
        // Rings closer than the grid are empty; past `last` all is seen.
        let first = outside(qi, cols).max(outside(qj, rows));
        let last = qi.max(cols - 1 - qi).max(qj).max(rows - 1 - qj);
        // Distance from `q` to the edge of its own cell: the searched
        // square reaches that much farther than `k` whole cells.
        let edge = if first == 0 {
            let (x0, y0) = (
                self.origin.x + qi as f64 * self.cell,
                self.origin.y + qj as f64 * self.cell,
            );
            (q.x - x0)
                .min(x0 + self.cell - q.x)
                .min(q.y - y0)
                .min(y0 + self.cell - q.y)
                .max(0.0)
        } else {
            0.0
        };
        let mut best = f64::INFINITY;
        for k in first..=last {
            for j in (qj - k).max(0)..=(qj + k).min(rows - 1) {
                let row = j * cols;
                if j == qj - k || j == qj + k {
                    let (i0, i1) = ((qi - k).max(0), (qi + k).min(cols - 1));
                    if i0 <= i1 {
                        self.scan(row + i0, row + i1 + 1, q, &mut best, search);
                    }
                } else {
                    for i in [qi - k, qi + k] {
                        if (0..cols).contains(&i) {
                            self.scan(row + i, row + i + 1, q, &mut best, search);
                        }
                    }
                }
            }
            let reach = k as f64 * self.cell + edge - EDGE_MARGIN_M;
            if reach > 0.0 && reach * reach > prune_bound(best) {
                break;
            }
        }
        search.finish(self, q, best)
    }

    /// Scores the segments of cells `from..to` (one grid row run).
    fn scan(&self, from: i64, to: i64, q: Point, best: &mut f64, search: &mut Search) {
        let range = self.cell_start[from as usize] as usize..self.cell_start[to as usize] as usize;
        for &id in &self.entries[range] {
            let s = &self.segments[id as usize];
            let gx = (s.a.x.min(s.b.x) - q.x)
                .max(q.x - s.a.x.max(s.b.x))
                .max(0.0);
            let gy = (s.a.y.min(s.b.y) - q.y)
                .max(q.y - s.a.y.max(s.b.y))
                .max(0.0);
            if gx * gx + gy * gy > prune_bound(*best) {
                continue;
            }
            let d2 = project_on_segment(q, s.a, s.b).0.distance_sq(q);
            *best = best.min(d2);
            search.offer(s.path as usize, id, d2);
        }
    }
}

/// Per-query scratch of [`PathIndex::distance`]: each polyline's best
/// `(squared distance, segment id)` so far. Untouched polylines hold
/// `+∞`; every query leaves them that way.
#[derive(Debug, Default)]
struct Search {
    path_d2: Vec<f64>,
    path_seg: Vec<u32>,
    touched: Vec<usize>,
}

impl Search {
    fn prepare(&mut self, paths: usize) {
        if self.path_d2.len() < paths {
            self.path_d2.resize(paths, f64::INFINITY);
            self.path_seg.resize(paths, 0);
        }
    }

    /// Keeps the lexicographic minimum of `(d2, id)` per polyline —
    /// the first-index argmin of [`Polyline::nearest_point`](mobipriv_geo::Polyline::nearest_point), whatever
    /// order the segments arrive in.
    fn offer(&mut self, path: usize, id: u32, d2: f64) {
        let current = self.path_d2[path];
        if d2 < current {
            if current == f64::INFINITY {
                self.touched.push(path);
            }
            self.path_d2[path] = d2;
            self.path_seg[path] = id;
        } else if d2 == current && id < self.path_seg[path] {
            self.path_seg[path] = id;
        }
    }

    /// The minimum over the touched polylines of the distance to their
    /// selected point; polylines beyond the bound cannot be the minimum.
    fn finish(&mut self, index: &PathIndex, q: Point, best: f64) -> f64 {
        let bound = prune_bound(best);
        let mut d = f64::INFINITY;
        for &path in &self.touched {
            if self.path_d2[path] <= bound {
                let s = &index.segments[self.path_seg[path] as usize];
                d = d.min(project_on_segment(q, s.a, s.b).0.distance(q).get());
            }
            self.path_d2[path] = f64::INFINITY;
        }
        self.touched.clear();
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::{LatLng, Polyline};
    use mobipriv_model::{Fix, Timestamp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn frame() -> LocalFrame {
        LocalFrame::new(LatLng::new(45.0, 5.0).unwrap())
    }

    fn trace_from_points(user: u64, pts: &[(f64, f64)]) -> Trace {
        let f = frame();
        let fixes = pts
            .iter()
            .enumerate()
            .map(|(i, (x, y))| {
                Fix::new(
                    f.unproject(Point::new(*x, *y)),
                    Timestamp::new(i as i64 * 10),
                )
            })
            .collect();
        Trace::new(UserId::new(user), fixes).unwrap()
    }

    #[test]
    fn identical_datasets_zero_distortion() {
        let t = trace_from_points(1, &[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]);
        let d = Dataset::from_traces(vec![t]);
        let s = dataset_distortion(&d, &d);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.count, 3);
    }

    #[test]
    fn offset_trace_measures_the_offset() {
        let orig = trace_from_points(1, &[(0.0, 0.0), (1_000.0, 0.0)]);
        let shifted = trace_from_points(1, &[(0.0, 50.0), (1_000.0, 50.0)]);
        let s = dataset_distortion(
            &Dataset::from_traces(vec![orig]),
            &Dataset::from_traces(vec![shifted]),
        );
        assert!((s.mean - 50.0).abs() < 1.0, "{s:?}");
        assert!((s.max - 50.0).abs() < 1.0);
    }

    #[test]
    fn distortion_is_time_agnostic() {
        // Same geometry, totally different timestamps: zero distortion.
        let orig = trace_from_points(1, &[(0.0, 0.0), (500.0, 0.0), (1_000.0, 0.0)]);
        let f = frame();
        let fixes = vec![
            Fix::new(f.unproject(Point::new(250.0, 0.0)), Timestamp::new(99_000)),
            Fix::new(f.unproject(Point::new(750.0, 0.0)), Timestamp::new(99_600)),
        ];
        let retimed = Trace::new(UserId::new(1), fixes).unwrap();
        let s = dataset_distortion(
            &Dataset::from_traces(vec![orig]),
            &Dataset::from_traces(vec![retimed]),
        );
        assert!(s.max < 0.5, "{s:?}");
    }

    #[test]
    fn unknown_users_are_skipped() {
        let orig = trace_from_points(1, &[(0.0, 0.0), (100.0, 0.0)]);
        let other = trace_from_points(9, &[(0.0, 0.0), (100.0, 0.0)]);
        let s = dataset_distortion(
            &Dataset::from_traces(vec![orig]),
            &Dataset::from_traces(vec![other]),
        );
        assert_eq!(s.count, 0);
    }

    #[test]
    fn anonymous_variant_ignores_labels() {
        let orig = trace_from_points(1, &[(0.0, 0.0), (100.0, 0.0)]);
        let relabelled = trace_from_points(9, &[(0.0, 0.0), (100.0, 0.0)]);
        let s = dataset_distortion_anonymous(
            &Dataset::from_traces(vec![orig]),
            &Dataset::from_traces(vec![relabelled]),
        );
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn anonymous_variant_matches_nearest_of_any_user() {
        let a = trace_from_points(1, &[(0.0, 0.0), (1_000.0, 0.0)]);
        let b = trace_from_points(2, &[(0.0, 500.0), (1_000.0, 500.0)]);
        // Published under label 1 but geometrically on user 2's path.
        let published = trace_from_points(1, &[(500.0, 500.0)]);
        let per_user = dataset_distortion(
            &Dataset::from_traces(vec![a.clone(), b.clone()]),
            &Dataset::from_traces(vec![published.clone()]),
        );
        let anon = dataset_distortion_anonymous(
            &Dataset::from_traces(vec![a, b]),
            &Dataset::from_traces(vec![published]),
        );
        assert!((per_user.max - 500.0).abs() < 1.0);
        assert!(anon.max < 1.0);
    }

    #[test]
    fn empty_datasets() {
        let s = dataset_distortion(&Dataset::new(), &Dataset::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_statistics_are_consistent() {
        let s = DistortionSummary::from_samples(vec![1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 22.0).abs() < 1e-9);
        assert_eq!(s.p95, 100.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.5), 20.0);
        assert_eq!(percentile(&v, 0.95), 40.0);
        assert_eq!(percentile(&v, 0.01), 10.0);
    }

    /// The naive answer for one query: min over polylines of
    /// `Polyline::distance_to`.
    fn naive_distance(paths: &[Vec<Point>], q: Point) -> f64 {
        paths
            .iter()
            .map(|p| Polyline::new(p.clone()).unwrap().distance_to(q).get())
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn index_matches_polylines_on_exact_cell_boundaries() {
        // Frame coordinates used as-is: vertices and queries sit exactly
        // on multiples of the cell side (and of a quarter of it), where
        // every floor in the index is on a boundary.
        let mut rng = StdRng::seed_from_u64(11);
        let mut search = Search::default();
        for case in 0..300 {
            let step = [CELL_M, CELL_M / 4.0, 3.0 * CELL_M][case % 3];
            let paths: Vec<Vec<Point>> = (0..rng.gen_range(1..6usize))
                .map(|_| {
                    let (mut x, mut y) = (rng.gen_range(-4..5i32), rng.gen_range(-4..5i32));
                    (0..rng.gen_range(1..8usize))
                        .map(|_| {
                            let p = Point::new(x as f64 * step, y as f64 * step);
                            x += rng.gen_range(-2..3i32);
                            y += rng.gen_range(-2..3i32);
                            p
                        })
                        .collect()
                })
                .collect();
            let index = PathIndex::new(paths.iter().cloned());
            for _ in 0..40 {
                let q = Point::new(
                    rng.gen_range(-12..13i32) as f64 * step / 2.0,
                    rng.gen_range(-12..13i32) as f64 * step / 2.0,
                );
                let fast = index.distance(q, &mut search);
                let slow = naive_distance(&paths, q);
                assert_eq!(fast.to_bits(), slow.to_bits(), "case {case} q={q:?}");
            }
        }
    }

    #[test]
    fn index_grows_its_cells_for_continental_extents_and_long_segments() {
        // Two vertices 4 000 km apart would need 1.6e9 cells of 100 m;
        // 200 diagonal 50 km hops would cover 5e7 bounding-box cells.
        let continental = vec![
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            vec![Point::new(4.0e6, 4.0e6)],
        ];
        let sparse: Vec<Vec<Point>> = (0..20)
            .map(|i| {
                (0..11)
                    .map(|k| Point::new(k as f64 * 50e3, (k + i) as f64 * 5e3))
                    .collect()
            })
            .collect();
        let mut search = Search::default();
        for paths in [continental, sparse] {
            let index = PathIndex::new(paths.iter().cloned());
            let n = index.segments.len();
            assert!(index.cell > CELL_M);
            assert!(index.cols * index.rows <= 4 * n + 64);
            assert!(index.entries.len() <= 16 * n + 64);
            for q in [
                Point::new(5.0, 1.0),
                Point::new(3.9e6, 4.0e6),
                Point::new(-1e7, 0.0),
                Point::new(123e3, 77e3),
            ] {
                assert_eq!(
                    index.distance(q, &mut search).to_bits(),
                    naive_distance(&paths, q).to_bits()
                );
            }
        }
    }

    #[test]
    fn search_keeps_the_first_index_argmin_in_any_order() {
        // Rings reach segments out of index order; an exact tie must
        // still resolve to the lowest segment id, as a forward scan does.
        let mut search = Search::default();
        search.prepare(2);
        search.offer(0, 7, 4.0);
        search.offer(1, 3, 9.0);
        search.offer(0, 5, 4.0);
        search.offer(0, 9, 4.0);
        search.offer(0, 8, 5.0);
        assert_eq!((search.path_d2[0], search.path_seg[0]), (4.0, 5));
        assert_eq!((search.path_d2[1], search.path_seg[1]), (9.0, 3));
        search.offer(1, 4, 1.0);
        assert_eq!(search.path_seg[1], 4);
        assert_eq!(search.touched, [0, 1]);
    }

    #[test]
    fn try_variant_stops_once_per_published_trace() {
        let orig = trace_from_points(1, &[(0.0, 0.0), (100.0, 0.0)]);
        let published = Dataset::from_traces(vec![
            trace_from_points(1, &[(0.0, 5.0)]),
            trace_from_points(2, &[(50.0, 5.0)]),
        ]);
        let original = Dataset::from_traces(vec![orig]);
        let mut polls = 0;
        let full = try_dataset_distortion_anonymous(&original, &published, &mut || {
            polls += 1;
            false
        });
        assert_eq!(polls, 2);
        assert_eq!(
            full,
            Some(dataset_distortion_anonymous(&original, &published))
        );
        let mut polls = 0;
        let stopped = try_dataset_distortion_anonymous(&original, &published, &mut || {
            polls += 1;
            polls == 2
        });
        assert_eq!(stopped, None);
    }
}
