//! The real-time spam-detection stream (paper §4.3.1).
//!
//! Reviews (nodes) carry timestamps; the application performs inference on
//! the reviews that arrived in each 30-minute window and re-trains monthly.
//! [`SpamStream`] iterates those windows over a timestamped dataset and
//! exposes the "graph known so far" semantics: at window `t`, only edges to
//! already-arrived reviews exist.

use crate::registry::Dataset;
use gcnp_sparse::CsrMatrix;

/// Default YelpCHI oversampling factor when `GCNP_SPAM_FACTOR` is unset
/// (the paper uses 400 on a 64-core machine).
pub const DEFAULT_SPAM_FACTOR: usize = 20;

/// Parse an oversampling factor: a positive integer. The typed error path
/// exists because the fig6 bench used to fall back to the default on *any*
/// unparsable value — a typo like `GCNP_SPAM_FACTOR=1O0` silently benched
/// a 20× graph while claiming 100×.
pub fn parse_spam_factor(s: &str) -> Result<usize, String> {
    let v: usize = s
        .trim()
        .parse()
        .map_err(|_| format!("invalid spam factor {s:?}: expected a positive integer"))?;
    if v == 0 {
        return Err(
            "invalid spam factor 0: the oversampled graph needs at least one replica".into(),
        );
    }
    Ok(v)
}

/// Read the oversampling factor from `GCNP_SPAM_FACTOR`: unset means
/// [`DEFAULT_SPAM_FACTOR`], set-but-unparsable is a typed error (shared by
/// the fig6/sharded-scaling benches and the CLI `--spam-factor` flag).
pub fn spam_factor_from_env() -> Result<usize, String> {
    match std::env::var("GCNP_SPAM_FACTOR") {
        Err(_) => Ok(DEFAULT_SPAM_FACTOR),
        Ok(s) => parse_spam_factor(&s).map_err(|e| format!("GCNP_SPAM_FACTOR: {e}")),
    }
}

/// One inference window of the stream.
#[derive(Debug, Clone)]
pub struct Window {
    /// Window index (0-based from the stream start).
    pub index: usize,
    /// Day this window belongs to (0-based).
    pub day: u32,
    /// Nodes that arrived during this window (the inference targets).
    pub nodes: Vec<usize>,
}

/// Iterator over fixed-size time windows of a timestamped dataset.
pub struct SpamStream<'a> {
    dataset: &'a Dataset,
    /// Window width in minutes (the paper serves every 30 minutes).
    pub window_minutes: u32,
    /// Node ids sorted by timestamp.
    order: Vec<usize>,
    cursor: usize,
    next_window: usize,
}

impl<'a> SpamStream<'a> {
    /// Create a stream over `dataset` (must have timestamps).
    ///
    /// # Panics
    /// Panics if the dataset has no timestamps.
    pub fn new(dataset: &'a Dataset, window_minutes: u32) -> Self {
        let ts = dataset
            .timestamps
            .as_ref()
            .expect("SpamStream: dataset has no timestamps");
        assert!(window_minutes > 0, "SpamStream: zero window");
        let mut order: Vec<usize> = (0..dataset.n_nodes()).collect();
        order.sort_by_key(|&v| ts[v]);
        Self {
            dataset,
            window_minutes,
            order,
            cursor: 0,
            next_window: 0,
        }
    }

    /// Total number of windows the stream will produce.
    pub fn n_windows(&self) -> usize {
        let ts = self.dataset.timestamps.as_ref().unwrap();
        let max = self.order.last().map_or(0, |&v| ts[v]);
        (max / self.window_minutes) as usize + 1
    }

    /// Nodes that arrived strictly before window `w` starts (the visible
    /// graph when serving window `w`).
    pub fn arrived_before(&self, w: usize) -> Vec<usize> {
        let ts = self.dataset.timestamps.as_ref().unwrap();
        let cutoff = w as u32 * self.window_minutes;
        self.order
            .iter()
            .copied()
            .take_while(|&v| ts[v] < cutoff)
            .collect()
    }

    /// Directed adjacency entries that become visible during window `w`: an
    /// edge exists once **both** endpoints have arrived, so it materializes
    /// in the window of the later endpoint. Feeding these deltas to
    /// [`GrowingGraph::accrete`] (or the sharded store's `accrete`) window
    /// by window reconstructs exactly the "graph known so far" that
    /// [`SpamStream::arrived_before`] describes.
    pub fn edge_delta(&self, w: usize) -> Vec<(u32, u32)> {
        let ts = self.dataset.timestamps.as_ref().unwrap();
        let start = w as u32 * self.window_minutes;
        let end = start.saturating_add(self.window_minutes);
        let mut out = Vec::new();
        for v in 0..self.dataset.n_nodes() {
            for &u in self.dataset.adj.row_indices(v) {
                let born = ts[v].max(ts[u as usize]);
                if born >= start && born < end {
                    out.push((v as u32, u));
                }
            }
        }
        out
    }
}

/// A graph that accretes edges over time — the serving-side counterpart of
/// the spam stream. Holds the accumulated (directed) edge list and rebuilds
/// its CSR snapshot on each accretion; the *incremental* part of accretion
/// lives in the feature store's dirty-set invalidation, not here (a CSR
/// rebuild is O(E) and happens once per window, off the request path).
pub struct GrowingGraph {
    n_nodes: usize,
    edges: Vec<(u32, u32)>,
    adj: CsrMatrix,
}

impl GrowingGraph {
    /// An edgeless graph over `n_nodes` (all nodes exist up front; only
    /// edges accrete, matching the store's fixed node capacity).
    pub fn new(n_nodes: usize) -> Self {
        Self {
            n_nodes,
            edges: Vec::new(),
            adj: CsrMatrix::empty(n_nodes, n_nodes),
        }
    }

    /// Append directed adjacency entries (pass both directions for an
    /// undirected edge) and rebuild the snapshot. Returns the new CSR.
    pub fn accrete(&mut self, new_edges: &[(u32, u32)]) -> &CsrMatrix {
        for &(u, v) in new_edges {
            debug_assert!((u as usize) < self.n_nodes && (v as usize) < self.n_nodes);
            self.edges.push((u, v));
        }
        self.adj = CsrMatrix::adjacency(self.n_nodes, &self.edges);
        &self.adj
    }

    /// The current snapshot.
    pub fn adj(&self) -> &CsrMatrix {
        &self.adj
    }

    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }
}

impl Iterator for SpamStream<'_> {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        let ts = self.dataset.timestamps.as_ref().unwrap();
        if self.cursor >= self.order.len() {
            return None;
        }
        let w = self.next_window;
        let end = (w as u32 + 1) * self.window_minutes;
        let mut nodes = Vec::new();
        while self.cursor < self.order.len() && ts[self.order[self.cursor]] < end {
            nodes.push(self.order[self.cursor]);
            self.cursor += 1;
        }
        self.next_window += 1;
        Some(Window {
            index: w,
            day: (w as u32 * self.window_minutes) / (24 * 60),
            nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthConfig;

    fn stream_dataset() -> Dataset {
        SynthConfig {
            nodes: 500,
            classes: 2,
            communities: 4,
            attr_dim: 8,
            timestamp_days: 2,
            ..Default::default()
        }
        .generate(1)
    }

    #[test]
    fn windows_partition_all_nodes() {
        let d = stream_dataset();
        let total: usize = SpamStream::new(&d, 30).map(|w| w.nodes.len()).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn windows_are_time_ordered() {
        let d = stream_dataset();
        let ts = d.timestamps.clone().unwrap();
        for w in SpamStream::new(&d, 30) {
            for &v in &w.nodes {
                let t = ts[v];
                assert!(t >= w.index as u32 * 30 && t < (w.index as u32 + 1) * 30);
            }
        }
    }

    #[test]
    fn day_index_advances() {
        let d = stream_dataset();
        let days: Vec<u32> = SpamStream::new(&d, 30).map(|w| w.day).collect();
        assert!(days.windows(2).all(|p| p[0] <= p[1]));
        assert!(*days.last().unwrap() >= 1, "two-day stream spans day 1");
    }

    #[test]
    fn arrived_before_is_monotone() {
        let d = stream_dataset();
        let s = SpamStream::new(&d, 60);
        let a = s.arrived_before(5).len();
        let b = s.arrived_before(10).len();
        assert!(a <= b);
        assert!(s.arrived_before(0).is_empty());
    }

    #[test]
    fn n_windows_consistent_with_iteration() {
        let d = stream_dataset();
        let s = SpamStream::new(&d, 30);
        let n = s.n_windows();
        let last = SpamStream::new(&d, 30).last().unwrap();
        assert_eq!(last.index + 1, n);
    }
}
