//! Answer oracle independent of the R*-tree.
//!
//! A uniform grid over the unit square buckets the object MBRs the
//! benchmark generated; an answer is every live object whose MBR meets
//! the query and whose exact `Geometry` passes the query's predicate.
//! The oracle shares the geometry kernel with the engine, but none of
//! its index, storage or query code.

use spatialdb::geom::{Geometry, HasMbr, Rect};
use std::collections::HashMap;

#[derive(Debug)]
struct Obj {
    id: u64,
    mbr: Rect,
    geometry: Geometry,
    live: bool,
}

#[derive(Debug)]
pub struct Oracle {
    side: usize,
    cells: Vec<Vec<u32>>,
    objs: Vec<Obj>,
    slot: HashMap<u64, u32>,
    stamp: Vec<u32>,
    epoch: u32,
}

/// What the oracle expects of a join: candidate pairs (MBRs meet),
/// answers (geometries meet) and an order-free hash of the answer set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JoinAnswer {
    pub candidates: u64,
    pub answers: u64,
    pub fingerprint: u64,
}

/// Order-independent contribution of one answer pair to a fingerprint.
pub fn pair_hash(a: u64, b: u64) -> u64 {
    // splitmix64 finalizer over the packed pair.
    let mut z = a.rotate_left(32) ^ b ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Oracle {
    /// An empty oracle with a `side × side` grid.
    pub fn new(side: usize) -> Self {
        Oracle {
            side,
            cells: vec![Vec::new(); side * side],
            objs: Vec::new(),
            slot: HashMap::new(),
            stamp: Vec::new(),
            epoch: 0,
        }
    }

    fn cell_span(&self, r: &Rect) -> (usize, usize, usize, usize) {
        let n = self.side as f64;
        let c = |v: f64| ((v * n).floor().max(0.0) as usize).min(self.side - 1);
        (c(r.xmin), c(r.xmax), c(r.ymin), c(r.ymax))
    }

    fn cells_of(&self, r: &Rect) -> impl Iterator<Item = usize> {
        let (x0, x1, y0, y1) = self.cell_span(r);
        let side = self.side;
        (y0..=y1).flat_map(move |y| (x0..=x1).map(move |x| y * side + x))
    }

    pub fn insert(&mut self, id: u64, geometry: Geometry) {
        let mbr = geometry.mbr();
        let s = self.objs.len() as u32;
        assert!(self.slot.insert(id, s).is_none(), "oracle: id {id} twice");
        for c in self.cells_of(&mbr).collect::<Vec<_>>() {
            self.cells[c].push(s);
        }
        self.objs.push(Obj {
            id,
            mbr,
            geometry,
            live: true,
        });
        self.stamp.push(0);
    }

    /// Mark `id` removed; `false` if it was not live.
    pub fn remove(&mut self, id: u64) -> bool {
        match self.slot.remove(&id) {
            Some(s) => {
                self.objs[s as usize].live = false;
                true
            }
            None => false,
        }
    }

    pub fn geometry(&self, id: u64) -> Option<&Geometry> {
        self.slot.get(&id).map(|&s| &self.objs[s as usize].geometry)
    }

    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// Serialized bytes of every live object (what the store must hold).
    pub fn live_bytes(&self) -> u64 {
        self.objs
            .iter()
            .filter(|o| o.live)
            .map(|o| o.geometry.serialized_size() as u64)
            .sum()
    }

    /// Live objects whose MBR meets `r`, each once, in grid order.
    fn mbr_hits(&mut self, r: &Rect, out: &mut Vec<u32>) {
        self.epoch += 1;
        let epoch = self.epoch;
        out.clear();
        let (x0, x1, y0, y1) = self.cell_span(r);
        for y in y0..=y1 {
            for x in x0..=x1 {
                for &s in &self.cells[y * self.side + x] {
                    let o = &self.objs[s as usize];
                    if self.stamp[s as usize] != epoch && o.live && o.mbr.intersects(r) {
                        self.stamp[s as usize] = epoch;
                        out.push(s);
                    }
                }
            }
        }
    }

    /// Sorted ids of the exact answers of a window query.
    pub fn window(&mut self, w: &Rect) -> Vec<u64> {
        let mut hits = Vec::new();
        self.mbr_hits(w, &mut hits);
        let mut ids: Vec<u64> = hits
            .iter()
            .map(|&s| &self.objs[s as usize])
            .filter(|o| o.geometry.intersects_rect(w))
            .map(|o| o.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Every pair (left object, right object) whose MBRs meet, as ids.
    pub fn candidate_pairs(&mut self, right: &Oracle) -> Vec<(u64, u64)> {
        let mut pairs = Vec::new();
        let mut hits = Vec::new();
        for b in right.objs.iter().filter(|o| o.live) {
            self.mbr_hits(&b.mbr, &mut hits);
            pairs.extend(hits.iter().map(|&s| (self.objs[s as usize].id, b.id)));
        }
        pairs
    }

    /// The intersection join of this (left) map with `right`.
    pub fn join(&mut self, right: &Oracle) -> JoinAnswer {
        let pairs = self.candidate_pairs(right);
        let mut answer = JoinAnswer {
            candidates: pairs.len() as u64,
            answers: 0,
            fingerprint: 0,
        };
        for (a, b) in pairs {
            let (ga, gb) = (self.geometry(a), right.geometry(b));
            if ga.expect("left id").intersects(gb.expect("right id")) {
                answer.answers += 1;
                answer.fingerprint = answer.fingerprint.wrapping_add(pair_hash(a, b));
            }
        }
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatialdb::geom::{Point, Polyline};

    fn seg(x0: f64, y0: f64, x1: f64, y1: f64) -> Geometry {
        Polyline::new(vec![Point::new(x0, y0), Point::new(x1, y1)]).into()
    }

    #[test]
    fn window_uses_exact_geometry_and_liveness() {
        let mut o = Oracle::new(8);
        // A diagonal whose MBR covers the window corner it misses.
        o.insert(1, seg(0.1, 0.1, 0.5, 0.5));
        o.insert(2, seg(0.40, 0.12, 0.48, 0.12));
        o.insert(3, seg(0.9, 0.9, 0.95, 0.95));
        let w = Rect::new(0.35, 0.1, 0.5, 0.2);
        assert_eq!(o.window(&w), vec![2]);
        assert_eq!(o.window(&Rect::new(0.0, 0.0, 1.0, 1.0)), vec![1, 2, 3]);
        assert!(o.remove(2));
        assert!(!o.remove(2));
        assert_eq!(o.window(&w), Vec::<u64>::new());
    }

    #[test]
    fn join_counts_each_pair_once() {
        let mut l = Oracle::new(4);
        l.insert(1, seg(0.1, 0.1, 0.9, 0.9));
        l.insert(2, seg(0.1, 0.9, 0.2, 0.8));
        let mut r = Oracle::new(4);
        r.insert(7, seg(0.1, 0.9, 0.9, 0.1));
        let j = l.join(&r);
        assert_eq!(j.candidates, 2);
        assert_eq!(j.answers, 2);
        assert_eq!(j.fingerprint, pair_hash(1, 7).wrapping_add(pair_hash(2, 7)));
    }
}
