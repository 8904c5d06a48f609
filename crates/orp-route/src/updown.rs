//! Up*/down* routing (Autonet-style), the classic topology-agnostic
//! deadlock-free deterministic scheme surveyed in the paper's reference
//! \[14\]: orient every link "up" toward a BFS root (lower BFS level wins,
//! ties by lower switch id); a legal path takes zero or more up links
//! followed by zero or more down links, which provably rules out cyclic
//! channel dependencies.

use crate::error::RouteError;
use orp_core::fault::{FaultSet, FaultView};
use orp_core::graph::{HostSwitchGraph, Switch};
use std::collections::VecDeque;

/// Up*/down* routing state: link orientations plus a legal-shortest-path
/// next-hop table.
#[derive(Debug, Clone)]
pub struct UpDownRouting {
    m: u32,
    /// BFS level of every switch (root = 0).
    level: Vec<u32>,
    /// `dist[d·m + s]` = legal-path length s→d, `u32::MAX` if none.
    dist: Vec<u32>,
    /// first legal next hop per `(dst, src, phase)`; phase 0 = still going
    /// up, 1 = already went down
    next: Vec<Switch>,
}

const NONE: u32 = u32::MAX;

impl UpDownRouting {
    /// Whether the directed hop `u → v` goes "up".
    fn is_up(&self, u: Switch, v: Switch) -> bool {
        (self.level[v as usize], v) < (self.level[u as usize], u)
    }

    /// Builds up*/down* tables rooted at `root`.
    ///
    /// Runs one backward BFS per destination over the DAG of legal moves
    /// (state = switch × "have we descended yet"), so the produced routes
    /// are *shortest legal* paths.
    pub fn build(g: &HostSwitchGraph, root: Switch) -> Self {
        let adj: Vec<Vec<Switch>> = (0..g.num_switches())
            .map(|s| g.neighbors(s).to_vec())
            .collect();
        Self::build_adj(&adj, root)
    }

    /// Builds up*/down* tables over the surviving part of `g` under
    /// `faults`. Fails with [`RouteError::DeadEndpoint`] when the chosen
    /// root switch itself has failed (re-rooting is the caller's policy
    /// decision, not ours).
    pub fn build_with_faults(
        g: &HostSwitchGraph,
        faults: &FaultSet,
        root: Switch,
    ) -> Result<Self, RouteError> {
        if faults.switch_failed(root) {
            return Err(RouteError::DeadEndpoint { switch: root });
        }
        Ok(Self::build_adj(
            &FaultView::new(g, faults).surviving_adjacency(),
            root,
        ))
    }

    /// Builds up*/down* tables from explicit adjacency lists (index =
    /// switch id), rooted at `root`.
    pub fn build_adj(adj: &[Vec<Switch>], root: Switch) -> Self {
        let mm = adj.len();
        let m = mm as u32;
        // BFS levels from root
        let mut level = vec![u32::MAX; mm];
        let mut q = VecDeque::new();
        level[root as usize] = 0;
        q.push_back(root);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u as usize] {
                if level[v as usize] == u32::MAX {
                    level[v as usize] = level[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        let mut this = Self {
            m,
            level,
            dist: vec![u32::MAX; mm * mm],
            next: vec![NONE; mm * mm * 2],
        };
        // For each destination d: BFS over states (switch, phase) along
        // *reversed* legal edges. Forward legality: up edges only in
        // phase 0 (staying in phase 0); down edges allowed from phase 0 or
        // 1 (entering phase 1).
        let mut sdist = vec![u32::MAX; mm * 2];
        let mut queue: VecDeque<u32> = VecDeque::new();
        for d in 0..m {
            sdist.fill(u32::MAX);
            queue.clear();
            // arrival states: reaching d in either phase ends the walk
            sdist[d as usize * 2] = 0;
            sdist[d as usize * 2 + 1] = 0;
            queue.push_back(d * 2);
            queue.push_back(d * 2 + 1);
            while let Some(state) = queue.pop_front() {
                let (v, phase) = (state / 2, state % 2);
                let dv = sdist[state as usize];
                // predecessors u with a legal move u→v landing in `phase`
                for &u in &adj[v as usize] {
                    let up = this.is_up(u, v);
                    // u→v up: requires u in phase 0, lands in phase 0
                    // u→v down: u in any phase, lands in phase 1
                    let preds: &[u32] = if up {
                        if phase == 0 {
                            &[0]
                        } else {
                            &[]
                        }
                    } else if phase == 1 {
                        &[0, 1]
                    } else {
                        &[]
                    };
                    for &pp in preds {
                        let s = (u * 2 + pp) as usize;
                        if sdist[s] == u32::MAX {
                            sdist[s] = dv + 1;
                            this.next[(d as usize * mm + u as usize) * 2 + pp as usize] = v;
                            queue.push_back(u * 2 + pp);
                        }
                    }
                }
            }
            for s in 0..m {
                // journeys start in phase 0
                this.dist[d as usize * mm + s as usize] = sdist[s as usize * 2];
            }
        }
        this
    }

    /// Legal-path length from `s` to `d` (`None` when no legal path —
    /// only possible on disconnected graphs).
    pub fn distance(&self, s: Switch, d: Switch) -> Option<u32> {
        let v = self.dist[d as usize * self.m as usize + s as usize];
        (v != u32::MAX).then_some(v)
    }

    /// The deterministic up*/down* path from `s` to `d`.
    pub fn path(&self, s: Switch, d: Switch) -> Option<Vec<Switch>> {
        self.distance(s, d)?;
        let mm = self.m as usize;
        let mut path = vec![s];
        let mut cur = s;
        let mut phase = 0usize;
        while cur != d {
            let nx = self.next[(d as usize * mm + cur as usize) * 2 + phase];
            if nx == NONE {
                return None;
            }
            if !self.is_up(cur, nx) {
                phase = 1;
            }
            path.push(nx);
            cur = nx;
            if path.len() > mm + 1 {
                return None; // defensive; legal tables cannot loop
            }
        }
        Some(path)
    }

    /// Like [`path`](Self::path) but with a structured error when no
    /// legal up*/down* path survives between the pair.
    pub fn try_path(&self, s: Switch, d: Switch) -> Result<Vec<Switch>, RouteError> {
        self.path(s, d)
            .ok_or(RouteError::Unreachable { src: s, dst: d })
    }

    /// BFS level of a switch (root = 0).
    pub fn level(&self, s: Switch) -> u32 {
        self.level[s as usize]
    }

    /// Verifies the up*/down* invariant on a path: no up move after a
    /// down move.
    pub fn is_legal_path(&self, path: &[Switch]) -> bool {
        let mut descended = false;
        for w in path.windows(2) {
            if self.is_up(w[0], w[1]) {
                if descended {
                    return false;
                }
            } else {
                descended = true;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orp_core::construct::random_regular_fabric;

    fn ring(m: u32) -> HostSwitchGraph {
        let mut g = HostSwitchGraph::new(m, 4).unwrap();
        for s in 0..m {
            g.add_link(s, (s + 1) % m).unwrap();
        }
        g
    }

    #[test]
    fn paths_exist_and_are_legal() {
        let g = ring(8);
        let r = UpDownRouting::build(&g, 0);
        for s in 0..8 {
            for d in 0..8 {
                let p = r.path(s, d).unwrap();
                assert_eq!(p.first(), Some(&s));
                assert_eq!(p.last(), Some(&d));
                assert!(r.is_legal_path(&p), "illegal path {p:?}");
                assert_eq!(p.len() as u32 - 1, r.distance(s, d).unwrap());
            }
        }
    }

    #[test]
    fn updown_can_be_longer_than_shortest() {
        // On a ring rooted at 0, the path 3→5 cannot cross the "valley"
        // at 4 if that would require up-after-down; distances are at
        // least the plain BFS distance.
        let g = ring(8);
        let r = UpDownRouting::build(&g, 0);
        for s in 0..8u32 {
            let bfs = g.switch_distances(s);
            for d in 0..8u32 {
                let ud = r.distance(s, d).unwrap();
                assert!(ud >= bfs[d as usize], "up*/down* shorter than BFS?");
            }
        }
        // and at least one pair is strictly longer on this ring
        let stretched = (0..8u32).any(|s| {
            let bfs = g.switch_distances(s);
            (0..8u32).any(|d| r.distance(s, d).unwrap() > bfs[d as usize])
        });
        assert!(stretched, "expected some stretch on a ring");
    }

    #[test]
    fn random_fabric_full_reachability() {
        let g = random_regular_fabric(40, 4, 11).unwrap();
        let r = UpDownRouting::build(&g, 0);
        for s in 0..40 {
            for d in 0..40 {
                let p = r.path(s, d).expect("reachable");
                assert!(r.is_legal_path(&p));
            }
        }
    }

    #[test]
    fn no_up_after_down_detected() {
        let g = ring(6);
        let r = UpDownRouting::build(&g, 0);
        // 1→2 is down? level(1)=1, level(2)=2 ⇒ 1→2 is down; 2→1 is up.
        // A path down then up must be flagged illegal.
        assert!(!r.is_legal_path(&[0, 1, 2, 1, 0]));
        assert!(r.is_legal_path(&[2, 1, 0]));
    }

    #[test]
    fn fault_build_skips_dead_elements() {
        let g = ring(6);
        let mut f = FaultSet::new();
        f.fail_link(2, 3);
        let r = UpDownRouting::build_with_faults(&g, &f, 0).unwrap();
        // every surviving pair still reachable, never via the dead link
        for s in 0..6 {
            for d in 0..6 {
                let p = r.try_path(s, d).unwrap();
                assert!(r.is_legal_path(&p));
                assert!(!p
                    .windows(2)
                    .any(|w| { (w[0].min(w[1]), w[0].max(w[1])) == (2, 3) }));
            }
        }
        // dead root is a structured error, not a broken table
        f.fail_switch(0);
        assert_eq!(
            UpDownRouting::build_with_faults(&g, &f, 0).unwrap_err(),
            RouteError::DeadEndpoint { switch: 0 }
        );
        // cutting the ring twice partitions it
        let mut f2 = FaultSet::new();
        f2.fail_link(1, 2).fail_link(4, 5);
        let r = UpDownRouting::build_with_faults(&g, &f2, 0).unwrap();
        assert_eq!(
            r.try_path(1, 2),
            Err(RouteError::Unreachable { src: 1, dst: 2 })
        );
        assert!(r.try_path(2, 4).is_ok());
    }

    #[test]
    fn levels_follow_bfs() {
        let g = ring(6);
        let r = UpDownRouting::build(&g, 0);
        assert_eq!(r.level(0), 0);
        assert_eq!(r.level(1), 1);
        assert_eq!(r.level(5), 1);
        assert_eq!(r.level(3), 3);
    }
}
