//! Disjoint-set forest (union-find) with union by rank and path halving.
//!
//! Used by Kruskal's MST inside the Steiner-tree approximation
//! (Algorithm 1) and by the prize-collecting growth of Algorithm 2, which
//! the paper specifies directly in terms of `make_set` / `find` / `union`.

/// Disjoint-set forest over `0..n` (the default is the empty one).
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Reset to `n` singleton sets, reusing the allocation.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.components = n;
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x as usize
    }

    /// Merge the sets of `a` and `b`. Returns `true` if they were disjoint.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(!uf.connected(0, 1));
        assert!(uf.union(0, 1));
        assert!(uf.connected(0, 1));
        assert!(!uf.union(1, 0), "repeated union reports false");
        assert_eq!(uf.component_count(), 4);
        assert!(uf.union(2, 3));
        assert!(uf.union(0, 3));
        assert!(uf.connected(1, 2));
        assert_eq!(uf.component_count(), 2);
        assert!(!uf.connected(4, 0));
    }

    #[test]
    fn transitive_chain() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_count(), 1);
        assert!(uf.connected(0, 99));
    }

    #[test]
    fn reset_restores_singletons() {
        let mut uf = UnionFind::new(3);
        uf.union(0, 1);
        uf.reset(4);
        assert_eq!((uf.len(), uf.component_count()), (4, 4));
        assert!(!uf.connected(0, 1));
        assert!(uf.union(3, 0));
    }

    #[test]
    fn empty_and_len() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        let uf = UnionFind::new(3);
        assert_eq!(uf.len(), 3);
    }
}
