//! Disjoint-set forest with path compression and union by rank.
//!
//! The chase (Definition 2.3 of the paper) repeatedly merges query
//! variables; a union-find makes the variable-substitution closure
//! near-linear.

/// Union-find over `0..n`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s set (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.components -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Merges so that `a`'s representative *stays* the representative.
    ///
    /// The chase replaces one variable by another in a fixed direction; this
    /// keeps substitution targets deterministic.
    pub fn union_into(&mut self, target: usize, absorbed: usize) -> bool {
        let (rt, ra) = (self.find(target), self.find(absorbed));
        if rt == ra {
            return false;
        }
        self.components -= 1;
        self.parent[ra] = rt;
        true
    }

    /// `true` when `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_union_find() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.components(), 5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert_eq!(uf.components(), 3);
        assert!(uf.same(0, 1));
        assert!(!uf.same(1, 2));
        uf.union(1, 2);
        assert!(uf.same(0, 3));
        assert_eq!(uf.components(), 2);
    }

    #[test]
    fn union_into_keeps_target_representative() {
        let mut uf = UnionFind::new(4);
        uf.union_into(2, 0);
        uf.union_into(2, 1);
        assert_eq!(uf.find(0), 2);
        assert_eq!(uf.find(1), 2);
        assert_eq!(uf.find(3), 3);
    }
}
