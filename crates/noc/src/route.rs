//! Mesh coordinates and deterministic X-Y (dimension-ordered) routing.
//!
//! X-Y routing first corrects the X coordinate, then the Y coordinate.
//! It is deadlock-free on a mesh and is what the paper's Table I specifies.

/// A tile index in row-major order: `id = y * width + x`.
pub type NodeId = usize;

/// Mesh coordinates of a tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Position {
    pub x: usize,
    pub y: usize,
}

impl Position {
    pub fn of(id: NodeId, width: usize) -> Position {
        Position {
            x: id % width,
            y: id / width,
        }
    }

    pub fn id(self, width: usize) -> NodeId {
        self.y * width + self.x
    }
}

/// Number of hops between two nodes under X-Y routing (Manhattan distance).
pub fn route_hops(src: NodeId, dst: NodeId, width: usize) -> usize {
    let a = Position::of(src, width);
    let b = Position::of(dst, width);
    a.x.abs_diff(b.x) + a.y.abs_diff(b.y)
}

/// The node sequence of the X-Y route from `src` to `dst`, inclusive of
/// both endpoints. The test oracle for [`crate::Mesh::send`], which walks
/// the same route without building it.
#[cfg(test)]
pub(crate) fn route_path(src: NodeId, dst: NodeId, width: usize) -> Vec<NodeId> {
    let s = Position::of(src, width);
    let d = Position::of(dst, width);
    let mut path = Vec::with_capacity(route_hops(src, dst, width) + 1);
    let mut cur = s;
    path.push(cur.id(width));
    while cur.x != d.x {
        cur.x = if d.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        path.push(cur.id(width));
    }
    while cur.y != d.y {
        cur.y = if d.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        path.push(cur.id(width));
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_roundtrip() {
        for id in 0..32 {
            assert_eq!(Position::of(id, 4).id(4), id);
        }
    }

    #[test]
    fn hops_zero_for_self() {
        for id in 0..32 {
            assert_eq!(route_hops(id, id, 4), 0);
        }
    }

    #[test]
    fn hops_symmetric() {
        for a in 0..32 {
            for b in 0..32 {
                assert_eq!(route_hops(a, b, 4), route_hops(b, a, 4));
            }
        }
    }

    #[test]
    fn path_is_x_then_y() {
        // From (0,0) to (3,2) on a 4-wide mesh: along X first.
        let p = route_path(0, 2 * 4 + 3, 4);
        assert_eq!(p, vec![0, 1, 2, 3, 7, 11]);
    }

    #[test]
    fn path_length_matches_hops() {
        for a in 0..32 {
            for b in 0..32 {
                let p = route_path(a, b, 4);
                assert_eq!(p.len(), route_hops(a, b, 4) + 1);
                assert_eq!(*p.first().unwrap(), a);
                assert_eq!(*p.last().unwrap(), b);
                // Each step moves exactly one hop.
                for w in p.windows(2) {
                    assert_eq!(route_hops(w[0], w[1], 4), 1);
                }
            }
        }
    }

    #[test]
    fn max_hops_on_4x8() {
        // Corner to corner on 4x8: 3 + 7 = 10 hops.
        assert_eq!(route_hops(0, 31, 4), 10);
    }
}
