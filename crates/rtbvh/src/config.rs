/// Byte sizes of the BVH's node records — what one node visit moves
/// through the memory hierarchy.
///
/// The default is the 4-wide layout of Benthin et al. used by Vulkan-Sim
/// (128 B interior nodes, 48 B/triangle compressed leaves); a
/// [`NodeFormat::Quantized`] build prices its interior nodes at the
/// quantized record's size through [`BvhConfig::effective_layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLayout {
    /// Bytes per interior node record.
    pub inner_bytes: u32,
    /// Fixed header bytes per leaf record.
    pub leaf_header_bytes: u32,
    /// Bytes per triangle inside a leaf record.
    pub leaf_tri_bytes: u32,
    /// Leaf records are padded to this granularity.
    pub leaf_align_bytes: u32,
}

impl NodeLayout {
    /// The Benthin-et-al.-style layout Vulkan-Sim uses (the default).
    pub const fn wide() -> NodeLayout {
        NodeLayout {
            inner_bytes: 128,
            leaf_header_bytes: 16,
            leaf_tri_bytes: 48,
            leaf_align_bytes: 64,
        }
    }
}

impl Default for NodeLayout {
    fn default() -> NodeLayout {
        NodeLayout::wide()
    }
}

/// In-memory encoding of the interior node records.
///
/// [`NodeFormat::Quantized`] swaps the 120 B f32 [`Bvh4Node`](crate::Bvh4Node)
/// for the 72 B [`QBvh4Node`](crate::QBvh4Node): child slabs stored as u8
/// grid coordinates against a per-node grid, decoded *conservatively*
/// (decoded boxes are always supersets of the exact f32 boxes, so no true
/// hit can be missed — see `qnode`). A smaller record changes the
/// BVH-size/L1 ratio, the axis the paper's results pivot on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeFormat {
    /// Full-precision f32 slabs (the default).
    #[default]
    Wide,
    /// u8-quantized child slabs with conservative decode.
    Quantized,
}

/// Build parameters for [`Bvh::build`](crate::Bvh::build).
///
/// The defaults mirror the paper's methodology: a 4-wide BVH whose treelets
/// are sized to half a 16 KB L1 cache (§5), built with a 16-bin SAH sweep.
///
/// # Example
///
/// ```
/// let cfg = rtbvh::BvhConfig { treelet_bytes: 4096, ..Default::default() };
/// assert_eq!(cfg.sah_bins, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BvhConfig {
    /// Number of SAH bins per axis sweep (at most
    /// [`build2::MAX_BINS`](crate::build2::MAX_BINS)).
    pub sah_bins: usize,
    /// Preferred maximum primitives per leaf (SAH may still merge more,
    /// bounded by `max_leaf_prims_hard`).
    pub max_leaf_prims: usize,
    /// Hard cap on leaf size; ranges larger than this are always split.
    pub max_leaf_prims_hard: usize,
    /// Relative cost of a traversal step vs. a primitive intersection in
    /// the SAH.
    pub traversal_cost: f32,
    /// Byte budget per treelet (default 8 KB = half of the simulated 16 KB
    /// L1, the paper's choice enabling double-buffered treelet preloads).
    pub treelet_bytes: u32,
    /// Node record byte sizes (memory footprint model).
    pub layout: NodeLayout,
    /// Interior node encoding; [`NodeFormat::Quantized`] shrinks interior
    /// records to [`QBvh4Node::BYTES`](crate::QBvh4Node::BYTES) bytes.
    pub node_format: NodeFormat,
}

impl BvhConfig {
    /// The layout actually used for byte placement: under
    /// [`NodeFormat::Quantized`] the interior record size is the quantized
    /// node's, everything else follows `self.layout`.
    pub fn effective_layout(&self) -> NodeLayout {
        match self.node_format {
            NodeFormat::Wide => self.layout,
            NodeFormat::Quantized => {
                NodeLayout { inner_bytes: crate::QBvh4Node::BYTES, ..self.layout }
            }
        }
    }
}

impl Default for BvhConfig {
    fn default() -> BvhConfig {
        BvhConfig {
            sah_bins: 16,
            max_leaf_prims: 4,
            max_leaf_prims_hard: 16,
            traversal_cost: 1.0,
            treelet_bytes: 8 * 1024,
            layout: NodeLayout::wide(),
            node_format: NodeFormat::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_methodology() {
        let c = BvhConfig::default();
        assert_eq!(c.treelet_bytes, 8192);
        assert_eq!(c.max_leaf_prims, 4);
        assert!(c.max_leaf_prims_hard >= c.max_leaf_prims);
        assert_eq!(c.layout, NodeLayout::wide());
    }

    #[test]
    fn effective_layout_shrinks_interiors_only_when_quantized() {
        let wide = BvhConfig::default();
        assert_eq!(wide.effective_layout(), wide.layout);
        let q = BvhConfig { node_format: NodeFormat::Quantized, ..Default::default() };
        let eff = q.effective_layout();
        assert_eq!(eff.inner_bytes, crate::QBvh4Node::BYTES);
        assert_eq!(eff.leaf_header_bytes, q.layout.leaf_header_bytes);
        assert_eq!(eff.leaf_tri_bytes, q.layout.leaf_tri_bytes);
        assert!(eff.inner_bytes < q.layout.inner_bytes);
    }

    #[test]
    fn compressed_layout_is_strictly_smaller() {
        let w = NodeLayout::wide();
        // A CWBVH-style layout after Ylitie et al.: 80 B interior nodes,
        // 32 B leaf triangles.
        let c = NodeLayout {
            inner_bytes: 80,
            leaf_header_bytes: 16,
            leaf_tri_bytes: 32,
            leaf_align_bytes: 32,
        };
        assert!(c.inner_bytes < w.inner_bytes);
        assert!(c.leaf_tri_bytes < w.leaf_tri_bytes);
        assert!(c.leaf_align_bytes <= w.leaf_align_bytes);
    }
}
