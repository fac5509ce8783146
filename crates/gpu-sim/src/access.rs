//! Per-tensor access descriptions of a kernel plan: for each dimension of
//! a tensor, which binding it belongs to, its global and staged-tile
//! strides, and which hardware dimension supplies its in-tile coordinate.
//! The transaction tracer ([`crate::trace`]) and the bank-conflict
//! analysis ([`crate::smem`]) both address memory through these tables.

use cogent_ir::TensorRef;

use crate::plan::{KernelPlan, MapDim, PlanError};

/// How one dimension of a tensor obtains its in-tile coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoordSource {
    /// From the decomposition of a hardware dimension, at this position of
    /// the group (0 = fastest).
    Group(MapDim, usize),
}

/// Per-dimension access description of one tensor under a plan.
#[derive(Debug, Clone)]
pub(crate) struct DimSpec {
    /// Index into `plan.bindings()`.
    pub binding: usize,
    /// Extent of the dimension.
    pub extent: usize,
    /// Tile size of the dimension.
    pub tile: usize,
    /// Stride of this dimension in the tensor's global layout.
    pub global_stride: usize,
    /// Stride of this dimension in the staged tile's linearization.
    pub tile_stride: usize,
    /// Where the in-tile coordinate comes from.
    pub source: CoordSource,
}

/// Access plan for one tensor: dimensions in the tensor's own storage
/// order (fastest first).
#[derive(Debug, Clone)]
pub(crate) struct TensorAccess {
    pub dims: Vec<DimSpec>,
    pub tile_elems: usize,
}

impl TensorAccess {
    pub(crate) fn new(plan: &KernelPlan, tensor: &TensorRef) -> Self {
        Self::try_new(plan, tensor).unwrap_or_else(|e| panic!("{e}"))
    }

    pub(crate) fn try_new(plan: &KernelPlan, tensor: &TensorRef) -> Result<Self, PlanError> {
        let mut dims = Vec::with_capacity(tensor.rank());
        let mut global_stride = 1usize;
        let mut tile_stride = 1usize;
        for idx in tensor.indices() {
            let (b_pos, binding) = plan
                .bindings()
                .iter()
                .enumerate()
                .find(|(_, b)| &b.name == idx)
                .ok_or_else(|| PlanError::UnboundIndex {
                    index: idx.to_string(),
                })?;
            let group_pos = plan
                .group_bindings(binding.dim)
                .position(|b| b.name == binding.name)
                .expect("binding is in its own group");
            dims.push(DimSpec {
                binding: b_pos,
                extent: binding.extent,
                tile: binding.tile,
                global_stride,
                tile_stride,
                source: CoordSource::Group(binding.dim, group_pos),
            });
            global_stride *= binding.extent;
            tile_stride *= binding.tile;
        }
        Ok(Self {
            dims,
            tile_elems: tile_stride,
        })
    }

    /// Contribution of hardware dimension `dim` to the tile-linear offset,
    /// tabulated for every linear position of that dimension.
    pub(crate) fn tile_offset_table(&self, plan: &KernelPlan, dim: MapDim) -> Vec<usize> {
        let size = plan.group_size(dim);
        (0..size)
            .map(|lin| {
                let coords = plan.decompose_in_group(dim, lin);
                self.dims
                    .iter()
                    .filter_map(|d| match d.source {
                        CoordSource::Group(g, pos) if g == dim => Some(d.tile_stride * coords[pos]),
                        _ => None,
                    })
                    .sum()
            })
            .collect()
    }
}

/// Per-dimension output coordinate tables: `tables[d][lin]` is the
/// in-tile coordinate of C's `d`-th dimension at linear position `lin` of
/// its source hardware dimension. Computed once per plan, used per store.
pub(crate) fn output_coord_tables(plan: &KernelPlan, acc_c: &TensorAccess) -> Vec<Vec<usize>> {
    acc_c
        .dims
        .iter()
        .map(|d| {
            let CoordSource::Group(dim, pos) = d.source;
            (0..plan.group_size(dim))
                .map(|lin| plan.decompose_in_group(dim, lin)[pos])
                .collect()
        })
        .collect()
}
