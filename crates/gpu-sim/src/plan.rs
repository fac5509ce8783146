//! Kernel plans: the executable description of a generated kernel.
//!
//! A [`KernelPlan`] captures everything Algorithm 1 of the paper
//! parameterizes: which loop index maps to which hardware dimension
//! (thread-block X/Y, register-tile X/Y, the serial contracted dimension,
//! or grid-only) and the tile size of each index. The plan is the contract
//! between the code generator (which lowers a chosen configuration to a
//! plan and emits equivalent CUDA), the kernel-IR lowering that gives it
//! its meaning (`cogent-kir`), and this crate's tracer.

use std::error::Error;
use std::fmt;

use cogent_ir::{Contraction, ContractionAnalysis, IndexClass, IndexName};

/// How the kernel writes its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StoreMode {
    /// `C = A * B`: overwrite the output (Algorithm 1 as written).
    #[default]
    Assign,
    /// `C += A * B`: accumulate into the output, as NWChem's CCSD(T)
    /// triples kernels do (`t3 += t2 * v2`). The store phase performs a
    /// read-modify-write of each output element.
    Accumulate,
}

/// The hardware dimension a loop index is mapped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapDim {
    /// `threadIdx.x` — external indices of the input holding the output
    /// FVI (`l_TBx` in the paper).
    ThreadX,
    /// `threadIdx.y` — external indices of the other input (`l_TBy`).
    ThreadY,
    /// X dimension of the per-thread register tile (`REG_x`).
    RegX,
    /// Y dimension of the per-thread register tile (`REG_y`).
    RegY,
    /// The serial loop over tiles of the contracted indices (`TB_k`).
    SerialK,
    /// Grid-only: the index is tiled across thread blocks with tile size 1
    /// (the paper: "technically mapped on TBx or TBy with tile size of 1").
    Grid,
}

impl MapDim {
    /// Whether this dimension belongs to the X group (driven by the `A`
    /// input in the outer-product schema).
    pub fn is_x_group(self) -> bool {
        matches!(self, MapDim::ThreadX | MapDim::RegX)
    }

    /// Whether this dimension belongs to the Y group (driven by `B`).
    pub fn is_y_group(self) -> bool {
        matches!(self, MapDim::ThreadY | MapDim::RegY)
    }
}

impl fmt::Display for MapDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MapDim::ThreadX => "TBx",
            MapDim::ThreadY => "TBy",
            MapDim::RegX => "REGx",
            MapDim::RegY => "REGy",
            MapDim::SerialK => "TBk",
            MapDim::Grid => "Blk",
        };
        f.write_str(s)
    }
}

/// One loop index's extent, tile size and mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexBinding {
    /// The loop index.
    pub name: IndexName,
    /// Representative extent `N_i`.
    pub extent: usize,
    /// Tile size `T_i` (`1 <= T_i <= N_i`).
    pub tile: usize,
    /// Hardware dimension the index is mapped to.
    pub dim: MapDim,
}

impl IndexBinding {
    /// Creates a binding.
    pub fn new(name: impl Into<IndexName>, extent: usize, tile: usize, dim: MapDim) -> Self {
        Self {
            name: name.into(),
            extent,
            tile,
            dim,
        }
    }

    /// Number of tiles along this index: `ceil(N_i / T_i)`.
    pub fn num_tiles(&self) -> usize {
        self.extent.div_ceil(self.tile)
    }
}

/// Error building a [`KernelPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// A binding refers to an index the contraction does not use, or an
    /// index of the contraction has no binding, or is bound twice.
    BindingMismatch {
        /// Description of the mismatch.
        detail: String,
    },
    /// A tile size is zero or exceeds its extent.
    BadTile {
        /// The offending index.
        index: IndexName,
        /// The tile size given.
        tile: usize,
        /// The extent of the index.
        extent: usize,
    },
    /// An index is mapped to a dimension its class does not allow (e.g. an
    /// internal index on `ThreadX`, or an `A`-external on the Y group).
    BadMapping {
        /// The offending index.
        index: IndexName,
        /// The dimension it was mapped to.
        dim: MapDim,
        /// Why this is illegal.
        reason: String,
    },
    /// A grid-mapped external has a tile size other than 1.
    GridTileNotOne {
        /// The offending index.
        index: IndexName,
    },
    /// An index was looked up that the plan does not bind.
    UnboundIndex {
        /// The index that has no binding.
        index: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BindingMismatch { detail } => {
                write!(f, "bindings do not match contraction indices: {detail}")
            }
            PlanError::BadTile {
                index,
                tile,
                extent,
            } => write!(
                f,
                "tile {tile} invalid for index {index} of extent {extent}"
            ),
            PlanError::BadMapping { index, dim, reason } => {
                write!(f, "index {index} cannot map to {dim}: {reason}")
            }
            PlanError::GridTileNotOne { index } => {
                write!(f, "grid-mapped index {index} must have tile size 1")
            }
            PlanError::UnboundIndex { index } => {
                write!(f, "plan has no binding for index {index}")
            }
        }
    }
}

impl Error for PlanError {}

/// A validated, executable kernel plan.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPlan {
    contraction: Contraction,
    bindings: Vec<IndexBinding>,
    /// Indices (into `bindings`) per group, in caller order (fastest
    /// varying first within each group).
    tbx: Vec<usize>,
    tby: Vec<usize>,
    regx: Vec<usize>,
    regy: Vec<usize>,
    tbk: Vec<usize>,
    grid: Vec<usize>,
    /// Externals in output order (into `bindings`) — the grid decomposition
    /// order.
    externals_c_order: Vec<usize>,
    store_mode: StoreMode,
}

impl KernelPlan {
    /// Builds and validates a plan.
    ///
    /// The order of `bindings` is meaningful *within* each mapped group:
    /// earlier bindings are faster varying when a hardware dimension is
    /// composed from several indices.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] when the bindings do not exactly cover the
    /// contraction's indices, a tile size is out of range, an index is
    /// mapped to a dimension its class does not allow (X-group indices must
    /// be externals of `A`, Y-group of `B`, `SerialK` exactly the
    /// internals), or a grid-mapped index has tile size ≠ 1.
    pub fn new(contraction: &Contraction, bindings: Vec<IndexBinding>) -> Result<Self, PlanError> {
        let analysis = ContractionAnalysis::new(contraction);

        // Coverage: bijection between bindings and contraction indices.
        if bindings.len() != contraction.num_indices() {
            return Err(PlanError::BindingMismatch {
                detail: format!(
                    "{} bindings for {} indices",
                    bindings.len(),
                    contraction.num_indices()
                ),
            });
        }
        for (i, b) in bindings.iter().enumerate() {
            if analysis.classify(&b.name).is_none() {
                return Err(PlanError::BindingMismatch {
                    detail: format!("index {} is not part of the contraction", b.name),
                });
            }
            if bindings[..i].iter().any(|o| o.name == b.name) {
                return Err(PlanError::BindingMismatch {
                    detail: format!("index {} bound twice", b.name),
                });
            }
        }

        let mut tbx = Vec::new();
        let mut tby = Vec::new();
        let mut regx = Vec::new();
        let mut regy = Vec::new();
        let mut tbk = Vec::new();
        let mut grid = Vec::new();

        for (i, b) in bindings.iter().enumerate() {
            if b.tile == 0 || b.tile > b.extent {
                return Err(PlanError::BadTile {
                    index: b.name.clone(),
                    tile: b.tile,
                    extent: b.extent,
                });
            }
            let class = analysis.classify(&b.name).expect("validated above");
            let bad = |reason: &str| PlanError::BadMapping {
                index: b.name.clone(),
                dim: b.dim,
                reason: reason.to_owned(),
            };
            match b.dim {
                MapDim::ThreadX | MapDim::RegX => {
                    if class != IndexClass::ExternalA {
                        return Err(bad("X-group indices must be externals shared by A and C"));
                    }
                    if b.dim == MapDim::ThreadX {
                        tbx.push(i);
                    } else {
                        regx.push(i);
                    }
                }
                MapDim::ThreadY | MapDim::RegY => {
                    if class != IndexClass::ExternalB {
                        return Err(bad("Y-group indices must be externals shared by B and C"));
                    }
                    if b.dim == MapDim::ThreadY {
                        tby.push(i);
                    } else {
                        regy.push(i);
                    }
                }
                MapDim::SerialK => {
                    if class != IndexClass::Internal {
                        return Err(bad("only internal indices map to the serial dimension"));
                    }
                    tbk.push(i);
                }
                MapDim::Grid => {
                    if class == IndexClass::Internal {
                        return Err(bad("internal indices cannot be grid-mapped"));
                    }
                    if b.tile != 1 {
                        return Err(PlanError::GridTileNotOne {
                            index: b.name.clone(),
                        });
                    }
                    grid.push(i);
                }
            }
        }

        // Every internal must be SerialK-mapped (checked implicitly: the
        // counts must match since every binding was classified).
        if tbk.len() != contraction.internal_indices().len() {
            return Err(PlanError::BindingMismatch {
                detail: "every internal index must map to the serial dimension".to_owned(),
            });
        }

        let externals_c_order = contraction
            .c()
            .indices()
            .iter()
            .map(|idx| {
                bindings
                    .iter()
                    .position(|b| &b.name == idx)
                    .expect("coverage validated")
            })
            .collect();

        Ok(Self {
            contraction: contraction.clone(),
            bindings,
            tbx,
            tby,
            regx,
            regy,
            tbk,
            grid,
            externals_c_order,
            store_mode: StoreMode::Assign,
        })
    }

    /// Returns the plan with the given output store mode.
    pub fn with_store_mode(mut self, mode: StoreMode) -> Self {
        self.store_mode = mode;
        self
    }

    /// How the kernel writes its output.
    pub fn store_mode(&self) -> StoreMode {
        self.store_mode
    }

    /// The contraction this plan executes.
    pub fn contraction(&self) -> &Contraction {
        &self.contraction
    }

    /// All index bindings, in construction order.
    pub fn bindings(&self) -> &[IndexBinding] {
        &self.bindings
    }

    /// The binding of `index`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::UnboundIndex`] when the plan does not bind
    /// `index`.
    pub fn binding(&self, index: impl AsRef<str>) -> Result<&IndexBinding, PlanError> {
        let index = index.as_ref();
        self.bindings
            .iter()
            .find(|b| b.name.as_str() == index)
            .ok_or_else(|| PlanError::UnboundIndex {
                index: index.to_owned(),
            })
    }

    /// Infallible binding lookup for callers whose index provably comes
    /// from this plan's own contraction (coverage is validated at
    /// construction, so the lookup cannot miss).
    pub(crate) fn bound(&self, index: impl AsRef<str>) -> &IndexBinding {
        let index = index.as_ref();
        self.bindings
            .iter()
            .find(|b| b.name.as_str() == index)
            .unwrap_or_else(|| panic!("no binding for index {index}"))
    }

    /// Fault-injection backdoor (`crate::fault`): overwrite a binding's
    /// tile size in place *without* re-validating, so detection layers can
    /// be exercised on plans [`KernelPlan::new`] would reject.
    pub(crate) fn set_tile_raw(&mut self, pos: usize, tile: usize) {
        self.bindings[pos].tile = tile;
    }

    /// Fault-injection backdoor (`crate::fault`): rename a binding in
    /// place without re-validating, creating a foreign/unbound index.
    pub(crate) fn rename_binding_raw(&mut self, pos: usize, name: IndexName) {
        self.bindings[pos].name = name;
    }

    fn group(&self, dim: MapDim) -> &[usize] {
        match dim {
            MapDim::ThreadX => &self.tbx,
            MapDim::ThreadY => &self.tby,
            MapDim::RegX => &self.regx,
            MapDim::RegY => &self.regy,
            MapDim::SerialK => &self.tbk,
            MapDim::Grid => &self.grid,
        }
    }

    /// The bindings composing hardware dimension `dim`, fastest first.
    pub fn group_bindings(&self, dim: MapDim) -> impl Iterator<Item = &IndexBinding> {
        self.group(dim).iter().map(|&i| &self.bindings[i])
    }

    /// Product of tile sizes of the bindings in `dim`.
    pub fn group_size(&self, dim: MapDim) -> usize {
        self.group(dim)
            .iter()
            .map(|&i| self.bindings[i].tile)
            .product()
    }

    /// Threads per block: `TBx * TBy`.
    pub fn threads_per_block(&self) -> usize {
        self.group_size(MapDim::ThreadX) * self.group_size(MapDim::ThreadY)
    }

    /// Output elements computed per thread: `REGx * REGy`.
    pub fn outputs_per_thread(&self) -> usize {
        self.group_size(MapDim::RegX) * self.group_size(MapDim::RegY)
    }

    /// Total thread blocks: `prod_ext ceil(N_i / T_i)`.
    pub fn num_blocks(&self) -> usize {
        self.externals_c_order
            .iter()
            .map(|&i| self.bindings[i].num_tiles())
            .product()
    }

    /// Serial steps per block: `prod_int ceil(N_i / T_i)`.
    pub fn steps(&self) -> usize {
        self.tbk
            .iter()
            .map(|&i| self.bindings[i].num_tiles())
            .product::<usize>()
            .max(1)
    }

    /// Elements of the `A` shared-memory slice per block:
    /// `TBx * REGx * TBk_tile`.
    pub fn a_tile_elements(&self) -> usize {
        self.tile_elements(self.contraction.a().indices())
    }

    /// Elements of the `B` shared-memory slice per block.
    pub fn b_tile_elements(&self) -> usize {
        self.tile_elements(self.contraction.b().indices())
    }

    fn tile_elements(&self, indices: &[IndexName]) -> usize {
        indices.iter().map(|i| self.bound(i).tile).product()
    }

    /// Shared memory per block in bytes for the given element size.
    pub fn smem_bytes(&self, elem_bytes: usize) -> usize {
        (self.a_tile_elements() + self.b_tile_elements()) * elem_bytes
    }

    /// Estimated 32-bit registers per thread: the `REGx×REGy` accumulator
    /// tile, the two staging vectors, and a fixed addressing overhead —
    /// doubled for 64-bit elements.
    pub fn registers_per_thread(&self, elem_bytes: usize) -> usize {
        let rx = self.group_size(MapDim::RegX);
        let ry = self.group_size(MapDim::RegY);
        let words = elem_bytes.div_ceil(4);
        (rx * ry + rx + ry) * words + 24
    }

    /// Externals in output order (binding references) — the order used to
    /// decompose a linear block id into per-index tile coordinates.
    pub fn external_bindings_c_order(&self) -> impl Iterator<Item = &IndexBinding> {
        self.externals_c_order.iter().map(|&i| &self.bindings[i])
    }

    /// Writes the global base offset of every *output-tiled* index for
    /// block `block` into `base` (indexed by binding position). Internal
    /// indices are left untouched.
    ///
    /// # Panics
    ///
    /// Panics when `base.len() != self.bindings().len()`.
    pub fn block_base_offsets(&self, block: usize, base: &mut [usize]) {
        assert_eq!(base.len(), self.bindings.len(), "base slice rank mismatch");
        let mut rem = block;
        for &i in &self.externals_c_order {
            let b = &self.bindings[i];
            let n = b.num_tiles();
            base[i] = (rem % n) * b.tile;
            rem /= n;
        }
    }

    /// Writes the global base offset of every internal index for serial
    /// step `step` into `base` (indexed by binding position).
    ///
    /// # Panics
    ///
    /// Panics when `base.len() != self.bindings().len()`.
    pub fn step_base_offsets(&self, step: usize, base: &mut [usize]) {
        assert_eq!(base.len(), self.bindings.len(), "base slice rank mismatch");
        let mut rem = step;
        for &i in &self.tbk {
            let b = &self.bindings[i];
            let n = b.num_tiles();
            base[i] = (rem % n) * b.tile;
            rem /= n;
        }
    }

    /// Decomposes linear block id `block` into the per-external tile number
    /// for each external binding, in output order.
    pub fn block_tile_coords(&self, block: usize) -> Vec<usize> {
        let mut rem = block;
        self.externals_c_order
            .iter()
            .map(|&i| {
                let n = self.bindings[i].num_tiles();
                let t = rem % n;
                rem /= n;
                t
            })
            .collect()
    }

    /// Decomposes a linear position within hardware dimension `dim` into
    /// per-binding in-tile coordinates (group order, fastest first).
    pub fn decompose_in_group(&self, dim: MapDim, linear: usize) -> Vec<usize> {
        let mut rem = linear;
        self.group(dim)
            .iter()
            .map(|&i| {
                let t = self.bindings[i].tile;
                let c = rem % t;
                rem /= t;
                c
            })
            .collect()
    }

    /// True floating point operations of the contraction:
    /// `2 * prod_i N_i`.
    pub fn true_flops(&self) -> u128 {
        2 * self
            .bindings
            .iter()
            .map(|b| b.extent as u128)
            .product::<u128>()
    }

    /// FLOPs including the padded work of partial tiles (what the hardware
    /// actually executes): `2 * prod_i (num_tiles_i * T_i)`.
    pub fn padded_flops(&self) -> u128 {
        2 * self
            .bindings
            .iter()
            .map(|b| (b.num_tiles() * b.tile) as u128)
            .product::<u128>()
    }
}

impl fmt::Display for KernelPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan for {}: grid {} blocks × {} threads, reg tile {}×{}, {} steps",
            self.contraction,
            self.num_blocks(),
            self.threads_per_block(),
            self.group_size(MapDim::RegX),
            self.group_size(MapDim::RegY),
            self.steps()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul_plan() -> KernelPlan {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 64, 16, MapDim::ThreadX),
                IndexBinding::new("j", 64, 16, MapDim::ThreadY),
                IndexBinding::new("k", 32, 8, MapDim::SerialK),
            ],
        )
        .unwrap()
    }

    fn eq1() -> Contraction {
        "abcd-aebf-dfce".parse().unwrap()
    }

    /// The mapping from Fig. 2 of the paper: {a}->Tx, {c}->Ty, {b}->Rx,
    /// {d}->Ry with all tiles 2.
    fn fig2_plan() -> KernelPlan {
        KernelPlan::new(
            &eq1(),
            vec![
                IndexBinding::new("a", 8, 2, MapDim::ThreadX),
                IndexBinding::new("b", 8, 2, MapDim::RegX),
                IndexBinding::new("c", 8, 2, MapDim::ThreadY),
                IndexBinding::new("d", 8, 2, MapDim::RegY),
                IndexBinding::new("e", 8, 4, MapDim::SerialK),
                IndexBinding::new("f", 8, 2, MapDim::SerialK),
            ],
        )
        .unwrap()
    }

    #[test]
    fn matmul_plan_sizes() {
        let p = matmul_plan();
        assert_eq!(p.threads_per_block(), 256);
        assert_eq!(p.outputs_per_thread(), 1);
        assert_eq!(p.num_blocks(), 16);
        assert_eq!(p.steps(), 4);
        assert_eq!(p.a_tile_elements(), 16 * 8);
        assert_eq!(p.b_tile_elements(), 8 * 16);
        assert_eq!(p.smem_bytes(8), (128 + 128) * 8);
    }

    #[test]
    fn fig2_block_structure() {
        let p = fig2_plan();
        // A thread block is T_a × T_c = 4 threads, each with a 2×2 register
        // tile covering T_b × T_d.
        assert_eq!(p.threads_per_block(), 4);
        assert_eq!(p.outputs_per_thread(), 4);
        // Block data space = T_a*T_b*T_c*T_d = 16 output elements.
        assert_eq!(
            p.group_size(MapDim::ThreadX)
                * p.group_size(MapDim::RegX)
                * p.group_size(MapDim::ThreadY)
                * p.group_size(MapDim::RegY),
            16
        );
        // Steps = ceil(8/4) * ceil(8/2) = 8.
        assert_eq!(p.steps(), 8);
        // smem A = T_a*T_e*T_b*T_f = 2*4*2*2 = 32.
        assert_eq!(p.a_tile_elements(), 32);
        assert_eq!(p.b_tile_elements(), 2 * 2 * 2 * 4);
    }

    #[test]
    fn grid_mapping_with_tile_one() {
        let tc = eq1();
        let p = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("a", 8, 4, MapDim::ThreadX),
                IndexBinding::new("b", 8, 1, MapDim::Grid),
                IndexBinding::new("c", 8, 4, MapDim::ThreadY),
                IndexBinding::new("d", 8, 1, MapDim::Grid),
                IndexBinding::new("e", 8, 4, MapDim::SerialK),
                IndexBinding::new("f", 8, 2, MapDim::SerialK),
            ],
        )
        .unwrap();
        // Blocks: ceil over a,b,c,d = 2 * 8 * 2 * 8.
        assert_eq!(p.num_blocks(), 256);
        assert_eq!(p.outputs_per_thread(), 1);
    }

    #[test]
    fn rejects_internal_on_thread_x() {
        let tc = eq1();
        let err = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("e", 8, 4, MapDim::ThreadX),
                IndexBinding::new("a", 8, 4, MapDim::ThreadX),
                IndexBinding::new("b", 8, 1, MapDim::Grid),
                IndexBinding::new("c", 8, 4, MapDim::ThreadY),
                IndexBinding::new("d", 8, 1, MapDim::Grid),
                IndexBinding::new("f", 8, 2, MapDim::SerialK),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::BadMapping { .. }));
    }

    #[test]
    fn rejects_b_external_on_x_group() {
        let tc = eq1();
        // "c" is a B-external; it cannot be in the X group.
        let err = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("a", 8, 4, MapDim::ThreadX),
                IndexBinding::new("c", 8, 4, MapDim::RegX),
                IndexBinding::new("b", 8, 1, MapDim::Grid),
                IndexBinding::new("d", 8, 4, MapDim::ThreadY),
                IndexBinding::new("e", 8, 4, MapDim::SerialK),
                IndexBinding::new("f", 8, 2, MapDim::SerialK),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::BadMapping { .. }));
    }

    #[test]
    fn rejects_bad_tiles() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        for tile in [0usize, 100] {
            let err = KernelPlan::new(
                &tc,
                vec![
                    IndexBinding::new("i", 64, tile, MapDim::ThreadX),
                    IndexBinding::new("j", 64, 16, MapDim::ThreadY),
                    IndexBinding::new("k", 32, 8, MapDim::SerialK),
                ],
            )
            .unwrap_err();
            assert!(matches!(err, PlanError::BadTile { .. }));
        }
    }

    #[test]
    fn rejects_grid_tile_not_one() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let err = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 64, 16, MapDim::ThreadX),
                IndexBinding::new("j", 64, 4, MapDim::Grid),
                IndexBinding::new("k", 32, 8, MapDim::SerialK),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::GridTileNotOne { .. }));
    }

    #[test]
    fn rejects_missing_and_duplicate_bindings() {
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        assert!(matches!(
            KernelPlan::new(
                &tc,
                vec![
                    IndexBinding::new("i", 64, 16, MapDim::ThreadX),
                    IndexBinding::new("j", 64, 16, MapDim::ThreadY),
                ],
            ),
            Err(PlanError::BindingMismatch { .. })
        ));
        assert!(matches!(
            KernelPlan::new(
                &tc,
                vec![
                    IndexBinding::new("i", 64, 16, MapDim::ThreadX),
                    IndexBinding::new("i", 64, 16, MapDim::ThreadX),
                    IndexBinding::new("k", 32, 8, MapDim::SerialK),
                ],
            ),
            Err(PlanError::BindingMismatch { .. })
        ));
        assert!(matches!(
            KernelPlan::new(
                &tc,
                vec![
                    IndexBinding::new("i", 64, 16, MapDim::ThreadX),
                    IndexBinding::new("j", 64, 16, MapDim::ThreadY),
                    IndexBinding::new("z", 32, 8, MapDim::SerialK),
                ],
            ),
            Err(PlanError::BindingMismatch { .. })
        ));
    }

    #[test]
    fn block_tile_coords_roundtrip() {
        let p = fig2_plan();
        let per_ext: Vec<usize> = p
            .external_bindings_c_order()
            .map(IndexBinding::num_tiles)
            .collect();
        assert_eq!(per_ext, vec![4, 4, 4, 4]);
        for block in [0usize, 1, 17, 255] {
            let coords = p.block_tile_coords(block);
            // Recompose.
            let mut lin = 0;
            let mut mult = 1;
            for (c, n) in coords.iter().zip(&per_ext) {
                lin += c * mult;
                mult *= n;
            }
            assert_eq!(lin, block);
        }
    }

    #[test]
    fn base_offsets_match_tile_coords() {
        let p = fig2_plan();
        let mut base = vec![0usize; p.bindings().len()];
        p.block_base_offsets(37, &mut base);
        let tiles = p.block_tile_coords(37);
        for (bind, t) in p.external_bindings_c_order().zip(&tiles) {
            let pos = p
                .bindings()
                .iter()
                .position(|b| b.name == bind.name)
                .unwrap();
            assert_eq!(base[pos], t * bind.tile);
        }
        p.step_base_offsets(5, &mut base);
        // SerialK group is [e (tile 4, 2 tiles), f (tile 2, 4 tiles)]:
        // step 5 → e tile 1, f tile 2.
        let e_pos = p
            .bindings()
            .iter()
            .position(|b| b.name.as_str() == "e")
            .unwrap();
        let f_pos = p
            .bindings()
            .iter()
            .position(|b| b.name.as_str() == "f")
            .unwrap();
        assert_eq!(base[e_pos], 4);
        assert_eq!(base[f_pos], 4);
    }

    #[test]
    fn decompose_in_group() {
        let p = fig2_plan();
        // SerialK group is [e (tile 4), f (tile 2)].
        assert_eq!(p.decompose_in_group(MapDim::SerialK, 0), vec![0, 0]);
        assert_eq!(p.decompose_in_group(MapDim::SerialK, 3), vec![3, 0]);
        assert_eq!(p.decompose_in_group(MapDim::SerialK, 5), vec![1, 1]);
    }

    #[test]
    fn flops_accounting() {
        let p = matmul_plan();
        assert_eq!(p.true_flops(), 2 * 64 * 64 * 32);
        assert_eq!(p.padded_flops(), 2 * 64 * 64 * 32); // exact tiling
        let tc: Contraction = "ij-ik-kj".parse().unwrap();
        let ragged = KernelPlan::new(
            &tc,
            vec![
                IndexBinding::new("i", 60, 16, MapDim::ThreadX),
                IndexBinding::new("j", 64, 16, MapDim::ThreadY),
                IndexBinding::new("k", 32, 8, MapDim::SerialK),
            ],
        )
        .unwrap();
        assert_eq!(ragged.true_flops(), 2 * 60 * 64 * 32);
        assert_eq!(ragged.padded_flops(), 2 * 64 * 64 * 32);
    }

    #[test]
    fn registers_per_thread_scales_with_tile() {
        let p = fig2_plan();
        let small = p.registers_per_thread(8);
        // 2×2 f64 tile: (4 + 2 + 2)*2 + 24 = 40.
        assert_eq!(small, 40);
    }

    #[test]
    fn display_mentions_grid() {
        let p = matmul_plan();
        let s = p.to_string();
        assert!(s.contains("16 blocks"));
        assert!(s.contains("256 threads"));
    }
}
