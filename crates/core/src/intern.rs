//! Interned per-search tables and menus, which the hot search loops run on.
//!
//! The public types in [`config`](crate::config), [`constraints`](crate::constraints)
//! and [`cost`](crate::cost) describe configurations with owned
//! `(IndexName, tile)` lists — convenient at the API boundary, but cloning
//! and string-comparing them per candidate dominated the cold search path.
//! This module interns the search's working set once:
//!
//! * [`SearchTables`] — index names mapped to dense ids, with extents and
//!   per-tensor id lists derived a single time instead of per candidate;
//! * [`CompiledMenus`] — the enumeration's structured menus with ids,
//!   tile products and an [`Ord`]-rank per list precomputed, so the
//!   ranking tie-break never materializes a [`KernelConfig`];
//! * [`MenuChoice`] — a candidate as five menu indices. A candidate's
//!   flat tile row (tile per index id) is written into one scratch
//!   buffer only when the cost model scores it
//!   ([`CompiledMenus::fill_group`], [`CompiledMenus::patch_tbk`]).
//!
//! The §IV-A rules ([`constraints`](crate::constraints)) and Algorithm 3
//! ([`cost`](crate::cost)) have one implementation each, over these
//! tables. Their public single-config entry points intern the one
//! configuration they are given (`SearchTables::intern_config`) and run
//! the same bodies the search does.

use cogent_ir::{Contraction, IndexName, SizeMap};

use crate::config::{KernelConfig, MappedIndex};

/// Dense-id view of one normalized contraction under a size map, built
/// once per search.
#[derive(Debug, Clone)]
pub struct SearchTables {
    /// Id → index name, in [`Contraction::all_indices`] order
    /// (externals, then batch, then internals).
    names: Vec<IndexName>,
    /// Id → extent.
    extents: Vec<usize>,
    /// `A`'s indices as ids, in tensor order (fastest varying first).
    pub(crate) a_ids: Vec<u32>,
    /// `B`'s indices as ids, in tensor order.
    pub(crate) b_ids: Vec<u32>,
    /// `C`'s indices as ids, in tensor order.
    pub(crate) c_ids: Vec<u32>,
    /// Output indices (externals then batch), as ids.
    pub(crate) out_ids: Vec<u32>,
    /// Internal indices, as ids.
    pub(crate) int_ids: Vec<u32>,
    /// `A`'s fastest varying index.
    pub(crate) fvi_a: u32,
    /// `B`'s fastest varying index.
    pub(crate) fvi_b: u32,
}

impl SearchTables {
    /// Interns `norm` (which must already be normalized) under `sizes`.
    pub fn new(norm: &Contraction, sizes: &SizeMap) -> Self {
        let names: Vec<IndexName> = norm.all_indices().cloned().collect();
        let extents: Vec<usize> = names.iter().map(|n| sizes.extent_of(n)).collect();
        let id_of = |name: &IndexName| -> u32 {
            // Infallible: every interned list is drawn from the same
            // contraction whose indices populated `names`.
            let pos = names.iter().position(|n| n == name);
            debug_assert!(pos.is_some(), "tensor index belongs to the contraction");
            pos.unwrap_or_default() as u32
        };
        let ids_of = |list: &[IndexName]| -> Vec<u32> { list.iter().map(id_of).collect() };
        Self {
            a_ids: ids_of(norm.a().indices()),
            b_ids: ids_of(norm.b().indices()),
            c_ids: ids_of(norm.c().indices()),
            out_ids: norm.output_indices().map(id_of).collect(),
            int_ids: ids_of(norm.internal_indices()),
            fvi_a: id_of(norm.a().fvi()),
            fvi_b: id_of(norm.b().fvi()),
            names,
            extents,
        }
    }

    /// Number of distinct loop indices (the width of one tile row).
    pub fn num_indices(&self) -> usize {
        self.names.len()
    }

    /// The extent of index `id`.
    #[inline]
    pub fn extent(&self, id: u32) -> usize {
        self.extents[id as usize]
    }

    /// The name of index `id`.
    pub fn name(&self, id: u32) -> &IndexName {
        &self.names[id as usize]
    }

    /// The dense id of `name`, when the contraction uses it.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.names
            .iter()
            .position(|n| n.as_str() == name)
            .map(|p| p as u32)
    }

    /// Interns one owned configuration against `tc` (normalized) under
    /// `sizes`: the tables, the five list-size products, and the tile row
    /// the search would score it by (1 where `cfg` leaves an index
    /// grid-mapped).
    pub(crate) fn intern_config(
        tc: &Contraction,
        cfg: &KernelConfig,
        sizes: &SizeMap,
    ) -> (Self, ConfigDims, Vec<usize>) {
        let tables = Self::new(tc, sizes);
        let dims = ConfigDims {
            tbx: cfg.tbx_size(),
            regx: cfg.regx_size(),
            tby: cfg.tby_size(),
            regy: cfg.regy_size(),
            tbk: cfg.tbk_size(),
        };
        let tiles = tables.names.iter().map(|n| cfg.tile_of(n)).collect();
        (tables, dims, tiles)
    }
}

/// One enumeration menu entry with everything the hot loops need
/// precomputed: interned `(id, tile)` pairs, the tile product, and the
/// entry's rank under the `Vec<MappedIndex>` [`Ord`] within its menu.
#[derive(Debug, Clone)]
pub(crate) struct CompiledList {
    /// `(index id, tile)` pairs, fastest varying first.
    pub pairs: Vec<(u32, usize)>,
    /// Product of the tiles (the list's "size" in the paper's terms).
    pub product: usize,
    /// Position of this entry in the Ord-sorted order of its menu. Two
    /// configurations drawing from the same menus compare under
    /// [`KernelConfig`]'s derived `Ord` exactly as their rank tuples do.
    pub rank: u32,
}

/// The five structured menus of one enumeration, compiled against a
/// [`SearchTables`]. `regx` menus are per `tbx` entry and `regy` menus per
/// `tby` entry (the register menu depends on which externals the thread
/// list consumed).
#[derive(Debug, Clone)]
pub(crate) struct CompiledMenus {
    pub tbx: Vec<CompiledList>,
    pub regx: Vec<Vec<CompiledList>>,
    pub tby: Vec<CompiledList>,
    pub regy: Vec<Vec<CompiledList>>,
    pub tbk: Vec<CompiledList>,
}

/// A candidate's five list-size products, read straight off the compiled
/// menus instead of re-multiplying tile lists per rule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConfigDims {
    pub tbx: usize,
    pub regx: usize,
    pub tby: usize,
    pub regy: usize,
    pub tbk: usize,
}

fn compile_menu(lists: &[Vec<MappedIndex>], tables: &SearchTables) -> Vec<CompiledList> {
    let mut out: Vec<CompiledList> = lists
        .iter()
        .map(|list| CompiledList {
            pairs: list
                .iter()
                .map(|(name, tile)| {
                    // Infallible: menus are enumerated from the same
                    // contraction the tables interned.
                    let id = tables.id_of(name.as_str());
                    debug_assert!(id.is_some(), "menu index belongs to the contraction");
                    (id.unwrap_or_default(), *tile)
                })
                .collect(),
            product: list.iter().map(|(_, t)| *t).product(),
            rank: 0,
        })
        .collect();
    let mut order: Vec<usize> = (0..lists.len()).collect();
    order.sort_by(|&a, &b| lists[a].cmp(&lists[b]));
    for (rank, &i) in order.iter().enumerate() {
        out[i].rank = rank as u32;
    }
    out
}

impl CompiledMenus {
    /// Compiles raw (string-keyed) menus against the tables.
    pub fn compile(menus: &crate::enumerate::RawMenus, tables: &SearchTables) -> Self {
        Self {
            tbx: compile_menu(&menus.tbx, tables),
            regx: menus.regx.iter().map(|m| compile_menu(m, tables)).collect(),
            tby: compile_menu(&menus.tby, tables),
            regy: menus.regy.iter().map(|m| compile_menu(m, tables)).collect(),
            tbk: compile_menu(&menus.tbk, tables),
        }
    }

    /// The five menu entries a choice refers to.
    pub fn entries(&self, choice: MenuChoice) -> [&CompiledList; 5] {
        let [x, rx, y, ry, k] = choice;
        [
            &self.tbx[x as usize],
            &self.regx[x as usize][rx as usize],
            &self.tby[y as usize],
            &self.regy[y as usize][ry as usize],
            &self.tbk[k as usize],
        ]
    }

    /// The list-size products of a choice.
    pub fn dims(&self, choice: MenuChoice) -> ConfigDims {
        let [tbx, regx, tby, regy, tbk] = self.entries(choice);
        ConfigDims {
            tbx: tbx.product,
            regx: regx.product,
            tby: tby.product,
            regy: regy.product,
            tbk: tbk.product,
        }
    }

    /// The tuple that orders configurations exactly as [`KernelConfig`]'s
    /// derived lexicographic `Ord` does. Within one enumeration, equal
    /// leading ranks imply the same menu for the next component (the
    /// `regx`/`regy` menus are functions of the chosen `tbx`/`tby`
    /// entries), so comparing rank tuples lexicographically is the same
    /// total order as comparing materialized configurations.
    pub fn rank_key(&self, choice: MenuChoice) -> [u32; 5] {
        self.entries(choice).map(|e| e.rank)
    }

    /// Writes the tile row of a `(tbx, regx, tby, regy)` choice into `row`
    /// (one tile per index id): the four entries' tiles, 1 everywhere else
    /// (internals included, for [`Self::patch_tbk`] to set).
    pub fn fill_group(&self, group: [u32; 4], row: &mut [usize]) {
        let [x, rx, y, ry] = group;
        row.fill(1);
        for entry in [
            &self.tbx[x as usize],
            &self.regx[x as usize][rx as usize],
            &self.tby[y as usize],
            &self.regy[y as usize][ry as usize],
        ] {
            for &(id, tile) in &entry.pairs {
                row[id as usize] = tile;
            }
        }
    }

    /// Sets the internal indices (`int_ids`) of `row` to `tbk` entry
    /// `k`'s tiles, 1 for each internal index the entry does not list.
    pub fn patch_tbk(&self, k: u32, int_ids: &[u32], row: &mut [usize]) {
        for &id in int_ids {
            row[id as usize] = 1;
        }
        for &(id, tile) in &self.tbk[k as usize].pairs {
            row[id as usize] = tile;
        }
    }
}

/// Indices into the five menus (`regx` relative to the chosen `tbx` entry,
/// `regy` relative to the chosen `tby` entry): a whole candidate in 20
/// bytes.
pub type MenuChoice = [u32; 5];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate_interned, EnumerationBudget, EnumerationOptions};

    fn interned(spec: &str, n: usize) -> (Contraction, SizeMap, crate::enumerate::Enumeration) {
        let tc: Contraction = spec.parse().unwrap();
        let norm = tc.normalized();
        let sizes = SizeMap::uniform(&norm, n);
        let en = enumerate_interned(
            &norm,
            &sizes,
            &EnumerationOptions::default(),
            &EnumerationBudget::unlimited(),
        );
        (norm, sizes, en)
    }

    #[test]
    fn tables_intern_all_indices() {
        let (norm, sizes, en) = interned("abcd-aebf-dfce", 24);
        let t = &en.tables;
        assert_eq!(t.num_indices(), norm.num_indices());
        for idx in norm.all_indices() {
            let id = t.id_of(idx.as_str()).unwrap();
            assert_eq!(t.name(id), idx);
            assert_eq!(t.extent(id), sizes.extent_of(idx));
        }
        assert_eq!(t.name(t.fvi_a).as_str(), norm.a().fvi().as_str());
        assert_eq!(t.name(t.fvi_b).as_str(), norm.b().fvi().as_str());
        assert_eq!(t.a_ids.len(), norm.a().indices().len());
        assert_eq!(t.out_ids.len(), norm.output_indices().count());
        assert_eq!(t.int_ids.len(), norm.internal_indices().len());
    }

    #[test]
    fn row_tiles_match_materialized_tile_of() {
        let (norm, _sizes, en) = interned("abcd-aebf-dfce", 24);
        assert!(en.rows > 0);
        let mut row = vec![0; en.tables.num_indices()];
        for choice in en.choices() {
            let [x, rx, y, ry, k] = choice;
            en.compiled.fill_group([x, rx, y, ry], &mut row);
            en.compiled.patch_tbk(k, &en.tables.int_ids, &mut row);
            let cfg = en.menus.materialize(choice);
            for idx in norm.all_indices() {
                let id = en.tables.id_of(idx.as_str()).unwrap();
                assert_eq!(row[id as usize], cfg.tile_of(idx), "{cfg} at {idx}");
            }
        }
    }

    #[test]
    fn dims_match_materialized_products() {
        let (_norm, _sizes, en) = interned("abcdef-gdab-efgc", 12);
        for choice in en.choices() {
            let cfg = en.menus.materialize(choice);
            let dims = en.compiled.dims(choice);
            assert_eq!(dims.tbx, cfg.tbx_size());
            assert_eq!(dims.regx, cfg.regx_size());
            assert_eq!(dims.tby, cfg.tby_size());
            assert_eq!(dims.regy, cfg.regy_size());
            assert_eq!(dims.tbk, cfg.tbk_size());
        }
    }

    #[test]
    fn rank_key_orders_exactly_like_kernel_config_ord() {
        for (spec, n) in [("abcd-aebf-dfce", 24), ("ij-ik-kj", 64), ("abc-bda-dc", 16)] {
            let (_norm, _sizes, en) = interned(spec, n);
            let choices: Vec<MenuChoice> = en.choices().collect();
            let mut by_key = choices.clone();
            by_key.sort_by_key(|&c| en.compiled.rank_key(c));
            let mut by_config = choices;
            by_config.sort_by_key(|&a| en.menus.materialize(a));
            assert_eq!(by_key, by_config, "{spec}");
        }
    }
}
