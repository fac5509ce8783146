//! Symbolic layouts: the emission side of the layout algebra.
//!
//! [`cogent_tensor::Layout`] is the numeric layout — concrete
//! `(shape, stride)` modes — shared by the host tensors, the reference
//! contraction and the traffic estimator. A [`SymLayout`] is the same
//! function with [`Expr`] trees for its coordinates and shapes: `lower.rs`
//! and the `smem-pad` pass build every address a kernel prints through
//! one, [`SymLayout::offset`] printing a layout application in the
//! factored Horner form the emitted kernels have always used
//! (`c0 + S0 * (c1 + S1 * (c2))`), and [`SymLayout::decompose`] printing
//! the matching mixed-radix digit decomposition statements.

use crate::ast::{AssignOp, BinOp, Expr, LValue, LineItem, Stmt};

/// One symbolic mode: the coordinate expression along the mode and the
/// mode's shape (radix) expression.
#[derive(Debug, Clone, PartialEq)]
pub struct SymMode {
    /// The coordinate along this mode (e.g. `u_a`, `base_d + c_d`).
    pub coord: Expr,
    /// The mode's extent symbol (e.g. `N_a`, `T_a`), used both as the
    /// decomposition radix and as the Horner factor.
    pub shape: Expr,
}

/// A symbolic layout: the emission-side twin of [`cogent_tensor::Layout`].
/// Shapes and coordinates are expression trees; [`SymLayout::offset`]
/// prints the layout function in the compact-stride Horner form, and
/// [`SymLayout::decompose`] emits the inverse (digit extraction)
/// statements. `lower.rs` builds every address in the kernel through one
/// of these two methods.
#[derive(Debug, Clone, PartialEq)]
pub struct SymLayout {
    /// Modes in storage order, first (fastest) mode first.
    pub modes: Vec<SymMode>,
}

impl SymLayout {
    /// A layout over named modes: one `(coord, shape)` pair per mode,
    /// first mode fastest.
    pub fn new(modes: Vec<SymMode>) -> Self {
        SymLayout { modes }
    }

    /// The offset expression in factored Horner form:
    /// `c0 + S0 * (c1 + S1 * (c2 + …))`. For compact (packed) strides
    /// this is exactly `Σ c_k · Πⱼ₍ₖ Sⱼ`, grouped the way the emitted
    /// kernels have always printed it.
    pub fn offset(&self) -> Expr {
        let mut expr: Option<Expr> = None;
        for mode in self.modes.iter().rev() {
            expr = Some(match expr {
                None => mode.coord.clone(),
                Some(inner) => Expr::bin(
                    BinOp::Add,
                    mode.coord.clone(),
                    Expr::bin(BinOp::Mul, mode.shape.clone(), Expr::paren(inner)),
                ),
            });
        }
        expr.unwrap_or(Expr::Int(0))
    }

    /// The product of the shapes — the domain size expression
    /// (`S0 * S1 * …`).
    pub fn size(&self) -> Expr {
        let mut expr: Option<Expr> = None;
        for mode in &self.modes {
            expr = Some(match expr {
                None => mode.shape.clone(),
                Some(acc) => Expr::bin(BinOp::Mul, acc, mode.shape.clone()),
            });
        }
        expr.unwrap_or(Expr::Int(1))
    }

    /// The inverse of [`SymLayout::offset`] as statements: declares
    /// `int <rem> = <var>;` and extracts one digit per mode in the
    /// mixed-radix idiom (`const int <digit> = <rem> % S; <rem> /= S;`,
    /// the last digit taking the remainder whole). `digit` names each
    /// mode's output; the caller chooses names so the printed text
    /// matches the surrounding scope's conventions.
    pub fn decompose(&self, rem: &str, var: Expr, digit: impl Fn(usize) -> String) -> Vec<Stmt> {
        if self.modes.is_empty() {
            return Vec::new();
        }
        let mut out = vec![Stmt::Line(vec![LineItem::DeclInt {
            name: rem.to_owned(),
            init: var,
            mutable: true,
        }])];
        let last = self.modes.len() - 1;
        for (k, mode) in self.modes.iter().enumerate() {
            let name = digit(k);
            if k < last {
                out.push(Stmt::Line(vec![
                    LineItem::DeclInt {
                        name,
                        init: Expr::bin(BinOp::Mod, Expr::sym(rem), mode.shape.clone()),
                        mutable: false,
                    },
                    LineItem::Assign {
                        target: LValue::Var(rem.to_owned()),
                        op: AssignOp::DivAssign,
                        value: mode.shape.clone(),
                    },
                ]));
            } else {
                out.push(Stmt::Line(vec![LineItem::DeclInt {
                    name,
                    init: Expr::sym(rem),
                    mutable: false,
                }]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sym_offset_prints_the_horner_chain() {
        let l = SymLayout::new(vec![
            SymMode {
                coord: Expr::sym("u_a"),
                shape: Expr::sym("N_a"),
            },
            SymMode {
                coord: Expr::sym("u_c"),
                shape: Expr::sym("N_c"),
            },
            SymMode {
                coord: Expr::sym("u_d"),
                shape: Expr::sym("N_d"),
            },
        ]);
        let mut out = String::new();
        crate::print::write_expr(&mut out, &l.offset(), &crate::print::CUDA);
        assert_eq!(out, "u_a + N_a * (u_c + N_c * (u_d))");
    }

    #[test]
    fn sym_decompose_emits_the_mixed_radix_idiom() {
        let l = SymLayout::new(vec![
            SymMode {
                coord: Expr::sym("c_a"),
                shape: Expr::sym("T_a"),
            },
            SymMode {
                coord: Expr::sym("c_d"),
                shape: Expr::sym("T_d"),
            },
        ]);
        let stmts = l.decompose("q", Expr::sym("p"), |k| format!("c_{}", ["a", "d"][k]));
        assert_eq!(stmts.len(), 3);
        // First statement declares the mutable remainder.
        assert!(matches!(
            &stmts[0],
            Stmt::Line(items) if matches!(&items[0], LineItem::DeclInt { name, mutable: true, .. } if name == "q")
        ));
        // Middle digits pair extraction with the remainder update.
        assert!(matches!(&stmts[1], Stmt::Line(items) if items.len() == 2));
        // The last digit takes the remainder whole.
        assert!(matches!(&stmts[2], Stmt::Line(items) if items.len() == 1));
    }
}
