//! AST-level optimizer for the mini-C compiler.
//!
//! The paper points out (Section 2) that "the value locality of particular
//! static loads in a program can be significantly affected by compiler
//! optimizations such as loop unrolling, loop peeling, tail replication,
//! etc., since these transformations tend to create multiple instances of
//! a load that may now exclusively target memory locations with high or
//! low value locality." This pass exists to study exactly that effect
//! (see `lvp bench ablation_opt`):
//!
//! * constant folding over int and float expressions,
//! * algebraic simplification (`x+0`, `x*1`, `x*0` when side-effect free),
//! * dead-branch elimination (`if (const)`) and dead-loop removal,
//! * full unrolling of small constant-trip-count `for` loops.

use crate::ast::*;

/// Optimization level for [`crate::compile_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// No optimization: the naive codegen the workloads use by default.
    #[default]
    O0,
    /// Constant folding, branch elimination, and loop unrolling.
    O1,
}

/// Maximum trip count fully unrolled at O1.
const UNROLL_LIMIT: i64 = 8;

/// Applies the O1 pipeline to a parsed program.
pub fn optimize(mut ast: ProgramAst) -> ProgramAst {
    for f in &mut ast.funcs {
        let body = std::mem::take(&mut f.body);
        f.body = eliminate_dead_assigns(opt_stmts(body));
    }
    ast
}

/// Removes scalar assignments that are provably killed by a later
/// assignment to the same variable within the same straight-line statement
/// list, with no possible read in between. Unrolling adjacent loops leaves
/// exactly this pattern behind (`i = 8; j = 1; i = 0;`), which would
/// otherwise compile to dead register stores.
fn eliminate_dead_assigns(stmts: Vec<Stmt>) -> Vec<Stmt> {
    // Recurse into nested bodies first.
    let stmts: Vec<Stmt> = stmts
        .into_iter()
        .map(|s| match s {
            Stmt::If { cond, then, els } => Stmt::If {
                cond,
                then: eliminate_dead_assigns(then),
                els: eliminate_dead_assigns(els),
            },
            Stmt::While { cond, body } => Stmt::While {
                cond,
                body: eliminate_dead_assigns(body),
            },
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => Stmt::For {
                init,
                cond,
                step,
                body: eliminate_dead_assigns(body),
            },
            other => other,
        })
        .collect();

    // A statement the scan may step over without observing `var`: a
    // declaration, or a call-free assignment that neither reads `var` nor
    // (for array stores) could alias a scalar.
    fn transparent(s: &Stmt, var: &str) -> bool {
        match s {
            Stmt::Decl { .. } => true,
            Stmt::Assign { lv, expr, .. } => {
                is_pure(expr)
                    && !expr_reads(expr, var)
                    && match lv {
                        LValue::Var(w) => w != var,
                        LValue::Index(_, idx) => is_pure(idx) && !expr_reads(idx, var),
                    }
            }
            _ => false,
        }
    }

    let mut keep = vec![true; stmts.len()];
    for (i, s) in stmts.iter().enumerate() {
        let Stmt::Assign {
            lv: LValue::Var(var),
            expr,
            ..
        } = s
        else {
            continue;
        };
        if !is_pure(expr) {
            continue; // RHS may have side effects
        }
        for later in &stmts[i + 1..] {
            // A plain reassignment kills; so does a `for` whose init
            // reassigns (the init runs unconditionally before the cond).
            let kills = match later {
                Stmt::Assign {
                    lv: LValue::Var(w),
                    expr: e2,
                    ..
                } => w == var && is_pure(e2) && !expr_reads(e2, var),
                Stmt::For {
                    init: Some(init), ..
                } => matches!(
                    init.as_ref(),
                    Stmt::Assign { lv: LValue::Var(w), expr: e2, .. }
                        if w == var && is_pure(e2) && !expr_reads(e2, var)
                ),
                _ => false,
            };
            if kills {
                keep[i] = false; // killed before any possible read
                break;
            }
            if !transparent(later, var) {
                break;
            }
        }
    }
    stmts
        .into_iter()
        .zip(keep)
        .filter_map(|(s, k)| k.then_some(s))
        .collect()
}

/// Whether expression `e` reads variable `var`.
fn expr_reads(e: &Expr, var: &str) -> bool {
    match e {
        Expr::Int(_) | Expr::Float(_) => false,
        Expr::Var(v, _) => v == var,
        Expr::Index(_, idx, _) => expr_reads(idx, var),
        Expr::Call(_, args, _) => args.iter().any(|a| expr_reads(a, var)),
        Expr::Unary(_, a, _) => expr_reads(a, var),
        Expr::Binary(_, a, b, _) => expr_reads(a, var) || expr_reads(b, var),
        Expr::Cast(_, a, _) => expr_reads(a, var),
    }
}

fn opt_stmts(stmts: Vec<Stmt>) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        opt_stmt(s, &mut out);
    }
    out
}

fn opt_stmt(s: Stmt, out: &mut Vec<Stmt>) {
    match s {
        Stmt::Assign { lv, expr, line } => {
            let lv = match lv {
                LValue::Index(name, idx) => LValue::Index(name, Box::new(fold(*idx))),
                v => v,
            };
            out.push(Stmt::Assign {
                lv,
                expr: fold(expr),
                line,
            });
        }
        Stmt::Expr(e) => out.push(Stmt::Expr(fold(e))),
        Stmt::Return(e, line) => out.push(Stmt::Return(e.map(fold), line)),
        Stmt::If { cond, then, els } => {
            let cond = fold(cond);
            match const_int(&cond) {
                Some(0) => out.extend(opt_stmts(els)),
                Some(_) => out.extend(opt_stmts(then)),
                None => out.push(Stmt::If {
                    cond,
                    then: opt_stmts(then),
                    els: opt_stmts(els),
                }),
            }
        }
        Stmt::While { cond, body } => {
            let cond = fold(cond);
            if const_int(&cond) == Some(0) {
                return; // dead loop
            }
            out.push(Stmt::While {
                cond,
                body: opt_stmts(body),
            });
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            let init = init.map(|s| {
                let mut v = Vec::new();
                opt_stmt(*s, &mut v);
                v
            });
            let cond = cond.map(fold);
            let body = opt_stmts(body);
            if let Some(unrolled) = try_unroll(&init, &cond, &step, &body) {
                out.extend(unrolled);
                return;
            }
            // Re-box the (possibly folded) init statement(s).
            let init = match init {
                None => None,
                Some(mut v) if v.len() == 1 => Some(Box::new(v.pop().unwrap())),
                Some(v) => {
                    // Folding never splits a statement today, but guard
                    // against it: chain with Block2.
                    v.into_iter().rev().fold(None, |acc: Option<Box<Stmt>>, s| {
                        Some(match acc {
                            None => Box::new(s),
                            Some(rest) => Box::new(Stmt::Block2(Box::new(s), rest)),
                        })
                    })
                }
            };
            out.push(Stmt::For {
                init,
                cond,
                step: step.map(|s| {
                    let mut v = Vec::new();
                    opt_stmt(*s, &mut v);
                    Box::new(if v.len() == 1 {
                        v.pop().unwrap()
                    } else {
                        Stmt::Expr(Expr::Int(0)) // folded away entirely
                    })
                }),
                body,
            });
        }
        Stmt::Block2(a, b) => {
            opt_stmt(*a, out);
            opt_stmt(*b, out);
        }
        other @ (Stmt::Decl { .. } | Stmt::Break(_) | Stmt::Continue(_)) => out.push(other),
    }
}

/// Recognizes `for (i = C0; i < C1; i = i + C2)` with a body that never
/// writes `i`, never breaks/continues, and has a trip count within
/// [`UNROLL_LIMIT`]; returns the fully unrolled statement sequence.
fn try_unroll(
    init: &Option<Vec<Stmt>>,
    cond: &Option<Expr>,
    step: &Option<Box<Stmt>>,
    body: &[Stmt],
) -> Option<Vec<Stmt>> {
    let init = init.as_ref()?;
    if init.len() != 1 {
        return None;
    }
    let Stmt::Assign {
        lv: LValue::Var(var),
        expr: init_e,
        line,
    } = &init[0]
    else {
        return None;
    };
    let c0 = const_int(init_e)?;
    let Some(Expr::Binary(BinOp::Lt, lhs, rhs, _)) = cond else {
        return None;
    };
    let Expr::Var(cond_var, _) = lhs.as_ref() else {
        return None;
    };
    if cond_var != var {
        return None;
    }
    let c1 = const_int(rhs)?;
    let Stmt::Assign {
        lv: LValue::Var(step_var),
        expr: step_e,
        ..
    } = step.as_ref()?.as_ref()
    else {
        return None;
    };
    if step_var != var {
        return None;
    }
    let Expr::Binary(BinOp::Add, sl, sr, _) = step_e else {
        return None;
    };
    let Expr::Var(step_src, _) = sl.as_ref() else {
        return None;
    };
    if step_src != var {
        return None;
    }
    let c2 = const_int(sr)?;
    if c2 <= 0 || c1 <= c0 {
        // Zero-trip or malformed: keep the loop (cond guards it anyway),
        // except the provably zero-trip case which reduces to the init.
        if c1 <= c0 {
            return Some(vec![init[0].clone()]);
        }
        return None;
    }
    let trips = (c1 - c0 + c2 - 1) / c2;
    if trips > UNROLL_LIMIT {
        return None;
    }
    if writes_var(body, var) || has_loop_exit(body) || has_decl(body) {
        // Duplicating a declaration would redeclare the local; keep the loop.
        return None;
    }
    // Bodies that never read the loop variable need no per-iteration
    // `i = k` assignment; emitting one per copy creates a chain of dead
    // stores (each overwritten unread by the next).
    let body_reads_var = reads_var(body, var);
    let mut out = Vec::new();
    let mut i = c0;
    while i < c1 {
        if body_reads_var {
            out.push(Stmt::Assign {
                lv: LValue::Var(var.clone()),
                expr: Expr::Int(i),
                line: *line,
            });
        }
        out.extend_from_slice(body);
        i += c2;
    }
    // Loop variable's final value must match the un-unrolled execution.
    out.push(Stmt::Assign {
        lv: LValue::Var(var.clone()),
        expr: Expr::Int(i),
        line: *line,
    });
    Some(out)
}

/// Whether any expression in the statement tree reads `var`.
fn reads_var(stmts: &[Stmt], var: &str) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Decl { .. } | Stmt::Break(_) | Stmt::Continue(_) => false,
        Stmt::Assign { lv, expr, .. } => {
            expr_reads(expr, var) || matches!(lv, LValue::Index(_, idx) if expr_reads(idx, var))
        }
        Stmt::Expr(e) => expr_reads(e, var),
        Stmt::Return(e, _) => e.as_ref().is_some_and(|e| expr_reads(e, var)),
        Stmt::If { cond, then, els } => {
            expr_reads(cond, var) || reads_var(then, var) || reads_var(els, var)
        }
        Stmt::While { cond, body } => expr_reads(cond, var) || reads_var(body, var),
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            init.as_deref()
                .is_some_and(|s| reads_var(std::slice::from_ref(s), var))
                || cond.as_ref().is_some_and(|c| expr_reads(c, var))
                || step
                    .as_deref()
                    .is_some_and(|s| reads_var(std::slice::from_ref(s), var))
                || reads_var(body, var)
        }
        Stmt::Block2(a, b) => {
            reads_var(std::slice::from_ref(a), var) || reads_var(std::slice::from_ref(b), var)
        }
    })
}

fn writes_var(stmts: &[Stmt], var: &str) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Assign {
            lv: LValue::Var(v), ..
        } => v == var,
        Stmt::Assign { .. } | Stmt::Expr(_) | Stmt::Return(..) => false,
        Stmt::Decl { name, .. } => name == var, // shadowing: bail out
        Stmt::If { then, els, .. } => writes_var(then, var) || writes_var(els, var),
        Stmt::While { body, .. } => writes_var(body, var),
        Stmt::For {
            init, step, body, ..
        } => {
            init.as_deref()
                .is_some_and(|s| writes_var(std::slice::from_ref(s), var))
                || step
                    .as_deref()
                    .is_some_and(|s| writes_var(std::slice::from_ref(s), var))
                || writes_var(body, var)
        }
        Stmt::Block2(a, b) => {
            writes_var(std::slice::from_ref(a), var) || writes_var(std::slice::from_ref(b), var)
        }
        Stmt::Break(_) | Stmt::Continue(_) => false,
    })
}

/// Whether any declaration appears anywhere in the statement tree
/// (duplicating one by unrolling would redeclare the local).
fn has_decl(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Decl { .. } => true,
        Stmt::If { then, els, .. } => has_decl(then) || has_decl(els),
        Stmt::While { body, .. } => has_decl(body),
        Stmt::For {
            init, step, body, ..
        } => {
            init.as_deref()
                .is_some_and(|s| has_decl(std::slice::from_ref(s)))
                || step
                    .as_deref()
                    .is_some_and(|s| has_decl(std::slice::from_ref(s)))
                || has_decl(body)
        }
        Stmt::Block2(a, b) => {
            has_decl(std::slice::from_ref(a)) || has_decl(std::slice::from_ref(b))
        }
        _ => false,
    })
}

/// `break`/`continue` at THIS loop's level (not inside a nested loop).
fn has_loop_exit(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Break(_) | Stmt::Continue(_) => true,
        Stmt::If { then, els, .. } => has_loop_exit(then) || has_loop_exit(els),
        Stmt::Block2(a, b) => {
            has_loop_exit(std::slice::from_ref(a)) || has_loop_exit(std::slice::from_ref(b))
        }
        // break/continue inside a nested loop binds to that loop.
        Stmt::While { .. } | Stmt::For { .. } => false,
        _ => false,
    })
}

fn const_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        _ => None,
    }
}

/// Whether an expression is free of calls (safe to delete).
fn is_pure(e: &Expr) -> bool {
    match e {
        Expr::Int(_) | Expr::Float(_) | Expr::Var(_, _) => true,
        Expr::Index(_, idx, _) => is_pure(idx),
        Expr::Call(..) => false,
        Expr::Unary(_, a, _) => is_pure(a),
        Expr::Binary(_, a, b, _) => is_pure(a) && is_pure(b),
        Expr::Cast(_, a, _) => is_pure(a),
    }
}

/// Constant folding + algebraic simplification, bottom-up.
pub fn fold(e: Expr) -> Expr {
    match e {
        Expr::Unary(op, a, line) => {
            let a = fold(*a);
            if let Expr::Int(v) = a {
                return Expr::Int(match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => (v == 0) as i64,
                    UnOp::BitNot => !v,
                });
            }
            if let (UnOp::Neg, Expr::Float(v)) = (op, &a) {
                return Expr::Float(-v);
            }
            Expr::Unary(op, Box::new(a), line)
        }
        Expr::Cast(ty, a, line) => {
            let a = fold(*a);
            match (ty, &a) {
                (Type::Float, Expr::Int(v)) => Expr::Float(*v as f64),
                (Type::Int, Expr::Float(v)) => Expr::Int(*v as i64),
                _ => Expr::Cast(ty, Box::new(a), line),
            }
        }
        Expr::Binary(op, a, b, line) => {
            let a = fold(*a);
            let b = fold(*b);
            if let (Expr::Int(x), Expr::Int(y)) = (&a, &b) {
                if let Some(v) = fold_int(op, *x, *y) {
                    return Expr::Int(v);
                }
            }
            if let (Expr::Float(x), Expr::Float(y)) = (&a, &b) {
                if let Some(v) = fold_float(op, *x, *y) {
                    return v;
                }
            }
            // Algebraic identities (int only; float identities change
            // NaN/-0.0 behavior so they are left alone).
            match (op, &a, &b) {
                (BinOp::Add, _, Expr::Int(0)) => return a,
                (BinOp::Add, Expr::Int(0), _) => return b,
                (BinOp::Sub, _, Expr::Int(0)) => return a,
                (BinOp::Mul, _, Expr::Int(1)) => return a,
                (BinOp::Mul, Expr::Int(1), _) => return b,
                (BinOp::Mul, x, Expr::Int(0)) if is_pure(x) => return Expr::Int(0),
                (BinOp::Mul, Expr::Int(0), y) if is_pure(y) => return Expr::Int(0),
                (BinOp::Shl, _, Expr::Int(0)) | (BinOp::Shr, _, Expr::Int(0)) => return a,
                (BinOp::BitOr, _, Expr::Int(0)) => return a,
                (BinOp::BitOr, Expr::Int(0), _) => return b,
                (BinOp::BitXor, _, Expr::Int(0)) => return a,
                (BinOp::And, Expr::Int(x), _) if *x != 0 => {
                    // (nonzero && b) == (b != 0): normalize via !!b.
                    return fold(Expr::Unary(
                        UnOp::Not,
                        Box::new(Expr::Unary(UnOp::Not, Box::new(b), line)),
                        line,
                    ));
                }
                (BinOp::And, Expr::Int(0), _) => return Expr::Int(0),
                (BinOp::Or, Expr::Int(x), _) if *x != 0 => return Expr::Int(1),
                _ => {}
            }
            Expr::Binary(op, Box::new(a), Box::new(b), line)
        }
        Expr::Index(name, idx, line) => Expr::Index(name, Box::new(fold(*idx)), line),
        Expr::Call(name, args, line) => {
            Expr::Call(name, args.into_iter().map(fold).collect(), line)
        }
        leaf => leaf,
    }
}

fn fold_int(op: BinOp, x: i64, y: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                -1 // ISA semantics for division by zero
            } else {
                x.wrapping_div(y)
            }
        }
        BinOp::Rem => {
            if y == 0 {
                x
            } else {
                x.wrapping_rem(y)
            }
        }
        BinOp::Shl => x.wrapping_shl((y & 63) as u32),
        BinOp::Shr => x.wrapping_shr((y & 63) as u32),
        BinOp::BitAnd => x & y,
        BinOp::BitOr => x | y,
        BinOp::BitXor => x ^ y,
        BinOp::Lt => (x < y) as i64,
        BinOp::Le => (x <= y) as i64,
        BinOp::Gt => (x > y) as i64,
        BinOp::Ge => (x >= y) as i64,
        BinOp::Eq => (x == y) as i64,
        BinOp::Ne => (x != y) as i64,
        BinOp::And => (x != 0 && y != 0) as i64,
        BinOp::Or => (x != 0 || y != 0) as i64,
    })
}

fn fold_float(op: BinOp, x: f64, y: f64) -> Option<Expr> {
    Some(match op {
        BinOp::Add => Expr::Float(x + y),
        BinOp::Sub => Expr::Float(x - y),
        BinOp::Mul => Expr::Float(x * y),
        BinOp::Div => Expr::Float(x / y),
        BinOp::Lt => Expr::Int((x < y) as i64),
        BinOp::Le => Expr::Int((x <= y) as i64),
        BinOp::Gt => Expr::Int((x > y) as i64),
        BinOp::Ge => Expr::Int((x >= y) as i64),
        BinOp::Eq => Expr::Int((x == y) as i64),
        BinOp::Ne => Expr::Int((x != y) as i64),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn opt(src: &str) -> ProgramAst {
        optimize(parse(src).expect("parse"))
    }

    fn body(ast: &ProgramAst) -> &[Stmt] {
        &ast.funcs[0].body
    }

    #[test]
    fn folds_constants() {
        let ast = opt("fn main() { out(2 + 3 * 4); }");
        assert_eq!(
            body(&ast),
            &[Stmt::Expr(Expr::Call("out".into(), vec![Expr::Int(14)], 1))]
        );
    }

    #[test]
    fn folds_float_constants() {
        let ast = opt("fn main() { outf(1.5 * 2.0); out(1.0 < 2.0); }");
        let Stmt::Expr(Expr::Call(_, args, _)) = &body(&ast)[0] else {
            panic!()
        };
        assert_eq!(args[0], Expr::Float(3.0));
        let Stmt::Expr(Expr::Call(_, args, _)) = &body(&ast)[1] else {
            panic!()
        };
        assert_eq!(args[0], Expr::Int(1));
    }

    #[test]
    fn eliminates_dead_branches() {
        let ast = opt("fn main() { if (1) { out(1); } else { out(2); } if (0) { out(3); } }");
        assert_eq!(body(&ast).len(), 1, "both ifs resolved: {:?}", body(&ast));
    }

    #[test]
    fn removes_dead_while() {
        let ast = opt("fn main() { while (0) { out(9); } out(1); }");
        assert_eq!(body(&ast).len(), 1);
    }

    #[test]
    fn unrolls_small_loops() {
        let ast = opt("fn main() { int i; for (i = 0; i < 4; i = i + 1) { out(i); } }");
        // decl + 4 * (assign i, out) + final i assignment = 1 + 8 + 1
        let b = body(&ast);
        assert_eq!(b.len(), 10, "{b:?}");
        // Loop variable ends at its exit value.
        assert_eq!(
            b.last(),
            Some(&Stmt::Assign {
                lv: LValue::Var("i".into()),
                expr: Expr::Int(4),
                line: 1
            })
        );
    }

    #[test]
    fn does_not_unroll_large_or_unsafe_loops() {
        let big = opt("fn main() { int i; for (i = 0; i < 100; i = i + 1) { out(i); } }");
        assert!(matches!(body(&big)[1], Stmt::For { .. }));
        let writes = opt("fn main() { int i; for (i = 0; i < 4; i = i + 1) { i = i + 1; } }");
        assert!(matches!(body(&writes)[1], Stmt::For { .. }));
        let breaks = opt("fn main() { int i; for (i = 0; i < 4; i = i + 1) { break; } }");
        assert!(matches!(body(&breaks)[1], Stmt::For { .. }));
    }

    #[test]
    fn unrolls_with_stride_and_preserves_exit_value() {
        let ast = opt("fn main() { int i; for (i = 1; i < 8; i = i + 3) { out(i); } out(i); }");
        let b = body(&ast);
        // i takes 1, 4, 7; exits at 10.
        let outs: Vec<i64> = b
            .iter()
            .filter_map(|s| match s {
                Stmt::Assign {
                    lv: LValue::Var(v),
                    expr: Expr::Int(k),
                    ..
                } if v == "i" => Some(*k),
                _ => None,
            })
            .collect();
        assert_eq!(outs, vec![1, 4, 7, 10]);
    }

    #[test]
    fn algebraic_identities() {
        let ast =
            opt("fn main() { int x; x = 5; out(x + 0); out(x * 1); out(x * 0); out(x | 0); }");
        let exprs: Vec<&Expr> = body(&ast)
            .iter()
            .filter_map(|s| match s {
                Stmt::Expr(Expr::Call(_, args, _)) => Some(&args[0]),
                _ => None,
            })
            .collect();
        assert!(matches!(exprs[0], Expr::Var(v, _) if v == "x"));
        assert!(matches!(exprs[1], Expr::Var(v, _) if v == "x"));
        assert_eq!(exprs[2], &Expr::Int(0));
        assert!(matches!(exprs[3], Expr::Var(v, _) if v == "x"));
    }

    #[test]
    fn side_effects_survive_mul_by_zero() {
        // f() has side effects: 0 * f() must NOT fold away.
        let ast = opt("fn f() -> int { return 1; } fn main() { out(0 * f()); }");
        let f = &ast.funcs[1];
        let Stmt::Expr(Expr::Call(_, args, _)) = &f.body[0] else {
            panic!()
        };
        assert!(matches!(args[0], Expr::Binary(BinOp::Mul, _, _, _)));
    }

    #[test]
    fn dead_assign_chain_from_adjacent_unrolls_is_removed() {
        // Two adjacent unrolled loops: the first loop's exit-value
        // assignment `i = 2` is killed by the second loop's `i = 0`.
        let ast = opt("fn main() { int i; int s; s = 0; \
             for (i = 0; i < 2; i = i + 1) { s = s + 1; } \
             for (i = 0; i < 2; i = i + 1) { s = s + 2; } out(s); }");
        let i_assigns: Vec<i64> = body(&ast)
            .iter()
            .filter_map(|s| match s {
                Stmt::Assign {
                    lv: LValue::Var(v),
                    expr: Expr::Int(k),
                    ..
                } if v == "i" => Some(*k),
                _ => None,
            })
            .collect();
        // The bodies never read `i`, so only the final exit value remains.
        assert_eq!(i_assigns, vec![2], "{:?}", body(&ast));
    }

    #[test]
    fn dead_assign_not_removed_when_possibly_read() {
        // `out(i)` between the two writes reads i: both must survive.
        let ast = opt("fn main() { int i; i = 1; out(i); i = 2; out(i); }");
        let writes = body(&ast)
            .iter()
            .filter(|s| matches!(s, Stmt::Assign { lv: LValue::Var(v), .. } if v == "i"))
            .count();
        assert_eq!(writes, 2);
    }

    #[test]
    fn for_init_kills_preceding_assignment() {
        let ast = opt("fn main() { int i; int s; s = 0; i = 7; \
             for (i = 0; i < 100; i = i + 1) { s = s + i; } out(s); }");
        // `i = 7` is dead: the loop init rewrites i before any read.
        let dead = body(&ast).iter().any(|s| {
            matches!(s, Stmt::Assign { lv: LValue::Var(v), expr: Expr::Int(7), .. } if v == "i")
        });
        assert!(!dead, "{:?}", body(&ast));
    }

    #[test]
    fn nested_break_does_not_block_outer_unroll() {
        let ast = opt("fn main() { int i; int j; for (i = 0; i < 2; i = i + 1) { \
             for (j = 0; j < 100; j = j + 1) { break; } } }");
        // Outer loop unrolls (the break binds to the inner loop).
        let fors = body(&ast)
            .iter()
            .filter(|s| matches!(s, Stmt::For { .. }))
            .count();
        assert_eq!(
            fors,
            2,
            "inner loop duplicated twice by the unroll: {:?}",
            body(&ast)
        );
    }
}
