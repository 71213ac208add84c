//! Differential property tests: the columnar executor must be
//! indistinguishable from the retained row-wise oracle on every generated
//! `SELECT` (projections, `WHERE`, `QUALIFY`, `DISTINCT`), and pass-through
//! projections must share column storage rather than deep-copying cells.

use cocoon_sql::{
    execute, execute_rowwise, BinaryOp, Expr, Projection, RowNumberFilter, Select, SortOrder,
    UnaryOp,
};
use cocoon_table::{Column, Schema, Table, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Cell values mixing NULLs, text, ints and floats (cross-type numeric
/// equality and NULL routing are the interesting value-map edge cases).
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        "[a-c]{0,2}".prop_map(Value::from),
        (-5i64..5).prop_map(Value::Int),
        (-5i64..5).prop_map(|i| Value::Float(i as f64 / 2.0)),
        // -0.0 == 0.0 == Int(0) under Value::eq; exercises the Hash/Eq
        // agreement the value-map fast path's lookup table relies on.
        Just(Value::Float(-0.0)),
    ]
}

/// The generated table's columns.
const COLUMNS: [&str; 3] = ["a", "b", "c"];

/// A three-column table `a`, `b`, `c` of 0..12 rows with mixed cell values.
fn table() -> impl Strategy<Value = Table> {
    proptest::collection::vec((value(), value(), value()), 0..12).prop_map(|cells| {
        let mut columns = [Vec::new(), Vec::new(), Vec::new()];
        for (a, b, c) in cells {
            columns[0].push(a);
            columns[1].push(b);
            columns[2].push(c);
        }
        Table::new(
            Schema::all_text(&COLUMNS).expect("schema"),
            columns.into_iter().map(Column::new).collect(),
        )
        .expect("table")
    })
}

fn column_ref() -> impl Strategy<Value = Expr> {
    prop_oneof![Just(Expr::col("a")), Just(Expr::col("b")), Just(Expr::col("c"))]
}

/// FD key literals: a narrow domain, so arms often hit generated cells,
/// with NULL, Int/Float agreement and -0.0 == 0.
fn key() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::from("")),
        Just(Value::from("a")),
        Just(Value::Int(0)),
        Just(Value::Float(-0.0)),
        Just(Value::Int(1)),
        Just(Value::Float(1.0)),
    ]
}

/// The group-scoped FD repair shape, `CASE WHEN k1 = lit AND … THEN lit …
/// ELSE … END`, over 1–3 key columns. Each arm shuffles its leaves and
/// flips some to `lit = col`; a duplicate of the first arm's key with
/// another result may follow. `ELSE` is absent, a literal, a key column, a
/// column outside the key (a key column when all three are keys), or a
/// strict `CAST`, which the hash map refuses.
fn fd_case() -> impl Strategy<Value = Expr> {
    (1usize..=3, 0usize..3).prop_flat_map(|(width, first)| {
        let keys: Vec<&'static str> = (0..width).map(|i| COLUMNS[(first + i) % 3]).collect();
        let arm = (
            proptest::collection::vec((key(), any::<bool>()), width),
            0usize..3,
            any::<bool>(),
            value(),
        );
        (proptest::collection::vec(arm, 1..5), any::<bool>(), 0usize..5, value()).prop_map(
            move |(arms, duplicate, otherwise, else_literal)| {
                let mut arms: Vec<(Expr, Expr)> = arms
                    .into_iter()
                    .map(|(leaves, rotate, reverse, then)| {
                        let mut leaves: Vec<Expr> = keys
                            .iter()
                            .zip(leaves)
                            .map(|(column, (key, flip))| {
                                let (column, key) = (Expr::col(*column), Expr::Literal(key));
                                if flip {
                                    Expr::eq(key, column)
                                } else {
                                    Expr::eq(column, key)
                                }
                            })
                            .collect();
                        leaves.rotate_left(rotate % width);
                        if reverse {
                            leaves.reverse();
                        }
                        let when = leaves.into_iter().reduce(Expr::and).expect("one leaf or more");
                        (when, Expr::Literal(then))
                    })
                    .collect();
                if duplicate {
                    arms.push((arms[0].0.clone(), Expr::lit("duplicate")));
                }
                let otherwise = match otherwise {
                    0 => None,
                    1 => Some(Expr::Literal(else_literal)),
                    2 => Some(Expr::col(keys[0])),
                    3 => Some(Expr::col(COLUMNS[(first + width) % 3])),
                    _ => Some(Expr::cast(Expr::col(keys[0]), cocoon_table::DataType::Int)),
                };
                Expr::Case { operand: None, arms, otherwise: otherwise.map(Box::new) }
            },
        )
    })
}

/// Scalar expressions covering every evaluator path: literal, column,
/// cast, logic, arithmetic, CASE maps (literal value maps and the FD
/// shape), lazy searched CASE and IN lists.
fn expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![value().prop_map(Expr::Literal), column_ref()];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::eq(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::and(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::or(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(BinaryOp::Add, l, r)),
            inner.clone().prop_map(Expr::is_null),
            inner.clone().prop_map(|e| Expr::Unary { op: UnaryOp::Not, expr: Box::new(e) }),
            // Simple CASE with literal arms: the value-map fast path…
            (column_ref(), proptest::collection::vec((value(), value()), 1..4), value()).prop_map(
                |(col, arms, otherwise)| Expr::Case {
                    operand: Some(Box::new(col)),
                    arms: arms
                        .into_iter()
                        .map(|(w, t)| (Expr::Literal(w), Expr::Literal(t)))
                        .collect(),
                    otherwise: Some(Box::new(Expr::Literal(otherwise))),
                }
            ),
            // …and the canonical cleaning shape, ELSE'ing the operand back.
            (column_ref(), proptest::collection::vec((value(), value()), 1..4)).prop_map(
                |(col, arms)| Expr::Case {
                    operand: Some(Box::new(col.clone())),
                    arms: arms
                        .into_iter()
                        .map(|(w, t)| (Expr::Literal(w), Expr::Literal(t)))
                        .collect(),
                    otherwise: Some(Box::new(col)),
                }
            ),
            // General searched CASE: arm by arm over the rows no earlier
            // arm matched.
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, o)| Expr::Case {
                operand: None,
                arms: vec![(c, t)],
                otherwise: Some(Box::new(o)),
            }),
            fd_case(),
            (inner.clone(), proptest::collection::vec(inner.clone(), 1..3))
                .prop_map(|(e, list)| Expr::InList { expr: Box::new(e), list, negated: false }),
            inner.clone().prop_map(|e| Expr::try_cast(e, cocoon_table::DataType::Int)),
            inner.clone().prop_map(|e| Expr::cast(e, cocoon_table::DataType::Text)),
            // Strict fallible cast: both executors must error on the same
            // inputs (non-numeric text → CAST error).
            inner.prop_map(|e| Expr::cast(e, cocoon_table::DataType::Int)),
        ]
    })
}

fn projection() -> impl Strategy<Value = Projection> {
    prop_oneof![
        Just(Projection::Star),
        column_ref().prop_map(|e| Projection::Expr { expr: e, alias: None }),
        (expr(), "[a-z]{1,3}").prop_map(|(e, alias)| Projection::aliased(e, alias)),
    ]
}

fn qualify() -> impl Strategy<Value = Option<RowNumberFilter>> {
    prop_oneof![
        Just(None),
        (column_ref(), column_ref(), any::<bool>(), 1usize..3).prop_map(
            |(part, order, desc, keep)| {
                Some(RowNumberFilter {
                    partition_by: vec![part],
                    order_by: vec![(order, if desc { SortOrder::Desc } else { SortOrder::Asc })],
                    keep,
                })
            }
        ),
    ]
}

fn select() -> impl Strategy<Value = Select> {
    (
        proptest::collection::vec(projection(), 1..4),
        prop_oneof![Just(None), expr().prop_map(Some)],
        qualify(),
        any::<bool>(),
    )
        .prop_map(|(projections, where_clause, qualify, distinct)| Select {
            distinct,
            projections,
            from: "t".into(),
            where_clause,
            qualify,
            comment: None,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline property: columnar and row-wise execution agree on
    /// every generated query — same table on success, and when one errors
    /// (bad cast, untyped comparison, …) so does the other.
    #[test]
    fn columnar_matches_rowwise_oracle(t in table(), s in select()) {
        let columnar = execute(&s, &t);
        let rowwise = execute_rowwise(&s, &t);
        match (columnar, rowwise) {
            (Ok(c), Ok(r)) => prop_assert_eq!(c, r),
            (Err(_), Err(_)) => {}
            (c, r) => prop_assert!(
                false,
                "executors disagree: columnar={:?} rowwise={:?}",
                c.map(|t| t.to_string()),
                r.map(|t| t.to_string())
            ),
        }
    }

    /// The FD repair shape on its own, over every row and over a `WHERE`'s
    /// survivors: the hash probe (or, for a strict-CAST `ELSE`, the lazy
    /// arm-by-arm path) agrees with the row-wise oracle.
    #[test]
    fn fd_case_matches_rowwise_oracle(
        t in table(),
        case in fd_case(),
        where_clause in prop_oneof![Just(None), expr().prop_map(Some)],
    ) {
        let s = Select {
            distinct: false,
            projections: vec![Projection::Star, Projection::aliased(case, "repaired")],
            from: "t".into(),
            where_clause,
            qualify: None,
            comment: None,
        };
        match (execute(&s, &t), execute_rowwise(&s, &t)) {
            (Ok(c), Ok(r)) => prop_assert_eq!(c, r),
            (Err(_), Err(_)) => {}
            (c, r) => prop_assert!(
                false,
                "executors disagree: columnar={:?} rowwise={:?}",
                c.map(|t| t.to_string()),
                r.map(|t| t.to_string())
            ),
        }
    }

    /// Pass-through projections must share storage, not deep-copy: every
    /// `SELECT *` (and bare-column projection) output column is the same
    /// allocation as its input column.
    #[test]
    fn pass_through_projections_share_columns(t in table()) {
        let star = execute(&Select::star("t"), &t).expect("star executes");
        for c in 0..t.width() {
            prop_assert!(
                Arc::ptr_eq(t.shared_column(c).expect("col"), star.shared_column(c).expect("col")),
                "star projection deep-copied column {}", c
            );
        }
        let bare = Select {
            distinct: false,
            projections: vec![
                Projection::Expr { expr: Expr::col("b"), alias: None },
                Projection::aliased(Expr::col("a"), "renamed"),
            ],
            from: "t".into(),
            where_clause: None,
            qualify: None,
            comment: None,
        };
        let out = execute(&bare, &t).expect("bare executes");
        prop_assert!(Arc::ptr_eq(t.shared_column(1).expect("col"), out.shared_column(0).expect("col")));
        prop_assert!(Arc::ptr_eq(t.shared_column(0).expect("col"), out.shared_column(1).expect("col")));
    }
}
