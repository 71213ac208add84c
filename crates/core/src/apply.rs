//! Shared machinery for compiling and applying column rewrites.

use crate::error::Result;
use cocoon_sql::{execute, Expr, Projection, Select};
use cocoon_table::{Table, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// Builds the `SELECT` that rewrites exactly one column with `expr`
/// (all other columns pass through unchanged).
pub fn column_rewrite_select(table: &Table, column: &str, expr: Expr) -> Select {
    let projections = table
        .schema()
        .fields()
        .iter()
        .map(|field| {
            if field.name() == column {
                Projection::aliased(expr.clone(), field.name())
            } else {
                Projection::Expr { expr: Expr::col(field.name()), alias: None }
            }
        })
        .collect();
    Select {
        distinct: false,
        projections,
        from: "input".into(),
        where_clause: None,
        qualify: None,
        comment: None,
    }
}

/// Executes a select against `table` and counts cell-level differences
/// (only meaningful when the row count is unchanged). Columns the select
/// passes through are `Arc` clones of the input's (see
/// [`cocoon_sql::execute`]), so the diff skips them without reading a cell.
pub fn apply_and_count(select: &Select, table: &Table) -> Result<(Table, usize)> {
    let output = execute(select, table)?;
    let mut changed = 0usize;
    if output.height() == table.height() && output.width() == table.width() {
        for c in 0..table.width() {
            // Physically shared columns cannot differ.
            if Arc::ptr_eq(table.shared_column(c)?, output.shared_column(c)?) {
                continue;
            }
            let before = table.column(c)?.values();
            let after = output.column(c)?.values();
            changed += before.iter().zip(after).filter(|(b, a)| b != a).count();
        }
    } else {
        changed = table.height().saturating_sub(output.height());
    }
    Ok((output, changed))
}

/// The value-map repair of `column` (`CASE column WHEN old THEN new …`, an
/// empty new value meaning NULL), with the pairs it applies: the compile
/// step the string-outlier and DMV cleaning reviews share.
pub(crate) fn value_map_rewrite(
    table: &Table,
    column: &str,
    mapping: &[(String, String)],
) -> (Select, Vec<(String, String)>) {
    let expr = Expr::value_map(column, &mapping_to_values(mapping));
    (column_rewrite_select(table, column, expr), mapping.to_vec())
}

/// Converts a textual cleaning mapping into `(Value, Value)` pairs; an
/// empty new value means NULL (the Figure 3 convention for "meaningless").
pub fn mapping_to_values(mapping: &[(String, String)]) -> Vec<(Value, Value)> {
    mapping
        .iter()
        .map(|(old, new)| {
            let new_value = if new.is_empty() { Value::Null } else { Value::Text(new.clone()) };
            (Value::Text(old.clone()), new_value)
        })
        .collect()
}

/// Restricts a mapping to entries whose old value actually occurs in the
/// census, preserving order and dropping identity entries.
pub fn restrict_mapping(
    mapping: &[(String, String)],
    census: &[(String, usize)],
) -> Vec<(String, String)> {
    let present: HashSet<&str> = census.iter().map(|(v, _)| v.as_str()).collect();
    mapping
        .iter()
        .filter(|(old, new)| old != new && present.contains(old.as_str()))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let rows: Vec<Vec<String>> =
            vec![vec!["1".into(), "English".into()], vec!["2".into(), "eng".into()]];
        Table::from_text_rows(&["id", "lang"], &rows).unwrap()
    }

    #[test]
    fn rewrite_replaces_one_column() {
        let t = table();
        let map = Expr::value_map("lang", &[(Value::from("English"), Value::from("eng"))]);
        let select = column_rewrite_select(&t, "lang", map);
        let (out, changed) = apply_and_count(&select, &t).unwrap();
        assert_eq!(changed, 1);
        assert_eq!(out.cell(0, 1).unwrap(), &Value::from("eng"));
        assert_eq!(out.cell(0, 0).unwrap(), &Value::from("1"));
        assert_eq!(out.schema().names(), vec!["id", "lang"]);
    }

    #[test]
    fn rewrite_shares_untouched_columns() {
        // An FD-shaped rewrite: a CASE over two columns' values rewrites a
        // third, so the output must share every other column's storage.
        let rows: Vec<Vec<String>> = vec![
            vec!["1".into(), "35000".into(), "birmingham".into(), "eng".into()],
            vec!["2".into(), "35000".into(), "birminghxm".into(), "eng".into()],
            vec!["3".into(), "35001".into(), "dothan".into(), "English".into()],
        ];
        let t = Table::from_text_rows(&["id", "zip", "city", "lang"], &rows).unwrap();
        let arm = |zip: &str, old: &str, new: &str| {
            let condition = Expr::and(
                Expr::eq(Expr::col("zip"), Expr::lit(zip)),
                Expr::eq(Expr::col("city"), Expr::lit(old)),
            );
            (condition, Expr::lit(new))
        };
        let case = Expr::Case {
            operand: None,
            arms: vec![arm("35000", "birminghxm", "birmingham"), arm("35001", "x", "y")],
            otherwise: Some(Box::new(Expr::col("city"))),
        };
        let select = column_rewrite_select(&t, "city", case);
        let (out, changed) = apply_and_count(&select, &t).unwrap();
        assert_eq!(changed, 1);
        assert_eq!(out.render_cell(1, 2).unwrap(), "birmingham");
        for c in 0..t.width() {
            let shared = Arc::ptr_eq(t.shared_column(c).unwrap(), out.shared_column(c).unwrap());
            // Every untouched column is the very same allocation, not a copy.
            assert_eq!(shared, c != 2, "column {c}");
        }
    }

    #[test]
    fn rewrite_matches_rowwise_oracle() {
        let t = table();
        let cast = Expr::try_cast(Expr::col("id"), cocoon_table::DataType::Int);
        let select = column_rewrite_select(&t, "id", cast);
        let (out, changed) = apply_and_count(&select, &t).unwrap();
        assert_eq!(out, cocoon_sql::execute_rowwise(&select, &t).unwrap());
        assert_eq!(changed, 2); // "1" → 1, "2" → 2
                                // Declared type follows the cast.
        assert_eq!(out.schema().field(0).unwrap().data_type(), cocoon_table::DataType::Int);
    }

    #[test]
    fn mapping_to_values_handles_null() {
        let pairs = mapping_to_values(&[("N/A".into(), String::new()), ("a".into(), "b".into())]);
        assert_eq!(pairs[0].1, Value::Null);
        assert_eq!(pairs[1].1, Value::from("b"));
    }

    #[test]
    fn restrict_mapping_filters() {
        let census = vec![("a".to_string(), 2), ("b".to_string(), 1)];
        let mapping = vec![
            ("a".to_string(), "x".to_string()),
            ("zz".to_string(), "y".to_string()),
            ("b".to_string(), "b".to_string()),
        ];
        assert_eq!(restrict_mapping(&mapping, &census), vec![("a".to_string(), "x".to_string())]);
    }

    #[test]
    fn row_dropping_counts_rows() {
        let t = table();
        let mut select = Select::star("input");
        select.where_clause = Some(Expr::eq(Expr::col("id"), Expr::lit("1")));
        let (out, changed) = apply_and_count(&select, &t).unwrap();
        assert_eq!(out.height(), 1);
        assert_eq!(changed, 1);
    }
}
