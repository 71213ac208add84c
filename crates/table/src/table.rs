//! The in-memory columnar table.

use crate::column::Column;
use crate::error::{Result, TableError};
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// An in-memory columnar table: a [`Schema`] plus one shared [`Column`] per
/// field.
///
/// This plays the role DuckDB plays for the original Cocoon: the relation the
/// profiler scans and the cleaning SQL rewrites.
///
/// Columns are stored behind [`Arc`] so that operators which pass a column
/// through unchanged (cloning a table, `SELECT *`, single-column rewrites)
/// share storage instead of deep-copying every cell. Mutation goes through
/// [`Arc::make_mut`], i.e. copy-on-write: a column's cells are only cloned
/// when it is actually written while shared.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Arc<Column>>,
}

impl Table {
    /// Builds a table, validating that columns match the schema in arity and
    /// that all columns have equal length.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        Table::from_shared(schema, columns.into_iter().map(Arc::new).collect())
    }

    /// Builds a table from already-shared columns (the zero-copy
    /// constructor the SQL executor uses for pass-through projections).
    pub fn from_shared(schema: Schema, columns: Vec<Arc<Column>>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(TableError::LengthMismatch {
                expected: schema.len(),
                actual: columns.len(),
            });
        }
        if let Some(first) = columns.first() {
            for col in &columns {
                if col.len() != first.len() {
                    return Err(TableError::LengthMismatch {
                        expected: first.len(),
                        actual: col.len(),
                    });
                }
            }
        }
        Ok(Table { schema, columns })
    }

    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = (0..schema.len()).map(|_| Arc::new(Column::default())).collect();
        Table { schema, columns }
    }

    /// Builds an all-text table from a header and rows of strings — the shape
    /// of freshly-ingested CSV data.
    pub fn from_text_rows<S: AsRef<str>>(header: &[S], rows: &[Vec<String>]) -> Result<Self> {
        let schema = Schema::all_text(header)?;
        let mut columns: Vec<Column> = (0..schema.len()).map(|_| Column::default()).collect();
        for (line, row) in rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(TableError::Csv {
                    line: line + 2, // +1 header, +1 one-based
                    message: format!("expected {} fields, got {}", schema.len(), row.len()),
                });
            }
            for (col, cell) in columns.iter_mut().zip(row) {
                col.push(Value::Text(cell.clone()));
            }
        }
        Table::new(schema, columns)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.schema.len()
    }

    /// Number of rows.
    pub fn height(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// The column at `index`.
    pub fn column(&self, index: usize) -> Result<&Column> {
        self.columns
            .get(index)
            .map(Arc::as_ref)
            .ok_or(TableError::ColumnIndexOutOfBounds { index, width: self.columns.len() })
    }

    /// The shared handle of a column. Cloning the returned `Arc` shares
    /// storage; [`Arc::ptr_eq`] on two handles tells whether two tables
    /// physically share the column.
    pub fn shared_column(&self, index: usize) -> Result<&Arc<Column>> {
        self.columns
            .get(index)
            .ok_or(TableError::ColumnIndexOutOfBounds { index, width: self.columns.len() })
    }

    /// Mutable access to a column; copy-on-write if the column is shared
    /// with another table.
    pub fn column_mut(&mut self, index: usize) -> Result<&mut Column> {
        let width = self.columns.len();
        self.columns
            .get_mut(index)
            .map(Arc::make_mut)
            .ok_or(TableError::ColumnIndexOutOfBounds { index, width })
    }

    /// The column named `name`.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        self.column(self.schema.index_of(name)?)
    }

    /// Mutable access to the column named `name`; copy-on-write if shared.
    pub fn column_by_name_mut(&mut self, name: &str) -> Result<&mut Column> {
        let idx = self.schema.index_of(name)?;
        self.column_mut(idx)
    }

    /// Reads one cell.
    pub fn cell(&self, row: usize, col: usize) -> Result<&Value> {
        self.column(col)?.get(row)
    }

    /// Writes one cell (copy-on-write if the column is shared).
    pub fn set_cell(&mut self, row: usize, col: usize, value: Value) -> Result<()> {
        self.column_mut(col)?.set(row, value)
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.width() {
            return Err(TableError::LengthMismatch { expected: self.width(), actual: row.len() });
        }
        for (col, value) in self.columns.iter_mut().zip(row) {
            Arc::make_mut(col).push(value);
        }
        Ok(())
    }

    /// Materialises row `row` as a vector of cloned values.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.height() {
            return Err(TableError::RowIndexOutOfBounds { index: row, height: self.height() });
        }
        Ok(self.columns.iter().map(|c| c.values()[row].clone()).collect())
    }

    /// Iterates over all rows (cloning cells; fine at benchmark scale).
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.height())
            .map(move |r| self.columns.iter().map(|c| c.values()[r].clone()).collect())
    }

    /// Updates the declared type of a column (the schema side of `CAST`).
    pub fn set_column_type(&mut self, index: usize, data_type: DataType) -> Result<()> {
        self.schema = self.schema.with_field_type(index, data_type)?;
        Ok(())
    }

    /// Keeps only the rows for which `keep` returns true.
    pub fn retain_rows(&mut self, keep: impl FnMut(usize) -> bool) {
        let height = self.height();
        let mask: Vec<bool> = (0..height).map(keep).collect();
        for col in &mut self.columns {
            let mut next = Vec::with_capacity(height);
            for (r, v) in col.values().iter().enumerate() {
                if mask[r] {
                    next.push(v.clone());
                }
            }
            *col = Arc::new(Column::new(next));
        }
    }

    /// Returns the indices of rows that are exact duplicates of an earlier
    /// row (the statistical detection for §2.1.7 Duplication).
    pub fn duplicate_row_indices(&self) -> Vec<usize> {
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        let mut dups = Vec::new();
        for (r, row) in self.rows().enumerate() {
            if !seen.insert(row) {
                dups.push(r);
            }
        }
        dups
    }

    /// `SELECT DISTINCT *`: removes exact duplicate rows, keeping first
    /// occurrences, and reports how many rows were dropped.
    pub fn distinct(&mut self) -> usize {
        let dups: HashSet<usize> = self.duplicate_row_indices().into_iter().collect();
        let dropped = dups.len();
        if dropped > 0 {
            self.retain_rows(|r| !dups.contains(&r));
        }
        dropped
    }

    /// Returns a copy containing only the first `n` rows (used to model the
    /// paper's 1000-row sampling for HoloClean / CleanAgent on Movies).
    /// When `n` covers the whole table the copy shares column storage.
    pub fn head(&self, n: usize) -> Table {
        let take = n.min(self.height());
        if take == self.height() {
            return self.clone();
        }
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(Column::new(c.values()[..take].to_vec())))
            .collect();
        Table { schema: self.schema.clone(), columns }
    }

    /// Adds a column to the right edge of the table.
    pub fn add_column(&mut self, field: Field, column: Column) -> Result<()> {
        if column.len() != self.height() && self.width() != 0 {
            return Err(TableError::LengthMismatch {
                expected: self.height(),
                actual: column.len(),
            });
        }
        let mut fields = self.schema.fields().to_vec();
        fields.push(field);
        self.schema = Schema::new(fields)?;
        self.columns.push(Arc::new(column));
        Ok(())
    }

    /// Renders all cells of every column as text. Useful to compare tables
    /// under the benchmark convention that operates on string renderings.
    pub fn render_cell(&self, row: usize, col: usize) -> Result<String> {
        Ok(self.cell(row, col)?.render())
    }
}

impl fmt::Display for Table {
    /// ASCII preview of the first rows, aligned per column.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_ROWS: usize = 20;
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let shown = self.height().min(MAX_ROWS);
        for r in 0..shown {
            for (c, w) in widths.iter_mut().enumerate() {
                let cell = self.columns[c].values()[r].to_string();
                *w = (*w).max(cell.len().min(24));
            }
        }
        for (c, name) in names.iter().enumerate() {
            write!(f, "{:<width$} ", name, width = widths[c])?;
        }
        writeln!(f)?;
        for r in 0..shown {
            for (c, w) in widths.iter().enumerate() {
                let mut cell = self.columns[c].values()[r].to_string();
                if cell.len() > 24 {
                    cell.truncate(21);
                    cell.push_str("...");
                }
                write!(f, "{:<width$} ", cell, width = w)?;
            }
            writeln!(f)?;
        }
        if self.height() > shown {
            writeln!(f, "... ({} rows total)", self.height())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: &[[&str; 2]]) -> Table {
        let data: Vec<Vec<String>> =
            rows.iter().map(|r| r.iter().map(|s| s.to_string()).collect()).collect();
        Table::from_text_rows(&["a", "b"], &data).unwrap()
    }

    #[test]
    fn construction_checks_arity() {
        let schema = Schema::all_text(&["a", "b"]).unwrap();
        let err = Table::new(schema, vec![Column::default()]).unwrap_err();
        assert!(matches!(err, TableError::LengthMismatch { .. }));
    }

    #[test]
    fn construction_checks_column_lengths() {
        let schema = Schema::all_text(&["a", "b"]).unwrap();
        let err =
            Table::new(schema, vec![Column::from_strings(["x"]), Column::from_strings(["y", "z"])])
                .unwrap_err();
        assert!(matches!(err, TableError::LengthMismatch { .. }));
    }

    #[test]
    fn from_text_rows_validates_row_width() {
        let err = Table::from_text_rows(&["a", "b"], &[vec!["only-one".to_string()]]);
        assert!(err.is_err());
    }

    #[test]
    fn cell_round_trip() {
        let mut table = t(&[["1", "x"], ["2", "y"]]);
        assert_eq!(table.cell(1, 0).unwrap(), &Value::Text("2".into()));
        table.set_cell(1, 0, Value::Int(7)).unwrap();
        assert_eq!(table.cell(1, 0).unwrap(), &Value::Int(7));
        assert_eq!(table.height(), 2);
        assert_eq!(table.width(), 2);
    }

    #[test]
    fn rows_and_push_row() {
        let mut table = t(&[["1", "x"]]);
        table.push_row(vec![Value::Text("2".into()), Value::Text("y".into())]).unwrap();
        let rows: Vec<_> = table.rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][1], Value::Text("y".into()));
        assert!(table.push_row(vec![Value::Null]).is_err());
    }

    #[test]
    fn duplicates_detected_and_removed() {
        let mut table = t(&[["1", "x"], ["2", "y"], ["1", "x"], ["1", "x"]]);
        assert_eq!(table.duplicate_row_indices(), vec![2, 3]);
        let dropped = table.distinct();
        assert_eq!(dropped, 2);
        assert_eq!(table.height(), 2);
        // Order of survivors preserved.
        assert_eq!(table.cell(0, 0).unwrap(), &Value::Text("1".into()));
        assert_eq!(table.cell(1, 0).unwrap(), &Value::Text("2".into()));
    }

    #[test]
    fn head_truncates() {
        let table = t(&[["1", "x"], ["2", "y"], ["3", "z"]]);
        let top = table.head(2);
        assert_eq!(top.height(), 2);
        assert_eq!(table.height(), 3);
        assert_eq!(table.head(99).height(), 3);
    }

    #[test]
    fn retain_rows_filters() {
        let mut table = t(&[["1", "x"], ["2", "y"], ["3", "z"]]);
        table.retain_rows(|r| r != 1);
        assert_eq!(table.height(), 2);
        assert_eq!(table.cell(1, 1).unwrap(), &Value::Text("z".into()));
    }

    #[test]
    fn add_column_extends_schema() {
        let mut table = t(&[["1", "x"]]);
        table.add_column(Field::new("c", DataType::Int), Column::new(vec![Value::Int(5)])).unwrap();
        assert_eq!(table.width(), 3);
        assert_eq!(table.cell(0, 2).unwrap(), &Value::Int(5));
        // mismatched length rejected
        let err =
            table.add_column(Field::new("d", DataType::Int), Column::new(vec![])).unwrap_err();
        assert!(matches!(err, TableError::LengthMismatch { .. }));
    }

    #[test]
    fn set_column_type_updates_schema() {
        let mut table = t(&[["1", "x"]]);
        table.set_column_type(0, DataType::Int).unwrap();
        assert_eq!(table.schema().field(0).unwrap().data_type(), DataType::Int);
    }

    #[test]
    fn display_previews() {
        let table = t(&[["1", "hello"]]);
        let text = table.to_string();
        assert!(text.contains('a') && text.contains("hello"));
    }

    #[test]
    fn clones_share_column_storage() {
        let table = t(&[["1", "x"], ["2", "y"]]);
        let copy = table.clone();
        for c in 0..table.width() {
            assert!(Arc::ptr_eq(table.shared_column(c).unwrap(), copy.shared_column(c).unwrap()));
        }
        // A full-table head shares storage too.
        let full = table.head(table.height());
        assert!(Arc::ptr_eq(table.shared_column(0).unwrap(), full.shared_column(0).unwrap()));
    }

    #[test]
    fn mutation_unshares_only_the_written_column() {
        let table = t(&[["1", "x"], ["2", "y"]]);
        let mut copy = table.clone();
        copy.set_cell(0, 1, Value::Text("z".into())).unwrap();
        // Written column diverged; original untouched.
        assert!(!Arc::ptr_eq(table.shared_column(1).unwrap(), copy.shared_column(1).unwrap()));
        assert_eq!(table.cell(0, 1).unwrap(), &Value::Text("x".into()));
        assert_eq!(copy.cell(0, 1).unwrap(), &Value::Text("z".into()));
        // Pass-through column still shared.
        assert!(Arc::ptr_eq(table.shared_column(0).unwrap(), copy.shared_column(0).unwrap()));
    }
}
